//! The session: detect → initialize → fit → campaign, one object.

use crate::config::{CelesteBuilder, CelesteConfig};
use crate::error::CelesteError;
use celeste_core::{validate_fit_inputs, FitStats, SourceParams, SourceProblem};
use celeste_sched::fault::mix64;
use celeste_sched::partition::RegionTask;
use celeste_sched::runtime::{process_region, RegionStats};
use celeste_sched::{
    fit_config_hash, plan_fingerprint, task_image_keys, CampaignReport, CancelToken, Checkpoint,
    CheckpointConfig, RegionResult, RunOptions,
};
use celeste_serve::{CatalogDaemon, ServeConfig};
use celeste_store::{catalog_content_hash, plan_provenance_keys, CatalogQuery, CatalogStore};
use celeste_survey::catalog::CatalogEntry;
use celeste_survey::io::ImageStore;
use celeste_survey::synth::SyntheticSurvey;
use celeste_survey::{Catalog, Image};
use std::collections::HashMap;

/// Entry point to the facade. [`Celeste::builder`] configures a
/// [`Session`]; see the [crate docs](crate) for the full lifecycle.
pub struct Celeste;

impl Celeste {
    /// Start configuring a session.
    pub fn builder() -> CelesteBuilder {
        CelesteBuilder::default()
    }

    /// A session with all defaults (never fails: the defaults are
    /// valid by construction).
    pub fn session() -> Session {
        match Celeste::builder().build() {
            Ok(session) => session,
            Err(_) => unreachable!("default configuration is valid"),
        }
    }
}

/// A configured pipeline session. Cheap to create and `Sync`; all
/// methods take `&self`, so one session can serve concurrent callers.
#[derive(Debug, Clone)]
pub struct Session {
    cfg: CelesteConfig,
}

/// The batch return of [`Session::run_campaign`]: the fitted
/// parameters of every source plus the measured runtime report.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Final fitted parameters, in initialization-catalog order.
    pub params: Vec<SourceParams>,
    /// The four-component runtime breakdown and task statistics.
    pub report: CampaignReport,
    /// Every per-task [`RegionResult`], in arrival order. Populated
    /// by [`Session::run_campaign`]; empty on the streaming path
    /// (the consumer received them instead).
    pub regions: Vec<RegionResult>,
}

/// Blocking iterator over [`RegionResult`]s, yielded to the consumer
/// closure of [`Session::run_campaign_streaming`] while the campaign
/// runs. Ends when the campaign finishes (or fails). Dropping it
/// early cancels the campaign cleanly: in-flight regions finish,
/// pending checkpoint state is flushed, and the campaign returns
/// `Ok` with [`CampaignReport::cancelled`] set — it never blocks on
/// a consumer that has stopped listening.
pub struct RegionStream {
    rx: crossbeam::channel::Receiver<RegionResult>,
    cancel: CancelToken,
}

impl Iterator for RegionStream {
    type Item = RegionResult;

    fn next(&mut self) -> Option<RegionResult> {
        self.rx.recv().ok()
    }
}

impl Drop for RegionStream {
    fn drop(&mut self) {
        // A fully drained stream means the campaign already finished;
        // cancelling then is a no-op (the report is only marked
        // cancelled when tasks actually remain).
        self.cancel.cancel();
    }
}

impl Session {
    pub(crate) fn from_config(cfg: CelesteConfig) -> Session {
        Session { cfg }
    }

    /// The validated configuration this session runs with.
    pub fn config(&self) -> &CelesteConfig {
        &self.cfg
    }

    /// Run heuristic detection + photometry (the Photo stage) over one
    /// field's images: exactly one image per band, r band required.
    pub fn detect(&self, images: &[&Image]) -> Result<Catalog, CelesteError> {
        Ok(celeste_photo::run_photo(images)?)
    }

    /// Initialize variational source parameters from a catalog (the
    /// paper's "initialize from an earlier survey's estimates").
    pub fn init_sources(&self, catalog: &Catalog) -> Vec<SourceParams> {
        catalog
            .entries
            .iter()
            .map(SourceParams::init_from_entry)
            .collect()
    }

    /// Fit one source against `images`, holding `neighbors` fixed in
    /// the pixel background. Input is validated (non-finite parameters
    /// or pixels are reported, not propagated into the Newton loop).
    pub fn fit_source(
        &self,
        source: &mut SourceParams,
        images: &[&Image],
        neighbors: &[&SourceParams],
    ) -> Result<FitStats, CelesteError> {
        let problem =
            SourceProblem::build(source, images, neighbors, &self.cfg.priors, &self.cfg.fit);
        let id = source.id;
        celeste_core::fit_source(source, &problem, &self.cfg.fit).map_err(|error| {
            CelesteError::Fit {
                source_id: Some(id),
                error,
            }
        })
    }

    /// Jointly optimize a region's sources with Cyclades block
    /// coordinate ascent on the shared executor (batch width =
    /// the session's resolved thread count). `neighbors` are sources
    /// outside the region, held fixed. Validates every source's
    /// parameters and every image's calibration and pixels before
    /// fitting (the same checks [`Session::fit_source`] applies).
    pub fn fit_region(
        &self,
        sources: &mut [SourceParams],
        images: &[&Image],
        neighbors: &[SourceParams],
        seed: u64,
    ) -> Result<RegionStats, CelesteError> {
        for sp in sources.iter().chain(neighbors.iter()) {
            celeste_core::validate_params(sp).map_err(|error| CelesteError::Fit {
                source_id: Some(sp.id),
                error,
            })?;
        }
        celeste_core::validate_images(images).map_err(|error| CelesteError::Fit {
            source_id: None,
            error,
        })?;
        Ok(process_region(
            sources,
            images,
            neighbors,
            &self.cfg.priors,
            &self.cfg.fit,
            self.cfg.threads,
            seed,
        ))
    }

    /// Validate a single-source problem without fitting (the check
    /// [`Session::fit_source`] applies).
    pub fn validate(
        &self,
        source: &SourceParams,
        problem: &SourceProblem,
    ) -> Result<(), CelesteError> {
        validate_fit_inputs(source, problem).map_err(|error| CelesteError::Fit {
            source_id: Some(source.id),
            error,
        })
    }

    /// Render and write every survey image into `store` (the paper's
    /// Lustre → Burst Buffer staging step). Returns the image count.
    pub fn stage(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
    ) -> Result<usize, CelesteError> {
        Ok(celeste_sched::stage_survey(survey, store)?)
    }

    /// Run a full campaign — both partition stages, Dtree-scheduled
    /// across the session's simulated nodes — collecting every
    /// [`RegionResult`] alongside the final parameters. Equivalent to
    /// draining [`Session::run_campaign_streaming`]; the final
    /// parameters are bit-identical to what
    /// [`run_campaign_with`](celeste_sched::run_campaign_with) returns
    /// for [`CelesteConfig::campaign`](crate::CelesteConfig::campaign).
    pub fn run_campaign(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
        init_catalog: &Catalog,
        tasks: &[RegionTask],
    ) -> Result<CampaignOutcome, CelesteError> {
        let (mut outcome, regions) =
            self.run_campaign_streaming(survey, store, init_catalog, tasks, |stream| {
                stream.collect::<Vec<RegionResult>>()
            })?;
        outcome.regions = regions;
        Ok(outcome)
    }

    /// [`Session::run_campaign`], streaming: the campaign runs on a
    /// scoped background thread while `consume` runs on the calling
    /// thread with a live [`RegionStream`] — each Dtree task's fitted
    /// sources arrive the moment the task is written back, so callers
    /// can checkpoint or serve partial catalogs mid-campaign. Returns
    /// the batch outcome (with [`CampaignOutcome::regions`] empty —
    /// the consumer saw them) plus whatever `consume` returned. If
    /// `consume` returns while the stream still has results coming,
    /// the campaign is cancelled cleanly (see [`RegionStream`]).
    pub fn run_campaign_streaming<R, F>(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
        init_catalog: &Catalog,
        tasks: &[RegionTask],
        consume: F,
    ) -> Result<(CampaignOutcome, R), CelesteError>
    where
        F: FnOnce(RegionStream) -> R,
    {
        self.campaign_with(survey, store, init_catalog, tasks, None, None, consume)
    }

    /// [`Session::run_campaign`] with durable progress, resumed from
    /// the checkpoint at [`CheckpointConfig::path`]. Every completed
    /// region is recorded to `ckpt` (written atomically every
    /// [`CheckpointConfig::every`] completions and once at the end).
    /// Regions the file already holds are restored bit-exactly (and
    /// appear in [`CampaignOutcome::regions`] alongside freshly fitted
    /// ones); only the rest are scheduled. The checkpoint's plan
    /// fingerprint must match `tasks` — resuming against a different
    /// task plan is a typed error, not silent corruption. If the file
    /// does not exist yet, this is a fresh checkpointed run, so
    /// crash-retry loops can call `resume_campaign` unconditionally.
    pub fn resume_campaign(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
        init_catalog: &Catalog,
        tasks: &[RegionTask],
        ckpt: &CheckpointConfig,
    ) -> Result<CampaignOutcome, CelesteError> {
        let resume = if ckpt.path.exists() {
            Some(
                Checkpoint::load(&ckpt.path, plan_fingerprint(tasks))
                    .map_err(celeste_sched::CampaignError::Checkpoint)?,
            )
        } else {
            None
        };
        let (mut outcome, regions) = self.campaign_with(
            survey,
            store,
            init_catalog,
            tasks,
            Some(ckpt),
            resume,
            |stream| stream.collect::<Vec<RegionResult>>(),
        )?;
        outcome.regions = regions;
        Ok(outcome)
    }

    /// Run a campaign and stream every fitted region into `catalog`,
    /// a [`CatalogStore`] concurrent readers can query *while the
    /// campaign is still running*. Quarantined regions (see
    /// [`CampaignReport::failed_regions`]) never reach the store, so
    /// its contents are exactly the successfully fitted regions; once
    /// the campaign finishes, [`CatalogStore::to_catalog`] is
    /// bit-identical to the batch [`Session::run_campaign`] output at
    /// any thread count.
    ///
    /// Every region is also recorded in the store's provenance cache,
    /// keyed by the content of everything its fit was conditioned on
    /// (task geometry, initialization entries of its sources and
    /// fixed neighbors, the exact image set, the survey content, and
    /// the fit configuration — see
    /// [`task_provenance_key`](celeste_store::task_provenance_key)).
    /// Re-running over an overlapping footprint replays cache hits as
    /// resume state, refitting only tasks whose inputs changed:
    /// [`CampaignReport::tasks_restored`] counts the shards served
    /// from cache, and an unchanged re-run restores every task and
    /// refits none.
    pub fn run_campaign_into_store(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
        init_catalog: &Catalog,
        tasks: &[RegionTask],
        catalog: &CatalogStore,
    ) -> Result<CampaignOutcome, CelesteError> {
        let salt = self.provenance_salt(survey);
        let keys = plan_provenance_keys(tasks, init_catalog, salt, |t| task_image_keys(survey, t));
        let mut completed = Vec::new();
        for (t, &k) in tasks.iter().zip(&keys) {
            if let Some(mut r) = catalog.cached_region(k) {
                // The cached fit is keyed purely by input content; the
                // re-run's plan may number the task differently.
                r.task_id = t.id;
                r.stage = t.stage;
                completed.push(r);
            }
        }
        let resume = (!completed.is_empty()).then(|| Checkpoint {
            fingerprint: plan_fingerprint(tasks),
            completed,
        });
        let key_of: HashMap<u64, u64> = tasks.iter().zip(&keys).map(|(t, &k)| (t.id, k)).collect();
        let (outcome, ()) =
            self.campaign_with(survey, store, init_catalog, tasks, None, resume, |stream| {
                for r in stream {
                    match key_of.get(&r.task_id) {
                        Some(&k) => catalog.absorb(k, &r),
                        None => catalog.ingest(&r),
                    }
                }
            })?;
        Ok(outcome)
    }

    /// Serve a [`CatalogQuery`] against a [`CatalogStore`] (typically
    /// one a concurrent [`Session::run_campaign_into_store`] is still
    /// filling). Malformed queries come back as
    /// [`CelesteError::Store`], never a panic.
    pub fn query(
        &self,
        catalog: &CatalogStore,
        query: &CatalogQuery,
    ) -> Result<Vec<CatalogEntry>, CelesteError> {
        Ok(catalog.query(query)?)
    }

    /// Start a catalog daemon: a [`CatalogDaemon`] owning a
    /// [`celeste_serve::ServedStore`] (restored from
    /// [`ServeConfig::snapshot`] if the file exists — instant
    /// restart, zero refits) and answering the full query API over
    /// TCP on `addr` (`"127.0.0.1:0"` picks an ephemeral port).
    ///
    /// The daemon serves while a campaign ingests: pass
    /// `daemon.store().store()` as the catalog of a concurrent
    /// [`Session::run_campaign_into_store`] and clients see every
    /// region the moment it is absorbed, bit-identical to an
    /// in-process query. Failures come back as
    /// [`CelesteError::Serve`] with the full cause chain.
    pub fn serve(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: &ServeConfig,
    ) -> Result<CatalogDaemon, CelesteError> {
        Ok(CatalogDaemon::start(addr, config)?)
    }

    /// The provenance-cache salt: everything campaign-global a region
    /// fit is conditioned on — the fit configuration and the survey
    /// content (truth catalog, geometry, seed) that determines the
    /// rendered imagery.
    fn provenance_salt(&self, survey: &SyntheticSurvey) -> u64 {
        let mut acc = 0x5EED_5E55_1051_0001u64;
        for bits in [
            fit_config_hash(&self.cfg.fit),
            catalog_content_hash(&survey.truth),
            survey.config.seed,
            survey.config.pixels_per_field as u64,
            survey.geometry.fields.len() as u64,
            survey.geometry.footprint.ra_min.to_bits(),
            survey.geometry.footprint.ra_max.to_bits(),
            survey.geometry.footprint.dec_min.to_bits(),
            survey.geometry.footprint.dec_max.to_bits(),
        ] {
            acc = mix64(acc ^ mix64(bits));
        }
        acc
    }

    /// The one campaign driver every public variant funnels through:
    /// spawns the campaign on a scoped thread with the session's
    /// lease/retry policy, streams results to `consume` on the
    /// calling thread, and wires the stream's cancel token so a
    /// consumer that stops listening shuts the campaign down instead
    /// of deadlocking it.
    #[allow(clippy::too_many_arguments)]
    fn campaign_with<R, F>(
        &self,
        survey: &SyntheticSurvey,
        store: &ImageStore,
        init_catalog: &Catalog,
        tasks: &[RegionTask],
        checkpoint: Option<&CheckpointConfig>,
        resume: Option<Checkpoint>,
        consume: F,
    ) -> Result<(CampaignOutcome, R), CelesteError>
    where
        F: FnOnce(RegionStream) -> R,
    {
        if tasks.is_empty() {
            return Err(CelesteError::EmptyTaskList);
        }
        let campaign_cfg = self.cfg.campaign();
        let cancel = CancelToken::default();
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            let priors = &self.cfg.priors;
            let cancel_ref = &cancel;
            let handle = scope.spawn(move || {
                let result = celeste_sched::run_campaign_with(
                    survey,
                    store,
                    init_catalog,
                    tasks,
                    priors,
                    &campaign_cfg,
                    RunOptions {
                        sink: Some(&tx),
                        checkpoint,
                        resume,
                        cancel: Some(cancel_ref),
                        clock: None,
                    },
                );
                // Dropping the last sender ends the consumer's stream.
                drop(tx);
                result
            });
            let consumed = consume(RegionStream {
                rx,
                cancel: cancel.clone(),
            });
            let (params, report) = match handle.join() {
                Ok(run) => run?,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            Ok((
                CampaignOutcome {
                    params,
                    report,
                    regions: Vec::new(),
                },
                consumed,
            ))
        })
    }
}
