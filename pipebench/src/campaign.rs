//! The `campaign` workload: pixels to catalog.
//!
//! A fixed three-field sky is observed with seeded pixel noise, the
//! images are staged, the sky is partitioned, and a campaign fits every
//! source into a `CatalogStore` at `nproc` threads, initialised from the
//! truth catalog with seeded perturbations of flux and position (the
//! paper initialises from an existing catalog). The serving layers are
//! not used.

use crate::mix::same_entries;
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::rng::{split_seed, Rng};
use crate::stats::{median, Sample};
use crate::steal::StealTrace;
use crate::trace::Tracer;
use crate::Ctx;
use celeste::model::{EvalWorkspace, Objective, SourceProblem, NUM_PARAMS};
use celeste::photo::compare::{compare_catalogs, CompareConfig, TableII};
use celeste::survey::skygeom::GeometryConfig;
use celeste::{
    partition_sky, Catalog, CatalogStore, Celeste, Image, ImageStore, PartitionConfig,
    RegionResult, RegionStats, Session, SkyCoord, SourceParams, SurveyConfig, SyntheticSurvey,
};
use std::path::Path;
use std::time::Instant;

/// Fields in the survey's one stripe.
const FIELDS: u32 = 3;
/// Pixels on a field's side.
const PIXELS: usize = 96;
/// Sources per square degree; with the geometry above, 112 sources,
/// two partition stages, a campaign of some 12 s on two threads (a
/// short run spans less of the host's slow drift in speed).
const DENSITY: f64 = 4000.0;
/// Sources fitted one at a time for `core.fit_ms` and friends.
const FIT_SAMPLE: usize = 40;
/// Rounds of loading every staged image for `survey.load_ms`.
const LOAD_ROUNDS: usize = 8;
/// Ingest timings `store.ingest_us` is read from: the campaign's
/// region results are replayed into fresh stores until there are this
/// many, enough for a p99.
const INGEST_SAMPLES: usize = 1000;

/// Seed of the sky the campaign observes. The sky (source positions,
/// types, fluxes, shapes) is the same at every workload seed, so every
/// run fits the same amount of work; `--seed` draws the observation —
/// pixel noise, seeing — and the initialisation's perturbation.
const SKY_SEED: u64 = 0x5C1E_57E0;

/// The survey observed with `seed`: the fixed sky of [`SKY_SEED`],
/// imaged with noise and seeing drawn from `seed`.
fn observe(seed: u64) -> SyntheticSurvey {
    let mut survey = SyntheticSurvey::generate(survey_config(SKY_SEED));
    survey.config.seed = seed;
    survey
}

fn survey_config(seed: u64) -> SurveyConfig {
    SurveyConfig {
        geometry: GeometryConfig {
            n_stripes: 1,
            fields_per_stripe: FIELDS,
            deep_stripe: None,
            epochs_per_stripe: 1,
            ..GeometryConfig::default()
        },
        pixels_per_field: PIXELS,
        source_density_per_sq_deg: DENSITY,
        // Fixed seeing: the PSF's size sets every source's active-pixel
        // count, so a seeing draw would change the campaign's work by
        // tens of percent from one seed to the next.
        seeing_jitter: 0.0,
        seed,
        ..SurveyConfig::default()
    }
}

/// Pixel scale of the survey's images, arcsec.
fn pixel_arcsec() -> f64 {
    GeometryConfig::default().field_width_deg * 3600.0 / PIXELS as f64
}

/// The initialisation catalog: truth with r flux scaled by
/// `exp(0.25 N(0,1))` and each coordinate offset by `N(0, 0.5 px)`.
fn perturbed_init(truth: &Catalog, seed: u64) -> Catalog {
    let mut rng = Rng::new(seed);
    let sigma_deg = 0.5 * pixel_arcsec() / 3600.0;
    let mut init = truth.clone();
    for e in &mut init.entries {
        e.flux_r_nmgy *= (0.25 * rng.normal()).exp();
        e.pos = SkyCoord::new(
            e.pos.ra + sigma_deg * rng.normal(),
            e.pos.dec + sigma_deg * rng.normal(),
        );
    }
    init
}

/// Bytes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| {
                let p = e.path();
                if p.is_dir() {
                    dir_bytes(&p)
                } else {
                    e.metadata().map_or(0, |m| m.len())
                }
            })
            .sum()
    })
}

/// Table II position error (px), |Δr| (mag), misclassified share.
fn accuracy(t: &TableII) -> (f64, f64, f64) {
    let n = t.missed_gals.n + t.missed_stars.n;
    let missed =
        t.missed_gals.mean * t.missed_gals.n as f64 + t.missed_stars.mean * t.missed_stars.n as f64;
    (t.position.mean, t.brightness.mean, missed / n.max(1) as f64)
}

/// Whether two campaigns' parameters are bit-identical.
fn same_params(a: &[SourceParams], b: &[SourceParams]) -> bool {
    let bits = |p: &SourceParams| {
        (
            p.id,
            p.base_pos.ra.to_bits(),
            p.base_pos.dec.to_bits(),
            p.params.map(f64::to_bits),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// One campaign into a fresh store; checks the store against the
/// returned parameters. Returns (params, report, seconds, mismatch),
/// the seconds less the time the host stole from each of the
/// `threads` CPUs the campaign keeps busy.
fn campaign_into_store(
    threads: usize,
    tracer: &Tracer,
    session: &Session,
    survey: &SyntheticSurvey,
    images: &ImageStore,
    init: &Catalog,
    tasks: &[celeste::RegionTask],
) -> Result<(Vec<SourceParams>, celeste::CampaignReport, f64, bool), String> {
    let store = CatalogStore::default();
    let (outcome, steal) = StealTrace::record(threads, || {
        let _s = tracer.span("sched.run_campaign_into_store", 0);
        session.run_campaign_into_store(survey, images, init, tasks, &store)
    });
    let outcome = outcome.map_err(|e| format!("campaign: {e}"))?;
    let wall = steal.undisturbed_s();
    let mut expected: Vec<_> = outcome.params.iter().map(SourceParams::to_entry).collect();
    expected.sort_by_key(|e| e.id);
    let mismatch =
        !same_entries(&store.to_catalog().entries, &expected) || store.len() != init.len();
    Ok((outcome.params, outcome.report, wall, mismatch))
}

/// One campaign drained through the streaming entry point.
struct Streamed {
    params: Vec<SourceParams>,
    report: celeste::CampaignReport,
    /// Sources optimised per second.
    rate: f64,
    /// Region results in arrival order.
    results: Vec<RegionResult>,
}

/// One campaign through the streaming entry point, each region result
/// ingested into a fresh store as it arrives, spans recorded by
/// `tracer`.
fn campaign_streaming(
    threads: usize,
    tracer: &Tracer,
    session: &Session,
    survey: &SyntheticSurvey,
    images: &ImageStore,
    init: &Catalog,
    tasks: &[celeste::RegionTask],
) -> Result<Streamed, String> {
    let store = CatalogStore::default();
    let mut results = Vec::new();
    let (outcome, steal) = StealTrace::record(threads, || {
        let _s = tracer.span("sched.run_campaign_streaming", 0);
        session.run_campaign_streaming(survey, images, init, tasks, |stream| {
            for r in stream {
                {
                    let _g = tracer.span("store.ingest", r.task_id + 1);
                    store.ingest(&r);
                }
                results.push(r);
            }
        })
    });
    let (outcome, ()) = outcome.map_err(|e| format!("streaming campaign: {e}"))?;
    Ok(Streamed {
        rate: outcome.report.sources_optimized as f64 / steal.undisturbed_s(),
        params: outcome.params,
        report: outcome.report,
        results,
    })
}

/// Time `CatalogStore::ingest` of the campaign's region results,
/// replayed into fresh stores until [`INGEST_SAMPLES`] calls are timed;
/// microseconds per call.
fn replay_ingests(results: &[RegionResult]) -> Vec<f64> {
    let mut us = Vec::with_capacity(INGEST_SAMPLES + results.len());
    while !results.is_empty() && us.len() < INGEST_SAMPLES {
        let store = CatalogStore::default();
        for r in results {
            let t = Instant::now();
            store.ingest(r);
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    us
}

/// Run the `campaign` workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let tracer = &ctx.tracer;
    let seeds = split_seed(ctx.seed, 3);
    let (seed_survey, seed_init, seed_sample) = (seeds[0], seeds[1], seeds[2]);
    let session = Celeste::builder()
        .threads(ctx.threads)
        .build()
        .map_err(|e| format!("session: {e}"))?;

    // Set-up, three times: generate the survey and stage its images.
    let (mut setups, mut gen_s, mut stage_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut staged = None;
    for rep in 0..3 {
        let _s = tracer.span("bench.setup", 0);
        let dir = ctx.dir.join(format!("images-{rep}"));
        let (staged_now, steal) = StealTrace::record(ctx.threads, || {
            let t = Instant::now();
            let survey = {
                let _g = tracer.span("survey.generate", 0);
                observe(seed_survey)
            };
            gen_s.push(t.elapsed().as_secs_f64());
            let images = ImageStore::open(&dir).map_err(|e| format!("image store: {e}"))?;
            let t_stage = Instant::now();
            {
                let _g = tracer.span("survey.stage", 0);
                session
                    .stage(&survey, &images)
                    .map_err(|e| format!("stage: {e}"))?;
            }
            stage_s.push(t_stage.elapsed().as_secs_f64());
            Ok::<_, String>((survey, images))
        });
        let (survey, images) = staged_now?;
        setups.push(steal.undisturbed_s());
        if let Some((_, _, old_dir)) = staged.replace((survey, images, dir)) {
            std::fs::remove_dir_all(old_dir).ok();
        }
    }
    let (survey, images, image_dir) = staged.expect("three set-ups ran");
    let init = perturbed_init(&survey.truth, seed_init);

    let t = Instant::now();
    let tasks = {
        let _s = tracer.span("sched.partition_sky", 0);
        partition_sky(
            &init,
            &survey.geometry.footprint,
            &PartitionConfig {
                target_work: 600.0,
                max_sources: 40,
                ..Default::default()
            },
        )
    };
    let partition_s = t.elapsed().as_secs_f64();

    // The campaign, repeated until the run's time is used (at least
    // once); every repeat must reproduce the first bit for bit.
    let quiet = Tracer::new(false);
    let mut rates = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Vec<SourceParams>> = None;
    let started = Instant::now();
    while first.is_none() || (!tracer.enabled() && started.elapsed().as_secs_f64() < ctx.seconds) {
        let (params, report, wall, mismatch) = campaign_into_store(
            ctx.threads,
            &quiet,
            &session,
            &survey,
            &images,
            &init,
            &tasks,
        )?;
        attempted += tasks.len() as u64 + 1;
        failed += report.failed_regions.len() as u64 + u64::from(mismatch || report.cancelled);
        rates.push(report.sources_optimized as f64 / wall);
        match &first {
            None => first = Some(params),
            Some(p0) => {
                attempted += 1;
                failed += u64::from(!same_params(&params, p0));
            }
        }
    }
    let params = first.expect("at least one campaign");
    let fitted = Catalog::new({
        let mut e: Vec<_> = params.iter().map(SourceParams::to_entry).collect();
        e.sort_by_key(|e| e.id);
        e
    });

    // Accuracy against truth (Table II rows), and against the
    // initialisation: the fit must at least move sources closer to
    // their true positions than where it started.
    let cmp = CompareConfig {
        match_radius_arcsec: 1.5 * pixel_arcsec(),
        pixel_scale_arcsec: pixel_arcsec(),
        min_flux_nmgy: 3.0,
    };
    let (pos_err, mag_err, misclass) = accuracy(&compare_catalogs(&survey.truth, &fitted, &cmp));
    let (init_pos, init_mag, _) = accuracy(&compare_catalogs(&survey.truth, &init, &cmp));
    attempted += 1;
    if pos_err >= init_pos {
        eprintln!("campaign: fit did not improve position error: {pos_err} vs {init_pos} px");
        failed += 1;
    }

    let mut m = Metrics::default();
    if tracer.enabled() {
        // The traced run drains the same campaign through the streaming
        // entry point, so each region result (and the store ingest of
        // it) is visible; `run_campaign_into_store` is that stream plus
        // provenance caching. It runs untraced, then traced: the rate
        // difference on one entry point is the tracing overhead.
        let mut passes = Vec::new();
        for t in [&quiet, tracer] {
            let pass =
                campaign_streaming(ctx.threads, t, &session, &survey, &images, &init, &tasks)?;
            attempted += 1;
            failed += u64::from(!same_params(&pass.params, &params));
            passes.push(pass);
        }
        let [untraced, traced] = &passes[..] else {
            unreachable!("two passes")
        };
        m.set(
            "trace.overhead.throughput_per_s",
            traced.rate - untraced.rate,
            "1/s",
        );
        let stats: Vec<RegionStats> = traced.results.iter().map(|r| r.stats).collect();

        m.set("survey.generate_s", median(&gen_s), "s");
        m.set("survey.stage_s", median(&stage_s), "s");
        m.set("survey.staged_bytes", dir_bytes(&image_dir) as f64, "bytes");
        let loaded = load_images(tracer, &images, &mut m)?;

        sched_metrics(&traced.report, &stats, partition_s, tasks.len(), &mut m);
        let ingest = Sample::new(replay_ingests(&traced.results));
        m.set("store.ingest_us.p50", ingest.p(50.0), "us");
        m.set("store.ingest_us.p99", ingest.tail(99.0)?, "us");

        let refs: Vec<&Image> = loaded.iter().collect();
        attempted += FIT_SAMPLE as u64;
        failed += core_metrics(tracer, &session, &init, &params, &refs, seed_sample, &mut m)?;
        failed += par_metrics(tracer, ctx, &init, &params, &tasks, &refs, &mut m)?;

        m.set("acc.pos_err_px", pos_err, "px");
        m.set("acc.mag_err_r", mag_err, "mag");
        m.set("acc.misclass_frac", misclass, "ratio");
        m.set("acc.init_pos_err_px", init_pos, "px");
        m.set("acc.init_mag_err_r", init_mag, "mag");
    } else {
        m.set("setup_s", median(&setups), "s");
        m.set("throughput_per_s", median(&rates), "1/s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    eprintln!(
        "campaign: {} sources, {} tasks, {} campaigns at {:?} sources/s; pos {pos_err:.4} px (init {init_pos:.4}), |dmag| {mag_err:.4} (init {init_mag:.4}), misclass {misclass:.4}; setup {setups:?}",
        survey.truth.len(),
        tasks.len(),
        rates.len(),
        rates,
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// Load every staged image [`LOAD_ROUNDS`] times; returns one copy of
/// each.
fn load_images(
    tracer: &Tracer,
    images: &ImageStore,
    m: &mut Metrics,
) -> Result<Vec<Image>, String> {
    let keys = images.list().map_err(|e| format!("list images: {e}"))?;
    let mut ms = Vec::new();
    let mut loaded = Vec::new();
    for round in 0..LOAD_ROUNDS {
        for (k, key) in keys.iter().enumerate() {
            let t = Instant::now();
            let img = {
                let _s = tracer.span("survey.load", (round * keys.len() + k) as u64 + 1);
                images.load(key).map_err(|e| format!("load image: {e}"))?
            };
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            if round == 0 {
                loaded.push(img);
            }
        }
    }
    let s = Sample::new(ms);
    m.set("survey.load_ms.p50", s.p(50.0), "ms");
    m.set("survey.load_ms.p90", s.tail(90.0)?, "ms");
    Ok(loaded)
}

/// The scheduler's figures, read from the report and region results.
fn sched_metrics(
    report: &celeste::CampaignReport,
    stats: &[RegionStats],
    partition_s: f64,
    tasks: usize,
    m: &mut Metrics,
) {
    m.set("sched.partition_s", partition_s, "s");
    m.set("sched.tasks", tasks as f64, "count");
    let c = report.mean_components();
    let total = c.total().max(f64::MIN_POSITIVE);
    m.set(
        "sched.image_loading_share",
        c.image_loading / total,
        "ratio",
    );
    m.set(
        "sched.task_processing_share",
        c.task_processing / total,
        "ratio",
    );
    m.set(
        "sched.load_imbalance_share",
        c.load_imbalance / total,
        "ratio",
    );
    m.set("sched.other_share", c.other / total, "ratio");
    let durations = Sample::new(report.task_durations.clone());
    m.set("sched.task_s.p50", durations.p(50.0), "s");
    m.set("sched.task_s.max", durations.max(), "s");
    let sum = |f: fn(&RegionStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    m.set("sched.newton_iters", sum(|s| s.newton_iters), "count");
    m.set("sched.cyclades_passes", sum(|s| s.passes), "count");
    m.set("sched.graph_builds", sum(|s| s.graph_builds), "count");
    m.set("sched.conflict_edges", sum(|s| s.conflict_edges), "count");
    m.set(
        "sched.active_pixel_visits",
        report.active_pixel_visits as f64,
        "count",
    );
    m.set("sched.retries", report.retries as f64, "count");
    m.set(
        "sched.leases_expired",
        report.leases_expired as f64,
        "count",
    );
    m.set("sched.stale_results", report.stale_results as f64, "count");
}

/// Kernel cost per active pixel, and single-source fits, on problems
/// built from the campaign's own images: each sampled source starts
/// from its initialisation with every other source fixed at its
/// fitted values. Returns how many of the fits failed.
fn core_metrics(
    tracer: &Tracer,
    session: &Session,
    init: &Catalog,
    fitted: &[SourceParams],
    images: &[&Image],
    seed: u64,
    m: &mut Metrics,
) -> Result<u64, String> {
    let mut rng = Rng::new(seed);
    let n = init.entries.len();
    let sample: Vec<usize> = (0..FIT_SAMPLE.min(n)).map(|_| rng.below(n)).collect();
    let cfg = session.config();
    let (mut value_ns, mut deriv_ns) = (Vec::new(), Vec::new());
    let (mut fit_ms, mut iters, mut converged, mut failed) = (Vec::new(), Vec::new(), 0usize, 0);
    for (k, &i) in sample.iter().enumerate() {
        let mut source = SourceParams::init_from_entry(&init.entries[i]);
        let neighbors: Vec<&SourceParams> = fitted.iter().filter(|p| p.id != source.id).collect();
        if k < 8 {
            let problem = {
                let _s = tracer.span("core.build_problem", k as u64 + 1);
                SourceProblem::build(&source, images, &neighbors, &cfg.priors, &cfg.fit)
            };
            let px = problem.active_pixels().max(1) as f64;
            let mut ws = EvalWorkspace::new(NUM_PARAMS);
            let mut scratch = Default::default();
            let reps = 10;
            let t = Instant::now();
            {
                let _s = tracer.span("core.eval_value", k as u64 + 1);
                for _ in 0..reps {
                    std::hint::black_box(
                        problem.value_into(std::hint::black_box(&source.params), &mut scratch),
                    );
                }
            }
            value_ns.push(t.elapsed().as_nanos() as f64 / (reps as f64 * px));
            let t = Instant::now();
            {
                let _s = tracer.span("core.eval_deriv", k as u64 + 1);
                for _ in 0..reps {
                    problem.eval_into(std::hint::black_box(&source.params), &mut ws);
                    std::hint::black_box(ws.value);
                }
            }
            deriv_ns.push(t.elapsed().as_nanos() as f64 / (reps as f64 * px));
        }
        let t = Instant::now();
        let fit = {
            let _s = tracer.span("core.fit_source", k as u64 + 1);
            session.fit_source(&mut source, images, &neighbors)
        };
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match fit {
            Ok(stats) => {
                iters.push(stats.newton.iterations as f64);
                converged += usize::from(stats.newton.converged);
            }
            Err(_) => failed += 1,
        }
    }
    m.set("core.value_ns_per_px", median(&value_ns), "ns");
    m.set("core.deriv_ns_per_px", median(&deriv_ns), "ns");
    let fits = Sample::new(fit_ms);
    m.set("core.fit_ms.p50", fits.p(50.0), "ms");
    m.set("core.fit_ms.p75", fits.tail(75.0)?, "ms");
    let it = Sample::new(iters);
    m.set("core.newton_iters.p50", it.p(50.0), "count");
    m.set("core.newton_iters.p75", it.tail(75.0)?, "count");
    m.set(
        "core.converged_frac",
        converged as f64 / fits.len().max(1) as f64,
        "ratio",
    );
    Ok(failed)
}

/// `Session::fit_region` on the campaign's most crowded region at one
/// thread and at `nproc` threads.
fn par_metrics(
    tracer: &Tracer,
    ctx: &Ctx,
    init: &Catalog,
    fitted: &[SourceParams],
    tasks: &[celeste::RegionTask],
    images: &[&Image],
    m: &mut Metrics,
) -> Result<u64, String> {
    let task = tasks
        .iter()
        .max_by_key(|t| (t.source_indices.len(), std::cmp::Reverse(t.id)))
        .ok_or("no tasks")?;
    let members: Vec<u64> = task
        .source_indices
        .iter()
        .map(|&i| init.entries[i].id)
        .collect();
    let neighbors: Vec<SourceParams> = fitted
        .iter()
        .filter(|p| !members.contains(&p.id))
        .cloned()
        .collect();
    let mut rates = Vec::new();
    let mut failed = 0;
    for (threads, span) in [
        (1, "par.fit_region_1t"),
        (ctx.threads.max(2), "par.fit_region_2t"),
    ] {
        let session = Celeste::builder()
            .threads(threads)
            .build()
            .map_err(|e| format!("session: {e}"))?;
        let mut sources: Vec<SourceParams> = task
            .source_indices
            .iter()
            .map(|&i| SourceParams::init_from_entry(&init.entries[i]))
            .collect();
        let t = Instant::now();
        let stats = {
            let _s = tracer.span(span, task.id + 1);
            session.fit_region(&mut sources, images, &neighbors, ctx.seed)
        };
        let wall = t.elapsed().as_secs_f64();
        match stats {
            Ok(s) => rates.push(s.fits as f64 / wall),
            Err(_) => {
                failed += 1;
                rates.push(0.0);
            }
        }
    }
    m.set("par.threads", ctx.threads as f64, "count");
    m.set(
        "par.region_sources",
        task.source_indices.len() as f64,
        "count",
    );
    m.set("par.region_fits_per_s_1t", rates[0], "1/s");
    m.set("par.region_fits_per_s_2t", rates[1], "1/s");
    m.set(
        "par.region_scaling",
        rates[1] / rates[0].max(f64::MIN_POSITIVE),
        "ratio",
    );
    Ok(failed)
}
