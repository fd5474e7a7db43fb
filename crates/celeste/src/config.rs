//! One validated configuration surface for the whole pipeline.

use crate::error::CelesteError;
use celeste_core::{FitConfig, ModelPriors};
use celeste_sched::{CampaignConfig, FaultPlan, RetryPolicy};
use celeste_survey::Priors;

/// The resolved, validated configuration a [`Session`](crate::Session)
/// runs with. Built by [`CelesteBuilder`]; every derived legacy config
/// ([`FitConfig`], [`CampaignConfig`]) comes from this one surface, so
/// there is exactly one place a knob lives. The Photo stage
/// ([`Session::detect`](crate::Session::detect)) is a fixed heuristic
/// with no knobs.
///
/// # Thread-count precedence
///
/// [`CelesteConfig::threads`] is the single source of parallelism.
/// It resolves as: explicit [`CelesteBuilder::threads`] if set, else
/// the `CELESTE_THREADS` environment variable if set to a positive
/// integer, else the machine's available parallelism. The campaign
/// node count (overridable with [`CelesteBuilder::n_nodes`]) and the
/// Cyclades batch width are derived from it, and the campaign sizes
/// its prefetcher pool as `threads.max(2)`, replacing the pre-facade
/// duplication where `CampaignConfig::n_nodes` and `process_region`'s
/// `n_threads` each re-read the environment. Note the global
/// `celeste-par` executor is sized once per process from
/// `CELESTE_THREADS`; a larger `threads` value cannot widen it —
/// effective parallelism is the minimum of the two.
#[derive(Debug, Clone)]
pub struct CelesteConfig {
    /// The resolved thread count every parallel layer derives from.
    pub threads: usize,
    /// Simulated campaign nodes (default: `threads.min(2)`).
    pub n_nodes: usize,
    /// Variational-fit knobs (Newton iteration cap, BCA passes).
    pub fit: FitConfig,
    /// Model priors used by every fit the session runs.
    pub priors: ModelPriors,
    /// Lease/retry/backoff policy for campaign region tasks.
    pub retry: RetryPolicy,
    /// Deterministic fault injection for chaos testing. `None` (the
    /// default) injects none.
    pub faults: Option<FaultPlan>,
}

impl CelesteConfig {
    /// The legacy campaign config this session's settings derive to.
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            n_nodes: self.n_nodes,
            threads_per_node: self.threads,
            fit: self.fit,
            retry: self.retry,
            faults: self.faults,
        }
    }
}

/// Builder for a [`Session`](crate::Session): set what you need,
/// inherit validated defaults for the rest.
///
/// ```
/// use celeste::Celeste;
/// let session = Celeste::builder().threads(2).build().unwrap();
/// assert_eq!(session.config().threads, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CelesteBuilder {
    threads: Option<usize>,
    n_nodes: Option<usize>,
    fit: Option<FitConfig>,
    priors: Option<ModelPriors>,
    retry: Option<RetryPolicy>,
    faults: Option<FaultPlan>,
}

impl CelesteBuilder {
    /// Pin the thread count, overriding `CELESTE_THREADS` and the
    /// machine default (see [`CelesteConfig`] for the precedence).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Number of simulated campaign nodes.
    pub fn n_nodes(mut self, n: usize) -> Self {
        self.n_nodes = Some(n);
        self
    }

    /// Replace the variational-fit configuration.
    pub fn fit(mut self, fit: FitConfig) -> Self {
        self.fit = Some(fit);
        self
    }

    /// Replace the model priors (default: SDSS-derived).
    pub fn priors(mut self, priors: ModelPriors) -> Self {
        self.priors = Some(priors);
        self
    }

    /// Replace the campaign lease/retry/backoff policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Inject deterministic faults into campaigns (chaos testing).
    /// Without this call a session injects none.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Resolve defaults and validate every knob, yielding a ready
    /// [`Session`](crate::Session). Rejections come back as
    /// [`CelesteError::Config`] naming the offending field.
    pub fn build(self) -> Result<crate::Session, CelesteError> {
        let config = self.into_config()?;
        Ok(crate::Session::from_config(config))
    }

    fn into_config(self) -> Result<CelesteConfig, CelesteError> {
        fn bad(field: &'static str, message: impl Into<String>) -> CelesteError {
            CelesteError::Config {
                field,
                message: message.into(),
            }
        }

        if self.threads == Some(0) {
            return Err(bad("threads", "must be at least 1"));
        }
        let threads = self.threads.unwrap_or_else(celeste_par::configured_threads);
        let n_nodes = self.n_nodes.unwrap_or_else(|| threads.min(2));
        if n_nodes == 0 {
            return Err(bad("n_nodes", "must be at least 1"));
        }

        let fit = self.fit.unwrap_or_default();
        if fit.bca_passes == 0 {
            return Err(bad("fit.bca_passes", "must be at least 1"));
        }
        if fit.newton.max_iters == 0 {
            return Err(bad("fit.newton.max_iters", "must be at least 1"));
        }

        let priors = self
            .priors
            .unwrap_or_else(|| ModelPriors::new(Priors::sdss_default()));

        let retry = self.retry.unwrap_or_default();
        if retry.max_attempts == 0 {
            return Err(bad("retry.max_attempts", "must be at least 1"));
        }
        if retry.lease_timeout.is_zero() {
            return Err(bad("retry.lease_timeout", "must be positive"));
        }

        if let Some(f) = &self.faults {
            for (field, rate) in [
                ("faults.io_error_rate", f.io_error_rate),
                ("faults.panic_rate", f.panic_rate),
                ("faults.slow_rate", f.slow_rate),
                ("faults.hang_rate", f.hang_rate),
            ] {
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    return Err(bad(field, format!("must be in [0, 1], got {rate}")));
                }
            }
        }

        Ok(CelesteConfig {
            threads,
            n_nodes,
            fit,
            priors,
            retry,
            faults: self.faults,
        })
    }
}
