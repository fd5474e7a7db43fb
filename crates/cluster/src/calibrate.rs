//! Calibration of the simulator against real measured runs.

use celeste_sched::CampaignReport;

/// A log-normal duration model (fit by log-moment matching).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalModel {
    /// Mean of ln(duration seconds).
    pub ln_mu: f64,
    /// Sd of ln(duration).
    pub ln_sigma: f64,
}

impl LogNormalModel {
    /// Fit from positive samples; falls back to `fallback` when fewer
    /// than 3 usable samples exist.
    pub fn fit(samples: &[f64], fallback: LogNormalModel) -> LogNormalModel {
        let logs: Vec<f64> = samples
            .iter()
            .filter(|&&x| x > 0.0 && x.is_finite())
            .map(|x| x.ln())
            .collect();
        if logs.len() < 3 {
            return fallback;
        }
        let n = logs.len() as f64;
        let mu = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|l| (l - mu) * (l - mu)).sum::<f64>() / (n - 1.0);
        LogNormalModel {
            ln_mu: mu,
            ln_sigma: var.sqrt().max(0.02),
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        (self.ln_mu + 0.5 * self.ln_sigma * self.ln_sigma).exp()
    }

    /// Sample with an explicit standard-normal draw (the simulator
    /// owns its RNG).
    pub fn sample_with(&self, z: f64) -> f64 {
        (self.ln_mu + self.ln_sigma * z).exp()
    }
}

/// Everything the virtual-time simulator needs from reality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Per-task processing duration on one process (its worker-thread
    /// team), seconds.
    pub task_duration: LogNormalModel,
    /// Blocking image-load time for a process's *first* task, seconds.
    pub first_load: LogNormalModel,
    /// Sustained FLOP/s of one process while task-processing
    /// (objective FLOPs only; the ×1.375-style overhead factor is
    /// applied by the reporting layer).
    pub flops_per_proc: f64,
    /// One Dtree message latency, seconds.
    pub sched_msg_latency: f64,
    /// PGAS put/get round trip, seconds: the paper's one-sided MPI-3
    /// RMA over the interconnect (§IV-C). Modelled here only; the
    /// single-machine campaign has no remote parameter store.
    pub pgas_latency: f64,
    /// Per-process output-write time at job end, seconds.
    pub output_write: f64,
}

/// Defaults measured on the development machine (small campaign of
/// ~40-source tasks, 2 worker threads). Used when no fresh measurement
/// is available; the `table1`/`fig4`/`fig5` binaries re-calibrate from
/// a real run first.
pub fn default_calibration() -> Calibration {
    Calibration {
        task_duration: LogNormalModel {
            ln_mu: 0.4,
            ln_sigma: 0.28,
        },
        first_load: LogNormalModel {
            ln_mu: -2.5,
            ln_sigma: 0.2,
        },
        flops_per_proc: 2.0e9,
        sched_msg_latency: 5.0e-6,
        pgas_latency: 2.0e-6,
        output_write: 0.05,
    }
}

/// Spread caps for the fitted duration models. The paper's
/// preprocessing generates tasks "we expect to contain roughly the
/// same number of bright pixels" (§IV-A), i.e. near-equal work; our
/// calibration mini-campaign quantizes work coarsely (few sources per
/// task), which would otherwise let a handful of outliers masquerade
/// as genuine production-task spread and blow up the simulated load
/// imbalance far past anything the paper observed.
const MAX_TASK_LN_SIGMA: f64 = 0.30;
const MAX_LOAD_LN_SIGMA: f64 = 0.25;

/// Fit a calibration from a measured campaign report.
///
/// Task durations are first normalized to equal predicted work (the
/// paper's equal-work partition target), then log-moment fitted.
/// `flops_per_visit` is the audited FLOP cost of one active-pixel
/// visit (see `celeste-bench`'s counting-float audit, paper §VI-B).
pub fn calibrate_from_report(report: &CampaignReport, flops_per_visit: f64) -> Calibration {
    let fallback = default_calibration();
    let durations: Vec<f64> = if report.task_works.len() == report.task_durations.len()
        && !report.task_works.is_empty()
    {
        let mean_work = report.task_works.iter().sum::<f64>() / report.task_works.len() as f64;
        report
            .task_durations
            .iter()
            .zip(&report.task_works)
            .map(|(d, w)| d * mean_work / w.max(1e-9))
            .collect()
    } else {
        report.task_durations.clone()
    };
    let mut task_duration = LogNormalModel::fit(&durations, fallback.task_duration);
    task_duration.ln_sigma = task_duration.ln_sigma.min(MAX_TASK_LN_SIGMA);
    let mut first_load = LogNormalModel::fit(&report.image_load_durations, fallback.first_load);
    first_load.ln_sigma = first_load.ln_sigma.min(MAX_LOAD_LN_SIGMA);
    let total_task_time: f64 = report.task_durations.iter().sum();
    let flops_per_proc = if total_task_time > 0.0 {
        (report.active_pixel_visits as f64 * flops_per_visit) / total_task_time
    } else {
        fallback.flops_per_proc
    };
    Calibration {
        task_duration,
        first_load,
        flops_per_proc,
        ..fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_lognormal_moments() {
        // Samples of exp(1 + 0.5 z) on a deterministic z grid.
        let samples: Vec<f64> = (0..1000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 1000.0;
                // Inverse-normal via the logistic approximation is fine
                // for a moment check.
                let z = (u / (1.0 - u)).ln() / 1.702;
                (1.0 + 0.5 * z).exp()
            })
            .collect();
        let m = LogNormalModel::fit(&samples, default_calibration().task_duration);
        assert!((m.ln_mu - 1.0).abs() < 0.05, "mu {}", m.ln_mu);
        assert!((m.ln_sigma - 0.5).abs() < 0.1, "sigma {}", m.ln_sigma);
        // Raw fits are uncapped; the cap applies in calibrate_from_report.
    }

    #[test]
    fn fit_falls_back_on_empty() {
        let fb = default_calibration().task_duration;
        assert_eq!(LogNormalModel::fit(&[], fb), fb);
        assert_eq!(LogNormalModel::fit(&[0.0, -1.0], fb), fb);
    }

    #[test]
    fn calibrate_from_report_computes_flop_rate() {
        let report = CampaignReport {
            task_durations: vec![2.0; 10],
            image_load_durations: vec![0.1; 10],
            active_pixel_visits: 1_000_000,
            ..Default::default()
        };
        let cal = calibrate_from_report(&report, 10_000.0);
        // 1e6 visits × 1e4 flops / 20 s = 5e8 flop/s
        assert!((cal.flops_per_proc - 5.0e8).abs() < 1.0);
        assert!((cal.task_duration.mean() - 2.0).abs() < 0.2);
        assert!(cal.task_duration.ln_sigma <= MAX_TASK_LN_SIGMA + 1e-12);
    }

    #[test]
    fn model_mean_formula() {
        let m = LogNormalModel {
            ln_mu: 0.0,
            ln_sigma: 1.0,
        };
        assert!((m.mean() - (0.5_f64).exp()).abs() < 1e-12);
        assert!((m.sample_with(0.0) - 1.0).abs() < 1e-12);
        assert!(m.sample_with(1.0) > m.sample_with(-1.0));
    }
}
