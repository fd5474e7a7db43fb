//! The run's result line and environment header.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics with units, printed in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Every recorded name, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations attempted (queries, ingests, region tasks, checks).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// The metrics of this run's mode.
    pub metrics: Metrics,
}

/// A JSON number; non-finite values (a failed request's latency) are
/// written as `1e300`, which misses any limit.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "1e300".to_string()
    }
}

/// A JSON string literal (the names and values here are plain ASCII).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where and on what a run happened.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// Thread count the workload resolved and ran with.
    pub threads: usize,
    /// Kernel instantiation the ELBO kernels dispatched to.
    pub kernel_dispatch: &'static str,
    /// Source revision: the git commit, or a content hash of the
    /// crates' sources when the checkout is not a git repository.
    pub commit: String,
}

impl Env {
    /// Probe the environment for a run of `workload` with `seed`.
    pub fn probe(workload: &str, seed: u64) -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Env {
            workload: workload.to_string(),
            seed,
            nproc,
            threads: nproc,
            kernel_dispatch: celeste_linalg::fused::kernel_isa(),
            commit: commit(),
        }
    }

    /// The header line printed before the result.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"threads\": {}, \"kernel_dispatch\": {}, \"commit\": {}}}}}",
            json_string(&self.workload),
            self.seed,
            self.nproc,
            self.threads,
            json_string(self.kernel_dispatch),
            json_string(&self.commit)
        )
    }
}

/// `git rev-parse HEAD` if this is a git checkout, else `tree-<hash>`
/// over every file under `crates/` (path and content), which names the
/// code measured just as well.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    let mut files = Vec::new();
    collect_files(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(content) = std::fs::read(f) {
            eat(&content);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The process's high-water resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
