//! CPU time the hypervisor takes from this machine while a phase runs.
//!
//! On a shared virtual machine the host can deschedule the vCPUs for
//! milliseconds at a time ("steal"); the guest keeps counting it in the
//! `steal` column of `/proc/stat`. Over minutes it swings from under 1 %
//! to over 20 % of the CPU, and wall-clock figures swing with it.
//! [`StealTrace`] samples the counter while a phase runs so that the
//! benchmark can (a) subtract the time stolen from a CPU-bound
//! duration and (b) read a phase over its least-disturbed windows. The
//! raw share is reported beside (`host.steal_share`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One reading: ns since the trace started, cumulative steal ticks,
/// cumulative ticks of every state, across all CPUs.
pub type Reading = (u64, u64, u64);

/// Cumulative (steal, total) ticks of the machine from the `cpu` line
/// of `/proc/stat`; `None` where it cannot be read.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    let steal = *v.get(7)?;
    Some((steal, v.iter().take(8).sum()))
}

/// Readings of the steal counter over a phase.
#[derive(Debug, Clone, Default)]
pub struct StealTrace {
    readings: Vec<Reading>,
    cpus: usize,
    wall_s: f64,
}

/// Interval between readings while a phase runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

impl StealTrace {
    /// A trace from explicit readings (ascending time) on `cpus` CPUs,
    /// spanning `wall_s` seconds.
    pub fn from_readings(readings: Vec<Reading>, cpus: usize, wall_s: f64) -> StealTrace {
        StealTrace {
            readings,
            cpus: cpus.max(1),
            wall_s,
        }
    }

    /// Run `f`, sampling the steal counter every 50 ms on a helper
    /// thread; the trace's time origin is the moment `f` starts and
    /// [`StealTrace::wall_s`] is how long `f` ran.
    pub fn record<R>(cpus: usize, f: impl FnOnce() -> R) -> (R, StealTrace) {
        let done = AtomicBool::new(false);
        let origin = Instant::now();
        let read = move || cpu_ticks().map(|(s, t)| (origin.elapsed().as_nanos() as u64, s, t));
        let (out, wall_s, mut readings) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut readings: Vec<Reading> = read().into_iter().collect();
                while !done.load(Ordering::Acquire) {
                    std::thread::park_timeout(SAMPLE_EVERY);
                    readings.extend(read());
                }
                readings
            });
            let out = f();
            let wall_s = origin.elapsed().as_secs_f64();
            // Release pairs with the sampler's Acquire load; the unpark
            // cuts its current wait short so the phase ends promptly.
            done.store(true, Ordering::Release);
            sampler.thread().unpark();
            (out, wall_s, sampler.join().expect("steal sampler panicked"))
        });
        readings.extend(read());
        (out, StealTrace::from_readings(readings, cpus, wall_s))
    }

    /// How long the recorded phase ran, seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }

    /// Cumulative (steal, total) ticks at `t_ns`, interpolated
    /// linearly between readings and clamped to the trace.
    fn at(&self, t_ns: u64) -> (f64, f64) {
        let r = &self.readings;
        if r.is_empty() {
            return (0.0, 0.0);
        }
        let k = r.partition_point(|x| x.0 <= t_ns);
        if k == 0 {
            return (r[0].1 as f64, r[0].2 as f64);
        }
        if k == r.len() {
            let last = r[r.len() - 1];
            return (last.1 as f64, last.2 as f64);
        }
        let (a, b) = (r[k - 1], r[k]);
        let w = (t_ns - a.0) as f64 / (b.0 - a.0).max(1) as f64;
        (
            a.1 as f64 + w * (b.1 as f64 - a.1 as f64),
            a.2 as f64 + w * (b.2 as f64 - a.2 as f64),
        )
    }

    /// Share of all CPU ticks the host stole between `a_ns` and `b_ns`.
    pub fn share(&self, a_ns: u64, b_ns: u64) -> f64 {
        let (s0, t0) = self.at(a_ns);
        let (s1, t1) = self.at(b_ns);
        if t1 > t0 {
            (s1 - s0) / (t1 - t0)
        } else {
            0.0
        }
    }

    /// Share of all CPU ticks stolen over the whole trace.
    pub fn total_share(&self) -> f64 {
        match (self.readings.first(), self.readings.last()) {
            (Some(a), Some(b)) => self.share(a.0, b.0),
            _ => 0.0,
        }
    }

    /// Seconds each CPU lost to the host over the whole trace (ticks
    /// are 10 ms).
    pub fn stolen_s_per_cpu(&self) -> f64 {
        match (self.readings.first(), self.readings.last()) {
            (Some(a), Some(b)) => (b.1 - a.1) as f64 * 0.01 / self.cpus as f64,
            _ => 0.0,
        }
    }

    /// The phase's wall time less the time each CPU was stolen: how
    /// long a CPU-bound phase would have run had the host not taken
    /// the CPUs away. Never below half the wall time, so a miscounted
    /// counter cannot turn a figure absurd.
    pub fn undisturbed_s(&self) -> f64 {
        (self.wall_s - self.stolen_s_per_cpu()).max(self.wall_s / 2.0)
    }

    /// The `windows` equal windows of `[0, span_ns)` ordered from the
    /// least to the most stolen, as `(start_ns, end_ns)`.
    pub fn quietest_windows(&self, span_ns: u64, windows: usize) -> Vec<(u64, u64)> {
        let n = windows.max(1) as u64;
        let mut w: Vec<(f64, u64, u64)> = (0..n)
            .map(|k| {
                let (a, b) = (span_ns * k / n, span_ns * (k + 1) / n);
                (self.share(a, b), a, b)
            })
            .collect();
        w.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        w.into_iter().map(|(_, a, b)| (a, b)).collect()
    }
}
