//! Open-loop load: requests fall due on a fixed schedule whatever the
//! system under test is doing, because catalog users are independent.
//!
//! Request `i` of a phase is due at `i / rate` seconds after the phase
//! starts and is owned by worker `i % workers`. A worker sleeps until
//! its next request is due and sends it then, or at once if it is
//! already late; it never skips one. Each request is timed from the
//! moment it was *due*, so a stall also charges the requests queued
//! behind it, and the generator's own lateness (send time minus due
//! time) is reported so that a stalled generator is not mistaken for a
//! fast daemon. A failed request (refused, errored or timed out)
//! counts as missing every latency limit.

use crate::stats::Sample;
use std::time::{Duration, Instant};

/// A fixed-rate schedule of `count` requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate_per_s: f64,
    /// Requests in the phase.
    pub count: usize,
}

impl Schedule {
    /// `rate_per_s` for `seconds` (at least one request).
    pub fn for_duration(rate_per_s: f64, seconds: f64) -> Schedule {
        Schedule {
            rate_per_s,
            count: ((rate_per_s * seconds).round() as usize).max(1),
        }
    }

    /// When request `i` falls due, relative to the phase start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// What happened to one request. Times are ns since the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Position in the schedule.
    pub index: usize,
    /// When it fell due.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When the answer (or the failure) arrived.
    pub done_ns: u64,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Outcome {
    /// Latency from due time, ms; infinite for a failed request.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.due_ns) as f64 * 1e-6
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, ms.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 * 1e-6
    }
}

/// The figures of one phase (open- or closed-loop).
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// Offered rate, requests per second.
    pub rate_per_s: f64,
    /// Requests sent (= scheduled: none is ever dropped).
    pub sent: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Latency from due time, ms (failures sort last, as infinite).
    pub latency: Sample,
    /// Generator lateness, ms.
    pub lateness: Sample,
    /// Whether the generator fell further behind as the phase went on.
    pub backlog_growing: bool,
}

impl PhaseSummary {
    /// Summarise a phase's outcomes; `limit_ms` is the latency limit
    /// the backlog test measures against.
    pub fn of(rate_per_s: f64, outcomes: &[Outcome], limit_ms: f64) -> PhaseSummary {
        let mut by_due: Vec<&Outcome> = outcomes.iter().collect();
        by_due.sort_by_key(|o| o.index);
        let failed = outcomes.iter().filter(|o| !o.ok).count();
        PhaseSummary {
            rate_per_s,
            sent: outcomes.len(),
            failed,
            latency: Sample::new(outcomes.iter().map(Outcome::latency_ms).collect()),
            lateness: Sample::new(outcomes.iter().map(Outcome::lateness_ms).collect()),
            backlog_growing: backlog_growing(&by_due, limit_ms),
        }
    }

    /// Whether the phase meets `limit_ms` at `pct` with no failure
    /// and no growing backlog.
    pub fn meets(&self, pct: f64, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.latency.p(pct) <= limit_ms
    }
}

/// A backlog is growing when, over the last quarter of the schedule,
/// the median request was sent more than `limit_ms` late: the system
/// (or the generator) no longer keeps up with the offered rate.
pub fn backlog_growing(by_due: &[&Outcome], limit_ms: f64) -> bool {
    let n = by_due.len();
    if n < 4 {
        return false;
    }
    let tail = Sample::new(
        by_due[n - n / 4..]
            .iter()
            .map(|o| o.lateness_ms())
            .collect(),
    );
    tail.p(50.0) > limit_ms
}

/// Run one open-loop phase: `schedule` spread over one worker per
/// element of `states` (each typically owning a connection). `send`
/// performs request `i` with worker state `s` and reports success.
pub fn run_open_loop<S, F>(schedule: Schedule, states: &mut [S], send: F) -> Vec<Outcome>
where
    S: Send,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let workers = states.len().max(1);
    let start = Instant::now();
    let send = &send;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(schedule.count / workers + 1);
                    for i in (w..schedule.count).step_by(workers) {
                        let due = schedule.due(i);
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed();
                        let ok = send(state, i);
                        let done = start.elapsed();
                        mine.push(Outcome {
                            index: i,
                            due_ns: due.as_nanos() as u64,
                            sent_ns: sent.as_nanos() as u64,
                            done_ns: done.as_nanos() as u64,
                            ok,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator worker panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

/// What a closed-loop phase did, counted per window so that memory
/// does not grow with the rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoop {
    /// Length of the phase, ns.
    pub span_ns: u64,
    /// Successful completions in each of the phase's equal windows.
    pub done: Vec<u64>,
    /// Requests sent.
    pub sent: usize,
    /// Requests that failed.
    pub failed: usize,
}

impl ClosedLoop {
    /// Successful completions per second over `windows`, each one of
    /// the phase's own equal windows (as
    /// [`StealTrace::quietest_windows`](crate::steal::StealTrace::quietest_windows)
    /// lays them out over the same span and count).
    pub fn rate_over(&self, windows: &[(u64, u64)]) -> f64 {
        let n = self.done.len() as u64;
        let (mut done, mut ns) = (0, 0);
        for &(a, b) in windows {
            let k = ((a + b) / 2 * n / self.span_ns.max(1)).min(n.saturating_sub(1));
            done += self.done[k as usize];
            ns += b - a;
        }
        done as f64 / (ns.max(1) as f64 * 1e-9)
    }
}

/// Run a closed loop for `seconds`: every worker sends its next
/// request as soon as the previous one is answered, taking request
/// indices in order from a shared counter, until time is up.
/// Completions are counted in `windows` equal windows of the phase.
pub fn run_closed_loop<S, F>(seconds: f64, windows: usize, states: &mut [S], send: F) -> ClosedLoop
where
    S: Send,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let next = std::sync::atomic::AtomicUsize::new(0);
    let span_ns = (seconds * 1e9) as u64;
    let n = windows.max(1);
    let start = Instant::now();
    let (next, send) = (&next, &send);
    let per_worker: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let (mut done, mut sent, mut failed) = (vec![0u64; n], 0, 0);
                    while (start.elapsed().as_nanos() as u64) < span_ns {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        sent += 1;
                        if send(state, i) {
                            let t = start.elapsed().as_nanos() as u64;
                            if t < span_ns {
                                done[(t as u128 * n as u128 / span_ns as u128) as usize] += 1;
                            }
                        } else {
                            failed += 1;
                        }
                    }
                    (done, sent, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator worker panicked"))
            .collect()
    });
    let mut out = ClosedLoop {
        span_ns,
        done: vec![0; n],
        sent: 0,
        failed: 0,
    };
    for (done, sent, failed) in per_worker {
        for (all, mine) in out.done.iter_mut().zip(done) {
            *all += mine;
        }
        out.sent += sent;
        out.failed += failed;
    }
    out
}

/// The highest offered rate a system sustains, read off a ladder of
/// phases run at increasing rates until one misses the limit.
///
/// Between the last passing rung and the first failing one the rate is
/// interpolated where the tail latency crosses the limit (log–log), so
/// the figure moves smoothly with the system's capacity instead of
/// jumping a whole rung. A failing rung with failures or an unresolved
/// tail contributes no interpolation.
pub fn sustained_rate(rungs: &[PhaseSummary], pct: f64, limit_ms: f64) -> f64 {
    let mut best = 0.0;
    for (k, rung) in rungs.iter().enumerate() {
        if rung.meets(pct, limit_ms) {
            best = rung.rate_per_s;
            continue;
        }
        if k > 0 && rungs[k - 1].meets(pct, limit_ms) && rung.failed == 0 {
            let prev = &rungs[k - 1];
            let (l0, l1) = (prev.latency.p(pct), rung.latency.p(pct));
            if l1.is_finite() && l1 > l0 && l0 > 0.0 {
                let frac = ((limit_ms.ln() - l0.ln()) / (l1.ln() - l0.ln())).clamp(0.0, 1.0);
                best = (prev.rate_per_s.ln()
                    + frac * (rung.rate_per_s.ln() - prev.rate_per_s.ln()))
                .exp();
            }
        }
        break;
    }
    best
}
