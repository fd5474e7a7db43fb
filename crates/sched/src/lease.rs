//! Leased tasks with retry/backoff, expiry reclaim, and quarantine.
//!
//! At 650k cores (the paper's headline run), a hung node or a
//! panicking fit cannot be allowed to stall or abort the campaign.
//! This module turns [`Dtree`] pops into *leases*: a node acquires a
//! task with a deadline; a completion is accepted only while its
//! lease is current (exactly-once arbitration); failed or expired
//! leases are reissued with bounded retries and seeded-deterministic
//! exponential backoff; and tasks that exhaust their retry budget are
//! *quarantined* — reported in the campaign's `failed_regions`
//! instead of aborting the run.
//!
//! All timing flows through an injectable [`Clock`], so the chaos
//! suite runs on a [`VirtualClock`] where "hanging past a deadline"
//! is instantaneous and deterministic.

use crate::dtree::Dtree;
use crate::fault::mix64;
use celeste_survey::io::ImageKey;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

/// The campaign's time source. Lease deadlines, retry backoff, and
/// injected stalls all go through this trait so tests can substitute
/// a [`VirtualClock`] and make fault timing deterministic; production
/// uses [`SystemClock`]. Profiling timers (the report's component
/// times) intentionally stay on `std::time::Instant`.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic time since this clock's epoch.
    fn now(&self) -> Duration;
    /// Block (or virtually advance) for `d`.
    fn sleep(&self, d: Duration);
}

/// Wall-clock [`Clock`] anchored at construction.
#[derive(Debug)]
pub struct SystemClock(std::time::Instant);

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock(std::time::Instant::now())
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic [`Clock`] for tests: `sleep` advances virtual time
/// instantly instead of blocking, so backoff waits and past-deadline
/// hangs cost nothing and reproduce exactly.
#[derive(Debug, Default)]
pub struct VirtualClock(std::sync::atomic::AtomicU64);

impl VirtualClock {
    /// Advance virtual time by `d` without a sleeper.
    pub fn advance(&self, d: Duration) {
        self.0
            .fetch_add(d.as_nanos() as u64, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(std::sync::atomic::Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Retry and lease policy for one campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per task (first try included) before quarantine.
    pub max_attempts: u32,
    /// How long a lease holder has to complete before the task is
    /// reclaimed and reissued.
    pub lease_timeout: Duration,
    /// Backoff before retry `n` is `base * 2^(n-2)` (50ms, 100ms, …),
    /// jittered up to +50% and capped at `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on the (pre-jitter) backoff delay.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter: the delay before a
    /// given `(task, attempt)` is identical on every run.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            lease_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0xCE1E_57E5,
        }
    }
}

impl RetryPolicy {
    /// The deterministic, jittered delay before attempt `attempt`
    /// (2-based: the first retry) of `task_id` becomes eligible.
    pub fn backoff(&self, task_id: u64, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(2).min(20);
        let base = self
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap);
        let h = mix64(self.jitter_seed ^ mix64(task_id) ^ attempt as u64);
        let jitter = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0,1)
        base.mul_f64(1.0 + 0.5 * jitter)
    }
}

/// Why one attempt at a region task failed. Carried per attempt in
/// [`FailedRegion::errors`] (the error chain of a quarantined task)
/// and cloneable, so underlying store errors are captured as text the
/// way [`celeste_survey::io::IoError::Prefetch`] carries them across
/// worker boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionError {
    /// A blocking image fetch failed.
    ImageLoad {
        /// The (field, band) that failed to load.
        key: ImageKey,
        /// The store error, stringified.
        error: String,
    },
    /// The region fit panicked; the payload is stringified.
    FitPanic(String),
    /// The lease expired before its holder completed (hung or slow
    /// task reclaimed by the supervisor).
    LeaseExpired {
        /// Which attempt timed out.
        attempt: u32,
    },
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::ImageLoad { key, error } => {
                write!(f, "loading image {:?}/{} failed: {error}", key.0, key.1)
            }
            RegionError::FitPanic(m) => write!(f, "region fit panicked: {m}"),
            RegionError::LeaseExpired { attempt } => {
                write!(f, "lease expired on attempt {attempt}")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// A region task that exhausted its retry budget and was quarantined:
/// the campaign completed without it (its sources keep their
/// initialization parameters) and reports it here instead of
/// aborting.
#[derive(Debug, Clone)]
pub struct FailedRegion {
    /// The `RegionTask::id` of the quarantined task.
    pub task_id: u64,
    /// Partition stage (0 = primary, 1 = shifted boundary pass).
    pub stage: u8,
    /// Attempts consumed (== the policy's `max_attempts`).
    pub attempts: u32,
    /// One error per failed attempt, oldest first.
    pub errors: Vec<RegionError>,
}

/// An acquired lease on one task: proof of the right to process it.
/// Completion is accepted only while the lease is current.
#[derive(Debug, Clone, Copy)]
pub struct Lease {
    /// Index into the stage's task slice.
    pub task_index: usize,
    /// Which attempt this lease represents (1-based).
    pub attempt: u32,
    /// Ledger-unique lease id (the arbitration token).
    id: u64,
}

/// What [`TaskLedger::acquire`] hands back.
#[derive(Debug)]
pub enum Acquire {
    /// A task lease; process it and call `complete` or `fail`.
    Task(Lease),
    /// Nothing is currently eligible (work is leased elsewhere or
    /// backing off); sleep about this long and ask again.
    Wait(Duration),
    /// Every task is settled (done or quarantined): stop.
    Drained,
}

#[derive(Debug, Clone)]
enum State {
    /// Still in the Dtree, never attempted.
    Fresh,
    /// Failed or reclaimed; eligible again at its heap `ready_at`.
    Waiting {
        attempt: u32,
    },
    /// Held by a node until `deadline`.
    Leased {
        id: u64,
        attempt: u32,
        deadline: Duration,
    },
    Done,
    Quarantined,
}

/// Counters the campaign report surfaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerStats {
    /// Task reissues (after failure or expiry).
    pub retries: u64,
    /// Leases reclaimed past their deadline.
    pub leases_expired: u64,
    /// Completions rejected because the lease had been reissued
    /// (exactly-once arbitration in action).
    pub stale_completions: u64,
}

struct Inner {
    states: Vec<State>,
    /// Failed/reclaimed tasks keyed by eligibility time (min-heap).
    retries: BinaryHeap<Reverse<(Duration, usize)>>,
    /// Per-task error chain (accumulated across attempts).
    errors: Vec<Vec<RegionError>>,
    /// Tasks not yet Done or Quarantined.
    unsettled: usize,
    next_lease_id: u64,
    stats: LedgerStats,
    failed: Vec<FailedRegion>,
}

/// The lease supervisor for one partition stage: wraps the stage's
/// [`Dtree`] (fresh tasks keep the paper's tree-structured
/// distribution) and arbitrates leases, retries, expiry, and
/// quarantine for everything after the first attempt. Cheap: one
/// mutex at *region* granularity — nothing here runs per fit or per
/// pixel.
pub struct TaskLedger {
    dtree: Dtree<usize>,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    /// `(task_id, stage)` per task index, for error records.
    meta: Vec<(u64, u8)>,
    inner: Mutex<Inner>,
}

/// Idle nodes poll at most this often, so a `Wait` never oversleeps a
/// completion or newly eligible retry by much (and a virtual clock
/// advances in bounded steps).
const MAX_WAIT_TICK: Duration = Duration::from_millis(5);

/// Fanout of the Dtree that distributes fresh tasks to nodes.
const DTREE_FANOUT: usize = 4;

impl TaskLedger {
    /// Build a ledger over `meta.len()` tasks, distributing the
    /// indices *not* in `pre_done` (a resumed checkpoint's completed
    /// set) across `n_nodes` Dtree leaves.
    pub fn new(
        meta: Vec<(u64, u8)>,
        pre_done: &[usize],
        n_nodes: usize,
        policy: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> TaskLedger {
        let n = meta.len();
        let mut states = vec![State::Fresh; n];
        for &i in pre_done {
            states[i] = State::Done;
        }
        let fresh: Vec<usize> = (0..n)
            .filter(|i| matches!(states[*i], State::Fresh))
            .collect();
        let unsettled = fresh.len();
        TaskLedger {
            dtree: Dtree::new(n_nodes, DTREE_FANOUT, fresh),
            policy,
            clock,
            meta,
            inner: Mutex::new(Inner {
                states,
                retries: BinaryHeap::new(),
                errors: vec![Vec::new(); n],
                unsettled,
                next_lease_id: 1,
                stats: LedgerStats::default(),
                failed: Vec::new(),
            }),
        }
    }

    /// The policy this ledger enforces.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn lease_locked(&self, inner: &mut Inner, task_index: usize, attempt: u32) -> Lease {
        let id = inner.next_lease_id;
        inner.next_lease_id += 1;
        inner.states[task_index] = State::Leased {
            id,
            attempt,
            deadline: self.clock.now() + self.policy.lease_timeout,
        };
        Lease {
            task_index,
            attempt,
            id,
        }
    }

    /// Move a failed/expired task to the retry heap, or quarantine it
    /// when its budget is exhausted.
    fn reissue_or_quarantine_locked(
        &self,
        inner: &mut Inner,
        task_index: usize,
        attempt: u32,
        error: RegionError,
    ) {
        inner.errors[task_index].push(error);
        if attempt >= self.policy.max_attempts {
            inner.states[task_index] = State::Quarantined;
            inner.unsettled -= 1;
            let (task_id, stage) = self.meta[task_index];
            inner.failed.push(FailedRegion {
                task_id,
                stage,
                attempts: attempt,
                errors: inner.errors[task_index].clone(),
            });
        } else {
            let next = attempt + 1;
            let ready_at = self.clock.now() + self.policy.backoff(self.meta[task_index].0, next);
            inner.states[task_index] = State::Waiting { attempt: next };
            inner.retries.push(Reverse((ready_at, task_index)));
            inner.stats.retries += 1;
        }
    }

    /// Reclaim every lease whose deadline has passed (the supervisor
    /// sweep — any idle node performs it on the way into `acquire`).
    fn reap_locked(&self, inner: &mut Inner, now: Duration) {
        for i in 0..inner.states.len() {
            if let State::Leased {
                attempt, deadline, ..
            } = inner.states[i]
            {
                if deadline < now {
                    inner.stats.leases_expired += 1;
                    self.reissue_or_quarantine_locked(
                        inner,
                        i,
                        attempt,
                        RegionError::LeaseExpired { attempt },
                    );
                }
            }
        }
    }

    /// Lease the next *fresh* (never attempted) task for `node`
    /// without waiting — the lookahead path that lets a node start
    /// prefetching its next task's images while computing the current
    /// one. Retries and expiry go through [`TaskLedger::acquire`].
    pub fn try_acquire_fresh(&self, node: usize) -> Option<Lease> {
        let task_index = self.dtree.pop(node)?;
        let mut inner = self.inner.lock();
        Some(self.lease_locked(&mut inner, task_index, 1))
    }

    /// Acquire work for `node`: a fresh Dtree task if any, else the
    /// earliest eligible retry, else directions to wait or stop.
    /// Expired leases are reclaimed on every call.
    pub fn acquire(&self, node: usize) -> Acquire {
        if let Some(task_index) = self.dtree.pop(node) {
            let mut inner = self.inner.lock();
            return Acquire::Task(self.lease_locked(&mut inner, task_index, 1));
        }
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.reap_locked(&mut inner, now);
        if let Some(&Reverse((ready_at, task_index))) = inner.retries.peek() {
            if ready_at <= now {
                inner.retries.pop();
                // A task can only be in the heap in Waiting state;
                // recover its attempt number from there.
                let attempt = match inner.states[task_index] {
                    State::Waiting { attempt } => attempt,
                    ref s => unreachable!("retry heap holds non-waiting task in state {s:?}"),
                };
                return Acquire::Task(self.lease_locked(&mut inner, task_index, attempt));
            }
        }
        if inner.unsettled == 0 {
            return Acquire::Drained;
        }
        // Wait until the nearest future event: a retry becoming
        // eligible or an outstanding lease expiring.
        let mut next_event = inner
            .retries
            .peek()
            .map(|&Reverse((ready_at, _))| ready_at)
            .unwrap_or(Duration::MAX);
        for s in &inner.states {
            if let State::Leased { deadline, .. } = s {
                next_event = next_event.min(*deadline);
            }
        }
        let wait = next_event
            .saturating_sub(now)
            .clamp(Duration::from_micros(200), MAX_WAIT_TICK);
        Acquire::Wait(wait)
    }

    /// Commit a completed lease. Returns `true` iff the lease is
    /// still current *and* inside its deadline — exactly one
    /// completion is ever accepted per task; late results (from
    /// reclaimed leases, or arriving after the deadline before any
    /// reaper noticed) return `false` and must be discarded by the
    /// caller. The deadline check makes expiry independent of
    /// whether another node happened to reap the lease first, so
    /// `lease_timeout` must comfortably exceed the worst-case
    /// region fit time.
    pub fn complete(&self, lease: &Lease) -> bool {
        let mut inner = self.inner.lock();
        match inner.states[lease.task_index] {
            State::Leased { id, deadline, .. } if id == lease.id => {
                if deadline < self.clock.now() {
                    inner.stats.leases_expired += 1;
                    inner.stats.stale_completions += 1;
                    self.reissue_or_quarantine_locked(
                        &mut inner,
                        lease.task_index,
                        lease.attempt,
                        RegionError::LeaseExpired {
                            attempt: lease.attempt,
                        },
                    );
                    return false;
                }
                inner.states[lease.task_index] = State::Done;
                inner.unsettled -= 1;
                true
            }
            _ => {
                inner.stats.stale_completions += 1;
                false
            }
        }
    }

    /// Report a failed attempt. The task is reissued after backoff,
    /// or quarantined once its budget is spent. Failures on stale
    /// leases (already reclaimed and reissued) are ignored.
    pub fn fail(&self, lease: &Lease, error: RegionError) {
        let mut inner = self.inner.lock();
        match inner.states[lease.task_index] {
            State::Leased { id, .. } if id == lease.id => {
                self.reissue_or_quarantine_locked(
                    &mut inner,
                    lease.task_index,
                    lease.attempt,
                    error,
                );
            }
            _ => {}
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LedgerStats {
        self.inner.lock().stats
    }

    /// Quarantined tasks with their per-attempt error chains.
    pub fn failed_regions(&self) -> Vec<FailedRegion> {
        self.inner.lock().failed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(n: usize, policy: RetryPolicy, clock: Arc<dyn Clock>) -> TaskLedger {
        let meta: Vec<(u64, u8)> = (0..n as u64).map(|i| (i, 0)).collect();
        TaskLedger::new(meta, &[], 1, policy, clock)
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy::default();
        for task in 0..20u64 {
            for attempt in 2..6u32 {
                let a = p.backoff(task, attempt);
                let b = p.backoff(task, attempt);
                assert_eq!(a, b, "jitter must be a pure function");
                let base = p
                    .backoff_base
                    .saturating_mul(1 << (attempt - 2))
                    .min(p.backoff_cap);
                assert!(
                    a >= base && a <= base.mul_f64(1.5),
                    "{a:?} vs base {base:?}"
                );
            }
        }
        // Jitter decorrelates tasks: not all delays equal.
        let d: Vec<Duration> = (0..10).map(|t| p.backoff(t, 2)).collect();
        assert!(d.iter().any(|&x| x != d[0]));
        // Growth caps out.
        assert!(p.backoff(1, 30) <= p.backoff_cap.mul_f64(1.5));
    }

    #[test]
    fn happy_path_serves_each_task_once() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::default());
        let lg = ledger(8, RetryPolicy::default(), clock);
        let mut done = Vec::new();
        loop {
            match lg.acquire(0) {
                Acquire::Task(lease) => {
                    assert_eq!(lease.attempt, 1);
                    assert!(lg.complete(&lease));
                    done.push(lease.task_index);
                }
                Acquire::Wait(d) => panic!("unexpected wait {d:?}"),
                Acquire::Drained => break,
            }
        }
        done.sort_unstable();
        assert_eq!(done, (0..8).collect::<Vec<_>>());
        assert_eq!(lg.stats().retries, 0);
    }

    #[test]
    fn failed_attempts_back_off_then_quarantine_with_error_chain() {
        let clock = Arc::new(VirtualClock::default());
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            ..Default::default()
        };
        let lg = ledger(1, policy, Arc::clone(&clock) as Arc<dyn Clock>);
        for attempt in 1..=3u32 {
            let lease = loop {
                match lg.acquire(0) {
                    Acquire::Task(l) => break l,
                    Acquire::Wait(d) => clock.sleep(d),
                    Acquire::Drained => panic!("drained early"),
                }
            };
            assert_eq!(lease.attempt, attempt);
            lg.fail(&lease, RegionError::FitPanic(format!("boom {attempt}")));
        }
        assert!(matches!(lg.acquire(0), Acquire::Drained));
        let failed = lg.failed_regions();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].attempts, 3);
        assert_eq!(failed[0].errors.len(), 3);
        assert_eq!(failed[0].errors[2], RegionError::FitPanic("boom 3".into()));
        assert_eq!(lg.stats().retries, 2);
    }

    #[test]
    fn expired_lease_is_reclaimed_and_late_completion_rejected() {
        let clock = Arc::new(VirtualClock::default());
        let policy = RetryPolicy {
            lease_timeout: Duration::from_millis(50),
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        };
        let lg = ledger(1, policy, Arc::clone(&clock) as Arc<dyn Clock>);
        let Acquire::Task(first) = lg.acquire(0) else {
            panic!("no task")
        };
        // The holder "hangs": time passes its deadline.
        clock.advance(Duration::from_millis(200));
        // The supervisor sweep reissues it (after backoff).
        let second = loop {
            match lg.acquire(0) {
                Acquire::Task(l) => break l,
                Acquire::Wait(d) => clock.sleep(d),
                Acquire::Drained => panic!("drained early"),
            }
        };
        assert_eq!(second.attempt, 2);
        assert_eq!(lg.stats().leases_expired, 1);
        // The hung holder finally reports in: too late.
        assert!(!lg.complete(&first));
        assert_eq!(lg.stats().stale_completions, 1);
        // The reissued lease wins.
        assert!(lg.complete(&second));
        assert!(matches!(lg.acquire(0), Acquire::Drained));
    }

    #[test]
    fn pre_done_tasks_are_never_served() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::default());
        let meta: Vec<(u64, u8)> = (0..6u64).map(|i| (i, 0)).collect();
        let lg = TaskLedger::new(meta, &[1, 4], 2, RetryPolicy::default(), clock);
        let mut served = Vec::new();
        for node in [0usize, 1] {
            loop {
                match lg.acquire(node) {
                    Acquire::Task(l) => {
                        assert!(lg.complete(&l));
                        served.push(l.task_index);
                    }
                    Acquire::Wait(_) => break,
                    Acquire::Drained => break,
                }
            }
        }
        served.sort_unstable();
        assert_eq!(served, vec![0, 2, 3, 5]);
        assert!(matches!(lg.acquire(0), Acquire::Drained));
    }
}
