//! The worker pool: persistent threads, fork-join `join`, scoped
//! spawns, and pool installation.
//!
//! One global pool (sized by `CELESTE_THREADS`, default the machine's
//! available parallelism) serves every parallel construct in the
//! workspace; explicit [`ThreadPool`]s exist for tests and benchmarks
//! that need a specific width. Workers are persistent for the process
//! lifetime, which is what lets callers keep expensive per-thread
//! state (e.g. Newton evaluation workspaces) in `thread_local!`
//! storage and reuse it across every task the worker ever runs — the
//! zero-allocation steady state the optimizer relies on.
//!
//! Scheduling is classic work stealing: each worker owns a Chase–Lev
//! deque, pushes forked work at the bottom, and steals from the top
//! of a victim's deque when its own is dry. External threads submit
//! through a shared injector queue. Idle workers sleep on a condvar
//! guarded by a wake epoch, so an empty pool burns no CPU while the
//! push path stays wait-free unless someone is actually asleep.

use crate::deque::{Deque, Steal};
use crate::job::{HeapJob, JobRef, LockLatch, SpinLatch, StackJob};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// The node-level thread-count knob: `CELESTE_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
/// Every layer that wants "one thread per core by default" (the
/// executor, region batch sizes, campaign node counts) reads this one
/// knob instead of carrying its own ad-hoc parameter.
pub fn configured_threads() -> usize {
    std::env::var("CELESTE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

struct SleepState {
    /// Wake epoch, bumped (under the lock) by every notification so a
    /// sleeper that raced a wake-up can detect it missed one.
    epoch: Mutex<u64>,
    cond: Condvar,
    sleepers: AtomicUsize,
}

struct PoolInner {
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<JobRef>>,
    /// Injector length mirror, so the hot path can skip the lock.
    injected: AtomicUsize,
    sleep: SleepState,
    shutdown: AtomicBool,
}

/// A fixed-width work-stealing pool. Dropping a non-global pool
/// drains its queues and joins its workers.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct WorkerCtx {
    pool: Arc<PoolInner>,
    index: usize,
}

thread_local! {
    /// Points into the live `worker_main` frame of pool workers; null
    /// on every other thread.
    static WORKER: Cell<*const WorkerCtx> = const { Cell::new(std::ptr::null()) };
}

/// The current thread's worker context, if it is a pool worker.
///
/// The returned reference aliases the worker's own stack frame, which
/// outlives every job the worker executes, so handing out an
/// unconstrained lifetime is sound for the only callers that exist:
/// code running on that same worker thread.
fn current_worker<'a>() -> Option<&'a WorkerCtx> {
    WORKER.with(|w| {
        let ptr = w.get();
        if ptr.is_null() {
            None
        } else {
            // SAFETY: non-null means we are on the worker thread
            // whose stack frame owns the ctx (see the fn docs), so
            // the reference cannot dangle while this thread runs.
            Some(unsafe { &*ptr })
        }
    })
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The lazily-created global pool, sized by [`configured_threads`].
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(configured_threads()))
}

/// Width of the pool the current thread would run parallel work on:
/// the enclosing pool when called from a worker, the global pool
/// otherwise.
pub fn num_threads() -> usize {
    match current_worker() {
        Some(ctx) => ctx.pool.deques.len(),
        None => global().num_threads(),
    }
}

impl ThreadPool {
    /// Spawn a pool with `n_threads` workers (at least one).
    pub fn new(n_threads: usize) -> ThreadPool {
        let n = n_threads.max(1);
        let inner = Arc::new(PoolInner {
            deques: (0..n).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injected: AtomicUsize::new(0),
            sleep: SleepState {
                epoch: Mutex::new(0),
                cond: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..n)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("celeste-par-{index}"))
                    .spawn(move || worker_main(inner, index))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { inner, handles }
    }

    pub fn num_threads(&self) -> usize {
        self.inner.deques.len()
    }

    /// Run `f` on a worker of this pool, blocking until it returns.
    /// Parallel constructs inside `f` (join/scope/par iterators) run
    /// on this pool. Calling from a worker of this same pool runs `f`
    /// inline.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(ctx) = current_worker() {
            if Arc::ptr_eq(&ctx.pool, &self.inner) {
                return f();
            }
        }
        let job = StackJob::new(LockLatch::default(), f);
        // SAFETY: we block on the latch below, so the stack job
        // outlives its execution.
        let job_ref = unsafe { job.as_job_ref() };
        inject(&self.inner, job_ref);
        job.latch().wait();
        job.into_result()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let mut epoch = self
                .inner
                .sleep
                .epoch
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *epoch = epoch.wrapping_add(1);
            self.inner.sleep.cond.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(inner: Arc<PoolInner>, index: usize) {
    let ctx = WorkerCtx { pool: inner, index };
    WORKER.with(|w| w.set(&ctx as *const WorkerCtx));
    loop {
        if let Some(job) = find_work(&ctx.pool, ctx.index) {
            execute_job(job);
            continue;
        }
        if ctx.pool.shutdown.load(Ordering::Acquire) {
            break;
        }
        idle_wait(&ctx.pool);
    }
    WORKER.with(|w| w.set(std::ptr::null()));
}

/// Jobs never unwind past their own boundary (StackJob catches, scope
/// spawns wrap in catch_unwind); if one somehow does, taking down the
/// whole process beats a silently dead worker and a hung pool.
fn execute_job(job: JobRef) {
    let aborter = AbortOnUnwind;
    // SAFETY: every JobRef in a queue came from a live job.
    unsafe { job.execute() };
    std::mem::forget(aborter);
}

struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!("celeste-par: a job unwound past its panic boundary; aborting");
        std::process::abort();
    }
}

/// Find a runnable job: own deque first (LIFO, cache-hot), then the
/// injector, then steal sweeps over the other workers' deques.
fn find_work(inner: &PoolInner, self_index: usize) -> Option<JobRef> {
    if let Some(job) = inner.deques[self_index].pop() {
        return Some(job);
    }
    if inner.injected.load(Ordering::Acquire) > 0 {
        let mut q = inner.injector.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(job) = q.pop_front() {
            inner.injected.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
    }
    let n = inner.deques.len();
    // Two sweeps: the second absorbs CAS races flagged as Retry.
    for _ in 0..2 {
        let mut saw_retry = false;
        for k in 1..n {
            let victim = (self_index + k) % n;
            match inner.deques[victim].steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => saw_retry = true,
                Steal::Empty => {}
            }
        }
        if !saw_retry {
            break;
        }
    }
    None
}

fn has_work(inner: &PoolInner) -> bool {
    inner.injected.load(Ordering::SeqCst) > 0 || inner.deques.iter().any(|d| !d.is_empty())
}

fn idle_wait(inner: &PoolInner) {
    let seen = *inner.sleep.epoch.lock().unwrap_or_else(|e| e.into_inner());
    inner.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
    // Recheck after advertising: a producer that pushed before seeing
    // the sleeper count left work this worker must not sleep past.
    if has_work(inner) || inner.shutdown.load(Ordering::Acquire) {
        inner.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    {
        let epoch = inner.sleep.epoch.lock().unwrap_or_else(|e| e.into_inner());
        if *epoch == seen {
            // Timeout is belt-and-braces against any missed wake; the
            // epoch check above is what makes wake-ups reliable.
            let _ = inner
                .sleep
                .cond
                .wait_timeout(epoch, Duration::from_millis(5));
        }
    }
    inner.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
}

/// Wake workers if (and only if) any are asleep. The sleeper check
/// keeps job pushes lock-free in the common all-busy case.
fn notify_new_work(inner: &PoolInner) {
    if inner.sleep.sleepers.load(Ordering::SeqCst) > 0 {
        let mut epoch = inner.sleep.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *epoch = epoch.wrapping_add(1);
        inner.sleep.cond.notify_all();
    }
}

/// Worker-side push: own deque, overflowing to the injector.
fn push_job(ctx: &WorkerCtx, job: JobRef) {
    match ctx.pool.deques[ctx.index].push(job) {
        Ok(()) => notify_new_work(&ctx.pool),
        Err(job) => inject(&ctx.pool, job),
    }
}

/// External submission (and deque overflow): the shared FIFO.
fn inject(inner: &PoolInner, job: JobRef) {
    {
        let mut q = inner.injector.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
    }
    inner.injected.fetch_add(1, Ordering::SeqCst);
    notify_new_work(inner);
}

/// Run `oper_a` and `oper_b`, potentially in parallel, and return
/// both results. Either closure's panic is propagated after both have
/// finished (so borrowed data is never observed mid-use).
///
/// On a pool worker this is the classic fork-join: `b` is pushed to
/// the worker's own deque (stealable), `a` runs inline, and `b` is
/// popped back if nobody stole it. Elsewhere the pair is installed
/// onto the global pool, or run serially when the pool is one wide.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_worker() {
        Some(ctx) => join_on_worker(ctx, oper_a, oper_b),
        None => {
            let pool = global();
            if pool.num_threads() <= 1 {
                return (oper_a(), oper_b());
            }
            pool.install(|| join(oper_a, oper_b))
        }
    }
}

fn join_on_worker<A, B, RA, RB>(ctx: &WorkerCtx, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(SpinLatch::default(), oper_b);
    // SAFETY: this frame blocks on the latch before returning (even
    // when `oper_a` panics), so the job outlives its execution.
    let ref_b = unsafe { job_b.as_job_ref() };
    push_job(ctx, ref_b);

    let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));

    // Retrieve b: thanks to LIFO discipline the top of our deque is
    // either b itself or empty (b stolen / overflowed). While b is in
    // someone else's hands, keep executing other work.
    while !job_b.latch().probe() {
        match ctx.pool.deques[ctx.index].pop() {
            Some(job) if job == ref_b => {
                execute_job(job);
                break;
            }
            Some(job) => execute_job(job),
            None => match find_work(&ctx.pool, ctx.index) {
                Some(job) => execute_job(job),
                None => std::thread::yield_now(),
            },
        }
    }

    match result_a {
        Ok(ra) => (ra, job_b.into_result()),
        Err(p) => {
            // b has completed; discard its outcome and propagate a's.
            panic::resume_unwind(p)
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signal for scope owners that are not pool workers.
    done_lock: Mutex<()>,
    done_cond: Condvar,
}

impl ScopeState {
    fn job_done(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.done_cond.notify_all();
        }
    }

    fn wait_all(&self) {
        if let Some(ctx) = current_worker() {
            // Pool worker: drain useful work instead of blocking.
            let mut idle_spins = 0u32;
            while self.pending.load(Ordering::SeqCst) > 0 {
                match find_work(&ctx.pool, ctx.index) {
                    Some(job) => {
                        execute_job(job);
                        idle_spins = 0;
                    }
                    None => {
                        idle_spins += 1;
                        if idle_spins < 64 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                }
            }
        } else {
            let mut guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            while self.pending.load(Ordering::SeqCst) > 0 {
                let (g, _) = self
                    .done_cond
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner());
                guard = g;
            }
        }
    }
}

/// A scope for spawning jobs that may borrow from the enclosing
/// frame. All spawns complete before [`scope`] returns.
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    // Invariant over 'scope, like std::thread::Scope.
    _marker: PhantomData<Cell<&'scope ()>>,
}

/// Run `op` with a [`Scope`] handle on the calling thread; every job
/// spawned on the scope finishes before `scope` returns. Panics from
/// the body or any spawn are propagated (body first, then the first
/// spawn panic) — but only after all spawned work has completed, so
/// borrows stay sound.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cond: Condvar::new(),
        }),
        _marker: PhantomData,
    };
    let body_result = panic::catch_unwind(AssertUnwindSafe(|| op(&s)));
    s.state.wait_all();
    match body_result {
        Err(p) => panic::resume_unwind(p),
        Ok(r) => {
            let first_panic = s
                .state
                .panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(p) = first_panic {
                panic::resume_unwind(p);
            }
            r
        }
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn `f` onto the pool (the enclosing pool when called from a
    /// worker, the global pool otherwise). `f` may borrow anything
    /// that outlives the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let state = Arc::clone(&self.state);
        state.pending.fetch_add(1, Ordering::SeqCst);
        let wrapped = move || {
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(p);
            }
            state.job_done();
        };
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapped);
        // SAFETY: the scope's wait_all keeps every borrow in `f` alive
        // until the job has run, which is exactly the guarantee the
        // 'static erasure needs.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let job = HeapJob::boxed(boxed);
        match current_worker() {
            Some(ctx) => push_job(ctx, job),
            None => inject(&global().inner, job),
        }
    }
}
