//! `celeste-par`: a real work-stealing fork-join executor.
//!
//! The paper's node-level story (§IV-D, §VII) is "saturate every core
//! of the node": threads jointly optimizing a region while
//! image synthesis, staging, and coadds run in parallel around them.
//! This crate is the one scheduler all of those layers share:
//!
//! * [`join`] — fork-join primitive with work stealing (Chase–Lev
//!   deques, one per persistent worker);
//! * [`scope`] — structured task spawning that may borrow from the
//!   enclosing frame (what region batches and the campaign run on);
//! * [`iter`] — slice-shaped parallel iterators (`par_iter`,
//!   `par_chunks`, `par_chunks_mut` + `map`/`zip`/`enumerate` and
//!   `for_each`/`collect`/`sum` drivers) that the vendored `rayon`
//!   shim re-exports, making every existing call site genuinely
//!   parallel with no signature churn;
//! * a lazily-created global [`ThreadPool`] sized by the single
//!   `CELESTE_THREADS` knob ([`configured_threads`]), plus explicit
//!   pools for tests and benchmarks that need a fixed width.
//!
//! Workers are persistent, so per-thread state in `thread_local!`
//! (e.g. the optimizer's evaluation workspaces) is built once per
//! process and reused forever — the zero-allocation steady state the
//! Newton hot path depends on. All drivers assemble order-sensitive
//! results left-to-right, so parallel output is bit-identical to the
//! serial path at any thread count.

mod deque;
mod job;
mod pool;

pub mod iter;

pub use pool::{configured_threads, global, join, num_threads, scope, Scope, ThreadPool};

#[cfg(test)]
mod tests {
    use super::iter::{ParallelIterator, ParallelSlice, ParallelSliceMut};
    use super::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn scope_spawns_borrow_locals() {
        let mut out = vec![0usize; 8];
        scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_zip_enumerate() {
        let mut dst = vec![0u32; 9];
        let src: Vec<u32> = (0..9).collect();
        dst.par_chunks_mut(3)
            .zip(src.par_chunks(3))
            .enumerate()
            .for_each(|(i, (d, s))| {
                for (a, b) in d.iter_mut().zip(s) {
                    *a = b + i as u32;
                }
            });
        assert_eq!(dst, vec![0, 1, 2, 4, 5, 6, 8, 9, 10]);
    }

    #[test]
    fn par_sum_matches_serial() {
        let v: Vec<usize> = (0..10_000).collect();
        let par: usize = v.par_iter().map(|&x| x).sum();
        assert_eq!(par, (0..10_000).sum::<usize>());
    }

    #[test]
    fn install_runs_on_explicit_pool() {
        let pool = ThreadPool::new(3);
        let n = pool.install(num_threads);
        assert_eq!(n, 3);
        let outside = num_threads();
        assert!(outside >= 1);
    }
}
