//! Dtree: distributed dynamic scheduling with a tree topology.
//!
//! Celeste schedules its irregular tasks with Dtree [Pamnany et al.
//! 2015]: compute nodes form a tree of logarithmic height; work flows
//! down the tree in batches whose size shrinks as the remaining work
//! shrinks, so "to distribute tasks, each node only needs to
//! communicate with its parent and its immediate children" (§IV-B).
//!
//! This implementation keeps the Dtree structure — per-node work pools
//! arranged in a `fanout`-ary tree, batch refills that traverse only
//! the parent edge, geometrically decaying batch sizes — while using
//! shared memory (locks) as the transport, since the workspace runs on
//! one machine. Message counts and traversal depths are recorded so
//! the scaling analysis (and tests) can verify the O(log n) behavior.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Scheduler statistics.
#[derive(Debug, Default)]
pub struct DtreeStats {
    /// Parent→child batch transfers ("messages").
    pub transfers: AtomicU64,
    /// Total tasks served to workers.
    pub served: AtomicU64,
}

struct Node<T> {
    pool: Mutex<VecDeque<T>>,
    parent: Option<usize>,
    /// Number of leaves in this node's subtree (for batch sizing).
    subtree_leaves: usize,
    depth: usize,
}

/// A Dtree scheduler over `n_leaves` workers ("nodes" in the paper's
/// cluster sense). The root holds all tasks initially; leaves call
/// [`Dtree::pop`].
pub struct Dtree<T> {
    nodes: Vec<Node<T>>,
    /// Leaf node index per worker.
    leaf_of_worker: Vec<usize>,
    fanout: usize,
    /// Fraction of a pool forwarded per refill request.
    refill_frac: f64,
    min_batch: usize,
    pub stats: DtreeStats,
}

impl<T> Dtree<T> {
    /// Build a tree over `n_workers` leaves with the given fanout and
    /// load all `tasks` at the root.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0` — a scheduler with no workers can
    /// never drain its pool, so this is a programming error at the
    /// call site, not a recoverable condition.
    pub fn new(n_workers: usize, fanout: usize, tasks: Vec<T>) -> Dtree<T> {
        assert!(n_workers > 0, "Dtree requires at least one worker");
        let fanout = fanout.max(2);
        // Build a complete fanout-ary tree with at least n_workers leaves.
        // `levels` starts non-empty and only grows, so the `expect`s on
        // `last()` here and below are provably unreachable.
        let mut levels = vec![1usize];
        while *levels.last().expect("nonempty") < n_workers {
            levels.push(levels.last().unwrap() * fanout);
        }
        let mut nodes: Vec<Node<T>> = Vec::new();
        let mut level_start = Vec::new();
        for (d, &count) in levels.iter().enumerate() {
            level_start.push(nodes.len());
            for i in 0..count {
                let parent = if d == 0 {
                    None
                } else {
                    Some(level_start[d - 1] + i / fanout)
                };
                nodes.push(Node {
                    pool: Mutex::new(VecDeque::new()),
                    parent,
                    subtree_leaves: 0,
                    depth: d,
                });
            }
        }
        // Leaves = first n_workers nodes of the last level.
        let last = *level_start.last().expect("nonempty");
        let leaf_of_worker: Vec<usize> = (0..n_workers).map(|w| last + w).collect();
        // Subtree leaf counts (walk up from each used leaf).
        for &leaf in &leaf_of_worker {
            let mut cur = Some(leaf);
            while let Some(i) = cur {
                nodes[i].subtree_leaves += 1;
                cur = nodes[i].parent;
            }
        }
        let mut q = VecDeque::from(tasks);
        let total = q.len();
        nodes[0].pool.lock().append(&mut q);
        let _ = total;
        Dtree {
            nodes,
            leaf_of_worker,
            fanout,
            refill_frac: 0.5,
            min_batch: 1,
            stats: DtreeStats::default(),
        }
    }

    /// Pop a task for `worker`. Refills the leaf pool from ancestors
    /// when empty; returns `None` when the whole tree is drained, or
    /// when `worker` is out of range (an out-of-range worker id owns
    /// no leaf, hence has no work — it is not a panic).
    pub fn pop(&self, worker: usize) -> Option<T> {
        let leaf = *self.leaf_of_worker.get(worker)?;
        loop {
            if let Some(t) = self.nodes[leaf].pool.lock().pop_front() {
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
            if !self.refill(leaf) {
                return None;
            }
        }
    }

    /// Pull a batch from the nearest non-empty ancestor into `leaf`'s
    /// chain. Returns false when no ancestor has work.
    fn refill(&self, leaf: usize) -> bool {
        // Find nearest ancestor with work.
        let mut chain = vec![leaf];
        let mut cur = self.nodes[leaf].parent;
        let mut donor = None;
        while let Some(i) = cur {
            if !self.nodes[i].pool.lock().is_empty() {
                donor = Some(i);
                break;
            }
            chain.push(i);
            cur = self.nodes[i].parent;
        }
        let Some(mut from) = donor else { return false };
        // Move batches down the chain, one edge at a time (parent →
        // child messages only, as in Dtree).
        while let Some(&to) = chain
            .iter()
            .rev()
            .find(|&&n| self.nodes[n].depth > self.nodes[from].depth)
        {
            // Batch size: proportional share of the donor pool for the
            // receiving subtree, decaying as the pool drains.
            let mut src = self.nodes[from].pool.lock();
            if src.is_empty() {
                return true; // someone else drained it; retry from pop
            }
            let share = self.nodes[to].subtree_leaves as f64
                / self.nodes[from].subtree_leaves.max(1) as f64;
            let batch = ((src.len() as f64 * share * self.refill_frac).ceil() as usize)
                .clamp(self.min_batch, src.len());
            let mut moved: VecDeque<T> = src.drain(..batch).collect();
            drop(src);
            self.nodes[to].pool.lock().append(&mut moved);
            self.stats.transfers.fetch_add(1, Ordering::Relaxed);
            from = to;
            if to == leaf {
                break;
            }
        }
        true
    }

    /// Configured fanout of the tree.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height (edges from root to leaves).
    pub fn height(&self) -> usize {
        self.nodes.last().map(|n| n.depth).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    #[test]
    fn serves_every_task_exactly_once_single_worker() {
        let dt = Dtree::new(1, 2, (0..100).collect::<Vec<_>>());
        let mut seen = Vec::new();
        while let Some(t) = dt.pop(0) {
            seen.push(t);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn serves_every_task_exactly_once_concurrent() {
        let n_workers = 8;
        let n_tasks = 5000;
        let dt = Arc::new(Dtree::new(
            n_workers,
            4,
            (0..n_tasks).collect::<Vec<usize>>(),
        ));
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n_tasks).map(|_| AtomicUsize::new(0)).collect());
        std::thread::scope(|s| {
            for w in 0..n_workers {
                let dt = Arc::clone(&dt);
                let counts = Arc::clone(&counts);
                s.spawn(move || {
                    while let Some(t) = dt.pop(w) {
                        counts[t].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} served wrong count");
        }
        assert_eq!(dt.stats.served.load(Ordering::Relaxed), n_tasks as u64);
    }

    #[test]
    fn tree_height_is_logarithmic() {
        for &(workers, fanout) in &[(64usize, 2usize), (1024, 4), (8192, 8)] {
            let dt = Dtree::new(workers, fanout, Vec::<u32>::new());
            let expect = (workers as f64).log(fanout as f64).ceil() as usize;
            assert!(
                dt.height() <= expect + 1,
                "{workers} workers fanout {fanout}: height {} vs ~{expect}",
                dt.height()
            );
        }
    }

    #[test]
    fn transfers_scale_gently_with_tasks() {
        // Dtree moves batches, so transfers ≪ tasks.
        let n_tasks = 10_000;
        let dt = Arc::new(Dtree::new(16, 4, (0..n_tasks).collect::<Vec<usize>>()));
        std::thread::scope(|s| {
            for w in 0..16 {
                let dt = Arc::clone(&dt);
                s.spawn(move || while dt.pop(w).is_some() {});
            }
        });
        let transfers = dt.stats.transfers.load(Ordering::Relaxed);
        assert!(
            transfers < n_tasks as u64 / 4,
            "too many transfers: {transfers} for {n_tasks} tasks"
        );
    }

    #[test]
    fn empty_tree_returns_none() {
        let dt = Dtree::new(4, 2, Vec::<u8>::new());
        assert!(dt.pop(0).is_none());
        assert!(dt.pop(3).is_none());
    }

    #[test]
    fn out_of_range_worker_gets_no_work_and_steals_none() {
        let dt = Dtree::new(2, 2, vec![1u8, 2, 3]);
        assert!(dt.pop(7).is_none());
        let mut seen = Vec::new();
        while let Some(t) = dt.pop(0) {
            seen.push(t);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn uneven_workers_all_make_progress() {
        // 5 workers on a fanout-2 tree (non-power-of-two).
        let dt = Arc::new(Dtree::new(5, 2, (0..1000).collect::<Vec<usize>>()));
        let served: Arc<Vec<AtomicUsize>> = Arc::new((0..5).map(|_| AtomicUsize::new(0)).collect());
        // Every worker takes its first task before any takes a second,
        // so one scheduled late cannot find its subtree drained by a
        // sibling: five pops cannot empty a root of 1000.
        let first_taken = Arc::new(Barrier::new(5));
        std::thread::scope(|s| {
            for w in 0..5 {
                let dt = Arc::clone(&dt);
                let served = Arc::clone(&served);
                let first_taken = Arc::clone(&first_taken);
                s.spawn(move || {
                    let mut task = dt.pop(w);
                    first_taken.wait();
                    while task.is_some() {
                        served[w].fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        task = dt.pop(w);
                    }
                });
            }
        });
        let total: usize = served.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000);
        for w in 0..5 {
            assert!(
                served[w].load(Ordering::Relaxed) > 0,
                "worker {w} starved: {served:?}"
            );
        }
    }
}
