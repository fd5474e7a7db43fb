//! Slice-shaped parallel iterators over the fork-join executor.
//!
//! A deliberately small subset of rayon's model: every source is an
//! exactly-sized, index-splittable producer over a slice
//! ([`Splittable`]), adapters (`map`/`zip`/`enumerate`) preserve that
//! shape, and drivers (`for_each`/`collect`/`sum`) recursively
//! `join`-split the producer until a leaf is at most
//! `len / (threads × SPLITS_PER_THREAD)` items, then run the leaf
//! with ordinary sequential iterators. Order-sensitive results
//! (`collect`, `enumerate` indices, `for_each` over disjoint slices)
//! are assembled positionally, so those drivers are **bit-identical
//! to the serial path** no matter how many threads run or who steals
//! what. `sum` is the exception: it reduces as a tree whose shape
//! follows the (thread-count-dependent) split, which is exact for
//! integer sums but reassociates floating-point addition — callers
//! needing bit-stable float totals should `collect` and sum
//! sequentially.
//!
//! ## Sequential cutoff
//!
//! Splitting costs one stack job push/pop (~0.5 µs per worker-side
//! `join` pair on a 2-CPU container), and entering the pool from an
//! external thread costs ~13 µs once per driver call; `hotpath_profile`
//! in `celeste-bench` measures both (`par_join_pair_ns`,
//! `par_install_handoff_ns`). Leaves are therefore kept
//! coarse — [`SPLITS_PER_THREAD`] pieces per worker is enough slack
//! for stealing to balance skewed loads — and a producer shorter than
//! [`MIN_PARALLEL_LEN`] items, or any run on a one-thread pool, stays
//! entirely sequential on the calling thread. Workloads whose items
//! are sub-microsecond should batch them first (as
//! `render_observed` does by handing out whole rows).

use crate::pool::{join, num_threads};
use std::sync::Arc;

/// Target number of splittable pieces per pool thread. More pieces →
/// better load balancing on skewed items; fewer → less overhead.
pub const SPLITS_PER_THREAD: usize = 4;

/// Producers shorter than this never fork.
pub const MIN_PARALLEL_LEN: usize = 2;

/// An exactly-sized producer that can be split at an index into two
/// independent producers, or lowered into a sequential iterator.
pub trait Splittable: Sized + Send {
    type Item: Send;
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    fn into_seq(self) -> Self::Seq;
}

/// Leaf size for a producer of `len` items on the current pool.
fn leaf_len(len: usize) -> usize {
    let threads = num_threads();
    if threads <= 1 || len < MIN_PARALLEL_LEN {
        return len.max(1);
    }
    (len / (threads * SPLITS_PER_THREAD)).max(1)
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel counterpart of `slice.iter()`.
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Splittable for ParSliceIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (ParSliceIter { slice: l }, ParSliceIter { slice: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

/// Parallel counterpart of `slice.chunks(n)`. Splits on chunk
/// boundaries so leaves see exactly the chunks serial code would.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> Splittable for ParChunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.chunk).min(self.slice.len());
        let (l, r) = self.slice.split_at(elems);
        (
            ParChunks {
                slice: l,
                chunk: self.chunk,
            },
            ParChunks {
                slice: r,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.chunk)
    }
}

/// Parallel counterpart of `slice.chunks_mut(n)`.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> Splittable for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.chunk).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(elems);
        (
            ParChunksMut {
                slice: l,
                chunk: self.chunk,
            },
            ParChunksMut {
                slice: r,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk)
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter. The mapping function is shared across splits.
pub struct Map<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential tail of [`Map`].
pub struct MapSeq<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I, F, R> Iterator for MapSeq<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }
}

impl<P, F, R> Splittable for Map<P, F>
where
    P: Splittable,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    type Seq = MapSeq<P::Seq, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Map {
                base: l,
                f: Arc::clone(&self.f),
            },
            Map { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            base: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// `zip` adapter; length is the shorter side, splits stay aligned.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> Splittable for Zip<A, B>
where
    A: Splittable,
    B: Splittable,
{
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// `enumerate` adapter; indices are global (split-invariant).
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

/// Sequential tail of [`Enumerate`].
pub struct EnumerateSeq<I> {
    base: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.base.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, item))
    }
}

impl<P: Splittable> Splittable for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = EnumerateSeq<P::Seq>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Enumerate {
                base: l,
                offset: self.offset,
            },
            Enumerate {
                base: r,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        EnumerateSeq {
            base: self.base.into_seq(),
            next: self.offset,
        }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

fn drive_for_each<P, F>(p: P, f: &F, leaf: usize)
where
    P: Splittable,
    F: Fn(P::Item) + Sync,
{
    if p.len() <= leaf {
        for item in p.into_seq() {
            f(item);
        }
        return;
    }
    let mid = p.len() / 2;
    let (l, r) = p.split_at(mid);
    join(
        move || drive_for_each(l, f, leaf),
        move || drive_for_each(r, f, leaf),
    );
}

fn drive_collect_vec<P>(p: P, leaf: usize) -> Vec<P::Item>
where
    P: Splittable,
{
    if p.len() <= leaf {
        return p.into_seq().collect();
    }
    let mid = p.len() / 2;
    let (l, r) = p.split_at(mid);
    let (mut lv, mut rv) = join(
        move || drive_collect_vec(l, leaf),
        move || drive_collect_vec(r, leaf),
    );
    lv.append(&mut rv);
    lv
}

fn drive_sum<P, S>(p: P, leaf: usize) -> S
where
    P: Splittable,
    S: std::iter::Sum<P::Item> + std::iter::Sum<S> + Send,
{
    if p.len() <= leaf {
        return p.into_seq().sum();
    }
    let mid = p.len() / 2;
    let (l, r) = p.split_at(mid);
    let (ls, rs) = join(
        move || drive_sum::<P, S>(l, leaf),
        move || drive_sum::<P, S>(r, leaf),
    );
    [ls, rs].into_iter().sum()
}

/// Collection types buildable from a parallel producer.
pub trait FromParallel<T> {
    fn from_par<P: Splittable<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallel<T> for Vec<T> {
    fn from_par<P: Splittable<Item = T>>(p: P) -> Vec<T> {
        let leaf = leaf_len(p.len());
        drive_collect_vec(p, leaf)
    }
}

/// The user-facing adapter/driver methods, available on every
/// [`Splittable`] (mirroring the rayon method names our call sites
/// already use).
pub trait ParallelIterator: Splittable {
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    fn zip<B: Splittable>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let leaf = leaf_len(self.len());
        drive_for_each(self, &f, leaf);
    }

    fn collect<C: FromParallel<Self::Item>>(self) -> C {
        C::from_par(self)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let leaf = leaf_len(self.len());
        drive_sum(self, leaf)
    }

    fn count(self) -> usize {
        self.len()
    }
}

impl<P: Splittable> ParallelIterator for P {}

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> ParSliceIter<'_, T>;
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            slice: self,
            chunk: chunk_size,
        }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk: chunk_size,
        }
    }
}
