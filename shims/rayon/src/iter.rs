//! Parallel-iterator bridges: indexable sources, adapters, and consumers.
//!
//! Every parallel iterator here is *indexed*: a [`ParallelSource`] describes
//! a sequence of known length whose `i`-th element can be produced
//! independently on any thread. Consumers partition `0..len` into contiguous
//! chunks and hand each chunk to the execution engine in [`crate::pool`].
//!
//! # Determinism
//!
//! Chunk boundaries are a pure function of the sequence length and the grain
//! size (set with [`Par::with_min_len`]) — never of scheduling order. Ordered
//! consumers (`collect`, per-chunk accumulators of `fold`/`sum`) write into
//! per-chunk slots and merge them in ascending chunk order on the calling
//! thread, so every bridge is deterministic run-to-run regardless of how the
//! OS schedules workers. For `fold(..).reduce(..)` and `sum` the partition is
//! additionally independent of the pool's thread count (grain defaults to
//! [`fold_grain`]), so results are byte-identical across pool sizes;
//! they equal the serial fold bit-for-bit whenever the operator is exactly
//! associative over the partition (integer arithmetic, `min`/`max`, disjoint
//! writes — every correctness-bearing use in this workspace).
//!
//! # Safety model
//!
//! `ParallelSource::get` is an `unsafe fn` with the contract that each index
//! is fetched at most once across all threads; the drivers uphold it by
//! assigning disjoint index ranges to tasks. That contract is what lets
//! mutable-slice sources hand out `&mut` elements and owning sources move
//! values out from shared references.

use crate::pool::{current_pool, PoolState};
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::Arc;

/// Chunks-per-worker target for auto-partitioned bridges: enough chunks per
/// worker that uneven tasks rebalance, few enough that claim overhead stays
/// invisible. Re-tuning it is safe for results: auto-partitioned bridges are
/// ordered and exact over any partition.
pub const fn overpartition() -> usize {
    4
}

/// The thread-count-independent `fold`/`sum` accumulator grain (see the
/// module docs on determinism). Changing it changes the accumulator merge
/// tree, so float reductions may differ in the last bits — re-bless byte
/// pins after re-tuning (EXPERIMENTS.md).
pub const fn fold_grain() -> usize {
    1024
}

/// A random-access description of a parallel sequence.
///
/// # Safety
///
/// Implementations must tolerate `get` being called concurrently from many
/// threads, provided no index is fetched twice. Callers (the consumers in
/// this module) must fetch each index at most once.
pub unsafe trait ParallelSource: Send + Sync {
    type Item: Send;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release elements at `new_len..len()`, if the source owns them. Called
    /// before execution when an adapter (e.g. a shortening `zip`) will never
    /// fetch them.
    fn truncate(&mut self, _new_len: usize) {}

    /// Produce element `i`.
    ///
    /// # Safety
    ///
    /// `i < self.len()`, and each index is fetched at most once over the
    /// source's lifetime.
    unsafe fn get(&self, i: usize) -> Self::Item;
}

// ---------------------------------------------------------------------------
// Leaf sources
// ---------------------------------------------------------------------------

/// Integer range source (`(a..b).into_par_iter()`).
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

/// Index types usable as parallel ranges.
pub trait RangeIndex: Copy + Send + Sync {
    fn range_len(start: Self, end: Self) -> usize;
    fn offset(self, i: usize) -> Self;
}

macro_rules! impl_range_index {
    ($($t:ty),*) => {$(
        impl RangeIndex for $t {
            fn range_len(start: $t, end: $t) -> usize {
                if end > start { (end - start) as usize } else { 0 }
            }
            fn offset(self, i: usize) -> $t {
                self + i as $t
            }
        }
    )*};
}
impl_range_index!(usize, u32, u64, i32, i64);

// SAFETY: `get` computes a value from the index alone, so fetching any index
// from any thread is sound.
unsafe impl<T: RangeIndex> ParallelSource for RangeSource<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn get(&self, i: usize) -> T {
        self.start.offset(i)
    }
}

/// Shared-slice source (`par_iter`).
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

// SAFETY: `get` hands out shared references to a `Sync` slice, which any
// number of threads may hold at once.
unsafe impl<'a, T: Sync> ParallelSource for SliceSource<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn get(&self, i: usize) -> &'a T {
        // SAFETY: i < len by contract.
        unsafe { self.slice.get_unchecked(i) }
    }
}

/// Shared-chunks source (`par_chunks`).
pub struct ChunksSource<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

// SAFETY: as for `SliceSource`: shared sub-slices of a `Sync` slice.
unsafe impl<'a, T: Sync> ParallelSource for ChunksSource<'a, T> {
    type Item = &'a [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    unsafe fn get(&self, i: usize) -> &'a [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.slice.len());
        &self.slice[start..end]
    }
}

/// Mutable-slice source (`par_iter_mut`). Raw pointer so disjoint indices can
/// be materialized as `&mut` from different threads.
pub struct SliceMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: disjoint-index discipline (see `ParallelSource::get`) means no two
// threads ever hold a reference to the same element.
unsafe impl<T: Send> Send for SliceMutSource<'_, T> {}
// SAFETY: as for `Send` above: a shared source only yields disjoint `&mut`.
unsafe impl<T: Send> Sync for SliceMutSource<'_, T> {}

// SAFETY: index `i` maps to element `i` alone, so fetching each index once
// hands out one `&mut` per element.
unsafe impl<'a, T: Send> ParallelSource for SliceMutSource<'a, T> {
    type Item = &'a mut T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn get(&self, i: usize) -> &'a mut T {
        // SAFETY: i < len, fetched once — the &mut is exclusive.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Mutable-chunks source (`par_chunks_mut`).
pub struct ChunksMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: as for `SliceMutSource` — chunks at distinct indices are disjoint.
unsafe impl<T: Send> Send for ChunksMutSource<'_, T> {}
// SAFETY: as for `Send` above: a shared source only yields disjoint chunks.
unsafe impl<T: Send> Sync for ChunksMutSource<'_, T> {}

// SAFETY: index `i` maps to the chunk `[i * chunk, (i + 1) * chunk)` alone,
// so fetching each index once hands out disjoint `&mut` chunks.
unsafe impl<'a, T: Send> ParallelSource for ChunksMutSource<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    unsafe fn get(&self, i: usize) -> &'a mut [T] {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.len);
        // SAFETY: [start, end) ranges for distinct i never overlap.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }
}

/// Owning source (`vec.into_par_iter()`): elements are moved out exactly once
/// via `ptr::read`; the allocation is freed (without dropping moved-out
/// elements) when the source drops. Elements cut off by `truncate` (a
/// shortening `zip`) are dropped eagerly; elements left unfetched because a
/// sibling task panicked are leaked, which is safe.
pub struct VecSource<T: Send> {
    ptr: *mut T,
    len: usize,
    cap: usize,
}

// SAFETY: the source owns its `Send` elements; moving it moves them.
unsafe impl<T: Send> Send for VecSource<T> {}
// SAFETY: shared access only moves elements out through `get`, once per
// index, so no element is reached from two threads.
unsafe impl<T: Send> Sync for VecSource<T> {}

impl<T: Send> VecSource<T> {
    fn new(v: Vec<T>) -> VecSource<T> {
        let mut v = ManuallyDrop::new(v);
        VecSource { ptr: v.as_mut_ptr(), len: v.len(), cap: v.capacity() }
    }
}

// SAFETY: `get` moves element `i` out with `ptr::read`; fetching each index
// once moves each element once, and `truncate` drops only unfetched ones.
unsafe impl<T: Send> ParallelSource for VecSource<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.len
    }

    fn truncate(&mut self, new_len: usize) {
        while self.len > new_len {
            self.len -= 1;
            // SAFETY: element `len` was never fetched (truncate runs before
            // execution) and is in bounds of the original vector.
            unsafe { std::ptr::drop_in_place(self.ptr.add(self.len)) };
        }
    }

    unsafe fn get(&self, i: usize) -> T {
        // SAFETY: fetched at most once, so this is a move, not a duplicate.
        unsafe { std::ptr::read(self.ptr.add(i)) }
    }
}

impl<T: Send> Drop for VecSource<T> {
    fn drop(&mut self) {
        // Free the allocation only; fetched elements moved out, and the
        // consumer is responsible for having fetched (or truncated) the rest.
        // SAFETY: ptr/cap came from a Vec<T> via ManuallyDrop.
        unsafe { drop(Vec::from_raw_parts(self.ptr, 0, self.cap)) };
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter.
pub struct MapSource<S, F> {
    inner: S,
    f: F,
}

// SAFETY: `get(i)` fetches `inner.get(i)` once, so the inner source sees the
// same at-most-once fetches as this one.
unsafe impl<S, F, O> ParallelSource for MapSource<S, F>
where
    S: ParallelSource,
    F: Fn(S::Item) -> O + Sync + Send,
    O: Send,
{
    type Item = O;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn truncate(&mut self, new_len: usize) {
        self.inner.truncate(new_len);
    }

    unsafe fn get(&self, i: usize) -> O {
        // SAFETY: forwarded contract.
        (self.f)(unsafe { self.inner.get(i) })
    }
}

/// `enumerate` adapter: pairs each element with its global index.
pub struct EnumerateSource<S> {
    inner: S,
}

// SAFETY: as for `MapSource`: one inner fetch per outer fetch, same index.
unsafe impl<S: ParallelSource> ParallelSource for EnumerateSource<S> {
    type Item = (usize, S::Item);

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn truncate(&mut self, new_len: usize) {
        self.inner.truncate(new_len);
    }

    unsafe fn get(&self, i: usize) -> (usize, S::Item) {
        // SAFETY: forwarded contract.
        (i, unsafe { self.inner.get(i) })
    }
}

/// `zip` adapter: lock-step pairs, truncated to the shorter side.
pub struct ZipSource<A, B> {
    a: A,
    b: B,
    len: usize,
}

impl<A: ParallelSource, B: ParallelSource> ZipSource<A, B> {
    fn new(mut a: A, mut b: B) -> ZipSource<A, B> {
        let len = a.len().min(b.len());
        a.truncate(len);
        b.truncate(len);
        ZipSource { a, b, len }
    }
}

// SAFETY: `get(i)` fetches index `i` once from each side, and both sides
// were truncated to `len`, so each side sees at-most-once fetches in range.
unsafe impl<A: ParallelSource, B: ParallelSource> ParallelSource for ZipSource<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.len
    }

    fn truncate(&mut self, new_len: usize) {
        if new_len < self.len {
            self.len = new_len;
            self.a.truncate(new_len);
            self.b.truncate(new_len);
        }
    }

    unsafe fn get(&self, i: usize) -> (A::Item, B::Item) {
        // SAFETY: forwarded contract on both sides.
        unsafe { (self.a.get(i), self.b.get(i)) }
    }
}

// ---------------------------------------------------------------------------
// The public combinator carrier
// ---------------------------------------------------------------------------

/// A parallel iterator: an indexed source plus grain-size hints.
pub struct Par<S> {
    src: S,
    /// Minimum elements per task; `0` = unset (auto partition).
    min_len: usize,
    /// Maximum elements per task; `usize::MAX` = unset.
    max_len: usize,
}

impl<S> Par<S> {
    fn new(src: S) -> Par<S> {
        Par { src, min_len: 0, max_len: usize::MAX }
    }
}

/// Conversion into a parallel iterator (ranges, vectors, and `Par` itself).
pub trait IntoParallelIterator {
    type Item: Send;
    type Source: ParallelSource<Item = Self::Item>;
    fn into_par_iter(self) -> Par<Self::Source>;
}

impl<S: ParallelSource> IntoParallelIterator for Par<S> {
    type Item = S::Item;
    type Source = S;

    fn into_par_iter(self) -> Par<S> {
        self
    }
}

impl<T: RangeIndex> IntoParallelIterator for std::ops::Range<T> {
    type Item = T;
    type Source = RangeSource<T>;

    fn into_par_iter(self) -> Par<RangeSource<T>> {
        Par::new(RangeSource { start: self.start, len: T::range_len(self.start, self.end) })
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Source = VecSource<T>;

    fn into_par_iter(self) -> Par<VecSource<T>> {
        Par::new(VecSource::new(self))
    }
}

/// `par_iter` / `par_chunks` on shared slices (reached from `Vec` through
/// auto-deref, as with the inherent slice methods).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> Par<SliceSource<'_, T>>;
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksSource<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<SliceSource<'_, T>> {
        Par::new(SliceSource { slice: self })
    }

    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksSource<'_, T>> {
        assert!(chunk_size > 0, "par_chunks chunk size must be non-zero");
        Par::new(ChunksSource { slice: self, chunk: chunk_size })
    }
}

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> Par<SliceMutSource<'_, T>>;
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutSource<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> Par<SliceMutSource<'_, T>> {
        Par::new(SliceMutSource { ptr: self.as_mut_ptr(), len: self.len(), _marker: PhantomData })
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutSource<'_, T>> {
        assert!(chunk_size > 0, "par_chunks_mut chunk size must be non-zero");
        Par::new(ChunksMutSource {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk: chunk_size,
            _marker: PhantomData,
        })
    }
}

impl<S: ParallelSource> Par<S> {
    pub fn map<O, F>(self, f: F) -> Par<MapSource<S, F>>
    where
        F: Fn(S::Item) -> O + Sync + Send,
        O: Send,
    {
        Par { src: MapSource { inner: self.src, f }, min_len: self.min_len, max_len: self.max_len }
    }

    pub fn enumerate(self) -> Par<EnumerateSource<S>> {
        Par {
            src: EnumerateSource { inner: self.src },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    pub fn zip<J: IntoParallelIterator>(self, other: J) -> Par<ZipSource<S, J::Source>> {
        let other = other.into_par_iter();
        Par {
            src: ZipSource::new(self.src, other.src),
            min_len: self.min_len.max(other.min_len),
            max_len: self.max_len.min(other.max_len),
        }
    }

    /// Set the minimum number of elements each parallel task processes — the
    /// real grain size used when partitioning work (not a no-op).
    pub fn with_min_len(mut self, min: usize) -> Par<S> {
        self.min_len = min.max(1);
        self
    }

    /// Set the maximum number of elements each parallel task processes:
    /// `with_max_len(1)` makes every element a task of its own, so a few
    /// costly items spread over every worker. Where the two hints conflict,
    /// the minimum wins.
    pub fn with_max_len(mut self, max: usize) -> Par<S> {
        self.max_len = max.max(1);
        self
    }

    /// Consume every element, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync + Send,
    {
        let len = self.src.len();
        let pool = current_pool();
        let grain = auto_grain(len, self.min_len, self.max_len, pool.num_threads());
        let src = &self.src;
        run_chunked(&pool, len, grain, &|start, end| {
            for i in start..end {
                // SAFETY: tasks receive disjoint ranges; each index fetched once.
                f(unsafe { src.get(i) });
            }
        });
    }

    /// Collect into any `FromIterator` container, preserving element order.
    /// (The parallel step always materializes an ordered `Vec` first.)
    pub fn collect<C: FromIterator<S::Item>>(self) -> C {
        self.collect_vec().into_iter().collect()
    }

    fn collect_vec(self) -> Vec<S::Item> {
        let len = self.src.len();
        let pool = current_pool();
        let grain = auto_grain(len, self.min_len, self.max_len, pool.num_threads());
        let mut out: Vec<MaybeUninit<S::Item>> = Vec::with_capacity(len);
        // SAFETY: MaybeUninit needs no initialization; slots are written
        // below before being assumed init.
        unsafe { out.set_len(len) };
        let base = SendPtr(out.as_mut_ptr());
        let src = &self.src;
        run_chunked(&pool, len, grain, &|start, end| {
            for i in start..end {
                // SAFETY: disjoint ranges — slot i written exactly once; each
                // source index fetched once.
                unsafe { (*base.get().add(i)).write(src.get(i)) };
            }
        });
        // A task panic propagates out of run_chunked above; `out` then drops
        // as MaybeUninit (written elements leak — safe).
        assume_init_vec(out)
    }

    /// Rayon's two-closure fold: per-chunk accumulators seeded by `identity`.
    /// The chunk partition is independent of the pool size; combine with
    /// [`FoldPar::reduce`] to merge accumulators in ascending chunk order.
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> FoldPar<S, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, S::Item) -> A + Sync + Send,
    {
        FoldPar { src: self.src, min_len: self.min_len, max_len: self.max_len, identity, fold_op }
    }

    /// Parallel sum: per-chunk sums (thread-count-independent partition)
    /// merged in ascending chunk order.
    pub fn sum<Out>(self) -> Out
    where
        Out: std::iter::Sum<S::Item> + std::iter::Sum<Out> + Send,
    {
        self.fold(
            || None::<Out>,
            |acc, x| {
                let x: Out = std::iter::once(x).sum();
                Some(match acc {
                    None => x,
                    Some(a) => [a, x].into_iter().sum(),
                })
            },
        )
        .reduce(
            || None,
            |a, b| match (a, b) {
                (None, x) | (x, None) => x,
                (Some(a), Some(b)) => Some([a, b].into_iter().sum()),
            },
        )
        .unwrap_or_else(|| std::iter::empty::<S::Item>().sum())
    }
}

/// Pending `fold` waiting for its `reduce`.
pub struct FoldPar<S, ID, F> {
    src: S,
    min_len: usize,
    max_len: usize,
    identity: ID,
    fold_op: F,
}

impl<S, A, ID, F> FoldPar<S, ID, F>
where
    S: ParallelSource,
    A: Send,
    ID: Fn() -> A + Sync + Send,
    F: Fn(A, S::Item) -> A + Sync + Send,
{
    /// Execute the fold and merge the per-chunk accumulators **in ascending
    /// chunk order** on the calling thread, seeded by `identity`.
    pub fn reduce<ID2, R>(self, identity: ID2, reduce_op: R) -> A
    where
        ID2: Fn() -> A,
        R: Fn(A, A) -> A,
    {
        let len = self.src.len();
        if len == 0 {
            return identity();
        }
        // Grain independent of the pool size: the partition (and therefore
        // the accumulator merge tree) is identical on 1, 2, or 64 threads.
        let grain = if self.min_len > 0 { self.min_len } else { fold_grain().min(self.max_len) };
        let num_chunks = len.div_ceil(grain);
        let pool = current_pool();
        let mut accs: Vec<MaybeUninit<A>> = Vec::with_capacity(num_chunks);
        // SAFETY: written below, one slot per chunk, before assume-init.
        unsafe { accs.set_len(num_chunks) };
        let base = SendPtr(accs.as_mut_ptr());
        let src = &self.src;
        let seed = &self.identity;
        let fold_op = &self.fold_op;
        run_chunked(&pool, len, grain, &|start, end| {
            let mut acc = seed();
            for i in start..end {
                // SAFETY: disjoint ranges; each index fetched once.
                acc = fold_op(acc, unsafe { src.get(i) });
            }
            let chunk_idx = start / grain;
            // SAFETY: one chunk per slot, written exactly once.
            unsafe { (*base.get().add(chunk_idx)).write(acc) };
        });
        let mut acc = identity();
        for chunk_acc in assume_init_vec(accs) {
            acc = reduce_op(acc, chunk_acc);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Driver plumbing
// ---------------------------------------------------------------------------

struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    /// Accessor instead of direct field reads inside parallel closures: a
    /// method call makes the closure capture `&SendPtr` (which is `Sync`)
    /// rather than the bare `*mut T` field (which is not).
    fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: carried across threads only under the disjoint-index discipline.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send` above: tasks sharing the pointer write disjoint slots.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Elements per task: enough chunks for every worker to take
/// [`overpartition`] of them, capped by `with_max_len` and floored by
/// `with_min_len`.
fn auto_grain(len: usize, min_len: usize, max_len: usize, threads: usize) -> usize {
    let auto = len.div_ceil(threads.saturating_mul(overpartition()).max(1)).max(1);
    auto.min(max_len).max(min_len)
}

/// Partition `0..len` into `grain`-sized contiguous chunks and run them on
/// the pool (caller participating). Chunk boundaries depend only on `len` and
/// `grain`.
fn run_chunked(
    pool: &Arc<PoolState>,
    len: usize,
    grain: usize,
    body: &(dyn Fn(usize, usize) + Sync),
) {
    if len == 0 {
        return;
    }
    let num_tasks = len.div_ceil(grain);
    pool.run_tasks(num_tasks, &|t| {
        let start = t * grain;
        let end = (start + grain).min(len);
        body(start, end);
    });
}

fn assume_init_vec<T>(v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: caller (this module) fully initialized all `len` slots, and
    // MaybeUninit<T> has the same layout as T.
    unsafe { Vec::from_raw_parts(ptr as *mut T, len, cap) }
}
