//! The primitive set: map, tasks, gather, scatter, reduce, scan,
//! reverse-index, and stream compaction — each dispatching on [`Device`].
//!
//! Semantics follow Blelloch's vector model as summarized in Chapter 2.3 of
//! the dissertation. Every parallel path is observationally identical to the
//! serial path (property-tested in `tests/`), which is what lets one renderer
//! implementation be studied on several devices.

use crate::device::Device;
use rayon::prelude::*;

/// Minimum work size before the parallel back-end actually forks; below this
/// the scheduling overhead dominates (mirrors EAVL's grain-size heuristics).
const PAR_GRAIN: usize = 4096;

/// Once a primitive does fork, the smallest number of elements a single task
/// may receive (passed to `Par::with_min_len`, and used as the floor for the
/// explicit chunk sizes in scan/segscan). Keeps per-task claim overhead
/// amortized on large inputs without affecting results: every chunked
/// primitive here is exact over any partition, so re-tuning it for a host is
/// an edit here plus a ledger pair (EXPERIMENTS.md).
pub const fn par_min_len() -> usize {
    1024
}

/// `map`: produce `out[i] = f(i)` for `i in 0..n`.
///
/// The index-functor form subsumes EAVL's multi-input maps: the closure
/// captures however many input arrays it needs.
pub fn map<T, F>(device: &Device, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    match device {
        Device::Serial => (0..n).map(f).collect(),
        _ if n < PAR_GRAIN => (0..n).map(f).collect(),
        _ => device.install(|| (0..n).into_par_iter().with_min_len(par_min_len()).map(f).collect()),
    }
}

/// `tasks`: `out[i] = f(i)` for `i in 0..n`, one task per index.
///
/// For a few coarse items — tiles, columns, ranks — each costing far more
/// than a fork. [`map`] stays serial below `PAR_GRAIN` items and hands each
/// worker runs of items, so 25 tiles would run on one core; `tasks` forks at
/// any `n > 1` with grain 1, so a heavy item never holds light ones behind
/// it. Results come back in index order, as from the serial loop.
pub fn tasks<T, F>(device: &Device, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    match device {
        Device::Serial => (0..n).map(f).collect(),
        _ if n < 2 => (0..n).map(f).collect(),
        _ => device.install(|| (0..n).into_par_iter().with_max_len(1).map(f).collect()),
    }
}

/// Side-effect-only map over `0..n`. The functor must only write through
/// disjoint or atomic locations — the rasterizer's tile binning (an atomic
/// histogram, then a `fetch_add` cursor fill) is its one library user.
pub fn for_each<F>(device: &Device, n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    match device {
        Device::Serial => (0..n).for_each(f),
        _ if n < PAR_GRAIN => (0..n).for_each(f),
        _ => device.install(|| (0..n).into_par_iter().with_min_len(par_min_len()).for_each(f)),
    }
}

/// `gather`: `out[i] = src[indices[i]]`. Output length equals `indices` length.
pub fn gather<T: Copy + Send + Sync>(device: &Device, indices: &[u32], src: &[T]) -> Vec<T> {
    map(device, indices.len(), |i| src[indices[i] as usize])
}

/// `scatter`: `out[indices[i]] = values[i]`. Indices must be unique (the
/// caller's obligation, as in EAVL — scatter with duplicate indices is a data
/// race there and a last-writer-wins race here on the serial device; we make
/// it deterministic by running scatter serially on all devices unless the
/// parallel-safe variant is applicable).
pub fn scatter<T: Copy + Send + Sync>(
    device: &Device,
    values: &[T],
    indices: &[u32],
    out: &mut [T],
) {
    assert_eq!(values.len(), indices.len());
    // Scatter writes are disjoint only if indices are unique; we cannot prove
    // it cheaply, so chunk the *reads* in parallel and funnel writes through
    // raw pointers only when unique indices are guaranteed by construction.
    // The common renderer uses (compaction, expansion) have unique indices,
    // so provide a fast path behind a debug assertion.
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; out.len()];
        for &ix in indices {
            assert!((ix as usize) < out.len(), "scatter index {ix} out of range");
            assert!(
                !std::mem::replace(&mut seen[ix as usize], true),
                "scatter index {ix} duplicated"
            );
        }
    }
    let _ = device;
    for (v, &ix) in values.iter().zip(indices.iter()) {
        out[ix as usize] = *v;
    }
}

/// `reduce`: fold all elements with an associative operator `op` starting
/// from `identity`.
pub fn reduce<T, F>(device: &Device, data: &[T], identity: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync + Send,
{
    match device {
        Device::Serial => data.iter().fold(identity, |a, &b| op(a, b)),
        _ if data.len() < PAR_GRAIN => data.iter().fold(identity, |a, &b| op(a, b)),
        _ => device.install(|| {
            data.par_iter()
                .with_min_len(par_min_len())
                .fold(|| identity, |a, &b| op(a, b))
                .reduce(|| identity, &op)
        }),
    }
}

/// Fused map+reduce over `0..n` (avoids materializing the mapped array).
pub fn map_reduce<T, M, F>(device: &Device, n: usize, mapf: M, identity: T, op: F) -> T
where
    T: Copy + Send + Sync,
    M: Fn(usize) -> T + Sync + Send,
    F: Fn(T, T) -> T + Sync + Send,
{
    match device {
        Device::Serial => (0..n).map(mapf).fold(identity, &op),
        _ if n < PAR_GRAIN => (0..n).map(mapf).fold(identity, &op),
        _ => device.install(|| {
            (0..n)
                .into_par_iter()
                .with_min_len(par_min_len())
                .fold(|| identity, |a, i| op(a, mapf(i)))
                .reduce(|| identity, &op)
        }),
    }
}

/// Exclusive scan (prefix sum) of `u32` values. `out[0] = 0`,
/// `out[i] = sum(data[0..i])`. Returns the pair `(scan, total)`.
///
/// # Panics
/// If the values sum past `u32::MAX`.
pub fn exclusive_scan_u32(device: &Device, data: &[u32]) -> (Vec<u32>, u32) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    match device {
        Device::Serial => serial_exscan(data),
        _ if n < PAR_GRAIN => serial_exscan(data),
        Device::Parallel(_) => device.install(|| {
            // Two-level scan: per-chunk sums, scan the sums, then rescan
            // each chunk with its offset.
            let threads = rayon::current_num_threads().max(1);
            let chunk = n.div_ceil(threads).max(par_min_len());
            let sums: Vec<u64> =
                data.par_chunks(chunk).map(|c| c.iter().map(|&v| v as u64).sum()).collect();
            let mut offsets = Vec::with_capacity(sums.len());
            let mut acc = 0u64;
            for s in &sums {
                offsets.push(acc);
                acc += s;
            }
            let total = acc;
            assert!(total <= u32::MAX as u64, "scan overflow");
            let mut out = vec![0u32; n];
            out.par_chunks_mut(chunk).zip(data.par_chunks(chunk)).zip(offsets.par_iter()).for_each(
                |((oc, dc), &off)| {
                    let mut acc = off as u32;
                    for (o, &d) in oc.iter_mut().zip(dc.iter()) {
                        *o = acc;
                        acc += d;
                    }
                },
            );
            (out, total as u32)
        }),
    }
}

#[expect(clippy::expect_used, reason = "callers scan counts whose sum fits a u32")]
fn serial_exscan(data: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::with_capacity(data.len());
    let mut acc = 0u32;
    for &v in data {
        out.push(acc);
        acc = acc.checked_add(v).expect("scan overflow");
    }
    (out, acc)
}

/// Inclusive scan of `u32` values.
pub fn inclusive_scan_u32(device: &Device, data: &[u32]) -> Vec<u32> {
    let (mut ex, _) = exclusive_scan_u32(device, data);
    for (o, &d) in ex.iter_mut().zip(data.iter()) {
        *o += d;
    }
    ex
}

/// `reverse index`: given flags and their exclusive scan, produce for each
/// kept element its source index — the primitive EAVL uses to drive the
/// gather step of stream compaction (Algorithm 1, line 21).
pub fn reverse_index(device: &Device, flags: &[u32], exscan: &[u32], count: u32) -> Vec<u32> {
    assert_eq!(flags.len(), exscan.len());
    let mut out = vec![0u32; count as usize];
    // Writes are unique by construction (each kept flag owns one slot), so a
    // parallel scatter is safe; express it through chunked writes.
    match device {
        Device::Serial => {
            for (i, (&f, &s)) in flags.iter().zip(exscan.iter()).enumerate() {
                if f != 0 {
                    out[s as usize] = i as u32;
                }
            }
        }
        _ => {
            // Each output slot's source index can be found independently, but
            // that is O(n log n); the serial pass is O(n) and bandwidth-bound,
            // so parallelize by chunking flags and writing into the disjoint
            // out ranges [exscan[chunk_start], exscan[chunk_end]).
            let n = flags.len();
            if n < PAR_GRAIN {
                for (i, (&f, &s)) in flags.iter().zip(exscan.iter()).enumerate() {
                    if f != 0 {
                        out[s as usize] = i as u32;
                    }
                }
            } else {
                device.install(|| {
                    let threads = rayon::current_num_threads().max(1);
                    let chunk = n.div_ceil(threads).max(par_min_len());
                    let out_ptr = SendPtr(out.as_mut_ptr());
                    (0..n.div_ceil(chunk)).into_par_iter().for_each(|c| {
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        let p = out_ptr;
                        for i in start..end {
                            if flags[i] != 0 {
                                // SAFETY: each kept element has a unique slot
                                // exscan[i] in 0..count; chunks never collide.
                                unsafe { *p.0.add(exscan[i] as usize) = i as u32 };
                            }
                        }
                    });
                });
            }
        }
    }
    out
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: SendPtr is used only by the scatter in `reverse_index`, where the
// exclusive scan gives every kept element a unique output slot; concurrent
// writers never alias.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` above: unique slots only.
unsafe impl<T> Sync for SendPtr<T> {}

/// Stream compaction: return the indices `i` where `keep(i)` is true,
/// preserving order. Built from map + scan + reverse-index, exactly as the
/// dissertation's `compactArrays` (Algorithm 1).
pub fn compact_indices<F>(device: &Device, n: usize, keep: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync + Send,
{
    let flags: Vec<u32> = map(device, n, |i| keep(i) as u32);
    let (exscan, count) = exclusive_scan_u32(device, &flags);
    reverse_index(device, &flags, &exscan, count)
}

/// Count elements satisfying a predicate (map + reduce fusion).
pub fn count_if<F>(device: &Device, n: usize, pred: F) -> usize
where
    F: Fn(usize) -> bool + Sync + Send,
{
    map_reduce(device, n, |i| pred(i) as u64, 0u64, |a, b| a + b) as usize
}

/// Minimum and maximum of an `f32` slice (NaNs ignored); `None` when empty
/// or all NaN.
pub fn minmax_f32(device: &Device, data: &[f32]) -> Option<(f32, f32)> {
    if data.is_empty() {
        return None;
    }
    let (lo, hi) = reduce(
        device,
        // Work over indices to keep data by-ref.
        &map(device, data.len(), |i| {
            let v = data[i];
            if v.is_nan() {
                (f32::INFINITY, f32::NEG_INFINITY)
            } else {
                (v, v)
            }
        }),
        (f32::INFINITY, f32::NEG_INFINITY),
        |a, b| (a.0.min(b.0), a.1.max(b.1)),
    );
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> Vec<Device> {
        vec![Device::Serial, Device::parallel(), Device::parallel_with_threads(2)]
    }

    #[test]
    fn map_matches_serial_on_all_devices() {
        for d in devices() {
            let out = map(&d, 10_000, |i| i * i);
            assert_eq!(out.len(), 10_000);
            assert_eq!(out[77], 77 * 77);
            assert_eq!(out[9_999], 9_999 * 9_999);
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        for d in devices() {
            let src: Vec<u32> = (0..1000).map(|i| i * 3).collect();
            let idx: Vec<u32> = (0..1000).rev().collect();
            let g = gather(&d, &idx, &src);
            assert_eq!(g[0], 999 * 3);
            let mut out = vec![0u32; 1000];
            scatter(&d, &g, &idx, &mut out);
            assert_eq!(out, src);
        }
    }

    #[test]
    fn reduce_sums() {
        for d in devices() {
            let data: Vec<u64> = (1..=100_000).collect();
            let s = reduce(&d, &data, 0u64, |a, b| a + b);
            assert_eq!(s, 100_000 * 100_001 / 2);
        }
    }

    #[test]
    fn map_reduce_max() {
        for d in devices() {
            let m = map_reduce(&d, 50_000, |i| (i as i64 - 25_000).abs(), 0, i64::max);
            assert_eq!(m, 25_000);
        }
    }

    #[test]
    fn scans_match_reference() {
        for d in devices() {
            let data: Vec<u32> = (0..30_000).map(|i| (i % 7) as u32).collect();
            let (ex, total) = exclusive_scan_u32(&d, &data);
            assert_eq!(ex[0], 0);
            let expect_total: u32 = data.iter().sum();
            assert_eq!(total, expect_total);
            let mut acc = 0;
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(ex[i], acc, "at {i}");
                acc += v;
            }
            let inc = inclusive_scan_u32(&d, &data);
            assert_eq!(*inc.last().unwrap(), expect_total);
        }
    }

    #[test]
    fn empty_scan() {
        let (ex, total) = exclusive_scan_u32(&Device::Serial, &[]);
        assert!(ex.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn compaction_keeps_order() {
        for d in devices() {
            let idx = compact_indices(&d, 20_000, |i| i % 3 == 0);
            assert_eq!(idx.len(), 20_000 / 3 + 1);
            assert_eq!(idx[0], 0);
            assert_eq!(idx[1], 3);
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn count_if_counts() {
        for d in devices() {
            assert_eq!(count_if(&d, 10_000, |i| i % 2 == 0), 5_000);
        }
    }

    #[test]
    fn minmax_handles_nan_and_empty() {
        let d = Device::Serial;
        assert_eq!(minmax_f32(&d, &[]), None);
        assert_eq!(minmax_f32(&d, &[f32::NAN]), None);
        let (lo, hi) = minmax_f32(&d, &[3.0, f32::NAN, -1.0, 7.0]).unwrap();
        assert_eq!((lo, hi), (-1.0, 7.0));
    }

    #[test]
    fn for_each_visits_every_index() {
        for d in devices() {
            let counter = std::sync::atomic::AtomicUsize::new(0);
            for_each(&d, 9000, |_| {
                // ORDERING: Relaxed — commutative test counter, read after
                // the region joins.
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            // ORDERING: Relaxed — for_each joined above.
            assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 9000);
        }
    }
}

/// Segmented exclusive scan: an exclusive prefix sum restarted at every
/// segment head. Section 2.3 singles this variant out ("performs the scan
/// within only partitioned sections of the array, and is useful to implement
/// steps of complex algorithms like parallel quicksort").
///
/// `heads[i] != 0` marks element `i` as the first of a segment; element 0 is
/// always treated as a head.
pub fn segmented_exclusive_scan_u32(device: &Device, data: &[u32], heads: &[u32]) -> Vec<u32> {
    assert_eq!(data.len(), heads.len());
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    match device {
        Device::Serial => serial_segscan(data, heads),
        _ if n < PAR_GRAIN => serial_segscan(data, heads),
        Device::Parallel(_) => device.install(|| {
            // Two-level: each chunk scans locally (tracking whether it saw a
            // head); chunks whose prefix contains no head inherit a carry
            // from the previous chunks' trailing open segment.
            let threads = rayon::current_num_threads().max(1);
            let chunk = n.div_ceil(threads).max(par_min_len());
            struct ChunkInfo {
                /// Sum of the trailing open segment (after the last head).
                tail_sum: u64,
                /// True if the chunk contains any head.
                has_head: bool,
            }
            let infos: Vec<ChunkInfo> = data
                .par_chunks(chunk)
                .zip(heads.par_chunks(chunk))
                .map(|(dc, hc)| {
                    let mut tail_sum = 0u64;
                    let mut has_head = false;
                    for (d, h) in dc.iter().zip(hc.iter()) {
                        if *h != 0 {
                            has_head = true;
                            tail_sum = 0;
                        }
                        tail_sum += *d as u64;
                    }
                    ChunkInfo { tail_sum, has_head }
                })
                .collect();
            // Carry into each chunk: sum of open-tail contributions since
            // the last chunk containing a head.
            let mut carries = Vec::with_capacity(infos.len());
            let mut carry = 0u64;
            for info in &infos {
                carries.push(carry);
                if info.has_head {
                    carry = info.tail_sum;
                } else {
                    carry += info.tail_sum;
                }
            }
            let mut out = vec![0u32; n];
            out.par_chunks_mut(chunk)
                .zip(data.par_chunks(chunk))
                .zip(heads.par_chunks(chunk))
                .zip(carries.par_iter())
                .for_each(|(((oc, dc), hc), &c0)| {
                    let mut acc = c0;
                    for ((o, &d), &h) in oc.iter_mut().zip(dc.iter()).zip(hc.iter()) {
                        if h != 0 {
                            acc = 0;
                        }
                        *o = acc as u32;
                        acc += d as u64;
                    }
                });
            out
        }),
    }
}

fn serial_segscan(data: &[u32], heads: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(data.len());
    let mut acc = 0u64;
    for (i, (&d, &h)) in data.iter().zip(heads.iter()).enumerate() {
        if i == 0 || h != 0 {
            acc = 0;
        }
        out.push(acc as u32);
        acc += d as u64;
    }
    out
}

#[cfg(test)]
mod segscan_tests {
    use super::*;

    #[test]
    fn restarts_at_heads() {
        let d = Device::Serial;
        let data = [1u32, 2, 3, 4, 5, 6];
        let heads = [1u32, 0, 0, 1, 0, 0];
        let out = segmented_exclusive_scan_u32(&d, &data, &heads);
        assert_eq!(out, vec![0, 1, 3, 0, 4, 9]);
    }

    #[test]
    fn no_heads_equals_plain_exclusive_scan() {
        let d = Device::Serial;
        let data: Vec<u32> = (0..100).map(|i| i % 5).collect();
        let heads = vec![0u32; 100];
        let seg = segmented_exclusive_scan_u32(&d, &data, &heads);
        let (plain, _) = exclusive_scan_u32(&d, &data);
        assert_eq!(seg, plain);
    }

    #[test]
    fn parallel_matches_serial() {
        let par = Device::parallel_with_threads(3);
        let n = 50_000usize;
        let data: Vec<u32> = (0..n).map(|i| (i * 7 % 13) as u32).collect();
        let heads: Vec<u32> = (0..n).map(|i| (i % 97 == 0) as u32).collect();
        let a = segmented_exclusive_scan_u32(&Device::Serial, &data, &heads);
        let b = segmented_exclusive_scan_u32(&par, &data, &heads);
        assert_eq!(a, b);
        // Sparse heads: long open segments crossing many chunks.
        let heads2: Vec<u32> = (0..n).map(|i| (i == 17 || i == 40_000) as u32).collect();
        let a2 = segmented_exclusive_scan_u32(&Device::Serial, &data, &heads2);
        let b2 = segmented_exclusive_scan_u32(&par, &data, &heads2);
        assert_eq!(a2, b2);
        // No heads at all.
        let zero = vec![0u32; n];
        assert_eq!(
            segmented_exclusive_scan_u32(&Device::Serial, &data, &zero),
            segmented_exclusive_scan_u32(&par, &data, &zero)
        );
    }

    #[test]
    fn empty_input() {
        let d = Device::Serial;
        assert!(segmented_exclusive_scan_u32(&d, &[], &[]).is_empty());
    }
}
