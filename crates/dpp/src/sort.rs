//! Radix sort for (key, index) pairs — used to order primitives by Morton
//! code during LBVH construction and to depth-sort tetrahedra in the
//! HAVS-style baseline. LSD radix with 8-bit digits; the parallel path builds
//! per-chunk histograms and scatters into globally scanned offsets, which
//! keeps it stable.

use crate::device::Device;
use rayon::prelude::*;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Sort `keys` (with parallel payload `values`) ascending by key, stable.
/// Panics if lengths differ.
pub fn sort_pairs_u64(device: &Device, keys: &mut Vec<u64>, values: &mut Vec<u32>) {
    assert_eq!(keys.len(), values.len());
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let max_key = keys.iter().copied().max().unwrap_or(0);
    let passes = if max_key == 0 { 1 } else { (64 - max_key.leading_zeros()).div_ceil(RADIX_BITS) };

    let mut src_k = std::mem::take(keys);
    let mut src_v = std::mem::take(values);
    let mut dst_k = vec![0u64; n];
    let mut dst_v = vec![0u32; n];

    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        match device {
            Device::Serial => {
                radix_pass_serial(&src_k, &src_v, &mut dst_k, &mut dst_v, shift);
            }
            _ if n < 1 << 14 => {
                radix_pass_serial(&src_k, &src_v, &mut dst_k, &mut dst_v, shift);
            }
            Device::Parallel(_) => {
                device
                    .install(|| radix_pass_parallel(&src_k, &src_v, &mut dst_k, &mut dst_v, shift));
            }
        }
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_v, &mut dst_v);
    }
    *keys = src_k;
    *values = src_v;
}

fn radix_pass_serial(
    src_k: &[u64],
    src_v: &[u32],
    dst_k: &mut [u64],
    dst_v: &mut [u32],
    shift: u32,
) {
    let mut hist = [0usize; BUCKETS];
    for &k in src_k {
        hist[((k >> shift) as usize) & (BUCKETS - 1)] += 1;
    }
    let mut offsets = [0usize; BUCKETS];
    let mut acc = 0;
    for (o, h) in offsets.iter_mut().zip(hist.iter()) {
        *o = acc;
        acc += h;
    }
    for (&k, &v) in src_k.iter().zip(src_v.iter()) {
        let b = ((k >> shift) as usize) & (BUCKETS - 1);
        dst_k[offsets[b]] = k;
        dst_v[offsets[b]] = v;
        offsets[b] += 1;
    }
}

fn radix_pass_parallel(
    src_k: &[u64],
    src_v: &[u32],
    dst_k: &mut [u64],
    dst_v: &mut [u32],
    shift: u32,
) {
    let n = src_k.len();
    let threads = rayon::current_num_threads().max(1);
    // Floor the chunk size: a pass is bandwidth-bound, so tiny chunks only
    // add claim overhead. Bucket-major offsets keep the pass stable (and the
    // output identical) for any chunking.
    let chunk = n.div_ceil(threads).max(1 << 12);
    let nchunks = n.div_ceil(chunk);

    // Per-chunk histograms.
    let hists: Vec<[usize; BUCKETS]> = src_k
        .par_chunks(chunk)
        .map(|c| {
            let mut h = [0usize; BUCKETS];
            for &k in c {
                h[((k >> shift) as usize) & (BUCKETS - 1)] += 1;
            }
            h
        })
        .collect();

    // Global bucket-major offsets: all chunk-0 entries of bucket b precede
    // chunk-1 entries of bucket b, preserving stability.
    let mut offsets = vec![[0usize; BUCKETS]; nchunks];
    let mut acc = 0usize;
    for b in 0..BUCKETS {
        for c in 0..nchunks {
            offsets[c][b] = acc;
            acc += hists[c][b];
        }
    }

    struct Ptr<T>(*mut T);
    // SAFETY: Ptr is only shared across the scatter below, where every
    // (chunk, bucket) pair writes a disjoint offset range of the output;
    // no two threads ever touch the same slot.
    unsafe impl<T> Send for Ptr<T> {}
    // SAFETY: as for `Send` above: disjoint writes only.
    unsafe impl<T> Sync for Ptr<T> {}
    let pk = Ptr(dst_k.as_mut_ptr());
    let pv = Ptr(dst_v.as_mut_ptr());
    let pk = &pk;
    let pv = &pv;

    src_k.par_chunks(chunk).zip(src_v.par_chunks(chunk)).zip(offsets.into_par_iter()).for_each(
        move |((ck, cv), mut off)| {
            for (&k, &v) in ck.iter().zip(cv.iter()) {
                let b = ((k >> shift) as usize) & (BUCKETS - 1);
                // SAFETY: bucket-major offsets give every (chunk, bucket)
                // pair a disjoint output range of exactly hist[c][b] slots.
                unsafe {
                    *pk.0.add(off[b]) = k;
                    *pv.0.add(off[b]) = v;
                }
                off[b] += 1;
            }
        },
    );
}

/// Sort f32 keys (must be finite and non-negative, as depth values are) with
/// payload, by mapping to order-preserving u32 bit patterns.
pub fn sort_pairs_f32_nonneg(device: &Device, keys: &[f32], values: &mut Vec<u32>) {
    debug_assert!(keys.iter().all(|k| k.is_finite() && *k >= 0.0));
    let mut bits: Vec<u64> = keys.iter().map(|&k| k.to_bits() as u64).collect();
    sort_pairs_u64(device, &mut bits, values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn devices() -> Vec<Device> {
        vec![Device::Serial, Device::parallel(), Device::parallel_with_threads(3)]
    }

    #[test]
    fn sorts_random_u64() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for d in devices() {
            let n = 50_000;
            let mut keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 16).collect();
            let mut vals: Vec<u32> = (0..n as u32).collect();
            let mut expect: Vec<(u64, u32)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            expect.sort_by_key(|p| p.0);
            sort_pairs_u64(&d, &mut keys, &mut vals);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            for (i, (k, v)) in keys.iter().zip(vals.iter()).enumerate() {
                assert_eq!((*k, *v), expect[i], "mismatch at {i} on {:?}", d);
            }
        }
    }

    #[test]
    fn stable_for_equal_keys() {
        for d in devices() {
            let mut keys = vec![5u64; 10_000];
            let mut vals: Vec<u32> = (0..10_000).collect();
            sort_pairs_u64(&d, &mut keys, &mut vals);
            // Stability: payload order preserved.
            assert!(vals.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_and_single() {
        let d = Device::Serial;
        let mut k: Vec<u64> = vec![];
        let mut v: Vec<u32> = vec![];
        sort_pairs_u64(&d, &mut k, &mut v);
        assert!(k.is_empty());
        let mut k = vec![9u64];
        let mut v = vec![1u32];
        sort_pairs_u64(&d, &mut k, &mut v);
        assert_eq!(k, vec![9]);
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn f32_depth_sort() {
        let d = Device::parallel();
        let keys = vec![3.5f32, 0.25, 10.0, 0.0, 1.0];
        let mut vals: Vec<u32> = (0..5).collect();
        sort_pairs_f32_nonneg(&d, &keys, &mut vals);
        assert_eq!(vals, vec![3, 1, 4, 0, 2]);
    }
}
