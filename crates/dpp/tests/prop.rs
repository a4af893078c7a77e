//! Property tests: every parallel primitive agrees with a serial oracle.
//! This is the load-bearing guarantee behind the dissertation's methodology —
//! one algorithm, many devices, identical results.

use dpp::device::Device;
use dpp::sort::{sort_pairs_f32_nonneg, sort_pairs_u64};
use dpp::*;
use proptest::prelude::*;

fn both_devices() -> Vec<Device> {
    vec![Device::parallel(), Device::parallel_with_threads(3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_equals_serial(data in proptest::collection::vec(any::<u32>(), 0..6000)) {
        let n = data.len();
        let serial: Vec<u64> = map(&Device::Serial, n, |i| data[i] as u64 * 3 + 1);
        for d in both_devices() {
            let par: Vec<u64> = map(&d, n, |i| data[i] as u64 * 3 + 1);
            prop_assert_eq!(&par, &serial);
        }
    }

    #[test]
    fn exclusive_scan_law(data in proptest::collection::vec(0u32..1000, 0..9000)) {
        for d in both_devices() {
            let (scan, total) = exclusive_scan_u32(&d, &data);
            let expect: u32 = data.iter().sum();
            prop_assert_eq!(total, expect);
            // scan[i] + data[i] == scan[i+1]
            for i in 0..data.len().saturating_sub(1) {
                prop_assert_eq!(scan[i] + data[i], scan[i + 1]);
            }
            if !data.is_empty() {
                prop_assert_eq!(scan[0], 0);
            }
        }
    }

    #[test]
    fn reduce_is_order_insensitive_for_assoc_commutative_op(
        data in proptest::collection::vec(any::<i32>(), 0..9000)
    ) {
        // max is associative + commutative, so every device must agree exactly.
        let expect = data.iter().copied().fold(i32::MIN, i32::max);
        for d in both_devices() {
            prop_assert_eq!(reduce(&d, &data, i32::MIN, i32::max), expect);
        }
    }

    #[test]
    fn compact_equals_filter(data in proptest::collection::vec(any::<u32>(), 0..9000)) {
        let n = data.len();
        let expect: Vec<u32> = (0..n).filter(|&i| data[i] % 2 == 0).map(|i| i as u32).collect();
        for d in both_devices() {
            let got = compact_indices(&d, n, |i| data[i] % 2 == 0);
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn gather_then_scatter_identity(n in 1usize..4000) {
        // Any permutation: scatter(gather(x, p), p) == x.
        let perm: Vec<u32> = {
            // A fixed pseudo-permutation built from the size.
            let mut v: Vec<u32> = (0..n as u32).collect();
            let stride = (n / 2).max(1);
            v.rotate_left(stride % n);
            v
        };
        let src: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
        for d in both_devices() {
            let g = gather(&d, &perm, &src);
            let mut out = vec![0u32; n];
            scatter(&d, &g, &perm, &mut out);
            prop_assert_eq!(&out, &src);
        }
    }

    #[test]
    fn radix_sort_matches_std_sort(
        pairs in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..6000)
    ) {
        let mut expect = pairs.clone();
        expect.sort_by_key(|p| p.0);
        for d in both_devices() {
            let mut keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let mut vals: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            sort_pairs_u64(&d, &mut keys, &mut vals);
            let got: Vec<(u64, u32)> = keys.into_iter().zip(vals).collect();
            // Keys must match exactly; values may differ only among equal keys,
            // but our sort is stable so both must match a stable std sort.
            let mut stable = pairs.clone();
            stable.sort_by_key(|p| p.0);
            prop_assert_eq!(got, stable);
        }
    }

    #[test]
    fn f32_sort_orders_depths(depths in proptest::collection::vec(0.0f32..1e6, 1..3000)) {
        for d in both_devices() {
            let mut idx: Vec<u32> = (0..depths.len() as u32).collect();
            sort_pairs_f32_nonneg(&d, &depths, &mut idx);
            for w in idx.windows(2) {
                prop_assert!(depths[w[0] as usize] <= depths[w[1] as usize]);
            }
        }
    }

    #[test]
    fn count_if_equals_filter_count(data in proptest::collection::vec(any::<u8>(), 0..9000)) {
        let expect = data.iter().filter(|&&v| v > 128).count();
        for d in both_devices() {
            prop_assert_eq!(count_if(&d, data.len(), |i| data[i] > 128), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-for-byte agreement between the serial device and a fixed
    /// 4-thread pool across the primitive set, with input sizes straddling
    /// the fork threshold. This is the strong form of the device-equivalence
    /// guarantee: not "close", identical bits.
    #[test]
    fn primitives_bit_exact_serial_vs_four_threads(
        data in proptest::collection::vec(any::<u32>(), 0..20_000)
    ) {
        let d4 = Device::parallel_with_threads(4);
        let n = data.len();

        let m_s: Vec<u64> = map(&Device::Serial, n, |i| data[i] as u64 * 3 + 1);
        let m_p: Vec<u64> = map(&d4, n, |i| data[i] as u64 * 3 + 1);
        prop_assert_eq!(m_s, m_p);

        let small: Vec<u32> = data.iter().map(|&v| v % 1000).collect();
        prop_assert_eq!(
            exclusive_scan_u32(&Device::Serial, &small),
            exclusive_scan_u32(&d4, &small)
        );
        prop_assert_eq!(
            inclusive_scan_u32(&Device::Serial, &small),
            inclusive_scan_u32(&d4, &small)
        );

        let heads: Vec<u32> = (0..n).map(|i| (i % 321 == 0) as u32).collect();
        prop_assert_eq!(
            segmented_exclusive_scan_u32(&Device::Serial, &small, &heads),
            segmented_exclusive_scan_u32(&d4, &small, &heads)
        );

        let wide: Vec<u64> = data.iter().map(|&v| v as u64).collect();
        prop_assert_eq!(
            reduce(&Device::Serial, &wide, 0u64, |a, b| a.wrapping_add(b)),
            reduce(&d4, &wide, 0u64, |a, b| a.wrapping_add(b))
        );
        prop_assert_eq!(
            map_reduce(&Device::Serial, n, |i| data[i] as u64, u64::MAX, u64::min),
            map_reduce(&d4, n, |i| data[i] as u64, u64::MAX, u64::min)
        );

        prop_assert_eq!(
            compact_indices(&Device::Serial, n, |i| data[i] % 7 == 0),
            compact_indices(&d4, n, |i| data[i] % 7 == 0)
        );
        prop_assert_eq!(
            count_if(&Device::Serial, n, |i| data[i] % 2 == 0),
            count_if(&d4, n, |i| data[i] % 2 == 0)
        );

        // f32 min/max: compare the exact bit patterns of the results.
        // (-0.0 is normalized away: min(-0.0, 0.0) may return either zero
        // depending on fold association, which is an IEEE quirk rather than
        // a device divergence.)
        let floats: Vec<f32> =
            data.iter().map(|&v| f32::from_bits(v)).map(|f| if f == 0.0 { 0.0 } else { f }).collect();
        let bits = |o: Option<(f32, f32)>| o.map(|(a, b)| (a.to_bits(), b.to_bits()));
        prop_assert_eq!(
            bits(minmax_f32(&Device::Serial, &floats)),
            bits(minmax_f32(&d4, &floats))
        );
    }

    /// The radix sort produces identical key *and* payload bytes on the
    /// serial device and a 4-thread pool (stability makes payload order
    /// deterministic even among equal keys).
    #[test]
    fn sort_bit_exact_serial_vs_four_threads(
        pairs in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..20_000)
    ) {
        let d4 = Device::parallel_with_threads(4);
        let mut ks: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let mut vs: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        sort_pairs_u64(&Device::Serial, &mut ks, &mut vs);
        let mut kp: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let mut vp: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        sort_pairs_u64(&d4, &mut kp, &mut vp);
        prop_assert_eq!(ks, kp);
        prop_assert_eq!(vs, vp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmented scan equals an independently computed per-segment exclusive
    /// scan on every device.
    #[test]
    fn segmented_scan_matches_per_segment_oracle(
        data in proptest::collection::vec(0u32..500, 1..9000),
        head_stride in 1usize..200
    ) {
        let n = data.len();
        let heads: Vec<u32> = (0..n).map(|i| (i % head_stride == 0) as u32).collect();
        // Oracle: split into segments and scan each.
        let mut expect = vec![0u32; n];
        let mut acc = 0u32;
        for i in 0..n {
            if heads[i] != 0 {
                acc = 0;
            }
            expect[i] = acc;
            acc += data[i];
        }
        for d in both_devices() {
            let got = segmented_exclusive_scan_u32(&d, &data, &heads);
            prop_assert_eq!(&got, &expect);
        }
        let serial = segmented_exclusive_scan_u32(&Device::Serial, &data, &heads);
        prop_assert_eq!(&serial, &expect);
    }
}

/// Item `i` of a `tasks` call: `(i, a hash)` after `costs[i]` dependent
/// multiply-adds, so items finish out of index order on a pool.
fn uneven_item(costs: &[u32], i: usize) -> (usize, u64) {
    let mut h = i as u64;
    for _ in 0..costs[i] {
        h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    }
    (i, h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `tasks` on a pool of 1, 2, 4 or 8 workers returns the serial loop's
    /// results, in index order, however uneven the items.
    #[test]
    fn tasks_equal_the_serial_loop(costs in proptest::collection::vec(0u32..20_000, 0..64)) {
        let n = costs.len();
        let serial = tasks(&Device::Serial, n, |i| uneven_item(&costs, i));
        prop_assert!(serial.iter().enumerate().all(|(i, r)| r.0 == i));
        for threads in [1, 2, 4, 8] {
            let d = Device::parallel_with_threads(threads);
            prop_assert_eq!(&tasks(&d, n, |i| uneven_item(&costs, i)), &serial);
        }
    }
}

/// A panic in one task is re-thrown on the caller, and the pool still works
/// afterwards (the `Device` contract).
#[test]
fn a_panicking_task_rethrows_on_the_caller() {
    for threads in [1, 2, 4, 8] {
        let d = Device::parallel_with_threads(threads);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tasks(&d, 25, |i| {
                if i == 17 {
                    panic!("tile {i} failed");
                }
                i
            })
        }));
        let payload = r.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("tile 17 failed"), "{threads} workers: payload {msg:?}");
        assert_eq!(tasks(&d, 3, |i| i * 2), vec![0, 2, 4]);
    }
}
