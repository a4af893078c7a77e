//! The dpp primitives on their own, at n = 2^20, on the workload's device and
//! on `Device::Serial`. All three renderers are built from these, so a
//! primitive change has to hold on all three `insitu_*` workloads.

use crate::stats::median;
use crate::trace::Tracer;
use dpp::Device;
use std::hint::black_box;

/// Repeats of each stand-alone layer measurement; the median is reported.
pub const REPEATS: usize = 5;

const N: usize = 1 << 20;

/// Median seconds of `REPEATS` runs of `f` inside spans called `name`.
pub fn repeat<R>(tr: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let seconds: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (out, s) = tr.span(name, &mut f);
            black_box(out);
            s
        })
        .collect();
    median(&seconds)
}

/// One pass over the seven primitives; returns their median seconds in the
/// order of `METRICS`.
fn primitives(tr: &Tracer, device: &Device) -> [f64; 7] {
    // A fixed odd multiplier makes `i -> i * K mod 2^20` a permutation.
    let perm: Vec<u32> =
        (0..N as u32).map(|i| i.wrapping_mul(0x9E37_79B1) & (N as u32 - 1)).collect();
    let data: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(2_654_435_761) >> 7).collect();
    let wide: Vec<u64> = data.iter().map(|&v| v as u64).collect();
    let flags: Vec<u32> = data.iter().map(|v| v & 1).collect();
    let mut out = vec![0u32; N];
    [
        repeat(tr, "dpp.map", || dpp::map(device, N, |i| data[i].rotate_left(5) ^ i as u32)),
        repeat(tr, "dpp.gather", || dpp::gather(device, &perm, &data)),
        repeat(tr, "dpp.scatter", || dpp::scatter(device, &data, &perm, &mut out)),
        repeat(tr, "dpp.reduce", || dpp::reduce(device, &wide, 0u64, |a, b| a.wrapping_add(b))),
        repeat(tr, "dpp.exclusive_scan", || dpp::exclusive_scan_u32(device, &flags)),
        repeat(tr, "dpp.compact", || dpp::compact_indices(device, N, |i| flags[i] == 1)),
        {
            // Sorting is in place: every repeat gets a fresh unsorted copy,
            // made outside its span.
            let seconds: Vec<f64> = (0..REPEATS)
                .map(|_| {
                    let mut keys: Vec<u64> =
                        wide.iter().map(|v| v.wrapping_mul(0xD6E8_FEB8_6659_FD93)).collect();
                    let mut values: Vec<u32> = (0..N as u32).collect();
                    tr.span("dpp.sort_pairs_u64", || {
                        dpp::sort::sort_pairs_u64(device, &mut keys, &mut values)
                    })
                    .1
                })
                .collect();
            median(&seconds)
        },
    ]
}

const METRICS: [&str; 7] = [
    "dpp.map_s",
    "dpp.gather_s",
    "dpp.scatter_s",
    "dpp.reduce_s",
    "dpp.exclusive_scan_s",
    "dpp.compact_s",
    "dpp.sort_pairs_u64_s",
];

pub fn dpp(tr: &Tracer, device: &Device) {
    let parallel = primitives(tr, device);
    let serial = primitives(tr, &Device::Serial);
    for (metric, seconds) in METRICS.into_iter().zip(parallel) {
        tr.value(metric, seconds);
    }
    // Serial over parallel, summed over the primitives; read it beside
    // `harness.threads` and `harness.cores`.
    let speedup = serial.iter().sum::<f64>() / parallel.iter().sum::<f64>().max(1e-12);
    tr.value("dpp.parallel_speedup", speedup);
    tr.value("dpp.par_min_len", dpp::par_min_len() as f64);
    tr.value("dpp.fold_grain", rayon::fold_grain() as f64);
    tr.value("dpp.overpartition", rayon::overpartition() as f64);
}
