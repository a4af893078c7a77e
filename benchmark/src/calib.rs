//! Host-speed calibration.
//!
//! The reference host is a small VM on a shared machine. Its speed wanders by
//! 10-40 % over tens of seconds to tens of minutes — for a single-threaded
//! loop with a fixed input as much as for a render — so wall seconds from two
//! runs an hour apart cannot be compared within any useful bound. A fixed
//! kernel, timed every 50 ms of a run, follows that wander closely (over a
//! 20-minute watch the structured-volume cycle's run-to-run spread fell from
//! 12 % to 2 % once divided by it). Every time this benchmark reports is
//! therefore in *reference-host seconds*: wall seconds scaled by
//! `REFERENCE_S / (the run's median kernel time)`, i.e. the seconds the same
//! work would take on a host that runs the kernel in exactly 1 ms.
//!
//! The kernel depends on nothing in the system under test, so no change to
//! the system can move it. The raw wall numbers and the scale are in every
//! result file.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds on the reference host, by definition.
pub const REFERENCE_S: f64 = 1e-3;

/// At most one kernel sample per this many seconds of a run (2 % of it).
const SAMPLE_EVERY_S: f64 = 0.05;

/// A fixed mix of integer, floating-point and cache-resident memory work on
/// the calling thread: close to 1 ms on the reference host at its fastest.
fn kernel() -> f64 {
    let t = Instant::now();
    let mut buf = vec![0u64; 8192];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 8191;
        buf[j] = buf[j].wrapping_add(x);
        acc = acc.mul_add(1.000_000_1, (buf[j] & 0xff) as f64);
    }
    black_box(acc.to_bits() ^ x);
    t.elapsed().as_secs_f64()
}

/// The kernel samples of one run.
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed { samples: vec![kernel()], last: Instant::now() }
    }

    /// Time the kernel once more if the last sample is old enough. Called
    /// between cycles and between set-ups, never inside a timed region.
    pub fn sample(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
            self.samples.push(kernel());
            self.last = Instant::now();
        }
    }

    /// Median kernel seconds over the run.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Wall seconds times this are reference-host seconds.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.kernel_s().max(1e-9)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// A value in `unit` brought to the reference host's speed: times are
/// scaled, rates divided, counts and ratios left alone.
pub fn to_reference(value: f64, unit: &str, scale: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => value * scale,
        "1/s" | "Mrays/s" => value / scale,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_rates_divide_counts_stay() {
        assert_eq!(to_reference(2.0, "s", 0.5), 1.0);
        assert_eq!(to_reference(2.0, "us", 0.5), 1.0);
        assert_eq!(to_reference(2.0, "1/s", 0.5), 4.0);
        assert_eq!(to_reference(2.0, "Mrays/s", 0.5), 4.0);
        assert_eq!(to_reference(2.0, "count", 0.5), 2.0);
        assert_eq!(to_reference(2.0, "ratio", 0.5), 2.0);
        assert_eq!(to_reference(2.0, "MiB", 0.5), 2.0);
    }

    #[test]
    fn a_host_at_reference_speed_has_scale_one() {
        let speed = HostSpeed { samples: vec![REFERENCE_S; 5], last: Instant::now() };
        assert!((speed.scale() - 1.0).abs() < 1e-12);
        let slow = HostSpeed { samples: vec![2.0 * REFERENCE_S; 5], last: Instant::now() };
        assert!((slow.scale() - 0.5).abs() < 1e-12);
        let mut live = HostSpeed::new();
        live.sample();
        assert!(live.kernel_s() > 0.0 && live.samples() >= 1);
    }
}
