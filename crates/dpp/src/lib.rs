//! Data-parallel primitives: the EAVL / VTK-m stand-in.
//!
//! The dissertation's renderers are composed *entirely* of a small set of
//! data-parallel primitives — map, gather, scatter, reduce, scan, and
//! reverse-index — combined with user-defined functors (Chapter 2.3). A single
//! algorithm expressed this way runs on any architecture for which the
//! primitive set has a back-end. This crate provides that primitive set, plus
//! [`tasks`] — a `map` with one task per index, for a handful of coarse items
//! such as screen tiles, where `map` would not fork below its grain of 4 096
//! items — with two back-ends behind one [`Device`] handle:
//!
//! * [`Device::Serial`] — single-threaded loops. Stands in for the paper's
//!   one-core CPU configurations (e.g. CPU1 in the SC16 study).
//! * [`Device::parallel()`] — rayon work-stealing over all cores. Stands in
//!   for the many-threaded configurations (GPU1 in the study). A
//!   thread-clamped variant ([`Device::parallel_with_threads`]) supports the
//!   strong-scaling experiments (Table 8).
//!
//! The performance-model methodology (Chapter V) depends on exactly this
//! property: one implementation, several devices, one model form per
//! (algorithm, device) pair with device-specific fitted coefficients.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod device;
pub mod primitives;
pub mod simd;
pub mod sort;

pub use device::Device;
pub use primitives::*;

/// Run `f` and return its result with the wall seconds it took. This is the
/// workspace's one wall-clock read (clippy.toml, X007): measured seconds
/// reach the models only as data, and only through here.
#[expect(clippy::disallowed_methods, reason = "the workspace's one wall-clock read")]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
