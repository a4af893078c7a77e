//! Execution devices: serial and rayon-backed parallel back-ends.
//!
//! # Determinism
//!
//! The parallel device executes on real worker threads, yet every primitive
//! in this crate is *observationally identical* to its serial counterpart:
//! work is partitioned into contiguous chunks whose boundaries depend only on
//! the input length and the grain size (never on scheduling order), chunked
//! results merge in ascending chunk order, and each chunked primitive is
//! exact over any partition (integer scans/histograms, min/max, disjoint
//! writes). A frame rendered on [`Device::Serial`] is byte-for-byte the frame
//! rendered on [`Device::parallel_with_threads`] for any thread count —
//! pinned by `tests/parallel_exactness.rs` and the property tests.
//!
//! # Panics
//!
//! A panic inside a functor running on a parallel device is caught on the
//! worker, carried back, and re-thrown on the calling thread once the batch
//! drains — the caller observes the same unwinding it would have seen
//! serially. Worker threads never die silently.

use std::fmt;
use std::sync::Arc;

/// An execution back-end for the data-parallel primitives.
///
/// `Device` is cheap to clone and `Send + Sync`; renderers hold one and pass
/// it to every primitive call, mirroring how EAVL algorithms are compiled
/// against a back-end.
#[derive(Clone)]
pub enum Device {
    /// Single-threaded execution (the paper's one-core CPU runs).
    Serial,
    /// Rayon execution on real worker threads. `None` uses the global thread
    /// pool (all logical cores, or `RAYON_NUM_THREADS`); `Some(pool)` uses a
    /// dedicated pool, enabling thread-count clamping for strong-scaling
    /// studies.
    Parallel(Option<Arc<rayon::ThreadPool>>),
}

impl Device {
    /// Parallel device on the global rayon pool (all logical cores).
    pub fn parallel() -> Device {
        Device::Parallel(None)
    }

    /// Parallel device clamped to exactly `threads` worker threads.
    ///
    /// # Panics
    /// If the pool's threads cannot be started.
    #[expect(clippy::expect_used, reason = "a device without its threads cannot run")]
    pub fn parallel_with_threads(threads: usize) -> Device {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads.max(1))
            .build()
            .expect("failed to build rayon pool");
        Device::Parallel(Some(Arc::new(pool)))
    }

    /// Number of worker threads this device will use.
    pub fn threads(&self) -> usize {
        match self {
            Device::Serial => 1,
            Device::Parallel(None) => rayon::current_num_threads(),
            Device::Parallel(Some(p)) => p.current_num_threads(),
        }
    }

    /// Short name used in experiment records ("serial" / "parallel").
    pub fn name(&self) -> &'static str {
        match self {
            Device::Serial => "serial",
            Device::Parallel(_) => "parallel",
        }
    }

    /// Run `f` inside this device's thread pool so that nested rayon
    /// operations are scheduled on it. For a dedicated pool this really
    /// ships `f` to one of that pool's workers — nested `par_*` calls then
    /// fan out over exactly that pool's threads, which is what makes
    /// [`Device::parallel_with_threads`] clamp concurrency for strong-scaling
    /// runs. On the serial device `f` runs on the caller (primitives check
    /// the device themselves and stay sequential).
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self {
            Device::Serial => f(),
            Device::Parallel(None) => f(),
            Device::Parallel(Some(pool)) => pool.install(f),
        }
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Serial => write!(f, "Device::Serial"),
            Device::Parallel(None) => write!(f, "Device::Parallel(global)"),
            Device::Parallel(Some(p)) => {
                write!(f, "Device::Parallel({} threads)", p.current_num_threads())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_threads() {
        assert_eq!(Device::Serial.name(), "serial");
        assert_eq!(Device::Serial.threads(), 1);
        let p = Device::parallel();
        assert!(p.threads() >= 1);
        let p2 = Device::parallel_with_threads(2);
        assert_eq!(p2.threads(), 2);
    }

    #[test]
    fn install_runs_closure() {
        let d = Device::parallel_with_threads(2);
        let v = d.install(|| 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(Device::Serial.install(|| 7), 7);
    }
}
