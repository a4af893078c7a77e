//! Interconnect cost model: `time(bytes) = latency + bytes / bandwidth`.
//!
//! The coefficients default to values typical of the Infiniband-class
//! interconnects of the paper's machines (LLNL Surface, ORNL Titan): ~1.5 us
//! latency, ~5 GB/s effective point-to-point bandwidth. The compositing
//! study sweeps only relative behaviour, so precise constants matter less
//! than the latency/bandwidth split.

/// Analytic point-to-point transfer cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl NetModel {
    /// Infiniband-class cluster interconnect.
    pub fn cluster() -> NetModel {
        NetModel { latency_s: 1.5e-6, bandwidth_bps: 5.0e9 }
    }

    /// Free transport (pure algorithm studies).
    pub fn zero() -> NetModel {
        NetModel { latency_s: 0.0, bandwidth_bps: f64::INFINITY }
    }
}
