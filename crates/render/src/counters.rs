//! Per-phase instrumentation: wall time plus a *work-unit* count per phase.
//!
//! The SC16 study measured per-phase time and instructions-per-cycle (PAPI on
//! the CPU, nvprof on the GPU). Hardware counters are architecture gates we
//! cannot cross here, so each renderer phase reports the number of algorithmic
//! work units it processed (elements touched, samples extracted, …); work
//! units per second is our throughput proxy for the paper's IPC columns
//! (Tables 6 and 7). DESIGN.md documents this substitution.

use crate::framebuffer::Framebuffer;

/// One completed phase: name, elapsed seconds, work units processed, and
/// bytes moved over the (simulated) wire — nonzero only for communication
/// phases such as compositing exchanges.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    pub name: &'static str,
    pub seconds: f64,
    pub work_units: u64,
    pub bytes_moved: u64,
}

impl PhaseRecord {
    /// Work units per second (the IPC-proxy throughput).
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.work_units as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Accumulates phase records for one render.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    pub phases: Vec<PhaseRecord>,
}

impl PhaseTimer {
    pub fn new() -> PhaseTimer {
        PhaseTimer::default()
    }

    /// Time a closure as one phase.
    pub fn run<R>(&mut self, name: &'static str, work_units: u64, f: impl FnOnce() -> R) -> R {
        let (r, seconds) = dpp::timed(f);
        self.record(name, seconds, work_units);
        r
    }

    /// Record a phase with externally measured time.
    pub fn record(&mut self, name: &'static str, seconds: f64, work_units: u64) {
        self.phases.push(PhaseRecord { name, seconds, work_units, bytes_moved: 0 });
    }

    /// Record a communication phase: externally measured (or simulated) time
    /// plus the bytes it moved.
    pub fn record_bytes(
        &mut self,
        name: &'static str,
        seconds: f64,
        work_units: u64,
        bytes_moved: u64,
    ) {
        self.phases.push(PhaseRecord { name, seconds, work_units, bytes_moved });
    }

    /// Total seconds across phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Sum of seconds for phases with the given name (phases repeat across
    /// volume-rendering passes).
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.phases.iter().filter(|p| p.name == name).map(|p| p.seconds).sum()
    }

    /// Sum of work units for phases with the given name.
    pub fn work_of(&self, name: &str) -> u64 {
        self.phases.iter().filter(|p| p.name == name).map(|p| p.work_units).sum()
    }

    /// Sum of bytes moved for phases with the given name.
    pub fn bytes_of(&self, name: &str) -> u64 {
        self.phases.iter().filter(|p| p.name == name).map(|p| p.bytes_moved).sum()
    }

    /// Merge another timer's records (preserving order).
    pub fn merge(&mut self, o: PhaseTimer) {
        self.phases.extend(o.phases);
    }
}

/// What one render measured: the six inputs of the paper's models, the rays
/// a tracer cast, and its build and render seconds. An input a renderer has
/// no use for is 0. The inputs are `f64` because
/// `perfmodel::mapping::map_inputs` fills the same record with the
/// fractional values it predicts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RenderStats {
    /// O: triangles, cells or tetrahedra submitted.
    pub objects: f64,
    /// AP: pixels the render wrote.
    pub active_pixels: f64,
    /// VO: triangles surviving the rasterizer's cull.
    pub visible_objects: f64,
    /// PPT: pixels the rasterizer considered per visible triangle.
    pub pixels_per_triangle: f64,
    /// SPR: samples per active ray (volume rendering).
    pub samples_per_ray: f64,
    /// CS: cells spanned per active ray (volume rendering). The unstructured
    /// renderer counts tet-pixel-column tests per active pixel: one per
    /// column of each tet's clipped screen box, whether or not its row span
    /// reaches it (the `AP*CS` cell-frequency work of the model).
    pub cells_spanned: f64,
    /// Rays traced through the BVH (primary + AO + shadow).
    pub rays_traced: u64,
    /// Seconds to build the acceleration structure (ray tracing's separable
    /// `c0*O + c1` term).
    pub build_seconds: f64,
    /// Seconds summed over the frame's phases, build excluded.
    pub render_seconds: f64,
}

/// One render's result: the frame, what it measured, and its phases.
#[derive(Debug)]
pub struct RenderOutput {
    pub frame: Framebuffer,
    pub stats: RenderStats,
    pub phases: PhaseTimer,
}

/// Outcome of one render request offered to in situ admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    Admitted,
    Degraded,
    Rejected,
}

/// Tallies for one simulation cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAdmissions {
    pub cycle: i64,
    pub admitted: u32,
    pub degraded: u32,
    pub rejected: u32,
}

/// Per-cycle admitted/degraded/rejected counts, appended to as the scheduler
/// (or any admission hook) gates renders. Cycles are recorded in arrival
/// order; consecutive records for the same cycle merge into one entry.
#[derive(Debug, Clone, Default)]
pub struct AdmissionLog {
    pub cycles: Vec<CycleAdmissions>,
}

impl AdmissionLog {
    pub fn new() -> AdmissionLog {
        AdmissionLog::default()
    }

    /// Record one admission outcome for `cycle`.
    pub fn record(&mut self, cycle: i64, what: Admission) {
        if !matches!(self.cycles.last(), Some(e) if e.cycle == cycle) {
            self.cycles.push(CycleAdmissions { cycle, ..CycleAdmissions::default() });
        }
        if let Some(entry) = self.cycles.last_mut() {
            match what {
                Admission::Admitted => entry.admitted += 1,
                Admission::Degraded => entry.degraded += 1,
                Admission::Rejected => entry.rejected += 1,
            }
        }
    }

    /// (admitted, degraded, rejected) summed over all cycles.
    pub fn totals(&self) -> (u32, u32, u32) {
        self.cycles
            .iter()
            .fold((0, 0, 0), |(a, d, r), c| (a + c.admitted, d + c.degraded, r + c.rejected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_records_time_and_result() {
        let mut t = PhaseTimer::new();
        let v = t.run("work", 100, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "work");
        assert!(t.phases[0].seconds >= 0.0);
    }

    #[test]
    fn aggregation_by_name() {
        let mut t = PhaseTimer::new();
        t.record("sampling", 0.5, 10);
        t.record("compositing", 0.25, 5);
        t.record("sampling", 0.5, 20);
        assert!((t.seconds_of("sampling") - 1.0).abs() < 1e-12);
        assert_eq!(t.work_of("sampling"), 30);
        assert!((t.total_seconds() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn bytes_aggregation() {
        let mut t = PhaseTimer::new();
        t.record("raycast", 0.5, 10);
        t.record_bytes("compositing", 0.1, 5, 4096);
        t.record_bytes("compositing", 0.1, 5, 1024);
        assert_eq!(t.bytes_of("compositing"), 5120);
        assert_eq!(t.bytes_of("raycast"), 0);
        assert_eq!(t.work_of("compositing"), 10);
    }

    #[test]
    fn admission_log_merges_per_cycle() {
        let mut log = AdmissionLog::new();
        log.record(1, Admission::Admitted);
        log.record(1, Admission::Degraded);
        log.record(2, Admission::Rejected);
        log.record(2, Admission::Admitted);
        assert_eq!(log.cycles.len(), 2);
        assert_eq!(
            log.cycles[0],
            CycleAdmissions { cycle: 1, admitted: 1, degraded: 1, rejected: 0 }
        );
        assert_eq!(
            log.cycles[1],
            CycleAdmissions { cycle: 2, admitted: 1, degraded: 0, rejected: 1 }
        );
        assert_eq!(log.totals(), (2, 1, 1));
    }

    #[test]
    fn throughput() {
        let p = PhaseRecord { name: "x", seconds: 2.0, work_units: 10, bytes_moved: 0 };
        assert_eq!(p.throughput(), 5.0);
        let z = PhaseRecord { name: "x", seconds: 0.0, work_units: 10, bytes_moved: 0 };
        assert_eq!(z.throughput(), 0.0);
    }
}
