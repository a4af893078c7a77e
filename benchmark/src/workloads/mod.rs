//! The five workloads. Each builds its inputs from the seed, runs one cycle
//! at a time through the system's public entry points, and checks what came
//! back. Load shape is the same everywhere: a closed loop with one client
//! (the simulation blocks on `publish`/`execute`, `feasd::serve` is
//! synchronous), one driver thread, and a renderer pool of
//! [`crate::host::pool_threads`] threads.

mod composite;
mod feasd_serve;
mod insitu;
mod probes;

use crate::trace::Tracer;
use dpp::Device;
use std::path::Path;
use std::rc::Rc;

/// Cycles run (and discarded) at the end of set-up, so caches fill and lazy
/// initialisation finishes before the first measured cycle. They count
/// toward `setup_s`.
pub const WARMUP_CYCLES: usize = 3;

/// What a cycle or a check attempted, how much of it failed, and how many
/// items (images, frames, reply lines) the cycle delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub delivered: u64,
}

impl Outcome {
    pub fn add(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.delivered += o.delivered;
    }

    /// One more operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Same size, and the same colour and depth bits in every pixel.
fn frames_identical(a: &render::Framebuffer, b: &render::Framebuffer) -> bool {
    let bits = |c: &vecmath::Color| [c.r, c.g, c.b, c.a].map(f32::to_bits);
    a.width == b.width
        && a.height == b.height
        && a.color.iter().zip(&b.color).all(|(x, y)| bits(x) == bits(y))
        && a.depth.iter().zip(&b.depth).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub struct Env<'a> {
    pub seed: u64,
    pub device: Device,
    /// Scratch directory for image files, inside the checkout.
    pub out_dir: &'a Path,
    pub tracer: Rc<Tracer>,
}

pub trait Workload {
    /// Untimed work before a cycle (the simulation's own time step).
    fn prepare(&mut self) {}

    /// One cycle, the unit `cycle_s_*` times. Returns what it delivered;
    /// whether it was correct is for [`Workload::check`] to say.
    fn cycle(&mut self) -> Outcome;

    /// Untimed output checks on the cycle that just ran.
    fn check(&mut self) -> Outcome;

    /// Traced run only: repeat the stages of the cycle that just ran through
    /// direct calls into the layers, on the same inputs, so their spans sit
    /// beside the opaque `execute` span.
    fn replay(&mut self) {}

    /// Traced run only: layer measurements that are not part of a cycle.
    fn probes(&mut self) {}

    /// End-of-run checks over the whole run.
    fn verify(&mut self) -> Outcome;
}

/// Build the workload called `name` (one of [`crate::spec::WORKLOADS`]) and
/// run its warm-up.
pub fn build(name: &str, env: &Env) -> Box<dyn Workload> {
    let mut w: Box<dyn Workload> = match name {
        "insitu_surface" => Box::new(insitu::InSitu::new(insitu::Kind::Surface, env)),
        "insitu_volume_structured" => {
            Box::new(insitu::InSitu::new(insitu::Kind::VolumeStructured, env))
        }
        "insitu_volume_unstructured" => {
            Box::new(insitu::InSitu::new(insitu::Kind::VolumeUnstructured, env))
        }
        "sortlast_composite" => Box::new(composite::SortLast::new(env)),
        "feasd_serve" => Box::new(feasd_serve::FeasdServe::new(env)),
        other => panic!("`{other}` is not in spec::WORKLOADS"),
    };
    // The tracer stays off through warm-up: a traced run's per-layer medians
    // are over measured cycles only.
    let was_on = env.tracer.is_on();
    env.tracer.set_on(false);
    for _ in 0..WARMUP_CYCLES {
        w.prepare();
        w.cycle();
    }
    env.tracer.set_on(was_on);
    w
}
