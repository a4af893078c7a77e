//! A simulated multi-rank render executor: stands in for the 64-rank machine
//! the demo schedules against. Job runtimes come from a hidden ground-truth
//! [`ModelSet`] (which the scheduler does *not* see — it starts from a
//! miscalibrated prior) on a simulated clock, perturbed by seeded,
//! deterministic noise so runs are reproducible end to end.

use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::mapping::{map_inputs, MappingConstants, RenderConfig};
use perfmodel::sample::{CompositeSample, CompositeWire, RenderSample, RendererKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated cost of one executed job, as the two observations the scheduler
/// learns from.
#[derive(Debug, Clone)]
pub struct JobCost {
    /// The job's mapped inputs with its local render seconds (max over
    /// ranks) and its BVH build seconds (0 unless this job triggered one).
    pub render: RenderSample,
    /// The frame's compositing exchange, on the default barriered RLE wire.
    pub composite: CompositeSample,
}

/// The executor: ground truth + noise + simulated clock.
pub struct SimulatedExecutor {
    truth: ModelSet,
    constants: MappingConstants,
    /// Relative runtime jitter amplitude (e.g. 0.03 for ±3%).
    noise: f64,
    rng: StdRng,
}

impl SimulatedExecutor {
    pub fn new(truth: ModelSet, constants: MappingConstants, noise: f64, seed: u64) -> Self {
        SimulatedExecutor { truth, constants, noise, rng: StdRng::seed_from_u64(seed) }
    }

    fn jitter(&mut self) -> f64 {
        1.0 + self.noise * (2.0 * self.rng.gen::<f64>() - 1.0)
    }

    /// Noise-free ground-truth frame cost (local + compositing) — what the
    /// scheduler's predictions converge toward.
    pub fn true_frame_seconds(&self, cfg: &RenderConfig) -> f64 {
        self.truth.predict_frame_seconds(cfg, &self.constants).max(MIN_PREDICTED_SECONDS)
    }

    /// Noise-free ground-truth build cost.
    pub fn true_build_seconds(&self, cfg: &RenderConfig) -> f64 {
        self.truth.predict_build_seconds(cfg, &self.constants).max(0.0)
    }

    /// "Run" a job on the simulated clock. `charge_build` charges the BVH
    /// build (the caller amortizes builds across a cycle's ray-traced
    /// frames).
    pub fn execute(&mut self, cfg: &RenderConfig, charge_build: bool) -> JobCost {
        let mut render = map_inputs(cfg, &self.constants);
        render.stats.render_seconds =
            self.truth.predict_local_seconds(&render).max(0.0) * self.jitter();
        if cfg.renderer == RendererKind::RayTracing && charge_build {
            render.stats.build_seconds =
                self.truth.predict_build_seconds(cfg, &self.constants) * self.jitter();
        }
        let mut composite = CompositeSample {
            tasks: cfg.tasks,
            pixels: cfg.pixels as f64,
            avg_active_pixels: render.stats.active_pixels,
            seconds: 0.0,
            wire: CompositeWire::Compressed,
        };
        // The machine's wire truth is the dense-form law.
        composite.seconds =
            self.truth.predict_composite_seconds(&composite, CompositeWire::Dense).max(0.0)
                * self.jitter();
        JobCost { render, composite }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::ground_truth;

    /// Every second a job's two samples measured.
    fn total(c: &JobCost) -> f64 {
        c.render.stats.render_seconds + c.render.stats.build_seconds + c.composite.seconds
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let cfg = RenderConfig {
            renderer: RendererKind::RayTracing,
            cells_per_task: 20,
            pixels: 512 * 512,
            tasks: 64,
        };
        let k = MappingConstants::default();
        let mut a = SimulatedExecutor::new(ground_truth(), k, 0.05, 42);
        let mut b = SimulatedExecutor::new(ground_truth(), k, 0.05, 42);
        for _ in 0..5 {
            let ca = a.execute(&cfg, true);
            let cb = b.execute(&cfg, true);
            assert_eq!(total(&ca).to_bits(), total(&cb).to_bits());
        }
        let mut c = SimulatedExecutor::new(ground_truth(), k, 0.05, 43);
        assert_ne!(total(&a.execute(&cfg, true)), total(&c.execute(&cfg, true)));
    }

    /// A job's two samples are the rows the scheduler refits on: the render
    /// at the job's mapped inputs with its frame and build seconds, and the
    /// exchange of its frame on the default RLE wire.
    #[test]
    fn samples_carry_the_jobs_mapped_inputs() {
        let cfg = RenderConfig {
            renderer: RendererKind::RayTracing,
            cells_per_task: 20,
            pixels: 512 * 512,
            tasks: 64,
        };
        let k = MappingConstants::default();
        let mut ex = SimulatedExecutor::new(ground_truth(), k, 0.05, 42);
        let mapped = map_inputs(&cfg, &k);
        let JobCost { render, composite } = ex.execute(&cfg, true);
        let mut inputs = render.stats;
        (inputs.render_seconds, inputs.build_seconds) = (0.0, 0.0);
        assert_eq!(inputs, mapped.stats);
        assert_eq!(
            (render.renderer, render.pixels, render.tasks),
            (cfg.renderer, mapped.pixels, 64)
        );
        assert!(render.stats.render_seconds > 0.0 && render.stats.build_seconds > 0.0);
        assert_eq!(composite.wire, CompositeWire::Compressed);
        assert_eq!((composite.tasks, composite.pixels), (64, mapped.pixels));
        assert_eq!(composite.avg_active_pixels, mapped.stats.active_pixels);
        assert!(composite.seconds > 0.0);
        // A job that reuses the cycle's BVH reports no build.
        assert_eq!(ex.execute(&cfg, false).render.stats.build_seconds, 0.0);
    }

    #[test]
    fn noise_stays_within_amplitude() {
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 20,
            pixels: 256 * 256,
            tasks: 64,
        };
        let k = MappingConstants::default();
        let mut ex = SimulatedExecutor::new(ground_truth(), k, 0.1, 7);
        let want = ex.true_frame_seconds(&cfg);
        for _ in 0..50 {
            let c = ex.execute(&cfg, false);
            assert_eq!(c.render.stats.build_seconds, 0.0);
            let got = total(&c);
            assert!((got - want).abs() <= 0.1 * want + 1e-12, "{got} vs {want}");
        }
    }
}
