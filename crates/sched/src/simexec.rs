//! A simulated multi-rank render executor: stands in for the 64-rank machine
//! the demo schedules against. Job runtimes come from a hidden ground-truth
//! [`ModelSet`] (which the scheduler does *not* see — it starts from a
//! miscalibrated prior) on a simulated clock, perturbed by seeded,
//! deterministic noise so runs are reproducible end to end.

use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::mapping::{map_inputs, MappingConstants, RenderConfig};
use perfmodel::sample::{CompositeSample, CompositeWire, RendererKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated cost of one executed job, split the way the models split it.
#[derive(Debug, Clone, Copy)]
pub struct JobCost {
    /// Local render seconds (max over ranks; excludes build + compositing).
    pub local_s: f64,
    /// BVH build seconds (0 unless this job triggered a build).
    pub build_s: f64,
    /// Compositing-exchange seconds for the frame.
    pub comp_s: f64,
    /// Image pixels, for feeding the compositing observation back.
    pub pixels: f64,
    /// Mapped average active pixels per rank.
    pub avg_active_pixels: f64,
}

impl JobCost {
    pub fn total(&self) -> f64 {
        self.local_s + self.build_s + self.comp_s
    }
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
        let inputs = map_inputs(cfg, &self.constants);
        let local = self.truth.predict_local_seconds(&inputs).max(0.0) * self.jitter();
        let build = if cfg.renderer == RendererKind::RayTracing && charge_build {
            self.truth.predict_build_seconds(cfg, &self.constants) * self.jitter()
        } else {
            0.0
        };
        // The machine's wire truth is the dense-form law.
        let comp = self
            .truth
            .predict_composite_seconds(
                &CompositeSample {
                    tasks: cfg.tasks,
                    pixels: cfg.pixels as f64,
                    avg_active_pixels: inputs.stats.active_pixels,
                    seconds: 0.0,
                    wire: CompositeWire::Dense,
                },
                CompositeWire::Dense,
            )
            .max(0.0)
            * self.jitter();
        JobCost {
            local_s: local,
            build_s: build,
            comp_s: comp,
            pixels: cfg.pixels as f64,
            avg_active_pixels: inputs.stats.active_pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::ground_truth;

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
            assert_eq!(ca.total().to_bits(), cb.total().to_bits());
        }
        let mut c = SimulatedExecutor::new(ground_truth(), k, 0.05, 43);
        assert_ne!(a.execute(&cfg, true).total(), c.execute(&cfg, true).total());
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
            assert_eq!(c.build_s, 0.0);
            let got = c.local_s + c.comp_s;
            assert!((got - want).abs() <= 0.1 * want + 1e-12, "{got} vs {want}");
        }
    }
}
