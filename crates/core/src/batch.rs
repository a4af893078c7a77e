//! Batched model evaluation on the data-parallel pool.
//!
//! A feasibility query is a handful of float ops, but a query *service*
//! answers them by the thousand; evaluating a coalesced batch through
//! [`dpp::primitives::map`] amortizes dispatch and lets misses from many
//! concurrent clients share one parallel region. The output is positionally
//! aligned with the input slice and bit-identical across devices and thread
//! counts (the dpp primitives are deterministic by construction).

use crate::feasibility::ModelSet;
use crate::mapping::{MappingConstants, RenderConfig};
use dpp::Device;

/// Predicted cost of one configuration: the per-frame time plus the one-time
/// acceleration-structure build (0 for non-ray-tracing renderers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FramePrediction {
    /// Predicted seconds per frame (`max_tasks(T_LR) + T_COMP`).
    pub per_frame_s: f64,
    /// Predicted one-time BVH build seconds.
    pub build_s: f64,
}

impl FramePrediction {
    /// What `set` predicts for `cfg`, mapped through `k`.
    pub fn of(set: &ModelSet, cfg: &RenderConfig, k: &MappingConstants) -> FramePrediction {
        FramePrediction {
            per_frame_s: set.predict_frame_seconds(cfg, k),
            build_s: set.predict_build_seconds(cfg, k),
        }
    }

    /// Images renderable in `budget_s`, amortizing the build (Figure 14),
    /// with the per-frame seconds floored at
    /// [`crate::feasibility::MIN_PREDICTED_SECONDS`].
    pub fn images_in_budget(&self, budget_s: f64) -> f64 {
        let per_frame = self.per_frame_s.max(crate::feasibility::MIN_PREDICTED_SECONDS);
        (budget_s - self.build_s).max(0.0) / per_frame
    }
}

/// Evaluate every configuration in `cfgs` against one fitted set, on
/// `device`. `out[i]` is the prediction for `cfgs[i]`.
pub fn predict_batch(
    set: &ModelSet,
    k: &MappingConstants,
    cfgs: &[RenderConfig],
    device: &Device,
) -> Vec<FramePrediction> {
    dpp::primitives::map(device, cfgs.len(), |i| FramePrediction::of(set, &cfgs[i], k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::RendererKind;
    use crate::test_models::toy_model_set;

    fn grid() -> Vec<RenderConfig> {
        let mut cfgs = Vec::new();
        for renderer in
            [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
        {
            for side in [256usize, 512, 1024, 2048] {
                for cells in [50usize, 200, 500] {
                    for tasks in [1usize, 32, 512] {
                        cfgs.push(RenderConfig {
                            renderer,
                            cells_per_task: cells,
                            pixels: side * side,
                            tasks,
                        });
                    }
                }
            }
        }
        cfgs
    }

    #[test]
    fn batch_matches_scalar_eval_bit_exactly() {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let cfgs = grid();
        for device in [Device::Serial, Device::parallel_with_threads(4)] {
            let batch = predict_batch(&set, &k, &cfgs, &device);
            assert_eq!(batch.len(), cfgs.len());
            for (cfg, p) in cfgs.iter().zip(&batch) {
                assert_eq!(p.per_frame_s.to_bits(), set.predict_frame_seconds(cfg, &k).to_bits());
                assert_eq!(p.build_s.to_bits(), set.predict_build_seconds(cfg, &k).to_bits());
            }
        }
    }

    #[test]
    fn images_in_budget_matches_feasibility_helper() {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let sides = [512u32, 1024, 2048];
        let direct = crate::feasibility::images_in_budget(
            &set,
            &k,
            RendererKind::RayTracing,
            200,
            32,
            &sides,
            60.0,
        );
        for (side, images) in direct {
            let cfg = RenderConfig {
                renderer: RendererKind::RayTracing,
                cells_per_task: 200,
                pixels: (side as usize) * (side as usize),
                tasks: 32,
            };
            let p = predict_batch(&set, &k, &[cfg], &Device::Serial)[0];
            assert_eq!(p.images_in_budget(60.0).to_bits(), images.to_bits());
        }
    }
}
