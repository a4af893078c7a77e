//! In situ viability questions (Section 5.9): given fitted models and the
//! configuration mapping, answer the questions the paper closes with —
//! how many images fit in a time budget (Figure 14), and when ray tracing
//! beats rasterization (Figure 15).

use crate::batch::FramePrediction;
use crate::mapping::{map_inputs, MappingConstants, RenderConfig};
use crate::models::{Family, FittedLinearModel};
use crate::sample::{CompositeSample, CompositeWire, RenderSample, RendererKind};

/// Floor applied to predicted per-frame seconds before they are used as a
/// divisor. A degenerate fit (all-zero coefficients, e.g. from a windowed
/// refit over constant observations) predicts 0 s/frame, and dividing a
/// budget by that yields `INFINITY` — which then poisons feasibility curves
/// and regime maps. One nanosecond is far below anything a real render costs,
/// so the clamp never distorts a healthy model.
pub const MIN_PREDICTED_SECONDS: f64 = 1e-9;

/// Fitted models for one device (plus the shared compositing models),
/// indexed by [`Family`]. The required families are always present; an
/// optional family is present once a fit for it has been installed, and its
/// absence has a defined fallback: per-wire compositing degrades along
/// `CompDfb -> CompRle -> Comp`, so legacy persisted sets predict exactly
/// what they always did.
#[derive(Debug, Clone)]
pub struct ModelSet {
    /// Device label the single-node models were fitted on.
    pub device: String,
    required: [FittedLinearModel; Family::REQUIRED],
    optional: [Option<FittedLinearModel>; Family::ALL.len() - Family::REQUIRED],
}

impl ModelSet {
    /// A set holding `models`, each in its family's slot (a later model of
    /// the same family replaces an earlier one). A required family no model
    /// is given for stays at the zero fit — the degenerate-but-finite state a
    /// constant refit window produces, predicting 0 s.
    pub fn new(device: &str, models: impl IntoIterator<Item = FittedLinearModel>) -> ModelSet {
        let mut set = ModelSet {
            device: device.to_string(),
            required: std::array::from_fn(|i| {
                let row = &Family::ALL[i];
                FittedLinearModel::from_coeffs(row.family, &vec![0.0; row.feature_names.len()])
            }),
            optional: std::array::from_fn(|_| None),
        };
        for m in models {
            set.install(m);
        }
        set
    }

    /// A hand-built set from `(family, coefficients)` pairs, for fixtures
    /// and synthetic ground truths; see [`ModelSet::new`].
    pub fn from_coeffs(device: &str, pairs: &[(Family, &[f64])]) -> ModelSet {
        ModelSet::new(device, pairs.iter().map(|&(f, c)| FittedLinearModel::from_coeffs(f, c)))
    }

    /// The fitted model of `family`, when the set carries one (always, for
    /// a required family).
    pub fn get(&self, family: Family) -> Option<&FittedLinearModel> {
        match (family as usize).checked_sub(Family::REQUIRED) {
            None => Some(&self.required[family as usize]),
            Some(i) => self.optional[i].as_ref(),
        }
    }

    /// Mutable access to the fitted model of `family`; see [`ModelSet::get`].
    pub fn get_mut(&mut self, family: Family) -> Option<&mut FittedLinearModel> {
        match (family as usize).checked_sub(Family::REQUIRED) {
            None => Some(&mut self.required[family as usize]),
            Some(i) => self.optional[i].as_mut(),
        }
    }

    /// Put `model` in its family's slot, replacing any previous fit.
    pub fn install(&mut self, model: FittedLinearModel) {
        let slot = model.family as usize;
        match slot.checked_sub(Family::REQUIRED) {
            None => self.required[slot] = model,
            Some(i) => self.optional[i] = Some(model),
        }
    }

    /// Every model the set carries, in [`Family::ALL`] order.
    pub fn models(&self) -> impl Iterator<Item = &FittedLinearModel> {
        self.required.iter().chain(self.optional.iter().flatten())
    }

    /// Mutable [`ModelSet::models`].
    pub fn models_mut(&mut self) -> impl Iterator<Item = &mut FittedLinearModel> {
        self.required.iter_mut().chain(self.optional.iter_mut().flatten())
    }

    /// Predicted seconds for one *frame* of a multi-task configuration:
    /// `max_tasks(T_LR) + T_COMP` with all tasks identical (weak scaling),
    /// excluding any amortized acceleration-structure build.
    ///
    /// Negative per-term predictions are clamped to 0 so downstream curves
    /// stay physical, but a clamp engaging means the underlying model is
    /// invalid — callers that *install* models (refit loops) should gate on
    /// [`implausible_models`](ModelSet::implausible_models) rather than rely
    /// on the clamp.
    pub fn predict_frame_seconds(&self, cfg: &RenderConfig, k: &MappingConstants) -> f64 {
        self.predict_frame_seconds_wire(cfg, k, CompositeWire::Compressed)
    }

    /// [`predict_frame_seconds`](ModelSet::predict_frame_seconds) for an
    /// explicit compositing wire: the sum of [`price_frame`](ModelSet::price_frame).
    pub fn predict_frame_seconds_wire(
        &self,
        cfg: &RenderConfig,
        k: &MappingConstants,
        wire: CompositeWire,
    ) -> f64 {
        let (local_s, comp_s) = self.price_frame(&map_inputs(cfg, k), wire);
        local_s + comp_s
    }

    /// One frame's price at its mapped `inputs` in the paper's two parts,
    /// `(max(T_LR), T_COMP)`, each clamped to 0. A frame at one task
    /// exchanges nothing, so its `T_COMP` is 0. Missing per-wire models
    /// degrade along `CompDfb -> CompRle -> Comp`, so a set without the newer
    /// fits predicts exactly what it always did.
    pub fn price_frame(&self, inputs: &RenderSample, wire: CompositeWire) -> (f64, f64) {
        let (tasks, pixels, avg_active_pixels) =
            (inputs.tasks, inputs.pixels, inputs.stats.active_pixels);
        let sample = CompositeSample { tasks, pixels, avg_active_pixels, seconds: 0.0, wire };
        let comp_s =
            if tasks > 1 { self.predict_composite_seconds(&sample, wire).max(0.0) } else { 0.0 };
        (self.predict_local_seconds(inputs).max(0.0), comp_s)
    }

    /// Predicted local render seconds (no build, no compositing, unclamped)
    /// for one task's model inputs, under the whole-frame model of the
    /// renderer the inputs name.
    pub fn predict_local_seconds(&self, inputs: &RenderSample) -> f64 {
        self.required[Family::for_renderer(inputs.renderer) as usize].predict(inputs)
    }

    /// Predicted compositing seconds for one sample shape under `wire`,
    /// falling back through the model chain when newer fits are absent.
    pub fn predict_composite_seconds(&self, sample: &CompositeSample, wire: CompositeWire) -> f64 {
        let fitted = Family::wire_chain(wire).iter().find_map(|&f| self.get(f));
        fitted.unwrap_or(&self.required[Family::Comp as usize]).predict(sample)
    }

    /// Names of models that fail the paper's plausibility criterion
    /// (a negative coefficient: rendering work cannot have negative marginal
    /// cost). Empty for a valid set. Refit loops use this to reject a bad
    /// re-solve instead of silently scheduling on clamped-to-zero
    /// predictions.
    pub fn implausible_models(&self) -> Vec<&'static str> {
        self.models().filter(|m| !m.fit.all_coeffs_nonnegative()).map(|m| m.name()).collect()
    }

    /// Predicted one-time BVH build seconds (ray tracing only; 0 otherwise).
    pub fn predict_build_seconds(&self, cfg: &RenderConfig, k: &MappingConstants) -> f64 {
        if cfg.renderer == RendererKind::RayTracing {
            self.required[Family::RtBuild as usize].predict(&map_inputs(cfg, k)).max(0.0)
        } else {
            0.0
        }
    }
}

/// Figure 14: number of images renderable inside `budget_seconds`, per
/// image size, for one renderer, by [`FramePrediction::images_in_budget`]:
/// BVH builds amortize, built once, then every frame reuses it.
pub fn images_in_budget(
    set: &ModelSet,
    k: &MappingConstants,
    renderer: RendererKind,
    cells_per_task: usize,
    tasks: usize,
    image_sides: &[u32],
    budget_seconds: f64,
) -> Vec<(u32, f64)> {
    image_sides
        .iter()
        .map(|&side| {
            let cfg = RenderConfig {
                renderer,
                cells_per_task,
                pixels: (side as usize) * (side as usize),
                tasks,
            };
            (side, FramePrediction::of(set, &cfg, k).images_in_budget(budget_seconds))
        })
        .collect()
}

/// One cell of the Figure 15 regime map.
#[derive(Debug, Clone, Copy)]
pub struct RatioCell {
    /// Image side of this cell's workload.
    pub image_side: u32,
    /// Cells per axis per task for this cell's workload.
    pub cells_per_task: usize,
    /// `T_RT / T_RAST` for the whole workload (lower = ray tracing wins).
    pub rt_over_rast: f64,
}

/// Figure 15: ratio of predicted ray-tracing to rasterization time for
/// `renders` images (the BVH build amortizes over them), across a grid of
/// image sizes and data sizes.
pub fn rt_vs_rast_map(
    set: &ModelSet,
    k: &MappingConstants,
    tasks: usize,
    renders: usize,
    image_sides: &[u32],
    data_sizes: &[usize],
) -> Vec<RatioCell> {
    let mut out = Vec::with_capacity(image_sides.len() * data_sizes.len());
    for &n in data_sizes {
        for &side in image_sides {
            let pixels = (side as usize) * (side as usize);
            let rt_cfg = RenderConfig {
                renderer: RendererKind::RayTracing,
                cells_per_task: n,
                pixels,
                tasks,
            };
            let ra_cfg = RenderConfig {
                renderer: RendererKind::Rasterization,
                cells_per_task: n,
                pixels,
                tasks,
            };
            let t_rt = set.predict_build_seconds(&rt_cfg, k)
                + renders as f64 * set.predict_frame_seconds(&rt_cfg, k);
            let t_ra =
                (renders as f64 * set.predict_frame_seconds(&ra_cfg, k)).max(MIN_PREDICTED_SECONDS);
            out.push(RatioCell { image_side: side, cells_per_task: n, rt_over_rast: t_rt / t_ra });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_models::toy_model_set as toy_models;

    #[test]
    fn budget_curve_decreases_with_image_size() {
        let set = toy_models();
        let k = MappingConstants::default();
        let curve = images_in_budget(
            &set,
            &k,
            RendererKind::RayTracing,
            200,
            32,
            &[512, 1024, 2048, 4096],
            60.0,
        );
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1 < w[0].1, "bigger images must allow fewer frames: {curve:?}");
        }
        assert!(curve[0].1 > 1.0);
    }

    #[test]
    fn rt_wins_big_data_small_images_and_loses_reverse() {
        let set = toy_models();
        let k = MappingConstants::default();
        let map = rt_vs_rast_map(&set, &k, 32, 100, &[384, 4096], &[100, 500]);
        let get = |side: u32, n: usize| {
            map.iter().find(|c| c.image_side == side && c.cells_per_task == n).unwrap().rt_over_rast
        };
        // Heavier geometry with few pixels: ray tracing relatively better.
        assert!(
            get(384, 500) < get(4096, 100),
            "regime ordering violated: {} vs {}",
            get(384, 500),
            get(4096, 100)
        );
    }

    #[test]
    fn degenerate_models_stay_finite_across_study_grid() {
        // All-zero coefficients predict 0 s/frame; the clamp must keep the
        // feasibility answers finite and non-negative instead of INFINITY.
        let mut set = toy_models();
        for m in set.models_mut() {
            m.fit.coeffs.fill(0.0);
        }
        let k = MappingConstants::default();
        let sides = [256, 512, 1024, 2048, 4096];
        for renderer in
            [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
        {
            for &cells in &[50usize, 200, 500] {
                for &budget in &[0.0, 1.0, 60.0] {
                    let curve = images_in_budget(&set, &k, renderer, cells, 32, &sides, budget);
                    for (side, images) in curve {
                        assert!(
                            images.is_finite() && images >= 0.0,
                            "{renderer:?} side {side} budget {budget}: {images}"
                        );
                    }
                }
            }
        }
        let map = rt_vs_rast_map(&set, &k, 32, 100, &sides, &[50, 200, 500]);
        assert!(map.iter().all(|c| c.rt_over_rast.is_finite() && c.rt_over_rast >= 0.0));
    }

    #[test]
    fn compressed_model_takes_over_comp_prediction() {
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 200,
            pixels: 1024 * 1024,
            tasks: 32,
        };
        let bare = toy_models();
        let dense = bare.predict_frame_seconds(&cfg, &k);
        // A compressed model whose wire term is half the dense one (the RLE
        // exchange ships fewer bytes) must lower the frame prediction.
        let mut set = bare.clone();
        set.install(FittedLinearModel::from_coeffs(Family::CompRle, &[1e-8, 2.5e-8, 0.0, 1e-3]));
        let compressed = set.predict_frame_seconds(&cfg, &k);
        assert!(compressed < dense, "{compressed} !< {dense}");
        // Without the compressed model the dense one answers, as before.
        assert_eq!(bare.predict_frame_seconds(&cfg, &k).to_bits(), dense.to_bits());
    }

    #[test]
    fn implausible_models_are_reported() {
        let mut set = toy_models();
        assert!(set.implausible_models().is_empty());
        set.get_mut(Family::Vr).unwrap().fit.coeffs[1] = -1e-9;
        set.install(FittedLinearModel::from_coeffs(Family::CompRle, &[1e-8, 2.5e-8, -1e-4, 1e-3]));
        set.install(FittedLinearModel::from_coeffs(Family::CompDfb, &[1e-8, 1e-9, -2e-6, 1e-4]));
        assert_eq!(
            set.implausible_models(),
            vec!["volume_rendering", "compositing_compressed", "compositing_dfb"]
        );
    }

    #[test]
    fn dfb_model_routes_only_the_dfb_wire() {
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 200,
            pixels: 1024 * 1024,
            tasks: 32,
        };
        let bare = toy_models();
        let dense = bare.predict_frame_seconds(&cfg, &k);
        let mut set = bare.clone();
        set.install(FittedLinearModel::from_coeffs(Family::CompDfb, &[1e-8, 2e-8, 2e-6, 1e-4]));
        // Non-DFB wires are untouched, to the bit.
        assert_eq!(set.predict_frame_seconds(&cfg, &k).to_bits(), dense.to_bits());
        // The DFB wire routes through the overlapped-mode fit.
        let dfb = set.predict_frame_seconds_wire(&cfg, &k, CompositeWire::Dfb);
        assert!(dfb < dense, "{dfb} !< {dense}");
        // Without a DFB fit, the DFB wire degrades to the compressed chain:
        // here there is no compressed fit either, so `Comp` answers — same
        // as dense.
        let fallback = bare.predict_frame_seconds_wire(&cfg, &k, CompositeWire::Dfb);
        assert_eq!(fallback.to_bits(), dense.to_bits());
    }

    /// `max(T_LR) + T_COMP` has no exchange at one task: the frame is its
    /// local part alone, while two tasks pay the compositing model.
    #[test]
    fn one_task_frames_price_no_compositing() {
        let (set, k) = (toy_models(), MappingConstants::default());
        for renderer in
            [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
        {
            let one = RenderConfig { renderer, cells_per_task: 50, pixels: 512 * 512, tasks: 1 };
            let inputs = map_inputs(&one, &k);
            let (local_s, comp_s) = set.price_frame(&inputs, CompositeWire::Compressed);
            assert_eq!((local_s, comp_s), (set.predict_local_seconds(&inputs).max(0.0), 0.0));
            assert_eq!(set.predict_frame_seconds(&one, &k), local_s);
            let two = RenderConfig { tasks: 2, ..one };
            let (local_s, comp_s) = set.price_frame(&map_inputs(&two, &k), CompositeWire::Dense);
            assert!(comp_s > 0.0, "{renderer:?}");
            let frame = set.predict_frame_seconds_wire(&two, &k, CompositeWire::Dense);
            assert_eq!(frame.to_bits(), (local_s + comp_s).to_bits());
        }
    }

    #[test]
    fn volume_prediction_positive() {
        let set = toy_models();
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 200,
            pixels: 1024 * 1024,
            tasks: 32,
        };
        let t = set.predict_frame_seconds(&cfg, &k);
        assert!(t > 0.0 && t.is_finite());
        assert_eq!(set.predict_build_seconds(&cfg, &k), 0.0);
    }
}
