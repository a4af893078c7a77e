//! Chapter VI extensions: the future directions the dissertation sketches,
//! implemented.
//!
//! * [`SliceModel`] — "Modeling Other Algorithms": the slicing filter's cost
//!   model (`T = c0 * cells_intersected + c1`), fitted from measured slices
//!   the same way the rendering models are.
//! * [`AdaptivePlanner`] — "Adaptive Infrastructure": given fitted models
//!   and a constraint set (time budget, memory cap), choose the rendering
//!   configuration a simulation should run — the layer the dissertation says
//!   should sit between simulations and visualization.

use crate::feasibility::ModelSet;
use crate::mapping::{MappingConstants, RenderConfig};
use crate::regression::LinearRegression;
use crate::sample::RendererKind;
use mesh::datasets::{field_grid, FieldKind};
use mesh::slice::slice_grid;
use mpirt::event::EventWorld;
use mpirt::NetModel;
use rand::{Rng, SeedableRng};
use vecmath::Vec3;

/// One slicing measurement.
#[derive(Debug, Clone)]
pub struct SliceSample {
    /// Cells the slice plane intersected.
    pub cells_intersected: f64,
    /// Measured seconds for the slice.
    pub seconds: f64,
}

/// The slicing model `T_SLICE = c0 * cells_intersected + c1`.
#[derive(Debug, Clone)]
pub struct SliceModel {
    /// The fitted regression `T = c0 * cells + c1`.
    pub fit: LinearRegression,
}

/// The plane sweep every slice calibration visits per grid size: two
/// axis-aligned planes and two oblique ones, so the intersected-cell counts
/// spread out even at a single grid size.
fn slice_plane_sweep() -> [(Vec3, Vec3); 4] {
    [
        (Vec3::ZERO, Vec3::X),
        (Vec3::new(0.3, 0.0, 0.0), Vec3::X),
        (Vec3::ZERO, Vec3::new(1.0, 1.0, 0.2).normalized()),
        (Vec3::new(0.0, -0.2, 0.1), Vec3::new(0.2, 1.0, 1.0).normalized()),
    ]
}

impl SliceModel {
    /// Fit the slicing model from measured samples (pure; no clock involved).
    pub fn fit_samples(samples: &[SliceSample]) -> SliceModel {
        let xs: Vec<Vec<f64>> = samples.iter().map(|s| vec![s.cells_intersected, 1.0]).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
        SliceModel { fit: LinearRegression::fit(&xs, &ys) }
    }

    /// Calibrate against a deterministic simulated clock: slice each grid for
    /// its (byte-deterministic) intersected-cell count, then charge a planted
    /// per-cell cost — with a seeded ±3% jitter standing in for measurement
    /// noise — to an [`mpirt::event::EventWorld`]. Fit-quality tests use
    /// this path; it never reads the wall clock, so it needs no warm-up runs
    /// and no min-of-N retries. [`SliceModel::calibrate_wall_clock`] keeps
    /// the real-measurement path for the opt-in smoke test.
    pub fn calibrate(sizes: &[usize]) -> (SliceModel, Vec<SliceSample>) {
        let mut world = EventWorld::new(1, NetModel::cluster());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x511C_E5EED ^ sizes.len() as u64);
        let mut samples = Vec::new();
        for &n in sizes {
            let grid = field_grid(FieldKind::Turbulence, [n; 3]);
            for (origin, normal) in slice_plane_sweep() {
                // xlint::allow(X014): slice_grid only panics when the named
                // point field is absent; field_grid above always adds "scalar".
                let out = slice_grid(&grid, "scalar", origin, normal);
                let jitter = 1.0 + 0.03 * (2.0 * rng.gen::<f64>() - 1.0);
                let before = world.now(0);
                world.compute(0, (3.0e-8 * out.cells_intersected as f64 + 1.0e-5) * jitter);
                samples.push(SliceSample {
                    cells_intersected: out.cells_intersected as f64,
                    seconds: world.now(0) - before,
                });
            }
        }
        (Self::fit_samples(&samples), samples)
    }

    /// Measure real wall-clock slices across grid sizes and plane
    /// orientations, then fit: one warmed measurement per configuration, no
    /// retries — callers opting into wall-clock calibration own the noise.
    pub fn calibrate_wall_clock(sizes: &[usize]) -> (SliceModel, Vec<SliceSample>) {
        let mut samples = Vec::new();
        for &n in sizes {
            let grid = field_grid(FieldKind::Turbulence, [n; 3]);
            for (origin, normal) in slice_plane_sweep() {
                // xlint::allow(X014): slice_grid only panics when the named
                // point field is absent; field_grid above always adds "scalar".
                let _warm = slice_grid(&grid, "scalar", origin, normal);
                // xlint::allow(X014): same invariant as the warm-up line above.
                let out = slice_grid(&grid, "scalar", origin, normal);
                samples.push(SliceSample {
                    cells_intersected: out.cells_intersected as f64,
                    seconds: out.seconds,
                });
            }
        }
        (Self::fit_samples(&samples), samples)
    }

    /// Predicted seconds to slice a grid intersecting ~`cells` cells.
    pub fn predict(&self, cells: f64) -> f64 {
        self.fit.predict(&[cells, 1.0]).max(0.0)
    }

    /// A-priori estimate for an N^3 grid (plane hits O(N^2) cells; the 1.5
    /// factor covers oblique planes).
    pub fn predict_for_grid(&self, n: usize) -> f64 {
        self.predict(1.5 * (n * n) as f64)
    }
}

/// Constraints a simulation registers with the adaptive layer
/// (Section 6.3's list: time, memory, output requirements).
#[derive(Debug, Clone)]
pub struct Constraints {
    /// Maximum seconds per visualization invocation.
    pub time_budget_s: f64,
    /// Maximum bytes of visualization scratch memory.
    pub memory_limit_bytes: usize,
    /// Images wanted per invocation.
    pub images: usize,
    /// Smallest acceptable image side.
    pub min_image_side: u32,
    /// Largest useful image side.
    pub max_image_side: u32,
}

/// What the planner decided.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Chosen renderer.
    pub renderer: RendererKind,
    /// Chosen image side (pixels per axis).
    pub image_side: u32,
    /// Predicted total seconds for the invocation.
    pub expected_seconds: f64,
    /// Predicted scratch-memory bytes.
    pub expected_bytes: usize,
}

/// The adaptive layer: owns fitted models and picks configurations.
pub struct AdaptivePlanner {
    /// Fitted single-node + compositing models.
    pub set: ModelSet,
    /// Workload-mapping constants for feature estimation.
    pub constants: MappingConstants,
}

impl AdaptivePlanner {
    /// Build a planner from fitted models and mapping constants.
    pub fn new(set: ModelSet, constants: MappingConstants) -> AdaptivePlanner {
        AdaptivePlanner { set, constants }
    }

    /// Estimated scratch bytes for a renderer at an image size (framebuffer +
    /// renderer-specific buffers; volume rendering pays the sample slab).
    fn bytes_estimate(&self, renderer: RendererKind, side: u32, cells_per_task: usize) -> usize {
        let px = side as usize * side as usize;
        match renderer {
            // Color + depth + hit records (~48 B/ray) plus BVH (~64 B/tri).
            RendererKind::RayTracing => px * 48 + 12 * cells_per_task * cells_per_task * 64,
            // Tiles + bins.
            RendererKind::Rasterization => px * 24 + 12 * cells_per_task * cells_per_task * 8,
            // Framebuffer + one pass of the sample slab (400 samples deep).
            RendererKind::VolumeRendering => px * 20 + px * 400 * 4,
        }
    }

    /// Choose, for each candidate renderer, the largest image side whose
    /// total predicted cost fits the constraints; return the best plan
    /// (largest image; ties broken by speed). `None` if nothing fits.
    pub fn plan(&self, cells_per_task: usize, tasks: usize, c: &Constraints) -> Option<Plan> {
        let mut best: Option<Plan> = None;
        for renderer in
            [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
        {
            // Binary search the largest feasible image side.
            let feasible = |side: u32| -> Option<Plan> {
                let cfg = RenderConfig {
                    renderer,
                    cells_per_task,
                    pixels: side as usize * side as usize,
                    tasks,
                };
                let build = self.set.predict_build_seconds(&cfg, &self.constants);
                let per_frame = self.set.predict_frame_seconds(&cfg, &self.constants);
                let total = build + per_frame * c.images as f64;
                let bytes = self.bytes_estimate(renderer, side, cells_per_task);
                (total <= c.time_budget_s && bytes <= c.memory_limit_bytes).then_some(Plan {
                    renderer,
                    image_side: side,
                    expected_seconds: total,
                    expected_bytes: bytes,
                })
            };
            let (mut lo, mut hi) = (c.min_image_side, c.max_image_side);
            // Carry the last feasible plan through the binary search instead
            // of re-probing (and unwrapping) at the end.
            let Some(mut plan) = feasible(lo) else {
                continue;
            };
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if let Some(p) = feasible(mid) {
                    plan = p;
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            best = match best {
                None => Some(plan),
                Some(b)
                    if plan.image_side > b.image_side
                        || (plan.image_side == b.image_side
                            && plan.expected_seconds < b.expected_seconds) =>
                {
                    Some(plan)
                }
                keep => keep,
            };
        }
        best
    }

    /// Fraction of the budget a fixed configuration would consume — the
    /// "registered constraint" check a simulation can make every cycle.
    pub fn budget_fraction(&self, cfg: &RenderConfig, c: &Constraints) -> f64 {
        let t = self.set.predict_build_seconds(cfg, &self.constants)
            + self.set.predict_frame_seconds(cfg, &self.constants) * c.images as f64;
        t / c.time_budget_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_models::toy_model_set;

    #[test]
    fn slice_model_fits_and_predicts() {
        let (model, samples) = SliceModel::calibrate(&[12, 20, 28]);
        assert!(samples.len() >= 12);
        // The simulated clock charges the planted law plus a seeded ±3%
        // jitter, so the fit must be tight — and deterministic, so this
        // threshold can be strict without any retry loop.
        assert!(model.fit.r_squared > 0.95, "R^2 = {}", model.fit.r_squared);
        // Bigger grids cost more.
        assert!(model.predict_for_grid(64) > model.predict_for_grid(16));
        assert!(model.predict(0.0) >= 0.0);
        // Same sizes, same clock: calibration is bit-reproducible.
        let (again, _) = SliceModel::calibrate(&[12, 20, 28]);
        assert_eq!(model.fit.coeffs, again.fit.coeffs);
    }

    /// Opt-in wall-clock smoke test (`cargo test -- --ignored`): the real
    /// measurement path still produces a usable fit on a quiet machine. The
    /// threshold is loose because a single unretried wall-clock measurement
    /// owns whatever scheduler noise the machine injects.
    #[test]
    #[ignore = "wall-clock timing; run explicitly with --ignored on a quiet machine"]
    fn slice_model_wall_clock_smoke() {
        let (model, samples) = SliceModel::calibrate_wall_clock(&[12, 20, 28]);
        assert!(samples.len() >= 12);
        assert!(model.fit.r_squared > 0.3, "R^2 = {}", model.fit.r_squared);
        assert!(model.predict_for_grid(64) > model.predict_for_grid(16));
    }

    #[test]
    fn planner_respects_time_budget() {
        let planner = AdaptivePlanner::new(toy_model_set(), MappingConstants::default());
        let c = Constraints {
            time_budget_s: 10.0,
            memory_limit_bytes: usize::MAX,
            images: 100,
            min_image_side: 128,
            max_image_side: 8192,
        };
        let plan = planner.plan(200, 32, &c).expect("should fit something");
        assert!(plan.expected_seconds <= 10.0);
        assert!(plan.image_side >= 128);
        // A tighter budget must never produce a *larger* image.
        let tight = Constraints { time_budget_s: 0.5, ..c.clone() };
        if let Some(p2) = planner.plan(200, 32, &tight) {
            assert!(p2.image_side <= plan.image_side);
            assert!(p2.expected_seconds <= 0.5);
        }
    }

    #[test]
    fn planner_respects_memory_cap() {
        let planner = AdaptivePlanner::new(toy_model_set(), MappingConstants::default());
        let c = Constraints {
            time_budget_s: 1e9,
            memory_limit_bytes: 64 << 20, // 64 MiB
            images: 1,
            min_image_side: 64,
            max_image_side: 8192,
        };
        let plan = planner.plan(100, 8, &c).expect("fits");
        assert!(plan.expected_bytes <= 64 << 20);
        // Volume rendering's sample slab makes it memory-heavy: at this cap
        // the chosen side must be well below the max.
        assert!(plan.image_side < 8192);
    }

    #[test]
    fn planner_returns_none_when_nothing_fits() {
        let planner = AdaptivePlanner::new(toy_model_set(), MappingConstants::default());
        let c = Constraints {
            time_budget_s: 1e-9,
            memory_limit_bytes: 1,
            images: 1000,
            min_image_side: 512,
            max_image_side: 4096,
        };
        assert!(planner.plan(300, 64, &c).is_none());
    }

    #[test]
    fn budget_fraction_scales_with_images() {
        let planner = AdaptivePlanner::new(toy_model_set(), MappingConstants::default());
        let cfg = RenderConfig {
            renderer: RendererKind::Rasterization,
            cells_per_task: 100,
            pixels: 1 << 20,
            tasks: 16,
        };
        let one = Constraints {
            time_budget_s: 60.0,
            memory_limit_bytes: usize::MAX,
            images: 1,
            min_image_side: 64,
            max_image_side: 4096,
        };
        let many = Constraints { images: 100, ..one.clone() };
        let f1 = planner.budget_fraction(&cfg, &one);
        let f100 = planner.budget_fraction(&cfg, &many);
        assert!(f100 > f1 * 50.0);
    }
}
