//! Live model refinement: measured runtimes accumulate in sliding windows,
//! and each model family is periodically re-solved over its window through
//! [`Family::fit`] (i.e. [`perfmodel::regression::LinearRegression`]),
//! replacing the corresponding model in the scheduler's [`ModelSet`].
//!
//! A windowed re-solve — rather than, say, exponential smoothing of the
//! coefficients — keeps the refit exactly the paper's estimator, just over
//! recent data, so the residual statistics stay meaningful.

use perfmodel::feasibility::ModelSet;
use perfmodel::models::{Family, FamilyRow, Feed};
use perfmodel::sample::{Obs, Sample};
use std::collections::VecDeque;

/// What one [`OnlineRefit::refit_into`] pass did, for scheduler and repro
/// reporting. Names are in [`Family::ALL`] order.
#[derive(Debug, Clone, Default)]
pub struct RefitReport {
    /// Families whose model was replaced by a window re-solve.
    pub refitted: Vec<&'static str>,
    /// Families whose candidate re-solve was rejected as implausible (a
    /// negative coefficient — the paper's validity check); the prior model
    /// was kept.
    pub rejected: Vec<&'static str>,
    /// Installed fits that carried a condition warning (rank-deficient
    /// window, ridge fallback).
    pub condition_warnings: Vec<&'static str>,
}

/// The family whose window `row`'s samples slide through. Families fed by
/// one measurement share its window, so `window` caps the measurements kept,
/// not the samples per family: the BVH-build model reads the ray-tracing
/// window, and every compositing wire shares the dense family's.
fn window_owner(row: &FamilyRow) -> Family {
    match row.feed {
        Feed::Build => Family::Rt,
        Feed::Composite(_) => Family::Comp,
        _ => row.family,
    }
}

/// Sliding observation windows for every model family in [`Family::ALL`].
#[derive(Debug, Clone)]
pub struct OnlineRefit {
    window: usize,
    min_samples: usize,
    /// Indexed by [`window_owner`]; a family that shares another's window
    /// leaves its own slot empty.
    windows: [VecDeque<Sample>; Family::ALL.len()],
}

impl OnlineRefit {
    /// `window` caps each window's retained samples; `min_samples` is the
    /// floor below which a family keeps its prior model (re-solving a 3-term
    /// regression on 2 points would be noise, not refinement).
    pub fn new(window: usize, min_samples: usize) -> OnlineRefit {
        OnlineRefit {
            window: window.max(1),
            min_samples: min_samples.max(4),
            windows: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Record a measurement in the window of the family it feeds. A sample
    /// no family is fitted on (a phase without a model) is ignored — its
    /// cost is already captured by the whole-frame models.
    pub fn observe(&mut self, s: Sample) {
        let Some(row) = Family::ALL.iter().find(|r| r.family.routes(Obs::from(&s))) else { return };
        let q = &mut self.windows[window_owner(row) as usize];
        if q.len() == self.window {
            q.pop_front();
        }
        q.push_back(s);
    }

    /// Total buffered observations, for reporting.
    pub fn len(&self) -> usize {
        self.windows.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-solve every family whose window holds at least `min_samples` of
    /// the samples it is fitted on (its [`Feed`]: the BVH-build model counts
    /// only samples with a *measured* build, each compositing model only its
    /// own exchange wire), installing the re-solve in `set` when it is
    /// plausible (see [`RefitReport`]). Families below the floor keep their
    /// prior; an implausible candidate (negative marginal cost) must not
    /// replace a working model with one whose negative terms the predictor
    /// would silently clip to zero.
    pub fn refit_into(&self, set: &mut ModelSet) -> RefitReport {
        let mut rep = RefitReport::default();
        for row in &Family::ALL {
            let q = &self.windows[window_owner(row) as usize];
            let fed: Vec<Obs> = q.iter().map(Obs::from).filter(|&s| row.family.routes(s)).collect();
            if fed.len() < self.min_samples {
                continue;
            }
            let candidate = row.family.fit(fed);
            if candidate.fit.all_coeffs_nonnegative() {
                if candidate.fit.condition_warning {
                    rep.condition_warnings.push(row.name);
                }
                rep.refitted.push(row.name);
                set.install(candidate);
            } else {
                rep.rejected.push(row.name);
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::mapping::{map_inputs, MappingConstants, RenderConfig};
    use perfmodel::sample::{
        CompositeSample, CompositeWire, PassSample, RenderSample, RendererKind,
    };

    fn prior() -> ModelSet {
        ModelSet::from_coeffs(
            "test",
            &[
                (Family::Rt, &[1e-6, 1e-6, 1.0]),
                (Family::RtBuild, &[1e-6, 1.0]),
                (Family::Rast, &[1e-6, 1e-6, 1.0]),
                (Family::Vr, &[1e-6, 1e-6, 1.0]),
                (Family::Comp, &[1e-6, 1e-6, 1.0]),
            ],
        )
    }

    #[test]
    fn refit_recovers_true_model_from_window() {
        // Observations generated from a known VR law; the refit must recover
        // predictions from the window even though the prior is far off.
        let k = MappingConstants::default();
        let truth = |s: &RenderSample| {
            2e-10 * s.active_pixels * s.cells_spanned
                + 1e-9 * s.active_pixels * s.samples_per_ray
                + 1e-2
        };
        let mut refit = OnlineRefit::new(64, 8);
        let mut cfgs = Vec::new();
        for (i, side) in
            [128u32, 256, 512, 640, 768, 896, 1024, 1152, 1280, 1408].into_iter().enumerate()
        {
            let cfg = RenderConfig {
                renderer: RendererKind::VolumeRendering,
                cells_per_task: 40 + 4 * i, // vary data size: full-rank features
                pixels: (side as usize) * (side as usize),
                tasks: 8,
            };
            let mut s = map_inputs(&cfg, &k);
            s.render_seconds = truth(&s);
            refit.observe(Sample::Render(s));
            cfgs.push(cfg);
        }
        let mut set = prior();
        let before = set.predict_frame_seconds(&cfgs[9], &k);
        refit.refit_into(&mut set);
        let inputs = map_inputs(&cfgs[9], &k);
        let after = set.get(Family::Vr).unwrap().predict(&inputs);
        let want = truth(&inputs);
        assert!((after - want).abs() / want < 1e-6, "refit {after} vs truth {want}");
        assert!((before - want).abs() / want > 1.0, "prior should have been far off");
    }

    /// The ROADMAP ill-conditioning caveat, reproduced at the refit layer: a
    /// steady-state window with a *constant* data size makes the AP*CS and
    /// AP*SPR regressors exactly proportional at ~1e7..1e9 magnitude. The
    /// seed solver's absolute 1e-12 pivot tolerance passed cancellation noise
    /// as a pivot and split the pair into huge opposite-signed coefficients;
    /// the scaled ridge solve must keep the refit stable, plausible,
    /// accurate — and flagged in the report.
    #[test]
    fn constant_data_size_window_refits_stably() {
        let k = MappingConstants::default();
        let truth = |s: &RenderSample| {
            2e-10 * s.active_pixels * s.cells_spanned
                + 1e-9 * s.active_pixels * s.samples_per_ray
                + 1e-2
        };
        let mut refit = OnlineRefit::new(64, 8);
        let mut cfgs = Vec::new();
        for side in [512u32, 768, 1024, 1536, 2048, 2560, 3072, 4096] {
            let cfg = RenderConfig {
                renderer: RendererKind::VolumeRendering,
                cells_per_task: 200, // constant: the steady-state window
                pixels: (side as usize) * (side as usize),
                tasks: 64,
            };
            let mut s = map_inputs(&cfg, &k);
            s.render_seconds = truth(&s);
            refit.observe(Sample::Render(s));
            cfgs.push(cfg);
        }
        let mut set = prior();
        let rep = refit.refit_into(&mut set);
        assert!(rep.refitted.contains(&"volume_rendering"), "{rep:?}");
        assert!(rep.condition_warnings.contains(&"volume_rendering"), "{rep:?}");
        let vr = &set.get(Family::Vr).unwrap().fit;
        assert!(vr.condition_warning);
        assert!(vr.effective_rank < vr.coeffs.len());
        assert!(vr.all_coeffs_nonnegative(), "{:?}", vr.coeffs);
        for &c in &vr.coeffs {
            assert!(c.is_finite() && c.abs() < 1.0, "coefficient exploded: {c:e}");
        }
        for cfg in &cfgs {
            let inputs = map_inputs(cfg, &k);
            let want = truth(&inputs);
            let got = set.get(Family::Vr).unwrap().predict(&inputs);
            assert!((got - want).abs() / want < 1e-3, "refit {got} vs truth {want}");
        }
    }

    /// A planted-law window for `family`: samples whose measured seconds
    /// follow a known non-negative law over the family's inputs, plus the
    /// relative tolerance the refit must recover it to.
    fn planted_window(family: Family) -> (Vec<Sample>, f64) {
        let render = |renderer, build: fn(&RenderSample) -> f64, law: fn(&RenderSample) -> f64| {
            let k = MappingConstants::default();
            [128usize, 256, 512, 640, 768, 896, 1024, 1152, 1280, 1408]
                .into_iter()
                .enumerate()
                .map(|(i, side)| {
                    // Data size varies with image size: full-rank features.
                    let cfg = RenderConfig {
                        renderer,
                        cells_per_task: 40 + 4 * i,
                        pixels: side * side,
                        tasks: 8,
                    };
                    let mut s = map_inputs(&cfg, &k);
                    s.render_seconds = law(&s);
                    s.build_seconds = build(&s);
                    Sample::Render(s)
                })
                .collect::<Vec<Sample>>()
        };
        let rt_law = |s: &RenderSample| {
            3e-8 * s.active_pixels * s.objects.log2() + 5e-7 * s.active_pixels + 1e-3
        };
        let composite = |wire, shape: &[(f64, usize)], law: fn(f64, f64, f64) -> f64| {
            shape
                .iter()
                .enumerate()
                .map(|(i, &(side, tasks))| {
                    let px = side * side;
                    let ap = px * 0.1 * (1.0 + ((i + 1) % 3) as f64); // AF varies: full rank
                    Sample::Composite(CompositeSample {
                        tasks,
                        pixels: px,
                        avg_active_pixels: ap,
                        seconds: law(ap, px, tasks as f64),
                        wire,
                    })
                })
                .collect::<Vec<Sample>>()
        };
        let barriered: Vec<(f64, usize)> = (1..=8).map(|i| (128.0 * i as f64, 64)).collect();
        let overlapped: Vec<(f64, usize)> =
            (1..=10).map(|i| (128.0 * (1 + i % 4) as f64, 1usize << (i % 7))).collect();
        let pass = |pass: &str, scale: f64, law: fn(f64) -> f64| {
            (1..=10)
                .map(|i| {
                    let w = 5000.0 * i as f64 * scale;
                    Sample::Pass(PassSample { pass: pass.into(), work_units: w, seconds: law(w) })
                })
                .collect::<Vec<Sample>>()
        };
        match family {
            // Hook-driven observations: the build is folded into render time.
            Family::Rt => (render(RendererKind::RayTracing, |_| 0.0, rt_law), 1e-6),
            Family::RtBuild => {
                (render(RendererKind::RayTracing, |s| 2e-8 * s.objects + 5e-4, rt_law), 1e-6)
            }
            Family::Rast => (
                render(
                    RendererKind::Rasterization,
                    |_| 0.0,
                    |s| 4e-9 * s.objects + 4e-10 * s.visible_objects * s.pixels_per_triangle + 1e-3,
                ),
                1e-6,
            ),
            Family::Vr => (
                render(
                    RendererKind::VolumeRendering,
                    |_| 0.0,
                    |s| {
                        2e-10 * s.active_pixels * s.cells_spanned
                            + 1e-9 * s.active_pixels * s.samples_per_ray
                            + 1e-2
                    },
                ),
                1e-6,
            ),
            Family::Comp => (
                composite(CompositeWire::Dense, &barriered, |ap, px, _| {
                    1e-8 * ap + 4e-8 * px + 1e-3
                }),
                1e-6,
            ),
            Family::CompRle => (
                composite(CompositeWire::Compressed, &barriered, |ap, px, _| {
                    2e-8 * ap + 1e-8 * px + 5e-4
                }),
                1e-6,
            ),
            // Including the per-task message-tax term.
            Family::CompDfb => (
                composite(CompositeWire::Dfb, &overlapped, |ap, px, tasks| {
                    3e-8 * ap + 5e-9 * px + 2e-6 * tasks + 2e-4
                }),
                1e-5,
            ),
            Family::PassAo => (pass("ambient_occlusion", 1.0, |w| 2.5e-8 * w + 4e-4), 1e-6),
            Family::PassShadows => (pass("shadows", 0.4, |w| 1.2e-8 * w + 2e-4), 1e-6),
        }
    }

    /// The seconds `family` is fitted against, as recorded in `s`.
    fn measured(family: Family, s: &Sample) -> f64 {
        match s {
            Sample::Render(s) if family == Family::RtBuild => s.build_seconds,
            Sample::Render(s) => s.render_seconds,
            Sample::Composite(s) => s.seconds,
            Sample::Pass(s) => s.seconds,
        }
    }

    fn assert_recovers(set: &ModelSet, family: Family, window: &[Sample], tol: f64) {
        let m = set.get(family).unwrap_or_else(|| panic!("{family:?} installed"));
        for s in window {
            let (got, want) = (m.predict(s), measured(family, s));
            assert!((got - want).abs() / want < tol, "{family:?}: refit {got} vs truth {want}");
        }
    }

    /// For each family, a planted-law window installs exactly that family
    /// (and `rt` + `rt_build` for a ray-tracing window with measured
    /// builds), recovering the law; samples no family is fitted on are not
    /// windowed; and a refit over every window reports in table order.
    #[test]
    fn each_family_refits_from_its_own_window() {
        let unrouted =
            [Sample::Pass(PassSample { pass: "intersect".into(), work_units: 5e3, seconds: 1.0 })];
        let mut all = OnlineRefit::new(64, 4);
        for row in &Family::ALL {
            let (window, tol) = planted_window(row.family);
            let mut refit = OnlineRefit::new(64, 4);
            for s in window.iter().chain(&unrouted) {
                refit.observe(s.clone());
                all.observe(s.clone());
            }
            assert_eq!(refit.len(), window.len(), "{}", row.name);
            let mut set = prior();
            let rep = refit.refit_into(&mut set);
            let expected = match row.family {
                Family::RtBuild => vec!["ray_tracing", row.name],
                _ => vec![row.name],
            };
            assert_eq!(rep.refitted, expected, "{rep:?}");
            assert!(rep.rejected.is_empty(), "{rep:?}");
            assert_recovers(&set, row.family, &window, tol);
            // No other family's samples were observed: those stay put.
            for other in Family::ALL.iter().filter(|o| !expected.contains(&o.name)) {
                let (was, is) = (prior(), set.get(other.family).map(|m| m.fit.coeffs.clone()));
                assert_eq!(
                    is,
                    was.get(other.family).map(|m| m.fit.coeffs.clone()),
                    "{}",
                    other.name
                );
            }
        }
        // Every window at once (the three compositing wires interleaved in
        // their shared window): each family recovers the law of its own
        // samples, reported in `Family::ALL` order.
        let mut set = prior();
        let rep = all.refit_into(&mut set);
        assert_eq!(rep.refitted, Family::ALL.map(|r| r.name), "{rep:?}");
        for row in &Family::ALL[Family::Rast as usize..] {
            let (window, tol) = planted_window(row.family);
            assert_recovers(&set, row.family, &window, tol);
        }
        // The pass-keyed predictor reaches the installed models at points
        // off the window, and answers `None` where no family exists.
        for w in [7500.0, 40000.0] {
            let (ao, sh) = (2.5e-8 * w + 4e-4, 1.2e-8 * w + 2e-4);
            let got = set.predict_pass_seconds("ambient_occlusion", w).unwrap();
            assert!((got - ao).abs() / ao < 1e-6, "{got}");
            let got = set.predict_pass_seconds("shadows", w).unwrap();
            assert!((got - sh).abs() / sh < 1e-6, "{got}");
        }
        assert!(set.predict_pass_seconds("intersect", 1.0).is_none());
    }

    /// A window whose re-solve carries a negative coefficient (here: cost
    /// *decreasing* with active pixels) must not replace the prior — the
    /// predictor would silently clip the negative term to zero and schedule
    /// on fiction.
    #[test]
    fn implausible_refits_keep_the_prior() {
        let mut refit = OnlineRefit::new(64, 4);
        for i in 1..=8usize {
            let ap = 1e4 * i as f64;
            refit.observe(Sample::Composite(CompositeSample {
                tasks: 64,
                pixels: (1 << 20) as f64,
                avg_active_pixels: ap,
                seconds: 0.2 - 1e-6 * ap,
                wire: CompositeWire::Dense,
            }));
        }
        let mut set = prior();
        let before = set.get(Family::Comp).unwrap().fit.coeffs.clone();
        let rep = refit.refit_into(&mut set);
        let after = &set.get(Family::Comp).unwrap().fit.coeffs;
        assert_eq!(*after, before, "implausible candidate must keep prior");
        assert!(rep.rejected.contains(&"compositing"), "{rep:?}");
        assert!(!rep.refitted.contains(&"compositing"));
    }

    #[test]
    fn small_windows_keep_the_prior() {
        let k = MappingConstants::default();
        let mut refit = OnlineRefit::new(64, 8);
        let cfg = RenderConfig {
            renderer: RendererKind::Rasterization,
            cells_per_task: 40,
            pixels: 256 * 256,
            tasks: 8,
        };
        for _ in 0..3 {
            let mut s = map_inputs(&cfg, &k);
            s.render_seconds = 0.5;
            refit.observe(Sample::Render(s));
        }
        let mut set = prior();
        let before = set.get(Family::Rast).unwrap().fit.coeffs.clone();
        refit.refit_into(&mut set);
        let after = &set.get(Family::Rast).unwrap().fit.coeffs;
        assert_eq!(*after, before, "3 < min_samples must not refit");
    }

    #[test]
    fn window_slides() {
        let k = MappingConstants::default();
        let mut refit = OnlineRefit::new(4, 4);
        let cfg = RenderConfig {
            renderer: RendererKind::RayTracing,
            cells_per_task: 40,
            pixels: 128 * 128,
            tasks: 8,
        };
        for i in 0..10 {
            let mut s = map_inputs(&cfg, &k);
            s.render_seconds = i as f64;
            refit.observe(Sample::Render(s));
        }
        assert_eq!(refit.len(), 4);
        let seconds = |s: Option<&Sample>| match s {
            Some(Sample::Render(s)) => s.render_seconds,
            other => panic!("not a render sample: {other:?}"),
        };
        let rt = &refit.windows[Family::Rt as usize];
        assert_eq!(seconds(rt.back()), 9.0);
        assert_eq!(seconds(rt.front()), 6.0);
    }
}
