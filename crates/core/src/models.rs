//! The performance-model definitions of Section 5.5 / 5.6. Every model is the
//! same shape — a feature row times a fitted coefficient vector (Eq. 5.4) —
//! so a model *family* is a row of [`Family::ALL`] plus its feature row in
//! [`Family::features`], and nothing else: fitting, prediction, persistence,
//! the model set and the online refit are all loops or lookups over the table.
//!
//! * Ray tracing:   `T_RT  = (c0*O + c1) + (c2*AP*log2 O + c3*AP + c4)`
//! * Rasterization: `T_RAST = c0*O + c1*(VO*PPT) + c2`
//! * Volume:        `T_VR  = c0*(AP*CS) + c1*(AP*SPR) + c2`
//! * Compositing:   `T_COMP = c0*avg(AP) + c1*Pixels + c2`
//! * Total:         `T_total = max_tasks(T_LR) + T_COMP`

use crate::regression::LinearRegression;
use crate::sample::{CompositeWire, Obs, RenderSample, RendererKind};

/// A performance-model family. The discriminant is the family's index into
/// [`Family::ALL`] (and into a `ModelSet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Ray-tracing render phase. The BVH build is fitted separately so the
    /// amortized-build use cases of Section 5.9 can drop it.
    Rt,
    /// Ray-tracing BVH build: `T_build = c0*O + c1`.
    RtBuild,
    /// Rasterization.
    Rast,
    /// Volume rendering.
    Vr,
    /// Dense-exchange compositing (the paper's form).
    Comp,
    /// Run-length-compressed exchange. The RLE wire ships only active-pixel
    /// spans, so wire time tracks active pixels rather than the full image;
    /// following IceT's active-pixel accounting the model adds the average
    /// active *fraction* `AF = avg(AP) / Pixels`:
    /// `T_COMP = c0*avg(AP) + c1*Pixels + c2*AF + c3`.
    ///
    /// Under the paper's Section 5.8 mapping AF is constant per configuration
    /// family (fill / tasks^(1/3)), which makes the AF column collinear with
    /// the intercept over a single-configuration window — exactly the rank
    /// deficiency the ridge fallback in [`LinearRegression::fit`] absorbs.
    CompRle,
    /// Asynchronous Distributed FrameBuffer exchange. The DFB has no
    /// barriered rounds; its time is dominated by per-tile message handling
    /// (the tile count scales with `Pixels`, the per-rank scatter fan-out
    /// with `Tasks`) plus the fold compute over active pixels:
    /// `T_COMP = c0*avg(AP) + c1*Pixels + c2*Tasks + c3`.
    ///
    /// The explicit `Tasks` column is what lets the fit predict the
    /// crossover against radix-k: the round exchange pays `O(log Tasks)`
    /// barriered rounds while the DFB pays a linear-in-`Tasks` message tax
    /// that overlapped transfers amortize at scale.
    CompDfb,
}

/// Which measured samples feed a family: the sample kind, plus the key that
/// routes a sample of that kind to this family and no other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Render samples of one renderer (target: render seconds).
    Render(RendererKind),
    /// Ray-tracing render samples with a measured build (target: build
    /// seconds). Hook-driven observations fold the build into render time
    /// and would otherwise collapse the build model to zero.
    Build,
    /// Compositing samples of one exchange wire.
    Composite(CompositeWire),
}

/// One row of [`Family::ALL`]: everything about a family that is data.
#[derive(Debug, Clone, Copy)]
pub struct FamilyRow {
    /// The family this row describes (`ALL[i].family as usize == i`).
    pub family: Family,
    /// Model name used in report tables and persisted records.
    pub name: &'static str,
    /// Record tag in the persisted model file.
    pub tag: &'static str,
    /// Feature names, aligned with the coefficients (the last is the
    /// intercept's `"1"`).
    pub feature_names: &'static [&'static str],
    /// Every model set carries the required families; the optional ones are
    /// present once a fit for them has been installed.
    pub required: bool,
    /// The samples this family is fitted on.
    pub feed: Feed,
}

const fn row(
    family: Family,
    name: &'static str,
    tag: &'static str,
    feature_names: &'static [&'static str],
    required: bool,
    feed: Feed,
) -> FamilyRow {
    FamilyRow { family, name, tag, feature_names, required, feed }
}

impl Family {
    /// The one list of model families, required ones first. Persisted record
    /// order, refit install order and report order all follow it.
    #[rustfmt::skip]
    pub const ALL: [FamilyRow; 7] = [
        row(Family::Rt, "ray_tracing", "rt", &["AP*log2(O)", "AP", "1"], true, Feed::Render(RendererKind::RayTracing)),
        row(Family::RtBuild, "ray_tracing_build", "rt_build", &["O", "1"], true, Feed::Build),
        row(Family::Rast, "rasterization", "rast", &["O", "VO*PPT", "1"], true, Feed::Render(RendererKind::Rasterization)),
        row(Family::Vr, "volume_rendering", "vr", &["AP*CS", "AP*SPR", "1"], true, Feed::Render(RendererKind::VolumeRendering)),
        row(Family::Comp, "compositing", "comp", &["avg(AP)", "Pixels", "1"], true, Feed::Composite(CompositeWire::Dense)),
        row(Family::CompRle, "compositing_compressed", "comp_rle", &["avg(AP)", "Pixels", "AF", "1"], false, Feed::Composite(CompositeWire::Compressed)),
        row(Family::CompDfb, "compositing_dfb", "comp_dfb", &["avg(AP)", "Pixels", "Tasks", "1"], false, Feed::Composite(CompositeWire::Dfb)),
    ];

    /// Number of required families — the leading rows of [`Family::ALL`].
    pub const REQUIRED: usize = {
        let mut n = 0;
        while n < Family::ALL.len() && Family::ALL[n].required {
            n += 1;
        }
        n
    };

    /// This family's row of [`Family::ALL`].
    pub fn row(self) -> &'static FamilyRow {
        &Family::ALL[self as usize]
    }

    /// The whole-frame family of a renderer.
    pub fn for_renderer(renderer: RendererKind) -> Family {
        match renderer {
            RendererKind::RayTracing => Family::Rt,
            RendererKind::Rasterization => Family::Rast,
            RendererKind::VolumeRendering => Family::Vr,
        }
    }

    /// The compositing families that can answer for an exchange wire, the
    /// one fitted on that wire first. A set missing the newer fits degrades
    /// along the chain, which ends at the required dense family.
    pub fn wire_chain(wire: CompositeWire) -> &'static [Family] {
        match wire {
            CompositeWire::Dense => &[Family::Comp],
            CompositeWire::Compressed => &[Family::CompRle, Family::Comp],
            CompositeWire::Dfb => &[Family::CompDfb, Family::CompRle, Family::Comp],
        }
    }

    /// True when `s` is one of the samples this family is fitted on (its
    /// [`Feed`]). At most one family per refit window routes any sample.
    pub fn routes(self, s: Obs<'_>) -> bool {
        match (self.row().feed, s) {
            (Feed::Render(kind), Obs::Render(s)) => s.renderer == kind,
            (Feed::Build, Obs::Render(s)) => {
                s.renderer == RendererKind::RayTracing && s.stats.build_seconds > 0.0
            }
            (Feed::Composite(wire), Obs::Composite(s)) => s.wire == wire,
            _ => false,
        }
    }

    /// The feature row of one observation, aligned with the row's
    /// `feature_names` (the last entry is 1.0 for the intercept).
    pub fn features<'a>(self, s: impl Into<Obs<'a>>) -> Vec<f64> {
        match (self, s.into()) {
            (Family::Rt, Obs::Render(RenderSample { stats: s, .. })) => {
                let log_o = if s.objects > 1.0 { s.objects.log2() } else { 0.0 };
                vec![s.active_pixels * log_o, s.active_pixels, 1.0]
            }
            (Family::RtBuild, Obs::Render(RenderSample { stats: s, .. })) => vec![s.objects, 1.0],
            (Family::Rast, Obs::Render(RenderSample { stats: s, .. })) => {
                vec![s.objects, s.visible_objects * s.pixels_per_triangle, 1.0]
            }
            (Family::Vr, Obs::Render(RenderSample { stats: s, .. })) => {
                vec![s.active_pixels * s.cells_spanned, s.active_pixels * s.samples_per_ray, 1.0]
            }
            (Family::Comp, Obs::Composite(s)) => vec![s.avg_active_pixels, s.pixels, 1.0],
            (Family::CompRle, Obs::Composite(s)) => {
                vec![s.avg_active_pixels, s.pixels, s.avg_active_pixels / s.pixels.max(1.0), 1.0]
            }
            (Family::CompDfb, Obs::Composite(s)) => {
                vec![s.avg_active_pixels, s.pixels, s.tasks as f64, 1.0]
            }
            (family, other) => {
                debug_assert!(false, "{family:?} has no feature row over {other:?}");
                Vec::new()
            }
        }
    }

    /// Fit this family's coefficients over a corpus of its sample kind.
    pub fn fit<'a, I>(self, samples: I) -> FittedLinearModel
    where
        I: IntoIterator,
        I::Item: Into<Obs<'a>>,
    {
        let (xs, ys) = self.rows(samples);
        FittedLinearModel { family: self, fit: LinearRegression::fit(&xs, &ys) }
    }

    /// [`Family::fit`] anchored at `prior`'s coefficients
    /// ([`LinearRegression::fit_toward`]): the online refit's estimator.
    pub fn fit_toward<'a, I>(self, samples: I, prior: &[f64]) -> FittedLinearModel
    where
        I: IntoIterator,
        I::Item: Into<Obs<'a>>,
    {
        let (xs, ys) = self.rows(samples);
        FittedLinearModel { family: self, fit: LinearRegression::fit_toward(&xs, &ys, prior) }
    }

    /// Feature rows and targets of `samples`.
    fn rows<'a, I>(self, samples: I) -> (Vec<Vec<f64>>, Vec<f64>)
    where
        I: IntoIterator,
        I::Item: Into<Obs<'a>>,
    {
        samples
            .into_iter()
            .map(|s| {
                let s = s.into();
                (self.features(s), self.target(s))
            })
            .unzip()
    }

    /// The measured seconds this family is fitted against.
    fn target(self, s: Obs<'_>) -> f64 {
        match s {
            Obs::Render(s) if self.row().feed == Feed::Build => s.stats.build_seconds,
            Obs::Render(s) => s.stats.render_seconds,
            Obs::Composite(s) => s.seconds,
        }
    }
}

/// A fitted model: a family plus its regression results.
#[derive(Debug, Clone)]
pub struct FittedLinearModel {
    /// The family whose feature row the coefficients multiply.
    pub family: Family,
    /// Regression coefficients and fit diagnostics.
    pub fit: LinearRegression,
}

impl FittedLinearModel {
    /// A hand-built model with known coefficients and a clean full-rank fit
    /// (for fixtures and synthetic ground truths).
    pub fn from_coeffs(family: Family, coeffs: &[f64]) -> FittedLinearModel {
        FittedLinearModel {
            family,
            fit: LinearRegression::with_stats(coeffs.to_vec(), 1.0, 0.0, 10),
        }
    }

    /// Model name used in report tables and persisted records.
    pub fn name(&self) -> &'static str {
        self.family.row().name
    }

    /// Feature names aligned with the coefficients.
    pub fn feature_names(&self) -> &'static [&'static str] {
        self.family.row().feature_names
    }

    /// Coefficient of determination of the fit.
    pub fn r_squared(&self) -> f64 {
        self.fit.r_squared
    }

    /// Fitted coefficients, aligned with [`Self::feature_names`].
    pub fn coeffs(&self) -> &[f64] {
        &self.fit.coeffs
    }

    /// Predicted seconds for one observation's inputs.
    pub fn predict<'a>(&self, s: impl Into<Obs<'a>>) -> f64 {
        self.fit.predict(&self.family.features(s))
    }
}

/// The multi-node total: `max_tasks(T_LR) + T_COMP` (Equation 5.4).
pub fn total_time(per_task_render_seconds: &[f64], compositing_seconds: f64) -> f64 {
    per_task_render_seconds.iter().copied().fold(0.0, f64::max) + compositing_seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::CompositeSample;
    use render::RenderStats;

    #[test]
    fn table_is_indexed_by_family_and_required_rows_lead() {
        for (i, row) in Family::ALL.iter().enumerate() {
            assert_eq!(row.family as usize, i, "{}", row.name);
            assert_eq!(row.required, i < Family::REQUIRED, "{}", row.name);
            assert_eq!(row.feature_names.last(), Some(&"1"), "{}", row.name);
            // Tags, names and feeds identify a family uniquely.
            for other in &Family::ALL[..i] {
                assert_ne!(row.tag, other.tag);
                assert_ne!(row.name, other.name);
                assert_ne!(row.feed, other.feed);
            }
        }
        assert_eq!(Family::REQUIRED, 5);
    }

    fn synth_rt_sample(o: f64, ap: f64, c: [f64; 3], build: [f64; 2]) -> RenderSample {
        RenderSample {
            renderer: RendererKind::RayTracing,
            device: "parallel",
            source: "synthetic",
            stats: RenderStats {
                objects: o,
                active_pixels: ap,
                build_seconds: build[0] * o + build[1],
                render_seconds: c[0] * ap * o.log2() + c[1] * ap + c[2],
                ..RenderStats::default()
            },
            pixels: ap * 2.0,
            tasks: 1,
        }
    }

    #[test]
    fn rt_model_recovers_planted_law() {
        let c = [3e-8, 5e-7, 1e-3];
        let b = [2e-8, 5e-4];
        let mut samples = Vec::new();
        for i in 1..40 {
            let o = 1e4 * i as f64;
            let ap = 500.0 * ((i * 7) % 23 + 1) as f64;
            samples.push(synth_rt_sample(o, ap, c, b));
        }
        let fitted = Family::Rt.fit(&samples);
        assert!(fitted.r_squared() > 0.99999, "r2 = {}", fitted.r_squared());
        assert!((fitted.coeffs()[0] - c[0]).abs() / c[0] < 1e-6);
        assert!((fitted.coeffs()[1] - c[1]).abs() / c[1] < 1e-6);
        let build_fit = Family::RtBuild.fit(&samples);
        assert!((build_fit.coeffs()[0] - b[0]).abs() / b[0] < 1e-6);
        // Prediction round-trips.
        let p = fitted.predict(&samples[3]);
        assert!((p - samples[3].stats.render_seconds).abs() < 1e-9);
    }

    #[test]
    fn vr_model_recovers_planted_law() {
        let c = [4e-9, 6e-9, 1e-2];
        let mut samples = Vec::new();
        for i in 1..30 {
            let ap = 1e4 * i as f64;
            let cs = 100.0 + (i % 7) as f64 * 30.0;
            let spr = 200.0 + (i % 5) as f64 * 50.0;
            samples.push(RenderSample {
                renderer: RendererKind::VolumeRendering,
                device: "serial",
                source: "synthetic",
                stats: RenderStats {
                    objects: 1e6,
                    active_pixels: ap,
                    samples_per_ray: spr,
                    cells_spanned: cs,
                    render_seconds: c[0] * ap * cs + c[1] * ap * spr + c[2],
                    ..RenderStats::default()
                },
                pixels: ap * 1.8,
                tasks: 1,
            });
        }
        let fitted = Family::Vr.fit(&samples);
        assert!(fitted.r_squared() > 0.9999);
        assert!((fitted.coeffs()[2] - c[2]).abs() < 1e-6);
        assert!(fitted.fit.all_coeffs_nonnegative());
    }

    #[test]
    fn composite_model_fits() {
        let c = [2e-8, 5e-8, 1e-3];
        let samples: Vec<CompositeSample> = (1..25)
            .map(|i| {
                let px = 1e5 * i as f64;
                let ap = px * 0.3 / (1.0 + (i % 4) as f64);
                CompositeSample {
                    tasks: 1 << (i % 6),
                    pixels: px,
                    avg_active_pixels: ap,
                    seconds: c[0] * ap + c[1] * px + c[2],
                    wire: CompositeWire::Dense,
                }
            })
            .collect();
        let fitted = Family::Comp.fit(&samples);
        assert!(fitted.r_squared() > 0.9999);
        let pred = fitted.predict(&samples[5]);
        assert!((pred - samples[5].seconds).abs() < 1e-9);
    }

    #[test]
    fn compressed_composite_model_tracks_active_fraction() {
        // Planted law where the wire term scales with active pixels and the
        // active fraction shifts the constant (the RLE span overhead).
        let c = [6e-8, 1e-8, 2e-3, 5e-4];
        let samples: Vec<CompositeSample> = (1..30)
            .map(|i| {
                let px = 8e4 * i as f64;
                let af = 0.1 + 0.8 * ((i * 5) % 9) as f64 / 9.0;
                let ap = af * px;
                CompositeSample {
                    tasks: 1 << (i % 6),
                    pixels: px,
                    avg_active_pixels: ap,
                    seconds: c[0] * ap + c[1] * px + c[2] * af + c[3],
                    wire: CompositeWire::Compressed,
                }
            })
            .collect();
        let fitted = Family::CompRle.fit(&samples);
        assert!(fitted.r_squared() > 0.9999, "r2 = {}", fitted.r_squared());
        assert!(!fitted.fit.condition_warning);
        let pred = fitted.predict(&samples[7]);
        assert!((pred - samples[7].seconds).abs() / samples[7].seconds < 1e-6);
    }

    #[test]
    fn dfb_composite_model_recovers_message_tax() {
        // Planted law with a per-task (message fan-out) term the barriered
        // models cannot express.
        let c = [4e-8, 9e-9, 2e-6, 3e-4];
        let samples: Vec<CompositeSample> = (1..30)
            .map(|i| {
                let px = 5e4 * (1 + i % 5) as f64;
                let tasks = 1usize << (i % 8);
                let ap = px * 0.3 / (1.0 + (i % 3) as f64);
                CompositeSample {
                    tasks,
                    pixels: px,
                    avg_active_pixels: ap,
                    seconds: c[0] * ap + c[1] * px + c[2] * tasks as f64 + c[3],
                    wire: CompositeWire::Dfb,
                }
            })
            .collect();
        let fitted = Family::CompDfb.fit(&samples);
        assert!(fitted.r_squared() > 0.9999, "r2 = {}", fitted.r_squared());
        assert!((fitted.coeffs()[2] - c[2]).abs() / c[2] < 1e-6);
        let pred = fitted.predict(&samples[9]);
        assert!((pred - samples[9].seconds).abs() / samples[9].seconds < 1e-6);
    }

    #[test]
    fn total_time_is_max_plus_composite() {
        assert_eq!(total_time(&[0.1, 0.5, 0.2], 0.05), 0.55);
        assert_eq!(total_time(&[], 0.05), 0.05);
    }
}
