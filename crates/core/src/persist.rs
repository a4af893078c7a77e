//! Model persistence: fitted model sets + mapping constants to a plain text
//! format ([`to_text`]) and back ([`from_text`]), so a simulation can
//! calibrate once (offline, like the paper's study) and reuse the models
//! every run — the workflow the adaptive layer of Chapter VI assumes.
//!
//! Format: one record per line, `kind|name|field=value|...`, chosen over a
//! serde format to keep the artifact diffable and the crate dependency-free.
//!
//! Version 2 adds a `format|2` header line, per-model solver diagnostics
//! (`warn=`, `rank=`), and records for the optional model families. Which
//! records exist, their tags, names and coefficient counts all come from
//! [`Family::ALL`]; a record that disagrees with its family's row is a
//! [`ParseError`]. Version-1 files (no header, the five required model
//! lines, no diagnostics) still load: diagnostics default to a clean
//! full-rank fit and every optional family to absent.

use crate::feasibility::ModelSet;
use crate::mapping::MappingConstants;
use crate::models::{Family, FamilyRow, FittedLinearModel};
use crate::regression::LinearRegression;

/// Serialize a model set and mapping constants (format version 2), one
/// model record per fitted family in [`Family::ALL`] order.
pub fn to_text(set: &ModelSet, k: &MappingConstants) -> String {
    let mut out = String::new();
    out.push_str("format|2\n");
    out.push_str(&format!("device|{}\n", set.device));
    out.push_str(&format!(
        "mapping|ap_fill={}|ppt_factor={}|spr_base={}\n",
        k.ap_fill, k.ppt_factor, k.spr_base
    ));
    for m in set.models() {
        let coeffs: Vec<String> = m.fit.coeffs.iter().map(|c| format!("{c:e}")).collect();
        out.push_str(&format!(
            "model|{}|name={}|r2={}|resid={}|n={}|warn={}|rank={}|coeffs={}\n",
            m.family.row().tag,
            m.name(),
            m.fit.r_squared,
            m.fit.residual_std,
            m.fit.n,
            m.fit.condition_warning as u8,
            m.fit.effective_rank,
            coeffs.join(";")
        ));
    }
    out
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model file parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn field<'a>(parts: &'a [&str], key: &str) -> Result<&'a str, ParseError> {
    parts
        .iter()
        .find_map(|p| p.strip_prefix(&format!("{key}=")))
        .ok_or_else(|| ParseError(format!("missing field {key}")))
}

/// Parse one `model|<tag>|...` record against the family its tag names: the
/// record must carry that family's name and exactly one coefficient per
/// feature, or a rasterizer fit could load into the ray-tracing slot and a
/// truncated list would silently drop the intercept from every prediction.
fn parse_model(row: &FamilyRow, parts: &[&str]) -> Result<FittedLinearModel, ParseError> {
    let (tag, name) = (row.tag, field(parts, "name")?);
    if name != row.name {
        return Err(ParseError(format!("model {tag} must be named {}, found {name}", row.name)));
    }
    let coeffs: Result<Vec<f64>, _> =
        field(parts, "coeffs")?.split(';').map(|c| c.parse::<f64>()).collect();
    let coeffs = coeffs.map_err(|e| ParseError(format!("bad coefficient: {e}")))?;
    if coeffs.len() != row.feature_names.len() {
        return Err(ParseError(format!(
            "model {tag} needs {} coefficients, found {}",
            row.feature_names.len(),
            coeffs.len()
        )));
    }
    let parse_f = |key: &str| -> Result<f64, ParseError> {
        field(parts, key)?.parse().map_err(|e| ParseError(format!("bad {key}: {e}")))
    };
    // Diagnostics are format-2 fields; version-1 files predate the robust
    // solver, so absent values mean "clean full-rank fit".
    let condition_warning = match field(parts, "warn") {
        Ok(v) => match v {
            "0" => false,
            "1" => true,
            other => return Err(ParseError(format!("bad warn: {other}"))),
        },
        Err(_) => false,
    };
    let effective_rank = match field(parts, "rank") {
        Ok(v) => v.parse().map_err(|e| ParseError(format!("bad rank: {e}")))?,
        Err(_) => coeffs.len(),
    };
    let mut fit = LinearRegression::with_stats(
        coeffs,
        parse_f("r2")?,
        parse_f("resid")?,
        parse_f("n")? as usize,
    );
    fit.condition_warning = condition_warning;
    fit.effective_rank = effective_rank;
    Ok(FittedLinearModel { family: row.family, fit })
}

/// Deserialize a model set and mapping constants.
pub fn from_text(text: &str) -> Result<(ModelSet, MappingConstants), ParseError> {
    let mut device = String::new();
    let mut k = MappingConstants::default();
    let mut models: Vec<FittedLinearModel> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let parts: Vec<&str> = line.split('|').collect();
        match parts[0] {
            // Version-1 files carry no `format` line; anything newer than 2
            // is from a future writer and must not be half-loaded.
            "format" => match *parts.get(1).unwrap_or(&"") {
                "1" | "2" => {}
                other => return Err(ParseError(format!("unsupported format version {other}"))),
            },
            "device" => {
                device = parts.get(1).unwrap_or(&"").to_string();
            }
            "mapping" => {
                let pf = |key: &str| -> Result<f64, ParseError> {
                    field(&parts, key)?.parse().map_err(|e| ParseError(format!("bad {key}: {e}")))
                };
                k = MappingConstants {
                    ap_fill: pf("ap_fill")?,
                    ppt_factor: pf("ppt_factor")?,
                    spr_base: pf("spr_base")?,
                };
            }
            "model" => {
                let tag = *parts.get(1).unwrap_or(&"");
                let row = Family::ALL
                    .iter()
                    .find(|r| r.tag == tag)
                    .ok_or_else(|| ParseError(format!("unknown model tag {tag}")))?;
                if models.iter().any(|m| m.family == row.family) {
                    return Err(ParseError(format!("duplicate model {tag}")));
                }
                models.push(parse_model(row, &parts)?);
            }
            other => return Err(ParseError(format!("unknown record kind {other}"))),
        }
    }
    for row in &Family::ALL[..Family::REQUIRED] {
        if !models.iter().any(|m| m.family == row.family) {
            return Err(ParseError(format!("missing model {}", row.tag)));
        }
    }
    Ok((ModelSet::new(&device, models), k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(family: Family, coeffs: Vec<f64>, r2: f64, resid: f64, n: usize) -> FittedLinearModel {
        FittedLinearModel { family, fit: LinearRegression::with_stats(coeffs, r2, resid, n) }
    }

    /// A set carrying all seven families.
    fn sample_set() -> (ModelSet, MappingConstants) {
        let coeffs: [(Family, &[f64]); 7] = [
            (Family::Rt, &[2e-9, 1e-8, 1e-3]),
            (Family::RtBuild, &[2e-8, 1e-3]),
            (Family::Rast, &[4e-9, 4e-10, 1e-3]),
            (Family::Vr, &[2e-10, 1e-9, 1e-2]),
            (Family::Comp, &[2e-8, 5e-8, 1e-3]),
            (Family::CompRle, &[3e-8, 2e-8, 2e-4, 8e-4]),
            (Family::CompDfb, &[4e-8, 9e-9, 2e-6, 3e-4]),
        ];
        (
            ModelSet::new("parallel", coeffs.map(|(f, c)| fit(f, c.to_vec(), 0.97, 1e-4, 25))),
            MappingConstants { ap_fill: 0.31, ppt_factor: 4.5, spr_base: 210.0 },
        )
    }

    /// The awkward-float set behind `tests/data/models_v2_all_families.txt`:
    /// values the `{:e}` / `Display` formatting has to shortest-round-trip —
    /// irrationals, subnormals, negatives, and extreme magnitudes.
    fn awkward_set() -> (ModelSet, MappingConstants) {
        let fit = |family, coeffs: Vec<f64>, r2, resid| fit(family, coeffs, r2, resid, 137);
        let mut vr_degraded = fit(Family::Vr, vec![1e-300, -1e300, 0.0], -0.25, 123.45678901234568);
        vr_degraded.fit.condition_warning = true;
        vr_degraded.fit.effective_rank = 2;
        let set = ModelSet::new(
            "parallel",
            [
                fit(
                    Family::Rt,
                    vec![std::f64::consts::PI * 1e-9, 1.0 / 3.0, -2.5e-17],
                    0.987654321987654,
                    1.0e-4 / 3.0,
                ),
                fit(Family::RtBuild, vec![5e-324, 1.7976931348623157e308], 1.0, 0.0),
                fit(Family::Rast, vec![-0.1, 0.2, 0.30000000000000004], 0.5, 2.0_f64.sqrt()),
                vr_degraded,
                fit(Family::Comp, vec![2.0_f64.powi(-53), 7.0 / 11.0, 9.9e-99], 0.75, 1e-12),
                fit(
                    Family::CompRle,
                    vec![1.0 / 9.0, -5e-324, 0.1 + 0.2, 6.02214076e23],
                    0.9999999999999999,
                    f64::EPSILON,
                ),
                fit(
                    Family::CompDfb,
                    vec![f64::MIN_POSITIVE, -0.0, 1e-6 + 1e-22, 2.0_f64.powi(60)],
                    0.3333333333333333,
                    f64::MIN_POSITIVE,
                ),
            ],
        );
        let k = MappingConstants {
            ap_fill: 0.5500000000000001,
            ppt_factor: 1.0 / 7.0,
            spr_base: 373.0 * std::f64::consts::E,
        };
        (set, k)
    }

    /// Every family of `a` is in `b` with the same name and bit-identical
    /// coefficients and R².
    fn assert_same_fits(a: &ModelSet, b: &ModelSet) {
        for row in &Family::ALL {
            let (a, b) = (a.get(row.family).unwrap(), b.get(row.family).unwrap());
            assert_eq!(a.name(), row.name);
            assert_eq!(b.name(), row.name);
            assert_eq!(b.feature_names(), row.feature_names);
            assert_eq!(a.fit.coeffs.len(), b.fit.coeffs.len(), "{}", row.name);
            for (ca, cb) in a.fit.coeffs.iter().zip(b.fit.coeffs.iter()) {
                assert_eq!(ca.to_bits(), cb.to_bits(), "{}: {ca:e} != {cb:e}", row.name);
            }
            assert_eq!(a.fit.r_squared.to_bits(), b.fit.r_squared.to_bits(), "{} r2", row.name);
        }
    }

    #[test]
    fn round_trips_exactly() {
        let (set, k) = sample_set();
        let text = to_text(&set, &k);
        let (set2, k2) = from_text(&text).unwrap();
        assert_eq!(set2.device, "parallel");
        assert_same_fits(&set, &set2);
        assert_eq!(set2.get(Family::CompDfb).unwrap().fit.coeffs, vec![4e-8, 9e-9, 2e-6, 3e-4]);
        assert_eq!(set2.get(Family::Vr).unwrap().fit.n, 25);
        assert_eq!(k2.ap_fill, k.ap_fill);
        assert_eq!(k2.spr_base, k.spr_base);
        // And predictions are identical.
        use crate::mapping::RenderConfig;
        use crate::sample::RendererKind;
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 150,
            pixels: 1 << 20,
            tasks: 16,
        };
        assert_eq!(set.predict_frame_seconds(&cfg, &k), set2.predict_frame_seconds(&cfg, &k2));
    }

    #[test]
    fn round_trips_bit_identically() {
        // The scheduler loads persisted models at startup; a reload must
        // reproduce every float to the bit.
        let (set, k) = awkward_set();
        let (set2, k2) = from_text(&to_text(&set, &k)).unwrap();
        assert_same_fits(&set, &set2);
        for row in &Family::ALL {
            let (a, b) = (set.get(row.family).unwrap(), set2.get(row.family).unwrap());
            assert_eq!(a.fit.residual_std.to_bits(), b.fit.residual_std.to_bits(), "{}", row.name);
            assert_eq!(a.fit.n, b.fit.n);
            assert_eq!(a.fit.condition_warning, b.fit.condition_warning, "{} warn", row.name);
            assert_eq!(a.fit.effective_rank, b.fit.effective_rank, "{} rank", row.name);
        }
        assert_eq!(k.ap_fill.to_bits(), k2.ap_fill.to_bits());
        assert_eq!(k.ppt_factor.to_bits(), k2.ppt_factor.to_bits());
        assert_eq!(k.spr_base.to_bits(), k2.spr_base.to_bits());
    }

    #[test]
    fn golden_files_load_and_rewrite_byte_identically() {
        // Both files were written at the commit before the family table
        // existed: the v2 file is that writer's output for `awkward_set` (less
        // the four records of families retired since), the v1 file its five
        // required records in the seed writer's shape.
        let v2 = include_str!("../tests/data/models_v2_all_families.txt");
        let (set, k) = from_text(v2).unwrap();
        assert_eq!(to_text(&set, &k), v2);
        let (awkward, awkward_k) = awkward_set();
        assert_eq!(to_text(&awkward, &awkward_k), v2);

        let (v1, k1) = from_text(include_str!("../tests/data/models_v1_required.txt")).unwrap();
        assert_eq!(k1.spr_base.to_bits(), k.spr_base.to_bits());
        for row in &Family::ALL {
            match v1.get(row.family) {
                Some(m) => {
                    assert!(row.required, "{} is optional and absent from v1", row.name);
                    assert_eq!(m.fit.coeffs, set.get(row.family).unwrap().fit.coeffs);
                }
                None => assert!(!row.required, "{} is required", row.name),
            }
        }
    }

    #[test]
    fn retired_family_tag_is_a_parse_error_not_a_half_load() {
        // The LOD proxy families were retired with the proxies nobody drew,
        // and the per-pass families with the pass ladder nothing executed. A
        // file written before that (the seven surviving records, then one
        // retired record) must fail whole rather than load as a set missing
        // a fit.
        let retired = [
            (
                "lod_half",
                "model|lod_half|name=lod_half|r2=0.9999999999999999|\
resid=0.0000006931471805599452|n=137|warn=0|rank=2|coeffs=1.4285714285714286e-9;-5e-324\n",
            ),
            (
                "pass_ao",
                "model|pass_ao|name=pass_ambient_occlusion|r2=0.12345678901234568|\
resid=0.000014142135623730953|n=137|warn=0|rank=2|coeffs=3.333333333333333e-8;5e-324\n",
            ),
        ];
        let v2 = include_str!("../tests/data/models_v2_all_families.txt");
        for (tag, record) in retired {
            let old = format!("{v2}{record}");
            let want = ParseError(format!("unknown model tag {tag}"));
            assert_eq!(from_text(&old).unwrap_err(), want);
        }
    }

    #[test]
    fn every_model_form_round_trips_its_fit_bit_identically() {
        // Fit every family on a tiny planted corpus of its sample kind and
        // compare the fitted coefficients to the bit across a text round
        // trip. Fitting (rather than hand-writing coefficients) keeps the
        // test honest about the solver's actual output values, irrational
        // intercepts and all; looping over `Family::ALL` keeps it exhaustive.
        use crate::models::Feed;
        use crate::sample::{CompositeSample, CompositeWire, RenderSample, RendererKind, Sample};
        use render::RenderStats;

        let planted = |feed: Feed, i: usize| {
            let x = 1.0 + i as f64;
            match feed {
                Feed::Render(_) | Feed::Build => Sample::Render(RenderSample {
                    renderer: match feed {
                        Feed::Render(kind) => kind,
                        _ => RendererKind::RayTracing,
                    },
                    device: "parallel",
                    source: "planted",
                    stats: RenderStats {
                        objects: 1000.0 * x,
                        active_pixels: 700.0 * x + 13.0,
                        visible_objects: 90.0 * x,
                        pixels_per_triangle: 3.0 + 0.5 * x,
                        samples_per_ray: 40.0 + 7.0 * x,
                        cells_spanned: 10.0 + 2.0 * x,
                        build_seconds: 1e-4 * x + 3e-5,
                        render_seconds: 2e-3 * x + 1e-4 * x * x,
                        ..RenderStats::default()
                    },
                    pixels: 65536.0,
                    tasks: 8,
                }),
                Feed::Composite(_) => Sample::Composite(CompositeSample {
                    tasks: 4 + i,
                    pixels: 65536.0 + 4096.0 * x,
                    avg_active_pixels: 900.0 * x,
                    seconds: 5e-4 * x + 2e-5 * x * x,
                    wire: CompositeWire::Compressed,
                }),
            }
        };
        let models = Family::ALL.iter().map(|row| {
            let corpus: Vec<Sample> = (0..8).map(|i| planted(row.feed, i)).collect();
            row.family.fit(&corpus)
        });
        let set = ModelSet::new("parallel", models);
        let k = MappingConstants::default();
        let (set2, _) = from_text(&to_text(&set, &k)).unwrap();
        assert_same_fits(&set, &set2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_text("garbage|x").is_err());
        assert!(from_text("model|rt|name=ray_tracing|r2=oops|resid=0|n=1|coeffs=1;1;1").is_err());
        assert!(from_text("device|x\n").is_err()); // missing models
        let (set, k) = sample_set();
        let good = to_text(&set, &k);
        assert!(from_text(&good).is_ok());
        for (from, to) in [
            ("model|vr", "model|unknown_tag"),
            ("format|2", "format|3"),
            ("warn=0", "warn=2"),
            // A rasterizer fit must not load into the ray-tracing slot.
            ("model|rt|name=ray_tracing|", "model|rt|name=rasterization|"),
            // One coefficient per feature: a truncated list would drop the
            // intercept from every prediction, a longer one is not this family.
            ("coeffs=2e-9;1e-8;1e-3\n", "coeffs=2e-9;1e-8\n"),
            ("coeffs=2e-9;1e-8;1e-3\n", "coeffs=2e-9;1e-8;1e-3;0e0\n"),
        ] {
            assert!(good.contains(from), "{from}");
            let err = from_text(&good.replacen(from, to, 1));
            assert!(err.is_err(), "{from} -> {to} must be rejected");
        }
        // A duplicate record must not silently win over the first.
        let rast = good.lines().find(|l| l.starts_with("model|rast|")).unwrap();
        assert!(from_text(&format!("{good}{rast}\n")).is_err());
    }

    #[test]
    fn loads_v1_files() {
        // A file in the exact shape the seed writer produced: no format
        // header, five model lines, no warn/rank diagnostics, no comp_rle.
        let v1 = "\
device|parallel
mapping|ap_fill=0.31|ppt_factor=4.5|spr_base=210
model|rt|name=ray_tracing|r2=0.97|resid=0.0001|n=25|coeffs=2e-9;1e-8;1e-3
model|rt_build|name=ray_tracing_build|r2=0.97|resid=0.0001|n=25|coeffs=2e-8;1e-3
model|rast|name=rasterization|r2=0.97|resid=0.0001|n=25|coeffs=4e-9;4e-10;1e-3
model|vr|name=volume_rendering|r2=0.97|resid=0.0001|n=25|coeffs=2e-10;1e-9;1e-2
model|comp|name=compositing|r2=0.97|resid=0.0001|n=25|coeffs=2e-8;5e-8;1e-3
";
        let (set, k) = from_text(v1).unwrap();
        assert_eq!(set.device, "parallel");
        assert_eq!(set.get(Family::Comp).unwrap().fit.coeffs, vec![2e-8, 5e-8, 1e-3]);
        for row in &Family::ALL[Family::REQUIRED..] {
            assert!(set.get(row.family).is_none(), "{}", row.name);
        }
        // Diagnostics default to a clean full-rank fit.
        let vr = set.get(Family::Vr).unwrap();
        assert!(!vr.fit.condition_warning);
        assert_eq!(vr.fit.effective_rank, 3);
        assert_eq!(k.ap_fill, 0.31);
        // And a v1 file re-saves as v2 without losing anything.
        let (set2, _) = from_text(&to_text(&set, &k)).unwrap();
        assert_eq!(set2.get(Family::Vr).unwrap().fit.coeffs, vr.fit.coeffs);
        assert!(set2.get(Family::CompRle).is_none());
    }
}
