//! Study-corpus management: run (or load cached) render and compositing
//! studies, fit the six single-node models plus the compositing model, and
//! hand back [`perfmodel::feasibility::ModelSet`]s for the prediction
//! experiments. Tables 12-17 and Figures 11-15 all read from here.

use crate::Scale;
use dpp::Device;
use mpirt::NetModel;
use perfmodel::feasibility::ModelSet;
use perfmodel::mapping::MappingConstants;
use perfmodel::models::{Family, Feed};
use perfmodel::sample::{CompositeSample, CompositeWire, Obs, RenderSample, RendererKind};
use perfmodel::study::{run_composite_study_wired, run_render_study, StudyConfig};

/// The full experiment corpus: render samples per (device, renderer) plus
/// the compositing samples.
pub struct Corpus {
    pub render: Vec<RenderSample>,
    pub composite: Vec<CompositeSample>,
}

pub const DEVICES: [&str; 2] = ["serial", "parallel"];
pub const RENDERERS: [RendererKind; 3] =
    [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering];

fn cache_path(scale: Scale, kind: &str) -> std::path::PathBuf {
    crate::out_dir()
        .join(format!("corpus_{kind}_{}.csv", if scale == Scale::Quick { "quick" } else { "full" }))
}

/// Build (or load from cache) the render + compositing corpus. The two
/// studies cache independently: a composite-format bump (or a deleted file)
/// only re-runs the study whose cache missed.
pub fn ensure_corpus(scale: Scale) -> Corpus {
    let rp = cache_path(scale, "render");
    // "composite3": the wired study measures dense, compressed, *and* DFB
    // exchanges per configuration; earlier caches lack the DFB rows and must
    // not be reused.
    let cp = cache_path(scale, "composite3");

    let mut render: Vec<RenderSample> = std::fs::read_to_string(&rp)
        .map(|text| perfmodel::sample::from_csv(&text))
        .unwrap_or_default();
    if render.is_empty() {
        let study = match scale {
            Scale::Quick => StudyConfig::quick(),
            Scale::Full => StudyConfig::full(),
        };
        for device in [Device::Serial, Device::parallel()] {
            for renderer in RENDERERS {
                eprintln!("[study: {} x {} ...]", device.name(), renderer.name());
                let run = run_render_study(&device, renderer, &study).expect("render study failed");
                render.extend(run);
            }
        }
        let _ = std::fs::write(&rp, perfmodel::sample::to_csv(&render));
    } else {
        println!("[render corpus loaded from cache: {} samples]", render.len());
    }

    let composite: Vec<CompositeSample> = std::fs::read_to_string(&cp)
        .map(|text| {
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with("tasks,"))
                .filter_map(CompositeSample::from_csv_row)
                .collect()
        })
        .unwrap_or_default();
    let composite = if composite.is_empty() {
        let (tasks, sides): (Vec<usize>, Vec<u32>) = match scale {
            Scale::Quick => (vec![2, 4, 8, 16, 32], vec![128, 256, 384, 512]),
            Scale::Full => (vec![2, 4, 8, 16, 32, 64], vec![512, 840, 1032, 1250, 1558, 2048]),
        };
        eprintln!("[compositing study ...]");
        let composite = run_composite_study_wired(NetModel::cluster(), &tasks, &sides, 0xBEEF)
            .expect("compositing study failed");
        let mut ctext = String::from(CompositeSample::CSV_HEADER);
        ctext.push('\n');
        for c in &composite {
            ctext.push_str(&c.to_csv_row());
            ctext.push('\n');
        }
        let _ = std::fs::write(&cp, ctext);
        composite
    } else {
        println!("[composite corpus loaded from cache: {} samples]", composite.len());
        composite
    };

    Corpus { render, composite }
}

impl Corpus {
    /// Samples of one (device, renderer) pairing.
    pub fn subset(&self, device: &str, renderer: RendererKind) -> Vec<RenderSample> {
        self.render
            .iter()
            .filter(|s| s.device == device && s.renderer == renderer)
            .cloned()
            .collect()
    }

    /// Compositing samples measured over one exchange kind.
    pub fn composite_subset(&self, wire: CompositeWire) -> Vec<CompositeSample> {
        self.composite.iter().filter(|s| s.wire == wire).cloned().collect()
    }

    /// Fit the full model set for one device: every family the corpus has
    /// samples for, each on the samples of its [`Feed`]. A corpus with only
    /// one exchange kind (e.g. loaded from legacy artifacts) degrades
    /// gracefully: the required dense model falls back to all compositing
    /// samples and the other wires stay absent. Per-pass models come from
    /// live timings, not the offline corpus; the online refit installs them
    /// at run time.
    pub fn fit_models(&self, device: &str) -> ModelSet {
        let render = |kind| {
            let of_kind = move |s: &&RenderSample| s.device == device && s.renderer == kind;
            self.render.iter().filter(of_kind).map(Obs::Render).collect::<Vec<Obs>>()
        };
        let models = Family::ALL.iter().filter_map(|row| {
            let fed = match row.feed {
                Feed::Render(kind) => render(kind),
                Feed::Build => render(RendererKind::RayTracing),
                Feed::Composite(_) => {
                    let all = || self.composite.iter().map(Obs::Composite);
                    let own: Vec<Obs> = all().filter(|s| row.family.routes(*s)).collect();
                    if own.is_empty() && row.required {
                        all().collect()
                    } else {
                        own
                    }
                }
                Feed::Pass(_) => Vec::new(),
            };
            (row.required || !fed.is_empty()).then(|| row.family.fit(fed))
        });
        ModelSet::new(device, models)
    }

    /// Mapping constants calibrated from the corpus (tasks=1 samples).
    pub fn mapping_constants(&self) -> MappingConstants {
        MappingConstants::calibrated(&self.render)
    }
}
