//! The study corpus: run the render and compositing studies (once per
//! process), fit the six single-node models plus the compositing model, and
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
use std::sync::OnceLock;

/// The full experiment corpus: render samples per (device, renderer) plus
/// the compositing samples.
pub struct Corpus {
    pub render: Vec<RenderSample>,
    pub composite: Vec<CompositeSample>,
}

pub const DEVICES: [&str; 2] = ["serial", "parallel"];
pub const RENDERERS: [RendererKind; 3] =
    [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering];

/// Measure the render + compositing corpus, once per process: every
/// experiment that fits a model reads the same measurement, and nothing is
/// kept between runs — the tables are a function of the checked-out
/// renderers, never of files a previous run left on disk.
pub fn ensure_corpus(scale: Scale) -> &'static Corpus {
    static QUICK: OnceLock<Corpus> = OnceLock::new();
    static FULL: OnceLock<Corpus> = OnceLock::new();
    let memo = match scale {
        Scale::Quick => &QUICK,
        Scale::Full => &FULL,
    };
    memo.get_or_init(|| measure_corpus(scale))
}

fn measure_corpus(scale: Scale) -> Corpus {
    let study = match scale {
        Scale::Quick => StudyConfig::quick(),
        Scale::Full => StudyConfig::full(),
    };
    let mut render = Vec::new();
    for device in [Device::Serial, Device::parallel()] {
        for renderer in RENDERERS {
            eprintln!("[study: {} x {} ...]", device.name(), renderer.name());
            let run = run_render_study(&device, renderer, &study).expect("render study failed");
            render.extend(run);
        }
    }

    let (tasks, sides): (Vec<usize>, Vec<u32>) = match scale {
        Scale::Quick => (vec![2, 4, 8, 16, 32], vec![128, 256, 384, 512]),
        Scale::Full => (vec![2, 4, 8, 16, 32, 64], vec![512, 840, 1032, 1250, 1558, 2048]),
    };
    eprintln!("[compositing study ...]");
    let composite = run_composite_study_wired(NetModel::cluster(), &tasks, &sides, 0xBEEF)
        .expect("compositing study failed");

    Corpus { render, composite }
}

impl Corpus {
    /// Samples of one (device, renderer) pairing.
    pub fn subset(&self, device: &str, renderer: RendererKind) -> Vec<RenderSample> {
        self.render
            .iter()
            .filter(|s| s.device == device && s.renderer == renderer)
            .copied()
            .collect()
    }

    /// Compositing samples measured over one exchange kind.
    pub fn composite_subset(&self, wire: CompositeWire) -> Vec<CompositeSample> {
        self.composite.iter().filter(|s| s.wire == wire).cloned().collect()
    }

    /// Fit the full model set for one device: every family the corpus has
    /// samples for, each on the samples of its [`Feed`] (the wired study
    /// measures all three exchange kinds, so every compositing family has its
    /// own).
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
                    let all = self.composite.iter().map(Obs::Composite);
                    all.filter(|s| row.family.routes(*s)).collect()
                }
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
