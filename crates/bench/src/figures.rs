//! Regenerators for the evaluation figures. Each emits its data series as a
//! CSV artifact in `repro_out/` (plus a printed summary), since the paper's
//! figures are plots of exactly these series.

use crate::corpus::ensure_corpus;
use crate::tables::{composite_cv, cv_pairs, tet_tf};
use crate::{fmt_s, Scale, TextTable};
use baselines::bunyk::{render_bunyk, Connectivity};
use baselines::havs::render_havs;
use dpp::Device;
use mesh::datasets::tet_dataset_pool;
use perfmodel::feasibility::{images_in_budget, rt_vs_rast_map};
use perfmodel::sample::CompositeWire;
use render::volume_unstructured::{render_unstructured, sample_buffer_bytes, UvrConfig};
use vecmath::Camera;

/// Figures 4 and 5: unstructured VR runtime by phase as the number of
/// passes sweeps, for every dataset and both views. Figure 4 is the serial
/// device; Figure 5 is the parallel device *with a memory cap* so the
/// biggest dataset / fewest passes combinations fail like the paper's
/// 6 GB GPU.
pub fn fig_phase_sweep(scale: Scale, parallel: bool) -> TextTable {
    let id = if parallel { 5 } else { 4 };
    let device = if parallel { Device::parallel() } else { Device::Serial };
    // Memory cap for the "GPU": sized so the largest dataset at few passes
    // exceeds it (mirrors Enzo-80M failing on 6 GB).
    let side = scale.image_side();
    let memory_cap = parallel.then(|| {
        let probe = UvrConfig { depth_samples: 256, num_passes: 4, ..Default::default() };
        sample_buffer_bytes(side, side, &probe)
    });
    let mut t = TextTable::new(
        format!(
            "Figure {id}: VR runtime by phase vs passes ({})",
            if parallel { "parallel + memory cap" } else { "serial" }
        ),
        &[
            "dataset",
            "view",
            "passes",
            "init",
            "pass_sel",
            "screen",
            "sampling",
            "compositing",
            "total",
            "status",
        ],
    );
    let passes_list: &[u32] =
        if scale == Scale::Quick { &[1, 2, 4, 8, 16] } else { &[1, 2, 4, 6, 8, 10, 12, 14, 16] };
    let pool = tet_dataset_pool();
    let specs = if scale == Scale::Quick { &pool[..3] } else { &pool[..] };
    for spec in specs {
        let tets = spec.build(scale.dataset_scale() * 0.7);
        let tf = tet_tf(&tets);
        for (view, cam) in [
            ("close", Camera::close_view(&tets.bounds())),
            ("far", Camera::far_view(&tets.bounds())),
        ] {
            for &passes in passes_list {
                let cfg = UvrConfig {
                    depth_samples: 256,
                    num_passes: passes,
                    memory_limit_bytes: memory_cap,
                    ..Default::default()
                };
                match render_unstructured(&device, &tets, "scalar", &cam, side, side, &tf, &cfg) {
                    Ok(out) => t.row(vec![
                        spec.name.into(),
                        view.into(),
                        passes.to_string(),
                        fmt_s(out.phases.seconds_of("initialization")),
                        fmt_s(out.phases.seconds_of("pass_selection")),
                        fmt_s(out.phases.seconds_of("screen_space")),
                        fmt_s(out.phases.seconds_of("sampling")),
                        fmt_s(out.phases.seconds_of("compositing")),
                        fmt_s(out.stats.render_seconds),
                        "ok".into(),
                    ]),
                    Err(e) => t.row(vec![
                        spec.name.into(),
                        view.into(),
                        passes.to_string(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("OOM ({e})"),
                    ]),
                }
            }
        }
    }
    t
}

/// Figure 6: DPP-VR vs HAVS across datasets, far & close views (parallel).
pub fn fig6(scale: Scale) -> TextTable {
    let device = Device::parallel();
    let side = scale.image_side();
    let mut t = TextTable::new(
        "Figure 6: DPP-VR vs HAVS-like projected tetrahedra (seconds)",
        &["dataset", "view", "DPP-VR", "HAVS", "winner"],
    );
    let pool = tet_dataset_pool();
    let specs = if scale == Scale::Quick { &pool[..3] } else { &pool[..] };
    for spec in specs {
        let tets = spec.build(scale.dataset_scale() * 0.7);
        let tf = tet_tf(&tets);
        for (view, cam) in [
            ("far", Camera::far_view(&tets.bounds())),
            ("close", Camera::close_view(&tets.bounds())),
        ] {
            let dpp = render_unstructured(
                &device,
                &tets,
                "scalar",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: 256, ..Default::default() },
            )
            .expect("render");
            let havs = render_havs(&device, &tets, "scalar", &cam, side, side, &tf);
            let havs_total = havs.phases.total_seconds();
            t.row(vec![
                spec.name.into(),
                view.into(),
                fmt_s(dpp.stats.render_seconds),
                fmt_s(havs_total),
                if dpp.stats.render_seconds < havs_total { "DPP-VR" } else { "HAVS" }.into(),
            ]);
        }
    }

    // Growth sweep — the paper's observation is about *slope*: "the HAVS
    // running times were highly correlated to data size, and our algorithm
    // did not slow down as quickly as HAVS when data size increased."
    let mut times: Vec<(usize, f64, f64)> = Vec::new();
    for cells in [8usize, 14, 22] {
        let tets = mesh::datasets::TetDatasetSpec {
            name: "sweep",
            cells: [cells; 3],
            kind: mesh::datasets::FieldKind::ShockShell,
        }
        .build(1.0);
        let tf = tet_tf(&tets);
        let cam = Camera::far_view(&tets.bounds());
        let dpp = render_unstructured(
            &device,
            &tets,
            "scalar",
            &cam,
            side,
            side,
            &tf,
            &UvrConfig { depth_samples: 256, ..Default::default() },
        )
        .expect("render");
        let havs = render_havs(&device, &tets, "scalar", &cam, side, side, &tf);
        let havs_total = havs.phases.total_seconds();
        t.row(vec![
            format!("sweep {}K tets", tets.num_tets() / 1000),
            "far".into(),
            fmt_s(dpp.stats.render_seconds),
            fmt_s(havs_total),
            if dpp.stats.render_seconds < havs_total { "DPP-VR" } else { "HAVS" }.into(),
        ]);
        times.push((tets.num_tets(), dpp.stats.render_seconds, havs_total));
    }
    if let (Some(first), Some(last)) = (times.first(), times.last()) {
        let data_growth = last.0 as f64 / first.0 as f64;
        let dpp_growth = last.1 / first.1;
        let havs_growth = last.2 / first.2;
        println!(
            "[figure 6 slope: data grew {data_growth:.1}x; DPP-VR time grew {dpp_growth:.1}x, \
             HAVS time grew {havs_growth:.1}x — HAVS should grow faster]"
        );
    }
    t
}

/// Figure 7: DPP-VR vs the Bunyk connectivity ray caster (serial device,
/// matching the paper's CPU3 comparison).
pub fn fig7(scale: Scale) -> TextTable {
    let side = scale.image_side();
    let mut t = TextTable::new(
        "Figure 7: DPP-VR vs Bunyk-style ray caster (seconds; preprocessing listed separately)",
        &["dataset", "view", "DPP-VR", "Bunyk render", "Bunyk preprocess"],
    );
    let pool = tet_dataset_pool();
    let specs = if scale == Scale::Quick { &pool[..2] } else { &pool[..] };
    for spec in specs {
        let tets = spec.build(scale.dataset_scale() * 0.5);
        let tf = tet_tf(&tets);
        let conn = Connectivity::build(&tets);
        for (view, cam) in [
            ("far", Camera::far_view(&tets.bounds())),
            ("close", Camera::close_view(&tets.bounds())),
        ] {
            let dpp = render_unstructured(
                &Device::Serial,
                &tets,
                "scalar",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: 256, ..Default::default() },
            )
            .expect("render");
            let bk = render_bunyk(&tets, &conn, "scalar", &cam, side, side, &tf, 0.01);
            t.row(vec![
                spec.name.into(),
                view.into(),
                fmt_s(dpp.stats.render_seconds),
                fmt_s(bk.stats.render_seconds),
                fmt_s(conn.preprocess_seconds),
            ]);
        }
    }
    t
}

/// Figure 11: 3-fold cross-validation error scatter for the six models.
pub fn fig11(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Figure 11: CV error vs predicted render time (all six models)",
        &["device", "renderer", "predicted_s", "error_pct"],
    );
    for device in crate::corpus::DEVICES {
        for renderer in crate::corpus::RENDERERS {
            for (actual, predicted) in cv_pairs(corpus, device, renderer) {
                let err = if actual != 0.0 { (actual - predicted) / actual * 100.0 } else { 0.0 };
                t.row(vec![
                    device.into(),
                    renderer.name().into(),
                    format!("{predicted:.6}"),
                    format!("{err:.2}"),
                ]);
            }
        }
    }
    t
}

/// Figure 12: compositing time histogram over (tasks, pixels, wire).
pub fn fig12(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Figure 12: measured compositing time by tasks x pixels x exchange",
        &["tasks", "pixels", "wire", "seconds"],
    );
    for s in &corpus.composite {
        t.row(vec![
            s.tasks.to_string(),
            format!("{:.0}", s.pixels),
            s.wire.name().to_string(),
            format!("{:.6}", s.seconds),
        ]);
    }
    t
}

/// Figure 13: compositing CV error scatter, one series per exchange kind.
pub fn fig13(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut header = String::from("Figure 13: compositing CV error");
    let mut series = Vec::new();
    for wire in [CompositeWire::Dense, CompositeWire::Compressed] {
        let (pairs, acc) = composite_cv(corpus, wire);
        use std::fmt::Write as _;
        let _ = write!(
            header,
            " ({}: avg {:.1}%, within50 {:.0}%)",
            wire.name(),
            acc.mean_error_pct,
            acc.within_50
        );
        series.push((wire, pairs));
    }
    let mut t = TextTable::new(header, &["wire", "actual_s", "predicted_s", "error_pct"]);
    for (wire, pairs) in series {
        for (a, p) in pairs {
            let err = if a != 0.0 { (a - p) / a * 100.0 } else { 0.0 };
            t.row(vec![
                wire.name().to_string(),
                format!("{a:.6}"),
                format!("{p:.6}"),
                format!("{err:.2}"),
            ]);
        }
    }
    t
}

/// Figure 14: images renderable in a 60-second budget vs image size, for
/// all six (device, renderer) models.
pub fn fig14(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let k = corpus.mapping_constants();
    let mut t = TextTable::new(
        "Figure 14: images renderable in 60 s (32 tasks, 200^3 cells/task)",
        &["device", "renderer", "image_side", "images"],
    );
    let sides: Vec<u32> = (8..=32).map(|i| i * 128).collect();
    for device in crate::corpus::DEVICES {
        let set = corpus.fit_models(device);
        for renderer in crate::corpus::RENDERERS {
            for (side, images) in images_in_budget(&set, &k, renderer, 200, 32, &sides, 60.0) {
                t.row(vec![
                    device.into(),
                    renderer.name().into(),
                    side.to_string(),
                    format!("{images:.0}"),
                ]);
            }
        }
    }
    t
}

/// Figure 15: ray tracing vs rasterization predicted-time ratio heatmap
/// (100 renders, 32 tasks; the BVH build amortizes).
pub fn fig15(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let set = corpus.fit_models("parallel");
    let k = corpus.mapping_constants();
    let sides: Vec<u32> = (3..=32).map(|i| i * 128).collect();
    let data: Vec<usize> = (4..=20).map(|i| i * 25).collect();
    let cells = rt_vs_rast_map(&set, &k, 32, 100, &sides, &data);
    let mut t = TextTable::new(
        "Figure 15: T_RT / T_RAST over (image side, cells/task); <1 means ray tracing wins",
        &["image_side", "cells_per_task", "rt_over_rast"],
    );
    let mut rt_wins = 0;
    let mut rast_wins = 0;
    for c in &cells {
        if c.rt_over_rast < 1.0 {
            rt_wins += 1;
        } else {
            rast_wins += 1;
        }
        t.row(vec![
            c.image_side.to_string(),
            c.cells_per_task.to_string(),
            format!("{:.3}", c.rt_over_rast),
        ]);
    }
    println!(
        "[figure 15 summary: ray tracing wins {rt_wins} cells, rasterization wins {rast_wins} cells]"
    );
    t
}
