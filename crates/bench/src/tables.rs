//! Regenerators for every table in the dissertation's evaluation.
//!
//! Absolute numbers differ from the paper's testbeds (our devices are one
//! machine's serial and all-cores configurations; see DESIGN.md), but each
//! table reproduces the paper's row/column structure and the qualitative
//! shape of its result.

use crate::corpus::{ensure_corpus, DEVICES};
use crate::{fmt_count, fmt_s, Scale, TextTable};
use baselines::packet8::intersect_image_packets;
use baselines::tuned::{Profile, TunedTracer};
use baselines::visit_like::render_visit;
use dpp::Device;
use mesh::datasets::{surface_dataset_pool, tet_dataset_pool};
use perfmodel::crossval::{k_fold, k_fold_accuracy};
use perfmodel::mapping::{map_inputs, RenderConfig};
use perfmodel::models::{Family, FittedLinearModel};
use perfmodel::sample::{CompositeWire, RendererKind};
use perfmodel::stats::AccuracySummary;
use perfmodel::study::run_one;
use render::raytrace::{Bvh, RayTracer, RtConfig, TriGeometry};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use vecmath::{Camera, TransferFunction, Vec3};

/// The three camera positions the study averaged over.
fn study_cameras(bounds: &vecmath::Aabb) -> Vec<Camera> {
    vec![
        Camera::close_view(bounds),
        Camera::framing(bounds, Vec3::new(-0.5, 0.2, -1.0), 0.9),
        Camera::far_view(bounds),
    ]
}

/// Average seconds of `f` over study cameras and rounds.
fn avg_seconds(bounds: &vecmath::Aabb, rounds: usize, mut f: impl FnMut(&Camera) -> f64) -> f64 {
    let cams = study_cameras(bounds);
    let mut total = 0.0;
    let mut n = 0usize;
    for cam in &cams {
        let _warm = f(cam);
        for _ in 0..rounds {
            total += f(cam);
            n += 1;
        }
    }
    total / n as f64
}

/// Tables 1 and 2: frames/second of the DPP ray tracer across the data-set
/// pool (WORKLOAD2 for Table 1, WORKLOAD3 for Table 2).
pub fn table_rt_fps(scale: Scale, workload3: bool) -> TextTable {
    let id = if workload3 { 2 } else { 1 };
    let mut t = TextTable::new(
        format!(
            "Table {id}: DPP ray tracer FPS ({})",
            if workload3 { "WORKLOAD3: full features" } else { "WORKLOAD2: shading" }
        ),
        &["dataset", "triangles", "serial FPS", "parallel FPS"],
    );
    let side = scale.image_side();
    let cfg = if workload3 { RtConfig::workload3() } else { RtConfig::workload2() };
    for spec in surface_dataset_pool() {
        let mesh = spec.build(scale.dataset_scale());
        if mesh.num_tris() == 0 {
            continue;
        }
        let geom = TriGeometry::from_mesh(&mesh);
        let mut cells = vec![spec.name.to_string(), fmt_count(geom.num_tris() as f64)];
        for device in [Device::Serial, Device::parallel()] {
            let rt = RayTracer::new(device, geom.clone());
            let s = avg_seconds(&rt.geom.bounds, scale.rounds(), |cam| {
                rt.render(cam, side, side, &cfg).stats.render_seconds
            });
            cells.push(format!("{:.1}", 1.0 / s));
        }
        t.row(cells);
    }
    t
}

/// Tables 3 and 4: millions of rays/second, DPP tracer vs the tuned
/// comparator (`Optix` profile for Table 3, `Embree` for Table 4).
pub fn table_rays_comparison(scale: Scale, profile: Profile) -> TextTable {
    let (id, who) = match profile {
        Profile::Optix => (3, "OptiX-like"),
        Profile::Embree => (4, "Embree-like"),
    };
    let device = match profile {
        Profile::Optix => Device::parallel(),
        Profile::Embree => Device::parallel(),
    };
    let mut t = TextTable::new(
        format!("Table {id}: WORKLOAD1 Mrays/s, DPP tracer vs {who}"),
        &["dataset", "triangles", "DPP Mrays/s", &format!("{who} Mrays/s"), "ratio"],
    );
    let side = scale.image_side();
    let n_rays = (side as f64) * (side as f64);
    for spec in surface_dataset_pool() {
        let mesh = spec.build(scale.dataset_scale());
        if mesh.num_tris() == 0 {
            continue;
        }
        let geom = TriGeometry::from_mesh(&mesh);
        let rt = RayTracer::new(device.clone(), geom.clone());
        let dpp_s = avg_seconds(&geom.bounds, scale.rounds(), |cam| {
            rt.render(cam, side, side, &RtConfig::workload1()).stats.render_seconds
        });
        let tuned = TunedTracer::from_geometry(geom.clone(), profile);
        let tuned_s = avg_seconds(&geom.bounds, scale.rounds(), |cam| {
            tuned.intersect_image(cam, side, side).1
        });
        let dpp_mrays = n_rays / dpp_s / 1e6;
        let tuned_mrays = n_rays / tuned_s / 1e6;
        t.row(vec![
            spec.name.to_string(),
            fmt_count(geom.num_tris() as f64),
            format!("{dpp_mrays:.1}"),
            format!("{tuned_mrays:.1}"),
            format!("{:.2}x", tuned_mrays / dpp_mrays),
        ]);
    }
    t
}

/// Table 5: scalar-lane back-end vs 8-wide packet back-end (the
/// OpenMP-vs-ISPC comparison), same LBVH, same device threads.
pub fn table5(scale: Scale) -> TextTable {
    let mut t = TextTable::new(
        "Table 5: WORKLOAD1 Mrays/s, scalar back-end vs 8-wide packet back-end",
        &["dataset", "triangles", "scalar Mrays/s", "packet8 Mrays/s", "speedup"],
    );
    let side = scale.image_side();
    let n_rays = (side as f64) * (side as f64);
    let device = Device::parallel();
    for spec in surface_dataset_pool() {
        let mesh = spec.build(scale.dataset_scale());
        if mesh.num_tris() == 0 {
            continue;
        }
        let geom = TriGeometry::from_mesh(&mesh);
        let rt = RayTracer::new(device.clone(), geom.clone());
        let scalar_s = avg_seconds(&geom.bounds, scale.rounds(), |cam| {
            rt.render(cam, side, side, &RtConfig::workload1()).stats.render_seconds
        });
        let bvh = Bvh::build(&device, &geom);
        let packet_s = avg_seconds(&geom.bounds, scale.rounds(), |cam| {
            intersect_image_packets(&geom, &bvh, cam, side, side).1
        });
        t.row(vec![
            spec.name.to_string(),
            fmt_count(geom.num_tris() as f64),
            format!("{:.1}", n_rays / scalar_s / 1e6),
            format!("{:.1}", n_rays / packet_s / 1e6),
            format!("{:.2}x", scalar_s / packet_s),
        ]);
    }
    t
}

/// The Enzo-10M-like tet mesh used by Tables 6-8.
fn enzo10m_tets(scale: Scale) -> mesh::TetMesh {
    tet_dataset_pool()[1].build(scale.dataset_scale())
}

/// The sparse-features transfer function over a tet mesh's scalar range.
pub(crate) fn tet_tf(t: &mesh::TetMesh) -> TransferFunction {
    TransferFunction::sparse_features(t.field("scalar").unwrap().range().unwrap())
}

/// Table 6: per-phase time / work units / throughput proxy for the
/// unstructured volume renderer (close view, 4 passes, parallel device).
/// The paper's registers/occupancy columns are GPU hardware counters; our
/// substitution reports algorithmic work units and throughput (DESIGN.md).
pub fn table6(scale: Scale) -> TextTable {
    let tets = enzo10m_tets(scale);
    let cam = Camera::close_view(&tets.bounds());
    let side = scale.image_side();
    let out = render_unstructured(
        &Device::parallel(),
        &tets,
        "scalar",
        &cam,
        side,
        side,
        &tet_tf(&tets),
        &UvrConfig { depth_samples: 256, num_passes: 4, ..Default::default() },
    )
    .expect("render");
    let mut t = TextTable::new(
        "Table 6: unstructured VR kernels (close view, 4 passes, parallel device)",
        &["kernel", "time (s)", "work units", "Melem/s (IPC proxy)"],
    );
    for phase in ["pass_selection", "screen_space", "sampling", "compositing"] {
        let s = out.phases.seconds_of(phase);
        let w = out.phases.work_of(phase);
        t.row(vec![
            phase.to_string(),
            fmt_s(s),
            fmt_count(w as f64),
            format!("{:.1}", w as f64 / s.max(1e-9) / 1e6),
        ]);
    }
    t
}

/// Table 7: phase times and throughput proxy, serial vs parallel device.
pub fn table7(scale: Scale) -> TextTable {
    let tets = enzo10m_tets(scale);
    let cam = Camera::close_view(&tets.bounds());
    let side = scale.image_side();
    let cfg = UvrConfig { depth_samples: 256, num_passes: 4, ..Default::default() };
    let tf = tet_tf(&tets);
    let run = |device: Device| {
        render_unstructured(&device, &tets, "scalar", &cam, side, side, &tf, &cfg).expect("render")
    };
    let par = run(Device::parallel());
    let ser = run(Device::Serial);
    let mut t = TextTable::new(
        "Table 7: unstructured VR by phase, parallel vs serial (time s / Melem/s)",
        &["phase", "parallel time", "parallel Melem/s", "serial time", "serial Melem/s"],
    );
    for phase in ["pass_selection", "screen_space", "sampling", "compositing"] {
        let (ps, pw) = (par.phases.seconds_of(phase), par.phases.work_of(phase));
        let (ss, sw) = (ser.phases.seconds_of(phase), ser.phases.work_of(phase));
        t.row(vec![
            phase.to_string(),
            fmt_s(ps),
            format!("{:.1}", pw as f64 / ps.max(1e-9) / 1e6),
            fmt_s(ss),
            format!("{:.1}", sw as f64 / ss.max(1e-9) / 1e6),
        ]);
    }
    t
}

/// Table 8: strong scaling of the unstructured volume renderer.
pub fn table8(scale: Scale) -> TextTable {
    let tets = enzo10m_tets(scale);
    let cam = Camera::close_view(&tets.bounds());
    let side = scale.image_side();
    let cfg = UvrConfig { depth_samples: 256, num_passes: 1, ..Default::default() };
    let tf = tet_tf(&tets);
    // Keep a few oversubscribed entries even on small hosts so the table
    // always shows the scaling (or its absence) rather than a single row.
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads: Vec<usize> =
        vec![1, 2, 4, 8, 16, 24].into_iter().filter(|&t| t <= (4 * max_threads).max(4)).collect();
    let mut t = TextTable::new(
        "Table 8: strong scaling of unstructured VR (Enzo-10M-like, close view, 1 pass)",
        &["threads", "raw time (s)", "total time (s) = raw * threads"],
    );
    for &n in &threads {
        let device = Device::parallel_with_threads(n);
        let _warm =
            render_unstructured(&device, &tets, "scalar", &cam, side, side, &tf, &cfg).unwrap();
        let out =
            render_unstructured(&device, &tets, "scalar", &cam, side, side, &tf, &cfg).unwrap();
        let raw = out.stats.render_seconds;
        t.row(vec![n.to_string(), fmt_s(raw), fmt_s(raw * n as f64)]);
    }
    t
}

/// Table 9: DPP-VR vs the VisIt-style sampler (serial), SS/S/C/TOT columns.
pub fn table9(scale: Scale) -> TextTable {
    let mut t = TextTable::new(
        "Table 9: volume rendering vs VisIt-style sampler (serial, seconds)",
        &["data & view", "SW", "SS", "S", "C", "TOT"],
    );
    let side = scale.image_side();
    let samples = if scale == Scale::Quick { 200 } else { 1000 };
    let pool = tet_dataset_pool();
    for spec in &pool {
        let tets = spec.build(scale.dataset_scale() * 0.8);
        let tf = tet_tf(&tets);
        for (view, cam) in [
            ("Far", Camera::far_view(&tets.bounds())),
            ("Close", Camera::close_view(&tets.bounds())),
        ] {
            let visit = render_visit(&tets, "scalar", &cam, side, side, samples, &tf);
            t.row(vec![
                format!("{}/{}", spec.name, view),
                "VisIt-like".into(),
                fmt_s(visit.stats.screen_space_seconds),
                fmt_s(visit.stats.sampling_seconds),
                fmt_s(visit.stats.compositing_seconds),
                fmt_s(visit.stats.total_seconds),
            ]);
            let dpp = render_unstructured(
                &Device::Serial,
                &tets,
                "scalar",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: samples, num_passes: 1, ..Default::default() },
            )
            .expect("render");
            t.row(vec![
                format!("{}/{}", spec.name, view),
                "DPP-VR".into(),
                fmt_s(dpp.phases.seconds_of("screen_space")),
                fmt_s(dpp.phases.seconds_of("sampling")),
                fmt_s(dpp.phases.seconds_of("compositing")),
                fmt_s(dpp.stats.render_seconds),
            ]);
        }
    }
    t
}

/// Table 10: lines of code to instrument the three proxy apps, counted from
/// the marked sections of the in situ example programs.
pub fn table10() -> TextTable {
    let mut t = TextTable::new(
        "Table 10: lines of code to instrument the proxy apps",
        &["section", "LULESH", "Kripke", "CloverLeaf3D"],
    );
    let examples = [
        ("LULESH", "examples/insitu_lulesh.rs"),
        ("Kripke", "examples/insitu_kripke.rs"),
        ("CloverLeaf3D", "examples/insitu_cloverleaf.rs"),
    ];
    let sections = ["data description", "action descriptions", "api calls"];
    let mut counts = vec![vec![0usize; examples.len()]; sections.len()];
    for (col, (_, path)) in examples.iter().enumerate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(path))
            .unwrap_or_else(|_| std::fs::read_to_string(path).unwrap_or_default());
        for (row, section) in sections.iter().enumerate() {
            counts[row][col] = count_marked_lines(&text, section);
        }
    }
    for (row, section) in sections.iter().enumerate() {
        t.row(vec![
            section.to_string(),
            counts[row][0].to_string(),
            counts[row][1].to_string(),
            counts[row][2].to_string(),
        ]);
    }
    t
}

/// Count non-empty code lines between `// [strawman:<section>]` and
/// `// [strawman:end]` markers.
pub fn count_marked_lines(text: &str, section: &str) -> usize {
    let open = format!("// [strawman:{section}]");
    let mut counting = false;
    let mut count = 0usize;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == open {
            counting = true;
            continue;
        }
        if trimmed == "// [strawman:end]" {
            counting = false;
            continue;
        }
        if counting && !trimmed.is_empty() && !trimmed.starts_with("//") {
            count += 1;
        }
    }
    count
}

/// Table 11: simulation burden — vis s/cycle vs sim s/cycle for the three
/// proxies, each with the renderer the paper used.
pub fn table11(scale: Scale) -> TextTable {
    use sims::ProxySim;
    let mut t = TextTable::new(
        "Table 11: simulation burden (avg seconds per cycle)",
        &["app (renderer)", "cells", "vis s/cycle", "sim s/cycle"],
    );
    // Sizes chosen so simulation cost is realistic relative to rendering
    // (simulation work grows ~N^3 while surface rendering grows ~N^2, as on
    // the paper's 4-8 billion cell runs).
    let (nc, nk, nl, cycles, side) = match scale {
        Scale::Quick => (72usize, 44usize, 20usize, 3usize, 192u32),
        Scale::Full => (160, 72, 48, 5, 1024),
    };
    let device = Device::parallel();

    // CloverLeaf3D: pseudocolor via ray tracing.
    {
        let mut sim = sims::Cloverleaf::new(nc);
        let mut sim_s = 0.0;
        let mut vis_s = 0.0;
        for _ in 0..cycles {
            let t0 = std::time::Instant::now();
            sim.step();
            sim_s += t0.elapsed().as_secs_f64();
            let grid = sim.grid().to_uniform();
            let t1 = std::time::Instant::now();
            let tris = mesh::external_faces::external_faces_grid(&grid, "density_p");
            let geom = TriGeometry::from_mesh(&tris);
            let rt = RayTracer::new(device.clone(), geom);
            let cam = Camera::close_view(&rt.geom.bounds);
            let _ = rt.render(&cam, side, side, &RtConfig::workload2());
            vis_s += t1.elapsed().as_secs_f64();
        }
        t.row(vec![
            "CloverLeaf3D (ray tracing)".into(),
            fmt_count(sim.num_cells() as f64),
            fmt_s(vis_s / cycles as f64),
            fmt_s(sim_s / cycles as f64),
        ]);
    }
    // Kripke: rasterization (the paper used OSMesa).
    {
        let mut sim = sims::Kripke::new(nk);
        let mut sim_s = 0.0;
        let mut vis_s = 0.0;
        for _ in 0..cycles {
            let t0 = std::time::Instant::now();
            sim.step();
            sim_s += t0.elapsed().as_secs_f64();
            let grid = sim.grid();
            let t1 = std::time::Instant::now();
            let tris = mesh::external_faces::external_faces_grid(&grid, "phi_p");
            let geom = TriGeometry::from_mesh(&tris);
            let tf = TransferFunction::rainbow(geom.scalar_range);
            let cam = Camera::close_view(&geom.bounds);
            let _ = render::raster::rasterize(&device, &geom, &cam, side, side, &tf, None);
            vis_s += t1.elapsed().as_secs_f64();
        }
        t.row(vec![
            "Kripke (rasterization)".into(),
            fmt_count(sim.num_cells() as f64),
            fmt_s(vis_s / cycles as f64),
            fmt_s(sim_s / cycles as f64),
        ]);
    }
    // LULESH: volume rendering.
    {
        let mut sim = sims::Lulesh::new(nl);
        let mut sim_s = 0.0;
        let mut vis_s = 0.0;
        for _ in 0..cycles {
            let t0 = std::time::Instant::now();
            sim.step();
            sim_s += t0.elapsed().as_secs_f64();
            let hexes = sim.hex_mesh();
            let t1 = std::time::Instant::now();
            let tets = hexes.to_tets();
            let range = tets.field("e_p").unwrap().range().unwrap_or((0.0, 1.0));
            let tf = TransferFunction::sparse_features(range);
            let cam = Camera::close_view(&tets.bounds());
            let _ = render_unstructured(
                &device,
                &tets,
                "e_p",
                &cam,
                side,
                side,
                &tf,
                &UvrConfig { depth_samples: 128, ..Default::default() },
            );
            vis_s += t1.elapsed().as_secs_f64();
        }
        t.row(vec![
            "LULESH (volume rendering)".into(),
            fmt_count(sim.num_cells() as f64),
            fmt_s(vis_s / cycles as f64),
            fmt_s(sim_s / cycles as f64),
        ]);
    }
    t
}

/// Table 12: R^2 for the six single-node models.
pub fn table12(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Table 12: R^2 of the performance models",
        &["renderer", "serial R^2", "parallel R^2"],
    );
    for renderer in crate::corpus::RENDERERS {
        let mut cells = vec![renderer.name().to_string()];
        for device in DEVICES {
            let samples = corpus.subset(device, renderer);
            let r2 = Family::for_renderer(renderer).fit(&samples).r_squared();
            cells.push(format!("{r2:.4}"));
        }
        t.row(cells);
    }
    t
}

fn model_xy(
    corpus: &crate::corpus::Corpus,
    device: &str,
    renderer: RendererKind,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let samples = corpus.subset(device, renderer);
    let family = Family::for_renderer(renderer);
    let xs: Vec<Vec<f64>> = samples.iter().map(|s| family.features(s)).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.render_seconds).collect();
    (xs, ys)
}

/// Table 13: 3-fold cross-validation accuracy for all six models.
pub fn table13(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Table 13: 3-fold cross-validation accuracy (% of predictions within error bound)",
        &["device", "renderer", "50%", "25%", "10%", "5%", "avg err %"],
    );
    for device in DEVICES {
        for renderer in crate::corpus::RENDERERS {
            let (xs, ys) = model_xy(corpus, device, renderer);
            let acc = k_fold_accuracy(&xs, &ys, 3);
            t.row(vec![
                device.to_string(),
                renderer.name().to_string(),
                format!("{:.1}", acc.within_50),
                format!("{:.1}", acc.within_25),
                format!("{:.1}", acc.within_10),
                format!("{:.1}", acc.within_5),
                format!("{:.1}", acc.mean_error_pct),
            ]);
        }
    }
    t
}

/// Table 14: compositing-model cross-validation accuracy, per exchange kind
/// (dense wire -> the paper's 3-term model, RLE wire -> the active-fraction
/// model).
pub fn table14(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Table 14: compositing model 3-fold CV accuracy (dense vs RLE exchange)",
        &["model", "50%", "25%", "10%", "5%", "avg err %", "n"],
    );
    for (name, wire) in [
        ("compositing (dense)", CompositeWire::Dense),
        ("compositing (compressed)", CompositeWire::Compressed),
    ] {
        let (_, acc) = composite_cv(corpus, wire);
        t.row(vec![
            name.into(),
            format!("{:.1}", acc.within_50),
            format!("{:.1}", acc.within_25),
            format!("{:.1}", acc.within_10),
            format!("{:.1}", acc.within_5),
            format!("{:.1}", acc.mean_error_pct),
            acc.n.to_string(),
        ]);
    }
    t
}

/// Table 15: "Titan" — calibrate on the small corpus, then predict a
/// 1024-task weak-scaled run and compare against the measured+simulated
/// actual time.
pub fn table15(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let set = corpus.fit_models("parallel");
    let k = corpus.mapping_constants();
    let tasks = 1024usize;
    let n = match scale {
        Scale::Quick => 40usize,
        Scale::Full => 256,
    };
    let side = scale.image_side() * 2;
    let mut t = TextTable::new(
        format!("Table 15: large-scale prediction at {tasks} simulated tasks"),
        &["renderer", "actual (s)", "predicted (s)", "difference", "train samples"],
    );
    for renderer in crate::corpus::RENDERERS {
        // Actual: render one representative task. In weak scaling each task
        // sees 1/tasks^(1/3) of the pixels (render a proportionally smaller
        // image at the study's fill) and a 1/tasks^(1/3) sampling density.
        let scale = (tasks as f64).cbrt();
        let task_side = ((side as f64 / scale.sqrt()) as u32).max(48);
        let task_spr = ((373.0 / scale) as u32).max(8);
        let local = perfmodel::study::run_one_with_samples(
            &Device::parallel(),
            renderer,
            n,
            task_side,
            0.75,
            task_spr,
        )
        .expect("table-15 probe render failed");
        // The paper's Titan table compares *rendering* time only — "our
        // compositing model is not appropriate at the scale of 1024 MPI
        // tasks, so we do not present it here" (Section 5.7). We do the same.
        let actual = local.render_seconds;
        let cfg = RenderConfig {
            renderer,
            cells_per_task: n,
            pixels: (side as usize) * (side as usize),
            tasks,
        };
        let inputs = perfmodel::mapping::map_inputs(&cfg, &k);
        let predicted = set.predict_local_seconds(&inputs).max(0.0);
        let train = corpus.subset("parallel", renderer).len();
        t.row(vec![
            renderer.name().to_string(),
            fmt_s(actual),
            fmt_s(predicted),
            format!("{:+.1}%", (predicted - actual) / actual * 100.0),
            train.to_string(),
        ]);
    }
    t
}

/// Table 16: mapping validation — predicted vs observed model inputs and the
/// resulting execution-time predictions, for six random configurations.
pub fn table16(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let k = corpus.mapping_constants();
    let mut t = TextTable::new(
        "Table 16: mapping validation (predicted vs observed inputs and times)",
        &[
            "test", "renderer", "AP pred", "AP obs", "aux pred", "aux obs", "t(map)", "t(obs)",
            "t actual",
        ],
    );
    let configs = [
        (RendererKind::VolumeRendering, 36usize, 200u32),
        (RendererKind::RayTracing, 44, 160),
        (RendererKind::Rasterization, 36, 176),
        (RendererKind::VolumeRendering, 44, 232),
        (RendererKind::RayTracing, 30, 168),
        (RendererKind::Rasterization, 34, 280),
    ];
    let sets: std::collections::HashMap<&str, perfmodel::feasibility::ModelSet> =
        DEVICES.iter().map(|d| (*d, corpus.fit_models(d))).collect();
    for (i, (renderer, n, side)) in configs.iter().enumerate() {
        let device = if i % 2 == 0 { "parallel" } else { "serial" };
        let dev = if device == "parallel" { Device::parallel() } else { Device::Serial };
        // Observed inputs come from a real render at the corpus's median
        // camera fill (the mapping's constants average over that range).
        let observed =
            run_one(&dev, *renderer, *n, *side, 0.75).expect("table probe render failed");
        let cfg = RenderConfig {
            renderer: *renderer,
            cells_per_task: *n,
            pixels: (*side as usize) * (*side as usize),
            tasks: 1,
        };
        let mapped = map_inputs(&cfg, &k);
        let set = &sets[device];
        let predict = |s: &perfmodel::sample::RenderSample| set.predict_local_seconds(s);
        let (aux_pred, aux_obs) = match renderer {
            RendererKind::VolumeRendering => (mapped.samples_per_ray, observed.samples_per_ray),
            RendererKind::Rasterization => {
                (mapped.pixels_per_triangle, observed.pixels_per_triangle)
            }
            RendererKind::RayTracing => (mapped.objects, observed.objects),
        };
        t.row(vec![
            i.to_string(),
            format!("{}/{}", device, renderer.name()),
            fmt_count(mapped.active_pixels),
            fmt_count(observed.active_pixels),
            format!("{aux_pred:.1}"),
            format!("{aux_obs:.1}"),
            fmt_s(predict(&mapped)),
            fmt_s(predict(&observed)),
            fmt_s(observed.render_seconds),
        ]);
    }
    t
}

/// Technique label for Table 17, carrying the solver's condition diagnostics
/// when the fit needed the ridge fallback.
fn table17_label(name: &str, m: &FittedLinearModel) -> String {
    if m.fit.condition_warning {
        format!("{name} [ill-cond, rank {}/{}]", m.fit.effective_rank, m.fit.coeffs.len())
    } else {
        name.to_string()
    }
}

/// Table 17: the experimentally determined coefficients. Compositing gets one
/// row per exchange kind; ill-conditioned fits are flagged on the technique
/// label with the solver's effective rank.
pub fn table17(scale: Scale) -> TextTable {
    let corpus = ensure_corpus(scale);
    let mut t = TextTable::new(
        "Table 17: fitted model coefficients",
        &["technique", "device", "c0", "c1", "c2", "c3", "c4"],
    );
    for device in DEVICES {
        let rt_samples = corpus.subset(device, RendererKind::RayTracing);
        let rt = Family::Rt.fit(&rt_samples);
        let build = Family::RtBuild.fit(&rt_samples);
        // Paper order for RT: c0,c1 = build; c2,c3,c4 = render.
        t.row(vec![
            table17_label("ray_tracing", &rt),
            device.into(),
            format!("{:.3e}", build.coeffs()[0]),
            format!("{:.3e}", build.coeffs()[1]),
            format!("{:.3e}", rt.coeffs()[0]),
            format!("{:.3e}", rt.coeffs()[1]),
            format!("{:.3e}", rt.coeffs()[2]),
        ]);
        let ra = Family::Rast.fit(&corpus.subset(device, RendererKind::Rasterization));
        t.row(vec![
            table17_label("rasterization", &ra),
            device.into(),
            format!("{:.3e}", ra.coeffs()[0]),
            format!("{:.3e}", ra.coeffs()[1]),
            format!("{:.3e}", ra.coeffs()[2]),
            "-".into(),
            "-".into(),
        ]);
        let vr = Family::Vr.fit(&corpus.subset(device, RendererKind::VolumeRendering));
        t.row(vec![
            table17_label("volume", &vr),
            device.into(),
            format!("{:.3e}", vr.coeffs()[0]),
            format!("{:.3e}", vr.coeffs()[1]),
            format!("{:.3e}", vr.coeffs()[2]),
            "-".into(),
            "-".into(),
        ]);
    }
    let comp = Family::Comp.fit(&corpus.composite_subset(CompositeWire::Dense));
    t.row(vec![
        table17_label("compositing (dense)", &comp),
        "-".into(),
        format!("{:.3e}", comp.coeffs()[0]),
        format!("{:.3e}", comp.coeffs()[1]),
        format!("{:.3e}", comp.coeffs()[2]),
        "-".into(),
        "-".into(),
    ]);
    let comp = Family::CompRle.fit(&corpus.composite_subset(CompositeWire::Compressed));
    t.row(vec![
        table17_label("compositing (compressed)", &comp),
        "-".into(),
        format!("{:.3e}", comp.coeffs()[0]),
        format!("{:.3e}", comp.coeffs()[1]),
        format!("{:.3e}", comp.coeffs()[2]),
        format!("{:.3e}", comp.coeffs()[3]),
        "-".into(),
    ]);
    t
}

/// Active-pixel compression report: what the run-length exchange saves over
/// the dense exchange, per algorithm and rank count, on the study's synthetic
/// sparse rank images. The paper's testbeds composited through IceT, whose
/// run-length compression of inactive pixels this reproduces; both paths
/// produce pixel-identical images, so the delta is pure wire savings.
pub fn compression(scale: Scale) -> TextTable {
    use compositing::{
        binary_swap_opts, direct_send_opts, radix_k_opts, CompositeMode, ExchangeOptions,
    };
    use mpirt::NetModel;
    use perfmodel::study::synth_rank_images;

    let mut t = TextTable::new(
        "Compression: dense vs run-length exchange (radix-k study images)",
        &["tasks", "algorithm", "dense MB", "wire MB", "ratio", "dense sim s", "comp sim s"],
    );
    let side = match scale {
        Scale::Quick => 128u32,
        Scale::Full => 512,
    };
    let tasks_list: &[usize] = match scale {
        Scale::Quick => &[8, 64],
        Scale::Full => &[8, 64, 256, 1024],
    };
    type Exchange<'a> = Box<dyn Fn(ExchangeOptions) -> compositing::CompositeStats + 'a>;
    let net = NetModel::cluster();
    let mode = CompositeMode::AlphaOrdered;
    for &tasks in tasks_list {
        let images = synth_rank_images(tasks, side, 7);
        let factors = compositing::algorithms::default_factors(tasks);
        let algs: Vec<(&str, Exchange)> = vec![
            ("direct send", Box::new(|o| direct_send_opts(&images, mode, net, o).1)),
            ("binary swap", Box::new(|o| binary_swap_opts(&images, mode, net, o).1)),
            ("radix-k", Box::new(|o| radix_k_opts(&images, mode, net, &factors, o).1)),
        ];
        for (name, run) in &algs {
            let comp = run(ExchangeOptions::default());
            let dense = run(ExchangeOptions::dense());
            t.row(vec![
                tasks.to_string(),
                name.to_string(),
                format!("{:.2}", dense.total_bytes as f64 / 1e6),
                format!("{:.2}", comp.total_bytes as f64 / 1e6),
                format!("{:.2}x", comp.compression_ratio()),
                format!("{:.4}", dense.simulated_seconds),
                format!("{:.4}", comp.simulated_seconds),
            ]);
        }
    }
    t
}

/// DFB vs radix-k on the RLE wire: measured seconds (serialized timing
/// pool), deterministic wire bytes, and what the fitted models predict for
/// each configuration. The crossover lives in the winner columns: radix-k's
/// `O(log Tasks)` barriered rounds win at small task counts, while the DFB's
/// overlapped per-tile streams amortize their linear message tax and take
/// over at scale.
pub fn dfb(scale: Scale) -> TextTable {
    use compositing::{dfb_compose_opts, radix_k_opts, CompositeMode, ExchangeOptions};
    use mpirt::NetModel;
    use perfmodel::sample::CompositeSample;
    use perfmodel::study::{run_composite_study_wired, synth_rank_images};

    let (tasks_list, sides): (&[usize], &[u32]) = match scale {
        Scale::Quick => (&[2, 8, 64], &[256, 512]),
        Scale::Full => (&[2, 8, 64], &[256, 512, 1024]),
    };
    let net = NetModel::cluster();
    let samples =
        run_composite_study_wired(net, tasks_list, sides, 31).expect("compositing study failed");
    let rle: Vec<CompositeSample> =
        samples.iter().filter(|s| s.wire == CompositeWire::Compressed).cloned().collect();
    let dfbs: Vec<CompositeSample> =
        samples.iter().filter(|s| s.wire == CompositeWire::Dfb).cloned().collect();
    let rle_fit = Family::CompRle.fit(&rle);
    let dfb_fit = Family::CompDfb.fit(&dfbs);

    let mut t = TextTable::new(
        "DFB vs radix-k (RLE wire): measured, wire bytes, model-predicted winner",
        &[
            "tasks",
            "side",
            "rk wire MB",
            "dfb wire MB",
            "rk sim s",
            "dfb sim s",
            "rk meas ms",
            "dfb meas ms",
            "rk pred ms",
            "dfb pred ms",
            "measured",
            "predicted",
        ],
    );
    let mode = CompositeMode::AlphaOrdered;
    let winner = |rk: f64, df: f64| if df < rk { "dfb" } else { "radix-k" };
    for &tasks in tasks_list {
        let factors = compositing::algorithms::default_factors(tasks);
        for &side in sides {
            let images = synth_rank_images(tasks, side, 31);
            let (_, rk) = radix_k_opts(&images, mode, net, &factors, ExchangeOptions::default());
            let (_, df) = dfb_compose_opts(&images, mode, net, ExchangeOptions::default());
            let px = side as f64 * side as f64;
            let find = |set: &[CompositeSample]| {
                set.iter().find(|s| s.tasks == tasks && s.pixels == px).cloned()
            };
            let (Some(rs), Some(ds)) = (find(&rle), find(&dfbs)) else { continue };
            let rk_pred = rle_fit.predict(&rs);
            let dfb_pred = dfb_fit.predict(&ds);
            t.row(vec![
                tasks.to_string(),
                side.to_string(),
                format!("{:.2}", rk.total_bytes as f64 / 1e6),
                format!("{:.2}", df.total_bytes as f64 / 1e6),
                format!("{:.4}", rk.simulated_seconds),
                format!("{:.4}", df.simulated_seconds),
                format!("{:.3}", rs.seconds * 1e3),
                format!("{:.3}", ds.seconds * 1e3),
                format!("{:.3}", rk_pred * 1e3),
                format!("{:.3}", dfb_pred * 1e3),
                winner(rs.seconds, ds.seconds).to_string(),
                winner(rk_pred, dfb_pred).to_string(),
            ]);
        }
    }
    t
}

/// Cross-validation (actual, predicted) pairs for figure 11.
pub fn cv_pairs(
    corpus: &crate::corpus::Corpus,
    device: &str,
    renderer: RendererKind,
) -> Vec<(f64, f64)> {
    let (xs, ys) = model_xy(corpus, device, renderer);
    k_fold(&xs, &ys, 3)
}

/// Compositing CV pairs + summary for one exchange kind (figure 13 /
/// table 14 inputs). Dense samples cross-validate the paper's 3-term model;
/// compressed samples the active-fraction model.
pub fn composite_cv(
    corpus: &crate::corpus::Corpus,
    wire: CompositeWire,
) -> (Vec<(f64, f64)>, AccuracySummary) {
    let samples = corpus.composite_subset(wire);
    let family = Family::wire_chain(wire)[0];
    let xs: Vec<Vec<f64>> = samples.iter().map(|s| family.features(s)).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let pairs = k_fold(&xs, &ys, 3);
    let acc = AccuracySummary::from_pairs(&pairs);
    (pairs, acc)
}

/// Ablations of the design choices DESIGN.md calls out: stream compaction,
/// Morton ray ordering, anti-aliasing, sampler-side early termination, and
/// the pass-count/memory trade — each toggled in isolation.
pub fn ablations(scale: Scale) -> TextTable {
    let mut t = TextTable::new(
        "Ablations: design-choice on/off timings",
        &["experiment", "off (s)", "on (s)", "on/off", "note"],
    );
    let side = scale.image_side();

    // --- Ray tracing toggles on a far view (many dead rays). ---
    let spec = &surface_dataset_pool()[4]; // RM 350K
    let mesh = spec.build(scale.dataset_scale());
    let geom = TriGeometry::from_mesh(&mesh);
    let rt = RayTracer::new(Device::parallel(), geom);
    let far = Camera::far_view(&rt.geom.bounds);
    let close = Camera::close_view(&rt.geom.bounds);
    let time_rt = |cam: &Camera, cfg: &RtConfig| {
        let _ = rt.render(cam, side, side, cfg);
        let mut s = 0.0;
        for _ in 0..scale.rounds() {
            s += rt.render(cam, side, side, cfg).stats.render_seconds;
        }
        s / scale.rounds() as f64
    };
    {
        let mut base = RtConfig::workload3();
        base.antialias = false;
        base.compaction = false;
        let off = time_rt(&far, &base);
        let mut on_cfg = base.clone();
        on_cfg.compaction = true;
        let on = time_rt(&far, &on_cfg);
        t.row(vec![
            "RT stream compaction (far view)".into(),
            fmt_s(off),
            fmt_s(on),
            format!("{:.2}", on / off),
            "helps when many rays die".into(),
        ]);
    }
    {
        let base = RtConfig::workload2();
        let off = time_rt(&close, &base);
        let mut on_cfg = base.clone();
        on_cfg.morton_sort_rays = true;
        let on = time_rt(&close, &on_cfg);
        t.row(vec![
            "RT Morton ray order (close view)".into(),
            fmt_s(off),
            fmt_s(on),
            format!("{:.2}", on / off),
            "coherence vs sort cost".into(),
        ]);
    }
    {
        let mut base = RtConfig::workload3();
        base.antialias = false;
        let off = time_rt(&close, &base);
        let mut on_cfg = base.clone();
        on_cfg.antialias = true;
        let on = time_rt(&close, &on_cfg);
        t.row(vec![
            "RT 2x2 anti-aliasing".into(),
            fmt_s(off),
            fmt_s(on),
            format!("{:.2}", on / off),
            "~4x primary rays".into(),
        ]);
    }

    // --- BVH builder quality: LBVH (DPP) vs SAH (tuned) vs SBVH (Ch. II). ---
    {
        let spec = &surface_dataset_pool()[7]; // Seismic: the heavy scene
        let mesh = spec.build(scale.dataset_scale() * 0.7);
        let geom = TriGeometry::from_mesh(&mesh);
        let cam = Camera::close_view(&geom.bounds);
        let n_rays = (side as f64) * (side as f64);
        let time_tracer = |bvh: &render::raytrace::Bvh| {
            let probe = |_: ()| {
                let t0 = std::time::Instant::now();
                for py in 0..side {
                    for px in 0..side {
                        let ray = cam.primary_ray(px, py, side, side, 0.5, 0.5);
                        std::hint::black_box(bvh.closest_hit(&geom, &ray));
                    }
                }
                t0.elapsed().as_secs_f64()
            };
            probe(()); // warm
            probe(())
        };
        let lbvh = render::raytrace::Bvh::build(&Device::parallel(), &geom);
        let sbvh = render::raytrace::build_split_bvh(&geom, 1e-6);
        let t_l = time_tracer(&lbvh);
        let t_s = time_tracer(&sbvh);
        t.row(vec![
            "SBVH vs LBVH traversal".into(),
            fmt_s(t_l),
            fmt_s(t_s),
            format!("{:.2}", t_s / t_l),
            format!(
                "{:.1} vs {:.1} Mrays/s; {} extra refs",
                n_rays / t_l / 1e6,
                n_rays / t_s / 1e6,
                sbvh.prim_order.len() - geom.num_tris()
            ),
        ]);
    }

    // --- Volume rendering toggles. ---
    let tets = enzo10m_tets(scale);
    let cam = Camera::close_view(&tets.bounds());
    let tf = tet_tf(&tets).with_opacity_scale(3.0); // opaque enough to terminate
    let time_vr = |cfg: &UvrConfig| {
        let _ =
            render_unstructured(&Device::parallel(), &tets, "scalar", &cam, side, side, &tf, cfg);
        let out =
            render_unstructured(&Device::parallel(), &tets, "scalar", &cam, side, side, &tf, cfg)
                .expect("render");
        out.stats.render_seconds
    };
    {
        let off_cfg =
            UvrConfig { depth_samples: 256, early_termination: 1.1, ..Default::default() };
        let on_cfg =
            UvrConfig { depth_samples: 256, early_termination: 0.98, ..Default::default() };
        let off = time_vr(&off_cfg);
        let on = time_vr(&on_cfg);
        t.row(vec![
            "VR early ray termination".into(),
            fmt_s(off),
            fmt_s(on),
            format!("{:.2}", on / off),
            "sampler + compositor skip opaque pixels".into(),
        ]);
    }
    {
        let one = UvrConfig { depth_samples: 256, num_passes: 1, ..Default::default() };
        let eight = UvrConfig { depth_samples: 256, num_passes: 8, ..Default::default() };
        let off = time_vr(&one);
        let on = time_vr(&eight);
        let mem_one = render::volume_unstructured::sample_buffer_bytes(side, side, &one);
        let mem_eight = render::volume_unstructured::sample_buffer_bytes(side, side, &eight);
        t.row(vec![
            "VR 8 passes vs 1".into(),
            fmt_s(off),
            fmt_s(on),
            format!("{:.2}", on / off),
            format!("memory {} -> {} MiB", mem_one >> 20, mem_eight >> 20),
        ]);
    }
    t
}

/// `repro sched`: the model-driven in situ scheduler demo. For each proxy
/// app, a budgeted (scheduled) run and a blind full-fidelity baseline execute
/// the same request stream on the simulated 64-rank machine; the table
/// reports budget adherence, how much the scheduler intervened, and the
/// prediction-error trajectory (first vs last quartile of cycles) as the
/// online refit converges. A per-cycle trajectory CSV is written alongside.
pub fn sched_demo(scale: Scale) -> TextTable {
    use sched::{run_budgeted_demo, DemoConfig};
    use sims::ProxySim;

    let cycles = match scale {
        Scale::Quick => 32usize,
        Scale::Full => 96,
    };
    let mut t = TextTable::new(
        format!("Model-driven scheduler: budget adherence and refit trajectory ({cycles} cycles)"),
        &["sim", "mode", "budget (s)", "within budget", "degraded", "rejected", "err q1", "err q4"],
    );
    let mut trajectory = String::from("sim,cycle,level,predicted_s,actual_s,within\n");
    for scheduled in [true, false] {
        let mut lulesh = sims::Lulesh::new(10);
        let mut kripke = sims::Kripke::new(12);
        let mut clover = sims::Cloverleaf::new(12);
        let proxies: [&mut dyn ProxySim; 3] = [&mut lulesh, &mut kripke, &mut clover];
        for sim in proxies {
            let report = run_budgeted_demo(sim, &DemoConfig { cycles, scheduled });
            if scheduled {
                for c in &report.cycles {
                    use std::fmt::Write as _;
                    let within = c.actual_s <= report.budget_s;
                    let _ = writeln!(
                        trajectory,
                        "{},{},{},{:.6e},{:.6e},{within}",
                        report.sim, c.cycle, c.level, c.predicted_s, c.actual_s
                    );
                }
            }
            t.row(vec![
                report.sim.into(),
                if scheduled { "scheduled" } else { "blind" }.into(),
                format!("{:.4}", report.budget_s),
                format!("{:.0}%", 100.0 * report.adherence()),
                format!("{}", report.degraded_total()),
                format!("{}", report.rejected_total()),
                format!("{:.1}%", 100.0 * report.first_quartile_error()),
                format!("{:.1}%", 100.0 * report.last_quartile_error()),
            ]);
        }
    }
    crate::write_artifact("sched_trajectory.csv", &trajectory);
    t
}

/// `repro feasd`: the feasibility service under seeded traffic. Two
/// scenarios replay the same generated arrival stream on a virtual clock —
/// uniform load inside capacity and bursty overload — and the table reports
/// offered/answered/shed counts, the table hit rate, shed rate, latency
/// percentiles, and throughput. Every number is a pure function of the seed
/// (the acceptance suite pins bit-determinism).
pub fn feasd_demo(scale: Scale) -> TextTable {
    use feasd::{generate, simulate, Feasd, FeasdConfig, Lattice, TrafficConfig};
    use sched::demo::ground_truth;

    let queries = match scale {
        Scale::Quick => 2_000usize,
        Scale::Full => 20_000,
    };
    let seed = 2024u64;
    let lattice = Lattice::service_default();
    let cfg = || FeasdConfig { pool: Device::Serial, ..FeasdConfig::default() };

    let mut t = TextTable::new(
        format!("Feasibility service under seeded traffic (seed {seed})"),
        &["scenario", "offered", "answered", "shed", "hit %", "shed %", "p50 us", "p99 us", "qps"],
    );
    let scenarios = [
        ("uniform", TrafficConfig::uniform(queries, seed, 20_000.0)),
        ("bursty", TrafficConfig::bursty(queries, seed, 60_000.0)),
    ];
    for (name, traffic) in scenarios {
        let service =
            Feasd::new(ground_truth(), perfmodel::mapping::MappingConstants::default(), cfg());
        let events = generate(&traffic, &lattice);
        let r = simulate(&service, &events, name);
        t.row(vec![
            r.scenario.clone(),
            r.offered.to_string(),
            r.answered.to_string(),
            r.shed.to_string(),
            format!("{:.1}", 100.0 * r.hit_rate),
            format!("{:.1}", 100.0 * r.shed_rate),
            format!("{:.1}", r.p50_s * 1e6),
            format!("{:.1}", r.p99_s * 1e6),
            format!("{:.0}", r.qps),
        ]);
    }
    t
}

/// Strong-scaling sweep of the fork-join execution engine: the same
/// primitive (and one full ray-traced frame) on dedicated pools of 1, 2, and
/// 4 workers. Output bytes are identical across pool sizes — the engine's
/// determinism guarantee — so the rows isolate scheduling behaviour.
/// `cores_detected` records the host's logical core count: on a single-core
/// runner the speedup column legitimately hovers near 1x (the pools
/// oversubscribe one core), and readers must interpret the table against it.
pub fn scaling(scale: Scale) -> TextTable {
    /// A named benchmark body, run once per pool size.
    type ScalingOp<'a> = (&'a str, Box<dyn FnMut(&Device) + 'a>);
    const THREADS: [usize; 3] = [1, 2, 4];
    let n: usize = match scale {
        Scale::Quick => 1 << 18,
        Scale::Full => 1 << 22,
    };
    let side: u32 = match scale {
        Scale::Quick => 96,
        Scale::Full => 512,
    };
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut t = TextTable::new(
        format!(
            "Strong scaling of the fork-join engine (n = {n}, frame = {side}x{side}) \
             [active grains: par_min_len={}, fold_grain={}, overpartition={}]",
            dpp::par_min_len(),
            rayon::fold_grain(),
            rayon::overpartition()
        ),
        &["op", "threads", "seconds", "speedup", "cores_detected"],
    );
    let data: Vec<u32> = (0..n).map(|i| (i % 977) as u32).collect();
    let mesh = surface_dataset_pool()[0].build(scale.dataset_scale());
    let geom = TriGeometry::from_mesh(&mesh);
    let cam = Camera::close_view(&geom.bounds);
    let cfg = RtConfig::workload2();

    // Warm once, keep the fastest of three: min-of-k is robust against
    // sibling load on shared runners.
    let time_min3 = |f: &mut dyn FnMut()| -> f64 {
        f();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    let mut ops: Vec<ScalingOp> = vec![
        (
            "map",
            Box::new(|d: &Device| {
                std::hint::black_box(dpp::map::<u64, _>(d, n, |i| data[i] as u64 * 3 + 1));
            }),
        ),
        (
            "scan",
            Box::new(|d: &Device| {
                std::hint::black_box(dpp::exclusive_scan_u32(d, &data));
            }),
        ),
        (
            "reduce",
            Box::new(|d: &Device| {
                std::hint::black_box(dpp::map_reduce(d, n, |i| data[i] as u64, 0u64, |a, b| a + b));
            }),
        ),
        (
            "frame",
            Box::new(|d: &Device| {
                // Full pipeline: LBVH build + WORKLOAD2 render.
                let rt = RayTracer::new(d.clone(), geom.clone());
                std::hint::black_box(rt.render(&cam, side, side, &cfg).stats.render_seconds);
            }),
        ),
    ];
    for (name, op) in ops.iter_mut() {
        let mut base = f64::NAN;
        for &k in &THREADS {
            let device = Device::parallel_with_threads(k);
            let secs = time_min3(&mut || op(&device));
            if k == THREADS[0] {
                base = secs;
            }
            t.row(vec![
                name.to_string(),
                k.to_string(),
                fmt_s(secs),
                format!("{:.2}x", base / secs),
                cores.to_string(),
            ]);
        }
    }

    // Grain-knob sweep. The knobs are latched at first use (one process never
    // mixes two grains), so every setting is observed by a fresh child
    // process running `repro grain-probe` with the `DPP_*` override set.
    // When the host binary is not `repro` (e.g. this function under `cargo
    // test`) the probe is unavailable and the sweep degrades to a note.
    let sweeps: [(&str, [&str; 3]); 3] = [
        ("DPP_PAR_MIN_LEN", ["256", "1024", "8192"]),
        ("DPP_FOLD_GRAIN", ["256", "1024", "8192"]),
        ("DPP_OVERPARTITION", ["1", "4", "16"]),
    ];
    let base = probe_child(None);
    for (var, vals) in sweeps {
        for val in vals {
            match (probe_child(Some((var, val))), base) {
                (Some((map_s, reduce_s)), Some((map_b, reduce_b))) => {
                    t.row(vec![
                        format!("map@{var}={val}"),
                        PROBE_THREADS.to_string(),
                        fmt_s(map_s),
                        format!("{:.2}x", map_b / map_s),
                        cores.to_string(),
                    ]);
                    t.row(vec![
                        format!("reduce@{var}={val}"),
                        PROBE_THREADS.to_string(),
                        fmt_s(reduce_s),
                        format!("{:.2}x", reduce_b / reduce_s),
                        cores.to_string(),
                    ]);
                }
                _ => {
                    t.row(vec![
                        format!("probe@{var}={val}"),
                        PROBE_THREADS.to_string(),
                        "n/a".into(),
                        "n/a".into(),
                        cores.to_string(),
                    ]);
                }
            }
        }
    }
    t
}

/// Worker count every grain probe runs at, so probe rows compare
/// like-for-like across settings.
const PROBE_THREADS: usize = 4;

/// Body of the hidden `repro grain-probe` mode: time a map and a reduce at
/// `PROBE_THREADS` workers under whatever `DPP_*` grains this process
/// latched, and print one parsable line. [`scaling`] shells out here once
/// per knob setting because the knobs cannot change after first use.
pub fn grain_probe() -> String {
    let n: usize = 1 << 18;
    let data: Vec<u32> = (0..n).map(|i| (i % 977) as u32).collect();
    let device = Device::parallel_with_threads(PROBE_THREADS);
    let min3 = |f: &mut dyn FnMut()| -> f64 {
        f();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let map_s = min3(&mut || {
        std::hint::black_box(dpp::map::<u64, _>(&device, n, |i| data[i] as u64 * 3 + 1));
    });
    let reduce_s = min3(&mut || {
        std::hint::black_box(dpp::map_reduce(&device, n, |i| data[i] as u64, 0u64, |a, b| a + b));
    });
    format!(
        "grain-probe,{},{},{},{map_s:.6e},{reduce_s:.6e}",
        dpp::par_min_len(),
        rayon::fold_grain(),
        rayon::overpartition()
    )
}

/// Run [`grain_probe`] in a child process with one `DPP_*` override (or none
/// for the baseline) and parse `(map_s, reduce_s)` back out. `None` when the
/// current executable does not speak `grain-probe`.
fn probe_child(setting: Option<(&str, &str)>) -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("grain-probe");
    if let Some((var, val)) = setting {
        cmd.env(var, val);
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8(out.stdout).ok()?;
    let line = stdout.lines().find(|l| l.starts_with("grain-probe,"))?;
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 6 {
        return None;
    }
    Some((fields[4].parse().ok()?, fields[5].parse().ok()?))
}

/// `repro graph`: pass-granular admission for the ray tracer. A camera orbit
/// renders frames with one prebuilt `RayTracer`; every phase's measured
/// timing streams into the online refit as a `PassSample` (the orbit runs
/// on, up to 3× its length, while a pass family's wall-clock fit is still
/// rejected), the refitted per-pass models price the pass-granular ladder,
/// and the table prices a budget that full fidelity misses by less than the
/// ambient-occlusion pass costs: the pass ladder holds it at *full
/// resolution* by shedding AO, while the whole-frame ladder's only move is
/// to throw away 75% of the pixels. The per-phase timing log is written to
/// `graph_passes.csv`.
pub fn graph_demo(scale: Scale) -> TextTable {
    use perfmodel::feasibility::ModelSet;
    use perfmodel::sample::{PassSample, Sample};
    use sched::ladder::{first_fit, label_at, Rung, RungWork, LADDER, PASS_LADDER};
    use sched::refit::RefitReport;
    use sched::OnlineRefit;

    let side = scale.image_side();
    let frames = match scale {
        Scale::Quick => 6usize,
        Scale::Full => 18,
    };
    let spec = &surface_dataset_pool()[4]; // RM 350K
    let mesh = spec.build(scale.dataset_scale());
    let rt = RayTracer::new(Device::parallel(), TriGeometry::from_mesh(&mesh));
    let tf = TransferFunction::rainbow(rt.geom.scalar_range);
    let cfg = RtConfig::workload3();
    let bounds = rt.geom.bounds;

    // The window slides over the last `frames` frames, so a preempted
    // frame's outlier ages out of the refit instead of biasing every retry.
    let mut refit = OnlineRefit::new(frames, 4);
    let mut csv = String::from("frame,pass,work_units,seconds\n");
    let mut last_full = None;
    // Install the per-pass models fitted from the observed pass timings, the
    // way the scheduler does online: after the orbit's `frames` frames the
    // window is re-solved, and while a pass family is still missing (a
    // wall-clock fit whose noise-driven intercept came out negative is
    // rejected) one more frame is observed and the window re-solved again.
    let mut set = sched::demo::ground_truth();
    let both_installed = |set: &ModelSet| {
        set.get(Family::PassAo).is_some() && set.get(Family::PassShadows).is_some()
    };
    let mut report = RefitReport::default();
    let mut used = 0usize;
    for f in 0..3 * frames {
        // Orbit: every frame's camera is new; each further lap is offset
        // half a step so it repeats no earlier camera.
        let a = (f as f64 + 0.5 * (f / frames) as f64) / frames as f64 * std::f64::consts::TAU;
        let dir = Vec3::new(a.cos() as f32, 0.25, a.sin() as f32);
        let cam = Camera::framing(&bounds, dir, 0.9);
        // Cycle the resolution so the observed pass work units span a range
        // the 2-term regression can fit (constant work would be
        // rank-deficient); every third frame, and the orbit's last, lands on
        // full resolution.
        let s = side * (2 + (f % 3) as u32) / 4;
        let phases = rt.render_with_map(&cam, s, s, &cfg, &tf).phases;
        for p in &phases.phases {
            use std::fmt::Write as _;
            let _ = writeln!(csv, "{f},{},{},{:.6e}", p.name, p.work_units, p.seconds);
            // Phases that did work feed the per-pass refit (which windows
            // only the sheddable passes that have a model family).
            if p.work_units > 0 {
                refit.observe(Sample::Pass(PassSample {
                    pass: p.name.to_string(),
                    work_units: p.work_units as f64,
                    seconds: p.seconds,
                }));
            }
        }
        if s == side {
            last_full = Some(phases);
        }
        used = f + 1;
        if used >= frames {
            report = refit.refit_into(&mut set);
            if both_installed(&set) {
                break;
            }
        }
    }
    crate::write_artifact("graph_passes.csv", &csv);
    assert!(
        both_installed(&set),
        "per-pass refit must install both pass models within {used} frames \
         (refitted: {:?}, rejected: {:?})",
        report.refitted,
        report.rejected
    );

    // Whole-frame cost at each resolution rung, measured on the tracer's
    // prebuilt BVH from a fresh camera.
    let frame_measured: Vec<f64> = (0..3u8)
        .map(|h| {
            let s = (side >> h).max(8);
            let cam = Camera::framing(&bounds, Vec3::new(0.3, 0.8, -0.6), 0.9);
            rt.render_with_map(&cam, s, s, &cfg, &tf).stats.render_seconds
        })
        .collect();
    let full = last_full.expect("at least one full-resolution frame");
    let work = RungWork {
        ao_units: full.work_of("ambient_occlusion") as f64,
        shadow_units: full.work_of("shadows") as f64,
        build_seconds: rt.bvh_build_seconds,
    };
    let price = |r: &Rung| r.price(&set, frame_measured[(r.halvings as usize).min(2)], &work);
    // A budget the pass ladder can hold at full resolution (just above the
    // skip-AO rung) but every full-resolution whole-frame rung misses: the
    // whole-frame ladder must halve.
    let budget = price(&PASS_LADDER[2]) * 1.02;
    let level = |rungs: &[Rung]| {
        first_fit(rungs, 0, |r| (price(&r) <= budget).then_some(()))
            .map_or(rungs.len(), |(l, ())| l)
    };
    let (pass_level, frame_level) = (level(&PASS_LADDER), level(&LADDER));

    let mut t = TextTable::new(
        format!(
            "Ray tracer: pass-granular admission under a {:.1} ms budget \
             (pass ladder holds level {pass_level} = {}, whole-frame ladder falls to {})",
            budget * 1e3,
            label_at(&PASS_LADDER, pass_level),
            label_at(&LADDER, frame_level),
        ),
        &["ladder", "rung", "predicted (s)", "within budget", "pixels kept"],
    );
    for (name, rungs) in [("pass", &PASS_LADDER[..]), ("whole-frame", &LADDER)] {
        for i in 0..=rungs.len() {
            let (pred, kept) = rungs
                .get(i)
                .map_or((0.0, 0.0), |r| (price(r), 100.0 * 0.25f64.powi(i32::from(r.halvings))));
            t.row(vec![
                name.into(),
                format!("{i}: {}", label_at(rungs, i)),
                fmt_s(pred),
                if pred <= budget { "yes" } else { "no" }.into(),
                format!("{kept:.0}%"),
            ]);
        }
    }
    // The refit trailer: which families the observed pass timings installed.
    for family in [Family::PassAo, Family::PassShadows] {
        if let Some(m) = set.get(family) {
            let name = m.name();
            t.row(vec![
                "refit".into(),
                name.into(),
                format!("r2={:.3} n={}", m.fit.r_squared, m.fit.n),
                if report.refitted.contains(&name) { "installed" } else { "kept" }.into(),
                String::new(),
            ]);
        }
    }
    t.row(vec![
        "refit".into(),
        "orbit frames observed".into(),
        format!("{used} (bound {})", 3 * frames),
        String::new(),
        String::new(),
    ]);
    t
}

/// One cycle of the [`rebalance_run`] simulation, under both schemes.
#[derive(Debug, Clone)]
pub struct RebalanceCycle {
    pub cycle: usize,
    /// Static partition's per-cycle `max(T_LR)` / mean.
    pub static_max: f64,
    pub static_mean: f64,
    /// Rebalanced partition's per-cycle `max(T_LR)` / mean / imbalance.
    pub reb_max: f64,
    pub reb_mean: f64,
    pub imbalance: f64,
    /// Cells moved this cycle (0 until the trigger fires).
    pub migrated_cells: usize,
    /// `T_total = max(T_LR) + T_COMP`, with the rebalanced side's migration
    /// stall charged by the event clock.
    pub static_total: f64,
    pub reb_total: f64,
}

/// Everything `repro rebalance` measures, exposed separately so the
/// acceptance test can assert on the numbers the table prints.
#[derive(Debug, Clone)]
pub struct RebalanceRun {
    pub cycles: Vec<RebalanceCycle>,
    pub ranks: usize,
    pub num_cells: usize,
    /// Modeled compositing term (constant across cycles and schemes).
    pub comp_s: f64,
    /// Total migration bytes charged to the event clock.
    pub migration_bytes: u64,
    /// Simulated seconds the event clock spent on migration traffic.
    pub migration_s: f64,
    /// The fitted `T_LR = c0*cells + c1` model's claim about the
    /// post-rebalance max term, made the cycle the rebalance fired.
    pub predicted_max: Option<f64>,
    /// The measured `max(T_LR)` of the first cycle after that rebalance.
    pub measured_max_after: Option<f64>,
}

/// `repro rebalance`: the distributed-data performance loop at 64 simulated
/// ranks. The LULESH proxy runs a few Sedov steps; its hex mesh is
/// partitioned with split planes *deliberately sized for the physics* —
/// small domains near the blast corner where the simulation is busiest,
/// large ones far away. Render cost tracks cell count, not physics, so the
/// far ranks own several times the work and `max(T_LR)` dominates the
/// paper's `T_total = max(T_LR) + T_COMP`. The [`sched::rebalance`]
/// controller watches the measured per-rank times, and on sustained
/// imbalance recomputes the split planes from measured per-cell costs and
/// migrates cells — with the migration traffic charged to the event clock,
/// so the converged win is net of what the move cost. The table (and
/// `rebalance.csv`) shows both schemes' per-cycle `T_total` converging, plus
/// the fitted model's prediction of the post-rebalance max term.
pub fn rebalance_run(scale: Scale) -> RebalanceRun {
    use mesh::partition::{hex_centroids, Partition};
    use mpirt::{EventWorld, NetModel};
    use perfmodel::sample::CompositeSample;
    use sched::rebalance::{charge_migration, imbalance, RebalanceConfig, Rebalancer};
    use sims::ProxySim;

    let ranks = 64usize;
    let n = match scale {
        Scale::Quick => 12usize,
        Scale::Full => 24,
    };
    let num_cycles = 12usize;
    let t_cell = 150e-6f64; // uniform measured render cost per cell

    // A LULESH mesh a few steps into the Sedov blast.
    let mut sim = sims::Lulesh::new(n);
    for _ in 0..5 {
        sim.step();
    }
    let hex = sim.hex_mesh();
    let centroids = hex_centroids(&hex);
    let num_cells = centroids.len();

    // The deliberately skewed layout: split planes sized as if per-cell cost
    // grew toward the blast corner (the cell holding the peak energy), so
    // ranks far from the corner own several times more cells.
    let e = hex.field("e").expect("lulesh publishes e");
    let hot = e
        .values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| centroids[i])
        .unwrap_or(vecmath::Vec3::ZERO);
    let diag = {
        let b = hex.bounds();
        (b.max - b.min).length().max(1e-6)
    };
    let physics_weights: Vec<f64> =
        centroids.iter().map(|c| 1.0 + 15.0 * f64::from((*c - hot).length() / diag)).collect();
    let skewed = Partition::weighted_bisect(&centroids, &physics_weights, ranks);

    // Constant compositing term from the ground-truth model: 64 tasks
    // merging a quick-scale frame.
    let set = sched::demo::ground_truth();
    let pixels = f64::from(scale.image_side()) * f64::from(scale.image_side());
    let comp_s = set.predict_composite_seconds(
        &CompositeSample {
            tasks: ranks,
            pixels,
            avg_active_pixels: pixels * 0.25,
            seconds: 0.0,
            wire: CompositeWire::Dense,
        },
        CompositeWire::Dense,
    );

    let per_rank =
        |p: &Partition| -> Vec<f64> { p.counts().iter().map(|&c| c as f64 * t_cell).collect() };

    let cfg = RebalanceConfig { threshold: 1.3, sustain_cycles: 3, bytes_per_cell: 256 };
    let mut rb = Rebalancer::with_partition(centroids, skewed.clone(), cfg);
    let mut world = EventWorld::new(ranks, NetModel::cluster());

    let mut cycles = Vec::with_capacity(num_cycles);
    let mut migration_bytes = 0u64;
    let mut migration_s = 0.0f64;
    let mut predicted_max = None;
    let mut measured_max_after = None;
    let mut awaiting_measurement = false;
    for cycle in 0..num_cycles {
        let st = per_rank(&skewed);
        let rt = per_rank(rb.partition());
        if awaiting_measurement && measured_max_after.is_none() {
            measured_max_after = Some(rt.iter().copied().fold(0.0f64, f64::max));
        }
        let e0 = world.elapsed();
        for (rank, &t) in rt.iter().enumerate() {
            world.compute(rank, t);
        }
        let compute_elapsed = world.elapsed();
        let mig = rb.observe_cycle(&rt);
        let mut migrated_cells = 0usize;
        if let Some(mig) = &mig {
            migrated_cells = mig.moved_cells();
            migration_bytes += charge_migration(&mut world, mig, cfg.bytes_per_cell);
            migration_s += world.elapsed() - compute_elapsed;
            predicted_max = rb.predict_max_seconds();
            awaiting_measurement = true;
        }
        let static_max = st.iter().copied().fold(0.0f64, f64::max);
        let reb_max = rt.iter().copied().fold(0.0f64, f64::max);
        cycles.push(RebalanceCycle {
            cycle,
            static_max,
            static_mean: st.iter().sum::<f64>() / st.len() as f64,
            reb_max,
            reb_mean: rt.iter().sum::<f64>() / rt.len() as f64,
            imbalance: imbalance(&rt),
            migrated_cells,
            static_total: perfmodel::models::total_time(&st, comp_s),
            reb_total: world.elapsed() - e0 + comp_s,
        });
    }
    RebalanceRun {
        cycles,
        ranks,
        num_cells,
        comp_s,
        migration_bytes,
        migration_s,
        predicted_max,
        measured_max_after,
    }
}

/// Render [`rebalance_run`] as the `repro rebalance` table; its CSV is the
/// per-cycle record (`rebalance.csv`).
pub fn rebalance(scale: Scale) -> TextTable {
    let run = rebalance_run(scale);
    let last = run.cycles.last().expect("at least one cycle");
    let mut t = TextTable::new(
        format!(
            "Dynamic rebalancing at {} simulated ranks ({} LULESH cells): \
             static T_total {} vs rebalanced {} (migrated {} bytes in {} simulated s; \
             fitted model predicted post-rebalance max {} vs measured {})",
            run.ranks,
            run.num_cells,
            fmt_s(last.static_total),
            fmt_s(last.reb_total),
            run.migration_bytes,
            fmt_s(run.migration_s),
            run.predicted_max.map_or_else(|| "-".into(), fmt_s),
            run.measured_max_after.map_or_else(|| "-".into(), fmt_s),
        ),
        &[
            "cycle",
            "static_max_tlr",
            "static_mean_tlr",
            "reb_max_tlr",
            "reb_mean_tlr",
            "imbalance",
            "migrated_cells",
            "static_t_total",
            "reb_t_total",
        ],
    );
    for c in &run.cycles {
        t.row(vec![
            c.cycle.to_string(),
            format!("{:.6e}", c.static_max),
            format!("{:.6e}", c.static_mean),
            format!("{:.6e}", c.reb_max),
            format!("{:.6e}", c.reb_mean),
            format!("{:.3}", c.imbalance),
            c.migrated_cells.to_string(),
            format!("{:.6e}", c.static_total),
            format!("{:.6e}", c.reb_total),
        ]);
    }
    t
}
