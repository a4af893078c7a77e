//! The three tightly coupled workloads: a proxy simulation steps, describes
//! its mesh as a conduit node, and blocks on `Strawman::publish` +
//! `Strawman::execute`, which render and save PNGs.
//!
//! | kind               | simulation       | plots                      | images/cycle |
//! |--------------------|------------------|----------------------------|--------------|
//! | surface            | `Lulesh::new(24)`     | ray tracer + rasterizer, close + far, 288² | 4 |
//! | volume structured  | `Cloverleaf::new(32)` | volume (-> `render_structured`), 320²      | 1 |
//! | volume unstructured| `Lulesh::new(10)`     | volume (hex -> tets -> `render_unstructured`), 104² | 1 |
//!
//! Sizes put one cycle near 0.1 s on a 2-core host, so a 20 s run has well
//! over 100 measured cycles.
//!
//! The simulation steps once per cycle, so every cycle publishes new data,
//! and starts over every [`SIM_PERIOD`] cycles: the cost of a cycle changes
//! as the physics evolves (LULESH's surface cycle halves in cost over 200
//! steps), and a run that measures for a fixed time must not see a different
//! mix of cycles because the host, or the code, got faster.

use super::{frames_identical, probes, Env, Outcome, Workload};
use crate::trace::Tracer;
use conduit_node::Node;
use dpp::Device;
use mesh::external_faces::external_faces_hex;
use perfmodel::mapping::MappingConstants;
use render::graph::{render_rt_graph, GraphCache};
use render::raster::rasterize;
use render::raytrace::bvh::Bvh;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::volume_structured::{render_structured, SvrConfig};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use sched::{Scheduler, SchedulerConfig};
use sims::{Cloverleaf, Lulesh, ProxySim};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use strawman::{
    AdmissionDecision, AdmissionHook, AdmissionRequest, CompositeObservation, ExecutedRender,
    Options, Strawman,
};
use vecmath::{Camera, Color, TransferFunction};

/// Cycles after which the simulation restarts from its seeded start state.
/// Longer than any cross-frame cache in the system holds entries for.
const SIM_PERIOD: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Surface,
    VolumeStructured,
    VolumeUnstructured,
}

impl Kind {
    fn image_side(self) -> u32 {
        match self {
            Kind::Surface => 288,
            Kind::VolumeStructured => 320,
            Kind::VolumeUnstructured => 104,
        }
    }

    fn file_stem(self) -> &'static str {
        match self {
            Kind::Surface => "surface",
            Kind::VolumeStructured => "volume_structured",
            Kind::VolumeUnstructured => "volume_unstructured",
        }
    }
}

enum Sim {
    Lulesh(Lulesh),
    Clover(Cloverleaf),
}

impl Sim {
    /// The simulation of `kind`, `pre_steps` steps into its evolution.
    fn start(kind: Kind, pre_steps: u64) -> Sim {
        let mut sim = match kind {
            Kind::Surface => Sim::Lulesh(Lulesh::new(24)),
            Kind::VolumeStructured => Sim::Clover(Cloverleaf::new(32)),
            Kind::VolumeUnstructured => Sim::Lulesh(Lulesh::new(10)),
        };
        for _ in 0..pre_steps {
            sim.step();
        }
        sim
    }

    fn step(&mut self) {
        match self {
            Sim::Lulesh(s) => s.step(),
            Sim::Clover(s) => s.step(),
        }
    }
}

/// The scheduler in Strawman's hook slot, shared with the harness so it can
/// close each cycle, and timed from outside when the tracer is on.
struct TimedHook {
    sched: Rc<RefCell<Scheduler>>,
    tracer: Rc<Tracer>,
}

impl AdmissionHook for TimedHook {
    fn admit(&mut self, req: &AdmissionRequest) -> AdmissionDecision {
        self.tracer
            .measure("sched.admit_us", || AdmissionHook::admit(&mut *self.sched.borrow_mut(), req))
    }

    fn observe(&mut self, done: &ExecutedRender) {
        self.tracer.measure("sched.observe_us", || {
            AdmissionHook::observe(&mut *self.sched.borrow_mut(), done)
        })
    }

    fn observe_composite(&mut self, done: &CompositeObservation) {
        AdmissionHook::observe_composite(&mut *self.sched.borrow_mut(), done)
    }
}

pub struct InSitu {
    kind: Kind,
    sim: Sim,
    /// Where in its evolution the simulation (re)starts: the seed's choice.
    pre_steps: u64,
    steps_in_period: u64,
    /// Cycles published so far; `state/cycle` of the next one.
    published: i64,
    sm: Strawman,
    sched: Option<Rc<RefCell<Scheduler>>>,
    actions: Node,
    device: Device,
    tracer: Rc<Tracer>,
    out_dir: PathBuf,
    /// `sm.records` of the cycle that just ran start here.
    cycle_start: usize,
    cycle_ok: bool,
}

fn lulesh_node(sim: &Lulesh, cycle: i64) -> Node {
    let mesh = sim.hex_mesh();
    // Zero-copy coordinates and connectivity, as examples/insitu_lulesh.rs.
    let xs: Arc<Vec<f32>> = Arc::new(mesh.points.iter().map(|p| p.x).collect());
    let ys: Arc<Vec<f32>> = Arc::new(mesh.points.iter().map(|p| p.y).collect());
    let zs: Arc<Vec<f32>> = Arc::new(mesh.points.iter().map(|p| p.z).collect());
    let conn: Arc<Vec<u32>> = Arc::new(mesh.hexes.iter().flatten().copied().collect());
    let mut data = Node::new();
    data.set("state/time", sim.time());
    data.set("state/cycle", cycle);
    data.set("state/domain", 0i64);
    data.set("coords/type", "explicit");
    data.set_external_f32("coords/x", xs);
    data.set_external_f32("coords/y", ys);
    data.set_external_f32("coords/z", zs);
    data.set("topology/type", "unstructured");
    data.set("topology/elements/shape", "hexs");
    data.set_external_u32("topology/elements/connectivity", conn);
    data.set("fields/e/association", "element");
    data.set("fields/e/values", sim.energy().to_vec());
    data
}

fn cloverleaf_node(sim: &Cloverleaf, cycle: i64) -> Node {
    let grid = sim.grid();
    let mut data = Node::new();
    data.set("state/time", sim.time());
    data.set("state/cycle", cycle);
    data.set("state/domain", 0i64);
    data.set("coords/type", "rectilinear");
    data.set("coords/values/x", grid.xs.clone());
    data.set("coords/values/y", grid.ys.clone());
    data.set("coords/values/z", grid.zs.clone());
    data.set("fields/density/association", "element");
    data.set("fields/density/values", sim.density());
    data
}

fn actions(kind: Kind) -> Node {
    let (var, plots, views): (&str, &[(&str, &str)], &[&str]) = match kind {
        Kind::Surface => {
            ("e", &[("pseudocolor", "raytracer"), ("pseudocolor", "rasterizer")], &["close", "far"])
        }
        Kind::VolumeStructured => ("density", &[("volume", "raytracer")], &["close"]),
        Kind::VolumeUnstructured => ("e", &[("volume", "raytracer")], &["close"]),
    };
    let mut a = Node::new();
    for (plot_type, renderer) in plots {
        let add = a.append();
        add.set("action", "AddPlot");
        add.set("var", var);
        add.set("type", *plot_type);
        add.set("renderer", *renderer);
    }
    a.append().set("action", "DrawPlots");
    for view in views {
        let save = a.append();
        save.set("action", "SaveImage");
        // One file per view, overwritten every cycle.
        save.set("fileName", format!("{}_{view}", kind.file_stem()));
        save.set("format", "png");
        save.set("camera", *view);
        save.set("width", kind.image_side() as i64);
        save.set("height", kind.image_side() as i64);
    }
    a
}

/// A complete PNG of the given size: signature, IHDR with these dimensions
/// first, IEND last.
fn png_ok(path: &Path, width: u32, height: u32) -> bool {
    const SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];
    const IEND: [u8; 12] = [0, 0, 0, 0, b'I', b'E', b'N', b'D', 0xae, 0x42, 0x60, 0x82];
    let Ok(bytes) = std::fs::read(path) else { return false };
    bytes.len() > 33 + IEND.len()
        && bytes[..8] == SIGNATURE
        && &bytes[12..16] == b"IHDR"
        && bytes[16..20] == width.to_be_bytes()
        && bytes[20..24] == height.to_be_bytes()
        && bytes[bytes.len() - 12..] == IEND
}

/// What the surface plots render: LULESH's external faces coloured by the
/// node-averaged energy, their colour map, and the mesh bounds the cameras
/// frame.
fn surface_stage(sim: &Lulesh) -> (TriGeometry, TransferFunction, vecmath::Aabb) {
    let hexes = sim.hex_mesh();
    let geom = TriGeometry::from_mesh(&external_faces_hex(&hexes, Some("e_p")));
    let tf = TransferFunction::rainbow(geom.scalar_range);
    (geom, tf, hexes.bounds())
}

impl InSitu {
    pub fn new(kind: Kind, env: &Env) -> InSitu {
        // The seed picks where in the simulation's evolution the run starts.
        let pre_steps = env.seed % 16;
        // The scheduler rides along on the surface workload only, with a
        // budget no cycle reaches: every render must come back `Admitted`.
        let sched = (kind == Kind::Surface).then(|| {
            Rc::new(RefCell::new(Scheduler::new(
                sched::demo::ground_truth(),
                MappingConstants::default(),
                SchedulerConfig::new(3600.0, 1),
            )))
        });
        let sm = Strawman::open(Options {
            device: env.device.clone(),
            output_dir: env.out_dir.to_path_buf(),
            cycle_budget_s: sched.as_ref().map(|_| 3600.0),
            scheduler: sched.as_ref().map(|s| {
                Box::new(TimedHook { sched: Rc::clone(s), tracer: Rc::clone(&env.tracer) })
                    as Box<dyn AdmissionHook>
            }),
            ..Options::default()
        });
        InSitu {
            kind,
            sim: Sim::start(kind, pre_steps),
            pre_steps,
            steps_in_period: 0,
            published: 0,
            sm,
            sched,
            actions: actions(kind),
            device: env.device.clone(),
            tracer: Rc::clone(&env.tracer),
            out_dir: env.out_dir.to_path_buf(),
            cycle_start: 0,
            cycle_ok: false,
        }
    }

    fn describe(&self) -> Node {
        match &self.sim {
            Sim::Lulesh(s) => lulesh_node(s, self.published),
            Sim::Clover(s) => cloverleaf_node(s, self.published),
        }
    }

    fn side(&self) -> u32 {
        self.kind.image_side()
    }

    /// The surface cycle's stages through direct layer calls. LULESH's own
    /// node-averaged field `e_p` is bit-for-bit what Strawman derives from
    /// the published element field `e`, so this is the same geometry.
    fn replay_surface(&self, sim: &Lulesh) {
        let tr = &self.tracer;
        let side = self.side();
        let hexes = sim.hex_mesh();
        let tri = tr.measure("mesh.external_faces_s", || external_faces_hex(&hexes, Some("e_p")));
        let geom = tr.measure("render.rt.geometry_s", || TriGeometry::from_mesh(&tri));
        let tf = TransferFunction::rainbow(geom.scalar_range);
        let bvh = tr.measure("render.rt.bvh_build_s", || Bvh::build(&self.device, &geom));
        let rt = RayTracer {
            device: self.device.clone(),
            geom,
            bvh,
            shading: None,
            bvh_build_seconds: 0.0,
        };
        let bounds = hexes.bounds();
        let cfg = RtConfig::workload2();
        let close = tr.measure("render.rt.trace_close_s", || {
            rt.render_with_map(&Camera::close_view(&bounds), side, side, &cfg, &tf)
        });
        let far = tr.measure("render.rt.trace_far_s", || {
            rt.render_with_map(&Camera::far_view(&bounds), side, side, &cfg, &tf)
        });
        for (metric, phase) in [
            ("render.rt.ray_gen_s", "ray_gen"),
            ("render.rt.intersect_s", "intersect"),
            ("render.rt.shade_s", "shade"),
        ] {
            tr.value(metric, close.phases.seconds_of(phase) + far.phases.seconds_of(phase));
        }
        let rays = (close.stats.rays_traced + far.stats.rays_traced) as f64;
        tr.value("render.rt.rays_traced", rays);
        tr.value("render.rt.active_pixels_close", close.stats.active_pixels as f64);
        tr.value("render.rt.active_pixels_far", far.stats.active_pixels as f64);
        let trace_s = close.stats.render_seconds + far.stats.render_seconds;
        tr.value("render.rt.mrays_per_s", rays / trace_s.max(1e-12) / 1e6);

        let mut total = 0.0;
        let mut phases = [0.0f64; 3];
        for camera in [Camera::close_view(&bounds), Camera::far_view(&bounds)] {
            let (out, seconds) = tr.span("render.raster.total", || {
                rasterize(&self.device, &rt.geom, &camera, side, side, &tf, None)
            });
            total += seconds;
            for (sum, phase) in phases.iter_mut().zip(["transform_cull", "bin_fill", "sample_fill"])
            {
                *sum += out.phases.seconds_of(phase);
            }
        }
        tr.value("render.raster.total_s", total);
        tr.value("render.raster.transform_cull_s", phases[0]);
        tr.value("render.raster.bin_fill_s", phases[1]);
        tr.value("render.raster.sample_fill_s", phases[2]);
    }

    fn replay_volume_structured(&self, sim: &Cloverleaf) {
        let tr = &self.tracer;
        let side = self.side();
        // CloverLeaf's own point-averaged density stands in for the
        // cell-to-point average Strawman takes of the published field.
        let grid = sim.grid().to_uniform();
        let range = grid.field("density_p").and_then(|f| f.range()).unwrap_or((0.0, 1.0));
        let tf = TransferFunction::sparse_features(range);
        let camera = Camera::close_view(&grid.bounds());
        let out = render_structured(
            &self.device,
            &grid,
            "density_p",
            &camera,
            side,
            side,
            &tf,
            &SvrConfig::default(),
        );
        if let Ok(out) = out {
            tr.value("render.svr.raycast_s", out.phases.seconds_of("raycast"));
            tr.value(
                "render.svr.samples",
                out.stats.samples_per_ray * out.stats.active_pixels as f64,
            );
        }
    }

    fn replay_volume_unstructured(&self, sim: &Lulesh) {
        let tr = &self.tracer;
        let side = self.side();
        let hexes = sim.hex_mesh();
        let tets = tr.measure("mesh.hex_to_tets_s", || hexes.to_tets());
        let range = tets.field("e_p").and_then(|f| f.range()).unwrap_or((0.0, 1.0));
        let tf = TransferFunction::sparse_features(range);
        let camera = Camera::close_view(&hexes.bounds());
        let out = tr.measure("render.uvr.total_s", || {
            render_unstructured(
                &self.device,
                &tets,
                "e_p",
                &camera,
                side,
                side,
                &tf,
                &UvrConfig::default(),
            )
        });
        if let Ok(out) = out {
            for (metric, phase) in [
                ("render.uvr.initialization_s", "initialization"),
                ("render.uvr.pass_selection_s", "pass_selection"),
                ("render.uvr.screen_space_s", "screen_space"),
                ("render.uvr.sampling_s", "sampling"),
                ("render.uvr.compositing_s", "compositing"),
            ] {
                tr.value(metric, out.phases.seconds_of(phase));
            }
        }
    }

    /// `render_rt_graph` on the surface geometry with a fresh and then a
    /// reused cache. The in situ path does not call the graph today; this is
    /// the baseline a "one render path" change has to beat, and warm against
    /// cold says what cross-frame reuse could save.
    fn probe_graph(&self, sim: &Lulesh) {
        let tr = &self.tracer;
        let side = self.side();
        let (geom, tf, bounds) = surface_stage(sim);
        let camera = Camera::close_view(&bounds);
        let cfg = RtConfig::workload2();
        for _ in 0..probes::REPEATS {
            let mut cache = GraphCache::new(16);
            let mut run = |metric| {
                tr.measure(metric, || {
                    render_rt_graph(
                        &self.device,
                        &geom,
                        &camera,
                        side,
                        side,
                        &cfg,
                        &tf,
                        &[],
                        Some(&mut cache),
                    )
                })
            };
            let _cold = run("render.graph.rt_cold_s");
            if let Ok((_, info)) = run("render.graph.rt_warm_s") {
                let cached = info.records.iter().filter(|r| r.cached).count();
                tr.value(
                    "render.graph.cache_hit_frac",
                    cached as f64 / info.records.len().max(1) as f64,
                );
                tr.value(
                    "render.graph.peak_live_frac",
                    info.peak_live_bytes as f64 / info.total_bytes.max(1) as f64,
                );
            }
        }
    }

    /// The final surface frame (rasterizer, far view) must be byte-identical
    /// to a `Device::Serial` render of the same stage via direct layer calls.
    fn final_frame_matches_serial(&self, sim: &Lulesh) -> bool {
        let Some(last) = &self.sm.last_frame else { return false };
        let (geom, tf, bounds) = surface_stage(sim);
        let camera = Camera::far_view(&bounds);
        let side = self.side();
        let mut frame = rasterize(&Device::Serial, &geom, &camera, side, side, &tf, None).frame;
        frame.set_background(Color::WHITE);
        frames_identical(last, &frame)
    }
}

impl Workload for InSitu {
    fn prepare(&mut self) {
        if self.steps_in_period == SIM_PERIOD {
            self.sim = Sim::start(self.kind, self.pre_steps);
            self.steps_in_period = 0;
        }
        self.steps_in_period += 1;
        let tr = Rc::clone(&self.tracer);
        tr.measure("sims.step_s", || self.sim.step());
    }

    fn cycle(&mut self) -> Outcome {
        let tr = Rc::clone(&self.tracer);
        self.cycle_start = self.sm.records.len();
        self.published += 1;
        let data = tr.measure("conduit.describe_s", || self.describe());
        let published = tr.measure("strawman.publish_s", || self.sm.publish(&data));
        let executed = tr.measure("strawman.execute_s", || self.sm.execute(&self.actions));
        if let Some(sched) = &self.sched {
            tr.measure("sched.end_cycle_us", || {
                sched.borrow_mut().end_cycle();
            });
        }
        self.cycle_ok = published.is_ok() && executed.is_ok();
        Outcome {
            delivered: (self.sm.records.len() - self.cycle_start) as u64,
            ..Outcome::default()
        }
    }

    fn check(&mut self) -> Outcome {
        let mut o = Outcome::default();
        o.check(self.cycle_ok);
        let side = self.side();
        for rec in &self.sm.records[self.cycle_start..] {
            let saved = rec.path.as_deref().is_some_and(|p| png_ok(p, side, side));
            o.check(saved && rec.width == side && rec.height == side && rec.active_pixels > 0);
        }
        o
    }

    fn replay(&mut self) {
        let tr = Rc::clone(&self.tracer);
        match (&self.sim, self.kind) {
            (Sim::Lulesh(s), Kind::Surface) => self.replay_surface(s),
            (Sim::Lulesh(s), _) => self.replay_volume_unstructured(s),
            (Sim::Clover(s), _) => self.replay_volume_structured(s),
        }
        let records = &self.sm.records[self.cycle_start..];
        let render_s: f64 = records.iter().map(|r| r.render_seconds).sum();
        tr.value("strawman.render_s", render_s);
        let mut save_s = 0.0;
        if let Some(frame) = &self.sm.last_frame {
            let path = self.out_dir.join("replay.png");
            let (_, seconds) =
                tr.span("strawman.save", || strawman::api::write_image(frame, &path, "png"));
            tr.value("strawman.save_s", seconds);
            save_s = seconds * records.len() as f64;
            let rgba = frame.to_rgba8();
            tr.measure("strawman.png_encode_s", || {
                std::hint::black_box(strawman::png::encode_rgba(frame.width, frame.height, &rgba))
            });
        }
        // What `execute` spent that is neither scheduler (its child spans),
        // nor render, nor save: the remainder is reported, not hidden.
        if let Some(execute) = tr.last_span("strawman.execute") {
            let (own, total) = tr.self_and_total_seconds(execute);
            tr.value("strawman.unattributed_frac", (own - render_s - save_s) / total.max(1e-12));
        }
    }

    fn probes(&mut self) {
        probes::dpp(&self.tracer, &self.device);
        if let (Sim::Lulesh(s), Kind::Surface) = (&self.sim, self.kind) {
            self.probe_graph(s);
        }
        if let Some(sched) = &self.sched {
            let errors: Vec<f64> =
                sched.borrow().history.iter().map(|c| c.abs_rel_error()).collect();
            self.tracer.value("sched.pred_abs_rel_err_p50", crate::stats::median(&errors));
        }
    }

    fn verify(&mut self) -> Outcome {
        let mut o = Outcome::default();
        let renders = self.sm.records.len() as u32;
        o.check(self.sm.admissions.totals() == (renders, 0, 0));
        if let (Sim::Lulesh(s), Kind::Surface) = (&self.sim, self.kind) {
            o.check(self.final_frame_matches_serial(s));
        }
        self.sm.close();
        o
    }
}
