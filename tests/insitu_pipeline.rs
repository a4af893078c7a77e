//! Integration: full in situ loops — each proxy simulation publishing through
//! Conduit conventions into Strawman and rendering every cycle.

use conduit_node::Node;
use dpp::Device;
use render::Framebuffer;
use sims::ProxySim;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use strawman::{
    AdmissionDecision, AdmissionHook, AdmissionRequest, ExecutedRender, Options, Strawman,
    StrawmanError,
};

/// Options writing into a directory no other instance of this process uses
/// (the tests of this file run on parallel threads).
fn test_options() -> Options {
    static INSTANCE: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: Relaxed — a counter handing out distinct numbers; it publishes nothing.
    let instance = INSTANCE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("strawman_it_{}_{instance}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    Options { device: Device::Serial, output_dir: dir, ..Options::default() }
}

/// LULESH's mesh as the host publishes it: zero-copy coordinates, the element
/// fields `e` and `p`.
fn lulesh_node(sim: &sims::Lulesh) -> Node {
    let mesh = sim.hex_mesh();
    let mut data = Node::new();
    data.set("state/cycle", sim.cycle() as i64);
    data.set("coords/type", "explicit");
    data.set_external_f32("coords/x", Arc::new(mesh.points.iter().map(|p| p.x).collect()));
    data.set_external_f32("coords/y", Arc::new(mesh.points.iter().map(|p| p.y).collect()));
    data.set_external_f32("coords/z", Arc::new(mesh.points.iter().map(|p| p.z).collect()));
    data.set("topology/type", "unstructured");
    data.set("topology/elements/shape", "hexs");
    data.set(
        "topology/elements/connectivity",
        mesh.hexes.iter().flatten().copied().collect::<Vec<u32>>(),
    );
    for var in ["e", "p"] {
        data.set(&format!("fields/{var}/association"), "element");
        data.set(&format!("fields/{var}/values"), mesh.field(var).unwrap().values.clone());
    }
    data
}

/// `Lulesh::new(8)` after `steps` steps, as a published node.
fn stepped_lulesh(steps: usize) -> Node {
    let mut sim = sims::Lulesh::new(8);
    for _ in 0..steps {
        sim.step();
    }
    lulesh_node(&sim)
}

/// A uniform grid with a vertex field `e` and an element field `p`.
fn uniform_node() -> Node {
    let g = mesh::datasets::field_grid(mesh::datasets::FieldKind::ShockShell, [10; 3]);
    let mut d = Node::new();
    d.set("coords/type", "uniform");
    d.set("coords/dims/i", g.dims[0] as i64);
    d.set("coords/dims/j", g.dims[1] as i64);
    d.set("coords/dims/k", g.dims[2] as i64);
    d.set("fields/e/association", "vertex");
    d.set("fields/e/values", g.field("scalar").unwrap().values.clone());
    d.set("fields/p/association", "element");
    d.set("fields/p/values", (0..g.num_cells()).map(|i| (i % 37) as f32).collect::<Vec<f32>>());
    d
}

/// An `AddPlot`: `(var, type, renderer)`.
type Plot = (&'static str, &'static str, &'static str);

/// One `AddPlot` per plot, `DrawPlots`, then one 64² `SaveImage` per camera,
/// written to `<camera>.png`.
fn actions(plots: &[Plot], cameras: &[&str]) -> Node {
    let mut a = Node::new();
    for (var, plot_type, renderer) in plots {
        let add = a.append();
        add.set("action", "AddPlot");
        add.set("var", *var);
        add.set("type", *plot_type);
        add.set("renderer", *renderer);
    }
    a.append().set("action", "DrawPlots");
    for camera in cameras {
        let save = a.append();
        save.set("action", "SaveImage");
        save.set("fileName", *camera);
        save.set("camera", *camera);
        save.set("width", 64i64);
        save.set("height", 64i64);
    }
    a
}

/// What the last render of an `execute` delivered: the file and the frame.
struct Delivered {
    png: Vec<u8>,
    frame: Framebuffer,
}

impl Delivered {
    fn last(sm: &Strawman) -> Delivered {
        let path = sm.records.last().unwrap().path.clone().unwrap();
        Delivered { png: std::fs::read(path).unwrap(), frame: sm.last_frame.clone().unwrap() }
    }

    /// The same file bytes, colour bits and depth bits.
    fn same_bytes(&self, o: &Delivered) -> bool {
        let bits = |f: &Framebuffer| -> Vec<u32> {
            let color = f.color.iter().flat_map(|c| [c.r, c.g, c.b, c.a]);
            color.chain(f.depth.iter().copied()).map(f32::to_bits).collect()
        };
        self.png == o.png && bits(&self.frame) == bits(&o.frame)
    }
}

/// Publish `data` to `sm` and execute `plots` × `cameras`; the last render.
fn publish_and_draw(sm: &mut Strawman, data: &Node, plots: &[Plot], cameras: &[&str]) -> Delivered {
    sm.publish(data).unwrap();
    sm.execute(&actions(plots, cameras)).unwrap();
    Delivered::last(sm)
}

/// The single render `plot` × `camera` of `data` on an instance of its own.
fn fresh(data: &Node, plot: Plot, camera: &str) -> Delivered {
    let mut sm = Strawman::open(test_options());
    let out = publish_and_draw(&mut sm, data, &[plot], &[camera]);
    assert_eq!(sm.records.len(), 1);
    out
}

const RT: Plot = ("e", "pseudocolor", "raytracer");
const RASTER: Plot = ("e", "pseudocolor", "rasterizer");
const VOLUME: Plot = ("e", "volume", "raytracer");

fn phase_count(sm: &Strawman, name: &str) -> usize {
    sm.phases.phases.iter().filter(|p| p.name == name).count()
}

#[test]
fn lulesh_in_situ_loop() {
    let mut sim = sims::Lulesh::new(8);
    let mut sm = Strawman::open(test_options());
    for _ in 0..2 {
        sim.step();
        let data = lulesh_node(&sim);
        assert!(data.has_external_data(), "coordinates must publish zero-copy");

        let mut actions = Node::new();
        let add = actions.append();
        add.set("action", "AddPlot");
        add.set("var", "e");
        actions.append().set("action", "DrawPlots");
        let save = actions.append();
        save.set("action", "SaveImage");
        save.set("fileName", "");
        save.set("width", 64i64);
        save.set("height", 64i64);

        sm.publish(&data).unwrap();
        sm.execute(&actions).unwrap();
    }
    assert_eq!(sm.records.len(), 2);
    assert!(sm.records.iter().all(|r| r.active_pixels > 100));
    // Lagrangian mesh deformed between cycles, so the pictures differ.
    assert!(sm.last_frame.is_some());
}

/// Admits the first render it is offered and degrades every later one to the
/// rasterizer at the requested size.
struct SwitchAfterFirst {
    offered: usize,
}

impl AdmissionHook for SwitchAfterFirst {
    fn admit(&mut self, req: &AdmissionRequest) -> AdmissionDecision {
        self.offered += 1;
        if self.offered == 1 {
            return AdmissionDecision::Admit;
        }
        AdmissionDecision::Degrade {
            width: req.width,
            height: req.height,
            switch_to_rasterizer: true,
        }
    }

    fn observe(&mut self, _done: &ExecutedRender) {}
}

/// A render that reuses what an earlier render of the same publish derived
/// delivers the bytes the same render delivers alone on a fresh instance. Two
/// computations of one build are compared, so this holds in either profile.
#[test]
fn reuse_is_invisible_in_the_bytes() {
    for data in [stepped_lulesh(3), uniform_node()] {
        // (plots, cameras) whose last render reuses; the render it must equal.
        let cases: [(&[Plot], &[&str], Plot, &str); 3] = [
            (&[RT], &["close", "far"], RT, "far"),        // far after close
            (&[RT, RASTER], &["close"], RASTER, "close"), // rasterizer borrows the tracer's triangles
            (&[RASTER, RT], &["close"], RT, "close"),     // Geometry -> Traced upgrade
        ];
        for (plots, cameras, last_plot, last_camera) in cases {
            let mut sm = Strawman::open(test_options());
            let reused = publish_and_draw(&mut sm, &data, plots, cameras);
            assert_eq!(sm.records.len(), 2);
            assert_eq!(phase_count(&sm, "surface_geometry"), 1);
            assert_eq!(sm.records[1].renderer, last_plot.2);
            assert!(
                reused.same_bytes(&fresh(&data, last_plot, last_camera)),
                "{plots:?} x {cameras:?}"
            );
        }

        // A `Degrade { switch_to_rasterizer }` decision draws the tracer's
        // triangles with the rasterizer.
        let mut sm = Strawman::open(Options {
            cycle_budget_s: Some(1.0),
            scheduler: Some(Box::new(SwitchAfterFirst { offered: 0 })),
            ..test_options()
        });
        let degraded = publish_and_draw(&mut sm, &data, &[RT], &["close", "far"]);
        assert_eq!((sm.records[0].renderer, sm.records[1].renderer), ("raytracer", "rasterizer"));
        assert_eq!(sm.admissions.totals(), (1, 1, 0));
        assert!(degraded.same_bytes(&fresh(&data, RASTER, "far")));
    }
}

#[test]
fn each_publish_derives_its_surface_and_bvh_once() {
    let mut sim = sims::Lulesh::new(8);
    let mut sm = Strawman::open(test_options());
    for _ in 0..3 {
        sim.step();
        publish_and_draw(&mut sm, &lulesh_node(&sim), &[RT, RASTER], &["close", "far"]);
    }
    assert_eq!(sm.records.len(), 12);
    assert_eq!(phase_count(&sm, "surface_geometry"), 3);
    assert_eq!(phase_count(&sm, "bvh_build"), 3);
    // Work units: cells in, triangles out (two per external quad face).
    assert_eq!(sm.phases.work_of("surface_geometry"), 3 * 8 * 8 * 8);
    assert_eq!(sm.phases.work_of("bvh_build"), 3 * 12 * 8 * 8);

    // A session that never ray traces never builds a BVH.
    let mut sm = Strawman::open(test_options());
    publish_and_draw(&mut sm, &lulesh_node(&sim), &[RASTER], &["close", "far"]);
    assert_eq!((phase_count(&sm, "surface_geometry"), phase_count(&sm, "bvh_build")), (1, 0));

    // A volume plot derives per render and keeps nothing.
    let mut sm = Strawman::open(test_options());
    publish_and_draw(&mut sm, &lulesh_node(&sim), &[VOLUME], &["close", "far"]);
    assert_eq!(sm.records.len(), 2);
    assert_eq!((phase_count(&sm, "surface_geometry"), phase_count(&sm, "bvh_build")), (0, 0));
}

#[test]
fn each_plotted_variable_gets_its_own_surface() {
    const P: Plot = ("p", "pseudocolor", "raytracer");
    for data in [stepped_lulesh(3), uniform_node()] {
        for (first, last) in [(RT, P), (P, RT)] {
            let mut sm = Strawman::open(test_options());
            let drawn = publish_and_draw(&mut sm, &data, &[first, last], &["close", "far"]);
            assert_eq!(sm.records.len(), 4);
            assert_eq!(phase_count(&sm, "surface_geometry"), 2);
            assert_eq!(phase_count(&sm, "bvh_build"), 2);
            assert!(drawn.same_bytes(&fresh(&data, last, "far")));
            assert!(!drawn.same_bytes(&fresh(&data, first, "far")), "the variables look alike");
        }
    }
}

#[test]
fn a_publish_replaces_everything_the_last_one_derived() {
    let plots = [RT, RASTER];
    let (step_n, step_n1) = (stepped_lulesh(3), stepped_lulesh(12));
    let mut sm = Strawman::open(test_options());
    let at_n = publish_and_draw(&mut sm, &step_n, &plots, &["close", "far"]);
    let at_n1 = publish_and_draw(&mut sm, &step_n1, &plots, &["close", "far"]);
    // The second cycle shows only the second publish.
    let mut alone = Strawman::open(test_options());
    assert!(at_n1.same_bytes(&publish_and_draw(&mut alone, &step_n1, &plots, &["close", "far"])));
    assert!(!at_n1.same_bytes(&at_n), "the mesh did not move between the two steps");

    // Close drops the mesh and what was derived from it.
    let records = sm.records.len();
    sm.close();
    let again = sm.execute(&actions(&plots, &["close"]));
    assert!(matches!(again, Err(StrawmanError::NothingPublished)), "{again:?}");
    assert_eq!(sm.records.len(), records);
}

/// A publish that fails must not leave the previous cycle's mesh to be drawn
/// under this cycle's file name.
#[test]
fn a_failed_publish_leaves_nothing_published() {
    let opts = test_options();
    let dir = opts.output_dir.clone();
    let mut sm = Strawman::open(opts);
    let good = stepped_lulesh(3);
    publish_and_draw(&mut sm, &good, &[RT], &["close"]);
    let records = sm.records.len();
    std::fs::remove_file(dir.join("close.png")).unwrap();

    let mut truncated = good.clone();
    let conn = good.get_u32s("topology/elements/connectivity").unwrap();
    truncated.set("topology/elements/connectivity", conn[..conn.len() - 3].to_vec());
    assert!(matches!(sm.publish(&truncated), Err(StrawmanError::Convert(_))));

    let drawn = sm.execute(&actions(&[RT], &["close"]));
    assert!(matches!(drawn, Err(StrawmanError::NothingPublished)), "{drawn:?}");
    assert_eq!(sm.records.len(), records);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a file was written");
}

#[test]
fn kripke_in_situ_rasterized() {
    let mut sim = sims::Kripke::new(12);
    sim.step();
    let grid = sim.grid();
    let mut data = Node::new();
    data.set("coords/type", "uniform");
    data.set("coords/dims/i", grid.dims[0] as i64);
    data.set("coords/dims/j", grid.dims[1] as i64);
    data.set("coords/dims/k", grid.dims[2] as i64);
    data.set("fields/phi/association", "vertex");
    data.set("fields/phi/values", grid.field("phi_p").unwrap().values.clone());

    let mut actions = Node::new();
    let add = actions.append();
    add.set("action", "AddPlot");
    add.set("var", "phi");
    add.set("renderer", "rasterizer");
    actions.append().set("action", "DrawPlots");
    let save = actions.append();
    save.set("action", "SaveImage");
    save.set("fileName", "kripke_test");
    save.set("width", 64i64);
    save.set("height", 64i64);

    let mut sm = Strawman::open(test_options());
    sm.publish(&data).unwrap();
    sm.execute(&actions).unwrap();
    let rec = &sm.records[0];
    assert_eq!(rec.renderer, "rasterizer");
    assert!(rec.active_pixels > 100);
    // The PNG on disk must carry a valid signature and IEND.
    let bytes = std::fs::read(rec.path.as_ref().unwrap()).unwrap();
    assert_eq!(&bytes[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
    assert_eq!(&bytes[bytes.len() - 8..bytes.len() - 4], b"IEND");
}

#[test]
fn cloverleaf_in_situ_volume() {
    let mut sim = sims::Cloverleaf::new(16);
    for _ in 0..2 {
        sim.step();
    }
    let grid = sim.grid();
    let mut data = Node::new();
    data.set("coords/type", "rectilinear");
    data.set("coords/values/x", grid.xs.clone());
    data.set("coords/values/y", grid.ys.clone());
    data.set("coords/values/z", grid.zs.clone());
    data.set("fields/density/association", "element");
    data.set("fields/density/values", grid.field("density").unwrap().values.clone());

    let mut actions = Node::new();
    let add = actions.append();
    add.set("action", "AddPlot");
    add.set("var", "density");
    add.set("type", "volume");
    actions.append().set("action", "DrawPlots");
    let save = actions.append();
    save.set("action", "SaveImage");
    save.set("fileName", "");
    save.set("width", 48i64);
    save.set("height", 48i64);

    let mut sm = Strawman::open(test_options());
    sm.publish(&data).unwrap();
    sm.execute(&actions).unwrap();
    assert_eq!(sm.records[0].renderer, "volume_structured");
    assert!(sm.records[0].active_pixels > 50);
}

#[test]
fn consecutive_cycles_show_evolving_physics() {
    // Volume-render CloverLeaf at two times; the images must differ (the
    // shock moves) — guards against publishing stale state.
    let mut sim = sims::Cloverleaf::new(16);
    let render = |sim: &sims::Cloverleaf| {
        let grid = sim.grid().to_uniform();
        let range = grid.field("energy_p").unwrap().range().unwrap();
        let tf = vecmath::TransferFunction::sparse_features(range);
        let cam = vecmath::Camera::close_view(&grid.bounds());
        render::volume_structured::render_structured(
            &Device::Serial,
            &grid,
            "energy_p",
            &cam,
            48,
            48,
            &tf,
            &render::volume_structured::SvrConfig::default(),
        )
        .unwrap()
        .frame
    };
    let before = render(&sim);
    for _ in 0..8 {
        sim.step();
    }
    let after = render(&sim);
    assert!(before.mean_abs_diff(&after) > 1e-4, "images identical across cycles");
}
