//! The Strawman API: `open` / `publish` / `execute` / `close` (Listing 4.3),
//! plus the in situ pipeline that realizes the actions.

use crate::mesh_convert::{convert, ConvertError, PublishedMesh};
use crate::png;
use compositing::{compose, CompositeMode, CompositeStats, CompositeWire, PixelView, RankImage};
use conduit_node::Node;
use dpp::Device;
use mesh::external_faces::{external_faces_grid, external_faces_hex, external_faces_rectilinear};
use mesh::field::{cell_to_point, structured_cell_to_point};
use mesh::{Assoc, Field, TriMesh, UniformGrid};
use mpirt::NetModel;
use render::counters::{Admission, AdmissionLog, PhaseTimer, RenderOutput, RenderStats};
use render::raster::rasterize;
use render::raytrace::{RayTracer, RtConfig, TriGeometry};
use render::volume_structured::{render_structured, SvrConfig};
use render::volume_unstructured::{render_unstructured, UvrConfig};
use render::Framebuffer;
use std::path::{Path, PathBuf};
use vecmath::{Aabb, Camera, Color, TransferFunction};

/// A render the infrastructure is about to execute, offered to the
/// [`AdmissionHook`] before any work happens.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionRequest {
    pub cycle: i64,
    /// `"raytracer"`, `"rasterizer"`, or `"volume"` (the concrete volume
    /// renderer depends on the published mesh type).
    pub renderer: &'static str,
    pub width: u32,
    pub height: u32,
    /// Cells in the published mesh (data-size hint for cost models).
    pub cells: usize,
    /// Per-cycle render budget from [`Options::cycle_budget_s`].
    pub budget_s: f64,
}

/// What the hook decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Render exactly as requested.
    Admit,
    /// Render at reduced fidelity.
    Degrade { width: u32, height: u32, switch_to_rasterizer: bool },
    /// Skip this render entirely.
    Reject,
}

/// A render that actually ran, reported back so the hook can refine its cost
/// models against what the render measured.
#[derive(Debug, Clone, Copy)]
pub struct ExecutedRender {
    pub cycle: i64,
    /// The renderer that executed (`"raytracer"`, `"rasterizer"`,
    /// `"volume_structured"`, `"volume_unstructured"`).
    pub renderer: &'static str,
    pub width: u32,
    pub height: u32,
    /// The render's own record: its observed model inputs, `render_seconds`
    /// over its frame phases, and as `build_seconds` the `"bvh_build"` phase
    /// this render recorded (0 when it drew a BVH an earlier render of the
    /// publish built). Surface extraction is in neither.
    pub stats: RenderStats,
}

/// A distributed compositing exchange that ran, reported back so the hook
/// can refine its compositing cost model against the wire that actually
/// carried the fragments (RLE-compressed active-pixel spans, over radix-k
/// rounds or the DFB).
#[derive(Debug, Clone, Copy)]
pub struct CompositeObservation {
    pub cycle: i64,
    /// Full image pixel count of the composited frame.
    pub pixels: f64,
    /// Average active pixels per rank going into the exchange.
    pub avg_active_pixels: f64,
    /// Simulated exchange seconds.
    pub seconds: f64,
    /// The exchange that ran: compressed radix-k rounds, or the
    /// asynchronous tile-owner Distributed FrameBuffer.
    pub wire: CompositeWire,
}

/// Admission control consulted before every render when
/// [`Options::cycle_budget_s`] is set. Implemented by the `sched` crate's
/// model-driven scheduler; any budget policy can plug in here.
pub trait AdmissionHook {
    fn admit(&mut self, req: &AdmissionRequest) -> AdmissionDecision;
    /// Observe what a completed render measured.
    fn observe(&mut self, done: &ExecutedRender);
    /// Observe a completed compositing exchange. Default: ignore (render-only
    /// policies need not care about the wire).
    fn observe_composite(&mut self, _done: &CompositeObservation) {}
}

/// Strawman initialization options.
pub struct Options {
    pub device: Device,
    /// Directory image files are written into.
    pub output_dir: PathBuf,
    /// Composite through the asynchronous tile-owner (Distributed
    /// FrameBuffer) exchange instead of barriered radix-k rounds. The merged
    /// image is pixel-identical either way; only the simulated communication
    /// schedule (and therefore the exchange seconds/bytes) differs.
    pub dfb_compositing: bool,
    /// Network model for the simulated compositing exchange.
    pub net: NetModel,
    /// Per-cycle render time budget. When set together with `scheduler`,
    /// every render is offered to the hook, which may admit, degrade, or
    /// reject it.
    pub cycle_budget_s: Option<f64>,
    /// Admission hook gating renders against the budget.
    pub scheduler: Option<Box<dyn AdmissionHook>>,
}

impl std::fmt::Debug for Options {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Options")
            .field("device", &self.device)
            .field("output_dir", &self.output_dir)
            .field("dfb_compositing", &self.dfb_compositing)
            .field("net", &self.net)
            .field("cycle_budget_s", &self.cycle_budget_s)
            .field("scheduler", &self.scheduler.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            device: Device::parallel(),
            output_dir: PathBuf::from("."),
            dfb_compositing: false,
            net: NetModel::cluster(),
            cycle_budget_s: None,
            scheduler: None,
        }
    }
}

/// Errors surfaced to the host simulation.
#[derive(Debug)]
pub enum StrawmanError {
    NothingPublished,
    Convert(ConvertError),
    UnknownAction(String),
    UnknownField(String),
    Render(String),
    Io(std::io::Error),
    /// The admission hook rejected one or more renders this cycle (over
    /// budget even at the deepest degradation).
    Rejected,
    /// A `SaveImage` side (`key` is `width` or `height`) outside
    /// `1..=MAX_IMAGE_SIDE`.
    ImageSide {
        key: &'static str,
        side: i64,
    },
}

/// Largest `SaveImage` width or height: `Framebuffer::index` does its
/// arithmetic in `u32`, which a `MAX_IMAGE_SIDE`² frame still fits.
const MAX_IMAGE_SIDE: u32 = 16_384;

/// A `SaveImage` side as the host passed it (default 512), range-checked
/// before any admission or render call sees it.
fn image_side(action: &Node, key: &'static str) -> Result<u32, StrawmanError> {
    let side = action.get_i64(key).unwrap_or(512);
    match u32::try_from(side) {
        Ok(s) if (1..=MAX_IMAGE_SIDE).contains(&s) => Ok(s),
        _ => Err(StrawmanError::ImageSide { key, side }),
    }
}

impl std::fmt::Display for StrawmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrawmanError::NothingPublished => write!(f, "execute before publish"),
            StrawmanError::Convert(e) => write!(f, "publish: {e}"),
            StrawmanError::UnknownAction(a) => write!(f, "unknown action `{a}`"),
            StrawmanError::UnknownField(v) => write!(f, "unknown field `{v}`"),
            StrawmanError::Render(e) => write!(f, "render: {e}"),
            StrawmanError::Io(e) => write!(f, "io: {e}"),
            StrawmanError::Rejected => write!(f, "render rejected by scheduler (over budget)"),
            StrawmanError::ImageSide { key, side } => {
                write!(f, "SaveImage {key} must be in 1..={MAX_IMAGE_SIDE}, found {side}")
            }
        }
    }
}

impl std::error::Error for StrawmanError {}

impl From<std::io::Error> for StrawmanError {
    fn from(e: std::io::Error) -> Self {
        StrawmanError::Io(e)
    }
}

/// What kind of plot an `AddPlot` requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlotType {
    Pseudocolor,
    Volume,
}

/// Which renderer draws a pseudocolor plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RendererKind {
    RayTracer,
    Rasterizer,
}

#[derive(Debug, Clone)]
struct Plot {
    var: String,
    plot_type: PlotType,
    renderer: RendererKind,
}

/// Record of one completed render + save.
#[derive(Debug, Clone)]
pub struct RenderRecord {
    pub path: Option<PathBuf>,
    pub renderer: &'static str,
    pub width: u32,
    pub height: u32,
    /// Everything this render made the cycle wait for: the first render of a
    /// variable after a publish carries its surface extraction, the first
    /// ray-traced one its BVH build (each also a [`Strawman::phases`] record).
    /// Wall time: the hook is handed [`ExecutedRender::stats`] instead.
    pub render_seconds: f64,
    pub active_pixels: usize,
}

/// The pseudocolor surface of one plotted variable: its triangles, and a BVH
/// over them once a ray-traced plot has drawn it.
enum Surface {
    Geometry(TriGeometry),
    Traced(RayTracer),
}

impl Surface {
    fn geom(&self) -> &TriGeometry {
        match self {
            Surface::Geometry(geom) => geom,
            Surface::Traced(rt) => &rt.geom,
        }
    }
}

/// What one `publish` handed over, and the surfaces derived from it since,
/// by plotted variable. They live exactly as long as the mesh they came from
/// (`publish` and `close` replace the whole value): nothing to invalidate.
struct Published {
    mesh: PublishedMesh,
    bounds: Aabb,
    surfaces: Vec<(String, Surface)>,
}

impl Published {
    /// The surface of `var`: extracted when the first plot of it draws
    /// (`"surface_geometry"` phase), given a BVH when the first ray-traced one
    /// does (`"bvh_build"` phase). An unknown variable leaves nothing behind.
    fn surface(
        &mut self,
        device: &Device,
        var: &str,
        traced: bool,
        phases: &mut PhaseTimer,
    ) -> Result<&Surface, StrawmanError> {
        let (var, surface) = match self.surfaces.iter().position(|(v, _)| v == var) {
            Some(i) => self.surfaces.swap_remove(i),
            None => {
                let (extracted, seconds) = dpp::timed(|| {
                    let geom = TriGeometry::from_mesh(&surface_geometry(&mut self.mesh, var)?);
                    Ok::<_, StrawmanError>((geom, self.mesh.num_cells() as u64))
                });
                let (geom, cells) = extracted?;
                phases.record("surface_geometry", seconds, cells);
                (var.to_string(), Surface::Geometry(geom))
            }
        };
        let surface = match surface {
            Surface::Geometry(geom) if traced => {
                let rt = RayTracer::new(device.clone(), geom);
                phases.record("bvh_build", rt.bvh_build_seconds, rt.geom.num_tris() as u64);
                Surface::Traced(rt)
            }
            kept => kept,
        };
        self.surfaces.push((var, surface));
        Ok(&self.surfaces[self.surfaces.len() - 1].1)
    }
}

/// The in situ infrastructure instance held by a simulation.
pub struct Strawman {
    opts: Options,
    published: Option<Published>,
    cycle: i64,
    plots: Vec<Plot>,
    draw_requested: bool,
    /// Every render performed over the instance's lifetime.
    pub records: Vec<RenderRecord>,
    /// The most recent frame, for tests and streaming-style consumers.
    pub last_frame: Option<Framebuffer>,
    /// Per-phase instrumentation, including bytes moved by compositing.
    pub phases: PhaseTimer,
    /// Per-cycle admitted/degraded/rejected render counts.
    pub admissions: AdmissionLog,
}

impl Strawman {
    /// Open the infrastructure (paper: `Strawman::Open(options)`).
    pub fn open(opts: Options) -> Strawman {
        Strawman {
            opts,
            published: None,
            cycle: 0,
            plots: Vec::new(),
            draw_requested: false,
            records: Vec::new(),
            last_frame: None,
            phases: PhaseTimer::new(),
            admissions: AdmissionLog::new(),
        }
    }

    /// Composite per-rank framebuffers (visibility order, front first) into
    /// one frame through [`compose`]: [`CompositeWire::Compressed`] radix-k,
    /// or [`CompositeWire::Dfb`] when [`Options::dfb_compositing`] is set,
    /// both shipping run-length-compressed active-pixel spans, as IceT does.
    /// Records a `"compositing"` phase carrying the simulated exchange
    /// seconds and wire bytes, and reports the wire to the hook; returns the
    /// merged frame and the exchange stats.
    pub fn composite(
        &mut self,
        frames: &[Framebuffer],
        mode: CompositeMode,
    ) -> (Framebuffer, CompositeStats) {
        assert!(!frames.is_empty(), "composite of zero frames");
        let views: Vec<PixelView> = frames.iter().map(frame_view).collect();
        let wire =
            if self.opts.dfb_compositing { CompositeWire::Dfb } else { CompositeWire::Compressed };
        let (merged, stats) = compose(&views, mode, self.opts.net, wire);
        let pixels = merged.num_pixels() as u64 * frames.len() as u64;
        self.phases.record_bytes("compositing", stats.simulated_seconds, pixels, stats.total_bytes);
        if let Some(hook) = self.opts.scheduler.as_mut() {
            let avg_active =
                views.iter().map(|v| v.active_pixels() as f64).sum::<f64>() / views.len() as f64;
            hook.observe_composite(&CompositeObservation {
                cycle: self.cycle,
                pixels: merged.num_pixels() as f64,
                avg_active_pixels: avg_active,
                seconds: stats.simulated_seconds,
                wire,
            });
        }
        let RankImage { width, height, mut color, depth } = merged;
        color.iter_mut().for_each(|c| *c = c.unpremultiplied());
        (Framebuffer { width, height, color, depth }, stats)
    }

    /// Publish simulation data described with the mesh conventions. The
    /// previous publish and everything derived from it go first: a publish
    /// that fails leaves nothing to draw under this cycle's name.
    pub fn publish(&mut self, data: &Node) -> Result<(), StrawmanError> {
        self.published = None;
        let mesh = convert(data).map_err(StrawmanError::Convert)?;
        self.published = Some(Published { bounds: mesh.bounds(), mesh, surfaces: Vec::new() });
        self.cycle = data.get_i64("state/cycle").unwrap_or(self.cycle);
        Ok(())
    }

    /// Execute a list of actions.
    pub fn execute(&mut self, actions: &Node) -> Result<(), StrawmanError> {
        for action in actions.items() {
            let name = action
                .get_str("action")
                .ok_or_else(|| StrawmanError::UnknownAction("<missing>".into()))?;
            match name {
                "AddPlot" => {
                    let var = action
                        .get_str("var")
                        .ok_or_else(|| StrawmanError::UnknownField("<missing var>".into()))?;
                    let plot_type = match action.get_str("type") {
                        Some("volume") => PlotType::Volume,
                        Some("pseudocolor") | None => PlotType::Pseudocolor,
                        Some(other) => {
                            return Err(StrawmanError::UnknownAction(format!("plot type {other}")))
                        }
                    };
                    let renderer = match action.get_str("renderer") {
                        Some("rasterizer") => RendererKind::Rasterizer,
                        Some("raytracer") | None => RendererKind::RayTracer,
                        Some(other) => {
                            return Err(StrawmanError::UnknownAction(format!("renderer {other}")))
                        }
                    };
                    let plot = Plot { var: var.to_string(), plot_type, renderer };
                    // Re-adding the same plot every cycle is the common in situ
                    // idiom; keep the plot list idempotent.
                    if !self.plots.iter().any(|p| {
                        p.var == plot.var
                            && p.plot_type == plot.plot_type
                            && p.renderer == plot.renderer
                    }) {
                        self.plots.push(plot);
                    }
                }
                "DrawPlots" => {
                    self.draw_requested = true;
                }
                "SaveImage" => {
                    let width = image_side(action, "width")?;
                    let height = image_side(action, "height")?;
                    let file = action.get_str("fileName").unwrap_or("strawman_image");
                    let format = action.get_str("format").unwrap_or("png");
                    let view = action.get_str("camera").unwrap_or("close");
                    self.render_and_save(width, height, file, format, view)?;
                }
                other => return Err(StrawmanError::UnknownAction(other.to_string())),
            }
        }
        Ok(())
    }

    /// Tear down (paper: `Strawman::Close()`). Plots are cleared; records
    /// survive for post-run inspection.
    pub fn close(&mut self) {
        self.plots.clear();
        self.draw_requested = false;
        self.published = None;
    }

    fn render_and_save(
        &mut self,
        width: u32,
        height: u32,
        file: &str,
        format: &str,
        view: &str,
    ) -> Result<(), StrawmanError> {
        if !self.draw_requested || self.plots.is_empty() {
            return Ok(());
        }
        let published = self.published.as_mut().ok_or(StrawmanError::NothingPublished)?;
        let camera = match view {
            "far" => Camera::far_view(&published.bounds),
            _ => Camera::close_view(&published.bounds),
        };
        let cells = published.mesh.num_cells();
        let plots = self.plots.clone();
        let mut any_rejected = false;
        for plot in &plots {
            // Offer the render to the admission hook (if a budget is set).
            let kind_label = match (plot.plot_type, plot.renderer) {
                (PlotType::Volume, _) => "volume",
                (PlotType::Pseudocolor, RendererKind::RayTracer) => "raytracer",
                (PlotType::Pseudocolor, RendererKind::Rasterizer) => "rasterizer",
            };
            let decision = match (self.opts.scheduler.as_mut(), self.opts.cycle_budget_s) {
                (Some(hook), Some(budget_s)) => hook.admit(&AdmissionRequest {
                    cycle: self.cycle,
                    renderer: kind_label,
                    width,
                    height,
                    cells,
                    budget_s,
                }),
                _ => AdmissionDecision::Admit,
            };
            let (w, h, plot) = match decision {
                AdmissionDecision::Admit => {
                    self.admissions.record(self.cycle, Admission::Admitted);
                    (width, height, plot.clone())
                }
                AdmissionDecision::Degrade { width: dw, height: dh, switch_to_rasterizer } => {
                    self.admissions.record(self.cycle, Admission::Degraded);
                    let mut p = plot.clone();
                    if switch_to_rasterizer && p.plot_type == PlotType::Pseudocolor {
                        p.renderer = RendererKind::Rasterizer;
                    }
                    (dw, dh, p)
                }
                AdmissionDecision::Reject => {
                    self.admissions.record(self.cycle, Admission::Rejected);
                    any_rejected = true;
                    continue;
                }
            };

            let first_phase = self.phases.phases.len();
            let (rendered, seconds) = dpp::timed(|| {
                render_plot(&self.opts.device, published, &plot, &camera, w, h, &mut self.phases)
            });
            let (out, renderer) = rendered?;
            let mut stats = out.stats;
            let built = self.phases.phases[first_phase..].iter().find(|p| p.name == "bvh_build");
            stats.build_seconds = built.map_or(0.0, |p| p.seconds);
            if let Some(hook) = self.opts.scheduler.as_mut() {
                let done =
                    ExecutedRender { cycle: self.cycle, renderer, width: w, height: h, stats };
                hook.observe(&done);
            }
            let mut frame = out.frame;
            frame.set_background(Color::WHITE);

            let path = if file.is_empty() {
                None
            } else {
                let ext = if format == "ppm" { "ppm" } else { "png" };
                let path = self.opts.output_dir.join(format!("{file}.{ext}"));
                write_image(&frame, &path, format)?;
                Some(path)
            };
            self.records.push(RenderRecord {
                path,
                renderer,
                width: w,
                height: h,
                render_seconds: seconds,
                active_pixels: stats.active_pixels as usize,
            });
            self.last_frame = Some(frame);
        }
        if any_rejected {
            return Err(StrawmanError::Rejected);
        }
        Ok(())
    }
}

/// Write a framebuffer to disk as PNG or PPM.
pub fn write_image(frame: &Framebuffer, path: &Path, format: &str) -> std::io::Result<()> {
    let bytes = match format {
        "ppm" => frame.to_ppm(),
        _ => png::encode_rgba(frame.width, frame.height, &frame.to_rgba8()),
    };
    std::fs::write(path, bytes)
}

/// Render a single plot of the published mesh. A pseudocolor plot draws the
/// surface `published` keeps for its variable (deriving it if this is the
/// first to ask); a volume plot derives what it samples per render.
fn render_plot(
    device: &Device,
    published: &mut Published,
    plot: &Plot,
    camera: &Camera,
    width: u32,
    height: u32,
    phases: &mut PhaseTimer,
) -> Result<(RenderOutput, &'static str), StrawmanError> {
    match plot.plot_type {
        PlotType::Pseudocolor => {
            let traced = plot.renderer == RendererKind::RayTracer;
            let surface = published.surface(device, &plot.var, traced, phases)?;
            let tf = TransferFunction::rainbow(surface.geom().scalar_range);
            match surface {
                Surface::Traced(rt) if traced => {
                    let out =
                        rt.render_with_map(camera, width, height, &RtConfig::workload2(), &tf);
                    Ok((out, "raytracer"))
                }
                _ => {
                    let out = rasterize(device, surface.geom(), camera, width, height, &tf, None);
                    Ok((out, "rasterizer"))
                }
            }
        }
        PlotType::Volume => match &published.mesh {
            PublishedMesh::Uniform(g) => {
                render_grid_volume(device, g, &plot.var, camera, width, height)
            }
            PublishedMesh::Rectilinear(r) => {
                // Evenly spaced axes reinterpret directly; stretched axes are
                // properly resampled through rectilinear trilinear lookup.
                let g = if r.is_evenly_spaced(1e-3) {
                    r.to_uniform()
                } else {
                    let mut with_points = r.clone();
                    let name = ensure_point_field(&mut with_points.fields, &plot.var, |c| {
                        structured_cell_to_point(r.dims(), c)
                    })?;
                    let d = with_points.dims();
                    let mut resampled =
                        with_points.resample_to_uniform([d[0] - 1, d[1] - 1, d[2] - 1]);
                    // Keep the caller's variable name valid on the result.
                    if name != plot.var {
                        if let Some(f) = resampled.fields.iter().find(|f| f.name == name).cloned() {
                            resampled.fields.push(Field::point(plot.var.clone(), f.values));
                        }
                    }
                    resampled
                };
                render_grid_volume(device, &g, &plot.var, camera, width, height)
            }
            PublishedMesh::Hexes(h) => {
                let mut tets = h.to_tets();
                let (n_points, cells) = (tets.points.len(), &tets.tets);
                let name = ensure_point_field(&mut tets.fields, &plot.var, |c| {
                    cell_to_point(n_points, cells, c)
                })?;
                let range = tets.field(&name).and_then(|f| f.range()).unwrap_or((0.0, 1.0));
                let tf = TransferFunction::sparse_features(range);
                let out = render_unstructured(
                    device,
                    &tets,
                    &name,
                    camera,
                    width,
                    height,
                    &tf,
                    &UvrConfig::default(),
                )
                .map_err(|e| StrawmanError::Render(e.to_string()))?;
                Ok((out, "volume_unstructured"))
            }
        },
    }
}

/// Volume-render `var` of a uniform grid with the structured ray caster.
fn render_grid_volume(
    device: &Device,
    g: &UniformGrid,
    var: &str,
    camera: &Camera,
    width: u32,
    height: u32,
) -> Result<(RenderOutput, &'static str), StrawmanError> {
    let (g, name) = grid_with_point_field(g, var)?;
    let range = g.field(&name).and_then(|f| f.range()).unwrap_or((0.0, 1.0));
    let tf = TransferFunction::sparse_features(range);
    let out =
        render_structured(device, &g, &name, camera, width, height, &tf, &SvrConfig::default())
            .map_err(|e| StrawmanError::Render(e.to_string()))?;
    Ok((out, "volume_structured"))
}

/// Build the pseudocolor surface geometry (external faces) for a variable.
fn surface_geometry(mesh: &mut PublishedMesh, var: &str) -> Result<TriMesh, StrawmanError> {
    match mesh {
        PublishedMesh::Uniform(g) => {
            let (g, name) = grid_with_point_field(g, var)?;
            Ok(external_faces_grid(&g, &name))
        }
        // The face walkers read their scalar from the mesh's own fields: a
        // cell variable's point average is lent to the mesh for the call and
        // taken back, so the mesh stays as `convert` made it.
        PublishedMesh::Rectilinear(r) => {
            let (converted, dims) = (r.fields.len(), r.dims());
            let name =
                ensure_point_field(&mut r.fields, var, |c| structured_cell_to_point(dims, c))?;
            let tri = external_faces_rectilinear(r, &name);
            r.fields.truncate(converted);
            Ok(tri)
        }
        PublishedMesh::Hexes(h) => {
            let converted = h.fields.len();
            let (n_points, cells) = (h.points.len(), &h.hexes);
            let name =
                ensure_point_field(&mut h.fields, var, |c| cell_to_point(n_points, cells, c))?;
            let tri = external_faces_hex(h, Some(&name));
            h.fields.truncate(converted);
            Ok(tri)
        }
    }
}

/// Return a grid guaranteed to carry `var` as a *point* field (cell fields
/// are averaged to points), along with the field name to use.
fn grid_with_point_field(
    g: &UniformGrid,
    var: &str,
) -> Result<(UniformGrid, String), StrawmanError> {
    let mut out = g.clone();
    let name = ensure_point_field(&mut out.fields, var, |c| structured_cell_to_point(g.dims, c))?;
    Ok((out, name))
}

/// Ensure `fields` carry `var` as a point field, adding `average` of its
/// values under `{var}__points` when it is a cell field; returns the field
/// name to use.
fn ensure_point_field(
    fields: &mut Vec<Field>,
    var: &str,
    average: impl FnOnce(&[f32]) -> Vec<f32>,
) -> Result<String, StrawmanError> {
    let f = mesh::field::find(fields, var)
        .ok_or_else(|| StrawmanError::UnknownField(var.to_string()))?;
    if f.assoc == Assoc::Point {
        return Ok(var.to_string());
    }
    let name = format!("{var}__points");
    let values = average(&f.values);
    fields.push(Field::point(name.clone(), values));
    Ok(name)
}

/// Borrow a framebuffer as an exchange's input: nothing is copied, and the
/// fragment encoder premultiplies each pixel as it reads it.
pub fn frame_view(frame: &Framebuffer) -> PixelView<'_> {
    let Framebuffer { width, height, color, depth } = frame;
    PixelView { width: *width, height: *height, color, depth, straight_alpha: true }
}

/// Convert a framebuffer into a compositing rank image (premultiplied).
pub fn to_rank_image(frame: &Framebuffer) -> compositing::RankImage {
    compositing::RankImage {
        width: frame.width,
        height: frame.height,
        color: frame.color.iter().map(|c| c.premultiplied()).collect(),
        depth: frame.depth.clone(),
    }
}

/// Convert a composited rank image back to a framebuffer.
pub fn from_rank_image(img: &compositing::RankImage) -> Framebuffer {
    let mut f = Framebuffer::new(img.width, img.height);
    f.color = img.color.iter().map(|c| c.unpremultiplied()).collect();
    f.depth = img.depth.clone();
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_data(n: usize) -> Node {
        let g = mesh::datasets::field_grid(mesh::datasets::FieldKind::ShockShell, [n; 3]);
        let mut d = Node::new();
        d.set("state/time", 0.5f64);
        d.set("state/cycle", 3i64);
        d.set("coords/type", "uniform");
        d.set("coords/dims/i", g.dims[0] as i64);
        d.set("coords/dims/j", g.dims[1] as i64);
        d.set("coords/dims/k", g.dims[2] as i64);
        d.set("coords/origin/x", g.origin.x as f64);
        d.set("coords/origin/y", g.origin.y as f64);
        d.set("coords/origin/z", g.origin.z as f64);
        d.set("coords/spacing/x", g.spacing.x as f64);
        d.set("coords/spacing/y", g.spacing.y as f64);
        d.set("coords/spacing/z", g.spacing.z as f64);
        d.set("fields/scalar/association", "vertex");
        d.set("fields/scalar/values", g.field("scalar").unwrap().values.clone());
        d
    }

    fn actions(var: &str, plot_type: &str, file: &str) -> Node {
        let mut a = Node::new();
        let add = a.append();
        add.set("action", "AddPlot");
        add.set("var", var);
        add.set("type", plot_type);
        let draw = a.append();
        draw.set("action", "DrawPlots");
        let save = a.append();
        save.set("action", "SaveImage");
        save.set("fileName", file);
        save.set("width", 48i64);
        save.set("height", 48i64);
        a
    }

    #[test]
    fn full_pipeline_produces_a_png() {
        let dir = std::env::temp_dir().join("strawman_test_png");
        std::fs::create_dir_all(&dir).unwrap();
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: dir.clone(),
            ..Options::default()
        });
        sm.publish(&uniform_data(12)).unwrap();
        sm.execute(&actions("scalar", "pseudocolor", "test_ps")).unwrap();
        assert_eq!(sm.records.len(), 1);
        let rec = &sm.records[0];
        assert_eq!(rec.renderer, "raytracer");
        assert!(rec.active_pixels > 50);
        let bytes = std::fs::read(rec.path.as_ref().unwrap()).unwrap();
        assert_eq!(&bytes[1..4], b"PNG");
        sm.close();
    }

    #[test]
    fn save_image_rejects_out_of_range_sides() {
        let dir = std::env::temp_dir().join("strawman_test_bad_side");
        std::fs::create_dir_all(&dir).unwrap();
        for (key, side) in [("width", -1i64), ("height", 0), ("width", 16_385)] {
            let mut sm = Strawman::open(Options {
                device: Device::Serial,
                output_dir: dir.clone(),
                ..Options::default()
            });
            sm.publish(&uniform_data(12)).unwrap();
            let mut a = actions("scalar", "pseudocolor", "bad_side");
            let Node::List(items) = &mut a else { panic!("actions are a list") };
            items.last_mut().unwrap().set(key, side);
            let err = sm.execute(&a).unwrap_err();
            assert!(
                matches!(err, StrawmanError::ImageSide { key: k, side: s } if k == key && s == side),
                "{key}={side}: {err}"
            );
            assert!(sm.records.is_empty(), "{key}={side}");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{key}={side}");
        }
    }

    #[test]
    fn volume_plot_works() {
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            ..Options::default()
        });
        sm.publish(&uniform_data(12)).unwrap();
        sm.execute(&actions("scalar", "volume", "")).unwrap();
        assert_eq!(sm.records[0].renderer, "volume_structured");
        assert!(sm.records[0].active_pixels > 50);
        assert!(sm.records[0].path.is_none());
    }

    #[test]
    fn unknown_action_and_field_error() {
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            ..Options::default()
        });
        sm.publish(&uniform_data(8)).unwrap();
        let mut bad = Node::new();
        bad.append().set("action", "FlyToTheMoon");
        assert!(matches!(sm.execute(&bad), Err(StrawmanError::UnknownAction(_))));
        // An unknown variable fails on every attempt and derives nothing.
        let missing = actions("not_a_field", "pseudocolor", "");
        for _ in 0..2 {
            assert!(matches!(sm.execute(&missing), Err(StrawmanError::UnknownField(_))));
        }
        assert!(sm.published.as_ref().unwrap().surfaces.is_empty());
        assert!(sm.phases.phases.is_empty());
    }

    #[test]
    fn stretched_rectilinear_volume_is_resampled() {
        // A grid with a strongly stretched x axis must go through the
        // rectilinear resampling path and still render.
        let mut d = Node::new();
        d.set("coords/type", "rectilinear");
        let stretched: Vec<f32> = (0..13).map(|i| ((i as f32) / 12.0).powi(2) * 2.0).collect();
        d.set("coords/values/x", stretched);
        d.set("coords/values/y", (0..13).map(|i| i as f32 / 6.0).collect::<Vec<f32>>());
        d.set("coords/values/z", (0..13).map(|i| i as f32 / 6.0).collect::<Vec<f32>>());
        d.set("fields/q/association", "element");
        d.set("fields/q/values", (0..12 * 12 * 12).map(|i| (i % 100) as f32).collect::<Vec<f32>>());
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            ..Options::default()
        });
        sm.publish(&d).unwrap();
        let mut a = Node::new();
        let add = a.append();
        add.set("action", "AddPlot");
        add.set("var", "q");
        add.set("type", "volume");
        a.append().set("action", "DrawPlots");
        let save = a.append();
        save.set("action", "SaveImage");
        save.set("fileName", "");
        save.set("width", 40i64);
        save.set("height", 40i64);
        sm.execute(&a).unwrap();
        assert_eq!(sm.records[0].renderer, "volume_structured");
        assert!(sm.records[0].active_pixels > 50);
    }

    #[test]
    fn stretched_rectilinear_surface_sits_at_the_published_coordinates() {
        let mut d = Node::new();
        d.set("coords/type", "rectilinear");
        d.set("coords/values/x", vec![0.0f32, 0.1, 1.0]);
        d.set("coords/values/y", vec![0.0f32, 1.0]);
        d.set("coords/values/z", vec![0.0f32, 1.0]);
        d.set("fields/q/association", "element");
        d.set("fields/q/values", vec![1.0f32, 2.0]);
        let mut mesh = convert(&d).unwrap();
        let tri = surface_geometry(&mut mesh, "q").unwrap();
        let mut xs: Vec<f32> = tri.points.iter().map(|p| p.x).collect();
        xs.sort_by(f32::total_cmp);
        xs.dedup();
        assert_eq!(xs, [0.0, 0.1, 1.0]);
        // Each vertex carries the point average of the cells around its x.
        for (p, &q) in tri.points.iter().zip(&tri.scalars) {
            let want = [(0.0, 1.0), (0.1, 1.5), (1.0, 2.0)].iter().find(|w| w.0 == p.x).unwrap().1;
            assert_eq!(q, want, "{p:?}");
        }
        // The lent point average is taken back.
        assert!(mesh.field("q__points").is_none());
    }

    #[test]
    fn rank_image_round_trip() {
        let mut f = Framebuffer::new(3, 2);
        f.color[1] = Color::new(0.5, 0.25, 0.0, 0.5);
        f.depth[1] = 2.0;
        let r = to_rank_image(&f);
        assert!((r.color[1].r - 0.25).abs() < 1e-6); // premultiplied
        let back = from_rank_image(&r);
        assert!((back.color[1].r - 0.5).abs() < 1e-6);
        assert_eq!(back.depth[1], 2.0);
    }

    #[test]
    fn composite_records_bytes_and_matches_dense() {
        // Two sparse "rank" frames: disjoint active bands with depths.
        let mut a = Framebuffer::new(24, 16);
        let mut b = Framebuffer::new(24, 16);
        for i in 0..60 {
            a.color[i] = Color::new(0.9, 0.2, 0.1, 1.0);
            a.depth[i] = 1.0;
        }
        for i in 40..130 {
            b.color[i] = Color::new(0.1, 0.3, 0.8, 1.0);
            b.depth[i] = 2.0;
        }
        let frames = [a, b];

        let mut sm = Strawman::open(Options { device: Device::Serial, ..Options::default() });
        let (img, stats) = sm.composite(&frames, CompositeMode::ZBuffer);
        assert_eq!(sm.phases.bytes_of("compositing"), stats.total_bytes);
        assert!(sm.phases.seconds_of("compositing") > 0.0);

        // The dense exchange of the same frames: compression must not change
        // a single pixel, only the byte count.
        let views: Vec<PixelView> = frames.iter().map(frame_view).collect();
        let (dense, dense_stats) =
            compose(&views, CompositeMode::ZBuffer, NetModel::cluster(), CompositeWire::Dense);
        let dense_img = from_rank_image(&dense);
        for i in 0..img.color.len() {
            assert_eq!(img.color[i], dense_img.color[i], "pixel {i}");
        }
        assert!(stats.total_bytes < dense_stats.total_bytes);
        assert_eq!(dense_stats.total_bytes, dense_stats.dense_bytes);
    }

    /// Degrades every pseudocolor request to a fixed size and rejects every
    /// `n`-th offer, recording what it observed.
    struct StubHook {
        reject_every: usize,
        offered: usize,
        observed: Vec<ExecutedRender>,
    }

    impl AdmissionHook for StubHook {
        fn admit(&mut self, req: &AdmissionRequest) -> AdmissionDecision {
            self.offered += 1;
            assert!(req.budget_s > 0.0);
            assert!(req.cells > 0);
            if self.reject_every > 0 && self.offered.is_multiple_of(self.reject_every) {
                AdmissionDecision::Reject
            } else {
                AdmissionDecision::Degrade {
                    width: req.width / 2,
                    height: req.height / 2,
                    switch_to_rasterizer: true,
                }
            }
        }

        fn observe(&mut self, done: &ExecutedRender) {
            self.observed.push(*done);
        }
    }

    /// Admits everything and records what it observes into logs shared with
    /// the test (the hook itself is boxed away inside [`Options`]).
    #[derive(Default)]
    struct LogHook {
        renders: std::rc::Rc<std::cell::RefCell<Vec<ExecutedRender>>>,
        log: std::rc::Rc<std::cell::RefCell<Vec<CompositeObservation>>>,
    }

    impl AdmissionHook for LogHook {
        fn admit(&mut self, _req: &AdmissionRequest) -> AdmissionDecision {
            AdmissionDecision::Admit
        }

        fn observe(&mut self, done: &ExecutedRender) {
            self.renders.borrow_mut().push(*done);
        }

        fn observe_composite(&mut self, done: &CompositeObservation) {
            self.log.borrow_mut().push(*done);
        }
    }

    /// The hook sees each render's own record. Two ray-traced renders of one
    /// plot in one `execute`: the first reports the BVH build it recorded,
    /// bit for bit, and the second, which draws that BVH, reports exactly 0
    /// (not the -0.0 of an empty sum). Neither carries surface extraction.
    #[test]
    fn the_hook_observes_each_renders_own_stats() {
        let hook = LogHook::default();
        let renders = hook.renders.clone();
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            scheduler: Some(Box::new(hook)),
            ..Options::default()
        });
        sm.publish(&uniform_data(12)).unwrap();
        let mut a = actions("scalar", "pseudocolor", "");
        let Node::List(items) = &mut a else { panic!("actions are a list") };
        let mut far = items[2].clone();
        far.set("camera", "far");
        items.push(far);
        sm.execute(&a).unwrap();

        let seen = renders.borrow();
        assert_eq!(seen.len(), 2);
        let phase = |name| sm.phases.phases.iter().filter(|p| p.name == name).collect::<Vec<_>>();
        let (build, extract) = (phase("bvh_build"), phase("surface_geometry"));
        assert_eq!((build.len(), extract.len()), (1, 1));
        assert_eq!(seen[0].stats.build_seconds.to_bits(), build[0].seconds.to_bits());
        assert_eq!(seen[1].stats.build_seconds.to_bits(), 0.0f64.to_bits());
        for (done, rec) in seen.iter().zip(&sm.records) {
            assert_eq!((done.renderer, done.width, done.height), ("raytracer", 48, 48));
            assert_eq!(done.stats.active_pixels as usize, rec.active_pixels);
            assert!(done.stats.active_pixels > 50.0);
            // The wall time spans the phases the render reported, and more.
            let reported = done.stats.render_seconds + done.stats.build_seconds;
            assert!(reported <= rec.render_seconds, "{reported} > {}", rec.render_seconds);
        }
        assert!(
            seen[0].stats.render_seconds + build[0].seconds + extract[0].seconds
                <= sm.records[0].render_seconds
        );
    }

    #[test]
    fn composite_feeds_the_hook_with_its_wire() {
        let mut a = Framebuffer::new(16, 16);
        let mut b = Framebuffer::new(16, 16);
        for i in 0..40 {
            a.color[i] = Color::new(0.9, 0.2, 0.1, 1.0);
            a.depth[i] = 1.0;
            b.color[i + 60] = Color::new(0.1, 0.3, 0.8, 1.0);
            b.depth[i + 60] = 2.0;
        }
        let frames = [a, b];
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            scheduler: Some(Box::new(LogHook { log: log.clone(), ..LogHook::default() })),
            ..Options::default()
        });
        let (_, stats) = sm.composite(&frames, CompositeMode::ZBuffer);
        let seen = log.borrow();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].wire, CompositeWire::Compressed);
        assert_eq!(seen[0].pixels, 256.0);
        assert_eq!(seen[0].avg_active_pixels, 40.0);
        assert_eq!(seen[0].seconds, stats.simulated_seconds);
    }

    #[test]
    fn dfb_composite_matches_radix_k_and_tags_the_hook() {
        let mut a = Framebuffer::new(16, 16);
        let mut b = Framebuffer::new(16, 16);
        for i in 0..40 {
            a.color[i] = Color::new(0.9, 0.2, 0.1, 1.0);
            a.depth[i] = 1.0;
            b.color[i + 60] = Color::new(0.1, 0.3, 0.8, 1.0);
            b.depth[i + 60] = 2.0;
        }
        let frames = [a, b];
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            dfb_compositing: true,
            scheduler: Some(Box::new(LogHook { log: log.clone(), ..LogHook::default() })),
            ..Options::default()
        });
        let (img, stats) = sm.composite(&frames, CompositeMode::ZBuffer);
        let seen = log.borrow();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].wire, CompositeWire::Dfb);
        assert_eq!(seen[0].seconds, stats.simulated_seconds);
        // The protocol changes the schedule, never the pixels.
        let mut rk = Strawman::open(Options { device: Device::Serial, ..Options::default() });
        let (rk_img, _) = rk.composite(&frames, CompositeMode::ZBuffer);
        for i in 0..img.color.len() {
            assert_eq!(img.color[i], rk_img.color[i], "pixel {i}");
        }
    }

    #[test]
    fn admission_hook_degrades_and_rejects() {
        let hook = StubHook { reject_every: 2, offered: 0, observed: Vec::new() };
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            cycle_budget_s: Some(0.5),
            scheduler: Some(Box::new(hook)),
            ..Options::default()
        });
        sm.publish(&uniform_data(10)).unwrap();
        // Two plots: first is degraded (half size, switched to the
        // rasterizer), second is rejected -> execute returns Rejected.
        let mut a = Node::new();
        for renderer in ["raytracer", "rasterizer"] {
            let add = a.append();
            add.set("action", "AddPlot");
            add.set("var", "scalar");
            add.set("renderer", renderer);
        }
        a.append().set("action", "DrawPlots");
        let save = a.append();
        save.set("action", "SaveImage");
        save.set("fileName", "");
        save.set("width", 64i64);
        save.set("height", 64i64);
        assert!(matches!(sm.execute(&a), Err(StrawmanError::Rejected)));
        // First plot executed degraded at 32x32 on the rasterizer; the
        // second offer was rejected and never rendered.
        assert_eq!(sm.records.len(), 1);
        assert_eq!(sm.records[0].renderer, "rasterizer");
        assert_eq!((sm.records[0].width, sm.records[0].height), (32, 32));
        assert_eq!(sm.admissions.totals(), (0, 1, 1));
        assert_eq!(sm.admissions.cycles[0].cycle, 3); // from state/cycle
    }

    #[test]
    fn no_budget_means_no_gating() {
        let hook = StubHook { reject_every: 1, offered: 0, observed: Vec::new() };
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            scheduler: Some(Box::new(hook)), // budget unset: hook must not gate
            ..Options::default()
        });
        sm.publish(&uniform_data(10)).unwrap();
        sm.execute(&actions("scalar", "pseudocolor", "")).unwrap();
        assert_eq!(sm.records.len(), 1);
        assert_eq!((sm.records[0].width, sm.records[0].height), (48, 48));
        assert_eq!(sm.admissions.totals(), (1, 0, 0));
    }

    #[test]
    fn rasterizer_renderer_selectable() {
        let mut sm = Strawman::open(Options {
            device: Device::Serial,
            output_dir: std::env::temp_dir(),
            ..Options::default()
        });
        sm.publish(&uniform_data(10)).unwrap();
        let mut a = Node::new();
        let add = a.append();
        add.set("action", "AddPlot");
        add.set("var", "scalar");
        add.set("renderer", "rasterizer");
        a.append().set("action", "DrawPlots");
        let save = a.append();
        save.set("action", "SaveImage");
        save.set("fileName", "");
        save.set("width", 32i64);
        save.set("height", 32i64);
        sm.execute(&a).unwrap();
        assert_eq!(sm.records[0].renderer, "rasterizer");
    }
}
