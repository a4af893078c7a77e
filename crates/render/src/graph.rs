//! The ray tracer's one benchmark-held entry point: [`render_rt_graph`]
//! traces a [`TriGeometry`] with no long-lived
//! [`RayTracer`](crate::raytrace::RayTracer), keeping the BVH in a
//! [`GraphCache`] keyed on the triangle positions.
//!
//! The module exists for the benchmark's `probe_graph`
//! (`benchmark/src/workloads/insitu.rs`), which compiles against exactly
//! these names, and goes with that probe. Everything else renders through
//! `RayTracer::render_with_map`; both run the same straight-line driver.

use std::sync::Arc;

use crate::counters::{PhaseTimer, RenderOutput};
use crate::raytrace::pipeline::trace;
use crate::raytrace::{Bvh, Hit, RtConfig, TriGeometry, Workload};
use crate::shading::ShadingParams;
use dpp::Device;
use vecmath::{Camera, Color, Ray, TransferFunction};

/// Why [`render_rt_graph`] refused a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The skip list named `pass`, and the ray tracer sheds no pass.
    NoFallback { pass: String },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NoFallback { pass } => write!(f, "pass {pass} has no fallback to skip to"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One phase of a [`render_rt_graph`] frame.
#[derive(Debug, Clone)]
pub struct PassRecord {
    pub name: &'static str,
    pub work_units: u64,
    pub seconds: f64,
    /// Served from the [`GraphCache`] (only ever `bvh_build`).
    pub cached: bool,
}

/// What [`render_rt_graph`] reports beside the frame.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    /// `bvh_build`, then the driver's phases.
    pub records: Vec<PassRecord>,
    /// Peak bytes of the frame's buffers live at once.
    pub peak_live_bytes: usize,
    /// Bytes of every buffer the frame allocated.
    pub total_bytes: usize,
}

impl GraphInfo {
    /// The record for `pass`, if it ran.
    pub fn record(&self, pass: &str) -> Option<&PassRecord> {
        self.records.iter().find(|r| r.name == pass)
    }
}

/// FIFO of BVHs keyed on a fingerprint of the triangle positions.
pub struct GraphCache {
    entries: Vec<(u64, Arc<Bvh>)>,
    capacity: usize,
}

impl GraphCache {
    /// A cache keeping at most `capacity` BVHs.
    pub fn new(capacity: usize) -> GraphCache {
        GraphCache { entries: Vec::new(), capacity: capacity.max(1) }
    }

    /// The BVH kept under `key`, else `build`'s, kept in place of the
    /// oldest when full; `true` on a hit.
    fn bvh(&mut self, key: u64, build: impl FnOnce() -> Bvh) -> (Arc<Bvh>, bool) {
        if let Some((_, bvh)) = self.entries.iter().find(|(k, _)| *k == key) {
            return (Arc::clone(bvh), true);
        }
        let bvh = Arc::new(build());
        self.entries.push((key, Arc::clone(&bvh)));
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
        (bvh, false)
    }
}

/// Ray trace `geom` with the default headlight. With a `cache`, the BVH is
/// built on the first frame and reused (recorded as a cached `bvh_build`
/// with 0 s and 0 work units) while the triangle positions hold, the
/// amortized `c0*O` build term. A non-empty `skips` is refused: no pass has
/// a fallback.
#[allow(clippy::too_many_arguments, reason = "one argument per model input, plus skips and cache")]
pub fn render_rt_graph(
    device: &Device,
    geom: &TriGeometry,
    camera: &Camera,
    width: u32,
    height: u32,
    cfg: &RtConfig,
    colormap: &TransferFunction,
    skips: &[&str],
    cache: Option<&mut GraphCache>,
) -> Result<(RenderOutput, GraphInfo), GraphError> {
    if let Some(pass) = skips.first() {
        return Err(GraphError::NoFallback { pass: pass.to_string() });
    }
    let mut phases = PhaseTimer::new();
    let mut build = || phases.run("bvh_build", geom.num_tris() as u64, || Bvh::build(device, geom));
    let (bvh, cached) = match cache {
        Some(cache) => cache.bvh(geometry_fingerprint(geom), build),
        None => (Arc::new(build()), false),
    };
    if cached {
        phases.record("bvh_build", 0.0, 0);
    }
    let mut out = trace(device, geom, &bvh, None, camera, width, height, cfg, colormap);
    out.stats.build_seconds = phases.total_seconds();
    phases.merge(out.phases);
    out.phases = phases;

    let records = (out.phases.phases.iter().enumerate())
        .map(|(i, p)| PassRecord {
            name: p.name,
            work_units: p.work_units,
            seconds: p.seconds,
            cached: cached && i == 0,
        })
        .collect();
    let n_lights = ShadingParams::headlight(camera.position, camera.up).lights.len();
    let pixels = (width * height) as usize;
    let (peak_live_bytes, total_bytes) = frame_bytes(&out.phases, cfg, pixels, n_lights);
    Ok((out, GraphInfo { records, peak_live_bytes, total_bytes }))
}

/// Peak and summed bytes of the buffers the driver holds, replayed in its
/// fixed drop order from the phases' work units (each is the length of the
/// phase's output): a phase's outputs are live beside everything not yet
/// dropped, then the buffers it read last are dropped. The BVH is the
/// cache's, not the frame's.
fn frame_bytes(
    phases: &PhaseTimer,
    cfg: &RtConfig,
    pixels: usize,
    n_lights: usize,
) -> (usize, usize) {
    use std::mem::size_of;
    let n = phases.work_of("ray_gen") as usize;
    let (order, rays, hits) = (n * size_of::<u32>(), n * size_of::<Ray>(), n * size_of::<Hit>());
    let frame = pixels * (size_of::<Color>() + size_of::<f32>());
    // (bytes allocated, bytes dropped) per phase.
    let steps = if cfg.workload == Workload::Intersect {
        vec![(order + rays, 0), (hits, rays), (frame, order + hits)]
    } else {
        let l = phases.work_of("shade") as usize;
        let (live, live_rays, live_hits) =
            (l * size_of::<u32>(), l * size_of::<Ray>(), l * size_of::<Hit>());
        let (occ, vis, colors) = (l * size_of::<f32>(), l * n_lights, l * size_of::<Color>());
        // Without compaction the full tables move on instead of being copied.
        let (copied, dropped) =
            if cfg.compaction { (live_rays + live_hits, rays + hits) } else { (0, 0) };
        vec![
            (order + rays, 0),
            (hits, 0),
            (live + copied, dropped),
            (occ, 0),
            (vis, 0),
            (colors, live_rays + occ + vis),
            (frame, order + live + live_hits + colors),
        ]
    };
    let (mut held, mut peak) = (0, 0);
    for &(put, dropped) in &steps {
        held += put;
        peak = peak.max(held);
        held -= dropped;
    }
    (peak, steps.iter().map(|s| s.0).sum())
}

/// FNV-1a over every triangle position, all a built BVH depends on: a
/// sampled fingerprint would let an edit between samples replay a stale BVH.
fn geometry_fingerprint(geom: &TriGeometry) -> u64 {
    let positions = (0..geom.num_tris()).flat_map(|t| [geom.v0[t], geom.e1[t], geom.e2[t]]);
    let words = std::iter::once(geom.num_tris() as u64)
        .chain(positions.flat_map(|v| [v.x, v.y, v.z].map(|c| c.to_bits() as u64)));
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::isosurface::isosurface;

    #[test]
    fn a_skip_list_is_refused_with_the_pass_named() {
        let g = field_grid(FieldKind::ShockShell, [8, 8, 8]);
        let geom = TriGeometry::from_mesh(&isosurface(&g, "scalar", 0.5, Some("elevation")));
        let cam = Camera::close_view(&geom.bounds);
        let tf = TransferFunction::rainbow(geom.scalar_range);
        let cfg = RtConfig::workload3();
        let skips = ["ambient_occlusion", "shadows"];
        let got = render_rt_graph(&Device::Serial, &geom, &cam, 16, 16, &cfg, &tf, &skips, None);
        assert_eq!(got.err(), Some(GraphError::NoFallback { pass: "ambient_occlusion".into() }));
    }
}
