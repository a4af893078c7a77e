//! The four renderers as [`FrameGraph`] pipelines — the only drivers of the
//! stage kernels in [`crate::raytrace::pipeline`], [`crate::raster`],
//! [`crate::volume_structured`] and [`crate::volume_unstructured`].
//!
//! Each `render_*_graph` function declares its renderer's passes over those
//! kernels and runs them on the executor; the classic entry points
//! (`RayTracer::render_with_map`, `rasterize`, `render_structured`,
//! `render_unstructured`) call it with no skips and no cache. Expressing the
//! stages as a graph buys:
//!
//! * **aliasing** — intermediates are freed at their last use, and
//!   [`GraphInfo`] reports peak-live versus keep-everything bytes;
//! * **cross-frame caching** — expensive camera- or geometry-derived passes
//!   (BVH build, primary-ray tables, screen-space transforms) are keyed on a
//!   fingerprint of *everything* their output depends on and satisfied from
//!   a [`GraphCache`] when that repeats;
//! * **pass-granular degradation** — shadow and ambient-occlusion passes
//!   carry cheap fallbacks the scheduler can select by name instead of
//!   degrading the whole frame.
//!
//! `*Stats.render_seconds` has one definition everywhere: the seconds summed
//! over the frame's executed passes ([`GraphInfo::total_seconds`]; a cached
//! pass contributes 0), minus `bvh_build` for the ray tracer, which reports
//! the build separately.
//!
//! [`FrameGraph`]: crate::graph::FrameGraph
//! [`GraphCache`]: crate::graph::GraphCache

use crate::graph::cache::fingerprint;
use crate::graph::exec::{GraphError, GraphRun, PassRecord};
use vecmath::{Camera, TransferFunction, Vec3};

pub mod raster;
pub mod rt;
pub mod svr;
pub mod uvr;

pub use raster::render_raster_graph;
pub use rt::render_rt_graph;
pub use svr::render_structured_graph;
pub use uvr::render_unstructured_graph;

/// What a graph render reports beside the renderer's own output: the
/// per-pass execution records and the aliasing accountant's totals.
#[derive(Debug, Clone)]
pub struct GraphInfo {
    pub records: Vec<PassRecord>,
    /// Peak bytes of simultaneously live resources (with aliasing).
    pub peak_live_bytes: usize,
    /// Bytes a keep-everything pipeline would have held live.
    pub total_bytes: usize,
}

impl GraphInfo {
    pub(crate) fn from_run(run: &GraphRun) -> GraphInfo {
        GraphInfo {
            records: run.records.clone(),
            peak_live_bytes: run.peak_live_bytes,
            total_bytes: run.total_bytes,
        }
    }

    /// Wall-clock seconds across all passes (cached passes contribute 0).
    pub fn total_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }

    /// Seconds attributed to `pass` (summed over repeats).
    pub fn seconds_of(&self, pass: &str) -> f64 {
        self.records.iter().filter(|r| r.name == pass).map(|r| r.seconds).sum()
    }

    /// The record for `pass`, if it ran (first occurrence).
    pub fn record(&self, pass: &str) -> Option<&PassRecord> {
        self.records.iter().find(|r| r.name == pass)
    }
}

/// Unwrap a pipeline run for the entry points whose signatures cannot fail
/// (`rasterize`, `RayTracer::render_with_map`). The pass declarations are
/// fixed at compile time, so a [`GraphError`] out of them is a bug in this
/// crate: it asserts in debug builds, which the test suite runs, and in
/// release says so on stderr and hands back `blank()` rather than panic
/// inside the host simulation — the blank frame is never silent.
pub(crate) fn infallible<T>(
    run: Result<(T, GraphInfo), GraphError>,
    blank: impl FnOnce() -> T,
) -> T {
    match run {
        Ok((out, _)) => out,
        Err(e) => {
            eprintln!("render: frame graph failed ({e}); emitting a blank frame");
            debug_assert!(false, "renderer graph is malformed: {e}");
            blank()
        }
    }
}

fn push_vec3(words: &mut Vec<u64>, v: Vec3) {
    words.push(v.x.to_bits() as u64);
    words.push(v.y.to_bits() as u64);
    words.push(v.z.to_bits() as u64);
}

// Cache keys hash every word a cached pass's output depends on: a sampled
// fingerprint lets an edit between samples replay a stale frame. The cost is
// tens of microseconds per 36k values, paid only when a cache is passed.

/// Fingerprint a camera pose + image dimensions: the cache key input for
/// passes memoizing view-dependent tables (primary rays, screen transforms).
pub(crate) fn camera_fingerprint(camera: &Camera, width: u32, height: u32) -> u64 {
    let mut words = Vec::with_capacity(16);
    push_vec3(&mut words, camera.position);
    push_vec3(&mut words, camera.look_at);
    push_vec3(&mut words, camera.up);
    words.push(camera.fov_y.to_bits() as u64);
    words.push(camera.near.to_bits() as u64);
    words.push(camera.far.to_bits() as u64);
    words.push(((width as u64) << 32) | height as u64);
    fingerprint(&words)
}

/// Fingerprint a float slice: its length and every value's raw bits.
pub(crate) fn slice_fingerprint_f32(vals: &[f32]) -> u64 {
    let mut words = Vec::with_capacity(vals.len() + 1);
    words.push(vals.len() as u64);
    words.extend(vals.iter().map(|v| v.to_bits() as u64));
    fingerprint(&words)
}

/// Fingerprint triangle positions — all the cached `bvh_build` and
/// `transform_cull` outputs depend on. Normals and scalars only reach the
/// shading passes, which are never cached.
pub(crate) fn geometry_fingerprint(geom: &crate::raytrace::TriGeometry) -> u64 {
    let mut words = Vec::with_capacity(geom.num_tris() * 9 + 1);
    words.push(geom.num_tris() as u64);
    for t in 0..geom.num_tris() {
        push_vec3(&mut words, geom.v0[t]);
        push_vec3(&mut words, geom.e1[t]);
        push_vec3(&mut words, geom.e2[t]);
    }
    fingerprint(&words)
}

/// Fingerprint a uniform grid's shape (dims, origin, spacing). Combine with
/// [`slice_fingerprint_f32`] of the rendered field for a full identity.
pub(crate) fn grid_fingerprint(grid: &mesh::UniformGrid) -> u64 {
    let mut words = Vec::with_capacity(10);
    for d in grid.dims {
        words.push(d as u64);
    }
    push_vec3(&mut words, grid.origin);
    push_vec3(&mut words, grid.spacing);
    fingerprint(&words)
}

/// Fingerprint a tetrahedral mesh: every point and every tet's connectivity.
pub(crate) fn tet_fingerprint(tets: &mesh::TetMesh) -> u64 {
    let mut words = Vec::with_capacity(tets.points.len() * 3 + tets.num_tets() * 2 + 1);
    words.push(tets.points.len() as u64);
    for &p in &tets.points {
        push_vec3(&mut words, p);
    }
    for ix in &tets.tets {
        words.push(((ix[0] as u64) << 32) | ix[1] as u64);
        words.push(((ix[2] as u64) << 32) | ix[3] as u64);
    }
    fingerprint(&words)
}

/// Fingerprint a transfer function: its range and every lookup-table node.
pub(crate) fn tf_fingerprint(tf: &TransferFunction) -> u64 {
    let n = TransferFunction::TABLE_SIZE;
    let mut words = Vec::with_capacity(n * 2 + 2);
    words.push(tf.range.0.to_bits() as u64);
    words.push(tf.range.1.to_bits() as u64);
    for i in 0..n {
        let c = tf.sample_normalized(i as f32 / (n - 1) as f32);
        words.push(((c.r.to_bits() as u64) << 32) | c.g.to_bits() as u64);
        words.push(((c.b.to_bits() as u64) << 32) | c.a.to_bits() as u64);
    }
    fingerprint(&words)
}
