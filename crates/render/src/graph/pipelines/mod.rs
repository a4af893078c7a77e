//! The ray tracer as a [`FrameGraph`] pipeline — the only driver of the
//! stage kernels in [`crate::raytrace::pipeline`].
//!
//! [`render_rt_graph`] declares the tracer's passes over those kernels and
//! runs them on the executor; `RayTracer::render_with_map` calls the same
//! driver over its prebuilt BVH with no skips and no cache. The ray tracer
//! is the one renderer whose stages use what a graph adds:
//!
//! * **a borrowed or cached acceleration structure** — a tracer's prebuilt
//!   BVH is borrowed into the graph; without one, `bvh_build` and the
//!   primary-ray table are keyed on a fingerprint of *everything* their
//!   output depends on and satisfied from a [`GraphCache`] when that repeats;
//! * **pass-granular degradation** — shadow and ambient-occlusion passes
//!   carry cheap fallbacks the scheduler can select by name instead of
//!   degrading the whole frame;
//! * **aliasing** — intermediates are freed at their last use, and
//!   [`GraphInfo`] reports peak-live versus keep-everything bytes.
//!
//! The rasterizer and the two volume renderers have none of these: they are
//! straight-line drivers over a [`PhaseTimer`](crate::PhaseTimer) in their
//! own modules. `RtStats.render_seconds` is the seconds summed over the
//! frame's executed passes ([`GraphInfo::total_seconds`]; a cached pass
//! contributes 0) minus `bvh_build`, which the tracer reports separately.
//!
//! [`FrameGraph`]: crate::graph::FrameGraph
//! [`GraphCache`]: crate::graph::GraphCache

use crate::graph::cache::fingerprint;
use crate::graph::exec::{GraphRun, PassRecord};
use vecmath::{Camera, Vec3};

pub mod rt;

pub use rt::render_rt_graph;

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

fn push_vec3(words: &mut Vec<u64>, v: Vec3) {
    words.push(v.x.to_bits() as u64);
    words.push(v.y.to_bits() as u64);
    words.push(v.z.to_bits() as u64);
}

// Cache keys hash every word a cached pass's output depends on: a sampled
// fingerprint lets an edit between samples replay a stale frame. The cost is
// tens of microseconds per 36k values, paid only when a cache is passed.

/// Fingerprint a camera pose + image dimensions: the cache key input for
/// the pass memoizing the primary-ray table.
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

/// Fingerprint triangle positions — all the cached `bvh_build` output
/// depends on. Normals and scalars only reach the shading passes, which are
/// never cached.
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
