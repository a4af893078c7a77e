//! Render-graph execution layer: an explicit pass/resource DAG, and the one
//! driver of the ray tracer.
//!
//! A renderer is a fixed sequence of data-parallel stages. Here that control
//! flow is data: **passes** declare the resources they read and write, and
//! an executor
//!
//! 1. validates the graph (single writer per resource, no cycles, every
//!    read reachable from a writer),
//! 2. schedules passes in deterministic topological order (Kahn's
//!    algorithm, ties broken by insertion order) — each pass is internally
//!    data-parallel on the `dpp` pool, so execution is deterministic by
//!    construction,
//! 3. **aliases** intermediate buffers: a resource is dropped the moment
//!    its last consumer finishes, and the executor reports peak live bytes
//!    versus the sum a keep-everything pipeline would hold,
//! 4. **caches** cross-frame resources keyed on input fingerprints (BVH
//!    reuse without a long-lived renderer object; ray-table memoization for
//!    static cameras), and
//! 5. supports **pass-granular degradation**: a pass can carry a cheap
//!    fallback (skip shadows → all-visible, skip ambient occlusion → fully
//!    unoccluded) that a caller's skip list selects; `repro graph` prices
//!    it, and the in situ scheduler sheds no pass.
//!
//! Only the ray tracer's passes carry fallbacks, cache keys and a borrowed
//! BVH, so only the ray tracer runs here: [`pipelines`] holds its one
//! driver, which `RayTracer::render_with_map` runs with no skips and no
//! cache. `rasterize`, `render_structured` and `render_unstructured` call
//! their stages directly. The bytes all four draw are pinned by golden
//! hashes in `tests/parallel_exactness.rs`.

pub mod cache;
pub mod exec;
pub mod pipelines;

pub use cache::GraphCache;
pub use exec::{FrameGraph, GraphError, GraphRun, PassCtx, PassId, PassRecord, ResourceId};
pub use pipelines::{render_rt_graph, GraphInfo};
