//! Rendering algorithms composed of data-parallel primitives.
//!
//! This crate is the dissertation's rendering layer: the three algorithms the
//! SC16 performance study models, each written against the [`dpp`] primitive
//! set so a single implementation runs on every device:
//!
//! * [`raytrace`] — the breadth-first ray tracer of Chapter II (LBVH build,
//!   traversal, Blinn-Phong shading, ambient occlusion, shadows, reflections,
//!   stream compaction). Model: `T_RT = (c0·O + c1) + (c2·AP·log2 O + c3·AP + c4)`.
//! * [`raster`] — the barycentric-sampling rasterizer of Chapter V.
//!   Model: `T_RAST = c0·O + c1·(VO·PPT) + c2`.
//! * [`volume_structured`] / [`volume_unstructured`] — the ray-casting volume
//!   renderers of Chapters III and V. Model: `T_VR = c0·(AP·CS) + c1·(AP·SPR) + c2`.
//!
//! Every renderer reports a stats record carrying the *observed* model inputs
//! (objects, active pixels, samples per ray, …) and per-phase timings, which
//! is exactly what the `perfmodel` crate fits its regressions to.
//!
//! Each renderer's stages are sequenced by exactly one driver. The ray
//! tracer's is its pipeline in the [`graph`] module, an explicit
//! pass/resource DAG (declared reads/writes, deterministic topological
//! scheduling, buffer aliasing, cross-frame caching, pass-granular
//! degradation), because its passes are the ones a skip list sheds and a
//! cache reuses; `RayTracer::render_with_map` runs it at full fidelity with
//! no cache. The rasterizer and the volume renderers need none of that: their
//! entry points call the stages in order, each timed as one phase. Either
//! way the models are fitted to the same code the in situ loop ships.

pub mod counters;
pub mod framebuffer;
pub mod graph;
pub mod raster;
pub mod raytrace;
pub mod shading;
pub mod volume_structured;
pub mod volume_unstructured;

pub use counters::PhaseTimer;
pub use framebuffer::Framebuffer;
