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
//! Each renderer's stages are sequenced by exactly one straight-line driver:
//! the entry point calls the stages in order over one
//! [`PhaseTimer`], each stage timed as one phase and each buffer dropped
//! after its last use. So the models are fitted to the same code the in situ
//! loop ships. [`graph`] is the one other way into the ray tracer's driver, a
//! BVH-cached entry point the benchmark still calls.

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
