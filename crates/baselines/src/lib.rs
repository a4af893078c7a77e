//! Architecture-specific comparator renderers.
//!
//! The dissertation validates its data-parallel renderers against hand-tuned
//! systems: Intel Embree and NVIDIA OptiX Prime for ray tracing (Tables 3-5),
//! HAVS for projected-tetrahedra volume rendering (Figure 6), the Bunyk
//! connectivity ray caster (Figure 7), and VisIt's sampling volume renderer
//! (Table 9). Those codebases are C++/CUDA and partly closed; this crate
//! re-implements each *algorithm* with the tunings that gave the originals
//! their edge over a primitive-composed implementation:
//!
//! * [`tuned`] — SAH-built BVH (higher build cost, much better tree quality
//!   than the DPP tracer's LBVH) with a fused single-kernel traversal loop:
//!   no intermediate hit arrays, no primitive-dispatch overhead. `embree`
//!   profile parallelizes scanline packets; `optix` profile adds
//!   Morton-ordered rays (the GPU throughput trick).
//! * [`havs`] — projected tetrahedra with a depth sort and in-order
//!   fragment blending (the k-buffer pipeline, serialized); each tet is
//!   projected and probed through DPP-VR's `ScreenTet`.
//! * [`bunyk`] — face-connectivity unstructured ray marching with the
//!   expensive serial adjacency preprocessing step the paper calls out.
//! * [`visit_like`] — VisIt's slice-based sampling volume renderer: serial,
//!   per-cell 3D rasterization into a sample buffer, then compositing with
//!   early ray termination (the SS / S / C phases of Table 9). Its per-cell
//!   math is DPP-VR's `ScreenTet`, `Footprint` and `column_run`, so only the
//!   loop shape differs and the frame equals a one-pass DPP-VR frame.
//!
//! The two tet comparators report a `render::PhaseTimer`, as the renderers
//! do; the Bunyk ray caster keeps its own stats record.

pub mod bunyk;
pub mod havs;
pub mod packet8;
pub mod tuned;
pub mod visit_like;
