//! Data-parallel ray tracing (Chapter II).
//!
//! A breadth-first ray tracer whose every stage is a data-parallel primitive
//! call: primary-ray generation (map), traversal/intersection (map over rays
//! walking an LBVH collapsed to four-wide nodes), shading (map), ambient
//! occlusion (scatter sample rays, intersect, gather), shadow rays (map),
//! stream compaction (map + scan + reverse-index + gather), and anti-aliasing
//! (gather). Workloads follow the study: WORKLOAD1 = intersection only,
//! WORKLOAD2 = shading, WORKLOAD3 = all features.

pub mod bvh;
pub mod geometry;
pub mod pipeline;
pub mod sbvh;

pub use bvh::{Bvh, Hit};
pub use geometry::TriGeometry;
pub use pipeline::{RayTracer, RtConfig, Workload};
pub use sbvh::build_split_bvh;
