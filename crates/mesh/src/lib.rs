//! Mesh data model: the structured and unstructured grids, fields, and
//! geometry filters the dissertation's renderers and simulations exchange.
//!
//! Covers the data sets of Chapters II (triangle soups from isosurfaces),
//! III (tetrahedral meshes from decomposed grids), and IV/V (uniform,
//! rectilinear, and unstructured simulation meshes), plus the geometry
//! filters used by the study: marching-tetrahedra isosurfacing, external
//! faces, and hexahedron-to-tetrahedron decomposition.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod datasets;
pub mod external_faces;
pub mod field;
pub mod isosurface;
pub mod partition;
pub mod structured;
pub mod unstructured;

pub use field::{Assoc, Field};
pub use partition::{Migration, Partition};
pub use structured::{RectilinearGrid, UniformGrid};
pub use unstructured::{HexMesh, TetMesh, TriMesh};
