//! Strawman: the batch in situ visualization infrastructure (Chapter IV).
//!
//! The API is three calls, exactly as the paper's Listing 4.3:
//!
//! ```
//! use strawman::{Strawman, Options};
//! use conduit_node::Node;
//!
//! let mut data = Node::new();
//! data.set("state/time", 0.0f64);
//! data.set("state/cycle", 0i64);
//! data.set("coords/type", "uniform");
//! data.set("coords/dims/i", 3i64);
//! data.set("coords/dims/j", 3i64);
//! data.set("coords/dims/k", 3i64);
//! data.set("fields/e/association", "vertex");
//! data.set("fields/e/values", vec![0.0f32; 27]);
//!
//! let mut actions = Node::new();
//! let add = actions.append();
//! add.set("action", "AddPlot");
//! add.set("var", "e");
//! let draw = actions.append();
//! draw.set("action", "DrawPlots");
//!
//! let mut sm = Strawman::open(Options::default());
//! sm.publish(&data).unwrap();
//! sm.execute(&actions).unwrap();
//! sm.close();
//! ```
//!
//! Mesh data and actions are described with Conduit-style [`conduit_node::Node`]
//! trees following the mesh conventions of Section 4.3; rendering runs on the
//! data-parallel [`render`] crate; image delivery is PNG/PPM files (R8's
//! file-system path — the WebSocket streaming path is out of scope, see
//! DESIGN.md).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod api;
pub mod mesh_convert;
pub mod partitioned;
pub mod png;

pub use api::{
    AdmissionDecision, AdmissionHook, AdmissionRequest, CompositeObservation, ExecutedRender,
    Options, RenderRecord, Strawman, StrawmanError,
};
pub use mesh_convert::PublishedMesh;
pub use partitioned::{render_partitioned, render_rank_frames, RankFrame};
