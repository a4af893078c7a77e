//! Performance modeling of in situ rendering — the paper's core contribution.
//!
//! Pipeline (Chapter V):
//!
//! 1. [`study`] runs the rendering experiments: sweeps of device x renderer x
//!    data size x image size (the paper's 1,350-test corpus), each producing
//!    a [`sample::RenderSample`] carrying the measured run time and the
//!    *observed* model inputs (O, AP, VO, PPT, SPR, CS).
//! 2. [`models`] defines the per-renderer linear model forms and fits their
//!    coefficients with [`regression`] (multiple linear regression via
//!    normal equations).
//! 3. [`crossval`] evaluates each fitted model with k-fold cross validation
//!    (the within-50/25/10/5% accuracies of Table 13).
//! 4. [`mapping`] converts user-level rendering configurations (grid size,
//!    image size, MPI tasks) into model inputs (Section 5.8).
//! 5. [`feasibility`] answers the in situ viability questions: images
//!    renderable in a fixed budget (Figure 14) and the ray-tracing vs
//!    rasterization regime map (Figure 15).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod batch;
pub mod crossval;
pub mod feasibility;
pub mod fstable;
pub mod mapping;
pub mod models;
pub mod persist;
pub mod regression;
pub mod sample;
pub mod stats;
pub mod study;
#[cfg(test)]
pub(crate) mod test_models;

pub use models::{Family, FittedLinearModel};
pub use regression::LinearRegression;
pub use sample::{CompositeSample, RenderSample, RendererKind};
