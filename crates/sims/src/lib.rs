//! Proxy simulation applications (Chapter IV's integration targets).
//!
//! Strawman was evaluated against three DOE proxy apps; we implement
//! simplified but genuinely time-stepping versions with the same mesh types:
//!
//! * [`cloverleaf`] — compressible Euler hydrodynamics on a 3D rectilinear
//!   grid (CloverLeaf3D stand-in): Lax-Friedrichs finite-volume update of a
//!   shocked ideal gas.
//! * [`kripke`] — deterministic discrete-ordinates (Sn) particle transport
//!   on a 3D uniform grid (Kripke stand-in): upwind corner sweeps over 8
//!   octants, scalar flux from angular quadrature.
//! * [`lulesh`] — Lagrangian shock hydrodynamics on a 3D unstructured hex
//!   mesh (LULESH stand-in): a Sedov blast driving staggered node motion
//!   with artificial viscosity.
//!
//! Physics fidelity is deliberately reduced; what the experiments consume is
//! (a) the *data models* (rectilinear / uniform / unstructured hex with
//! evolving fields) and (b) a real per-cycle compute cost to measure
//! visualization burden against (Table 11).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cloverleaf;
pub mod kripke;
pub mod lulesh;

pub use cloverleaf::Cloverleaf;
pub use kripke::Kripke;
pub use lulesh::Lulesh;

/// Common driver interface for the in situ examples and the study harness.
pub trait ProxySim {
    /// The app's name as used in tables ("CloverLeaf3D", "Kripke", "LULESH").
    fn name(&self) -> &'static str;
    /// Advance one simulation cycle.
    fn step(&mut self);
    /// Completed cycles.
    fn cycle(&self) -> u64;
    /// Simulated physical time.
    fn time(&self) -> f64;
    /// Total cells in the problem.
    fn num_cells(&self) -> usize;
    /// Renderers the app asks the in situ layer for each cycle, one request
    /// per entry (the Table 9/10 app-renderer pairings). Names are the
    /// `perfmodel` renderer names (`ray_tracing`, `rasterization`,
    /// `volume_rendering`); a name may repeat to request multiple views.
    fn vis_renderers(&self) -> &'static [&'static str] {
        &["ray_tracing"]
    }
}
