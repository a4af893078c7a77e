//! Shared in-crate test fixture: a hand-built, seconds-scale model set with
//! known non-negative coefficients.

use crate::feasibility::ModelSet;
use crate::models::Family;

/// A plausible toy [`ModelSet`] for unit tests.
pub(crate) fn toy_model_set() -> ModelSet {
    ModelSet::from_coeffs(
        "toy",
        &[
            (Family::Rt, &[2e-9, 1e-8, 1e-3]),
            (Family::RtBuild, &[2e-8, 1e-3]),
            (Family::Rast, &[4e-9, 4e-10, 1e-3]),
            (Family::Vr, &[2e-10, 1e-9, 1e-2]),
            (Family::Comp, &[2e-8, 5e-8, 1e-3]),
        ],
    )
}
