//! The generation-counted model cache shared by every request.
//!
//! Queries never lock the models for the duration of an evaluation: they
//! clone one `Arc` snapshot and compute against it, so an online refit can
//! install a new generation at any time without stalling in-flight batches.
//! Answers carry the generation they were computed from, which is also how
//! table backfill stays coherent — a backfill tagged with a stale generation
//! is discarded instead of poisoning the new table.

use perfmodel::feasibility::ModelSet;
use perfmodel::mapping::MappingConstants;
use std::fmt;
use std::sync::{Arc, RwLock};

/// One immutable generation of fitted state.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Monotone install counter; starts at 1.
    pub generation: u64,
    /// The fitted per-renderer + compositing models.
    pub set: ModelSet,
    /// The Section 5.8 mapping constants paired with the fit.
    pub k: MappingConstants,
}

/// Rejected install: the candidate set fails the paper's plausibility
/// criterion (some model has a negative coefficient).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallError {
    /// Names of the implausible models.
    pub implausible: Vec<&'static str>,
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "refusing to install implausible models: {}", self.implausible.join(", "))
    }
}

impl std::error::Error for InstallError {}

/// Atomically swappable model state.
#[derive(Debug)]
pub struct ModelCache {
    current: RwLock<Arc<ModelSnapshot>>,
}

impl ModelCache {
    /// Cache seeded with generation 1. The seed set is trusted (it is the
    /// operator's explicit choice); only *re*-installs are plausibility-gated.
    pub fn new(set: ModelSet, k: MappingConstants) -> ModelCache {
        ModelCache { current: RwLock::new(Arc::new(ModelSnapshot { generation: 1, set, k })) }
    }

    /// The current snapshot. Cheap (one `Arc` clone); hold it for as long as
    /// one batch needs consistent models.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            // A panicked writer never left a torn value behind an RwLock
            // swap of an Arc; the poisoned guard still holds a valid snapshot.
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Current generation number.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Install a refitted set as the next generation. Fails closed on an
    /// implausible fit, leaving the previous generation in place.
    pub fn install(&self, set: ModelSet, k: MappingConstants) -> Result<u64, InstallError> {
        let implausible = set.implausible_models();
        if !implausible.is_empty() {
            return Err(InstallError { implausible });
        }
        let mut guard = match self.current.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let generation = guard.generation + 1;
        *guard = Arc::new(ModelSnapshot { generation, set, k });
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::models::Family;
    use sched::demo::ground_truth;

    #[test]
    fn install_bumps_generation_and_old_snapshots_stay_valid() {
        let cache = ModelCache::new(ground_truth(), MappingConstants::default());
        let before = cache.snapshot();
        assert_eq!(before.generation, 1);
        let gen2 = cache.install(ground_truth(), MappingConstants::default()).expect("plausible");
        assert_eq!(gen2, 2);
        assert_eq!(cache.generation(), 2);
        // The pre-install snapshot is untouched: in-flight batches finish on
        // the generation they started with.
        assert_eq!(before.generation, 1);
    }

    #[test]
    fn implausible_install_is_rejected_and_keeps_the_old_generation() {
        let cache = ModelCache::new(ground_truth(), MappingConstants::default());
        let mut bad = ground_truth();
        bad.get_mut(Family::Vr).expect("required family").fit.coeffs[0] = -1.0;
        let err = cache.install(bad, MappingConstants::default()).expect_err("gated");
        assert_eq!(err.implausible, vec!["volume_rendering"]);
        assert_eq!(cache.generation(), 1);
    }
}
