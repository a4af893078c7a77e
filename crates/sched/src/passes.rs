//! Pass-granular degradation: a ladder whose rungs shed individual
//! render-graph passes instead of only shrinking or dropping whole frames.
//!
//! The whole-frame [`LADDER`](crate::ladder::LADDER) can only trade fidelity
//! in factor-of-4 pixel steps — when full fidelity misses the budget by 10%,
//! its next rung throws away 75% of the pixels. The graph executor exposes
//! cheaper moves first: reuse last frame's BVH (free — the frame is
//! byte-identical while geometry holds still), then skip ambient occlusion,
//! then shadows (each replaced by its documented fallback), and only then
//! start halving the image. [`PassRung::skips`] names the passes to hand to
//! `FrameGraph::execute`, and [`PassRung::predicted_seconds`] prices a rung
//! from the whole-frame models minus the fitted per-pass models
//! ([`ModelSet::predict_pass_seconds`]). The pass families are fitted from
//! live graph timings: `repro graph` feeds each executed frame's per-pass
//! records to [`OnlineRefit::observe`](crate::refit::OnlineRefit::observe).
//!
//! The legacy whole-frame scheduler is untouched (its decision transcript is
//! pinned); this module is the admission layer for graph-executed renders.

use crate::ladder::Rung;
use perfmodel::feasibility::ModelSet;

/// One rung of the pass-granular ladder, in increasing order of fidelity
/// loss. `frame` carries the whole-frame component (resolution halvings or
/// drop); the pass flags shed individual graph passes on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassRung {
    /// Whole-frame component (resolution / drop), reusing the legacy rungs.
    pub frame: Rung,
    /// Skip the `ambient_occlusion` pass (fallback: fully unoccluded).
    pub skip_ao: bool,
    /// Skip the `shadows` pass (fallback: all lights visible).
    pub skip_shadows: bool,
    /// Reuse last frame's BVH through the graph cache instead of charging a
    /// rebuild. Output-neutral while geometry holds still, so it outranks
    /// every pass skip.
    pub reuse_bvh: bool,
}

/// Per-frame work inputs for pricing a [`PassRung`]: the pass work units at
/// *full* resolution and the acceleration-structure build charge.
#[derive(Debug, Clone, Copy)]
pub struct PassWork {
    /// `ambient_occlusion` work units at full resolution.
    pub ao_units: f64,
    /// `shadows` work units at full resolution.
    pub shadow_units: f64,
    /// One-time build seconds, charged unless the rung reuses the BVH.
    pub build_seconds: f64,
}

impl PassRung {
    /// Pass names to hand to the graph executor's skip list.
    pub fn skips(&self) -> Vec<&'static str> {
        let mut s = Vec::new();
        if self.skip_ao {
            s.push("ambient_occlusion");
        }
        if self.skip_shadows {
            s.push("shadows");
        }
        s
    }

    /// True for the terminal drop rung.
    pub fn is_drop(&self) -> bool {
        self.frame == Rung::Drop
    }

    /// Short label for transcripts and tables, e.g. `full+bvh-ao`.
    pub fn label(&self) -> String {
        if self.is_drop() {
            return "drop".to_string();
        }
        let mut l = self.frame.label().to_string();
        if self.reuse_bvh {
            l.push_str("+bvh");
        }
        if self.skip_ao {
            l.push_str("-ao");
        }
        if self.skip_shadows {
            l.push_str("-shadows");
        }
        l
    }

    /// Predicted seconds for a frame executed at this rung.
    ///
    /// `frame_seconds` predicts the whole frame (render + compositing,
    /// excluding build) at a given whole-frame rung — callers close over
    /// [`ModelSet::predict_frame_seconds`] with the rung-shrunk config.
    /// `work.ao_units` / `work.shadow_units` are the pass work units at
    /// *full* resolution; they scale with active pixels, so each halving
    /// divides them by 4 before the per-pass models price the subtraction.
    /// A missing per-pass model prices its skip at 0 — never over-promising
    /// savings the models cannot back. `work.build_seconds` is charged
    /// unless the rung reuses the cached BVH.
    pub fn predicted_seconds(
        &self,
        set: &ModelSet,
        frame_seconds: impl Fn(Rung) -> f64,
        work: &PassWork,
    ) -> f64 {
        if self.is_drop() {
            return 0.0;
        }
        let scale = 0.25f64.powi(self.frame.halvings() as i32);
        let mut t = frame_seconds(self.frame);
        if self.skip_ao {
            t -=
                set.predict_pass_seconds("ambient_occlusion", work.ao_units * scale).unwrap_or(0.0);
        }
        if self.skip_shadows {
            t -= set.predict_pass_seconds("shadows", work.shadow_units * scale).unwrap_or(0.0);
        }
        if !self.reuse_bvh {
            t += work.build_seconds;
        }
        t.max(0.0)
    }
}

/// The pass-granular ladder, top (full fidelity) to bottom (drop). BVH reuse
/// comes first because it costs no fidelity at all; pass skips precede any
/// resolution loss because their fallbacks degrade shading, not pixels;
/// resolution halvings come last.
pub const PASS_LADDER: [PassRung; 7] = [
    PassRung { frame: Rung::Full, skip_ao: false, skip_shadows: false, reuse_bvh: false },
    PassRung { frame: Rung::Full, skip_ao: false, skip_shadows: false, reuse_bvh: true },
    PassRung { frame: Rung::Full, skip_ao: true, skip_shadows: false, reuse_bvh: true },
    PassRung { frame: Rung::Full, skip_ao: true, skip_shadows: true, reuse_bvh: true },
    PassRung {
        frame: Rung::Halved { halvings: 1 },
        skip_ao: true,
        skip_shadows: true,
        reuse_bvh: true,
    },
    PassRung {
        frame: Rung::Halved { halvings: 2 },
        skip_ao: true,
        skip_shadows: true,
        reuse_bvh: true,
    },
    PassRung { frame: Rung::Drop, skip_ao: true, skip_shadows: true, reuse_bvh: true },
];

/// Index of the terminal drop rung.
pub const PASS_DROP_LEVEL: usize = PASS_LADDER.len() - 1;

/// Lowest ladder level (highest fidelity) whose predicted seconds fit the
/// budget; the drop rung when none do. `predictions` must align with
/// [`PASS_LADDER`].
pub fn first_feasible(predictions: &[f64], budget_s: f64) -> usize {
    predictions.iter().position(|&t| t <= budget_s).unwrap_or(PASS_DROP_LEVEL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::models::Family;

    const REQUIRED: [(Family, &[f64]); 5] = [
        (Family::Rt, &[1e-6, 1e-6, 1.0]),
        (Family::RtBuild, &[1e-6, 1.0]),
        (Family::Rast, &[1e-6, 1e-6, 1.0]),
        (Family::Vr, &[1e-6, 1e-6, 1.0]),
        (Family::Comp, &[1e-6, 1e-6, 1.0]),
    ];
    const PASSES: [(Family, &[f64]); 2] =
        [(Family::PassAo, &[1e-6, 0.01]), (Family::PassShadows, &[1e-6, 0.005])];

    fn set_with_pass_models() -> ModelSet {
        ModelSet::from_coeffs("test", &[&REQUIRED[..], &PASSES].concat())
    }

    /// Whole-frame cost model for tests: linear in pixel area, so each
    /// halving divides it by 4 (plus the frame-independent floor).
    fn frame_cost(rung: Rung) -> f64 {
        1.0 * 0.25f64.powi(rung.halvings() as i32) + 0.05
    }

    /// Work inputs shared by the pricing tests.
    const WORK: PassWork = PassWork { ao_units: 1e5, shadow_units: 4e4, build_seconds: 0.2 };

    #[test]
    fn pass_ladder_orders_fidelity_loss() {
        assert_eq!(PASS_LADDER[0].skips(), Vec::<&str>::new());
        assert!(!PASS_LADDER[0].reuse_bvh);
        assert!(PASS_LADDER[PASS_DROP_LEVEL].is_drop());
        // Predicted cost is monotone nonincreasing down the ladder.
        let set = set_with_pass_models();
        let t: Vec<f64> =
            PASS_LADDER.iter().map(|r| r.predicted_seconds(&set, frame_cost, &WORK)).collect();
        assert!(t.windows(2).all(|w| w[0] >= w[1]), "{t:?}");
        // Frame halvings are monotone over the executable rungs, and every
        // pass skip precedes the first resolution loss.
        let h: Vec<u8> =
            PASS_LADDER[..PASS_DROP_LEVEL].iter().map(|r| r.frame.halvings()).collect();
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
        let first_halved = PASS_LADDER.iter().position(|r| r.frame.halvings() > 0).unwrap();
        assert_eq!(
            PASS_LADDER[first_halved].skips(),
            vec!["ambient_occlusion", "shadows"],
            "resolution falls only after both pass skips"
        );
    }

    #[test]
    fn rungs_name_the_passes_they_shed() {
        assert_eq!(PASS_LADDER[2].skips(), vec!["ambient_occlusion"]);
        assert_eq!(PASS_LADDER[3].skips(), vec!["ambient_occlusion", "shadows"]);
        assert_eq!(PASS_LADDER[0].label(), "full");
        assert_eq!(PASS_LADDER[1].label(), "full+bvh");
        assert_eq!(PASS_LADDER[3].label(), "full+bvh-ao-shadows");
        assert_eq!(PASS_LADDER[4].label(), "half+bvh-ao-shadows");
        assert_eq!(PASS_LADDER[5].label(), "quarter+bvh-ao-shadows");
        assert_eq!(PASS_LADDER[PASS_DROP_LEVEL].label(), "drop");
    }

    #[test]
    fn predicted_seconds_subtracts_fitted_pass_savings() {
        let set = set_with_pass_models();
        let full = PASS_LADDER[0].predicted_seconds(&set, frame_cost, &WORK);
        assert!((full - (1.05 + 0.2)).abs() < 1e-12);
        // BVH reuse drops exactly the build charge.
        let warm = PASS_LADDER[1].predicted_seconds(&set, frame_cost, &WORK);
        assert!((warm - 1.05).abs() < 1e-12);
        // Skipping AO subtracts its modeled cost (1e-6 * 1e5 + 0.01).
        let no_ao = PASS_LADDER[2].predicted_seconds(&set, frame_cost, &WORK);
        assert!((warm - no_ao - 0.11).abs() < 1e-12, "{warm} {no_ao}");
        // Halving shrinks the frame term through its rung and the pass work
        // by 4 before the per-pass models price the skips.
        let half = PASS_LADDER[4].predicted_seconds(&set, frame_cost, &WORK);
        let want = frame_cost(PASS_LADDER[4].frame) - (1e-6 * 2.5e4 + 0.01) - (1e-6 * 1e4 + 0.005);
        assert!((half - want).abs() < 1e-12, "{half} vs {want}");
        assert_eq!(PASS_LADDER[PASS_DROP_LEVEL].predicted_seconds(&set, frame_cost, &WORK), 0.0);
    }

    /// Without fitted pass models a skip prices at zero savings — the rung
    /// never promises headroom the models cannot back.
    #[test]
    fn missing_pass_models_price_skips_at_zero() {
        let set = ModelSet::from_coeffs("test", &REQUIRED);
        let warm = PASS_LADDER[1].predicted_seconds(&set, frame_cost, &WORK);
        let no_both = PASS_LADDER[3].predicted_seconds(&set, frame_cost, &WORK);
        assert_eq!(warm, no_both);
    }

    /// The ladder's reason to exist: a budget that full fidelity misses by a
    /// hair lands on a pass-skip rung at *full resolution*, where the
    /// whole-frame ladder's only move is to throw away 75% of the pixels.
    #[test]
    fn pass_skips_hold_budgets_whole_frame_rungs_miss() {
        let set = set_with_pass_models();
        let t: Vec<f64> =
            PASS_LADDER.iter().map(|r| r.predicted_seconds(&set, frame_cost, &WORK)).collect();
        // Budget sits between "full" and "full minus AO".
        let budget = t[2] + 0.01;
        let level = first_feasible(&t, budget);
        assert_eq!(level, 2);
        assert_eq!(PASS_LADDER[level].frame, Rung::Full);
        // An impossible budget drops the frame.
        assert_eq!(first_feasible(&t, -1.0), PASS_DROP_LEVEL);
    }
}
