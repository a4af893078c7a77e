//! The degradation ladder: one [`Rung`] type, one pricing function
//! ([`Rung::price`]) and one first-fit walk ([`first_fit`]) over two
//! orderings, plus the hysteresis that governs recovering fidelity.
//!
//! A rung is a frame step (resolution halvings, optionally a switch to
//! rasterization) with the render-graph pass flags beside it; a whole-frame
//! rung sets no pass flag. [`LADDER`] is the scheduler's ordering.
//! [`PASS_LADDER`] is the pass-granular one `repro graph` prices; nothing in
//! the in situ path sheds a pass. One past the end of an ordering is the
//! drop: the answer when no rung fits.
//!
//! Determinism matters here: given the same models, budget, and request
//! stream, the ladder must produce the same decisions every run (the pinned
//! transcript test in `scheduler.rs` holds it to that).

use perfmodel::feasibility::ModelSet;

/// One rung: a frame step plus the graph passes it sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// How many times the requested image side is halved.
    pub halvings: u8,
    /// Also switch ray tracing to rasterization — but only when the models
    /// say the config is past the Figure-15 crossover (rasterization
    /// predicted faster); otherwise the switch would cost time, not save it.
    pub switch: bool,
    /// Reuse last frame's BVH through the graph cache instead of charging a
    /// rebuild. Output-neutral while geometry holds still.
    pub reuse_bvh: bool,
    /// Skip the `ambient_occlusion` pass (fallback: fully unoccluded).
    pub skip_ao: bool,
    /// Skip the `shadows` pass (fallback: all lights visible).
    pub skip_shadows: bool,
}

/// Per-frame work inputs for pricing a [`Rung`]: the pass work units at
/// *full* resolution and the acceleration-structure build charge.
#[derive(Debug, Clone, Copy, Default)]
pub struct RungWork {
    /// `ambient_occlusion` work units at full resolution.
    pub ao_units: f64,
    /// `shadows` work units at full resolution.
    pub shadow_units: f64,
    /// One-time build seconds, charged unless the rung reuses the BVH.
    pub build_seconds: f64,
}

impl Rung {
    /// The whole-frame rung that halves the image side `halvings` times.
    pub(crate) const fn frame(halvings: u8) -> Rung {
        Rung { halvings, switch: false, reuse_bvh: false, skip_ao: false, skip_shadows: false }
    }

    /// Short label for transcripts and tables, e.g. `full+bvh-ao`. Halvings
    /// beyond the ladder's deepest rung label as `shrunk` rather than
    /// masquerading as `quarter`.
    pub fn label(&self) -> String {
        let mut l = match (self.switch, self.halvings) {
            (true, _) => "switch",
            (false, 0) => "full",
            (false, 1) => "half",
            (false, 2) => "quarter",
            (false, _) => "shrunk",
        }
        .to_string();
        for (on, tag) in
            [(self.reuse_bvh, "+bvh"), (self.skip_ao, "-ao"), (self.skip_shadows, "-shadows")]
        {
            if on {
                l.push_str(tag);
            }
        }
        l
    }

    /// Predicted seconds for a frame executed at this rung.
    ///
    /// `frame_s` is the whole-frame prediction (render + compositing,
    /// excluding build) at this rung's resolution and renderer.
    /// `work.ao_units` / `work.shadow_units` are the pass work units at
    /// *full* resolution; they scale with active pixels, so each halving
    /// divides them by 4 before the per-pass models price the subtraction.
    /// A missing per-pass model prices its skip at 0 — never over-promising
    /// savings the models cannot back. `work.build_seconds` is charged
    /// unless the rung reuses the cached BVH.
    pub fn price(&self, set: &ModelSet, frame_s: f64, work: &RungWork) -> f64 {
        let scale = 0.25f64.powi(i32::from(self.halvings));
        let mut t = frame_s;
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

/// The scheduler's ladder, top (full fidelity) to bottom. Its rungs shed no
/// pass, so each charges the BVH build and recovery holds no no-op rung.
pub const LADDER: [Rung; 4] =
    [Rung::frame(0), Rung::frame(1), Rung::frame(2), Rung { switch: true, ..Rung::frame(2) }];

/// The pass-granular ladder, top (full fidelity) to bottom. BVH reuse comes
/// first because it costs no fidelity at all; pass skips precede any
/// resolution loss because their fallbacks degrade shading, not pixels;
/// resolution halvings come last.
pub const PASS_LADDER: [Rung; 6] = [
    Rung::frame(0),
    Rung { reuse_bvh: true, ..Rung::frame(0) },
    Rung { reuse_bvh: true, skip_ao: true, ..Rung::frame(0) },
    Rung { reuse_bvh: true, skip_ao: true, skip_shadows: true, ..Rung::frame(0) },
    Rung { reuse_bvh: true, skip_ao: true, skip_shadows: true, ..Rung::frame(1) },
    Rung { reuse_bvh: true, skip_ao: true, skip_shadows: true, ..Rung::frame(2) },
];

/// Label of `level` in `rungs`: `drop` one past the end.
pub fn label_at(rungs: &[Rung], level: usize) -> String {
    rungs.get(level).map_or_else(|| "drop".to_string(), Rung::label)
}

/// The first-fit walk: the first level at or below `from` (in fidelity) for
/// which `fit` yields a value, with that value; `None` — drop the frame —
/// when no rung fits. Lazy: no rung past the first fit is priced.
pub fn first_fit<T>(
    rungs: &[Rung],
    from: usize,
    mut fit: impl FnMut(Rung) -> Option<T>,
) -> Option<(usize, T)> {
    rungs.iter().enumerate().skip(from).find_map(|(level, &rung)| Some((level, fit(rung)?)))
}

/// Hysteretic position on the ladder. Escalation (losing fidelity) is
/// immediate — a blown budget must be honored *now* — but recovery steps up
/// one rung at a time, and only after `hysteresis_cycles` consecutive cycles
/// with headroom at the higher fidelity. A single cheap cycle therefore
/// never flips the schedule back and forth. The walker knows nothing of what
/// its levels mean: its caller says how deep they go (the scheduler its
/// deepest [`LADDER`] rung, queue backpressure its own shed levels).
#[derive(Debug, Clone)]
pub struct Ladder {
    level: usize,
    streak: u32,
    hysteresis_cycles: u32,
    max_level: usize,
}

impl Ladder {
    pub fn new(hysteresis_cycles: u32, max_level: usize) -> Ladder {
        Ladder { level: 0, streak: 0, hysteresis_cycles: hysteresis_cycles.max(1), max_level }
    }

    /// Current operating level (0 = full fidelity, at most `max_level`; the
    /// scheduler's levels index [`LADDER`]).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Degrade to at least `level` (clamped to `max_level`), immediately.
    /// Resets the recovery streak.
    pub fn escalate_to(&mut self, level: usize) {
        if level > self.level {
            self.level = level.min(self.max_level);
            self.streak = 0;
        }
    }

    /// Call once per cycle after execution with whether the cycle's demand
    /// would have fit one level up (with margin). Steps up at most one level
    /// per call, and only after a full streak of headroom cycles.
    pub fn relax(&mut self, headroom: bool) {
        if self.level == 0 || !headroom {
            self.streak = 0;
            return;
        }
        self.streak += 1;
        if self.streak >= self.hysteresis_cycles {
            self.level -= 1;
            self.streak = 0;
        }
    }
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
    fn frame_cost(rung: &Rung) -> f64 {
        1.0 * 0.25f64.powi(rung.halvings as i32) + 0.05
    }

    /// Work inputs shared by the pricing tests.
    const WORK: RungWork = RungWork { ao_units: 1e5, shadow_units: 4e4, build_seconds: 0.2 };

    fn prices(set: &ModelSet, rungs: &[Rung]) -> Vec<f64> {
        rungs.iter().map(|r| r.price(set, frame_cost(r), &WORK)).collect()
    }

    fn sheds_nothing(r: &Rung) -> bool {
        !r.skip_ao && !r.skip_shadows
    }

    #[test]
    fn ladder_orders_fidelity_loss() {
        assert_eq!(LADDER[0], Rung::frame(0));
        assert!(LADDER.iter().all(|r| sheds_nothing(r) && !r.reuse_bvh));
        assert_eq!(label_at(&LADDER, LADDER.len()), "drop");
        // Halvings are monotone over the rungs.
        let h: Vec<u8> = LADDER.iter().map(|r| r.halvings).collect();
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
        let labels: Vec<String> = (0..=LADDER.len()).map(|l| label_at(&LADDER, l)).collect();
        assert_eq!(labels, ["full", "half", "quarter", "switch", "drop"]);
        assert_eq!(Rung::frame(3).label(), "shrunk");
    }

    #[test]
    fn pass_ladder_orders_fidelity_loss() {
        assert!(sheds_nothing(&PASS_LADDER[0]));
        assert!(!PASS_LADDER[0].reuse_bvh);
        // Predicted cost is monotone nonincreasing down the ladder, and the
        // drop past its end costs nothing.
        let t = prices(&set_with_pass_models(), &PASS_LADDER);
        assert!(t.windows(2).all(|w| w[0] >= w[1]) && t[t.len() - 1] >= 0.0, "{t:?}");
        // Frame halvings are monotone, and every pass skip precedes the
        // first resolution loss.
        let h: Vec<u8> = PASS_LADDER.iter().map(|r| r.halvings).collect();
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
        let first_halved = PASS_LADDER.iter().position(|r| r.halvings > 0).unwrap();
        assert!(
            PASS_LADDER[first_halved].skip_ao && PASS_LADDER[first_halved].skip_shadows,
            "resolution falls only after both pass skips"
        );
    }

    #[test]
    fn rungs_name_the_passes_they_shed() {
        assert!(PASS_LADDER[2].skip_ao && !PASS_LADDER[2].skip_shadows);
        assert!(PASS_LADDER[3].skip_ao && PASS_LADDER[3].skip_shadows);
        assert_eq!(PASS_LADDER[0].label(), "full");
        assert_eq!(PASS_LADDER[1].label(), "full+bvh");
        assert_eq!(PASS_LADDER[2].label(), "full+bvh-ao");
        assert_eq!(PASS_LADDER[3].label(), "full+bvh-ao-shadows");
        assert_eq!(PASS_LADDER[4].label(), "half+bvh-ao-shadows");
        assert_eq!(PASS_LADDER[5].label(), "quarter+bvh-ao-shadows");
        assert_eq!(label_at(&PASS_LADDER, PASS_LADDER.len()), "drop");
    }

    #[test]
    fn price_subtracts_fitted_pass_savings() {
        let set = set_with_pass_models();
        let t = prices(&set, &PASS_LADDER);
        assert!((t[0] - (1.05 + 0.2)).abs() < 1e-12);
        // BVH reuse drops exactly the build charge.
        assert!((t[1] - 1.05).abs() < 1e-12);
        // Skipping AO subtracts its modeled cost (1e-6 * 1e5 + 0.01).
        assert!((t[1] - t[2] - 0.11).abs() < 1e-12, "{} {}", t[1], t[2]);
        // Halving shrinks the frame term through its rung and the pass work
        // by 4 before the per-pass models price the skips.
        let want = frame_cost(&PASS_LADDER[4]) - (1e-6 * 2.5e4 + 0.01) - (1e-6 * 1e4 + 0.005);
        assert!((t[4] - want).abs() < 1e-12, "{} vs {want}", t[4]);
        // A whole-frame rung is the frame prediction plus the build charge.
        for (r, t) in LADDER.iter().zip(prices(&set, &LADDER)) {
            assert_eq!(t, frame_cost(r) + WORK.build_seconds);
        }
    }

    /// Without fitted pass models a skip prices at zero savings — the rung
    /// never promises headroom the models cannot back.
    #[test]
    fn missing_pass_models_price_skips_at_zero() {
        let t = prices(&ModelSet::from_coeffs("test", &REQUIRED), &PASS_LADDER);
        assert_eq!(t[1], t[3]);
    }

    /// The pass ordering's reason to exist: a budget that full fidelity
    /// misses by a hair lands on a pass-skip rung at *full resolution*,
    /// where the whole-frame ladder's only move is to throw away 75% of the
    /// pixels.
    #[test]
    fn pass_skips_hold_budgets_whole_frame_rungs_miss() {
        let t = prices(&set_with_pass_models(), &PASS_LADDER);
        // Budget sits between "full" and "full minus AO".
        let budget = t[2] + 0.01;
        let fit = |r: Rung| {
            (r.price(&set_with_pass_models(), frame_cost(&r), &WORK) <= budget).then_some(r)
        };
        assert_eq!(first_fit(&PASS_LADDER, 0, fit), Some((2, PASS_LADDER[2])));
        assert_eq!(PASS_LADDER[2].halvings, 0);
        // The walk starts where it is told to.
        assert_eq!(first_fit(&PASS_LADDER, 4, fit).map(|(l, _)| l), Some(4));
        // An impossible budget drops the frame.
        assert_eq!(first_fit(&PASS_LADDER, 0, |_| None::<()>), None);
    }

    #[test]
    fn escalation_is_immediate_and_recovery_is_hysteretic() {
        let mut l = Ladder::new(3, LADDER.len());
        l.escalate_to(2);
        assert_eq!(l.level(), 2);
        // Two headroom cycles are not enough.
        l.relax(true);
        l.relax(true);
        assert_eq!(l.level(), 2);
        // A bad cycle resets the streak entirely.
        l.relax(false);
        l.relax(true);
        l.relax(true);
        assert_eq!(l.level(), 2);
        // The third consecutive headroom cycle steps up exactly one level.
        l.relax(true);
        assert_eq!(l.level(), 1);
        // Escalation mid-recovery wins instantly.
        l.relax(true);
        l.escalate_to(3);
        assert_eq!(l.level(), 3);
        // Escalating below the current level is a no-op.
        l.escalate_to(1);
        assert_eq!(l.level(), 3);
    }

    #[test]
    fn relax_never_rises_above_full() {
        let mut l = Ladder::new(1, LADDER.len());
        l.relax(true);
        assert_eq!(l.level(), 0);
        l.escalate_to(9); // clamped to the caller's depth
        assert_eq!(l.level(), LADDER.len());
    }

    #[test]
    fn depth_comes_from_the_caller_not_the_render_ladder() {
        let mut l = Ladder::new(1, 2);
        l.escalate_to(9);
        assert_eq!(l.level(), 2);
    }
}
