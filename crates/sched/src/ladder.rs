//! The degradation ladder: one [`Rung`] type, one first-fit walk
//! ([`first_fit`]) over [`LADDER`], plus the hysteresis that governs
//! recovering fidelity.
//!
//! A rung is a frame step: resolution halvings, optionally a switch to
//! rasterization. The scheduler prices a rung as the whole-frame models do
//! (Section 5.5–5.6); nothing in the in situ path sheds a ray-tracer pass.
//! One past the end of [`LADDER`] is the drop: the answer when no rung fits.
//!
//! Determinism matters here: given the same models, budget, and request
//! stream, the ladder must produce the same decisions every run (the pinned
//! transcript test in `scheduler.rs` holds it to that).

/// One rung: a frame step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// How many times the requested image side is halved.
    pub halvings: u8,
    /// Also switch ray tracing to rasterization — but only when the models
    /// say the config is past the Figure-15 crossover (rasterization
    /// predicted faster); otherwise the switch would cost time, not save it.
    pub switch: bool,
}

impl Rung {
    /// The rung that halves the image side `halvings` times.
    pub(crate) const fn frame(halvings: u8) -> Rung {
        Rung { halvings, switch: false }
    }

    /// Short label for transcripts and tables. Halvings beyond the ladder's
    /// deepest rung label as `shrunk` rather than masquerading as `quarter`.
    pub fn label(&self) -> &'static str {
        match (self.switch, self.halvings) {
            (true, _) => "switch",
            (false, 0) => "full",
            (false, 1) => "half",
            (false, 2) => "quarter",
            (false, _) => "shrunk",
        }
    }
}

/// The scheduler's ladder, top (full fidelity) to bottom.
pub const LADDER: [Rung; 4] =
    [Rung::frame(0), Rung::frame(1), Rung::frame(2), Rung { switch: true, ..Rung::frame(2) }];

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

    #[test]
    fn ladder_orders_fidelity_loss() {
        assert_eq!(LADDER[0], Rung::frame(0));
        // Halvings are monotone over the rungs.
        let h: Vec<u8> = LADDER.iter().map(|r| r.halvings).collect();
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
        let labels: Vec<&str> = LADDER.iter().map(Rung::label).collect();
        assert_eq!(labels, ["full", "half", "quarter", "switch"]);
        assert_eq!(Rung::frame(3).label(), "shrunk");
    }

    #[test]
    fn first_fit_starts_where_told_takes_the_first_fit_and_drops() {
        // A cost that quarters with each halving: the first rung at or under
        // the budget is the answer, and no rung past it is priced.
        let cost = |r: Rung| 0.25f64.powi(i32::from(r.halvings));
        let mut priced = Vec::new();
        let fit = |r: Rung| {
            priced.push(r);
            (cost(r) <= 0.3).then_some(r)
        };
        assert_eq!(first_fit(&LADDER, 0, fit), Some((1, LADDER[1])));
        assert_eq!(priced, LADDER[..2]);
        // The walk starts where it is told to, even when a higher rung fits.
        let fit = |r: Rung| (cost(r) <= 1.0).then_some(r.halvings);
        assert_eq!(first_fit(&LADDER, 2, fit), Some((2, 2)));
        assert_eq!(first_fit(&LADDER, LADDER.len(), fit), None);
        // An impossible budget drops the frame.
        assert_eq!(first_fit(&LADDER, 0, |_| None::<()>), None);
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
