//! The degradation ladder: a fixed, ordered list of fidelity reductions the
//! scheduler walks when a cycle's predicted rendering cost exceeds the
//! budget, plus the hysteresis that governs recovering fidelity.
//!
//! Determinism matters here: given the same models, budget, and request
//! stream, the ladder must produce the same decisions every run (the pinned
//! transcript test in `scheduler.rs` holds it to that).

/// One rung of the ladder, in increasing order of fidelity loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Render exactly as requested.
    Full,
    /// Shrink the image side by `2^halvings` (pixels by `4^halvings`).
    Halved { halvings: u8 },
    /// Shrink *and* switch ray tracing to rasterization — but only when the
    /// models say the config is past the Figure-15 crossover (rasterization
    /// predicted faster); otherwise the switch would cost time, not save it.
    Switched { halvings: u8 },
    /// Drop the frame entirely.
    Drop,
}

impl Rung {
    /// How many times the requested image side is halved on this rung.
    pub fn halvings(&self) -> u8 {
        match self {
            Rung::Full | Rung::Drop => 0,
            Rung::Halved { halvings } | Rung::Switched { halvings } => *halvings,
        }
    }

    /// Short label for transcripts and tables. Halvings beyond the ladder's
    /// deepest rung label as `shrunk` rather than masquerading as `quarter`.
    pub fn label(&self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::Halved { halvings: 1 } => "half",
            Rung::Halved { halvings: 2 } => "quarter",
            Rung::Halved { .. } => "shrunk",
            Rung::Switched { .. } => "switch",
            Rung::Drop => "drop",
        }
    }
}

/// The ladder the scheduler walks, top (full fidelity) to bottom (drop).
pub const LADDER: [Rung; 5] = [
    Rung::Full,
    Rung::Halved { halvings: 1 },
    Rung::Halved { halvings: 2 },
    Rung::Switched { halvings: 2 },
    Rung::Drop,
];

/// Index of the terminal `Drop` rung.
pub const DROP_LEVEL: usize = LADDER.len() - 1;

/// Hysteretic position on the ladder. Escalation (losing fidelity) is
/// immediate — a blown budget must be honored *now* — but recovery steps up
/// one rung at a time, and only after `hysteresis_cycles` consecutive cycles
/// with headroom at the higher fidelity. A single cheap cycle therefore
/// never flips the schedule back and forth. The walker knows nothing of what
/// its levels mean: its caller says how deep they go (the scheduler
/// [`DROP_LEVEL`], queue backpressure its own shed levels).
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
        assert_eq!(LADDER[0], Rung::Full);
        assert_eq!(LADDER[DROP_LEVEL], Rung::Drop);
        // Halvings are monotone over the executable rungs.
        let h: Vec<u8> = LADDER[..DROP_LEVEL].iter().map(|r| r.halvings()).collect();
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
    }

    #[test]
    fn escalation_is_immediate_and_recovery_is_hysteretic() {
        let mut l = Ladder::new(3, DROP_LEVEL);
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
        let mut l = Ladder::new(1, DROP_LEVEL);
        l.relax(true);
        assert_eq!(l.level(), 0);
        l.escalate_to(9); // clamped to the drop rung
        assert_eq!(l.level(), DROP_LEVEL);
    }

    #[test]
    fn depth_comes_from_the_caller_not_the_render_ladder() {
        let mut l = Ladder::new(1, 2);
        l.escalate_to(9);
        assert_eq!(l.level(), 2);
    }
}
