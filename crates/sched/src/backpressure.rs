//! Queue backpressure mapped onto the degradation [`Ladder`].
//!
//! The render scheduler walks the ladder when predicted *time* exceeds a
//! budget; a query service walks the same ladder when queue *depth* exceeds
//! a budget. Reusing [`Ladder`] buys the same contract for free: escalation
//! is immediate (an overflowing queue must shed now), recovery is hysteretic
//! (a single quiet tick never restores admission, so admission decisions
//! cannot flap under oscillating load).
//!
//! Ladder levels map to shed classes, deepest first:
//!
//! | level | admitted classes                    |
//! |-------|-------------------------------------|
//! | 0     | all                                 |
//! | 1–2   | `Normal`, `MustRender`              |
//! | 3–4   | `MustRender` only                   |
//!
//! `MustRender` is never shed: it preempts lower classes in the queue
//! instead (see `feasd`'s priority queue), which is what closes the
//! "must-render preempts instead of degrading uniformly" admission item.

use crate::ladder::Ladder;
use crate::priority::Priority;

/// First ladder level at which [`Priority::Speculative`] requests are shed.
pub const SHED_SPECULATIVE_LEVEL: usize = 1;
/// First ladder level at which [`Priority::Normal`] requests are shed.
pub const SHED_NORMAL_LEVEL: usize = 3;
/// Deepest shed level (a queue past eight times its budget).
pub const MAX_LEVEL: usize = 4;

/// Hysteretic admission gate driven by observed queue depth.
#[derive(Debug, Clone)]
pub struct QueuePressure {
    ladder: Ladder,
    depth_budget: usize,
}

impl QueuePressure {
    /// `depth_budget` is the queue depth the service is provisioned for;
    /// deeper queues escalate. `hysteresis_ticks` quiet observations are
    /// required per rung of recovery.
    pub fn new(depth_budget: usize, hysteresis_ticks: u32) -> QueuePressure {
        QueuePressure {
            ladder: Ladder::new(hysteresis_ticks, MAX_LEVEL),
            depth_budget: depth_budget.max(1),
        }
    }

    /// Feed one queue-depth observation. Overload escalates immediately and
    /// proportionally (each doubling past the budget is one more rung);
    /// recovery requires a sustained streak of depths at or below half the
    /// budget.
    pub fn observe_depth(&mut self, depth: usize) {
        let budget = self.depth_budget;
        let target = if depth > budget.saturating_mul(8) {
            MAX_LEVEL
        } else if depth > budget.saturating_mul(4) {
            3
        } else if depth > budget.saturating_mul(2) {
            2
        } else if depth > budget {
            1
        } else {
            0
        };
        self.ladder.escalate_to(target);
        self.ladder.relax(depth.saturating_mul(2) <= budget);
    }

    /// Current ladder level (0 = admit everything).
    pub fn level(&self) -> usize {
        self.ladder.level()
    }

    /// Whether a request of class `p` is admitted at the current level.
    pub fn admits(&self, p: Priority) -> bool {
        match p {
            Priority::MustRender => true,
            Priority::Normal => self.level() < SHED_NORMAL_LEVEL,
            Priority::Speculative => self.level() < SHED_SPECULATIVE_LEVEL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_admits_everything() {
        let p = QueuePressure::new(64, 3);
        assert_eq!(p.level(), 0);
        assert!(p.admits(Priority::Speculative));
        assert!(p.admits(Priority::Normal));
        assert!(p.admits(Priority::MustRender));
    }

    #[test]
    fn escalation_sheds_speculative_then_normal_never_must_render() {
        let mut p = QueuePressure::new(10, 3);
        p.observe_depth(11); // just past budget -> level 1
        assert_eq!(p.level(), 1);
        assert!(!p.admits(Priority::Speculative));
        assert!(p.admits(Priority::Normal));
        p.observe_depth(41); // past 4x -> level 3
        assert_eq!(p.level(), 3);
        assert!(!p.admits(Priority::Normal));
        assert!(p.admits(Priority::MustRender));
        p.observe_depth(81); // past 8x -> the terminal level
        assert_eq!(p.level(), 4);
        assert!(p.admits(Priority::MustRender), "must-render is never shed");
    }

    #[test]
    fn recovery_is_hysteretic_and_stepwise() {
        let mut p = QueuePressure::new(10, 3);
        p.observe_depth(41);
        assert_eq!(p.level(), 3);
        // Depth back under budget but above the half-budget headroom mark:
        // no recovery, ever.
        for _ in 0..10 {
            p.observe_depth(8);
        }
        assert_eq!(p.level(), 3);
        // Two quiet ticks are not enough; a loud tick resets the streak.
        p.observe_depth(2);
        p.observe_depth(2);
        p.observe_depth(8);
        p.observe_depth(2);
        p.observe_depth(2);
        assert_eq!(p.level(), 3);
        // Three consecutive quiet ticks step up exactly one rung.
        p.observe_depth(2);
        assert_eq!(p.level(), 2);
        // And escalation mid-recovery wins instantly.
        p.observe_depth(100);
        assert_eq!(p.level(), 4);
    }

    #[test]
    fn deterministic_for_a_fixed_depth_trace() {
        let trace = [0usize, 5, 12, 30, 50, 90, 40, 4, 4, 4, 4, 4, 4, 11, 2, 2, 2];
        let run = || {
            let mut p = QueuePressure::new(10, 2);
            trace
                .iter()
                .map(|&d| {
                    p.observe_depth(d);
                    p.level()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
