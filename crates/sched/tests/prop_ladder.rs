//! The degradation walker's guarantees, over random `escalate_to` / `relax`
//! sequences, depths and hysteresis values: the level never leaves
//! `0..=max_level`, escalation takes effect at once, and recovery is
//! hysteretic — a `relax` call rises at most one level, and only on the
//! `hysteresis_cycles`-th headroom call in a row, while `relax(false)` (or
//! an escalation) starts the streak over.

use proptest::prelude::*;
use sched::Ladder;

proptest! {
    #[test]
    fn the_ladder_is_monotone_and_recovery_is_hysteretic(
        hysteresis_cycles in 0u32..6,
        max_level in 0usize..8,
        // (escalate one time in four, target level, headroom three times in four)
        ops in collection::vec((0u8..4, 0usize..12, 0u8..4), 0..300),
    ) {
        let mut ladder = Ladder::new(hysteresis_cycles, max_level);
        prop_assert_eq!(ladder.level(), 0);
        // `new` raises a hysteresis of 0 to 1: a streak is at least one call.
        let needed = hysteresis_cycles.max(1);
        // Headroom calls in a row since the streak last started over.
        let mut streak = 0u32;
        for (kind, target, headroom) in ops {
            let before = ladder.level();
            if kind == 0 {
                ladder.escalate_to(target);
                prop_assert_eq!(ladder.level(), before.max(target.min(max_level)));
                if target > before {
                    streak = 0;
                }
            } else {
                let headroom = headroom != 0;
                ladder.relax(headroom);
                streak = if headroom && before > 0 { streak + 1 } else { 0 };
                if streak == needed {
                    prop_assert_eq!(ladder.level(), before - 1);
                    streak = 0;
                } else {
                    prop_assert_eq!(ladder.level(), before);
                }
            }
            prop_assert!(ladder.level() <= max_level);
        }
    }
}
