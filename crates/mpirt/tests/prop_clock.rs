//! Properties of the one simulated-time engine: a sequence of barriered
//! rounds reproduces the retired lockstep clock bit for bit, and the running
//! maximum `elapsed_s` is never stale under any mix of clock operations.

use mpirt::{EventWorld, NetModel, RoundCost};
use proptest::prelude::*;

/// `(compute_s, bytes_sent, messages)` of one rank in one round.
type Cost = (f64, usize, usize);

fn round_cost((compute_s, bytes_sent, messages): Cost) -> RoundCost {
    RoundCost { compute_s, bytes_sent, bytes_dense: 4 * bytes_sent, messages }
}

fn slowest_clock(w: &EventWorld) -> f64 {
    (0..w.size()).map(|r| w.now(r)).fold(0.0, f64::max)
}

proptest! {
    /// The lockstep clock was `elapsed_s += max_r(seconds_r)` per round. With
    /// every rank at the barrier time `T`, `max_r(T + s_r)` must be that same
    /// `T + max_r(s_r)` to the last bit.
    #[test]
    fn rounds_accumulate_the_sum_of_per_round_maxima_bit_for_bit(
        ranks in 1usize..9,
        latency_s in 0.0f64..1e-3,
        bandwidth_bps in 1e6f64..1e10,
        costs in collection::vec((0.0f64..0.1, 0usize..1 << 22, 0usize..8), 1..160),
    ) {
        let net = NetModel { latency_s, bandwidth_bps };
        let mut world = EventWorld::new(ranks, net);
        let mut naive = 0.0f64;
        let mut naive_wire = 0u64;
        for round in costs.chunks(ranks) {
            let round: Vec<RoundCost> = round.iter().copied().map(round_cost).collect();
            naive += round.iter().map(|c| c.seconds(&net)).fold(0.0f64, f64::max);
            naive_wire += round.iter().map(|c| c.bytes_sent as u64).sum::<u64>();
            world.finish_round(&round);
            prop_assert_eq!(world.elapsed_s.to_bits(), naive.to_bits());
        }
        prop_assert_eq!(world.round_bytes.len(), costs.len().div_ceil(ranks));
        prop_assert_eq!(world.total_bytes, naive_wire);
        prop_assert_eq!(world.dense_bytes, 4 * naive_wire);
    }

    /// After any interleaving of `compute` / `send` / `recv` / barrier, from
    /// any starting clocks, `elapsed_s` is the maximum of `now(r)`.
    #[test]
    fn elapsed_is_the_slowest_clock_after_any_interleaving(
        starts in collection::vec(0.0f64..2.0, 1..7),
        ops in collection::vec((0u8..4, any::<usize>(), any::<usize>(), 0.0f64..0.5, 0usize..1 << 20), 0..80),
    ) {
        let net = NetModel { latency_s: 1e-4, bandwidth_bps: 1e7 };
        let mut world = EventWorld::with_starts(&starts, net);
        let ranks = starts.len();
        prop_assert_eq!(world.elapsed_s, slowest_clock(&world));
        for (op, a, b, seconds, bytes) in ops {
            let (from, to) = (a % ranks, b % ranks);
            match op {
                0 => world.compute(from, seconds),
                1 => {
                    let arrival = world.send(from, bytes, bytes);
                    world.recv(to, arrival);
                }
                // A receive of something that arrived in the past or future.
                2 => world.recv(to, 4.0 * seconds),
                _ => {
                    let costs: Vec<RoundCost> =
                        (0..ranks).map(|r| round_cost((seconds * r as f64, bytes, r % 3))).collect();
                    world.finish_round(&costs[..=from]);
                }
            }
            prop_assert_eq!(world.elapsed_s, slowest_clock(&world));
            prop_assert_eq!(world.elapsed(), world.elapsed_s);
        }
    }
}
