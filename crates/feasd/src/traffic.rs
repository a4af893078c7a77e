//! Seeded synthetic traffic: a deterministic stream of timed queries.
//!
//! Two arrival shapes drive the service benchmarks: `Uniform` (Poisson
//! arrivals at a constant mean rate — steady web traffic) and `Bursty`
//! (the same mean rate concentrated into periodic bursts — the
//! trigger-rendering shape, where many clients ask at once when something
//! interesting happens). Query bodies sample the precompute lattice, with a
//! configurable fraction nudged *off* the lattice to exercise the miss +
//! backfill path. Everything is a pure function of the seed.

use crate::service::{Ask, Query};
use perfmodel::fstable::{DeviceClass, Lattice};
use perfmodel::mapping::RenderConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::Priority;

/// Arrival-process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Poisson arrivals at the mean rate.
    Uniform,
    /// Periodic bursts: within each `BURST_PERIOD_S`, a `BURST_DUTY`
    /// fraction carries the whole period's traffic at a proportionally
    /// higher instantaneous rate.
    Bursty,
}

/// Burst cycle length in seconds (`Bursty` only).
const BURST_PERIOD_S: f64 = 0.25;
/// Fraction of each period that carries traffic (`Bursty` only).
const BURST_DUTY: f64 = 0.2;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total queries to emit.
    pub queries: usize,
    /// RNG seed; equal seeds yield bit-identical streams.
    pub seed: u64,
    /// Mean arrival rate over the whole run, queries/second.
    pub mean_rate_qps: f64,
    /// Arrival shape.
    pub pattern: ArrivalPattern,
    /// Fraction of queries sampled off the lattice (guaranteed table miss).
    pub off_lattice: f64,
    /// Fraction of queries that are render-plan asks.
    pub plan_fraction: f64,
}

impl TrafficConfig {
    /// A steady stream: Poisson arrivals, mostly on-lattice.
    pub fn uniform(queries: usize, seed: u64, mean_rate_qps: f64) -> TrafficConfig {
        TrafficConfig {
            queries,
            seed,
            mean_rate_qps,
            pattern: ArrivalPattern::Uniform,
            off_lattice: 0.05,
            plan_fraction: 0.1,
        }
    }

    /// The same mean load concentrated 5x (duty 0.2) into periodic bursts.
    pub fn bursty(queries: usize, seed: u64, mean_rate_qps: f64) -> TrafficConfig {
        TrafficConfig {
            pattern: ArrivalPattern::Bursty,
            ..TrafficConfig::uniform(queries, seed, mean_rate_qps)
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct ArrivalEvent {
    /// Arrival time on the traffic clock, seconds from stream start.
    pub t_s: f64,
    /// The request.
    pub query: Query,
}

fn pick<'a, T>(rng: &mut StdRng, axis: &'a [T]) -> &'a T {
    &axis[rng.gen_range(0..axis.len())]
}

/// Generate `cfg.queries` timed queries over `lattice`. Arrival times are
/// non-decreasing; the stream is a pure function of `cfg`.
pub fn generate(cfg: &TrafficConfig, lattice: &Lattice) -> Vec<ArrivalEvent> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rate = cfg.mean_rate_qps.max(1e-9);
    // Inhomogeneous Poisson via thinning: draw candidate arrivals at the
    // peak rate, accept each with probability inst_rate(t)/peak — the
    // textbook construction that preserves the mean rate exactly, unlike
    // naively stretching inter-arrival gaps across phase boundaries.
    let peak = match cfg.pattern {
        ArrivalPattern::Uniform => rate,
        ArrivalPattern::Bursty => rate / BURST_DUTY,
    };
    let inst_rate = |t: f64| -> f64 {
        match cfg.pattern {
            ArrivalPattern::Uniform => rate,
            ArrivalPattern::Bursty => {
                let phase = (t / BURST_PERIOD_S).fract();
                if phase < BURST_DUTY {
                    rate / BURST_DUTY
                } else {
                    // Quiescent floor between bursts: 1% of mean.
                    rate * 0.01
                }
            }
        }
    };
    let mut events = Vec::with_capacity(cfg.queries);
    let mut t = 0.0f64;
    for _ in 0..cfg.queries {
        loop {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / peak;
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept < inst_rate(t) / peak {
                break;
            }
        }
        events.push(ArrivalEvent { t_s: t, query: sample_query(&mut rng, cfg, lattice) });
    }
    events
}

fn sample_query(rng: &mut StdRng, cfg: &TrafficConfig, lattice: &Lattice) -> Query {
    let device = *pick(rng, &lattice.devices);
    let device = if lattice.devices.is_empty() { DeviceClass::Parallel } else { device };
    let priority = {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < 0.1 {
            Priority::MustRender
        } else if roll < 0.75 {
            Priority::Normal
        } else {
            Priority::Speculative
        }
    };
    let cells = *pick(rng, &lattice.cells_per_task) as usize;
    let tasks = *pick(rng, &lattice.tasks) as usize;
    let budget_s = *pick(rng, &[1.0f64, 10.0, 60.0]);
    let images = *pick(rng, &[1.0f64, 10.0, 100.0]);
    let ask = if rng.gen_bool(cfg.plan_fraction) {
        Ask::Plan { cells_per_task: cells, tasks, budget_s, images }
    } else {
        let mut side = *pick(rng, &lattice.image_sides) as usize;
        if rng.gen_bool(cfg.off_lattice) {
            // One pixel off the lattice: a guaranteed table miss that is
            // still a perfectly reasonable configuration.
            side += 1;
        }
        let renderer = *pick(rng, &lattice.renderers);
        Ask::Feasibility {
            config: RenderConfig { renderer, cells_per_task: cells, pixels: side * side, tasks },
            budget_s,
            images,
        }
    };
    Query { device, priority, ask }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice() -> Lattice {
        Lattice::service_default()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let cfg = TrafficConfig::bursty(500, 42, 1000.0);
        let a = generate(&cfg, &lattice());
        let b = generate(&cfg, &lattice());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t_s.to_bits(), y.t_s.to_bits());
            assert_eq!(x.query.priority, y.query.priority);
        }
        let c = generate(&TrafficConfig::bursty(500, 43, 1000.0), &lattice());
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.t_s.to_bits() != y.t_s.to_bits()),
            "different seeds must differ"
        );
    }

    #[test]
    fn arrival_times_are_nondecreasing_and_mean_rate_is_respected() {
        for cfg in [TrafficConfig::uniform(2000, 7, 500.0), TrafficConfig::bursty(2000, 7, 500.0)] {
            let events = generate(&cfg, &lattice());
            assert!(events.windows(2).all(|w| w[0].t_s <= w[1].t_s));
            let span = events.last().map(|e| e.t_s).unwrap_or(0.0);
            let empirical = events.len() as f64 / span;
            assert!(
                (empirical / cfg.mean_rate_qps).log2().abs() < 1.0,
                "{:?}: empirical rate {empirical:.0} vs mean {}",
                cfg.pattern,
                cfg.mean_rate_qps
            );
        }
    }

    #[test]
    fn bursty_concentrates_arrivals() {
        // Coefficient of variation of inter-arrival gaps: bursty must be
        // visibly rougher than uniform at the same mean rate.
        let cv = |events: &[ArrivalEvent]| {
            let gaps: Vec<f64> = events.windows(2).map(|w| w[1].t_s - w[0].t_s).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let u = generate(&TrafficConfig::uniform(3000, 11, 1000.0), &lattice());
        let b = generate(&TrafficConfig::bursty(3000, 11, 1000.0), &lattice());
        assert!(cv(&b) > cv(&u) * 1.5, "bursty cv {} vs uniform cv {}", cv(&b), cv(&u));
    }
}
