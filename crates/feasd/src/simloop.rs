//! The virtual-clock serving simulation behind `repro feasd`.
//!
//! The answers, admission decisions, and hit/miss splits come from the
//! *real* service ([`Feasd::submit`] / [`Feasd::pump`] against real tables
//! and real model evaluations); only the passage of time is simulated: the
//! service is rank 0 of a one-rank [`mpirt::EventWorld`], a pump batch is
//! compute on that rank priced by a fixed per-batch cost model, and an idle
//! gap is a receive of the next arrival. That buys the same property the
//! scheduler demo and the compositing exchanges rely on: latency
//! percentiles, queue dynamics, and shed rates are bit-identical for a
//! fixed seed on any machine, so the acceptance test can pin them. The
//! *real* hot-path speed claim (table hit vs cold eval) is the benchmark's
//! `perfmodel.fstable_probe_ns` / `perfmodel.predict_batch_ns` pair.

use crate::service::{Feasd, StatsSnapshot};
use crate::traffic::ArrivalEvent;
use mpirt::{EventWorld, NetModel};

/// Virtual cost of serving one pump batch: this fixed overhead (drain,
/// locks, dispatch) plus the per-query hit/miss costs below. The values are
/// shaped like the measured hot path (lookups are microseconds-ish, cold
/// evals tens of microseconds) — they only set the simulated capacity, not
/// any correctness property.
const BATCH_OVERHEAD_S: f64 = 30e-6;
/// Cost per lattice point served from the table.
const HIT_S: f64 = 2e-6;
/// Cost per lattice point evaluated through the models.
const MISS_S: f64 = 50e-6;

/// Deterministic serving metrics for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario label (arrival pattern).
    pub scenario: String,
    /// Queries offered to the service.
    pub offered: usize,
    /// Queries admitted and answered.
    pub answered: usize,
    /// Queries shed by backpressure.
    pub shed: usize,
    /// Median answer latency, seconds (arrival -> answer on the virtual clock).
    pub p50_s: f64,
    /// 99th-percentile answer latency, seconds.
    pub p99_s: f64,
    /// Answered queries per virtual second (makespan throughput).
    pub qps: f64,
    /// Lattice-point table hit rate over the run.
    pub hit_rate: f64,
    /// Shed fraction of offered queries.
    pub shed_rate: f64,
    /// Final service counters.
    pub stats: StatsSnapshot,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest-rank on the sorted latencies.
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Drive `service` with `events` (as produced by [`crate::traffic::generate`],
/// arrival times non-decreasing) on a simulated clock. Each iteration admits
/// every arrival due by the clock, then serves one pump batch whose duration
/// is priced by `BATCH_OVERHEAD_S`, `HIT_S` and `MISS_S`; idle gaps
/// fast-forward the clock to the next arrival. Returns the full metric set;
/// bit-deterministic for fixed inputs.
pub fn simulate(service: &Feasd, events: &[ArrivalEvent], scenario: &str) -> SimReport {
    let offered = events.len();
    let mut world = EventWorld::new(1, NetModel::zero());
    let mut next_event = 0usize;
    // Arrival time per ticket, indexed by ticket id (tickets are sequential
    // from this service's counter).
    let mut arrivals: Vec<(u64, f64)> = Vec::with_capacity(offered);
    let mut latencies: Vec<f64> = Vec::with_capacity(offered);
    let stats_before = service.stats();
    let mut last_completion = 0.0f64;

    loop {
        // Admit everything that has arrived by now.
        while next_event < events.len() && events[next_event].t_s <= world.now(0) {
            let ev = &events[next_event];
            next_event += 1;
            if let Ok(ticket) = service.submit(ev.query) {
                arrivals.push((ticket, ev.t_s));
            }
        }
        if service.depth() == 0 {
            if next_event >= events.len() {
                break;
            }
            // Idle: block until the next arrival.
            world.recv(0, events[next_event].t_s);
            continue;
        }
        // Serve one batch and charge its virtual duration.
        let before = service.stats();
        let answered = service.pump();
        let after = service.stats();
        let hits = (after.table_hits - before.table_hits) as f64;
        let misses = (after.table_misses - before.table_misses) as f64;
        world.compute(0, BATCH_OVERHEAD_S + hits * HIT_S + misses * MISS_S);
        last_completion = world.now(0);
        for (ticket, _) in &answered {
            // Tickets are answered in near-arrival order; linear scan from
            // the back would be O(n^2) in the worst case, so binary-search
            // the sorted-by-ticket arrival log instead.
            if let Ok(i) = arrivals.binary_search_by_key(ticket, |(t, _)| *t) {
                latencies.push(last_completion - arrivals[i].1);
            }
        }
    }

    let stats = service.stats();
    let delta = StatsSnapshot {
        submitted: stats.submitted - stats_before.submitted,
        answered: stats.answered - stats_before.answered,
        shed: stats.shed - stats_before.shed,
        table_hits: stats.table_hits - stats_before.table_hits,
        table_misses: stats.table_misses - stats_before.table_misses,
    };
    latencies.sort_by(f64::total_cmp);
    let makespan = last_completion.max(f64::MIN_POSITIVE);
    SimReport {
        scenario: scenario.to_string(),
        offered,
        answered: delta.answered as usize,
        shed: delta.shed as usize,
        p50_s: percentile(&latencies, 50.0),
        p99_s: percentile(&latencies, 99.0),
        qps: delta.answered as f64 / makespan,
        hit_rate: delta.hit_rate(),
        shed_rate: if offered == 0 { 0.0 } else { delta.shed as f64 / offered as f64 },
        stats: delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FeasdConfig;
    use crate::traffic::{generate, TrafficConfig};
    use perfmodel::fstable::Lattice;
    use perfmodel::mapping::MappingConstants;
    use sched::demo::ground_truth;

    fn quick_service() -> Feasd {
        let cfg = FeasdConfig { pool: dpp::Device::Serial, ..FeasdConfig::default() };
        Feasd::new(ground_truth(), MappingConstants::default(), cfg)
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 98.0);
        assert_eq!(percentile(&sorted, 100.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn uniform_load_within_capacity_sheds_nothing() {
        let service = quick_service();
        let events =
            generate(&TrafficConfig::uniform(3000, 42, 40_000.0), &Lattice::service_default());
        let report = simulate(&service, &events, "uniform");
        assert_eq!(report.answered + report.shed, report.offered);
        assert_eq!(report.shed, 0, "{report:?}");
        assert!(report.hit_rate > 0.8, "precomputed table should absorb most traffic: {report:?}");
        assert!(report.p99_s >= report.p50_s);
        assert!(report.qps > 0.0);
    }
}
