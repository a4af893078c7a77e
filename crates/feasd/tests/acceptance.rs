//! Acceptance tests for the feasibility service (ISSUE 7).
//!
//! These pin the behaviors the PR promises: table hits agree bit-exactly
//! with direct model evaluation, misses coalesce into one batched eval,
//! `must-render` preempts through the service, backpressure sheds
//! speculative before normal and never `must-render`, refits swap
//! generations atomically, the `repro feasd` metrics are bit-deterministic
//! under a fixed seed (no shedding for uniform load within capacity,
//! strictly positive shedding under bursty overload), the wall-clock
//! hot path wins by >= 10x over cold model evaluation, and concurrent
//! submitters, a pumper and a model installer never lose or duplicate an
//! answer, nor compute one from two fits, nor answer a lattice point from
//! the models while an install sweeps.

use feasd::{
    generate, simulate, Answer, Ask, DeviceClass, Feasd, FeasdConfig, Lattice, Priority, Query,
    Source, TrafficConfig,
};
use perfmodel::batch::predict_batch;
use perfmodel::fstable::{precompute, FeasTable, TableEntry, TableKey};
use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::models::Family;
use perfmodel::sample::RendererKind;
use sched::demo::{ground_truth, scale_model_set};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn serial_cfg() -> FeasdConfig {
    FeasdConfig { pool: dpp::Device::Serial, ..FeasdConfig::default() }
}

fn feas_query(priority: Priority, side: usize) -> Query {
    Query {
        device: DeviceClass::Serial,
        priority,
        ask: Ask::Feasibility {
            config: RenderConfig {
                renderer: RendererKind::VolumeRendering,
                cells_per_task: 100,
                pixels: side * side,
                tasks: 64,
            },
            budget_s: 10.0,
            images: 10.0,
        },
    }
}

#[test]
fn table_hits_agree_bit_exactly_with_direct_model_eval() {
    let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
    let set = ground_truth();
    let k = MappingConstants::default();
    for renderer in
        [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
    {
        let config =
            RenderConfig { renderer, cells_per_task: 200, pixels: 1024 * 1024, tasks: 128 };
        let ticket = service
            .submit(Query {
                device: DeviceClass::Serial,
                priority: Priority::Normal,
                ask: Ask::Feasibility { config, budget_s: 10.0, images: 1.0 },
            })
            .expect("admitted");
        let answers = service.pump();
        let (t, a) = answers[0];
        assert_eq!(t, ticket);
        assert_eq!(a.source, Source::Table, "on-lattice query must hit the precomputed table");
        assert_eq!(a.per_frame_s.to_bits(), set.predict_frame_seconds(&config, &k).to_bits());
        assert_eq!(a.build_s.to_bits(), set.predict_build_seconds(&config, &k).to_bits());
        assert_eq!(a.generation, 1);
    }
}

/// An image side between two lattice sides: never in the swept table.
const OFF_LATTICE_SIDE: usize = 1000;

#[test]
fn duplicate_misses_coalesce_into_one_model_evaluation() {
    let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
    let swept = service.table_len();
    for _ in 0..5 {
        service.submit(feas_query(Priority::Normal, OFF_LATTICE_SIDE)).expect("admitted");
    }
    let answers = service.pump();
    assert_eq!(answers.len(), 5);
    let stats = service.stats();
    assert_eq!(stats.table_misses, 1, "five identical queries need exactly one lattice point");
    assert_eq!(stats.table_hits, 0);
    assert!(answers.iter().all(|(_, a)| a.source == Source::Model));
    let first = answers[0].1;
    assert!(answers.iter().all(|(_, a)| *a == first), "coalesced answers are identical");

    // The miss backfilled the table: the same query now hits.
    assert_eq!(service.table_len(), swept + 1);
    service.submit(feas_query(Priority::Normal, OFF_LATTICE_SIDE)).expect("admitted");
    let again = service.pump();
    assert_eq!(again[0].1.source, Source::Table);
    assert_eq!(again[0].1.per_frame_s.to_bits(), first.per_frame_s.to_bits());
}

#[test]
fn must_render_preempts_queued_lower_priorities_through_pump() {
    let cfg = FeasdConfig { batch_max: 2, ..serial_cfg() };
    let service = Feasd::new(ground_truth(), MappingConstants::default(), cfg);
    let spec = service.submit(feas_query(Priority::Speculative, 512)).expect("admitted");
    let norm = service.submit(feas_query(Priority::Normal, 512)).expect("admitted");
    let must = service.submit(feas_query(Priority::MustRender, 512)).expect("admitted");
    let first: Vec<u64> = service.pump().into_iter().map(|(t, _)| t).collect();
    assert_eq!(first, vec![must, norm], "must-render jumps the queue, speculative waits");
    let second: Vec<u64> = service.pump().into_iter().map(|(t, _)| t).collect();
    assert_eq!(second, vec![spec]);
}

#[test]
fn backpressure_sheds_speculative_then_normal_and_never_must_render() {
    let cfg = FeasdConfig { queue_budget: 4, hysteresis_ticks: 1, ..serial_cfg() };
    let service = Feasd::new(ground_truth(), MappingConstants::default(), cfg);

    // Fill past the budget without pumping: speculative queries shed as soon
    // as the ladder leaves level 0, normal queries survive until deep
    // overload, must-render is always admitted.
    let mut normal_shed_at_depth = None;
    for _ in 0..40 {
        let depth = service.depth();
        if service.submit(feas_query(Priority::Normal, 512)).is_err() {
            normal_shed_at_depth = Some(depth);
            break;
        }
    }
    let normal_shed_at_depth = normal_shed_at_depth.expect("sustained overload sheds normal");
    assert!(
        normal_shed_at_depth > 4,
        "normal is only shed in deep overload (depth {normal_shed_at_depth})"
    );
    let spec_shed = service.submit(feas_query(Priority::Speculative, 512)).expect_err("shed");
    assert_eq!(spec_shed.priority, Priority::Speculative);
    assert!(spec_shed.level >= 3, "ladder escalated before normal was shed");
    for _ in 0..50 {
        service.submit(feas_query(Priority::MustRender, 512)).expect("must-render never sheds");
    }
    assert!(service.stats().shed >= 2);

    // Draining the queue relaxes the ladder (hysteresis 1): admission of
    // speculative traffic recovers.
    for _ in 0..20 {
        if service.pump().is_empty() {
            break;
        }
    }
    assert_eq!(service.depth(), 0);
    let mut recovered = false;
    for _ in 0..10 {
        if service.submit(feas_query(Priority::Speculative, 512)).is_ok() {
            recovered = true;
            break;
        }
        service.pump();
    }
    assert!(recovered, "speculative admission recovers once the queue drains");
}

#[test]
fn model_install_swaps_generations_atomically_and_invalidates_the_table() {
    let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
    let precomputed = service.table_len();
    assert!(precomputed > 0);

    service.submit(feas_query(Priority::Normal, 1024)).expect("admitted");
    assert_eq!(service.pump()[0].1.generation, 1);

    let gen2 =
        service.install_models(ground_truth(), MappingConstants::default()).expect("plausible");
    assert_eq!(gen2, 2);
    assert_eq!(service.generation(), 2);
    assert_eq!(service.table_len(), precomputed, "install re-sweeps the lattice");

    service.submit(feas_query(Priority::Normal, 1024)).expect("admitted");
    let (_, a) = service.pump()[0];
    assert_eq!(a.generation, 2, "answers carry the generation they were computed from");
    assert_eq!(a.source, Source::Table);

    // An implausible refit is rejected and leaves generation 2 serving.
    let mut bad = ground_truth();
    bad.get_mut(Family::Vr).expect("required family").fit.coeffs[0] = -1.0;
    let err = service.install_models(bad, MappingConstants::default()).expect_err("gated");
    assert_eq!(err.implausible, vec!["volume_rendering"]);
    assert_eq!(service.generation(), 2);

    // Backfill belongs to the generation that computed it: generation 2's
    // off-lattice entry does not answer generation 3 queries.
    service.submit(feas_query(Priority::Normal, OFF_LATTICE_SIDE)).expect("admitted");
    assert_eq!(service.pump()[0].1.source, Source::Model);
    assert_eq!(service.table_len(), precomputed + 1);
    service.install_models(ground_truth(), MappingConstants::default()).expect("plausible");
    assert_eq!(service.table_len(), precomputed, "install drops backfilled entries");
    service.submit(feas_query(Priority::Normal, OFF_LATTICE_SIDE)).expect("admitted");
    let (_, a) = service.pump()[0];
    assert_eq!((a.generation, a.source), (3, Source::Model));
}

#[test]
fn plan_queries_pick_the_largest_feasible_side() {
    let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
    let lattice = Lattice::service_default();
    let max_side = *lattice.image_sides.iter().max().expect("sides");

    service
        .submit(Query {
            device: DeviceClass::Serial,
            priority: Priority::Normal,
            ask: Ask::Plan { cells_per_task: 100, tasks: 64, budget_s: 1e9, images: 1.0 },
        })
        .expect("admitted");
    let (_, generous) = service.pump()[0];
    assert!(generous.feasible);
    assert_eq!(generous.image_side, max_side, "a huge budget affords the largest side");

    service
        .submit(Query {
            device: DeviceClass::Serial,
            priority: Priority::Normal,
            ask: Ask::Plan { cells_per_task: 100, tasks: 64, budget_s: 0.0, images: 1.0 },
        })
        .expect("admitted");
    let (_, broke) = service.pump()[0];
    assert!(!broke.feasible, "a zero budget affords nothing; the echo is best-effort");

    // The sides are scanned top-down in whatever order the lattice lists them.
    let mut shuffled = Lattice::service_default();
    shuffled.image_sides.reverse();
    shuffled.image_sides.rotate_left(3);
    let unsorted = Feasd::new(
        ground_truth(),
        MappingConstants::default(),
        FeasdConfig { lattice: shuffled, ..serial_cfg() },
    );
    for budget_s in [1e9, 0.0, 0.05, 2.0] {
        let plan = Query {
            device: DeviceClass::Serial,
            priority: Priority::Normal,
            ask: Ask::Plan { cells_per_task: 100, tasks: 64, budget_s, images: 10.0 },
        };
        let answers: Vec<Answer> = [&service, &unsorted]
            .map(|s| {
                s.submit(plan).expect("admitted");
                s.pump()[0].1
            })
            .to_vec();
        assert_eq!(answers[0], answers[1], "budget {budget_s}");
    }
}

fn sim_pair(seed: u64) -> (feasd::SimReport, feasd::SimReport) {
    let lattice = Lattice::service_default();
    let uniform = {
        let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
        let events = generate(&TrafficConfig::uniform(4000, seed, 20_000.0), &lattice);
        simulate(&service, &events, "uniform")
    };
    let bursty = {
        let service = Feasd::new(ground_truth(), MappingConstants::default(), serial_cfg());
        let events = generate(&TrafficConfig::bursty(4000, seed, 60_000.0), &lattice);
        simulate(&service, &events, "bursty")
    };
    (uniform, bursty)
}

#[test]
fn repro_metrics_are_deterministic_and_shed_only_under_bursty_overload() {
    let (uniform_a, bursty_a) = sim_pair(2024);
    let (uniform_b, bursty_b) = sim_pair(2024);
    // Bit-identical runs: every metric (latency percentiles, qps, hit and
    // shed rates) is a pure function of the seed.
    assert_eq!(uniform_a, uniform_b);
    assert_eq!(bursty_a, bursty_b);

    assert_eq!(uniform_a.shed, 0, "uniform load within capacity sheds nothing: {uniform_a:?}");
    assert_eq!(uniform_a.answered, uniform_a.offered);
    assert!(bursty_a.shed > 0, "bursty overload must shed: {bursty_a:?}");
    assert!(bursty_a.shed_rate > 0.0 && bursty_a.shed_rate < 1.0);
    assert_eq!(bursty_a.answered + bursty_a.shed, bursty_a.offered);

    for r in [&uniform_a, &bursty_a] {
        assert!(r.hit_rate > 0.8, "precomputed table absorbs most traffic: {r:?}");
        assert!(r.p99_s >= r.p50_s && r.p50_s > 0.0, "{r:?}");
        assert!(r.qps > 0.0);
    }
}

/// Median wall seconds of `rounds` runs of `sweep`.
fn median_seconds(rounds: usize, mut sweep: impl FnMut()) -> f64 {
    let mut xs: Vec<f64> = (0..rounds).map(|_| dpp::timed(&mut sweep).1).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall-clock speedup, over `rounds` sweeps each, of the two ways a
/// pump batch resolves its sorted, deduplicated probe set, exactly as
/// `Feasd::pump` executes them: the *hit* path is one
/// `FeasTable::resolve_sorted` merge pass over the precomputed table; the
/// *miss* path coalesces the same probes into one `predict_batch` evaluation
/// followed by the backfill inserts into an empty table.
fn hit_vs_miss_speedup(lattice: &Lattice, rounds: usize) -> f64 {
    let (set, k) = (ground_truth(), MappingConstants::default());
    let pool = dpp::Device::Serial;
    let table = precompute(&[(DeviceClass::Serial, &set)], &k, lattice, &pool, 1);
    let points: Vec<TableKey> = lattice.points().into_iter().filter(|p| p.device == 0).collect();

    let hit_s = median_seconds(rounds, || {
        black_box(table.resolve_sorted(black_box(&points)));
    });
    let miss_s = median_seconds(rounds, || {
        let mut cold = FeasTable::new(1);
        let cfgs: Vec<RenderConfig> = points.iter().filter_map(TableKey::to_config).collect();
        let predictions = predict_batch(&set, &k, &cfgs, &pool);
        for (key, pred) in points.iter().zip(&predictions) {
            cold.insert(TableEntry {
                key: *key,
                per_frame_s: pred.per_frame_s,
                build_s: pred.build_s,
            });
        }
        black_box(&cold);
    });
    miss_s / hit_s.max(1e-12)
}

#[test]
fn wall_clock_table_hit_is_at_least_ten_times_faster_than_cold_eval() {
    let lattice = Lattice { devices: vec![DeviceClass::Serial], ..Lattice::service_default() };
    // Wall-clock medians jitter under load; take the best speedup over a few
    // attempts before judging the 10x bar.
    let mut best = 0.0f64;
    for _ in 0..5 {
        best = best.max(hit_vs_miss_speedup(&lattice, 9));
        if best >= 10.0 {
            break;
        }
    }
    assert!(best >= 10.0, "table hit must beat cold model eval by >= 10x (got {best:.1}x)");
}

/// The locks that stay, exercised: `Feasd` documents that any number of
/// submitters and pumpers may run concurrently with model installs. Four
/// submitters, one pumper and one installer share a service; afterwards
/// every admitted ticket has exactly one answer, every answer was computed
/// from exactly the model generation it is stamped with, and every
/// on-lattice feasibility answer came from that generation's table.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the race needs six live threads at once, which a pool of fewer workers cannot give"
)]
fn concurrent_submit_pump_and_install_answer_every_ticket_once_from_one_generation() {
    const SUBMITTERS: u64 = 4;
    const PER_SUBMITTER: usize = 1500;
    const INSTALLS: u64 = 4;
    let total = SUBMITTERS as usize * PER_SUBMITTER;
    let k = MappingConstants::default();
    // Generation g was fitted as ground truth scaled by 1 + 0.01 (g - 1).
    let set_of =
        |generation: u64| scale_model_set(&ground_truth(), 1.0 + 0.01 * (generation - 1) as f64);
    // The default pool, so misses evaluate on the (possibly oversubscribed)
    // global rayon pool; a queue budget nothing here can exceed, so the
    // oracle is about locking, not shedding.
    let cfg = FeasdConfig { queue_budget: total, ..FeasdConfig::default() };
    let lattice = cfg.lattice.clone();
    let service = Feasd::new(set_of(1), k, cfg);
    let submitting = AtomicBool::new(true);
    // All six threads leave the gate together, so the installs land while
    // queries are in flight rather than before or after them.
    let gate = Barrier::new(SUBMITTERS as usize + 2);

    let (asked, mut answers) = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|seed| {
                let (service, lattice, gate) = (&service, &lattice, &gate);
                scope.spawn(move || {
                    let queries =
                        generate(&TrafficConfig::uniform(PER_SUBMITTER, seed, 1e4), lattice);
                    gate.wait();
                    queries
                        .into_iter()
                        .map(|e| {
                            (service.submit(e.query).expect("within the queue budget"), e.query)
                        })
                        .collect::<Vec<(u64, Query)>>()
                })
            })
            .collect();
        let pumper = scope.spawn(|| {
            let mut got = Vec::new();
            gate.wait();
            // ORDERING: Acquire — pairs with the Release store below; the
            // flag only ends the loop, leftovers are drained after the scope.
            while submitting.load(Ordering::Acquire) {
                got.extend(service.pump());
            }
            got
        });
        let installer = scope.spawn(|| {
            gate.wait();
            for generation in 2..=1 + INSTALLS {
                let installed = service.install_models(set_of(generation), k).expect("plausible");
                assert_eq!(installed, generation);
            }
        });
        let asked: Vec<(u64, Query)> =
            submitters.into_iter().flat_map(|h| h.join().expect("submitter")).collect();
        installer.join().expect("installer");
        // ORDERING: Release — everything submitted happens-before the
        // pumper's exit.
        submitting.store(false, Ordering::Release);
        (asked, pumper.join().expect("pumper"))
    });

    // Whatever the pumper's last round missed, in a bounded drain.
    for _ in 0..=total {
        let batch = service.pump();
        if batch.is_empty() {
            break;
        }
        answers.extend(batch);
    }

    let stats = service.stats();
    assert_eq!(stats.submitted, total as u64);
    assert_eq!(stats.answered, stats.submitted);
    assert_eq!(stats.shed, 0);
    assert_eq!(service.depth(), 0);
    assert_eq!(service.generation(), 1 + INSTALLS);

    let asked: BTreeMap<u64, Query> = asked.into_iter().collect();
    assert_eq!(asked.len(), total, "tickets are unique");
    let mut answered: Vec<u64> = answers.iter().map(|(t, _)| *t).collect();
    answered.sort_unstable();
    assert!(
        answered.iter().eq(asked.keys()),
        "every admitted ticket is answered exactly once ({} answers)",
        answered.len()
    );

    let sets: Vec<_> = (1..=1 + INSTALLS).map(set_of).collect();
    for (ticket, a) in &answers {
        let set = sets.get(a.generation as usize - 1).expect("a generation that was installed");
        let (cells_per_task, tasks) = match asked[ticket].ask {
            Ask::Feasibility { config, .. } => {
                // Every other axis is drawn from the lattice; the side is
                // the one traffic moves off it.
                if lattice.image_sides.contains(&a.image_side) {
                    assert_eq!(a.source, Source::Table, "ticket {ticket} missed a swept point");
                }
                (config.cells_per_task, config.tasks)
            }
            Ask::Plan { cells_per_task, tasks, .. } => (cells_per_task, tasks),
        };
        // The answer echoes the (renderer, side) it priced.
        let side = a.image_side as usize;
        let priced =
            RenderConfig { renderer: a.renderer, cells_per_task, pixels: side * side, tasks };
        assert_eq!(
            (a.per_frame_s.to_bits(), a.build_s.to_bits()),
            (
                set.predict_frame_seconds(&priced, &k).to_bits(),
                set.predict_build_seconds(&priced, &k).to_bits()
            ),
            "ticket {ticket} ({:?}, stamped generation {}) mixes two fits",
            a.source,
            a.generation
        );
    }
}
