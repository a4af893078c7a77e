//! Admission's guarantees over random request streams, budgets and refits:
//! the jobs a closed cycle admitted or degraded were priced, in sum, within
//! `SAFETY × budget_s`; a dropped request carries no job and no observation;
//! a sample no decision waited for lands on an unpriced receipt; and a frame
//! at one task is priced no compositing.
//!
//! The executor's hidden truth is the scheduler's prior scaled by a random
//! factor, so the refits at each `end_cycle` move the models the next cycle
//! prices with.

use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::sample::{RendererKind, Sample};
use proptest::prelude::*;
use sched::demo::{ground_truth, scale_model_set};
use sched::scheduler::SAFETY;
use sched::{Decision, RenderRequest, Scheduler, SchedulerConfig, SimulatedExecutor};

const RENDERERS: [RendererKind; 3] =
    [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn admission_never_exceeds_the_predicted_budget(
        truth_scale in 0.3f64..3.0,
        tasks_ix in 0usize..3,
        // Decide every request before observing any sample, or observe
        // each job as soon as it is admitted.
        observe_late in any::<bool>(),
        // Per cycle: budget, requests (renderer, log2 side, cells per
        // axis) and stray samples before and after the cycle's jobs.
        cycles in collection::vec(
            (1e-3f64..0.3, collection::vec((0usize..3, 6u32..12, 2usize..40), 0..5), 0usize..2, 0usize..2),
            1..30,
        ),
    ) {
        let tasks = [1usize, 8, 64][tasks_ix];
        let k = MappingConstants::default();
        let truth = scale_model_set(&ground_truth(), truth_scale);
        let mut exec = SimulatedExecutor::new(truth, k, 0.05, 7);
        let mut sched = Scheduler::new(ground_truth(), k, SchedulerConfig::new(1.0, tasks));
        for (c, (budget_s, requests, stray_before, stray_after)) in cycles.into_iter().enumerate() {
            sched.begin_cycle_with_budget(c as i64, budget_s);
            let stray = |exec: &mut SimulatedExecutor, sched: &mut Scheduler| {
                let cfg = RenderConfig {
                    renderer: RendererKind::Rasterization,
                    cells_per_task: 8,
                    pixels: 64 * 64,
                    tasks,
                };
                let cost = exec.execute(&cfg, false);
                sched.observe_sample(Sample::Render(cost.render));
                sched.observe_sample(Sample::Composite(cost.composite));
            };
            for _ in 0..stray_before {
                stray(&mut exec, &mut sched);
            }
            let (mut executed, mut reported) = (Vec::new(), Vec::new());
            let mut built = false;
            for (r, log2_side, cells_per_task) in requests {
                let side = 1u32 << log2_side;
                let req = RenderRequest { renderer: RENDERERS[r], width: side, height: side, cells_per_task };
                let job = match sched.decide(req) {
                    Decision::Admit(job) | Decision::Degrade(job) => job,
                    Decision::Reject => continue,
                };
                let charge = job.cfg.renderer == RendererKind::RayTracing && !built;
                built |= charge;
                let cost = exec.execute(&job.cfg, charge);
                reported.push((cost.render.stats.objects, cost.render.stats.active_pixels));
                executed.push(cost);
                if !observe_late {
                    let cost = executed.pop().unwrap();
                    sched.observe_sample(Sample::Render(cost.render));
                    sched.observe_sample(Sample::Composite(cost.composite));
                }
            }
            for cost in executed {
                sched.observe_sample(Sample::Render(cost.render));
                sched.observe_sample(Sample::Composite(cost.composite));
            }
            for _ in 0..stray_after {
                stray(&mut exec, &mut sched);
            }
            let rec = sched.end_cycle().unwrap();
            prop_assert!(
                rec.predicted_s() <= SAFETY * rec.budget_s,
                "c{c}: priced {} > {SAFETY} x {}",
                rec.predicted_s(),
                rec.budget_s
            );
            // Only priced receipts wait: each stray render and exchange opens
            // an unpriced receipt of its own.
            let unpriced = rec.receipts.iter().filter(|r| r.request.is_none()).count();
            prop_assert_eq!(unpriced, 2 * (stray_before + stray_after));
            let mut reported = reported.into_iter();
            for r in &rec.receipts {
                match (r.request, r.job) {
                    (Some(_), None) => prop_assert!(
                        r.observed.is_none() && r.exchange_s.is_none(),
                        "rejected receipt observed: {:?}",
                        r
                    ),
                    (Some(_), Some(job)) => {
                        prop_assert!(r.exchange_s.is_some(), "{:?}", r);
                        // First in, first out: each receipt holds the render
                        // the executor reported for its own job.
                        let observed = r.observed.map(|o| (o.objects, o.active_pixels));
                        prop_assert_eq!(observed, reported.next());
                        prop_assert_eq!(observed.map(|o| o.0), Some(job.mapped.objects));
                        prop_assert!(tasks > 1 || job.comp_s == 0.0, "{:?}", job);
                    }
                    (None, job) => prop_assert!(job.is_none()),
                }
            }
        }
    }
}
