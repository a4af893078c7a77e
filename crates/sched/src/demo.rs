//! The budgeted in situ demo: a proxy app (LULESH / Kripke / CloverLeaf)
//! drives per-cycle render requests through the [`Scheduler`] against a
//! simulated 64-rank machine, on a simulated clock.
//!
//! The scheduler starts from a deliberately miscalibrated prior (ground truth
//! scaled by `PRIOR_SCALE`), so early predictions are badly conservative;
//! the online refit then converges them toward the executor's hidden truth,
//! which is what the `repro sched` table and the acceptance tests measure:
//! budget adherence stays high the whole run, and prediction error shrinks
//! from the first quartile of cycles to the last.

use crate::scheduler::{CycleRecord, Decision, RenderRequest, Scheduler, SchedulerConfig};
use crate::simexec::SimulatedExecutor;
use perfmodel::feasibility::ModelSet;
use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::models::Family;
use perfmodel::sample::{RendererKind, Sample};
use sims::ProxySim;

/// Demo parameters; [`DemoConfig::quick`] is the configuration the
/// acceptance tests and the `repro sched` table use.
#[derive(Debug, Clone)]
pub struct DemoConfig {
    /// Simulation cycles to run.
    pub cycles: usize,
    /// `false` renders everything at full fidelity (the blind baseline).
    pub scheduled: bool,
}

impl DemoConfig {
    pub fn quick(scheduled: bool) -> DemoConfig {
        DemoConfig { cycles: 40, scheduled }
    }
}

/// Simulated MPI ranks (weak scaling; each owns one block).
const TASKS: usize = 64;
/// Requested (full-fidelity) image side.
const IMAGE_SIDE: u32 = 1024;
/// Per-cycle budget as a fraction of the ground-truth full-fidelity cycle
/// cost — 0.5 means "you may spend half of what blind rendering would".
const BUDGET_FRACTION: f64 = 0.5;
/// Scheduler prior = ground truth scaled by this factor (the miscalibration
/// the refit has to work off).
const PRIOR_SCALE: f64 = 1.6;
/// Relative runtime noise amplitude in the executor.
const NOISE: f64 = 0.03;
/// Seed of the executor's runtime noise.
const SEED: u64 = 0x5EED;

/// Full-run report.
#[derive(Debug, Clone)]
pub struct DemoReport {
    pub sim: &'static str,
    /// The per-cycle budget adherence is judged against. (A cycle's own
    /// `budget_s` is what admission saw: infinite in the blind baseline.)
    pub budget_s: f64,
    pub cycles: Vec<CycleRecord>,
}

impl DemoReport {
    /// Fraction of cycles whose measured render cost stayed within budget.
    pub fn adherence(&self) -> f64 {
        if self.cycles.is_empty() {
            return 1.0;
        }
        let within = self.cycles.iter().filter(|c| c.actual_s() <= self.budget_s).count();
        within as f64 / self.cycles.len() as f64
    }

    pub fn degraded_total(&self) -> u32 {
        self.cycles.iter().map(|c| c.degraded()).sum()
    }

    pub fn rejected_total(&self) -> u32 {
        self.cycles.iter().map(|c| c.rejected()).sum()
    }

    /// Median absolute relative prediction error over the first quartile of
    /// cycles (the miscalibrated-prior regime).
    pub fn first_quartile_error(&self) -> f64 {
        let q = (self.cycles.len() / 4).max(1);
        median(self.cycles[..q].iter().map(|c| c.abs_rel_error()))
    }

    /// Same over the last quartile (the refit-converged regime).
    pub fn last_quartile_error(&self) -> f64 {
        let q = (self.cycles.len() / 4).max(1);
        median(self.cycles[self.cycles.len() - q..].iter().map(|c| c.abs_rel_error()))
    }
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The seconds-scale synthetic model set standing in for a calibrated 64-rank
/// machine (the executor's hidden truth). Coefficients match the toy set the
/// feasibility tests use, so regimes (RT/RAST crossover, comp-dominated large
/// images) behave like the paper's Figure 14/15 curves.
///
/// The executor's wire truth is the dense-form law; carrying only the
/// required families keeps the scheduler transcripts (and their pinned
/// tests) on the classic prediction path until a refit installs per-wire
/// models from observations.
pub fn ground_truth() -> ModelSet {
    ModelSet::from_coeffs(
        "sim-rank",
        &[
            (Family::Rt, &[2e-9, 1e-8, 1e-3]),
            (Family::RtBuild, &[2e-8, 1e-3]),
            (Family::Rast, &[4e-9, 4e-10, 1e-3]),
            (Family::Vr, &[2e-10, 1e-9, 1e-2]),
            (Family::Comp, &[2e-8, 5e-8, 1e-3]),
        ],
    )
}

/// A copy of `set` with every coefficient of every model it carries scaled
/// by `factor` — the simplest way to build a uniformly miscalibrated prior.
pub fn scale_model_set(set: &ModelSet, factor: f64) -> ModelSet {
    let mut out = set.clone();
    for m in out.models_mut() {
        for c in m.fit.coeffs.iter_mut() {
            *c *= factor;
        }
    }
    out
}

/// Cells per axis of one rank's block under weak scaling.
fn cells_per_task_axis(num_cells: usize, tasks: usize) -> usize {
    ((num_cells as f64 / tasks as f64).cbrt().round() as usize).max(2)
}

/// Run the budgeted demo loop: step the sim, queue its renderer pairings
/// (plus a periodic double-side burst frame), schedule, execute on the
/// simulated machine, observe, repeat.
pub fn run_budgeted_demo(sim: &mut dyn ProxySim, cfg: &DemoConfig) -> DemoReport {
    let constants = MappingConstants::default();
    let truth = ground_truth();
    let mut exec = SimulatedExecutor::new(truth.clone(), constants, NOISE, SEED);

    let n = cells_per_task_axis(sim.num_cells(), TASKS);
    let renderers: Vec<RendererKind> =
        sim.vis_renderers().iter().filter_map(|s| RendererKind::parse(s)).collect();
    assert!(!renderers.is_empty(), "sim requested no renderers");

    // Budget: a fraction of the noise-free ground-truth cost of rendering
    // everything the sim asks for at full fidelity.
    let pixels = (IMAGE_SIDE as usize) * (IMAGE_SIDE as usize);
    let mut full_cost = 0.0;
    let mut build_counted = false;
    for &renderer in &renderers {
        let c = RenderConfig { renderer, cells_per_task: n, pixels, tasks: TASKS };
        full_cost += exec.true_frame_seconds(&c);
        if renderer == RendererKind::RayTracing && !build_counted {
            full_cost += exec.true_build_seconds(&c);
            build_counted = true;
        }
    }
    let budget_s = BUDGET_FRACTION * full_cost;

    // The blind baseline reuses the same machinery with an infinite admission
    // budget: everything admits at full fidelity, and adherence is judged
    // against the real budget below.
    let admission_budget = if cfg.scheduled { budget_s } else { f64::INFINITY };
    let mut sched = Scheduler::new(
        scale_model_set(&truth, PRIOR_SCALE),
        constants,
        SchedulerConfig::new(admission_budget, TASKS),
    );

    for c in 0..cfg.cycles {
        sim.step();
        sched.begin_cycle(sim.cycle() as i64);
        let mut requests: Vec<RenderRequest> = renderers
            .iter()
            .map(|&renderer| RenderRequest {
                renderer,
                width: IMAGE_SIDE,
                height: IMAGE_SIDE,
                cells_per_task: n,
            })
            .collect();
        if c % 8 == 4 {
            // Periodic load burst: an extra showcase frame at twice the side.
            requests.push(RenderRequest {
                renderer: RendererKind::RayTracing,
                width: IMAGE_SIDE * 2,
                height: IMAGE_SIDE * 2,
                cells_per_task: n,
            });
        }
        let mut built = false;
        for req in requests {
            match sched.decide(req) {
                Decision::Admit(job) | Decision::Degrade(job) => {
                    let charge = job.cfg.renderer == RendererKind::RayTracing && !built;
                    let cost = exec.execute(&job.cfg, charge);
                    if charge {
                        built = true;
                    }
                    sched.observe_sample(Sample::Render(cost.render));
                    sched.observe_sample(Sample::Composite(cost.composite));
                }
                Decision::Reject => {}
            }
        }
        sched.end_cycle();
    }
    DemoReport { sim: sim.name(), budget_s, cycles: sched.history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::models::FittedLinearModel;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }

    #[test]
    fn scaled_prior_overestimates_uniformly() {
        let truth = ground_truth();
        let prior = scale_model_set(&truth, 1.6);
        let k = MappingConstants::default();
        let cfg = RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 3,
            pixels: 1024 * 1024,
            tasks: 64,
        };
        let t = truth.predict_frame_seconds(&cfg, &k);
        let p = prior.predict_frame_seconds(&cfg, &k);
        assert!((p / t - 1.6).abs() < 1e-12, "{p} / {t}");
    }

    #[test]
    fn scaling_reaches_every_family_a_refit_may_have_installed() {
        let mut set = ground_truth();
        for row in &Family::ALL[Family::REQUIRED..] {
            let ones = vec![1.0; row.feature_names.len()];
            set.install(FittedLinearModel::from_coeffs(row.family, &ones));
        }
        let scaled = scale_model_set(&set, 1.6);
        for row in &Family::ALL {
            let (was, is) = (set.get(row.family).unwrap(), scaled.get(row.family).unwrap());
            for (a, b) in was.coeffs().iter().zip(is.coeffs()) {
                assert_eq!(*b, a * 1.6, "{}", row.name);
            }
        }
    }

    #[test]
    fn demo_runs_all_three_sims() {
        let mut cfg = DemoConfig::quick(true);
        cfg.cycles = 10;
        let mut lulesh = sims::Lulesh::new(8);
        let mut kripke = sims::Kripke::new(10);
        let mut clover = sims::Cloverleaf::new(10);
        let sims: [&mut dyn ProxySim; 3] = [&mut lulesh, &mut kripke, &mut clover];
        for sim in sims {
            let report = run_budgeted_demo(sim, &cfg);
            assert_eq!(report.cycles.len(), 10);
            assert!(report.budget_s > 0.0);
            // Something executed every cycle.
            assert!(report.cycles.iter().all(|c| c.actual_s() > 0.0));
        }
    }
}
