//! Online admission control against a per-cycle render-time budget.
//!
//! The [`Scheduler`] holds a (possibly miscalibrated) [`ModelSet`], predicts
//! each queued job's cost — local frame + compositing, plus the BVH build for
//! the cycle's first ray-traced job (subsequent frames amortize it) — and
//! packs jobs against the budget. When a job does not fit at the current
//! fidelity, it walks down the degradation [`LADDER`]. Every decision leaves
//! a [`Receipt`]. Each executed job's observations come back as [`Sample`]s
//! through [`observe_sample`](Scheduler::observe_sample), fill the oldest
//! receipt waiting for them and feed [`OnlineRefit`], so predictions tighten
//! as the run proceeds: the refit fits on the inputs a render observed,
//! while admission predicts on mapped inputs, whose mapping each
//! [`end_cycle`](Scheduler::end_cycle) recalibrates from the renders in the
//! refit windows.

use crate::ladder::{first_fit, Ladder, Rung, LADDER};
use crate::refit::{OnlineRefit, RefitReport};
use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::mapping::{map_inputs, MappingConstants, RenderConfig};
use perfmodel::sample::{CompositeSample, CompositeWire, RenderSample, RendererKind, Sample};
use render::RenderStats;

/// One queued render request (what the simulation asked for).
#[derive(Debug, Clone, Copy)]
pub struct RenderRequest {
    pub renderer: RendererKind,
    pub width: u32,
    pub height: u32,
    /// Cells per axis of one task's block (N of N^3).
    pub cells_per_task: usize,
}

/// An admitted (possibly degraded) job, ready to execute.
#[derive(Debug, Clone, Copy)]
pub struct PlannedJob {
    pub width: u32,
    pub height: u32,
    /// The model-level configuration the job will run as (renderer may
    /// differ from the request after a ladder switch).
    pub cfg: RenderConfig,
    pub rung: Rung,
    /// The inputs `cfg` maps to, which the job is priced at.
    pub mapped: RenderStats,
    /// t(map): the local frame seconds at `mapped`.
    pub local_s: f64,
    /// Compositing seconds (0 at one task).
    pub comp_s: f64,
    /// BVH build seconds, charged only to the cycle's first ray-traced job.
    pub build_s: f64,
    /// Predicted cost charged against the budget: the frame, floored at
    /// [`MIN_PREDICTED_SECONDS`], plus the build.
    pub predicted_s: f64,
}

/// Outcome of [`Scheduler::decide`] for one request.
#[derive(Debug, Clone, Copy)]
pub enum Decision {
    /// Fits at full fidelity.
    Admit(PlannedJob),
    /// Fits only at reduced fidelity.
    Degrade(PlannedJob),
    /// Does not fit even at the deepest executable rung; drop the frame.
    Reject,
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Per-cycle render-time budget (seconds).
    pub budget_s: f64,
    /// MPI tasks of the configuration being scheduled (weak scaling).
    pub tasks: usize,
    /// Degradation never shrinks an image side below this (and never below
    /// 1 even when a request is already smaller). The default of 64 keeps a
    /// degraded image at least one full rasterizer tile per side, so every
    /// ladder rung yields a renderable, nonzero-pixel config.
    pub min_image_side: u32,
}

/// Jobs are packed against `SAFETY * budget_s`, leaving headroom for
/// prediction noise so small errors do not blow the budget.
pub const SAFETY: f64 = 0.9;
/// Consecutive headroom cycles required before regaining one rung.
const HYSTERESIS_CYCLES: u32 = 3;
/// Upgrading requires the cycle's demand one level up to fit within
/// `UPGRADE_MARGIN` of the effective budget (second hysteresis band).
const UPGRADE_MARGIN: f64 = 0.8;
/// Sliding-window size for the online refit.
const REFIT_WINDOW: usize = 96;
/// Minimum samples before a model family is re-solved.
const REFIT_MIN_SAMPLES: usize = 8;

impl SchedulerConfig {
    pub fn new(budget_s: f64, tasks: usize) -> SchedulerConfig {
        SchedulerConfig { budget_s, tasks, min_image_side: 64 }
    }
}

/// One request's record, from decision to observation (Table 16's split):
/// where on the ladder it landed, what it was priced at from which mapped
/// inputs, and, once its samples came back, what the render observed, what
/// the same models predict at those observed inputs, and what the exchange
/// took.
#[derive(Debug, Clone, Copy)]
pub struct Receipt {
    /// `None` on an unpriced receipt: a sample that arrived while no
    /// decision of the open cycle waited for it.
    pub request: Option<RenderRequest>,
    /// The [`LADDER`] level the decision landed on; `LADDER.len()`, one past
    /// the deepest rung, is the drop (rejected or unpriced).
    pub level: usize,
    /// The job as priced; `None` when rejected or unpriced.
    pub job: Option<PlannedJob>,
    /// The render's own statistics, measured seconds included.
    pub observed: Option<RenderStats>,
    /// t(obs): the local seconds the models predict at `observed`'s inputs
    /// (0 until a render is observed).
    pub t_obs_s: f64,
    /// Seconds of the frame's compositing exchange.
    pub exchange_s: Option<f64>,
}

impl Receipt {
    /// A receipt no decision made: what an unmatched sample fills.
    const UNPRICED: Receipt = Receipt {
        request: None,
        level: LADDER.len(),
        job: None,
        observed: None,
        t_obs_s: 0.0,
        exchange_s: None,
    };
}

/// One cycle's receipts, in decision order, with the refit that closed it.
/// While the cycle is open, `level` and `refit` wait for
/// [`end_cycle`](Scheduler::end_cycle).
#[derive(Debug, Clone)]
pub struct CycleRecord {
    pub cycle: i64,
    /// Ladder level the cycle operated at (deepest rung reached).
    pub level: usize,
    /// Budget in force for the cycle.
    pub budget_s: f64,
    pub receipts: Vec<Receipt>,
    /// What the end-of-cycle refit did (installed, rejected, condition-warned
    /// families).
    pub refit: RefitReport,
}

impl CycleRecord {
    fn jobs(&self) -> impl Iterator<Item = &PlannedJob> {
        self.receipts.iter().filter_map(|r| r.job.as_ref())
    }

    pub fn admitted(&self) -> u32 {
        self.receipts.iter().filter(|r| r.job.is_some() && r.level == 0).count() as u32
    }

    pub fn degraded(&self) -> u32 {
        self.receipts.iter().filter(|r| r.job.is_some() && r.level > 0).count() as u32
    }

    pub fn rejected(&self) -> u32 {
        self.receipts.iter().filter(|r| r.request.is_some() && r.job.is_none()).count() as u32
    }

    /// Predicted cost of the cycle's jobs at decision time.
    pub fn predicted_s(&self) -> f64 {
        self.jobs().fold(0.0, |sum, j| sum + j.predicted_s)
    }

    /// Measured cost: the seconds of every observed sample, i.e. what the
    /// models price (render and build phases, and compositing). Strawman's
    /// wall time per render, surface extraction included, stays in its
    /// `RenderRecord::render_seconds`.
    pub fn actual_s(&self) -> f64 {
        self.receipts.iter().fold(0.0, |sum, r| {
            let sum = r.observed.map_or(sum, |o| sum + (o.render_seconds + o.build_seconds));
            r.exchange_s.map_or(sum, |x| sum + x)
        })
    }

    pub fn within_budget(&self) -> bool {
        self.actual_s() <= self.budget_s
    }

    /// `|predicted - actual| / actual` for the cycle's executed work.
    pub fn abs_rel_error(&self) -> f64 {
        let actual_s = self.actual_s();
        (self.predicted_s() - actual_s).abs() / actual_s.max(MIN_PREDICTED_SECONDS)
    }
}

/// The online scheduler. Create it with calibrated (or deliberately
/// conservative) models; per cycle call [`begin_cycle`](Scheduler::begin_cycle),
/// [`decide`](Scheduler::decide) per request,
/// [`observe_sample`](Scheduler::observe_sample) per executed render and
/// exchange, then [`end_cycle`](Scheduler::end_cycle).
pub struct Scheduler {
    pub models: ModelSet,
    pub constants: MappingConstants,
    pub cfg: SchedulerConfig,
    ladder: Ladder,
    refit: OnlineRefit,
    /// Closed cycles, oldest first.
    pub history: Vec<CycleRecord>,
    cur: Option<CycleRecord>,
}

impl Scheduler {
    pub fn new(models: ModelSet, constants: MappingConstants, cfg: SchedulerConfig) -> Scheduler {
        let ladder = Ladder::new(HYSTERESIS_CYCLES, LADDER.len() - 1);
        let refit = OnlineRefit::new(REFIT_WINDOW, REFIT_MIN_SAMPLES);
        Scheduler { models, constants, cfg, ladder, refit, history: Vec::new(), cur: None }
    }

    /// Open a cycle with the configured budget.
    pub fn begin_cycle(&mut self, cycle: i64) {
        self.begin_cycle_with_budget(cycle, self.cfg.budget_s)
    }

    /// Open a cycle with an explicit budget (closes any cycle still open).
    pub fn begin_cycle_with_budget(&mut self, cycle: i64, budget_s: f64) {
        if self.cur.is_some() {
            self.end_cycle();
        }
        let (level, receipts, refit) = (0, Vec::new(), RefitReport::default());
        self.cur = Some(CycleRecord { cycle, level, budget_s, receipts, refit });
    }

    /// Degraded dimensions for a request on a rung (never upsizes, never
    /// shrinks below the configured minimum side, and always at least 1×1 so
    /// every rung stays renderable). The shift is clamped to 31:
    /// a degenerate `Rung::frame(32+)` would otherwise
    /// overflow the u32 shift (a debug-build panic), not degrade harder —
    /// past 31 halvings the floor decides anyway.
    fn shrunk(&self, req: &RenderRequest, halvings: u8) -> (u32, u32) {
        let min = self.cfg.min_image_side;
        let shift = u32::from(halvings).min(31);
        let w = (req.width >> shift).max(min).min(req.width).max(1);
        let h = (req.height >> shift).max(min).min(req.height).max(1);
        (w, h)
    }

    /// Predicted frame seconds (local + compositing), floored.
    fn frame_cost(&self, cfg: &RenderConfig) -> f64 {
        self.models.predict_frame_seconds(cfg, &self.constants).max(MIN_PREDICTED_SECONDS)
    }

    /// The job a request becomes at a rung: its degraded size, the renderer
    /// it runs as, and its predicted cost — frame + compositing, plus the BVH
    /// build if this would be the cycle's first ray-traced frame
    /// (`build_charged`). A switch rung rasterizes a ray-traced request only
    /// past the Figure-15 crossover, where rasterization is predicted faster;
    /// otherwise the switch would cost time, not save it.
    fn plan(&self, req: &RenderRequest, rung: Rung, build_charged: bool) -> PlannedJob {
        let (width, height) = self.shrunk(req, rung.halvings);
        let (cells_per_task, pixels) = (req.cells_per_task, width as usize * height as usize);
        let mut cfg =
            RenderConfig { renderer: req.renderer, cells_per_task, pixels, tasks: self.cfg.tasks };
        let raster = RenderConfig { renderer: RendererKind::Rasterization, ..cfg };
        let ray_traced = cfg.renderer == RendererKind::RayTracing;
        if rung.switch && ray_traced && self.frame_cost(&raster) < self.frame_cost(&cfg) {
            cfg = raster;
        }
        let build_s = if cfg.renderer == RendererKind::RayTracing && !build_charged {
            self.models.predict_build_seconds(&cfg, &self.constants).max(0.0)
        } else {
            0.0
        };
        let inputs = map_inputs(&cfg, &self.constants);
        let (local_s, comp_s) = self.models.price_frame(&inputs, CompositeWire::Compressed);
        let predicted_s = (local_s + comp_s).max(MIN_PREDICTED_SECONDS) + build_s;
        let mapped = inputs.stats;
        PlannedJob { width, height, cfg, rung, mapped, local_s, comp_s, build_s, predicted_s }
    }

    /// Decide one queued request. Deterministic: walks [`LADDER`] from the
    /// hysteresis level down; the level is sticky upward within a cycle (a
    /// job that forced a deeper rung pins later jobs there too, so a cycle's
    /// frames stay at a coherent fidelity). The decision is the open cycle's
    /// next receipt.
    pub fn decide(&mut self, req: RenderRequest) -> Decision {
        #[expect(
            clippy::expect_used,
            reason = "public-API misuse guard; the message is the contract"
        )]
        let cur = self.cur.as_ref().expect("decide() called outside begin_cycle()/end_cycle()");
        let (effective_budget, spent) = (cur.budget_s * SAFETY, cur.predicted_s());
        let build_charged = cur.jobs().any(|j| j.cfg.renderer == RendererKind::RayTracing);
        let outcome = first_fit(&LADDER, self.ladder.level(), |rung| {
            let job = self.plan(&req, rung, build_charged);
            (spent + job.predicted_s <= effective_budget).then_some(job)
        });
        // No rung fit: operate the rest of the cycle (and the next, until
        // hysteresis relaxes) fully degraded.
        let (level, job) = outcome.map_or((LADDER.len(), None), |(level, job)| (level, Some(job)));
        self.ladder.escalate_to(level.min(LADDER.len() - 1));
        let receipt = Receipt { request: Some(req), level, job, ..Receipt::UNPRICED };
        #[expect(clippy::unwrap_used, reason = "`cur` was checked at function entry")]
        self.cur.as_mut().unwrap().receipts.push(receipt);
        match job {
            Some(job) if level == 0 => Decision::Admit(job),
            Some(job) => Decision::Degrade(job),
            None => Decision::Reject,
        }
    }

    /// Feed back one observation of an executed job: a render (its measured
    /// inputs, frame and build seconds) or the frame's compositing exchange.
    /// It fills the oldest priced receipt of the open cycle still waiting for
    /// its kind (or, if none waits, an unpriced one), and joins the refit
    /// window of the model family it feeds.
    pub fn observe_sample(&mut self, s: Sample) {
        if let Some(cur) = self.cur.as_mut() {
            let waits = |r: &Receipt| match s {
                Sample::Render(_) => r.job.is_some() && r.observed.is_none(),
                Sample::Composite(_) => r.job.is_some() && r.exchange_s.is_none(),
            };
            let i = cur.receipts.iter().position(waits).unwrap_or(cur.receipts.len());
            if i == cur.receipts.len() {
                cur.receipts.push(Receipt::UNPRICED);
            }
            let receipt = &mut cur.receipts[i];
            match &s {
                Sample::Render(r) => {
                    receipt.observed = Some(r.stats);
                    receipt.t_obs_s = self.models.predict_local_seconds(r).max(0.0);
                }
                Sample::Composite(c) => receipt.exchange_s = Some(c.seconds),
            }
        }
        self.refit.observe(s);
    }

    /// Cost of the cycle's full request list if every job ran at `level`
    /// (the headroom probe for hysteresis upgrades).
    fn cycle_cost_at_level(&self, cycle: &CycleRecord, level: usize) -> f64 {
        let requests = cycle.receipts.iter().filter_map(|r| r.request.as_ref());
        let (total, _) = requests.fold((0.0, false), |(total, build_charged), req| {
            let job = self.plan(req, LADDER[level], build_charged);
            (total + job.predicted_s, build_charged || job.cfg.renderer == RendererKind::RayTracing)
        });
        total
    }

    /// Close the cycle: refit models from the observation windows,
    /// recalibrate the mapping from the render samples in them, decide
    /// whether fidelity may recover, and append the cycle record. Returns the
    /// record just appended, or `None` if no cycle was open.
    pub fn end_cycle(&mut self) -> Option<&CycleRecord> {
        let mut rec = self.cur.take()?;
        rec.refit = self.refit.refit_into(&mut self.models);
        let observed: Vec<RenderSample> = self.refit.render_samples().cloned().collect();
        self.constants = self.constants.recalibrated(&observed);
        rec.level = self.ladder.level();
        let headroom = rec.level > 0
            && self.cycle_cost_at_level(&rec, rec.level - 1)
                <= UPGRADE_MARGIN * SAFETY * rec.budget_s;
        self.ladder.relax(headroom);
        self.history.push(rec);
        self.history.last()
    }
}

/// Map Strawman's renderer labels onto the model renderer kinds.
fn renderer_kind(label: &str) -> Option<RendererKind> {
    match label {
        "raytracer" => Some(RendererKind::RayTracing),
        "rasterizer" => Some(RendererKind::Rasterization),
        s if s.starts_with("volume") => Some(RendererKind::VolumeRendering),
        _ => None,
    }
}

impl strawman::AdmissionHook for Scheduler {
    fn admit(&mut self, req: &strawman::AdmissionRequest) -> strawman::AdmissionDecision {
        if self.cur.as_ref().map(|c| c.cycle) != Some(req.cycle) {
            self.begin_cycle_with_budget(req.cycle, req.budget_s);
        }
        let Some(renderer) = renderer_kind(req.renderer) else {
            return strawman::AdmissionDecision::Admit;
        };
        // Admission predicts before the render runs, from mapped inputs: the
        // cells per axis of one task's block, as if the block were a cube.
        let cells_per_task = (req.cells as f64).cbrt().round().max(1.0) as usize;
        let request =
            RenderRequest { renderer, width: req.width, height: req.height, cells_per_task };
        match self.decide(request) {
            Decision::Admit(_) => strawman::AdmissionDecision::Admit,
            Decision::Degrade(job) => strawman::AdmissionDecision::Degrade {
                width: job.width,
                height: job.height,
                switch_to_rasterizer: renderer == RendererKind::RayTracing
                    && job.cfg.renderer == RendererKind::Rasterization,
            },
            Decision::Reject => strawman::AdmissionDecision::Reject,
        }
    }

    fn observe(&mut self, done: &strawman::ExecutedRender) {
        let Some(renderer) = renderer_kind(done.renderer) else { return };
        self.observe_sample(Sample::Render(RenderSample {
            renderer,
            device: "",
            source: "strawman",
            stats: done.stats,
            pixels: f64::from(done.width) * f64::from(done.height),
            tasks: self.cfg.tasks,
        }));
    }

    fn observe_composite(&mut self, done: &strawman::CompositeObservation) {
        self.observe_sample(Sample::Composite(CompositeSample {
            tasks: self.cfg.tasks,
            pixels: done.pixels,
            avg_active_pixels: done.avg_active_pixels,
            seconds: done.seconds,
            wire: done.wire,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::ground_truth;

    fn sched(budget_s: f64) -> Scheduler {
        Scheduler::new(
            ground_truth(),
            MappingConstants::default(),
            SchedulerConfig::new(budget_s, 64),
        )
    }

    fn req(renderer: RendererKind, side: u32) -> RenderRequest {
        RenderRequest { renderer, width: side, height: side, cells_per_task: 20 }
    }

    /// Acceptance (c): the ladder is deterministic and hysteretic. A fixed
    /// request stream — four calm cycles, a three-cycle spike whose showcase
    /// frame never fits, then calm again — must produce exactly this
    /// transcript: immediate escalation (with rejects while the spike lasts),
    /// then stepwise recovery, one rung per three headroom cycles.
    #[test]
    fn decisions_are_deterministic_and_hysteretic() {
        let stream = |cycle: i64| {
            let mut requests =
                vec![req(RendererKind::VolumeRendering, 512), req(RendererKind::RayTracing, 512)];
            if (4..7).contains(&cycle) {
                requests.push(req(RendererKind::VolumeRendering, 4096));
            }
            requests
        };
        let run = || {
            let mut s = sched(0.08);
            for cycle in 0..17i64 {
                s.begin_cycle(cycle);
                for r in stream(cycle) {
                    s.decide(r);
                }
                s.end_cycle();
            }
            s.history
        };
        let history = run();
        let mut transcript = Vec::new();
        for rec in &history {
            let mut line = format!("c{:02}", rec.cycle);
            for r in &rec.receipts {
                match (r.job, r.level) {
                    (Some(j), 0) => {
                        line.push_str(&format!(" admit:{}@{}", j.rung.label(), j.width))
                    }
                    (Some(j), _) => {
                        line.push_str(&format!(" degrade:{}@{}", j.rung.label(), j.width))
                    }
                    (None, _) => line.push_str(" reject"),
                }
            }
            line.push_str(&format!(
                " | L{} a{} d{} r{}",
                rec.level,
                rec.admitted(),
                rec.degraded(),
                rec.rejected()
            ));
            transcript.push(line);
        }
        let expected = [
            "c00 admit:full@512 admit:full@512 | L0 a2 d0 r0",
            "c01 admit:full@512 admit:full@512 | L0 a2 d0 r0",
            "c02 admit:full@512 admit:full@512 | L0 a2 d0 r0",
            "c03 admit:full@512 admit:full@512 | L0 a2 d0 r0",
            "c04 admit:full@512 admit:full@512 reject | L3 a2 d0 r1",
            "c05 degrade:switch@128 degrade:switch@128 reject | L3 a0 d2 r1",
            "c06 degrade:switch@128 degrade:switch@128 reject | L3 a0 d2 r1",
            "c07 degrade:switch@128 degrade:switch@128 | L3 a0 d2 r0",
            "c08 degrade:switch@128 degrade:switch@128 | L3 a0 d2 r0",
            "c09 degrade:switch@128 degrade:switch@128 | L3 a0 d2 r0",
            "c10 degrade:quarter@128 degrade:quarter@128 | L2 a0 d2 r0",
            "c11 degrade:quarter@128 degrade:quarter@128 | L2 a0 d2 r0",
            "c12 degrade:quarter@128 degrade:quarter@128 | L2 a0 d2 r0",
            "c13 degrade:half@256 degrade:half@256 | L1 a0 d2 r0",
            "c14 degrade:half@256 degrade:half@256 | L1 a0 d2 r0",
            "c15 degrade:half@256 degrade:half@256 | L1 a0 d2 r0",
            "c16 admit:full@512 admit:full@512 | L0 a2 d0 r0",
        ];
        assert_eq!(transcript, expected);
        // Re-running the identical stream reproduces the identical transcript.
        for (a, b) in history.iter().zip(run().iter()) {
            assert_eq!(a.predicted_s().to_bits(), b.predicted_s().to_bits());
            assert_eq!(
                (a.level, a.admitted(), a.degraded()),
                (b.level, b.admitted(), b.degraded())
            );
        }
    }

    /// The cycle's first ray-traced job is charged the BVH build; the second
    /// reuses it and is cheaper by exactly the predicted build time.
    #[test]
    fn bvh_build_amortizes_within_a_cycle() {
        let mut s = sched(10.0);
        s.begin_cycle(0);
        let r = req(RendererKind::RayTracing, 512);
        s.decide(r);
        s.decide(r);
        s.end_cycle();
        let charged = |rec: &CycleRecord, i: usize| rec.receipts[i].job.unwrap().predicted_s;
        let (first, second) = (charged(&s.history[0], 0), charged(&s.history[0], 1));
        let build = s.models.predict_build_seconds(
            &RenderConfig {
                renderer: RendererKind::RayTracing,
                cells_per_task: 20,
                pixels: 512 * 512,
                tasks: 64,
            },
            &s.constants,
        );
        assert!(build > 0.0);
        assert!((first - second - build).abs() < 1e-15, "{first} vs {second} + {build}");
        // A fresh cycle charges the build again.
        s.begin_cycle(1);
        s.decide(r);
        s.end_cycle();
        assert_eq!(charged(&s.history[1], 0).to_bits(), first.to_bits());
    }

    /// `end_cycle` recalibrates the mapping from the render samples in the
    /// refit windows: a render that observed half its mapped active pixels
    /// halves the fill the next cycle maps with, and the constants no sample
    /// speaks for are kept.
    #[test]
    fn end_cycle_recalibrates_the_mapping_from_observed_renders() {
        let (mut s, r) = (sched(10.0), req(RendererKind::RayTracing, 512));
        let k = s.constants;
        let planned = |s: &mut Scheduler| match s.decide(r) {
            Decision::Admit(job) => job,
            d => panic!("{d:?}"),
        };
        s.begin_cycle(0);
        let job = planned(&mut s);
        let stats = RenderStats { active_pixels: 0.5 * job.mapped.active_pixels, ..job.mapped };
        let (renderer, pixels) = (job.cfg.renderer, job.cfg.pixels as f64);
        let sample =
            RenderSample { renderer, device: "", source: "test", stats, pixels, tasks: 64 };
        s.observe_sample(Sample::Render(sample));
        s.end_cycle();
        assert!((s.constants.ap_fill / k.ap_fill - 0.5).abs() < 1e-12, "{:?}", s.constants);
        assert_eq!((s.constants.ppt_factor, s.constants.spr_base), (k.ppt_factor, k.spr_base));
        s.begin_cycle(1);
        let next = planned(&mut s).mapped.active_pixels;
        assert!((next / stats.active_pixels - 1.0).abs() < 1e-12, "{next}");
    }

    /// Packing is cumulative: a job that fits alone degrades once earlier
    /// admissions have consumed the budget.
    #[test]
    fn packing_degrades_when_budget_is_consumed() {
        let frame = |s: &Scheduler, side: u32| {
            s.models.predict_frame_seconds(
                &RenderConfig {
                    renderer: RendererKind::VolumeRendering,
                    cells_per_task: 20,
                    pixels: (side as usize) * (side as usize),
                    tasks: 64,
                },
                &s.constants,
            )
        };
        let probe = sched(1.0);
        // Budget fits one full frame plus a half-size frame, not two full.
        let budget = (frame(&probe, 512) + 1.1 * frame(&probe, 256)) / SAFETY;
        let mut s = sched(budget);
        s.begin_cycle(0);
        let r = req(RendererKind::VolumeRendering, 512);
        assert!(matches!(s.decide(r), Decision::Admit(_)));
        match s.decide(r) {
            Decision::Degrade(j) => {
                assert_eq!((j.width, j.rung), (256, Rung::frame(1)))
            }
            d => panic!("expected degrade, got {d:?}"),
        }
        s.end_cycle();
    }

    /// The switch rung respects the Figure-15 crossover: ray tracing only
    /// becomes rasterization when the models predict rasterization faster.
    /// Heavy geometry under a small image stays ray traced.
    #[test]
    fn switch_rung_respects_crossover() {
        // Heavy geometry, small image: rasterization would be slower, so the
        // switch rung keeps ray tracing (and costs the same as Halved{2},
        // meaning a budget below the quarter-size cost rejects outright).
        let mut s = sched(1.0);
        let heavy = RenderRequest {
            renderer: RendererKind::RayTracing,
            width: 256,
            height: 256,
            cells_per_task: 500,
        };
        let quarter_cost = s.plan(&heavy, LADDER[2], false).predicted_s;
        assert_eq!(s.plan(&heavy, LADDER[3], false).cfg.renderer, RendererKind::RayTracing);
        s.cfg.budget_s = 0.9 * quarter_cost / SAFETY;
        s.begin_cycle(0);
        assert!(matches!(s.decide(heavy), Decision::Reject));
        s.end_cycle();

        // Light geometry, large image: rasterization wins, so the switch rung
        // admits what Halved{2} could not.
        let mut s = sched(1.0);
        let light = RenderRequest {
            renderer: RendererKind::RayTracing,
            width: 2048,
            height: 2048,
            cells_per_task: 3,
        };
        let rt_quarter = s.plan(&light, LADDER[2], false).predicted_s;
        let raster = RenderRequest { renderer: RendererKind::Rasterization, ..light };
        let ra_quarter = s.plan(&raster, LADDER[2], false).predicted_s;
        assert_eq!(s.plan(&light, LADDER[3], false).cfg.renderer, RendererKind::Rasterization);
        assert!(ra_quarter < rt_quarter);
        s.cfg.budget_s = 0.5 * (rt_quarter + ra_quarter) / SAFETY;
        s.begin_cycle(0);
        match s.decide(light) {
            Decision::Degrade(j) => {
                assert_eq!(j.rung, LADDER[3]);
                assert_eq!(j.cfg.renderer, RendererKind::Rasterization);
                assert_eq!(j.width, 512);
            }
            d => panic!("expected switched degrade, got {d:?}"),
        }
        s.end_cycle();
    }

    /// Degradation never shrinks below the configured minimum side.
    #[test]
    fn min_image_side_floors_degradation() {
        let s = sched(1.0);
        let r = req(RendererKind::VolumeRendering, 100);
        assert_eq!(s.shrunk(&r, 2), (64, 64));
        // Requests already below the floor are left alone rather than upsized.
        let tiny = req(RendererKind::VolumeRendering, 32);
        assert_eq!(s.shrunk(&tiny, 2), (32, 32));
    }

    /// The shrink audit pinned: every rung of the ladder yields a renderable,
    /// nonzero-pixel config for every seed image size, including odd sides,
    /// sides below the tile floor, and a 1-pixel request. Degenerate
    /// halvings (>= 32, a u32 shift overflow before the audit) clamp to the
    /// floor instead of panicking.
    #[test]
    fn every_rung_stays_renderable_at_all_seed_sizes() {
        let s = sched(1.0);
        let sides = [1u32, 31, 63, 64, 65, 72, 101, 256, 333, 512, 1024, 1080, 2047, 4096];
        let mut rungs: Vec<Rung> = LADDER.to_vec();
        rungs.push(Rung::frame(31));
        rungs.push(Rung::frame(40));
        rungs.push(Rung { switch: true, ..Rung::frame(255) });
        for &side in &sides {
            for kind in [
                RendererKind::RayTracing,
                RendererKind::Rasterization,
                RendererKind::VolumeRendering,
            ] {
                let r = req(kind, side);
                for &rung in &rungs {
                    let PlannedJob { width: w, height: h, .. } = s.plan(&r, rung, false);
                    assert!(w >= 1 && h >= 1, "{rung:?} @ {side}: {w}x{h}");
                    assert!(w <= r.width && h <= r.height, "{rung:?} @ {side} upsized: {w}x{h}");
                    // At or above the floor, shrinking stops at the floor.
                    if side >= s.cfg.min_image_side && rung.halvings > 0 {
                        assert!(w >= s.cfg.min_image_side, "{rung:?} @ {side}: {w}");
                    }
                    // Below the floor, the request passes through unshrunk.
                    if side < s.cfg.min_image_side {
                        assert_eq!((w, h), (r.width, r.height));
                    }
                }
            }
        }
    }
}
