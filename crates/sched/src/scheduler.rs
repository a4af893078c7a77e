//! Online admission control against a per-cycle render-time budget.
//!
//! The [`Scheduler`] holds a (possibly miscalibrated) [`ModelSet`], predicts
//! each queued job's cost — local frame + compositing, plus the BVH build for
//! the cycle's first ray-traced job (subsequent frames amortize it) — and
//! packs jobs against the budget. When a job does not fit at the current
//! fidelity, it walks down the degradation [`LADDER`]. Each executed job's
//! observations come back as [`Sample`]s through
//! [`observe_sample`](Scheduler::observe_sample) and feed [`OnlineRefit`], so
//! predictions tighten as the run proceeds: the refit fits on the inputs a
//! render observed, while admission predicts on mapped inputs.

use crate::ladder::{first_fit, Ladder, Rung, LADDER};
use crate::refit::{OnlineRefit, RefitReport};
use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::sample::{CompositeSample, RenderSample, RendererKind, Sample};

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
    /// Predicted cost charged against the budget (frame + compositing, plus
    /// the BVH build if this job triggers one).
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

impl Decision {
    pub fn job(&self) -> Option<&PlannedJob> {
        match self {
            Decision::Admit(j) | Decision::Degrade(j) => Some(j),
            Decision::Reject => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Decision::Admit(_) => "admit",
            Decision::Degrade(_) => "degrade",
            Decision::Reject => "reject",
        }
    }
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
const SAFETY: f64 = 0.9;
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

/// What one closed cycle looked like.
#[derive(Debug, Clone, Copy)]
pub struct CycleRecord {
    pub cycle: i64,
    /// Ladder level the cycle operated at (deepest rung reached).
    pub level: usize,
    pub admitted: u32,
    pub degraded: u32,
    pub rejected: u32,
    /// Budget in force for the cycle.
    pub budget_s: f64,
    /// Predicted cost of the executed jobs at decision time.
    pub predicted_s: f64,
    /// Measured cost of the executed jobs: the seconds of every observed
    /// sample, i.e. what the models price (render and build phases, and
    /// compositing). Strawman's wall time per render, surface extraction
    /// included, stays in its `RenderRecord::render_seconds`.
    pub actual_s: f64,
}

impl CycleRecord {
    pub fn within_budget(&self) -> bool {
        self.actual_s <= self.budget_s
    }

    /// `|predicted - actual| / actual` for the cycle's executed work.
    pub fn abs_rel_error(&self) -> f64 {
        (self.predicted_s - self.actual_s).abs() / self.actual_s.max(MIN_PREDICTED_SECONDS)
    }
}

struct OpenCycle {
    cycle: i64,
    budget_s: f64,
    spent_predicted_s: f64,
    actual_s: f64,
    admitted: u32,
    degraded: u32,
    rejected: u32,
    /// Everything requested this cycle (including rejected jobs), for the
    /// end-of-cycle headroom computation.
    requests: Vec<RenderRequest>,
    /// A BVH build has been charged this cycle; later RT frames reuse it.
    build_charged: bool,
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
    /// What the most recent end-of-cycle refit did (installed, rejected,
    /// condition-warned families).
    pub last_refit: RefitReport,
    cur: Option<OpenCycle>,
}

impl Scheduler {
    pub fn new(models: ModelSet, constants: MappingConstants, cfg: SchedulerConfig) -> Scheduler {
        let ladder = Ladder::new(HYSTERESIS_CYCLES, LADDER.len() - 1);
        let refit = OnlineRefit::new(REFIT_WINDOW, REFIT_MIN_SAMPLES);
        Scheduler {
            models,
            constants,
            cfg,
            ladder,
            refit,
            history: Vec::new(),
            last_refit: RefitReport::default(),
            cur: None,
        }
    }

    /// Current ladder level (0 = full fidelity).
    pub fn level(&self) -> usize {
        self.ladder.level()
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
        self.cur = Some(OpenCycle {
            cycle,
            budget_s,
            spent_predicted_s: 0.0,
            actual_s: 0.0,
            admitted: 0,
            degraded: 0,
            rejected: 0,
            requests: Vec::new(),
            build_charged: false,
        });
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
        let build_seconds = if cfg.renderer == RendererKind::RayTracing && !build_charged {
            self.models.predict_build_seconds(&cfg, &self.constants).max(0.0)
        } else {
            0.0
        };
        let predicted_s = self.frame_cost(&cfg) + build_seconds;
        PlannedJob { width, height, cfg, rung, predicted_s }
    }

    /// Decide one queued request. Deterministic: walks [`LADDER`] from the
    /// hysteresis level down; the level is sticky upward within a cycle (a
    /// job that forced a deeper rung pins later jobs there too, so a cycle's
    /// frames stay at a coherent fidelity).
    pub fn decide(&mut self, req: RenderRequest) -> Decision {
        let (effective_budget, spent, build_charged) = {
            #[expect(
                clippy::expect_used,
                reason = "public-API misuse guard; the message is the contract"
            )]
            let cur = self.cur.as_ref().expect("decide() called outside begin_cycle()/end_cycle()");
            (cur.budget_s * SAFETY, cur.spent_predicted_s, cur.build_charged)
        };

        let outcome = first_fit(&LADDER, self.ladder.level(), |rung| {
            let job = self.plan(&req, rung, build_charged);
            (spent + job.predicted_s <= effective_budget).then_some(job)
        });

        #[expect(clippy::unwrap_used, reason = "`cur` was checked at function entry")]
        let cur = self.cur.as_mut().unwrap();
        cur.requests.push(req);
        match outcome {
            Some((level, job)) => {
                cur.spent_predicted_s += job.predicted_s;
                if job.cfg.renderer == RendererKind::RayTracing {
                    cur.build_charged = true;
                }
                if level == 0 {
                    cur.admitted += 1;
                    Decision::Admit(job)
                } else {
                    cur.degraded += 1;
                    self.ladder.escalate_to(level);
                    Decision::Degrade(job)
                }
            }
            None => {
                cur.rejected += 1;
                // Even the deepest executable rung did not fit: operate the
                // rest of the cycle (and the next, until hysteresis relaxes)
                // fully degraded.
                self.ladder.escalate_to(LADDER.len() - 1);
                Decision::Reject
            }
        }
    }

    /// Feed back one observation of an executed job: a render (its measured
    /// inputs, frame and build seconds) or the frame's compositing exchange.
    /// Its seconds are charged to the open cycle, and the sample joins the
    /// refit window of the model family it feeds.
    pub fn observe_sample(&mut self, s: Sample) {
        if let Some(cur) = self.cur.as_mut() {
            cur.actual_s += match &s {
                Sample::Render(r) => r.stats.render_seconds + r.stats.build_seconds,
                Sample::Composite(c) => c.seconds,
            };
        }
        self.refit.observe(s);
    }

    /// Cost of the cycle's full request list if every job ran at `level`
    /// (the headroom probe for hysteresis upgrades).
    fn cycle_cost_at_level(&self, requests: &[RenderRequest], level: usize) -> f64 {
        let mut total = 0.0;
        let mut build_charged = false;
        for req in requests {
            let job = self.plan(req, LADDER[level], build_charged);
            total += job.predicted_s;
            build_charged |= job.cfg.renderer == RendererKind::RayTracing;
        }
        total
    }

    /// Close the cycle: refit models from the observation windows, decide
    /// whether fidelity may recover, and append the cycle record. Returns the
    /// record just appended, or `None` if no cycle was open.
    pub fn end_cycle(&mut self) -> Option<&CycleRecord> {
        let cur = self.cur.take()?;
        self.last_refit = self.refit.refit_into(&mut self.models);
        let level = self.ladder.level();
        let headroom = if level > 0 {
            let up_cost = self.cycle_cost_at_level(&cur.requests, level - 1);
            up_cost <= UPGRADE_MARGIN * SAFETY * cur.budget_s
        } else {
            false
        };
        self.ladder.relax(headroom);
        self.history.push(CycleRecord {
            cycle: cur.cycle,
            level,
            admitted: cur.admitted,
            degraded: cur.degraded,
            rejected: cur.rejected,
            budget_s: cur.budget_s,
            predicted_s: cur.spent_predicted_s,
            actual_s: cur.actual_s,
        });
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
        let mut s = sched(0.08);
        let mut transcript = Vec::new();
        for cycle in 0..17i64 {
            s.begin_cycle(cycle);
            let mut line = format!("c{cycle:02}");
            let mut requests =
                vec![req(RendererKind::VolumeRendering, 512), req(RendererKind::RayTracing, 512)];
            if (4..7).contains(&cycle) {
                requests.push(req(RendererKind::VolumeRendering, 4096));
            }
            for r in requests {
                let d = s.decide(r);
                match d.job() {
                    Some(j) => {
                        line.push_str(&format!(" {}:{}@{}", d.label(), j.rung.label(), j.width))
                    }
                    None => line.push_str(" reject"),
                }
            }
            s.end_cycle();
            let rec = s.history.last().unwrap();
            line.push_str(&format!(
                " | L{} a{} d{} r{}",
                rec.level, rec.admitted, rec.degraded, rec.rejected
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
        let mut s2 = sched(0.08);
        for cycle in 0..17i64 {
            s2.begin_cycle(cycle);
            let mut requests =
                vec![req(RendererKind::VolumeRendering, 512), req(RendererKind::RayTracing, 512)];
            if (4..7).contains(&cycle) {
                requests.push(req(RendererKind::VolumeRendering, 4096));
            }
            for r in requests {
                s2.decide(r);
            }
            s2.end_cycle();
        }
        for (a, b) in s.history.iter().zip(s2.history.iter()) {
            assert_eq!(a.predicted_s.to_bits(), b.predicted_s.to_bits());
            assert_eq!((a.level, a.admitted, a.degraded), (b.level, b.admitted, b.degraded));
        }
    }

    /// The cycle's first ray-traced job is charged the BVH build; the second
    /// reuses it and is cheaper by exactly the predicted build time.
    #[test]
    fn bvh_build_amortizes_within_a_cycle() {
        let mut s = sched(10.0);
        s.begin_cycle(0);
        let r = req(RendererKind::RayTracing, 512);
        let first = s.decide(r).job().unwrap().predicted_s;
        let second = s.decide(r).job().unwrap().predicted_s;
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
        s.end_cycle();
        // A fresh cycle charges the build again.
        s.begin_cycle(1);
        let again = s.decide(r).job().unwrap().predicted_s;
        assert_eq!(again.to_bits(), first.to_bits());
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
            d => panic!("expected degrade, got {}", d.label()),
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
            d => panic!("expected switched degrade, got {}", d.label()),
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
