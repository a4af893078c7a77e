//! Calibrate-then-schedule: the Chapter VI adaptive infrastructure driven by
//! *real wall-clock renders*. A quick offline study fits the performance
//! models on this machine; the fitted set seeds `sched::Scheduler`, which
//! plugs into Strawman's admission hook. A probe cycle at full fidelity
//! measures what the un-budgeted pipeline costs, the budget is then set well
//! below it, and the scheduler must degrade (or reject) renders to keep each
//! cycle inside the budget. From the second scheduled cycle on, each job is
//! priced at the active pixels the renders observed: the scheduler
//! recalibrates its mapping at every `end_cycle`. Its refit windows fill only
//! at the last one, so the models themselves do not move in-run.

use conduit_node::Node;
use dpp::Device;
use mpirt::NetModel;
use perfmodel::feasibility::ModelSet;
use perfmodel::mapping::MappingConstants;
use perfmodel::models::Family;
use perfmodel::sample::RendererKind;
use perfmodel::study::{run_composite_study, run_render_study, StudyConfig};
use sched::{Receipt, Scheduler, SchedulerConfig};
use sims::{Kripke, ProxySim};
use std::cell::RefCell;
use std::rc::Rc;
use strawman::{
    AdmissionDecision, AdmissionHook, AdmissionRequest, CompositeObservation, ExecutedRender,
    Options, Strawman, StrawmanError,
};

/// Shares one `Scheduler` between Strawman's hook slot and the reporting
/// code, so the run can print the scheduler's own cycle history afterwards.
struct SharedSched(Rc<RefCell<Scheduler>>);

impl AdmissionHook for SharedSched {
    fn admit(&mut self, req: &AdmissionRequest) -> AdmissionDecision {
        AdmissionHook::admit(&mut *self.0.borrow_mut(), req)
    }
    fn observe(&mut self, done: &ExecutedRender) {
        AdmissionHook::observe(&mut *self.0.borrow_mut(), done)
    }
    fn observe_composite(&mut self, done: &CompositeObservation) {
        AdmissionHook::observe_composite(&mut *self.0.borrow_mut(), done)
    }
}

/// One receipt as one line: the family and rung it ran as, mapped against
/// observed AP, t(map) against t(obs) against the measured local seconds
/// (the split of the paper's Table 16), and the predicted against the
/// measured BVH build.
fn receipt_line(r: &Receipt) -> String {
    let secs = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
    let obs = r.observed;
    match (r.request, r.job) {
        (Some(req), None) => {
            format!("{} {}x{} rejected", req.renderer.name(), req.width, req.height)
        }
        (_, job) => format!(
            "{} {}: AP map {} obs {}, t(map) {} t(obs) {} measured {} s, build {} -> {} s",
            job.map_or("unpriced", |j| j.cfg.renderer.name()),
            job.map_or("-".to_string(), |j| format!("{}@{}", j.rung.label(), j.width)),
            job.map_or("-".to_string(), |j| format!("{:.0}", j.mapped.active_pixels)),
            obs.map_or("-".to_string(), |o| format!("{:.0}", o.active_pixels)),
            secs(job.map(|j| j.local_s)),
            secs(obs.map(|_| r.t_obs_s)),
            secs(obs.map(|o| o.render_seconds)),
            secs(job.map(|j| j.build_s)),
            secs(obs.map(|o| o.build_seconds)),
        ),
    }
}

/// Calibrate: a small study renders real frames and fits the models.
fn calibrate(device: &Device) -> (ModelSet, MappingConstants) {
    let study = StudyConfig {
        tests: 8,
        data_cells: (16, 40),
        image_side: (64, 192),
        fill: (0.5, 1.0),
        seed: 11,
    };
    let rt = run_render_study(device, RendererKind::RayTracing, &study).expect("rt study");
    let ra = run_render_study(device, RendererKind::Rasterization, &study).expect("rast study");
    let vr = run_render_study(device, RendererKind::VolumeRendering, &study).expect("vr study");
    let comp = run_composite_study(NetModel::cluster(), &[1, 4, 16], &[128, 256], 5)
        .expect("composite study");
    let set = ModelSet::new(
        "parallel",
        [
            Family::Rt.fit(&rt),
            Family::RtBuild.fit(&rt),
            Family::Rast.fit(&ra),
            Family::Vr.fit(&vr),
            Family::Comp.fit(&comp),
        ],
    );
    let mut all = rt;
    all.extend(ra);
    all.extend(vr);
    let k = MappingConstants::calibrated(&all);
    (set, k)
}

/// One in situ cycle: publish the Kripke grid, request a volume plot and a
/// ray-traced pseudocolor plot at full fidelity, draw. Returns the wall
/// seconds the cycle's admitted renders actually took and whether any render
/// was rejected.
fn run_cycle(sm: &mut Strawman, sim: &Kripke, side: i64) -> (f64, bool) {
    let grid = sim.grid();
    let mut data = Node::new();
    data.set("state/time", sim.time());
    data.set("state/cycle", sim.cycle() as i64);
    data.set("state/domain", 0i64);
    data.set("coords/type", "uniform");
    data.set("coords/dims/i", grid.dims[0] as i64);
    data.set("coords/dims/j", grid.dims[1] as i64);
    data.set("coords/dims/k", grid.dims[2] as i64);
    data.set("coords/origin/x", grid.origin.x as f64);
    data.set("coords/origin/y", grid.origin.y as f64);
    data.set("coords/origin/z", grid.origin.z as f64);
    data.set("coords/spacing/x", grid.spacing.x as f64);
    data.set("coords/spacing/y", grid.spacing.y as f64);
    data.set("coords/spacing/z", grid.spacing.z as f64);
    data.set("fields/phi/association", "vertex");
    data.set("fields/phi/values", grid.field("phi_p").unwrap().values.clone());

    let mut actions = Node::new();
    let vol = actions.append();
    vol.set("action", "AddPlot");
    vol.set("var", "phi");
    vol.set("type", "volume");
    let surf = actions.append();
    surf.set("action", "AddPlot");
    surf.set("var", "phi");
    surf.set("renderer", "raytracer");
    let draw = actions.append();
    draw.set("action", "DrawPlots");
    let save = actions.append();
    save.set("action", "SaveImage");
    // An empty file name renders without writing an image to disk.
    save.set("fileName", "");
    save.set("width", side);
    save.set("height", side);

    let before = sm.records.len();
    sm.publish(&data).expect("publish");
    let rejected = match sm.execute(&actions) {
        Ok(()) => false,
        Err(StrawmanError::Rejected) => true,
        Err(e) => panic!("execute: {e}"),
    };
    let spent: f64 = sm.records[before..].iter().map(|r| r.render_seconds).sum();
    (spent, rejected)
}

fn main() {
    let device = Device::parallel();
    println!("calibrating performance models on this machine...");
    let (set, constants) = calibrate(&device);

    // --- Probe: one full-fidelity cycle with no budget in force. ---
    let side = 768i64;
    let mut sim = Kripke::new(28);
    sim.step();
    let mut probe = Strawman::open(Options { device: device.clone(), ..Options::default() });
    let (full_s, _) = run_cycle(&mut probe, &sim, side);
    probe.close();

    // --- Schedule: budget well below the measured full-fidelity cost. ---
    let budget_s = (full_s * 0.4).max(1e-4);
    println!(
        "full-fidelity cycle measured at {full_s:.3} s; budgeting {budget_s:.3} s/cycle \
         ({side}x{side} requested)"
    );
    let sched =
        Rc::new(RefCell::new(Scheduler::new(set, constants, SchedulerConfig::new(budget_s, 1))));
    let mut sm = Strawman::open(Options {
        device,
        cycle_budget_s: Some(budget_s),
        scheduler: Some(Box::new(SharedSched(Rc::clone(&sched)))),
        ..Options::default()
    });

    let cycles = 8;
    for _ in 0..cycles {
        sim.step();
        let (spent, rejected) = run_cycle(&mut sm, &sim, side);
        let note = if rejected { " (some renders rejected)" } else { "" };
        println!(
            "cycle {:2}: {:.3} s of renders, {:.0}% of budget{note}",
            sim.cycle(),
            spent,
            spent / budget_s * 100.0
        );
    }

    // Close the scheduler's last open cycle, then report its own view: the
    // ladder level it operated at and, receipt by receipt, what each render
    // was priced at and what it measured as the online refit absorbed it.
    sched.borrow_mut().end_cycle();
    let (admitted, degraded, rejected) = sm.admissions.totals();
    println!("\nadmissions: {admitted} admitted, {degraded} degraded, {rejected} rejected");
    let sched = sched.borrow();
    for rec in &sched.history {
        println!(
            "  cycle {:2}: level {}, within budget: {}, refit {:?}, rejected {:?}",
            rec.cycle,
            rec.level,
            rec.within_budget(),
            rec.refit.refitted,
            rec.refit.rejected
        );
        for r in &rec.receipts {
            println!("    {}", receipt_line(r));
        }
    }
    let within = sched.history.iter().filter(|r| r.within_budget()).count();
    println!(
        "{within}/{} scheduled cycles stayed inside the {budget_s:.3} s budget",
        sched.history.len()
    );
    drop(sched);
    sm.close();
}
