//! End-to-end: the [`sched::Scheduler`] plugged into Strawman's admission
//! hook gates real (small) renders — admitting, degrading, or rejecting
//! depending on the per-cycle budget.

use conduit_node::Node;
use dpp::Device;
use perfmodel::feasibility::ModelSet;
use perfmodel::mapping::MappingConstants;
use perfmodel::models::Family;
use sched::{Scheduler, SchedulerConfig};
use std::cell::RefCell;
use std::rc::Rc;
use strawman::{
    AdmissionDecision, AdmissionHook, AdmissionRequest, CompositeObservation, ExecutedRender,
    Options, Strawman, StrawmanError,
};

/// A model set where cost is purely pixel-driven (1 µs/pixel of compositing,
/// no local-render or build cost — the other required families stay at the
/// zero fit), so budget thresholds in the test map directly onto image
/// sizes.
fn pixel_cost_models() -> ModelSet {
    ModelSet::from_coeffs("test", &[(Family::Comp, &[0.0, 1e-6, 0.0])])
}

fn scheduler(budget_s: f64) -> Scheduler {
    let mut cfg = SchedulerConfig::new(budget_s, 8);
    cfg.min_image_side = 8;
    Scheduler::new(pixel_cost_models(), MappingConstants::default(), cfg)
}

fn uniform_data(n: usize) -> Node {
    let g = mesh::datasets::field_grid(mesh::datasets::FieldKind::ShockShell, [n; 3]);
    let mut d = Node::new();
    d.set("state/time", 0.5f64);
    d.set("state/cycle", 3i64);
    d.set("coords/type", "uniform");
    d.set("coords/dims/i", g.dims[0] as i64);
    d.set("coords/dims/j", g.dims[1] as i64);
    d.set("coords/dims/k", g.dims[2] as i64);
    d.set("fields/scalar/association", "vertex");
    d.set("fields/scalar/values", g.field("scalar").unwrap().values.clone());
    d
}

fn actions(side: i64) -> Node {
    let mut a = Node::new();
    let add = a.append();
    add.set("action", "AddPlot");
    add.set("var", "scalar");
    add.set("type", "pseudocolor");
    a.append().set("action", "DrawPlots");
    let save = a.append();
    save.set("action", "SaveImage");
    save.set("fileName", "");
    save.set("width", side);
    save.set("height", side);
    a
}

fn run(budget_s: f64) -> (Strawman, Result<(), StrawmanError>) {
    let mut sm = Strawman::open(Options {
        device: Device::Serial,
        output_dir: std::env::temp_dir(),
        cycle_budget_s: Some(budget_s),
        scheduler: Some(Box::new(scheduler(budget_s))),
        ..Options::default()
    });
    sm.publish(&uniform_data(12)).unwrap();
    let result = sm.execute(&actions(64));
    (sm, result)
}

#[test]
fn generous_budget_admits_at_full_size() {
    // 64x64 = 4096 px -> 4.1 ms predicted; 0.1 s budget fits easily.
    let (sm, result) = run(0.1);
    result.expect("should render");
    assert_eq!(sm.records.len(), 1);
    assert_eq!((sm.records[0].width, sm.records[0].height), (64, 64));
    assert_eq!(sm.admissions.totals(), (1, 0, 0));
}

#[test]
fn tight_budget_degrades_the_image() {
    // Effective budget 2.7 ms: the 4.1 ms full frame misses, the ~1.0 ms
    // half-size frame fits.
    let (sm, result) = run(3e-3);
    result.expect("should render degraded");
    assert_eq!(sm.records.len(), 1);
    assert_eq!((sm.records[0].width, sm.records[0].height), (32, 32));
    assert_eq!(sm.admissions.totals(), (0, 1, 0));
}

#[test]
fn impossible_budget_rejects_the_render() {
    // 9 µs effective budget is below even the 8x8 floor (64 px -> 64 µs).
    let (sm, result) = run(1e-5);
    assert!(matches!(result, Err(StrawmanError::Rejected)));
    assert!(sm.records.is_empty());
    assert_eq!(sm.admissions.totals(), (0, 0, 1));
}

/// Shares one scheduler between Strawman's hook slot and the test, so the
/// test can read its refit report afterwards.
struct Shared(Rc<RefCell<Scheduler>>);

impl AdmissionHook for Shared {
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

/// The refit learns the BVH build from real renders: each publish's
/// ray-traced render reports the build it measured, so eight cycles give the
/// build model the samples it needs and the cycle's close re-solves it.
#[test]
fn ray_traced_cycles_refit_the_build_model() {
    let sched = Rc::new(RefCell::new(scheduler(1e3)));
    let mut sm = Strawman::open(Options {
        device: Device::Serial,
        output_dir: std::env::temp_dir(),
        cycle_budget_s: Some(1e3),
        scheduler: Some(Box::new(Shared(Rc::clone(&sched)))),
        ..Options::default()
    });
    for cycle in 0..8i64 {
        let mut data = uniform_data(12);
        data.set("state/cycle", cycle);
        sm.publish(&data).unwrap();
        sm.execute(&actions(64)).unwrap();
    }
    assert_eq!(sm.admissions.totals(), (8, 0, 0));
    let mut s = sched.borrow_mut();
    s.end_cycle();
    assert_eq!(s.history.len(), 8);
    let refit = &s.history[7].refit;
    assert!(refit.refitted.contains(&"ray_tracing_build"), "{refit:?}");
    // Each cycle's one receipt holds the render the hook observed for it.
    for rec in &s.history {
        let [receipt] = rec.receipts[..] else { panic!("{:?}", rec.receipts) };
        let observed = receipt.observed.expect("the render was observed");
        assert!(observed.render_seconds > 0.0 && observed.build_seconds > 0.0);
    }
}
