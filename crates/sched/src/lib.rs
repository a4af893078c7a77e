//! Model-driven in situ scheduling: online admission control against a
//! per-cycle time budget, a deterministic degradation ladder with hysteresis,
//! and live refinement of the performance models from measured runtimes.
//!
//! The paper fits performance models offline and uses them to answer
//! feasibility questions ("how many images fit in X seconds?", Figure 14;
//! "when does ray tracing beat rasterization?", Figure 15). This crate closes
//! the loop at run time: each simulation cycle, render requests enter a queue
//! with a time budget; the [`Scheduler`] predicts each job's cost from a
//! [`perfmodel::feasibility::ModelSet`] (frame + amortized BVH build +
//! compositing) and admits, degrades, or rejects it. Degradation walks the
//! fixed [`ladder::LADDER`] — shrink the image side 2×, then 4×, then switch
//! ray tracing to rasterization when past the Figure-15 crossover, then drop
//! the frame — and hysteresis keeps fidelity from flapping cycle to cycle.
//! A job is priced whole-frame, as the paper's models price it: no rung
//! sheds a ray-tracer phase.
//! Every decision leaves a [`Receipt`]: the request, its rung, and its price
//! split into local (t(map)), compositing and build seconds at the mapped
//! inputs. Each render and exchange comes back as one
//! [`perfmodel::sample::Sample`] through [`Scheduler::observe_sample`], fills
//! the oldest receipt waiting for it with what it measured and, for a
//! render, t(obs), the models' price at its observed inputs, and feeds a
//! windowed re-solve over [`perfmodel::regression::LinearRegression`]. A
//! closed [`CycleRecord`] is the cycle's receipts and refit report, so
//! Table 16's split is read from [`Scheduler::history`] alone.
//!
//! [`Scheduler`] implements [`strawman::AdmissionHook`], so it plugs straight
//! into [`strawman::Options`] to gate real renders, learning from each
//! render's own [`strawman::ExecutedRender::stats`]; the [`demo`] module
//! drives the same scheduler from the proxy apps against a
//! [`SimulatedExecutor`] standing in for a 64-rank machine, whose
//! [`JobCost`] hands over the same two sample kinds on a simulated clock.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod backpressure;
pub mod demo;
pub mod ladder;
pub mod priority;
pub mod rebalance;
pub mod refit;
pub mod scheduler;
pub mod simexec;

pub use backpressure::QueuePressure;
pub use demo::{run_budgeted_demo, DemoConfig, DemoReport};
pub use ladder::{Ladder, Rung, LADDER};
pub use priority::{Priority, PRIORITIES};
pub use rebalance::{RebalanceConfig, Rebalancer};
pub use refit::OnlineRefit;
pub use scheduler::{
    CycleRecord, Decision, PlannedJob, Receipt, RenderRequest, Scheduler, SchedulerConfig,
};
pub use simexec::{JobCost, SimulatedExecutor};
