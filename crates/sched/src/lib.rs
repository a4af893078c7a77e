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
//! The scheduler sheds no ray-tracer phase: the pass-granular
//! [`ladder::PASS_LADDER`] shares the rung type, pricing and walk, but only
//! `repro graph` prices it.
//! After execution, measured (simulated-clock) runtimes feed a windowed
//! re-solve over [`perfmodel::regression::LinearRegression`], shrinking
//! prediction error over the run.
//!
//! [`Scheduler`] implements [`strawman::AdmissionHook`], so it plugs straight
//! into [`strawman::Options`] to gate real renders by wall clock; the
//! [`demo`] module drives the same scheduler from the proxy apps against a
//! [`SimulatedExecutor`] standing in for a 64-rank machine.

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
pub use ladder::{Ladder, Rung, LADDER, PASS_LADDER};
pub use priority::{Priority, PRIORITIES};
pub use rebalance::{RebalanceConfig, Rebalancer};
pub use refit::OnlineRefit;
pub use scheduler::{CycleRecord, Decision, PlannedJob, RenderRequest, Scheduler, SchedulerConfig};
pub use simexec::{JobCost, SimulatedExecutor};
