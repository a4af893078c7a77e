//! A simulated interconnect clock (the MPI stand-in).
//!
//! The paper's multi-node experiments run MPI ranks across cluster nodes, but
//! it never times MPI itself: `T_total = max(T_LR) + T_COMP`, with `T_COMP` a
//! fitted model. This repo has one machine, so ranks are *simulated, not
//! threaded*: an exchange is an ordinary function over every rank's data, and
//! `mpirt` is the cost clock it charges. A [`NetModel`] attaches an analytic
//! latency + bandwidth cost to every message so compositing experiments can
//! report network-inclusive times; DESIGN.md documents this substitution.
//!
//! Two layers over that cost model:
//! * [`lockstep`] — a deterministic round-based clock for algorithms that
//!   advance in synchronized supersteps (direct-send, binary-swap, radix-k,
//!   the rebalancer's migration rounds, up to 1024-rank compositing):
//!   simulated time is `max` over ranks per round.
//! * [`event`] — a per-rank clock for message-driven exchanges with no global
//!   barrier (the Distributed FrameBuffer): elapsed time is the slowest
//!   rank's clock, so compute/communication overlap is captured.

pub mod event;
pub mod lockstep;
pub mod net;

pub use event::EventWorld;
pub use lockstep::{LockstepWorld, RoundCost};
pub use net::NetModel;
