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
//! One engine charges it, [`EventWorld`]: a clock per rank for message-driven
//! work (the Distributed FrameBuffer, the rebalancer's migrations, the
//! study's and feasd's one-rank service clocks) plus a barrier for
//! round-structured exchanges (direct-send, binary-swap, radix-k); [`event`]
//! has the rules.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod event;
pub mod net;

pub use event::{EventWorld, RoundBytes, RoundCost};
pub use net::NetModel;

/// What `benchmark/` still calls the engine (barriered rounds once had a
/// world of their own); it goes in a benchmark-only PR. Nothing else names it.
pub type LockstepWorld = EventWorld;
