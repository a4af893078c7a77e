//! `feasd` — feasibility-as-a-service.
//!
//! The paper closes with a question that is pure model evaluation: *can I
//! render X₁ images in X₂ seconds?* That makes it servable: this crate is a
//! long-running query service on top of [`perfmodel`] + [`sched`] that
//! admits thousands of concurrent feasibility / render-plan queries and
//! answers them from a precomputed, binary-searchable feasibility table
//! ([`perfmodel::fstable`]), falling back to live batched model evaluation
//! on the dpp pool only on misses (which then backfill the table).
//!
//! Architecture (DESIGN.md §10):
//!
//! * **Front-end** — an in-process API ([`Feasd::submit`] / [`Feasd::pump`])
//!   plus a line-delimited-JSON loop ([`serve`]); [`wire`] reads a line
//!   straight into a [`Query`] and writes the answer straight into the
//!   reply, building no tree; no network dependencies.
//! * **Batching** — `pump` drains the queue in priority order and coalesces
//!   every table miss from the batch into one
//!   [`perfmodel::batch::predict_batch`] call.
//! * **Model generations** — one `(ModelSet, MappingConstants)` fit and the
//!   table swept from it, held as one value; a batch takes one generation,
//!   and an online refit ([`Feasd::install_models`]) sweeps the new set and
//!   swaps the whole value in.
//! * **Backpressure** — queue depth drives [`sched::QueuePressure`] (the
//!   admission ladder): speculative queries shed first, normal next,
//!   `must-render` never — it preempts the queue instead ([`sched::Priority`]).
//! * **Blocking** — nothing blocks, because nothing waits: [`serve`], the
//!   `feasd` binary and [`simulate`] are synchronous submit-then-pump loops
//!   with no channel in them (the `disallowed-methods` ban on `mpsc` in
//!   `clippy.toml` keeps one out).
//! * **Time** — the library reads no clock: [`simulate`] charges service
//!   time to an [`mpirt::EventWorld`], and the benchmark times the real one.

pub mod queue;
pub mod service;
pub mod simloop;
pub mod traffic;
pub mod wire;

pub use perfmodel::fstable::{DeviceClass, FeasTable, Lattice, TableKey};
pub use sched::Priority;
pub use service::{
    Answer, Ask, Feasd, FeasdConfig, InstallError, Query, Shed, Source, StatsSnapshot, Ticket,
};
pub use simloop::{simulate, SimReport};
pub use traffic::{generate, ArrivalEvent, ArrivalPattern, TrafficConfig};

use std::io::{self, BufRead, Write};

/// Serve line-delimited JSON queries from `input` to `output` until EOF:
/// each non-empty line is parsed ([`wire::query_from_json`]), admitted
/// through the service, answered, and written back as one JSON line, all
/// through one line buffer and one reply buffer. Malformed or shed queries
/// produce an `{"error": ...}` line so the stream stays in lockstep.
pub fn serve<R: BufRead, W: Write>(service: &Feasd, mut input: R, mut output: W) -> io::Result<()> {
    let (mut line, mut reply) = (String::new(), String::new());
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return output.flush();
        }
        if line.trim().is_empty() {
            continue;
        }
        // What `BufRead::lines` strips: a `\n`, then a `\r` before it.
        let request = line.strip_suffix('\n').map_or(&*line, |l| l.strip_suffix('\r').unwrap_or(l));
        reply.clear();
        match wire::query_from_json(request) {
            Err(e) => wire::write_error(&mut reply, &format!("bad query: {e}")),
            Ok(query) => match service.submit(query) {
                Err(Shed { level, priority: p }) => {
                    let why = format!("shed at pressure level {level} ({} priority)", p.label());
                    wire::write_error(&mut reply, &why)
                }
                Ok(ticket) => match service.pump().iter().find(|(t, _)| *t == ticket) {
                    Some((_, answer)) => wire::write_answer(&mut reply, answer),
                    // Only when other submitters keep more than a batch
                    // queued ahead of this line; never wait for it.
                    None => wire::write_error(&mut reply, "answer lost"),
                },
            },
        }
        reply.push('\n');
        output.write_all(reply.as_bytes())?;
    }
}
