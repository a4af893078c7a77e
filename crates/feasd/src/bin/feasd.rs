//! The `feasd` server binary: line-delimited JSON over stdin/stdout.
//!
//! ```text
//! echo '{"ask":"feasibility","renderer":"volume_rendering","image_side":1024,
//!        "cells_per_task":200,"tasks":64,"budget_s":10,"images":100}' \
//!   | cargo run -p feasd --release
//! ```
//!
//! Every request line produces exactly one reply line (an answer or an
//! `{"error": ...}` object), so the stream composes with shell pipes. The
//! service sweeps the default lattice at startup, so on-lattice queries hit
//! the table; off-lattice ones are evaluated live and backfilled.

use feasd::{serve, Feasd, FeasdConfig};
use perfmodel::mapping::MappingConstants;
use std::io::{stdin, stdout, BufWriter};

fn main() {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: feasd  (LDJSON queries on stdin, answers on stdout)");
        return;
    }
    // The demo ground-truth fit stands in for a calibrated set; a real
    // deployment would install a fit from its own study here.
    let service = Feasd::new(
        sched::demo::ground_truth(),
        MappingConstants::default(),
        FeasdConfig::default(),
    );
    eprintln!(
        "feasd ready: generation {}, {} precomputed lattice points",
        service.generation(),
        service.table_len()
    );
    let out = BufWriter::new(stdout().lock());
    if let Err(e) = serve(&service, stdin().lock(), out) {
        eprintln!("feasd: io error: {e}");
        std::process::exit(1);
    }
}
