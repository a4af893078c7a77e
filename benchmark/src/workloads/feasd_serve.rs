//! The query service with no rendering: 1000-line LDJSON chunks through
//! `feasd::serve`, one chunk per cycle.
//!
//! The traffic comes from `feasd::traffic::generate` with the run's seed:
//! 10 % render-plan asks, 25 % one pixel off the lattice (a table miss until
//! backfilled), mixed priorities, and 2 % of the lines replaced by malformed
//! ones that must come back as `{"error":...}`. Every 100th cycle first
//! installs a rescaled model set: the generation swap and table rebuild are
//! the write beside the reads. Lines are generated and serialised during
//! set-up, outside any timed region; the service sees only text.

use super::{probes, Env, Outcome, Workload};
use crate::json::{self, Json};
use crate::trace::Tracer;
use dpp::Device;
use feasd::{Ask, DeviceClass, Feasd, FeasdConfig, Lattice, Query, TrafficConfig};
use perfmodel::batch::predict_batch;
use perfmodel::feasibility::ModelSet;
use perfmodel::fstable::{precompute, FeasTable};
use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::regression::LinearRegression;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::demo::{ground_truth, scale_model_set};
use std::hint::black_box;
use std::rc::Rc;

const CHUNK_LINES: usize = 1000;
/// Distinct chunks; cycles walk the pool round-robin.
const POOL_CHUNKS: usize = 128;
const INSTALL_EVERY: u64 = 100;
const MALFORMED_SHARE: f64 = 0.02;
/// On-lattice feasibility answers checked bit-for-bit per chunk.
const EXACT_CHECKS_PER_CHUNK: usize = 8;

/// What the reply to a request line must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Error,
    Answer,
    /// A feasibility ask: `per_frame_s` must equal this configuration's
    /// prediction under the model set of the generation the reply carries.
    Exact(RenderConfig),
}

struct Chunk {
    text: String,
    expect: Vec<Expect>,
}

fn query_line(q: &Query) -> (String, Expect) {
    let head =
        format!("\"device\":\"{}\",\"priority\":\"{}\"", q.device.label(), q.priority.label());
    match q.ask {
        Ask::Feasibility { config, budget_s, images } => {
            let side = (config.pixels as f64).sqrt().round() as u64;
            let line = format!(
                "{{\"ask\":\"feasibility\",{head},\"renderer\":\"{}\",\"image_side\":{side},\
                 \"cells_per_task\":{},\"tasks\":{},\"budget_s\":{budget_s},\"images\":{images}}}",
                config.renderer.name(),
                config.cells_per_task,
                config.tasks
            );
            (line, Expect::Exact(config))
        }
        Ask::Plan { cells_per_task, tasks, budget_s, images } => {
            let line = format!(
                "{{\"ask\":\"plan\",{head},\"cells_per_task\":{cells_per_task},\"tasks\":{tasks},\
                 \"budget_s\":{budget_s},\"images\":{images}}}"
            );
            (line, Expect::Answer)
        }
    }
}

/// A line the service must refuse: cut short, or well-formed JSON that is
/// not a valid query.
fn malformed_line(rng: &mut StdRng, valid: &str) -> String {
    match rng.gen_range(0..6u32) {
        0 => valid[..valid.len() / 2].to_string(),
        1 => valid.replace("\"budget_s\":", "\"budget_s\":-"),
        2 => valid.replace("\"tasks\":", "\"ranks\":"),
        3 => valid.replace("\"ask\":\"", "\"ask\":\"un"),
        4 => "[1,2,3]".to_string(),
        _ => "not json at all".to_string(),
    }
}

/// The chunk pool for `seed`: the same seed gives the same text.
fn generate_chunks(seed: u64) -> Vec<Chunk> {
    let lattice = Lattice::service_default();
    let traffic = TrafficConfig {
        off_lattice: 0.25,
        plan_fraction: 0.10,
        ..TrafficConfig::uniform(POOL_CHUNKS * CHUNK_LINES, seed, 1000.0)
    };
    let events = feasd::generate(&traffic, &lattice);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_6c66_6f72_6d64);
    events
        .chunks(CHUNK_LINES)
        .map(|events| {
            let mut text = String::with_capacity(CHUNK_LINES * 160);
            let mut expect = Vec::with_capacity(CHUNK_LINES);
            for event in events {
                let (line, expected) = query_line(&event.query);
                if rng.gen_bool(MALFORMED_SHARE) {
                    text.push_str(&malformed_line(&mut rng, &line));
                    expect.push(Expect::Error);
                } else {
                    text.push_str(&line);
                    expect.push(expected);
                }
                text.push('\n');
            }
            Chunk { text, expect }
        })
        .collect()
}

pub struct FeasdServe {
    tracer: Rc<Tracer>,
    service: Feasd,
    constants: MappingConstants,
    /// `models[g - 1]` is the set installed as generation `g`.
    models: Vec<ModelSet>,
    pool: Vec<Chunk>,
    cycles: u64,
    /// Chunk and reply bytes of the cycle that just ran.
    last_chunk: usize,
    reply: Vec<u8>,
    served: std::io::Result<()>,
    installed: bool,
}

impl FeasdServe {
    pub fn new(env: &Env) -> FeasdServe {
        let constants = MappingConstants::default();
        let service = Feasd::new(
            ground_truth(),
            constants,
            // The closed loop has one client; model evaluation stays on the
            // calling thread.
            FeasdConfig { pool: Device::Serial, ..FeasdConfig::default() },
        );
        FeasdServe {
            tracer: Rc::clone(&env.tracer),
            service,
            constants,
            models: vec![ground_truth()],
            pool: generate_chunks(env.seed),
            cycles: 0,
            last_chunk: 0,
            reply: Vec::with_capacity(CHUNK_LINES * 200),
            served: Ok(()),
            installed: true,
        }
    }

    fn reply_ok(&self, reply: &str, expect: Expect, exact: bool) -> bool {
        let Ok(value) = json::parse(reply) else { return false };
        let is_error = value.get("error").is_some();
        match expect {
            Expect::Error => is_error,
            Expect::Answer => !is_error && value.get("feasible").is_some(),
            Expect::Exact(config) => {
                if is_error {
                    return false;
                }
                if !exact {
                    return value.get("feasible").is_some();
                }
                let generation = value.get("generation").and_then(Json::as_f64).unwrap_or(0.0);
                let per_frame = value.get("per_frame_s").and_then(Json::as_f64);
                let set = (generation as usize).checked_sub(1).and_then(|g| self.models.get(g));
                match (set, per_frame) {
                    (Some(set), Some(got)) => {
                        let want = set.predict_frame_seconds(&config, &self.constants);
                        got.to_bits() == want.to_bits()
                    }
                    _ => false,
                }
            }
        }
    }

    /// Per-call costs of the service's own layers, on this run's traffic.
    fn probe_service(&self) {
        let tr = &self.tracer;
        let lines: Vec<&str> = self.pool[0]
            .text
            .lines()
            .zip(&self.pool[0].expect)
            .filter(|(_, e)| !matches!(e, Expect::Error))
            .map(|(l, _)| l)
            .collect();
        let per_line = |seconds: f64| seconds / lines.len() as f64 * 1e6;
        tr.value(
            "conduit.json_parse_us",
            per_line(probes::repeat(tr, "conduit.json_parse", || {
                lines.iter().filter(|l| feasd::wire::json_to_node(l).is_ok()).count()
            })),
        );
        tr.value(
            "feasd.wire_parse_us",
            per_line(probes::repeat(tr, "feasd.wire_parse", || {
                lines.iter().filter(|l| feasd::wire::query_from_json(l).is_ok()).count()
            })),
        );
        let queries: Vec<Query> =
            lines.iter().filter_map(|l| feasd::wire::query_from_json(l).ok()).collect();

        // One `batch_max` of queries in, one pump out.
        let batch = FeasdConfig::default().batch_max;
        let mut answers = Vec::new();
        for group in queries.chunks_exact(batch) {
            let ((), submit_s) = tr.span("feasd.submit", || {
                for q in group {
                    let _ = black_box(self.service.submit(*q));
                }
            });
            tr.value("feasd.submit_ns", submit_s / batch as f64 * 1e9);
            answers.extend(tr.measure("feasd.pump_batch_us", || self.service.pump()));
        }
        tr.value(
            "feasd.wire_format_us",
            probes::repeat(tr, "feasd.wire_format", || {
                answers.iter().map(|(_, a)| feasd::wire::answer_to_json(a).len()).sum::<usize>()
            }) / answers.len().max(1) as f64
                * 1e6,
        );
    }

    /// The model layer under the service: table sweep and probe, batched
    /// evaluation, the refit solve, and the two codecs.
    fn probe_perfmodel(&self) {
        let tr = &self.tracer;
        let set = ground_truth();
        let k = self.constants;
        let lattice = Lattice::service_default();
        let sets = [(DeviceClass::Serial, &set), (DeviceClass::Parallel, &set)];
        let sweep = || precompute(&sets, &k, &lattice, &Device::Serial, 1);
        tr.value("perfmodel.precompute_s", probes::repeat(tr, "perfmodel.precompute", sweep));
        let table = sweep();
        let keys = lattice.points();
        tr.value(
            "perfmodel.fstable_probe_ns",
            probes::repeat(tr, "perfmodel.fstable_probe", || {
                table.resolve_sorted(&keys).iter().flatten().count()
            }) / keys.len() as f64
                * 1e9,
        );
        let configs: Vec<RenderConfig> = keys.iter().filter_map(|key| key.to_config()).collect();
        tr.value(
            "perfmodel.predict_batch_ns",
            probes::repeat(tr, "perfmodel.predict_batch", || {
                predict_batch(&set, &k, &configs, &Device::Serial)
            }) / configs.len() as f64
                * 1e9,
        );

        // The scheduler's refit window: 96 observations of 4 features.
        let mut rng = StdRng::seed_from_u64(96);
        let xs: Vec<Vec<f64>> = (0..96)
            .map(|_| {
                vec![
                    rng.gen_range(1e3..1e6),
                    rng.gen_range(1e3..1e6),
                    rng.gen_range(1.0..64.0),
                    1.0,
                ]
            })
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| 2e-9 * x[0] + 1e-8 * x[1] + 1e-5 * x[2] + 1e-3).collect();
        tr.value(
            "perfmodel.fit_ms",
            probes::repeat(tr, "perfmodel.fit", || LinearRegression::fit(&xs, &ys)) * 1e3,
        );

        tr.value(
            "perfmodel.fst_encode_ms",
            probes::repeat(tr, "perfmodel.fst_encode", || table.encode()) * 1e3,
        );
        let bytes = table.encode();
        tr.value(
            "perfmodel.fst_decode_ms",
            probes::repeat(tr, "perfmodel.fst_decode", || FeasTable::decode(&bytes).is_ok()) * 1e3,
        );
        tr.value(
            "perfmodel.persist_roundtrip_ms",
            probes::repeat(tr, "perfmodel.persist_roundtrip", || {
                perfmodel::persist::from_text(&perfmodel::persist::to_text(&set, &k)).is_ok()
            }) * 1e3,
        );
    }
}

impl Workload for FeasdServe {
    fn cycle(&mut self) -> Outcome {
        let tr = Rc::clone(&self.tracer);
        let n = self.cycles;
        self.cycles += 1;
        if n > 0 && n.is_multiple_of(INSTALL_EVERY) {
            let set = scale_model_set(&ground_truth(), 1.0 + 0.01 * (n / INSTALL_EVERY) as f64);
            let result = tr.measure("feasd.install_models_ms", || {
                self.service.install_models(set.clone(), self.constants)
            });
            self.installed &= matches!(result, Ok(g) if g == self.models.len() as u64 + 1);
            self.models.push(set);
        }
        self.last_chunk = (n % POOL_CHUNKS as u64) as usize;
        self.reply.clear();
        let input = self.pool[self.last_chunk].text.as_bytes();
        self.served =
            tr.span("feasd.serve", || feasd::serve(&self.service, input, &mut self.reply)).0;
        let lines = self.reply.iter().filter(|&&b| b == b'\n').count();
        Outcome { delivered: lines as u64, ..Outcome::default() }
    }

    fn check(&mut self) -> Outcome {
        let mut o = Outcome::default();
        o.check(self.served.is_ok() && self.installed);
        let chunk = &self.pool[self.last_chunk];
        let text = String::from_utf8_lossy(&self.reply);
        let replies: Vec<&str> = text.lines().collect();
        // One reply line per request line, in order.
        o.check(replies.len() == chunk.expect.len());
        let mut exact_left = EXACT_CHECKS_PER_CHUNK;
        for (reply, expect) in replies.iter().zip(&chunk.expect) {
            let exact = matches!(expect, Expect::Exact(_)) && exact_left > 0;
            exact_left -= usize::from(exact);
            o.check(self.reply_ok(reply, *expect, exact));
        }
        o
    }

    fn probes(&mut self) {
        // The service's own counters over the measured cycles, read before
        // the probes below add their traffic.
        let stats = self.service.stats();
        self.tracer.value("feasd.hit_frac", stats.hit_rate());
        self.tracer.value("feasd.shed_frac", stats.shed_rate());
        self.tracer.value("feasd.generations", self.service.generation() as f64);
        self.probe_service();
        self.probe_perfmodel();
    }

    fn verify(&mut self) -> Outcome {
        let mut o = Outcome::default();
        let stats = self.service.stats();
        // The synchronous loop leaves nothing queued and sheds nothing.
        o.check(self.service.depth() == 0 && stats.shed == 0);
        o.check(stats.answered == stats.submitted);
        o.check(self.service.generation() == self.models.len() as u64);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ldjson() {
        let text = |seed| generate_chunks(seed).iter().map(|c| c.text.clone()).collect::<String>();
        let (a, b, c) = (text(11), text(11), text(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.lines().count(), POOL_CHUNKS * CHUNK_LINES);
    }

    #[test]
    fn malformed_lines_are_refused_and_valid_ones_parse() {
        let chunks = generate_chunks(5);
        let mut refused = 0;
        for chunk in &chunks[..4] {
            for (line, expect) in chunk.text.lines().zip(&chunk.expect) {
                let parsed = feasd::wire::query_from_json(line);
                assert_eq!(parsed.is_err(), matches!(expect, Expect::Error), "{line}");
                refused += usize::from(parsed.is_err());
            }
        }
        // About 2 % of 4000 lines.
        assert!((40..=130).contains(&refused), "{refused} malformed lines");
    }
}
