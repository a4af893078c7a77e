//! One run of one workload: set up, measure for the given seconds, check the
//! outputs, report.
//!
//! `--trace 0` gives the end-to-end metrics with the tracer off. `--trace 1`
//! gives the per-layer metrics: plain cycles alternate with cycles that have
//! spans on and their stages replayed through direct layer calls, and the
//! ratio of the two cycle medians is `harness.trace_overhead_frac`.
//!
//! Every time in the result is in reference-host seconds (see `calib`); the
//! raw wall seconds of each cycle and the scale are in the result file.

use crate::calib::{self, HostSpeed};
use crate::host;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Env, Outcome, Workload, WARMUP_CYCLES};
use dpp::Device;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Set-up runs this many times in a process; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub struct RunConfig {
    /// One of `spec::WORKLOADS`.
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub cycles: usize,
    /// Raw wall seconds of every measured plain cycle, in run order.
    pub cycle_s: Vec<f64>,
    /// Median calibration-kernel seconds of the run, and how many samples.
    pub kernel_s: f64,
    pub kernel_samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }))
    }

    /// The result line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The result file: the result line's content plus what produced it.
    pub fn file_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("host", host::stamp(self.threads)),
            (
                "cycles",
                Json::obj([
                    ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
                    ("warmup", Json::Num(WARMUP_CYCLES as f64)),
                    ("measured", Json::Num(self.cycles as f64)),
                ]),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            (
                "host_speed",
                Json::obj([
                    ("kernel_s", Json::Num(self.kernel_s)),
                    ("kernel_samples", Json::Num(self.kernel_samples as f64)),
                    ("reference_s", Json::Num(calib::REFERENCE_S)),
                    ("scale", Json::Num(calib::REFERENCE_S / self.kernel_s)),
                ]),
            ),
            ("raw_cycle_s", Json::Arr(self.cycle_s.iter().map(|&s| Json::Num(s)).collect())),
            // The benchmark measures; it never claims a gain.
            ("claim", Json::Null),
        ])
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} s, {} threads on {} cores, {} measured cycles, {} of {} operations failed)\n  \
             times in reference-host seconds: wall seconds x {:.4} (calibration kernel {:.4} ms here, {} ms there)\n",
            self.workload,
            self.seed,
            self.seconds,
            self.threads,
            host::cores(),
            self.cycles,
            self.failed,
            self.attempted,
            calib::REFERENCE_S / self.kernel_s,
            self.kernel_s * 1e3,
            calib::REFERENCE_S * 1e3
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<36} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

/// Where result files, traces and image scratch go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Phase {
    cycle_s: Vec<f64>,
    cpu_s: f64,
    outcome: Outcome,
}

impl Phase {
    fn new() -> Phase {
        Phase { cycle_s: Vec::new(), cpu_s: 0.0, outcome: Outcome::default() }
    }

    /// One cycle: untimed prepare, the timed cycle, untimed checks, and on a
    /// traced cycle the replay of its stages.
    fn cycle(&mut self, w: &mut dyn Workload, tracer: &Tracer, speed: &mut HostSpeed) {
        tracer.next_cycle();
        speed.sample();
        w.prepare();
        let cpu = host::cpu_seconds();
        let t = Instant::now();
        let delivered = w.cycle();
        self.cycle_s.push(t.elapsed().as_secs_f64());
        self.cpu_s += host::cpu_seconds() - cpu;
        self.outcome.add(delivered);
        self.outcome.add(w.check());
        if tracer.is_on() {
            w.replay();
        }
    }
}

/// Closed loop, one client: cycles back to back until `seconds` have passed.
/// A traced run pairs every plain cycle with a traced one, so the
/// simulation's drift over the run cancels out of the ratio of their
/// medians, and swaps their order from pair to pair, so each kind follows a
/// replay (which leaves the caches cold) equally often.
fn run_cycles(
    w: &mut dyn Workload,
    tracer: &Tracer,
    speed: &mut HostSpeed,
    seconds: f64,
    trace: bool,
) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::new(), Phase::new());
    let start = Instant::now();
    let mut traced_first = false;
    loop {
        let order: &[bool] = match (trace, traced_first) {
            (false, _) => &[false],
            (true, false) => &[false, true],
            (true, true) => &[true, false],
        };
        for &on in order {
            tracer.set_on(on);
            if on { &mut traced } else { &mut plain }.cycle(w, tracer, speed);
        }
        traced_first = !traced_first;
        if start.elapsed().as_secs_f64() >= seconds {
            // Probes and end-of-run values record only with the tracer on.
            tracer.set_on(trace);
            return (plain, traced);
        }
    }
}

pub fn run(cfg: &RunConfig) -> std::io::Result<Report> {
    let name = cfg.workload;
    let threads = host::pool_threads();
    let scratch = out_dir().join(format!("scratch-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let tracer = Rc::new(Tracer::new(cfg.trace));
    let env = Env {
        seed: cfg.seed,
        device: Device::parallel_with_threads(threads),
        out_dir: &scratch,
        tracer: Rc::clone(&tracer),
    };

    // Set-up, several times over so one run yields a median; the last
    // instance is the one measured.
    let mut speed = HostSpeed::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        speed.sample();
        let t = Instant::now();
        workload = Some(workloads::build(name, &env));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS is at least 1");
    let w = workload.as_mut();

    let mut metrics = Vec::new();
    let (phase, traced) = run_cycles(w, &tracer, &mut speed, cfg.seconds, cfg.trace);
    let scale = speed.scale();
    let cycle_s = phase.cycle_s.clone();
    let (cycles, mut outcome) = if cfg.trace {
        let plain = phase;
        w.probes();
        let overhead = median(&traced.cycle_s) / median(&plain.cycle_s).max(1e-12) - 1.0;
        // Reported, not gated: on a shared host the tail measures the
        // neighbours more than the code.
        tracer.value("harness.cycle_s_p90", percentile(&plain.cycle_s, 0.9));
        tracer.value("harness.trace_overhead_frac", overhead);
        tracer.value("harness.calibration_ms", speed.kernel_s() * 1e3);
        tracer.value("harness.threads", threads as f64);
        tracer.value("harness.cores", host::cores() as f64);
        let medians = tracer.medians();
        // A sample under a name the tables do not have would vanish silently.
        if let Some(stray) = medians.keys().find(|k| !PER_LAYER.iter().any(|m| m.0 == **k)) {
            panic!("per-layer sample `{stray}` is not in spec::PER_LAYER");
        }
        for (name, unit) in PER_LAYER {
            // A layer this workload never enters reads 0.
            let value = medians.get(name).copied().unwrap_or(0.0);
            metrics.push(Metric { name, unit, value: calib::to_reference(value, unit, scale) });
        }
        let mut outcome = plain.outcome;
        outcome.add(traced.outcome);
        (plain.cycle_s.len() + traced.cycle_s.len(), outcome)
    } else {
        let busy_s: f64 = phase.cycle_s.iter().sum();
        let n = phase.cycle_s.len() as f64;
        let values = [
            ("setup_s", median(&setup_s)),
            ("cycle_s_p50", median(&phase.cycle_s)),
            ("delivered_per_s", phase.outcome.delivered as f64 / busy_s.max(1e-12)),
            ("cpu_s_per_cycle", phase.cpu_s / n),
            ("peak_rss_mb", host::peak_rss_mib()),
        ];
        for ((name, unit), (computed, value)) in END_TO_END.into_iter().zip(values) {
            assert_eq!(name, computed, "end-to-end metrics out of step with spec::END_TO_END");
            metrics.push(Metric { name, unit, value: calib::to_reference(value, unit, scale) });
        }
        (phase.cycle_s.len(), phase.outcome)
    };
    outcome.add(w.verify());
    drop(workload);

    let report = Report {
        workload: name,
        trace: cfg.trace,
        seed: cfg.seed,
        seconds: cfg.seconds,
        threads,
        cycles,
        cycle_s,
        kernel_s: speed.kernel_s(),
        kernel_samples: speed.samples(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    };
    let kind = if cfg.trace { "layers" } else { "e2e" };
    std::fs::write(out_dir().join(format!("{}.{kind}.json", name)), report.file_json().pretty())?;
    if cfg.trace {
        std::fs::write(out_dir().join(format!("{}.trace.json", name)), tracer.chrome_trace())?;
    }
    std::fs::remove_dir_all(&scratch)?;
    Ok(report)
}
