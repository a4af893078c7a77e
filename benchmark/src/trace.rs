//! The harness's tracer: spans around calls into the system's public
//! functions, and the per-layer samples taken at the same boundaries.
//!
//! All spans are recorded from the benchmark's own files; the system under
//! test carries no tracing of its own yet. A span is (name, start, end,
//! parent, cycle id); spans stay in memory and are written out as
//! Chrome-trace JSON when the run ends. With the tracer off (`--trace 0`)
//! `measure` runs the closure and touches nothing else, so the end-to-end
//! numbers never pay for it.

use crate::stats::median;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Cycle the span belongs to (spans of one cycle share it).
    pub cycle: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let me = &spans[index];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

pub struct Tracer {
    on: Cell<bool>,
    cycle: Cell<u64>,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Multiplier from seconds to the unit a metric name ends in.
fn scale_of(metric: &str) -> f64 {
    if metric.ends_with("_ns") {
        1e9
    } else if metric.ends_with("_us") {
        1e6
    } else if metric.ends_with("_ms") {
        1e3
    } else {
        1.0
    }
}

/// `strawman.execute_s` -> `strawman.execute`.
fn span_name(metric: &'static str) -> &'static str {
    metric.rsplit_once('_').map_or(metric, |(head, _)| head)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            cycle: Cell::new(0),
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Spans recorded from now on belong to the next cycle.
    pub fn next_cycle(&self) {
        self.cycle.set(self.cycle.get() + 1);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span and return its result with the span's seconds.
    /// Off, this is a plain call and the seconds are 0.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on.get() {
            return (f(), 0.0);
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.open.last().copied();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                cycle: self.cycle.get(),
            });
            inner.open.push(index);
            index
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        let end_ns = self.now_ns();
        inner.spans[index].end_ns = end_ns;
        inner.open.pop();
        let seconds = (end_ns - inner.spans[index].start_ns) as f64 * 1e-9;
        (out, seconds)
    }

    /// Run `f` inside the span named after the per-layer metric (minus its
    /// unit suffix) and record the elapsed time as one sample of it, in the
    /// unit the name ends in.
    pub fn measure<R>(&self, metric: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let (out, seconds) = self.span(span_name(metric), f);
        self.value(metric, seconds * scale_of(metric));
        out
    }

    /// Record one sample of a per-layer metric (a count, a ratio, or a time
    /// the caller summed or read from the system's own phase records).
    pub fn value(&self, metric: &'static str, v: f64) {
        if self.on.get() {
            self.inner.borrow_mut().values.entry(metric).or_default().push(v);
        }
    }

    /// Index of the most recent span called `name`.
    pub fn last_span(&self, name: &str) -> Option<usize> {
        self.inner.borrow().spans.iter().rposition(|s| s.name == name)
    }

    /// A span's self time and its whole duration, in seconds.
    pub fn self_and_total_seconds(&self, index: usize) -> (f64, f64) {
        let inner = self.inner.borrow();
        let own = self_time_ns(&inner.spans, index) as f64 * 1e-9;
        (own, inner.spans[index].duration_ns() as f64 * 1e-9)
    }

    /// Median of each metric's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.inner.borrow().values.iter().map(|(k, v)| (*k, median(v))).collect()
    }

    /// Chrome-trace JSON ("complete" events, microseconds); open it in
    /// `chrome://tracing` or Perfetto. Nesting is by time containment, and
    /// `args` carries the cycle id and the parent span.
    pub fn chrome_trace(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"cycle\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                parent,
                s.cycle
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, cycle: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("execute", 100, 1100, None),
            span("admit", 150, 250, Some(0)),
            span("observe", 600, 900, Some(0)),
            // A grandchild is covered by its own parent, not counted twice.
            span("inner", 650, 700, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 100 - 300);
        assert_eq!(self_time_ns(&spans, 2), 300 - 50);
        assert_eq!(self_time_ns(&spans, 1), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Clipped to the parent's interval.
            span("c", 90, 150, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70 - 10);
    }

    #[test]
    fn spans_nest_and_carry_the_cycle_id() {
        let t = Tracer::new(true);
        t.next_cycle();
        let ((), outer_s) = t.span("outer", || {
            t.measure("layer.call_us", || std::hint::black_box(1 + 1));
        });
        assert!(outer_s >= 0.0);
        let inner = t.last_span("layer.call").unwrap();
        let outer = t.last_span("outer").unwrap();
        let spans = t.inner.borrow().spans.clone();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].cycle, 1);
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
        assert_eq!(t.medians().len(), 1);
        assert!(t.chrome_trace().contains("\"name\":\"layer.call\""));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.measure("x.y_s", || 5), 5);
        t.value("x.n", 1.0);
        assert!(t.inner.borrow().spans.is_empty());
        assert!(t.medians().is_empty());
    }

    #[test]
    fn metric_suffix_sets_the_unit() {
        assert_eq!(scale_of("a.b_ns"), 1e9);
        assert_eq!(scale_of("a.b_us"), 1e6);
        assert_eq!(scale_of("a.b_ms"), 1e3);
        assert_eq!(scale_of("a.b_s"), 1.0);
        assert_eq!(span_name("strawman.execute_s"), "strawman.execute");
    }
}
