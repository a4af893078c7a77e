//! The pass/resource DAG builder and its deterministic executor.

use crate::counters::PhaseTimer;
use crate::graph::cache::GraphCache;
use std::any::Any;
use std::sync::Arc;

/// Handle to a declared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceId(u32);

/// Handle to a declared pass (for attaching fallbacks and cache keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassId(u32);

/// Everything that can go wrong building or running a graph. Graph bugs are
/// programming errors, but the render crate bans panics, so the executor
/// reports them as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The DAG has a cycle; `stuck` names the passes that never became ready.
    Cycle { stuck: Vec<&'static str> },
    /// Two passes (or a pass and an import) both write one resource.
    DuplicateWriter { resource: String, pass: &'static str },
    /// A pass reads a resource nothing writes or imports.
    NoWriter { resource: String, pass: &'static str },
    /// A resource was read (or exported) before any value was put into it.
    MissingValue { resource: String, pass: &'static str },
    /// A slot held a different type than the reader asked for.
    TypeMismatch { resource: String, pass: &'static str },
    /// A pass touched a resource it did not declare.
    Undeclared { resource: String, pass: &'static str },
    /// A cached pass wrote an owned (non-`Arc`) value, which cannot be
    /// retained across frames.
    CacheNeedsShared { resource: String, pass: &'static str },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle { stuck } => write!(f, "graph cycle through {stuck:?}"),
            GraphError::DuplicateWriter { resource, pass } => {
                write!(f, "resource {resource} has a second writer {pass}")
            }
            GraphError::NoWriter { resource, pass } => {
                write!(f, "pass {pass} reads {resource}, which nothing writes")
            }
            GraphError::MissingValue { resource, pass } => {
                write!(f, "pass {pass} found no value in {resource}")
            }
            GraphError::TypeMismatch { resource, pass } => {
                write!(f, "pass {pass} read {resource} with the wrong type")
            }
            GraphError::Undeclared { resource, pass } => {
                write!(f, "pass {pass} touched undeclared resource {resource}")
            }
            GraphError::CacheNeedsShared { resource, pass } => {
                write!(f, "cached pass {pass} must write {resource} as a shared Arc")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// One executed pass, for reporting and for the per-pass model features.
#[derive(Debug, Clone)]
pub struct PassRecord {
    pub name: &'static str,
    /// Declared algorithmic work units (the IPC-proxy of `PhaseRecord`).
    pub work_units: u64,
    pub seconds: f64,
    /// The pass was satisfied from the cross-frame cache.
    pub cached: bool,
    /// The pass ran its degradation fallback instead of the full kernel.
    pub skipped: bool,
    /// Bytes of intermediate resources released right after this pass
    /// (alias reuse the hard-coded pipelines would have kept live).
    pub freed_bytes: usize,
}

/// A slot's value: owned by the graph, shared with the cross-frame cache, or
/// borrowed from the caller for the frame (read-only scene data).
enum SlotVal<'a> {
    Owned(Box<dyn Any + Send>),
    Shared(Arc<dyn Any + Send + Sync>),
    Borrowed(&'a (dyn Any + Send + Sync)),
}

type PassFn<'a> = Box<dyn FnOnce(&mut PassCtx<'_, 'a>) -> Result<(), GraphError> + 'a>;

struct PassDecl<'a> {
    name: &'static str,
    reads: Vec<ResourceId>,
    writes: Vec<ResourceId>,
    work_units: u64,
    run: PassFn<'a>,
    fallback: Option<PassFn<'a>>,
    cache_key: Option<u64>,
}

/// The scoped view a pass closure gets over the resource slots: reads and
/// writes are checked against the pass's declarations, so the DAG the
/// executor scheduled is the DAG the pass actually uses.
pub struct PassCtx<'s, 'a> {
    slots: &'s mut [Option<SlotVal<'a>>],
    bytes: &'s mut [usize],
    names: &'s [String],
    pass: &'static str,
    reads: &'s [ResourceId],
    writes: &'s [ResourceId],
    work_override: std::cell::Cell<Option<u64>>,
}

impl PassCtx<'_, '_> {
    fn err_for(&self, id: ResourceId, kind: fn(String, &'static str) -> GraphError) -> GraphError {
        kind(self.names[id.0 as usize].clone(), self.pass)
    }

    fn check_declared(&self, id: ResourceId, set: &[ResourceId]) -> Result<(), GraphError> {
        if set.contains(&id) {
            Ok(())
        } else {
            Err(self.err_for(id, |resource, pass| GraphError::Undeclared { resource, pass }))
        }
    }

    /// Borrow a declared-read resource.
    pub fn read<T: Any>(&self, id: ResourceId) -> Result<&T, GraphError> {
        self.check_declared(id, self.reads)?;
        let slot = self.slots[id.0 as usize].as_ref().ok_or_else(|| {
            self.err_for(id, |resource, pass| GraphError::MissingValue { resource, pass })
        })?;
        let any: &dyn Any = match slot {
            SlotVal::Owned(b) => b.as_ref(),
            SlotVal::Shared(a) => a.as_ref(),
            SlotVal::Borrowed(r) => *r,
        };
        any.downcast_ref::<T>().ok_or_else(|| {
            self.err_for(id, |resource, pass| GraphError::TypeMismatch { resource, pass })
        })
    }

    /// Store a value into a declared-write slot. `approx_bytes` feeds the
    /// aliasing accountant (peak-live-bytes reporting); estimate it with
    /// [`vec_bytes`] for buffers and 0 for small scalars.
    pub fn put<T: Any + Send>(
        &mut self,
        id: ResourceId,
        value: T,
        approx_bytes: usize,
    ) -> Result<(), GraphError> {
        self.check_declared(id, self.writes)?;
        self.slots[id.0 as usize] = Some(SlotVal::Owned(Box::new(value)));
        self.bytes[id.0 as usize] = approx_bytes;
        Ok(())
    }

    /// Report the pass's actual work units when they depend on runtime data
    /// (e.g. rays after stream compaction). Overrides the declared count in
    /// both the timer record and the [`PassRecord`].
    pub fn set_work_units(&self, work_units: u64) {
        self.work_override.set(Some(work_units));
    }

    /// Store a shared (cacheable) value into a declared-write slot.
    pub fn put_shared<T: Any + Send + Sync>(
        &mut self,
        id: ResourceId,
        value: Arc<T>,
        approx_bytes: usize,
    ) -> Result<(), GraphError> {
        self.check_declared(id, self.writes)?;
        self.slots[id.0 as usize] = Some(SlotVal::Shared(value));
        self.bytes[id.0 as usize] = approx_bytes;
        Ok(())
    }
}

/// Approximate heap bytes of a `Vec<T>` with `len` elements.
pub fn vec_bytes<T>(len: usize) -> usize {
    len * std::mem::size_of::<T>()
}

/// What a finished graph hands back: per-pass records, the raw
/// [`PhaseTimer`] (mergeable into renderer outputs), aliasing statistics,
/// and the exported resources.
pub struct GraphRun<'a> {
    pub records: Vec<PassRecord>,
    pub timer: PhaseTimer,
    /// Peak bytes of simultaneously live intermediate resources.
    pub peak_live_bytes: usize,
    /// Sum of all resource bytes ever put — what a pipeline holding every
    /// intermediate to the end would have kept live.
    pub total_bytes: usize,
    slots: Vec<Option<SlotVal<'a>>>,
    names: Vec<String>,
}

impl GraphRun<'_> {
    /// Move an exported owned resource out of the run.
    pub fn take<T: Any>(&mut self, id: ResourceId) -> Result<T, GraphError> {
        let name = self.names[id.0 as usize].clone();
        let slot = self.slots[id.0 as usize]
            .take()
            .ok_or_else(|| GraphError::MissingValue { resource: name.clone(), pass: "export" })?;
        match slot {
            SlotVal::Owned(b) => b
                .downcast::<T>()
                .map(|v| *v)
                .map_err(|_| GraphError::TypeMismatch { resource: name, pass: "export" }),
            _ => Err(GraphError::TypeMismatch { resource: name, pass: "export" }),
        }
    }
}

/// Builder + executor for one frame's pass DAG. Lifetime `'a` lets pass
/// closures borrow the caller's scene data (geometry, grids, cameras).
pub struct FrameGraph<'a> {
    names: Vec<String>,
    passes: Vec<PassDecl<'a>>,
    /// Caller-owned values, borrowed for the frame (see [`FrameGraph::import_ref`]).
    imports: Vec<(ResourceId, &'a (dyn Any + Send + Sync))>,
    exports: Vec<ResourceId>,
}

impl Default for FrameGraph<'_> {
    fn default() -> Self {
        FrameGraph::new()
    }
}

impl<'a> FrameGraph<'a> {
    pub fn new() -> FrameGraph<'a> {
        FrameGraph {
            names: Vec::new(),
            passes: Vec::new(),
            imports: Vec::new(),
            exports: Vec::new(),
        }
    }

    /// Declare a resource slot.
    pub fn resource(&mut self, name: impl Into<String>) -> ResourceId {
        let id = ResourceId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Declare a resource backed by a value the caller keeps (a prebuilt
    /// acceleration structure, for one): passes `read` it like any other
    /// slot and nothing is copied. The bytes are the caller's, so the
    /// aliasing accountant charges none.
    pub fn import_ref<T: Any + Send + Sync>(
        &mut self,
        name: impl Into<String>,
        value: &'a T,
    ) -> ResourceId {
        let id = self.resource(name);
        self.imports.push((id, value));
        id
    }

    /// Declare a pass: `reads` and `writes` define the DAG edges; `run` does
    /// the work through its [`PassCtx`].
    pub fn add_pass(
        &mut self,
        name: &'static str,
        reads: &[ResourceId],
        writes: &[ResourceId],
        work_units: u64,
        run: impl FnOnce(&mut PassCtx<'_, 'a>) -> Result<(), GraphError> + 'a,
    ) -> PassId {
        let id = PassId(self.passes.len() as u32);
        self.passes.push(PassDecl {
            name,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            work_units,
            run: Box::new(run),
            fallback: None,
            cache_key: None,
        });
        id
    }

    /// Attach a cheap degradation fallback: when the executor is told to
    /// skip this pass, the fallback runs instead of the full kernel and must
    /// satisfy the same writes (e.g. shadows → all-visible).
    pub fn set_fallback(
        &mut self,
        pass: PassId,
        run: impl FnOnce(&mut PassCtx<'_, 'a>) -> Result<(), GraphError> + 'a,
    ) {
        self.passes[pass.0 as usize].fallback = Some(Box::new(run));
    }

    /// Mark a pass cacheable across frames under `key` (a fingerprint of its
    /// inputs). On a hit the executor installs the cached outputs without
    /// running the pass; on a miss it runs the pass and retains its (shared)
    /// outputs. Cached passes must `put_shared` every write.
    pub fn set_cache_key(&mut self, pass: PassId, key: u64) {
        self.passes[pass.0 as usize].cache_key = Some(key);
    }

    /// Keep a resource alive to the end of the run so the caller can
    /// [`GraphRun::take`] it.
    pub fn export(&mut self, id: ResourceId) {
        if !self.exports.contains(&id) {
            self.exports.push(id);
        }
    }

    /// Validate, topologically schedule, and run every pass. `skips` names
    /// passes whose fallback should run instead (names without a fallback
    /// are ignored); `cache` enables cross-frame reuse for passes with a
    /// cache key.
    pub fn execute(
        self,
        skips: &[&str],
        mut cache: Option<&mut GraphCache>,
    ) -> Result<GraphRun<'a>, GraphError> {
        let n_res = self.names.len();
        let n_pass = self.passes.len();

        // --- Single-writer validation. ---
        // writer[r]: None = nothing, Some(n_pass) = imported, Some(p) = pass p.
        let mut writer: Vec<Option<usize>> = vec![None; n_res];
        for (id, _) in &self.imports {
            if writer[id.0 as usize].is_some() {
                return Err(GraphError::DuplicateWriter {
                    resource: self.names[id.0 as usize].clone(),
                    pass: "import",
                });
            }
            writer[id.0 as usize] = Some(n_pass);
        }
        for (p, pass) in self.passes.iter().enumerate() {
            for w in &pass.writes {
                if writer[w.0 as usize].is_some() {
                    return Err(GraphError::DuplicateWriter {
                        resource: self.names[w.0 as usize].clone(),
                        pass: pass.name,
                    });
                }
                writer[w.0 as usize] = Some(p);
            }
        }

        // --- Dependency edges: writer(pass) -> reader(pass). ---
        let mut indegree = vec![0usize; n_pass];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n_pass];
        for (p, pass) in self.passes.iter().enumerate() {
            for r in &pass.reads {
                match writer[r.0 as usize] {
                    None => {
                        return Err(GraphError::NoWriter {
                            resource: self.names[r.0 as usize].clone(),
                            pass: pass.name,
                        })
                    }
                    Some(w) if w < n_pass => {
                        if !out_edges[w].contains(&p) {
                            out_edges[w].push(p);
                            indegree[p] += 1;
                        }
                    }
                    Some(_) => {} // imported: always ready
                }
            }
        }

        // --- Kahn's algorithm, ties broken by insertion (declaration) order
        //     so the schedule is deterministic. ---
        let mut order: Vec<usize> = Vec::with_capacity(n_pass);
        let mut placed = vec![false; n_pass];
        while order.len() < n_pass {
            let mut next = None;
            for p in 0..n_pass {
                if !placed[p] && indegree[p] == 0 {
                    next = Some(p);
                    break;
                }
            }
            let Some(p) = next else {
                let stuck: Vec<&'static str> =
                    (0..n_pass).filter(|&p| !placed[p]).map(|p| self.passes[p].name).collect();
                return Err(GraphError::Cycle { stuck });
            };
            placed[p] = true;
            order.push(p);
            for &succ in &out_edges[p] {
                indegree[succ] -= 1;
            }
        }

        // --- Last-use positions for alias reclamation. ---
        let mut position = vec![0usize; n_pass];
        for (pos, &p) in order.iter().enumerate() {
            position[p] = pos;
        }
        // usize::MAX = never free (exported or imported-but-unread).
        let mut last_use = vec![usize::MAX; n_res];
        for r in 0..n_res {
            if self.exports.iter().any(|e| e.0 as usize == r) {
                continue;
            }
            let mut last = match writer[r] {
                Some(w) if w < n_pass => Some(position[w]),
                _ => None,
            };
            for (p, pass) in self.passes.iter().enumerate() {
                if pass.reads.iter().any(|id| id.0 as usize == r) {
                    last = Some(last.map_or(position[p], |l: usize| l.max(position[p])));
                }
            }
            if let Some(l) = last {
                last_use[r] = l;
            }
        }

        // --- Run. ---
        let mut slots: Vec<Option<SlotVal<'a>>> = (0..n_res).map(|_| None).collect();
        let mut bytes = vec![0usize; n_res];
        let mut peak_live_bytes = 0usize;
        let mut total_bytes = 0usize;
        for (id, val) in self.imports {
            slots[id.0 as usize] = Some(SlotVal::Borrowed(val));
        }

        let mut timer = PhaseTimer::new();
        let mut records: Vec<PassRecord> = Vec::with_capacity(n_pass);
        let names = self.names;
        let mut passes: Vec<Option<PassDecl<'a>>> = self.passes.into_iter().map(Some).collect();

        for (pos, &p) in order.iter().enumerate() {
            let Some(pass) = passes[p].take() else {
                continue;
            };

            // Cross-frame cache hit?
            let mut cached = false;
            if let (Some(key), Some(c)) = (pass.cache_key, cache.as_deref_mut()) {
                if let Some(entry) = c.lookup(pass.name, key) {
                    timer.record(pass.name, 0.0, 0);
                    for (w, (val, b)) in pass.writes.iter().zip(entry) {
                        slots[w.0 as usize] = Some(SlotVal::Shared(val));
                        bytes[w.0 as usize] = b;
                    }
                    cached = true;
                }
            }

            let mut skipped = false;
            let mut work_units = if cached { 0 } else { pass.work_units };
            if !cached {
                let want_skip = skips.contains(&pass.name);
                let run = if want_skip {
                    match pass.fallback {
                        Some(fb) => {
                            skipped = true;
                            fb
                        }
                        None => pass.run,
                    }
                } else {
                    pass.run
                };
                let mut ctx = PassCtx {
                    slots: &mut slots,
                    bytes: &mut bytes,
                    names: &names,
                    pass: pass.name,
                    reads: &pass.reads,
                    writes: &pass.writes,
                    work_override: std::cell::Cell::new(None),
                };
                timer.run(pass.name, pass.work_units, || run(&mut ctx))?;
                if let Some(w) = ctx.work_override.get() {
                    work_units = w;
                    if let Some(rec) = timer.phases.last_mut() {
                        rec.work_units = w;
                    }
                }
            }

            // Every declared write must now hold a value.
            for w in &pass.writes {
                if slots[w.0 as usize].is_none() {
                    return Err(GraphError::MissingValue {
                        resource: names[w.0 as usize].clone(),
                        pass: pass.name,
                    });
                }
            }

            // Retain a cache-miss run's outputs for future frames.
            if let (Some(key), false) = (pass.cache_key, cached) {
                if let Some(c) = cache.as_deref_mut() {
                    let mut entry = Vec::with_capacity(pass.writes.len());
                    for w in &pass.writes {
                        match &slots[w.0 as usize] {
                            Some(SlotVal::Shared(a)) => {
                                entry.push((Arc::clone(a), bytes[w.0 as usize]))
                            }
                            _ => {
                                return Err(GraphError::CacheNeedsShared {
                                    resource: names[w.0 as usize].clone(),
                                    pass: pass.name,
                                })
                            }
                        }
                    }
                    c.insert(pass.name, key, entry);
                }
            }

            // Aliasing accountant: measure live bytes with the new outputs
            // resident, then free every resource whose last consumer just ran.
            total_bytes += pass.writes.iter().map(|w| bytes[w.0 as usize]).sum::<usize>();
            let live_now: usize =
                (0..n_res).filter(|&r| slots[r].is_some()).map(|r| bytes[r]).sum();
            peak_live_bytes = peak_live_bytes.max(live_now);
            let mut freed = 0usize;
            for r in 0..n_res {
                if last_use[r] == pos && slots[r].is_some() {
                    slots[r] = None;
                    freed += bytes[r];
                    bytes[r] = 0;
                }
            }

            let seconds =
                if cached { 0.0 } else { timer.phases.last().map_or(0.0, |ph| ph.seconds) };
            records.push(PassRecord {
                name: pass.name,
                work_units,
                seconds,
                cached,
                skipped,
                freed_bytes: freed,
            });
        }

        Ok(GraphRun { records, timer, peak_live_bytes, total_bytes, slots, names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_runs_in_order() {
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        let c = g.resource("c");
        g.add_pass("produce", &[], &[a], 1, move |ctx| ctx.put(a, 7u64, 8));
        g.add_pass("double", &[a], &[b], 1, move |ctx| {
            let v = *ctx.read::<u64>(a)?;
            ctx.put(b, v * 2, 8)
        });
        g.add_pass("stringify", &[b], &[c], 1, move |ctx| {
            let v = *ctx.read::<u64>(b)?;
            ctx.put(c, format!("{v}"), 2)
        });
        g.export(c);
        let mut run = g.execute(&[], None).unwrap();
        assert_eq!(run.take::<String>(c).unwrap(), "14");
        let names: Vec<_> = run.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["produce", "double", "stringify"]);
    }

    #[test]
    fn declaration_order_breaks_ties_even_when_added_backwards() {
        // Two independent producers feeding one consumer: the schedule must
        // follow declaration order, not readiness races.
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        let sum = g.resource("sum");
        g.add_pass("first", &[], &[a], 1, move |ctx| ctx.put(a, 1u64, 8));
        g.add_pass("second", &[], &[b], 1, move |ctx| ctx.put(b, 2u64, 8));
        g.add_pass("sum", &[a, b], &[sum], 1, move |ctx| {
            let v = *ctx.read::<u64>(a)? + *ctx.read::<u64>(b)?;
            ctx.put(sum, v, 8)
        });
        g.export(sum);
        let mut run = g.execute(&[], None).unwrap();
        assert_eq!(run.take::<u64>(sum).unwrap(), 3);
        let names: Vec<_> = run.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["first", "second", "sum"]);
    }

    #[test]
    fn out_of_order_declaration_is_scheduled_topologically() {
        // The consumer is declared before its producer.
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        g.add_pass("consume", &[a], &[b], 1, move |ctx| {
            let v = *ctx.read::<u64>(a)?;
            ctx.put(b, v + 1, 8)
        });
        g.add_pass("produce", &[], &[a], 1, move |ctx| ctx.put(a, 10u64, 8));
        g.export(b);
        let mut run = g.execute(&[], None).unwrap();
        assert_eq!(run.take::<u64>(b).unwrap(), 11);
        let names: Vec<_> = run.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["produce", "consume"]);
    }

    #[test]
    fn cycles_and_missing_writers_are_rejected() {
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        g.add_pass("x", &[b], &[a], 1, move |ctx| ctx.put(a, 0u64, 0));
        g.add_pass("y", &[a], &[b], 1, move |ctx| ctx.put(b, 0u64, 0));
        match g.execute(&[], None) {
            Err(GraphError::Cycle { stuck }) => assert_eq!(stuck, vec!["x", "y"]),
            other => {
                assert!(other.is_err(), "expected cycle");
            }
        }

        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        g.add_pass("reader", &[a], &[b], 1, move |ctx| ctx.put(b, 0u64, 0));
        assert_eq!(
            g.execute(&[], None).err(),
            Some(GraphError::NoWriter { resource: "a".into(), pass: "reader" })
        );
    }

    #[test]
    fn duplicate_writers_are_rejected() {
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        g.add_pass("w1", &[], &[a], 1, move |ctx| ctx.put(a, 0u64, 0));
        g.add_pass("w2", &[], &[a], 1, move |ctx| ctx.put(a, 1u64, 0));
        assert!(matches!(g.execute(&[], None), Err(GraphError::DuplicateWriter { .. })));
    }

    #[test]
    fn undeclared_access_is_rejected() {
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        g.add_pass("w", &[], &[a], 1, move |ctx| ctx.put(a, 1u64, 0));
        // Reads `a` without declaring it.
        g.add_pass("sneaky", &[], &[b], 1, move |ctx| {
            let v = *ctx.read::<u64>(a)?;
            ctx.put(b, v, 0)
        });
        assert!(matches!(g.execute(&[], None), Err(GraphError::Undeclared { .. })));
    }

    #[test]
    fn aliasing_frees_dead_intermediates_and_reports_peak() {
        // chain: big (1 MB) -> small, then big2 (1 MB) -> small2. With
        // aliasing the two big buffers are never live together.
        let mut g = FrameGraph::new();
        let big1 = g.resource("big1");
        let s1 = g.resource("s1");
        let big2 = g.resource("big2");
        let s2 = g.resource("s2");
        const MB: usize = 1 << 20;
        g.add_pass("p1", &[], &[big1], 1, move |ctx| ctx.put(big1, vec![0u8; MB], MB));
        g.add_pass("r1", &[big1], &[s1], 1, move |ctx| {
            let v = ctx.read::<Vec<u8>>(big1)?;
            ctx.put(s1, v.len(), 8)
        });
        g.add_pass("p2", &[s1], &[big2], 1, move |ctx| {
            let _ = ctx.read::<usize>(s1)?;
            ctx.put(big2, vec![0u8; MB], MB)
        });
        g.add_pass("r2", &[big2], &[s2], 1, move |ctx| {
            let v = ctx.read::<Vec<u8>>(big2)?;
            ctx.put(s2, v.len(), 8)
        });
        g.export(s2);
        let mut run = g.execute(&[], None).unwrap();
        assert_eq!(run.take::<usize>(s2).unwrap(), MB);
        assert_eq!(run.total_bytes, 2 * MB + 16);
        assert!(
            run.peak_live_bytes < run.total_bytes,
            "aliasing should beat keep-everything: peak {} vs total {}",
            run.peak_live_bytes,
            run.total_bytes
        );
        // big1 freed right after its last reader r1.
        let r1 = run.records.iter().find(|r| r.name == "r1").map(|r| r.freed_bytes);
        assert_eq!(r1, Some(MB));
    }

    #[test]
    fn fallback_runs_on_skip_and_only_on_skip() {
        let build = |skip: &'static [&'static str]| {
            let mut g = FrameGraph::new();
            let v = g.resource("v");
            let p = g.add_pass("expensive", &[], &[v], 1, move |ctx| ctx.put(v, 100u64, 8));
            g.set_fallback(p, move |ctx| ctx.put(v, 1u64, 8));
            g.export(v);
            let mut run = g.execute(skip, None).unwrap();
            (run.take::<u64>(v).unwrap(), run.records[0].skipped)
        };
        assert_eq!(build(&[]), (100, false));
        assert_eq!(build(&["expensive"]), (1, true));
        // Skipping a pass with no fallback is a no-op.
        let mut g = FrameGraph::new();
        let v = g.resource("v");
        g.add_pass("plain", &[], &[v], 1, move |ctx| ctx.put(v, 5u64, 8));
        g.export(v);
        let mut run = g.execute(&["plain"], None).unwrap();
        assert_eq!(run.take::<u64>(v).unwrap(), 5);
        assert!(!run.records[0].skipped);
    }

    #[test]
    fn cache_hits_skip_the_pass_and_misses_populate() {
        let mut cache = GraphCache::new(8);
        let run_once = |cache: &mut GraphCache, key: u64| -> (u64, bool) {
            let mut g = FrameGraph::new();
            let (v, out) = (g.resource("v"), g.resource("out"));
            let p =
                g.add_pass("build", &[], &[v], 1, move |ctx| ctx.put_shared(v, Arc::new(42u64), 8));
            g.set_cache_key(p, key);
            // Consumers see the shared value whether it was built or cached.
            g.add_pass("read", &[v], &[out], 1, move |ctx| ctx.put(out, *ctx.read::<u64>(v)?, 8));
            g.export(out);
            let mut run = g.execute(&[], Some(cache)).unwrap();
            (run.take::<u64>(out).unwrap(), run.records[0].cached)
        };
        assert_eq!(run_once(&mut cache, 1), (42, false));
        assert_eq!(run_once(&mut cache, 1), (42, true));
        assert_eq!(run_once(&mut cache, 2), (42, false)); // new fingerprint
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn cached_pass_with_owned_output_is_rejected() {
        let mut cache = GraphCache::new(8);
        let mut g = FrameGraph::new();
        let v = g.resource("v");
        let p = g.add_pass("build", &[], &[v], 1, move |ctx| ctx.put(v, 42u64, 8));
        g.set_cache_key(p, 1);
        g.export(v);
        assert!(matches!(
            g.execute(&[], Some(&mut cache)),
            Err(GraphError::CacheNeedsShared { .. })
        ));
    }

    #[test]
    fn type_mismatch_reports_resource_and_pass() {
        let mut g = FrameGraph::new();
        let a = g.resource("a");
        let b = g.resource("b");
        g.add_pass("w", &[], &[a], 1, move |ctx| ctx.put(a, 1u64, 0));
        g.add_pass("r", &[a], &[b], 1, move |ctx| {
            let v = *ctx.read::<f32>(a)?; // wrong type
            ctx.put(b, v, 0)
        });
        match g.execute(&[], None) {
            Err(GraphError::TypeMismatch { resource, pass }) => {
                assert_eq!(resource, "a");
                assert_eq!(pass, "r");
            }
            other => {
                assert!(other.is_err(), "expected type mismatch");
            }
        }
    }
}
