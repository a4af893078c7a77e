//! The service core: admission, batching, table-first resolution, backfill.
//!
//! A query's life: [`Feasd::submit`] observes queue depth through
//! [`sched::QueuePressure`] and either sheds it (by priority class) or
//! enqueues it; [`Feasd::pump`] drains up to a batch of queries in priority
//! order, resolves every lattice point they need against the precomputed
//! [`FeasTable`] (O(log n) binary search), coalesces *all* misses of the
//! batch into one [`predict_batch`] call on the dpp pool, backfills the
//! table with the fresh evaluations, and materializes answers. Everything is
//! deterministic: answers depend only on the installed model generation and
//! the query, and drain order is a pure function of the submission sequence.
//!
//! A model generation is one value: the fitted set, its mapping constants
//! and the table swept from them. A batch takes one generation and does all
//! of its work against it, so no batch mixes two fits and no backfill lands
//! in another generation's table.

use crate::queue::{Pending, PriorityQueue};
use perfmodel::batch::{predict_batch, FramePrediction};
use perfmodel::feasibility::{ModelSet, MIN_PREDICTED_SECONDS};
use perfmodel::fstable::{precompute, DeviceClass, FeasTable, Lattice, TableEntry, TableKey};
use perfmodel::mapping::{MappingConstants, RenderConfig};
use perfmodel::sample::RendererKind;
use sched::{Priority, QueuePressure};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Opaque handle pairing a submission with its answer.
pub type Ticket = u64;

/// What a query asks.
#[derive(Debug, Clone, Copy)]
pub enum Ask {
    /// "Can this exact configuration render `images` frames in `budget_s`?"
    /// (the paper's Figure-14 question, pointwise).
    Feasibility {
        /// The configuration to cost.
        config: RenderConfig,
        /// Time budget in seconds.
        budget_s: f64,
        /// Frames wanted inside the budget.
        images: f64,
    },
    /// "Pick the best renderer and the largest image side that still fits."
    /// Scans the service's planning sides top-down and every renderer at
    /// each side (the Figure-15 regime choice, served).
    Plan {
        /// Cells per axis per task of the data to render.
        cells_per_task: usize,
        /// MPI tasks.
        tasks: usize,
        /// Time budget in seconds.
        budget_s: f64,
        /// Frames wanted inside the budget.
        images: f64,
    },
}

/// One request.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Which device class's fitted models answer.
    pub device: DeviceClass,
    /// Admission class; see [`sched::Priority`].
    pub priority: Priority,
    /// The question.
    pub ask: Ask,
}

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Every lattice point the query needed was already in the table.
    Table,
    /// At least one point was evaluated live through the models.
    Model,
}

impl Source {
    /// Stable label for tables and the wire.
    pub fn label(self) -> &'static str {
        match self {
            Source::Table => "table",
            Source::Model => "model",
        }
    }
}

/// One answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Whether the asked-for images fit the budget. For plan queries, false
    /// means no (renderer, side) candidate fits — the echoed plan is then
    /// the cheapest candidate, as a best effort.
    pub feasible: bool,
    /// Frames that fit the budget at the answered configuration.
    pub images_possible: f64,
    /// Predicted seconds per frame at the answered configuration.
    pub per_frame_s: f64,
    /// Predicted one-time build seconds at the answered configuration.
    pub build_s: f64,
    /// Renderer of the answered configuration (echoed, or chosen by a plan).
    pub renderer: RendererKind,
    /// Image side of the answered configuration (echoed, or chosen).
    pub image_side: u32,
    /// Table hit or live model evaluation.
    pub source: Source,
    /// Model generation the answer was computed from.
    pub generation: u64,
}

/// A submission rejected by backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Ladder level at the moment of rejection.
    pub level: usize,
    /// Priority class of the rejected query.
    pub priority: Priority,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct FeasdConfig {
    /// Max queries resolved per [`Feasd::pump`] batch.
    pub batch_max: usize,
    /// Queue depth the service is provisioned for; deeper escalates the
    /// admission ladder (see [`sched::QueuePressure`]).
    pub queue_budget: usize,
    /// Quiet depth observations required per rung of admission recovery.
    pub hysteresis_ticks: u32,
    /// Pool batched model evaluations run on.
    pub pool: dpp::Device,
    /// The sweep every generation's table starts from (also the side axis
    /// plan queries scan).
    pub lattice: Lattice,
}

impl Default for FeasdConfig {
    fn default() -> FeasdConfig {
        FeasdConfig {
            batch_max: 64,
            queue_budget: 256,
            hysteresis_ticks: 3,
            pool: dpp::Device::parallel(),
            lattice: Lattice::service_default(),
        }
    }
}

/// Monotone counters, snapshotted under one lock so readers never see a
/// torn view (e.g. `answered > submitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries admitted into the queue.
    pub submitted: u64,
    /// Queries answered by `pump`.
    pub answered: u64,
    /// Queries rejected by backpressure.
    pub shed: u64,
    /// Lattice-point resolutions served by the table.
    pub table_hits: u64,
    /// Lattice-point resolutions that went through live model evaluation.
    pub table_misses: u64,
}

impl StatsSnapshot {
    /// Fraction of lattice-point resolutions served by the table.
    pub fn hit_rate(&self) -> f64 {
        let total = self.table_hits + self.table_misses;
        if total == 0 {
            0.0
        } else {
            self.table_hits as f64 / total as f64
        }
    }

    /// Fraction of submissions rejected by backpressure.
    pub fn shed_rate(&self) -> f64 {
        let total = self.submitted + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

/// Rejected install: the candidate set fails the paper's plausibility
/// criterion (some model has a negative coefficient).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallError {
    /// Names of the implausible models.
    pub implausible: Vec<&'static str>,
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "refusing to install implausible models: {}", self.implausible.join(", "))
    }
}

impl std::error::Error for InstallError {}

/// One model generation: the fitted state and the table swept from it.
/// Immutable but for backfill into its own table.
#[derive(Debug)]
struct ModelSnapshot {
    /// Monotone install counter; starts at 1.
    generation: u64,
    /// The fitted per-renderer + compositing models.
    set: ModelSet,
    /// The Section 5.8 mapping constants paired with the fit.
    k: MappingConstants,
    /// The lattice swept from `set`, plus what batches backfilled since.
    table: RwLock<FeasTable>,
}

impl ModelSnapshot {
    /// Sweep `cfg.lattice` with `set`. Every device class in the lattice
    /// answers from this one set — the service carries one fitted set; a
    /// per-class fit can be installed as a later generation.
    fn sweep(generation: u64, set: ModelSet, k: MappingConstants, cfg: &FeasdConfig) -> Self {
        let sets: Vec<(DeviceClass, &ModelSet)> =
            cfg.lattice.devices.iter().map(|&d| (d, &set)).collect();
        let table = precompute(&sets, &k, &cfg.lattice, &cfg.pool, generation);
        ModelSnapshot { generation, set, k, table: RwLock::new(table) }
    }
}

/// Everything `submit` touches, under one lock: the queue, the pressure
/// gate it feeds, the ticket counter, and the stats.
#[derive(Debug)]
struct Admission {
    queue: PriorityQueue,
    pressure: QueuePressure,
    next_ticket: Ticket,
    stats: StatsSnapshot,
}

/// The service. Thread-safe: any number of submitters, pumpers and model
/// installers may run concurrently. Three locks, never held two at a time:
/// `admission`, `current` (an `Arc` clone per batch; an install holds it to
/// sweep and swap) and the current generation's table (one read per batch,
/// a write to backfill). With no two held at once there is no lock order to
/// invert, so no interleaving of callers can deadlock.
#[derive(Debug)]
pub struct Feasd {
    cfg: FeasdConfig,
    current: RwLock<Arc<ModelSnapshot>>,
    admission: Mutex<Admission>,
}

fn lock_admission<'a>(m: &'a Mutex<Admission>) -> MutexGuard<'a, Admission> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Feasd {
    /// Build a service around one fitted set, generation 1, its lattice
    /// swept so the first query already hits. The seed set is trusted (it is
    /// the operator's explicit choice); only *re*-installs are
    /// plausibility-gated.
    pub fn new(set: ModelSet, k: MappingConstants, mut cfg: FeasdConfig) -> Feasd {
        // Plan answers scan the sides top-down: sort them once, here.
        cfg.lattice.image_sides.sort_unstable();
        let current = RwLock::new(Arc::new(ModelSnapshot::sweep(1, set, k, &cfg)));
        Feasd {
            admission: Mutex::new(Admission {
                queue: PriorityQueue::new(),
                pressure: QueuePressure::new(cfg.queue_budget, cfg.hysteresis_ticks),
                next_ticket: 0,
                stats: StatsSnapshot::default(),
            }),
            current,
            cfg,
        }
    }

    /// The current generation. Cheap (one `Arc` clone); a batch holds it
    /// for all of its work. A panicked writer never leaves a torn value
    /// behind an `Arc` swap, so a poisoned lock still holds a valid one.
    fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Install a refitted model set as the next generation. Fails closed on
    /// an implausible fit, leaving the previous generation in place. The new
    /// set is swept into a fresh table and swapped in whole; batches already
    /// running finish on the generation they took.
    pub fn install_models(&self, set: ModelSet, k: MappingConstants) -> Result<u64, InstallError> {
        let implausible = set.implausible_models();
        if !implausible.is_empty() {
            return Err(InstallError { implausible });
        }
        // Installs are rare: sweeping under the write lock keeps generation
        // numbers in install order at the cost of one sweep of stall.
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let generation = current.generation + 1;
        *current = Arc::new(ModelSnapshot::sweep(generation, set, k, &self.cfg));
        Ok(generation)
    }

    /// Current model generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Queued (admitted, unanswered) queries.
    pub fn depth(&self) -> usize {
        lock_admission(&self.admission).queue.depth()
    }

    /// Records currently in the feasibility table (precomputed + backfilled).
    pub fn table_len(&self) -> usize {
        self.snapshot().table.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        lock_admission(&self.admission).stats
    }

    /// Admit or shed one query. Admission observes the post-enqueue depth,
    /// so sustained overload escalates the ladder before the queue runs
    /// away; `must-render` is never shed.
    pub fn submit(&self, query: Query) -> Result<Ticket, Shed> {
        let mut adm = lock_admission(&self.admission);
        let depth = adm.queue.depth();
        adm.pressure.observe_depth(depth + 1);
        if !adm.pressure.admits(query.priority) {
            adm.stats.shed += 1;
            return Err(Shed { level: adm.pressure.level(), priority: query.priority });
        }
        let ticket = adm.next_ticket;
        adm.next_ticket += 1;
        adm.stats.submitted += 1;
        adm.queue.push(Pending { ticket, query });
        Ok(ticket)
    }

    /// Drain up to `batch_max` queries (priority order) and answer them:
    /// table lookups for every needed lattice point, one coalesced
    /// [`predict_batch`] over all misses, backfill, answers. Returns
    /// `(ticket, answer)` pairs in drain order; empty when the queue is.
    pub fn pump(&self) -> Vec<(Ticket, Answer)> {
        let batch = {
            let mut adm = lock_admission(&self.admission);
            adm.queue.drain(self.cfg.batch_max)
        };
        if batch.is_empty() {
            return Vec::new();
        }
        let snap = self.snapshot();

        // 1. Every lattice point any query in the batch needs, deduplicated.
        let mut needed: BTreeMap<TableKey, Option<(FramePrediction, Source)>> = BTreeMap::new();
        for p in &batch {
            for key in self.needed_keys(&p.query) {
                needed.entry(key).or_insert(None);
            }
        }

        // 2. Resolve against the table (one read lock for the whole batch).
        // The BTreeMap iterates keys in ascending order, which is exactly
        // what the galloping batch resolve wants — one merge pass instead of
        // a binary search per key.
        let mut hits = 0u64;
        {
            let table = snap.table.read().unwrap_or_else(PoisonError::into_inner);
            let probes: Vec<TableKey> = needed.keys().copied().collect();
            let resolved = table.resolve_sorted(&probes);
            for (slot, entry) in needed.values_mut().zip(resolved) {
                if let Some(e) = entry {
                    *slot = Some((e.prediction(), Source::Table));
                    hits += 1;
                }
            }
        }

        // 3. One batched evaluation coalescing every miss in the batch.
        let miss_keys: Vec<TableKey> =
            needed.iter().filter(|(_, v)| v.is_none()).map(|(k, _)| *k).collect();
        let miss_cfgs: Vec<RenderConfig> =
            miss_keys.iter().filter_map(TableKey::to_config).collect();
        let misses = miss_keys.len() as u64;
        if !miss_cfgs.is_empty() {
            let predictions = predict_batch(&snap.set, &snap.k, &miss_cfgs, &self.cfg.pool);
            // 4. Backfill into the table of the generation that computed
            // them; an install since then swapped in a table of its own.
            let mut table = snap.table.write().unwrap_or_else(PoisonError::into_inner);
            for (key, pred) in miss_keys.iter().zip(&predictions) {
                table.insert(TableEntry {
                    key: *key,
                    per_frame_s: pred.per_frame_s,
                    build_s: pred.build_s,
                });
                if let Some(slot) = needed.get_mut(key) {
                    *slot = Some((*pred, Source::Model));
                }
            }
        }

        // 5. Materialize answers.
        let out: Vec<(Ticket, Answer)> =
            batch.iter().map(|p| (p.ticket, self.answer(&p.query, &needed, &snap))).collect();

        let mut adm = lock_admission(&self.admission);
        adm.stats.answered += out.len() as u64;
        adm.stats.table_hits += hits;
        adm.stats.table_misses += misses;
        out
    }

    /// The lattice points a query's answer is a function of.
    fn needed_keys(&self, query: &Query) -> Vec<TableKey> {
        match query.ask {
            Ask::Feasibility { config, .. } => {
                vec![TableKey::from_config(&config, query.device)]
            }
            Ask::Plan { cells_per_task, tasks, .. } => {
                let mut keys = Vec::new();
                for &side in &self.cfg.lattice.image_sides {
                    for renderer in &self.cfg.lattice.renderers {
                        keys.push(TableKey::from_config(
                            &RenderConfig {
                                renderer: *renderer,
                                cells_per_task,
                                pixels: (side as usize) * (side as usize),
                                tasks,
                            },
                            query.device,
                        ));
                    }
                }
                keys
            }
        }
    }

    fn answer(
        &self,
        query: &Query,
        resolved: &BTreeMap<TableKey, Option<(FramePrediction, Source)>>,
        snap: &ModelSnapshot,
    ) -> Answer {
        // An unfilled slot can only mean an invalid renderer code, which
        // keys built from a RenderConfig cannot produce; evaluate inline as
        // a total fallback rather than panicking in a server loop.
        let lookup = |key: &TableKey| -> (FramePrediction, Source) {
            match resolved.get(key) {
                Some(Some(hit)) => *hit,
                _ => {
                    let cfg = key.to_config().unwrap_or(RenderConfig {
                        renderer: RendererKind::VolumeRendering,
                        cells_per_task: key.cells_per_task as usize,
                        pixels: (key.image_side as usize) * (key.image_side as usize),
                        tasks: key.tasks as usize,
                    });
                    (FramePrediction::of(&snap.set, &cfg, &snap.k), Source::Model)
                }
            }
        };
        match query.ask {
            Ask::Feasibility { config, budget_s, images } => {
                let key = TableKey::from_config(&config, query.device);
                let (pred, source) = lookup(&key);
                let possible = pred.images_in_budget(budget_s);
                Answer {
                    feasible: possible >= images,
                    images_possible: possible,
                    per_frame_s: pred.per_frame_s,
                    build_s: pred.build_s,
                    renderer: config.renderer,
                    image_side: key.image_side,
                    source,
                    generation: snap.generation,
                }
            }
            Ask::Plan { cells_per_task, tasks, budget_s, images } => {
                let mut best: Option<Answer> = None;
                let mut cheapest: Option<Answer> = None;
                let mut any_model = false;
                for &side in self.cfg.lattice.image_sides.iter().rev() {
                    for renderer in &self.cfg.lattice.renderers {
                        let cfg = RenderConfig {
                            renderer: *renderer,
                            cells_per_task,
                            pixels: (side as usize) * (side as usize),
                            tasks,
                        };
                        let key = TableKey::from_config(&cfg, query.device);
                        let (pred, source) = lookup(&key);
                        any_model |= source == Source::Model;
                        let possible = pred.images_in_budget(budget_s);
                        let candidate = Answer {
                            feasible: possible >= images,
                            images_possible: possible,
                            per_frame_s: pred.per_frame_s.max(MIN_PREDICTED_SECONDS),
                            build_s: pred.build_s,
                            renderer: *renderer,
                            image_side: side,
                            source,
                            generation: snap.generation,
                        };
                        if candidate.feasible {
                            let better = match &best {
                                None => true,
                                // Same side (first feasible side wins the
                                // outer scan): prefer the faster renderer.
                                Some(b) => {
                                    side == b.image_side && candidate.per_frame_s < b.per_frame_s
                                }
                            };
                            if better {
                                best = Some(candidate);
                            }
                        }
                        let cheaper = match &cheapest {
                            None => true,
                            Some(c) => candidate.per_frame_s < c.per_frame_s,
                        };
                        if cheaper {
                            cheapest = Some(candidate);
                        }
                    }
                    if best.is_some() {
                        break;
                    }
                }
                let mut a = best.or(cheapest).unwrap_or(Answer {
                    feasible: false,
                    images_possible: 0.0,
                    per_frame_s: f64::INFINITY,
                    build_s: 0.0,
                    renderer: RendererKind::VolumeRendering,
                    image_side: 0,
                    source: Source::Model,
                    generation: snap.generation,
                });
                if any_model {
                    a.source = Source::Model;
                }
                a
            }
        }
    }
}
