//! The precomputed feasibility table: one sorted, binary-searchable flat
//! buffer (`.fst`) answering "what does this configuration cost?" in
//! O(log n), with live model evaluation only on misses.
//!
//! The feasibility question is a pure function of a small discrete lattice —
//! (renderer, device class, image side, cells per task, tasks) — so the
//! whole answer space can be swept *offline* through the fitted models,
//! sorted by a packed key, and written as one flat file. The serving hot
//! path then never touches the models: it is a binary search over
//! fixed-width records. The offline-generate → single-sorted-table →
//! search shape follows the rainbow-table design named in ROADMAP.md.
//!
//! The wire format is versioned like [`crate::persist`]: a magic+version
//! header that unknown readers reject loudly, and `f64` payloads stored as
//! raw IEEE-754 bits so a decode round-trips encode bit-exactly (the
//! proptests in `tests/prop_fstable.rs` hold it to that).

use crate::batch::{predict_batch, FramePrediction};
use crate::feasibility::ModelSet;
use crate::mapping::{MappingConstants, RenderConfig};
use crate::sample::RendererKind;
use dpp::Device;
use std::cmp::Ordering;
use std::fmt;

/// File magic: `FST` plus a one-byte format version.
pub const FST_MAGIC: [u8; 4] = *b"FST1";

/// Bytes per record: key (1+1+4+4+4) + two f64 payloads.
pub const RECORD_BYTES: usize = 30;

/// Which device axis of the lattice a record answers for. Model sets are
/// fitted per device, so the table carries the class explicitly rather than
/// trusting the caller to pair table and models correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// Single-threaded reference device.
    Serial,
    /// The data-parallel pool.
    Parallel,
}

impl DeviceClass {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            DeviceClass::Serial => 0,
            DeviceClass::Parallel => 1,
        }
    }

    /// Stable lowercase label (matches `ModelSet::device` conventions).
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Serial => "serial",
            DeviceClass::Parallel => "parallel",
        }
    }

    /// Inverse of [`DeviceClass::label`].
    pub fn parse(s: &str) -> Option<DeviceClass> {
        match s {
            "serial" => Some(DeviceClass::Serial),
            "parallel" => Some(DeviceClass::Parallel),
            _ => None,
        }
    }
}

/// Stable wire code for a renderer (the table key's first axis).
pub fn renderer_code(r: RendererKind) -> u8 {
    match r {
        RendererKind::RayTracing => 0,
        RendererKind::Rasterization => 1,
        RendererKind::VolumeRendering => 2,
    }
}

/// Inverse of [`renderer_code`].
pub fn renderer_from_code(code: u8) -> Option<RendererKind> {
    match code {
        0 => Some(RendererKind::RayTracing),
        1 => Some(RendererKind::Rasterization),
        2 => Some(RendererKind::VolumeRendering),
        _ => None,
    }
}

/// One lattice point. Keys order lexicographically by field, in declaration
/// order — that order is the sort order of the table and IS the file format.
/// (The `Ord` impl compares the [`TableKey::packed`] form, which is the same
/// order computed branchlessly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// [`renderer_code`] of the renderer.
    pub renderer: u8,
    /// [`DeviceClass::code`] of the device class.
    pub device: u8,
    /// Image side in pixels (the image is `side * side`).
    pub image_side: u32,
    /// Cells per axis per task (N of an N^3 block).
    pub cells_per_task: u32,
    /// MPI tasks.
    pub tasks: u32,
}

impl TableKey {
    /// Build a key from a user-level configuration (square by construction
    /// everywhere here: `image_side` is the integer square root of
    /// `cfg.pixels`). Counts are cast to `u32`; the caller owns their range.
    pub fn from_config(cfg: &RenderConfig, device: DeviceClass) -> TableKey {
        let side = (cfg.pixels as f64).sqrt().round() as u32;
        TableKey {
            renderer: renderer_code(cfg.renderer),
            device: device.code(),
            image_side: side,
            cells_per_task: cfg.cells_per_task as u32,
            tasks: cfg.tasks as u32,
        }
    }

    /// The key packed into one integer: fields in declaration order occupy
    /// disjoint, descending bit ranges, so numeric order of the packed value
    /// equals lexicographic field order. The serving hot path binary-searches
    /// a dense slice of these instead of comparing five fields per probe.
    #[inline]
    pub fn packed(&self) -> u128 {
        ((self.renderer as u128) << 104)
            | ((self.device as u128) << 96)
            | ((self.image_side as u128) << 64)
            | ((self.cells_per_task as u128) << 32)
            | (self.tasks as u128)
    }

    /// The configuration this key denotes, if the renderer code is valid.
    pub fn to_config(&self) -> Option<RenderConfig> {
        Some(RenderConfig {
            renderer: renderer_from_code(self.renderer)?,
            cells_per_task: self.cells_per_task as usize,
            pixels: (self.image_side as usize) * (self.image_side as usize),
            tasks: self.tasks as usize,
        })
    }
}

/// One table record: a key and its predicted costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// The lattice point.
    pub key: TableKey,
    /// Predicted seconds per frame.
    pub per_frame_s: f64,
    /// Predicted one-time build seconds.
    pub build_s: f64,
}

impl PartialOrd for TableKey {
    fn partial_cmp(&self, other: &TableKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TableKey {
    fn cmp(&self, other: &TableKey) -> Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl TableEntry {
    /// The costs as a [`FramePrediction`].
    pub fn prediction(&self) -> FramePrediction {
        FramePrediction { per_frame_s: self.per_frame_s, build_s: self.build_s }
    }
}

/// Decode error: the file is not a well-formed `.fst` of this version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FstError {
    /// Header is not [`FST_MAGIC`] (wrong file or a future format version).
    BadMagic,
    /// The buffer ends mid-header or mid-record.
    Truncated,
    /// Bytes remain after the declared record count.
    TrailingBytes,
    /// Record `index` is not strictly greater than its predecessor — the
    /// binary-search invariant would be silently broken.
    Unsorted {
        /// 0-based record index of the violation.
        index: usize,
    },
}

impl fmt::Display for FstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FstError::BadMagic => write!(f, "not an FST1 feasibility table"),
            FstError::Truncated => write!(f, "truncated feasibility table"),
            FstError::TrailingBytes => write!(f, "trailing bytes after the last record"),
            FstError::Unsorted { index } => {
                write!(f, "record {index} out of order: table is not sorted/unique")
            }
        }
    }
}

impl std::error::Error for FstError {}

/// How many overlay records justify folding them into the base. Compaction
/// also waits until the overlay is a meaningful fraction of the base, so a
/// large table is not rebuilt for a trickle of backfill.
const COMPACT_OVERLAY_MIN: usize = 64;

/// The in-memory table: a two-level store tuned for a read-mostly hot path.
///
/// The *base* holds records sorted by key (the `.fst` file order) plus one
/// probe index: the [`TableKey::packed`] keys as a dense sorted `u128`
/// slice, position-for-position with the base, so a search compares one
/// integer per probe and never touches the wider records. The batch resolve
/// gallops over it and a point probe binary-searches it. The *overlay* is a
/// small sorted run absorbing online backfill in O(log m + m) without
/// disturbing the base; once it reaches `COMPACT_OVERLAY_MIN` records and
/// 1/8 of the base it is folded in and the index rebuilt (amortized O(1) per
/// insert). Key sets of base and overlay are disjoint; a backfill of an
/// existing base key updates the record in place.
#[derive(Debug, Clone, Default)]
pub struct FeasTable {
    /// Generation of the fitted models the entries were computed from. A
    /// table only answers for the model generation it was swept with; the
    /// service drops it wholesale when a refit installs a new generation.
    pub generation: u64,
    base: Vec<TableEntry>,
    /// Packed base keys in sorted order, position-for-position with `base`.
    index: Vec<u128>,
    /// Sorted-by-key backfill records whose keys are not in `base`.
    overlay: Vec<TableEntry>,
}

/// First position at or after `from` whose key is >= `needle`, over any
/// indexable ascending key sequence: exponential (galloping) expansion from
/// the cursor, then a binary search of the bracketed range. `O(log d)` in
/// the distance `d` advanced, which is what makes a sorted-batch resolve
/// cost `O(m log(n/m))` overall instead of `m` full binary searches.
fn gallop_lower_bound<F: Fn(usize) -> u128>(
    len: usize,
    key_at: F,
    from: usize,
    needle: u128,
) -> usize {
    if from >= len {
        return len;
    }
    if key_at(from) >= needle {
        return from;
    }
    // Invariant: key_at(lo) < needle.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < len && key_at(lo + step) < needle {
        lo += step;
        step *= 2;
    }
    let mut left = lo + 1;
    let mut right = (lo + step).min(len);
    while left < right {
        let mid = left + (right - left) / 2;
        if key_at(mid) < needle {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

impl FeasTable {
    /// An empty table for `generation`.
    pub fn new(generation: u64) -> FeasTable {
        FeasTable { generation, ..FeasTable::default() }
    }

    /// Build from unordered records: sorts by key and keeps the *last*
    /// record of any duplicate key (later writes win, matching
    /// [`FeasTable::insert`] semantics).
    pub fn from_entries(generation: u64, mut entries: Vec<TableEntry>) -> FeasTable {
        // Stable sort + backwards dedup keeps the last duplicate.
        entries.sort_by_key(|e| e.key);
        entries.reverse();
        entries.dedup_by_key(|e| e.key);
        entries.reverse();
        let mut table = FeasTable::new(generation);
        table.base = entries;
        table.rebuild_index();
        table
    }

    fn rebuild_index(&mut self) {
        self.index = self.base.iter().map(|e| e.key.packed()).collect();
    }

    /// Fold the overlay into the base and rebuild the probe index.
    fn compact(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        // Two sorted runs with disjoint keys: a plain merge.
        let mut merged = Vec::with_capacity(self.base.len() + self.overlay.len());
        let mut b = self.base.drain(..).peekable();
        let mut o = self.overlay.drain(..).peekable();
        loop {
            match (b.peek(), o.peek()) {
                (Some(x), Some(y)) => {
                    if x.key < y.key {
                        merged.extend(b.next());
                    } else {
                        merged.extend(o.next());
                    }
                }
                (Some(_), None) => merged.extend(b.next()),
                (None, Some(_)) => merged.extend(o.next()),
                (None, None) => break,
            }
        }
        drop(b);
        drop(o);
        self.base = merged;
        self.rebuild_index();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    /// True when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records, sorted by key (base and overlay merged).
    pub fn entries(&self) -> Vec<TableEntry> {
        let mut out = self.base.clone();
        out.extend_from_slice(&self.overlay);
        out.sort_by_key(|e| e.key);
        out
    }

    /// O(log n) point lookup: a binary search of the base index, then (only
    /// if backfill has happened since the last compaction) one of the small
    /// overlay.
    pub fn lookup(&self, key: &TableKey) -> Option<&TableEntry> {
        let packed = key.packed();
        if let Ok(i) = self.index.binary_search(&packed) {
            return self.base.get(i);
        }
        if self.overlay.is_empty() {
            return None;
        }
        self.overlay
            .binary_search_by_key(&packed, |e| e.key.packed())
            .ok()
            .and_then(|i| self.overlay.get(i))
    }

    /// Resolve an ascending run of probes in one galloping merge pass —
    /// the batch form of [`FeasTable::lookup`], and what the service's pump
    /// uses: a batch's needed lattice points are already deduplicated in
    /// sorted order, so resolving them costs `O(m log(n/m))` (a near-linear
    /// merge for dense sweeps, one binary search at `m = 1`) instead of `m`
    /// independent `O(log n)` searches. Returns one slot per probe, in
    /// order. Probes that arrive out of order are not undefined behavior —
    /// the cursors only move forward, so a backwards probe simply reports a
    /// miss and the caller falls back to live evaluation, which is always
    /// correct.
    pub fn resolve_sorted(&self, probes: &[TableKey]) -> Vec<Option<&TableEntry>> {
        let mut out = Vec::with_capacity(probes.len());
        let mut bi = 0usize;
        let mut oi = 0usize;
        for p in probes {
            let needle = p.packed();
            bi = gallop_lower_bound(self.index.len(), |i| self.index[i], bi, needle);
            if self.index.get(bi) == Some(&needle) {
                out.push(self.base.get(bi));
                continue;
            }
            if self.overlay.is_empty() {
                out.push(None);
                continue;
            }
            oi = gallop_lower_bound(
                self.overlay.len(),
                |i| self.overlay[i].key.packed(),
                oi,
                needle,
            );
            match self.overlay.get(oi) {
                Some(e) if e.key.packed() == needle => out.push(Some(e)),
                _ => out.push(None),
            }
        }
        out
    }

    /// Backfill insert: replaces the record when the key exists (in place —
    /// positions never move), otherwise lands in the overlay; compaction
    /// folds a grown overlay into the base, amortized O(1) per insert.
    pub fn insert(&mut self, entry: TableEntry) {
        let packed = entry.key.packed();
        if let Ok(i) = self.index.binary_search(&packed) {
            self.base[i] = entry;
            return;
        }
        match self.overlay.binary_search_by_key(&packed, |e| e.key.packed()) {
            Ok(i) => self.overlay[i] = entry,
            Err(i) => self.overlay.insert(i, entry),
        }
        if self.overlay.len() >= COMPACT_OVERLAY_MIN && self.overlay.len() * 8 >= self.base.len() {
            self.compact();
        }
    }

    /// Serialize to the flat `.fst` byte format (header + sorted records).
    pub fn encode(&self) -> Vec<u8> {
        let entries = self.entries();
        let mut out = Vec::with_capacity(4 + 8 + 8 + entries.len() * RECORD_BYTES);
        out.extend_from_slice(&FST_MAGIC);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for e in &entries {
            out.push(e.key.renderer);
            out.push(e.key.device);
            out.extend_from_slice(&e.key.image_side.to_le_bytes());
            out.extend_from_slice(&e.key.cells_per_task.to_le_bytes());
            out.extend_from_slice(&e.key.tasks.to_le_bytes());
            out.extend_from_slice(&e.per_frame_s.to_bits().to_le_bytes());
            out.extend_from_slice(&e.build_s.to_bits().to_le_bytes());
        }
        out
    }

    /// Decode an `.fst` buffer, validating the header, the exact length,
    /// and the sorted-unique invariant binary search depends on.
    pub fn decode(bytes: &[u8]) -> Result<FeasTable, FstError> {
        if bytes.len() < 4 + 8 + 8 {
            return Err(if bytes.starts_with(&FST_MAGIC) || FST_MAGIC.starts_with(bytes) {
                FstError::Truncated
            } else {
                FstError::BadMagic
            });
        }
        if bytes[..4] != FST_MAGIC {
            return Err(FstError::BadMagic);
        }
        let u64_at = |off: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        let u32_at = |off: usize| -> u32 {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[off..off + 4]);
            u32::from_le_bytes(b)
        };
        let generation = u64_at(4);
        let count = usize::try_from(u64_at(12)).unwrap_or(usize::MAX);
        let body = &bytes[20..];
        // A count whose records no buffer could hold is a truncated buffer.
        match count.checked_mul(RECORD_BYTES).map_or(Ordering::Less, |need| body.len().cmp(&need)) {
            Ordering::Less => return Err(FstError::Truncated),
            Ordering::Greater => return Err(FstError::TrailingBytes),
            Ordering::Equal => {}
        }
        let mut entries: Vec<TableEntry> = Vec::with_capacity(count);
        for i in 0..count {
            let off = 20 + i * RECORD_BYTES;
            let key = TableKey {
                renderer: bytes[off],
                device: bytes[off + 1],
                image_side: u32_at(off + 2),
                cells_per_task: u32_at(off + 6),
                tasks: u32_at(off + 10),
            };
            let entry = TableEntry {
                key,
                per_frame_s: f64::from_bits(u64_at(off + 14)),
                build_s: f64::from_bits(u64_at(off + 22)),
            };
            if entries.last().is_some_and(|prev| prev.key >= key) {
                return Err(FstError::Unsorted { index: i });
            }
            entries.push(entry);
        }
        let mut table = FeasTable::new(generation);
        table.base = entries;
        table.rebuild_index();
        Ok(table)
    }
}

impl PartialEq for FeasTable {
    /// Logical equality: same generation and same records, regardless of how
    /// the records are split between base and overlay.
    fn eq(&self, other: &FeasTable) -> bool {
        self.generation == other.generation && self.entries() == other.entries()
    }
}

/// The configuration lattice an offline sweep covers.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Renderer axis.
    pub renderers: Vec<RendererKind>,
    /// Device-class axis.
    pub devices: Vec<DeviceClass>,
    /// Image-side axis (pixels per edge).
    pub image_sides: Vec<u32>,
    /// Data-size axis (cells per axis per task).
    pub cells_per_task: Vec<u32>,
    /// Ranks axis (MPI tasks).
    pub tasks: Vec<u32>,
}

impl Lattice {
    /// The sweep the service precomputes by default: the paper's study axes
    /// (Section 5.2's data/image sizes, power-of-two ranks) for all three
    /// renderers on both device classes — 2,880 lattice points.
    pub fn service_default() -> Lattice {
        Lattice {
            renderers: vec![
                RendererKind::RayTracing,
                RendererKind::Rasterization,
                RendererKind::VolumeRendering,
            ],
            devices: vec![DeviceClass::Serial, DeviceClass::Parallel],
            image_sides: vec![256, 512, 768, 1024, 1536, 2048, 3072, 4096],
            cells_per_task: vec![50, 100, 150, 200, 300, 500],
            tasks: vec![1, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        }
    }

    /// Number of lattice points (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.renderers.len()
            * self.devices.len()
            * self.image_sides.len()
            * self.cells_per_task.len()
            * self.tasks.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every lattice point, sorted by key and deduplicated.
    pub fn points(&self) -> Vec<TableKey> {
        let mut out = Vec::with_capacity(self.len());
        for &r in &self.renderers {
            for &d in &self.devices {
                for &side in &self.image_sides {
                    for &cells in &self.cells_per_task {
                        for &tasks in &self.tasks {
                            out.push(TableKey {
                                renderer: renderer_code(r),
                                device: d.code(),
                                image_side: side,
                                cells_per_task: cells,
                                tasks,
                            });
                        }
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Sweep `lattice` through the per-device fitted sets on the `pool` and
/// return the sorted table. Lattice points whose device class has no fitted
/// set in `sets` are skipped (the table simply misses there, and the service
/// falls back to live evaluation).
pub fn precompute(
    sets: &[(DeviceClass, &ModelSet)],
    k: &MappingConstants,
    lattice: &Lattice,
    pool: &Device,
    generation: u64,
) -> FeasTable {
    let points = lattice.points();
    // Partition by device class so each batch evaluates against one set.
    let mut entries: Vec<TableEntry> = Vec::with_capacity(points.len());
    for &(class, set) in sets {
        let keyed: Vec<(TableKey, RenderConfig)> = points
            .iter()
            .filter(|p| p.device == class.code())
            .filter_map(|p| p.to_config().map(|c| (*p, c)))
            .collect();
        let cfgs: Vec<RenderConfig> = keyed.iter().map(|(_, c)| *c).collect();
        let predictions = predict_batch(set, k, &cfgs, pool);
        for ((key, _), p) in keyed.iter().zip(predictions) {
            entries.push(TableEntry { key: *key, per_frame_s: p.per_frame_s, build_s: p.build_s });
        }
    }
    // A duplicate (DeviceClass, set) pair would insert duplicate keys;
    // from_entries keeps the last, so the call is total either way.
    FeasTable::from_entries(generation, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_models::toy_model_set;

    fn tiny_lattice() -> Lattice {
        Lattice {
            renderers: vec![RendererKind::RayTracing, RendererKind::VolumeRendering],
            devices: vec![DeviceClass::Serial],
            image_sides: vec![256, 1024],
            cells_per_task: vec![50, 200],
            tasks: vec![1, 64],
        }
    }

    #[test]
    fn precompute_matches_direct_eval_on_every_point() {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let lattice = tiny_lattice();
        let table = precompute(&[(DeviceClass::Serial, &set)], &k, &lattice, &Device::Serial, 7);
        assert_eq!(table.generation, 7);
        assert_eq!(table.len(), lattice.len());
        for point in lattice.points() {
            let entry = table.lookup(&point).expect("every lattice point present");
            let cfg = point.to_config().expect("valid renderer code");
            assert_eq!(entry.per_frame_s.to_bits(), set.predict_frame_seconds(&cfg, &k).to_bits());
            assert_eq!(entry.build_s.to_bits(), set.predict_build_seconds(&cfg, &k).to_bits());
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let table =
            precompute(&[(DeviceClass::Serial, &set)], &k, &tiny_lattice(), &Device::Serial, 3);
        let decoded = FeasTable::decode(&table.encode()).expect("round trip");
        assert_eq!(decoded, table);
    }

    #[test]
    fn decode_rejects_corruption() {
        let table = FeasTable::from_entries(
            1,
            vec![
                TableEntry {
                    key: TableKey {
                        renderer: 0,
                        device: 0,
                        image_side: 256,
                        cells_per_task: 50,
                        tasks: 1,
                    },
                    per_frame_s: 0.5,
                    build_s: 0.1,
                },
                TableEntry {
                    key: TableKey {
                        renderer: 0,
                        device: 0,
                        image_side: 512,
                        cells_per_task: 50,
                        tasks: 1,
                    },
                    per_frame_s: 0.75,
                    build_s: 0.1,
                },
            ],
        );
        let good = table.encode();
        assert!(FeasTable::decode(&good).is_ok());

        let mut wrong_magic = good.clone();
        wrong_magic[3] = b'9'; // a future version byte
        assert_eq!(FeasTable::decode(&wrong_magic), Err(FstError::BadMagic));

        let truncated = &good[..good.len() - 1];
        assert_eq!(FeasTable::decode(truncated), Err(FstError::Truncated));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(FeasTable::decode(&trailing), Err(FstError::TrailingBytes));

        // Swap the two records' image sides to break the sort order.
        let mut unsorted = good.clone();
        let (a, b) = (20 + 2, 20 + RECORD_BYTES + 2);
        for i in 0..4 {
            unsorted.swap(a + i, b + i);
        }
        assert_eq!(FeasTable::decode(&unsorted), Err(FstError::Unsorted { index: 1 }));
    }

    #[test]
    fn insert_backfills_in_sorted_position_and_replaces() {
        let mut table = FeasTable::new(1);
        let key = |side: u32| TableKey {
            renderer: 2,
            device: 1,
            image_side: side,
            cells_per_task: 100,
            tasks: 8,
        };
        for side in [1024u32, 256, 512] {
            table.insert(TableEntry { key: key(side), per_frame_s: side as f64, build_s: 0.0 });
        }
        let sides: Vec<u32> = table.entries().iter().map(|e| e.key.image_side).collect();
        assert_eq!(sides, vec![256, 512, 1024]);
        table.insert(TableEntry { key: key(512), per_frame_s: -1.0, build_s: 0.0 });
        assert_eq!(table.len(), 3);
        assert_eq!(table.lookup(&key(512)).map(|e| e.per_frame_s), Some(-1.0));
        // The rebuilt-from-scratch form agrees with incremental inserts.
        let rebuilt = FeasTable::from_entries(1, table.entries());
        assert_eq!(rebuilt, table);
    }

    #[test]
    fn resolve_sorted_agrees_with_pointwise_lookup() {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let lattice = tiny_lattice();
        let mut table =
            precompute(&[(DeviceClass::Serial, &set)], &k, &lattice, &Device::Serial, 1);
        // Backfill a couple of off-lattice keys so the overlay path is live.
        for side in [300u32, 900] {
            let key =
                TableKey { renderer: 0, device: 0, image_side: side, cells_per_task: 50, tasks: 1 };
            table.insert(TableEntry { key, per_frame_s: side as f64, build_s: 0.0 });
        }
        // Probe set: every present key plus interleaved guaranteed misses,
        // sorted ascending (duplicates included).
        let mut probes = table.entries().iter().map(|e| e.key).collect::<Vec<_>>();
        probes.extend([0u32, 257, 4096].iter().map(|&side| TableKey {
            renderer: 1,
            device: 0,
            image_side: side,
            cells_per_task: 50,
            tasks: 1,
        }));
        probes.push(probes[0]);
        probes.sort();
        let resolved = table.resolve_sorted(&probes);
        assert_eq!(resolved.len(), probes.len());
        for (p, r) in probes.iter().zip(resolved) {
            assert_eq!(r, table.lookup(p), "probe {p:?}");
        }
    }

    #[test]
    fn key_round_trips_through_config() {
        let key =
            TableKey { renderer: 1, device: 0, image_side: 768, cells_per_task: 300, tasks: 64 };
        let cfg = key.to_config().expect("valid code");
        assert_eq!(TableKey::from_config(&cfg, DeviceClass::Serial), key);
        assert!(
            TableKey { renderer: 9, ..key }.to_config().is_none(),
            "unknown renderer codes must not decode"
        );
    }
}
