//! Property tests for the `.fst` feasibility-table codec and its lookup
//! structure: arbitrary lattices encode -> sort -> decode bit-exactly
//! (including arbitrary IEEE-754 bit patterns in the payloads), incremental
//! backfill inserts agree with the bulk build across overlay compactions,
//! batched sorted resolution agrees with pointwise lookup, and a precomputed
//! table answers every lattice point bit-identically to direct model
//! evaluation.

use perfmodel::feasibility::ModelSet;
use perfmodel::fstable::{
    precompute, renderer_from_code, DeviceClass, FeasTable, Lattice, TableEntry, TableKey,
};
use perfmodel::mapping::MappingConstants;
use perfmodel::models::Family;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The hand-built seconds-scale set the in-crate unit tests use.
fn toy_model_set() -> ModelSet {
    ModelSet::from_coeffs(
        "toy",
        &[
            (Family::Rt, &[2e-9, 1e-8, 1e-3]),
            (Family::RtBuild, &[2e-8, 1e-3]),
            (Family::Rast, &[4e-9, 4e-10, 1e-3]),
            (Family::Vr, &[2e-10, 1e-9, 1e-2]),
            (Family::Comp, &[2e-8, 5e-8, 1e-3]),
        ],
    )
}

/// Raw generator tuple -> a table record. Key axes are kept narrow so
/// duplicate keys actually occur; payloads reinterpret arbitrary u64 bit
/// patterns as f64 (NaNs, infinities, subnormals included).
type RawEntry = (u8, u8, u32, u32, u32, (u64, u64));

fn entry(raw: &RawEntry) -> TableEntry {
    let (renderer, device, side, cells, tasks, (pf, bu)) = *raw;
    TableEntry {
        key: TableKey {
            renderer: renderer % 3,
            device: device % 2,
            image_side: side % 5,
            cells_per_task: cells % 4,
            tasks: tasks % 4,
        },
        per_frame_s: f64::from_bits(pf),
        build_s: f64::from_bits(bu),
    }
}

/// Bit-exact record equality (payloads may be NaN, so `==` is unusable).
fn same_records(a: &[TableEntry], b: &[TableEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.key == y.key
                && x.per_frame_s.to_bits() == y.per_frame_s.to_bits()
                && x.build_s.to_bits() == y.build_s.to_bits()
        })
}

fn raw_entries() -> impl Strategy<Value = Vec<RawEntry>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            (any::<u64>(), any::<u64>()),
        ),
        0..200,
    )
}

/// Deterministic companion to the generative backfill property: one hot key
/// rewritten at every phase of the base/overlay lifecycle — while overlay-
/// resident, in place after a compaction moved it into the base, and again
/// after further compactions grew the base around it.
#[test]
fn hot_key_survives_every_compaction_boundary() {
    let hot = TableKey { renderer: 0, device: 0, image_side: 7, cells_per_task: 7, tasks: 7 };
    let other =
        |i: u32| TableKey { renderer: 1, device: 1, image_side: i, cells_per_task: 1, tasks: 1 };
    let put = |table: &mut FeasTable, key: TableKey, v: f64| {
        table.insert(TableEntry { key, per_frame_s: v, build_s: 0.0 });
    };
    let mut table = FeasTable::new(1);
    put(&mut table, hot, 1.0);
    // 200 distinct keys push the overlay across the 64-record compaction
    // threshold more than once, carrying the hot key into the base.
    for i in 0..200 {
        put(&mut table, other(i), -1.0);
    }
    put(&mut table, hot, 2.0); // in-place base rewrite
    for i in 200..400 {
        put(&mut table, other(i), -1.0);
    }
    put(&mut table, hot, 3.0);
    assert_eq!(table.len(), 401, "400 distinct cold keys + 1 hot key");
    assert_eq!(table.lookup(&hot).map(|e| e.per_frame_s), Some(3.0));
    assert_eq!(
        table.resolve_sorted(&[hot]).remove(0).map(|e| e.per_frame_s),
        Some(3.0),
        "batched resolve sees the newest write, not a stale compacted copy"
    );
    assert_eq!(
        table.entries().iter().filter(|e| e.key == hot).count(),
        1,
        "exactly one record for the hot key"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_sort_decode_is_bit_exact(raws in raw_entries(), generation in any::<u64>()) {
        let entries: Vec<TableEntry> = raws.iter().map(entry).collect();
        let table = FeasTable::from_entries(generation, entries.clone());

        // Oracle: last write per key wins, records sorted by key.
        let mut oracle: BTreeMap<TableKey, TableEntry> = BTreeMap::new();
        for e in &entries {
            oracle.insert(e.key, *e);
        }
        let expected: Vec<TableEntry> = oracle.into_values().collect();
        prop_assert!(same_records(&table.entries(), &expected), "bulk build keeps last duplicate");

        let encoded = table.encode();
        let decoded = FeasTable::decode(&encoded) .map_err(|e| e.to_string())?;
        prop_assert_eq!(decoded.generation, generation);
        prop_assert!(same_records(&decoded.entries(), &expected), "decode round-trips encode");
        // Re-encoding the decoded table is byte-identical: the format has
        // one canonical serialization.
        prop_assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn incremental_inserts_match_bulk_build(raws in raw_entries()) {
        let entries: Vec<TableEntry> = raws.iter().map(entry).collect();
        // One-by-one backfill exercises the overlay and its compaction
        // thresholds; the bulk path sorts once. They must agree bit-exactly.
        let mut incremental = FeasTable::new(9);
        for e in &entries {
            incremental.insert(*e);
        }
        let bulk = FeasTable::from_entries(9, entries);
        prop_assert_eq!(incremental.len(), bulk.len());
        prop_assert!(same_records(&incremental.entries(), &bulk.entries()));
        prop_assert_eq!(incremental.encode(), bulk.encode());
    }

    #[test]
    fn batched_resolution_agrees_with_pointwise_lookup(
        raws in raw_entries(),
        probe_raws in raw_entries()
    ) {
        let mut table = FeasTable::new(1);
        for e in raws.iter().map(entry) {
            table.insert(e);
        }
        let mut probes: Vec<TableKey> = probe_raws.iter().map(|r| entry(r).key).collect();
        probes.sort();
        let resolved = table.resolve_sorted(&probes);
        prop_assert_eq!(resolved.len(), probes.len());
        for (p, r) in probes.iter().zip(resolved) {
            let direct = table.lookup(p);
            prop_assert_eq!(
                r.map(|e| (e.per_frame_s.to_bits(), e.build_s.to_bits())),
                direct.map(|e| (e.per_frame_s.to_bits(), e.build_s.to_bits())),
                "probe {:?}", p
            );
        }
    }

    /// The fstable overlay's key-disjointness claim: a backfill of a key the
    /// base already holds updates in place, everything else lands in the
    /// overlay, and compaction folds the overlay in. Repeatedly backfilling
    /// the *same* keys while enough distinct keys stream in to cross several
    /// compaction boundaries must never leave a duplicate or stale record
    /// visible — to `entries`, `lookup`, or the galloping `resolve_sorted`.
    #[test]
    fn repeated_backfills_across_compactions_never_duplicate_or_go_stale(
        ops in proptest::collection::vec((0usize..96, any::<u64>()), 1..600)
    ) {
        // 96 distinct keys in mixed-radix order: small enough that the op
        // stream revisits keys many times, large enough that the 64-record
        // compaction threshold fires repeatedly mid-sequence.
        let key_at = |i: usize| TableKey {
            renderer: (i % 3) as u8,
            device: ((i / 3) % 2) as u8,
            image_side: 16 * (1 + (i / 6) % 4) as u32,
            cells_per_task: 10 * (1 + (i / 24) % 4) as u32,
            tasks: 8,
        };
        let mut table = FeasTable::new(2);
        let mut oracle: BTreeMap<TableKey, u64> = BTreeMap::new();
        for (step, &(i, payload)) in ops.iter().enumerate() {
            let key = key_at(i);
            table.insert(TableEntry {
                key,
                per_frame_s: f64::from_bits(payload),
                build_s: 0.0,
            });
            oracle.insert(key, payload);
            // Check not only the final state but states straddling the
            // compaction boundaries the op stream crosses along the way.
            if step % 97 != 0 && step + 1 != ops.len() {
                continue;
            }
            prop_assert_eq!(table.len(), oracle.len(), "one record per distinct key");
            let entries = table.entries();
            for w in entries.windows(2) {
                prop_assert!(w[0].key < w[1].key, "entries sorted, no duplicates");
            }
            let mut probes: Vec<TableKey> = (0..96).map(key_at).collect();
            probes.sort();
            for (p, r) in probes.iter().zip(table.resolve_sorted(&probes)) {
                prop_assert_eq!(
                    r.map(|e| e.per_frame_s.to_bits()),
                    oracle.get(p).copied(),
                    "latest write visible for {:?}", p
                );
                prop_assert_eq!(
                    r.map(|e| e.per_frame_s.to_bits()),
                    table.lookup(p).map(|e| e.per_frame_s.to_bits())
                );
            }
        }
    }

    #[test]
    fn precomputed_table_matches_direct_model_eval(
        sides in proptest::collection::vec(1u32..4096, 1..4),
        cells in proptest::collection::vec(1u32..600, 1..4),
        tasks in proptest::collection::vec(1u32..4096, 1..4),
        both_devices in any::<bool>()
    ) {
        let set = toy_model_set();
        let k = MappingConstants::default();
        let lattice = Lattice {
            renderers: vec![
                perfmodel::sample::RendererKind::RayTracing,
                perfmodel::sample::RendererKind::Rasterization,
                perfmodel::sample::RendererKind::VolumeRendering,
            ],
            devices: if both_devices {
                vec![DeviceClass::Serial, DeviceClass::Parallel]
            } else {
                vec![DeviceClass::Serial]
            },
            image_sides: sides,
            cells_per_task: cells,
            tasks,
        };
        // Only the serial class gets a fitted set: parallel points must
        // simply be absent, not wrong.
        let table =
            precompute(&[(DeviceClass::Serial, &set)], &k, &lattice, &dpp::Device::Serial, 5);
        let points = lattice.points();
        let serial_points = points.iter().filter(|p| p.device == 0).count();
        prop_assert_eq!(table.len(), serial_points);
        for point in &points {
            let looked = table.lookup(point);
            if point.device != 0 {
                prop_assert!(looked.is_none(), "no fitted set for {:?}", point);
                continue;
            }
            let cfg = point.to_config().ok_or("valid renderer code")?;
            prop_assert!(renderer_from_code(point.renderer).is_some());
            let e = looked.ok_or_else(|| format!("missing lattice point {point:?}"))?;
            prop_assert_eq!(e.per_frame_s.to_bits(), set.predict_frame_seconds(&cfg, &k).to_bits());
            prop_assert_eq!(e.build_s.to_bits(), set.predict_build_seconds(&cfg, &k).to_bits());
        }
    }
}
