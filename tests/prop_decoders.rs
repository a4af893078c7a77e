//! Every decoder of outside input answers a damaged input with `Ok` or its
//! typed error — never a panic, an abort, or an accepted value that does not
//! survive its own encoder.
//!
//! Three decoders under `crates/*/src` read bytes this program did not
//! write: `perfmodel::persist::from_text` (model files),
//! `perfmodel::fstable::FeasTable::decode` (`.fst` tables) and
//! `feasd::wire::query_from_json` (request lines). Each is fed a valid input
//! after one to four cuts, bit flips and splices. The text decoders take
//! `&str`, so damaged bytes reach them the way a reader would hand them
//! over: through a lossy UTF-8 conversion, which also plants multi-byte
//! characters where the format expects ASCII.
//!
//! Damaged inputs stay a few KB, so this file says nothing about time; that
//! each decoder's time is linear in its input is measured in
//! `crates/bench/tests/decoder_scaling.rs`, through `dpp::timed` (X007).

use feasd::wire::query_from_json;
use perfmodel::feasibility::ModelSet;
use perfmodel::fstable::{FeasTable, TableEntry, TableKey};
use perfmodel::mapping::MappingConstants;
use perfmodel::models::Family;
use perfmodel::persist;
use proptest::prelude::*;

/// One damage step: `(kind, at, len, bit)`, each reduced modulo what the
/// buffer allows when it is applied.
type Damage = (u8, u32, u32, u8);

fn damages() -> impl Strategy<Value = Vec<Damage>> {
    proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..5)
}

/// Truncate at `at`, flip bit `bit` of byte `at`, or splice `len` bytes from
/// `at` back in at another offset (so records repeat and straddle).
fn damage(valid: &[u8], steps: &[Damage]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for &(kind, at, len, bit) in steps {
        if bytes.is_empty() {
            break;
        }
        let at = at as usize % bytes.len();
        match kind % 3 {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << (bit % 8),
            _ => {
                let piece = bytes[at..(at + len as usize % 64).min(bytes.len())].to_vec();
                let to = (at * 31 + bit as usize) % (bytes.len() + 1);
                bytes.splice(to..to, piece);
            }
        }
    }
    bytes
}

/// A stream of values from `seed` (xorshift), for filling valid inputs.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A model file with every required family and, by `seed`, some of the
/// optional ones; coefficients are arbitrary bit patterns (NaN, infinities
/// and subnormals included), which `{:e}` must print and `parse` read back.
fn model_file(seed: u64) -> String {
    let mut next = stream(seed);
    let mut coeffs: Vec<(Family, Vec<f64>)> = Vec::new();
    for row in &Family::ALL {
        if row.required || next().is_multiple_of(2) {
            let c = row.feature_names.iter().map(|_| f64::from_bits(next())).collect();
            coeffs.push((row.family, c));
        }
    }
    let pairs: Vec<(Family, &[f64])> = coeffs.iter().map(|(f, c)| (*f, c.as_slice())).collect();
    let k = MappingConstants { ap_fill: 0.31, ppt_factor: 4.5, spr_base: 210.0 };
    persist::to_text(&ModelSet::from_coeffs("parallel", &pairs), &k)
}

fn fst_file(seed: u64, records: usize) -> Vec<u8> {
    let mut next = stream(seed);
    let entries = (0..records)
        .map(|_| TableEntry {
            key: TableKey {
                renderer: (next() % 3) as u8,
                device: (next() % 2) as u8,
                image_side: (next() % 5) as u32,
                cells_per_task: (next() % 4) as u32,
                tasks: (next() % 4) as u32,
            },
            per_frame_s: f64::from_bits(next()),
            build_s: f64::from_bits(next()),
        })
        .collect();
    FeasTable::from_entries(next(), entries).encode()
}

fn query_line(seed: u64) -> String {
    let mut next = stream(seed);
    let head = format!(
        r#""device":"{}","priority":"{}","cells_per_task":{},"tasks":{},"budget_s":{},"images":{}"#,
        ["serial", "parallel"][(next() % 2) as usize],
        ["must-render", "normal", "speculative"][(next() % 3) as usize],
        next() % 600,
        1 << (next() % 13),
        (next() % 10_000) as f64 / 100.0,
        next() % 500,
    );
    if next().is_multiple_of(4) {
        format!(r#"{{"ask":"plan",{head}}}"#)
    } else {
        format!(
            r#"{{"ask":"feasibility",{head},"renderer":"{}","image_side":{}}}"#,
            ["ray_tracing", "rasterization", "volume_rendering"][(next() % 3) as usize],
            next() % 5000,
        )
    }
}

#[test]
fn the_undamaged_inputs_are_accepted() {
    for seed in 0..32 {
        assert!(persist::from_text(&model_file(seed)).is_ok(), "model file {seed}");
        assert!(FeasTable::decode(&fst_file(seed, 40)).is_ok(), "fst {seed}");
        let line = query_line(seed);
        assert!(query_from_json(&line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A model file that loads is one the writer can write back and the
    /// reader reads again.
    #[test]
    fn a_damaged_model_file_loads_or_is_refused(seed in any::<u64>(), steps in damages()) {
        let bytes = damage(model_file(seed).as_bytes(), &steps);
        if let Ok((set, k)) = persist::from_text(&String::from_utf8_lossy(&bytes)) {
            let again = persist::from_text(&persist::to_text(&set, &k));
            prop_assert!(again.is_ok(), "accepted, then not re-read: {:?}", again.err());
        }
    }

    /// A table that decodes is exactly the bytes it came from: the header,
    /// the length and the strict order leave no second encoding.
    #[test]
    fn a_damaged_fst_table_decodes_or_is_refused(
        seed in any::<u64>(),
        records in 0usize..60,
        steps in damages(),
    ) {
        let bytes = damage(&fst_file(seed, records), &steps);
        if let Ok(table) = FeasTable::decode(&bytes) {
            prop_assert_eq!(table.encode(), bytes);
        }
    }

    /// A line that parses names an image whose pixel count is its side
    /// squared, exactly (no wrapped product reaches the models).
    #[test]
    fn a_damaged_query_line_parses_or_is_refused(seed in any::<u64>(), steps in damages()) {
        let bytes = damage(query_line(seed).as_bytes(), &steps);
        if let Ok(query) = query_from_json(&String::from_utf8_lossy(&bytes)) {
            if let feasd::Ask::Feasibility { config, .. } = query.ask {
                let side = (config.pixels as f64).sqrt().round() as usize;
                prop_assert_eq!(side.checked_mul(side), Some(config.pixels));
            }
        }
    }
}
