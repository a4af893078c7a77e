//! Each decoder of outside input takes time linear in that input.
//!
//! `tests/prop_decoders.rs` shows that damaged input is refused, not crashed
//! on; this file shows that large input is not a denial of service either —
//! `feasd::serve` puts no cap on the length of a line, and model files and
//! `.fst` tables are read whole. Every check is a ratio of two decodes on
//! one machine, ten times the bytes against at most twenty times the
//! seconds, never a wall-clock constant, each read through `dpp::timed`
//! (X007).

use perfmodel::fstable::{FeasTable, TableEntry, TableKey};
use perfmodel::persist;
use std::hint::black_box;

/// Median seconds of five runs of `decode`.
fn median_seconds(mut decode: impl FnMut()) -> f64 {
    let mut xs: Vec<f64> = (0..5).map(|_| dpp::timed(&mut decode).1).collect();
    xs.sort_by(f64::total_cmp);
    xs[2]
}

/// Assert that decoding `input(10 * n)` costs under twenty times decoding
/// `input(n)`. Medians jitter under load, so the best of a few attempts is
/// judged; a quadratic decoder sits near 100 on every one of them. Each `n`
/// makes the small decode take milliseconds even in the dev profile: a
/// decode shorter than one scheduler time slice runs uncontended while the
/// ten-times-larger one is shared with other tests, which alone reads 20x.
fn assert_linear<T>(what: &str, n: usize, input: impl Fn(usize) -> T, decode: impl Fn(&T)) {
    let (small, large) = (input(n), input(10 * n));
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let large_s = median_seconds(|| decode(black_box(&large)));
        best = best.min(large_s / median_seconds(|| decode(black_box(&small))).max(1e-9));
        if best < 20.0 {
            return;
        }
    }
    panic!("{what}: ten times the input took {best:.1}x the time");
}

/// A parser that re-validates the rest of the line for every character of a
/// string value reads about 90 here. `serve` reads with `query_from_json`;
/// `json_to_node` is the same scanner building a tree.
#[test]
fn a_request_line_parses_in_linear_time() {
    let long_string = |bytes: usize| {
        format!(
            r#"{{"note":"{}","ask":"plan","cells_per_task":200,"tasks":64,"budget_s":1}}"#,
            r#"héllo \"wörld\" "#.repeat(bytes / 18)
        )
    };
    assert_linear("wire::json_to_node", 200_000, long_string, |line| {
        black_box(feasd::wire::json_to_node(line)).expect("parses");
    });
    assert_linear("wire::query_from_json", 200_000, long_string, |line| {
        black_box(feasd::wire::query_from_json(line)).expect("parses");
    });
    // 63 unknown keys, alike up to their last bytes, and one field: as many
    // members as an object may have, each matched against the field names.
    let many_keys = |bytes: usize| {
        let pad = "k".repeat(bytes / 64);
        let keys: String = (0..63).map(|i| format!(r#""{pad}{i}":1,"#)).collect();
        format!(r#"{{{keys}"budget_s":1}}"#)
    };
    assert_linear("wire::query_from_json, 63 unknown keys", 200_000, many_keys, |line| {
        let err = black_box(feasd::wire::query_from_json(line)).expect_err("no renderer");
        assert!(err.message.contains("renderer"), "{err}");
    });
}

#[test]
fn a_model_file_loads_in_linear_time() {
    let (set, k) = (sched::demo::ground_truth(), perfmodel::mapping::MappingConstants::default());
    let valid = persist::to_text(&set, &k);
    assert_linear(
        "persist::from_text",
        5_000,
        |lines| valid.clone() + &"mapping|ap_fill=0.25|ppt_factor=4.5|spr_base=210\n".repeat(lines),
        |text| {
            black_box(persist::from_text(text)).expect("loads");
        },
    );
}

#[test]
fn an_fst_table_decodes_in_linear_time() {
    assert_linear(
        "FeasTable::decode",
        50_000,
        |records| {
            let entries = (0..records as u32)
                .map(|i| TableEntry {
                    key: TableKey {
                        renderer: 0,
                        device: 0,
                        image_side: i,
                        cells_per_task: 100,
                        tasks: 8,
                    },
                    per_frame_s: 0.25,
                    build_s: 0.0,
                })
                .collect();
            FeasTable::from_entries(1, entries).encode()
        },
        |bytes| {
            black_box(FeasTable::decode(bytes)).expect("decodes");
        },
    );
}
