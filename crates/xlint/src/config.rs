//! The scopes of the path-sensitive lints.
//!
//! xlint lints one repository, so its scopes are a table in the crate:
//! [`Config::workspace`]. A scope changes in the same commit as the code it
//! names, and `tests/xlint_clean.rs` checks that every prefix in the table
//! still names a path that exists. The fixture tests use
//! [`Config::for_fixtures`], under which every path-sensitive lint applies
//! to every file.

/// Root-relative `/`-separated path prefixes; `""` matches every file.
pub type Paths = &'static [&'static str];

/// Where the walk goes and where each path-sensitive lint applies.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Directories (relative to the root) walked for `.rs` files.
    pub walk_roots: Paths,
    /// Path prefixes excluded from the walk (lint fixtures).
    pub walk_exclude: Paths,
    /// Crates whose output bytes are pinned: X005 bans `HashMap`/`HashSet`
    /// there.
    pub x005_pinned: Paths,
    /// Library source trees where X006 bans `unwrap`/`expect`/`panic!`
    /// outside tests. X014 reports in the same trees: it is X006 followed
    /// through the call graph.
    pub x006_scopes: Paths,
    /// The designated timing modules: the only places allowed to read the
    /// wall clock (X007), and barriers for X012's taint.
    pub x007_timing_modules: Paths,
    /// Where X011 bans direct construction of per-rank cell assignments
    /// (`Partition::from_assignments`): the byte-pinned crates and
    /// everything that partitions data for them.
    pub x011_pinned: Paths,
    /// The partition modules inside the X011 scopes — the single source of
    /// truth allowed to construct assignments directly.
    pub x011_partition_modules: Paths,
}

impl Config {
    /// This repository's scopes.
    pub const fn workspace() -> Config {
        Config {
            // `shims/` is deliberately not walked: it is the blessed
            // implementation layer the concurrency lints push callers toward.
            walk_roots: &["crates", "src", "tests", "examples"],
            walk_exclude: &["crates/xlint/tests/fixtures"],
            // Rendered and composited bytes are pinned by golden tests:
            // iteration order must never depend on hasher state.
            x005_pinned: &[
                "crates/render/",
                "crates/compositing/",
                "crates/strawman/",
                "crates/conduit/",
            ],
            // The modeled crates: a panic here ends the study mid-run.
            x006_scopes: &[
                "crates/core/src/",
                "crates/render/src/",
                "crates/compositing/src/",
                "crates/sched/src/",
            ],
            // Everything else must take measured seconds as data.
            x007_timing_modules: &[
                // `PhaseTimer` / `AdmissionLog`: the renderers' only clock.
                "crates/render/src/counters.rs",
                // The comparator renderers time themselves for the study.
                "crates/baselines/",
                // Compositing phase timers.
                "crates/compositing/src/algorithms.rs",
                // DFB fold / production timers.
                "crates/compositing/src/dfb.rs",
                // The in situ driver measures per-phase wall time.
                "crates/strawman/src/api.rs",
                // The measurement harness itself.
                "crates/bench/",
                // The linter's own `--stats` stopwatch.
                "crates/xlint/src/main.rs",
                // Demo drivers report wall time.
                "examples/",
            ],
            // Everything that feeds pinned pixels takes its `Partition` from
            // the deterministic bisection (a pure function of centroids,
            // weights and ranks); `from_assignments` stays in the partition
            // module and in test code.
            x011_pinned: &[
                "crates/mesh/",
                "crates/render/",
                "crates/compositing/",
                "crates/strawman/",
                "crates/conduit/",
                "crates/sched/",
            ],
            x011_partition_modules: &["crates/mesh/src/partition.rs"],
        }
    }

    /// The fixture tests' scopes: every path-sensitive lint applies
    /// everywhere and nothing is a timing module.
    pub const fn for_fixtures() -> Config {
        Config {
            walk_roots: &["."],
            walk_exclude: &[],
            x005_pinned: &[""],
            x006_scopes: &[""],
            x007_timing_modules: &[],
            x011_pinned: &[""],
            x011_partition_modules: &[],
        }
    }
}
