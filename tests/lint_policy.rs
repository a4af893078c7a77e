//! The parts of the determinism policy that clippy does not check itself
//! (DESIGN.md, "Determinism invariants"): the number of lint waivers, the
//! one door to the wall clock, an `// ORDERING:` note on every atomic
//! ordering, and the `unwrap`/`expect`/`panic!` ban in every crate that the
//! models or the pinned frames reach.

use std::fs;
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return out };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            out.extend(rust_files(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out
}

/// The files under `sub` of the root and of every crate and shim.
fn files_in(sub: &str) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = rust_files(&root.join(sub));
    for parent in ["crates", "shims"] {
        let mut members: Vec<PathBuf> =
            fs::read_dir(root.join(parent)).unwrap().map(|e| e.unwrap().path()).collect();
        members.sort();
        for m in members {
            out.extend(rust_files(&m.join(sub)));
        }
    }
    out
}

/// A waiver is debt, so their number cannot grow unseen. Every one names a
/// lint and a reason (`allow_attributes_without_reason` checks the reason).
#[test]
fn lint_waivers_stay_capped() {
    let mut waivers = Vec::new();
    for f in files_in("src") {
        for (i, line) in fs::read_to_string(&f).unwrap().lines().enumerate() {
            let attr = line.trim_start().trim_start_matches('#').trim_start_matches('!');
            if attr.starts_with("[allow(") || attr.starts_with("[expect(") {
                waivers.push(format!("{}:{}: {}", f.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        waivers.len() <= WAIVER_CAP,
        "{} waivers, cap {WAIVER_CAP}: fix a finding instead of waiving one more:\n{}",
        waivers.len(),
        waivers.join("\n")
    );
}

/// Today's waivers: 43 in the code (25 `allow`s of style lints, the rayon
/// shim's thread-layer allow, the clock read in `dpp::timed`, 14
/// `unwrap`/`expect`/`panic!` preconditions and 2 hashed containers that are
/// never iterated unsorted) and 18 in the lint fixtures, which exist to fire.
const WAIVER_CAP: usize = 61;

/// The wall clock has one door, `dpp::timed` (X007). Clippy bans the reads,
/// but an item-level `#[expect]` anywhere would open a second door; this
/// check keeps the only read in `crates/dpp/src/lib.rs`, once. The lint
/// fixtures read it on purpose.
#[test]
fn the_wall_clock_is_read_only_at_its_door() {
    let door = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/dpp/src/lib.rs");
    let reads = ["Instant", "SystemTime"].map(|t| format!("{t}::now"));
    let mut found = Vec::new();
    for sub in ["src", "tests", "examples"] {
        for f in files_in(sub) {
            if f.ends_with("lint_fixtures.rs") {
                continue;
            }
            for (i, line) in fs::read_to_string(&f).unwrap().lines().enumerate() {
                if reads.iter().any(|r| line.contains(r.as_str())) {
                    found.push((f.clone(), i + 1));
                }
            }
        }
    }
    let (at_door, elsewhere): (Vec<_>, Vec<_>) = found.into_iter().partition(|(f, _)| *f == door);
    let listed: Vec<String> =
        elsewhere.iter().map(|(f, line)| format!("{}:{line}", f.display())).collect();
    assert!(listed.is_empty(), "wall-clock reads outside `dpp::timed`:\n{}", listed.join("\n"));
    assert_eq!(at_door.len(), 1, "`dpp::timed` reads the clock once: {at_door:?}");
}

/// Every atomic ordering says why it suffices, on its line or in the comment
/// block directly above it.
#[test]
fn every_atomic_ordering_is_justified() {
    let orderings =
        ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].map(|o| format!("Ordering::{o}"));
    let mut bare = Vec::new();
    for sub in ["src", "tests", "examples", "benches"] {
        for f in files_in(sub) {
            let text = fs::read_to_string(&f).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let (code, comment) = line.split_once("//").unwrap_or((line, ""));
                if !orderings.iter().any(|o| code.contains(o.as_str())) {
                    continue;
                }
                let mut above = lines[..i]
                    .iter()
                    .rev()
                    .map(|l| l.trim())
                    .take_while(|l| l.is_empty() || l.starts_with("//"));
                if !comment.contains("ORDERING:") && !above.any(|l| l.contains("ORDERING:")) {
                    bare.push(format!("{}:{}", f.display(), i + 1));
                }
            }
        }
    }
    assert!(
        bare.is_empty(),
        "atomic orderings without an `// ORDERING:` note:\n{}",
        bare.join("\n")
    );
}

/// The crates whose library code must not panic: the modeled crates and
/// every workspace crate they depend on. An `#[expect]` turns its lint on
/// where it stands, so the clippy fixtures cannot see a crate's deny go;
/// this check does.
#[test]
fn every_modeled_crate_denies_panics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let deny = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    for c in [
        "core",
        "render",
        "compositing",
        "sched",
        "vecmath",
        "dpp",
        "mesh",
        "mpirt",
        "strawman",
        "sims",
        "conduit",
    ] {
        let lib = fs::read_to_string(root.join("crates").join(c).join("src/lib.rs")).unwrap();
        assert!(lib.lines().any(|l| l.trim() == deny), "crates/{c}/src/lib.rs lacks `{deny}`");
    }
}

/// `undocumented_unsafe_blocks` (X002) and `allow_attributes_without_reason`
/// (X000) are off by default, and as with the deny above an `#[expect]`
/// fixture cannot see them go: the workspace table names them and every
/// crate and shim opts into it.
#[test]
fn workspace_lints_reach_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    for lint in ["undocumented_unsafe_blocks", "allow_attributes_without_reason"] {
        assert!(workspace.contains(&format!("\n{lint} = \"warn\"\n")), "Cargo.toml lacks {lint}");
    }
    for parent in ["crates", "shims"] {
        for m in fs::read_dir(root.join(parent)).unwrap() {
            let manifest = m.unwrap().path().join("Cargo.toml");
            let Ok(text) = fs::read_to_string(&manifest) else { continue };
            assert!(text.contains("[lints]\nworkspace = true"), "{}", manifest.display());
        }
    }
}
