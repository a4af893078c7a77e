//! Shared harness code for regenerating every table and figure of the paper.
//!
//! The `repro` binary (`cargo run -p bench-harness --release --bin repro --
//! <id>`) drives one experiment per table/figure; this library holds the
//! common machinery: run scales, dataset construction, the measured study
//! corpus, and plain-text table formatting.

pub mod corpus;
pub mod figures;
pub mod images;
pub mod tables;

use std::fmt::Write as _;

/// Experiment scale. `Quick` shrinks grids/images so the whole suite runs in
/// minutes on a laptop; `Full` uses paper-shaped sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// Axis scale factor applied to the paper's dataset grid dimensions.
    pub fn dataset_scale(&self) -> f32 {
        match self {
            Scale::Quick => 0.22,
            Scale::Full => 1.0,
        }
    }

    /// Benchmark image side (the paper used 1080p/1024^2).
    pub fn image_side(&self) -> u32 {
        match self {
            Scale::Quick => 256,
            Scale::Full => 1024,
        }
    }

    /// Render repetitions to average over (the paper used 100 + 50 warmup).
    pub fn rounds(&self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }
}

/// Simple fixed-width text table.
pub struct TextTable {
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(title: impl Into<String>, header: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", cell, width = widths[c]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as CSV (for figure series). Rows are emitted in sorted key
    /// order — numeric-aware on each column left to right — so regenerated
    /// CSVs diff cleanly regardless of the order experiments appended rows.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<&Vec<String>> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = match (x.parse::<f64>(), y.parse::<f64>()) {
                    (Ok(nx), Ok(ny)) => nx.total_cmp(&ny),
                    _ => x.cmp(y),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let mut out = self.header.join(",");
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with adaptive precision.
pub fn fmt_s(v: f64) -> String {
    if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Format a count with thousands grouping like "1.31M" / "350K".
pub fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Output directory for CSVs and images produced by the harness.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("repro_out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        panic!("could not create {}: {e}", dir.display());
    }
    dir
}

/// Write an artifact file and report it. A failed write panics — `repro`
/// runs every stage under `catch_unwind`, so the stage is reported failed
/// and the exit code is nonzero instead of a CSV silently missing or stale.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        panic!("could not write {}: {e}", path.display());
    }
    println!("[wrote {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        let csv = t.to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("a,1\n"));
    }

    #[test]
    fn csv_rows_sort_numerically_then_lexically() {
        let mut t = TextTable::new("S", &["tasks", "name"]);
        t.row(vec!["32".into(), "b".into()]);
        t.row(vec!["4".into(), "z".into()]);
        t.row(vec!["4".into(), "a".into()]);
        t.row(vec!["128".into(), "c".into()]);
        // 4 < 32 < 128 numerically (lexically "128" < "32" < "4" would be
        // wrong); equal first columns fall through to the second.
        assert_eq!(t.to_csv(), "tasks,name\n4,a\n4,z\n32,b\n128,c\n");
        // render() keeps insertion order.
        let rendered = t.render();
        let b32 = rendered.find("32").unwrap();
        let c128 = rendered.find("128").unwrap();
        assert!(b32 < c128);
    }

    #[test]
    fn csv_insertion_order_is_irrelevant() {
        let mut fwd = TextTable::new("S", &["x"]);
        let mut rev = TextTable::new("S", &["x"]);
        for i in 0..10 {
            fwd.row(vec![format!("{}", i as f64 * 1.5)]);
            rev.row(vec![format!("{}", (9 - i) as f64 * 1.5)]);
        }
        assert_eq!(fwd.to_csv(), rev.to_csv());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(1_310_000.0), "1.31M");
        assert_eq!(fmt_count(350_000.0), "350K");
        assert_eq!(fmt_count(42.0), "42");
        assert_eq!(fmt_s(12.345), "12.3");
        assert_eq!(fmt_s(0.5), "0.500");
        assert_eq!(fmt_s(0.01234), "0.01234");
    }

    #[test]
    fn failed_artifact_write_fails_the_call() {
        // A regular file where the artifact's parent directory should be.
        let dir = out_dir();
        let blocker = dir.join("write_artifact_test_blocker");
        std::fs::write(&blocker, "").unwrap();
        let result = std::panic::catch_unwind(|| {
            write_artifact("write_artifact_test_blocker/table.csv", "a,b\n")
        });
        std::fs::remove_file(&blocker).unwrap();
        // The test's own `repro_out/` (cargo runs it in the crate directory);
        // `remove_dir` leaves a non-empty one alone.
        let _ = std::fs::remove_dir(dir);
        let message = *result.expect_err("write must fail").downcast::<String>().unwrap();
        assert!(message.contains("write_artifact_test_blocker"), "{message}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
