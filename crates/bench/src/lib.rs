//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every figure of the paper has a `--bin figNN` binary in `src/bin/` that
//! prints the same rows/series the paper plots and writes a CSV to
//! `target/figures/`. Scale can be reduced for smoke tests with the
//! `KVSCALE_ELEMENTS` environment variable (default: the paper's one
//! million elements).

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

pub mod json;

/// The paper's dataset size.
pub const PAPER_ELEMENTS: u64 = 1_000_000;

/// Dataset size for the current run: `KVSCALE_ELEMENTS` env var or the
/// paper's one million.
pub fn elements_from_env() -> u64 {
    env_u64("KVSCALE_ELEMENTS", PAPER_ELEMENTS)
}

/// A numeric knob from the environment, or `default` when it is unset or
/// does not parse.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The node counts of the paper's scaling experiments.
pub const PAPER_NODE_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// Where figure CSVs land.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env_target_dir()).join("figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

fn env_target_dir() -> String {
    std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string())
}

/// A tiny CSV writer: header row + data rows, all stringly.
pub struct Csv {
    path: PathBuf,
    out: String,
    columns: usize,
}

impl Csv {
    /// Opens `target/figures/<name>.csv` with the given header.
    pub fn new(name: &str, header: &[&str]) -> Csv {
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        Csv {
            path: figures_dir().join(format!("{name}.csv")),
            out,
            columns: header.len(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// If the row width differs from the header width.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns, "ragged CSV row");
        let rendered: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.out.push_str(&rendered.join(","));
        self.out.push('\n');
    }

    /// Writes the file and reports the path on stdout.
    pub fn finish(self) {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir).expect("create figure directory");
        }
        let mut f = fs::File::create(&self.path).expect("create figure CSV");
        f.write_all(self.out.as_bytes()).expect("write figure CSV");
        println!("\n[csv] {}", self.path.display());
    }
}

/// Prints a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!("================================================================");
    println!("{figure} — {caption}");
    println!("================================================================");
}

/// Formats milliseconds human-readably.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1_000.0 {
        format!("{:.2}s", ms / 1_000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.0}µs", ms * 1_000.0)
    }
}

/// Formats a fraction as a signed percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:+.0}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        // Not setting the variable here (process-global); just check the
        // default path.
        assert_eq!(PAPER_ELEMENTS, 1_000_000);
    }

    #[test]
    fn csv_accumulates_rows() {
        let mut csv = Csv::new("selftest", &["a", "b"]);
        csv.row(&[&1, &"x"]);
        csv.row(&[&2.5, &"y"]);
        assert!(csv.out.lines().count() == 3);
        csv.finish();
        let path = figures_dir().join("selftest.csv");
        let content = fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b\n1,x\n2.5,y\n"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut csv = Csv::new("selftest2", &["a", "b"]);
        csv.row(&[&1]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(1_500.0), "1.50s");
        assert_eq!(fmt_ms(12.34), "12.3ms");
        assert_eq!(fmt_ms(0.5), "500µs");
        assert_eq!(fmt_pct(0.62), "+62%");
        assert_eq!(fmt_pct(-0.1), "-10%");
    }
}
