//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every binary prints the paper-style rows/series to stdout and mirrors
//! them as CSV (and JSON where structured) under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device_mvm;
pub mod figures;
pub mod serve;

/// Safe hooks for a counting global allocator.
///
/// The `bench_serve` binary registers a [`std::alloc::GlobalAlloc`]
/// wrapper (the `unsafe impl` lives in the binary — this library forbids
/// unsafe code) that calls [`alloc_counter::record`] on every allocation;
/// [`crate::serve`] then reports the allocation count of a warm serving
/// round in `BENCH_serve.json`. When no counting allocator is installed
/// (library tests, other binaries) the counter stays inactive and the
/// report carries `null`.
pub mod alloc_counter {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static ACTIVE: AtomicBool = AtomicBool::new(false);

    /// Counts one allocation (called from the binary's allocator shim).
    pub fn record() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the counting allocator as installed.
    pub fn activate() {
        ACTIVE.store(true, Ordering::Relaxed);
    }

    /// Whether a counting allocator is installed.
    #[must_use]
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Allocations recorded so far.
    #[must_use]
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

use std::fs;
use std::path::{Path, PathBuf};

/// Resolves the workspace root, looking upward from the current directory
/// (falls back to the current directory outside the repo).
#[must_use]
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("current dir");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().expect("current dir");
        }
    }
}

/// Resolves the repository `results/` directory (creating it).
#[must_use]
pub fn results_dir() -> PathBuf {
    let results = workspace_root().join("results");
    fs::create_dir_all(&results).expect("create results dir");
    results
}

/// Where a benchmark snapshot named `file` is written: the committed
/// copy at the workspace root for a full run, or `results/` (gitignored)
/// for a `--quick` smoke run, so a smoke run never replaces the
/// committed trajectory.
#[must_use]
pub fn snapshot_path(file: &str, quick: bool) -> PathBuf {
    if quick {
        results_dir().join(file)
    } else {
        workspace_root().join(file)
    }
}

/// Writes CSV rows (first row = header) to `results/<name>.csv` and echoes
/// the path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write csv");
    println!("[written] {}", path.display());
    path
}

/// Serializes a JSON report to `results/<name>.json`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    fs::write(&path, json).expect("write json");
    println!("[written] {}", path.display());
    path
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats a float with the given precision, for CSV cells.
#[must_use]
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Returns `path` as a displayable string (for logs).
#[must_use]
pub fn display_path(path: &Path) -> String {
    path.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir();
        assert!(dir.is_dir());
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn csv_round_trip() {
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let path = write_csv("test_csv_round_trip", &["a", "b"], &rows);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
