//! # fsi-bench — shared measurement utilities for the paper harness
//!
//! The `paper` binary (`cargo run --release -p fsi-bench --bin paper`)
//! regenerates every figure and table of the paper's evaluation; the
//! criterion benches exercise the same code on reduced sizes. This library
//! holds what they share: timing helpers, plain-text table rendering,
//! seeded dataset construction, harness CLI conventions ([`HarnessArgs`]),
//! and a registry-free JSON reader ([`json`]) for the regression gate.

#![forbid(unsafe_code)]

pub mod json;

use fsi_core::elem::SortedSet;
use fsi_core::hash::HashContext;
use fsi_index::strategy::{intersect_into, PreparedList, Strategy};
use std::time::{Duration, Instant};

/// Runs `f` once and returns its wall-clock duration, guarding the result
/// from being optimized away.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    std::hint::black_box(out);
    elapsed
}

/// Median wall-clock duration over `reps` runs (one warm-up run first).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..reps.max(1)).map(|_| time_once(&mut f)).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Minimum wall-clock duration over `reps` runs (one warm-up run first) —
/// the steady-state estimator for µs-scale operations, immune to the
/// scheduling and cold-cache outliers a median of few reps can land on.
pub fn min_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    (0..reps.max(1))
        .map(|_| time_once(&mut f))
        .min()
        .expect("reps >= 1")
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A plain-text (markdown-flavoured) table printer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a millisecond value for table cells.
pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Prepares one strategy over several sets and times `reps` intersections;
/// returns (median duration, result size, prepared bytes).
pub fn run_strategy(
    strategy: Strategy,
    ctx: &HashContext,
    sets: &[&SortedSet],
    reps: usize,
) -> (Duration, usize, usize) {
    let prepared: Vec<PreparedList> = sets.iter().map(|s| strategy.prepare(ctx, s)).collect();
    let bytes: usize = prepared.iter().map(|p| p.size_in_bytes()).sum();
    let refs: Vec<&PreparedList> = prepared.iter().collect();
    let mut out = Vec::new();
    let d = median_time(reps, || {
        out.clear();
        intersect_into(&refs, &mut out);
        out.len()
    });
    (d, out.len(), bytes)
}

/// Standard harness seed so every experiment is reproducible.
pub const HARNESS_SEED: u64 = 0x2011_0404;

/// The checked-out revision as `git describe --always --dirty` prints it
/// (a `-dirty` suffix marks uncommitted changes), or `"unknown"` when the
/// binary runs outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty() && rev.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `"env": {...}` JSON entry every benchmark binary stamps into its
/// output: the revision and core count of the box it ran on, the SIMD
/// tier this process actually dispatches to and the planner unit
/// constants in force ([`fsi_index::Planner::auto`] /
/// [`fsi_query::ExprPlanner::auto`]). Two baseline files that disagree
/// here were measured on different effective machines — the regression
/// gate's tolerance exists for jitter, not for silently comparing an AVX2
/// box against a scalar one, so the provenance rides in the file itself.
///
/// Returned as a ready-to-splice `"env": {...}` fragment (no trailing
/// comma) matching the two-space top-level indent the binaries use.
pub fn env_json() -> String {
    let p = fsi_index::Planner::auto();
    let xp = fsi_query::ExprPlanner::auto();
    format!(
        "\"env\": {{\n    \"commit\": \"{}\",\n    \"available_cores\": {},\n    \
         \"simd_level\": \"{}\",\n    \"planner_units\": {{\n      \
         \"gallop_unit\": {}, \"hash_unit\": {}, \"bitmap_word_unit\": {}, \
         \"rgs_unit\": {}, \"heap_unit\": {},\n      \
         \"union_unit\": {}, \"union_bitmap_word_unit\": {}, \"diff_unit\": {}\n    }}\n  }}",
        git_commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fsi_kernels::SimdLevel::active().name(),
        p.gallop_unit,
        p.hash_unit,
        p.bitmap_word_unit,
        p.rgs_unit,
        p.heap_unit,
        xp.union_unit,
        xp.union_bitmap_word_unit,
        xp.diff_unit,
    )
}

/// Harness CLI conventions shared by the benchmark binaries: an optional
/// positional output path plus a `--smoke` flag (or `FSI_BENCH_SMOKE=1`)
/// that shrinks reps and problem sizes for the CI regression gate. Smoke
/// runs stamp `"smoke": true` into their JSON so a reduced-effort file can
/// never be mistaken for (or committed as) a reference baseline.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Where the JSON lands.
    pub out_path: String,
    /// Reduced-effort mode for the CI bench gate.
    pub smoke: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`: the first non-flag argument is the output
    /// path (defaulting to `default_out`), `--smoke` anywhere (or the
    /// `FSI_BENCH_SMOKE=1` environment variable) selects smoke mode.
    pub fn parse(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--smoke")
            || std::env::var("FSI_BENCH_SMOKE").is_ok_and(|v| v == "1");
        let out_path = args
            .iter()
            .find(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| default_out.to_string());
        Self { out_path, smoke }
    }

    /// `full` normally, `smoke` in smoke mode — for scaling rep counts and
    /// problem sizes in one place.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Writes the benchmark JSON to [`HarnessArgs::out_path`], creating
    /// parent directories first (CI writes into `target/smoke/`, which no
    /// prior step creates).
    pub fn write_output(&self, json: &str) {
        let path = std::path::Path::new(&self.out_path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output directory");
            }
        }
        std::fs::write(path, json).expect("write benchmark output");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_smoke() {
        let d = median_time(3, || (0..1000u64).sum::<u64>());
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let r = t.render();
        assert!(r.contains("| 333 |"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn run_strategy_smoke() {
        let ctx = HashContext::new(1);
        let a: SortedSet = (0..1000u32).collect();
        let b: SortedSet = (500..1500u32).collect();
        let (d, r, bytes) = run_strategy(Strategy::Merge, &ctx, &[&a, &b], 2);
        assert_eq!(r, 500);
        assert!(bytes > 0);
        let _ = d;
    }

    #[test]
    fn env_json_parses_and_names_the_active_tier() {
        let doc = json::Json::parse(&format!("{{\n  {}\n}}", env_json())).expect("valid JSON");
        let env = doc.get("env").expect("env object");
        assert_eq!(
            env.get("simd_level").and_then(json::Json::as_str),
            Some(fsi_kernels::SimdLevel::active().name())
        );
        let units = env.get("planner_units").expect("planner_units");
        for key in [
            "gallop_unit",
            "hash_unit",
            "bitmap_word_unit",
            "rgs_unit",
            "heap_unit",
            "union_unit",
            "union_bitmap_word_unit",
            "diff_unit",
        ] {
            assert!(
                units.get(key).and_then(json::Json::as_f64).is_some(),
                "missing unit {key}"
            );
        }
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(250.0), "250");
        assert_eq!(fmt_ms(2.5), "2.50");
        assert_eq!(fmt_ms(0.5), "0.5000");
    }
}
