//! The CI bench-regression gate: compares a fresh (smoke) benchmark run
//! against the committed `BENCH_*.json` baselines and fails on large
//! regressions.
//!
//! The tolerance is deliberately generous — micro-benchmarks on shared CI
//! hardware jitter, and smoke runs cut reps — so the gate only catches
//! *cliffs*: a metric
//! must fall below `baseline / tolerance` (default tolerance 2.0, i.e. a
//! >2x regression) to fail. Checked metrics:
//!
//! * `kernels` files — `speedup_vs_merge` per (shape, kernel);
//! * `multiway` files — `speedup_vs_fold` per (shape, k, algo), and per
//!   (shape, k) the inverse of the planner's `regret` (best fixed
//!   algorithm's time over the planned time; inverted so that, like every
//!   other gated number, higher is better), capped at 1: a planner that
//!   beats every fixed row does so by binding a prepared structure no
//!   slice kernel has, which says nothing about its choices and must not
//!   buy headroom — on such a shape the gate reads "never more than
//!   `tolerance` times the best fixed row";
//! * `simd` files — `speedup_vs_scalar` per (shape, kernel). A run whose
//!   `active_level` is `Scalar` (no SIMD hardware, or a `force-scalar`
//!   build) declines all of its rows instead of reporting fake 1.0x
//!   speedups — the gate skips them the way it skips oversubscribed serve
//!   rows. Each `chunk_merge` row (`<pair>/u32_over_u16`) is the flat
//!   `u32` merge's time over the chunked 16-bit merge's on the same pair,
//!   both timed interleaved in one process at the run's tier; it is held
//!   to an absolute floor of 1 / 1.10 — the chunked merge may take at most
//!   1.10 times the `u32` merge — whatever the baseline read and whatever
//!   the tolerance, at every tier;
//! * `boolean` files — `qps` per query-stream shape plus the canonical
//!   cache-keying `hit_rate` (deterministic in the seeded stream);
//! * `obs` files — the untraced throughput `untraced_qps` and the
//!   traced/untraced `qps_ratio` (higher = cheaper tracing). The obs
//!   binary additionally hard-asserts its overhead budget in-process, so
//!   the gate here only has to catch cliffs that assertion's slack admits;
//! * `compress` files — `compression_ratio` per (shape, codec) — the
//!   flat-u32-bytes over compressed-bytes ratio, higher = smaller — and
//!   `qps` per (shape, algo) for the flat, decode-then-intersect, and
//!   compressed-domain intersection variants;
//! * `serve` files — the cache-fronted `cold_qps` and `warm_qps` (the
//!   closed-loop worker-scaling rows were retired in favor of the `slo`
//!   bench, which measures serving under load properly), and the `build`
//!   row (`build/copy_over_planned`): the time to clone the benchmark
//!   corpus's posting lists over the time `PlannedExecutor::build` takes
//!   on them, both the minimum of interleaved samples in one process. Its
//!   reference is that copy — the least a build that reads every posting
//!   and writes an index can cost — and it is held to an absolute floor of
//!   1 / 1.25: the build may take at most 1.25 times the copy (≈ 1.6 when
//!   the build read each long list twice, ≈ 1.0 since it reads it once),
//!   whatever the baseline read and whatever the tolerance;
//! * `slo` files — `capacity_qps`, the hard `response_accounting`
//!   conservation check, and per-row `goodput_fraction` for rows offered
//!   *below* saturation (`offered_mult < 1.0`). Rows at or past
//!   saturation are explicitly declined: goodput there measures where the
//!   shedding knee lands on the CI box's core count, which legitimately
//!   differs from the baseline box — the row exists to eyeball degradation
//!   shape, not to gate. Also gated: `lifecycle/qps_ratio`
//!   (instrumented-over-stripped capacity — higher = cheaper lifecycle
//!   instrumentation; the binary hard-asserts the overhead budget in
//!   process, so this only catches cliffs that slack admits) and
//!   `attribution/shed_retained` clamped to 1.0 (presence of retained
//!   slow-log records for shed requests — how *many* the ring holds at
//!   scrape time depends on row volume, so the gate pins only that
//!   retention works at all).
//!
//! Ratios are speedups/throughputs (higher = better), so the check is
//! one-sided: getting faster never fails. A metric present in the baseline
//! but missing from the current run fails — a silently dropped shape or
//! kernel must not pass the gate. A baseline (or current) file that does
//! not exist or does not parse fails the gate with a nonzero exit, never a
//! silent skip: a missing baseline means a new benchmark was added without
//! committing its reference.
//!
//! Provenance is reported, never gated: when the two files' `env` blocks
//! disagree on `simd_level` or on any `planner_units` key, one `note:`
//! line says so — the numbers below it were measured on different
//! effective machines, which is for the reader to weigh.
//!
//! Usage:
//! `check_regression [--tolerance 2.0] <baseline.json> <current.json> [<baseline> <current> ...]`

use fsi_bench::json::Json;
use std::process::ExitCode;

/// One comparable metric extracted from a benchmark file.
struct Metric {
    /// Stable identity across runs, e.g. `balanced-dense/k=3/Planned`.
    key: String,
    value: f64,
}

/// The most time the chunked 16-bit merge may take, as a multiple of the
/// `u32` merge's on the same pair.
const CHUNK_MERGE_MAX_TIME_RATIO: f64 = 1.10;

/// Key prefix of the `chunk_merge` rows, which `main` holds to the absolute
/// floor `1 / CHUNK_MERGE_MAX_TIME_RATIO` instead of `baseline / tolerance`:
/// each is a ratio measured against a reference in the same process, where
/// the box's speed cancels out.
const CHUNK_MERGE: &str = "chunk-merge/";

/// The most time the index build may take, as a multiple of cloning the
/// posting lists it is built from.
const BUILD_MAX_OVER_COPY: f64 = 1.25;

/// Key prefix of the `build` row, which `main` holds to the absolute floor
/// `1 / BUILD_MAX_OVER_COPY`, for the reason the `chunk_merge` rows are.
const BUILD: &str = "build/";

/// The absolute floor of a row keyed under one of the prefixes above.
fn absolute_floor(key: &str) -> Option<f64> {
    [
        (CHUNK_MERGE, CHUNK_MERGE_MAX_TIME_RATIO),
        (BUILD, BUILD_MAX_OVER_COPY),
    ]
    .iter()
    .find(|(prefix, _)| key.starts_with(prefix))
    .map(|(_, max_time_ratio)| 1.0 / max_time_ratio)
}

/// Reads and parses one benchmark file. Errors are returned, not panicked:
/// `main` turns them into a clean `FAIL` + nonzero exit so a missing or
/// corrupt baseline can never look like a passing (or crashed) gate.
fn load(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        format!("cannot read {path}: {e} (new benchmark without a committed baseline? regenerate it in full mode and commit it)")
    })?;
    Json::parse(&src).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

fn text<'j>(v: &'j Json, key: &str) -> &'j str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field {key:?}"))
}

/// Extracts the gated metrics of one benchmark file, dispatching on its
/// `"bench"` tag. The second list holds `(key, reason)` pairs the file
/// *explicitly* declined to gate (oversubscribed serve rows, SIMD rows of
/// a scalar-tier run) — only those may be tolerated when absent from the
/// comparison; any other missing key is a silently dropped metric and
/// must fail.
fn metrics(doc: &Json, path: &str) -> (Vec<Metric>, Vec<(String, &'static str)>) {
    let mut out = Vec::new();
    let mut declined = Vec::new();
    match text(doc, "bench") {
        "kernels" => {
            for shape in doc.get("shapes").and_then(Json::as_array).unwrap_or(&[]) {
                let shape_name = text(shape, "shape");
                for row in shape.get("kernels").and_then(Json::as_array).unwrap_or(&[]) {
                    let kernel = text(row, "kernel");
                    if kernel == "Merge" {
                        continue; // its speedup vs itself is 1.0 by construction
                    }
                    out.push(Metric {
                        key: format!("{shape_name}/{kernel}/speedup_vs_merge"),
                        value: num(row, "speedup_vs_merge"),
                    });
                }
            }
        }
        "simd" => {
            // A Scalar-tier run measured nothing vectorized: decline every
            // row instead of gating 1.0x "speedups" (the CI box need not
            // share the baseline box's instruction sets).
            let scalar_only = text(doc, "active_level") == "Scalar";
            for shape in doc.get("shapes").and_then(Json::as_array).unwrap_or(&[]) {
                let shape_name = text(shape, "shape");
                for row in shape.get("kernels").and_then(Json::as_array).unwrap_or(&[]) {
                    let key = format!("{shape_name}/{}/speedup_vs_scalar", text(row, "kernel"));
                    if scalar_only {
                        declined.push((key, "no SIMD tier in this run"));
                    } else {
                        out.push(Metric {
                            key,
                            value: num(row, "speedup_vs_scalar"),
                        });
                    }
                }
            }
            for row in doc
                .get("chunk_merge")
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                out.push(Metric {
                    key: format!("{CHUNK_MERGE}{}/u32_over_u16", text(row, "pair")),
                    value: 1.0 / num(row, "time_ratio"),
                });
            }
        }
        "multiway" => {
            for shape in doc.get("shapes").and_then(Json::as_array).unwrap_or(&[]) {
                let shape_name = text(shape, "shape");
                let k = num(shape, "k");
                let regret = num(shape, "regret");
                assert!(
                    regret.is_finite() && regret > 0.0,
                    "{path}: {shape_name}/k={k} has regret {regret}"
                );
                out.push(Metric {
                    key: format!("{shape_name}/k={k}/best_fixed_vs_planned"),
                    value: (1.0 / regret).min(1.0),
                });
                for row in shape.get("algos").and_then(Json::as_array).unwrap_or(&[]) {
                    let algo = text(row, "algo");
                    if algo == "PairwiseFold(Merge)" {
                        continue; // the 1.0x baseline row
                    }
                    out.push(Metric {
                        key: format!("{shape_name}/k={k}/{algo}/speedup_vs_fold"),
                        value: num(row, "speedup_vs_fold"),
                    });
                }
            }
        }
        "boolean" => {
            for shape in doc.get("shapes").and_then(Json::as_array).unwrap_or(&[]) {
                out.push(Metric {
                    key: format!("{}/qps", text(shape, "shape")),
                    value: num(shape, "qps"),
                });
            }
            if let Some(cache) = doc.get("cache") {
                // The canonical-keying demonstration: deterministic in the
                // seeded stream, so a hit-rate drop means canonicalization
                // (or cache keying) regressed, not hardware jitter.
                out.push(Metric {
                    key: "cache/hit_rate".to_string(),
                    value: num(cache, "hit_rate"),
                });
            }
        }
        "obs" => {
            let overhead = doc
                .get("overhead")
                .unwrap_or_else(|| panic!("{path}: obs file without an overhead object"));
            out.push(Metric {
                key: "overhead/untraced_qps".to_string(),
                value: num(overhead, "untraced_qps"),
            });
            out.push(Metric {
                key: "overhead/qps_ratio".to_string(),
                value: num(overhead, "qps_ratio"),
            });
        }
        "compress" => {
            for shape in doc.get("shapes").and_then(Json::as_array).unwrap_or(&[]) {
                let shape_name = text(shape, "shape");
                for row in shape.get("codecs").and_then(Json::as_array).unwrap_or(&[]) {
                    // Gate the ratio, not raw bytes: higher = smaller files,
                    // so improving compression can never fail the one-sided
                    // check.
                    out.push(Metric {
                        key: format!("{shape_name}/{}/compression_ratio", text(row, "codec")),
                        value: num(row, "compression_ratio"),
                    });
                }
                for row in shape.get("algos").and_then(Json::as_array).unwrap_or(&[]) {
                    out.push(Metric {
                        key: format!("{shape_name}/{}/qps", text(row, "algo")),
                        value: num(row, "qps"),
                    });
                }
            }
        }
        "serve" => {
            if let Some(cache) = doc.get("cache") {
                out.push(Metric {
                    key: "cache/cold_qps".to_string(),
                    value: num(cache, "cold_qps"),
                });
                out.push(Metric {
                    key: "cache/warm_qps".to_string(),
                    value: num(cache, "warm_qps"),
                });
            }
            if let Some(build) = doc.get("build") {
                out.push(Metric {
                    key: format!("{BUILD}copy_over_planned"),
                    value: 1.0 / num(build, "planned_over_copy"),
                });
            }
        }
        "slo" => {
            out.push(Metric {
                key: "capacity_qps".to_string(),
                value: num(doc, "capacity_qps"),
            });
            // Conservation is binary: the binary hard-asserts it in
            // process, and the gate pins it so a baseline or current file
            // can never carry anything but 1.0.
            out.push(Metric {
                key: "response_accounting".to_string(),
                value: num(doc, "response_accounting"),
            });
            for row in doc.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
                let mult = num(row, "offered_mult");
                let key = format!("offered={mult}x/goodput_fraction");
                if mult >= 1.0 {
                    // Where the shedding knee lands at/past saturation
                    // depends on the box's core count; the row informs,
                    // the gate skips it.
                    declined.push((key, "at/past saturation"));
                    continue;
                }
                out.push(Metric {
                    key,
                    value: num(row, "goodput_fraction"),
                });
            }
            let lifecycle = doc
                .get("lifecycle")
                .unwrap_or_else(|| panic!("{path}: slo file without a lifecycle object"));
            out.push(Metric {
                key: "lifecycle/qps_ratio".to_string(),
                value: num(lifecycle, "qps_ratio"),
            });
            let attribution = doc
                .get("attribution")
                .unwrap_or_else(|| panic!("{path}: slo file without an attribution object"));
            // Presence, not magnitude: 1.0 if any shed request left a
            // retained slow-log record, which the binary also asserts.
            out.push(Metric {
                key: "attribution/shed_retained".to_string(),
                value: num(attribution, "shed_retained").min(1.0),
            });
        }
        other => panic!("{path}: unknown bench tag {other:?}"),
    }
    (out, declined)
}

/// Where the two files' `env` blocks disagree: the SIMD tier, and every
/// planner unit either side names (a unit one side lacks reads `absent`).
fn env_disagreements(baseline: &Json, current: &Json) -> Vec<String> {
    fn units(doc: &Json) -> &[(String, Json)] {
        match doc.get("env").and_then(|e| e.get("planner_units")) {
            Some(Json::Obj(units)) => units,
            _ => &[],
        }
    }
    fn unit<'j>(doc: &'j Json, key: &str) -> Option<&'j Json> {
        units(doc).iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn tier(doc: &Json) -> Option<&Json> {
        doc.get("env")?.get("simd_level")
    }
    fn show(v: Option<&Json>) -> String {
        match v {
            Some(Json::Num(x)) => x.to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => format!("{other:?}"),
            None => "absent".to_string(),
        }
    }
    let mut out = Vec::new();
    let mut compare = |key: &str, b: Option<&Json>, c: Option<&Json>| {
        if b != c {
            out.push(format!("{key} {} -> {}", show(b), show(c)));
        }
    };
    compare("simd_level", tier(baseline), tier(current));
    for (key, b) in units(baseline) {
        compare(key, Some(b), unit(current, key));
    }
    for (key, c) in units(current) {
        if unit(baseline, key).is_none() {
            compare(key, None, Some(c));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 2.0f64;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            tolerance = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--tolerance needs a number");
        } else {
            paths.push(arg);
        }
    }
    assert!(
        !paths.is_empty() && paths.len().is_multiple_of(2),
        "usage: check_regression [--tolerance X] <baseline.json> <current.json> ..."
    );
    assert!(tolerance >= 1.0, "tolerance must be >= 1.0");

    let mut failures = 0usize;
    let mut checked = 0usize;
    for pair in paths.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let (baseline, current) = match (load(base_path), load(cur_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (b, c) => {
                for err in [b.err(), c.err()].into_iter().flatten() {
                    println!("  FAIL  {err}");
                }
                failures += 1;
                continue;
            }
        };
        // The binaries stamp `"smoke": true` into reduced-effort runs so
        // one can never silently become the reference the gate measures
        // against (docs/benchmarks.md: committed baselines must be full).
        assert!(
            baseline.get("smoke").and_then(Json::as_bool) != Some(true),
            "{base_path}: baseline was produced by a --smoke run; regenerate it in full mode"
        );
        let tag = text(&baseline, "bench").to_string();
        assert_eq!(
            tag,
            text(&current, "bench"),
            "{base_path} vs {cur_path}: mismatched bench tags"
        );
        println!("\n== {tag}: {cur_path} vs baseline {base_path} (tolerance {tolerance}x) ==");
        let env_diff = env_disagreements(&baseline, &current);
        if !env_diff.is_empty() {
            println!(
                "  note: env differs (baseline -> current): {}",
                env_diff.join(", ")
            );
        }
        // Declined rows are skipped per-file; drop a metric when either
        // side skipped it.
        let (base_metrics, _) = metrics(&baseline, base_path);
        let (cur_metrics, cur_declined) = metrics(&current, cur_path);
        for m in &base_metrics {
            let Some(cur) = cur_metrics.iter().find(|c| c.key == m.key) else {
                if let Some((_, reason)) = cur_declined.iter().find(|(k, _)| *k == m.key) {
                    // The CI box decides which rows it can gate (its core
                    // count, its instruction sets); a row the current run
                    // *explicitly* declined is not a dropped metric.
                    // Anything else missing is — it must not pass silently.
                    println!("  skip  {:<55} (current run: {reason})", m.key);
                    continue;
                }
                println!("  FAIL  {:<55} missing from current run", m.key);
                failures += 1;
                continue;
            };
            checked += 1;
            let absolute = absolute_floor(&m.key);
            let floor = absolute.unwrap_or(m.value / tolerance);
            let verdict = if cur.value >= floor { "ok  " } else { "FAIL" };
            if cur.value < floor {
                failures += 1;
            }
            let floor_note = absolute.map_or(String::new(), |f| format!("  floor {f:.2}"));
            println!(
                "  {verdict}  {:<55} baseline {:>10.2}  current {:>10.2}{floor_note}",
                m.key, m.value, cur.value
            );
        }
    }
    println!(
        "\n{checked} metrics checked, {failures} below their floor (baseline / {tolerance}, or a row's own)"
    );
    if failures > 0 {
        println!("bench-regression gate: FAIL");
        ExitCode::FAILURE
    } else {
        println!("bench-regression gate: PASS");
        ExitCode::SUCCESS
    }
}
