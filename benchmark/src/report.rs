//! What leaves the process: the contract line the driver reads, the
//! `workload metric value unit` table, the result file with the run's
//! conditions, and `compare`.

use crate::metrics::{Better, Metric, END_TO_END, FAILED_SHARE, FAILED_SHARE_BOUND_ABS};
use crate::run::RunResult;
use crate::stats::median;
use fsi_bench::json::Json;
use std::fmt::Write as _;

/// The conditions a result was measured under.
#[derive(Debug, Clone)]
pub struct Conditions {
    pub seed: u64,
    pub seconds: u64,
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub simd: &'static str,
}

/// Creates `path` and the directories above it.
pub fn create(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::File::create(path)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The one JSON object the driver reads from the last line of standard
/// output: exactly `correct`, `attempted`, `failed`, `metrics`, and in
/// `metrics` exactly the metrics `BENCHMARK.json` lists for this kind of
/// run (`failed_share` is carried by `attempted` and `failed`).
pub fn contract_line(run: &RunResult) -> String {
    let listed: Vec<&Metric> = run
        .metrics
        .iter()
        .filter(|m| m.name != FAILED_SHARE)
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json(&listed)
    )
}

/// One `workload metric value unit` line per metric.
pub fn table(runs: &[RunResult]) -> String {
    let mut out = String::new();
    for run in runs {
        for m in &run.metrics {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                run.workload,
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        for note in &run.notes {
            let _ = writeln!(out, "# {} {note}", run.workload);
        }
        for p in &run.phases {
            let _ = writeln!(
                out,
                "# {} {}{}: {} callers {:.1} s, sent {} ok {} refused {} failed {}, \
                 {} latency samples, gen.max_gap_ms {:.3}",
                run.workload,
                if run.traced { "traced " } else { "" },
                p.name,
                p.callers,
                p.seconds,
                p.sent,
                p.ok,
                p.refused,
                p.failed,
                p.samples,
                p.gen_max_gap_ms
            );
        }
    }
    out
}

/// The result file: conditions, then every run with its phases and
/// metrics.
pub fn result_json(conditions: &Conditions, runs: &[RunResult]) -> String {
    let runs_json: Vec<String> = runs
        .iter()
        .map(|run| {
            let phases: Vec<String> = run
                .phases
                .iter()
                .map(|p| {
                    format!(
                        "{{\"name\": {}, \"callers\": {}, \"seconds\": {}, \"deadline_us\": {}, \
                         \"sent\": {}, \"ok\": {}, \"refused\": {}, \"failed\": {}, \
                         \"samples\": {}, \"gen.max_gap_ms\": {}}}",
                        json_str(p.name),
                        p.callers,
                        json_num(p.seconds),
                        p.deadline_us,
                        p.sent,
                        p.ok,
                        p.refused,
                        p.failed,
                        p.samples,
                        json_num(p.gen_max_gap_ms)
                    )
                })
                .collect();
            let all: Vec<&Metric> = run.metrics.iter().collect();
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"correct\": true, \"attempted\": {}, \
                 \"failed\": {},\n     \"notes\": [{}],\n     \"phases\": [{}],\n     \
                 \"metrics\": {}}}",
                json_str(run.workload),
                u8::from(run.traced),
                run.attempted,
                run.failed,
                run.notes
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(", "),
                phases.join(", "),
                metrics_json(&all)
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"fsi-benchmark\",\n  \"conditions\": {{\"seed\": {}, \
         \"seconds\": {}, \"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"simd\": {}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        conditions.seed,
        conditions.seconds,
        json_str(&conditions.commit),
        json_str(&conditions.rustc),
        conditions.nproc,
        json_str(conditions.simd),
        runs_json.join(",\n")
    )
}

/// Values keyed by `(workload, metric)`, in file order.
type Keyed = Vec<((String, String), f64)>;

/// The metrics of the untraced runs of one result file.
fn end_to_end_values(doc: &Json) -> Result<Keyed, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no \"runs\" array")?;
    let mut out = Vec::new();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{workload} {name}: no value"))?;
            out.push(((workload.to_string(), name.clone()), value));
        }
    }
    Ok(out)
}

/// How one metric moved between two sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub before: f64,
    pub after: f64,
    pub verdict: &'static str,
}

/// Compares two sides, each one or more result files: per (workload,
/// end-to-end metric) the median over a side's files, then the metric's
/// bound. `regressed` is worse by more than the bound, `improved` better
/// by more than the bound, `ok` anything between.
pub fn compare(before: &[String], after: &[String]) -> Result<Vec<Verdict>, String> {
    let side = |texts: &[String]| -> Result<Keyed, String> {
        let mut samples: Vec<((String, String), Vec<f64>)> = Vec::new();
        for text in texts {
            for (key, value) in end_to_end_values(&Json::parse(text)?)? {
                match samples.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, values)) => values.push(value),
                    None => samples.push((key, vec![value])),
                }
            }
        }
        Ok(samples
            .into_iter()
            .map(|(key, values)| (key, median(&values)))
            .collect())
    };
    let (before, after) = (side(before)?, side(after)?);
    let mut out = Vec::new();
    for ((workload, metric), b) in before {
        let Some((_, a)) = after
            .iter()
            .find(|((w, m), _)| *w == workload && *m == metric)
        else {
            return Err(format!("{workload} {metric}: missing from the second side"));
        };
        // Positive `worse` is movement in the bad direction, in the
        // bound's terms: a share of `before`, or absolute for
        // `failed_share`.
        let (worse, bound) = if metric == FAILED_SHARE {
            (a - b, FAILED_SHARE_BOUND_ABS)
        } else {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .ok_or(format!("{metric}: not an end-to-end metric"))?;
            let change = (a - b) / b;
            (
                match m.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                },
                m.bound,
            )
        };
        let verdict = if worse > bound {
            "regressed"
        } else if worse < -bound {
            "improved"
        } else {
            "ok"
        };
        out.push(Verdict {
            workload,
            metric,
            before: b,
            after: *a,
            verdict,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::PhaseReport;

    fn run(qps: f64, p50: f64, failed: u64) -> RunResult {
        let metric = |name: &str, value, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        RunResult {
            workload: "and_cold",
            traced: false,
            attempted: 1000,
            failed,
            phases: vec![PhaseReport {
                name: "sat",
                callers: 16,
                deadline_us: 0,
                seconds: 10.0,
                sent: 1000,
                ok: 1000 - failed,
                refused: failed,
                failed: 0,
                samples: 1000,
                gen_max_gap_ms: 0.25,
            }],
            metrics: vec![
                metric("qps", qps, "1/s"),
                metric("p50_us", p50, "us"),
                metric(FAILED_SHARE, failed as f64 / 1000.0, "ratio"),
            ],
            notes: vec!["a \"note\"".to_string()],
        }
    }

    fn file(runs: &[RunResult]) -> String {
        let conditions = Conditions {
            seed: 1,
            seconds: 20,
            commit: "abc \"quoted\"".to_string(),
            rustc: "rustc 1.0".to_string(),
            nproc: 2,
            simd: "Avx2",
        };
        result_json(&conditions, runs)
    }

    fn verdicts(before: &RunResult, after: RunResult) -> Vec<(String, &'static str)> {
        compare(&[file(std::slice::from_ref(before))], &[file(&[after])])
            .expect("comparable")
            .into_iter()
            .map(|v| (v.metric, v.verdict))
            .collect()
    }

    #[test]
    fn compare_flags_a_thirty_percent_drop_and_passes_three() {
        let base = run(3000.0, 200.0, 0);
        assert_eq!(
            verdicts(&base, run(2100.0, 200.0, 0)),
            [
                ("qps".to_string(), "regressed"),
                ("p50_us".to_string(), "ok"),
                (FAILED_SHARE.to_string(), "ok")
            ]
        );
        assert_eq!(
            verdicts(&base, run(2910.0, 206.0, 0)),
            [
                ("qps".to_string(), "ok"),
                ("p50_us".to_string(), "ok"),
                (FAILED_SHARE.to_string(), "ok")
            ]
        );
        // Lower is better for latency: +30% regresses, -30% improves.
        assert_eq!(verdicts(&base, run(3000.0, 260.0, 0))[1].1, "regressed");
        assert_eq!(
            verdicts(&base, run(3900.0, 140.0, 0))[..2],
            [
                ("qps".to_string(), "improved"),
                ("p50_us".to_string(), "improved")
            ]
        );
        // failed_share has an absolute bound: two refusals in a thousand.
        assert_eq!(verdicts(&base, run(3000.0, 200.0, 2))[2].1, "regressed");
    }

    #[test]
    fn compare_takes_the_median_of_each_side() {
        let side = |values: [f64; 3]| -> Vec<String> {
            values.iter().map(|&q| file(&[run(q, 200.0, 0)])).collect()
        };
        // One bad run out of three does not make a regression.
        let v = compare(
            &side([3000.0, 3010.0, 2990.0]),
            &side([2000.0, 3005.0, 2995.0]),
        )
        .expect("comparable");
        assert_eq!(
            (v[0].before, v[0].after, v[0].verdict),
            (3000.0, 2995.0, "ok")
        );
        assert!(compare(&side([1.0, 2.0, 3.0]), &[]).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = contract_line(&run(3000.5, 200.25, 0));
        let doc = Json::parse(&line).expect("one JSON object");
        let Json::Obj(members) = &doc else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("qps")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(3000.5)
        );
        assert_eq!(
            metrics
                .get("p50_us")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("us")
        );
        assert!(metrics.get(FAILED_SHARE).is_none());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_file_carries_conditions_and_phase_tallies() {
        let doc = Json::parse(&file(&[run(3000.0, 200.0, 0)])).expect("valid JSON");
        let c = doc.get("conditions").expect("conditions");
        assert_eq!(c.get("seed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            c.get("commit").and_then(Json::as_str),
            Some("abc \"quoted\"")
        );
        assert_eq!(c.get("simd").and_then(Json::as_str), Some("Avx2"));
        let phase = &doc.get("runs").and_then(Json::as_array).expect("runs")[0]
            .get("phases")
            .and_then(Json::as_array)
            .expect("phases")[0];
        assert_eq!(phase.get("sent").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            phase.get("gen.max_gap_ms").and_then(Json::as_f64),
            Some(0.25)
        );
        assert!(table(&[run(3000.0, 200.0, 0)]).starts_with("and_cold qps 3000 1/s\n"));
    }
}
