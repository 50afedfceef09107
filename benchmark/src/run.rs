//! One run: a workload, traced or not, from set-up to its metrics.

use crate::gate::{self, Expected};
use crate::loadgen::{median_percentile_ns, median_rate, run_phase, PhaseSpec, Tally, Window};
use crate::metrics::{Metric, END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::replay::{self, KINDS};
use crate::stats::{mean, median, percentile};
use crate::system::{self, CorpusSize, Stack};
use crate::workload::{Load, Workload, DEADLINE_US, OVERLOAD_CALLERS, SAT_CALLERS};
use fsi_index::Corpus;
use fsi_net::{Client, NetConfig, NetServer, ObsConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One phase as the result file records it: every slice run under one
/// name, added up.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub callers: usize,
    pub deadline_us: u32,
    /// Issuing time over all slices.
    pub seconds: f64,
    pub sent: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
    /// Latency samples behind the phase's percentiles.
    pub samples: usize,
    pub gen_max_gap_ms: f64,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    /// Requests sent in measured phases.
    pub attempted: u64,
    /// Of those, the ones that count as failed (see `failed_share`).
    pub failed: u64,
    pub phases: Vec<PhaseReport>,
    pub metrics: Vec<Metric>,
    /// Sample sizes and the like that qualify the metrics.
    pub notes: Vec<String>,
}

/// The stack stood up, its stream, the answers, and one open connection:
/// everything a run needs before the first measured request.
struct Prepared {
    stack: Stack,
    setups: Vec<system::SetupTime>,
    stream: Vec<String>,
    expected: Vec<Expected>,
    client: Client,
    bytes_per_posting: f64,
}

fn prepare(
    workload: &Workload,
    size: CorpusSize,
    corpus: &Corpus,
    seed: u64,
    setup_reps: usize,
) -> Result<Prepared, String> {
    let (stack, setups) =
        system::stand_up_repeated(corpus, seed, &workload.serve_config(), setup_reps)
            .map_err(|e| format!("set-up failed: {e}"))?;
    let stream = workload.stream(size, seed);
    let expected = gate::expected_answers(&stack.serve, &stream)?;
    let mut client = system::connect(&stack.net).map_err(|e| format!("connect: {e}"))?;
    gate::naive_sample(&mut client, &stack.engine, &stream, seed)
        .map_err(|e| format!("correctness gate: {e}"))?;
    let bytes_per_posting =
        stack.serve.engine().size_in_bytes() as f64 / system::num_postings(corpus) as f64;
    Ok(Prepared {
        stack,
        setups,
        stream,
        expected,
        client,
        bytes_per_posting,
    })
}

/// The phase that loads the server: `sat` or `overload`.
fn load_phase(workload: &Workload, duration: Duration) -> PhaseSpec {
    match workload.load {
        Load::RttAndSat => PhaseSpec {
            name: "sat",
            callers: SAT_CALLERS,
            duration,
            deadline_us: 0,
        },
        Load::Overload => PhaseSpec {
            name: "overload",
            callers: OVERLOAD_CALLERS,
            duration,
            deadline_us: DEADLINE_US,
        },
    }
}

/// A phase: one or more slices of the same shape. Each slice goes on in
/// the stream where the one before stopped, so ten one-second slices see
/// the queries a ten-second block would.
struct Phase {
    /// The shape of one slice.
    spec: PhaseSpec,
    next_query: usize,
    tallies: Vec<Tally>,
}

impl Phase {
    fn new(spec: PhaseSpec) -> Self {
        Self {
            spec,
            next_query: 0,
            tallies: Vec::new(),
        }
    }

    /// The whole windows of every slice.
    fn windows(&self) -> Vec<&Window> {
        self.tallies.iter().flat_map(|t| &t.windows).collect()
    }

    fn total(&self, count: fn(&Tally) -> u64) -> u64 {
        self.tallies.iter().map(count).sum()
    }

    fn report(&self) -> PhaseReport {
        let max_gap_ns = self.tallies.iter().map(|t| t.max_gap_ns).max().unwrap_or(0);
        PhaseReport {
            name: self.spec.name,
            callers: self.spec.callers,
            deadline_us: self.spec.deadline_us,
            seconds: self.spec.duration.as_secs_f64() * self.tallies.len() as f64,
            sent: self.total(|t| t.sent),
            ok: self.total(|t| t.ok),
            refused: self.total(|t| t.refused),
            failed: self.total(|t| t.failed),
            samples: self.windows().iter().map(|w| w.latencies_ns.len()).sum(),
            gen_max_gap_ms: max_gap_ns as f64 / 1e6,
        }
    }
}

/// Runs slices over one stream. A wrong answer or a transport error ends
/// the run without a result.
struct Runner<'a> {
    stream: &'a [String],
    expected: &'a [Expected],
    next_id: u64,
}

impl Runner<'_> {
    /// Runs one more slice of `phase` on `client`.
    fn slice(&mut self, client: &mut Client, phase: &mut Phase) -> Result<(), String> {
        let name = phase.spec.name;
        let tally = run_phase(
            client,
            self.stream,
            self.expected,
            &phase.spec,
            phase.next_query,
            self.next_id,
        )
        .map_err(|e| format!("phase {name}: {e}"))?;
        self.next_id += tally.sent;
        phase.next_query = (phase.next_query + tally.sent as usize) % self.stream.len();
        if tally.failed > 0 {
            return Err(format!(
                "phase {name}: {} of {} requests failed, first: {}",
                tally.failed,
                tally.sent,
                tally.failures.join("; ")
            ));
        }
        phase.tallies.push(tally);
        Ok(())
    }
}

impl RunResult {
    /// A run's result from its measured phases.
    fn new(
        workload: &Workload,
        traced: bool,
        phases: &[&Phase],
        metrics: Vec<Metric>,
        notes: Vec<String>,
    ) -> Self {
        // Only `overload` asks to be refused; elsewhere a refusal is a
        // request the server failed.
        let failed = match workload.load {
            Load::Overload => 0,
            Load::RttAndSat => phases.iter().map(|p| p.total(|t| t.refused)).sum(),
        };
        Self {
            workload: workload.name,
            traced,
            attempted: phases.iter().map(|p| p.total(|t| t.sent)).sum(),
            failed,
            phases: phases.iter().map(|p| p.report()).collect(),
            metrics,
            notes,
        }
    }
}

/// Length of one slice of the interleaved `rtt` and `sat` phases.
const SLICE: Duration = Duration::from_secs(1);

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(
    workload: &Workload,
    size: CorpusSize,
    corpus: &Corpus,
    seed: u64,
    seconds: u64,
) -> Result<RunResult, String> {
    let mut p = prepare(workload, size, corpus, seed, SETUP_REPS)?;
    let mut runner = Runner {
        stream: &p.stream,
        expected: &p.expected,
        next_id: 1 << 32,
    };
    let total = Duration::from_secs(seconds);
    // Warm-up: one tenth of the run under the load phase's concurrency,
    // so caches, allocator arenas and worker threads are where a serving
    // process keeps them. Checked, not reported.
    let mut warm_up = Phase::new(load_phase(workload, total / 10));
    runner.slice(&mut p.client, &mut warm_up)?;

    let mut rtt_slices = Phase::new(PhaseSpec {
        name: "rtt",
        callers: 1,
        duration: SLICE,
        deadline_us: 0,
    });
    let mut load_slices;
    match workload.load {
        // One-second slices of the two phases take turns, so that both
        // sample the whole run: the box's speed drifts by a tenth over
        // seconds, and a phase measured in one block would take its
        // block's speed for the system's.
        Load::RttAndSat => {
            load_slices = Phase::new(load_phase(workload, SLICE));
            for _ in 0..(total / 2).as_secs().max(1) {
                runner.slice(&mut p.client, &mut rtt_slices)?;
                runner.slice(&mut p.client, &mut load_slices)?;
            }
        }
        Load::Overload => {
            load_slices = Phase::new(load_phase(workload, total));
            runner.slice(&mut p.client, &mut load_slices)?;
        }
    };
    let rate_from = load_slices.windows();
    // `overload` has no quiet phase: its latencies are those of the
    // requests it served under load.
    let latency_from = match workload.load {
        Load::RttAndSat => rtt_slices.windows(),
        Load::Overload => load_slices.windows(),
    };
    let value = |name: &str| match name {
        "setup_s" => median(&p.setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        "index_bytes_per_posting" => p.bytes_per_posting,
        "qps" => median_rate(&rate_from, |w| w.ok),
        "goodput_qps" => median_rate(&rate_from, |w| w.good),
        "p50_us" => median_percentile_ns(&latency_from, 0.50) / 1e3,
        "p99_us" => median_percentile_ns(&latency_from, 0.99) / 1e3,
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: value(m.name),
            unit: m.unit,
        })
        .collect();
    let measured: &[&Phase] = match workload.load {
        Load::RttAndSat => &[&rtt_slices, &load_slices],
        Load::Overload => &[&load_slices],
    };
    let mut run = RunResult::new(workload, false, measured, metrics, Vec::new());
    run.metrics.push(Metric {
        name: FAILED_SHARE.to_string(),
        value: run.failed as f64 / run.attempted.max(1) as f64,
        unit: "ratio",
    });
    Ok(run)
}

/// The traced run: the layer replay, then the load phase against an
/// instrumented and a stripped front door for the per-layer numbers only
/// a loaded server shows.
pub fn run_traced(
    workload: &Workload,
    size: CorpusSize,
    corpus: &Corpus,
    seed: u64,
    seconds: u64,
    trace_path: Option<&std::path::Path>,
) -> Result<RunResult, String> {
    let mut p = prepare(workload, size, corpus, seed, 1)?;
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    values.insert("index.build_s", p.setups[0].build_s);
    values.insert("index.bytes_per_posting", p.bytes_per_posting);

    let replayed = replay::replay(&p.stack, &mut p.client, workload, &p.stream, &p.expected)?;
    let t = &replayed.tracer;
    let mean_of = |span: &str| {
        let d = t.durations_ns(span);
        if d.is_empty() {
            0.0
        } else {
            mean(&d)
        }
    };
    let p50_of = |span: &str| {
        let mut d = t.durations_ns(span);
        d.sort_unstable();
        if d.is_empty() {
            0.0
        } else {
            percentile(&d, 0.50)
        }
    };
    let mean_self = |span: &str| {
        let s = t.self_ns(span);
        s.iter().sum::<i64>() as f64 / s.len().max(1) as f64
    };
    for (metric, span) in [
        ("net.wire_call_ns", "net.wire_call"),
        ("net.encode_request_ns", "net.encode_request"),
        ("net.decode_request_ns", "net.decode_request"),
        ("net.admit_ns", "net.admit"),
        ("net.queue_handoff_ns", "net.queue_handoff"),
        ("net.encode_response_ns", "net.encode_response"),
        ("net.decode_response_ns", "net.decode_response"),
        ("serve.execute_ns", "serve.execute"),
        ("serve.shard_exec_ns", "serve.shard_exec"),
        ("serve.cache_hit_ns", "serve.cache_hit"),
        ("query.parse_ns", "query.parse"),
        ("query.normalize_ns", "query.normalize"),
        ("query.encode_key_ns", "query.encode_key"),
        ("query.plan_ns", "query.plan"),
        ("query.exec_ns", "query.exec"),
    ] {
        values.insert(metric, mean_of(span));
    }
    values.insert("net.wire_call_p50_ns", p50_of("net.wire_call"));
    values.insert("serve.execute_p50_ns", p50_of("serve.execute"));
    values.insert("serve.shard_exec_p50_ns", p50_of("serve.shard_exec"));
    values.insert("net.wire_self_ns", mean_self("net.wire_call"));
    values.insert("serve.execute_self_ns", mean_self("serve.execute"));
    values.insert("net.response_bytes", replayed.response_bytes);
    values.insert("query.result_rows", replayed.result_rows);
    values.insert("index.plan_regret", replayed.plan_regret);
    for (k, planned) in KINDS.iter().zip(replayed.planned) {
        let share = planned as f64 / replayed.and_queries.max(1) as f64;
        values.insert(k.share_metric, share);
        values.insert(k.forced_metric, mean_of(k.span));
    }
    values.insert(
        "trace.spans_per_request",
        t.spans().len() as f64 / replayed.requests as f64,
    );

    let mut runner = Runner {
        stream: &p.stream,
        expected: &p.expected,
        next_id: 1 << 32,
    };
    // The same round trips with no span around them: what recording
    // costs.
    let mut untraced = Phase::new(PhaseSpec {
        name: "rtt_untraced",
        callers: 1,
        duration: 2 * SLICE,
        deadline_us: 0,
    });
    runner.slice(&mut p.client, &mut untraced)?;
    let untraced_p50 = median_percentile_ns(&untraced.windows(), 0.50);
    values.insert(
        "trace.overhead_pct",
        (values["net.wire_call_p50_ns"] / untraced_p50 - 1.0) * 100.0,
    );

    // The load phase, alternating between a front door with the default
    // lifecycle instrumentation and a stripped one over the same engine.
    let door = |obs: ObsConfig| {
        NetServer::start(
            Arc::clone(&p.stack.serve),
            NetConfig {
                obs,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("second front door: {e}"))
    };
    let instrumented = door(ObsConfig::default())?;
    let stripped = door(ObsConfig {
        lifecycle: false,
        slowlog_capacity: 0,
        ..ObsConfig::default()
    })?;
    let connect = |net: &NetServer| system::connect(net).map_err(|e| format!("connect: {e}"));
    let mut on_client = connect(&instrumented)?;
    let mut off_client = connect(&stripped)?;
    let cache_before = p.stack.serve.stats().cache;
    let slice = load_phase(workload, Duration::from_secs(seconds) / 4);
    let mut warm_up = Phase::new(load_phase(workload, slice.duration / 5));
    runner.slice(&mut on_client, &mut warm_up)?;
    runner.slice(&mut off_client, &mut warm_up)?;
    let mut on = Phase::new(PhaseSpec {
        name: "load_obs_on",
        ..slice
    });
    let mut off = Phase::new(PhaseSpec {
        name: "load_obs_off",
        ..slice
    });
    for _ in 0..2 {
        runner.slice(&mut on_client, &mut on)?;
        runner.slice(&mut off_client, &mut off)?;
    }
    let cache_after = p.stack.serve.stats().cache;
    let rate = |side: &Phase| match workload.load {
        Load::RttAndSat => median_rate(&side.windows(), |w| w.ok),
        Load::Overload => median_rate(&side.windows(), |w| w.good),
    };
    values.insert(
        "obs.lifecycle_overhead_pct",
        (1.0 - rate(&on) / rate(&off)) * 100.0,
    );
    let (ok, good) = (on.total(|t| t.ok) as f64, on.total(|t| t.good) as f64);
    values.insert(
        "net.shed_share",
        on.total(|t| t.refused) as f64 / on.total(|t| t.sent) as f64,
    );
    values.insert("net.good_per_served", good / ok);
    values.insert("net.late_served_qps", (ok - good) / on.report().seconds);
    let snap = instrumented.metrics();
    let hist_p99 = |name: &str| {
        snap.histogram(name, &[("tenant", "anon")])
            .map_or(0.0, |h| h.percentile(0.99))
    };
    values.insert("net.queue_wait_p99_ns", hist_p99("fsi_net_queue_wait_ns"));
    values.insert("net.service_p99_ns", hist_p99("fsi_net_service_ns"));
    values.insert(
        "net.batch_size_mean",
        snap.histogram("fsi_net_batch_size", &[])
            .map_or(0.0, |h| h.mean()),
    );
    let lookups = cache_after.lookups - cache_before.lookups;
    values.insert(
        "serve.cache_hit_rate",
        (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
    );
    values.insert("serve.cache_evictions", cache_after.evictions as f64);

    if let Some(path) = trace_path {
        crate::report::create(path)
            .and_then(|file| t.write_jsonl(&mut std::io::BufWriter::new(file)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let admissible: Vec<String> = KINDS
        .iter()
        .zip(replayed.admissible)
        .map(|(k, n)| format!("{} {n}", k.kind.name()))
        .collect();
    let notes = vec![format!(
        "layer replay of {} queries; {} AND queries under forced kinds, admissible: {}",
        replayed.requests,
        replayed.and_queries,
        admissible.join(", ")
    )];

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name: name.to_string(),
            value: *values
                .get(name)
                .unwrap_or_else(|| unreachable!("per-layer metric {name} was never measured")),
            unit,
        })
        .collect();
    Ok(RunResult::new(
        workload,
        true,
        &[&untraced, &on, &off],
        metrics,
        notes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, WORKLOADS};

    const SMALL: CorpusSize = CorpusSize {
        num_docs: 20_000,
        num_terms: 256,
    };

    #[test]
    fn untraced_runs_report_every_end_to_end_metric_on_every_workload() {
        let corpus = system::corpus(SMALL, 9);
        for w in &WORKLOADS {
            let run = run_untraced(w, SMALL, &corpus, 9, 2).expect(w.name);
            let names: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
            let mut listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            listed.push(FAILED_SHARE);
            assert_eq!(names, listed, "{}", w.name);
            for m in &run.metrics {
                let never_zero = m.name != FAILED_SHARE;
                assert!(
                    m.value.is_finite() && (m.value > 0.0) == never_zero,
                    "{} {m:?}",
                    w.name
                );
            }
            assert_eq!(run.failed, 0);
            assert_eq!(
                run.attempted,
                run.phases.iter().map(|p| p.sent).sum::<u64>()
            );
            // A corpus this small is served inside any deadline, so only
            // the absence of refusals elsewhere can be asserted.
            let refused: u64 = run.phases.iter().map(|p| p.refused).sum();
            assert!(refused == 0 || w.load == Load::Overload, "{}", w.name);
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric_and_the_layer_split() {
        let corpus = system::corpus(SMALL, 9);
        let value = |run: &RunResult, name: &str| {
            run.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        let dir = std::env::temp_dir().join(format!("fsi-benchmark-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");

        let cold = by_name("and_cold").expect("known");
        let run = run_traced(cold, SMALL, &corpus, 9, 4, Some(&path)).expect("and_cold");
        assert_eq!(run.metrics.len(), PER_LAYER.len());
        assert!(run.metrics.iter().all(|m| m.value.is_finite()));
        assert!(value(&run, "serve.shard_exec_ns") > 0.0);
        assert!(value(&run, "kernels.forced_ns.GallopProbe") > 0.0);
        assert!(value(&run, "index.plan_regret") >= 1.0);
        assert_eq!(value(&run, "serve.cache_hit_rate"), 0.0);
        assert!(value(&run, "net.wire_self_ns") > 0.0);
        let shares: f64 = KINDS.iter().map(|k| value(&run, k.share_metric)).sum();
        assert!(shares > 0.0 && shares <= 1.0 + 1e-9);
        let trace = std::fs::read_to_string(&path).expect("trace written");
        assert_eq!(
            trace.lines().count() as f64,
            value(&run, "trace.spans_per_request") * replay::SAMPLE.min(16_384) as f64
        );
        std::fs::remove_dir_all(&dir).expect("clean up");

        let hot = by_name("hot_cached").expect("known");
        let run = run_traced(hot, SMALL, &corpus, 9, 4, None).expect("hot_cached");
        assert_eq!(value(&run, "serve.cache_hit_rate"), 1.0);
        assert_eq!(value(&run, "serve.cache_evictions"), 0.0);
        for idle in [
            "serve.shard_exec_ns",
            "query.exec_ns",
            "kernels.forced_ns.HashProbe",
        ] {
            assert_eq!(value(&run, idle), 0.0, "{idle}");
        }

        let overload = by_name("overload").expect("known");
        let run = run_traced(overload, SMALL, &corpus, 9, 4, None).expect("overload");
        assert!((0.0..1.0).contains(&value(&run, "net.shed_share")));
        assert!(value(&run, "net.good_per_served") <= 1.0);
    }
}
