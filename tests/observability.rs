//! Integration tests for the observability layer end to end:
//!
//! * the log₂-bucketed latency histogram tracks an exact nearest-rank
//!   oracle within its documented one-sided relative error bound, on
//!   arbitrary sample distributions;
//! * merging histograms and registry snapshots is associative and
//!   split-invariant — recording a workload across any partition of
//!   recorders and merging must equal recording it in one place, which
//!   is exactly what lets per-thread histograms fold into one
//!   server-level view;
//! * `EXPLAIN ANALYZE` per-node timings are internally consistent (child
//!   wall-clocks sum to at most the root's) and the root's wall fits
//!   inside the traced query's end-to-end exec span;
//! * the front door's per-stage histograms account for the whole of every
//!   request's lifecycle, and say which thread answered it.

use fast_set_intersection::core::HashContext;
use fast_set_intersection::index::{Corpus, CorpusConfig, SearchEngine};
use fast_set_intersection::net::protocol::{Status, DETAIL_CACHE_HIT};
use fast_set_intersection::net::{Client, NetConfig, NetServer, ObsConfig, RequestFrame};
use fast_set_intersection::obs::{HistSnapshot, Histogram, Registry};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Exact nearest-rank percentile over raw samples (`p` a fraction in
/// `[0, 1]`, matching the histogram API) — the oracle the bucketed
/// histogram approximates.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn histogram_percentiles_track_exact_nearest_rank(
        // Mixed magnitudes: shifting each draw by a data-dependent amount
        // spreads samples from sub-bucket-resolution values up through the
        // full u64 range (the vendored proptest subset has no prop_oneof).
        samples in vec(any::<u64>(), 1..400)
            .prop_map(|v| v.into_iter().map(|s| s >> (s % 61)).collect::<Vec<u64>>()),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), sorted.first().copied());
        for p in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let exact = exact_percentile(&sorted, p) as f64;
            let got = h.percentile(p);
            // One-sided: a bucket's reported edge never undershoots the
            // exact order statistic, and overshoots by at most the
            // documented sub-bucket resolution.
            prop_assert!(
                got >= exact - 1e-9 && got <= exact * (1.0 + Histogram::MAX_RELATIVE_ERROR) + 1e-9,
                "p{}: got {} exact {}", p, got, exact
            );
        }
    }

    #[test]
    fn histogram_merge_is_split_invariant(
        samples in vec(any::<u64>(), 1..300),
        cuts in vec(0usize..300, 0..4),
    ) {
        // One histogram fed everything vs. the same samples partitioned
        // across "workers" at arbitrary cut points, merged two ways.
        let whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % samples.len()).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        let merged = Histogram::new();
        let mut snap_merged = HistSnapshot::default();
        for w in bounds.windows(2) {
            let part = Histogram::new();
            for &s in &samples[w[0]..w[1]] {
                part.record(s);
            }
            merged.merge_from(&part);              // live merge (worker join)
            snap_merged.merge_from(&part.snapshot()); // snapshot merge (batch fold)
        }

        let expect = whole.snapshot();
        prop_assert_eq!(&merged.snapshot(), &expect);
        prop_assert_eq!(&snap_merged, &expect);
    }
}

#[test]
fn registry_snapshot_merge_is_associative_across_shard_splits() {
    // Three "shards" record disjoint slices of one workload into their own
    // registries; merging the snapshots in either association must equal
    // recording the whole workload into one registry.
    let record = |reg: &Registry, queries: std::ops::Range<u64>| {
        let served = reg.counter("queries_total", &[]);
        let lat = reg.histogram("latency_ns", &[]);
        for q in queries {
            served.inc();
            lat.record(q * 97 % 50_000);
            reg.counter(
                "kind_total",
                &[("kind", if q % 3 == 0 { "probe" } else { "scan" })],
            )
            .inc();
        }
    };

    let whole = Registry::new();
    record(&whole, 0..90);

    let parts: Vec<Registry> = [0..30u64, 30..60, 60..90]
        .into_iter()
        .map(|r| {
            let reg = Registry::new();
            record(&reg, r);
            reg
        })
        .collect();

    // Left fold: ((a + b) + c); right fold: (a + (b + c)).
    let mut left = parts[0].snapshot();
    left.merge_from(&parts[1].snapshot());
    left.merge_from(&parts[2].snapshot());
    let mut bc = parts[1].snapshot();
    bc.merge_from(&parts[2].snapshot());
    let mut right = parts[0].snapshot();
    right.merge_from(&bc);

    let expect = whole.snapshot();
    assert_eq!(left, expect);
    assert_eq!(right, expect);
    assert_eq!(left.counter("queries_total", &[]), Some(90));
    assert_eq!(
        left.counter("kind_total", &[("kind", "probe")]).unwrap()
            + left.counter("kind_total", &[("kind", "scan")]).unwrap(),
        90
    );
}

#[test]
fn explain_analyze_timings_fit_inside_the_traced_exec_span() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 40_000,
        num_terms: 48,
        ..CorpusConfig::default()
    });
    let engine = SearchEngine::from_corpus(HashContext::new(11), corpus);
    let server = Server::new(
        &engine,
        ServeConfig {
            cache_capacity: 0, // every run must execute
        },
    );

    let query = "(0 OR 1) AND 5 AND NOT 7";
    let trace = server
        .execute(&Request::expr(query).traced())
        .unwrap()
        .trace
        .expect("traced request records a trace");

    // One plan runs over the whole index: exactly one exec span, no
    // per-shard family, inside the trace's total wall-clock.
    let execs = trace.spans.iter().filter(|s| s.name == "exec").count();
    assert_eq!(execs, 1, "{}", trace.render());
    assert!(
        !trace.spans.iter().any(|s| s.name.starts_with("shard")),
        "{}",
        trace.render()
    );
    let exec = trace.span("exec").expect("exec span");
    assert!(exec.dur_ns <= trace.total_ns);

    // EXPLAIN ANALYZE on the same query renders one plan tree, and text
    // and traced paths agree on the plan shape (same root operator as the
    // span's kind).
    let analyzed = server
        .execute(&Request::expr(format!("EXPLAIN ANALYZE {query}")))
        .unwrap()
        .explain
        .expect("EXPLAIN renders a plan");
    assert!(analyzed.starts_with("EXPLAIN ANALYZE\n"), "{analyzed}");
    assert!(!analyzed.contains("shard"), "{analyzed}");
    assert!(analyzed.contains("rows"), "{analyzed}");
    let kind = exec.get("kind").expect("kind attr");
    assert!(
        analyzed.contains(kind),
        "kind {kind} missing from:\n{analyzed}"
    );
}

#[test]
fn index_bytes_by_representation_sum_to_the_whole() {
    // 40 000 documents fit one 2¹⁶-value chunk, so the build rule gives a
    // bitmap to exactly the terms with ≥ 1 024 postings: the scrape must
    // count the lists with and without one, and show every resident byte
    // under exactly one representation. A list is one representation, so
    // the flat bytes are exactly 4 per posting of the lists without a
    // bitmap — a flat copy kept beside a bitmap would show here.
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 40_000,
        num_terms: 48,
        ..CorpusConfig::default()
    });
    let dense_terms = corpus.postings().iter().filter(|p| p.len() >= 1024).count();
    let sparse_postings: usize = corpus
        .postings()
        .iter()
        .map(|p| p.len())
        .filter(|&n| n < 1024)
        .sum();
    let engine = SearchEngine::from_corpus(HashContext::new(12), corpus);
    let server = Server::new(&engine, ServeConfig::default());
    let snap = server.metrics();
    let whole = snap.gauge("fsi_index_bytes", &[]).expect("total gauge");
    assert_eq!(whole, server.engine().size_in_bytes() as u64);
    let parts: Vec<u64> = ["flat", "bitmap"]
        .iter()
        .map(|repr| {
            snap.gauge("fsi_index_bytes", &[("repr", repr)])
                .unwrap_or_else(|| panic!("no gauge for repr {repr}"))
        })
        .collect();
    for (gone, why) in [
        ("compressed", "no list carries block postings"),
        ("rgs", "no list carries the RanGroupScan structure"),
        ("hash", "no list carries a hash table"),
    ] {
        assert_eq!(
            snap.gauge("fsi_index_bytes", &[("repr", gone)]),
            None,
            "{why}"
        );
    }
    assert!(parts.iter().all(|&b| b > 0), "{parts:?}");
    assert_eq!(parts.iter().sum::<u64>(), whole, "{parts:?}");
    assert_eq!(parts[0], 4 * sparse_postings as u64, "{parts:?}");
    let lists = |m| snap.gauge("fsi_index_lists", &[("membership", m)]);
    assert!(dense_terms > 0 && dense_terms < 48);
    assert_eq!(lists("bitmap"), Some(dense_terms as u64));
    assert_eq!(lists("none"), Some(48 - dense_terms as u64));
    assert_eq!(lists("hash"), None);
}

#[test]
fn stage_histograms_account_for_a_hit_only_run_and_name_who_answered() {
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 40_000,
        num_terms: 48,
        ..CorpusConfig::default()
    });
    let serve = Arc::new(Server::from_corpus(
        HashContext::new(13),
        corpus,
        ServeConfig::default(),
    ));
    let queries: Vec<String> = (0..20)
        .map(|t| format!("({t} OR 47) AND {}", t + 1))
        .collect();
    // Warm the cache in process: over the wire, every request is a hit.
    for q in &queries {
        serve.execute(&Request::expr(q.as_str())).expect("valid");
    }
    const REQUESTS: u64 = 200;
    let net = NetServer::start(
        Arc::clone(&serve),
        NetConfig {
            obs: ObsConfig {
                slow_threshold: Duration::ZERO, // retain every record
                slowlog_capacity: REQUESTS as usize,
                ..ObsConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    for id in 0..REQUESTS {
        let q = &queries[id as usize % queries.len()];
        let resp = client
            .call(&RequestFrame::query(id, q.as_str()))
            .expect("call");
        assert_eq!((resp.status, resp.detail), (Status::Ok, DETAIL_CACHE_HIT));
    }
    // A request's books close just after its response is written.
    let log = (0..500)
        .find_map(|_| {
            let log = net.slow_log();
            (log.len() == REQUESTS as usize).then_some(log).or_else(|| {
                std::thread::sleep(Duration::from_millis(2));
                None
            })
        })
        .expect("every record retained");
    let snap = net.metrics();
    let answered = |by| snap.counter("fsi_net_answered_total", &[("by", by)]);
    assert_eq!(answered("reader"), Some(REQUESTS));
    assert_eq!(answered("worker"), Some(0));
    let stage = |name| snap.histogram("fsi_net_stage_ns", &[("stage", name)]);
    assert!(stage("queue").is_none(), "a hit never waits in the queue");
    let staged: u64 = ["decode", "execute", "write"]
        .iter()
        .map(|name| {
            let hist = stage(name).unwrap_or_else(|| panic!("no {name} histogram"));
            assert_eq!(hist.count, REQUESTS, "{name}");
            hist.sum
        })
        .sum();
    let lifecycles: u64 = log.iter().map(|entry| entry.total_ns).sum();
    let gap = staged.abs_diff(lifecycles) as f64 / lifecycles as f64;
    assert!(
        gap <= 0.10,
        "stages sum to {staged} ns, lifecycles to {lifecycles} ns"
    );
    net.stop();
}
