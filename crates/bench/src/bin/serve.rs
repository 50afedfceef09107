//! Serving-layer cache benchmark.
//!
//! Builds a Zipf corpus, serves it under the default planner, and replays
//! a Zipf-skewed query stream through `Server::execute` twice on the
//! calling thread — cold, then warm — recording the result cache's
//! throughput effect and hit rate into `BENCH_serve.json` (hand-rolled
//! JSON: this environment has no registry access, so no serde).
//!
//! The closed-loop worker-scaling rows this file used to carry are gone:
//! a closed-loop generator collapses offered load to whatever the server
//! sustains, so the rows measured OS timeslicing on small CI boxes and
//! said nothing about overload. Serving behavior under real load —
//! goodput against a deadline, shed rate, past-saturation degradation —
//! is `BENCH_slo.json`'s job (`fsi-bench --bin slo`), which drives the
//! TCP front door open-loop.
//!
//! Usage: `cargo run --release -p fsi-bench --bin serve -- [out.json] [--smoke]`

use fsi_bench::{ms, HarnessArgs};
use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig};
use fsi_serve::{CacheOutcome, Request, ServeConfig, Server};
use fsi_workloads::stream::{generate_stream, repeat_rate, QueryStreamConfig};
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse("BENCH_serve.json");
    // Smoke keeps the full corpus and stream (the whole run takes seconds):
    // a smaller corpus would shorten every posting list and inflate qps,
    // leaving the one-sided regression gate comparing unlike numbers — a
    // real throughput cliff could hide above the full-size baseline's
    // floor. The --smoke flag still stamps `"smoke": true` so the output
    // can never be committed as a baseline.
    let num_docs: u32 = 400_000;
    let num_terms: usize = 1 << 11;
    let num_queries: usize = 4_000;

    println!(
        "corpus: {num_docs} docs x {num_terms} terms; \
         stream: {num_queries} Zipf queries{}",
        if args.smoke { " [smoke]" } else { "" }
    );
    let corpus = Corpus::generate(CorpusConfig {
        num_docs,
        num_terms,
        ..CorpusConfig::default()
    });
    let ctx = HashContext::new(fsi_bench::HARNESS_SEED);
    let stream = generate_stream(&QueryStreamConfig {
        num_queries,
        num_terms,
        ..QueryStreamConfig::default()
    });
    let stream_repeat_rate = repeat_rate(&stream);
    println!("stream repeat rate: {stream_repeat_rate:.3}\n");

    // One server for both passes: only the cache state varies, so the
    // compared runs measure the identical index.
    let server = Server::from_corpus(
        ctx,
        corpus,
        ServeConfig {
            cache_capacity: 8192,
            ..ServeConfig::default()
        },
    );
    let requests: Vec<Request> = stream.iter().cloned().map(Request::terms).collect();
    // One pass over the stream: (wall-clock, cache hits).
    let pass = || {
        let start = Instant::now();
        let hits = requests
            .iter()
            .filter(|req| server.execute(req).expect("valid").cache == CacheOutcome::Hit)
            .count();
        (start.elapsed(), hits)
    };
    let (cold_wall, cold_hits) = pass();
    let (warm_wall, warm_hits) = pass();
    let qps = |wall: std::time::Duration| requests.len() as f64 / wall.as_secs_f64();
    let (cold_qps, warm_qps) = (qps(cold_wall), qps(warm_wall));
    let cache_stats = server.stats().cache;
    println!(
        "cache: cold {cold_qps:.0} q/s ({:.1} ms, hits {cold_hits}), \
         warm {warm_qps:.0} q/s ({:.1} ms, hits {warm_hits}), hit rate {:.3}",
        ms(cold_wall),
        ms(warm_wall),
        cache_stats.hit_rate()
    );

    let env = fsi_bench::env_json();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {},\n  {env},\n  \"config\": {{\n    \
         \"num_docs\": {num_docs},\n    \"num_terms\": {num_terms},\n    \
         \"num_queries\": {num_queries},\n    \
         \"stream_repeat_rate\": {stream_repeat_rate:.4}\n  }},\n  \
         \"cache\": {{\n    \"capacity\": 8192,\n    \
         \"cold_qps\": {cold_qps:.1},\n    \"warm_qps\": {warm_qps:.1},\n    \
         \"warm_hits\": {warm_hits},\n    \
         \"hit_rate\": {:.4},\n    \"evictions\": {}\n  }}\n}}\n",
        args.smoke,
        cache_stats.hit_rate(),
        cache_stats.evictions,
    );
    args.write_output(&json);
    println!("\nwrote {}", args.out_path);
}
