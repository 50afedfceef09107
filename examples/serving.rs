//! The in-process serving path: build a server over a Zipf corpus,
//! replay a Zipf-skewed query stream through `Server::execute`, and
//! report cold vs warm throughput plus the result-cache hit rate.
//!
//! This is the end-to-end demo of the `fsi-serve` subsystem: one
//! planner-dispatched prepared index behind a segmented LRU over results.
//!
//! Run with: `cargo run --release --example serving`

use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::workloads::{generate_stream, repeat_rate, QueryStreamConfig};
use fast_set_intersection::HashContext;
use std::time::Instant;

fn main() {
    let num_terms = 1 << 10;
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: 200_000,
        num_terms,
        ..CorpusConfig::default()
    });
    let stream = generate_stream(&QueryStreamConfig {
        num_queries: 2_000,
        num_terms,
        ..QueryStreamConfig::default()
    });
    println!(
        "corpus: 200k docs x {num_terms} terms; stream: {} queries, repeat rate {:.2}",
        stream.len(),
        repeat_rate(&stream)
    );

    // The Zipf head repeats; on the second pass the LRU absorbs it.
    let server = Server::from_corpus(
        HashContext::new(17),
        corpus,
        ServeConfig {
            cache_capacity: 4096,
        },
    );
    let requests: Vec<Request> = stream.iter().map(|q| Request::terms(q.clone())).collect();
    let pass_qps = || {
        let start = Instant::now();
        for req in &requests {
            server.execute(req).expect("valid");
        }
        requests.len() as f64 / start.elapsed().as_secs_f64()
    };
    let cold_qps = pass_qps();
    let cold = server.stats().latency;
    let warm_qps = pass_qps();
    let stats = server.stats();
    println!(
        "\ncold: {cold_qps:>7.0} q/s  (p50 {:>5.0} us, p99 {:>6.0} us)",
        cold.p50_us, cold.p99_us
    );
    println!(
        "warm: {warm_qps:>7.0} q/s  (cache capacity 4096, hit rate {:.2})",
        stats.cache.hit_rate()
    );
    println!(
        "served {} queries ({} KiB of prepared index)",
        stats.queries_served,
        stats.index_bytes / 1024
    );
    println!("serving OK");
}
