//! The full serving path: build a sharded server over a Zipf corpus,
//! replay a Zipf-skewed query stream through the worker pool, and report
//! cold vs warm throughput plus the result-cache hit rate.
//!
//! This is the end-to-end demo of the `fsi-serve` subsystem: sharding
//! (document-partitioned planner-dispatched indexes), batching
//! (work-stealing scoped threads) and caching (segmented LRU over
//! results).
//!
//! Run with: `cargo run --release --example serving`

use fast_set_intersection::index::{Corpus, CorpusConfig};
use fast_set_intersection::serve::{Request, ServeConfig, Server};
use fast_set_intersection::workloads::{generate_stream, repeat_rate, QueryStreamConfig};
use fast_set_intersection::HashContext;

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
            num_shards: 4,
            num_workers: 4,
            cache_capacity: 4096,
            ..ServeConfig::default()
        },
    );
    let requests: Vec<Request> = stream.iter().map(|q| Request::terms(q.clone())).collect();
    let cold = server.execute_batch(&requests);
    let warm = server.execute_batch(&requests);
    let stats = server.stats();
    println!(
        "\ncold: {:>7.0} q/s  (p50 {:>5.0} us, p99 {:>6.0} us)",
        cold.throughput_qps, cold.latency.p50_us, cold.latency.p99_us
    );
    println!(
        "warm: {:>7.0} q/s  (cache capacity 4096, hit rate {:.2})",
        warm.throughput_qps,
        stats.cache.hit_rate()
    );
    println!(
        "served {} queries over {} shards ({} KiB of prepared indexes)",
        stats.queries_served,
        stats.num_shards,
        stats.index_bytes / 1024
    );
    println!("serving OK");
}
