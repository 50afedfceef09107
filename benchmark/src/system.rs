//! The system under test: one corpus, one index, the real
//! `fsi-net` → `fsi-serve` → `fsi-query` → `fsi-index` → `fsi-kernels`
//! stack on loopback with production defaults.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, SearchEngine};
use fsi_net::{Client, NetConfig, NetServer};
use fsi_serve::{ServeConfig, Server};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size of the corpus. The command line cannot change it; tests use a
/// small one.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSize {
    pub num_docs: u32,
    pub num_terms: usize,
}

/// ≈ 4.9 M postings, ≈ 144 MB prepared: larger than the last-level cache.
pub const FULL: CorpusSize = CorpusSize {
    num_docs: 2_000_000,
    num_terms: 2048,
};

/// How long a caller waits for one response before the run is abandoned:
/// a response that never comes must fail the run, not hang it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// The seeded corpus.
pub fn corpus(size: CorpusSize, seed: u64) -> Corpus {
    Corpus::generate(CorpusConfig {
        num_docs: size.num_docs,
        num_terms: size.num_terms,
        seed,
        ..CorpusConfig::default()
    })
}

/// Total postings of a corpus.
pub fn num_postings(corpus: &Corpus) -> usize {
    corpus.postings().iter().map(|p| p.len()).sum()
}

/// The running stack. Dropping it stops the front door and joins its
/// threads.
pub struct Stack {
    pub engine: SearchEngine,
    pub serve: Arc<Server>,
    pub net: NetServer,
}

/// One connection to a front door, with a read timeout.
pub fn connect(net: &NetServer) -> std::io::Result<Client> {
    let stream = TcpStream::connect(net.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(Client::from_stream(stream))
}

/// How long one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Index construction alone: `SearchEngine::from_corpus` plus
    /// `Server::new` (sharding and every prepared representation).
    pub build_s: f64,
    /// From the start of index construction until the front door answers
    /// a health probe.
    pub total_s: f64,
}

/// Builds the index and stands the stack up.
pub fn stand_up(
    corpus: Corpus,
    seed: u64,
    config: ServeConfig,
) -> std::io::Result<(Stack, SetupTime)> {
    let start = Instant::now();
    let engine = SearchEngine::from_corpus(HashContext::new(seed), corpus);
    let serve = Arc::new(Server::new(&engine, config));
    let build_s = start.elapsed().as_secs_f64();
    let net = NetServer::start(Arc::clone(&serve), NetConfig::default())?;
    let health = connect(&net)?.health();
    let total_s = start.elapsed().as_secs_f64();
    health.map_err(|e| std::io::Error::other(format!("health probe failed: {e}")))?;
    Ok((Stack { engine, serve, net }, SetupTime { build_s, total_s }))
}

/// Stands the stack up `reps` times and keeps the last; returns it with
/// every set-up time. Corpus generation (and the copy each build
/// consumes) is outside the timed region.
pub fn stand_up_repeated(
    corpus: &Corpus,
    seed: u64,
    config: &ServeConfig,
    reps: usize,
) -> std::io::Result<(Stack, Vec<SetupTime>)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous ~150 MB before the clock starts.
        drop(last.take());
        let copy = corpus.clone();
        let (stack, time) = stand_up(copy, seed, config.clone())?;
        times.push(time);
        last = Some(stack);
    }
    Ok((last.expect("at least one repetition"), times))
}
