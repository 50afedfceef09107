//! Failure injection: adversarial and degenerate inputs must stay *correct*
//! (slow is acceptable). The paper's guarantees are expectations over the
//! hash draw; these tests pin the worst cases the structures can encounter
//! — and a hostile query must get an error, not take the server down.

use fast_set_intersection::index::SearchEngine;
use fast_set_intersection::net::protocol::{encode_request, Status, MAX_REQUEST_FRAME};
use fast_set_intersection::net::{Client, NetConfig, NetServer, RequestFrame};
use fast_set_intersection::serve::{ServeConfig, Server};
use fast_set_intersection::{
    reference_intersection, HashContext, KIntersect, PairIntersect, RanGroupIndex,
    RanGroupScanIndex, SortedSet,
};
use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything lands in one group: partition level forced to 0.
#[test]
fn single_group_degenerate_partition() {
    let ctx = HashContext::new(1);
    let a: SortedSet = (0..5000u32).map(|x| x * 2).collect();
    let b: SortedSet = (0..5000u32).map(|x| x * 3).collect();
    let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);

    let ra = RanGroupIndex::with_level(&ctx, &a, 0);
    let rb = RanGroupIndex::with_level(&ctx, &b, 0);
    assert_eq!(ra.intersect_pair_sorted(&rb), expect);

    let sa = RanGroupScanIndex::with_m_and_level(&ctx, &a, 2, 0);
    let sb = RanGroupScanIndex::with_m_and_level(&ctx, &b, 2, 0);
    assert_eq!(sa.intersect_pair_sorted(&sb), expect);
}

/// Maximal fragmentation: more groups than elements.
#[test]
fn over_partitioned_sets() {
    let ctx = HashContext::new(2);
    let a: SortedSet = (0..300u32).collect();
    let b: SortedSet = (150..450u32).collect();
    let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);
    for t in [12u32, 16] {
        let ra = RanGroupIndex::with_level(&ctx, &a, t);
        let rb = RanGroupIndex::with_level(&ctx, &b, t);
        assert_eq!(ra.intersect_pair_sorted(&rb), expect, "t={t}");
        let sa = RanGroupScanIndex::with_m_and_level(&ctx, &a, 1, t);
        let sb = RanGroupScanIndex::with_m_and_level(&ctx, &b, 1, t);
        assert_eq!(sa.intersect_pair_sorted(&sb), expect, "t={t}");
    }
}

/// Mixed extreme levels across the k sets.
#[test]
fn mixed_partition_levels_k_way() {
    let ctx = HashContext::new(3);
    let sets: Vec<SortedSet> = vec![
        (0..400u32).filter(|x| x % 2 == 0).collect(),
        (0..400u32).filter(|x| x % 3 == 0).collect(),
        (0..400u32).filter(|x| x % 5 == 0).collect(),
    ];
    let slices: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
    let expect = reference_intersection(&slices);
    let levels = [0u32, 7, 14];
    let idx: Vec<RanGroupIndex> = sets
        .iter()
        .zip(levels)
        .map(|(s, t)| RanGroupIndex::with_level(&ctx, s, t))
        .collect();
    let refs: Vec<&RanGroupIndex> = idx.iter().collect();
    assert_eq!(RanGroupIndex::intersect_k_sorted(&refs), expect);

    let idx: Vec<RanGroupScanIndex> = sets
        .iter()
        .zip(levels)
        .map(|(s, t)| RanGroupScanIndex::with_m_and_level(&ctx, s, 3, t))
        .collect();
    let refs: Vec<&RanGroupScanIndex> = idx.iter().collect();
    assert_eq!(RanGroupScanIndex::intersect_k_sorted(&refs), expect);
}

/// Clustered values (consecutive runs) stress the permutation's mixing.
#[test]
fn clustered_and_periodic_values() {
    for seed in [0u64, 1, 2, 3] {
        let ctx = HashContext::new(seed);
        let cases: Vec<(SortedSet, SortedSet)> = vec![
            // Dense runs.
            ((0..3000u32).collect(), (1500..4500u32).collect()),
            // Strided patterns aligned with powers of two (worst case for a
            // weak multiplicative hash).
            (
                (0..2000u32).map(|x| x << 8).collect(),
                (0..2000u32).map(|x| (x << 8) | 1).collect(),
            ),
            // High-bit-only differences.
            (
                (0..64u32).map(|x| x << 26).collect(),
                (0..64u32).map(|x| x << 26).collect(),
            ),
        ];
        for (a, b) in cases {
            let expect = reference_intersection(&[a.as_slice(), b.as_slice()]);
            let sa = RanGroupScanIndex::build(&ctx, &a);
            let sb = RanGroupScanIndex::build(&ctx, &b);
            assert_eq!(sa.intersect_pair_sorted(&sb), expect, "seed {seed}");
        }
    }
}

/// Many sets, some empty, some tiny.
#[test]
fn ragged_k_way() {
    let ctx = HashContext::new(4);
    let sets: Vec<SortedSet> = vec![
        (0..100u32).collect(),
        SortedSet::from_unsorted(vec![50]),
        (0..100u32).collect(),
        SortedSet::new(),
        (40..60u32).collect(),
    ];
    let idx: Vec<RanGroupScanIndex> = sets
        .iter()
        .map(|s| RanGroupScanIndex::build(&ctx, s))
        .collect();
    let refs: Vec<&RanGroupScanIndex> = idx.iter().collect();
    assert_eq!(
        RanGroupScanIndex::intersect_k_sorted(&refs),
        Vec::<u32>::new()
    );
    // Drop the empty set: the singleton 50 must survive.
    let refs: Vec<&RanGroupScanIndex> = idx[..3].iter().collect();
    assert_eq!(RanGroupScanIndex::intersect_k_sorted(&refs), vec![50]);
}

/// A request frame filled with nesting — `(` chains and `NOT` chains as
/// deep as the largest frame allows — is answered with an error on the
/// connection's reader thread, and the same connection then answers a
/// valid query: a query nested past the parser's bound cannot overflow the
/// reader's stack and abort the process.
#[test]
fn deeply_nested_queries_are_refused_over_the_wire() {
    let postings: Vec<SortedSet> = vec![(0..100u32).collect(), (50..200u32).collect()];
    let engine = SearchEngine::from_postings(HashContext::new(5), postings);
    let serve = Arc::new(Server::new(&engine, ServeConfig::default()));
    let net = NetServer::start(serve, NetConfig::default()).expect("bind loopback");
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let room = MAX_REQUEST_FRAME - encode_request(&RequestFrame::query(0, "")).len();
    let depth = (room - 1) / 2;
    let parens = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
    let nots = format!("{}1", "NOT ".repeat((room - 1) / 4));
    for (id, query) in [(1, parens), (2, nots)] {
        let frame = RequestFrame::query(id, query);
        assert!(encode_request(&frame).len() > MAX_REQUEST_FRAME - 4);
        assert!(encode_request(&frame).len() <= MAX_REQUEST_FRAME);
        let resp = client.call(&frame).expect("answered, not dropped");
        assert_eq!(resp.id, id);
        assert_eq!(resp.status, Status::InvalidQuery, "{}", resp.message);
    }
    let resp = client
        .call(&RequestFrame::query(3, "(1) AND NOT 0"))
        .expect("the connection survives");
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    assert_eq!(resp.docs, (100..200u32).collect::<Vec<_>>());
    net.stop();
}

/// A client that pipelines large answers and never reads fills both
/// sockets' buffers; the server's write to it blocks, and after the write
/// timeout (10 s) the connection is shut down and counted in
/// `fsi_net_write_timeouts_total`. The timeout bounds each `write`: one
/// that moved a few bytes returns them at the timeout and the next waits
/// again, so the cut-off comes after a few timeouts (two on Linux
/// loopback, ≈ 20 s). Meanwhile a second client is answered at once, by a
/// worker and by its own connection's reader.
#[test]
fn a_client_that_never_reads_is_disconnected_and_others_are_still_served() {
    const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
    const SLACK: Duration = Duration::from_secs(10);
    // `0 AND 1` answers 200 000 documents: 800 KB on the wire.
    let all: SortedSet = (0..200_000u32).collect();
    let evens: SortedSet = (0..1000u32).map(|x| 2 * x).collect();
    let engine = SearchEngine::from_postings(HashContext::new(6), vec![all.clone(), all, evens]);
    let serve = Arc::new(Server::new(&engine, ServeConfig::default()));
    let net = NetServer::start(serve, NetConfig::default()).expect("bind loopback");
    let timeouts = || net.metrics().counter("fsi_net_write_timeouts_total", &[]);
    let mut stalled = TcpStream::connect(net.local_addr()).expect("connect");
    let mut sender = Client::from_stream(stalled.try_clone().expect("clone"));
    // The first answer is read: every later one is a cache hit, which the
    // stalled connection's own reader writes.
    let warm = sender
        .call(&RequestFrame::query(0, "0 AND 1"))
        .expect("call");
    assert_eq!(warm.docs.len(), 200_000);
    // 64 answers, 51 MB: far past what the two sockets buffer.
    for id in 1..=64 {
        sender
            .send(&RequestFrame::query(id, "0 AND 1"))
            .expect("send");
    }
    let sent = Instant::now();
    let mut other = Client::connect(net.local_addr()).expect("connect");
    for (id, query, n) in [(1, "0 AND 2", 1000), (2, "1 AND 0", 200_000)] {
        let asked = Instant::now();
        let resp = other
            .call(&RequestFrame::query(id, query))
            .expect("answered");
        assert!(asked.elapsed() < Duration::from_secs(2), "{query}");
        assert_eq!((resp.status, resp.docs.len()), (Status::Ok, n), "{query}");
    }
    while timeouts() != Some(1) {
        assert!(
            sent.elapsed() < 4 * WRITE_TIMEOUT + SLACK,
            "no write timed out"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Cut off: the stalled client reads what was buffered, then the end of
    // the stream (or a reset), not its own read timeout.
    stalled.set_read_timeout(Some(SLACK)).expect("timeout");
    if let Err(e) = io::copy(&mut stalled, &mut io::sink()) {
        assert!(!matches!(
            e.kind(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut
        ));
    }
    let resp = other
        .call(&RequestFrame::query(3, "2"))
        .expect("still answered");
    assert_eq!(resp.docs.len(), 1000);
    assert_eq!(timeouts(), Some(1));
    net.stop();
}
