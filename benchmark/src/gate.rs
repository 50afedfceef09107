//! The correctness gate: no number is printed unless the answers are
//! right.
//!
//! Two checks. A seeded sample of stream queries is answered over the
//! wire and compared element for element with `fsi_query::naive` set
//! semantics. And every query of the stream is executed once in process,
//! untimed, to learn the `(length, checksum)` its answer must have; every
//! timed response is then held against that.

use fsi_core::Elem;
use fsi_index::SearchEngine;
use fsi_net::protocol::FLAG_DOCS_TRUNCATED;
use fsi_net::{Client, RequestFrame, ResponseFrame, Status};
use fsi_serve::{Request, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per workload checked against the naive evaluator.
pub const NAIVE_SAMPLE: usize = 64;

/// What the answer to one stream query must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub len: u32,
    pub checksum: u64,
}

impl Expected {
    fn of(docs: &[Elem]) -> Self {
        Self {
            len: docs.len() as u32,
            checksum: checksum(docs),
        }
    }
}

/// An order-sensitive 64-bit digest of a document list (FNV-1a over the
/// ids): cheap enough to run on every timed response.
pub fn checksum(docs: &[Elem]) -> u64 {
    docs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &d| {
        (h ^ u64::from(d)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Executes every stream query in process on `server` and records what
/// its answer looks like. Split over two threads: this is untimed
/// set-up, and the box has two cores.
pub fn expected_answers(server: &Server, stream: &[String]) -> Result<Vec<Expected>, String> {
    let answer = |q: &String| {
        server
            .execute(&Request::expr(q.as_str()))
            .map(|r| Expected::of(&r.docs))
            .map_err(|e| format!("query {q:?} rejected in process: {e}"))
    };
    let (front, back) = stream.split_at(stream.len() / 2);
    let (a, b) = std::thread::scope(|scope| {
        let back = scope.spawn(|| back.iter().map(answer).collect::<Result<Vec<_>, _>>());
        let front = front.iter().map(answer).collect::<Result<Vec<_>, _>>();
        (front, back.join().expect("answer thread panicked"))
    });
    let mut all = a?;
    all.extend(b?);
    Ok(all)
}

/// Holds one response against the expected answer of its query.
pub fn check(expected: &Expected, resp: &ResponseFrame) -> Result<(), String> {
    if resp.status != Status::Ok {
        return Err(format!("status {:?}: {}", resp.status, resp.message));
    }
    if resp.flags & FLAG_DOCS_TRUNCATED != 0 {
        return Err("document list truncated".to_string());
    }
    let got = Expected::of(&resp.docs);
    if got != *expected {
        return Err(format!(
            "answer {got:?} differs from in-process {expected:?}"
        ));
    }
    Ok(())
}

/// Answers a seeded sample of the stream over the wire and compares each
/// answer element for element with the naive evaluator over the raw
/// posting lists.
pub fn naive_sample(
    client: &mut Client,
    engine: &SearchEngine,
    stream: &[String],
    seed: u64,
) -> Result<(), String> {
    let postings: Vec<&[Elem]> = engine.postings().iter().map(|p| p.as_slice()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..NAIVE_SAMPLE {
        let query = &stream[rng.gen_range(0..stream.len())];
        let norm = fsi_query::compile(query).map_err(|e| format!("{query:?}: {e}"))?;
        let truth: Vec<Elem> = fsi_query::naive::naive_eval(&postings, &norm)
            .into_iter()
            .collect();
        let resp = client
            .call(&RequestFrame::query(k as u64, query.as_str()))
            .map_err(|e| format!("{query:?}: {e}"))?;
        if resp.id != k as u64 {
            return Err(format!(
                "{query:?}: response id {} for request {k}",
                resp.id
            ));
        }
        check(&Expected::of(&truth), &resp).map_err(|e| format!("{query:?}: {e}"))?;
        if resp.docs != truth {
            return Err(format!(
                "{query:?}: answer differs from the naive evaluator"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(docs: Vec<Elem>) -> ResponseFrame {
        ResponseFrame {
            status: Status::Ok,
            detail: 0,
            flags: 0,
            id: 1,
            latency_us: 0,
            docs,
            message: String::new(),
        }
    }

    #[test]
    fn checksum_sees_order_and_content() {
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 3, 2]));
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 4]));
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_eq!(checksum(&[9, 8]), checksum(&[9, 8]));
    }

    #[test]
    fn a_tampered_expectation_fails_the_gate() {
        let docs = vec![3, 5, 8];
        let expected = Expected::of(&docs);
        assert_eq!(check(&expected, &ok(docs.clone())), Ok(()));
        let tampered = Expected {
            checksum: expected.checksum ^ 1,
            ..expected
        };
        assert!(check(&tampered, &ok(docs.clone())).is_err());
        let short = Expected {
            len: expected.len - 1,
            ..expected
        };
        assert!(check(&short, &ok(docs.clone())).is_err());
    }

    #[test]
    fn refusals_truncation_and_errors_fail_the_check() {
        let docs = vec![1, 2];
        let expected = Expected::of(&docs);
        for status in [Status::Shed, Status::Overloaded, Status::InvalidQuery] {
            let mut resp = ok(docs.clone());
            resp.status = status;
            assert!(check(&expected, &resp).is_err(), "{status:?}");
        }
        let mut resp = ok(docs);
        resp.flags = FLAG_DOCS_TRUNCATED;
        assert!(check(&expected, &resp).is_err());
    }
}
