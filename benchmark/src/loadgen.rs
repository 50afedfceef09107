//! The load generator: closed loop, one connection, one thread.
//!
//! `callers` callers share the connection. Each has one request
//! outstanding and sends its next the moment its reply is decoded, which
//! is how a fan-in tier calls this server; replies are matched to
//! requests by id. A single thread reads a reply and writes the next
//! request, so the generator never spins or sleeps and takes no core from
//! the server it measures. Closed, not open: on two shared cores an
//! open-loop sender must either spin or sleep, and both showed up as
//! milliseconds of generator lag.

use crate::gate::{self, Expected};
use crate::stats;
use crate::workload::DEADLINE_US;
use fsi_net::{Client, FrameError, RequestFrame, Status};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Throughput is reported as the median over windows this long.
const WINDOW: Duration = Duration::from_secs(1);

/// One measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub name: &'static str,
    /// Requests kept outstanding.
    pub callers: usize,
    /// How long new requests are issued; outstanding ones are then
    /// drained.
    pub duration: Duration,
    /// Relative deadline carried by every request; 0 is none.
    pub deadline_us: u32,
}

/// What arrived during one whole [`WINDOW`] of a phase's issuing period.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// `Ok` responses with the right answer.
    pub ok: u64,
    /// Of those, the ones decoded within [`DEADLINE_US`] of their send.
    pub good: u64,
    /// Send → response decoded of every `ok` response, in arrival order.
    pub latencies_ns: Vec<u64>,
}

/// What a phase sent and what came back.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    /// `Ok` responses with the right answer.
    pub ok: u64,
    /// `Ok` responses decoded within [`DEADLINE_US`] of their send.
    pub good: u64,
    /// `Shed` and `Overloaded` responses.
    pub refused: u64,
    /// `BadFrame`, `InvalidQuery`, wrong answers, responses with an id
    /// that is unknown or already answered, and requests never answered.
    pub failed: u64,
    /// The first few failures, for the error message.
    pub failures: Vec<String>,
    /// One entry per whole [`WINDOW`] of the issuing period. Responses
    /// drained after it count in the totals above and in no window.
    pub windows: Vec<Window>,
    /// Longest time from a reply being read to the caller's next request
    /// being written. The generator was free to send throughout, so a
    /// long gap is a stalled generator, not a slow server.
    pub max_gap_ns: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

/// Median over `windows` of a per-window completion rate.
pub fn median_rate(windows: &[&Window], count: fn(&Window) -> u64) -> f64 {
    let counts: Vec<u64> = windows.iter().map(|w| count(w)).collect();
    stats::window_median_rate(&counts, WINDOW.as_secs_f64())
}

/// Median over `windows` of a per-window latency percentile, in
/// nanoseconds. Per window first, so that a second the box spent
/// elsewhere moves one value out of many and not the tail of the pooled
/// sample.
pub fn median_percentile_ns(windows: &[&Window], p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.latencies_ns.is_empty())
        .map(|w| {
            let mut sorted = w.latencies_ns.clone();
            sorted.sort_unstable();
            stats::percentile(&sorted, p)
        })
        .collect();
    stats::median(&per_window)
}

struct Outstanding {
    sent_at: Instant,
    query: usize,
}

/// Runs one phase over `client`, cycling `stream` from query
/// `first_query`, and checks every response against `expected`. A
/// transport error abandons the phase.
pub fn run_phase(
    client: &mut Client,
    stream: &[String],
    expected: &[Expected],
    spec: &PhaseSpec,
    first_query: usize,
    first_id: u64,
) -> Result<Tally, FrameError> {
    let windows = (spec.duration.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize;
    let mut tally = Tally {
        windows: vec![Window::default(); windows],
        ..Tally::default()
    };
    let mut outstanding: HashMap<u64, Outstanding> = HashMap::with_capacity(spec.callers * 2);
    let good_within = Duration::from_micros(u64::from(DEADLINE_US));
    let mut next = 0usize;
    let mut send = |client: &mut Client,
                    outstanding: &mut HashMap<u64, Outstanding>|
     -> Result<(), FrameError> {
        let query = (first_query + next) % stream.len();
        let id = first_id + next as u64;
        next += 1;
        let frame =
            RequestFrame::query(id, stream[query].as_str()).with_deadline_us(spec.deadline_us);
        let sent_at = Instant::now();
        client.send(&frame)?;
        outstanding.insert(id, Outstanding { sent_at, query });
        Ok(())
    };

    let start = Instant::now();
    let stop_issuing = start + spec.duration;
    for _ in 0..spec.callers.max(1) {
        send(client, &mut outstanding)?;
        tally.sent += 1;
    }
    while !outstanding.is_empty() {
        let Some(resp) = client.recv()? else {
            break;
        };
        let now = Instant::now();
        match outstanding.remove(&resp.id) {
            None => tally.fail(format!("response for unknown or answered id {}", resp.id)),
            Some(req) => match resp.status {
                Status::Shed | Status::Overloaded => tally.refused += 1,
                _ => match gate::check(&expected[req.query], &resp) {
                    Err(what) => tally.fail(format!("{:?}: {what}", stream[req.query])),
                    Ok(()) => {
                        let latency = now - req.sent_at;
                        let good = latency <= good_within;
                        tally.ok += 1;
                        tally.good += u64::from(good);
                        let window = ((now - start).as_nanos() / WINDOW.as_nanos()) as usize;
                        if let Some(w) = tally.windows.get_mut(window) {
                            w.ok += 1;
                            w.good += u64::from(good);
                            w.latencies_ns.push(latency.as_nanos() as u64);
                        }
                    }
                },
            },
        }
        if now < stop_issuing {
            send(client, &mut outstanding)?;
            tally.sent += 1;
            tally.max_gap_ns = tally.max_gap_ns.max(now.elapsed().as_nanos() as u64);
        }
    }
    for (id, req) in outstanding {
        tally.fail(format!(
            "request {id} ({:?}) never answered",
            stream[req.query]
        ));
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{self, CorpusSize};
    use crate::workload;

    const SMALL: CorpusSize = CorpusSize {
        num_docs: 20_000,
        num_terms: 256,
    };

    #[test]
    fn a_phase_accounts_for_every_request_and_a_tampered_answer_fails_it() {
        let w = workload::by_name("bool_cold").expect("known");
        let (stack, _) = system::stand_up(system::corpus(SMALL, 11), 11, w.serve_config())
            .expect("loopback stack");
        let stream: Vec<String> = w.stream(SMALL, 11).into_iter().take(300).collect();
        let mut expected = gate::expected_answers(&stack.serve, &stream).expect("answers");
        let mut client = system::connect(&stack.net).expect("connect");
        gate::naive_sample(&mut client, &stack.engine, &stream, 11).expect("naive gate");

        let spec = PhaseSpec {
            name: "sat",
            callers: 8,
            duration: Duration::from_millis(1200),
            deadline_us: 0,
        };
        let t = run_phase(&mut client, &stream, &expected, &spec, 7, 1000).expect("transport");
        assert!(t.sent > 8);
        assert_eq!(
            (t.ok, t.refused, t.failed),
            (t.sent, 0, 0),
            "{:?}",
            t.failures
        );
        let [w] = &t.windows[..] else {
            panic!("1.2 s of issuing is one whole window");
        };
        assert!(w.ok > 0 && w.ok <= t.ok && w.good <= w.ok);
        assert_eq!(w.latencies_ns.len() as u64, w.ok);
        assert_eq!(median_rate(&[w], |w| w.ok), w.ok as f64);
        let p50 = median_percentile_ns(&[w], 0.50);
        assert!(p50 > 0.0 && p50 <= median_percentile_ns(&[w], 0.99));

        // The same traffic against a falsified expectation must not pass.
        expected[0].checksum ^= 1;
        let t = run_phase(&mut client, &stream, &expected, &spec, 0, 1 << 20).expect("transport");
        assert!(t.failed > 0 && t.ok + t.failed == t.sent);
        assert!(t.failures[0].contains("differs"), "{:?}", t.failures);
    }

    #[test]
    fn an_expired_deadline_is_a_refusal_not_a_failure() {
        let w = workload::by_name("overload").expect("known");
        let (stack, _) = system::stand_up(system::corpus(SMALL, 5), 5, w.serve_config())
            .expect("loopback stack");
        let stream: Vec<String> = w.stream(SMALL, 5).into_iter().take(64).collect();
        let expected = gate::expected_answers(&stack.serve, &stream).expect("answers");
        let mut client = system::connect(&stack.net).expect("connect");
        // 1 µs is gone before any worker dequeues the request.
        let spec = PhaseSpec {
            name: "overload",
            callers: 32,
            duration: Duration::from_millis(200),
            deadline_us: 1,
        };
        let t = run_phase(&mut client, &stream, &expected, &spec, 0, 0).expect("transport");
        assert!(t.refused > 0);
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        assert_eq!(t.ok + t.refused, t.sent);
        assert!(t.windows.is_empty() && median_rate(&[], |w| w.ok).is_nan());
    }
}
