//! The four workloads: what traffic each one is, which server it runs
//! against, and how the callers behave.

use crate::system::CorpusSize;
use fsi_serve::ServeConfig;
use fsi_workloads::stream::{generate_boolean_stream, BooleanStreamConfig};
use std::collections::HashSet;

/// Queries per cold stream, cycled. Every distinct query is executed once
/// in process before timing to learn its answer, which is what caps the
/// length: 16 384 AND queries cost ≈ 2.5 s on two cores (OR/NOT ones
/// twice that), and ten seconds of saturation issue one to three passes
/// of them.
pub const COLD_STREAM_LEN: usize = 16_384;

/// Distinct canonical queries in the hot set. Half the default result
/// cache (4 096 entries over 8 segments), so no segment ever evicts. The
/// hot path's cost follows the mean response size, which Zipf's heavy
/// tail keeps seed-dependent: ±7% between seeds at this size, ±13% at
/// 256.
pub const HOT_SET_LEN: usize = 2048;

/// The per-request budget on `overload`, and the latency limit "good"
/// responses meet on every workload.
pub const DEADLINE_US: u32 = 20_000;

/// How the callers of a workload behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One-second slices of `rtt` (one caller, one request outstanding)
    /// for the latency metrics, taking turns with one-second slices of
    /// `sat` (16 callers) for throughput.
    RttAndSat,
    /// One phase, 256 callers, every request carrying [`DEADLINE_US`].
    Overload,
}

/// Callers in the `sat` phase: enough to keep both workers busy, far
/// from filling the 1 024-slot queue.
pub const SAT_CALLERS: usize = 16;
/// Callers on `overload`: ≈ 10× what the server turns round in 20 ms.
pub const OVERLOAD_CALLERS: usize = 256;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    or_probability: f64,
    not_probability: f64,
    /// Cycle the first [`HOT_SET_LEN`] distinct canonical queries instead
    /// of the raw stream.
    hot_set: bool,
    /// Result cache on (`ServeConfig::default()`) or off.
    pub cached: bool,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "and_cold",
        why: "the paper's 2-5 keyword AND mixture with the result cache off: planner and intersection kernels dominate",
        or_probability: 0.0,
        not_probability: 0.0,
        hot_set: false,
        cached: false,
        load: Load::RttAndSat,
    },
    Workload {
        name: "bool_cold",
        why: "OR/NOT-heavy expressions, cache off: the same planner and kernels doing union and difference, so an AND-only gain that taxes them shows",
        or_probability: 0.6,
        not_probability: 0.4,
        hot_set: false,
        cached: false,
        load: Load::RttAndSat,
    },
    Workload {
        name: "hot_cached",
        why: "2048 distinct queries cycled through the result cache at hit rate 1.0: kernels idle, only the wire, parse, cache and encode path works",
        or_probability: 0.35,
        not_probability: 0.25,
        hot_set: true,
        cached: true,
        load: Load::RttAndSat,
    },
    Workload {
        name: "overload",
        why: "and_cold's stream from 256 callers with a 20 ms deadline: queueing, shedding and work executed then thrown away decide goodput",
        or_probability: 0.0,
        not_probability: 0.0,
        hot_set: false,
        cached: false,
        load: Load::Overload,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The serving configuration this workload runs against: production
    /// defaults, with the result cache off on the cold workloads.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            cache_capacity: if self.cached {
                ServeConfig::default().cache_capacity
            } else {
                0
            },
            ..ServeConfig::default()
        }
    }

    /// The seeded query stream, as query strings in the `fsi-query`
    /// surface syntax.
    pub fn stream(&self, size: CorpusSize, seed: u64) -> Vec<String> {
        let config = |num_queries| BooleanStreamConfig {
            num_queries,
            num_terms: size.num_terms,
            or_probability: self.or_probability,
            or_arity: 3,
            not_probability: self.not_probability,
            seed,
            ..BooleanStreamConfig::default()
        };
        if !self.hot_set {
            return generate_boolean_stream(&config(COLD_STREAM_LEN));
        }
        // Zipf traffic repeats itself: draw well past the hot set's size
        // and keep the first occurrence of each canonical form.
        let mut seen = HashSet::new();
        let mut hot = Vec::with_capacity(HOT_SET_LEN);
        for query in generate_boolean_stream(&config(HOT_SET_LEN * 8)) {
            let norm = fsi_query::compile(&query).expect("generated queries compile");
            if seen.insert(fsi_query::encode(&norm)) {
                hot.push(query);
                if hot.len() == HOT_SET_LEN {
                    break;
                }
            }
        }
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{corpus, FULL};

    const SMALL: CorpusSize = CorpusSize {
        num_docs: 20_000,
        num_terms: 256,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let postings = |seed| {
            corpus(SMALL, seed)
                .into_postings()
                .into_iter()
                .map(|p| p.as_slice().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(postings(7), postings(7));
        assert_ne!(postings(7), postings(8));
        for w in &WORKLOADS {
            assert_eq!(w.stream(FULL, 7), w.stream(FULL, 7), "{}", w.name);
            assert_ne!(w.stream(FULL, 7), w.stream(FULL, 8), "{}", w.name);
        }
    }

    #[test]
    fn hot_set_is_distinct_canonical_encodings() {
        let hot = by_name("hot_cached").expect("known").stream(FULL, 3);
        assert_eq!(hot.len(), HOT_SET_LEN);
        let distinct: HashSet<Vec<u32>> = hot
            .iter()
            .map(|q| fsi_query::encode(&fsi_query::compile(q).expect("compiles")))
            .collect();
        assert_eq!(distinct.len(), HOT_SET_LEN);
        assert!(HOT_SET_LEN <= ServeConfig::default().cache_capacity / 2);
    }

    #[test]
    fn cold_workloads_run_without_a_cache_and_share_the_and_stream() {
        let and = by_name("and_cold").expect("known");
        let overload = by_name("overload").expect("known");
        assert_eq!(and.serve_config().cache_capacity, 0);
        assert_eq!(and.stream(FULL, 5), overload.stream(FULL, 5));
        assert_eq!(and.stream(FULL, 5).len(), COLD_STREAM_LEN);
        assert!(
            by_name("hot_cached")
                .expect("known")
                .serve_config()
                .cache_capacity
                > 0
        );
        assert!(by_name("nope").is_none());
    }
}
