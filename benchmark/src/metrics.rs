//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` repeats them; a test holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: something a user of the server sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
}

// Every timed metric carries the widest bound the driver allows. The box
// this runs on is a shared 2-vCPU VM whose speed drifts by 10-20% over
// minutes (README, "Steadiness"): medians of ten runs taken a quarter of
// an hour apart differed by up to 17%, so a tighter bound would reject
// changes for the neighbours' behaviour.

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_posting",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// `failed_share` is 0 on a healthy run, so it cannot carry a relative
/// bound (and cannot be an end-to-end metric of `BENCHMARK.json`, whose
/// metrics are never 0): `compare` allows it to rise by this much,
/// absolute.
pub const FAILED_SHARE: &str = "failed_share";
pub const FAILED_SHARE_BOUND_ABS: f64 = 0.001;

/// The per-layer metrics of the traced run: name, unit, direction. A
/// metric of a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str, Better); 48] = [
    ("net.wire_call_ns", "ns", Better::Lower),
    ("net.wire_call_p50_ns", "ns", Better::Lower),
    ("net.wire_self_ns", "ns", Better::Lower),
    ("net.encode_request_ns", "ns", Better::Lower),
    ("net.decode_request_ns", "ns", Better::Lower),
    ("net.admit_ns", "ns", Better::Lower),
    ("net.queue_handoff_ns", "ns", Better::Lower),
    ("net.encode_response_ns", "ns", Better::Lower),
    ("net.decode_response_ns", "ns", Better::Lower),
    ("net.response_bytes", "B", Better::Lower),
    ("net.queue_wait_p99_ns", "ns", Better::Lower),
    ("net.service_p99_ns", "ns", Better::Lower),
    ("net.batch_size_mean", "count", Better::Higher),
    ("net.shed_share", "ratio", Better::Lower),
    ("net.good_per_served", "ratio", Better::Higher),
    ("net.late_served_qps", "1/s", Better::Lower),
    ("serve.execute_ns", "ns", Better::Lower),
    ("serve.execute_p50_ns", "ns", Better::Lower),
    ("serve.execute_self_ns", "ns", Better::Lower),
    ("serve.shard_exec_ns", "ns", Better::Lower),
    ("serve.shard_exec_p50_ns", "ns", Better::Lower),
    ("serve.cache_hit_ns", "ns", Better::Lower),
    ("serve.cache_hit_rate", "ratio", Better::Higher),
    ("serve.cache_evictions", "count", Better::Lower),
    ("query.parse_ns", "ns", Better::Lower),
    ("query.normalize_ns", "ns", Better::Lower),
    ("query.encode_key_ns", "ns", Better::Lower),
    ("query.plan_ns", "ns", Better::Lower),
    ("query.exec_ns", "ns", Better::Lower),
    ("query.result_rows", "count", Better::Lower),
    ("index.plan_regret", "ratio", Better::Lower),
    (
        "index.plan_kind_share.RanGroupScan",
        "ratio",
        Better::Higher,
    ),
    ("index.plan_kind_share.HashProbe", "ratio", Better::Higher),
    ("index.plan_kind_share.BitmapAnd", "ratio", Better::Higher),
    ("index.plan_kind_share.GallopProbe", "ratio", Better::Higher),
    ("index.plan_kind_share.HeapMerge", "ratio", Better::Higher),
    (
        "index.plan_kind_share.CompressedGallop",
        "ratio",
        Better::Higher,
    ),
    ("index.build_s", "s", Better::Lower),
    ("index.bytes_per_posting", "B", Better::Lower),
    ("kernels.forced_ns.RanGroupScan", "ns", Better::Lower),
    ("kernels.forced_ns.HashProbe", "ns", Better::Lower),
    ("kernels.forced_ns.BitmapAnd", "ns", Better::Lower),
    ("kernels.forced_ns.GallopProbe", "ns", Better::Lower),
    ("kernels.forced_ns.HeapMerge", "ns", Better::Lower),
    ("kernels.forced_ns.CompressedGallop", "ns", Better::Lower),
    ("obs.lifecycle_overhead_pct", "%", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans_per_request", "count", Better::Lower),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use fsi_bench::json::Json;

    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");

        let listed = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(names(listed), END_TO_END.map(|m| m.name.to_string()));
        for (entry, m) in listed.as_array().expect("array").iter().zip(END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(label(m.better))
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let setup = END_TO_END[0];
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));

        let listed = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            names(listed),
            PER_LAYER.map(|(name, _, _)| name.to_string())
        );
        for (entry, (_, unit, better)) in listed.as_array().expect("array").iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(label(better))
            );
        }

        let listed = doc.get("workloads").expect("workloads");
        assert_eq!(names(listed), WORKLOADS.map(|w| w.name.to_string()));
        for (entry, w) in listed.as_array().expect("array").iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(
            doc.get("paths").map(names_of_strings),
            Some(vec!["benchmark".to_string()])
        );
    }

    fn names_of_strings(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    }
}
