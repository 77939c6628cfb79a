//! Every metric the benchmark reports: name, unit, direction, and — for the
//! end-to-end metrics — the regression bound `BENCHMARK.json` declares; for
//! the per-layer metrics, the end-to-end metric and workload each should
//! move. A test keeps these tables and `BENCHMARK.json` in agreement.

use crate::stats::Better;
use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the stream sees (pass 1).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// Absolute allowance that overrides a smaller share (used by `--check`
    /// only; `BENCHMARK.json` has no field for it).
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("docs_per_s", "docs/s", Higher, 0.25, 0.0),
    e2e("window_ms_p50", "ms", Lower, 0.25, 0.5),
    e2e("window_ms_tail", "ms", Lower, 0.25, 0.5),
    e2e("query_ms_p50", "ms", Lower, 0.25, 0.5),
    e2e("query_ms_tail", "ms", Lower, 0.25, 0.5),
    e2e("setup_s", "s", Lower, 0.25, 0.0),
    e2e("state_mb_peak", "MB", Lower, 0.25, 0.0),
    e2e("micro_f1_mean", "ratio", Higher, 0.25, 0.005),
];

/// The per-layer metrics as `(name, unit)`, grouped by the end-to-end
/// metric and workload a change in that layer should move. Every one of
/// them is better lower: they count work, time or memory.
pub const PER_LAYER: [(&str, &[(&str, &str)]); 13] = [
    (
        "docs_per_s on firehose",
        &[
            ("textproc.busy_s", "s"),
            ("textproc.us_per_doc_p50", "us"),
            ("textproc.us_per_doc_p99", "us"),
            ("textproc.tokens", "count"),
            ("textproc.allocs", "count"),
            ("forgetting.insert_busy_s", "s"),
            ("forgetting.insert_us_p50", "us"),
            ("forgetting.insert_us_p99", "us"),
            ("forgetting.vocab_dim", "count"),
            ("forgetting.insert_allocs", "count"),
        ],
    ),
    (
        "window_ms_p50 on every workload",
        &[
            ("forgetting.advance_busy_s", "s"),
            ("forgetting.expire_busy_s", "s"),
            ("forgetting.expired_docs", "count"),
        ],
    ),
    (
        "window_ms_p50 on rebuild",
        &[("forgetting.stats_busy_s", "s")],
    ),
    (
        "window_ms_p50 on daily and rebuild",
        &[
            ("similarity.phi_busy_s", "s"),
            ("similarity.phi_nnz", "count"),
            ("similarity.phi_allocs", "count"),
            ("similarity.phi_bytes", "bytes"),
        ],
    ),
    (
        "window_ms_p50 and window_ms_tail on daily and rebuild",
        &[
            ("kmeans.busy_s", "s"),
            ("kmeans.ms_p50", "ms"),
            ("kmeans.ms_tail", "ms"),
            ("kmeans.iterations", "count"),
            ("kmeans.step1_candidates", "count"),
            ("kmeans.postings_touched", "count"),
            ("kmeans.postings_per_candidate", "ratio"),
            ("kmeans.moved_docs", "count"),
            ("kmeans.moves_per_candidate", "ratio"),
            ("kmeans.allocs", "count"),
            ("kmeans.bytes", "bytes"),
        ],
    ),
    (
        "window_ms_p50 on sharded8",
        &[
            ("merge.busy_s", "s"),
            ("merge.input_clusters", "count"),
            ("merge.stitch_merges", "count"),
            ("merge.allocs", "count"),
        ],
    ),
    (
        "query_ms_p50 on sharded8",
        &[("query.busy_s", "s"), ("query.allocs", "count")],
    ),
    (
        "window_ms_p50 on daily",
        &[
            ("lineage.busy_s", "s"),
            ("lineage.events", "count"),
            ("lineage.allocs", "count"),
        ],
    ),
    (
        "docs_per_s on daily",
        &[
            ("persist.save_busy_s", "s"),
            ("persist.save_ms_p50", "ms"),
            ("persist.checkpoint_bytes", "bytes"),
        ],
    ),
    (
        "window_ms_p50 on rebuild and sharded8",
        &[
            ("parallel.fanouts", "count"),
            ("parallel.sequential", "count"),
        ],
    ),
    (
        "none: tracing overhead, clean on daily and firehose",
        &[("obs.traced_wall_ratio", "ratio")],
    ),
    (
        "state_mb_peak on every workload",
        &[("obs.peak_live_mb", "MB"), ("obs.total_allocs", "count")],
    ),
    (
        "none: informational (the traced process, the load generator)",
        &[("process.peak_rss_mb", "MB"), ("gen_s", "s")],
    ),
];

/// Every per-layer metric as `(name, unit, what it should move)`, in report
/// order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    PER_LAYER
        .iter()
        .flat_map(|&(moves, metrics)| metrics.iter().map(move |&(name, unit)| (name, unit, moves)))
}

/// Values that must repeat exactly for a given seed: the `--check` gate
/// compares them with the baseline (the per-window clustering digest is
/// gated too). A value that did not repeat across the baseline's own runs
/// is recorded there as ungated instead.
pub const DETERMINISTIC: [&str; 19] = [
    "state_mb_peak",
    "micro_f1_mean",
    "textproc.tokens",
    "textproc.allocs",
    "forgetting.vocab_dim",
    "forgetting.insert_allocs",
    "forgetting.expired_docs",
    "similarity.phi_nnz",
    "similarity.phi_allocs",
    "kmeans.iterations",
    "kmeans.step1_candidates",
    "kmeans.postings_touched",
    "kmeans.moved_docs",
    "kmeans.allocs",
    "merge.stitch_merges",
    "merge.allocs",
    "query.allocs",
    "lineage.allocs",
    "obs.total_allocs",
];

/// The unit of any reported metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(per_layer().map(|(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = benchmark_json();
        let e2e = json["end_to_end"].as_array().expect("end_to_end list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j["name"].as_str(), Some(m.name));
            assert_eq!(j["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(j["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
            assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = json["per_layer"].as_array().expect("per_layer list");
        assert_eq!(layers.len(), per_layer().count());
        for (j, (name, unit, _)) in layers.iter().zip(per_layer()) {
            assert_eq!(j["name"].as_str(), Some(name));
            assert_eq!(j["unit"].as_str(), Some(unit), "{name}");
            assert_eq!(j["better"].as_str(), Some("lower"), "{name}");
        }
        let workloads = json["workloads"].as_array().expect("workload list");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(per_layer().map(|(n, _, _)| n))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric name");
        for d in DETERMINISTIC {
            assert!(!unit_of(d).is_empty(), "{d} is not a reported metric");
        }
    }
}
