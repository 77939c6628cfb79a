//! **On-line deployment simulation** — the paper's §5.2 operating mode run
//! end to end: the full 178-day stream is replayed chronologically; every
//! `REPORT_EVERY` days a batch of new articles is ingested (incremental
//! statistics update), expired articles are dropped, and the clustering is
//! refreshed incrementally (warm-started from the previous result).
//!
//! For every re-clustering the binary reports wall-clock cost split into the
//! paper's two phases (statistics updating vs clustering), the number of
//! iterations, and the clustering quality against the ground-truth labels of
//! the currently-live documents — a longitudinal version of Tables 1 and 4
//! in one run.
//!
//! Env: `NIDC_SCALE` (default 0.5), `NIDC_EVERY` (days between
//! re-clusterings, default 5), `NIDC_SHARDS` (stream shards, default 1 —
//! today's single-pipeline behaviour, bit for bit). With `--json <path>`,
//! also writes the aggregate timings as BENCH JSON. With `--metrics <path>`
//! (`--metrics-format jsonl|prom`), exports one instrumentation snapshot
//! per re-clustering window — the canonical producer for
//! `metrics_manifest.txt`. With `--events <path>`, exports the cluster
//! lifecycle event stream (births, deaths, splits, merges, drift — see
//! `check_events`) as JSON lines. With `--trace <path>` (`--trace-summary`),
//! records spans across the whole replay and writes Chrome trace-event
//! JSON — the canonical producer for `check_trace`. With `--alloc-stats`,
//! counts every heap allocation (spans then carry allocs/bytes columns) and
//! prints a one-line process summary at the end.

use std::time::Instant;

use nidc_bench::{
    alloc_tracking_from_args, events_from_args, metrics_from_args, scale_from_env, trace_from_args,
    write_json_report, PreparedCorpus,
};
use nidc_core::{ClusteringConfig, ShardedPipeline};
use nidc_eval::{evaluate, Labeling, MARKING_THRESHOLD};
use nidc_forgetting::{DecayParams, Timestamp};
use nidc_textproc::DocId;

fn main() {
    let scale = scale_from_env(0.5);
    let every: f64 = std::env::var("NIDC_EVERY")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let shards: usize = std::env::var("NIDC_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let prep = PreparedCorpus::standard(scale);
    let decay = DecayParams::from_spans(7.0, 21.0).expect("valid");
    let config = ClusteringConfig {
        k: 24,
        seed: 42,
        ..ClusteringConfig::default()
    };
    let mut pipeline = ShardedPipeline::new(decay, config, shards).expect("shards ≥ 1");
    let mut exporter = metrics_from_args();
    let events = events_from_args();
    let trace = trace_from_args();
    let alloc_stats = alloc_tracking_from_args();

    println!(
        "on-line simulation: {} articles over 178 days, re-clustering every {every} days, {shards} shard(s)",
        prep.corpus.len()
    );
    println!("(K=24, beta=7d, gamma=21d — articles expire three weeks after arrival)\n");
    println!("|  day | live docs | stats ms | cluster ms | iters | clusters | outliers | micro F1 | macro F1 |");
    println!("|------|-----------|----------|------------|-------|----------|----------|----------|----------|");

    let mut next_report = every;
    let mut pending: Vec<usize> = Vec::new();
    let (mut total_stats_ms, mut total_cluster_ms, mut rounds) = (0.0, 0.0, 0u32);

    let flush = |pipeline: &mut ShardedPipeline,
                 pending: &mut Vec<usize>,
                 exporter: &mut Option<nidc_obs::MetricsExporter>,
                 day: f64| {
        let t0 = Instant::now();
        for &i in pending.iter() {
            let a = &prep.corpus.articles()[i];
            pipeline
                .ingest(DocId(a.id), Timestamp(a.day), prep.tfs[i].clone())
                .expect("chronological");
        }
        pending.clear();
        pipeline.advance_to(Timestamp(day)).expect("forward");
        let stats_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        pipeline.recluster_incremental().expect("K ≥ 1");
        let cluster_ms = t1.elapsed().as_secs_f64() * 1e3;
        let clustering = pipeline.last_merged().expect("just re-clustered");

        // quality over the live documents, across every shard
        let labels: Labeling<u32> = pipeline
            .shards()
            .iter()
            .flat_map(|s| s.repository().doc_ids())
            .map(|d| (d, prep.corpus.articles()[d.0 as usize].topic.0))
            .collect();
        let e = evaluate(&clustering.member_lists(), &labels, MARKING_THRESHOLD);
        println!(
            "| {:>4.0} | {:>9} | {:>8.1} | {:>10.1} | {:>5} | {:>8} | {:>8} | {:>8.2} | {:>8.2} |",
            day,
            pipeline.num_docs(),
            stats_ms,
            cluster_ms,
            clustering.iterations(),
            clustering.non_empty_clusters(),
            clustering.outliers().len(),
            e.micro_f1,
            e.macro_f1
        );
        if let Some(m) = exporter.as_mut() {
            m.record_window(&[("day", day), ("docs", pipeline.num_docs() as f64)])
                .expect("write metrics snapshot");
        }
        (stats_ms, cluster_ms)
    };

    for (i, a) in prep.corpus.articles().iter().enumerate() {
        while a.day >= next_report {
            let (s, c) = flush(&mut pipeline, &mut pending, &mut exporter, next_report);
            total_stats_ms += s;
            total_cluster_ms += c;
            rounds += 1;
            next_report += every;
        }
        pending.push(i);
    }
    let (s, c) = flush(&mut pipeline, &mut pending, &mut exporter, 178.0);
    total_stats_ms += s;
    total_cluster_ms += c;
    rounds += 1;

    if let Some(m) = exporter.as_mut() {
        m.finish().expect("flush metrics export");
    }
    if let Some(e) = events {
        e.finish().expect("flush events export");
    }
    if let Some(t) = trace {
        t.finish(&mut std::io::stdout())
            .expect("write trace output");
    }
    if alloc_stats {
        let s = nidc_obs::alloc::stats();
        println!(
            "alloc-stats: allocs={} deallocs={} reallocs={} bytes_allocated={} \
             live_bytes={} peak_live_bytes={}",
            s.allocs, s.deallocs, s.reallocs, s.bytes_allocated, s.live_bytes, s.peak_live_bytes
        );
    }

    println!(
        "\n{rounds} re-clusterings; mean statistics update {:.1} ms, mean clustering {:.1} ms per round",
        total_stats_ms / rounds as f64,
        total_cluster_ms / rounds as f64
    );
    println!(
        "(the paper's batch alternative would re-ingest the entire live repository each round)"
    );

    // (bound to locals: the vendored json! macro needs single-token values
    // alongside nested literals)
    let articles = prep.corpus.len();
    write_json_report(
        "online_simulation",
        None,
        serde_json::json!({
            "scale": scale,
            "report_every_days": every,
            "shards": shards,
            "articles": articles,
            "rounds": rounds,
            "results": [
                { "name": "stats_update_mean", "wall_ms": total_stats_ms / rounds as f64 },
                { "name": "cluster_mean", "wall_ms": total_cluster_ms / rounds as f64 },
                { "name": "stats_update_total", "wall_ms": total_stats_ms },
                { "name": "cluster_total", "wall_ms": total_cluster_ms },
            ],
        }),
    );
}
