//! **Shard-scaling benchmark** — replays the Expt-1 stream through the
//! sharded pipeline at shard counts {1, 2, 4, 8} and reports, per
//! configuration, the wall-clock split into the paper's two phases
//! (statistics updating vs clustering + query-time merge, with the
//! stitching pass broken out) together with three quality views of the
//! final round: the **merged** (fragmented) clustering, the **stitched**
//! clustering (cross-shard fragments reunited at the cr_sim threshold),
//! and each shard on its own.
//!
//! Before any number is reported every configuration is gated on coverage:
//! the merged view must account for every live document (assigned or
//! outlier, never dropped), and the live-document count must be identical
//! across shard counts — the router partitions the stream, it must not lose
//! or duplicate any of it. After all runs the **recovery gate** asserts
//! that the stitched micro-F1 of every multi-shard configuration reaches
//! at least 90% of the 1-shard figure — the quality cliff this pass exists
//! to fix.
//!
//! Writes `results/BENCH_shards.json` by default; override with
//! `--json <path>`. Also accepts `--trace <path>` / `--trace-summary` and
//! `--metrics <path>` like the other experiment binaries. Env: `NIDC_SCALE`
//! scales the corpus (default 0.5), `NIDC_EVERY` sets the days between
//! re-clusterings (default 10), `NIDC_THREADS` sets each pipeline's inner
//! worker count (default 0 = all), `NIDC_STITCH_TAU` overrides the
//! stitching threshold (default `DEFAULT_STITCH_THRESHOLD`).

use std::time::Instant;

use nidc_bench::{
    metrics_from_args, scale_from_env, trace_from_args, write_json_report, PreparedCorpus,
};
use nidc_core::{ClusteringConfig, ShardedPipeline, DEFAULT_STITCH_THRESHOLD};
use nidc_eval::{evaluate_sharded, Labeling, MARKING_THRESHOLD};
use nidc_forgetting::{DecayParams, Timestamp};
use nidc_textproc::DocId;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The stitched system must recover at least this fraction of the 1-shard
/// micro-F1 at every shard count (the in-binary quality gate CI runs).
const RECOVERY_FLOOR: f64 = 0.90;

struct Run {
    shards: usize,
    rounds: u32,
    stats_ms: f64,
    cluster_ms: f64,
    stitch_ms: f64,
    live_docs: usize,
    assigned: usize,
    outliers: usize,
    micro_f1: f64,
    macro_f1: f64,
    stitched_micro_f1: f64,
    stitched_macro_f1: f64,
    stitched_clusters: usize,
    stitch_merges: usize,
    per_shard_micro: Vec<f64>,
    per_shard_macro: Vec<f64>,
}

/// Cumulative `nidc_stitch_seconds` sum so far (recording is enabled for
/// the whole run, so deltas of this value time the in-pipeline stitch pass
/// without instrumenting — or distorting — the measured path itself).
fn stitch_seconds_so_far() -> f64 {
    nidc_obs::snapshot()
        .histogram("nidc_stitch_seconds")
        .map_or(0.0, |h| h.sum)
}

fn main() {
    let scale = scale_from_env(0.5);
    let every: f64 = std::env::var("NIDC_EVERY")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let threads: usize = std::env::var("NIDC_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let tau: f64 = std::env::var("NIDC_STITCH_TAU")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_STITCH_THRESHOLD);
    // Metric recording stays on for the whole run: the stitch timings are
    // read back from the `nidc_stitch_seconds` histogram.
    nidc_obs::set_enabled(true);
    let mut exporter = metrics_from_args();
    let trace = trace_from_args();
    let prep = PreparedCorpus::standard(scale);
    let decay = DecayParams::from_spans(7.0, 21.0).expect("valid");

    println!(
        "shard scaling: {} articles over 178 days, re-clustering every {every} days",
        prep.corpus.len()
    );
    println!(
        "(K=24, beta=7d, gamma=21d, stitch tau={tau}, threads {threads}; host hardware threads {})\n",
        nidc_parallel::available_threads()
    );
    println!("| shards | rounds | stats ms | cluster+merge ms | stitch ms | live docs | merged F1 | stitched F1 |");
    println!("|--------|--------|----------|------------------|-----------|-----------|-----------|-------------|");

    let runs: Vec<Run> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let config = ClusteringConfig {
                k: 24,
                seed: 42,
                threads,
                ..ClusteringConfig::default()
            };
            let mut pipeline = ShardedPipeline::new(decay, config, shards).expect("shards >= 1");
            pipeline
                .set_stitch(Some(tau))
                .expect("NIDC_STITCH_TAU must be a non-negative number");
            let mut run = Run {
                shards,
                rounds: 0,
                stats_ms: 0.0,
                cluster_ms: 0.0,
                stitch_ms: 0.0,
                live_docs: 0,
                assigned: 0,
                outliers: 0,
                micro_f1: 0.0,
                macro_f1: 0.0,
                stitched_micro_f1: 0.0,
                stitched_macro_f1: 0.0,
                stitched_clusters: 0,
                stitch_merges: 0,
                per_shard_micro: Vec::new(),
                per_shard_macro: Vec::new(),
            };

            let mut next_report = every;
            let mut pending: Vec<usize> = Vec::new();
            let flush = |pipeline: &mut ShardedPipeline,
                         pending: &mut Vec<usize>,
                         run: &mut Run,
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
                run.stats_ms += t0.elapsed().as_secs_f64() * 1e3;

                let stitch0 = stitch_seconds_so_far();
                let t1 = Instant::now();
                pipeline.recluster_incremental().expect("K >= 1");
                run.cluster_ms += t1.elapsed().as_secs_f64() * 1e3;
                run.stitch_ms += (stitch_seconds_so_far() - stitch0) * 1e3;
                run.rounds += 1;

                let clustering = pipeline.last_merged().expect("just re-clustered");

                let labels: Labeling<u32> = pipeline
                    .shards()
                    .iter()
                    .flat_map(|s| s.repository().doc_ids())
                    .map(|d| (d, prep.corpus.articles()[d.0 as usize].topic.0))
                    .collect();
                let per_shard_lists: Vec<Vec<Vec<DocId>>> = clustering
                    .shards()
                    .iter()
                    .map(|c| c.member_lists())
                    .collect();
                let stitched_lists = clustering.stitched().map(|s| s.member_lists());
                let e = evaluate_sharded(
                    &per_shard_lists,
                    stitched_lists.as_deref(),
                    &labels,
                    MARKING_THRESHOLD,
                );
                run.live_docs = pipeline.num_docs();
                run.assigned = clustering.assigned_docs();
                run.outliers = clustering.outliers().len();
                run.micro_f1 = e.merged.micro_f1;
                run.macro_f1 = e.merged.macro_f1;
                run.per_shard_micro = e.per_shard.iter().map(|p| p.micro_f1).collect();
                run.per_shard_macro = e.per_shard.iter().map(|p| p.macro_f1).collect();
                match (&e.stitched, clustering.stitched()) {
                    (Some(se), Some(sv)) => {
                        run.stitched_micro_f1 = se.micro_f1;
                        run.stitched_macro_f1 = se.macro_f1;
                        run.stitched_clusters = sv.non_empty_clusters();
                        run.stitch_merges = sv.merges();
                    }
                    // one shard: stitching is the identity, so the merged
                    // figures *are* the stitched figures
                    _ => {
                        run.stitched_micro_f1 = e.merged.micro_f1;
                        run.stitched_macro_f1 = e.merged.macro_f1;
                        run.stitched_clusters = clustering.non_empty_clusters();
                        run.stitch_merges = 0;
                    }
                }
            };

            for (i, a) in prep.corpus.articles().iter().enumerate() {
                while a.day >= next_report {
                    flush(&mut pipeline, &mut pending, &mut run, next_report);
                    next_report += every;
                }
                pending.push(i);
            }
            flush(&mut pipeline, &mut pending, &mut run, 178.0);

            // coverage gate: the merged view must account for every live doc
            assert_eq!(
                run.assigned + run.outliers,
                run.live_docs,
                "{shards} shard(s): merged view dropped documents"
            );

            println!(
                "| {:>6} | {:>6} | {:>8.1} | {:>16.1} | {:>9.1} | {:>9} | {:>9.2} | {:>11.2} |",
                run.shards,
                run.rounds,
                run.stats_ms,
                run.cluster_ms,
                run.stitch_ms,
                run.live_docs,
                run.micro_f1,
                run.stitched_micro_f1
            );
            if let Some(m) = exporter.as_mut() {
                m.record_window(&[("shards", shards as f64)])
                    .expect("metrics export");
            }
            run
        })
        .collect();

    // partition gate: the router must neither lose nor duplicate documents
    for r in &runs[1..] {
        assert_eq!(
            r.live_docs, runs[0].live_docs,
            "{} shard(s): live-document count differs from the 1-shard run",
            r.shards
        );
    }

    let baseline_f1 = runs[0].micro_f1;
    println!();
    for r in &runs[1..] {
        println!(
            "{} shards: merged F1 {:.3} -> stitched F1 {:.3} ({} merges, {:.1} ms stitch over {} rounds) — {:.0}% of 1-shard",
            r.shards,
            r.micro_f1,
            r.stitched_micro_f1,
            r.stitch_merges,
            r.stitch_ms,
            r.rounds,
            100.0 * r.stitched_micro_f1 / baseline_f1.max(1e-12)
        );
    }

    let articles = prep.corpus.len();
    let results: Vec<serde_json::Value> = runs
        .iter()
        .map(|r| {
            let per_shard: Vec<serde_json::Value> = r
                .per_shard_micro
                .iter()
                .zip(&r.per_shard_macro)
                .enumerate()
                .map(|(s, (&mi, &ma))| {
                    serde_json::json!({
                        "name": format!("shard_{s}"),
                        "micro_f1": mi,
                        "macro_f1": ma,
                    })
                })
                .collect();
            serde_json::json!({
                "name": format!("shards_{}", r.shards),
                "shards": r.shards,
                "rounds": r.rounds,
                "stats_ms": r.stats_ms,
                "cluster_merge_ms": r.cluster_ms,
                "stitch_ms": r.stitch_ms,
                "live_docs": r.live_docs,
                "micro_f1": r.micro_f1,
                "macro_f1": r.macro_f1,
                "stitched_micro_f1": r.stitched_micro_f1,
                "stitched_macro_f1": r.stitched_macro_f1,
                "stitched_clusters": r.stitched_clusters,
                "stitch_merges": r.stitch_merges,
                "per_shard": per_shard,
            })
        })
        .collect();
    write_json_report(
        "bench_shards",
        Some("results/BENCH_shards.json"),
        serde_json::json!({
            "scale": scale,
            "report_every_days": every,
            "inner_threads": threads,
            "stitch_threshold": tau,
            "articles": articles,
            "results": results,
        }),
    );
    if let Some(m) = exporter.as_mut() {
        m.finish().expect("metrics export");
    }
    if let Some(s) = trace {
        s.finish(&mut std::io::stdout()).expect("trace export");
    }

    // recovery gate: stitching must climb back to >= 90% of the 1-shard
    // quality at every shard count (the cliff was 0.20 at 4 shards)
    for r in &runs[1..] {
        assert!(
            r.stitched_micro_f1 >= RECOVERY_FLOOR * baseline_f1,
            "{} shard(s): stitched micro-F1 {:.3} is below {RECOVERY_FLOOR} x 1-shard ({:.3})",
            r.shards,
            r.stitched_micro_f1,
            baseline_f1
        );
    }
}
