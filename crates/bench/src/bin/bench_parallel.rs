//! **Parallel hot-path benchmark** — sequential vs threaded wall-clock for
//! the one intra-layer fan-out left behind `nidc-parallel`: the GAC
//! baseline's pairwise-similarity agglomeration, O(n²) work per bucket. Run
//! on a generated ≈2k-document window. (The φ build and the statistics
//! rebuild run sequentially: their fan-outs cost more than they saved.)
//!
//! The threaded run is checked bit-identical to its sequential twin before
//! any number is reported — a speedup that changes the answer is a bug, not
//! a speedup.
//!
//! Writes `results/BENCH_parallel.json` by default; override with
//! `--json <path>`. The JSON's `host.available_parallelism` records how many
//! hardware threads the numbers were taken on: on a single-core host the
//! speedup is expectedly ≈1× and must not be read as a regression.
//!
//! Env: `NIDC_SCALE` scales the document count (default 1.0 ≈ 2k docs),
//! `NIDC_THREADS` sets the threaded variant's worker count (default 4).

use std::time::{Duration, Instant};

use nidc_baselines::{gac, GacConfig};
use nidc_bench::{scale_from_env, write_json_report};
use nidc_corpus::Generator;
use nidc_textproc::{DocId, Pipeline, SparseVector, Vocabulary};

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

fn main() {
    let scale = scale_from_env(1.0);
    let threads: usize = std::env::var("NIDC_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let days = 14u32;
    let per_day = (143.0 * scale).round().max(1.0) as u32; // ≈ 2k docs at scale 1
    println!("parallel hot paths: {days}-day window × {per_day} docs/day, threads 1 vs {threads}");
    println!(
        "host hardware threads: {}\n",
        nidc_parallel::available_threads()
    );

    let corpus = Generator::dense_stream(2006, days, per_day, 48);
    let pipeline = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    let pairs: Vec<(DocId, SparseVector)> = corpus
        .articles()
        .iter()
        .map(|a| {
            (
                DocId(a.id),
                pipeline.analyze(&a.text, &mut vocab).to_sparse(),
            )
        })
        .collect();
    println!("{} documents generated", pairs.len());

    let base = GacConfig {
        target_clusters: 32,
        ..GacConfig::default()
    };
    let (seq_clusters, t_seq) = time(|| {
        gac(
            &pairs,
            &GacConfig {
                threads: 1,
                ..base.clone()
            },
        )
    });
    let (par_clusters, t_par) = time(|| {
        gac(
            &pairs,
            &GacConfig {
                threads,
                ..base.clone()
            },
        )
    });
    assert_eq!(
        seq_clusters, par_clusters,
        "GAC result must be bit-identical"
    );
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    println!(
        "gac_2k_window  sequential {:>9.1} ms   {threads} threads {:>9.1} ms   speedup {speedup:.2}x",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
    );

    let gac_row = serde_json::json!({
        "name": "gac_2k_window",
        "sequential_ms": t_seq.as_secs_f64() * 1e3,
        "parallel_ms": t_par.as_secs_f64() * 1e3,
        "threads": threads,
        "speedup": speedup,
    });
    write_json_report(
        "parallel_hot_paths",
        Some("results/BENCH_parallel.json"),
        serde_json::json!({
            "scale": scale,
            "docs": pairs.len(),
            "results": [gac_row],
        }),
    );
}
