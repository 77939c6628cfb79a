//! Pass 1: the stream replayed the way a user runs it — through
//! `ShardedPipeline`, observability off — timing only the calls into the
//! system. Checks and scoring run between the timed calls.

use std::hint::black_box;
use std::time::Instant;

use nidc_core::ShardedPipeline;
use nidc_corpus::Corpus;
use nidc_forgetting::Timestamp;
use nidc_textproc::{DocId, Pipeline, Vocabulary};

use crate::stats::Digest;
use crate::view::{overview, View};
use crate::workload::{schedule, Recluster, Step, Workload};

/// Back-to-back analyzer + pipeline constructions per setup batch.
const SETUP_BATCH: usize = 9;

/// One replay of the stream: its timings and what it returned.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Articles ingested.
    pub docs: usize,
    /// Seconds of every timed call (analyze + ingest, window, query,
    /// checkpoint), in stream order — they sum to the denominator of
    /// `docs_per_s`.
    pub call_s: Vec<f64>,
    /// Per-window latency: advance + re-cluster, in ms.
    pub window_ms: Vec<f64>,
    /// Per-query latency: `last_merged` + the overview, in ms.
    pub query_ms: Vec<f64>,
    /// Per-window digest of the returned clustering.
    pub windows: Vec<u64>,
    /// Digest of each checkpoint's bytes.
    pub checkpoints: Vec<u64>,
    /// Largest Σ over shards of `NoveltyPipeline::mem_sample()` after a
    /// window, in bytes.
    pub state_bytes_peak: u64,
    /// Mean per-window micro-F1 of the returned clustering.
    pub micro_f1_mean: f64,
}

/// Everything pass 1 measured and checked.
#[derive(Debug, Default)]
pub struct Pass1 {
    /// Seconds to build the analyzer and the pipeline: a batch of samples
    /// before every replay and after the last, so they spread over the run.
    pub setup_s: Vec<f64>,
    /// One entry per replay.
    pub replays: Vec<Replay>,
    /// Calls made into the system.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Named failed checks.
    pub failures: Vec<String>,
}

impl Replay {
    /// Seconds inside the timed calls.
    pub fn timed_s(&self) -> f64 {
        self.call_s.iter().sum()
    }
}

/// Runs pass 1: `replays` identical replays of `corpus`, each from a freshly
/// built pipeline. Stops after a replay in which a call failed.
pub fn run(w: &Workload, corpus: &Corpus, replays: usize) -> Pass1 {
    let mut out = Pass1::default();
    let sample_setup = |out: &mut Pass1| {
        for _ in 0..SETUP_BATCH {
            out.setup_s.push(setup(w).2);
        }
    };
    for _ in 0..replays {
        sample_setup(&mut out);
        let r = replay(w, corpus, &mut out);
        if out
            .replays
            .first()
            .is_some_and(|first| first.windows != r.windows || first.checkpoints != r.checkpoints)
        {
            out.failures
                .push("determinism: a repeated replay returned different clusterings".into());
        }
        out.replays.push(r);
        if out.failed > 0 {
            break;
        }
    }
    sample_setup(&mut out);
    out
}

/// Builds the analyzer and the pipeline; returns them with the seconds it
/// took (dropping them is not timed).
fn setup(w: &Workload) -> (Pipeline, ShardedPipeline, f64) {
    let t = Instant::now();
    let analyzer = Pipeline::english();
    let pipeline = w.pipeline();
    let s = t.elapsed().as_secs_f64();
    (analyzer, pipeline, s)
}

/// Replays `corpus` once, counting calls, failures and failed checks into
/// `out`. Returns early when a call fails.
fn replay(w: &Workload, corpus: &Corpus, out: &mut Pass1) -> Replay {
    let mut r = Replay::default();
    let (analyzer, mut pipeline, setup_s) = setup(w);
    out.setup_s.push(setup_s);
    let mut vocab = Vocabulary::new();
    let mut checkpoint = Vec::new();
    let mut f1 = Vec::new();
    for step in schedule(w, corpus.articles()) {
        out.attempted += 1;
        match step {
            Step::Article(a) => {
                let t = Instant::now();
                let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
                let ingested = pipeline.ingest(DocId(a.id), Timestamp(a.day), tf);
                r.call_s.push(t.elapsed().as_secs_f64());
                if let Err(e) = ingested {
                    out.failed += 1;
                    out.failures.push(format!("ingest: article {}: {e}", a.id));
                    return r;
                }
                r.docs += 1;
            }
            Step::Window {
                boundary,
                checkpoint: save,
            } => {
                let window = r.windows.len();
                let t = Instant::now();
                let merged = boundary
                    .map_or(Ok(()), |b| pipeline.advance_to(Timestamp(b)))
                    .and_then(|()| match w.recluster {
                        Recluster::Incremental => pipeline.recluster_incremental(),
                        Recluster::FromScratch => pipeline.recluster_from_scratch(),
                    });
                let elapsed = t.elapsed().as_secs_f64();
                r.call_s.push(elapsed);
                r.window_ms.push(elapsed * 1e3);
                let merged = match merged {
                    Ok(m) => m,
                    Err(e) => {
                        out.failed += 1;
                        out.failures.push(format!("window {window}: {e}"));
                        return r;
                    }
                };
                let view = View::of(&merged);
                let digest = view.digest();
                let live: Vec<DocId> = pipeline
                    .shards()
                    .iter()
                    .flat_map(|s| s.repository().doc_ids())
                    .collect();
                if let Err(e) = view.check_coverage(live.clone()) {
                    out.failures.push(format!("coverage: window {window}: {e}"));
                }
                f1.push(view.micro_f1(corpus, &live));
                r.state_bytes_peak = r.state_bytes_peak.max(state_bytes(&pipeline));

                out.attempted += 1;
                let t = Instant::now();
                let queried = pipeline.last_merged().inspect(|m| {
                    black_box(overview(m, &vocab));
                });
                let elapsed = t.elapsed().as_secs_f64();
                r.call_s.push(elapsed);
                r.query_ms.push(elapsed * 1e3);
                match queried {
                    Some(q) if View::of(&q).digest() == digest => {}
                    Some(_) => out.failures.push(format!(
                        "query: window {window}: the overview disagrees with the window's clustering"
                    )),
                    None => {
                        out.failed += 1;
                        out.failures
                            .push(format!("query: window {window}: no clustering"));
                        return r;
                    }
                }
                r.windows.push(digest);

                if save {
                    out.attempted += 1;
                    checkpoint.clear();
                    let t = Instant::now();
                    let saved = pipeline.save_json(&mut checkpoint);
                    r.call_s.push(t.elapsed().as_secs_f64());
                    if let Err(e) = saved {
                        out.failed += 1;
                        out.failures.push(format!("checkpoint: {e}"));
                        return r;
                    }
                    let mut h = Digest::default();
                    h.bytes(&checkpoint);
                    r.checkpoints.push(h.finish());
                }
            }
        }
    }
    r.micro_f1_mean = f1.iter().sum::<f64>() / f1.len().max(1) as f64;
    if let Err(e) = check_round_trip(&pipeline, &checkpoint) {
        out.failures.push(format!("checkpoint round trip: {e}"));
    }
    r
}

/// Heap bytes the pipeline holds: repository, representatives and
/// warm-start map of every shard.
fn state_bytes(pipeline: &ShardedPipeline) -> u64 {
    pipeline
        .shards()
        .iter()
        .map(|s| {
            let (repo, reps, warm) = s.pipeline().mem_sample();
            repo + reps + warm
        })
        .sum()
}

/// Loads the last checkpoint back and compares it with the live pipeline.
/// `Repository::from_state` re-derives the statistics by re-inserting the
/// live documents, so `tdw` agrees to rounding and the term table spans only
/// the live documents' terms.
fn check_round_trip(pipeline: &ShardedPipeline, checkpoint: &[u8]) -> Result<(), String> {
    let loaded = ShardedPipeline::load_json(checkpoint).map_err(|e| e.to_string())?;
    let (a, b) = (pipeline.stats(), loaded.stats());
    if loaded.num_docs() != pipeline.num_docs() || loaded.now() != pipeline.now() {
        return Err(format!(
            "{} docs at {} restored as {} docs at {}",
            pipeline.num_docs(),
            pipeline.now(),
            loaded.num_docs(),
            loaded.now()
        ));
    }
    if a.num_docs != b.num_docs
        || a.now != b.now
        || b.vocab_dim > a.vocab_dim
        || (a.tdw - b.tdw).abs() > 1e-9 * a.tdw.abs().max(1.0)
    {
        return Err(format!("stats {a:?} restored as {b:?}"));
    }
    Ok(())
}
