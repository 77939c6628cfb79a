//! Pass 2: the same stream replayed layer by layer. Instead of calling
//! `ShardedPipeline`, it drives each layer through that layer's own public
//! functions in the order `ShardedPipeline` does, wrapping every call in a
//! `bench.<layer>` span, with the counting allocator and the metrics
//! registry on. Its clusterings must equal pass 1's window for window —
//! that is what makes its per-layer numbers a breakdown of pass 1.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nidc_core::{
    cluster_with_initial, Clustering, ClusteringConfig, InitialState, LineageTracker,
    MergedClustering, ObservedCluster, ShardRouter, ShardState, ShardedPipelineState,
};
use nidc_corpus::Corpus;
use nidc_forgetting::{Repository, Timestamp};
use nidc_obs::trace::{TraceEvent, TracePhase};
use nidc_similarity::DocVectors;
use nidc_textproc::{DocId, Pipeline, Vocabulary};

use crate::stats::{median_and_tail, tail_percentile, Digest};
use crate::view::{overview, View};
use crate::workload::{schedule, Recluster, Step, Workload};

/// One shard as `NoveltyPipeline` holds it: repository, warm-start
/// assignment, last clustering.
struct Shard {
    repo: Repository,
    previous: Option<BTreeMap<DocId, usize>>,
    last: Option<Clustering>,
}

/// What one shard's re-clustering produced, plus the φ non-zeros it built.
struct Reclustered {
    clustering: Clustering,
    phi_nnz: u64,
}

impl Shard {
    /// `NoveltyPipeline::recluster_incremental` / `recluster_from_scratch`,
    /// one layer call at a time.
    fn recluster(
        &mut self,
        config: &ClusteringConfig,
        mode: Recluster,
    ) -> nidc_core::Result<Reclustered> {
        {
            let _s = nidc_obs::span!("bench.forgetting.expire");
            let previous = &mut self.previous;
            self.repo.expire_with(|id| {
                if let Some(prev) = previous.as_mut() {
                    prev.remove(&id);
                }
            });
        }
        if mode == Recluster::FromScratch {
            let _s = nidc_obs::span!("bench.forgetting.recompute");
            self.repo.recompute_from_scratch_with(config.threads);
        }
        let vecs = {
            let _s = nidc_obs::span!("bench.similarity.phi");
            DocVectors::build_parallel(&self.repo, config.threads)
        };
        let phi_nnz = vecs.iter().map(|(_, v)| v.nnz() as u64).sum();
        // The pipeline's warm-start rule: keep the slots the (possibly
        // shrunken) effective K still has; seed randomly when none survive.
        let k = config.k.min(vecs.len());
        let initial = match (mode, self.previous.take()) {
            (Recluster::Incremental, Some(mut prev)) => {
                prev.retain(|_, p| *p < k);
                if prev.is_empty() {
                    InitialState::Random
                } else {
                    InitialState::Assignment(prev)
                }
            }
            _ => InitialState::Random,
        };
        let clustering = {
            let _s = nidc_obs::span!("bench.kmeans");
            cluster_with_initial(&vecs, config, initial)?
        };
        self.previous = Some(clustering.assignment());
        self.last = Some(clustering.clone());
        Ok(Reclustered {
            clustering,
            phi_nnz,
        })
    }
}

/// Everything pass 2 measured and checked.
#[derive(Debug, Default)]
pub struct Pass2 {
    /// Per-window digest of the merged (stitched) clustering.
    pub windows: Vec<u64>,
    /// Digest of each checkpoint's bytes.
    pub checkpoints: Vec<u64>,
    /// Seconds inside the same timed calls pass 1 times.
    pub timed_s: f64,
    /// Calls made into the system.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Named failed checks.
    pub failures: Vec<String>,
    /// Per-layer metric values, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric (calls for span-derived values).
    pub samples: BTreeMap<&'static str, usize>,
    /// The recorded spans, for the Chrome trace.
    pub events: Vec<TraceEvent>,
}

/// Counts the layers report that no counter covers.
#[derive(Default)]
struct Tally {
    tokens: u64,
    phi_nnz: u64,
    iterations: u64,
    input_clusters: u64,
    stitch_merges: u64,
    lineage_events: u64,
    checkpoint_bytes: u64,
}

/// Runs pass 2 over `corpus`. Turns tracing, metrics and allocation
/// counting on for the rest of the process.
pub fn run(w: &Workload, corpus: &Corpus) -> Pass2 {
    let steps = schedule(w, corpus.articles());
    let config = w.config();
    let analyzer = Pipeline::english();
    let mut vocab = Vocabulary::new();
    let router = ShardRouter::new(w.shards).expect("workloads have at least one shard");
    let mut shards: Vec<Shard> = (0..w.shards)
        .map(|_| Shard {
            repo: Repository::new(w.decay()),
            previous: None,
            last: None,
        })
        .collect();
    let mut tracker = LineageTracker::new();
    // Version, topology and configuration of the checkpoint, as the
    // pipeline itself writes them.
    let header = w.pipeline().to_state();
    let mut checkpoint = Vec::new();

    nidc_obs::reset_all();
    nidc_obs::set_enabled(true);
    nidc_obs::alloc::set_tracking(true);
    nidc_obs::alloc::reset();
    nidc_obs::trace::set_trace_enabled(true);
    let before = nidc_obs::snapshot();

    let mut out = Pass2::default();
    let mut tally = Tally::default();
    for step in &steps {
        out.attempted += 1;
        match *step {
            Step::Article(a) => {
                let t = Instant::now();
                let tf = {
                    let _s = nidc_obs::span!("bench.textproc");
                    let counts = analyzer.analyze(&a.text, &mut vocab);
                    tally.tokens += counts.total();
                    counts.to_sparse()
                };
                let shard = &mut shards[router.route(DocId(a.id))];
                let inserted = {
                    let _s = nidc_obs::span!("bench.forgetting.insert");
                    shard.repo.insert(DocId(a.id), Timestamp(a.day), tf)
                };
                out.timed_s += t.elapsed().as_secs_f64();
                if let Err(e) = inserted {
                    out.failed += 1;
                    out.failures
                        .push(format!("traced ingest: article {}: {e}", a.id));
                    break;
                }
            }
            Step::Window {
                boundary,
                checkpoint: save,
            } => {
                let t = Instant::now();
                let merged = window(w, &config, boundary, &mut shards, &mut tracker, &mut tally);
                out.timed_s += t.elapsed().as_secs_f64();
                let merged = match merged {
                    Ok(m) => m,
                    Err(e) => {
                        out.failed += 1;
                        out.failures
                            .push(format!("traced window {}: {e}", out.windows.len()));
                        break;
                    }
                };
                out.windows.push(View::of(&merged).digest());

                out.attempted += 1;
                let t = Instant::now();
                {
                    let _s = nidc_obs::span!("bench.query");
                    let lasts: Option<Vec<Clustering>> =
                        shards.iter().map(|s| s.last.clone()).collect();
                    if let Some(lasts) = lasts {
                        let mut view = MergedClustering::new(lasts);
                        if let Some(tau) = w.stitch() {
                            view.stitch_in_place(tau);
                        }
                        black_box(overview(&view, &vocab));
                    }
                }
                out.timed_s += t.elapsed().as_secs_f64();

                if save {
                    out.attempted += 1;
                    checkpoint.clear();
                    let t = Instant::now();
                    let saved = {
                        let _s = nidc_obs::span!("bench.persist.save");
                        let state = ShardedPipelineState {
                            shard_states: shards
                                .iter()
                                .map(|s| ShardState {
                                    repository: s.repo.to_state(),
                                    previous_assignment: s
                                        .previous
                                        .as_ref()
                                        .map(|m| m.iter().map(|(&d, &p)| (d.0, p)).collect()),
                                })
                                .collect(),
                            lineage: (tracker.windows_observed() > 0).then(|| tracker.to_state()),
                            ..header.clone()
                        };
                        serde_json::to_writer(&mut checkpoint, &state)
                    };
                    out.timed_s += t.elapsed().as_secs_f64();
                    if let Err(e) = saved {
                        out.failed += 1;
                        out.failures.push(format!("traced checkpoint: {e}"));
                        break;
                    }
                    tally.checkpoint_bytes += checkpoint.len() as u64;
                    let mut h = Digest::default();
                    h.bytes(&checkpoint);
                    out.checkpoints.push(h.finish());
                }
            }
        }
    }

    nidc_obs::trace::set_trace_enabled(false);
    let after = nidc_obs::snapshot();
    let allocs = nidc_obs::alloc::stats();
    nidc_obs::alloc::set_tracking(false);
    nidc_obs::set_enabled(false);
    out.events = nidc_obs::trace::drain();
    if let Err(e) = nidc_obs::trace::validate_events(&out.events) {
        out.failures.push(format!("trace validation: {e}"));
    }

    let counter =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    static NEVER_RAN: SpanTally = SpanTally {
        durations_s: Vec::new(),
        allocs: 0,
        bytes: 0,
    };
    let spans = span_tallies(&out.events);
    let span = |name: &str| spans.get(name).unwrap_or(&NEVER_RAN);
    let mut put = |name: &'static str, value: f64, samples: usize| {
        out.metrics.insert(name, value);
        out.samples.insert(name, samples);
    };

    let textproc = span("bench.textproc");
    let docs = textproc.calls();
    put("textproc.busy_s", textproc.busy_s(), docs);
    put(
        "textproc.us_per_doc_p50",
        textproc.percentile_s(50) * 1e6,
        docs,
    );
    put(
        "textproc.us_per_doc_p99",
        textproc.percentile_s(99) * 1e6,
        docs,
    );
    put("textproc.tokens", tally.tokens as f64, docs);
    put("textproc.allocs", textproc.allocs as f64, docs);

    let insert = span("bench.forgetting.insert");
    put("forgetting.insert_busy_s", insert.busy_s(), docs);
    put(
        "forgetting.insert_us_p50",
        insert.percentile_s(50) * 1e6,
        docs,
    );
    put(
        "forgetting.insert_us_p99",
        insert.percentile_s(99) * 1e6,
        docs,
    );
    let vocab_dim = shards.iter().map(|s| s.repo.vocab_dim()).max().unwrap_or(0);
    put("forgetting.vocab_dim", vocab_dim as f64, 1);
    put("forgetting.insert_allocs", insert.allocs as f64, docs);
    let windows = out.windows.len();
    let advance = span("bench.forgetting.advance").busy_s();
    let expire = span("bench.forgetting.expire").busy_s();
    let recompute = span("bench.forgetting.recompute").busy_s();
    put("forgetting.advance_busy_s", advance, windows);
    put("forgetting.expire_busy_s", expire, windows);
    let expired = counter("nidc_forgetting_docs_expired_total");
    put("forgetting.expired_docs", expired, windows);
    put(
        "forgetting.stats_busy_s",
        advance + expire + recompute,
        windows,
    );

    let phi = span("bench.similarity.phi");
    put("similarity.phi_busy_s", phi.busy_s(), phi.calls());
    put("similarity.phi_nnz", tally.phi_nnz as f64, phi.calls());
    put("similarity.phi_allocs", phi.allocs as f64, phi.calls());
    put("similarity.phi_bytes", phi.bytes as f64, phi.calls());

    let kmeans = span("bench.kmeans");
    let runs = kmeans.calls();
    let (p50, tail) = median_and_tail(&kmeans.durations_s, tail_percentile(runs));
    let candidates = counter("nidc_kmeans_step1_candidates_total");
    let postings = counter("nidc_index_postings_touched_total");
    let moved = counter("nidc_kmeans_moved_docs_total");
    let per_candidate = |x: f64| {
        if candidates > 0.0 {
            x / candidates
        } else {
            0.0
        }
    };
    put("kmeans.busy_s", kmeans.busy_s(), runs);
    put("kmeans.ms_p50", p50 * 1e3, runs);
    put("kmeans.ms_tail", tail.unwrap_or(p50) * 1e3, runs);
    put("kmeans.iterations", tally.iterations as f64, runs);
    put("kmeans.step1_candidates", candidates, runs);
    put("kmeans.postings_touched", postings, runs);
    put(
        "kmeans.postings_per_candidate",
        per_candidate(postings),
        runs,
    );
    put("kmeans.moved_docs", moved, runs);
    put("kmeans.moves_per_candidate", per_candidate(moved), runs);
    put("kmeans.allocs", kmeans.allocs as f64, runs);
    put("kmeans.bytes", kmeans.bytes as f64, runs);

    let merge = span("bench.merge");
    put("merge.busy_s", merge.busy_s(), windows);
    put("merge.input_clusters", tally.input_clusters as f64, windows);
    put("merge.stitch_merges", tally.stitch_merges as f64, windows);
    put("merge.allocs", merge.allocs as f64, windows);

    let query = span("bench.query");
    put("query.busy_s", query.busy_s(), windows);
    put("query.allocs", query.allocs as f64, windows);

    let lineage = span("bench.lineage");
    put("lineage.busy_s", lineage.busy_s(), windows);
    put("lineage.events", tally.lineage_events as f64, windows);
    put("lineage.allocs", lineage.allocs as f64, windows);

    let save = span("bench.persist.save");
    put("persist.save_busy_s", save.busy_s(), save.calls());
    put(
        "persist.save_ms_p50",
        save.percentile_s(50) * 1e3,
        save.calls(),
    );
    put(
        "persist.checkpoint_bytes",
        tally.checkpoint_bytes as f64,
        save.calls(),
    );

    put(
        "parallel.fanouts",
        counter("nidc_parallel_fanouts_total"),
        windows,
    );
    put(
        "parallel.sequential",
        counter("nidc_parallel_sequential_total"),
        windows,
    );

    put("obs.peak_live_mb", allocs.peak_live_bytes as f64 / 1e6, 1);
    put("obs.total_allocs", allocs.allocs as f64, 1);
    out
}

/// Closes one window the way `ShardedPipeline::advance_to` followed by
/// `recluster_*` does: advance and re-cluster fanned out over the shards,
/// then merge (and stitch) and observe lineage on the calling thread.
fn window(
    w: &Workload,
    config: &ClusteringConfig,
    boundary: Option<f64>,
    shards: &mut [Shard],
    tracker: &mut LineageTracker,
    tally: &mut Tally,
) -> nidc_core::Result<MergedClustering> {
    if let Some(b) = boundary {
        nidc_parallel::par_map_mut(shards, w.threads, |s| {
            let _s = nidc_obs::span!("bench.forgetting.advance");
            s.repo.advance_to(Timestamp(b))
        })
        .into_iter()
        .collect::<Result<(), _>>()?;
    }
    let mut clusterings = Vec::with_capacity(shards.len());
    for r in nidc_parallel::par_map_mut(shards, w.threads, |s| s.recluster(config, w.recluster)) {
        let r = r?;
        tally.phi_nnz += r.phi_nnz;
        tally.iterations += r.clustering.iterations() as u64;
        clusterings.push(r.clustering);
    }
    let merged = {
        let _s = nidc_obs::span!("bench.merge");
        let mut merged = MergedClustering::new(clusterings);
        if let Some(tau) = w.stitch() {
            merged.stitch_in_place(tau);
        }
        merged
    };
    if let Some(s) = merged.stitched() {
        tally.input_clusters += s.input_clusters() as u64;
        tally.stitch_merges += s.merges() as u64;
    }
    let _s = nidc_obs::span!("bench.lineage");
    let events = match merged.stitched() {
        Some(stitched) => {
            let observed: Vec<ObservedCluster<'_>> = stitched
                .clusters()
                .iter()
                .filter(|c| !c.members().is_empty())
                .map(|c| ObservedCluster {
                    id: c.id(),
                    members: c.members(),
                    rep: c.rep(),
                })
                .collect();
            tracker.observe(&observed, stitched.outliers(), stitched.g())
        }
        None => {
            let observed: Vec<ObservedCluster<'_>> = merged
                .iter_non_empty()
                .map(|(id, c)| ObservedCluster {
                    id,
                    members: c.members(),
                    rep: c.rep(),
                })
                .collect();
            tracker.observe(&observed, &merged.outliers(), merged.g())
        }
    };
    tally.lineage_events += events.len() as u64;
    Ok(merged)
}

/// Durations and allocation deltas of every span with one name.
#[derive(Debug, Default)]
struct SpanTally {
    durations_s: Vec<f64>,
    allocs: u64,
    bytes: u64,
}

impl SpanTally {
    /// How many times the span ran.
    fn calls(&self) -> usize {
        self.durations_s.len()
    }

    /// Total seconds inside the span.
    fn busy_s(&self) -> f64 {
        self.durations_s.iter().sum()
    }

    /// Nearest-rank percentile of the span's durations in seconds (0 when
    /// the span never ran).
    fn percentile_s(&self, p: u32) -> f64 {
        median_and_tail(&self.durations_s, Some(p)).1.unwrap_or(0.0)
    }
}

/// Pairs every `bench.*` begin with its end. A span closes on the thread
/// that opened it, so its begin precedes its end in the drained stream.
fn span_tallies(events: &[TraceEvent]) -> BTreeMap<&'static str, SpanTally> {
    let mut open: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, SpanTally> = BTreeMap::new();
    for ev in events.iter().filter(|e| e.name.starts_with("bench.")) {
        match ev.phase {
            TracePhase::Begin => {
                open.insert(ev.id, ev);
            }
            TracePhase::End => {
                if let Some(b) = open.remove(&ev.id) {
                    let t = out.entry(ev.name).or_default();
                    t.durations_s
                        .push(ev.ts_ns.saturating_sub(b.ts_ns) as f64 * 1e-9);
                    t.allocs += ev.allocs.saturating_sub(b.allocs);
                    t.bytes += ev.bytes.saturating_sub(b.bytes);
                }
            }
        }
    }
    out
}
