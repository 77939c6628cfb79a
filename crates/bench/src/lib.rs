//! Experiment harness: the glue that runs the paper's experiments end to
//! end (corpus → text processing → forgetting statistics → clustering →
//! evaluation) and the shared code behind every `src/bin/` experiment
//! binary.
//!
//! Every table and figure of the paper has a binary here — see DESIGN.md's
//! experiment index for the mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;

use std::time::{Duration, Instant};

use nidc_core::{cluster_batch, Clustering, ClusteringConfig};
use nidc_corpus::{Corpus, Generator, GeneratorConfig, TimeWindow, TopicId};
use nidc_eval::{evaluate, Evaluation, Labeling, MARKING_THRESHOLD};
use nidc_forgetting::{DecayParams, Repository, Timestamp};
use nidc_similarity::DocVectors;
use nidc_textproc::{DocId, Pipeline, SparseVector, Vocabulary};

/// A corpus with every article already tokenised into term-frequency
/// vectors over a shared vocabulary.
pub struct PreparedCorpus {
    /// The article stream.
    pub corpus: Corpus,
    /// The shared vocabulary.
    pub vocab: Vocabulary,
    /// `tfs[i]` is the tf vector of `corpus.articles()[i]`.
    pub tfs: Vec<SparseVector>,
}

impl PreparedCorpus {
    /// Tokenises every article of `corpus` (raw pipeline — the synthetic
    /// language is already normalised).
    pub fn prepare(corpus: Corpus) -> Self {
        let pipeline = Pipeline::raw();
        let mut vocab = Vocabulary::new();
        let tfs = corpus
            .articles()
            .iter()
            .map(|a| pipeline.analyze(&a.text, &mut vocab).to_sparse())
            .collect();
        Self { corpus, vocab, tfs }
    }

    /// Generates and prepares the standard evaluation corpus at `scale`
    /// (1.0 = the paper's 7,578-document subset).
    pub fn standard(scale: f64) -> Self {
        Self::prepare(
            Generator::new(GeneratorConfig {
                scale,
                ..GeneratorConfig::default()
            })
            .generate(),
        )
    }

    /// Ground-truth labels for a set of article indices.
    pub fn labels_for(&self, indices: &[usize]) -> Labeling<u32> {
        indices
            .iter()
            .map(|&i| {
                let a = &self.corpus.articles()[i];
                (DocId(a.id), a.topic.0)
            })
            .collect()
    }

    /// Builds a forgetting-model repository over the given article indices
    /// and advances it to `clock`.
    pub fn build_repository(
        &self,
        indices: &[usize],
        decay: DecayParams,
        clock: Timestamp,
    ) -> Repository {
        let mut repo = Repository::new(decay);
        for &i in indices {
            let a = &self.corpus.articles()[i];
            repo.insert(DocId(a.id), Timestamp(a.day), self.tfs[i].clone())
                .expect("articles are chronological and unique");
        }
        repo.advance_to(clock)
            .expect("clock is at/after last article");
        repo
    }
}

/// The outcome of clustering one time window under one half-life setting.
pub struct WindowRun {
    /// The clustering itself.
    pub clustering: Clustering,
    /// Evaluation against ground truth (marking threshold 0.60).
    pub evaluation: Evaluation<u32>,
    /// Wall-clock time of the statistics build.
    pub stats_time: Duration,
    /// Wall-clock time of the clustering.
    pub cluster_time: Duration,
}

/// Clusters one standard window non-incrementally (the paper's
/// Experiment 2 protocol): statistics and clustering are computed on the
/// window's documents with the repository clock at the window's end.
pub fn run_window(
    prep: &PreparedCorpus,
    window: &TimeWindow,
    beta: f64,
    gamma: f64,
    config: &ClusteringConfig,
) -> WindowRun {
    let decay = DecayParams::from_spans(beta, gamma).expect("valid spans");
    let t0 = Instant::now();
    let repo = prep.build_repository(&window.article_indices, decay, Timestamp(window.end));
    let vecs = DocVectors::build(&repo);
    let stats_time = t0.elapsed();

    let t1 = Instant::now();
    let clustering = cluster_batch(&vecs, config).expect("K ≥ 1");
    let cluster_time = t1.elapsed();

    let labels = prep.labels_for(&window.article_indices);
    let evaluation = evaluate(&clustering.member_lists(), &labels, MARKING_THRESHOLD);
    WindowRun {
        clustering,
        evaluation,
        stats_time,
        cluster_time,
    }
}

/// The topics *visible in a hot-topic overview* of a clustering result: the
/// paper's question "what are recent topics?" is answered by the salient
/// clusters, so a topic counts as hot only if one of its marked clusters
/// ranks within the top `max_rank` clusters by G-term `|C_p|·avg_sim(C_p)`
/// (the weight each cluster contributes to the clustering index G).
///
/// A half-life of 7 days drains the G-term of clusters made of old
/// documents, pushing stale topics out of the overview; a 30-day half-life
/// keeps them in — which is exactly the asymmetry the paper's §6.2.3
/// narrates for "Unabomber" and "Nigerian Protest Violence".
pub fn hot_topics(run: &WindowRun, max_rank: usize) -> Vec<u32> {
    let mut gs: Vec<(usize, f64)> = run
        .clustering
        .clusters()
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.rep().g_term()))
        .collect();
    gs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let top: std::collections::HashSet<usize> = gs.iter().take(max_rank).map(|&(i, _)| i).collect();
    let mut hot: Vec<u32> = run
        .evaluation
        .clusters
        .iter()
        .filter(|r| top.contains(&r.cluster))
        .filter_map(|r| r.marked_topic)
        .collect();
    hot.sort_unstable();
    hot.dedup();
    hot
}

/// Formats a topic id with its name for display.
pub fn topic_label(corpus: &Corpus, id: u32) -> String {
    match corpus.topic_name(TopicId(id)) {
        Some(name) => format!("{id} \"{name}\""),
        None => id.to_string(),
    }
}

/// Pretty-prints a `Duration` as `MmSS.Ss` like the paper's tables.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    let mins = (secs / 60.0).floor() as u64;
    format!("{mins}min{:05.2}sec", secs - mins as f64 * 60.0)
}

/// Scale factor from the environment (`NIDC_SCALE`), defaulting to `full`.
pub fn scale_from_env(full: f64) -> f64 {
    std::env::var("NIDC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(full)
}

/// The `--json <path>` argument of an experiment binary, if given.
///
/// Experiment binaries stay human-readable on stdout by default; with
/// `--json` they additionally write their numbers in the shared BENCH
/// schema (see [`write_bench_json`]) so the perf trajectory is
/// machine-trackable across PRs.
pub fn json_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// The one `--json` writer shared by every experiment binary: resolves the
/// output path (`--json <path>` override, else `default_path`, conventionally
/// under `results/`) and writes the BENCH JSON there, announcing the file on
/// stdout. Returns the path written, or `None` when neither an override nor
/// a default was given — binaries without a default stay silent unless
/// `--json` opts in.
pub fn write_json_report(
    name: &str,
    default_path: Option<&str>,
    payload: serde_json::Value,
) -> Option<std::path::PathBuf> {
    let path = json_out_path().or_else(|| default_path.map(std::path::PathBuf::from))?;
    match write_bench_json(&path, name, payload) {
        Ok(()) => println!("BENCH json written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Some(path)
}

/// The `--metrics <path>` / `--metrics-format jsonl|prom` arguments of an
/// experiment binary, as a ready [`nidc_obs::MetricsExporter`] (creating it
/// enables global metric recording). `None` without `--metrics`.
pub fn metrics_from_args() -> Option<nidc_obs::MetricsExporter> {
    let mut path: Option<String> = None;
    let mut format = nidc_obs::MetricsFormat::default();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => path = args.next(),
            "--metrics-format" => {
                let f = args.next().expect("--metrics-format requires a value");
                format = f.parse().expect("--metrics-format");
            }
            _ => {}
        }
    }
    let exporter =
        nidc_obs::MetricsExporter::create(path?, format).expect("create metrics export file");
    Some(exporter)
}

/// The `--events <path>` argument of an experiment binary, as a ready
/// [`nidc_obs::EventSession`] (creating it enables global lifecycle-event
/// recording). `None` without `--events` — event emission then costs one
/// relaxed load per window. Callers must hand the session to
/// [`nidc_obs::EventSession::finish`] when their measured work is done.
pub fn events_from_args() -> Option<nidc_obs::EventSession> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--events" {
            let path = args.next().expect("--events requires a path");
            let session = nidc_obs::EventSession::create(path).expect("create events export file");
            return Some(session);
        }
    }
    None
}

/// The `--trace <path>` / `--trace-summary` arguments of an experiment
/// binary, as a started [`nidc_obs::TraceSession`] recording spans for the
/// rest of the run. `None` when neither was given — spans then cost one
/// relaxed load each. Callers must hand the session to
/// [`nidc_obs::TraceSession::finish`] when their measured work is done.
pub fn trace_from_args() -> Option<nidc_obs::TraceSession> {
    let mut path: Option<std::path::PathBuf> = None;
    let mut summary = false;
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => path = args.next().map(std::path::PathBuf::from),
            "--trace-summary" => summary = true,
            _ => {}
        }
    }
    nidc_obs::TraceSession::start(path, summary).expect("create trace output file")
}

/// The `--alloc-stats` flag of an experiment binary: enables the counting
/// allocator for the rest of the run (so spans recorded via
/// [`trace_from_args`] carry per-span allocs/bytes attribution) and returns
/// whether it was requested. Callers should print
/// [`nidc_obs::alloc::stats`] when their measured work is done.
pub fn alloc_tracking_from_args() -> bool {
    let on = std::env::args().any(|a| a == "--alloc-stats");
    if on {
        nidc_obs::alloc::set_tracking(true);
    }
    on
}

/// Writes a BENCH JSON file: `{ "bench": name, "host": {...}, ...payload }`.
///
/// The host block records the hardware parallelism the numbers were taken
/// on, so a "no speedup" result on a single-core machine is not mistaken
/// for a regression.
pub fn write_bench_json(
    path: &std::path::Path,
    name: &str,
    payload: serde_json::Value,
) -> std::io::Result<()> {
    let mut doc = serde_json::json!({
        "bench": name,
        "host": {
            "available_parallelism": nidc_parallel::available_threads(),
        },
    });
    if let (serde_json::Value::Object(doc), serde_json::Value::Object(extra)) = (&mut doc, payload)
    {
        doc.extend(extra);
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    nidc_obs::write_atomic(
        path,
        (serde_json::to_string_pretty(&doc)? + "\n").as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_corpus_and_run_window() {
        let prep = PreparedCorpus::standard(0.05);
        let windows = prep.corpus.standard_windows();
        assert_eq!(prep.tfs.len(), prep.corpus.len());
        let config = ClusteringConfig {
            k: 8,
            seed: 5,
            ..ClusteringConfig::default()
        };
        let run = run_window(&prep, &windows[0], 30.0, 30.0, &config);
        assert!(run.clustering.non_empty_clusters() > 0);
        assert!(run.evaluation.micro_f1 >= 0.0);
        // all window docs either clustered or outliers
        assert_eq!(
            run.clustering.assigned_docs() + run.clustering.outliers().len(),
            windows[0].len()
        );
    }

    #[test]
    fn fmt_duration_matches_paper_style() {
        assert_eq!(fmt_duration(Duration::from_secs(85)), "1min25.00sec");
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "0min01.50sec");
    }

    #[test]
    fn labels_cover_requested_indices() {
        let prep = PreparedCorpus::standard(0.02);
        let idx: Vec<usize> = (0..prep.corpus.len().min(10)).collect();
        let labels = prep.labels_for(&idx);
        assert_eq!(labels.len(), idx.len());
    }
}
