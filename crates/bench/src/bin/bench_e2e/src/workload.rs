//! The four stream workloads and the article schedule every pass replays.

use nidc_core::{ClusteringConfig, ShardedPipeline};
use nidc_corpus::{Article, Corpus, Generator, GeneratorConfig};
use nidc_forgetting::DecayParams;

/// The corpus seed used when `--seed` is not given (the generator's own
/// default: Jan 4 1998, day 0 of TDT2).
pub const DEFAULT_SEED: u64 = 19980104;

/// `ClusteringConfig::seed` of every workload. Fixed, so `--seed` varies the
/// articles and nothing else.
const CLUSTERING_SEED: u64 = 42;

/// Where a workload's articles come from.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// `Generator::generate`: the labelled TDT2-like corpus at a
    /// document-count scale (1.0 = 7.6k articles over 178 days).
    Standard { scale: f64 },
    /// `Generator::dense_stream`: a high-rate feed of `per_day` articles a
    /// day over `days` days, topics drawn Zipf-style from `topics`.
    Dense {
        days: u32,
        per_day: u32,
        topics: usize,
    },
}

/// How each window re-clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recluster {
    /// `recluster_incremental`: warm start from the previous assignment.
    Incremental,
    /// `recluster_from_scratch`: statistics recomputed, random seeds (the
    /// paper's non-incremental baseline).
    FromScratch,
}

/// One benchmark workload: an article stream and the pipeline settings it
/// is replayed under.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (which layer it stresses).
    pub why: &'static str,
    /// The article source.
    pub input: Input,
    /// Stream shards.
    pub shards: usize,
    /// K.
    pub k: usize,
    /// Half-life span β in days.
    pub beta: f64,
    /// Life span γ in days.
    pub gamma: f64,
    /// Window length in days: the pipeline re-clusters at every multiple.
    pub window_days: f64,
    /// Worker threads, pinned (never 0 = auto, so results do not depend on
    /// the host's core count).
    pub threads: usize,
    /// Incremental or from-scratch re-clustering.
    pub recluster: Recluster,
    /// Checkpoint after every n-th window. Every workload also saves once
    /// after its last window, as `nidc stream --state` does at shutdown.
    pub checkpoint_every: Option<usize>,
    /// Seconds one untraced replay took on the reference host (see
    /// README.md). `--seconds` buys `round(seconds / replay_s)` replays, so a
    /// run measures the same work on every commit.
    pub replay_s: f64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "daily",
        why: "the canonical nidc stream job, single-threaded: K-means through the cluster index dominates, with lineage, weekly checkpoints and ingest behind it",
        input: Input::Standard { scale: 1.0 },
        shards: 1,
        k: 24,
        beta: 7.0,
        gamma: 21.0,
        window_days: 1.0,
        threads: 1,
        recluster: Recluster::Incremental,
        checkpoint_every: Some(7),
        replay_s: 6.5,
    },
    Workload {
        name: "sharded8",
        why: "8 shards of K=12 on 2 threads: cross-shard stitching takes a third of each window (write path) and most of every overview query, which re-stitches (read path)",
        input: Input::Standard { scale: 0.25 },
        shards: 8,
        k: 12,
        beta: 7.0,
        gamma: 21.0,
        window_days: 1.0,
        threads: 2,
        recluster: Recluster::Incremental,
        checkpoint_every: None,
        replay_s: 6.0,
    },
    Workload {
        name: "firehose",
        why: "a high-rate short-window feed: tokenizing and Repository::insert dominate, and small K*nnz sends K-means to the dense sweep, bypassing the cluster index",
        input: Input::Dense {
            days: 50,
            per_day: 400,
            topics: 48,
        },
        shards: 1,
        k: 8,
        beta: 1.0,
        gamma: 1.5,
        window_days: 0.5,
        threads: 1,
        recluster: Recluster::Incremental,
        checkpoint_every: None,
        replay_s: 3.0,
    },
    Workload {
        name: "rebuild",
        why: "the paper's non-incremental baseline: statistics recomputed and K-means cold-started every window, fanned out over 2 threads",
        input: Input::Standard { scale: 0.25 },
        shards: 1,
        k: 24,
        beta: 7.0,
        gamma: 21.0,
        window_days: 1.0,
        threads: 2,
        recluster: Recluster::FromScratch,
        checkpoint_every: None,
        replay_s: 5.3,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Replays a run of `seconds` measures (at least one).
    pub fn replays_for(&self, seconds: f64) -> usize {
        ((seconds / self.replay_s).round() as usize).max(1)
    }

    /// Generates the workload's articles from `seed`; `scale` shrinks the
    /// document count (1.0 = the benchmark's size; tests use ≈ 0.03).
    pub fn generate(&self, seed: u64, scale: f64) -> Corpus {
        match self.input {
            Input::Standard { scale: s } => Generator::new(GeneratorConfig {
                seed,
                scale: s * scale,
                ..GeneratorConfig::default()
            })
            .generate(),
            Input::Dense {
                days,
                per_day,
                topics,
            } => {
                let per_day = ((per_day as f64 * scale).round() as u32).max(1);
                Generator::dense_stream(seed, days, per_day, topics)
            }
        }
    }

    /// The forgetting-model parameters.
    pub fn decay(&self) -> DecayParams {
        DecayParams::from_spans(self.beta, self.gamma).expect("workload spans are valid")
    }

    /// The clustering configuration.
    pub fn config(&self) -> ClusteringConfig {
        ClusteringConfig {
            k: self.k,
            seed: CLUSTERING_SEED,
            threads: self.threads,
            ..ClusteringConfig::default()
        }
    }

    /// The pipeline every pass starts from (default stitch threshold).
    pub fn pipeline(&self) -> ShardedPipeline {
        ShardedPipeline::new(self.decay(), self.config(), self.shards)
            .expect("workloads have at least one shard")
    }

    /// The stitching threshold the merge applies (`None` on one shard, where
    /// there is nothing to stitch).
    pub fn stitch(&self) -> Option<f64> {
        (self.shards > 1).then_some(nidc_core::DEFAULT_STITCH_THRESHOLD)
    }
}

/// One step of a replay, in stream order.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Analyze and ingest one article.
    Article(&'a Article),
    /// Close a window: advance the clock to `boundary` (`None` for the final
    /// window, which re-clusters at the last article's clock, as
    /// `nidc stream` does at the end of its input), re-cluster, query, and
    /// maybe checkpoint.
    Window {
        /// The window boundary in days.
        boundary: Option<f64>,
        /// Whether a checkpoint follows this window.
        checkpoint: bool,
    },
}

/// The replay schedule: articles in arrival order, with a window step at
/// every multiple of `window_days` an article reaches, and a final window
/// after the last article. Both passes walk this same list.
pub fn schedule<'a>(w: &Workload, articles: &'a [Article]) -> Vec<Step<'a>> {
    let mut steps = Vec::with_capacity(articles.len() + 256);
    let mut closed = 0;
    let mut close = |steps: &mut Vec<Step<'a>>, boundary: Option<f64>| {
        closed += 1;
        let checkpoint = boundary.is_none() || w.checkpoint_every.is_some_and(|n| closed % n == 0);
        steps.push(Step::Window {
            boundary,
            checkpoint,
        });
    };
    let mut next = w.window_days;
    for a in articles {
        while a.day >= next {
            close(&mut steps, Some(next));
            next += w.window_days;
        }
        steps.push(Step::Article(a));
    }
    close(&mut steps, None);
    steps
}
