//! # khy2006 — novelty-based incremental document clustering
//!
//! A from-scratch Rust reproduction of **Khy, Ishikawa & Kitagawa,
//! "Novelty-based Incremental Document Clustering for On-line Documents"
//! (ICDE 2006)**: a document-clustering method that biases clusters toward
//! *recent* documents via an exponential forgetting model, so the clustering
//! result answers "what are the hot topics right now?".
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`textproc`] — tokenizer, stop words, Porter stemmer, vocabulary,
//!   sparse vectors;
//! * [`corpus`] — a synthetic TDT2-like labelled news-stream generator;
//! * [`forgetting`] — the document forgetting model (weights, `Pr(d)`,
//!   `Pr(t)`, incremental statistics updates, expiration);
//! * [`similarity`] — the novelty-based similarity `sim(d_i,d_j)` and the
//!   O(1)-update cluster representatives of the paper's §4.4;
//! * [`core`] — the extended K-means with clustering index `G`, outlier
//!   handling, and the on-line [`core::ShardedPipeline`] (deterministic
//!   DocId routing over per-shard [`core::NoveltyPipeline`] engines, one
//!   merged, stitched view per window, cluster lineage, checkpoints);
//! * [`baselines`] — cosine K-means, single-pass INCR, bucketed GAC;
//! * [`f2icm`] — F²ICM, the paper's predecessor method (ECDL 2001), with
//!   C²ICM cover-coefficient seed selection and K estimation;
//! * [`tdt`] — TDT tasks on the novelty similarity: first-story detection
//!   and topic tracking over an inverted-index search substrate;
//! * [`eval`] — contingency tables, micro/macro F1, topic marking, purity,
//!   NMI, ARI;
//! * [`obs`] — zero-dependency metrics (counters, histograms, phase timers),
//!   structured logging, and per-window snapshot exporters (JSON lines /
//!   Prometheus text); recording is off by default and never changes
//!   clustering results.
//!
//! # Quickstart
//!
//! ```
//! use khy2006::prelude::*;
//!
//! // 1. A forgetting model: 7-day half-life, 14-day life span.
//! let decay = DecayParams::from_spans(7.0, 14.0)?;
//! let config = ClusteringConfig { k: 2, seed: 1, ..ClusteringConfig::default() };
//! let shards = 1; // more shards split the stream; their clusters are stitched
//! let mut pipeline = ShardedPipeline::new(decay, config, shards)?;
//!
//! // 2. Ingest documents as they arrive (here: trivial two-topic stream).
//! let analyzer = Pipeline::english();
//! let mut vocab = Vocabulary::new();
//! let texts = [
//!     (0, 0.0, "markets fell sharply in asian trading today"),
//!     (1, 0.1, "asian markets fell again as trading opened"),
//!     (2, 0.2, "the champions won the cup final after extra time"),
//!     (3, 0.3, "cup final victory crowns the champions season"),
//! ];
//! for (id, day, text) in texts {
//!     let tf = analyzer.analyze(text, &mut vocab).to_sparse();
//!     pipeline.ingest(DocId(id), Timestamp(day), tf)?;
//! }
//!
//! // 3. Recluster incrementally whenever you need fresh results.
//! let clustering = pipeline.recluster_incremental()?;
//! assert!(clustering.non_empty_clusters() >= 1);
//!
//! // 4. Lineage ids follow topics across windows; a checkpoint keeps them.
//! assert_eq!(pipeline.lineage().windows_observed(), 1);
//! let mut checkpoint = Vec::new();
//! pipeline.save_json(&mut checkpoint)?;
//! let restored = ShardedPipeline::load_json(checkpoint.as_slice())?;
//! assert_eq!(restored.lineage().current_lineages(), pipeline.lineage().current_lineages());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nidc_baselines as baselines;
pub use nidc_core as core;
pub use nidc_corpus as corpus;
pub use nidc_eval as eval;
pub use nidc_f2icm as f2icm;
pub use nidc_forgetting as forgetting;
pub use nidc_obs as obs;
pub use nidc_similarity as similarity;
pub use nidc_tdt as tdt;
pub use nidc_textproc as textproc;

/// The most common imports in one place.
pub mod prelude {
    pub use nidc_core::{
        cluster_batch, cluster_with_initial, Cluster, Clustering, ClusteringConfig, Criterion,
        GlobalClusterId, InitialState, MergedClustering, NoveltyPipeline, ShardRouter,
        ShardedPipeline, StitchedCluster, StitchedClustering, StreamShard,
        DEFAULT_STITCH_THRESHOLD,
    };
    pub use nidc_corpus::{Article, Corpus, Generator, GeneratorConfig, TopicId};
    pub use nidc_eval::{
        ari, evaluate, evaluate_sharded, nmi, purity, Labeling, ShardedEvaluation,
        MARKING_THRESHOLD,
    };
    pub use nidc_forgetting::{DecayParams, Repository, StatsSnapshot, Timestamp};
    pub use nidc_similarity::{ClusterIndex, ClusterRep, DocVectors, RepBuilder};
    pub use nidc_textproc::{
        DocId, Pipeline, PorterStemmer, SparseVector, TermCounts, TermId, Tokenizer, Vocabulary,
    };
}
