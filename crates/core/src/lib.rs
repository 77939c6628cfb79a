//! Novelty-based incremental document clustering — the core algorithm of
//! Khy, Ishikawa & Kitagawa (ICDE 2006).
//!
//! # The extended K-means (§4.2–4.3)
//!
//! The method clusters documents under the novelty-based similarity of
//! [`nidc_similarity`] with an extension of the K-means method:
//!
//! 1. **Initial process** — select K documents at random as singleton
//!    clusters and compute their representatives and the clustering index
//!    `G = Σ_p |C_p|·avg_sim(C_p)` (eq. 17).
//! 2. **Repetition process** — for every document `d`: compute, for every
//!    cluster, the intra-cluster similarity *if `d` were appended*
//!    (the O(|φ_d|) preview of eq. 26); assign `d` to the cluster whose
//!    intra-cluster similarity *increases the most*; if no assignment
//!    increases any cluster's intra-cluster similarity, `d` goes to the
//!    **outlier list** for this iteration. Recompute `G` and terminate when
//!    `(G_new − G_old)/G_old < δ`.
//!
//! Outliers are re-considered in the next iteration ("regarded as normal
//! documents", §4.3) and reported as unclustered if the process ends while
//! they are still unassigned.
//!
//! # The incremental pipeline (§5.2)
//!
//! [`NoveltyPipeline`] is the per-shard engine that wires the algorithm to
//! the forgetting-model repository: new documents are ingested (incremental
//! statistics update, §5.1), expired documents (`dw < ε`) are dropped, and
//! re-clustering starts from the **previous clustering's assignment**
//! instead of fresh random seeds — the paper's representative-reuse
//! acceleration. (The paper reuses
//! the representative *vectors*; since representatives are exact sums of
//! member φ vectors and the φ scaling changes with every statistics update,
//! we reuse the *membership* and rebuild the representatives under the new
//! statistics, which is the same warm start expressed soundly.)
//!
//! # The on-line pipeline and sharding
//!
//! [`ShardedPipeline`] is the on-line pipeline. It runs N independent
//! engines behind a deterministic [`ShardRouter`] and merges the per-shard
//! clusterings once per window into one [`MergedClustering`] (stitched
//! across shards, held by the pipeline and borrowed by readers; global
//! cluster ids = `(shard, local)` [`GlobalClusterId`]s). `shards = 1`
//! reproduces the single engine bit for bit. It is also the one owner of
//! the stream-level concerns: the [`LineageTracker`], JSON checkpoints
//! ([`ShardedPipelineState`]) and the `nidc_mem_*` gauges.
//!
//! # Example
//!
//! ```
//! use nidc_core::{ClusteringConfig, ShardedPipeline};
//! use nidc_forgetting::{DecayParams, Timestamp};
//! use nidc_textproc::{DocId, SparseVector, TermId};
//!
//! let decay = DecayParams::from_spans(7.0, 14.0).unwrap();
//! let config = ClusteringConfig { k: 2, seed: 1, ..ClusteringConfig::default() };
//! let mut pipeline = ShardedPipeline::new(decay, config, 1).unwrap();
//!
//! let tf = |p: &[(u32, f64)]| SparseVector::from_entries(
//!     p.iter().map(|&(i, w)| (TermId(i), w)).collect());
//! // two "topics": terms {0,1} and terms {5,6}
//! pipeline.ingest(DocId(0), Timestamp(0.0), tf(&[(0, 3.0), (1, 1.0)])).unwrap();
//! pipeline.ingest(DocId(1), Timestamp(0.0), tf(&[(0, 2.0), (1, 2.0)])).unwrap();
//! pipeline.ingest(DocId(2), Timestamp(0.1), tf(&[(5, 3.0), (6, 1.0)])).unwrap();
//! pipeline.ingest(DocId(3), Timestamp(0.1), tf(&[(5, 1.0), (6, 2.0)])).unwrap();
//!
//! let clustering = pipeline.recluster_incremental().unwrap();
//! assert!(clustering.non_empty_clusters() >= 1);
//! assert_eq!(pipeline.lineage().windows_observed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod clustering;
mod config;
mod error;
mod lineage;
mod merge;
mod persist;
mod pipeline;
mod rep_dot;
mod shard;

pub use algorithm::{
    cluster_batch, cluster_with_initial, cluster_with_workspace, InitialState, KMeansWorkspace,
};
pub use clustering::{Cluster, Clustering};
pub use config::{ClusteringConfig, Criterion};
pub use error::Error;
pub use lineage::{
    DeathCause, LifecycleEvent, LineageSlotState, LineageState, LineageTracker, ObservedCluster,
};
pub use merge::{
    GlobalClusterId, MergedClustering, StitchedCluster, StitchedClustering,
    DEFAULT_STITCH_THRESHOLD,
};
pub use persist::{ConfigState, PipelineState, ShardState, ShardedPipelineState};
pub use pipeline::NoveltyPipeline;
pub use shard::{ShardRouter, ShardedPipeline, StreamShard};

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
