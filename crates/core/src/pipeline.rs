//! The per-shard engine of the on-line pipeline: ingest → decay/expire →
//! (incrementally) recluster (paper §5.2).
//!
//! [`NoveltyPipeline`] owns one repository, its warm-start assignment, its
//! last clustering and the K-means workspace it lends to every re-clustering
//! ([`KMeansWorkspace`]). Lineage, checkpoints and the `nidc_mem_*` gauges
//! are deployment concerns of the stream as a whole, so they live one
//! level up, in [`crate::ShardedPipeline`].

use std::collections::BTreeMap;

use nidc_forgetting::{DecayParams, Repository, Timestamp};
use nidc_obs::{buckets, DeepSize, LazyCounter, LazyHistogram};
use nidc_similarity::DocVectors;
use nidc_textproc::{DocId, SparseVector};

use crate::{
    cluster_with_workspace, Clustering, ClusteringConfig, InitialState, KMeansWorkspace, Result,
};

/// Wall-clock seconds per `ingest`/`ingest_batch` call (§5.1 incremental
/// statistics update). Single-document ingests run in microseconds, so
/// this sits on the sub-millisecond bucket family. Documents are counted
/// once, by the repository (`nidc_forgetting_docs_inserted_total`).
static INGEST_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_pipeline_ingest_seconds", buckets::FINE_SECONDS);
/// Wall-clock seconds per pure-decay `advance_to` call (sub-ms buckets).
static ADVANCE_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_pipeline_advance_seconds", buckets::FINE_SECONDS);
/// Wall-clock seconds per `expire` pass (§5.2 step 2; sub-ms buckets).
/// Expired documents are counted by the repository
/// (`nidc_forgetting_docs_expired_total`).
static EXPIRE_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_pipeline_expire_seconds", buckets::FINE_SECONDS);
/// Wall-clock seconds per re-clustering (expire + vector build + K-means).
static RECLUSTER_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_pipeline_recluster_seconds", buckets::LATENCY_SECONDS);
/// Re-clustering requests served (incremental and from-scratch combined).
static RECLUSTERS: LazyCounter = LazyCounter::new("nidc_pipeline_reclusters_total");

/// The stateful novelty-based clustering engine of one shard.
///
/// Drives the three steps of §5.2 on every re-clustering request:
///
/// 1. new documents have been incorporated by [`NoveltyPipeline::ingest`]
///    (incremental statistics update, §5.1);
/// 2. documents with `dw < ε` are expired;
/// 3. the extended K-means runs, warm-started from the previous clustering
///    (incremental mode) or from random seeds (non-incremental mode).
///
/// A stream runs through [`crate::ShardedPipeline`], which drives one
/// engine per shard and adds lineage, checkpoints and memory gauges.
///
/// Every re-clustering runs on the pipeline's one [`KMeansWorkspace`], so a
/// window costs in proportion to the window, not to the vocabulary. The
/// workspace is scratch, not state: it is never saved, and a clone or a
/// restored pipeline starts with an empty one.
#[derive(Debug, Clone)]
pub struct NoveltyPipeline {
    repo: Repository,
    config: ClusteringConfig,
    previous: Option<BTreeMap<DocId, usize>>,
    last: Option<Clustering>,
    workspace: KMeansWorkspace,
}

impl NoveltyPipeline {
    /// Creates an empty pipeline.
    pub fn new(decay: DecayParams, config: ClusteringConfig) -> Self {
        Self::from_parts(Repository::new(decay), config, None)
    }

    /// The underlying repository (statistics, documents, clock).
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The clustering configuration.
    pub fn config(&self) -> &ClusteringConfig {
        &self.config
    }

    /// The most recent clustering, if any.
    pub fn last(&self) -> Option<&Clustering> {
        self.last.as_ref()
    }

    /// The previous clustering's assignment (warm-start state of §5.2).
    pub fn previous_assignment(&self) -> Option<&BTreeMap<DocId, usize>> {
        self.previous.as_ref()
    }

    /// Reassembles a pipeline from parts (used by state restoration).
    pub(crate) fn from_parts(
        repo: Repository,
        config: ClusteringConfig,
        previous: Option<BTreeMap<DocId, usize>>,
    ) -> Self {
        Self {
            repo,
            config,
            previous,
            last: None,
            workspace: KMeansWorkspace::new(),
        }
    }

    /// Ingests one document acquired at `t` (statistics update is
    /// incremental, §5.1).
    pub fn ingest(&mut self, id: DocId, t: Timestamp, tf: SparseVector) -> Result<()> {
        let _span = nidc_obs::span!("pipeline.ingest", INGEST_SECONDS);
        self.repo.insert(id, t, tf)?;
        Ok(())
    }

    /// Ingests a batch that arrived at `t`.
    ///
    /// Insert semantics are the repository's: documents are applied in
    /// iteration order and the first failure stops the batch, leaving the
    /// earlier inserts in place.
    pub fn ingest_batch<I>(&mut self, t: Timestamp, docs: I) -> Result<()>
    where
        I: IntoIterator<Item = (DocId, SparseVector)>,
    {
        let _span = nidc_obs::span!("pipeline.ingest_batch", INGEST_SECONDS);
        self.repo.insert_batch(t, docs)?;
        Ok(())
    }

    /// Advances the clock without ingesting (pure decay).
    pub fn advance_to(&mut self, t: Timestamp) -> Result<()> {
        let _span = nidc_obs::span!("pipeline.advance", ADVANCE_SECONDS);
        self.repo.advance_to(t)?;
        Ok(())
    }

    /// Expires documents below `ε = λ^γ` (§5.2 step 2) and returns them,
    /// sorted ascending by document id.
    ///
    /// Expired documents are pruned from the warm-start assignment in the
    /// same pass (via [`Repository::expire_with`]), so the next incremental
    /// re-clustering never carries dead keys into the K-means initial state.
    ///
    /// The returned order is sorted *by construction* — not by relying on
    /// the repository's internal iteration order — so downstream consumers
    /// (checkpoint diffs, cross-shard merges, logs) see a stable order even
    /// if the repository's document storage changes.
    pub fn expire(&mut self) -> Vec<DocId> {
        let _span = nidc_obs::span!("pipeline.expire", EXPIRE_SECONDS);
        let previous = &mut self.previous;
        let mut dead = Vec::new();
        self.repo.expire_with(|id| {
            if let Some(prev) = previous.as_mut() {
                prev.remove(&id);
            }
            dead.push(id);
        });
        dead.sort_unstable();
        dead
    }

    /// Incremental re-clustering (§5.2 step 3): expire, then warm-start the
    /// extended K-means from the previous clustering's assignment. Falls
    /// back to random seeding the first time.
    pub fn recluster_incremental(&mut self) -> Result<Clustering> {
        self.recluster(false)
    }

    /// Non-incremental re-clustering (the paper's Experiment 1 baseline):
    /// rebuilds every statistic from scratch and seeds randomly, ignoring
    /// any previous clustering.
    pub fn recluster_from_scratch(&mut self) -> Result<Clustering> {
        self.recluster(true)
    }

    /// The one body of both re-clusterings: expire, (rebuild the
    /// statistics,) build φ, run K-means, keep the result for the next
    /// warm start.
    fn recluster(&mut self, from_scratch: bool) -> Result<Clustering> {
        let span = nidc_obs::span!("pipeline.recluster", RECLUSTER_SECONDS);
        RECLUSTERS.inc();
        self.expire();
        if from_scratch {
            self.repo.recompute_from_scratch();
        }
        let vecs = {
            let _span = nidc_obs::span!("pipeline.build_vectors");
            DocVectors::build(&self.repo)
        };
        let initial = if from_scratch {
            InitialState::Random
        } else {
            self.warm_start(vecs.len())
        };
        let clustering = cluster_with_workspace(&mut self.workspace, &vecs, &self.config, initial)?;
        self.previous = Some(clustering.assignment());
        self.last = Some(clustering.clone());
        drop(span);
        let mode = if from_scratch {
            "from_scratch"
        } else {
            "incremental"
        };
        self.log_recluster(mode, &clustering);
        Ok(clustering)
    }

    /// Takes the previous assignment as the warm-start state for `live`
    /// documents. The effective K shrinks with the live population
    /// (K = min(k, n)); after heavy expiration the previous assignment may
    /// reference cluster slots that no longer exist — those documents
    /// re-enter as unassigned (they reseed slots like any new document).
    fn warm_start(&mut self, live: usize) -> InitialState {
        let k = self.config.k.min(live);
        match self.previous.take() {
            Some(mut prev) => {
                prev.retain(|_, p| *p < k);
                if prev.is_empty() {
                    InitialState::Random
                } else {
                    InitialState::Assignment(prev)
                }
            }
            None => InitialState::Random,
        }
    }

    /// Samples this pipeline's heap footprint: repository, last clustering's
    /// representatives, and the warm-start assignment map, in bytes.
    pub fn mem_sample(&self) -> (u64, u64, u64) {
        let repo = self.repo.deep_size_bytes();
        let reps = self.last.as_ref().map_or(0, |c| {
            c.clusters()
                .iter()
                .map(|cl| cl.rep().deep_size_bytes())
                .sum()
        });
        let warm = self
            .previous
            .as_ref()
            .map_or(0, |prev| nidc_obs::btree_map_size_bytes(prev, |_| 0));
        (repo, reps, warm)
    }

    /// Heap bytes the K-means workspace holds between re-clusterings (its
    /// term ranking, builder arrays and term rows), from capacities in O(1).
    /// Not part of [`NoveltyPipeline::mem_sample`], which counts state.
    pub(crate) fn workspace_bytes(&self) -> u64 {
        self.workspace.deep_size_bytes()
    }

    /// One info-level summary line per re-clustering.
    fn log_recluster(&self, mode: &str, clustering: &Clustering) {
        if nidc_obs::log_on(nidc_obs::Level::Info) {
            nidc_obs::info(
                "pipeline",
                "recluster",
                &[
                    ("mode", &mode),
                    ("day", &self.repo.now().0),
                    ("docs", &self.repo.len()),
                    ("clusters", &clustering.non_empty_clusters()),
                    ("outliers", &clustering.outliers().len()),
                    ("iters", &clustering.iterations()),
                    ("g", &clustering.g()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nidc_textproc::TermId;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn pipeline() -> NoveltyPipeline {
        NoveltyPipeline::new(
            DecayParams::from_spans(7.0, 14.0).unwrap(),
            ClusteringConfig {
                k: 2,
                seed: 1, // a seed whose two random nuclei fall in different topics
                ..ClusteringConfig::default()
            },
        )
    }

    fn seed_two_topics(p: &mut NoveltyPipeline, start_day: f64, id_base: u64) {
        for i in 0..4u64 {
            p.ingest(
                DocId(id_base + i),
                Timestamp(start_day + 0.01 * i as f64),
                tf(&[(0, 3.0), (1, 1.0 + (i % 2) as f64)]),
            )
            .unwrap();
        }
        for i in 4..8u64 {
            p.ingest(
                DocId(id_base + i),
                Timestamp(start_day + 0.01 * i as f64),
                tf(&[(8, 3.0), (9, 1.0 + (i % 2) as f64)]),
            )
            .unwrap();
        }
    }

    #[test]
    fn first_reclustering_uses_random_init() {
        let mut p = pipeline();
        seed_two_topics(&mut p, 0.0, 0);
        let c = p.recluster_incremental().unwrap();
        assert_eq!(c.non_empty_clusters(), 2);
        assert!(p.last().is_some());
    }

    #[test]
    fn mem_sample_is_zero_empty_and_nonzero_after_reclustering() {
        let mut p = pipeline();
        assert_eq!(p.mem_sample(), (0, 0, 0));
        seed_two_topics(&mut p, 0.0, 0);
        let (repo, reps, warm) = p.mem_sample();
        assert!(repo > 0, "8 documents are stored");
        assert_eq!(reps, 0, "no clustering yet");
        assert_eq!(warm, 0, "no warm-start assignment yet");
        p.recluster_incremental().unwrap();
        let (repo, reps, warm) = p.mem_sample();
        assert!(repo > 0);
        assert!(reps > 0, "representatives hold entries");
        // 8 assignment entries × (8B key + 8B value + node overhead)
        assert!(warm >= 8 * 16, "{warm}");
    }

    #[test]
    fn incremental_reclustering_is_stable_with_no_change() {
        let mut p = pipeline();
        seed_two_topics(&mut p, 0.0, 0);
        let first = p.recluster_incremental().unwrap().member_lists();
        let second = p.recluster_incremental().unwrap();
        assert_eq!(second.member_lists(), first);
        assert_eq!(
            second.iterations(),
            1,
            "warm restart should converge at once"
        );
    }

    #[test]
    fn new_documents_join_existing_topics() {
        let mut p = pipeline();
        seed_two_topics(&mut p, 0.0, 0);
        p.recluster_incremental().unwrap();
        // a new doc of topic A arrives the next day
        p.ingest(DocId(100), Timestamp(1.0), tf(&[(0, 3.0), (1, 1.0)]))
            .unwrap();
        let c = p.recluster_incremental().unwrap();
        let assign = c.assignment();
        // The newcomer must be clustered, and never with topic-B documents
        // (ids 4..8). (Old topic-A docs may individually fall to the outlier
        // list as their decayed weights stop increasing avg_sim — that is
        // the paper's §4.3 criterion at work.)
        let new_cluster = assign
            .get(&DocId(100))
            .copied()
            .expect("fresh document must be clustered");
        for (d, &p) in &assign {
            if p == new_cluster {
                assert!(
                    d.0 >= 100 || d.0 < 4,
                    "topic-B doc {d} clustered with the topic-A newcomer"
                );
            }
        }
    }

    #[test]
    fn old_documents_expire_from_clusters() {
        let mut p = pipeline();
        seed_two_topics(&mut p, 0.0, 0);
        p.recluster_incremental().unwrap();
        // 20 days later (γ = 14): everything old expires; fresh docs arrive
        seed_two_topics(&mut p, 20.0, 200);
        let c = p.recluster_incremental().unwrap();
        for cl in c.clusters() {
            for d in cl.members() {
                assert!(d.0 >= 200, "expired doc {d} still clustered");
            }
        }
        assert_eq!(p.repository().len(), 8);
    }

    #[test]
    fn from_scratch_mode_matches_incremental_structure() {
        let mut p1 = pipeline();
        seed_two_topics(&mut p1, 0.0, 0);
        let inc = p1.recluster_incremental().unwrap().member_lists();

        let mut p2 = pipeline();
        seed_two_topics(&mut p2, 0.0, 0);
        let scratch = p2.recluster_from_scratch().unwrap().member_lists();

        // same seed, same data, same init mode on first run → same result
        assert_eq!(inc, scratch);
    }

    #[test]
    fn advance_without_documents_is_fine() {
        let mut p = pipeline();
        p.advance_to(Timestamp(5.0)).unwrap();
        let c = p.recluster_incremental().unwrap();
        assert_eq!(c.clusters().len(), 0);
    }

    #[test]
    fn duplicate_ingest_is_an_error() {
        let mut p = pipeline();
        p.ingest(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        assert!(p.ingest(DocId(0), Timestamp(1.0), tf(&[(0, 1.0)])).is_err());
    }

    #[test]
    fn partial_batch_failure_keeps_its_earlier_inserts() {
        let mut p = pipeline();
        p.ingest(DocId(5), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        // two fresh docs succeed, the duplicate fails, doc 8 is never reached
        let batch = vec![
            (DocId(6), tf(&[(0, 1.0)])),
            (DocId(7), tf(&[(1, 1.0)])),
            (DocId(5), tf(&[(2, 1.0)])), // duplicate → error
            (DocId(8), tf(&[(3, 1.0)])),
        ];
        assert!(p.ingest_batch(Timestamp(1.0), batch).is_err());
        assert_eq!(p.repository().len(), 3);
        assert!(p.repository().contains(DocId(7)));
        assert!(!p.repository().contains(DocId(8)));
    }

    #[test]
    fn all_success_batch_inserts_every_document() {
        let mut p = pipeline();
        let batch: Vec<_> = (0..5u64)
            .map(|i| (DocId(i), tf(&[(i as u32, 1.0)])))
            .collect();
        p.ingest_batch(Timestamp(0.0), batch).unwrap();
        assert_eq!(p.repository().len(), 5);
    }

    #[test]
    fn warm_start_survives_population_shrinking_below_previous_k() {
        // regression: with K = min(config.k, live docs), heavy expiration can
        // shrink the effective K below cluster ids still referenced by the
        // previous assignment — those must be dropped from the warm start,
        // not rejected as InvalidInitialAssignment
        let mut p = NoveltyPipeline::new(
            DecayParams::from_spans(7.0, 14.0).unwrap(),
            ClusteringConfig {
                k: 16,
                seed: 3,
                ..ClusteringConfig::default()
            },
        );
        // 13 early single-topic docs, then 3 late arrivals on fresh topics
        for i in 0..13u64 {
            p.ingest(DocId(i), Timestamp(0.0), tf(&[(i as u32, 2.0)]))
                .unwrap();
        }
        for i in 13..16u64 {
            p.ingest(DocId(i), Timestamp(4.0), tf(&[(i as u32, 2.0)]))
                .unwrap();
        }
        // 16 live docs → effective K = 16, one cluster per doc
        let first = p.recluster_incremental().unwrap();
        let prev = first.assignment();
        assert!(
            prev.iter().any(|(d, c)| d.0 >= 13 && *c >= 3),
            "construction must leave a survivor on a high cluster slot"
        );
        // day 15: the early docs (age 15 > 14d span) expire, the 3 late
        // ones survive, so the effective K collapses from 16 to 3
        p.advance_to(Timestamp(15.0)).unwrap();
        let c = p.recluster_incremental().unwrap();
        assert_eq!(c.assigned_docs() + c.outliers().len(), 3);
    }

    #[test]
    fn expire_returns_sorted_ids_by_construction() {
        let mut p = pipeline();
        // insert in descending id order so sortedness cannot come from
        // insertion order alone
        for id in (0..16u64).rev() {
            p.ingest(DocId(id), Timestamp(0.0), tf(&[(0, 1.0)]))
                .unwrap();
        }
        p.advance_to(Timestamp(20.0)).unwrap(); // past the 14-day life span
        let dead = p.expire();
        assert_eq!(dead.len(), 16);
        assert!(
            dead.windows(2).all(|w| w[0] < w[1]),
            "expire() must return strictly ascending DocIds, got {dead:?}"
        );
    }
}
