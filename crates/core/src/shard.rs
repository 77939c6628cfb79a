//! Stream sharding: many independent pipelines, one view per window.
//!
//! Within one pipeline a window runs sequentially; this module shards
//! *across* the stream, and the shards are the unit of parallelism. Each
//! [`StreamShard`] owns a [`NoveltyPipeline`] engine — its own forgetting
//! [`Repository`], warm-start assignment, last clustering and K-means
//! workspace — and a
//! [`ShardedPipeline`] fans `ingest_batch` / `advance_to` / `recluster_*`
//! out across the shards via `nidc-parallel`. Each re-clustering merges the per-shard
//! results into one [`MergedClustering`], stitched once when τ applies,
//! which the pipeline holds until the next window: every reader borrows it
//! through [`ShardedPipeline::last_merged`], which does no work.
//!
//! The sharded pipeline is the one owner of the stream-level concerns:
//! cluster lineage (over merged/stitched ids), checkpoints
//! ([`ShardedPipeline::save_json`]) and the `nidc_mem_*` gauges.
//!
//! Sharding is sound under the paper's model because every forgetting
//! statistic of §3 (`tdw`, the `S_k` numerators, `Pr(d)`, `Pr(t_k)`) is a
//! sum over documents, so the §5.1 incremental updates are valid per shard
//! and the global values are recovered exactly by
//! [`nidc_forgetting::sharding`]. Expiration (`dw < ε`, §5.2) is a
//! per-document predicate and needs no coordination at all.
//!
//! # Determinism
//!
//! Routing is a pure function of the [`DocId`] (or an explicit stream key),
//! so a fixed shard count always produces the same partition; each shard's
//! pipeline runs sequentially at any thread count; and the merge walks
//! shards in index order. Hence a sharded run is
//! bit-identical across `threads ∈ {0, 1, 2, 4, 7, …}`, and `shards = 1`
//! routes everything to one pipeline, reproducing the unsharded pipeline
//! bit for bit.

use nidc_forgetting::{DecayParams, Repository, RepositoryStats, Timestamp};
use nidc_obs::{buckets, DeepSize, LazyCounter, LazyGauge, LazyHistogram};
use nidc_textproc::{DocId, SparseVector, TermId};

use crate::lineage::{LineageTracker, ObservedCluster};
use crate::merge::MergedClustering;
use crate::{Clustering, ClusteringConfig, Error, NoveltyPipeline, Result};

/// Sharded re-clustering requests (incremental and from-scratch combined).
static RECLUSTERS: LazyCounter = LazyCounter::new("nidc_sharded_reclusters_total");
/// Wall-clock seconds per sharded re-clustering (fan-out + per-shard work).
static RECLUSTER_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_sharded_recluster_seconds", buckets::LATENCY_SECONDS);
/// Wall-clock seconds assembling (and stitching) the window's merged view.
static MERGE_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_sharded_merge_seconds", buckets::LATENCY_SECONDS);
/// Live documents per shard, observed at every re-clustering (a balance
/// check on the router: a skewed distribution shows up as a wide spread).
static DOCS_PER_SHARD: LazyHistogram =
    LazyHistogram::new("nidc_sharded_docs_per_shard", buckets::SIZES);
/// Heap bytes held by the shards' document repositories (document maps, tf
/// vectors, term-statistics tables), summed across shards and sampled once
/// per re-clustering.
static MEM_REPOSITORY_BYTES: LazyGauge = LazyGauge::new("nidc_mem_repository_bytes");
/// Heap bytes held by the shards' latest cluster representatives plus the
/// window view the pipeline holds: its copy of every shard's clustering
/// (members and representatives) and the stitched clusters.
static MEM_REPS_BYTES: LazyGauge = LazyGauge::new("nidc_mem_reps_bytes");
/// Heap bytes held by the shards' warm-start assignment maps, carried
/// between incremental re-clusterings.
static MEM_WARMSTART_BYTES: LazyGauge = LazyGauge::new("nidc_mem_warmstart_bytes");
/// Heap bytes held between windows by the shards' K-means workspaces: each
/// one's term ranking (≈ 1.5 bits per term id) plus its builder arrays and
/// term rows over the last window's ranked terms.
static MEM_INDEX_POSTINGS_BYTES: LazyGauge = LazyGauge::new("nidc_mem_index_postings_bytes");

/// Registers every sharded metric at zero so per-window snapshots carry the
/// full schema. Called at construction and again at each re-clustering:
/// recording may have been enabled only after the pipeline was built, and
/// registration while disabled is a no-op.
fn register_sharded_metrics() {
    RECLUSTERS.add(0);
    RECLUSTER_SECONDS.touch();
    MERGE_SECONDS.touch();
    DOCS_PER_SHARD.touch();
    MEM_REPOSITORY_BYTES.touch();
    MEM_REPS_BYTES.touch();
    MEM_WARMSTART_BYTES.touch();
    MEM_INDEX_POSTINGS_BYTES.touch();
    crate::merge::register_stitch_metrics();
    crate::lineage::register_lifecycle_metrics();
}

/// The trace track carrying shard `id`'s spans. Track 0 is the calling
/// thread's lane ("main"), so shard `s` renders on lane `s + 1` in Perfetto —
/// one lane per shard regardless of which worker thread ran it.
fn shard_track(id: usize) -> u32 {
    id as u32 + 1
}

/// Labels every shard's trace lane. A no-op (one relaxed load) while tracing
/// is off; idempotent while on, so the fan-out paths can call it every
/// window — a session enabled mid-stream still gets named lanes.
fn label_shard_tracks(n: usize) {
    if !nidc_obs::trace::trace_enabled() {
        return;
    }
    for s in 0..n {
        nidc_obs::trace::set_track_label(shard_track(s), format_args!("shard {s}"));
    }
}

/// SplitMix64 finaliser — a well-mixed, platform-independent permutation of
/// `u64`, so shard assignment is stable across runs, machines, and shardings
/// of adjacent id ranges (sequential `DocId`s spread uniformly).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic document → shard routing.
///
/// The default route hashes the [`DocId`]; callers with a natural partition
/// key (a feed id, a tenant, a language) can route on an explicit key via
/// [`ShardRouter::route_key`] instead — any scheme works as long as a given
/// document always lands on the same shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Errors
    /// [`Error::ZeroShards`] when `shards` is zero.
    pub fn new(shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(Error::ZeroShards);
        }
        Ok(Self { shards })
    }

    /// The number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning document `id` (stable hash of the id).
    pub fn route(&self, id: DocId) -> usize {
        self.route_key(id.0)
    }

    /// The shard for an explicit stream key.
    pub fn route_key(&self, key: u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(key) % self.shards as u64) as usize
    }
}

/// One shard of the stream: a pipeline engine over the documents the router
/// assigns here — its own repository, warm-start assignment, and last
/// clustering.
#[derive(Debug, Clone)]
pub struct StreamShard {
    id: usize,
    pipeline: NoveltyPipeline,
}

impl StreamShard {
    pub(crate) fn new(id: usize, pipeline: NoveltyPipeline) -> Self {
        Self { id, pipeline }
    }

    /// This shard's index (the `shard` half of a
    /// [`crate::GlobalClusterId`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's pipeline.
    pub fn pipeline(&self) -> &NoveltyPipeline {
        &self.pipeline
    }

    pub(crate) fn pipeline_mut(&mut self) -> &mut NoveltyPipeline {
        &mut self.pipeline
    }

    /// The shard's repository.
    pub fn repository(&self) -> &Repository {
        self.pipeline.repository()
    }

    /// Live documents on this shard.
    pub fn num_docs(&self) -> usize {
        self.pipeline.repository().len()
    }
}

/// The on-line pipeline: N independent [`StreamShard`]s behind a
/// deterministic [`ShardRouter`], with every lifecycle operation fanned out
/// via `nidc-parallel` and the clusterings merged (and stitched) once per
/// window into a held view. It alone tracks lineage, writes checkpoints and
/// publishes the memory gauges.
///
/// `shards = 1` runs one engine, and its clusterings are bit-identical to
/// [`NoveltyPipeline`] driven directly.
#[derive(Debug, Clone)]
pub struct ShardedPipeline {
    shards: Vec<StreamShard>,
    router: ShardRouter,
    config: ClusteringConfig,
    /// Stitching threshold τ for the cross-shard repair pass; `None`
    /// disables stitching. Only takes effect with more than one shard —
    /// a single shard has no cross-shard fragments to reunite.
    stitch: Option<f64>,
    /// The last window's merged view (stitched when τ applies), built by
    /// `recluster_*` and borrowed by every reader. `None` before the first
    /// re-clustering, after a failed one, and after a checkpoint restore.
    merged: Option<MergedClustering>,
    /// Tracks cluster lineage over the *merged* (and, when stitching is on,
    /// *stitched*) cluster ids, so a topic whose fragments get reunited
    /// across shards reads as one continuing lineage instead of per-shard
    /// deaths and a birth.
    lineage: LineageTracker,
}

impl ShardedPipeline {
    /// Creates an empty sharded pipeline: `shards` pipelines sharing the
    /// same decay parameters and clustering configuration.
    ///
    /// # Errors
    /// [`Error::ZeroShards`] when `shards` is zero.
    pub fn new(decay: DecayParams, config: ClusteringConfig, shards: usize) -> Result<Self> {
        let pipelines = (0..shards)
            .map(|_| NoveltyPipeline::new(decay, config.clone()))
            .collect();
        Self::from_parts(pipelines, config, LineageTracker::new())
    }

    /// Reassembles a sharded pipeline from per-shard pipelines (shard index
    /// = position) and a lineage tracker (used by state restoration).
    ///
    /// # Errors
    /// [`Error::ZeroShards`] when `pipelines` is empty.
    pub(crate) fn from_parts(
        pipelines: Vec<NoveltyPipeline>,
        config: ClusteringConfig,
        lineage: LineageTracker,
    ) -> Result<Self> {
        let router = ShardRouter::new(pipelines.len())?;
        register_sharded_metrics();
        Ok(Self {
            shards: pipelines
                .into_iter()
                .enumerate()
                .map(|(id, p)| StreamShard::new(id, p))
                .collect(),
            router,
            config,
            stitch: Some(crate::merge::DEFAULT_STITCH_THRESHOLD),
            merged: None,
            lineage,
        })
    }

    /// The lineage tracker (over merged/stitched cluster ids).
    pub fn lineage(&self) -> &LineageTracker {
        &self.lineage
    }

    /// Sets the stitching threshold τ for the cross-shard repair pass:
    /// `Some(τ)` stitches every merged view at τ, `None` disables
    /// stitching. The default is `Some(DEFAULT_STITCH_THRESHOLD)`; with a
    /// single shard the setting is ignored (nothing to stitch).
    ///
    /// A held window view is re-stitched at the new τ (or unstitched), so
    /// [`ShardedPipeline::last_merged`] never disagrees with the
    /// configuration. Lineage is not re-observed: it saw the window as it
    /// was clustered.
    ///
    /// # Errors
    /// [`Error::InvalidStitchThreshold`] for a NaN or negative τ, leaving
    /// the setting and the held view as they were. τ = +∞ is accepted and
    /// never merges.
    pub fn set_stitch(&mut self, threshold: Option<f64>) -> Result<()> {
        if let Some(tau) = threshold.filter(|tau| tau.is_nan() || *tau < 0.0) {
            return Err(Error::InvalidStitchThreshold(tau));
        }
        self.stitch = threshold;
        let effective = self.effective_stitch();
        if let Some(view) = self.merged.as_mut() {
            view.restitch(effective);
            self.publish_mem_gauges();
        }
        Ok(())
    }

    /// The configured stitching threshold (`None` = disabled).
    pub fn stitch_threshold(&self) -> Option<f64> {
        self.stitch
    }

    /// The threshold the merge paths will actually stitch at: the
    /// configured τ, gated on having more than one shard.
    fn effective_stitch(&self) -> Option<f64> {
        (self.shards.len() > 1).then_some(self.stitch).flatten()
    }

    /// The router in use.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The clustering configuration (shared by every shard).
    pub fn config(&self) -> &ClusteringConfig {
        &self.config
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[StreamShard] {
        &self.shards
    }

    /// One shard.
    pub fn shard(&self, s: usize) -> &StreamShard {
        &self.shards[s]
    }

    /// Live documents across all shards.
    pub fn num_docs(&self) -> usize {
        self.shards.iter().map(StreamShard::num_docs).sum()
    }

    /// Whether no shard holds any document.
    pub fn is_empty(&self) -> bool {
        self.num_docs() == 0
    }

    /// The latest shard clock (all clocks agree after a fan-out
    /// [`ShardedPipeline::advance_to`]).
    pub fn now(&self) -> Timestamp {
        self.shards
            .iter()
            .map(|s| s.repository().now())
            .fold(Timestamp::EPOCH, Timestamp::max)
    }

    /// Whether any shard stores `id`.
    pub fn contains(&self, id: DocId) -> bool {
        self.shards.iter().any(|s| s.repository().contains(id))
    }

    /// Merged repository statistics over all shards
    /// ([`nidc_forgetting::sharding::merge_stats`]).
    pub fn stats(&self) -> RepositoryStats {
        let stats: Vec<RepositoryStats> =
            self.shards.iter().map(|s| s.repository().stats()).collect();
        nidc_forgetting::sharding::merge_stats(&stats)
    }

    /// The global term occurrence probability `Pr(t_k)` (eq. 10) over the
    /// union of all shards ([`nidc_forgetting::sharding::merged_pr_term`]).
    pub fn pr_term(&self, term: TermId) -> f64 {
        let repos: Vec<&Repository> = self.shards.iter().map(StreamShard::repository).collect();
        nidc_forgetting::sharding::merged_pr_term(&repos, term)
    }

    /// Ingests one document, routed by its id.
    pub fn ingest(&mut self, id: DocId, t: Timestamp, tf: SparseVector) -> Result<()> {
        let s = self.router.route(id);
        self.shards[s].pipeline.ingest(id, t, tf)
    }

    /// Ingests one document under an explicit stream key (feed, tenant,
    /// language, …). The caller must use the same key for a given document
    /// every time — the shards only detect duplicates they own.
    pub fn ingest_with_key(
        &mut self,
        key: u64,
        id: DocId,
        t: Timestamp,
        tf: SparseVector,
    ) -> Result<()> {
        let s = self.router.route_key(key);
        self.shards[s].pipeline.ingest(id, t, tf)
    }

    /// Ingests a batch that arrived at `t`: partitions it by the router
    /// (preserving arrival order within each shard) and fans the per-shard
    /// sub-batches out in parallel.
    ///
    /// On error the first failing shard's error (in shard order) is
    /// returned; sub-batches on other shards may still have been applied —
    /// the same partial-application semantics as
    /// [`NoveltyPipeline::ingest_batch`] within one shard.
    pub fn ingest_batch<I>(&mut self, t: Timestamp, docs: I) -> Result<()>
    where
        I: IntoIterator<Item = (DocId, SparseVector)>,
    {
        let mut batches: Vec<Vec<(DocId, SparseVector)>> = vec![Vec::new(); self.shards.len()];
        for (id, tf) in docs {
            batches[self.router.route(id)].push((id, tf));
        }
        let _span = nidc_obs::span!("sharded.ingest_batch");
        label_shard_tracks(self.shards.len());
        let threads = self.config.threads;
        let mut work: Vec<(&mut StreamShard, Vec<(DocId, SparseVector)>)> =
            self.shards.iter_mut().zip(batches).collect();
        nidc_parallel::par_map_mut(&mut work, threads, |(shard, batch)| {
            if batch.is_empty() {
                return Ok(());
            }
            let _track = nidc_obs::trace::with_track(shard_track(shard.id));
            let _s = nidc_obs::span!("shard.ingest");
            shard.pipeline_mut().ingest_batch(t, std::mem::take(batch))
        })
        .into_iter()
        .collect()
    }

    /// Advances every shard's clock to `t` (pure decay, fanned out).
    pub fn advance_to(&mut self, t: Timestamp) -> Result<()> {
        let _span = nidc_obs::span!("sharded.advance");
        label_shard_tracks(self.shards.len());
        let threads = self.config.threads;
        nidc_parallel::par_map_mut(&mut self.shards, threads, |s| {
            let _track = nidc_obs::trace::with_track(shard_track(s.id));
            let _s = nidc_obs::span!("shard.advance");
            s.pipeline_mut().advance_to(t)
        })
        .into_iter()
        .collect()
    }

    /// Incremental re-clustering on every shard (fanned out; each shard
    /// expires, rebuilds its φ vectors, and warm-starts its extended
    /// K-means), merged into the window's view, which the pipeline holds
    /// and returns borrowed.
    pub fn recluster_incremental(&mut self) -> Result<&MergedClustering> {
        self.recluster_with(|p| p.recluster_incremental())
    }

    /// Non-incremental re-clustering on every shard (statistics rebuilt
    /// from scratch, random seeding), merged into the window's view, which
    /// the pipeline holds and returns borrowed.
    pub fn recluster_from_scratch(&mut self) -> Result<&MergedClustering> {
        self.recluster_with(|p| p.recluster_from_scratch())
    }

    fn recluster_with<F>(&mut self, f: F) -> Result<&MergedClustering>
    where
        F: Fn(&mut NoveltyPipeline) -> Result<Clustering> + Sync,
    {
        register_sharded_metrics();
        // the previous window's view goes first: a failed window leaves no
        // stale view behind
        self.merged = None;
        let span = nidc_obs::span!("sharded.recluster", RECLUSTER_SECONDS);
        label_shard_tracks(self.shards.len());
        RECLUSTERS.inc();
        let threads = self.config.threads;
        let results = nidc_parallel::par_map_mut(&mut self.shards, threads, |s| {
            DOCS_PER_SHARD.observe(s.num_docs() as f64);
            // Everything the shard does — its window phases, its K-means
            // iterations — nests under this span on the shard's own lane.
            let _track = nidc_obs::trace::with_track(shard_track(s.id));
            let _s = nidc_obs::span!("shard.recluster");
            f(s.pipeline_mut())
        });
        let mut clusterings = Vec::with_capacity(results.len());
        for r in results {
            clusterings.push(r?);
        }
        drop(span);
        let merged = {
            let _merge_span = nidc_obs::span!("sharded.merge", MERGE_SECONDS);
            let mut merged = MergedClustering::new(clusterings);
            // inside the merge span, so `sharded.stitch` nests under it
            merged.restitch(self.effective_stitch());
            merged
        };
        self.observe_lineage(&merged);
        self.merged = Some(merged);
        self.publish_mem_gauges();
        Ok(self.merged.as_ref().expect("just stored"))
    }

    /// Publishes the memory gauges as whole-stream figures: cross-shard
    /// sums, with the reps gauge also counting the held window view — its
    /// copy of every shard's clustering plus the stitched clusters — which
    /// lives until the next window; the index gauge sums the K-means
    /// workspaces' held scratch, O(1) per shard. The walk is O(live docs),
    /// so it runs only while recording is on.
    fn publish_mem_gauges(&self) {
        if !nidc_obs::enabled() {
            return;
        }
        let (mut repo, mut reps, mut warm, mut workspace) = (0u64, 0u64, 0u64, 0u64);
        for s in &self.shards {
            let (r, c, w) = s.pipeline().mem_sample();
            repo += r;
            reps += c;
            warm += w;
            workspace += s.pipeline().workspace_bytes();
        }
        reps += self.merged.deep_size_bytes();
        MEM_REPOSITORY_BYTES.set(repo);
        MEM_REPS_BYTES.set(reps);
        MEM_WARMSTART_BYTES.set(warm);
        MEM_INDEX_POSTINGS_BYTES.set(workspace);
    }

    /// Feeds the window's merged view to the lineage tracker. Stitched ids
    /// when stitching ran (so cross-shard stitches are one lineage), raw
    /// merged `(shard, local)` ids otherwise. Pure observer — nothing here
    /// feeds back into the clustering.
    fn observe_lineage(&mut self, merged: &MergedClustering) {
        let tracker = &mut self.lineage;
        let _span = nidc_obs::span!("sharded.lineage");
        if let Some(stitched) = merged.stitched() {
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
            tracker.observe(&observed, stitched.outliers(), stitched.g());
        } else {
            let observed: Vec<ObservedCluster<'_>> = merged
                .iter_non_empty()
                .map(|(id, c)| ObservedCluster {
                    id,
                    members: c.members(),
                    rep: c.rep(),
                })
                .collect();
            let outliers = merged.outliers();
            tracker.observe(&observed, &outliers, merged.g());
        }
    }

    /// The last window's merged view — stitched when τ applies — exactly
    /// as the last `recluster_*` returned it (re-stitched if
    /// [`ShardedPipeline::set_stitch`] changed τ since). A borrow: it does
    /// no work. `None` before the first re-clustering, after a failed one,
    /// and after a checkpoint restore.
    pub fn last_merged(&self) -> Option<&MergedClustering> {
        self.merged.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn decay() -> DecayParams {
        DecayParams::from_spans(7.0, 14.0).unwrap()
    }

    fn config() -> ClusteringConfig {
        ClusteringConfig {
            k: 2,
            seed: 1,
            ..ClusteringConfig::default()
        }
    }

    fn seed_two_topics(p: &mut ShardedPipeline, start_day: f64, id_base: u64) {
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
    fn zero_shards_is_rejected() {
        assert_eq!(ShardRouter::new(0), Err(Error::ZeroShards));
        assert!(matches!(
            ShardedPipeline::new(decay(), config(), 0),
            Err(Error::ZeroShards)
        ));
    }

    #[test]
    fn router_is_stable_and_covers_all_shards() {
        let r = ShardRouter::new(4).unwrap();
        let mut hit = [false; 4];
        for id in 0..256u64 {
            let s = r.route(DocId(id));
            assert!(s < 4);
            assert_eq!(s, r.route(DocId(id)), "routing must be a pure function");
            hit[s] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "256 sequential ids must spread over 4 shards"
        );
        // one shard short-circuits
        let one = ShardRouter::new(1).unwrap();
        for id in 0..32u64 {
            assert_eq!(one.route(DocId(id)), 0);
        }
        // explicit keys route independently of the DocId
        let by_key = r.route_key(7);
        assert_eq!(by_key, r.route_key(7));
    }

    #[test]
    fn documents_land_on_their_routed_shard() {
        let mut p = ShardedPipeline::new(decay(), config(), 3).unwrap();
        seed_two_topics(&mut p, 0.0, 0);
        assert_eq!(p.num_docs(), 8);
        for id in 0..8u64 {
            let s = p.router().route(DocId(id));
            assert!(p.shard(s).repository().contains(DocId(id)));
            assert!(p.contains(DocId(id)));
        }
        assert!(!p.contains(DocId(99)));
    }

    #[test]
    fn explicit_key_overrides_id_routing() {
        let mut p = ShardedPipeline::new(decay(), config(), 4).unwrap();
        let key = 42u64;
        let target = p.router().route_key(key);
        for id in 0..8u64 {
            p.ingest_with_key(key, DocId(id), Timestamp(0.0), tf(&[(0, 1.0)]))
                .unwrap();
        }
        assert_eq!(p.shard(target).num_docs(), 8);
    }

    #[test]
    fn batch_ingest_matches_single_ingest() {
        let mut a = ShardedPipeline::new(decay(), config(), 3).unwrap();
        seed_two_topics(&mut a, 0.0, 0);

        let mut b = ShardedPipeline::new(decay(), config(), 3).unwrap();
        // same docs, all stamped per-doc times — batch uses one timestamp,
        // so replicate with two batches at the two distinct instants used
        for i in 0..8u64 {
            let terms: Vec<(u32, f64)> = if i < 4 {
                vec![(0, 3.0), (1, 1.0 + (i % 2) as f64)]
            } else {
                vec![(8, 3.0), (9, 1.0 + (i % 2) as f64)]
            };
            b.ingest_batch(Timestamp(0.01 * i as f64), vec![(DocId(i), tf(&terms))])
                .unwrap();
        }
        assert_eq!(a.num_docs(), b.num_docs());
        let ca = a.recluster_incremental().unwrap();
        let cb = b.recluster_incremental().unwrap();
        assert_eq!(ca.member_lists(), cb.member_lists());
    }

    #[test]
    fn duplicate_in_batch_surfaces_as_error() {
        let mut p = ShardedPipeline::new(decay(), config(), 2).unwrap();
        p.ingest(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        assert!(p
            .ingest_batch(Timestamp(1.0), vec![(DocId(0), tf(&[(0, 1.0)]))])
            .is_err());
    }

    #[test]
    fn recluster_merges_every_document_or_outlier() {
        let mut p = ShardedPipeline::new(decay(), config(), 2).unwrap();
        seed_two_topics(&mut p, 0.0, 0);
        let returned: *const MergedClustering = p.recluster_incremental().unwrap();
        // the window's view is held: last_merged borrows the very same one
        let m = p.last_merged().unwrap();
        assert!(std::ptr::eq(returned, m));
        assert_eq!(m.shard_count(), 2);
        let assigned = m.assignment().len();
        let outliers = m.outliers().len();
        assert_eq!(assigned + outliers, 8);
    }

    #[test]
    fn set_stitch_after_a_recluster_changes_what_last_merged_reports() {
        let mut p = ShardedPipeline::new(decay(), config(), 2).unwrap();
        seed_two_topics(&mut p, 0.0, 0);
        p.recluster_incremental().unwrap();
        let stitched = |p: &ShardedPipeline| p.last_merged().unwrap().stitched().cloned();
        let default = stitched(&p).expect("stitching defaults on for 2 shards");
        assert_eq!(default.threshold(), crate::merge::DEFAULT_STITCH_THRESHOLD);

        p.set_stitch(None).unwrap();
        assert!(stitched(&p).is_none(), "stitching off unstitches the view");

        // φ weights are nonnegative, so τ = 0 folds everything into one
        p.set_stitch(Some(0.0)).unwrap();
        let all = stitched(&p).expect("re-stitched at the new τ");
        assert_eq!(all.threshold(), 0.0);
        assert_eq!(all.non_empty_clusters(), 1);

        // back to the default: the same view the window produced
        p.set_stitch(Some(crate::merge::DEFAULT_STITCH_THRESHOLD))
            .unwrap();
        let again = stitched(&p).unwrap();
        assert_eq!(again.member_lists(), default.member_lists());
        assert_eq!(again.g().to_bits(), default.g().to_bits());
    }

    #[test]
    fn set_stitch_refuses_nan_and_negative_thresholds() {
        let mut p = ShardedPipeline::new(decay(), config(), 2).unwrap();
        seed_two_topics(&mut p, 0.0, 0);
        p.recluster_incremental().unwrap();
        let held = |p: &ShardedPipeline| {
            let s = p.last_merged().unwrap().stitched().unwrap();
            (s.threshold(), s.member_lists(), s.g().to_bits())
        };
        let before = held(&p);
        for tau in [f64::NAN, -0.1, f64::NEG_INFINITY] {
            let err = p.set_stitch(Some(tau)).unwrap_err();
            assert!(
                matches!(err, Error::InvalidStitchThreshold(t) if t.to_bits() == tau.to_bits())
            );
            assert_eq!(
                p.stitch_threshold(),
                Some(crate::merge::DEFAULT_STITCH_THRESHOLD)
            );
            assert_eq!(held(&p), before, "the held view was left as it was");
        }
        // +∞ is a valid τ: stitching stays on and merges nothing
        p.set_stitch(Some(f64::INFINITY)).unwrap();
        let never = p.last_merged().unwrap().stitched().unwrap();
        assert_eq!(never.merges(), 0);
    }

    #[test]
    fn last_merged_is_none_before_first_recluster() {
        let mut p = ShardedPipeline::new(decay(), config(), 2).unwrap();
        assert!(p.last_merged().is_none());
        seed_two_topics(&mut p, 0.0, 0);
        assert!(p.last_merged().is_none());
        p.recluster_incremental().unwrap();
        assert!(p.last_merged().is_some());
    }

    #[test]
    fn recluster_expires_on_every_shard() {
        let mut p = ShardedPipeline::new(decay(), config(), 3).unwrap();
        seed_two_topics(&mut p, 0.0, 0);
        p.advance_to(Timestamp(20.0)).unwrap(); // past the 14-day life span
        let m = p.recluster_incremental().unwrap();
        assert_eq!(m.assigned_docs() + m.outliers().len(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn merged_stats_and_pr_term_are_partition_invariant() {
        let mut one = ShardedPipeline::new(decay(), config(), 1).unwrap();
        let mut four = ShardedPipeline::new(decay(), config(), 4).unwrap();
        for p in [&mut one, &mut four] {
            seed_two_topics(p, 0.0, 0);
            p.advance_to(Timestamp(2.0)).unwrap();
        }
        let (a, b) = (one.stats(), four.stats());
        assert_eq!(a.num_docs, b.num_docs);
        assert_eq!(a.vocab_dim, b.vocab_dim);
        assert_eq!(a.now, b.now);
        assert!((a.tdw - b.tdw).abs() < 1e-12);
        assert_eq!(one.now(), four.now());
        for k in 0..10u32 {
            assert!(
                (one.pr_term(TermId(k)) - four.pr_term(TermId(k))).abs() < 1e-12,
                "term {k}"
            );
        }
    }
}
