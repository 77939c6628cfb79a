//! The merged view of per-shard clusterings, stitched once per window.
//!
//! A [`crate::ShardedPipeline`] clusters every shard independently; this
//! module provides the global view over those clusterings: cluster identity
//! becomes [`GlobalClusterId`] `(shard, local index)`, the per-shard
//! [`Clustering`]s are held side by side, and global aggregates (`G`,
//! outliers, assignment, member lists) are derived from them. Member sets
//! across shards are disjoint by construction (the router partitions
//! `DocId`s), so cross-shard representative merges via
//! [`ClusterRep::merge_from`] are exact (eq. 21/25).
//!
//! The pipeline builds one [`MergedClustering`] per window — stitched when
//! τ applies — and holds it; readers borrow that view
//! ([`crate::ShardedPipeline::last_merged`]) instead of re-merging.
//!
//! # Stitch cost
//!
//! The stitch's representative dot matrix is built from term postings,
//! costing Σ_t |postings(t)|² / 2 multiply-adds rather than N² merge-joins
//! of O(nnz) each. After that, each merge costs O(N): the greedy pair
//! choice reads every row's cached best partner instead of rescanning the
//! N²/2 pairs. The invariant: a live row `x` holds the first `y > x` with
//! the row's largest normalized `cr_sim` (strict `>`), so scanning the
//! rows in order with strict `>` picks the lexicographically first maximum
//! pair, as a full rescan does. A fold is one merge-join of the two
//! representatives ([`ClusterRep::merge_from`]), and folded fragments are
//! read in place, never copied.
//!
//! # Id stability
//!
//! Both views guarantee **id stability across identical inputs**: a
//! [`MergedClustering`] keys every cluster by its `(shard, local)` slot
//! verbatim, and a stitching pass deterministically keeps the *lowest*
//! shard-major source id as the surviving [`StitchedCluster::id`] no
//! matter the agglomeration order (fragments always fold into the
//! lower-id slot). Two stitches of the same per-shard clusterings
//! therefore name every cluster identically — the property the
//! [`crate::LineageTracker`] relies on to match clusters across windows
//! without reading deaths+births into a mere re-stitch. Pinned by
//! `stitched_clusters_keep_the_lowest_shard_major_source_id` in
//! `tests/shard_determinism.rs`.

use std::borrow::Cow;
use std::collections::BTreeMap;

use nidc_obs::{buckets, DeepSize, LazyCounter, LazyHistogram};
use nidc_similarity::ClusterRep;
use nidc_textproc::DocId;

use crate::clustering::doc_ids_bytes;
use crate::rep_dot::RepPostings;
use crate::{Cluster, Clustering};

/// Stitching passes executed (one per [`MergedClustering::stitch`] call).
static STITCH_RUNS: LazyCounter = LazyCounter::new("nidc_stitch_runs_total");
/// Cluster fragments folded into another cluster across all passes — the
/// repair volume (0 on a well-separated or single-shard stream).
static STITCH_MERGED_FRAGMENTS: LazyCounter =
    LazyCounter::new("nidc_stitch_merged_fragments_total");
/// Wall-clock seconds per stitching pass (dot matrix + agglomeration).
static STITCH_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_stitch_seconds", buckets::LATENCY_SECONDS);
/// Non-empty clusters surviving each pass (compare against
/// `nidc_stitch_merged_fragments_total` for the input count).
static STITCH_OUTPUT_CLUSTERS: LazyHistogram =
    LazyHistogram::new("nidc_stitch_output_clusters", buckets::SIZES);

/// Registers the stitch metric family at zero so per-window snapshots carry
/// the full schema even on runs that never stitch (e.g. one shard).
pub(crate) fn register_stitch_metrics() {
    STITCH_RUNS.add(0);
    STITCH_MERGED_FRAGMENTS.add(0);
    STITCH_SECONDS.touch();
    STITCH_OUTPUT_CLUSTERS.touch();
}

/// The default normalized-`cr_sim` stitching threshold τ.
///
/// Fragments of one topic routed to different shards score far above this
/// (they share the topic vocabulary), while distinct topics score near zero;
/// the value is calibrated on the sharding benchmark
/// (`results/BENCH_shards.json`), where it recovers ≥ 90% of the unsharded
/// micro-F1 at 2–8 shards.
pub const DEFAULT_STITCH_THRESHOLD: f64 = 0.2;

/// Global identity of a cluster in a sharded deployment: which shard owns
/// it, and its index inside that shard's K-slot clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalClusterId {
    /// The owning shard's index.
    pub shard: usize,
    /// The cluster's slot index within the shard's clustering (`0..K`).
    pub local: usize,
}

impl std::fmt::Display for GlobalClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.shard, self.local)
    }
}

/// The merged view over per-shard clusterings, optionally carrying the
/// window's stitched view.
///
/// Holds one [`Clustering`] per shard (shard order is fixed by the
/// pipeline), and exposes the same aggregate surface as a single
/// [`Clustering`] — `g()` sums the shard indices (`G` is itself a sum over
/// clusters, eq. 17, so summing shard partial sums is exact), `outliers()`
/// merges and sorts, `assignment()` maps to [`GlobalClusterId`]s.
#[derive(Debug, Clone)]
pub struct MergedClustering {
    shards: Vec<Clustering>,
    stitched: Option<StitchedClustering>,
}

impl MergedClustering {
    /// Wraps per-shard clusterings (index = shard id).
    pub fn new(shards: Vec<Clustering>) -> Self {
        Self {
            shards,
            stitched: None,
        }
    }

    /// Number of shards merged.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard clusterings, in shard order.
    pub fn shards(&self) -> &[Clustering] {
        &self.shards
    }

    /// One shard's clustering.
    pub fn shard(&self, s: usize) -> &Clustering {
        &self.shards[s]
    }

    /// Looks up a cluster by its global id.
    pub fn cluster(&self, id: GlobalClusterId) -> Option<&Cluster> {
        self.shards.get(id.shard)?.clusters().get(id.local)
    }

    /// All global cluster ids, shard-major (includes empty K-slots, so ids
    /// are stable across queries).
    pub fn cluster_ids(&self) -> Vec<GlobalClusterId> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(s, c)| {
                (0..c.clusters().len()).map(move |local| GlobalClusterId { shard: s, local })
            })
            .collect()
    }

    /// Iterates the non-empty clusters with their global ids, shard-major.
    pub fn iter_non_empty(&self) -> impl Iterator<Item = (GlobalClusterId, &Cluster)> {
        self.shards.iter().enumerate().flat_map(|(s, c)| {
            c.clusters()
                .iter()
                .enumerate()
                .filter(|(_, cl)| !cl.is_empty())
                .map(move |(local, cl)| (GlobalClusterId { shard: s, local }, cl))
        })
    }

    /// The global clustering index `G = Σ_shards G_s` (eq. 17 is a sum over
    /// clusters, so the sum over shard partial sums is the exact global
    /// index).
    pub fn g(&self) -> f64 {
        self.shards.iter().map(Clustering::g).sum()
    }

    /// The slowest shard's repetition-process iteration count (the
    /// wall-clock-relevant figure under fan-out).
    pub fn iterations(&self) -> usize {
        self.shards
            .iter()
            .map(Clustering::iterations)
            .max()
            .unwrap_or(0)
    }

    /// Number of non-empty clusters across all shards.
    pub fn non_empty_clusters(&self) -> usize {
        self.shards.iter().map(Clustering::non_empty_clusters).sum()
    }

    /// Total documents assigned to clusters (excludes outliers).
    pub fn assigned_docs(&self) -> usize {
        self.shards.iter().map(Clustering::assigned_docs).sum()
    }

    /// All shards' outliers, merged and sorted ascending.
    pub fn outliers(&self) -> Vec<DocId> {
        let mut all: Vec<DocId> = self
            .shards
            .iter()
            .flat_map(|c| c.outliers().iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Member lists of every cluster, shard-major (includes empty K-slots,
    /// matching [`Clustering::member_lists`] per shard). This is the shape
    /// the evaluation code consumes — cluster marking and the merged
    /// micro/macro-F1 are computed over exactly this concatenation.
    pub fn member_lists(&self) -> Vec<Vec<DocId>> {
        self.shards.iter().flat_map(|c| c.member_lists()).collect()
    }

    /// The global assignment map `DocId → global cluster id` (outliers
    /// absent). Shards partition the document space, so no key collides.
    pub fn assignment(&self) -> BTreeMap<DocId, GlobalClusterId> {
        let mut map = BTreeMap::new();
        for (s, clustering) in self.shards.iter().enumerate() {
            for (local, cluster) in clustering.clusters().iter().enumerate() {
                for &d in cluster.members() {
                    map.insert(d, GlobalClusterId { shard: s, local });
                }
            }
        }
        map
    }

    /// Merges the representatives of the given clusters into one
    /// [`ClusterRep`] (the cross-shard merge of
    /// eq. 21/25 via [`ClusterRep::merge_from`]). The router guarantees the
    /// member sets are disjoint, which is exactly the precondition
    /// `merge_from` needs. Unknown ids are skipped.
    pub fn merged_rep(&self, ids: &[GlobalClusterId]) -> ClusterRep {
        let mut rep = ClusterRep::new();
        for &id in ids {
            if let Some(cluster) = self.cluster(id) {
                rep.merge_from(cluster.rep());
            }
        }
        rep
    }

    /// Runs the cross-shard stitching pass (see [`StitchedClustering`]) at
    /// threshold τ and returns the result without attaching it.
    ///
    /// τ must not be NaN: no `sim < τ` holds for it, so the pass would
    /// merge until one cluster is left. τ = +∞ never merges.
    pub fn stitch(&self, threshold: f64) -> StitchedClustering {
        debug_assert!(!threshold.is_nan(), "stitch threshold is NaN");
        stitch_shards(&self.shards, threshold)
    }

    /// Runs the stitching pass and attaches the result, so query paths can
    /// read it back via [`MergedClustering::stitched`].
    pub fn stitch_in_place(&mut self, threshold: f64) {
        self.restitch(Some(threshold));
    }

    /// Replaces the attached stitched view: stitches at `Some(τ)`, detaches
    /// it at `None`.
    pub(crate) fn restitch(&mut self, threshold: Option<f64>) {
        self.stitched = threshold.map(|tau| self.stitch(tau));
    }

    /// The attached stitched view, if a stitching pass ran.
    pub fn stitched(&self) -> Option<&StitchedClustering> {
        self.stitched.as_ref()
    }
}

/// One cluster of a [`StitchedClustering`]: the union of one or more
/// per-shard cluster fragments.
#[derive(Debug, Clone)]
pub struct StitchedCluster {
    id: GlobalClusterId,
    sources: Vec<GlobalClusterId>,
    members: Vec<DocId>,
    rep: ClusterRep,
}

impl StitchedCluster {
    /// The stable stitched id: the lowest (shard-major) global id among the
    /// folded fragments — the slot that absorbed the others.
    pub fn id(&self) -> GlobalClusterId {
        self.id
    }

    /// Every folded fragment's global id, sorted ascending (shard-major).
    /// A single-element list means the cluster passed through unstitched.
    pub fn sources(&self) -> &[GlobalClusterId] {
        &self.sources
    }

    /// Member documents, sorted ascending.
    pub fn members(&self) -> &[DocId] {
        &self.members
    }

    /// The merged representative over the union of the fragments' members —
    /// exact, via [`ClusterRep::merge_from`] (eq. 21/25).
    pub fn rep(&self) -> &ClusterRep {
        &self.rep
    }

    /// Number of member documents.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster (an empty preserved K-slot) has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `avg_sim` over the union (eq. 24, exact).
    pub fn avg_sim(&self) -> f64 {
        self.rep.avg_sim()
    }
}

/// The cross-shard stitched view: the repair pass for the sharding quality
/// cliff.
///
/// The router partitions documents by id, so one topic's documents scatter
/// across shards and each shard grows its own fragment of the topic's
/// cluster. [`MergedClustering`] alone keeps those fragments separate, which
/// is why the merged F1 collapses as shards grow. Stitching reunites them:
/// group-average agglomeration over the merged representatives, merging the
/// most similar pair while its **normalized `cr_sim`**
///
/// ```text
/// sim(A, B) = cr_sim(A, B) / √(cr_sim(A,A) · cr_sim(B,B))      (eq. 21)
/// ```
///
/// stays ≥ τ. The normalization makes τ scale-free: forgetting decays every
/// φ's magnitude over time, but the representatives' *directions* — and so
/// a fixed τ — stay meaningful across windows. Each merge folds fragments
/// exactly via [`ClusterRep::merge_from`] (eq. 25), so every stitched
/// cluster's `avg_sim`, and therefore the stitched `G` (eq. 17), is exact.
///
/// Ids are stable: every input K-slot (including empty ones) keeps its
/// shard-major position, a merge folds the higher slot into the lower one,
/// and the survivor keeps its [`GlobalClusterId`]. With a single shard the
/// pass is the identity — there are no cross-shard fragments to reunite —
/// and the stitched view is bit-identical to the unsharded clustering.
/// With several shards, pairs from the *same* shard may also merge if they
/// clear τ; the threshold, not the topology, governs.
///
/// Complexity: the representative dot matrix up front, built from term
/// postings in Σ_t |postings(t)|² / 2 multiply-adds plus O(Σ nnz + max
/// term id) to file them (the crate's rep × rep kernel, shared with
/// lineage matching), then O(N) per merge, N = Σ_shards K: the pick reads
/// each row's cached best partner, and only a row whose best was one of
/// the two folded slots rescans, in O(N). Merging `j` into `i` updates the
/// cached dot row additively (`c⃗_{i∪j}·c⃗_x = c⃗_i·c⃗_x + c⃗_j·c⃗_x`), so
/// no dot product is ever recomputed, and folds the representatives in one
/// O(nnz_i + nnz_j) merge-join. The pass is sequential and therefore
/// trivially thread-count invariant.
#[derive(Debug, Clone)]
pub struct StitchedClustering {
    clusters: Vec<StitchedCluster>,
    outliers: Vec<DocId>,
    g: f64,
    threshold: f64,
    input_clusters: usize,
    merges: usize,
}

impl StitchedClustering {
    /// The stitched clusters, shard-major by surviving slot (empty input
    /// K-slots are preserved, so positions are stable across queries).
    pub fn clusters(&self) -> &[StitchedCluster] {
        &self.clusters
    }

    /// Looks up a stitched cluster by its (surviving) global id.
    pub fn cluster(&self, id: GlobalClusterId) -> Option<&StitchedCluster> {
        self.clusters.iter().find(|c| c.id == id)
    }

    /// All shards' outliers, merged and sorted ascending (stitching never
    /// promotes or demotes outliers).
    pub fn outliers(&self) -> &[DocId] {
        &self.outliers
    }

    /// The exact stitched clustering index `G = Σ |C|·avg_sim(C)` (eq. 17)
    /// over the stitched clusters.
    pub fn g(&self) -> f64 {
        self.g
    }

    /// The threshold τ the pass ran at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Non-empty clusters fed into the pass.
    pub fn input_clusters(&self) -> usize {
        self.input_clusters
    }

    /// Fragments folded into another cluster (`input_clusters −
    /// non_empty_clusters`).
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// Number of non-empty stitched clusters.
    pub fn non_empty_clusters(&self) -> usize {
        self.clusters.iter().filter(|c| !c.is_empty()).count()
    }

    /// Total documents assigned to stitched clusters (excludes outliers).
    pub fn assigned_docs(&self) -> usize {
        self.clusters.iter().map(StitchedCluster::len).sum()
    }

    /// Member lists of every stitched cluster, in cluster order (includes
    /// preserved empty K-slots) — the shape the evaluation code consumes.
    pub fn member_lists(&self) -> Vec<Vec<DocId>> {
        self.clusters.iter().map(|c| c.members.clone()).collect()
    }

    /// The stitched assignment map `DocId → stitched cluster id`.
    pub fn assignment(&self) -> BTreeMap<DocId, GlobalClusterId> {
        let mut map = BTreeMap::new();
        for c in &self.clusters {
            for &d in &c.members {
                map.insert(d, c.id);
            }
        }
        map
    }
}

impl DeepSize for StitchedCluster {
    /// The source-id and member lists' buffers plus the merged
    /// representative's heap.
    fn deep_size_bytes(&self) -> u64 {
        (self.sources.capacity() * std::mem::size_of::<GlobalClusterId>()) as u64
            + doc_ids_bytes(&self.members)
            + self.rep.deep_size_bytes()
    }
}

impl DeepSize for StitchedClustering {
    /// Every stitched cluster plus the outlier list.
    fn deep_size_bytes(&self) -> u64 {
        self.clusters.deep_size_bytes() + doc_ids_bytes(&self.outliers)
    }
}

impl DeepSize for MergedClustering {
    /// The held per-shard clusterings plus the attached stitched view.
    fn deep_size_bytes(&self) -> u64 {
        self.shards.deep_size_bytes() + self.stitched.deep_size_bytes()
    }
}

/// The stitching pass itself. Kept free so [`MergedClustering::stitch`] can
/// borrow `self.shards` while the caller holds `&mut self`.
fn stitch_shards(shards: &[Clustering], threshold: f64) -> StitchedClustering {
    // The span opens while `sharded.merge` is current on the re-clustering
    // path, so it nests under the merge span in the trace.
    let _span = nidc_obs::span!("sharded.stitch", STITCH_SECONDS);
    STITCH_RUNS.inc();

    // every input K-slot, shard-major; fragments are read in place, and
    // only a slot that absorbs another owns a copy of its representative
    let slots: Vec<(GlobalClusterId, &Cluster)> = shards
        .iter()
        .enumerate()
        .flat_map(|(s, clustering)| {
            clustering
                .clusters()
                .iter()
                .enumerate()
                .map(move |(local, cl)| (GlobalClusterId { shard: s, local }, cl))
        })
        .collect();
    let n = slots.len();
    let input_clusters = slots.iter().filter(|(_, cl)| !cl.is_empty()).count();
    // `None` once the slot is folded into another
    let mut reps: Vec<Option<Cow<'_, ClusterRep>>> = slots
        .iter()
        .map(|(_, cl)| Some(Cow::Borrowed(cl.rep())))
        .collect();
    // each group is a chain of slots from its survivor: `next` links the
    // chain, `last` is a survivor's chain end
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut last: Vec<usize> = (0..n).collect();

    let mut merges = 0usize;
    if shards.len() > 1 {
        // empty slots never participate
        let entrants: Vec<Option<&ClusterRep>> = slots
            .iter()
            .map(|(_, cl)| (!cl.is_empty()).then_some(cl.rep()))
            .collect();
        let mut pairs = PairChoice::new(&entrants);
        while let Some((i, j, sim)) = pairs.pick() {
            if sim < threshold {
                break;
            }
            // fold slot j into slot i (i < j: the survivor keeps the lower,
            // therefore stable, global id)
            let folded = reps[j].take().expect("the pair choice offers live slots");
            let survivor = reps[i].as_mut().expect("the pair choice offers live slots");
            survivor.to_mut().merge_from(&folded);
            pairs.fold(i, j, survivor.cr_self());
            next[last[i]] = Some(j);
            last[i] = last[j];
            merges += 1;
        }
    }

    let mut clusters = Vec::with_capacity(n - merges);
    for (x, rep) in reps.into_iter().enumerate() {
        let Some(rep) = rep else { continue };
        let group = || std::iter::successors(Some(x), |&y| next[y]).map(|y| slots[y]);
        let mut sources: Vec<GlobalClusterId> = group().map(|(id, _)| id).collect();
        let mut members = Vec::with_capacity(group().map(|(_, cl)| cl.len()).sum());
        for (_, cl) in group() {
            members.extend_from_slice(cl.members());
        }
        members.sort_unstable();
        sources.sort_unstable();
        clusters.push(StitchedCluster {
            id: slots[x].0,
            sources,
            members,
            rep: rep.into_owned(),
        });
    }

    let mut outliers: Vec<DocId> = shards
        .iter()
        .flat_map(|c| c.outliers().iter().copied())
        .collect();
    outliers.sort_unstable();

    // exact stitched G, summed in slot order — for a single shard this is
    // the same accumulation sequence the K-means ran, hence bit-identical
    let g: f64 = clusters.iter().map(|c| c.rep.g_term()).sum();

    STITCH_MERGED_FRAGMENTS.add(merges as u64);
    STITCH_OUTPUT_CLUSTERS.observe(clusters.iter().filter(|c| !c.is_empty()).count() as f64);
    StitchedClustering {
        clusters,
        outliers,
        g,
        threshold,
        input_clusters,
        merges,
    }
}

/// The stitch's greedy pair choice: the normalized `cr_sim` of every live
/// pair, read through each row's cached best partner.
///
/// Row `x`'s best is the first `y > x` holding the row's largest `sim`
/// (strict `>` in ascending `y`), so scanning the rows in ascending `x`
/// with strict `>` yields the lexicographically first maximum pair — the
/// pair a full O(N²) rescan would pick. A fold touches one row's values
/// and drops another, so it keeps every best current in O(N) plus one
/// O(N) recompute per row whose best was one of the two folded slots.
struct PairChoice {
    n: usize,
    /// `n × n` representative dots, row-major; a survivor's row is the sum
    /// of its fragments' rows.
    dot: Vec<f64>,
    /// `cr_self` per slot.
    cr: Vec<f64>,
    /// Non-empty and not yet folded away.
    live: Vec<bool>,
    /// Per live row: its best partner and that `sim` (`None`: no partner).
    best: Vec<Option<(usize, f64)>>,
}

impl PairChoice {
    /// The dot matrix from term postings (Σ_t |postings(t)|² / 2
    /// multiply-adds) and every row's best partner; `None` slots are empty.
    fn new(reps: &[Option<&ClusterRep>]) -> Self {
        let n = reps.len();
        let mut pairs = Self {
            n,
            dot: RepPostings::new(reps).dot_pairs(),
            cr: reps
                .iter()
                .map(|r| r.map_or(0.0, |r| r.cr_self()))
                .collect(),
            live: reps.iter().map(Option::is_some).collect(),
            best: vec![None; n],
        };
        for x in 0..n {
            if pairs.live[x] {
                pairs.best[x] = pairs.row_best(x);
            }
        }
        pairs
    }

    /// `sim(x, y)` for `x < y` (eq. 21 normalized), `None` when either
    /// representative has no magnitude.
    fn sim(&self, x: usize, y: usize) -> Option<f64> {
        let denom = (self.cr[x] * self.cr[y]).sqrt();
        if denom <= 0.0 {
            None
        } else {
            Some(self.dot[x * self.n + y] / denom)
        }
    }

    /// Row `x`'s best partner, by a scan of every live `y > x`.
    fn row_best(&self, x: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for y in (x + 1)..self.n {
            if !self.live[y] {
                continue;
            }
            if let Some(sim) = self.sim(x, y) {
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((y, sim));
                }
            }
        }
        best
    }

    /// The lexicographically first live pair with the largest `sim`.
    fn pick(&self) -> Option<(usize, usize, f64)> {
        let mut pick: Option<(usize, usize, f64)> = None;
        for x in 0..self.n {
            if let (true, Some((y, sim))) = (self.live[x], self.best[x]) {
                if pick.is_none_or(|(_, _, b)| sim > b) {
                    pick = Some((x, y, sim));
                }
            }
        }
        pick
    }

    /// Records that slot `j` was folded into slot `i < j`, whose
    /// representative now has `cr_self = cr_i`.
    fn fold(&mut self, i: usize, j: usize, cr_i: f64) {
        let n = self.n;
        // dot products are linear in the reps: c⃗_{i∪j}·c⃗_x = c⃗_i·c⃗_x
        // + c⃗_j·c⃗_x — update row i additively, no recomputation
        for x in 0..n {
            if x == i || x == j {
                continue;
            }
            self.dot[i * n + x] += self.dot[j * n + x];
            self.dot[x * n + i] = self.dot[i * n + x];
        }
        self.cr[i] = cr_i;
        self.live[j] = false;
        self.best[j] = None;
        self.best[i] = self.row_best(i);
        // only the sims against i moved and those against j are gone: a row
        // that lost its best rescans, a row before i weighs its new sim(x, i)
        for x in 0..n {
            if !self.live[x] || x == i {
                continue;
            }
            match self.best[x] {
                Some((b, _)) if b == i || b == j => self.best[x] = self.row_best(x),
                Some((b, v)) if x < i => {
                    if let Some(sim) = self.sim(x, i) {
                        if sim > v || (sim == v && i < b) {
                            self.best[x] = Some((i, sim));
                        }
                    }
                }
                None if x < i => self.best[x] = self.row_best(x),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster_batch, ClusteringConfig};
    use nidc_forgetting::{DecayParams, Repository, Timestamp};
    use nidc_similarity::{DocVectors, RepBuilder};
    use nidc_textproc::{SparseVector, TermId};
    use proptest::prelude::*;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    /// Two shards, each clustered over its own repository, with the φ
    /// vectors each shard's clustering was built from.
    fn two_shard_merge_with_vecs() -> (MergedClustering, Vec<DocVectors>) {
        let decay = DecayParams::from_spans(7.0, 14.0).unwrap();
        let config = ClusteringConfig {
            k: 2,
            seed: 1,
            ..ClusteringConfig::default()
        };
        let mut shards = Vec::new();
        let mut all_vecs = Vec::new();
        for base in [0u64, 100u64] {
            let mut repo = Repository::new(decay);
            for i in 0..3 {
                repo.insert(
                    DocId(base + i),
                    Timestamp(0.01 * i as f64),
                    tf(&[(0, 3.0), (1, 1.0 + (i % 2) as f64)]),
                )
                .unwrap();
            }
            for i in 3..6 {
                repo.insert(
                    DocId(base + i),
                    Timestamp(0.01 * i as f64),
                    tf(&[(8, 3.0), (9, 1.0 + (i % 2) as f64)]),
                )
                .unwrap();
            }
            let vecs = DocVectors::build(&repo);
            shards.push(cluster_batch(&vecs, &config).unwrap());
            all_vecs.push(vecs);
        }
        (MergedClustering::new(shards), all_vecs)
    }

    fn two_shard_merge() -> MergedClustering {
        two_shard_merge_with_vecs().0
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let m = two_shard_merge();
        assert_eq!(m.shard_count(), 2);
        let g_sum: f64 = m.shards().iter().map(Clustering::g).sum();
        assert_eq!(m.g(), g_sum);
        assert_eq!(
            m.non_empty_clusters(),
            m.shard(0).non_empty_clusters() + m.shard(1).non_empty_clusters()
        );
        assert_eq!(
            m.assigned_docs(),
            m.shard(0).assigned_docs() + m.shard(1).assigned_docs()
        );
        assert!(m.iterations() >= m.shard(0).iterations().min(m.shard(1).iterations()));
    }

    #[test]
    fn member_lists_are_shard_major_and_assignment_uses_global_ids() {
        let m = two_shard_merge();
        let lists = m.member_lists();
        assert_eq!(lists.len(), 4); // K = 2 slots per shard
                                    // shard 0 members come first, shard 1 members after
        let k = m.shard(0).clusters().len();
        for (slot, members) in lists.iter().enumerate() {
            for d in members {
                assert_eq!(d.0 >= 100, slot >= k, "doc {d} in slot {slot}");
            }
        }
        let assign = m.assignment();
        for (d, gid) in &assign {
            assert_eq!(gid.shard, usize::from(d.0 >= 100));
            let members = m.cluster(*gid).unwrap().members();
            assert!(members.contains(d));
        }
        // every assigned doc is in exactly one list
        assert_eq!(assign.len(), m.assigned_docs());
    }

    #[test]
    fn outliers_merge_sorted() {
        let a = Clustering::new(vec![], vec![DocId(7), DocId(9)], 0.0, 1);
        let b = Clustering::new(vec![], vec![DocId(3), DocId(8)], 0.0, 2);
        let m = MergedClustering::new(vec![a, b]);
        assert_eq!(m.outliers(), vec![DocId(3), DocId(7), DocId(8), DocId(9)]);
        assert_eq!(m.iterations(), 2);
    }

    #[test]
    fn merged_rep_matches_monolithic_rep_over_union() {
        let m = two_shard_merge();
        // merge the topic-A cluster of each shard; compare against a rep
        // built from the union of their members' φ vectors
        let ids: Vec<GlobalClusterId> = m.iter_non_empty().map(|(id, _)| id).collect();
        let merged = m.merged_rep(&ids);
        let total_size: usize = ids
            .iter()
            .map(|&id| m.cluster(id).unwrap().rep().size())
            .sum();
        assert_eq!(merged.size(), total_size);
        let ss_sum: f64 = ids
            .iter()
            .map(|&id| m.cluster(id).unwrap().rep().ss())
            .sum();
        assert!((merged.ss() - ss_sum).abs() < 1e-12);
        // unknown ids are skipped
        let same = m.merged_rep(&[ids[0], GlobalClusterId { shard: 9, local: 9 }]);
        assert_eq!(same.size(), m.cluster(ids[0]).unwrap().rep().size());
    }

    #[test]
    fn stitch_tau_infinity_is_the_identity() {
        // normalized cr_sim is ≤ ~1, so τ = ∞ can never merge anything
        let m = two_shard_merge();
        let s = m.stitch(f64::INFINITY);
        assert_eq!(s.merges(), 0);
        assert_eq!(s.member_lists(), m.member_lists());
        assert_eq!(s.outliers(), m.outliers());
        assert_eq!(s.non_empty_clusters(), m.non_empty_clusters());
        assert!((s.g() - m.g()).abs() < 1e-12);
        // ids pass through untouched, one source each
        for (c, id) in s.clusters().iter().zip(m.cluster_ids()) {
            assert_eq!(c.id(), id);
            assert_eq!(c.sources(), [id]);
        }
    }

    #[test]
    fn stitch_tau_zero_collapses_to_a_single_cluster() {
        // φ weights are nonnegative, so every pairwise normalized cr_sim is
        // ≥ 0 and τ = 0 agglomerates every non-empty cluster into one
        let m = two_shard_merge();
        let s = m.stitch(0.0);
        assert_eq!(s.non_empty_clusters(), 1);
        let all: Vec<DocId> = s
            .clusters()
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        assert_eq!(all.len(), m.assigned_docs());
        assert_eq!(s.merges(), s.input_clusters() - 1);
        // the survivor keeps the lowest global id
        let survivor = s.clusters().iter().find(|c| !c.is_empty()).unwrap();
        assert_eq!(survivor.id(), *survivor.sources().first().unwrap());
    }

    #[test]
    fn stitch_reunites_cross_shard_fragments_of_one_topic() {
        // each shard has a topic-A cluster (terms 0/1) and a topic-B cluster
        // (terms 8/9); at a moderate τ the same-topic fragments merge across
        // shards and the two topics stay apart
        let m = two_shard_merge();
        let s = m.stitch(0.5);
        assert_eq!(s.non_empty_clusters(), 2);
        assert_eq!(s.merges(), 2);
        for c in s.clusters().iter().filter(|c| !c.is_empty()) {
            assert_eq!(c.sources().len(), 2, "one fragment from each shard");
            assert_eq!(c.len(), 6);
            // stitched ids are stable: the lowest folded fragment's id
            assert_eq!(c.id(), *c.sources().first().unwrap());
            // members arrive sorted
            let mut sorted = c.members().to_vec();
            sorted.sort_unstable();
            assert_eq!(c.members(), sorted);
        }
        // assignment maps every assigned doc to its stitched cluster
        let assign = s.assignment();
        assert_eq!(assign.len(), s.assigned_docs());
        for (d, id) in &assign {
            assert!(s.cluster(*id).unwrap().members().contains(d));
        }
    }

    #[test]
    fn stitched_rep_matches_an_exact_build_of_the_union() {
        let (m, vecs) = two_shard_merge_with_vecs();
        let s = m.stitch(0.5);
        for c in s.clusters().iter().filter(|c| c.sources().len() > 1) {
            let phis = c.members().iter().map(|d| {
                let shard = usize::from(d.0 >= 100);
                vecs[shard].phi(*d).expect("member has a vector")
            });
            let reference = RepBuilder::new().exact(phis);
            assert_eq!(c.rep().size(), reference.size());
            // merge_from folds whole fragments, in a different
            // floating-point order than one pass over the members; exact
            // in value, not in bits
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            assert!(rel(c.rep().cr_self(), reference.cr_self()) < 1e-9);
            assert!(rel(c.rep().ss(), reference.ss()) < 1e-9);
            assert!(rel(c.avg_sim(), reference.avg_sim()) < 1e-9);
        }
    }

    #[test]
    fn stitch_single_shard_is_a_no_op_even_at_tau_zero() {
        let (m, _) = two_shard_merge_with_vecs();
        // re-wrap just the first shard as a 1-shard merged view
        let single = MergedClustering::new(vec![m.shard(0).clone()]);
        let s = single.stitch(0.0);
        assert_eq!(s.merges(), 0);
        assert_eq!(s.member_lists(), single.member_lists());
        assert_eq!(s.outliers(), single.outliers());
        assert_eq!(
            s.g().to_bits(),
            single.shard(0).g().to_bits(),
            "single-shard stitched G must be bit-identical"
        );
    }

    #[test]
    fn stitch_in_place_attaches_the_view() {
        let mut m = two_shard_merge();
        assert!(m.stitched().is_none());
        m.stitch_in_place(0.5);
        let s = m.stitched().expect("attached");
        assert_eq!(s.threshold(), 0.5);
    }

    #[test]
    fn restitch_none_detaches_the_view() {
        let mut m = two_shard_merge();
        m.stitch_in_place(0.5);
        m.restitch(None);
        assert!(m.stitched().is_none());
        m.restitch(Some(0.0));
        assert_eq!(
            m.stitched().map(StitchedClustering::non_empty_clusters),
            Some(1)
        );
    }

    /// The pairwise merge-join matrix the postings kernel replaces.
    fn pairwise_dot_matrix(reps: &[Option<&ClusterRep>]) -> Vec<f64> {
        let n = reps.len();
        let mut dot = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                if let (Some(a), Some(b)) = (reps[i], reps[j]) {
                    dot[i * n + j] = a.dot_rep(b);
                    dot[j * n + i] = dot[i * n + j];
                }
            }
        }
        dot
    }

    /// A term every non-empty slot may be given, so one postings list spans
    /// all clusters.
    const SHARED_TERM: u32 = 40;

    /// One stitch input slot's members: none (an empty slot), one one-term
    /// φ, or a few φ vectors over a ten-term vocabulary (long postings
    /// lists, and sums that round).
    fn slot_strategy() -> impl Strategy<Value = Option<Vec<SparseVector>>> {
        let phi = prop::collection::vec((0u32..10, 0.01f64..1.0), 1..6);
        (0u32..4, prop::collection::vec(phi, 1..4)).prop_map(|(kind, members)| match kind {
            0 => None,
            1 => Some(vec![tf(&members[0][..1])]),
            _ => Some(members.iter().map(|m| tf(m)).collect()),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The postings-built matrix equals the pairwise `dot_rep` matrix
        /// bit for bit, so every stitch merge decision is unchanged.
        #[test]
        fn postings_dot_matrix_is_bit_identical_to_pairwise_dot_rep(
            slots in prop::collection::vec(slot_strategy(), 1..16),
            shared in prop::bool::ANY,
            shared_weight in 0.01f64..1.0,
        ) {
            let shared = shared.then(|| tf(&[(SHARED_TERM, shared_weight)]));
            let mut builder = RepBuilder::new();
            let built: Vec<Option<ClusterRep>> = slots
                .iter()
                .map(|m| m.as_ref().map(|m| builder.exact(m.iter().chain(&shared))))
                .collect();
            let reps: Vec<Option<&ClusterRep>> = built.iter().map(Option::as_ref).collect();
            let bits = |m: Vec<f64>| m.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(RepPostings::new(&reps).dot_pairs()),
                bits(pairwise_dot_matrix(&reps))
            );
        }
    }

    /// The agglomeration the row-maximum cache replaces, kept as the
    /// oracle: a full rescan of every live pair before each merge, and
    /// folds by `dot_rep` followed by `axpy_in_place`.
    fn reference_stitch(shards: &[Clustering], threshold: f64) -> StitchedClustering {
        fn fold(rep: &mut ClusterRep, other: &ClusterRep) {
            let entries = |r: &ClusterRep| {
                let mut e = Vec::new();
                r.for_each_entry(|t, w| e.push((t, w)));
                SparseVector::from_sorted(e)
            };
            let dot = rep.dot_rep(other);
            let mut vector = entries(rep);
            vector.axpy_in_place(&entries(other), 1.0);
            let mut cr_self = rep.cr_self();
            cr_self += 2.0 * dot + other.cr_self();
            let mut ss = rep.ss();
            ss += other.ss();
            *rep = ClusterRep::from_parts(
                vector.entries().to_vec(),
                rep.size() + other.size(),
                cr_self,
                ss,
            );
        }
        let mut clusters: Vec<StitchedCluster> = Vec::new();
        for (s, clustering) in shards.iter().enumerate() {
            for (local, cl) in clustering.clusters().iter().enumerate() {
                let id = GlobalClusterId { shard: s, local };
                clusters.push(StitchedCluster {
                    id,
                    sources: vec![id],
                    members: cl.members().to_vec(),
                    rep: cl.rep().clone(),
                });
            }
        }
        let input_clusters = clusters.iter().filter(|c| !c.is_empty()).count();
        let mut merges = 0usize;
        if shards.len() > 1 {
            let n = clusters.len();
            let mut alive = vec![true; n];
            let reps: Vec<Option<&ClusterRep>> = clusters
                .iter()
                .map(|c| (!c.is_empty()).then_some(&c.rep))
                .collect();
            let mut dot = RepPostings::new(&reps).dot_pairs();
            loop {
                let mut best: Option<(usize, usize, f64)> = None;
                for i in 0..n {
                    if !alive[i] || clusters[i].is_empty() {
                        continue;
                    }
                    let cr_i = clusters[i].rep.cr_self();
                    for j in (i + 1)..n {
                        if !alive[j] || clusters[j].is_empty() {
                            continue;
                        }
                        let denom = (cr_i * clusters[j].rep.cr_self()).sqrt();
                        if denom <= 0.0 {
                            continue;
                        }
                        let sim = dot[i * n + j] / denom;
                        if best.is_none_or(|(_, _, b)| sim > b) {
                            best = Some((i, j, sim));
                        }
                    }
                }
                let Some((i, j, sim)) = best else { break };
                if sim < threshold {
                    break;
                }
                let (left, right) = clusters.split_at_mut(j);
                fold(&mut left[i].rep, &right[0].rep);
                let moved_members = std::mem::take(&mut right[0].members);
                left[i].members.extend(moved_members);
                let moved_sources = std::mem::take(&mut right[0].sources);
                left[i].sources.extend(moved_sources);
                for x in 0..n {
                    if x == i || x == j {
                        continue;
                    }
                    dot[i * n + x] += dot[j * n + x];
                    dot[x * n + i] = dot[i * n + x];
                }
                alive[j] = false;
                merges += 1;
            }
            clusters = clusters
                .into_iter()
                .zip(alive)
                .filter_map(|(c, keep)| keep.then_some(c))
                .collect();
        }
        for c in &mut clusters {
            c.members.sort_unstable();
            c.sources.sort_unstable();
        }
        let mut outliers: Vec<DocId> = shards
            .iter()
            .flat_map(|c| c.outliers().iter().copied())
            .collect();
        outliers.sort_unstable();
        let g: f64 = clusters.iter().map(|c| c.rep.g_term()).sum();
        StitchedClustering {
            clusters,
            outliers,
            g,
            threshold,
            input_clusters,
            merges,
        }
    }

    /// One stitched cluster with every float as its bits.
    type ClusterBits = (
        GlobalClusterId,
        Vec<GlobalClusterId>,
        Vec<DocId>,
        Vec<(TermId, u64)>,
        [u64; 3],
    );

    /// Everything a stitch reports, floats as bits.
    fn stitch_bits(s: &StitchedClustering) -> (Vec<ClusterBits>, Vec<DocId>, [u64; 4]) {
        let clusters = s
            .clusters()
            .iter()
            .map(|c| {
                let mut entries = Vec::new();
                c.rep()
                    .for_each_entry(|t, w| entries.push((t, w.to_bits())));
                let r = c.rep();
                let stats = [r.cr_self().to_bits(), r.ss().to_bits(), r.size() as u64];
                (
                    c.id(),
                    c.sources().to_vec(),
                    c.members().to_vec(),
                    entries,
                    stats,
                )
            })
            .collect();
        let totals = [
            s.g().to_bits(),
            s.threshold().to_bits(),
            s.merges() as u64,
            s.input_clusters() as u64,
        ];
        (clusters, s.outliers().to_vec(), totals)
    }

    /// One member φ for the stitch oracle: weights mostly from a few
    /// values (sums and `sim`s tie exactly), some signed so that dots
    /// cancel, over a nine-term vocabulary.
    fn oracle_phi() -> impl Strategy<Value = Vec<(u32, f64)>> {
        const STEPS: [f64; 6] = [-1.0, 0.5, 1.0, 1.0, 2.0, 3.0];
        let weight = (0u32..4, 0..STEPS.len(), 0.01f64..2.0).prop_map(|(kind, step, w)| {
            if kind < 3 {
                STEPS[step]
            } else {
                w
            }
        });
        prop::collection::vec((0u32..9, weight), 1..4)
    }

    /// Per-shard clusterings whose slots are empty or hold one fragment:
    /// slot value `k < 4` is [`TIE`]`[k]`, then the random `pool`, and
    /// anything past it an empty slot. The same fragment in several shards
    /// gives identical representatives and so exact `sim` ties. Doc ids
    /// are handed out shard-major, so member sets stay disjoint.
    fn oracle_shards(
        pool: &[Vec<Vec<(u32, f64)>>],
        layout: &[(Vec<usize>, usize)],
    ) -> Vec<Clustering> {
        let mut builder = RepBuilder::new();
        let mut next_doc = 0u64;
        let mut doc = || {
            next_doc += 1;
            DocId(next_doc)
        };
        layout
            .iter()
            .map(|(slots, outliers)| {
                let clusters: Vec<Cluster> = slots
                    .iter()
                    .map(|&k| {
                        let phis: Vec<SparseVector> = match k.checked_sub(TIE.len()) {
                            None => vec![tf(TIE[k])],
                            Some(p) => pool
                                .get(p)
                                .map_or(Vec::new(), |f| f.iter().map(|phi| tf(phi)).collect()),
                        };
                        let members = phis.iter().map(|_| doc()).collect();
                        Cluster::new(members, builder.exact(&phis))
                    })
                    .collect();
                let g = clusters.iter().map(|c| c.rep().g_term()).sum();
                let outliers = (0..*outliers).map(|_| doc()).collect();
                Clustering::new(clusters, outliers, g, 1)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The row-maximum stitch makes the full rescan's every decision:
        /// the same merges in the same order, so the same ids, sources,
        /// members and representative bits, and the same `G`.
        #[test]
        fn stitch_matches_the_full_rescan_oracle_bit_for_bit(
            pool in prop::collection::vec(prop::collection::vec(oracle_phi(), 1..4), 1..6),
            layout in prop::collection::vec((prop::collection::vec(0usize..14, 1..6), 0usize..3), 2..9),
            tau in 0usize..4,
        ) {
            let threshold = [0.0, DEFAULT_STITCH_THRESHOLD, 0.5, f64::INFINITY][tau];
            let shards = oracle_shards(&pool, &layout);
            let merged = MergedClustering::new(shards);
            prop_assert_eq!(
                stitch_bits(&merged.stitch(threshold)),
                stitch_bits(&reference_stitch(merged.shards(), threshold))
            );
        }
    }

    /// Four one-document fragments `x`, `i`, `b`, `j` with an exact tie
    /// that only a fold creates: `(i, j)` is their best pair, the fold
    /// cancels `i`'s term 2, and then `sim(x, i ∪ j) = sim(x, b) = 1/√2`
    /// bit for bit. In slot order `x, i, b, j` the row of `x` must switch
    /// to `i`, and at τ = 0.2 the two choices end in different clusters.
    const TIE: [&[(u32, f64)]; 4] = [
        &[(0, 1.0), (1, 1.0)],
        &[(1, 2.0), (2, 0.5)],
        &[(0, 1.0)],
        &[(1, 2.0), (2, -0.5)],
    ];

    /// After a fold, a row whose best partner ties exactly with its new
    /// `sim` to the survivor takes the survivor when it comes first, as
    /// the full rescan's lexicographic order does ([`TIE`]).
    #[test]
    fn an_equal_sim_to_an_earlier_survivor_takes_the_row() {
        let cluster = |id: u64, phi: &[(u32, f64)]| {
            Cluster::new(vec![DocId(id)], RepBuilder::new().exact([&tf(phi)]))
        };
        let shard = |clusters: Vec<Cluster>| {
            let g = clusters.iter().map(|c| c.rep().g_term()).sum();
            Clustering::new(clusters, Vec::new(), g, 1)
        };
        // slots x = 0:0, i = 0:1, b = 1:0, j = 1:1
        let m = MergedClustering::new(vec![
            shard(vec![cluster(1, TIE[0]), cluster(2, TIE[1])]),
            shard(vec![cluster(3, TIE[2]), cluster(4, TIE[3])]),
        ]);
        let s = m.stitch(DEFAULT_STITCH_THRESHOLD);
        assert_eq!(
            s.member_lists(),
            vec![vec![DocId(1), DocId(2), DocId(4)], vec![DocId(3)]]
        );
        assert_eq!(
            stitch_bits(&s),
            stitch_bits(&reference_stitch(m.shards(), DEFAULT_STITCH_THRESHOLD))
        );
    }

    #[test]
    fn global_ids_are_ordered_and_displayable() {
        let a = GlobalClusterId { shard: 0, local: 5 };
        let b = GlobalClusterId { shard: 1, local: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "0:5");
    }
}
