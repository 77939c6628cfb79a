//! Term→cluster inverted index over the K cluster representatives.
//!
//! The extended K-means spends almost all of its time in the step-1 scoring
//! sweep, where every document is dotted against every representative. With
//! per-cluster dot products that costs O(K·nnz(φ_d)) lookups per document.
//! The [`ClusterIndex`] turns the sweep inside out: one postings list per
//! term, `TermId → [(cluster, weight)]`, so a single pass over φ_d's terms
//! accumulates `c⃗_q · φ_d` for **all** K clusters at once into a scratch
//! row — O(Σ_t |postings(t)|) work, which for topical vocabularies is far
//! below K·nnz (most terms live in few clusters' representatives). The same
//! cluster-side indexing idea appears in the short-text-stream literature
//! (Rakib et al. 2021; Karkali et al. 2014).
//!
//! # Bit-identity contract
//!
//! For each cluster `q`, [`ClusterIndex::dot_all`] accumulates
//! `weight(q,t)·φ[t]` in φ's term order — exactly the order
//! [`ClusterRep::dot_doc`] uses — and every posting weight is maintained by
//! the same scalar operations, in the same sequence, as the corresponding
//! sparse-representative entry. The scores are therefore bit-identical to
//! per-cluster dot products, which is what preserves the workspace's
//! thread-count determinism contract end to end.

use nidc_obs::{buckets, DeepSize, LazyCounter, LazyGauge, LazyHistogram};
use nidc_textproc::{SparseVector, TermId};

use crate::ClusterRep;

/// Postings visited by [`ClusterIndex::dot_all`] — the realised
/// `Σ_t |postings(t)|` work of the step-1 sweep (compare against
/// `nidc_kmeans_step1_candidates_total`, the per-cluster K·rows bound,
/// to see the inverted-index win per run).
static POSTINGS_TOUCHED: LazyCounter = LazyCounter::new("nidc_index_postings_touched_total");
/// Incremental `add(cluster, φ)` maintenance operations.
static ADD_OPS: LazyCounter = LazyCounter::new("nidc_index_add_ops_total");
/// Incremental `remove(cluster, φ)` maintenance operations.
static REMOVE_OPS: LazyCounter = LazyCounter::new("nidc_index_remove_ops_total");
/// Full rebuilds from the representatives (once per K-means iteration).
static REBUILDS: LazyCounter = LazyCounter::new("nidc_index_rebuilds_total");
/// Wall time of one full rebuild — re-mirroring every representative entry
/// into the postings spine. Fine buckets: a rebuild over a window-sized
/// vocabulary runs in microseconds.
static REBUILD_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_index_rebuild_seconds", buckets::FINE_SECONDS);
/// Heap bytes held by the postings spine and lists, sampled after each
/// rebuild (last-rebuild semantics — incremental add/remove drift between
/// rebuilds is not tracked; the K-means loop rebuilds once per iteration).
static POSTINGS_BYTES: LazyGauge = LazyGauge::new("nidc_mem_index_postings_bytes");

/// An inverted postings map `TermId → [(cluster, weight)]` mirroring the
/// sparse representatives of K clusters.
///
/// The postings spine is a `Vec` indexed directly by term id — term ids are
/// contiguous vocabulary indices, so the per-term lookup in the hot
/// [`ClusterIndex::dot_all`] loop is a single array access (a `BTreeMap`
/// spine was measured ~5× slower there; the log-depth pointer chase
/// swamped the postings savings). Spine memory is O(max term id), once per
/// index, like the value array of a [`crate::RepBuilder`].
///
/// Postings lists are kept sorted by cluster id; weights mirror the
/// representatives' stored entries bit-exactly (entries that cancel to
/// exactly `0.0` are pruned on both sides).
#[derive(Debug, Clone, Default)]
pub struct ClusterIndex {
    k: usize,
    postings: Vec<Vec<(u32, f64)>>,
}

impl ClusterIndex {
    /// An empty index over `k` cluster slots.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            postings: Vec::new(),
        }
    }

    /// Number of cluster slots.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of terms with at least one posting.
    pub fn term_count(&self) -> usize {
        self.postings.iter().filter(|l| !l.is_empty()).count()
    }

    /// Length of the postings spine (highest term id ever stored + 1) —
    /// the O(|V|) part of the index's memory footprint.
    pub fn term_slots(&self) -> usize {
        self.postings.len()
    }

    /// Total number of `(cluster, weight)` postings across all terms — the
    /// memory footprint driver, and the per-sweep work bound `Σ_t |postings|`
    /// when summed over a document's terms.
    pub fn postings_len(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Whether no postings are stored.
    pub fn is_empty(&self) -> bool {
        self.postings.iter().all(Vec::is_empty)
    }

    /// The mirrored weight of `(term, cluster)` (0.0 if absent).
    pub fn weight(&self, t: TermId, cluster: usize) -> f64 {
        self.postings
            .get(t.index())
            .and_then(|list| {
                list.binary_search_by_key(&(cluster as u32), |&(q, _)| q)
                    .ok()
                    .map(|i| list[i].1)
            })
            .unwrap_or(0.0)
    }

    fn update(&mut self, cluster: usize, phi: &SparseVector, scale: f64) {
        debug_assert!(
            cluster < self.k,
            "cluster {cluster} out of range {}",
            self.k
        );
        let q = cluster as u32;
        for (t, w) in phi.iter() {
            let idx = t.index();
            if idx >= self.postings.len() {
                self.postings.resize_with(idx + 1, Vec::new);
            }
            let list = &mut self.postings[idx];
            match list.binary_search_by_key(&q, |&(c, _)| c) {
                Ok(i) => {
                    // same scalar op as the sparse rep's axpy: a + scale·b
                    list[i].1 += scale * w;
                    if list[i].1 == 0.0 {
                        // prune at the same condition the sparse rep prunes
                        // its entries, so the two stay exact mirrors and an
                        // emptied cluster returns to exact emptiness
                        list.remove(i);
                    }
                }
                Err(i) => {
                    let scaled = scale * w;
                    if scaled != 0.0 {
                        list.insert(i, (q, scaled));
                    }
                }
            }
        }
    }

    /// Mirrors `reps[cluster].add(φ)`: folds `+φ` into the cluster's
    /// postings.
    pub fn add(&mut self, cluster: usize, phi: &SparseVector) {
        ADD_OPS.inc();
        self.update(cluster, phi, 1.0);
    }

    /// Mirrors `reps[cluster].remove(φ)`: folds `−φ` into the cluster's
    /// postings. Expiration and step-1 reassignments both feed through here.
    pub fn remove(&mut self, cluster: usize, phi: &SparseVector) {
        REMOVE_OPS.inc();
        self.update(cluster, phi, -1.0);
    }

    /// Rebuilds all postings from the representatives' stored entries (used
    /// after an exact recompute clears floating-point drift from the reps,
    /// so index and reps stay bit-identical mirrors of each other).
    pub fn rebuild(&mut self, reps: &[ClusterRep]) {
        REBUILDS.inc();
        let _span = nidc_obs::span!("index.rebuild");
        let _timer = REBUILD_SECONDS.start_timer();
        self.k = reps.len();
        // keep the spine and list allocations; the K-means loop rebuilds
        // once per iteration
        self.postings.iter_mut().for_each(Vec::clear);
        for (q, rep) in reps.iter().enumerate() {
            rep.for_each_entry(|t, w| {
                let idx = t.index();
                if idx >= self.postings.len() {
                    self.postings.resize_with(idx + 1, Vec::new);
                }
                // clusters are visited in ascending q, so each list stays
                // sorted by construction
                self.postings[idx].push((q as u32, w));
            });
        }
        // the size is an O(max term id) walk of the spine: pay for it only
        // when someone records it
        if nidc_obs::enabled() {
            POSTINGS_BYTES.set(self.deep_size_bytes());
        }
    }

    /// Scores `φ` against **all** K clusters in one pass over its terms:
    /// `out[q] = c⃗_q · φ`, with `out` (length ≥ k) used as the scratch row.
    ///
    /// Cost: O(Σ_{t∈φ} |postings(t)|). Per cluster, contributions accumulate
    /// in φ's term order, so each `out[q]` is bit-identical to
    /// `reps[q].dot_doc(φ)`.
    pub fn dot_all(&self, phi: &SparseVector, out: &mut [f64]) {
        debug_assert!(out.len() >= self.k, "scratch row shorter than k");
        out[..self.k].fill(0.0);
        // Accumulated locally and published once per call, so the hot
        // posting loop never touches an atomic.
        let mut touched = 0usize;
        for (t, w) in phi.iter() {
            if let Some(list) = self.postings.get(t.index()) {
                touched += list.len();
                for &(q, cw) in list {
                    out[q as usize] += cw * w;
                }
            }
        }
        POSTINGS_TOUCHED.add(touched as u64);
    }
}

impl DeepSize for ClusterIndex {
    /// Heap footprint: the spine's capacity plus every posting list's
    /// capacity (spare capacity is kept deliberately across rebuilds, so the
    /// gauge should see it).
    fn deep_size_bytes(&self) -> u64 {
        let spine = self.postings.capacity() * std::mem::size_of::<Vec<(u32, f64)>>();
        let lists: usize = self
            .postings
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<(u32, f64)>())
            .sum();
        (spine + lists) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phi(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn docs() -> Vec<SparseVector> {
        vec![
            phi(&[(0, 0.5), (1, 0.2)]),
            phi(&[(0, 0.3), (2, 0.4)]),
            phi(&[(1, 0.6), (2, 0.1), (3, 0.2)]),
            phi(&[(0, 0.1), (3, 0.7)]),
            phi(&[(4, 0.9)]),
        ]
    }

    /// Mirrored reps + index, documents dealt round-robin over k clusters.
    fn mirrored(k: usize) -> (Vec<ClusterRep>, ClusterIndex, Vec<SparseVector>) {
        let ds = docs();
        let mut reps = vec![ClusterRep::new(); k];
        let mut index = ClusterIndex::new(k);
        for (i, d) in ds.iter().enumerate() {
            reps[i % k].add(d);
            index.add(i % k, d);
        }
        (reps, index, ds)
    }

    #[test]
    fn dot_all_is_bit_identical_to_per_cluster_dots() {
        let (reps, index, ds) = mirrored(3);
        let mut row = vec![0.0; 3];
        for d in &ds {
            index.dot_all(d, &mut row);
            for (q, rep) in reps.iter().enumerate() {
                assert_eq!(row[q], rep.dot_doc(d), "cluster {q}");
            }
        }
    }

    #[test]
    fn remove_mirrors_rep_remove() {
        let (mut reps, mut index, ds) = mirrored(2);
        reps[0].remove(&ds[0]);
        index.remove(0, &ds[0]);
        let mut row = vec![0.0; 2];
        for d in &ds {
            index.dot_all(d, &mut row);
            assert_eq!(row[0], reps[0].dot_doc(d));
            assert_eq!(row[1], reps[1].dot_doc(d));
        }
    }

    #[test]
    fn removing_last_member_restores_exact_emptiness() {
        // regression: the zeroing-on-empty invariant holds for the index too
        let d = phi(&[(0, 0.3), (2, 0.7)]);
        let mut index = ClusterIndex::new(1);
        index.add(0, &d);
        assert_eq!(index.postings_len(), 2);
        index.remove(0, &d);
        assert!(index.is_empty(), "all postings must cancel exactly");
        assert_eq!(index.term_count(), 0);
        assert_eq!(index.postings_len(), 0);
        let mut row = vec![1.0; 1];
        index.dot_all(&d, &mut row);
        assert_eq!(row[0], 0.0);
    }

    #[test]
    fn rebuild_matches_incremental_postings() {
        let (reps, index, ds) = mirrored(3);
        let mut rebuilt = ClusterIndex::new(3);
        rebuilt.rebuild(&reps);
        assert_eq!(rebuilt.postings_len(), index.postings_len());
        assert_eq!(rebuilt.term_count(), index.term_count());
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        for d in &ds {
            index.dot_all(d, &mut a);
            rebuilt.dot_all(d, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn weight_lookup_and_counts() {
        let mut index = ClusterIndex::new(2);
        index.add(0, &phi(&[(3, 1.5)]));
        index.add(1, &phi(&[(3, 2.0), (7, 0.5)]));
        assert_eq!(index.k(), 2);
        assert_eq!(index.weight(TermId(3), 0), 1.5);
        assert_eq!(index.weight(TermId(3), 1), 2.0);
        assert_eq!(index.weight(TermId(7), 0), 0.0);
        assert_eq!(index.weight(TermId(9), 1), 0.0);
        assert_eq!(index.term_count(), 2);
        assert_eq!(index.postings_len(), 3);
    }

    #[test]
    fn deep_size_covers_spine_and_lists() {
        let mut index = ClusterIndex::new(2);
        assert_eq!(index.deep_size_bytes(), 0);
        index.add(0, &phi(&[(3, 1.5)]));
        index.add(1, &phi(&[(3, 2.0), (7, 0.5)]));
        // spine reaches term 7 → ≥8 slots × 24B, plus ≥3 postings × 16B.
        assert!(index.deep_size_bytes() >= (8 * 24 + 3 * 16) as u64);
    }

    #[test]
    fn dot_all_uses_only_first_k_slots() {
        let mut index = ClusterIndex::new(2);
        index.add(0, &phi(&[(0, 1.0)]));
        let mut row = vec![7.0; 4]; // oversized scratch: slots beyond k untouched
        index.dot_all(&phi(&[(0, 2.0)]), &mut row);
        assert_eq!(row, vec![2.0, 0.0, 7.0, 7.0]);
    }
}
