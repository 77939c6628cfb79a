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
//! # The live vector of a K-means run
//!
//! Within a run the index *is* each cluster's vector: a step-1 move folds
//! `±φ` into the two slots it touches, and the [`ClusterRep`]s are never
//! edited. After any iteration that moved a document the run rebuilds the
//! touched representatives exactly ([`crate::RepBuilder::exact`]) and the
//! index from them ([`ClusterIndex::rebuild`]), shedding the moves' drift.
//! [`ClusterIndex::dot_all`] accumulates `weight(q,t)·φ[t]` in φ's term
//! order, as [`ClusterRep::dot_doc`] does, so right after a rebuild every
//! score is bit-identical to `reps[q].dot_doc(φ)` — which preserves the
//! workspace's thread-count determinism end to end.
//!
//! When a cluster's last member leaves, the cancelled weights need not sum
//! to exactly `0.0`, so its slot may keep floating-point residue until the
//! rebuild. The residue is never scored: an empty cluster's join delta is
//! exactly `0.0` under both criteria whatever the dot product (see
//! [`crate::RepStats::g_term_if_added_from_dot`]), and a document moves
//! only on a delta strictly above `0.0`.

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
/// Full rebuilds from the representatives (at the start of a K-means run
/// and after each iteration that moved a document).
static REBUILDS: LazyCounter = LazyCounter::new("nidc_index_rebuilds_total");
/// Wall time of one full rebuild — copying every representative entry
/// into the postings spine. Fine buckets: a rebuild over a window-sized
/// vocabulary runs in microseconds.
static REBUILD_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_index_rebuild_seconds", buckets::FINE_SECONDS);
/// Heap bytes held by the postings spine and lists, sampled after each
/// rebuild (last-rebuild semantics — growth from add/remove between
/// rebuilds is not tracked).
static POSTINGS_BYTES: LazyGauge = LazyGauge::new("nidc_mem_index_postings_bytes");

/// An inverted postings map `TermId → [(cluster, weight)]` over the vectors
/// of K clusters.
///
/// The postings spine is a `Vec` indexed directly by term id — term ids are
/// contiguous vocabulary indices, so the per-term lookup in the hot
/// [`ClusterIndex::dot_all`] loop is a single array access (a `BTreeMap`
/// spine was measured ~5× slower there; the log-depth pointer chase
/// swamped the postings savings). Spine memory is O(max term id), once per
/// index, like the value array of a [`crate::RepBuilder`].
///
/// Postings lists are kept sorted by cluster id. After a rebuild the weights
/// are the representatives' stored entries, bit for bit; a weight that a
/// move cancels to exactly `0.0` is pruned, as [`crate::RepBuilder::exact`]
/// drops exact zeros.
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

    /// The stored weight of `(term, cluster)` (0.0 if absent).
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
                    list[i].1 += scale * w;
                    if list[i].1 == 0.0 {
                        // no stored zeros, as in a built representative
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

    /// A document joins `cluster`: folds `+φ` into its postings.
    pub fn add(&mut self, cluster: usize, phi: &SparseVector) {
        ADD_OPS.inc();
        self.update(cluster, phi, 1.0);
    }

    /// A document leaves `cluster`: folds `−φ` into its postings. An
    /// emptied slot may keep residue until the next rebuild (see the
    /// module docs).
    pub fn remove(&mut self, cluster: usize, phi: &SparseVector) {
        REMOVE_OPS.inc();
        self.update(cluster, phi, -1.0);
    }

    /// Rebuilds all postings from the representatives' stored entries, which
    /// replaces whatever the moves since the last rebuild folded in.
    pub fn rebuild(&mut self, reps: &[ClusterRep]) {
        REBUILDS.inc();
        let _span = nidc_obs::span!("index.rebuild");
        let _timer = REBUILD_SECONDS.start_timer();
        self.k = reps.len();
        // keep the spine and list allocations; the K-means loop rebuilds
        // after every iteration that moved a document
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
    /// in φ's term order, so right after [`ClusterIndex::rebuild`] each
    /// `out[q]` is bit-identical to `reps[q].dot_doc(φ)`.
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
    use crate::RepBuilder;

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

    /// Exact reps of `ds` dealt round-robin over k clusters, skipping the
    /// document at `skip`.
    fn exact_reps(ds: &[SparseVector], k: usize, skip: Option<usize>) -> Vec<ClusterRep> {
        let mut builder = RepBuilder::new();
        (0..k)
            .map(|q| {
                let members = ds
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i % k == q && Some(i) != skip);
                builder.exact(members.map(|(_, d)| d))
            })
            .collect()
    }

    /// The same round-robin deal folded into an index one `add` at a time.
    fn folded(ds: &[SparseVector], k: usize) -> ClusterIndex {
        let mut index = ClusterIndex::new(k);
        for (i, d) in ds.iter().enumerate() {
            index.add(i % k, d);
        }
        index
    }

    #[test]
    fn dot_all_is_bit_identical_to_per_cluster_dots() {
        let ds = docs();
        let reps = exact_reps(&ds, 3, None);
        let mut index = ClusterIndex::new(3);
        index.rebuild(&reps);
        let mut row = vec![0.0; 3];
        for d in &ds {
            index.dot_all(d, &mut row);
            for (q, rep) in reps.iter().enumerate() {
                assert_eq!(row[q].to_bits(), rep.dot_doc(d).to_bits(), "cluster {q}");
            }
        }
    }

    #[test]
    fn remove_matches_an_exact_rebuild_of_the_rest() {
        let ds = docs();
        let mut index = folded(&ds, 2);
        index.remove(0, &ds[0]);
        let rest = exact_reps(&ds, 2, Some(0));
        let mut row = vec![0.0; 2];
        for d in &ds {
            index.dot_all(d, &mut row);
            for (q, rep) in rest.iter().enumerate() {
                assert!((row[q] - rep.dot_doc(d)).abs() < 1e-12, "cluster {q}");
            }
        }
    }

    #[test]
    fn removing_last_member_restores_exact_emptiness() {
        // weights that cancel to exactly 0.0 are pruned
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
    fn rebuild_from_exact_reps_matches_folded_postings() {
        // positive weights never cancel, so folding members in order sums
        // each weight exactly as the builder does
        let ds = docs();
        let index = folded(&ds, 3);
        let mut rebuilt = ClusterIndex::new(3);
        rebuilt.rebuild(&exact_reps(&ds, 3, None));
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
