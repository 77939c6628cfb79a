//! Term→cluster index over the K cluster representatives.
//!
//! The extended K-means spends almost all of its time in the step-1 scoring
//! sweep, where every document is dotted against every representative. The
//! [`ClusterIndex`] turns the sweep inside out: one row of K weights per
//! term, `TermId → [weight(q, t); K]`, so a single pass over φ_d's terms
//! accumulates `c⃗_q · φ_d` for **all** K clusters at once — a fixed-width
//! sweep of `⌈K/8⌉` eight-lane blocks per term, with no per-cluster lookup
//! and no scattered update. The same cluster-side indexing idea appears in
//! the short-text-stream literature (Rakib et al. 2021; Karkali et al.
//! 2014).
//!
//! # The live vector of a K-means run
//!
//! Within a run the index *is* each cluster's vector: a step-1 move folds
//! `±φ` into the cells it touches, and the [`ClusterRep`]s are never
//! edited. After any iteration that moved a document the run rebuilds the
//! touched representatives exactly ([`crate::RepBuilder::exact`]) and
//! refreshes only their columns ([`ClusterIndex::refresh`]), shedding the
//! moves' drift: the cells a move raised from zero are zeroed, then the
//! old entries each touched cluster's new representative drops, and the
//! new entries are written over the rest. A full
//! [`ClusterIndex::rebuild`] runs only at the start of a run, where every
//! representative is new. [`ClusterIndex::dot_all`] accumulates
//! `weight(q,t)·φ[t]` in φ's term order from `+0.0`, as
//! [`ClusterRep::dot_doc`] does. A cell a cluster does not hold is `+0.0`
//! and adds an exact `±0.0`, which leaves every running sum unchanged: a
//! sum that starts at `+0.0` is never `−0.0`, because `x + (−x)` rounds to
//! `+0.0`. So right after a rebuild or a refresh every score is
//! bit-identical to `reps[q].dot_doc(φ)`, which preserves the workspace's
//! thread-count determinism end to end.
//!
//! When a cluster's last member leaves, the cancelled weights need not sum
//! to exactly `0.0`, so its cells may keep floating-point residue until the
//! refresh. The residue is never scored: an empty cluster's join delta is
//! exactly `0.0` under both criteria whatever the dot product (see
//! [`crate::RepStats::g_term_if_added_from_dot`]), and a document moves
//! only on a delta strictly above `0.0`.
//!
//! # Storage
//!
//! A term id is its row number: the rows lie back to back in one
//! `Vec<f64>`, each K cells rounded up to a multiple of 8. The index is
//! meant for the ranked ids `0..n` of a K-means run ([`crate::TermRank`]),
//! where every id is a term of the window, so it needs no row table. A
//! rebuild lays out the n rows zero-filled and writes the entries,
//! O(Σ_p nnz(c⃗_p) + n·K), with no per-term heap allocation once the
//! vectors have grown; a refresh costs
//! O(raised cells + Σ_{p touched} (nnz(old c⃗_p) + nnz(new c⃗_p))). A term
//! no cluster holds is a row of `+0.0` cells, which scores an exact `±0.0`
//! like any absent cell and counts no posting. A row costs K × 8 B and
//! ⌈K/8⌉ blocks per sweep whether the term sits in one cluster or in all
//! of them, where sparse postings cost per (term, cluster) pair: rows win
//! at the K ≤ 32 of every workload, but at K in the hundreds sparse
//! postings would be the better layout again (DESIGN.md §4.2).

use nidc_obs::{buckets, DeepSize, LazyCounter, LazyHistogram};
use nidc_textproc::TermId;

use crate::ClusterRep;

/// Postings visited by [`ClusterIndex::dot_all`] — the nonzero cells of the
/// rows it reads, i.e. the `Σ_t |postings(t)|` of a sparse index (compare
/// against `nidc_kmeans_step1_candidates_total`, the per-cluster K·rows
/// bound, to see how sparse the rows are).
static POSTINGS_TOUCHED: LazyCounter = LazyCounter::new("nidc_index_postings_touched_total");
/// Incremental `add(cluster, φ)` maintenance operations.
static ADD_OPS: LazyCounter = LazyCounter::new("nidc_index_add_ops_total");
/// Incremental `remove(cluster, φ)` maintenance operations.
static REMOVE_OPS: LazyCounter = LazyCounter::new("nidc_index_remove_ops_total");
/// Full rebuilds from the representatives, at the start of each K-means
/// run (an iteration that moved a document refreshes the touched columns
/// instead).
static REBUILDS: LazyCounter = LazyCounter::new("nidc_index_rebuilds_total");
/// Wall time of one full rebuild, at the start of each K-means run —
/// writing every representative entry into its row. Fine buckets: a
/// rebuild over a window-sized vocabulary runs in microseconds.
static REBUILD_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_index_rebuild_seconds", buckets::FINE_SECONDS);

/// Clusters scored per block of [`ClusterIndex::dot_all`]; rows are padded
/// to a multiple of it.
const LANES: usize = 8;

/// A dense map `TermId → [weight(q, t); K]` over the vectors of K clusters.
///
/// Row `t` is term `t`'s, so the per-term lookup in the hot
/// [`ClusterIndex::dot_all`] loop is a single array access; there is a row
/// for every id up to the largest met, so the ids must be dense — a K-means
/// run's ranked ids.
///
/// After a rebuild or a refresh the cells are the representatives' stored
/// entries, bit for bit, and `+0.0` elsewhere. A move adds `±φ[t]` to a
/// cell; a weight it cancels to exactly `0.0` counts as absent, as
/// [`crate::RepBuilder::exact`] drops exact zeros.
#[derive(Debug, Clone, Default)]
pub struct ClusterIndex {
    k: usize,
    /// The rows, [`ClusterIndex::stride`] cells each; cells from `k` on
    /// stay `+0.0`.
    cells: Vec<f64>,
    /// Per row: its nonzero cells, i.e. its postings in a sparse index.
    nonzero: Vec<u32>,
    /// The cells a move raised from zero to nonzero since the last rebuild
    /// or refresh, by index into `cells` (a cell raised twice is listed
    /// twice).
    raised: Vec<u32>,
    /// Scratch of [`ClusterIndex::refresh`]: the terms of the old
    /// representative being replaced.
    old_terms: Vec<TermId>,
}

impl ClusterIndex {
    /// An empty index over `k` cluster slots.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Number of cluster slots.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cells per row: `k` rounded up to a multiple of [`LANES`].
    fn stride(&self) -> usize {
        self.k.next_multiple_of(LANES)
    }

    /// Number of terms with at least one posting.
    pub fn term_count(&self) -> usize {
        self.nonzero.iter().filter(|&&n| n > 0).count()
    }

    /// Total number of nonzero `(term, cluster)` weights — the per-sweep
    /// work of a sparse index, `Σ_t |postings|`, when summed over a
    /// document's terms.
    pub fn postings_len(&self) -> usize {
        self.nonzero.iter().map(|&n| n as usize).sum()
    }

    /// Whether no postings are stored.
    pub fn is_empty(&self) -> bool {
        self.postings_len() == 0
    }

    /// The stored weight of `(term, cluster)` (0.0 if absent).
    pub fn weight(&self, t: TermId, cluster: usize) -> f64 {
        if cluster < self.k && t.index() < self.nonzero.len() {
            self.cells[t.index() * self.stride() + cluster]
        } else {
            0.0
        }
    }

    /// Term `t`'s row, appending rows of `+0.0` cells up to it.
    fn row_or_grow(&mut self, t: TermId) -> usize {
        let r = t.index();
        if r >= self.nonzero.len() {
            self.cells.resize((r + 1) * self.stride(), 0.0);
            self.nonzero.resize(r + 1, 0);
        }
        r
    }

    /// Sets cell `at` of row `r` to `w`, keeping the row's count.
    fn set_cell(&mut self, r: usize, at: usize, w: f64) {
        let cell = &mut self.cells[at];
        match (*cell == 0.0, w == 0.0) {
            (true, false) => self.nonzero[r] += 1,
            (false, true) => self.nonzero[r] -= 1,
            _ => {}
        }
        *cell = w;
    }

    fn update(&mut self, cluster: usize, phi: &[(TermId, f64)], scale: f64) {
        // a larger cluster id would write into a padding cell or the next row
        assert!(
            cluster < self.k,
            "cluster {cluster} out of range {}",
            self.k
        );
        let stride = self.stride();
        for &(t, w) in phi {
            let r = self.row_or_grow(t);
            let at = r * stride + cluster;
            let cell = &mut self.cells[at];
            let was_zero = *cell == 0.0;
            *cell += scale * w;
            match (was_zero, *cell == 0.0) {
                (true, false) => {
                    self.nonzero[r] += 1;
                    self.raised
                        .push(u32::try_from(at).expect("index cells exceed u32"));
                }
                (false, true) => self.nonzero[r] -= 1,
                _ => {}
            }
        }
    }

    /// A document joins `cluster`: folds `+φ` into its cells.
    pub fn add(&mut self, cluster: usize, phi: &(impl AsRef<[(TermId, f64)]> + ?Sized)) {
        ADD_OPS.inc();
        self.update(cluster, phi.as_ref(), 1.0);
    }

    /// A document leaves `cluster`: folds `−φ` into its cells. An emptied
    /// slot may keep residue until the next refresh (see the module docs).
    pub fn remove(&mut self, cluster: usize, phi: &(impl AsRef<[(TermId, f64)]> + ?Sized)) {
        REMOVE_OPS.inc();
        self.update(cluster, phi.as_ref(), -1.0);
    }

    /// Rebuilds every row from the representatives' stored entries, which
    /// replaces whatever the moves since the last rebuild (or an earlier
    /// run) folded in: K becomes `reps.len()`, rows `0..terms` are laid out
    /// zero-filled at once, and the entries are written — O(Σ_p nnz(c⃗_p) +
    /// terms·K), with no allocation once the vectors have grown. A K-means
    /// run passes its n ranked terms, so no move grows the rows and they
    /// hold no spare capacity; a term at or past `terms` still gets its
    /// row, appended on demand.
    pub fn rebuild(&mut self, reps: &[ClusterRep], terms: usize) {
        REBUILDS.inc();
        let _span = nidc_obs::span!("index.rebuild", REBUILD_SECONDS);
        self.k = reps.len();
        let stride = self.stride();
        self.raised.clear();
        self.cells.clear();
        self.cells.reserve_exact(terms * stride);
        self.cells.resize(terms * stride, 0.0);
        self.nonzero.clear();
        self.nonzero.reserve_exact(terms);
        self.nonzero.resize(terms, 0);
        for (q, rep) in reps.iter().enumerate() {
            rep.for_each_entry(|t, w| {
                let r = self.row_or_grow(t);
                self.cells[r * stride + q] = w;
                self.nonzero[r] += u32::from(w != 0.0);
            });
        }
    }

    /// Brings the columns of the clusters the moves touched up to date with
    /// `reps`, leaving the index equal to [`ClusterIndex::rebuild`]`(reps)`
    /// cell for cell (it may hold more rows of `+0.0` cells).
    ///
    /// `stale` must name every cluster an [`ClusterIndex::add`] or
    /// [`ClusterIndex::remove`] touched since the last rebuild or refresh,
    /// each with its representative as of then; the clusters it does not
    /// name must hold their entries of `reps` already. The cells the moves
    /// raised from zero are zeroed; then one merge pass over each stale
    /// cluster's old and new terms zeroes the old entries the new
    /// representative drops and writes its entries from `reps` — O(raised
    /// cells + Σ_stale (nnz(old) + nnz(new))), one cell visit per term of
    /// either, with no zero-fill.
    pub fn refresh<'a>(
        &mut self,
        reps: &[ClusterRep],
        stale: impl IntoIterator<Item = (usize, &'a ClusterRep)>,
    ) {
        assert_eq!(reps.len(), self.k, "refresh must keep k");
        let _span = nidc_obs::span!("index.refresh");
        let stride = self.stride();
        // Every nonzero cell of a stale column is a raised cell or an old
        // entry: zeroing the raised cells, then the old entries the new
        // representative drops, and writing its entries over the rest
        // leaves exactly the new column.
        for i in 0..self.raised.len() {
            let at = self.raised[i] as usize;
            self.set_cell(at / stride, at, 0.0);
        }
        self.raised.clear();
        let mut old_terms = std::mem::take(&mut self.old_terms);
        for (q, old) in stale {
            old_terms.clear();
            old.for_each_entry(|t, _| old_terms.push(t));
            // both term lists ascend: an old term below the next new one is
            // one the new representative dropped (an old entry has a row)
            let mut olds = old_terms.iter().copied().peekable();
            reps[q].for_each_entry(|t, w| {
                while let Some(o) = olds.next_if(|&o| o < t) {
                    self.set_cell(o.index(), o.index() * stride + q, 0.0);
                }
                olds.next_if_eq(&t);
                let r = self.row_or_grow(t);
                self.set_cell(r, r * stride + q, w);
            });
            for o in olds {
                self.set_cell(o.index(), o.index() * stride + q, 0.0);
            }
        }
        self.old_terms = old_terms;
    }

    /// Scores `φ` against **all** K clusters in one pass over its terms per
    /// block of 8 clusters: `out[q] = c⃗_q · φ`, for `out` of length ≥ k.
    ///
    /// Cost: O(nnz(φ)·⌈K/8⌉) fixed-width blocks. Per cluster, products
    /// accumulate in φ's term order from `+0.0`, so right after
    /// [`ClusterIndex::rebuild`] or [`ClusterIndex::refresh`] each `out[q]`
    /// is bit-identical to `reps[q].dot_doc(φ)` (see the module docs for
    /// the zero cells).
    pub fn dot_all(&self, phi: &(impl AsRef<[(TermId, f64)]> + ?Sized), out: &mut [f64]) {
        debug_assert!(out.len() >= self.k, "scratch row shorter than k");
        let stride = self.stride();
        // Accumulated locally and published once per call, so the hot
        // loop never touches an atomic.
        let mut touched = 0usize;
        for (block, scores) in out[..self.k].chunks_mut(LANES).enumerate() {
            let mut acc = [0.0f64; LANES];
            for &(t, w) in phi.as_ref() {
                let Some(&nonzero) = self.nonzero.get(t.index()) else {
                    continue;
                };
                if block == 0 {
                    touched += nonzero as usize;
                }
                let at = t.index() * stride + block * LANES;
                for (a, &c) in acc.iter_mut().zip(&self.cells[at..at + LANES]) {
                    *a += c * w;
                }
            }
            scores.copy_from_slice(&acc[..scores.len()]);
        }
        POSTINGS_TOUCHED.add(touched as u64);
    }
}

impl DeepSize for ClusterIndex {
    /// Heap footprint from capacities, O(1): the rows (their padding
    /// included — it is resident), the nonzero counts, the raised-cell list
    /// and the refresh's scratch.
    fn deep_size_bytes(&self) -> u64 {
        let cells = self.cells.capacity() * std::mem::size_of::<f64>();
        let nonzero = self.nonzero.capacity() * std::mem::size_of::<u32>();
        let raised = self.raised.capacity() * std::mem::size_of::<u32>();
        let old_terms = self.old_terms.capacity() * std::mem::size_of::<TermId>();
        (cells + nonzero + raised + old_terms) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepBuilder;
    use nidc_textproc::SparseVector;

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
        index.rebuild(&reps, 0);
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
        rebuilt.rebuild(&exact_reps(&ds, 3, None), 0);
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
    fn deep_size_covers_the_rows() {
        let mut index = ClusterIndex::new(2);
        assert_eq!(index.deep_size_bytes(), 0);
        index.add(0, &phi(&[(3, 1.5)]));
        index.add(1, &phi(&[(3, 2.0), (7, 0.5)]));
        // the rows reach term 7: 8 rows × 8 cells × 8 B, plus 8 counts × 4 B
        assert!(index.deep_size_bytes() >= (8 * 8 * 8 + 8 * 4) as u64);
    }

    /// Every stored weight of `a` and `b` over terms `0..dim` and clusters
    /// `0..k`, compared bit for bit, plus their posting and term counts.
    fn assert_same_postings(a: &ClusterIndex, b: &ClusterIndex, dim: u32, k: usize) {
        assert_eq!(a.postings_len(), b.postings_len());
        assert_eq!(a.term_count(), b.term_count());
        for t in 0..dim {
            for q in 0..k {
                let (x, y) = (a.weight(TermId(t), q), b.weight(TermId(t), q));
                assert_eq!(x.to_bits(), y.to_bits(), "term {t} cluster {q}");
            }
        }
    }

    #[test]
    fn removing_down_to_empty_leaves_no_posting() {
        // one document per cluster: each weight leaves exactly as it came
        let ds = docs();
        let mut index = ClusterIndex::new(ds.len());
        index.rebuild(&exact_reps(&ds, ds.len(), None), 0);
        assert_eq!(index.postings_len(), 10);
        for (q, d) in ds.iter().enumerate() {
            index.remove(q, d);
        }
        assert!(index.is_empty());
        assert_eq!(index.term_count(), 0);
        let mut row = vec![1.0; ds.len()];
        for d in &ds {
            index.dot_all(d, &mut row);
            assert!(row.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn a_reused_index_holds_no_stale_term() {
        // a larger earlier problem: more clusters, terms up to 40, and a
        // move that filed a term of its own
        let big: Vec<SparseVector> = (0..12u32)
            .map(|i| phi(&[(i, 1.0), (20 + i, 0.5), (40, 0.25)]))
            .collect();
        let mut index = ClusterIndex::new(5);
        index.rebuild(&exact_reps(&big, 5, None), 42);
        index.add(0, &phi(&[(33, 2.0), (40, 1.0)]));
        index.add(3, &phi(&[(41, 2.0)]));
        // a smaller one reuses it
        let small = docs();
        let reps = exact_reps(&small, 2, None);
        index.rebuild(&reps, 0);
        let mut fresh = ClusterIndex::new(2);
        fresh.rebuild(&reps, 0);
        assert_same_postings(&index, &fresh, 45, 5);
        assert_eq!(index.k(), 2);
        let mut row = vec![0.0; 5];
        let probe = phi(&[(0, 1.0), (3, 1.0), (33, 1.0), (40, 1.0), (41, 1.0)]);
        index.dot_all(&probe, &mut row);
        for (q, rep) in reps.iter().enumerate() {
            assert_eq!(row[q].to_bits(), rep.dot_doc(&probe).to_bits());
        }
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
