//! Term→cluster inverted index over the K cluster representatives.
//!
//! The extended K-means spends almost all of its time in the step-1 scoring
//! sweep, where every document is dotted against every representative. With
//! per-cluster dot products that costs O(K·nnz(φ_d)) lookups per document.
//! The [`ClusterIndex`] turns the sweep inside out: one postings run per
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
//!
//! # Storage
//!
//! Every posting lives in one flat arena; a term-indexed run table says
//! where each term's run starts, how long it is and how much room it has,
//! and a list records the terms filed since the last rebuild. A rebuild
//! resets and refiles only those terms, in O(Σ_p nnz(c⃗_p)), so one index
//! serves every K-means run of a shard: what it holds between runs is the
//! run table (12 B per term id) and the arena, with no per-term heap
//! allocation.

use nidc_obs::{buckets, DeepSize, LazyCounter, LazyHistogram};
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
/// Wall time of one full rebuild — filing every representative entry
/// into the arena. Fine buckets: a rebuild over a window-sized
/// vocabulary runs in microseconds.
static REBUILD_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_index_rebuild_seconds", buckets::FINE_SECONDS);

/// Free slots a rebuild leaves after every run, so that a step-1 move
/// filing one more cluster under a term usually inserts in place.
const SLACK: u32 = 2;

/// Where one term's postings sit in the arena: `len` postings from
/// `start`, with room for `cap`. All zero for a term not filed since the
/// last rebuild.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

/// An inverted postings map `TermId → [(cluster, weight)]` over the vectors
/// of K clusters.
///
/// The run table is indexed directly by term id — term ids are contiguous
/// vocabulary indices, so the per-term lookup in the hot
/// [`ClusterIndex::dot_all`] loop is a single array access (a `BTreeMap`
/// spine was measured ~5× slower there; the log-depth pointer chase
/// swamped the postings savings). The table is O(max term id), held by the
/// index across rebuilds and runs, like the arrays of a
/// [`crate::RepBuilder`]; the postings themselves share one arena.
///
/// Runs are kept sorted by cluster id. After a rebuild the weights are the
/// representatives' stored entries, bit for bit; a weight that a move
/// cancels to exactly `0.0` is pruned, as [`crate::RepBuilder::exact`]
/// drops exact zeros. A move that files a posting into a full run moves
/// the run to the end of the arena with room to grow; the next rebuild
/// compacts the arena again.
#[derive(Debug, Clone, Default)]
pub struct ClusterIndex {
    k: usize,
    /// Term-indexed: term `t`'s run in `arena`.
    runs: Vec<Run>,
    /// Every run's `(cluster, weight)` postings, and their free slots.
    arena: Vec<(u32, f64)>,
    /// The terms with a run, i.e. filed since the last rebuild.
    filed: Vec<TermId>,
}

/// An arena offset as stored in a [`Run`].
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("index arena exceeds u32 offsets")
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

    /// Term `t`'s postings, cluster-ascending (empty if none).
    fn list(&self, t: TermId) -> &[(u32, f64)] {
        match self.runs.get(t.index()) {
            Some(run) => {
                let start = run.start as usize;
                &self.arena[start..start + run.len as usize]
            }
            None => &[],
        }
    }

    /// Number of terms with at least one posting.
    pub fn term_count(&self) -> usize {
        self.filed
            .iter()
            .filter(|t| self.runs[t.index()].len > 0)
            .count()
    }

    /// Total number of `(cluster, weight)` postings across all terms — the
    /// per-sweep work bound `Σ_t |postings|` when summed over a document's
    /// terms.
    pub fn postings_len(&self) -> usize {
        self.filed
            .iter()
            .map(|t| self.runs[t.index()].len as usize)
            .sum()
    }

    /// Whether no postings are stored.
    pub fn is_empty(&self) -> bool {
        self.postings_len() == 0
    }

    /// The stored weight of `(term, cluster)` (0.0 if absent).
    pub fn weight(&self, t: TermId, cluster: usize) -> f64 {
        let list = self.list(t);
        list.binary_search_by_key(&(cluster as u32), |&(q, _)| q)
            .map_or(0.0, |i| list[i].1)
    }

    fn update(&mut self, cluster: usize, phi: &SparseVector, scale: f64) {
        // a run has room for at most k postings: a larger cluster id would
        // write into the next run
        assert!(
            cluster < self.k,
            "cluster {cluster} out of range {}",
            self.k
        );
        let q = cluster as u32;
        for (t, w) in phi.iter() {
            let idx = t.index();
            if idx >= self.runs.len() {
                self.runs.resize(idx + 1, Run::default());
            }
            let run = self.runs[idx];
            let (from, to) = (run.start as usize, (run.start + run.len) as usize);
            match self.arena[from..to].binary_search_by_key(&q, |&(c, _)| c) {
                Ok(i) => {
                    let weight = &mut self.arena[from + i].1;
                    *weight += scale * w;
                    if *weight == 0.0 {
                        // no stored zeros, as in a built representative
                        self.arena.copy_within(from + i + 1..to, from + i);
                        self.runs[idx].len -= 1;
                    }
                }
                Err(i) => {
                    let scaled = scale * w;
                    if scaled != 0.0 {
                        self.insert(t, i, (q, scaled));
                    }
                }
            }
        }
    }

    /// Files `posting` at position `at` of term `t`'s run, moving a full
    /// run to the end of the arena first. A run never holds more than `k`
    /// postings, so it grows to at most `k` slots.
    fn insert(&mut self, t: TermId, at: usize, posting: (u32, f64)) {
        let mut run = self.runs[t.index()];
        if run.cap == 0 {
            self.filed.push(t);
        }
        if run.len == run.cap {
            let (from, new_start) = (run.start as usize, self.arena.len());
            run.cap = (2 * run.len + SLACK).min(offset(self.k));
            self.arena.extend_from_within(from..from + run.len as usize);
            self.arena.resize(new_start + run.cap as usize, (0, 0.0));
            run.start = offset(new_start);
        }
        let (start, end) = (run.start as usize, (run.start + run.len) as usize);
        self.arena.copy_within(start + at..end, start + at + 1);
        self.arena[start + at] = posting;
        run.len += 1;
        self.runs[t.index()] = run;
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
    /// replaces whatever the moves since the last rebuild (or an earlier
    /// run) folded in: the runs of the filed terms are reset, then the
    /// entries are counted, given contiguous runs with 2 free slots
    /// each, and filed — O(Σ_p nnz(c⃗_p)), with no walk of the run table
    /// and no allocation once the arena and table have grown.
    pub fn rebuild(&mut self, reps: &[ClusterRep]) {
        REBUILDS.inc();
        let _span = nidc_obs::span!("index.rebuild");
        let _timer = REBUILD_SECONDS.start_timer();
        self.k = reps.len();
        for t in self.filed.drain(..) {
            self.runs[t.index()] = Run::default();
        }
        let (runs, filed) = (&mut self.runs, &mut self.filed);
        for rep in reps {
            rep.for_each_entry(|t, _| {
                let idx = t.index();
                if idx >= runs.len() {
                    runs.resize(idx + 1, Run::default());
                }
                if runs[idx].len == 0 {
                    filed.push(t);
                }
                runs[idx].len += 1;
            });
        }
        let mut end = 0usize;
        for t in filed.iter() {
            let run = &mut runs[t.index()];
            run.start = offset(end);
            run.cap = run.len + SLACK;
            run.len = 0;
            end += run.cap as usize;
        }
        self.arena.clear();
        self.arena.resize(end, (0, 0.0));
        let arena = &mut self.arena;
        for (q, rep) in reps.iter().enumerate() {
            rep.for_each_entry(|t, w| {
                // clusters are visited in ascending q, so each run stays
                // sorted by construction
                let run = &mut runs[t.index()];
                arena[(run.start + run.len) as usize] = (q as u32, w);
                run.len += 1;
            });
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
            let list = self.list(t);
            touched += list.len();
            for &(q, cw) in list {
                out[q as usize] += cw * w;
            }
        }
        POSTINGS_TOUCHED.add(touched as u64);
    }
}

impl DeepSize for ClusterIndex {
    /// Heap footprint from capacities, O(1): the run table, the arena
    /// (free and dead slots included — they are resident) and the filed
    /// list.
    fn deep_size_bytes(&self) -> u64 {
        let runs = self.runs.capacity() * std::mem::size_of::<Run>();
        let arena = self.arena.capacity() * std::mem::size_of::<(u32, f64)>();
        let filed = self.filed.capacity() * std::mem::size_of::<TermId>();
        (runs + arena + filed) as u64
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
    fn deep_size_covers_run_table_and_arena() {
        let mut index = ClusterIndex::new(2);
        assert_eq!(index.deep_size_bytes(), 0);
        index.add(0, &phi(&[(3, 1.5)]));
        index.add(1, &phi(&[(3, 2.0), (7, 0.5)]));
        // the run table reaches term 7 → ≥8 runs × 12B, plus ≥3 postings × 16B
        assert!(index.deep_size_bytes() >= (8 * 12 + 3 * 16) as u64);
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
    fn a_move_into_a_full_run_relocates_it_and_a_rebuild_compacts_it() {
        // term 0 is on clusters 1 and 3 only: its run has 2 postings and
        // SLACK free slots after the rebuild
        let k = 6;
        let mut reps = vec![ClusterRep::new(); k];
        let mut builder = RepBuilder::new();
        reps[1] = builder.exact([&phi(&[(0, 1.0), (1, 2.0)])]);
        reps[3] = builder.exact([&phi(&[(0, 0.5), (2, 1.0)])]);
        let mut index = ClusterIndex::new(k);
        index.rebuild(&reps);
        let compact = index.arena.len();
        let run = index.runs[0];
        assert_eq!((run.len, run.cap), (2, 2 + SLACK));
        // two moves fill the slack in place; the third relocates the run
        for (q, w) in [(0, 0.25), (5, 0.75)] {
            index.add(q, &phi(&[(0, w)]));
        }
        assert_eq!(index.runs[0].start, run.start, "room left: no move");
        index.add(2, &phi(&[(0, 0.125)]));
        let moved = index.runs[0];
        assert_eq!(moved.len, 5);
        assert!(moved.start as usize >= compact, "relocated past the end");
        assert!(moved.cap <= k as u32, "never more room than k postings");
        let list: Vec<u32> = index.list(TermId(0)).iter().map(|&(q, _)| q).collect();
        assert_eq!(list, vec![0, 1, 2, 3, 5], "still cluster-ascending");
        // a new term files a fresh run
        index.add(4, &phi(&[(9, 3.0)]));
        assert_eq!(index.weight(TermId(9), 4), 3.0);
        // the same members built exactly, into a rebuilt and a fresh index
        reps[0] = builder.exact([&phi(&[(0, 0.25)])]);
        reps[2] = builder.exact([&phi(&[(0, 0.125)])]);
        reps[4] = builder.exact([&phi(&[(9, 3.0)])]);
        reps[5] = builder.exact([&phi(&[(0, 0.75)])]);
        let mut fresh = ClusterIndex::new(k);
        fresh.rebuild(&reps);
        assert_same_postings(&index, &fresh, 10, k);
        index.rebuild(&reps);
        assert_eq!(index.arena.len(), fresh.arena.len(), "compacted");
        assert_same_postings(&index, &fresh, 10, k);
    }

    #[test]
    fn removing_down_to_empty_leaves_no_posting() {
        // one document per cluster: each weight leaves exactly as it came
        let ds = docs();
        let mut index = ClusterIndex::new(ds.len());
        index.rebuild(&exact_reps(&ds, ds.len(), None));
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
        // move that relocated a run and filed a term of its own
        let big: Vec<SparseVector> = (0..12u32)
            .map(|i| phi(&[(i, 1.0), (20 + i, 0.5), (40, 0.25)]))
            .collect();
        let mut index = ClusterIndex::new(5);
        index.rebuild(&exact_reps(&big, 5, None));
        index.add(0, &phi(&[(33, 2.0), (40, 1.0)]));
        index.add(3, &phi(&[(41, 2.0)]));
        // a smaller one reuses it
        let small = docs();
        let reps = exact_reps(&small, 2, None);
        index.rebuild(&reps);
        let mut fresh = ClusterIndex::new(2);
        fresh.rebuild(&reps);
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
