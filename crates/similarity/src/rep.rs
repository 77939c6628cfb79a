//! Cluster representatives and their cached statistics (paper §4.4): a
//! membership update is O(1) given one dot product, and a whole
//! representative is built exactly in one O(Σ nnz(φ)) pass.

use nidc_obs::LazyCounter;
use nidc_textproc::{SparseVector, TermId};

/// Times a clamp-to-zero actually absorbed negative floating-point residue
/// in a cached representative statistic (`cr_self` or `ss`). Shares its
/// name with the repository-side counter in `nidc-forgetting`, so one
/// metric reports fp drift across both layers — always-on, because the
/// accompanying `debug_assert!`s compile out of release builds.
static FP_RESIDUE_CLAMPS: LazyCounter = LazyCounter::new("nidc_fp_residue_clamps_total");

/// The cached scalars of §4.4 for one cluster `C_p`:
///
/// * `cr_self = cr_sim(C_p, C_p) = |c⃗_p|²` (eq. 21 with p = q),
/// * `ss = ss(C_p) = Σ_{d∈C_p} sim(d, d)` (eq. 23),
/// * `size = |C_p|`,
///
/// and the eq. 22–26 algebra over them. Given `cr_sim(C_p, {d}) = c⃗_p · φ_d`
/// from the caller, both the "what if d is appended" (eq. 26) and "what if d
/// is removed" previews are O(1), and so is the move itself
/// ([`RepStats::join`], [`RepStats::leave`]) — the efficiency trick that makes
/// the extended K-means viable. The dot product is the only per-(cluster,
/// document) quantity, and the step-1 sweep reads it for all K clusters at
/// once from a [`crate::ClusterIndex`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RepStats {
    size: usize,
    cr_self: f64,
    ss: f64,
}

impl RepStats {
    /// Number of member documents `|C_p|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// `cr_sim(C_p, C_p)` (eq. 21/22).
    pub fn cr_self(&self) -> f64 {
        self.cr_self
    }

    /// `ss(C_p)` (eq. 23).
    pub fn ss(&self) -> f64 {
        self.ss
    }

    /// `avg_sim(C_p)` — the intra-cluster similarity, via eq. 24:
    ///
    /// ```text
    /// avg_sim = (cr_sim(C,C) − ss(C)) / (|C|(|C|−1))
    /// ```
    ///
    /// Defined as 0 for clusters with fewer than two members.
    pub fn avg_sim(&self) -> f64 {
        if self.size < 2 {
            return 0.0;
        }
        let n = self.size as f64;
        ((self.cr_self - self.ss) / (n * (n - 1.0))).max(0.0)
    }

    /// The cluster's contribution to the clustering index `G`:
    /// `|C_p| · avg_sim(C_p)` (eq. 17).
    pub fn g_term(&self) -> f64 {
        self.size as f64 * self.avg_sim()
    }

    /// `avg_sim(C_p ∪ {d})` from `dot = cr_sim(C_p, {d})` (eq. 26):
    ///
    /// ```text
    /// (cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)) / (|C|(|C|+1))
    /// ```
    ///
    /// Exactly 0 for an empty cluster (a singleton has no pairs), whatever
    /// `dot` is.
    pub fn avg_sim_if_added_from_dot(&self, dot: f64) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let n = self.size as f64;
        let num = self.cr_self + 2.0 * dot - self.ss;
        (num / (n * (n + 1.0))).max(0.0)
    }

    /// `|C_p ∪ {d}|·avg_sim(C_p ∪ {d})` from `dot = cr_sim(C_p, {d})` — the
    /// cluster's contribution to the clustering index `G` (eq. 17) if `d`
    /// joined:
    ///
    /// ```text
    /// (cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)) / |C|      (|C| ≥ 1)
    /// ```
    ///
    /// Exactly 0 for an empty cluster, whatever `dot` is. Assigning each
    /// document to the cluster whose *G-term* increases the most greedily
    /// maximises the paper's clustering index; see the discussion of the two
    /// assignment criteria in `nidc-core`.
    pub fn g_term_if_added_from_dot(&self, dot: f64) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let n = self.size as f64;
        ((self.cr_self + 2.0 * dot - self.ss) / n).max(0.0)
    }

    /// `avg_sim(C_p \ {d})` from `dot = cr_sim(C_p, {d})` and `norm_sq =
    /// |φ_d|²` — the deletion analogue of eq. 26. `d` must be a current
    /// member.
    pub fn avg_sim_if_removed_from_dot(&self, dot: f64, norm_sq: f64) -> f64 {
        if self.size <= 2 {
            return 0.0;
        }
        let n = self.size as f64;
        let cr_new = self.cr_self - 2.0 * dot + norm_sq;
        let ss_new = self.ss - norm_sq;
        ((cr_new - ss_new) / ((n - 1.0) * (n - 2.0))).max(0.0)
    }

    /// `d` joins the cluster, given `dot = c⃗_p · φ_d` before the join and
    /// `norm_sq = |φ_d|²`:
    ///
    /// ```text
    /// |c + φ|² = |c|² + 2 c·φ + |φ|²
    /// ```
    pub fn join(&mut self, dot: f64, norm_sq: f64) {
        self.cr_self += 2.0 * dot + norm_sq;
        self.ss += norm_sq;
        self.size += 1;
    }

    /// `d` leaves the cluster (the deletion analogue the paper omits "for
    /// simplicity"), given `dot = c⃗_p · φ_d` before the leave and `norm_sq =
    /// |φ_d|²`:
    ///
    /// ```text
    /// |c − φ|² = |c|² − 2 c·φ + |φ|²
    /// ```
    ///
    /// The caller must ensure `d` is a current member; a non-member corrupts
    /// the statistics (debug builds assert `size > 0`). The last member's
    /// leave resets all three to exact zero, so drift cannot carry over into
    /// the cluster's next use.
    pub fn leave(&mut self, dot: f64, norm_sq: f64) {
        debug_assert!(self.size > 0, "leave from empty cluster");
        let mut clamps = 0u64;
        self.cr_self += -2.0 * dot + norm_sq;
        // Both clamps absorb only floating-point residue (|c−φ|² and ss are
        // nonnegative by construction); a substantially negative value means
        // a non-member left and must not be silently zeroed.
        debug_assert!(
            self.cr_self >= -1e-9 * (1.0 + 2.0 * dot.abs() + norm_sq),
            "cr_self went negative beyond fp drift: {}",
            self.cr_self
        );
        if self.cr_self < 0.0 {
            self.cr_self = 0.0; // clamp fp drift
            clamps += 1;
        }
        self.ss -= norm_sq;
        debug_assert!(
            self.ss >= -1e-9 * (1.0 + norm_sq),
            "ss went negative beyond fp drift: {}",
            self.ss
        );
        if self.ss < 0.0 {
            self.ss = 0.0;
            clamps += 1;
        }
        FP_RESIDUE_CLAMPS.add(clamps);
        self.size -= 1;
        if self.size == 0 {
            *self = Self::default();
        }
    }
}

/// A cluster representative `c⃗_p = Σ_{d∈C_p} φ_d` (eq. 19–20) together with
/// its cached [`RepStats`], which make `avg_sim(C_p)` an O(1) read (eq. 24).
///
/// The representative vector is a sorted `Vec<(TermId, f64)>` (the
/// [`SparseVector`] idiom): O(nnz) memory, O(log nnz) lookup, merge-join
/// rep↔rep products. Representatives are built, never edited: a
/// [`RepBuilder`] builds each one from its member list in one pass, and
/// [`ClusterRep::merge_from`] (the cross-shard stitch) is the only change
/// to a stored vector. Inside a K-means run the live vectors are the
/// [`crate::ClusterIndex`] slots; the run rebuilds a representative only
/// after a document joined or left it.
#[derive(Debug, Clone)]
pub struct ClusterRep {
    vector: SparseVector,
    stats: RepStats,
}

impl Default for ClusterRep {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterRep {
    /// An empty cluster.
    pub fn new() -> Self {
        Self::from_parts(Vec::new(), 0, 0.0, 0.0)
    }

    /// Rebuilds a representative from persisted parts: the stored non-zero
    /// entries (ascending term order, as [`ClusterRep::for_each_entry`]
    /// yields them) plus the cached statistics **verbatim**.
    ///
    /// This is the checkpoint-restore constructor: `cr_self` and `ss` are
    /// taken as given rather than recomputed, so a restored representative
    /// produces bit-identical similarity scores to the one that was saved
    /// (recomputing `Σw²` could differ in the last bit from a stitched
    /// representative's merged value).
    pub fn from_parts(entries: Vec<(TermId, f64)>, size: usize, cr_self: f64, ss: f64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Self {
            vector: SparseVector::from_sorted(entries),
            stats: RepStats { size, cr_self, ss },
        }
    }

    /// The cached statistics, by value — what the step-1 sweep updates
    /// while the representative itself stays untouched.
    pub fn stats(&self) -> RepStats {
        self.stats
    }

    /// Number of member documents `|C_p|`.
    pub fn size(&self) -> usize {
        self.stats.size
    }

    /// `cr_sim(C_p, C_p)` (eq. 21/22).
    pub fn cr_self(&self) -> f64 {
        self.stats.cr_self
    }

    /// `ss(C_p)` (eq. 23).
    pub fn ss(&self) -> f64 {
        self.stats.ss
    }

    /// Number of stored non-zero terms of `c⃗_p`.
    pub fn nnz(&self) -> usize {
        self.vector.nnz()
    }

    /// The weight of term `t` in `c⃗_p` (0.0 if absent).
    pub fn weight(&self, t: TermId) -> f64 {
        self.vector.get(t)
    }

    /// Calls `f` for every stored non-zero `(term, weight)` entry of `c⃗_p`,
    /// in ascending term order.
    pub fn for_each_entry(&self, mut f: impl FnMut(TermId, f64)) {
        for (t, w) in self.vector.iter() {
            f(t, w);
        }
    }

    /// `cr_sim(C_p, {d}) = c⃗_p · φ_d` — the only quantity that must be
    /// computed fresh per (cluster, document) pair (see the discussion
    /// following eq. 26).
    ///
    /// Accumulates `rep[t]·φ[t]` over φ's terms in term order (absent terms
    /// contribute an exact ±0.0), so the result is bit-identical to the
    /// per-cluster rows of [`crate::ClusterIndex::dot_all`] over an index
    /// rebuilt from this representative.
    pub fn dot_doc(&self, phi: &SparseVector) -> f64 {
        let mut acc = 0.0;
        for (t, w) in phi.iter() {
            acc += self.vector.get(t) * w;
        }
        acc
    }

    /// `cr_sim(C_p, C_q)` between two representatives (eq. 21): a
    /// merge-join over the stored entries, O(nnz_p + nnz_q).
    pub fn dot_rep(&self, other: &ClusterRep) -> f64 {
        self.vector.dot(&other.vector)
    }

    /// Merges another representative into this one — the cross-shard merge
    /// primitive: `C_p ∪ C_q` for **disjoint** member sets, maintaining all
    /// cached quantities without touching any member φ vector:
    ///
    /// ```text
    /// |c⃗_p + c⃗_q|² = cr_sim(C_p,C_p) + 2·cr_sim(C_p,C_q) + cr_sim(C_q,C_q)
    /// ss(C_p ∪ C_q) = ss(C_p) + ss(C_q)
    /// ```
    ///
    /// (the eq. 21/25 identity validated by the `merge_formula_eq25` test).
    /// Cost: one rep↔rep dot plus one vector add, O(nnz_p + nnz_q).
    ///
    /// The caller must ensure the two clusters share no member; overlapping
    /// sets double-count the shared documents in every statistic.
    pub fn merge_from(&mut self, other: &ClusterRep) {
        let dot = self.dot_rep(other);
        self.stats.cr_self += 2.0 * dot + other.stats.cr_self;
        self.stats.ss += other.stats.ss;
        self.stats.size += other.stats.size;
        self.vector.axpy_in_place(&other.vector, 1.0);
    }

    /// `avg_sim(C_p)` (eq. 24; see [`RepStats::avg_sim`]).
    pub fn avg_sim(&self) -> f64 {
        self.stats.avg_sim()
    }

    /// The cluster's contribution to the clustering index `G`:
    /// `|C_p| · avg_sim(C_p)` (eq. 17).
    pub fn g_term(&self) -> f64 {
        self.stats.g_term()
    }

    /// The `n` heaviest positive-weight terms of the representative,
    /// heaviest first with ties in ascending term order — a cheap cluster
    /// label for display ("hot topic" keywords).
    ///
    /// A bounded selection holds only the best `n` seen so far: O(nnz) when
    /// most entries lose to the current `n`-th, O(nnz·min(n, nnz)) at worst.
    /// Only stored entries are visited, never a vocabulary-sized buffer.
    pub fn top_terms(&self, n: usize) -> Vec<(TermId, f64)> {
        let mut best: Vec<(TermId, f64)> = Vec::with_capacity(n.min(self.nnz()) + 1);
        self.for_each_entry(|t, w| {
            // entries arrive in ascending term order, so a tie with a kept
            // term loses: it ranks after every equal weight already held
            if w > 0.0 && (best.len() < n || best.last().is_some_and(|&(_, last)| w > last)) {
                let at = best.partition_point(|&(_, b)| b >= w);
                best.insert(at, (t, w));
                best.truncate(n);
            }
        });
        best
    }
}

impl nidc_obs::DeepSize for ClusterRep {
    /// Heap footprint of the stored vector (full buffer capacity); the
    /// cached scalar statistics are inline and excluded.
    fn deep_size_bytes(&self) -> u64 {
        self.vector.deep_size_bytes()
    }
}

/// A reusable sparse accumulator (SPA; Gilbert, Moler & Schreiber, SIAM J.
/// Matrix Anal. Appl. 1992) that builds whole representatives in
/// O(Σ nnz(φ)) — where adding members one by one to a sorted vector pays an
/// O(nnz(c⃗_p)) merge per member.
///
/// It holds one value array over the term space, the list of terms the
/// current cluster touched and a seen mark per term. A build leaves every
/// slot it touched at zero again, so one builder serves every cluster of
/// every run it is lent to — a shard's K-means workspace keeps one across
/// windows — and holds O(max term id) memory (9 B per term id) once, not
/// per cluster or per run.
#[derive(Debug, Default)]
pub struct RepBuilder {
    values: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<TermId>,
}

impl RepBuilder {
    /// An empty builder; its arrays grow to the largest term id it meets.
    pub fn new() -> Self {
        Self::default()
    }

    /// The representative of `members`, computed exactly — a pure function
    /// of the member list, so it carries no drift from earlier joins and
    /// leaves: each term's weight is accumulated in member order, exact
    /// zeros are dropped, and `cr_self = Σ w²` is summed in ascending term
    /// order.
    pub fn exact<'a, I>(&mut self, members: I) -> ClusterRep
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        let (mut size, mut ss) = (0, 0.0);
        for phi in members {
            self.accumulate(phi);
            ss += phi.norm_sq();
            size += 1;
        }
        let entries = self.drain();
        let cr_self = entries.iter().map(|&(_, w)| w * w).sum();
        ClusterRep::from_parts(entries, size, cr_self, ss)
    }

    /// `acc[t] += w` for every term of φ, recording first touches.
    fn accumulate(&mut self, phi: &SparseVector) {
        for (t, w) in phi.iter() {
            let idx = t.index();
            if idx >= self.values.len() {
                self.values.resize(idx + 1, 0.0);
                self.seen.resize(idx + 1, false);
            }
            if !self.seen[idx] {
                self.seen[idx] = true;
                self.touched.push(t);
            }
            self.values[idx] += w;
        }
    }

    /// The accumulated non-zero entries in ascending term order; resets
    /// every touched slot for the next cluster.
    fn drain(&mut self) -> Vec<(TermId, f64)> {
        self.touched.sort_unstable();
        let mut entries = Vec::with_capacity(self.touched.len());
        for &t in &self.touched {
            let idx = t.index();
            let w = std::mem::take(&mut self.values[idx]);
            self.seen[idx] = false;
            if w != 0.0 {
                entries.push((t, w));
            }
        }
        self.touched.clear();
        entries
    }
}

impl nidc_obs::DeepSize for RepBuilder {
    /// Heap footprint from capacities, O(1): the value and seen arrays over
    /// the term space and the touched list.
    fn deep_size_bytes(&self) -> u64 {
        let values = self.values.capacity() * std::mem::size_of::<f64>();
        let touched = self.touched.capacity() * std::mem::size_of::<TermId>();
        (values + self.seen.capacity() + touched) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phi(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn exact(members: &[SparseVector]) -> ClusterRep {
        RepBuilder::new().exact(members.iter())
    }

    /// Brute-force pairwise avg_sim (eq. 18) for validation.
    fn brute_avg_sim(members: &[SparseVector]) -> f64 {
        let n = members.len();
        if n < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    acc += members[i].dot(&members[j]);
                }
            }
        }
        acc / (n as f64 * (n as f64 - 1.0))
    }

    fn sample_members() -> Vec<SparseVector> {
        vec![
            phi(&[(0, 0.5), (1, 0.2)]),
            phi(&[(0, 0.3), (2, 0.4)]),
            phi(&[(1, 0.6), (2, 0.1), (3, 0.2)]),
            phi(&[(0, 0.1), (3, 0.7)]),
        ]
    }

    #[test]
    fn eq22_identity_cr_self_decomposition() {
        let members = sample_members();
        let rep = exact(&members);
        let n = members.len() as f64;
        // eq. 22: cr_sim(C,C) = n(n−1)·avg_sim + ss
        let lhs = rep.cr_self();
        let rhs = n * (n - 1.0) * brute_avg_sim(&members) + rep.ss();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn eq24_avg_sim_matches_brute_force() {
        let members = sample_members();
        let rep = exact(&members);
        assert!((rep.avg_sim() - brute_avg_sim(&members)).abs() < 1e-12);
    }

    #[test]
    fn eq26_append_preview_and_join_match_the_exact_union() {
        let members = sample_members();
        let newcomer = phi(&[(1, 0.3), (2, 0.3)]);
        let rep = exact(&members);
        let dot = rep.dot_doc(&newcomer);
        let predicted = rep.stats().avg_sim_if_added_from_dot(dot);
        let mut joined = rep.stats();
        joined.join(dot, newcomer.norm_sq());
        let mut all = members;
        all.push(newcomer);
        let union = exact(&all);
        assert!((predicted - union.avg_sim()).abs() < 1e-12);
        assert!((joined.avg_sim() - union.avg_sim()).abs() < 1e-12);
        assert!((joined.cr_self() - union.cr_self()).abs() < 1e-12);
        assert_eq!(joined.size(), union.size());
        assert!((union.avg_sim() - brute_avg_sim(&all)).abs() < 1e-12);
    }

    #[test]
    fn removal_preview_and_leave_match_the_exact_rest() {
        let members = sample_members();
        let rep = exact(&members);
        let (dot, norm_sq) = (rep.dot_doc(&members[1]), members[1].norm_sq());
        let predicted = rep.stats().avg_sim_if_removed_from_dot(dot, norm_sq);
        let mut left = rep.stats();
        left.leave(dot, norm_sq);
        let remaining: Vec<_> = members
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, m)| m.clone())
            .collect();
        let rest = exact(&remaining);
        assert!((predicted - rest.avg_sim()).abs() < 1e-12);
        assert!((left.avg_sim() - rest.avg_sim()).abs() < 1e-12);
        assert!((left.ss() - rest.ss()).abs() < 1e-12);
        assert_eq!(left.size(), rest.size());
        assert!((rest.avg_sim() - brute_avg_sim(&remaining)).abs() < 1e-12);
    }

    #[test]
    fn join_then_leave_is_identity() {
        let rep = exact(&sample_members());
        let before = rep.stats();
        let d = phi(&[(0, 0.9), (3, 0.1)]);
        let (dot, norm_sq) = (rep.dot_doc(&d), d.norm_sq());
        let mut stats = before;
        stats.join(dot, norm_sq);
        // after the join, c⃗·φ has gained φ·φ
        stats.leave(dot + norm_sq, norm_sq);
        assert_eq!(stats.size(), before.size());
        assert!((stats.cr_self() - before.cr_self()).abs() < 1e-12);
        assert!((stats.ss() - before.ss()).abs() < 1e-12);
        assert!((stats.avg_sim() - before.avg_sim()).abs() < 1e-12);
    }

    #[test]
    fn merge_formula_eq25() {
        // avg_sim(C_p ∪ C_q) from representative quantities, two disjoint sets.
        let p_members = vec![phi(&[(0, 0.4)]), phi(&[(0, 0.2), (1, 0.5)])];
        let q_members = vec![phi(&[(1, 0.3), (2, 0.2)]), phi(&[(2, 0.6)])];
        let p = exact(&p_members);
        let q = exact(&q_members);
        let np = p.size() as f64;
        let nq = q.size() as f64;
        let merged_avg = (p.cr_self() + 2.0 * p.dot_rep(&q) + q.cr_self() - p.ss() - q.ss())
            / ((np + nq) * (np + nq - 1.0));
        let mut all = p_members;
        all.extend(q_members);
        assert!((merged_avg - brute_avg_sim(&all)).abs() < 1e-12);
    }

    #[test]
    fn merge_from_matches_exact_on_the_union() {
        let p_members = vec![phi(&[(0, 0.4)]), phi(&[(0, 0.2), (1, 0.5)])];
        let q_members = vec![phi(&[(1, 0.3), (2, 0.2)]), phi(&[(2, 0.6)])];
        let mut merged = exact(&p_members);
        merged.merge_from(&exact(&q_members));
        let mut all = p_members;
        all.extend(q_members);
        let reference = exact(&all);
        assert_eq!(merged.size(), reference.size());
        assert!((merged.cr_self() - reference.cr_self()).abs() < 1e-12);
        assert_eq!(merged.ss(), reference.ss());
        assert!((merged.avg_sim() - brute_avg_sim(&all)).abs() < 1e-12);
        // the merged vector itself matches term by term
        let probe = phi(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
        assert!((merged.dot_doc(&probe) - reference.dot_doc(&probe)).abs() < 1e-12);
    }

    #[test]
    fn merge_from_empty_is_identity_and_into_empty_is_copy() {
        let rep = exact(&sample_members());
        let mut with_empty = rep.clone();
        with_empty.merge_from(&ClusterRep::new());
        assert_eq!(with_empty.size(), rep.size());
        assert_eq!(with_empty.cr_self(), rep.cr_self());
        assert_eq!(with_empty.ss(), rep.ss());

        let mut from_empty = ClusterRep::new();
        from_empty.merge_from(&rep);
        assert_eq!(from_empty.size(), rep.size());
        assert_eq!(from_empty.cr_self(), rep.cr_self());
        assert_eq!(from_empty.ss(), rep.ss());
    }

    #[test]
    fn empty_and_singleton_clusters() {
        let empty = ClusterRep::new();
        assert_eq!(empty.avg_sim(), 0.0);
        assert_eq!(empty.g_term(), 0.0);
        assert_eq!(empty.stats().avg_sim_if_added_from_dot(1.0), 0.0);
        let single = exact(&[phi(&[(0, 1.0)])]);
        assert_eq!(single.size(), 1);
        assert_eq!(single.avg_sim(), 0.0); // singleton: no pairs
    }

    #[test]
    fn last_leave_resets_stats_to_exact_zero() {
        let d = phi(&[(0, 0.3), (2, 0.7)]);
        let rep = exact(std::slice::from_ref(&d));
        let mut stats = rep.stats();
        stats.leave(rep.dot_doc(&d), d.norm_sq());
        assert_eq!(stats.size(), 0);
        assert_eq!(stats.cr_self().to_bits(), 0.0f64.to_bits());
        assert_eq!(stats.ss().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn dot_doc_handles_terms_beyond_stored_range() {
        let rep = exact(&[phi(&[(0, 1.0)])]);
        // φ mentions term 5, beyond the rep's support: contributes 0.
        assert_eq!(rep.dot_doc(&phi(&[(0, 2.0), (5, 3.0)])), 2.0);
    }

    #[test]
    fn weight_is_zero_off_support() {
        let rep = exact(&[phi(&[(4, 1.5)])]);
        assert_eq!(rep.nnz(), 1);
        assert_eq!(rep.weight(TermId(4)), 1.5);
        assert_eq!(rep.weight(TermId(3)), 0.0);
    }

    #[test]
    fn join_chain_matches_exact() {
        let members = sample_members();
        let mut stats = RepStats::default();
        for (i, m) in members.iter().enumerate() {
            stats.join(exact(&members[..i]).dot_doc(m), m.norm_sq());
        }
        let exact = exact(&members);
        assert!((stats.cr_self() - exact.cr_self()).abs() < 1e-12);
        assert!((stats.ss() - exact.ss()).abs() < 1e-12);
        assert_eq!(stats.size(), exact.size());
    }

    #[test]
    fn top_terms_are_sorted_descending() {
        let rep = exact(&[phi(&[(0, 0.1), (1, 0.9), (2, 0.5)])]);
        let top = rep.top_terms(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, TermId(1));
        assert_eq!(top[1].0, TermId(2));
    }

    #[test]
    fn top_terms_is_nnz_bounded_on_high_dimension_rep() {
        // A sparse rep whose largest term id is in the tens of millions must
        // not allocate or scan a vocabulary-sized buffer: the candidate list
        // is bounded by nnz, not by the term-id range.
        let entries = vec![
            (TermId(5), 3.0),
            (TermId(17_000_000), 2.0),
            (TermId(30_000_000), 1.0),
        ];
        let rep = ClusterRep::from_parts(entries, 1, 0.0, 0.0);
        assert_eq!(rep.nnz(), 3);
        let all = rep.top_terms(usize::MAX);
        assert_eq!(all.len(), 3, "candidate list must be nnz-bounded");
        assert_eq!(all[0].0, TermId(5));
        assert_eq!(all[1].0, TermId(17_000_000));
    }

    #[test]
    fn g_term_if_added_preview_matches_the_exact_union() {
        let members = sample_members();
        let newcomer = phi(&[(0, 0.2), (2, 0.4)]);
        let rep = exact(&members);
        let preview = rep.stats().g_term_if_added_from_dot(rep.dot_doc(&newcomer));
        let mut all = members;
        all.push(newcomer);
        assert!((preview - exact(&all).g_term()).abs() < 1e-12);
    }

    #[test]
    fn g_term_if_added_to_empty_is_zero() {
        assert_eq!(RepStats::default().g_term_if_added_from_dot(1.0), 0.0);
    }

    #[test]
    fn g_term_if_added_to_singleton_is_twice_sim() {
        let seed = phi(&[(0, 0.6), (1, 0.2)]);
        let rep = exact(std::slice::from_ref(&seed));
        let d = phi(&[(0, 0.5), (1, 0.5)]);
        let preview = rep.stats().g_term_if_added_from_dot(rep.dot_doc(&d));
        assert!((preview - 2.0 * seed.dot(&d)).abs() < 1e-12);
    }

    #[test]
    fn g_term_is_size_times_avg_sim() {
        let rep = exact(&sample_members());
        assert!((rep.g_term() - 4.0 * rep.avg_sim()).abs() < 1e-12);
    }

    #[test]
    fn from_parts_round_trips_entries_and_stats_verbatim() {
        let rep = exact(&sample_members());
        let mut entries = Vec::new();
        rep.for_each_entry(|t, w| entries.push((t, w)));
        let restored = ClusterRep::from_parts(entries, rep.size(), rep.cr_self(), rep.ss());
        assert_eq!(restored.size(), rep.size());
        assert_eq!(restored.cr_self().to_bits(), rep.cr_self().to_bits());
        assert_eq!(restored.ss().to_bits(), rep.ss().to_bits());
        let probe = phi(&[(0, 0.2), (1, 0.4), (2, 0.1), (3, 0.9)]);
        assert!((restored.dot_doc(&probe) - rep.dot_doc(&probe)).abs() < 1e-15);
    }

    #[test]
    fn deep_size_reflects_storage() {
        use nidc_obs::DeepSize;
        let sparse = exact(&sample_members());
        // 4 nnz × 16 bytes minimum
        assert!(sparse.deep_size_bytes() >= 4 * 16);
        assert_eq!(ClusterRep::new().deep_size_bytes(), 0);
    }
}
