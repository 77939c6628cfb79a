//! Cluster representatives with O(|φ|) membership updates (paper §4.4).

use nidc_obs::LazyCounter;
use nidc_textproc::{SparseVector, TermId};

/// Times a clamp-to-zero actually absorbed negative floating-point residue
/// in a cached representative statistic (`cr_self` or `ss`). Shares its
/// name with the repository-side counter in `nidc-forgetting`, so one
/// metric reports fp drift across both layers — always-on, because the
/// accompanying `debug_assert!`s compile out of release builds.
static FP_RESIDUE_CLAMPS: LazyCounter = LazyCounter::new("nidc_fp_residue_clamps_total");

/// How a [`ClusterRep`] stores its vector `c⃗_p`.
///
/// Both backends produce **bit-identical** statistics and clusterings: every
/// weight is accumulated by the same scalar operations in the same order,
/// only the storage (and therefore the asymptotics) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepBackend {
    /// `Vec<f64>` over the full term space: O(|V|) memory per cluster,
    /// O(1) per-term lookup. The original implementation, kept for A/B
    /// verification against the sparse path.
    Dense,
    /// Sorted `Vec<(TermId, f64)>` (the [`SparseVector`] idiom): O(nnz)
    /// memory, O(log nnz) lookup, and merge-join rep↔rep products. The
    /// default, and the backend the term→cluster inverted index
    /// ([`crate::ClusterIndex`]) mirrors.
    #[default]
    Sparse,
}

impl std::str::FromStr for RepBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(RepBackend::Dense),
            "sparse" => Ok(RepBackend::Sparse),
            other => Err(format!("unknown rep backend '{other}' (dense|sparse)")),
        }
    }
}

impl std::fmt::Display for RepBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RepBackend::Dense => "dense",
            RepBackend::Sparse => "sparse",
        })
    }
}

#[derive(Debug, Clone)]
enum Storage {
    Dense(Vec<f64>),
    Sparse(SparseVector),
}

impl Storage {
    fn weight(&self, t: TermId) -> f64 {
        match self {
            Storage::Dense(v) => v.get(t.index()).copied().unwrap_or(0.0),
            Storage::Sparse(s) => s.get(t),
        }
    }
}

/// A cluster representative `c⃗_p = Σ_{d∈C_p} φ_d` (eq. 19–20) together with
/// the cached quantities of §4.4:
///
/// * `cr_self = cr_sim(C_p, C_p) = |c⃗_p|²` (eq. 21 with p = q),
/// * `ss = ss(C_p) = Σ_{d∈C_p} sim(d, d)` (eq. 23),
/// * `size = |C_p|`.
///
/// These make `avg_sim(C_p)` an O(1) read (eq. 24), and both the
/// "what if d is appended" (eq. 26) and "what if d is removed" queries
/// O(|φ_d|) — the efficiency trick that makes the extended K-means viable.
///
/// The representative vector is stored per [`RepBackend`]: sparse (sorted
/// `Vec<(TermId, f64)>`, the default) or dense (`Vec<f64>` over the term
/// space, for A/B verification). A document-representative dot product
/// costs O(nnz(φ_d)) dense and O(nnz(φ_d)·log nnz(c⃗_p)) sparse; both
/// accumulate term contributions in φ's term order, so every derived
/// statistic is bit-identical across backends.
#[derive(Debug, Clone)]
pub struct ClusterRep {
    storage: Storage,
    size: usize,
    cr_self: f64,
    ss: f64,
}

impl Default for ClusterRep {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterRep {
    /// An empty cluster on the default (sparse) backend.
    pub fn new() -> Self {
        Self::new_with(RepBackend::default())
    }

    /// An empty cluster on an explicit backend.
    pub fn new_with(backend: RepBackend) -> Self {
        Self {
            storage: match backend {
                RepBackend::Dense => Storage::Dense(Vec::new()),
                RepBackend::Sparse => Storage::Sparse(SparseVector::new()),
            },
            size: 0,
            cr_self: 0.0,
            ss: 0.0,
        }
    }

    /// Builds a representative from a set of member φ vectors (sparse
    /// backend).
    pub fn from_members<'a, I>(members: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        Self::from_members_with(RepBackend::default(), members)
    }

    /// Builds a representative from member φ vectors on an explicit backend.
    pub fn from_members_with<'a, I>(backend: RepBackend, members: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        let mut rep = Self::new_with(backend);
        for phi in members {
            rep.add(phi);
        }
        rep
    }

    /// Rebuilds a representative from persisted parts: the stored non-zero
    /// entries (ascending term order, as [`ClusterRep::for_each_entry`]
    /// yields them) plus the cached statistics **verbatim**.
    ///
    /// This is the checkpoint-restore constructor: `cr_self` and `ss` are
    /// taken as given rather than recomputed, so a restored representative
    /// produces bit-identical similarity scores to the one that was saved
    /// (recomputing `Σw²` could differ in the last bit from the
    /// incrementally-maintained value). Always sparse-backed; use
    /// [`ClusterRep::to_backend`] afterwards if a dense copy is needed.
    pub fn from_parts(entries: Vec<(TermId, f64)>, size: usize, cr_self: f64, ss: f64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Self {
            storage: Storage::Sparse(SparseVector::from_sorted(entries)),
            size,
            cr_self,
            ss,
        }
    }

    /// Which backend stores this representative.
    pub fn backend(&self) -> RepBackend {
        match self.storage {
            Storage::Dense(_) => RepBackend::Dense,
            Storage::Sparse(_) => RepBackend::Sparse,
        }
    }

    /// Number of member documents `|C_p|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// `cr_sim(C_p, C_p)` (eq. 21/22).
    pub fn cr_self(&self) -> f64 {
        self.cr_self
    }

    /// `ss(C_p)` (eq. 23).
    pub fn ss(&self) -> f64 {
        self.ss
    }

    /// Number of stored non-zero terms of `c⃗_p`.
    pub fn nnz(&self) -> usize {
        match &self.storage {
            Storage::Dense(v) => v.iter().filter(|&&w| w != 0.0).count(),
            Storage::Sparse(s) => s.nnz(),
        }
    }

    /// The weight of term `t` in `c⃗_p` (0.0 if absent).
    pub fn weight(&self, t: TermId) -> f64 {
        self.storage.weight(t)
    }

    /// Calls `f` for every stored non-zero `(term, weight)` entry of `c⃗_p`,
    /// in ascending term order.
    pub fn for_each_entry(&self, mut f: impl FnMut(TermId, f64)) {
        match &self.storage {
            Storage::Dense(v) => {
                for (i, &w) in v.iter().enumerate() {
                    if w != 0.0 {
                        f(TermId(i as u32), w);
                    }
                }
            }
            Storage::Sparse(s) => {
                for (t, w) in s.iter() {
                    f(t, w);
                }
            }
        }
    }

    /// `cr_sim(C_p, {d}) = c⃗_p · φ_d` — the only quantity that must be
    /// computed fresh per (cluster, document) pair (see the discussion
    /// following eq. 26).
    ///
    /// Both backends accumulate `rep[t]·φ[t]` over φ's terms in term order
    /// (absent terms contribute an exact ±0.0), so the result is
    /// bit-identical across backends — and to the per-cluster rows of
    /// [`crate::ClusterIndex::dot_all`].
    pub fn dot_doc(&self, phi: &SparseVector) -> f64 {
        match &self.storage {
            Storage::Dense(v) => {
                let mut acc = 0.0;
                for (t, w) in phi.iter() {
                    if let Some(&r) = v.get(t.index()) {
                        acc += r * w;
                    }
                }
                acc
            }
            Storage::Sparse(s) => {
                let mut acc = 0.0;
                for (t, w) in phi.iter() {
                    acc += s.get(t) * w;
                }
                acc
            }
        }
    }

    /// `cr_sim(C_p, C_q)` between two representatives (eq. 21).
    ///
    /// Sparse×sparse is a merge-join over the stored entries —
    /// O(nnz_p + nnz_q) instead of the dense backend's O(|V|) zip.
    pub fn dot_rep(&self, other: &ClusterRep) -> f64 {
        match (&self.storage, &other.storage) {
            (Storage::Dense(a), Storage::Dense(b)) => {
                a.iter().zip(b.iter()).map(|(a, b)| a * b).sum()
            }
            (Storage::Sparse(a), Storage::Sparse(b)) => a.dot(b),
            (Storage::Sparse(a), Storage::Dense(b)) => a
                .iter()
                .map(|(t, w)| b.get(t.index()).copied().unwrap_or(0.0) * w)
                .sum(),
            (Storage::Dense(a), Storage::Sparse(b)) => b
                .iter()
                .map(|(t, w)| a.get(t.index()).copied().unwrap_or(0.0) * w)
                .sum(),
        }
    }

    /// Adds document `φ` to the cluster, maintaining all cached quantities in
    /// O(nnz(φ)) (dense) / O(nnz(φ) + nnz(c⃗_p)) worst case (sparse merge).
    pub fn add(&mut self, phi: &SparseVector) {
        let dot = self.dot_doc(phi);
        let norm_sq = phi.norm_sq();
        // |c + φ|² = |c|² + 2 c·φ + |φ|²
        self.cr_self += 2.0 * dot + norm_sq;
        self.ss += norm_sq;
        self.size += 1;
        match &mut self.storage {
            Storage::Dense(v) => {
                for (t, w) in phi.iter() {
                    let idx = t.index();
                    if idx >= v.len() {
                        v.resize(idx + 1, 0.0);
                    }
                    v[idx] += w;
                }
            }
            Storage::Sparse(s) => s.axpy_in_place(phi, 1.0),
        }
    }

    /// Removes document `φ` from the cluster (the deletion analogue the paper
    /// omits "for simplicity"), in O(nnz(φ)) / O(nnz(φ) + nnz(c⃗_p)):
    ///
    /// ```text
    /// |c − φ|² = |c|² − 2 c·φ + |φ|²
    /// ```
    ///
    /// The caller must ensure `φ` is a current member; removing a non-member
    /// corrupts the cached statistics (debug builds assert `size > 0`).
    pub fn remove(&mut self, phi: &SparseVector) {
        debug_assert!(self.size > 0, "remove from empty cluster");
        let mut clamps = 0u64;
        let dot = self.dot_doc(phi);
        let norm_sq = phi.norm_sq();
        self.cr_self += -2.0 * dot + norm_sq;
        // Both clamps absorb only floating-point residue (|c−φ|² and ss are
        // nonnegative by construction); a substantially negative value means
        // a non-member was removed and must not be silently zeroed.
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
        match &mut self.storage {
            Storage::Dense(v) => {
                for (t, w) in phi.iter() {
                    if let Some(r) = v.get_mut(t.index()) {
                        *r -= w;
                    }
                }
            }
            Storage::Sparse(s) => s.axpy_in_place(phi, -1.0),
        }
        if self.size == 0 {
            // restore exact emptiness so drift cannot accumulate across reuse
            match &mut self.storage {
                Storage::Dense(v) => v.iter_mut().for_each(|r| *r = 0.0),
                Storage::Sparse(s) => *s = SparseVector::new(),
            }
            self.cr_self = 0.0;
            self.ss = 0.0;
        }
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
    /// Cost: one rep↔rep dot plus one vector add — O(nnz_p + nnz_q) sparse,
    /// O(|V|) dense. The merged rep keeps `self`'s backend; merging across
    /// backends accumulates `other`'s stored entries in ascending term order,
    /// so the result is bit-identical to a same-backend merge.
    ///
    /// The caller must ensure the two clusters share no member; overlapping
    /// sets double-count the shared documents in every statistic.
    pub fn merge_from(&mut self, other: &ClusterRep) {
        let dot = self.dot_rep(other);
        self.cr_self += 2.0 * dot + other.cr_self;
        self.ss += other.ss;
        self.size += other.size;
        match (&mut self.storage, &other.storage) {
            (Storage::Dense(a), Storage::Dense(b)) => {
                if b.len() > a.len() {
                    a.resize(b.len(), 0.0);
                }
                for (slot, w) in a.iter_mut().zip(b.iter()) {
                    *slot += w;
                }
            }
            (Storage::Sparse(a), Storage::Sparse(b)) => a.axpy_in_place(b, 1.0),
            (Storage::Sparse(a), Storage::Dense(b)) => {
                let entries: Vec<(TermId, f64)> = b
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w != 0.0)
                    .map(|(i, &w)| (TermId(i as u32), w))
                    .collect();
                a.axpy_in_place(&SparseVector::from_sorted(entries), 1.0);
            }
            (Storage::Dense(a), Storage::Sparse(b)) => {
                for (t, w) in b.iter() {
                    let idx = t.index();
                    if idx >= a.len() {
                        a.resize(idx + 1, 0.0);
                    }
                    a[idx] += w;
                }
            }
        }
    }

    /// Re-homes the representative onto `backend`, copying the stored
    /// entries and every cached statistic verbatim.
    ///
    /// Because the two backends are exact bit-level mirrors of each other
    /// (see [`RepBackend`]), the converted representative produces
    /// bit-identical dot products and statistics — only the storage (and
    /// its asymptotics) changes. Cost: O(nnz) sparse target, O(max term id)
    /// dense target.
    pub fn to_backend(&self, backend: RepBackend) -> ClusterRep {
        if self.backend() == backend {
            return self.clone();
        }
        let storage = match backend {
            RepBackend::Dense => {
                let mut v = Vec::new();
                self.for_each_entry(|t, w| {
                    let idx = t.index();
                    if idx >= v.len() {
                        v.resize(idx + 1, 0.0);
                    }
                    v[idx] = w;
                });
                Storage::Dense(v)
            }
            RepBackend::Sparse => {
                let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(self.nnz());
                // for_each_entry yields ascending term order, so the entry
                // list is sorted by construction
                self.for_each_entry(|t, w| entries.push((t, w)));
                Storage::Sparse(SparseVector::from_sorted(entries))
            }
        };
        ClusterRep {
            storage,
            size: self.size,
            cr_self: self.cr_self,
            ss: self.ss,
        }
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

    /// `avg_sim(C_p ∪ {d})` without mutating the cluster (eq. 26):
    ///
    /// ```text
    /// (cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)) / (|C|(|C|+1))
    /// ```
    ///
    /// Returns 0 for an empty cluster (a singleton has no pairs).
    pub fn avg_sim_if_added(&self, phi: &SparseVector) -> f64 {
        self.avg_sim_if_added_from_dot(self.dot_doc(phi))
    }

    /// [`ClusterRep::avg_sim_if_added`] with `cr_sim(C,{d})` supplied by the
    /// caller (e.g. from one [`crate::ClusterIndex::dot_all`] sweep).
    pub fn avg_sim_if_added_from_dot(&self, dot: f64) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let n = self.size as f64;
        let num = self.cr_self + 2.0 * dot - self.ss;
        (num / (n * (n + 1.0))).max(0.0)
    }

    /// `|C_p ∪ {d}|·avg_sim(C_p ∪ {d})` without mutating the cluster — the
    /// cluster's contribution to the clustering index `G` (eq. 17) if `d`
    /// joined:
    ///
    /// ```text
    /// (cr_sim(C,C) + 2·cr_sim(C,{d}) − ss(C)) / |C|      (|C| ≥ 1)
    /// ```
    ///
    /// Returns 0 for an empty cluster. Assigning each document to the
    /// cluster whose *G-term* increases the most greedily maximises the
    /// paper's clustering index; see the discussion of the two assignment
    /// criteria in `nidc-core`.
    pub fn g_term_if_added(&self, phi: &SparseVector) -> f64 {
        self.g_term_if_added_from_dot(self.dot_doc(phi))
    }

    /// [`ClusterRep::g_term_if_added`] with `cr_sim(C,{d})` supplied by the
    /// caller.
    pub fn g_term_if_added_from_dot(&self, dot: f64) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let n = self.size as f64;
        ((self.cr_self + 2.0 * dot - self.ss) / n).max(0.0)
    }

    /// `avg_sim(C_p \ {d})` without mutating the cluster — the deletion
    /// analogue of eq. 26. `φ` must be a current member.
    pub fn avg_sim_if_removed(&self, phi: &SparseVector) -> f64 {
        self.avg_sim_if_removed_from_dot(self.dot_doc(phi), phi.norm_sq())
    }

    /// [`ClusterRep::avg_sim_if_removed`] with `cr_sim(C,{d})` and `|φ|²`
    /// supplied by the caller.
    pub fn avg_sim_if_removed_from_dot(&self, dot: f64, norm_sq: f64) -> f64 {
        if self.size <= 2 {
            return 0.0;
        }
        let n = self.size as f64;
        let cr_new = self.cr_self - 2.0 * dot + norm_sq;
        let ss_new = self.ss - norm_sq;
        ((cr_new - ss_new) / ((n - 1.0) * (n - 2.0))).max(0.0)
    }

    /// Rebuilds every cached quantity exactly from the member φ vectors
    /// (removes floating-point drift after long add/remove chains).
    pub fn recompute_exact<'a, I>(&mut self, members: I)
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        self.size = 0;
        self.ss = 0.0;
        match &mut self.storage {
            Storage::Dense(v) => {
                v.iter_mut().for_each(|r| *r = 0.0);
                for phi in members {
                    for (t, w) in phi.iter() {
                        let idx = t.index();
                        if idx >= v.len() {
                            v.resize(idx + 1, 0.0);
                        }
                        v[idx] += w;
                    }
                    self.ss += phi.norm_sq();
                    self.size += 1;
                }
                self.cr_self = v.iter().map(|r| r * r).sum();
            }
            Storage::Sparse(s) => {
                // Accumulate per term in member order — the same scalar-op
                // sequence the dense backend's slot accumulation performs —
                // into a hash map, then sort once. An axpy per member would
                // rewrite the whole entry list each time (O(|C|·nnz(c⃗))).
                // Map iteration order is never observed: entries are sorted
                // before use.
                let mut acc: std::collections::HashMap<TermId, f64> =
                    std::collections::HashMap::with_capacity(s.nnz());
                for phi in members {
                    for (t, w) in phi.iter() {
                        *acc.entry(t).or_insert(0.0) += w;
                    }
                    self.ss += phi.norm_sq();
                    self.size += 1;
                }
                let mut entries: Vec<(TermId, f64)> =
                    acc.into_iter().filter(|&(_, w)| w != 0.0).collect();
                entries.sort_unstable_by_key(|&(t, _)| t);
                *s = SparseVector::from_sorted(entries);
                self.cr_self = s.iter().map(|(_, w)| w * w).sum();
            }
        }
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
    /// Heap footprint of the stored vector (full buffer capacity on both
    /// backends); the cached scalar statistics are inline and excluded.
    fn deep_size_bytes(&self) -> u64 {
        match &self.storage {
            Storage::Dense(v) => (v.capacity() * std::mem::size_of::<f64>()) as u64,
            Storage::Sparse(s) => s.deep_size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [RepBackend; 2] = [RepBackend::Dense, RepBackend::Sparse];

    fn phi(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
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
        for backend in BACKENDS {
            let members = sample_members();
            let rep = ClusterRep::from_members_with(backend, members.iter());
            let n = members.len() as f64;
            // eq. 22: cr_sim(C,C) = n(n−1)·avg_sim + ss
            let lhs = rep.cr_self();
            let rhs = n * (n - 1.0) * brute_avg_sim(&members) + rep.ss();
            assert!((lhs - rhs).abs() < 1e-12, "{backend}");
        }
    }

    #[test]
    fn eq24_avg_sim_matches_brute_force() {
        for backend in BACKENDS {
            let members = sample_members();
            let rep = ClusterRep::from_members_with(backend, members.iter());
            assert!(
                (rep.avg_sim() - brute_avg_sim(&members)).abs() < 1e-12,
                "{backend}"
            );
        }
    }

    #[test]
    fn eq26_append_preview_matches_actual_append() {
        for backend in BACKENDS {
            let members = sample_members();
            let newcomer = phi(&[(1, 0.3), (2, 0.3)]);
            let mut rep = ClusterRep::from_members_with(backend, members.iter());
            let predicted = rep.avg_sim_if_added(&newcomer);
            rep.add(&newcomer);
            assert!((predicted - rep.avg_sim()).abs() < 1e-12, "{backend}");
            // and against brute force
            let mut all = members;
            all.push(newcomer);
            assert!(
                (rep.avg_sim() - brute_avg_sim(&all)).abs() < 1e-12,
                "{backend}"
            );
        }
    }

    #[test]
    fn removal_preview_matches_actual_removal() {
        for backend in BACKENDS {
            let members = sample_members();
            let mut rep = ClusterRep::from_members_with(backend, members.iter());
            let predicted = rep.avg_sim_if_removed(&members[1]);
            rep.remove(&members[1]);
            assert!((predicted - rep.avg_sim()).abs() < 1e-12, "{backend}");
            let remaining: Vec<_> = members
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, m)| m.clone())
                .collect();
            assert!(
                (rep.avg_sim() - brute_avg_sim(&remaining)).abs() < 1e-12,
                "{backend}"
            );
        }
    }

    #[test]
    fn add_then_remove_is_identity() {
        for backend in BACKENDS {
            let members = sample_members();
            let mut rep = ClusterRep::from_members_with(backend, members.iter());
            let before = (rep.size(), rep.cr_self(), rep.ss(), rep.avg_sim());
            let d = phi(&[(0, 0.9), (3, 0.1)]);
            rep.add(&d);
            rep.remove(&d);
            assert_eq!(rep.size(), before.0);
            assert!((rep.cr_self() - before.1).abs() < 1e-12);
            assert!((rep.ss() - before.2).abs() < 1e-12);
            assert!((rep.avg_sim() - before.3).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_formula_eq25() {
        // avg_sim(C_p ∪ C_q) from representative quantities, two disjoint sets.
        for backend in BACKENDS {
            let p_members = vec![phi(&[(0, 0.4)]), phi(&[(0, 0.2), (1, 0.5)])];
            let q_members = vec![phi(&[(1, 0.3), (2, 0.2)]), phi(&[(2, 0.6)])];
            let p = ClusterRep::from_members_with(backend, p_members.iter());
            let q = ClusterRep::from_members_with(backend, q_members.iter());
            let np = p.size() as f64;
            let nq = q.size() as f64;
            let merged_avg = (p.cr_self() + 2.0 * p.dot_rep(&q) + q.cr_self() - p.ss() - q.ss())
                / ((np + nq) * (np + nq - 1.0));
            let mut all = p_members;
            all.extend(q_members);
            assert!(
                (merged_avg - brute_avg_sim(&all)).abs() < 1e-12,
                "{backend}"
            );
        }
    }

    #[test]
    fn merge_from_matches_from_members_on_both_backends() {
        for backend in BACKENDS {
            let p_members = vec![phi(&[(0, 0.4)]), phi(&[(0, 0.2), (1, 0.5)])];
            let q_members = vec![phi(&[(1, 0.3), (2, 0.2)]), phi(&[(2, 0.6)])];
            let mut merged = ClusterRep::from_members_with(backend, p_members.iter());
            let q = ClusterRep::from_members_with(backend, q_members.iter());
            merged.merge_from(&q);
            let mut all = p_members;
            all.extend(q_members);
            let reference = ClusterRep::from_members_with(backend, all.iter());
            assert_eq!(merged.size(), reference.size(), "{backend}");
            assert!(
                (merged.cr_self() - reference.cr_self()).abs() < 1e-12,
                "{backend}"
            );
            assert_eq!(merged.ss(), reference.ss(), "{backend}");
            assert!(
                (merged.avg_sim() - brute_avg_sim(&all)).abs() < 1e-12,
                "{backend}"
            );
            // the merged vector itself matches term by term
            let probe = phi(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]);
            assert!((merged.dot_doc(&probe) - reference.dot_doc(&probe)).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_from_across_backends_matches_same_backend() {
        let p_members = sample_members();
        let q_members = [phi(&[(1, 0.3), (5, 0.2)]), phi(&[(2, 0.6)])];
        for self_backend in BACKENDS {
            let reference = {
                let mut r = ClusterRep::from_members_with(self_backend, p_members.iter());
                r.merge_from(&ClusterRep::from_members_with(
                    self_backend,
                    q_members.iter(),
                ));
                r
            };
            for other_backend in BACKENDS {
                let mut merged = ClusterRep::from_members_with(self_backend, p_members.iter());
                merged.merge_from(&ClusterRep::from_members_with(
                    other_backend,
                    q_members.iter(),
                ));
                assert_eq!(merged.backend(), self_backend, "keeps self's backend");
                assert_eq!(merged.size(), reference.size());
                assert_eq!(merged.cr_self(), reference.cr_self());
                assert_eq!(merged.ss(), reference.ss());
                let probe = phi(&[(0, 0.2), (1, 0.4), (2, 0.1), (5, 0.9)]);
                assert_eq!(merged.dot_doc(&probe), reference.dot_doc(&probe));
            }
        }
    }

    #[test]
    fn merge_from_empty_is_identity_and_into_empty_is_copy() {
        for backend in BACKENDS {
            let members = sample_members();
            let rep = ClusterRep::from_members_with(backend, members.iter());
            let mut with_empty = rep.clone();
            with_empty.merge_from(&ClusterRep::new_with(backend));
            assert_eq!(with_empty.size(), rep.size());
            assert_eq!(with_empty.cr_self(), rep.cr_self());
            assert_eq!(with_empty.ss(), rep.ss());

            let mut from_empty = ClusterRep::new_with(backend);
            from_empty.merge_from(&rep);
            assert_eq!(from_empty.size(), rep.size());
            assert_eq!(from_empty.cr_self(), rep.cr_self());
            assert_eq!(from_empty.ss(), rep.ss());
        }
    }

    #[test]
    fn dot_rep_mixed_backends_agree() {
        let p_members = sample_members();
        let q_members = [phi(&[(1, 0.3), (2, 0.2)]), phi(&[(3, 0.6)])];
        let pd = ClusterRep::from_members_with(RepBackend::Dense, p_members.iter());
        let ps = ClusterRep::from_members_with(RepBackend::Sparse, p_members.iter());
        let qd = ClusterRep::from_members_with(RepBackend::Dense, q_members.iter());
        let qs = ClusterRep::from_members_with(RepBackend::Sparse, q_members.iter());
        let reference = pd.dot_rep(&qd);
        for (a, b) in [(&ps, &qs), (&ps, &qd), (&pd, &qs)] {
            assert!((a.dot_rep(b) - reference).abs() < 1e-15);
        }
    }

    #[test]
    fn empty_and_singleton_clusters() {
        for backend in BACKENDS {
            let mut rep = ClusterRep::new_with(backend);
            assert_eq!(rep.avg_sim(), 0.0);
            assert_eq!(rep.g_term(), 0.0);
            assert_eq!(rep.avg_sim_if_added(&phi(&[(0, 1.0)])), 0.0);
            rep.add(&phi(&[(0, 1.0)]));
            assert_eq!(rep.size(), 1);
            assert_eq!(rep.avg_sim(), 0.0); // singleton: no pairs
        }
    }

    #[test]
    fn removing_last_member_restores_exact_emptiness() {
        for backend in BACKENDS {
            let d = phi(&[(0, 0.3), (2, 0.7)]);
            let mut rep = ClusterRep::new_with(backend);
            rep.add(&d);
            rep.remove(&d);
            assert!(rep.is_empty(), "{backend}");
            assert_eq!(rep.cr_self(), 0.0);
            assert_eq!(rep.ss(), 0.0);
            assert_eq!(rep.nnz(), 0, "{backend}: stored weights must be zeroed");
            let mut seen = 0;
            rep.for_each_entry(|_, _| seen += 1);
            assert_eq!(seen, 0);
        }
    }

    #[test]
    fn dot_doc_handles_terms_beyond_stored_range() {
        for backend in BACKENDS {
            let rep = ClusterRep::from_members_with(backend, [phi(&[(0, 1.0)])].iter());
            // φ mentions term 5, beyond the rep's support: contributes 0.
            assert_eq!(rep.dot_doc(&phi(&[(0, 2.0), (5, 3.0)])), 2.0);
        }
    }

    #[test]
    fn add_grows_support_on_demand() {
        for backend in BACKENDS {
            let mut rep = ClusterRep::new_with(backend);
            rep.add(&phi(&[(4, 1.5)]));
            assert_eq!(rep.nnz(), 1);
            assert_eq!(rep.weight(TermId(4)), 1.5);
            assert_eq!(rep.weight(TermId(3)), 0.0);
        }
    }

    #[test]
    fn recompute_exact_matches_incremental() {
        for backend in BACKENDS {
            let members = sample_members();
            let mut rep = ClusterRep::new_with(backend);
            for m in &members {
                rep.add(m);
            }
            let mut exact = rep.clone();
            exact.recompute_exact(members.iter());
            assert!((rep.cr_self() - exact.cr_self()).abs() < 1e-12);
            assert!((rep.ss() - exact.ss()).abs() < 1e-12);
            assert_eq!(rep.size(), exact.size());
        }
    }

    #[test]
    fn top_terms_are_sorted_descending() {
        for backend in BACKENDS {
            let rep = ClusterRep::from_members_with(
                backend,
                [phi(&[(0, 0.1), (1, 0.9), (2, 0.5)])].iter(),
            );
            let top = rep.top_terms(2);
            assert_eq!(top.len(), 2);
            assert_eq!(top[0].0, TermId(1));
            assert_eq!(top[1].0, TermId(2));
        }
    }

    #[test]
    fn top_terms_is_nnz_bounded_on_high_dimension_rep() {
        // A sparse rep whose largest term id is in the tens of millions must
        // not allocate or scan a vocabulary-sized buffer: the candidate list
        // is bounded by nnz, not by the term-id range.
        let mut rep = ClusterRep::new();
        rep.add(&phi(&[(30_000_000, 1.0), (5, 3.0), (17_000_000, 2.0)]));
        assert_eq!(rep.nnz(), 3);
        let all = rep.top_terms(usize::MAX);
        assert_eq!(all.len(), 3, "candidate list must be nnz-bounded");
        assert_eq!(all[0].0, TermId(5));
        assert_eq!(all[1].0, TermId(17_000_000));
    }

    #[test]
    fn g_term_if_added_preview_matches_actual() {
        for backend in BACKENDS {
            let members = sample_members();
            let newcomer = phi(&[(0, 0.2), (2, 0.4)]);
            let mut rep = ClusterRep::from_members_with(backend, members.iter());
            let preview = rep.g_term_if_added(&newcomer);
            rep.add(&newcomer);
            assert!((preview - rep.g_term()).abs() < 1e-12);
        }
    }

    #[test]
    fn g_term_if_added_to_empty_is_zero() {
        let rep = ClusterRep::new();
        assert_eq!(rep.g_term_if_added(&phi(&[(0, 1.0)])), 0.0);
    }

    #[test]
    fn g_term_if_added_to_singleton_is_twice_sim() {
        for backend in BACKENDS {
            let seed = phi(&[(0, 0.6), (1, 0.2)]);
            let rep = ClusterRep::from_members_with(backend, [seed.clone()].iter());
            let d = phi(&[(0, 0.5), (1, 0.5)]);
            assert!((rep.g_term_if_added(&d) - 2.0 * seed.dot(&d)).abs() < 1e-12);
        }
    }

    #[test]
    fn g_term_is_size_times_avg_sim() {
        for backend in BACKENDS {
            let members = sample_members();
            let rep = ClusterRep::from_members_with(backend, members.iter());
            assert!((rep.g_term() - 4.0 * rep.avg_sim()).abs() < 1e-12);
        }
    }

    #[test]
    fn backends_are_bit_identical_through_churn() {
        let members = sample_members();
        let churn = [phi(&[(0, 0.9), (3, 0.1)]), phi(&[(2, 0.5)])];
        let mut dense = ClusterRep::new_with(RepBackend::Dense);
        let mut sparse = ClusterRep::new_with(RepBackend::Sparse);
        for m in &members {
            dense.add(m);
            sparse.add(m);
        }
        for d in &churn {
            dense.add(d);
            sparse.add(d);
        }
        for d in churn.iter().rev() {
            dense.remove(d);
            sparse.remove(d);
        }
        assert_eq!(
            dense.cr_self(),
            sparse.cr_self(),
            "cr_self must be bitwise equal"
        );
        assert_eq!(dense.ss(), sparse.ss());
        assert_eq!(dense.avg_sim(), sparse.avg_sim());
        let probe = phi(&[(0, 0.2), (1, 0.4), (3, 0.3)]);
        assert_eq!(dense.dot_doc(&probe), sparse.dot_doc(&probe));
        assert_eq!(
            dense.avg_sim_if_added(&probe),
            sparse.avg_sim_if_added(&probe)
        );
    }

    #[test]
    fn to_backend_is_bit_identical_in_every_direction() {
        let members = sample_members();
        let probe = phi(&[(0, 0.2), (1, 0.4), (2, 0.1), (3, 0.9)]);
        for src in BACKENDS {
            for dst in BACKENDS {
                let rep = ClusterRep::from_members_with(src, members.iter());
                let conv = rep.to_backend(dst);
                assert_eq!(conv.backend(), dst, "{src}→{dst}");
                assert_eq!(conv.size(), rep.size());
                assert_eq!(conv.cr_self(), rep.cr_self(), "{src}→{dst}");
                assert_eq!(conv.ss(), rep.ss());
                assert_eq!(conv.nnz(), rep.nnz());
                assert_eq!(conv.dot_doc(&probe), rep.dot_doc(&probe), "{src}→{dst}");
            }
        }
    }

    #[test]
    fn from_parts_round_trips_entries_and_stats_verbatim() {
        for backend in BACKENDS {
            let rep = ClusterRep::from_members_with(backend, sample_members().iter());
            let mut entries = Vec::new();
            rep.for_each_entry(|t, w| entries.push((t, w)));
            let restored = ClusterRep::from_parts(entries, rep.size(), rep.cr_self(), rep.ss());
            assert_eq!(restored.backend(), RepBackend::Sparse);
            assert_eq!(restored.size(), rep.size());
            assert_eq!(restored.cr_self().to_bits(), rep.cr_self().to_bits());
            assert_eq!(restored.ss().to_bits(), rep.ss().to_bits());
            let probe = phi(&[(0, 0.2), (1, 0.4), (2, 0.1), (3, 0.9)]);
            assert!((restored.dot_doc(&probe) - rep.dot_doc(&probe)).abs() < 1e-15);
        }
    }

    #[test]
    fn deep_size_reflects_backend_storage() {
        use nidc_obs::DeepSize;
        let members = sample_members();
        let dense = ClusterRep::from_members_with(RepBackend::Dense, members.iter());
        let sparse = ClusterRep::from_members_with(RepBackend::Sparse, members.iter());
        // dense: 4 term slots × 8 bytes minimum; sparse: 4 nnz × 16 bytes.
        assert!(
            dense.deep_size_bytes() >= 4 * 8,
            "{}",
            dense.deep_size_bytes()
        );
        assert!(sparse.deep_size_bytes() >= 4 * 16);
        assert_eq!(ClusterRep::new().deep_size_bytes(), 0);
    }

    #[test]
    fn backend_parsing_and_display() {
        assert_eq!("dense".parse::<RepBackend>().unwrap(), RepBackend::Dense);
        assert_eq!("sparse".parse::<RepBackend>().unwrap(), RepBackend::Sparse);
        assert!("fancy".parse::<RepBackend>().is_err());
        assert_eq!(RepBackend::default(), RepBackend::Sparse);
        assert_eq!(RepBackend::Dense.to_string(), "dense");
    }
}
