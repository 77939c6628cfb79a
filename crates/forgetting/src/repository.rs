//! The document repository with forgetting-model statistics.

use std::collections::BTreeMap;

use nidc_obs::{buckets, LazyCounter, LazyHistogram};
use nidc_textproc::{DocId, SparseVector, TermId};

use crate::{DecayParams, Error, Result, StatsSnapshot, Timestamp};

/// Incremental clock-advance (decay) pass timings, O(docs + vocab).
static ADVANCE_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_forgetting_advance_seconds", buckets::LATENCY_SECONDS);
/// From-scratch statistics rebuild timings, O(total tokens).
static RECOMPUTE_SECONDS: LazyHistogram = LazyHistogram::new(
    "nidc_forgetting_recompute_seconds",
    buckets::LATENCY_SECONDS,
);
/// Documents inserted into the repository.
static DOCS_INSERTED: LazyCounter = LazyCounter::new("nidc_forgetting_docs_inserted_total");
/// Documents dropped by ε-expiration.
static DOCS_EXPIRED: LazyCounter = LazyCounter::new("nidc_forgetting_docs_expired_total");
/// Times a clamp-to-zero actually absorbed negative floating-point residue
/// (in `tdw` or a term numerator). Always-on so fp drift is observable in
/// release builds, where the accompanying `debug_assert!`s compile out.
static FP_RESIDUE_CLAMPS: LazyCounter = LazyCounter::new("nidc_fp_residue_clamps_total");

/// A stored document: raw term frequencies plus forgetting-model state.
#[derive(Debug, Clone)]
pub struct DocEntry {
    tf: SparseVector,
    len: f64,
    acquired: Timestamp,
    weight: f64,
}

impl DocEntry {
    /// Raw term frequencies `f_ik`.
    pub fn tf(&self) -> &SparseVector {
        &self.tf
    }

    /// Document length `len_i = Σ_l f_il` (eq. 15).
    pub fn len(&self) -> f64 {
        self.len
    }

    /// Acquisition time `T_i`.
    pub fn acquired(&self) -> Timestamp {
        self.acquired
    }

    /// Current weight `dw_i` (relative to the repository clock).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The conditional term distribution `Pr(t_k|d_i) = f_ik/len_i` (eq. 8).
    pub fn term_distribution(&self) -> SparseVector {
        self.tf.scaled(1.0 / self.len)
    }
}

/// Aggregate statistics of a [`Repository`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepositoryStats {
    /// Number of live documents.
    pub num_docs: usize,
    /// Dimension of the term-statistics table (highest seen term id + 1).
    pub vocab_dim: usize,
    /// Total document weight `tdw` (eq. 3).
    pub tdw: f64,
    /// The repository clock.
    pub now: Timestamp,
}

/// The document repository: documents, their decaying weights, and the
/// derived probabilities of the forgetting model.
///
/// See the [crate documentation](crate) for the model and the incremental /
/// non-incremental update paths.
#[derive(Debug, Clone)]
pub struct Repository {
    params: DecayParams,
    now: Timestamp,
    docs: BTreeMap<DocId, DocEntry>,
    /// `tdw = Σ_i dw_i` (eq. 3), maintained incrementally (eq. 28).
    tdw: f64,
    /// Per-term numerators `S_k = Σ_i dw_i · Pr(t_k|d_i)`, so that
    /// `Pr(t_k) = S_k / tdw` (eq. 10). Indexed by term id.
    term_num: Vec<f64>,
}

impl Repository {
    /// Creates an empty repository with clock at the epoch.
    pub fn new(params: DecayParams) -> Self {
        Self {
            params,
            now: Timestamp::EPOCH,
            docs: BTreeMap::new(),
            tdw: 0.0,
            term_num: Vec::new(),
        }
    }

    /// The decay parameters.
    pub fn params(&self) -> &DecayParams {
        &self.params
    }

    /// The repository clock `τ` (time of the last update).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the repository holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Whether document `id` is stored.
    pub fn contains(&self, id: DocId) -> bool {
        self.docs.contains_key(&id)
    }

    /// The stored entry for `id`.
    pub fn doc(&self, id: DocId) -> Option<&DocEntry> {
        self.docs.get(&id)
    }

    /// Iterates `(DocId, &DocEntry)` in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &DocEntry)> {
        self.docs.iter().map(|(&id, e)| (id, e))
    }

    /// The ids of all live documents, in order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.docs.keys().copied().collect()
    }

    /// Total document weight `tdw` (eq. 3).
    pub fn tdw(&self) -> f64 {
        self.tdw
    }

    /// Dimension of the term-statistics table.
    pub fn vocab_dim(&self) -> usize {
        self.term_num.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RepositoryStats {
        RepositoryStats {
            num_docs: self.docs.len(),
            vocab_dim: self.term_num.len(),
            tdw: self.tdw,
            now: self.now,
        }
    }

    /// Current weight `dw_i` of document `id` (eq. 1).
    pub fn doc_weight(&self, id: DocId) -> Result<f64> {
        self.docs
            .get(&id)
            .map(|e| e.weight)
            .ok_or(Error::UnknownDocument(id))
    }

    /// Selection probability `Pr(d_i) = dw_i / tdw` (eq. 4).
    pub fn pr_doc(&self, id: DocId) -> Result<f64> {
        let w = self.doc_weight(id)?;
        Ok(if self.tdw > 0.0 { w / self.tdw } else { 0.0 })
    }

    /// Term occurrence probability `Pr(t_k)` (eq. 10).
    ///
    /// Returns 0 for terms no live document contains.
    pub fn pr_term(&self, term: TermId) -> f64 {
        if self.tdw <= 0.0 {
            return 0.0;
        }
        match self.term_num.get(term.index()) {
            Some(&s) if s > 0.0 => s / self.tdw,
            Some(_) | None => 0.0,
        }
    }

    /// Advances the repository clock to `t`, decaying every statistic by
    /// `λ^Δτ` — the paper's incremental update (eqs. 27–28 and the analogous
    /// scaling of the `S_k` numerators).
    ///
    /// Cost: O(#docs + vocab_dim).
    ///
    /// # Errors
    /// [`Error::TimeWentBackwards`] if `t` precedes the clock;
    /// [`Error::NonFiniteTimestamp`] for NaN/infinite `t`.
    pub fn advance_to(&mut self, t: Timestamp) -> Result<()> {
        if !t.is_finite() {
            return Err(Error::NonFiniteTimestamp(t));
        }
        if t < self.now {
            return Err(Error::TimeWentBackwards {
                current: self.now,
                requested: t,
            });
        }
        let delta = t - self.now;
        if delta == 0.0 {
            return Ok(());
        }
        // Span after the zero-delta early return: only real decay passes
        // show up in a trace.
        let _span = nidc_obs::span!("repo.advance", ADVANCE_SECONDS);
        let factor = self.params.decay_over(delta);
        for entry in self.docs.values_mut() {
            entry.weight *= factor; // eq. 27
        }
        self.tdw *= factor; // eq. 28 (new-document term added by insert())
        for s in &mut self.term_num {
            *s *= factor;
        }
        self.now = t;
        Ok(())
    }

    /// Inserts a document acquired at time `t` with raw term frequencies
    /// `tf`. The clock is advanced to `t` first (documents must arrive in
    /// chronological order).
    ///
    /// # Errors
    /// [`Error::DuplicateDocument`], [`Error::EmptyDocument`], or any error
    /// of [`Repository::advance_to`].
    pub fn insert(&mut self, id: DocId, t: Timestamp, tf: SparseVector) -> Result<()> {
        if self.docs.contains_key(&id) {
            return Err(Error::DuplicateDocument(id));
        }
        let len = tf.sum();
        if len <= 0.0 || len.is_nan() {
            return Err(Error::EmptyDocument(id));
        }
        self.advance_to(t)?;
        // New document: dw = 1 (§5.1 step 1), tdw += 1 (the m' term of eq. 28),
        // S_k += Pr(t_k|d) for each term.
        for (term, f) in tf.iter() {
            let idx = term.index();
            let dim = self.term_num.len();
            if idx >= dim {
                if idx >= self.term_num.capacity() {
                    // grow by at least an eighth, not `resize`'s doubling:
                    // amortised O(1) still, with at most 12.5 % slack
                    self.term_num.reserve_exact((idx + 1 - dim).max(dim / 8));
                }
                self.term_num.resize(idx + 1, 0.0);
            }
            self.term_num[idx] += f / len;
        }
        self.tdw += 1.0;
        self.docs.insert(
            id,
            DocEntry {
                tf,
                len,
                acquired: t,
                weight: 1.0,
            },
        );
        DOCS_INSERTED.inc();
        Ok(())
    }

    /// Inserts a batch of documents that all arrived at time `t`.
    ///
    /// On error, documents inserted earlier in the batch remain stored.
    pub fn insert_batch<I>(&mut self, t: Timestamp, docs: I) -> Result<()>
    where
        I: IntoIterator<Item = (DocId, SparseVector)>,
    {
        for (id, tf) in docs {
            self.insert(id, t, tf)?;
        }
        Ok(())
    }

    /// Removes document `id`, subtracting its contributions from `tdw` and
    /// the term numerators. Returns the removed entry.
    pub fn remove(&mut self, id: DocId) -> Result<DocEntry> {
        let entry = self.docs.remove(&id).ok_or(Error::UnknownDocument(id))?;
        let mut clamps = 0u64;
        self.tdw -= entry.weight;
        for (term, f) in entry.tf.iter() {
            if let Some(s) = self.term_num.get_mut(term.index()) {
                let contribution = entry.weight * f / entry.len;
                *s -= contribution;
                // The clamp below exists only to absorb floating-point
                // residue from long incremental chains; a substantially
                // negative numerator means a real accounting bug (e.g. a
                // contribution subtracted twice), which must not be masked.
                debug_assert!(
                    *s >= -1e-9 * (1.0 + contribution.abs()),
                    "term {term} numerator went negative beyond fp drift: {s}"
                );
                if *s < 0.0 {
                    *s = 0.0; // clamp tiny negative drift
                    clamps += 1;
                }
            }
        }
        debug_assert!(
            self.tdw >= -1e-9 * (1.0 + entry.weight),
            "tdw went negative beyond fp drift: {}",
            self.tdw
        );
        if self.tdw < 0.0 {
            self.tdw = 0.0;
            clamps += 1;
        }
        // add(0) keeps the counter registered even in drift-free runs.
        FP_RESIDUE_CLAMPS.add(clamps);
        Ok(entry)
    }

    /// Expires every document whose weight has dropped below `ε = λ^γ`
    /// (§5.2 step 2). Returns the expired ids in order.
    pub fn expire(&mut self) -> Vec<DocId> {
        let mut dead = Vec::new();
        self.expire_with(|id| dead.push(id));
        dead
    }

    /// Like [`Repository::expire`], but streams each expired id into
    /// `on_expire` as it is removed. Incremental callers use this to retire
    /// the document's contribution from downstream state in the same pass —
    /// cluster representatives and the term→cluster index via
    /// `remove(φ_d)`, warm-start assignment maps by dropping the key —
    /// instead of re-deriving the expired set afterwards.
    pub fn expire_with<F: FnMut(DocId)>(&mut self, mut on_expire: F) {
        let eps = self.params.epsilon();
        let dead: Vec<DocId> = self
            .docs
            .iter()
            .filter(|(_, e)| e.weight < eps)
            .map(|(&id, _)| id)
            .collect();
        DOCS_EXPIRED.add(dead.len() as u64);
        for id in dead {
            let _ = self.remove(id);
            on_expire(id);
        }
    }

    /// The **non-incremental** statistics rebuild of the paper's
    /// Experiment 1: recomputes every `dw_i` from `λ^(τ−T_i)`, re-sums `tdw`,
    /// and re-accumulates every `S_k` from a full pass over all postings.
    ///
    /// Cost: O(total tokens). Also removes accumulated floating-point drift
    /// from long chains of incremental updates.
    pub fn recompute_from_scratch(&mut self) {
        let _span = nidc_obs::span!("repo.recompute", RECOMPUTE_SECONDS);
        let mut tdw = 0.0;
        for s in &mut self.term_num {
            *s = 0.0;
        }
        // Collect first: we cannot borrow docs mutably while updating term_num.
        let lambda = self.params;
        let now = self.now;
        for entry in self.docs.values_mut() {
            entry.weight = lambda.weight_at_age(now - entry.acquired);
            tdw += entry.weight;
        }
        for entry in self.docs.values() {
            let scale = entry.weight / entry.len;
            for (term, f) in entry.tf.iter() {
                let idx = term.index();
                if idx >= self.term_num.len() {
                    self.term_num.resize(idx + 1, 0.0);
                }
                self.term_num[idx] += scale * f;
            }
        }
        // the rebuilt table keeps no slack from amortised growth
        self.term_num.shrink_to_fit();
        self.tdw = tdw;
    }

    /// [`Repository::recompute_from_scratch`]; `_threads` is ignored. The
    /// rebuild is a milliseconds-long pass, so it runs sequentially. This
    /// forward exists only because the `bench_e2e` replay still calls it;
    /// nothing else may.
    pub fn recompute_from_scratch_with(&mut self, _threads: usize) {
        self.recompute_from_scratch();
    }

    /// Maximum absolute deviation between the incrementally-maintained
    /// statistics and an exact from-scratch recomputation. Used to bound
    /// numerical drift in tests.
    pub fn drift(&self) -> f64 {
        let mut exact = self.clone();
        exact.recompute_from_scratch();
        let mut worst: f64 = (self.tdw - exact.tdw).abs();
        for (a, b) in self.term_num.iter().zip(exact.term_num.iter()) {
            worst = worst.max((a - b).abs());
        }
        for (id, e) in self.iter() {
            let w = exact.doc_weight(id).expect("same docs");
            worst = worst.max((e.weight - w).abs());
        }
        worst
    }

    /// Freezes the current probabilities into a [`StatsSnapshot`] for the
    /// similarity machinery (idf table + per-document selection
    /// probabilities).
    ///
    /// Only the terms of live documents get an idf, in O(live tokens); every
    /// other entry of the table is 0.0 — among them a term whose documents
    /// have all expired, although its numerator may keep floating-point
    /// residue from the removals.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut idf = vec![0.0; self.term_num.len()];
        for entry in self.docs.values() {
            for (term, _) in entry.tf.iter() {
                let slot = &mut idf[term.index()];
                if *slot == 0.0 {
                    let p = self.pr_term(term);
                    if p > 0.0 {
                        *slot = 1.0 / p.sqrt(); // eq. 14: idf_k = 1/√Pr(t_k)
                    }
                }
            }
        }
        let pr_doc = self
            .docs
            .iter()
            .map(|(&id, e)| {
                (
                    id,
                    if self.tdw > 0.0 {
                        e.weight / self.tdw
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        StatsSnapshot::new(self.now, self.tdw, idf, pr_doc)
    }
}

impl nidc_obs::DeepSize for Repository {
    /// Heap footprint: the document map (per-entry node overhead plus each
    /// document's tf vector) and the per-term numerator table.
    fn deep_size_bytes(&self) -> u64 {
        nidc_obs::btree_map_size_bytes(&self.docs, |e| nidc_obs::DeepSize::deep_size_bytes(&e.tf))
            + (self.term_num.capacity() * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn params() -> DecayParams {
        DecayParams::from_spans(7.0, 14.0).unwrap()
    }

    #[test]
    fn insert_sets_unit_weight_and_updates_tdw() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.insert(DocId(1), Timestamp(0.0), tf(&[(1, 2.0)])).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.doc_weight(DocId(0)).unwrap(), 1.0);
        assert_eq!(r.tdw(), 2.0);
        assert_eq!(r.pr_doc(DocId(0)).unwrap(), 0.5);
    }

    #[test]
    fn deep_size_grows_with_documents() {
        use nidc_obs::DeepSize;
        let mut r = Repository::new(params());
        let empty = r.deep_size_bytes();
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0), (2, 3.0)]))
            .unwrap();
        let one = r.deep_size_bytes();
        // one map entry (key + DocEntry + node overhead) plus 2 tf entries
        // plus the term-numerator table up to term 2.
        assert!(one >= empty + 2 * 16, "{empty} -> {one}");
        r.insert(DocId(1), Timestamp(0.0), tf(&[(1, 1.0)])).unwrap();
        assert!(r.deep_size_bytes() > one);
    }

    #[test]
    fn duplicate_and_empty_documents_rejected() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        assert_eq!(
            r.insert(DocId(0), Timestamp(1.0), tf(&[(0, 1.0)])),
            Err(Error::DuplicateDocument(DocId(0)))
        );
        assert_eq!(
            r.insert(DocId(1), Timestamp(1.0), tf(&[])),
            Err(Error::EmptyDocument(DocId(1)))
        );
    }

    #[test]
    fn advance_decays_weights_exponentially() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.advance_to(Timestamp(7.0)).unwrap();
        assert!((r.doc_weight(DocId(0)).unwrap() - 0.5).abs() < 1e-12);
        r.advance_to(Timestamp(14.0)).unwrap();
        assert!((r.doc_weight(DocId(0)).unwrap() - 0.25).abs() < 1e-12);
        assert!((r.tdw() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut r = Repository::new(params());
        r.advance_to(Timestamp(5.0)).unwrap();
        assert!(matches!(
            r.advance_to(Timestamp(4.0)),
            Err(Error::TimeWentBackwards { .. })
        ));
        assert!(matches!(
            r.advance_to(Timestamp(f64::NAN)),
            Err(Error::NonFiniteTimestamp(_))
        ));
    }

    #[test]
    fn insert_implicitly_advances_clock() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.insert(DocId(1), Timestamp(7.0), tf(&[(0, 1.0)])).unwrap();
        assert_eq!(r.now(), Timestamp(7.0));
        // old doc decayed to 1/2, new doc weight 1 → tdw = 1.5 (eq. 28)
        assert!((r.tdw() - 1.5).abs() < 1e-12);
        assert!((r.pr_doc(DocId(1)).unwrap() - (1.0 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn pr_term_matches_definition() {
        // doc0: t0 ×2 (len 2) ; doc1: t0 ×1, t1 ×1 (len 2), same time.
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 2.0)])).unwrap();
        r.insert(DocId(1), Timestamp(0.0), tf(&[(0, 1.0), (1, 1.0)]))
            .unwrap();
        // Pr(t0) = Pr(t0|d0)Pr(d0) + Pr(t0|d1)Pr(d1) = 1.0*0.5 + 0.5*0.5 = 0.75
        assert!((r.pr_term(TermId(0)) - 0.75).abs() < 1e-12);
        assert!((r.pr_term(TermId(1)) - 0.25).abs() < 1e-12);
        assert_eq!(r.pr_term(TermId(99)), 0.0);
        // probabilities over the vocabulary sum to 1
        let total: f64 = (0..r.vocab_dim())
            .map(|k| r.pr_term(TermId(k as u32)))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pr_term_shifts_toward_recent_documents() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.insert(DocId(1), Timestamp(7.0), tf(&[(1, 1.0)])).unwrap();
        // doc0 has decayed to 1/2: Pr(t0) = 0.5/1.5, Pr(t1) = 1.0/1.5
        assert!(r.pr_term(TermId(1)) > r.pr_term(TermId(0)));
        assert!((r.pr_term(TermId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.pr_term(TermId(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn remove_subtracts_contributions() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 2.0)])).unwrap();
        r.insert(DocId(1), Timestamp(0.0), tf(&[(0, 1.0), (1, 1.0)]))
            .unwrap();
        let e = r.remove(DocId(0)).unwrap();
        assert_eq!(e.len(), 2.0);
        assert_eq!(r.len(), 1);
        assert!((r.tdw() - 1.0).abs() < 1e-12);
        assert!((r.pr_term(TermId(0)) - 0.5).abs() < 1e-12);
        assert!(matches!(r.remove(DocId(0)), Err(Error::UnknownDocument(_))));
    }

    #[test]
    fn expire_drops_documents_below_epsilon() {
        // γ=14 → ε=0.25. A doc aged 15 days has weight < 0.25.
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.insert(DocId(1), Timestamp(10.0), tf(&[(1, 1.0)]))
            .unwrap();
        r.advance_to(Timestamp(15.0)).unwrap();
        let dead = r.expire();
        assert_eq!(dead, vec![DocId(0)]);
        assert_eq!(r.len(), 1);
        assert!(r.contains(DocId(1)));
        // term 0 statistics must be gone
        assert_eq!(r.pr_term(TermId(0)), 0.0);
    }

    #[test]
    fn incremental_equals_scratch_after_many_updates() {
        let mut r = Repository::new(params());
        // Interleave inserts, advances, removals over 40 "days".
        let mut id = 0u64;
        for day in 0..40 {
            let t = Timestamp(day as f64);
            for j in 0..3 {
                r.insert(
                    DocId(id),
                    t,
                    tf(&[(j, 1.0 + j as f64), ((day % 5) as u32 + 3, 2.0)]),
                )
                .unwrap();
                id += 1;
            }
            if day % 7 == 6 {
                r.expire();
            }
        }
        assert!(
            r.drift() < 1e-9,
            "incremental statistics drifted: {}",
            r.drift()
        );
    }

    #[test]
    fn recompute_from_scratch_is_idempotent() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)])).unwrap();
        r.advance_to(Timestamp(3.0)).unwrap();
        r.recompute_from_scratch();
        let tdw1 = r.tdw();
        r.recompute_from_scratch();
        assert_eq!(r.tdw(), tdw1);
    }

    #[test]
    fn snapshot_exposes_idf_and_pr_doc() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 2.0)])).unwrap();
        r.insert(DocId(1), Timestamp(0.0), tf(&[(0, 1.0), (1, 1.0)]))
            .unwrap();
        let snap = r.snapshot();
        assert!((snap.idf(TermId(0)) - 1.0 / 0.75f64.sqrt()).abs() < 1e-12);
        assert!((snap.idf(TermId(1)) - 1.0 / 0.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(snap.idf(TermId(9)), 0.0);
        assert!((snap.pr_doc(DocId(0)).unwrap() - 0.5).abs() < 1e-12);
        assert!(snap.pr_doc(DocId(7)).is_none());
        assert_eq!(snap.num_docs(), 2);
    }

    #[test]
    fn snapshot_gives_idf_to_live_terms_only() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0), (1, 1.0)]))
            .unwrap();
        r.insert(DocId(1), Timestamp(2.0), tf(&[(0, 2.0), (2, 2.0)]))
            .unwrap();
        r.insert(DocId(2), Timestamp(20.0), tf(&[(2, 1.0), (3, 1.0)]))
            .unwrap();
        r.insert(DocId(3), Timestamp(20.0), tf(&[(3, 3.0), (5, 1.0)]))
            .unwrap();
        assert_eq!(r.expire(), vec![DocId(0), DocId(1)]);
        let snap = r.snapshot();
        // live terms: bit for bit the formula over the whole table
        for k in [2, 3, 5] {
            let want = 1.0 / r.pr_term(TermId(k)).sqrt();
            assert_eq!(snap.idf(TermId(k)).to_bits(), want.to_bits(), "term {k}");
        }
        // term 0 left only removal residue behind, which must not score
        assert!(r.pr_term(TermId(0)) > 0.0, "the removals leave residue");
        for k in [0, 1, 4] {
            assert_eq!(snap.idf(TermId(k)), 0.0, "term {k}");
        }
        assert_eq!(snap.idf_table().len(), r.vocab_dim());
    }

    #[test]
    fn term_table_grows_with_bounded_slack() {
        let mut r = Repository::new(params());
        let mut grown = 0;
        for i in 0..2000u32 {
            let cap = r.term_num.capacity();
            r.insert(DocId(u64::from(i)), Timestamp(0.0), tf(&[(i, 1.0)]))
                .unwrap();
            grown += usize::from(r.term_num.capacity() != cap);
            assert!(r.term_num.capacity() <= r.term_num.len() + r.term_num.len() / 8);
        }
        // amortised: each growth adds an eighth, so 2000 terms take ~50
        assert!(grown <= 60, "{grown} reallocations");
    }

    #[test]
    fn empty_repository_is_well_behaved() {
        let r = Repository::new(params());
        assert!(r.is_empty());
        assert_eq!(r.tdw(), 0.0);
        assert_eq!(r.pr_term(TermId(0)), 0.0);
        assert!(r.doc_weight(DocId(0)).is_err());
        let snap = r.snapshot();
        assert_eq!(snap.num_docs(), 0);
    }

    #[test]
    fn stats_reports_consistent_view() {
        let mut r = Repository::new(params());
        r.insert(DocId(0), Timestamp(1.0), tf(&[(5, 1.0)])).unwrap();
        let s = r.stats();
        assert_eq!(s.num_docs, 1);
        assert_eq!(s.vocab_dim, 6);
        assert_eq!(s.now, Timestamp(1.0));
        assert!((s.tdw - 1.0).abs() < 1e-12);
    }
}
