//! Materialised contribution vectors (φ) for one clustering session.

use std::collections::BTreeMap;

use nidc_forgetting::{Repository, StatsSnapshot};
use nidc_textproc::{DocId, SparseVector};

/// The φ vectors of every live document under one statistics snapshot.
///
/// `φ_i = (Pr(d_i)/len_i) · d⃗_i` where `d⃗_i` is the tf·idf vector, so that
/// `sim(d_i,d_j) = φ_i·φ_j` (paper eq. 16) and cluster representatives are
/// plain sums of φ vectors (eq. 20).
///
/// φ vectors are a function of the snapshot: after the statistics change
/// (new documents, decay), rebuild them with [`DocVectors::build`].
#[derive(Debug, Clone)]
pub struct DocVectors {
    phi: BTreeMap<DocId, SparseVector>,
    self_sim: BTreeMap<DocId, f64>,
    vocab_dim: usize,
}

impl DocVectors {
    /// Builds φ vectors for every document in `repo` under its current
    /// statistics.
    pub fn build(repo: &Repository) -> Self {
        let snapshot = repo.snapshot();
        Self::build_from_snapshot(
            &snapshot,
            repo.iter().map(|(id, e)| (id, e.tf(), e.len())),
            repo.vocab_dim(),
        )
    }

    /// Builds φ vectors from an explicit snapshot and `(id, tf, len)` triples.
    ///
    /// Documents unknown to the snapshot (no `Pr(d)`) are skipped.
    pub fn build_from_snapshot<'a, I>(snapshot: &StatsSnapshot, docs: I, vocab_dim: usize) -> Self
    where
        I: IntoIterator<Item = (DocId, &'a SparseVector, f64)>,
    {
        let mut phi = BTreeMap::new();
        let mut self_sim = BTreeMap::new();
        for (id, tf, len) in docs {
            let Some(pr) = snapshot.pr_doc(id) else {
                continue;
            };
            let scale = pr / len;
            // sized up front: the filter drops few terms, and a collect
            // would regrow the vector from empty
            let mut entries = Vec::with_capacity(tf.nnz());
            entries.extend(tf.iter().filter_map(|(t, f)| {
                let idf = snapshot.idf(t);
                (idf > 0.0).then_some((t, scale * f * idf))
            }));
            let v = SparseVector::from_sorted(entries);
            self_sim.insert(id, v.norm_sq());
            phi.insert(id, v);
        }
        Self {
            phi,
            self_sim,
            vocab_dim,
        }
    }

    /// [`DocVectors::build`]; `_threads` is ignored. The φ build is a
    /// milliseconds-long pass, so it runs sequentially. This forward exists
    /// only because the `bench_e2e` replay still calls it; nothing else may.
    pub fn build_parallel(repo: &Repository, _threads: usize) -> Self {
        Self::build(repo)
    }

    /// The φ vector of document `id`.
    pub fn phi(&self, id: DocId) -> Option<&SparseVector> {
        self.phi.get(&id)
    }

    /// `sim(d_i, d_j) = φ_i · φ_j` (eq. 16). `None` if either id is unknown.
    pub fn sim(&self, i: DocId, j: DocId) -> Option<f64> {
        Some(self.phi.get(&i)?.dot(self.phi.get(&j)?))
    }

    /// Self-similarity `sim(d, d) = |φ_d|²` — the summand of `ss(C_p)`
    /// (eq. 23).
    pub fn self_sim(&self, id: DocId) -> Option<f64> {
        self.self_sim.get(&id).copied()
    }

    /// Number of documents with materialised vectors.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// Whether no vectors were materialised.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// Dimension of the underlying term space (for sizing dense
    /// representatives).
    pub fn vocab_dim(&self) -> usize {
        self.vocab_dim
    }

    /// Document ids in ascending order.
    pub fn ids(&self) -> Vec<DocId> {
        self.phi.keys().copied().collect()
    }

    /// Iterates `(DocId, &φ)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &SparseVector)> {
        self.phi.iter().map(|(&id, v)| (id, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_reference;
    use nidc_forgetting::{DecayParams, Timestamp};
    use nidc_textproc::TermId;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    fn small_repo() -> Repository {
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 14.0).unwrap());
        repo.insert(DocId(0), Timestamp(0.0), tf(&[(0, 2.0), (1, 1.0)]))
            .unwrap();
        repo.insert(DocId(1), Timestamp(1.0), tf(&[(0, 1.0), (2, 3.0)]))
            .unwrap();
        repo.insert(
            DocId(2),
            Timestamp(2.0),
            tf(&[(1, 1.0), (2, 1.0), (3, 1.0)]),
        )
        .unwrap();
        repo
    }

    #[test]
    fn phi_dot_equals_reference_similarity() {
        let repo = small_repo();
        let vecs = DocVectors::build(&repo);
        for &i in &[0u64, 1, 2] {
            for &j in &[0u64, 1, 2] {
                let fast = vecs.sim(DocId(i), DocId(j)).unwrap();
                let slow = sim_reference(&repo, DocId(i), DocId(j)).unwrap();
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "sim({i},{j}): fast={fast} slow={slow}"
                );
            }
        }
    }

    #[test]
    fn self_sim_matches_diagonal() {
        let repo = small_repo();
        let vecs = DocVectors::build(&repo);
        for id in vecs.ids() {
            assert!((vecs.self_sim(id).unwrap() - vecs.sim(id, id).unwrap()).abs() < 1e-15);
        }
    }

    #[test]
    fn similarity_is_symmetric_and_nonnegative() {
        let repo = small_repo();
        let vecs = DocVectors::build(&repo);
        for i in vecs.ids() {
            for j in vecs.ids() {
                let s = vecs.sim(i, j).unwrap();
                assert!(s >= 0.0);
                assert_eq!(s, vecs.sim(j, i).unwrap());
            }
        }
    }

    #[test]
    fn older_documents_have_smaller_similarities() {
        // Same content, different ages: the newer pair must be more similar.
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 28.0).unwrap());
        repo.insert(DocId(0), Timestamp(0.0), tf(&[(0, 1.0)]))
            .unwrap();
        repo.insert(DocId(1), Timestamp(0.0), tf(&[(0, 1.0)]))
            .unwrap();
        repo.insert(DocId(2), Timestamp(14.0), tf(&[(0, 1.0)]))
            .unwrap();
        repo.insert(DocId(3), Timestamp(14.0), tf(&[(0, 1.0)]))
            .unwrap();
        let vecs = DocVectors::build(&repo);
        let old_pair = vecs.sim(DocId(0), DocId(1)).unwrap();
        let new_pair = vecs.sim(DocId(2), DocId(3)).unwrap();
        assert!(
            new_pair > old_pair,
            "novelty bias violated: new={new_pair} old={old_pair}"
        );
    }

    #[test]
    fn unknown_ids_yield_none() {
        let repo = small_repo();
        let vecs = DocVectors::build(&repo);
        assert!(vecs.sim(DocId(0), DocId(99)).is_none());
        assert!(vecs.phi(DocId(99)).is_none());
        assert!(vecs.self_sim(DocId(99)).is_none());
    }

    #[test]
    fn build_covers_all_live_documents() {
        let repo = small_repo();
        let vecs = DocVectors::build(&repo);
        assert_eq!(vecs.len(), repo.len());
        assert_eq!(vecs.vocab_dim(), repo.vocab_dim());
        assert!(!vecs.is_empty());
    }
}
