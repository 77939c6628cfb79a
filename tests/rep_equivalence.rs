//! Step-1 sweep equivalence: the extended K-means scores documents either
//! through the term→cluster [`ClusterIndex`] over sparse [`ClusterRep`]s or,
//! when `K · avg nnz(φ)` is small, against dense scratch representatives.
//! The two must agree **bitwise**, not merely closely, so which one a run
//! picks never shows in its result. Whole runs on both sides are compared
//! by the sweep proptest in `nidc-core`'s `algorithm.rs`.

use std::collections::BTreeMap;

use khy2006::prelude::*;
use proptest::prelude::*;

fn tf(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
}

/// Small synthetic document streams: `(term, weight)` lists arriving on a
/// slowly advancing clock (same shape as the determinism suite's strategy).
fn doc_stream() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..40, 1u64..9), 1..6), 3..40).prop_map(
        |docs| {
            docs.into_iter()
                .map(|d| d.into_iter().map(|(t, w)| (t, w as f64)).collect())
                .collect()
        },
    )
}

fn repo_from(docs: &[Vec<(u32, f64)>]) -> Repository {
    let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
    for (i, d) in docs.iter().enumerate() {
        repo.insert(DocId(i as u64), Timestamp(0.25 * i as f64), tf(d))
            .unwrap();
    }
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The step-1 scoring sweep in isolation: for every document, the
    /// inverted-index row (`ClusterIndex::dot_all`) and the per-cluster
    /// dense dots agree bitwise, so the argmax winner is the same document
    /// by document.
    #[test]
    fn step1_winner_is_backend_invariant(docs in doc_stream(), k in 2usize..6) {
        let repo = repo_from(&docs);
        let vecs = DocVectors::build(&repo);
        let ids = vecs.ids();
        // deal documents round-robin into k clusters, mirrored three ways
        let mut dense = vec![ClusterRep::new_dense(); k];
        let mut sparse = vec![ClusterRep::new(); k];
        let mut index = ClusterIndex::new(k);
        for (i, &d) in ids.iter().enumerate() {
            let phi = vecs.phi(d).unwrap();
            dense[i % k].add(phi);
            sparse[i % k].add(phi);
            index.add(i % k, phi);
        }
        let mut row = vec![0.0; k];
        for &d in &ids {
            let phi = vecs.phi(d).unwrap();
            index.dot_all(phi, &mut row);
            let mut winner_dense = 0usize;
            let mut winner_index = 0usize;
            for q in 0..k {
                let dd = dense[q].dot_doc(phi);
                prop_assert!(row[q] == dd,
                    "dot differs for {} cluster {}: index {} vs dense {}", d, q, row[q], dd);
                prop_assert!(sparse[q].dot_doc(phi) == dd);
                if dd > dense[winner_dense].dot_doc(phi) { winner_dense = q; }
                if row[q] > row[winner_index] { winner_index = q; }
            }
            prop_assert_eq!(winner_dense, winner_index);
        }
    }
}

/// The expire → warm-start path: expired documents are pruned from the
/// previous assignment in the same pass (`Repository::expire_with`), so the
/// K-means initial state never carries dead keys.
#[test]
fn expired_documents_leave_the_warm_start_assignment() {
    let mut pipeline = NoveltyPipeline::new(
        DecayParams::from_spans(3.0, 6.0).unwrap(),
        ClusteringConfig {
            k: 2,
            seed: 7,
            ..ClusteringConfig::default()
        },
    );
    for i in 0..8u64 {
        pipeline
            .ingest(
                DocId(i),
                Timestamp(0.1 * i as f64),
                tf(&[(i as u32 % 2 * 8, 3.0), (1 + i as u32 % 2 * 8, 1.0)]),
            )
            .unwrap();
    }
    pipeline.recluster_incremental().unwrap();
    let before: BTreeMap<DocId, usize> = pipeline.previous_assignment().unwrap().clone();
    assert!(!before.is_empty());
    // jump past γ: everything expires
    pipeline.advance_to(Timestamp(20.0)).unwrap();
    let dead = pipeline.expire();
    assert_eq!(dead.len(), 8, "all docs must expire");
    assert!(
        pipeline.previous_assignment().unwrap().is_empty(),
        "warm-start assignment still holds expired keys"
    );
}
