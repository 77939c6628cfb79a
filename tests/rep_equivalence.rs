//! Step-1 sweep equivalence: the extended K-means scores documents through
//! the term→cluster [`ClusterIndex`], the live vector of each cluster, whose
//! slots a move updates in place. Where no weight cancels, a slot folded one
//! member at a time holds the same weights as the [`ClusterRep`] built
//! exactly from those members, so its dot products agree **bitwise** with
//! the representative's own `dot_doc`, not merely closely: the index is an
//! exact accelerator and never shows in a result.

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

    /// The step-1 scoring sweep in isolation: for every document, the row of
    /// an index folded member by member (`ClusterIndex::add`, then
    /// `ClusterIndex::dot_all`) and the per-cluster `ClusterRep::dot_doc` of
    /// exact builds agree bitwise, so the argmax winner is the same
    /// document by document.
    #[test]
    fn step1_winner_is_backend_invariant(docs in doc_stream(), k in 2usize..6) {
        let repo = repo_from(&docs);
        let vecs = DocVectors::build(&repo);
        let ids = vecs.ids();
        // deal documents round-robin into k clusters, built two ways
        let mut builder = RepBuilder::new();
        let reps: Vec<ClusterRep> = (0..k)
            .map(|q| builder.exact(ids.iter().skip(q).step_by(k).map(|&d| vecs.phi(d).unwrap())))
            .collect();
        let mut index = ClusterIndex::new(k);
        for (i, &d) in ids.iter().enumerate() {
            index.add(i % k, vecs.phi(d).unwrap());
        }
        let mut row = vec![0.0; k];
        for &d in &ids {
            let phi = vecs.phi(d).unwrap();
            index.dot_all(phi, &mut row);
            let mut winner_rep = 0usize;
            let mut winner_index = 0usize;
            for q in 0..k {
                let dd = reps[q].dot_doc(phi);
                prop_assert!(row[q].to_bits() == dd.to_bits(),
                    "dot differs for {} cluster {}: index {} vs rep {}", d, q, row[q], dd);
                if dd > reps[winner_rep].dot_doc(phi) { winner_rep = q; }
                if row[q] > row[winner_index] { winner_index = q; }
            }
            prop_assert_eq!(winner_rep, winner_index);
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
