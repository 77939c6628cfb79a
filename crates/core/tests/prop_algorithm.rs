//! Property tests for the extended K-means: conservation, determinism,
//! G-consistency, and warm-start sanity on random document collections.

use std::collections::BTreeMap;

use nidc_core::{cluster_batch, cluster_with_initial, ClusteringConfig, Criterion, InitialState};
use nidc_forgetting::{DecayParams, Repository, Timestamp};
use nidc_similarity::{DocVectors, RepBuilder};
use nidc_textproc::{DocId, SparseVector, TermId};
use proptest::prelude::*;

/// Random chronological repositories: up to 30 docs over up to 10 days.
fn repo_strategy() -> impl Strategy<Value = Repository> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..25, 1.0f64..4.0), 1..8),
            0.0f64..10.0,
        ),
        2..30,
    )
    .prop_map(|raw| {
        let mut docs: Vec<(f64, SparseVector)> = raw
            .into_iter()
            .map(|(pairs, day)| {
                (
                    day,
                    SparseVector::from_entries(
                        pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect(),
                    ),
                )
            })
            .collect();
        docs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 60.0).unwrap());
        for (i, (day, tf)) in docs.into_iter().enumerate() {
            repo.insert(DocId(i as u64), Timestamp(day), tf).unwrap();
        }
        repo
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every document ends either in exactly one cluster or in the outlier
    /// list, never both, never duplicated.
    #[test]
    fn conservation(repo in repo_strategy(), k in 1usize..6, seed in 0u64..4) {
        let vecs = DocVectors::build(&repo);
        let config = ClusteringConfig { k, seed, ..ClusteringConfig::default() };
        let c = cluster_batch(&vecs, &config).unwrap();
        let mut seen = std::collections::HashSet::new();
        for cl in c.clusters() {
            for d in cl.members() {
                prop_assert!(seen.insert(*d), "{d} appears twice");
            }
        }
        for d in c.outliers() {
            prop_assert!(seen.insert(*d), "{d} clustered and outlier");
        }
        prop_assert_eq!(seen.len(), repo.len());
    }

    /// Determinism: identical configuration → identical result.
    #[test]
    fn determinism(repo in repo_strategy(), k in 1usize..5) {
        let vecs = DocVectors::build(&repo);
        let config = ClusteringConfig { k, seed: 5, ..ClusteringConfig::default() };
        let a = cluster_batch(&vecs, &config).unwrap();
        let b = cluster_batch(&vecs, &config).unwrap();
        prop_assert_eq!(a.member_lists(), b.member_lists());
        prop_assert_eq!(a.outliers(), b.outliers());
        prop_assert!((a.g() - b.g()).abs() < 1e-15);
    }

    /// The reported G equals the definitional Σ |C_p|·avg_sim(C_p) computed
    /// from scratch over the final membership.
    #[test]
    fn g_matches_definition(repo in repo_strategy(), k in 1usize..5) {
        let vecs = DocVectors::build(&repo);
        let config = ClusteringConfig { k, seed: 2, ..ClusteringConfig::default() };
        let c = cluster_batch(&vecs, &config).unwrap();
        let mut g = 0.0;
        for cl in c.clusters() {
            let rep = RepBuilder::new().exact(cl.members().iter().map(|d| vecs.phi(*d).unwrap()));
            g += rep.g_term();
        }
        prop_assert!((c.g() - g).abs() < 1e-9, "G {} vs definitional {g}", c.g());
    }

    /// Warm-starting from a finished clustering never lowers G and never
    /// takes more iterations.
    #[test]
    fn warm_start_monotonicity(repo in repo_strategy(), k in 1usize..5) {
        let vecs = DocVectors::build(&repo);
        let config = ClusteringConfig { k, seed: 7, ..ClusteringConfig::default() };
        let cold = cluster_batch(&vecs, &config).unwrap();
        let warm = cluster_with_initial(
            &vecs, &config, InitialState::Assignment(cold.assignment())).unwrap();
        prop_assert!(warm.g() >= cold.g() - 1e-9);
        prop_assert!(warm.iterations() <= cold.iterations());
    }

    /// Both assignment criteria terminate within the iteration cap and
    /// produce valid clusterings.
    #[test]
    fn both_criteria_terminate(repo in repo_strategy(), k in 1usize..5) {
        for criterion in [Criterion::GTerm, Criterion::AvgSim] {
            let vecs = DocVectors::build(&repo);
            let config = ClusteringConfig {
                k, seed: 3, criterion, ..ClusteringConfig::default()
            };
            let c = cluster_batch(&vecs, &config).unwrap();
            prop_assert!(c.iterations() <= config.max_iters);
            prop_assert!(c.g() >= 0.0);
        }
    }

    /// An explicit initial assignment over a subset of documents is
    /// accepted, and invalid cluster indices are rejected.
    #[test]
    fn initial_assignment_validation(repo in repo_strategy()) {
        let vecs = DocVectors::build(&repo);
        let config = ClusteringConfig { k: 3, seed: 1, ..ClusteringConfig::default() };
        let ids = vecs.ids();
        let mut good = BTreeMap::new();
        good.insert(ids[0], 0usize);
        prop_assert!(cluster_with_initial(
            &vecs, &config, InitialState::Assignment(good)).is_ok());
        let mut bad = BTreeMap::new();
        bad.insert(ids[0], 99usize);
        prop_assert!(cluster_with_initial(
            &vecs, &config, InitialState::Assignment(bad)).is_err());
    }
}
