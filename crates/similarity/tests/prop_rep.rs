//! Property tests for the cluster-representative algebra (§4.4): the O(|φ|)
//! incremental formulas must agree with brute-force pairwise computation for
//! arbitrary clusters and arbitrary add/remove sequences.

use nidc_similarity::ClusterRep;
use nidc_textproc::{SparseVector, TermId};
use proptest::prelude::*;

const DIM: u32 = 12;

fn phi_strategy() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0u32..DIM, 0.01f64..1.0), 1..6).prop_map(|pairs| {
        SparseVector::from_entries(pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// eq. 24: representative-based avg_sim equals pairwise avg_sim.
    #[test]
    fn avg_sim_matches_brute_force(members in prop::collection::vec(phi_strategy(), 0..12)) {
        let rep = ClusterRep::from_members(members.iter());
        let brute = brute_avg_sim(&members);
        prop_assert!((rep.avg_sim() - brute).abs() < 1e-9,
            "rep={} brute={brute}", rep.avg_sim());
    }

    /// eq. 26: the append preview equals the post-append value.
    #[test]
    fn append_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 1..10),
        newcomer in phi_strategy(),
    ) {
        let mut rep = ClusterRep::from_members(members.iter());
        let preview = rep.avg_sim_if_added(&newcomer);
        rep.add(&newcomer);
        prop_assert!((preview - rep.avg_sim()).abs() < 1e-9);
    }

    /// Deletion analogue of eq. 26: the removal preview equals the
    /// post-removal value.
    #[test]
    fn removal_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 3..10),
        idx in 0usize..3,
    ) {
        let mut rep = ClusterRep::from_members(members.iter());
        let preview = rep.avg_sim_if_removed(&members[idx]);
        rep.remove(&members[idx]);
        prop_assert!((preview - rep.avg_sim()).abs() < 1e-9);
    }

    /// Long interleaved add/remove chains do not drift from exact recompute.
    #[test]
    fn incremental_chain_has_bounded_drift(
        initial in prop::collection::vec(phi_strategy(), 1..8),
        churn in prop::collection::vec(phi_strategy(), 0..20),
    ) {
        let mut rep = ClusterRep::from_members(initial.iter());
        // add every churn doc then remove them again, in reverse
        for d in &churn {
            rep.add(d);
        }
        for d in churn.iter().rev() {
            rep.remove(d);
        }
        let mut exact = rep.clone();
        exact.recompute_exact(initial.iter());
        prop_assert!((rep.cr_self() - exact.cr_self()).abs() < 1e-8);
        prop_assert!((rep.ss() - exact.ss()).abs() < 1e-8);
        prop_assert_eq!(rep.size(), exact.size());
    }

    /// cr_sim between disjoint clusters obeys the merge identity (eq. 25).
    #[test]
    fn merge_identity(
        p_members in prop::collection::vec(phi_strategy(), 1..6),
        q_members in prop::collection::vec(phi_strategy(), 1..6),
    ) {
        let p = ClusterRep::from_members(p_members.iter());
        let q = ClusterRep::from_members(q_members.iter());
        let np = p.size() as f64;
        let nq = q.size() as f64;
        if np + nq < 2.0 {
            return Ok(());
        }
        let merged = (p.cr_self() + 2.0 * p.dot_rep(&q) + q.cr_self() - p.ss() - q.ss())
            / ((np + nq) * (np + nq - 1.0));
        let mut all = p_members.clone();
        all.extend(q_members.iter().cloned());
        prop_assert!((merged - brute_avg_sim(&all)).abs() < 1e-9);
    }

    /// avg_sim is never negative and g_term is consistent.
    #[test]
    fn invariants(members in prop::collection::vec(phi_strategy(), 0..10)) {
        let rep = ClusterRep::from_members(members.iter());
        prop_assert!(rep.avg_sim() >= 0.0);
        prop_assert!((rep.g_term() - rep.size() as f64 * rep.avg_sim()).abs() < 1e-12);
    }

    /// The dense K-means scratch and the sparse storage are
    /// **bit-identical** (not merely close) through arbitrary interleaved
    /// add/remove churn — the property that lets a K-means run pick its
    /// sweep storage without touching the workspace's determinism contract.
    #[test]
    fn backends_bit_identical_under_churn(
        initial in prop::collection::vec(phi_strategy(), 0..8),
        churn in prop::collection::vec((phi_strategy(), prop::bool::ANY), 0..24),
        probe in phi_strategy(),
    ) {
        let mut dense = ClusterRep::new_dense();
        for d in &initial {
            dense.add(d);
        }
        let mut sparse = ClusterRep::from_members(initial.iter());
        // replay the same add/remove sequence through both; removals only
        // target documents currently in the cluster (mirrors the algorithm)
        let mut present: Vec<&SparseVector> = initial.iter().collect();
        for (d, is_add) in &churn {
            if *is_add || present.is_empty() {
                dense.add(d);
                sparse.add(d);
                present.push(d);
            } else {
                let victim = present.remove(present.len() / 2);
                dense.remove(victim);
                sparse.remove(victim);
            }
        }
        prop_assert_eq!(dense.size(), sparse.size());
        prop_assert!(dense.cr_self() == sparse.cr_self(),
            "cr_self: {} vs {}", dense.cr_self(), sparse.cr_self());
        prop_assert!(dense.ss() == sparse.ss());
        prop_assert!(dense.avg_sim() == sparse.avg_sim());
        prop_assert!(dense.g_term() == sparse.g_term());
        prop_assert!(dense.dot_doc(&probe) == sparse.dot_doc(&probe),
            "dot_doc: {} vs {}", dense.dot_doc(&probe), sparse.dot_doc(&probe));
        prop_assert!(dense.avg_sim_if_added(&probe) == sparse.avg_sim_if_added(&probe));
        prop_assert!(dense.g_term_if_added(&probe) == sparse.g_term_if_added(&probe));
        if dense.size() >= 2 && !present.is_empty() {
            let d = present[0];
            prop_assert!(dense.avg_sim_if_removed(d) == sparse.avg_sim_if_removed(d));
        }
        // the scratch hands out exactly the sparse storage's entries
        let entries = |r: &ClusterRep| {
            let mut e = Vec::new();
            r.for_each_entry(|t, w| e.push((t, w.to_bits())));
            e
        };
        prop_assert_eq!(entries(&dense.into_sparse()), entries(&sparse));
    }

    /// `top_terms(n)` keeps exactly what a full stable sort of the positive
    /// entries by descending weight keeps — heaviest first, ties in
    /// ascending term order. Weights come from a
    /// five-value palette (with a negative and a zero that must be
    /// skipped), so ties are the common case.
    #[test]
    fn top_terms_matches_a_full_stable_sort(
        picks in prop::collection::vec((0u32..3, 0usize..5), 0..40),
        n in 0usize..12,
    ) {
        const PALETTE: [f64; 5] = [-1.0, 0.0, 0.25, 0.5, 2.0];
        let mut term = 0u32;
        let entries: Vec<(TermId, f64)> = picks
            .iter()
            .map(|&(gap, w)| {
                term += 1 + gap;
                (TermId(term), PALETTE[w])
            })
            .collect();
        let sparse = ClusterRep::from_parts(entries, 1, 0.0, 0.0);
        let mut reference: Vec<(TermId, f64)> = Vec::new();
        sparse.for_each_entry(|t, w| {
            if w > 0.0 {
                reference.push((t, w));
            }
        });
        reference.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        reference.truncate(n);
        prop_assert_eq!(sparse.top_terms(n), reference);
    }
}
