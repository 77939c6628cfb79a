//! Property tests for the cluster-representative algebra (§4.4): the O(|φ|)
//! incremental formulas must agree with brute-force pairwise computation for
//! arbitrary clusters and arbitrary add/remove sequences.

use std::collections::BTreeMap;

use nidc_similarity::{ClusterIndex, ClusterRep, RepBuilder};
use nidc_textproc::{SparseVector, TermId};
use proptest::prelude::*;

const DIM: u32 = 12;

fn phi_strategy() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0u32..DIM, 0.01f64..1.0), 1..6).prop_map(|pairs| {
        SparseVector::from_entries(pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

/// Like [`phi_strategy`], but weights of either sign, so accumulated
/// weights can cancel.
fn signed_phi_strategy() -> impl Strategy<Value = SparseVector> {
    let weight = prop_oneof![0.01f64..1.0, -1.0f64..-0.01];
    prop::collection::vec((0u32..DIM, weight), 1..6).prop_map(|pairs| {
        SparseVector::from_entries(pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

/// Consecutive clusters for one reused [`RepBuilder`]. A cluster flagged
/// `true` also gets a pair of members on a private term whose weights
/// cancel to exactly 0.0.
fn clusters_strategy() -> impl Strategy<Value = Vec<Vec<SparseVector>>> {
    prop::collection::vec(
        (
            prop::collection::vec(signed_phi_strategy(), 0..8),
            prop::bool::ANY,
            0.01f64..1.0,
        ),
        1..6,
    )
    .prop_map(|clusters| {
        clusters
            .into_iter()
            .enumerate()
            .map(|(c, (mut members, cancel, w))| {
                if cancel {
                    let t = TermId(DIM + c as u32);
                    members.insert(members.len() / 2, SparseVector::from_entries(vec![(t, w)]));
                    members.push(SparseVector::from_entries(vec![(t, -w)]));
                }
                members
            })
            .collect()
    })
}

/// A representative's stored entries, weights as bits.
fn entry_bits(rep: &ClusterRep) -> Vec<(TermId, u64)> {
    let mut e = Vec::new();
    rep.for_each_entry(|t, w| e.push((t, w.to_bits())));
    e
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
        let exact = RepBuilder::new().exact(initial.iter());
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

    /// A representative and its mirror slot in a [`ClusterIndex`] stay
    /// **bit-identical** (not merely close) through arbitrary interleaved
    /// add/remove churn: every dot product the step-1 sweep reads from the
    /// index, and every mirrored weight, equals the representative's own.
    #[test]
    fn backends_bit_identical_under_churn(
        initial in prop::collection::vec(phi_strategy(), 0..8),
        churn in prop::collection::vec((phi_strategy(), prop::bool::ANY), 0..24),
        probe in phi_strategy(),
    ) {
        let mut rep = ClusterRep::new();
        let mut index = ClusterIndex::new(1);
        for d in &initial {
            rep.add(d);
            index.add(0, d);
        }
        // removals only target documents currently in the cluster (mirrors
        // the algorithm), and never its last one: an emptied representative
        // resets to exact zero, while the index slot keeps whatever residue
        // the cancelled weights left
        let mut present: Vec<&SparseVector> = initial.iter().collect();
        for (d, is_add) in &churn {
            if *is_add || present.len() < 2 {
                rep.add(d);
                index.add(0, d);
                present.push(d);
            } else {
                let victim = present.remove(present.len() / 2);
                rep.remove(victim);
                index.remove(0, victim);
            }
        }
        let mut row = [0.0];
        for d in present.iter().copied().chain([&probe]) {
            index.dot_all(d, &mut row);
            prop_assert!(row[0].to_bits() == rep.dot_doc(d).to_bits(),
                "dot: index {} vs rep {}", row[0], rep.dot_doc(d));
        }
        prop_assert_eq!(index.postings_len(), rep.nnz());
        for t in 0..DIM {
            prop_assert_eq!(index.weight(TermId(t), 0).to_bits(), rep.weight(TermId(t)).to_bits());
        }
    }

    /// `RepBuilder::add_chain` is the `add` chain of `from_members`, bit
    /// for bit — entries, `cr_self`, `ss`, `size` — including weights that
    /// cancel to exactly 0.0 and get pruned. One builder serves every
    /// cluster, so state left over from the previous one would show.
    #[test]
    fn add_chain_equals_from_members(clusters in clusters_strategy()) {
        let mut builder = RepBuilder::new();
        for members in &clusters {
            let built = builder.add_chain(members.iter());
            let chain = ClusterRep::from_members(members.iter());
            prop_assert_eq!(entry_bits(&built), entry_bits(&chain));
            prop_assert_eq!(built.cr_self().to_bits(), chain.cr_self().to_bits());
            prop_assert_eq!(built.ss().to_bits(), chain.ss().to_bits());
            prop_assert_eq!(built.size(), chain.size());
        }
    }

    /// `RepBuilder::exact` accumulates each term in member order, drops
    /// exact zeros and sums `cr_self = Σ w²` in ascending term order — bit
    /// for bit what a `BTreeMap` reference computes.
    #[test]
    fn exact_equals_ordered_map_reference(clusters in clusters_strategy()) {
        let mut builder = RepBuilder::new();
        for members in &clusters {
            let mut acc: BTreeMap<TermId, f64> = BTreeMap::new();
            let mut ss = 0.0;
            for phi in members {
                for (t, w) in phi.iter() {
                    *acc.entry(t).or_insert(0.0) += w;
                }
                ss += phi.norm_sq();
            }
            let entries: Vec<(TermId, f64)> = acc.into_iter().filter(|&(_, w)| w != 0.0).collect();
            let cr_self: f64 = entries.iter().map(|&(_, w)| w * w).sum();
            let exact = builder.exact(members.iter());
            let want: Vec<(TermId, u64)> = entries.iter().map(|&(t, w)| (t, w.to_bits())).collect();
            prop_assert_eq!(entry_bits(&exact), want);
            prop_assert_eq!(exact.cr_self().to_bits(), cr_self.to_bits());
            prop_assert_eq!(exact.ss().to_bits(), ss.to_bits());
            prop_assert_eq!(exact.size(), members.len());
        }
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
