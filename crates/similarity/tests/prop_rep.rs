//! Property tests for the cluster-representative algebra (§4.4): the O(1)
//! join/leave formulas over `RepStats` must agree with exact builds and
//! brute-force pairwise computation for arbitrary clusters and arbitrary
//! join/leave sequences.

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

fn exact(members: &[SparseVector]) -> ClusterRep {
    RepBuilder::new().exact(members.iter())
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
        let rep = exact(&members);
        let brute = brute_avg_sim(&members);
        prop_assert!((rep.avg_sim() - brute).abs() < 1e-9,
            "rep={} brute={brute}", rep.avg_sim());
    }

    /// eq. 26: the append preview, and the stats after the join, equal the
    /// exact build over the members plus the newcomer.
    #[test]
    fn append_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 1..10),
        newcomer in phi_strategy(),
    ) {
        let rep = exact(&members);
        let dot = rep.dot_doc(&newcomer);
        let preview = rep.stats().avg_sim_if_added_from_dot(dot);
        let mut joined = rep.stats();
        joined.join(dot, newcomer.norm_sq());
        let mut all = members;
        all.push(newcomer);
        let union = exact(&all);
        prop_assert!((preview - union.avg_sim()).abs() < 1e-9);
        prop_assert!((joined.avg_sim() - union.avg_sim()).abs() < 1e-9);
        prop_assert!((joined.cr_self() - union.cr_self()).abs() < 1e-9);
        prop_assert_eq!(joined.size(), union.size());
    }

    /// Deletion analogue of eq. 26: the removal preview, and the stats after
    /// the leave, equal the exact build over the remaining members.
    #[test]
    fn removal_preview_is_exact(
        members in prop::collection::vec(phi_strategy(), 3..10),
        idx in 0usize..3,
    ) {
        let rep = exact(&members);
        let (dot, norm_sq) = (rep.dot_doc(&members[idx]), members[idx].norm_sq());
        let preview = rep.stats().avg_sim_if_removed_from_dot(dot, norm_sq);
        let mut left = rep.stats();
        left.leave(dot, norm_sq);
        let mut rest = members;
        rest.remove(idx);
        let rest = exact(&rest);
        prop_assert!((preview - rest.avg_sim()).abs() < 1e-9);
        prop_assert!((left.avg_sim() - rest.avg_sim()).abs() < 1e-9);
        prop_assert!((left.cr_self() - rest.cr_self()).abs() < 1e-9);
        prop_assert_eq!(left.size(), rest.size());
    }

    /// Long interleaved join/leave chains — stats updated from the dots of a
    /// live index slot, as the step-1 sweep does — do not drift from the
    /// exact build.
    #[test]
    fn incremental_chain_has_bounded_drift(
        initial in prop::collection::vec(phi_strategy(), 1..8),
        churn in prop::collection::vec(phi_strategy(), 0..20),
    ) {
        let rep = exact(&initial);
        let mut stats = rep.stats();
        let mut index = ClusterIndex::new(1);
        index.rebuild(std::slice::from_ref(&rep), 0);
        let mut dot = [0.0];
        // join every churn doc then let them leave again, in reverse
        for d in &churn {
            index.dot_all(d, &mut dot);
            stats.join(dot[0], d.norm_sq());
            index.add(0, d);
        }
        for d in churn.iter().rev() {
            index.dot_all(d, &mut dot);
            stats.leave(dot[0], d.norm_sq());
            index.remove(0, d);
        }
        prop_assert!((stats.cr_self() - rep.cr_self()).abs() < 1e-8);
        prop_assert!((stats.ss() - rep.ss()).abs() < 1e-8);
        prop_assert_eq!(stats.size(), rep.size());
    }

    /// cr_sim between disjoint clusters obeys the merge identity (eq. 25).
    #[test]
    fn merge_identity(
        p_members in prop::collection::vec(phi_strategy(), 1..6),
        q_members in prop::collection::vec(phi_strategy(), 1..6),
    ) {
        let p = exact(&p_members);
        let q = exact(&q_members);
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
        let rep = exact(&members);
        prop_assert!(rep.avg_sim() >= 0.0);
        prop_assert!((rep.g_term() - rep.size() as f64 * rep.avg_sim()).abs() < 1e-12);
    }

    /// An index slot churned through arbitrary interleaved add/remove
    /// stays close to the exact build of its present members — removals
    /// may empty the slot, leaving residue — and a rebuild from that exact
    /// build is **bit-identical** to it (not merely close): every dot
    /// product the step-1 sweep reads from the index, and every stored
    /// weight, equals the representative's own.
    #[test]
    fn backends_bit_identical_under_churn(
        initial in prop::collection::vec(phi_strategy(), 0..8),
        churn in prop::collection::vec((phi_strategy(), prop::bool::ANY), 0..24),
        probe in phi_strategy(),
    ) {
        let mut index = ClusterIndex::new(1);
        for d in &initial {
            index.add(0, d);
        }
        // removals only target documents currently in the cluster, as in
        // the algorithm, and may take its last one
        let mut present: Vec<SparseVector> = initial.clone();
        for (d, is_add) in &churn {
            if *is_add || present.is_empty() {
                index.add(0, d);
                present.push(d.clone());
            } else {
                let victim = present.remove(present.len() / 2);
                index.remove(0, &victim);
            }
        }
        let rep = exact(&present);
        let mut row = [0.0];
        for d in present.iter().chain([&probe]) {
            index.dot_all(d, &mut row);
            prop_assert!((row[0] - rep.dot_doc(d)).abs() < 1e-9,
                "churned dot: index {} vs exact {}", row[0], rep.dot_doc(d));
        }
        index.rebuild(std::slice::from_ref(&rep), 0);
        for d in present.iter().chain([&probe]) {
            index.dot_all(d, &mut row);
            prop_assert!(row[0].to_bits() == rep.dot_doc(d).to_bits(),
                "dot: index {} vs rep {}", row[0], rep.dot_doc(d));
        }
        prop_assert_eq!(index.postings_len(), rep.nnz());
        for t in 0..DIM {
            prop_assert_eq!(index.weight(TermId(t), 0).to_bits(), rep.weight(TermId(t)).to_bits());
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
