//! Oracle property test for the term→cluster index: under random
//! `add`/`remove`/`rebuild`/`refresh` sequences, [`ClusterIndex`] must
//! score, store and count exactly as a reference map of sparse postings
//! `(term, cluster) → weight` that files a weight only while it is nonzero.
//!
//! A refresh must also leave the index equal, bit for bit, to an index
//! rebuilt from scratch on the same representatives: every weight, the
//! posting and term counts, and every `dot_all` score with its count of
//! postings touched. The ops empty clusters that keep residue (removals of
//! documents never added, negative weights) and drop terms from every
//! cluster, so refreshes clear residue and leave rows no cluster holds.
//!
//! The index keeps a dense row of cells per term, so a cluster absent from
//! a term is a `+0.0` cell that the reference never visits; the scores must
//! still agree bit for bit. K runs from 1 to 20, across the 8-cluster block
//! width, and removals of earlier additions cancel weights to exactly 0.0.
//!
//! This binary holds one test only: it reads the process-wide
//! `nidc_index_postings_touched_total` counter, which no other test may
//! move meanwhile.

use std::collections::BTreeMap;

use nidc_similarity::{ClusterIndex, ClusterRep, RepBuilder};
use nidc_textproc::{SparseVector, TermId};
use proptest::prelude::*;

const DIM: u32 = 24;
const MAX_K: usize = 20;

fn doc_strategy() -> impl Strategy<Value = SparseVector> {
    // one weight in four negative
    let weight = prop_oneof![0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0, -1.0f64..-0.01];
    prop::collection::vec((0u32..DIM, weight), 1..8).prop_map(|pairs| {
        SparseVector::from_entries(pairs.into_iter().map(|(t, w)| (TermId(t), w)).collect())
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// `add(cluster % k, doc)`.
    Add(usize, SparseVector),
    /// `remove(cluster % k, doc)` of an arbitrary document: leaves residue.
    Remove(usize, SparseVector),
    /// Removes the `pick % n`-th document added (or rebuilt in) since the
    /// last rebuild from the cluster it joined.
    RemoveAdded(usize),
    /// Rebuilds from exact representatives of these member lists; K becomes
    /// their number.
    Rebuild(Vec<Vec<SparseVector>>),
    /// Removes every document added to (or rebuilt in) `cluster % k` since
    /// the last rebuild, emptying it.
    EmptyCluster(usize),
    /// Refreshes the touched clusters to exact representatives of the
    /// documents added to (or rebuilt in) them and not taken back.
    Refresh,
}

fn add_op() -> impl Strategy<Value = Op> {
    (0..MAX_K, doc_strategy()).prop_map(|(q, d)| Op::Add(q, d))
}

fn remove_added_op() -> impl Strategy<Value = Op> {
    (0..usize::MAX).prop_map(Op::RemoveAdded)
}

/// Adds 4 : removals of earlier additions 3 : other removals 1 : rebuilds 1
/// : emptied clusters 1 : refreshes 3.
fn op_strategy() -> impl Strategy<Value = Op> {
    let members = prop::collection::vec(doc_strategy(), 0..4);
    prop_oneof![
        Just(Op::Refresh),
        Just(Op::Refresh),
        Just(Op::Refresh),
        (0..MAX_K).prop_map(Op::EmptyCluster),
        add_op(),
        add_op(),
        add_op(),
        add_op(),
        remove_added_op(),
        remove_added_op(),
        remove_added_op(),
        (0..MAX_K, doc_strategy()).prop_map(|(q, d)| Op::Remove(q, d)),
        prop::collection::vec(members, 1..MAX_K + 1).prop_map(Op::Rebuild),
    ]
}

/// Sparse postings with the semantics the dense rows must reproduce.
#[derive(Default)]
struct Reference {
    k: usize,
    postings: BTreeMap<(TermId, usize), f64>,
}

impl Reference {
    fn update(&mut self, q: usize, doc: &SparseVector, scale: f64) {
        for (t, w) in doc.iter() {
            let cell = self.postings.entry((t, q)).or_insert(0.0);
            *cell += scale * w;
            if *cell == 0.0 {
                self.postings.remove(&(t, q));
            }
        }
    }

    fn rebuild(&mut self, reps: &[ClusterRep]) {
        self.k = reps.len();
        self.postings.clear();
        for (q, rep) in reps.iter().enumerate() {
            rep.for_each_entry(|t, w| {
                self.postings.insert((t, q), w);
            });
        }
    }

    fn postings_of(&self, t: TermId) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.postings
            .range((t, 0)..=(t, usize::MAX))
            .map(|(&(_, q), &w)| (q, w))
    }

    /// Per cluster, products in the document's term order from `+0.0`, and
    /// the postings visited.
    fn dot_all(&self, doc: &SparseVector) -> (Vec<f64>, usize) {
        let mut out = vec![0.0; self.k];
        let mut touched = 0;
        for (t, w) in doc.iter() {
            for (q, cw) in self.postings_of(t) {
                out[q] += cw * w;
                touched += 1;
            }
        }
        (out, touched)
    }

    fn term_count(&self) -> usize {
        let mut terms: Vec<TermId> = self.postings.keys().map(|&(t, _)| t).collect();
        terms.dedup();
        terms.len()
    }
}

fn postings_touched() -> u64 {
    nidc_obs::snapshot()
        .counter("nidc_index_postings_touched_total")
        .unwrap_or(0)
}

fn check(
    index: &ClusterIndex,
    reference: &Reference,
    probes: &[SparseVector],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.k(), reference.k);
    prop_assert_eq!(index.postings_len(), reference.postings.len());
    prop_assert_eq!(index.term_count(), reference.term_count());
    prop_assert_eq!(index.is_empty(), reference.postings.is_empty());
    for t in 0..DIM {
        for q in 0..reference.k {
            let want = reference
                .postings
                .get(&(TermId(t), q))
                .copied()
                .unwrap_or(0.0);
            prop_assert_eq!(
                index.weight(TermId(t), q).to_bits(),
                want.to_bits(),
                "term {} cluster {}",
                t,
                q
            );
        }
    }
    // an oversized scratch row: the slots from k on stay as they were
    let mut row = vec![f64::NAN; MAX_K + 1];
    for probe in probes {
        let (want, want_touched) = reference.dot_all(probe);
        let before = postings_touched();
        index.dot_all(probe, &mut row);
        prop_assert_eq!(postings_touched() - before, want_touched as u64);
        for (q, (got, want)) in row.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "cluster {}: {} vs {}",
                q,
                got,
                want
            );
        }
        prop_assert!(row[reference.k..].iter().all(|x| x.is_nan()));
    }
    Ok(())
}

/// Every weight, count and probe score of `a` equals `b`'s bit for bit,
/// with the same postings touched per probe.
fn check_same(
    a: &ClusterIndex,
    b: &ClusterIndex,
    probes: &[SparseVector],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.k(), b.k());
    prop_assert_eq!(a.postings_len(), b.postings_len());
    prop_assert_eq!(a.term_count(), b.term_count());
    for t in 0..DIM {
        for q in 0..a.k() {
            prop_assert_eq!(
                a.weight(TermId(t), q).to_bits(),
                b.weight(TermId(t), q).to_bits(),
                "term {} cluster {}",
                t,
                q
            );
        }
    }
    let (mut row_a, mut row_b) = (vec![0.0; a.k()], vec![0.0; b.k()]);
    for probe in probes {
        let before = postings_touched();
        a.dot_all(probe, &mut row_a);
        let mid = postings_touched();
        b.dot_all(probe, &mut row_b);
        prop_assert_eq!(mid - before, postings_touched() - mid);
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&row_a), bits(&row_b));
    }
    Ok(())
}

proptest! {
    #[test]
    fn dense_rows_match_sparse_postings(
        k in 1..MAX_K + 1,
        ops in prop::collection::vec(op_strategy(), 0..40),
        probes in prop::collection::vec(doc_strategy(), 1..6),
    ) {
        nidc_obs::set_enabled(true);
        let mut index = ClusterIndex::new(k);
        let mut reference = Reference { k, ..Reference::default() };
        let mut builder = RepBuilder::new();
        // (cluster, document) pairs that `RemoveAdded` may take back: the
        // member lists the next refresh builds from
        let mut added: Vec<(usize, SparseVector)> = Vec::new();
        // the representatives as of the last rebuild or refresh, and the
        // clusters an add or remove touched since
        let mut reps: Vec<ClusterRep> = vec![ClusterRep::new(); k];
        let mut touched = vec![false; k];
        for op in ops {
            match op {
                Op::Add(q, d) => {
                    let q = q % reference.k;
                    index.add(q, &d);
                    reference.update(q, &d, 1.0);
                    touched[q] = true;
                    added.push((q, d));
                }
                Op::Remove(q, d) => {
                    let q = q % reference.k;
                    index.remove(q, &d);
                    reference.update(q, &d, -1.0);
                    touched[q] = true;
                }
                Op::RemoveAdded(pick) => {
                    if !added.is_empty() {
                        let (q, d) = added.remove(pick % added.len());
                        index.remove(q, &d);
                        reference.update(q, &d, -1.0);
                        touched[q] = true;
                    }
                }
                Op::EmptyCluster(q) => {
                    let q = q % reference.k;
                    for (_, d) in added.iter().filter(|(p, _)| *p == q) {
                        index.remove(q, d);
                        reference.update(q, d, -1.0);
                    }
                    added.retain(|(p, _)| *p != q);
                    touched[q] = true;
                }
                Op::Rebuild(clusters) => {
                    reps = clusters.iter().map(|m| builder.exact(m)).collect();
                    index.rebuild(&reps, DIM as usize);
                    reference.rebuild(&reps);
                    touched = vec![false; reps.len()];
                    added = clusters
                        .into_iter()
                        .enumerate()
                        .flat_map(|(q, m)| m.into_iter().map(move |d| (q, d)))
                        .collect();
                }
                Op::Refresh => {
                    let mut stale = Vec::new();
                    for (q, rep) in reps.iter_mut().enumerate() {
                        if std::mem::take(&mut touched[q]) {
                            let members = added.iter().filter(|(p, _)| *p == q);
                            let exact = builder.exact(members.map(|(_, d)| d));
                            stale.push((q, std::mem::replace(rep, exact)));
                        }
                    }
                    index.refresh(&reps, stale.iter().map(|(q, old)| (*q, old)));
                    reference.rebuild(&reps);
                    let mut rebuilt = ClusterIndex::new(reps.len());
                    rebuilt.rebuild(&reps, DIM as usize);
                    check_same(&index, &rebuilt, &probes)?;
                }
            }
            check(&index, &reference, &probes)?;
        }
    }
}
