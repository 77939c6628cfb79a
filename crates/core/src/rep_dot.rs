//! Representative × representative dot products, read from term postings.
//!
//! The stitch, lineage matching and the separation gauge need `c⃗_a·c⃗_b`
//! over many pairs of representatives. [`RepPostings`] files the column
//! representatives' entries under their terms once, so a product touches
//! only the terms the two share, instead of one O(nnz_a + nnz_b)
//! [`ClusterRep::dot_rep`] merge-join per pair. The terms are ranked first
//! ([`TermRank`]), so the postings' offset array is as long as the columns'
//! distinct terms, not the vocabulary. Every entry is summed from `0.0`
//! over the shared terms in ascending term order, as
//! [`nidc_textproc::SparseVector::dot`] sums its merge-join, so both
//! products equal the pairwise `dot_rep` ones bit for bit.

use nidc_similarity::{ClusterRep, TermRank};
use nidc_textproc::TermId;

/// Term postings over a fixed list of column representatives; `None`
/// (empty) slots file nothing and get zero rows and columns.
pub(crate) struct RepPostings {
    /// Column count, `None` slots included.
    cols: usize,
    /// The columns' terms; a term's postings are filed under its rank.
    terms: TermRank,
    /// The postings of the term of rank `r` are
    /// `postings[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    /// `(column, weight)`, column-ascending within each term.
    postings: Vec<(usize, f64)>,
}

impl RepPostings {
    /// Files every stored entry of `cols` under its term's rank by a
    /// counting sort: O(Σ nnz + max term id / 64).
    pub(crate) fn new(cols: &[Option<&ClusterRep>]) -> Self {
        let mut terms = TermRank::new();
        for rep in cols.iter().flatten() {
            rep.for_each_entry(|t, _| terms.insert(t));
        }
        let distinct = terms.seal();
        let rank = |t: TermId| terms.rank(t).expect("a column term is ranked");
        let mut start = vec![0u32; distinct + 1];
        for rep in cols.iter().flatten() {
            rep.for_each_entry(|t, _| start[rank(t)] += 1);
        }
        // counts → each term's run end; filling back to front then leaves
        // every run at its start, column-ascending
        let mut total = 0u32;
        for slot in &mut start {
            total += *slot;
            *slot = total;
        }
        let mut postings = vec![(0usize, 0.0f64); total as usize];
        for (col, rep) in cols.iter().enumerate().rev() {
            if let Some(rep) = rep {
                rep.for_each_entry(|t, w| {
                    let r = rank(t);
                    start[r] -= 1;
                    postings[start[r] as usize] = (col, w);
                });
            }
        }
        Self {
            cols: cols.len(),
            terms,
            start,
            postings,
        }
    }

    /// The postings of the term of rank `r`.
    fn run(&self, r: usize) -> &[(usize, f64)] {
        &self.postings[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// The `rows.len() × cols` product, row-major: `dot[i·cols + j] =
    /// rows[i]·cols[j]`. Each row walks its own entries in ascending term
    /// order and adds `w_i·w_j` for every column on the term's list, so
    /// the cost is Σ_t |rows with t|·|cols with t| multiply-adds plus
    /// O(Σ nnz(rows)).
    pub(crate) fn dot_rows(&self, rows: &[Option<&ClusterRep>]) -> Vec<f64> {
        let n = self.cols;
        let mut dot = vec![0.0f64; rows.len() * n];
        for (i, rep) in rows.iter().enumerate() {
            if let Some(rep) = rep {
                let row = &mut dot[i * n..(i + 1) * n];
                rep.for_each_entry(|t, wi| {
                    let Some(r) = self.terms.rank(t) else { return };
                    for &(j, wj) in self.run(r) {
                        row[j] += wi * wj;
                    }
                });
            }
        }
        dot
    }

    /// The symmetric `cols × cols` product with a zero diagonal, row-major.
    /// Each filed term, in ascending order, adds `w_i·w_j` into `dot[i][j]`
    /// for every pair `i < j` on its list, and the upper triangle is
    /// mirrored: Σ_t |postings(t)|² / 2 multiply-adds, visiting no term
    /// without postings.
    pub(crate) fn dot_pairs(&self) -> Vec<f64> {
        let n = self.cols;
        let mut dot = vec![0.0f64; n * n];
        for r in 0..self.terms.len() {
            let list = self.run(r);
            for (a, &(i, wi)) in list.iter().enumerate() {
                let row = &mut dot[i * n..(i + 1) * n];
                for &(j, wj) in &list[a + 1..] {
                    row[j] += wi * wj;
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                dot[j * n + i] = dot[i * n + j];
            }
        }
        dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rep(entries: &[(u32, f64)]) -> ClusterRep {
        ClusterRep::from_parts(
            entries.iter().map(|&(t, w)| (TermId(t), w)).collect(),
            1,
            0.0,
            0.0,
        )
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    /// The pairwise merge-join products the kernel replaces: `rows × cols`,
    /// and `cols × cols` over the upper triangle, mirrored.
    fn pairwise(rows: &[Option<&ClusterRep>], cols: &[Option<&ClusterRep>]) -> Vec<f64> {
        rows.iter()
            .flat_map(|a| {
                cols.iter().map(move |b| match (a, b) {
                    (Some(a), Some(b)) => a.dot_rep(b),
                    _ => 0.0,
                })
            })
            .collect()
    }

    fn pairwise_symmetric(reps: &[Option<&ClusterRep>]) -> Vec<f64> {
        let n = reps.len();
        let mut dot = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                if let (Some(a), Some(b)) = (reps[i], reps[j]) {
                    dot[i * n + j] = a.dot_rep(b);
                    dot[j * n + i] = dot[i * n + j];
                }
            }
        }
        dot
    }

    fn check(rows: &[Option<&ClusterRep>], cols: &[Option<&ClusterRep>]) {
        let postings = RepPostings::new(cols);
        assert_eq!(bits(&postings.dot_rows(rows)), bits(&pairwise(rows, cols)));
        assert_eq!(bits(&postings.dot_pairs()), bits(&pairwise_symmetric(cols)));
    }

    #[test]
    fn signed_weights_that_cancel_give_exact_zero() {
        let a = rep(&[(1, 1.0), (2, 1.0)]);
        let b = rep(&[(1, 1.0), (2, -1.0)]);
        let postings = RepPostings::new(&[Some(&a), Some(&b)]);
        assert_eq!(
            postings.dot_rows(&[Some(&a)])[1].to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(postings.dot_pairs()[1].to_bits(), 0.0f64.to_bits());
        check(&[Some(&a), Some(&b)], &[Some(&b), Some(&a)]);
    }

    #[test]
    fn disjoint_supports_and_empty_shapes_give_zeros() {
        let low = rep(&[(0, 0.5), (3, 2.0)]);
        let high = rep(&[(7, 1.5), (9, -0.25)]);
        let empty = ClusterRep::new();
        let rows = [Some(&low), None, Some(&empty)];
        let cols = [Some(&high), Some(&empty), None];
        let postings = RepPostings::new(&cols);
        assert!(postings.dot_rows(&rows).iter().all(|&x| x == 0.0));
        check(&rows, &cols);
        check(&[], &cols);
        check(&rows, &[]);
        check(&[], &[]);
    }

    /// One slot: none, an empty representative, or up to eight entries
    /// over a twelve-term vocabulary with signed weights. Weights of ±1
    /// make exact cancellations common; the rest round.
    fn slot_strategy() -> impl Strategy<Value = Option<Vec<(u32, f64)>>> {
        let weight = prop_oneof![Just(1.0), Just(-1.0), Just(0.5), -2.0f64..2.0];
        (0u32..5, prop::collection::vec((0u32..12, weight), 0..8)).prop_map(|(kind, entries)| {
            // one weight per term, ascending
            let entries: std::collections::BTreeMap<u32, f64> = entries.into_iter().collect();
            match kind {
                0 => None,
                1 => Some(Vec::new()),
                _ => Some(entries.into_iter().collect()),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every rectangular entry equals `rows[i].dot_rep(cols[j])` and
        /// every symmetric entry the pairwise matrix's, bit for bit, for
        /// any shape including 0 × n and n × 0.
        #[test]
        fn postings_products_are_bit_identical_to_pairwise_dot_rep(
            rows in prop::collection::vec(slot_strategy(), 0..8),
            cols in prop::collection::vec(slot_strategy(), 0..8),
        ) {
            let build = |slots: &[Option<Vec<(u32, f64)>>]| -> Vec<Option<ClusterRep>> {
                slots.iter().map(|s| s.as_deref().map(rep)).collect()
            };
            let (rows, cols) = (build(&rows), build(&cols));
            let rows: Vec<Option<&ClusterRep>> = rows.iter().map(Option::as_ref).collect();
            let cols: Vec<Option<&ClusterRep>> = cols.iter().map(Option::as_ref).collect();
            check(&rows, &cols);
        }

        /// Postings are filed by the rank of each term, so spreading the
        /// twelve term ids through a strictly increasing map into `[0, 2²⁰)`
        /// leaves both products as they were, bit for bit — and still equal
        /// to the pairwise merge-joins, which no ranking touches.
        #[test]
        fn a_strictly_increasing_relabelling_keeps_every_product(
            rows in prop::collection::vec(slot_strategy(), 0..8),
            cols in prop::collection::vec(slot_strategy(), 0..8),
            // running sums of 12 gaps below 2²⁰ / 12 ascend strictly
            gaps in prop::collection::vec(1u32..(1 << 20) / 12, 12..13),
        ) {
            let map: Vec<u32> = gaps
                .iter()
                .scan(0, |at, &gap| {
                    *at += gap;
                    Some(*at - 1)
                })
                .collect();
            let build = |slots: &[Option<Vec<(u32, f64)>>], spread: bool| -> Vec<Option<ClusterRep>> {
                slots
                    .iter()
                    .map(|s| {
                        s.as_deref().map(|entries| {
                            let mut r = rep(entries);
                            if spread {
                                r.relabel(|t| TermId(map[t.index()]));
                            }
                            r
                        })
                    })
                    .collect()
            };
            let products = |spread: bool| {
                let (rows, cols) = (build(&rows, spread), build(&cols, spread));
                let rows: Vec<Option<&ClusterRep>> = rows.iter().map(Option::as_ref).collect();
                let cols: Vec<Option<&ClusterRep>> = cols.iter().map(Option::as_ref).collect();
                check(&rows, &cols);
                let postings = RepPostings::new(&cols);
                (bits(&postings.dot_rows(&rows)), bits(&postings.dot_pairs()))
            };
            prop_assert_eq!(products(true), products(false));
        }
    }
}
