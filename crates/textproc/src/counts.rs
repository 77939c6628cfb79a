//! Term-frequency bags (`f_ik` in the paper's eq. 8).

use crate::{SparseVector, TermId};

/// A bag of term counts for one document: `term → frequency`.
///
/// Backed by a `Vec` of `(term, count)` pairs sorted by term id, with no
/// zero counts, so iteration is already in term-id order, which lets
/// [`TermCounts::to_sparse`] build a valid [`SparseVector`] without
/// re-sorting, and equal bags compare equal.
///
/// ```
/// use nidc_textproc::{TermCounts, TermId};
///
/// let mut c = TermCounts::new();
/// c.add(TermId(3));
/// c.add(TermId(1));
/// c.add(TermId(3));
/// assert_eq!(c.get(TermId(3)), 2);
/// assert_eq!(c.total(), 3);
/// assert_eq!(c.distinct(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermCounts {
    counts: Vec<(TermId, u32)>,
    total: u64,
}

impl TermCounts {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the count of `term` by one.
    pub fn add(&mut self, term: TermId) {
        self.add_n(term, 1);
    }

    /// Increments the count of `term` by `n`.
    pub fn add_n(&mut self, term: TermId, n: u32) {
        if n == 0 {
            return;
        }
        match self.counts.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => self.counts.insert(i, (term, n)),
        }
        self.total += u64::from(n);
    }

    /// Counts a document's term occurrences in one sort: the ids are sorted
    /// in place and each run of equal ids becomes one `(term, count)` entry.
    pub(crate) fn from_ids(mut ids: Vec<TermId>) -> Self {
        ids.sort_unstable();
        let distinct = ids.chunk_by(|a, b| a == b).count();
        let mut counts = Vec::with_capacity(distinct);
        counts.extend(ids.chunk_by(|a, b| a == b).map(|run| {
            let n = u32::try_from(run.len()).expect("term count exceeds u32::MAX");
            (run[0], n)
        }));
        Self {
            counts,
            total: ids.len() as u64,
        }
    }

    /// The count of `term` (0 if absent).
    pub fn get(&self, term: TermId) -> u32 {
        self.counts
            .binary_search_by_key(&term, |&(t, _)| t)
            .map_or(0, |i| self.counts[i].1)
    }

    /// Total number of token occurrences, `len_i = Σ_l f_il` (eq. 15).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct terms.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(term, count)` in term-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// Converts the raw counts into a [`SparseVector`] of `f64` frequencies.
    pub fn to_sparse(&self) -> SparseVector {
        SparseVector::from_sorted(
            self.counts
                .iter()
                .map(|&(t, c)| (t, f64::from(c)))
                .collect(),
        )
    }
}

impl FromIterator<TermId> for TermCounts {
    fn from_iter<I: IntoIterator<Item = TermId>>(iter: I) -> Self {
        Self::from_ids(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = TermCounts::new();
        c.add(TermId(5));
        c.add(TermId(5));
        c.add(TermId(1));
        assert_eq!(c.get(TermId(5)), 2);
        assert_eq!(c.get(TermId(1)), 1);
        assert_eq!(c.get(TermId(0)), 0);
    }

    #[test]
    fn totals_track_occurrences() {
        let mut c = TermCounts::new();
        c.add_n(TermId(0), 10);
        c.add_n(TermId(1), 5);
        c.add_n(TermId(1), 0); // no-op
        assert_eq!(c.total(), 15);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn to_sparse_preserves_order_and_values() {
        let c: TermCounts = [TermId(9), TermId(2), TermId(9), TermId(2), TermId(2)]
            .into_iter()
            .collect();
        let s = c.to_sparse();
        assert_eq!(s.entries(), &[(TermId(2), 3.0), (TermId(9), 2.0)]);
        assert_eq!(s.sum(), c.total() as f64);
    }

    #[test]
    fn iter_in_term_order() {
        let mut c = TermCounts::new();
        c.add(TermId(7));
        c.add(TermId(0));
        let got: Vec<_> = c.iter().collect();
        assert_eq!(got, vec![(TermId(0), 1), (TermId(7), 1)]);
    }

    #[test]
    fn empty_bag() {
        let c = TermCounts::new();
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
        assert!(c.to_sparse().is_empty());
    }
}
