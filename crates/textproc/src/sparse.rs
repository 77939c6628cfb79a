//! Sorted sparse vectors over [`TermId`]s.
//!
//! Documents, tf·idf vectors, and cluster representatives (paper eq. 19–20) are
//! all sparse maps `TermId → f64`. We store them as a `Vec<(TermId, f64)>`
//! sorted by term id, which makes dot products and linear combinations cheap
//! sorted merges and keeps memory contiguous.

use crate::TermId;

/// A sparse vector: strictly-increasing `TermId`s paired with `f64` weights.
///
/// Invariants (checked in debug builds, preserved by all constructors and
/// operations):
/// * entries sorted by term id, no duplicates;
/// * no explicitly stored zeros (entries with weight exactly `0.0` are pruned
///   by [`SparseVector::from_entries`] and arithmetic helpers).
///
/// ```
/// use nidc_textproc::{SparseVector, TermId};
///
/// let a = SparseVector::from_entries(vec![(TermId(0), 1.0), (TermId(2), 2.0)]);
/// let b = SparseVector::from_entries(vec![(TermId(2), 3.0), (TermId(5), 1.0)]);
/// assert_eq!(a.dot(&b), 6.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
}

impl SparseVector {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from arbitrary `(id, weight)` pairs.
    ///
    /// Pairs are sorted; duplicate ids are summed; zero weights are dropped.
    pub fn from_entries(mut entries: Vec<(TermId, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut out: Vec<(TermId, f64)> = Vec::with_capacity(entries.len());
        for (id, w) in entries {
            match out.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => out.push((id, w)),
            }
        }
        out.retain(|&(_, w)| w != 0.0);
        Self { entries: out }
    }

    /// Builds a vector from entries already sorted by strictly-increasing id.
    ///
    /// # Panics
    /// In debug builds, panics if the ordering invariant is violated.
    pub fn from_sorted(entries: Vec<(TermId, f64)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted by strictly increasing TermId"
        );
        Self { entries }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no stored entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries, sorted by term id.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// The weight of term `id` (0.0 if absent).
    pub fn get(&self, id: TermId) -> f64 {
        match self.entries.binary_search_by_key(&id, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Dot product via sorted merge: `Σ_k a_k · b_k`.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm `Σ_k a_k²`.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Sum of weights `Σ_k a_k` (the document length `len_i` of eq. 15 when the
    /// weights are raw term frequencies).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }

    /// Returns `self + scale · other` as a new vector (merge-based).
    pub fn add_scaled(&self, other: &SparseVector, scale: f64) -> SparseVector {
        let (a, b) = (&self.entries, &other.entries);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let pick_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if pick_a {
                let (id, w) = a[i];
                i += 1;
                if j < b.len() && b[j].0 == id {
                    let merged = w + scale * b[j].1;
                    j += 1;
                    if merged != 0.0 {
                        out.push((id, merged));
                    }
                } else {
                    out.push((id, w));
                }
            } else {
                let (id, w) = b[j];
                j += 1;
                let scaled = scale * w;
                if scaled != 0.0 {
                    out.push((id, scaled));
                }
            }
        }
        SparseVector { entries: out }
    }

    /// Adds `scale · other` into `self` in place (sorted merge).
    ///
    /// The merge reuses `self`'s allocation when `other` introduces no new
    /// term ids (the common case for cluster-representative maintenance,
    /// where a member's terms are already present); otherwise one new buffer
    /// of size `nnz(self) + nnz(other)` is built.
    ///
    /// Entries whose merged weight is exactly `0.0` are pruned, preserving
    /// the no-stored-zeros invariant. Each surviving weight is produced by
    /// the single scalar operation `a + scale·b` (or `scale·b` for new
    /// terms), so repeated calls accumulate bit-identically to a dense
    /// per-slot `+=` loop applied in the same order.
    pub fn axpy_in_place(&mut self, other: &SparseVector, scale: f64) {
        if scale == 0.0 || other.is_empty() {
            return;
        }
        // Fast path: every term of `other` already exists in `self` —
        // update weights in place, pruning exact zeros only if one appeared
        // (weights cancel to exactly 0.0 only on removals, so the common
        // append case skips the O(nnz) retain scan entirely).
        let mut j = 0;
        let mut in_place = true;
        let mut zeroed = false;
        {
            let a = &mut self.entries;
            let b = &other.entries;
            let mut i = 0;
            while j < b.len() {
                match a[i..].binary_search_by_key(&b[j].0, |&(t, _)| t) {
                    Ok(off) => {
                        i += off;
                        a[i].1 += scale * b[j].1;
                        zeroed |= a[i].1 == 0.0;
                        j += 1;
                    }
                    Err(_) => {
                        in_place = false;
                        break;
                    }
                }
            }
        }
        if in_place {
            if zeroed {
                self.entries.retain(|&(_, w)| w != 0.0);
            }
            return;
        }
        // General path: fold the remaining terms of `other` (position `j`
        // on) in by a backward in-place merge. Counting the genuinely new
        // terms first lets the vector grow once at the tail and merge from
        // the back, so no fresh allocation is made and spare capacity is
        // reused across long add/remove chains — the cost that dominates
        // representative maintenance when documents churn between clusters.
        let b = &other.entries[j..];
        let old_len = self.entries.len();
        let mut extra = 0usize;
        {
            let a = &self.entries;
            let (mut i, mut jj) = (0, 0);
            while jj < b.len() {
                if i >= a.len() || a[i].0 > b[jj].0 {
                    extra += 1;
                    jj += 1;
                } else if a[i].0 == b[jj].0 {
                    i += 1;
                    jj += 1;
                } else {
                    i += 1;
                }
            }
        }
        self.entries.resize(old_len + extra, (TermId(0), 0.0));
        let a = &mut self.entries;
        let mut write = old_len + extra;
        let (mut i, mut jj) = (old_len as isize - 1, b.len() as isize - 1);
        // invariant: write == (i+1) + (jj+1) + <remaining prefix of a>, so a
        // write never clobbers an unread a[..=i] slot
        while jj >= 0 {
            write -= 1;
            if i >= 0 && a[i as usize].0 == b[jj as usize].0 {
                let w = a[i as usize].1 + scale * b[jj as usize].1;
                a[write] = (a[i as usize].0, w);
                zeroed |= w == 0.0;
                i -= 1;
                jj -= 1;
            } else if i >= 0 && a[i as usize].0 > b[jj as usize].0 {
                a[write] = a[i as usize];
                i -= 1;
            } else {
                let scaled = scale * b[jj as usize].1;
                a[write] = (b[jj as usize].0, scaled);
                zeroed |= scaled == 0.0;
                jj -= 1;
            }
        }
        debug_assert_eq!(write as isize, i + 1);
        if zeroed {
            self.entries.retain(|&(_, w)| w != 0.0);
        }
    }

    /// Adds `other` into `self` and returns `self · other` as it was before
    /// the add — [`SparseVector::dot`] followed by
    /// [`SparseVector::axpy_in_place`]`(other, 1.0)`, bit for bit, in one
    /// merge-join instead of two passes.
    ///
    /// The dot is summed from `0.0` over the shared terms in ascending
    /// order, as `dot` sums it. The union is written into one new buffer:
    /// `a + b` on shared terms, `b` on terms new to `self`, exact zeros
    /// dropped.
    pub fn fold_in(&mut self, other: &SparseVector) -> f64 {
        if other.is_empty() {
            return 0.0;
        }
        let (a, b) = (&self.entries, &other.entries);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((ta, wa), (tb, wb)) = (a[i], b[j]);
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => {
                    out.push((ta, wa));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if wb != 0.0 {
                        out.push((tb, wb));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    dot += wa * wb;
                    let w = wa + wb;
                    if w != 0.0 {
                        out.push((ta, w));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend(b[j..].iter().filter(|&&(_, w)| w != 0.0));
        self.entries = out;
        dot
    }

    /// Returns the vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> SparseVector {
        if factor == 0.0 {
            return SparseVector::new();
        }
        SparseVector {
            entries: self
                .entries
                .iter()
                .map(|&(id, w)| (id, w * factor))
                .collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        if factor == 0.0 {
            self.entries.clear();
            return;
        }
        for (_, w) in &mut self.entries {
            *w *= factor;
        }
    }

    /// Returns the unit-normalised copy, or `None` for the zero vector.
    pub fn normalized(&self) -> Option<SparseVector> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(self.scaled(1.0 / n))
        }
    }

    /// Cosine similarity with `other`; 0.0 if either vector is zero.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Iterates over `(TermId, f64)` entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Renames every term through `map` in place, weights untouched. `map`
    /// must be strictly increasing over the stored terms, so the entries
    /// stay sorted.
    pub fn relabel(&mut self, mut map: impl FnMut(TermId) -> TermId) {
        for (t, _) in &mut self.entries {
            *t = map(*t);
        }
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "relabel map must be strictly increasing"
        );
    }
}

impl AsRef<[(TermId, f64)]> for SparseVector {
    fn as_ref(&self) -> &[(TermId, f64)] {
        &self.entries
    }
}

impl nidc_obs::DeepSize for SparseVector {
    /// Heap footprint: the entry buffer's full *capacity* (spare capacity is
    /// real resident memory — `axpy_in_place` deliberately over-allocates to
    /// amortise churn, and the gauges should see that).
    fn deep_size_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<(TermId, f64)>()) as u64
    }
}

impl FromIterator<(TermId, f64)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    #[test]
    fn from_entries_sorts_merges_and_prunes() {
        let s = v(&[(3, 1.0), (1, 2.0), (3, 4.0), (2, 0.0)]);
        assert_eq!(s.entries(), &[(TermId(1), 2.0), (TermId(3), 5.0)]);
    }

    #[test]
    fn get_absent_is_zero() {
        let s = v(&[(1, 2.0)]);
        assert_eq!(s.get(TermId(0)), 0.0);
        assert_eq!(s.get(TermId(1)), 2.0);
        assert_eq!(s.get(TermId(2)), 0.0);
    }

    #[test]
    fn dot_of_disjoint_is_zero() {
        assert_eq!(v(&[(0, 1.0), (2, 1.0)]).dot(&v(&[(1, 5.0), (3, 5.0)])), 0.0);
    }

    #[test]
    fn dot_matches_dense_computation() {
        let a = v(&[(0, 1.0), (1, 2.0), (4, -3.0)]);
        let b = v(&[(1, 0.5), (2, 9.0), (4, 2.0)]);
        assert!((a.dot(&b) - (2.0 * 0.5 + -3.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn dot_is_commutative() {
        let a = v(&[(0, 1.5), (3, 2.5)]);
        let b = v(&[(0, -1.0), (3, 4.0), (7, 1.0)]);
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn norms() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn add_scaled_merges_and_cancels() {
        let a = v(&[(0, 1.0), (2, 2.0)]);
        let b = v(&[(1, 3.0), (2, -1.0)]);
        let c = a.add_scaled(&b, 2.0);
        assert_eq!(
            c.entries(),
            &[(TermId(0), 1.0), (TermId(1), 6.0)] // 2.0 + 2*(-1.0) = 0 pruned
        );
    }

    #[test]
    fn axpy_in_place_matches_add_scaled() {
        let cases = [
            (
                vec![(0u32, 1.0), (2, 2.0)],
                vec![(1u32, 3.0), (2, -1.0)],
                2.0,
            ),
            (vec![(0, 1.0), (2, 2.0)], vec![(0, 0.5), (2, 0.25)], -1.0),
            (vec![], vec![(4, 1.0)], 3.0),
            (vec![(7, 1.0)], vec![], 2.0),
            (vec![(1, 1.0), (3, 1.0)], vec![(1, 1.0), (3, 1.0)], -1.0),
        ];
        for (a, b, scale) in cases {
            let a = v(&a);
            let b = v(&b);
            let mut inplace = a.clone();
            inplace.axpy_in_place(&b, scale);
            assert_eq!(
                inplace,
                a.add_scaled(&b, scale),
                "a={a:?} b={b:?} s={scale}"
            );
        }
    }

    #[test]
    fn axpy_in_place_subset_takes_fast_path_and_prunes() {
        // every term of b exists in a: exercised in place, zeros pruned
        let mut a = v(&[(0, 1.0), (3, 2.0), (9, 4.0)]);
        let b = v(&[(3, 2.0), (9, 1.0)]);
        a.axpy_in_place(&b, -1.0);
        assert_eq!(a.entries(), &[(TermId(0), 1.0), (TermId(9), 3.0)]);
    }

    #[test]
    fn add_scaled_with_zero_scale_keeps_self() {
        let a = v(&[(0, 1.0), (5, 2.0)]);
        let b = v(&[(0, 10.0), (9, 10.0)]);
        assert_eq!(a.add_scaled(&b, 0.0), a);
    }

    #[test]
    fn scaled_and_scale_in_place_agree() {
        let a = v(&[(0, 1.0), (5, -2.0)]);
        let mut b = a.clone();
        b.scale_in_place(3.0);
        assert_eq!(a.scaled(3.0), b);
        let mut z = a.clone();
        z.scale_in_place(0.0);
        assert!(z.is_empty());
    }

    #[test]
    fn normalized_unit_norm() {
        let a = v(&[(0, 3.0), (1, 4.0)]);
        let n = a.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(v(&[]).normalized().is_none());
    }

    #[test]
    fn cosine_bounds_and_self_similarity() {
        let a = v(&[(0, 1.0), (1, 1.0)]);
        let b = v(&[(0, 2.0), (1, 2.0)]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.cosine(&SparseVector::new()), 0.0);
    }

    #[test]
    fn deep_size_counts_capacity_not_len() {
        use nidc_obs::DeepSize;
        assert_eq!(SparseVector::new().deep_size_bytes(), 0);
        let s = v(&[(0, 1.0), (3, 2.0)]);
        let per_entry = std::mem::size_of::<(TermId, f64)>() as u64;
        assert!(s.deep_size_bytes() >= 2 * per_entry);
    }

    #[test]
    fn from_iterator_collects() {
        let s: SparseVector = [(TermId(2), 1.0), (TermId(0), 1.0)].into_iter().collect();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.entries()[0].0, TermId(0));
    }
}
