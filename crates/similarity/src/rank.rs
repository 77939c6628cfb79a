//! Ranking a set of term ids onto `0..n`.
//!
//! The vocabulary only grows, but a K-means run (or a set of
//! representatives being multiplied) touches a few thousand of its terms.
//! [`TermRank`] numbers the present terms `0..n` in ascending order — a
//! term's *rank* is the number of present terms below it — so the arrays a
//! run indexes by term can be `n` long instead of vocabulary long. It is a
//! bit set with a prefix count per 64-bit word: [`TermRank::rank`] is one
//! popcount, the ascending list of present terms is a bit walk, and the
//! whole map costs ≈ 1.5 bits per vocabulary id (64 presence bits plus a
//! 32-bit count per word).
//!
//! The rank is strictly increasing in the term id, so walking an ascending
//! term list through it keeps the order: a sum taken in term order over
//! ranked ids adds the same terms in the same order, and keeps its bits.

use nidc_textproc::TermId;

/// A set of term ids, each numbered by its rank among them.
///
/// Fill it with [`TermRank::insert`], then [`TermRank::seal`] it before
/// asking for ranks; [`TermRank::clear`] starts over and keeps the
/// capacity, so one map serves run after run.
#[derive(Debug, Clone, Default)]
pub struct TermRank {
    /// Bit `t % 64` of word `t / 64` is set when term `t` is present.
    words: Vec<u64>,
    /// Per word: the present terms in every earlier word.
    before: Vec<u32>,
    /// Present terms, as of the last seal.
    len: usize,
}

impl TermRank {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every term.
    pub fn clear(&mut self) {
        self.words.clear();
        self.before.clear();
        self.len = 0;
    }

    /// Adds `t`; ranks stay stale until the next [`TermRank::seal`].
    pub fn insert(&mut self, t: TermId) {
        let w = t.index() / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (t.index() % 64);
    }

    /// Counts the terms below each word, in O(max term id / 64), and
    /// returns how many terms are present.
    pub fn seal(&mut self) -> usize {
        self.before.clear();
        let mut total = 0u32;
        for &word in &self.words {
            self.before.push(total);
            total += word.count_ones();
        }
        self.len = total as usize;
        self.len
    }

    /// Number of present terms, as of the last seal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no term is present, as of the last seal.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `t`'s rank — its position among the present terms, in `0..len()` —
    /// or `None` if `t` is absent.
    #[inline]
    pub fn rank(&self, t: TermId) -> Option<usize> {
        let (w, bit) = (t.index() / 64, t.index() % 64);
        let word = *self.words.get(w)?;
        if word >> bit & 1 == 0 {
            return None;
        }
        let below = word & ((1u64 << bit) - 1);
        Some(self.before[w] as usize + below.count_ones() as usize)
    }

    /// The present terms in ascending order: term `r` of the walk has rank
    /// `r`.
    pub fn iter(&self) -> impl Iterator<Item = TermId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    TermId(w as u32 * 64 + bit)
                })
            })
        })
    }
}

impl nidc_obs::DeepSize for TermRank {
    /// Heap footprint from capacities, O(1): 12 bytes per 64 term ids.
    fn deep_size_bytes(&self) -> u64 {
        let words = self.words.capacity() * std::mem::size_of::<u64>();
        let before = self.before.capacity() * std::mem::size_of::<u32>();
        (words + before) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ranked(terms: &[u32]) -> TermRank {
        let mut rank = TermRank::new();
        for &t in terms {
            rank.insert(TermId(t));
        }
        rank.seal();
        rank
    }

    #[test]
    fn ranks_count_the_present_terms_below() {
        let rank = ranked(&[200, 3, 64, 63, 3, 0]);
        assert_eq!(rank.len(), 5);
        let walk: Vec<u32> = rank.iter().map(|t| t.0).collect();
        assert_eq!(walk, [0, 3, 63, 64, 200]);
        for (r, t) in walk.iter().enumerate() {
            assert_eq!(rank.rank(TermId(*t)), Some(r));
        }
        for absent in [1, 62, 65, 199, 201, 100_000] {
            assert_eq!(rank.rank(TermId(absent)), None, "term {absent}");
        }
    }

    #[test]
    fn clear_forgets_every_term() {
        let mut rank = ranked(&[5, 700]);
        rank.clear();
        assert!(rank.is_empty());
        rank.insert(TermId(9));
        assert_eq!(rank.seal(), 1);
        assert_eq!(rank.rank(TermId(9)), Some(0));
        assert_eq!(rank.rank(TermId(700)), None);
        assert_eq!(rank.iter().count(), 1);
    }

    proptest! {
        /// Against a sorted, deduplicated list: every rank is the term's
        /// index in it, and the walk is the list.
        #[test]
        fn ranks_match_a_sorted_list(terms in prop::collection::vec(0u32..5000, 0..200)) {
            let rank = ranked(&terms);
            let mut sorted = terms.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(rank.len(), sorted.len());
            let walk: Vec<u32> = rank.iter().map(|t| t.0).collect();
            prop_assert_eq!(&walk, &sorted);
            for t in 0..5100 {
                prop_assert_eq!(rank.rank(TermId(t)), sorted.binary_search(&t).ok());
            }
        }
    }
}
