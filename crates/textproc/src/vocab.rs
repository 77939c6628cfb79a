//! Bidirectional term interning.
//!
//! Every distinct term string in the document repository is assigned a dense
//! [`TermId`]. Dense ids keep sparse vectors small (`u32` instead of `String`)
//! and make the per-term statistics of the forgetting model (`Pr(t_k)`,
//! eq. 10 of the paper) indexable by plain `Vec`s.

use std::fmt;
use std::hash::BuildHasher;

use crate::hash::TermHash;

/// Identifier of an interned term.
///
/// Ids are dense: the first interned term receives id 0, the next id 1, …
/// A `TermId` is only meaningful relative to the [`Vocabulary`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A bidirectional mapping between term strings and dense [`TermId`]s.
///
/// The vocabulary is the single owner of its term strings: they sit end to
/// end in one buffer, in id order, and the lookup table holds only ids, so a
/// new term costs no heap allocation of its own (the buffer and the table
/// grow geometrically). Ids follow first-seen order only; the table hashes
/// with an unkeyed hasher, which never affects ids.
///
/// ```
/// use nidc_textproc::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let a = vocab.intern("crisis");
/// let b = vocab.intern("strike");
/// assert_ne!(a, b);
/// assert_eq!(vocab.intern("crisis"), a); // idempotent
/// assert_eq!(vocab.term(a), Some("crisis"));
/// assert_eq!(vocab.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// Every term, concatenated in id order.
    text: String,
    /// `ends[i]` is where term `i` ends in `text`; it starts where term
    /// `i - 1` ends.
    ends: Vec<usize>,
    /// Open-addressing table over the ids, probed linearly from a term's
    /// hash; a power of two in length, at most half full.
    slots: Vec<Slot>,
}

/// One table slot: a term id and the low half of its hash, which rules out
/// most non-matching slots without touching the term's bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

impl Slot {
    const FREE: Slot = Slot {
        tag: 0,
        id: u32::MAX,
    };
}

fn hash(term: &str) -> u64 {
    TermHash::default().hash_one(term)
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vocabulary with room for `cap` terms.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self {
            text: String::new(),
            ends: Vec::with_capacity(cap),
            slots: Vec::new(),
        };
        v.rehash((2 * cap).next_power_of_two());
        v
    }

    /// Interns `term`, returning its id. Existing terms keep their id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if self.slots.is_empty() {
            self.rehash(16);
        }
        let h = hash(term);
        let i = self.find(term, h);
        if self.slots[i].id != Slot::FREE.id {
            return TermId(self.slots[i].id);
        }
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != Slot::FREE.id)
            .expect("vocabulary exceeded u32::MAX - 1 terms");
        self.text.push_str(term);
        self.ends.push(self.text.len());
        self.slots[i] = Slot { tag: h as u32, id };
        if 2 * self.ends.len() > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        TermId(id)
    }

    /// Looks up the id of `term` without interning it.
    pub fn get(&self, term: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.find(term, hash(term))];
        (slot.id != Slot::FREE.id).then_some(TermId(slot.id))
    }

    /// The slot holding `term`, or the free slot where it belongs.
    fn find(&self, term: &str, h: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (h >> 32) as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == Slot::FREE.id || (s.tag == h as u32 && self.str_of(s.id) == term) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuilds the table with `len` slots, rehashing every term (one pass
    /// over the contiguous term text).
    fn rehash(&mut self, len: usize) {
        self.slots = vec![Slot::FREE; len];
        let mask = len - 1;
        for id in 0..self.ends.len() as u32 {
            let h = hash(self.str_of(id));
            let mut i = (h >> 32) as usize & mask;
            while self.slots[i].id != Slot::FREE.id {
                i = (i + 1) & mask;
            }
            self.slots[i] = Slot { tag: h as u32, id };
        }
    }

    fn str_of(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Returns the string for `id`, if `id` was issued by this vocabulary.
    pub fn term(&self, id: TermId) -> Option<&str> {
        (id.index() < self.ends.len()).then(|| self.str_of(id.0))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no terms have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        (0..self.ends.len() as u32).map(|id| (TermId(id), self.str_of(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("b"), TermId(1));
        assert_eq!(v.intern("c"), TermId(2));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("news");
        let a2 = v.intern("news");
        assert_eq!(a, a2);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get("ghost"), None);
        assert_eq!(v.len(), 0);
        v.intern("ghost");
        assert_eq!(v.get("ghost"), Some(TermId(0)));
    }

    #[test]
    fn roundtrip_term_lookup() {
        let mut v = Vocabulary::new();
        let id = v.intern("tsukuba");
        assert_eq!(v.term(id), Some("tsukuba"));
        assert_eq!(v.term(TermId(99)), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut v = Vocabulary::new();
        for t in ["x", "y", "z"] {
            v.intern(t);
        }
        let collected: Vec<_> = v.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(
            collected,
            vec![
                (0, "x".to_owned()),
                (1, "y".to_owned()),
                (2, "z".to_owned())
            ]
        );
    }

    #[test]
    fn ids_and_strings_survive_table_growth() {
        let mut v = Vocabulary::with_capacity(3);
        let terms: Vec<String> = (0..5000).map(|i| format!("term{i}")).collect();
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(v.intern(t), TermId(i as u32));
        }
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(v.get(t), Some(TermId(i as u32)));
            assert_eq!(v.term(TermId(i as u32)), Some(t.as_str()));
        }
        assert_eq!(v.get("term5000"), None);
        assert_eq!(v.len(), 5000);
    }

    #[test]
    fn prefixes_and_the_empty_term_are_distinct_terms() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get(""), None);
        let ids: Vec<_> = ["ab", "a", "", "abc", "b"]
            .iter()
            .map(|t| v.intern(t))
            .collect();
        assert_eq!(ids, (0..5).map(TermId).collect::<Vec<_>>());
        assert_eq!(v.term(TermId(2)), Some(""));
        assert_eq!(v.term(TermId(3)), Some("abc"));
    }

    #[test]
    fn empty_vocab_reports_empty() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn display_term_id() {
        assert_eq!(TermId(7).to_string(), "t7");
    }
}
