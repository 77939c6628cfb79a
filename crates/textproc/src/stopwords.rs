//! English stop-word filtering.
//!
//! Stop words carry no topical signal and would otherwise dominate the term
//! statistics `Pr(t_k)` of the forgetting model. The default list is the
//! classic van Rijsbergen / SMART-style core English list.

use std::collections::HashSet;

use crate::hash::TermHash;

/// The built-in English stop-word list (lower-case).
pub const ENGLISH: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "aren't",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "can't",
    "cannot",
    "could",
    "couldn't",
    "did",
    "didn't",
    "do",
    "does",
    "doesn't",
    "doing",
    "don't",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "hadn't",
    "has",
    "hasn't",
    "have",
    "haven't",
    "having",
    "he",
    "he'd",
    "he'll",
    "he's",
    "her",
    "here",
    "here's",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "how's",
    "i",
    "i'd",
    "i'll",
    "i'm",
    "i've",
    "if",
    "in",
    "into",
    "is",
    "isn't",
    "it",
    "it's",
    "its",
    "itself",
    "let's",
    "me",
    "more",
    "most",
    "mustn't",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "shan't",
    "she",
    "she'd",
    "she'll",
    "she's",
    "should",
    "shouldn't",
    "so",
    "some",
    "such",
    "than",
    "that",
    "that's",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "there's",
    "these",
    "they",
    "they'd",
    "they'll",
    "they're",
    "they've",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "wasn't",
    "we",
    "we'd",
    "we'll",
    "we're",
    "we've",
    "were",
    "weren't",
    "what",
    "what's",
    "when",
    "when's",
    "where",
    "where's",
    "which",
    "while",
    "who",
    "who's",
    "whom",
    "why",
    "why's",
    "with",
    "won't",
    "would",
    "wouldn't",
    "you",
    "you'd",
    "you'll",
    "you're",
    "you've",
    "your",
    "yours",
    "yourself",
    "yourselves",
    "said",
    "says",
    "say",
    "will",
    "also",
    "one",
    "two",
    "mr",
    "mrs",
    "ms",
];

/// A stop-word set.
///
/// ```
/// use nidc_textproc::stopwords::StopWords;
///
/// let mut sw = StopWords::english();
/// assert!(sw.contains("the"));
/// assert!(!sw.contains("strike"));
/// sw.add("reuters");
/// assert!(sw.contains("reuters"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StopWords {
    words: HashSet<String, TermHash>,
}

impl StopWords {
    /// An empty set (no filtering).
    pub fn none() -> Self {
        Self::default()
    }

    /// The built-in English list.
    pub fn english() -> Self {
        Self {
            words: ENGLISH.iter().map(|&w| w.to_owned()).collect(),
        }
    }

    /// Builds a set from arbitrary words (lower-cased on insertion).
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut sw = Self::none();
        for w in words {
            sw.add(w.as_ref());
        }
        sw
    }

    /// Adds `word` to the set.
    pub fn add(&mut self, word: &str) {
        self.words.insert(word.to_lowercase());
    }

    /// Whether `word` is a stop word (case-insensitive).
    pub fn contains(&self, word: &str) -> bool {
        if self.words.is_empty() {
            return false;
        }
        if self.words.contains(word) {
            return true;
        }
        // fall back to a lowercase probe only when needed
        let has_upper = if word.is_ascii() {
            word.bytes().any(|b| b.is_ascii_uppercase())
        } else {
            word.chars().any(char::is_uppercase)
        };
        has_upper && self.words.contains(&word.to_lowercase())
    }

    /// Number of stop words in the set.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_list_contains_core_words() {
        let sw = StopWords::english();
        for w in ["the", "and", "of", "to", "is", "was", "said"] {
            assert!(sw.contains(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn content_words_pass() {
        let sw = StopWords::english();
        for w in ["economy", "strike", "olympics", "iraq", "tobacco"] {
            assert!(!sw.contains(w), "{w} should not be a stop word");
        }
    }

    #[test]
    fn case_insensitive_lookup() {
        let sw = StopWords::english();
        assert!(sw.contains("The"));
        assert!(sw.contains("AND"));
    }

    #[test]
    fn none_filters_nothing() {
        let sw = StopWords::none();
        assert!(!sw.contains("the"));
        assert!(sw.is_empty());
    }

    #[test]
    fn custom_words() {
        let sw = StopWords::from_words(["Reuters", "ap"]);
        assert!(sw.contains("reuters"));
        assert!(sw.contains("AP"));
        assert_eq!(sw.len(), 2);
    }

    #[test]
    fn no_duplicate_entries_in_builtin_list() {
        let unique: HashSet<_> = ENGLISH.iter().collect();
        assert_eq!(unique.len(), ENGLISH.len(), "duplicate entries in ENGLISH");
    }
}
