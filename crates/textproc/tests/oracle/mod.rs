//! The reference analysis that `Pipeline::analyze` must reproduce: one owned
//! `String` per token from `Tokenizer::tokenize`, a `StopWords::contains`
//! probe, `PorterStemmer::stem` into a fresh `String`, a `BTreeMap` count and
//! `format!` bigrams, interning each term as it is met.
//!
//! Shared by `analyze_oracle.rs` here and the workspace's root
//! `tests/text_analysis.rs`, which includes this file by path.

#![allow(dead_code)] // each including test target uses a different subset

use std::collections::BTreeMap;

use nidc_textproc::stopwords::StopWords;
use nidc_textproc::{PorterStemmer, SparseVector, TermId, Tokenizer, TokenizerConfig, Vocabulary};

/// The parts a `Pipeline` is made of, held separately so the reference can
/// run them one by one.
pub struct Parts {
    pub tokenizer: Tokenizer,
    pub stopwords: StopWords,
    pub stem: bool,
    pub bigrams: bool,
}

impl Parts {
    pub fn new(config: TokenizerConfig, stopwords: StopWords, stem: bool, bigrams: bool) -> Self {
        Self {
            tokenizer: Tokenizer::new(config),
            stopwords,
            stem,
            bigrams,
        }
    }

    /// `Pipeline::english()`'s parts.
    pub fn english(bigrams: bool) -> Self {
        Self::new(
            TokenizerConfig::default(),
            StopWords::english(),
            true,
            bigrams,
        )
    }

    /// `Pipeline::raw()`'s parts.
    pub fn raw(bigrams: bool) -> Self {
        Self::new(
            TokenizerConfig::default(),
            StopWords::none(),
            false,
            bigrams,
        )
    }

    /// The reference analysis of `text`: `(term, count)` in term-id order
    /// and the token total.
    pub fn analyze(&self, text: &str, vocab: &mut Vocabulary) -> (Vec<(TermId, u32)>, u64) {
        let mut counts = BTreeMap::<TermId, u32>::new();
        let mut prev: Option<String> = None;
        for token in self.tokenizer.tokenize(text) {
            if self.stopwords.contains(&token) {
                prev = None;
                continue;
            }
            let term = if self.stem {
                PorterStemmer::new().stem(&token)
            } else {
                token
            };
            if term.is_empty() {
                prev = None;
                continue;
            }
            *counts.entry(vocab.intern(&term)).or_insert(0) += 1;
            if self.bigrams {
                if let Some(p) = &prev {
                    *counts
                        .entry(vocab.intern(&format!("{p}_{term}")))
                        .or_insert(0) += 1;
                }
                prev = Some(term);
            }
        }
        let total = counts.values().map(|&c| u64::from(c)).sum();
        (counts.into_iter().collect(), total)
    }

    /// The reference frequency vector of `text`.
    pub fn to_sparse(&self, text: &str, vocab: &mut Vocabulary) -> SparseVector {
        let (counts, _) = self.analyze(text, vocab);
        SparseVector::from_sorted(counts.into_iter().map(|(t, c)| (t, f64::from(c))).collect())
    }
}

/// A vocabulary's terms in id order.
pub fn terms(vocab: &Vocabulary) -> Vec<(TermId, String)> {
    vocab.iter().map(|(id, s)| (id, s.to_owned())).collect()
}
