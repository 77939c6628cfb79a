//! The end-to-end text-analysis pipeline: tokenise → stop-filter → stem → count.

use crate::stopwords::StopWords;
use crate::{PorterStemmer, TermCounts, Tokenizer, TokenizerConfig, Vocabulary};

/// A configured analysis pipeline producing [`TermCounts`] from raw text.
///
/// ```
/// use nidc_textproc::{Pipeline, Vocabulary};
///
/// let mut vocab = Vocabulary::new();
/// let p = Pipeline::english();
/// let counts = p.analyze("Markets crashed; the markets are crashing.", &mut vocab);
/// // "markets"/"crashed"/"crashing" stem to shared stems; "the"/"are" are dropped.
/// let market = vocab.get("market").expect("stem interned");
/// assert_eq!(counts.get(market), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    tokenizer: Tokenizer,
    stopwords: StopWords,
    stemmer: Option<PorterStemmer>,
    bigrams: bool,
}

impl Pipeline {
    /// Standard English pipeline: default tokenizer, English stop words,
    /// Porter stemming.
    pub fn english() -> Self {
        Self {
            tokenizer: Tokenizer::default(),
            stopwords: StopWords::english(),
            stemmer: Some(PorterStemmer::new()),
            bigrams: false,
        }
    }

    /// A raw pipeline: tokenisation only (no stop words, no stemming).
    /// Useful for pre-tokenised synthetic corpora.
    pub fn raw() -> Self {
        Self {
            tokenizer: Tokenizer::default(),
            stopwords: StopWords::none(),
            stemmer: None,
            bigrams: false,
        }
    }

    /// Builds a fully custom pipeline.
    pub fn new(tokenizer_config: TokenizerConfig, stopwords: StopWords, stem: bool) -> Self {
        Self {
            tokenizer: Tokenizer::new(tokenizer_config),
            stopwords,
            stemmer: stem.then(PorterStemmer::new),
            bigrams: false,
        }
    }

    /// Additionally index bigrams of consecutive surviving terms
    /// (`"white_house"`-style tokens). Bigrams sharpen topical signatures in
    /// real English text; they are pointless on bag-of-words synthetic
    /// corpora whose token order carries no information.
    pub fn with_bigrams(mut self, on: bool) -> Self {
        self.bigrams = on;
        self
    }

    /// Analyses `text`: tokens are stop-filtered, stemmed (if enabled),
    /// interned into `vocab`, and counted. With bigrams enabled, each pair
    /// of consecutive surviving terms is additionally counted as a
    /// `first_second` term.
    ///
    /// A token costs no heap allocation: it is lower-cased into one buffer
    /// reused for the whole call and stemmed there in place, looked up by
    /// `&str`, and its id pushed onto a list sized up front; the list is
    /// sorted and run-length encoded into the counts at the end. Only a
    /// non-ASCII token (its lower-casing) and the vocabulary's geometric
    /// growth allocate.
    pub fn analyze(&self, text: &str, vocab: &mut Vocabulary) -> TermCounts {
        let per_token = if self.bigrams { 2 } else { 1 };
        let mut ids = Vec::with_capacity(per_token * self.tokenizer.max_tokens(text));
        // an ASCII token is at most `max_len` bytes, and stemming never
        // lengthens it
        let mut term = String::with_capacity(self.tokenizer.config().max_len.min(text.len()));
        // the previous surviving term followed by '_'; empty when the next
        // term starts no bigram
        let mut bigram = String::new();
        for token in self.tokenizer.tokens(text) {
            self.tokenizer.normalize(token, &mut term);
            if self.stopwords.contains(&term) {
                bigram.clear(); // stop words break bigram adjacency
                continue;
            }
            if let Some(s) = &self.stemmer {
                s.stem_in_place(&mut term);
            }
            if term.is_empty() {
                bigram.clear();
                continue;
            }
            ids.push(vocab.intern(&term));
            if self.bigrams {
                if !bigram.is_empty() {
                    bigram.push_str(&term);
                    ids.push(vocab.intern(&bigram));
                    bigram.clear();
                }
                bigram.push_str(&term);
                bigram.push('_');
            }
        }
        TermCounts::from_ids(ids)
    }

    /// Analyses a batch of texts, sharing one vocabulary.
    pub fn analyze_batch<'a, I>(&self, texts: I, vocab: &mut Vocabulary) -> Vec<TermCounts>
    where
        I: IntoIterator<Item = &'a str>,
    {
        texts.into_iter().map(|t| self.analyze(t, vocab)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_pipeline_filters_and_stems() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::english();
        let c = p.analyze("The connected connections connecting", &mut vocab);
        // all three content words share the stem "connect"
        let id = vocab.get("connect").expect("connect stem");
        assert_eq!(c.get(id), 3);
        assert_eq!(c.distinct(), 1);
        assert!(vocab.get("the").is_none(), "stop word must not be interned");
    }

    #[test]
    fn raw_pipeline_keeps_everything() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::raw();
        let c = p.analyze("the the crisis", &mut vocab);
        assert_eq!(c.get(vocab.get("the").unwrap()), 2);
        assert_eq!(c.get(vocab.get("crisis").unwrap()), 1);
    }

    #[test]
    fn batch_shares_vocabulary() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::raw();
        let batch = p.analyze_batch(["alpha beta", "beta gamma"], &mut vocab);
        assert_eq!(batch.len(), 2);
        let beta = vocab.get("beta").unwrap();
        assert_eq!(batch[0].get(beta), 1);
        assert_eq!(batch[1].get(beta), 1);
        assert_eq!(vocab.len(), 3);
    }

    #[test]
    fn empty_text_empty_counts() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::english();
        assert!(p.analyze("", &mut vocab).is_empty());
        assert!(p.analyze("the and of", &mut vocab).is_empty());
    }

    #[test]
    fn bigrams_index_consecutive_pairs() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::raw().with_bigrams(true);
        let c = p.analyze("white house statement", &mut vocab);
        assert_eq!(c.get(vocab.get("white_house").unwrap()), 1);
        assert_eq!(c.get(vocab.get("house_statement").unwrap()), 1);
        assert_eq!(c.get(vocab.get("white").unwrap()), 1);
        // 3 unigrams + 2 bigrams
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn stop_words_break_bigram_adjacency() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::english().with_bigrams(true);
        p.analyze("markets in turmoil", &mut vocab);
        // "in" is a stop word: no bigram across it
        assert!(vocab.get("market_turmoil").is_none());
        assert!(vocab.iter().all(|(_, s)| !s.contains("in_")));
    }

    #[test]
    fn bigrams_off_by_default() {
        let mut vocab = Vocabulary::new();
        Pipeline::raw().analyze("alpha beta", &mut vocab);
        assert!(vocab.get("alpha_beta").is_none());
    }

    #[test]
    fn custom_pipeline_without_stemming() {
        let mut vocab = Vocabulary::new();
        let p = Pipeline::new(TokenizerConfig::default(), StopWords::none(), false);
        p.analyze("running runner", &mut vocab);
        assert!(vocab.get("running").is_some());
        assert!(vocab.get("runner").is_some());
        assert!(vocab.get("run").is_none());
    }
}
