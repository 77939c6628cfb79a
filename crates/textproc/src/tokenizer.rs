//! Word tokenisation.
//!
//! News text (the paper's input) is tokenised into lower-case word tokens.
//! The tokenizer is configurable so tests and the synthetic corpus (which
//! already produces clean tokens) can bypass filtering steps.

/// Configuration for [`Tokenizer`].
#[derive(Debug, Clone)]
pub struct TokenizerConfig {
    /// Lower-case every token (default: true).
    pub lowercase: bool,
    /// Minimum token length in characters (default: 2).
    pub min_len: usize,
    /// Maximum token length in characters; longer tokens are dropped
    /// (default: 40 — catches URLs and junk).
    pub max_len: usize,
    /// Drop tokens containing any digit (default: false; years like "1998"
    /// are meaningful in news).
    pub drop_numeric: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            lowercase: true,
            min_len: 2,
            max_len: 40,
            drop_numeric: false,
        }
    }
}

/// Splits raw text into word tokens.
///
/// A token is a maximal run of alphanumeric characters, apostrophes, hyphens
/// and full stops, trimmed of the apostrophes, hyphens and full stops at its
/// edges: those *inside* a word are kept (so "don't", "co-operate" and
/// "u.s" survive as single tokens), while all other punctuation separates
/// tokens. The length bounds count the characters of the token as written,
/// before lower-casing.
///
/// ```
/// use nidc_textproc::Tokenizer;
///
/// let t = Tokenizer::default();
/// let toks: Vec<_> = t.tokenize("U.S. stocks — they don't fall!").collect();
/// assert_eq!(toks, vec!["u.s", "stocks", "they", "don't", "fall"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Creates a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Tokenises `text`, yielding owned tokens.
    pub fn tokenize<'a>(&'a self, text: &'a str) -> impl Iterator<Item = String> + 'a {
        self.tokens(text).map(|tok| {
            let mut out = String::new();
            self.normalize(tok, &mut out);
            out
        })
    }

    /// The tokens of `text` as written, borrowed: split, edge-trimmed and
    /// filtered by length and digits, but not yet lower-cased.
    pub(crate) fn tokens<'a>(&'a self, text: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let cfg = &self.config;
        text.split(|c: char| !(c.is_alphanumeric() || c == '\'' || c == '-' || c == '.'))
            // trim joining punctuation from the edges
            .map(|chunk| chunk.trim_matches(|c: char| c == '\'' || c == '-' || c == '.'))
            .filter(move |tok| {
                !tok.is_empty()
                    && (cfg.min_len..=cfg.max_len).contains(&tok.chars().count())
                    && !(cfg.drop_numeric && tok.bytes().any(|b| b.is_ascii_digit()))
            })
    }

    /// Writes `token` into `out`, replacing its contents: lower-cased when
    /// the configuration asks for it, as written otherwise.
    pub(crate) fn normalize(&self, token: &str, out: &mut String) {
        out.clear();
        if !self.config.lowercase {
            out.push_str(token);
        } else if token.is_ascii() {
            out.push_str(token);
            out.make_ascii_lowercase();
        } else {
            // `str::to_lowercase` knows context rules (a word-final 'Σ'
            // becomes 'ς') that char-by-char lowering does not
            out.push_str(&token.to_lowercase());
        }
    }

    /// An upper bound on the number of tokens in `text`: each token holds at
    /// least `max(min_len, 1)` bytes and all but the last are followed by a
    /// separator.
    pub(crate) fn max_tokens(&self, text: &str) -> usize {
        (text.len() + 1) / (self.config.min_len.max(1) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<String> {
        Tokenizer::default().tokenize(text).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(toks("hello, world"), vec!["hello", "world"]);
        assert_eq!(toks("a;b|c"), Vec::<String>::new()); // all length-1
        assert_eq!(toks("one;two|three"), vec!["one", "two", "three"]);
    }

    #[test]
    fn lowercases_by_default() {
        assert_eq!(toks("Asian CRISIS"), vec!["asian", "crisis"]);
    }

    #[test]
    fn keeps_internal_apostrophes_and_hyphens() {
        assert_eq!(toks("don't co-operate"), vec!["don't", "co-operate"]);
    }

    #[test]
    fn trims_edge_punctuation() {
        assert_eq!(
            toks("'quoted' -dashed- end."),
            vec!["quoted", "dashed", "end"]
        );
    }

    #[test]
    fn min_length_filter() {
        assert_eq!(toks("I a to be or"), vec!["to", "be", "or"]);
    }

    #[test]
    fn max_length_filter_drops_junk() {
        let long = "x".repeat(50);
        assert_eq!(toks(&format!("ok {long} fine")), vec!["ok", "fine"]);
    }

    #[test]
    fn numeric_tokens_kept_by_default_dropped_on_request() {
        assert_eq!(toks("in 1998 olympics"), vec!["in", "1998", "olympics"]);
        let t = Tokenizer::new(TokenizerConfig {
            drop_numeric: true,
            ..TokenizerConfig::default()
        });
        let got: Vec<_> = t.tokenize("in 1998 olympics").collect();
        assert_eq!(got, vec!["in", "olympics"]);
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(toks("café naïve"), vec!["café", "naïve"]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(toks("").is_empty());
        assert!(toks("   \t\n").is_empty());
    }
}
