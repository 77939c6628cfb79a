//! `Pipeline::analyze` against the reference analysis in `oracle/mod.rs`:
//! on random text mixing case, ASCII and non-ASCII letters, separators,
//! joining punctuation, digits and tokens at the length bounds, under every
//! pipeline shape, the counts, the frequency vectors and the vocabulary
//! (ids and strings, in id order) must be identical.

mod oracle;

use nidc_textproc::stopwords::StopWords;
use nidc_textproc::{Pipeline, Tokenizer, TokenizerConfig, Vocabulary};
use oracle::{terms, Parts};
use proptest::prelude::*;

/// Words whose stems exercise every Porter step, plus stop words in three
/// spellings.
const WORDS: &[&str] = &[
    "connections",
    "Connected",
    "generalization",
    "happily",
    "ponies",
    "hopping",
    "relational",
    "electrical",
    "adjustment",
    "controlling",
    "agreed",
    "sky",
    "the",
    "The",
    "AND",
    "don't",
    "Don't",
    "said",
    "u.s",
    "co-operate",
];

/// One fragment of text; a text is a run of fragments, so words run into
/// separators, punctuation and each other.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z]{1,12}",
        "[a-zÉéßİıΣσ]{1,8}",
        "[ \t;—,!?]{1,3}",
        " ",
        "['.-]{0,2}[a-z]{1,5}['.-]{1,2}[a-z]{0,5}['.-]{0,2}",
        "[0-9]{1,5}",
        "[a-z]{1,4}[0-9]{1,3}",
        " [a-z]{1} ",
        " [a-z]{2} ",
        " [a-zA-Z]{40} ",
        " [a-z]{41} ",
        " [a-z]{39}İ ",
        " [éa-z]{40} ",
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_owned()),
        (0..WORDS.len()).prop_map(|i| format!(" {} ", WORDS[i])),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(fragment(), 0..40).prop_map(|f| f.concat())
}

/// Every pipeline shape, as (name, pipeline, the reference's parts).
fn shapes(bigrams: bool) -> Vec<(&'static str, Pipeline, Parts)> {
    let drop_numeric = TokenizerConfig {
        drop_numeric: true,
        ..TokenizerConfig::default()
    };
    let keep_case = TokenizerConfig {
        lowercase: false,
        ..TokenizerConfig::default()
    };
    vec![
        ("english", Pipeline::english(), Parts::english(bigrams)),
        ("raw", Pipeline::raw(), Parts::raw(bigrams)),
        (
            "drop_numeric",
            Pipeline::new(drop_numeric.clone(), StopWords::english(), true),
            Parts::new(drop_numeric, StopWords::english(), true, bigrams),
        ),
        (
            "keep_case",
            Pipeline::new(keep_case.clone(), StopWords::english(), true),
            Parts::new(keep_case, StopWords::english(), true, bigrams),
        ),
    ]
    .into_iter()
    .map(|(name, p, parts)| (name, p.with_bigrams(bigrams), parts))
    .collect()
}

/// Analyses `texts` in order with both the pipeline and the reference, each
/// into its own vocabulary, and compares after every text.
fn check(texts: &[&str], bigrams: bool) -> Result<(), TestCaseError> {
    for (name, pipeline, parts) in shapes(bigrams) {
        let (mut vocab, mut ref_vocab) = (Vocabulary::new(), Vocabulary::new());
        for text in texts {
            let counts = pipeline.analyze(text, &mut vocab);
            let (ref_counts, ref_total) = parts.analyze(text, &mut ref_vocab);
            let got: Vec<_> = counts.iter().collect();
            prop_assert_eq!(&got, &ref_counts, "{} counts of {:?}", name, text);
            prop_assert_eq!(counts.total(), ref_total, "{} total", name);
            prop_assert_eq!(counts.distinct(), ref_counts.len(), "{} distinct", name);
            for &(t, c) in &ref_counts {
                prop_assert_eq!(counts.get(t), c, "{} get", name);
            }
            let mut replay = ref_vocab.clone();
            prop_assert_eq!(
                counts.to_sparse(),
                parts.to_sparse(text, &mut replay),
                "{} vector of {:?}",
                name,
                text
            );
            prop_assert_eq!(terms(&vocab), terms(&ref_vocab), "{} vocabulary", name);
        }
    }
    Ok(())
}

/// The tokenizer's split, trim and filter rules as first written: owned
/// tokens, lower-cased by `str::to_lowercase`.
fn reference_tokens(config: &TokenizerConfig, text: &str) -> Vec<String> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '\'' || c == '-' || c == '.'))
        .map(|chunk| chunk.trim_matches(|c: char| c == '\'' || c == '-' || c == '.'))
        .filter(|tok| !tok.is_empty())
        .filter(|tok| (config.min_len..=config.max_len).contains(&tok.chars().count()))
        .filter(|tok| !(config.drop_numeric && tok.chars().any(|c| c.is_ascii_digit())))
        .map(|tok| {
            if config.lowercase {
                tok.to_lowercase()
            } else {
                tok.to_owned()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analyze_matches_the_reference_without_bigrams(a in text(), b in text()) {
        check(&[&a, &b, &a], false)?;
    }

    #[test]
    fn analyze_matches_the_reference_with_bigrams(a in text(), b in text()) {
        check(&[&a, &b, &a], true)?;
    }

    #[test]
    fn tokenize_keeps_its_split_trim_and_filter_rules(t in text()) {
        for config in [
            TokenizerConfig::default(),
            TokenizerConfig { lowercase: false, ..TokenizerConfig::default() },
            TokenizerConfig { drop_numeric: true, ..TokenizerConfig::default() },
            TokenizerConfig { min_len: 0, max_len: 3, ..TokenizerConfig::default() },
        ] {
            let got: Vec<String> = Tokenizer::new(config.clone()).tokenize(&t).collect();
            prop_assert_eq!(got, reference_tokens(&config, &t), "{:?}", config);
        }
    }
}

/// The length bounds count characters as written: 'İ' lower-cases to two
/// characters, so a 40-character token ending in it is kept (as 41
/// characters) and a 41-character one is dropped.
#[test]
fn length_bounds_apply_before_lower_casing() {
    let kept = format!("{}İ", "a".repeat(39));
    let dropped = format!("{}İ", "a".repeat(40));
    let toks: Vec<String> = Tokenizer::default()
        .tokenize(&format!("{kept} {dropped}"))
        .collect();
    assert_eq!(toks.len(), 1);
    assert_eq!(toks[0].chars().count(), 41);
    let mut vocab = Vocabulary::new();
    let c = Pipeline::raw().analyze(&format!("{kept} {dropped}"), &mut vocab);
    assert_eq!(c.total(), 1);
    assert_eq!(
        vocab.term(c.iter().next().unwrap().0),
        Some(toks[0].as_str())
    );
}
