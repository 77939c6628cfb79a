//! Text analysis end to end: `Pipeline::analyze` on the generated corpora
//! matches the reference analysis (one owned string per token, a `BTreeMap`
//! count), vector for vector and term id for term id; and it stays within
//! its allocation budget, a few allocations per article however long.

#[path = "../crates/textproc/tests/oracle/mod.rs"]
mod oracle;

use khy2006::obs::alloc;
use khy2006::prelude::*;
use oracle::{terms, Parts};

fn standard_corpus() -> Corpus {
    Generator::new(GeneratorConfig {
        scale: 0.25,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn dense_corpus() -> Corpus {
    Generator::dense_stream(7, 4, 100, 8)
}

/// Runs every article through `pipeline` and `parts`, each into its own
/// vocabulary, and requires identical vectors and vocabularies.
fn assert_same_analysis(corpus: &Corpus, pipeline: &Pipeline, parts: &Parts) {
    let (mut vocab, mut ref_vocab) = (Vocabulary::new(), Vocabulary::new());
    for a in corpus.articles() {
        let got = pipeline.analyze(&a.text, &mut vocab).to_sparse();
        let want = parts.to_sparse(&a.text, &mut ref_vocab);
        assert_eq!(got, want, "article {}", a.id);
    }
    assert!(
        vocab.len() > 100,
        "the corpus interned {} terms",
        vocab.len()
    );
    assert_eq!(terms(&vocab), terms(&ref_vocab));
}

#[test]
fn corpora_analyse_exactly_as_the_reference() {
    for corpus in [standard_corpus(), dense_corpus()] {
        assert_same_analysis(&corpus, &Pipeline::english(), &Parts::english(false));
        assert_same_analysis(&corpus, &Pipeline::raw(), &Parts::raw(false));
        assert_same_analysis(
            &corpus,
            &Pipeline::english().with_bigrams(true),
            &Parts::english(true),
        );
    }
}

/// ASCII text of exactly `n` tokens: generated articles, with English
/// prose (stop words, inflected words, joining punctuation) mixed in.
fn text_of(n: usize) -> String {
    let prose = "The striking workers' co-operative said U.S. markets were \
                 crashing, and the connections between rising prices hold.";
    let corpus = dense_corpus();
    let tokens: Vec<&str> = corpus
        .articles()
        .iter()
        .flat_map(|a| prose.split(' ').chain(a.text.split(' ')))
        .take(n)
        .collect();
    assert_eq!(tokens.len(), n);
    tokens.join(" ")
}

/// This thread's allocations (reallocations included) while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let (before, _) = alloc::thread_tallies();
    f();
    let (after, _) = alloc::thread_tallies();
    after - before
}

#[test]
fn analysis_allocates_per_article_not_per_token() {
    // tallies are per thread, so other tests running alongside cannot
    // disturb them; tracking is only switched on, never off
    alloc::set_tracking(true);
    let pipeline = Pipeline::english();
    for n in [10, 10_000] {
        let text = text_of(n);

        // cold: the vocabulary keeps its strings end to end in one buffer,
        // so a new term allocates nothing of its own; its three arrays (term
        // text, term ends, slot table) each double at most log2(terms) + 3
        // times
        let mut vocab = Vocabulary::new();
        let cold = allocs_during(|| drop(pipeline.analyze(&text, &mut vocab).to_sparse()));
        let new_terms = vocab.len() as u64;
        let growth = 3 * u64::from(u64::BITS - new_terms.leading_zeros() + 3);
        assert!(
            cold <= 4 + growth,
            "{n} tokens, {new_terms} new terms: {cold} allocations"
        );

        // warm: the id list, the lower-case buffer, the counts and the vector
        let warm = allocs_during(|| drop(pipeline.analyze(&text, &mut vocab).to_sparse()));
        assert!(warm <= 4, "{n} tokens, warm vocabulary: {warm} allocations");
    }
}
