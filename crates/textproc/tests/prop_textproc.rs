//! Property tests for the text-processing substrate: the tokenizer, stemmer
//! and sparse-vector algebra must be total (no panics) and preserve their
//! invariants on arbitrary input.

use nidc_textproc::{Pipeline, PorterStemmer, SparseVector, TermId, Tokenizer, Vocabulary};
use proptest::prelude::*;

/// A weight that is usually one of a few signed values (so sums cancel to
/// exact zeros) and otherwise any value in (−2, 2).
fn weight_strategy() -> impl Strategy<Value = f64> {
    const STEPS: [f64; 7] = [-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0];
    (0u32..4, 0..STEPS.len(), -2.0f64..2.0).prop_map(
        |(kind, step, w)| {
            if kind < 3 {
                STEPS[step]
            } else {
                w
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tokenizer never panics and only emits tokens within its length
    /// bounds, free of separator characters.
    #[test]
    fn tokenizer_is_total_and_bounded(text in ".{0,400}") {
        let t = Tokenizer::default();
        for tok in t.tokenize(&text) {
            let n = tok.chars().count();
            prop_assert!((2..=40).contains(&n), "token length {n}: {tok:?}");
            prop_assert!(!tok.contains(' '));
            prop_assert!(!tok.contains('\n'));
        }
    }

    /// The stemmer never panics, never returns an empty string for
    /// non-empty input, and never grows a word by more than one character
    /// (the only growth rule appends 'e').
    #[test]
    fn stemmer_is_total(word in "[a-z]{1,30}") {
        let s = PorterStemmer::new().stem(&word);
        prop_assert!(!s.is_empty());
        prop_assert!(s.len() <= word.len() + 1, "{word} -> {s}");
        prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
    }

    /// Mixed-case and non-alphabetic words pass through unchanged.
    #[test]
    fn stemmer_passes_through_non_lowercase(word in "[A-Za-z0-9]{1,20}") {
        prop_assume!(!word.bytes().all(|b| b.is_ascii_lowercase()));
        prop_assert_eq!(PorterStemmer::new().stem(&word), word);
    }

    /// The analysis pipeline is deterministic and vocabulary interning is
    /// consistent across repeated runs.
    #[test]
    fn pipeline_is_deterministic(text in "[a-z ]{0,200}") {
        let p = Pipeline::english();
        let mut v1 = Vocabulary::new();
        let mut v2 = Vocabulary::new();
        let c1 = p.analyze(&text, &mut v1);
        let c2 = p.analyze(&text, &mut v2);
        prop_assert_eq!(c1.total(), c2.total());
        prop_assert_eq!(c1.distinct(), c2.distinct());
        prop_assert_eq!(v1.len(), v2.len());
    }

    /// Sparse-vector dot products are symmetric, bilinear in scaling, and
    /// bounded by Cauchy–Schwarz.
    #[test]
    fn sparse_algebra_invariants(
        a in prop::collection::vec((0u32..50, -5.0f64..5.0), 0..20),
        b in prop::collection::vec((0u32..50, -5.0f64..5.0), 0..20),
        scale in -3.0f64..3.0,
    ) {
        let va = SparseVector::from_entries(a.into_iter().map(|(t, w)| (TermId(t), w)).collect());
        let vb = SparseVector::from_entries(b.into_iter().map(|(t, w)| (TermId(t), w)).collect());
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
        prop_assert!((va.scaled(scale).dot(&vb) - scale * va.dot(&vb)).abs() < 1e-9);
        // Cauchy–Schwarz
        prop_assert!(va.dot(&vb).abs() <= va.norm() * vb.norm() + 1e-9);
        // add_scaled distributes over dot
        let sum = va.add_scaled(&vb, scale);
        let direct = va.dot(&va) + scale * vb.dot(&va);
        prop_assert!((sum.dot(&va) - direct).abs() < 1e-9);
    }

    /// from_entries normalises any input into the canonical form: sorted,
    /// deduplicated, no zeros.
    #[test]
    fn sparse_canonical_form(
        entries in prop::collection::vec((0u32..30, -2.0f64..2.0), 0..40),
    ) {
        let v = SparseVector::from_entries(
            entries.into_iter().map(|(t, w)| (TermId(t), w)).collect());
        let e = v.entries();
        prop_assert!(e.windows(2).all(|w| w[0].0 < w[1].0), "not sorted/unique");
        prop_assert!(e.iter().all(|&(_, w)| w != 0.0), "stored zero");
    }

    /// `fold_in` equals `dot` followed by `axpy_in_place(…, 1.0)` bit for
    /// bit — the returned dot, every stored entry, and the zeros both
    /// prune — along a chain of folds into one survivor. Weights are drawn
    /// mostly from a few signed values, so shared terms cancel to exact
    /// zeros often.
    #[test]
    fn fold_in_is_dot_then_axpy_bit_for_bit(
        chain in prop::collection::vec(
            prop::collection::vec((0u32..12, weight_strategy()), 0..10),
            1..7,
        ),
    ) {
        let vecs: Vec<SparseVector> = chain
            .into_iter()
            .map(|e| SparseVector::from_entries(e.into_iter().map(|(t, w)| (TermId(t), w)).collect()))
            .collect();
        let bits = |v: &SparseVector| -> Vec<(TermId, u64)> {
            v.iter().map(|(t, w)| (t, w.to_bits())).collect()
        };
        let mut fused = vecs[0].clone();
        let mut reference = vecs[0].clone();
        for other in &vecs[1..] {
            let expected_dot = reference.dot(other);
            reference.axpy_in_place(other, 1.0);
            let dot = fused.fold_in(other);
            prop_assert_eq!(dot.to_bits(), expected_dot.to_bits());
            prop_assert_eq!(bits(&fused), bits(&reference));
            prop_assert!(fused.iter().all(|(_, w)| w != 0.0), "stored zero");
        }
    }

    /// Normalising any non-zero vector yields unit norm.
    #[test]
    fn normalization(entries in prop::collection::vec((0u32..30, 0.1f64..2.0), 1..20)) {
        let v = SparseVector::from_entries(
            entries.into_iter().map(|(t, w)| (TermId(t), w)).collect());
        let n = v.normalized().expect("non-zero");
        prop_assert!((n.norm() - 1.0).abs() < 1e-9);
    }
}
