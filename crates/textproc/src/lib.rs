//! Text-processing substrate for the NIDC (novelty-based incremental document
//! clustering) reproduction.
//!
//! The paper (Khy, Ishikawa, Kitagawa; ICDE 2006) operates on term-frequency
//! vectors over a shared vocabulary (its eq. 8: `Pr(t_k|d_i) = f_ik / Σ_l f_il`).
//! This crate provides everything needed to go from raw text to those vectors:
//!
//! * [`Tokenizer`] — configurable word tokenizer (lower-casing, length and
//!   digit filters),
//! * [`stopwords`] — a standard English stop-word list and a user-extensible
//!   [`stopwords::StopWords`] filter,
//! * [`PorterStemmer`] — a full implementation of the Porter (1980) stemming
//!   algorithm,
//! * [`Vocabulary`] — bidirectional term interning (`&str` ↔ [`TermId`]),
//! * [`SparseVector`] — sorted sparse `(TermId, f64)` vectors with merge-based
//!   arithmetic (the representation used for documents and cluster
//!   representatives throughout the workspace),
//! * [`TermCounts`] — integer bags of words, the `f_ik` of the paper,
//! * [`Pipeline`] — the composition tokenise → stop-filter → stem → count.
//!
//! # Example
//!
//! ```
//! use nidc_textproc::{Pipeline, Vocabulary};
//!
//! let mut vocab = Vocabulary::new();
//! let pipeline = Pipeline::english();
//! let counts = pipeline.analyze("The strikers struck: a striking strike!", &mut vocab);
//! // "the", "a" are stop words; the rest survive as stemmed terms.
//! assert!(counts.total() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod docid;
mod hash;
mod pipeline;
mod sparse;
mod stemmer;
pub mod stopwords;
mod tokenizer;
mod vocab;

pub use counts::TermCounts;
pub use docid::DocId;
pub use pipeline::Pipeline;
pub use sparse::SparseVector;
pub use stemmer::PorterStemmer;
pub use tokenizer::{Tokenizer, TokenizerConfig};
pub use vocab::{TermId, Vocabulary};
