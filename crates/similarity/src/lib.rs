//! The novelty-based similarity function and the cluster-representative
//! algebra of Khy, Ishikawa & Kitagawa (ICDE 2006, §3–§4.4).
//!
//! # The similarity function
//!
//! The paper defines document similarity as a co-occurrence probability
//! (eq. 7) that reduces (eq. 16) to
//!
//! ```text
//! sim(d_i, d_j) = Pr(d_i)·Pr(d_j) · (d⃗_i · d⃗_j)/(len_i · len_j)
//! ```
//!
//! with tf·idf vectors `d⃗_i = (tf_i1·idf_1, …)`, `idf_k = 1/√Pr(t_k)`
//! (eq. 14). Defining the **contribution vector**
//!
//! ```text
//! φ_i = (Pr(d_i)/len_i) · d⃗_i           (the summand of eq. 20)
//! ```
//!
//! gives `sim(d_i, d_j) = φ_i · φ_j`, and the cluster representative of
//! eq. 19–20 is simply `c⃗_p = Σ_{d∈C_p} φ_d`. Every quantity in §4.4 is a
//! dot product of φ vectors:
//!
//! * `cr_sim(C_p, C_q) = c⃗_p · c⃗_q` (eq. 21),
//! * `cr_sim(C_p, C_p) = |C_p|(|C_p|−1)·avg_sim(C_p) + ss(C_p)` (eq. 22),
//! * appending a document to a cluster changes `avg_sim` by eq. 26 — an
//!   O(|φ_d|) update instead of an O(|C_p|²) recomputation.
//!
//! [`DocVectors`] materialises the φ vectors from a repository snapshot;
//! [`RepStats`] caches `cr_sim(C_p,C_p)`, `ss(C_p)` and `|C_p|` and answers
//! the "what if d joined/left" queries the extended K-means needs from one
//! dot product; [`RepBuilder`] builds a whole [`ClusterRep`] (`c⃗_p` plus
//! its statistics) exactly in one O(Σ nnz(φ)) pass, and [`ClusterIndex`]
//! dots a document against all K representatives at once.
//!
//! ```
//! use nidc_forgetting::{DecayParams, Repository, Timestamp};
//! use nidc_similarity::{DocVectors, RepBuilder};
//! use nidc_textproc::{DocId, SparseVector, TermId};
//!
//! let mut repo = Repository::new(DecayParams::from_spans(7.0, 14.0).unwrap());
//! let tf = |p: &[(u32, f64)]| SparseVector::from_entries(
//!     p.iter().map(|&(i, w)| (TermId(i), w)).collect());
//! repo.insert(DocId(0), Timestamp(0.0), tf(&[(0, 2.0), (1, 1.0)])).unwrap();
//! repo.insert(DocId(1), Timestamp(0.0), tf(&[(0, 1.0), (2, 1.0)])).unwrap();
//!
//! let vecs = DocVectors::build(&repo);
//! let s = vecs.sim(DocId(0), DocId(1)).unwrap();
//! assert!(s > 0.0);
//!
//! let members = [vecs.phi(DocId(0)).unwrap(), vecs.phi(DocId(1)).unwrap()];
//! let rep = RepBuilder::new().exact(members);
//! // eq. 24: avg_sim from the representative equals the pairwise average.
//! assert!((rep.avg_sim() - s).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod docvec;
mod index;
mod rep;

pub use docvec::DocVectors;
pub use index::ClusterIndex;
pub use rep::{ClusterRep, RepBuilder, RepStats};

use nidc_forgetting::Repository;
use nidc_textproc::DocId;

/// Computes `sim(d_i, d_j)` directly from the definitional form (eq. 11):
///
/// ```text
/// sim ≈ Pr(d_i)Pr(d_j) / (len_i·len_j) · Σ_k f_ik·f_jk / Pr(t_k)
/// ```
///
/// This is the slow reference path used to validate the φ-vector fast path
/// ([`DocVectors::sim`]); production code should use the latter.
///
/// Returns `None` if either document is not in the repository.
pub fn sim_reference(repo: &Repository, i: DocId, j: DocId) -> Option<f64> {
    let (ei, ej) = (repo.doc(i)?, repo.doc(j)?);
    let pri = repo.pr_doc(i).ok()?;
    let prj = repo.pr_doc(j).ok()?;
    let mut acc = 0.0;
    // merge over the intersection of the two tf vectors
    let (a, b) = (ei.tf().entries(), ej.tf().entries());
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].0.cmp(&b[y].0) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                let p = repo.pr_term(a[x].0);
                if p > 0.0 {
                    acc += a[x].1 * b[y].1 / p;
                }
                x += 1;
                y += 1;
            }
        }
    }
    Some(pri * prj / (ei.len() * ej.len()) * acc)
}
