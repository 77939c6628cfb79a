//! The extended K-means repetition process (paper §4.3).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nidc_obs::{buckets, LazyCounter, LazyHistogram};
use nidc_similarity::{ClusterIndex, ClusterRep, DocVectors, RepBuilder, RepStats, TermRank};
use nidc_textproc::{DocId, TermId};

use crate::{Cluster, Clustering, ClusteringConfig, Error, Result};

/// Extended K-means runs (one per `cluster_with_initial` call on non-empty
/// input).
static RUNS: LazyCounter = LazyCounter::new("nidc_kmeans_runs_total");
/// Runs warm-started from a previous assignment (§5.2 incremental mode).
static WARM_STARTS: LazyCounter = LazyCounter::new("nidc_kmeans_warm_starts_total");
/// Runs seeded randomly (the paper's initial process, §4.3).
static COLD_STARTS: LazyCounter = LazyCounter::new("nidc_kmeans_cold_starts_total");
/// Repetitions until convergence, one observation per run.
static ITERATIONS_HIST: LazyHistogram =
    LazyHistogram::new("nidc_kmeans_iterations", buckets::ITERATIONS);
/// Clustering index G after each repetition — the per-iteration convergence
/// trace.
static OBJECTIVE_G: LazyHistogram =
    LazyHistogram::new("nidc_kmeans_objective_g", buckets::OBJECTIVE_G);
/// Documents reassigned to a different cluster (step 1(b) moves).
static MOVED_DOCS: LazyCounter = LazyCounter::new("nidc_kmeans_moved_docs_total");
/// Documents demoted to the outlier list during an iteration.
static OUTLIER_DOCS: LazyCounter = LazyCounter::new("nidc_kmeans_outlier_docs_total");
/// `(document, cluster)` candidate pairs scored by the step-1 sweep — the
/// per-cluster `K·rows` work bound. Compare against
/// `nidc_index_postings_touched_total` for the inverted-index saving.
static STEP1_CANDIDATES: LazyCounter = LazyCounter::new("nidc_kmeans_step1_candidates_total");
/// Wall time of one step-1 assignment sweep, per repetition. Fine buckets: a
/// converged warm-start sweep over a small window sits well under a
/// millisecond.
static STEP1_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_kmeans_step1_seconds", buckets::FINE_SECONDS);
/// Wall time of one full repetition (sweep + representative rebuild +
/// convergence test).
static ITERATION_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_kmeans_iteration_seconds", buckets::FINE_SECONDS);

/// How the repetition process is initialised.
#[derive(Debug, Clone)]
pub enum InitialState {
    /// Select K documents at random as singleton clusters (the paper's
    /// initial process, §4.3).
    Random,
    /// Start from a previous assignment `DocId → cluster index < K`
    /// (the incremental warm start, §5.2 step 3). Documents absent from the
    /// map start unassigned; empty cluster slots are reseeded with the
    /// newest unassigned documents.
    Assignment(BTreeMap<DocId, usize>),
}

/// Runs the full extended K-means with random initialisation (the
/// *non-incremental* mode of the paper's experiments).
pub fn cluster_batch(vecs: &DocVectors, config: &ClusteringConfig) -> Result<Clustering> {
    cluster_with_initial(vecs, config, InitialState::Random)
}

/// The step-1 assignment score of one `(document, cluster)` pair, given the
/// already-computed dot product `c⃗ · φ_d`: the change of the cluster's
/// criterion value if `d` joined (`is_current = false`), or `d`'s present
/// contribution — `score(C) − score(C \ {d})` (`is_current = true`).
fn assignment_delta_from_dot(
    criterion: crate::Criterion,
    stats: &RepStats,
    dot: f64,
    norm_sq: f64,
    is_current: bool,
) -> f64 {
    if is_current {
        match criterion {
            crate::Criterion::AvgSim => {
                stats.avg_sim() - stats.avg_sim_if_removed_from_dot(dot, norm_sq)
            }
            crate::Criterion::GTerm => {
                stats.g_term()
                    - (stats.size().saturating_sub(1)) as f64
                        * stats.avg_sim_if_removed_from_dot(dot, norm_sq)
            }
        }
    } else {
        match criterion {
            crate::Criterion::AvgSim => stats.avg_sim_if_added_from_dot(dot) - stats.avg_sim(),
            crate::Criterion::GTerm => stats.g_term_if_added_from_dot(dot) - stats.g_term(),
        }
    }
}

/// Refills `members` with each cluster's window slots in ascending order
/// — ascending `DocId` order, as slots follow the ids.
fn fill_members(assign: &[Option<usize>], members: &mut [Vec<usize>]) {
    for m in members.iter_mut() {
        m.clear();
    }
    for (s, p) in assign.iter().enumerate() {
        if let Some(p) = *p {
            members[p].push(s);
        }
    }
}

/// Runs the extended K-means from an explicit [`InitialState`], on a
/// workspace of its own. A caller that runs K-means window after window
/// (a [`crate::NoveltyPipeline`] does) lends one [`KMeansWorkspace`] to
/// every run through [`cluster_with_workspace`] instead; the result is
/// bit-identical.
pub fn cluster_with_initial(
    vecs: &DocVectors,
    config: &ClusteringConfig,
    initial: InitialState,
) -> Result<Clustering> {
    cluster_with_workspace(&mut KMeansWorkspace::new(), vecs, config, initial)
}

/// The scratch of extended K-means runs, reused from one run to the next:
/// the ranking of the window's terms ([`TermRank`]), the sparse
/// accumulator that builds every representative ([`RepBuilder`]), the
/// term→cluster index that is each cluster's live vector during step 1
/// ([`ClusterIndex`]) and the K-wide score row.
///
/// A run starts by ranking the window's φ terms and copying every φ into
/// one run-local buffer over their ranks `0..n`; the whole run then works
/// on those ids, so the builder's arrays and the index's rows are n long,
/// and the representatives leave the run mapped back to global term ids.
/// The rank is strictly increasing, so every ascending-term walk visits the
/// same entries in the same order and every sum keeps its bits. Within a
/// run the index is rebuilt once, at the start; after an iteration that
/// moved a document only the columns of the clusters a document joined or
/// left are refreshed ([`ClusterIndex::refresh`]).
///
/// A run leaves nothing behind that the next one reads: the ranking is
/// refilled, the builder resets every slot it touches and the rebuild at
/// the start of a run rewrites every row, so a run on a reused workspace
/// is bit-identical to one on a fresh workspace, and costs O(window +
/// vocabulary / 64) instead of first-touching arrays over the whole term
/// space. Only the ranking is indexed by global term id, at ≈ 1.5 bits per
/// id ([`DeepSize`](nidc_obs::DeepSize) reports the workspace in O(1)). It
/// is never persisted: a clone starts empty, as does a restored pipeline.
#[derive(Debug, Default)]
pub struct KMeansWorkspace {
    /// The window's φ terms; a term's rank is its run-local id.
    terms: TermRank,
    /// Run-local id → global term id.
    globals: Vec<TermId>,
    builder: RepBuilder,
    index: ClusterIndex,
    dots: Vec<f64>,
}

impl KMeansWorkspace {
    /// An empty workspace; its arrays grow to the largest window and K
    /// they meet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clone for KMeansWorkspace {
    /// An empty workspace: scratch is never copied.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl nidc_obs::DeepSize for KMeansWorkspace {
    fn deep_size_bytes(&self) -> u64 {
        let globals = self.globals.capacity() * std::mem::size_of::<TermId>();
        let dots = self.dots.capacity() * std::mem::size_of::<f64>();
        self.terms.deep_size_bytes()
            + self.builder.deep_size_bytes()
            + self.index.deep_size_bytes()
            + (globals + dots) as u64
    }
}

/// Runs the extended K-means from an explicit [`InitialState`] on a
/// workspace lent by the caller — what [`cluster_with_initial`] does on a
/// fresh one.
pub fn cluster_with_workspace(
    workspace: &mut KMeansWorkspace,
    vecs: &DocVectors,
    config: &ClusteringConfig,
    initial: InitialState,
) -> Result<Clustering> {
    if config.k == 0 {
        return Err(Error::ZeroClusters);
    }
    // Slot `s` is the `s`-th document id in ascending order.
    let ids = vecs.ids();
    if ids.is_empty() {
        return Ok(Clustering::new(Vec::new(), Vec::new(), 0.0, 0));
    }
    let k = config.k.min(ids.len());
    RUNS.inc();
    let _run_span = nidc_obs::span!("kmeans.run");

    // --- Window slots ----------------------------------------------------
    // The sweep reads φ, ‖φ‖² (the `self_sim` that `DocVectors` computed
    // with the same `norm_sq`) and the assignment by slot, with no tree
    // lookup.
    let norms: Vec<f64> = ids
        .iter()
        .map(|&d| vecs.self_sim(d).expect("id comes from vecs"))
        .collect();
    let mut assign: Vec<Option<usize>> = vec![None; ids.len()];

    // --- Initial process -------------------------------------------------
    match initial {
        InitialState::Random => {
            COLD_STARTS.inc();
            WARM_STARTS.add(0); // register the sibling so snapshots list both
            let mut rng = StdRng::seed_from_u64(config.seed);
            // the shuffle's swaps depend on the length only, so shuffling
            // slots picks the seeds shuffling the ids would
            let mut pool: Vec<usize> = (0..ids.len()).collect();
            pool.shuffle(&mut rng);
            for (p, &seed_slot) in pool.iter().take(k).enumerate() {
                assign[seed_slot] = Some(p);
            }
        }
        InitialState::Assignment(prev) => {
            WARM_STARTS.inc();
            COLD_STARTS.add(0);
            // both sides ascend by id: one merge pass maps each live
            // document of the previous assignment to its slot
            let mut slots = ids.iter().enumerate().peekable();
            for (&d, &p) in &prev {
                if p >= k {
                    return Err(Error::InvalidInitialAssignment { cluster: p, k });
                }
                while slots.next_if(|&(_, &id)| id < d).is_some() {}
                if let Some((s, _)) = slots.next_if(|&(_, &id)| id == d) {
                    assign[s] = Some(p);
                }
            }
            // reseed empty slots with the newest unassigned documents (new
            // documents are the likeliest nuclei of new topics)
            let mut used = vec![false; k];
            for &p in assign.iter().flatten() {
                used[p] = true;
            }
            let fresh: Vec<usize> = (0..ids.len())
                .rev()
                .filter(|&s| assign[s].is_none())
                .collect();
            let mut fresh = fresh.into_iter();
            for (p, _) in used.iter().enumerate().filter(|(_, &u)| !u) {
                if let Some(s) = fresh.next() {
                    assign[s] = Some(p);
                }
            }
        }
    }
    // --- Run-local term ids ----------------------------------------------
    // The window's φ terms ranked `0..n`, and every φ copied over its ranks
    // into one buffer, freed with the run: from here on the run never sees
    // a global term id.
    let KMeansWorkspace {
        terms,
        globals,
        builder,
        index,
        dots,
    } = workspace;
    terms.clear();
    let mut nnz = 0;
    for (_, phi) in vecs.iter() {
        nnz += phi.nnz();
        for &(t, _) in phi.entries() {
            terms.insert(t);
        }
    }
    let n = terms.seal();
    globals.clear();
    globals.reserve_exact(n);
    globals.extend(terms.iter());
    let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(nnz);
    let mut starts = Vec::with_capacity(ids.len() + 1);
    starts.push(0);
    for (_, phi) in vecs.iter() {
        entries.extend(phi.iter().map(|(t, w)| {
            let local = terms.rank(t).expect("every φ term is ranked");
            (TermId(local as u32), w)
        }));
        starts.push(entries.len());
    }
    let phis: Vec<&[(TermId, f64)]> = starts.windows(2).map(|w| &entries[w[0]..w[1]]).collect();

    // One sparse accumulator builds every representative of the run, each
    // exactly from its member list: the initial ones here, and the ones a
    // document joined or left at the end of each iteration.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    fill_members(&assign, &mut members);
    let mut reps: Vec<ClusterRep> = members
        .iter()
        .map(|m| builder.exact_with_norms(m.iter().map(|&s| (phis[s], norms[s]))))
        .collect();

    // Step 1 reads and moves only the clusters' statistics and their live
    // vectors in the term→cluster index; `reps` stays as built until the
    // end of the iteration.
    let mut stats: Vec<RepStats> = reps.iter().map(ClusterRep::stats).collect();
    index.rebuild(&reps, n);
    // Clusters a document joined or left since their last build, and the
    // representatives the end of an iteration replaced, for the index
    // refresh.
    let mut dirty = vec![false; k];
    let mut stale: Vec<(usize, ClusterRep)> = Vec::new();

    let mut g_old: f64 = reps.iter().map(ClusterRep::g_term).sum();

    // --- Repetition process ----------------------------------------------
    let mut outliers: Vec<DocId> = Vec::new();
    let mut iterations = 0usize;
    if dots.len() < k {
        dots.resize(k, 0.0);
    }
    loop {
        iterations += 1;
        let _iter_span = nidc_obs::span!("kmeans.iteration", ITERATION_SECONDS);
        outliers.clear();
        // Per-iteration tallies, published once at the bottom of the loop so
        // the sweep itself never touches an atomic.
        let mut moved = 0u64;
        let mut demoted = 0u64;
        // Step 1 is sequential by definition (§4.4): each document is scored
        // against the clusters every earlier move of this sweep has already
        // updated, so there is nothing to fan out.
        let step1_span = nidc_obs::span!("kmeans.step1", STEP1_SECONDS);
        for (s, (&phi, &norm_sq)) in phis.iter().zip(&norms).enumerate() {
            let current = assign[s];
            if let Some(p) = current {
                if config.keep_last_member && stats[p].size() == 1 {
                    continue; // keep the cluster alive; d stays its nucleus
                }
            }
            // step 1(a): preview every cluster's intra-cluster similarity
            // with d appended (eq. 26 / its G-term variant). One `dot_all`
            // pass over φ's terms gives all K dot products at once, in
            // 8-wide blocks of each term's row, and they stay in
            // `dots` for the move below. Conceptually d is first removed
            // from its current cluster (§4.4 speaks of documents being
            // removed and appended during this step); for the current
            // cluster the "remove then re-append" preview equals d's present
            // contribution, so nothing changes unless d actually moves —
            // this keeps converged iterations cheap, which is what makes
            // warm restarts (§5.2) fast.
            STEP1_CANDIDATES.add(k as u64);
            index.dot_all(phi, dots);
            let mut best: Option<(usize, f64)> = None;
            for (q, (s, &dot)) in stats.iter().zip(dots.iter()).enumerate() {
                let delta = assignment_delta_from_dot(
                    config.criterion,
                    s,
                    dot,
                    norm_sq,
                    current == Some(q),
                );
                if best.is_none_or(|(_, bd)| delta > bd) {
                    best = Some((q, delta));
                }
            }
            // step 1(b): largest strictly-positive increase wins, else
            // outlier. A move updates the stats from the dots d was scored
            // on and folds φ into the live index.
            match best {
                Some((q, delta)) if delta > 0.0 => {
                    if current != Some(q) {
                        if let Some(p) = current {
                            stats[p].leave(dots[p], norm_sq);
                            index.remove(p, phi);
                            dirty[p] = true;
                        }
                        stats[q].join(dots[q], norm_sq);
                        index.add(q, phi);
                        dirty[q] = true;
                        assign[s] = Some(q);
                        moved += 1;
                    }
                }
                _ => {
                    if let Some(p) = current {
                        stats[p].leave(dots[p], norm_sq);
                        index.remove(p, phi);
                        dirty[p] = true;
                        assign[s] = None;
                        demoted += 1;
                    }
                    outliers.push(ids[s]);
                }
            }
        }
        drop(step1_span);

        // steps 2–3: rebuild exactly the representatives whose member list
        // changed, then refresh their columns of the index, shedding the
        // drift the moves folded into stats and cells; then recompute G. An
        // exact representative is a pure function of its member list, so
        // skipping an unchanged list is bit-identical, and so is keeping
        // its stats and its column, which no move touched.
        fill_members(&assign, &mut members);
        for (p, rep) in reps.iter_mut().enumerate() {
            if std::mem::take(&mut dirty[p]) {
                let member_phis = members[p].iter().map(|&s| (phis[s], norms[s]));
                let exact = builder.exact_with_norms(member_phis);
                let old = std::mem::replace(rep, exact);
                // the moves kept the stats within fp drift of the rebuild
                debug_assert_eq!(stats[p].size(), rep.size());
                debug_assert!(
                    (stats[p].cr_self() - rep.cr_self()).abs() <= 1e-9 * (rep.cr_self() + rep.ss()),
                    "cluster {p}: swept cr_self {} vs exact {}",
                    stats[p].cr_self(),
                    rep.cr_self()
                );
                stats[p] = rep.stats();
                stale.push((p, old));
            }
        }
        if !stale.is_empty() {
            index.refresh(&reps, stale.iter().map(|(p, old)| (*p, old)));
            stale.clear();
        }
        let g_new: f64 = reps.iter().map(ClusterRep::g_term).sum();

        // Publish the per-iteration tallies (moved=0 on converged iterations
        // still registers the counter) and trace convergence.
        MOVED_DOCS.add(moved);
        OUTLIER_DOCS.add(demoted);
        OBJECTIVE_G.observe(g_new);
        if nidc_obs::log_on(nidc_obs::Level::Debug) {
            nidc_obs::debug(
                "kmeans",
                "iteration",
                &[
                    ("iter", &iterations),
                    ("moved", &moved),
                    ("outliers", &outliers.len()),
                    ("g", &g_new),
                ],
            );
        }

        // step 4: convergence test (G_new − G_old)/G_old < δ
        let converged = if g_old > 0.0 {
            (g_new - g_old) / g_old < config.delta
        } else {
            g_new <= 0.0
        };
        g_old = g_new;
        if converged || iterations >= config.max_iters {
            ITERATIONS_HIST.observe(iterations as f64);
            let clusters = members
                .iter()
                .zip(reps)
                .map(|(m, mut rep)| {
                    rep.relabel(|t| globals[t.index()]);
                    Cluster::new(m.iter().map(|&s| ids[s]).collect(), rep)
                })
                .collect();
            return Ok(Clustering::new(clusters, outliers, g_new, iterations));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nidc_forgetting::{DecayParams, Repository, Timestamp};
    use nidc_textproc::{SparseVector, TermId};
    use proptest::prelude::*;

    fn tf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    /// Builds vectors for two clean topic groups plus (optionally) one
    /// unrelated document.
    fn two_topic_vectors(with_stray: bool) -> DocVectors {
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
        // topic A: terms 0..3, docs 0..5
        for i in 0..5u64 {
            repo.insert(
                DocId(i),
                Timestamp(0.0),
                tf(&[(0, 3.0), (1, 2.0), (2 + (i % 2) as u32, 1.0)]),
            )
            .unwrap();
        }
        // topic B: terms 10..13, docs 5..10
        for i in 5..10u64 {
            repo.insert(
                DocId(i),
                Timestamp(0.1),
                tf(&[(10, 3.0), (11, 2.0), (12 + (i % 2) as u32, 1.0)]),
            )
            .unwrap();
        }
        if with_stray {
            repo.insert(DocId(99), Timestamp(0.2), tf(&[(30, 1.0)]))
                .unwrap();
        }
        DocVectors::build(&repo)
    }

    #[test]
    fn separates_two_topics() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 2,
            seed: 3,
            ..ClusteringConfig::default()
        };
        let clustering = cluster_batch(&vecs, &config).unwrap();
        assert_eq!(clustering.non_empty_clusters(), 2);
        for c in clustering.clusters() {
            if c.is_empty() {
                continue;
            }
            let group_a = c.members().iter().filter(|d| d.0 < 5).count();
            assert!(
                group_a == 0 || group_a == c.len(),
                "mixed cluster {:?}",
                c.members()
            );
        }
        assert!(clustering.g() > 0.0);
    }

    #[test]
    fn stray_document_becomes_outlier() {
        let vecs = two_topic_vectors(true);
        let config = ClusteringConfig {
            k: 2,
            seed: 3,
            ..ClusteringConfig::default()
        };
        let clustering = cluster_batch(&vecs, &config).unwrap();
        // The stray shares no term with either topic: adding it to any
        // cluster cannot increase avg_sim, unless it seeded a cluster itself.
        let is_outlier = clustering.outliers().contains(&DocId(99));
        let seeded_own = clustering
            .clusters()
            .iter()
            .any(|c| c.members() == [DocId(99)]);
        assert!(
            is_outlier || seeded_own,
            "stray doc neither outlier nor own cluster: outliers={:?}",
            clustering.outliers()
        );
    }

    #[test]
    fn zero_k_is_rejected() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 0,
            ..ClusteringConfig::default()
        };
        assert!(matches!(
            cluster_batch(&vecs, &config),
            Err(Error::ZeroClusters)
        ));
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let repo = Repository::new(DecayParams::from_spans(7.0, 14.0).unwrap());
        let vecs = DocVectors::build(&repo);
        let clustering = cluster_batch(&vecs, &ClusteringConfig::default()).unwrap();
        assert_eq!(clustering.clusters().len(), 0);
        assert_eq!(clustering.iterations(), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let vecs = two_topic_vectors(true);
        let config = ClusteringConfig {
            k: 3,
            seed: 11,
            ..ClusteringConfig::default()
        };
        let a = cluster_batch(&vecs, &config).unwrap();
        let b = cluster_batch(&vecs, &config).unwrap();
        assert_eq!(a.member_lists(), b.member_lists());
        assert_eq!(a.g(), b.g());
        assert_eq!(a.iterations(), b.iterations());
    }

    #[test]
    fn warm_start_converges_fast_and_respects_assignment() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 2,
            seed: 5,
            ..ClusteringConfig::default()
        };
        let cold = cluster_batch(&vecs, &config).unwrap();
        let warm =
            cluster_with_initial(&vecs, &config, InitialState::Assignment(cold.assignment()))
                .unwrap();
        assert!(
            warm.iterations() <= cold.iterations(),
            "warm start took more iterations ({} > {})",
            warm.iterations(),
            cold.iterations()
        );
        assert_eq!(warm.member_lists(), cold.member_lists());
    }

    #[test]
    fn warm_start_rejects_out_of_range_cluster() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 2,
            ..ClusteringConfig::default()
        };
        let mut bad = BTreeMap::new();
        bad.insert(DocId(0), 7usize);
        let err = cluster_with_initial(&vecs, &config, InitialState::Assignment(bad));
        assert!(matches!(
            err,
            Err(Error::InvalidInitialAssignment { cluster: 7, k: 2 })
        ));
    }

    #[test]
    fn warm_start_ignores_dead_documents_and_reseeds_empty_slots() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 2,
            ..ClusteringConfig::default()
        };
        // previous assignment references only documents that no longer exist
        let mut prev = BTreeMap::new();
        prev.insert(DocId(500), 0usize);
        prev.insert(DocId(501), 1usize);
        let clustering =
            cluster_with_initial(&vecs, &config, InitialState::Assignment(prev)).unwrap();
        // both slots must have been reseeded and clustering still works
        assert_eq!(clustering.non_empty_clusters(), 2);
        assert_eq!(clustering.assigned_docs() + clustering.outliers().len(), 10);
    }

    #[test]
    fn all_documents_accounted_for() {
        let vecs = two_topic_vectors(true);
        let config = ClusteringConfig {
            k: 3,
            seed: 2,
            ..ClusteringConfig::default()
        };
        let clustering = cluster_batch(&vecs, &config).unwrap();
        assert_eq!(clustering.assigned_docs() + clustering.outliers().len(), 11);
        // no document appears twice
        let mut seen = std::collections::HashSet::new();
        for c in clustering.clusters() {
            for d in c.members() {
                assert!(seen.insert(*d), "{d} assigned twice");
            }
        }
        for d in clustering.outliers() {
            assert!(seen.insert(*d), "{d} both assigned and outlier");
        }
    }

    #[test]
    fn g_is_nonnegative_and_matches_definition() {
        let vecs = two_topic_vectors(false);
        let config = ClusteringConfig {
            k: 2,
            ..ClusteringConfig::default()
        };
        let clustering = cluster_batch(&vecs, &config).unwrap();
        let g_direct: f64 = clustering
            .clusters()
            .iter()
            .map(|c| c.len() as f64 * c.avg_sim())
            .sum();
        assert!(clustering.g() >= 0.0);
        assert!((clustering.g() - g_direct).abs() < 1e-12);
    }

    /// An emptied cluster's index slot may keep floating-point residue until
    /// the next refresh; it is never scored, because an empty cluster's
    /// join delta is exactly `0.0` under both criteria whatever the dot,
    /// and a document moves only on a delta strictly above `0.0`.
    #[test]
    fn empty_cluster_join_delta_is_exactly_zero() {
        let d = tf(&[(0, 0.3), (2, 0.7)]);
        let single = RepBuilder::new().exact([&d]);
        let mut emptied = single.stats();
        emptied.leave(single.dot_doc(&d), d.norm_sq());
        for stats in [RepStats::default(), emptied] {
            assert_eq!(stats.size(), 0);
            for dot in [
                0.0,
                -0.0,
                1e-17,
                -1e-17,
                f64::MIN_POSITIVE,
                0.5,
                -3.0,
                1e300,
            ] {
                for criterion in [crate::Criterion::GTerm, crate::Criterion::AvgSim] {
                    let delta = assignment_delta_from_dot(criterion, &stats, dot, 0.25, false);
                    assert_eq!(delta.to_bits(), 0.0f64.to_bits(), "{criterion:?} dot={dot}");
                }
            }
        }
    }

    /// Two-topic collections: each document carries its topic's three core
    /// terms plus random noise terms, so clusters share terms and documents
    /// move between them.
    fn topic_docs() -> impl Strategy<Value = DocVectors> {
        proptest::collection::vec(
            (
                proptest::collection::vec(1.0f64..4.0, 3..4),
                proptest::collection::vec((20u32..40, 1.0f64..3.0), 0..5),
            ),
            8..30,
        )
        .prop_map(|docs| {
            let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
            for (i, (core, noise)) in docs.into_iter().enumerate() {
                let topic = (i % 2) as u32 * 10;
                let mut pairs: Vec<(TermId, f64)> = (0..3)
                    .map(|j| (TermId(topic + j), core[j as usize]))
                    .collect();
                pairs.extend(noise.into_iter().map(|(t, w)| (TermId(t), w)));
                pairs.sort_by_key(|&(t, _)| t);
                pairs.dedup_by_key(|&mut (t, _)| t);
                let t = Timestamp(0.2 * i as f64);
                repo.insert(DocId(i as u64), t, SparseVector::from_entries(pairs))
                    .unwrap();
            }
            DocVectors::build(&repo)
        })
    }

    /// Windows of 8–30 documents over the terms `0..40`, shaped like
    /// [`topic_docs`], as raw `(term, tf)` lists.
    fn window_terms() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
        proptest::collection::vec(
            (
                proptest::collection::vec(1.0f64..4.0, 3..4),
                proptest::collection::vec((20u32..40, 1.0f64..3.0), 0..5),
            ),
            8..30,
        )
        .prop_map(|docs| {
            docs.into_iter()
                .enumerate()
                .map(|(i, (core, noise))| {
                    let topic = (i % 2) as u32 * 10;
                    let mut pairs: Vec<(u32, f64)> =
                        (0..3).map(|j| (topic + j, core[j as usize])).collect();
                    pairs.extend(noise);
                    pairs
                })
                .collect()
        })
    }

    /// The φ vectors of `docs` with every term renamed through `map`; ten
    /// documents a day, so the window decays.
    fn relabelled_vectors(docs: &[Vec<(u32, f64)>], map: &[u32]) -> DocVectors {
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
        for (i, d) in docs.iter().enumerate() {
            let pairs = d
                .iter()
                .map(|&(t, w)| (TermId(map[t as usize]), w))
                .collect();
            let day = Timestamp((i / 10) as f64);
            repo.insert(DocId(i as u64), day, SparseVector::from_entries(pairs))
                .unwrap();
        }
        DocVectors::build(&repo)
    }

    /// A representative's size, `cr_self` and `ss` bits and its entries,
    /// each term renamed through `map`.
    fn rep_bits(
        rep: &ClusterRep,
        map: impl Fn(TermId) -> TermId,
    ) -> (usize, u64, u64, Vec<(TermId, u64)>) {
        let mut entries = Vec::new();
        rep.for_each_entry(|t, w| entries.push((map(t), w.to_bits())));
        (
            rep.size(),
            rep.cr_self().to_bits(),
            rep.ss().to_bits(),
            entries,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A run works on the ranks of the window's terms, so it cannot see
        /// how the terms are numbered, only their order: spreading the term
        /// ids through a random strictly increasing map into `[0, 2²⁰)`
        /// leaves the assignment, the outliers, the iteration count and the
        /// bits of G as they were, and every representative equals the
        /// original one with its terms mapped, bit for bit — cold and warm,
        /// under both criteria, on fresh and on reused workspaces. Each
        /// original representative also equals an exact build over its
        /// members' φ, which no ranking touches.
        #[test]
        fn a_strictly_increasing_relabelling_changes_nothing(
            docs in window_terms(),
            // 40 gaps below 2²⁰ / 40: their running sums ascend strictly
            // and stay below 2²⁰
            gaps in proptest::collection::vec(1u32..(1 << 20) / 40, 40..41),
            k in 2usize..6,
            seed in 0u64..100,
        ) {
            let map: Vec<u32> = gaps
                .iter()
                .scan(0, |at, &gap| {
                    *at += gap;
                    Some(*at - 1)
                })
                .collect();
            let identity: Vec<u32> = (0..40).collect();
            let (plain, spread) = (
                relabelled_vectors(&docs, &identity),
                relabelled_vectors(&docs, &map),
            );
            let to_spread = |t: TermId| TermId(map[t.index()]);
            for (id, phi) in plain.iter() {
                let mut renamed = phi.clone();
                renamed.relabel(to_spread);
                prop_assert_eq!(Some(&renamed), spread.phi(id), "φ of {}", id);
            }
            let mut builder = RepBuilder::new();
            let mut reused = KMeansWorkspace::new();
            for criterion in [crate::Criterion::GTerm, crate::Criterion::AvgSim] {
                let config = ClusteringConfig { k, seed, criterion, ..ClusteringConfig::default() };
                let cold = cluster_batch(&plain, &config).unwrap();
                // a warm start with work left: every third document moves on
                let perturbed: BTreeMap<DocId, usize> = cold
                    .assignment()
                    .into_iter()
                    .map(|(d, p)| (d, if d.0 % 3 == 0 { (p + 1) % k } else { p }))
                    .collect();
                for initial in [InitialState::Random, InitialState::Assignment(perturbed)] {
                    let want = cluster_with_initial(&plain, &config, initial.clone()).unwrap();
                    for c in want.clusters() {
                        let exact = builder.exact(c.members().iter().map(|d| plain.phi(*d).unwrap()));
                        prop_assert_eq!(rep_bits(c.rep(), |t| t), rep_bits(&exact, |t| t));
                    }
                    let runs = [
                        cluster_with_initial(&spread, &config, initial.clone()).unwrap(),
                        cluster_with_workspace(&mut reused, &spread, &config, initial.clone()).unwrap(),
                        cluster_with_workspace(&mut reused, &plain, &config, initial).unwrap(),
                    ];
                    for (i, got) in runs.iter().enumerate() {
                        prop_assert_eq!(got.member_lists(), want.member_lists(), "run {}", i);
                        prop_assert_eq!(got.outliers(), want.outliers(), "run {}", i);
                        prop_assert_eq!(got.iterations(), want.iterations(), "run {}", i);
                        prop_assert_eq!(got.g().to_bits(), want.g().to_bits(), "run {}", i);
                        let renamed = |t: TermId| if i < 2 { to_spread(t) } else { t };
                        for (g, w) in got.clusters().iter().zip(want.clusters()) {
                            prop_assert_eq!(rep_bits(g.rep(), |t| t), rep_bits(w.rep(), renamed), "run {}", i);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every returned representative is bit-identical to an exact
        /// rebuild over its member list — cold and warm, under both
        /// criteria, with and without `keep_last_member` (without it a
        /// cluster can empty mid-sweep) — so skipping the rebuild of
        /// clusters no document joined or left never leaves a stale
        /// representative behind.
        #[test]
        fn returned_representatives_are_exact(
            vecs in topic_docs(),
            k in 2usize..6,
            seed in 0u64..100,
        ) {
            let mut builder = RepBuilder::new();
            for (criterion, keep_last_member) in [
                (crate::Criterion::GTerm, true),
                (crate::Criterion::AvgSim, true),
                (crate::Criterion::GTerm, false),
                (crate::Criterion::AvgSim, false),
            ] {
                let config = ClusteringConfig {
                    k,
                    seed,
                    criterion,
                    keep_last_member,
                    ..ClusteringConfig::default()
                };
                let cold = cluster_batch(&vecs, &config).unwrap();
                // a warm start with work left: every third document moves on
                let perturbed = cold
                    .assignment()
                    .into_iter()
                    .map(|(d, p)| (d, if d.0 % 3 == 0 { (p + 1) % k } else { p }))
                    .collect();
                let warm =
                    cluster_with_initial(&vecs, &config, InitialState::Assignment(perturbed))
                        .unwrap();
                for c in cold.clusters().iter().chain(warm.clusters()) {
                    let phis = c.members().iter().map(|d| vecs.phi(*d).unwrap());
                    let exact = builder.exact(phis);
                    let (got, want) = (c.rep(), &exact);
                    prop_assert_eq!(got.size(), want.size());
                    prop_assert_eq!(got.cr_self().to_bits(), want.cr_self().to_bits());
                    prop_assert_eq!(got.ss().to_bits(), want.ss().to_bits());
                    let entries = |r: &ClusterRep| {
                        let mut e = Vec::new();
                        r.for_each_entry(|t, w| e.push((t, w.to_bits())));
                        e
                    };
                    prop_assert_eq!(entries(got), entries(want));
                }
            }
        }
    }
}
