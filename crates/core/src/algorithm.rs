//! The extended K-means repetition process (paper §4.3).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nidc_obs::{buckets, LazyCounter, LazyHistogram};
use nidc_similarity::{ClusterIndex, ClusterRep, DocVectors, RepBuilder, RepStats};
use nidc_textproc::DocId;

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

/// Each cluster's members in ascending `DocId` order.
fn member_lists(assign: &BTreeMap<DocId, usize>, k: usize) -> Vec<Vec<DocId>> {
    let mut members: Vec<Vec<DocId>> = vec![Vec::new(); k];
    for (&d, &p) in assign {
        members[p].push(d);
    }
    members
}

/// The φ vectors of `members`, in order.
fn member_phis<'a>(
    vecs: &'a DocVectors,
    members: &'a [DocId],
) -> impl Iterator<Item = &'a nidc_textproc::SparseVector> {
    members
        .iter()
        .map(|d| vecs.phi(*d).expect("member has a vector"))
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
/// the sparse accumulator that builds every representative
/// ([`RepBuilder`]), the term→cluster index that is each cluster's live
/// vector during step 1 ([`ClusterIndex`]) and the K-wide score row.
///
/// A run leaves nothing behind that the next one reads: the builder resets
/// every slot it touches and an index rebuild refiles every term, so a run
/// on a reused workspace is bit-identical to one on a fresh workspace, and
/// costs O(window) instead of first-touching arrays over the whole term
/// space. The workspace holds the builder's and the index's term-indexed
/// arrays (21 B per term id) and the index's postings arena
/// ([`DeepSize`](nidc_obs::DeepSize) reports it in O(1)). It is never
/// persisted: a clone starts empty, as does a restored pipeline.
#[derive(Debug, Default)]
pub struct KMeansWorkspace {
    builder: RepBuilder,
    index: ClusterIndex,
    dots: Vec<f64>,
}

impl KMeansWorkspace {
    /// An empty workspace; its arrays grow to the largest term id and K
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
        let dots = self.dots.capacity() * std::mem::size_of::<f64>();
        self.builder.deep_size_bytes() + self.index.deep_size_bytes() + dots as u64
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
    let ids = vecs.ids();
    if ids.is_empty() {
        return Ok(Clustering::new(Vec::new(), Vec::new(), 0.0, 0));
    }
    let k = config.k.min(ids.len());
    RUNS.inc();
    let _run_span = nidc_obs::span!("kmeans.run");

    // --- Initial process -------------------------------------------------
    let mut assign: BTreeMap<DocId, usize> = BTreeMap::new();

    match initial {
        InitialState::Random => {
            COLD_STARTS.inc();
            WARM_STARTS.add(0); // register the sibling so snapshots list both
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut pool = ids.to_vec();
            pool.shuffle(&mut rng);
            for (p, &seed_doc) in pool.iter().take(k).enumerate() {
                assign.insert(seed_doc, p);
            }
        }
        InitialState::Assignment(prev) => {
            WARM_STARTS.inc();
            COLD_STARTS.add(0);
            for (&d, &p) in &prev {
                if p >= k {
                    return Err(Error::InvalidInitialAssignment { cluster: p, k });
                }
                if vecs.phi(d).is_some() {
                    assign.insert(d, p);
                }
            }
            // reseed empty slots with the newest unassigned documents (new
            // documents are the likeliest nuclei of new topics)
            let mut used = vec![false; k];
            for &p in assign.values() {
                used[p] = true;
            }
            let fresh: Vec<DocId> = ids
                .iter()
                .rev()
                .filter(|d| !assign.contains_key(d))
                .copied()
                .collect();
            let mut fresh = fresh.into_iter();
            for (p, _) in used.iter().enumerate().filter(|(_, &u)| !u) {
                if let Some(d) = fresh.next() {
                    assign.insert(d, p);
                }
            }
        }
    }
    // One sparse accumulator builds every representative of the run, each
    // exactly from its member list: the initial ones here, and the ones a
    // document joined or left at the end of each iteration.
    let KMeansWorkspace {
        builder,
        index,
        dots,
    } = workspace;
    let mut reps: Vec<ClusterRep> = member_lists(&assign, k)
        .iter()
        .map(|m| builder.exact(member_phis(vecs, m)))
        .collect();

    // Step 1 reads and moves only the clusters' statistics and their live
    // vectors in the term→cluster index; `reps` stays as built until the
    // end of the iteration.
    let mut stats: Vec<RepStats> = reps.iter().map(ClusterRep::stats).collect();
    index.rebuild(&reps);
    // Clusters a document joined or left since their last build.
    let mut dirty = vec![false; k];

    let mut g_old: f64 = reps.iter().map(ClusterRep::g_term).sum();

    // --- Repetition process ----------------------------------------------
    let mut outliers: Vec<DocId> = Vec::new();
    let mut iterations = 0usize;
    if dots.len() < k {
        dots.resize(k, 0.0);
    }
    loop {
        iterations += 1;
        // Span first, timer second: drop order closes the span *after* the
        // timer has observed, so the span fully covers the measured work.
        let _iter_span = nidc_obs::span!("kmeans.iteration");
        let _iter_timer = ITERATION_SECONDS.start_timer();
        outliers.clear();
        // Per-iteration tallies, published once at the bottom of the loop so
        // the sweep itself never touches an atomic.
        let mut moved = 0u64;
        let mut demoted = 0u64;
        // Step 1 is sequential by definition (§4.4): each document is scored
        // against the clusters every earlier move of this sweep has already
        // updated, so there is nothing to fan out.
        let step1_span = nidc_obs::span!("kmeans.step1");
        let step1_timer = STEP1_SECONDS.start_timer();
        for &d in &ids {
            let phi = vecs.phi(d).expect("id comes from vecs");
            let current = assign.get(&d).copied();
            if let Some(p) = current {
                if config.keep_last_member && stats[p].size() == 1 {
                    continue; // keep the cluster alive; d stays its nucleus
                }
            }
            // step 1(a): preview every cluster's intra-cluster similarity
            // with d appended (eq. 26 / its G-term variant). One `dot_all`
            // pass over φ's terms gives all K dot products at once —
            // O(Σ_t |postings(t)|), not O(K·nnz(φ)) — and they stay in
            // `dots` for the move below. Conceptually d is first removed
            // from its current cluster (§4.4 speaks of documents being
            // removed and appended during this step); for the current
            // cluster the "remove then re-append" preview equals d's present
            // contribution, so nothing changes unless d actually moves —
            // this keeps converged iterations cheap, which is what makes
            // warm restarts (§5.2) fast.
            STEP1_CANDIDATES.add(k as u64);
            index.dot_all(phi, dots);
            let norm_sq = phi.norm_sq();
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
                        assign.insert(d, q);
                        moved += 1;
                    }
                }
                _ => {
                    if let Some(p) = current {
                        stats[p].leave(dots[p], norm_sq);
                        index.remove(p, phi);
                        dirty[p] = true;
                        assign.remove(&d);
                        demoted += 1;
                    }
                    outliers.push(d);
                }
            }
        }
        step1_timer.stop();
        drop(step1_span);

        // steps 2–3: rebuild exactly the representatives whose member list
        // changed, then the index from them, shedding the drift the moves
        // folded into stats and postings; then recompute G. An exact
        // representative is a pure function of its member list, so
        // skipping an unchanged list is bit-identical, and so is keeping
        // its stats, which no move touched.
        let members = member_lists(&assign, k);
        for (p, rep) in reps.iter_mut().enumerate() {
            if std::mem::take(&mut dirty[p]) {
                *rep = builder.exact(member_phis(vecs, &members[p]));
                // the moves kept the stats within fp drift of the rebuild
                debug_assert_eq!(stats[p].size(), rep.size());
                debug_assert!(
                    (stats[p].cr_self() - rep.cr_self()).abs() <= 1e-9 * (rep.cr_self() + rep.ss()),
                    "cluster {p}: swept cr_self {} vs exact {}",
                    stats[p].cr_self(),
                    rep.cr_self()
                );
                stats[p] = rep.stats();
            }
        }
        if moved + demoted > 0 {
            index.rebuild(&reps);
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
                .into_iter()
                .zip(reps)
                .map(|(m, rep)| Cluster::new(m, rep))
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
    /// the next rebuild; it is never scored, because an empty cluster's
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
                    let exact = builder.exact(member_phis(&vecs, c.members()));
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
