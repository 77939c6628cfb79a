//! The determinism contract of the thread knob: every path that fans out
//! produces **bit-identical** results for any thread count. These tests pin
//! the contract for GAC (the one intra-layer fan-out), the extended K-means
//! (which never fans out), and whole pipeline window runs, plus the
//! interaction of `expire()` with a threaded pipeline window run. The shard
//! fan-out has its own suite in `shard_determinism`.

use khy2006::baselines::{gac, GacConfig};
use khy2006::prelude::*;
use khy2006::textproc::{SparseVector, TermId};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

fn tf(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
}

/// A strategy for small synthetic document streams: `(term, weight)` lists
/// arriving on a slowly advancing clock.
fn doc_stream() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..40, 1u64..9), 1..6), 3..40).prop_map(
        |docs| {
            docs.into_iter()
                .map(|d| d.into_iter().map(|(t, w)| (t, w as f64)).collect())
                .collect()
        },
    )
}

fn repo_from(docs: &[Vec<(u32, f64)>]) -> Repository {
    let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
    for (i, d) in docs.iter().enumerate() {
        repo.insert(DocId(i as u64), Timestamp(0.25 * i as f64), tf(d))
            .unwrap();
    }
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gac_is_thread_count_invariant(docs in doc_stream()) {
        let pairs: Vec<(DocId, SparseVector)> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| (DocId(i as u64), tf(d)))
            .collect();
        let base = GacConfig {
            target_clusters: 3,
            bucket_size: 8,
            reduction: 0.5,
            threads: 1,
        };
        let seq = gac(&pairs, &base);
        for threads in THREAD_COUNTS {
            let par = gac(&pairs, &GacConfig { threads, ..base.clone() });
            prop_assert_eq!(&par, &seq, "GAC clustering differs at threads={}", threads);
        }
    }

    #[test]
    fn cluster_batch_is_thread_count_invariant(docs in doc_stream(), seed in 0u64..500) {
        let repo = repo_from(&docs);
        let vecs = DocVectors::build(&repo);
        let base = ClusteringConfig { k: 4, seed, threads: 1, ..ClusteringConfig::default() };
        let seq = cluster_batch(&vecs, &base).unwrap();
        for threads in THREAD_COUNTS {
            let config = ClusteringConfig { threads, ..base.clone() };
            let par = cluster_batch(&vecs, &config).unwrap();
            prop_assert_eq!(par.member_lists(), seq.member_lists(),
                "membership differs at threads={}", threads);
            prop_assert!(par.g() == seq.g(), "G differs at threads={}: {} vs {}",
                threads, par.g(), seq.g());
            prop_assert_eq!(par.iterations(), seq.iterations(),
                "iteration count differs at threads={}", threads);
            prop_assert_eq!(par.outliers(), seq.outliers(),
                "outliers differ at threads={}", threads);
        }
    }

    /// The warm-start sibling of `cluster_batch_is_thread_count_invariant`:
    /// the previous assignment comes from a run at a larger K, as the
    /// pipeline carries it into a window whose effective K shrank, so some
    /// of its slots are >= k. Passed as is, it is rejected the same way at
    /// every thread count; with those slots dropped (what the pipeline
    /// does), their documents re-enter unassigned and reseed the empty
    /// slots, and the run is bit-identical across thread counts.
    #[test]
    fn warm_start_is_thread_count_invariant(docs in doc_stream(), seed in 0u64..500) {
        let repo = repo_from(&docs);
        let vecs = DocVectors::build(&repo);
        let wide = ClusteringConfig { k: 6, seed, threads: 1, ..ClusteringConfig::default() };
        let prev = cluster_batch(&vecs, &wide).unwrap().assignment();
        let base = ClusteringConfig { k: 4, ..wide };
        let k = base.k.min(vecs.len());
        let mut kept = prev.clone();
        kept.retain(|_, p| *p < k);
        let stale = kept.len() < prev.len();
        let seq = cluster_with_initial(&vecs, &base, InitialState::Assignment(kept.clone())).unwrap();
        for threads in THREAD_COUNTS {
            let config = ClusteringConfig { threads, ..base.clone() };
            if stale {
                let raw = cluster_with_initial(&vecs, &config, InitialState::Assignment(prev.clone()));
                let rejected = matches!(raw, Err(khy2006::core::Error::InvalidInitialAssignment { k: ek, .. }) if ek == k);
                prop_assert!(rejected, "slots >= k not rejected at threads={}", threads);
            }
            let par = cluster_with_initial(&vecs, &config, InitialState::Assignment(kept.clone())).unwrap();
            prop_assert_eq!(par.member_lists(), seq.member_lists(),
                "membership differs at threads={}", threads);
            prop_assert!(par.g() == seq.g(), "G differs at threads={}: {} vs {}",
                threads, par.g(), seq.g());
            prop_assert_eq!(par.iterations(), seq.iterations(),
                "iteration count differs at threads={}", threads);
            prop_assert_eq!(par.outliers(), seq.outliers(),
                "outliers differ at threads={}", threads);
        }
    }
}

/// Regression: expiring documents mid-stream while the pipeline runs its
/// threaded window re-clusterings must leave the incremental statistics
/// exact — the clamp in `Repository::remove` may only absorb fp residue,
/// never a real accounting error.
#[test]
fn expire_during_threaded_window_run_keeps_statistics_exact() {
    for threads in THREAD_COUNTS {
        let mut pipeline = NoveltyPipeline::new(
            DecayParams::from_spans(7.0, 14.0).unwrap(),
            ClusteringConfig {
                k: 4,
                seed: 9,
                threads,
                ..ClusteringConfig::default()
            },
        );
        let mut id = 0u64;
        for day in 0..45 {
            let t = Timestamp(day as f64);
            for j in 0..4u32 {
                pipeline
                    .ingest(
                        DocId(id),
                        t,
                        tf(&[(j * 3 + (day % 3) as u32, 2.0), (30 + (id % 7) as u32, 1.0)]),
                    )
                    .unwrap();
                id += 1;
            }
            if day % 5 == 4 {
                // a full window step: decay, expire, threaded re-clustering
                pipeline.recluster_incremental().unwrap();
            }
        }
        let drift = pipeline.repository().drift();
        assert!(
            drift < 1e-9,
            "threads={threads}: incremental statistics drifted by {drift}"
        );
    }
}

/// The same clustering through the full pipeline for every thread count —
/// the end-to-end version of the per-path invariance tests above — on a
/// narrow stream whose K-means runs take the dense step-1 sweep (K = 3, two
/// terms per document) and a wide one whose runs take the term→cluster
/// index (K = 24, 80 terms per document: 60 topic terms plus 20 of a shared
/// background).
#[test]
fn pipeline_window_runs_are_thread_count_invariant() {
    let doc = |wide: bool, day: u32, j: u32| {
        if !wide {
            return tf(&[(j * 4, 3.0), (j * 4 + 1 + day % 2, 1.0)]);
        }
        let topic = (j % 3) * 100;
        let mut pairs: Vec<(u32, f64)> = (0..60)
            .map(|t| (topic + t, 1.0 + ((day + j + t) % 4) as f64))
            .collect();
        pairs.extend((0..20).map(|t| (1000 + (t + 3 * (day * 6 + j)) % 80, 1.0)));
        tf(&pairs)
    };
    for (wide, k, per_day) in [(false, 3, 3u32), (true, 24, 6)] {
        khy2006::obs::set_enabled(true);
        let touched = || {
            khy2006::obs::snapshot()
                .counter("nidc_index_postings_touched_total")
                .unwrap_or(0)
        };
        let before = touched();
        let mut reference: Option<Vec<Vec<DocId>>> = None;
        for threads in THREAD_COUNTS {
            let mut pipeline = NoveltyPipeline::new(
                DecayParams::from_spans(7.0, 21.0).unwrap(),
                ClusteringConfig {
                    k,
                    seed: 5,
                    threads,
                    ..ClusteringConfig::default()
                },
            );
            let mut last = None;
            for day in 0..20u32 {
                let t = Timestamp(f64::from(day));
                for j in 0..per_day {
                    let id = DocId(u64::from(day * per_day + j));
                    pipeline.ingest(id, t, doc(wide, day, j)).unwrap();
                }
                if day % 4 == 3 {
                    last = Some(pipeline.recluster_incremental().unwrap().member_lists());
                }
            }
            let last = last.expect("at least one window ran");
            match &reference {
                None => reference = Some(last),
                Some(r) => assert_eq!(&last, r, "k={k} threads={threads} diverged"),
            }
        }
        if wide {
            assert!(touched() > before, "the wide stream never used the index");
        }
        khy2006::obs::set_enabled(false);
    }
}
