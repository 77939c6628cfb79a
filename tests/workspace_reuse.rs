//! Workspace reuse is invisible: one `KMeansWorkspace` lent to run after
//! run — as every pipeline shard lends its own to each window's K-means —
//! gives the clustering a fresh workspace gives, bit for bit. Nothing a run
//! leaves in the term ranking, the sparse accumulator, the cluster index
//! (its rows of terms no cluster holds any more included) or the score row
//! may reach the next run, whatever K, the term ids, the start or the
//! criterion of either.

use khy2006::core::{cluster_with_workspace, KMeansWorkspace};
use khy2006::prelude::*;
use proptest::prelude::*;

fn tf(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
}

/// A representative's size, `cr_self`, `ss` and every stored entry.
type RepBits = (usize, u64, u64, Vec<(TermId, u64)>);

/// Everything a clustering reports, with every float as its bits.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    members: Vec<Vec<DocId>>,
    outliers: Vec<DocId>,
    reps: Vec<RepBits>,
    g: u64,
    iterations: usize,
}

fn fingerprint(c: &Clustering) -> Fingerprint {
    let reps = c
        .clusters()
        .iter()
        .map(|cl| {
            let rep = cl.rep();
            let mut entries = Vec::new();
            rep.for_each_entry(|t, w| entries.push((t, w.to_bits())));
            (
                rep.size(),
                rep.cr_self().to_bits(),
                rep.ss().to_bits(),
                entries,
            )
        })
        .collect();
    Fingerprint {
        members: c.member_lists(),
        outliers: c.outliers().to_vec(),
        reps,
        g: c.g().to_bits(),
        iterations: c.iterations(),
    }
}

/// One K-means problem: documents over a term space of its own size, K,
/// the seed, the criterion, `keep_last_member`, and an optional warm start
/// (a cluster slot, or none, per document).
#[derive(Debug, Clone)]
struct Problem {
    docs: Vec<Vec<(u32, f64)>>,
    k: usize,
    seed: u64,
    avg_sim: bool,
    keep_last_member: bool,
    warm: Option<Vec<Option<usize>>>,
}

fn problem() -> impl Strategy<Value = Problem> {
    // term spaces from a handful of ids to thousands, so consecutive
    // problems grow and shrink the workspace's term-indexed arrays
    let dim = prop_oneof![Just(6u32), Just(40), Just(300), Just(3000)];
    let doc = prop::collection::vec((0u32..3000, 1u32..9), 1..7);
    let docs = prop::collection::vec(doc, 2..28);
    let flags = (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY);
    let slots = prop::collection::vec((prop::bool::ANY, 0usize..16), 28..29);
    let knobs = (1usize..9, 0u64..1000, flags, slots);
    (dim, docs, knobs).prop_map(
        |(dim, docs, (k, seed, (avg_sim, keep_last_member, warm), slots))| Problem {
            docs: docs
                .into_iter()
                .map(|d| {
                    // one weight per term: the last drawn for it wins
                    let d: std::collections::BTreeMap<u32, f64> = d
                        .into_iter()
                        .map(|(t, w)| (t % dim, f64::from(w)))
                        .collect();
                    d.into_iter().collect()
                })
                .collect(),
            k,
            seed,
            avg_sim,
            keep_last_member,
            warm: warm.then(|| {
                slots
                    .into_iter()
                    .map(|(assigned, p)| assigned.then_some(p))
                    .collect()
            }),
        },
    )
}

impl Problem {
    fn vectors(&self) -> DocVectors {
        let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
        for (i, d) in self.docs.iter().enumerate() {
            repo.insert(DocId(i as u64), Timestamp(0.25 * i as f64), tf(d))
                .unwrap();
        }
        DocVectors::build(&repo)
    }

    fn config(&self) -> ClusteringConfig {
        ClusteringConfig {
            k: self.k,
            seed: self.seed,
            criterion: if self.avg_sim {
                Criterion::AvgSim
            } else {
                Criterion::GTerm
            },
            keep_last_member: self.keep_last_member,
            ..ClusteringConfig::default()
        }
    }

    /// The warm-start slots folded into the run's effective K.
    fn initial(&self) -> InitialState {
        let k = self.k.min(self.docs.len());
        match &self.warm {
            None => InitialState::Random,
            Some(slots) => InitialState::Assignment(
                slots
                    .iter()
                    .take(self.docs.len())
                    .enumerate()
                    .filter_map(|(i, s)| s.map(|p| (DocId(i as u64), p % k)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sequence of problems on one workspace: each clustering equals a
    /// fresh `cluster_with_initial` on the same problem — members,
    /// outliers, every representative entry, `cr_self`, `ss`, `G` and the
    /// iteration count.
    #[test]
    fn a_reused_workspace_is_bit_identical_to_a_fresh_one(
        problems in proptest::collection::vec(problem(), 2..7),
    ) {
        let mut workspace = KMeansWorkspace::new();
        for (i, p) in problems.iter().enumerate() {
            let vecs = p.vectors();
            let fresh = cluster_with_initial(&vecs, &p.config(), p.initial()).unwrap();
            let reused =
                cluster_with_workspace(&mut workspace, &vecs, &p.config(), p.initial()).unwrap();
            prop_assert_eq!(fingerprint(&reused), fingerprint(&fresh), "problem {}", i);
        }
    }
}

/// A drifting 3-topic stream over 40 days: each topic keeps a few core
/// terms and picks up terms of the day, so live term ids climb and old ones
/// expire with their documents.
fn drifting_stream() -> Vec<(DocId, f64, SparseVector)> {
    (0..240u32)
        .map(|i| {
            let (day, topic) = (i / 6, i % 3);
            let mut pairs: Vec<(u32, f64)> = (0..4)
                .map(|j| (topic * 10 + j, 1.0 + f64::from((i + j) % 3)))
                .collect();
            pairs.extend((0..6).map(|j| (100 + 40 * day + topic * 8 + (i + j) % 8, 1.0)));
            pairs.push((5000 - 100 * day - topic, 0.5));
            (DocId(u64::from(i)), f64::from(day), tf(&pairs))
        })
        .collect()
}

/// One window's outcome: every shard's clustering, and the stitched view.
#[derive(Debug, PartialEq)]
struct Window {
    shards: Vec<Fingerprint>,
    stitched: Option<(Vec<Vec<DocId>>, u64)>,
}

/// Replays the stream through 3 shards, re-clustering every 2 days; with
/// `clone_every_window` the pipeline is replaced by a clone before each
/// re-clustering, so every K-means run starts on empty workspaces.
fn windows(clone_every_window: bool) -> Vec<Window> {
    let config = ClusteringConfig {
        k: 5,
        seed: 11,
        ..ClusteringConfig::default()
    };
    let decay = DecayParams::from_spans(3.0, 9.0).unwrap();
    let mut pipeline = ShardedPipeline::new(decay, config, 3).unwrap();
    let mut out = Vec::new();
    for (id, day, tf) in drifting_stream() {
        pipeline.ingest(id, Timestamp(day), tf).unwrap();
        if id.0 % 12 == 11 {
            if clone_every_window {
                pipeline = pipeline.clone();
            }
            let merged = pipeline.recluster_incremental().unwrap();
            out.push(Window {
                shards: merged.shards().iter().map(fingerprint).collect(),
                stitched: merged
                    .stitched()
                    .map(|s| (s.member_lists(), s.g().to_bits())),
            });
        }
    }
    out
}

#[test]
fn three_shard_stream_with_kept_workspaces_matches_fresh_ones() {
    let (kept, fresh) = (windows(false), windows(true));
    assert_eq!(kept.len(), 20);
    assert!(
        kept.iter().all(|w| w.stitched.is_some()),
        "3 shards stitch every window"
    );
    for (w, (a, b)) in kept.iter().zip(&fresh).enumerate() {
        assert_eq!(a, b, "window {w}");
    }
}

/// Window `w` of a stream whose vocabulary shifts: eight documents a day
/// over days `2w..2w + 4`, in three topics that keep a few core terms and
/// pick up terms of the day, and every seventh document a stray whose two
/// terms no other document holds.
fn shifting_window(w: u64) -> DocVectors {
    let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
    for i in 16 * w..16 * w + 32 {
        let (day, topic) = ((i / 8) as u32, (i % 3) as u32);
        let pairs: Vec<(u32, f64)> = if i % 7 == 0 {
            vec![(5000 + i as u32, 2.0), (9000 + i as u32, 1.0)]
        } else {
            let mut pairs: Vec<(u32, f64)> = (0..3)
                .map(|j| (topic * 10 + j, 1.0 + f64::from((i as u32 + j) % 3)))
                .collect();
            pairs.extend((0..3).map(|j| (100 + 30 * day + topic * 5 + (i as u32 + j) % 5, 1.0)));
            pairs.sort_by_key(|&(t, _)| t);
            pairs.dedup_by_key(|&mut (t, _)| t);
            pairs
        };
        repo.insert(DocId(i), Timestamp(f64::from(day)), tf(&pairs))
            .unwrap();
    }
    DocVectors::build(&repo)
}

/// Window after window on one workspace, warm-started with every document
/// assigned — survivors keep their cluster modulo the new K, new documents
/// and strays are dealt round robin — so strays are demoted and their terms
/// leave every cluster: each run's refreshes leave rows no cluster holds in
/// the index for the next run, while K shrinks and grows and the
/// vocabulary shifts.
#[test]
fn earlier_runs_never_reach_a_later_one() {
    let mut workspace = KMeansWorkspace::new();
    let mut previous: std::collections::BTreeMap<DocId, usize> = Default::default();
    let mut demoted = 0;
    for (w, k) in [6usize, 3, 8, 2, 5, 7, 4].into_iter().enumerate() {
        let vecs = shifting_window(w as u64);
        let config = ClusteringConfig {
            k,
            seed: w as u64,
            ..ClusteringConfig::default()
        };
        let k = k.min(vecs.len());
        let start: std::collections::BTreeMap<DocId, usize> = vecs
            .ids()
            .into_iter()
            .map(|d| (d, previous.get(&d).copied().unwrap_or(d.0 as usize) % k))
            .collect();
        let initial = || InitialState::Assignment(start.clone());
        let fresh = cluster_with_initial(&vecs, &config, initial()).unwrap();
        let reused = cluster_with_workspace(&mut workspace, &vecs, &config, initial()).unwrap();
        assert_eq!(fingerprint(&reused), fingerprint(&fresh), "window {w}");
        // every document started assigned: an outlier left its cluster
        demoted += fresh.outliers().len();
        previous = fresh.assignment();
    }
    assert!(
        demoted > 0,
        "no document was demoted, so no row was emptied"
    );
}
