//! The determinism contract of the sharded pipeline (`ShardedPipeline`):
//!
//! * **1 shard is the pipeline** — with `shards = 1` the sharded pipeline is
//!   bit-identical to a plain `NoveltyPipeline` driven with the same stream;
//! * **thread-count invariance** — for any fixed shard count the merged
//!   result is bit-identical across inner thread counts (the shard fan-out
//!   and each pipeline's internal parallelism may only change wall-clock,
//!   never bits), on both K-means step-1 sweeps;
//! * **checkpoint transparency** — saving mid-stream, loading, and
//!   continuing produces exactly the run that never stopped, and a legacy
//!   single-pipeline checkpoint still loads as one shard.

use khy2006::prelude::*;
use khy2006::textproc::{SparseVector, TermId};

const THREAD_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

fn tf(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
}

/// A deterministic 3-topic stream: `(id, day, tf)` for 30 days × 3 docs/day,
/// with enough term drift that re-clusterings actually move documents.
fn stream() -> Vec<(DocId, f64, SparseVector)> {
    let mut docs = Vec::new();
    let mut id = 0u64;
    for day in 0..30u32 {
        for topic in 0..3u32 {
            let t = tf(&[
                (topic * 8, 3.0),
                (topic * 8 + 1 + day % 3, 2.0),
                (24 + (id % 5) as u32, 1.0),
            ]);
            docs.push((DocId(id), day as f64, t));
            id += 1;
        }
    }
    docs
}

/// The same re-clustering cadence at index scale: 20 days × 6 docs/day over
/// three topics, each document 80 terms wide (60 topic terms plus 20 of a
/// shared background). At K = 24 a 3-shard window holds enough live
/// documents for `K · avg nnz(φ)` to clear the 1500 cutoff, so its K-means
/// runs take the term→cluster index sweep.
fn wide_stream() -> Vec<(DocId, f64, SparseVector)> {
    (0..120u32)
        .map(|i| {
            let topic = (i % 3) * 100;
            let mut pairs: Vec<(u32, f64)> = (0..60)
                .map(|j| (topic + j, 1.0 + ((i + j) % 4) as f64))
                .collect();
            pairs.extend((0..20).map(|j| (1000 + (j + 3 * i) % 80, 1.0)));
            (DocId(u64::from(i)), f64::from(i / 6), tf(&pairs))
        })
        .collect()
}

fn config(threads: usize) -> ClusteringConfig {
    ClusteringConfig {
        k: 4,
        seed: 7,
        threads,
        ..ClusteringConfig::default()
    }
}

/// The observable outcome of a run, compared bit for bit. The stitched
/// fields are `None` when no stitching pass ran (a single shard).
#[derive(Debug, PartialEq)]
struct Outcome {
    members: Vec<Vec<DocId>>,
    outliers: Vec<DocId>,
    g_bits: u64,
    num_docs: usize,
    stitched_members: Option<Vec<Vec<DocId>>>,
    stitched_g_bits: Option<u64>,
}

/// Replays `docs` through a sharded pipeline, re-clustering every 5 days,
/// and returns the final merged result.
fn drive_sharded(pipeline: &mut ShardedPipeline, docs: &[(DocId, f64, SparseVector)]) -> Outcome {
    for (id, day, tf) in docs {
        pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        if id.0 % 15 == 14 {
            pipeline.recluster_incremental().unwrap();
        }
    }
    let merged = pipeline.last_merged().expect("at least one window ran");
    Outcome {
        members: merged.member_lists(),
        outliers: merged.outliers(),
        g_bits: merged.g().to_bits(),
        num_docs: pipeline.num_docs(),
        stitched_members: merged.stitched().map(|s| s.member_lists()),
        stitched_g_bits: merged.stitched().map(|s| s.g().to_bits()),
    }
}

fn decay() -> DecayParams {
    DecayParams::from_spans(7.0, 21.0).unwrap()
}

#[test]
fn one_shard_is_bit_identical_to_the_unsharded_pipeline() {
    let docs = stream();

    let mut plain = NoveltyPipeline::new(decay(), config(0));
    let mut last = None;
    for (id, day, tf) in &docs {
        plain.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        if id.0 % 15 == 14 {
            last = Some(plain.recluster_incremental().unwrap());
        }
    }
    let last = last.unwrap();

    let mut sharded = ShardedPipeline::new(decay(), config(0), 1).unwrap();
    let outcome = drive_sharded(&mut sharded, &docs);

    assert_eq!(outcome.members, last.member_lists());
    // the merged view canonicalises outliers into sorted order
    let mut plain_outliers = last.outliers().to_vec();
    plain_outliers.sort_unstable();
    assert_eq!(outcome.outliers, plain_outliers);
    assert_eq!(outcome.g_bits, last.g().to_bits());
    assert_eq!(outcome.num_docs, plain.repository().len());
    // one shard has nothing to stitch: the pipeline skips the pass
    assert_eq!(outcome.stitched_members, None);
}

#[test]
fn one_shard_stitch_is_a_no_op_bit_identical_to_unsharded() {
    let docs = stream();

    let mut plain = NoveltyPipeline::new(decay(), config(0));
    let mut last = None;
    for (id, day, tf) in &docs {
        plain.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        if id.0 % 15 == 14 {
            last = Some(plain.recluster_incremental().unwrap());
        }
    }
    let last = last.unwrap();

    let mut sharded = ShardedPipeline::new(decay(), config(0), 1).unwrap();
    for (id, day, tf) in &docs {
        sharded.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        if id.0 % 15 == 14 {
            sharded.recluster_incremental().unwrap();
        }
    }
    // force the pass explicitly (the pipeline skips it for one shard)
    // at the most aggressive threshold: still the identity
    let stitched = sharded.last_merged().unwrap().stitch(0.0);
    assert_eq!(stitched.merges(), 0);
    assert_eq!(stitched.member_lists(), last.member_lists());
    let mut plain_outliers = last.outliers().to_vec();
    plain_outliers.sort_unstable();
    assert_eq!(stitched.outliers(), plain_outliers);
    assert_eq!(
        stitched.g().to_bits(),
        last.g().to_bits(),
        "single-shard stitched G must be bit-identical"
    );
}

#[test]
fn fixed_shard_count_is_thread_invariant() {
    // The merged AND stitched outcomes must be bit-identical across every
    // inner thread count (stitching is sequential, so thread counts cannot
    // reorder it), on the small stream's dense step-1 sweep and on the wide
    // stream's index sweep alike.
    for (k, docs) in [(4, stream()), (24, wide_stream())] {
        for shards in [2usize, 3] {
            khy2006::obs::set_enabled(true);
            let touched = || {
                khy2006::obs::snapshot()
                    .counter("nidc_index_postings_touched_total")
                    .unwrap_or(0)
            };
            let before = touched();
            let mut reference: Option<Outcome> = None;
            for threads in THREAD_COUNTS {
                let config = ClusteringConfig {
                    k,
                    ..config(threads)
                };
                let mut pipeline = ShardedPipeline::new(decay(), config, shards).unwrap();
                let outcome = drive_sharded(&mut pipeline, &docs);
                assert!(
                    outcome.stitched_members.is_some(),
                    "stitching defaults on for shards > 1"
                );
                match &reference {
                    None => reference = Some(outcome),
                    Some(r) => assert_eq!(
                        &outcome, r,
                        "k={k} shards={shards} threads={threads} diverged"
                    ),
                }
            }
            if k == 24 {
                assert!(
                    touched() > before,
                    "k={k} shards={shards} never used the index"
                );
            }
            khy2006::obs::set_enabled(false);
        }
    }
}

#[test]
fn checkpoint_save_load_continue_matches_the_uninterrupted_run() {
    let docs = stream();
    let (first, second) = docs.split_at(docs.len() / 2);

    // the run that never stops
    let mut straight = ShardedPipeline::new(decay(), config(0), 3).unwrap();
    for (id, day, tf) in first {
        straight.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
    }
    straight.recluster_incremental().unwrap();

    // checkpoint right after the mid-stream re-clustering, then reload
    let mut json = Vec::new();
    straight.save_json(&mut json).unwrap();
    let mut resumed = ShardedPipeline::load_json(&json[..]).unwrap();
    assert_eq!(resumed.num_shards(), 3);
    assert_eq!(resumed.num_docs(), straight.num_docs());

    let finish = |pipeline: &mut ShardedPipeline| {
        for (id, day, tf) in second {
            pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        }
        let merged = pipeline.recluster_incremental().unwrap();
        (
            merged.member_lists(),
            merged.outliers(),
            merged.g().to_bits(),
        )
    };
    let expected = finish(&mut straight);
    let actual = finish(&mut resumed);
    assert_eq!(
        actual, expected,
        "resumed run diverged from uninterrupted run"
    );
}

/// Lineage ids are pipeline state: a checkpoint taken after a re-clustering
/// carries the `LineageTracker` (ids, window index, previous clusters with
/// verbatim representatives), so the resumed run assigns exactly the ids
/// the uninterrupted run would have — continuations keep continuing rather
/// than being reborn.
#[test]
fn lineage_ids_survive_checkpoint_save_load_continue() {
    let docs = stream();
    let (first, second) = docs.split_at(docs.len() / 2);

    let mut straight = ShardedPipeline::new(decay(), config(0), 3).unwrap();
    for (id, day, tf) in first {
        straight.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
    }
    straight.recluster_incremental().unwrap();
    let tracker = straight.lineage();
    assert_eq!(tracker.windows_observed(), 1);
    let mid_lineages = tracker.current_lineages();
    assert!(!mid_lineages.is_empty(), "first window produced clusters");

    let mut json = Vec::new();
    straight.save_json(&mut json).unwrap();
    let mut resumed = ShardedPipeline::load_json(&json[..]).unwrap();
    assert_eq!(
        resumed.lineage().current_lineages(),
        mid_lineages,
        "the checkpoint must carry the lineage assignment verbatim"
    );

    let finish = |pipeline: &mut ShardedPipeline| {
        for (id, day, tf) in second {
            pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        }
        pipeline.recluster_incremental().unwrap();
        let t = pipeline.lineage();
        (t.windows_observed(), t.current_lineages())
    };
    let expected = finish(&mut straight);
    let actual = finish(&mut resumed);
    assert_eq!(
        actual, expected,
        "lineage ids diverged after checkpoint save → load → continue"
    );
    assert_eq!(expected.0, 2, "both windows count");
}

/// A checkpoint in the legacy single-pipeline format (`PipelineState`), as
/// an unsharded `NoveltyPipeline` wrote it after two windows: doc ids 0..30
/// of [`stream`], re-clustered at ids 14 and 29, lineage state included.
const LEGACY_CHECKPOINT: &str = include_str!("fixtures/legacy_pipeline_state.json");

/// The legacy format is read-only but still loads: as one shard, carrying
/// its warm start and its lineage, so one more window matches a one-shard
/// run that never stopped — member lists, outliers and lineage ids.
#[test]
fn legacy_checkpoint_loads_as_one_shard_and_continues() {
    let docs = stream();
    let mut straight = ShardedPipeline::new(decay(), config(0), 1).unwrap();
    let mut resumed = ShardedPipeline::load_json(LEGACY_CHECKPOINT.as_bytes()).unwrap();
    assert_eq!(resumed.num_shards(), 1);
    assert_eq!(resumed.config().k, config(0).k);

    let window = |pipeline: &mut ShardedPipeline, docs: &[(DocId, f64, SparseVector)]| {
        for (id, day, tf) in docs {
            pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        }
        pipeline.recluster_incremental().unwrap();
    };
    window(&mut straight, &docs[..15]);
    window(&mut straight, &docs[15..30]);
    assert_eq!(resumed.num_docs(), straight.num_docs());
    assert_eq!(resumed.now(), straight.now());
    assert_eq!(
        resumed.lineage().current_lineages(),
        straight.lineage().current_lineages()
    );

    let finish = |pipeline: &mut ShardedPipeline| {
        window(pipeline, &docs[30..45]);
        let merged = pipeline.last_merged().unwrap();
        let t = pipeline.lineage();
        (
            merged.member_lists(),
            merged.outliers(),
            t.windows_observed(),
            t.current_lineages(),
        )
    };
    let expected = finish(&mut straight);
    assert_eq!(finish(&mut resumed), expected);
    assert_eq!(expected.2, 3, "all three windows count");
}

/// A legacy checkpoint cut off mid-file is an error, not a panic.
#[test]
fn truncated_legacy_checkpoint_is_an_error() {
    let bytes = LEGACY_CHECKPOINT.as_bytes();
    for cut in [1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 2] {
        assert!(
            ShardedPipeline::load_json(&bytes[..cut]).is_err(),
            "a checkpoint cut at byte {cut} loaded"
        );
    }
}

/// The documented id-stability guarantee of the merged/stitched views:
/// a `MergedClustering` keys every cluster by its `(shard, local)` id, and
/// when stitching reunites cross-shard fragments the surviving
/// `StitchedCluster` keeps the **lowest shard-major source id** — so ids
/// remain stable handles for downstream consumers (the lineage tracker
/// among them) instead of depending on agglomeration order.
#[test]
fn stitched_clusters_keep_the_lowest_shard_major_source_id() {
    let docs = stream();
    let mut pipeline = ShardedPipeline::new(decay(), config(0), 3).unwrap();
    let outcome = drive_sharded(&mut pipeline, &docs);
    assert!(outcome.stitched_members.is_some());

    let merged = pipeline.recluster_incremental().unwrap();
    let stitched = merged.stitched().expect("stitching defaults on");
    let mut seen = std::collections::BTreeSet::new();
    let mut cross_shard = 0usize;
    for c in stitched
        .clusters()
        .iter()
        .filter(|c| !c.members().is_empty())
    {
        assert!(!c.sources().is_empty(), "every cluster records its sources");
        assert_eq!(
            Some(&c.id()),
            c.sources().iter().min(),
            "stitched id must be the lowest shard-major source id"
        );
        assert!(seen.insert(c.id()), "stitched ids must be unique");
        if c.sources().len() > 1 {
            cross_shard += 1;
        }
    }
    assert_eq!(
        stitched.merges(),
        stitched
            .clusters()
            .iter()
            .filter(|c| !c.members().is_empty())
            .map(|c| c.sources().len() - 1)
            .sum::<usize>(),
        "merge count must equal the fragments folded away"
    );
    // the 3-topic stream split over 3 shards fragments every topic, so the
    // stitcher has real work to do — this guards against the guarantee
    // holding vacuously
    assert!(cross_shard > 0, "no cross-shard stitches happened");
}
