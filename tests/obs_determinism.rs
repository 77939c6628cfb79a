//! Recorder-on/off equivalence: enabling the observability layer must not
//! change a single bit of any clustering result. The instrumentation is a
//! pure observer — it never branches the algorithm, never reorders float
//! accumulation, never feeds a value back — and this suite pins that
//! contract on a small-K and a wide input and at every thread count,
//! through full multi-window pipeline runs.

use std::collections::BTreeMap;

use khy2006::prelude::*;

const THREAD_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// The tests below toggle the process-wide recorder flag, so they must not
/// interleave within this test binary.
static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tf(pairs: &[(u32, f64)]) -> SparseVector {
    SparseVector::from_entries(pairs.iter().map(|&(i, w)| (TermId(i), w)).collect())
}

/// Documents as `(id, day, tf)`, in arrival order.
type Stream = Vec<(u64, f64, SparseVector)>;

/// A three-topic stream over 12 days with enough churn to exercise moves,
/// outliers, expiration, and warm restarts.
fn stream() -> Stream {
    let mut docs = Vec::new();
    for i in 0..36u64 {
        let day = i as f64 * 0.33;
        let topic = (i % 3) as u32 * 10;
        docs.push((
            i,
            day,
            tf(&[
                (topic, 3.0),
                (topic + 1, 2.0),
                (topic + 2 + (i % 2) as u32, 1.0),
            ]),
        ));
    }
    // a stray that shares no terms with any topic
    docs.push((99, 6.1, tf(&[(77, 1.0)])));
    docs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    docs
}

/// The same shape at index scale: 96 documents over four topics, each 80
/// terms wide (60 topic terms plus 20 of a shared background). At K = 24
/// every term→cluster postings list is long, as on `daily` and `rebuild`.
fn wide_stream() -> Stream {
    (0..96u32)
        .map(|i| {
            let topic = (i % 4) * 100;
            let mut pairs: Vec<(u32, f64)> = (0..60)
                .map(|j| (topic + j, 1.0 + ((i + j) % 4) as f64))
                .collect();
            pairs.extend((0..20).map(|j| (1000 + (j + 3 * i) % 80, 1.0)));
            (u64::from(i), f64::from(i) / 8.0, tf(&pairs))
        })
        .collect()
}

/// The streams every on/off test replays, with their K: a small-K input
/// and a wide one. Both score step 1 through the term→cluster index.
fn inputs() -> [(&'static str, usize, Stream); 2] {
    [("small-K", 3, stream()), ("wide", 24, wide_stream())]
}

fn postings_touched() -> u64 {
    khy2006::obs::snapshot()
        .counter("nidc_index_postings_touched_total")
        .unwrap_or(0)
}

/// Everything observable about one window's clustering: member lists,
/// outliers, the clustering index G (bitwise), iteration count.
type WindowResult = (Vec<Vec<DocId>>, Vec<DocId>, f64, usize);

/// Runs the full pipeline (ingest → advance → expire → recluster every
/// three days) on one shard — the production path, lineage included — and
/// returns everything observable about the results.
fn run_pipeline(k: usize, stream: &Stream, threads: usize) -> Vec<WindowResult> {
    let decay = DecayParams::from_spans(4.0, 8.0).unwrap();
    let config = ClusteringConfig {
        k,
        seed: 7,
        threads,
        ..ClusteringConfig::default()
    };
    let mut pipeline = ShardedPipeline::new(decay, config, 1).unwrap();
    let mut windows = Vec::new();
    let mut next = 3.0f64;
    for (id, day, tf) in stream.iter().cloned() {
        while day >= next {
            pipeline.advance_to(Timestamp(next)).unwrap();
            let c = pipeline.recluster_incremental().unwrap();
            windows.push((c.member_lists(), c.outliers(), c.g(), c.iterations()));
            next += 3.0;
        }
        pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
    }
    let c = pipeline.recluster_incremental().unwrap();
    windows.push((c.member_lists(), c.outliers(), c.g(), c.iterations()));
    windows
}

/// The core guarantee: with metric recording AND debug logging enabled, the
/// clusterings (members, outliers, bitwise G, iteration counts) are
/// identical to the recorder-off run, per window, on both inputs and at all
/// thread counts. The postings counter shows the index sweep ran.
#[test]
fn recorder_on_off_results_are_bit_identical() {
    let _guard = flag_lock();
    for (input, k, stream) in inputs() {
        for threads in THREAD_COUNTS {
            khy2006::obs::set_enabled(false);
            let off = run_pipeline(k, &stream, threads);

            khy2006::obs::reset();
            khy2006::obs::set_enabled(true);
            let on = run_pipeline(k, &stream, threads);
            let touched = postings_touched();
            khy2006::obs::set_enabled(false);

            assert_eq!(
                off, on,
                "recorder flipped the result on the {input} input, threads {threads}"
            );
            assert!(touched > 0, "the {input} input touched no postings");
        }
    }
}

/// While the recorder is on, the run actually populates the metrics every
/// layer promises — the snapshot is not an empty shell.
#[test]
fn enabled_run_covers_all_instrumented_layers() {
    let _guard = flag_lock();
    khy2006::obs::reset();
    khy2006::obs::set_enabled(true);
    // threads=2 so the parallel layer records fan-out decisions too
    let _ = run_pipeline(3, &stream(), 2);
    let snap = khy2006::obs::snapshot();
    khy2006::obs::set_enabled(false);

    for metric in [
        // pipeline layer
        "nidc_pipeline_reclusters_total",
        "nidc_sharded_reclusters_total",
        // K-means layer
        "nidc_kmeans_runs_total",
        "nidc_kmeans_warm_starts_total",
        "nidc_kmeans_cold_starts_total",
        "nidc_kmeans_moved_docs_total",
        "nidc_kmeans_step1_candidates_total",
        // inverted-index layer
        "nidc_index_postings_touched_total",
        "nidc_index_rebuilds_total",
        // forgetting layer
        "nidc_forgetting_docs_inserted_total",
        "nidc_forgetting_docs_expired_total",
        "nidc_fp_residue_clamps_total",
        // parallel layer (registered even when the host never fans out)
        "nidc_parallel_fanouts_total",
        "nidc_parallel_sequential_total",
    ] {
        assert!(
            snap.counter(metric).is_some(),
            "metric {metric} missing from an enabled run"
        );
    }
    // every `*_seconds` histogram here is fed by a timed span
    // (`span!(name, HIST)`); a count of zero means a site lost its timing
    for histogram in [
        "nidc_pipeline_ingest_seconds",
        "nidc_pipeline_advance_seconds",
        "nidc_pipeline_expire_seconds",
        "nidc_pipeline_recluster_seconds",
        "nidc_forgetting_advance_seconds",
        "nidc_kmeans_iteration_seconds",
        "nidc_kmeans_step1_seconds",
        "nidc_index_rebuild_seconds",
        "nidc_sharded_recluster_seconds",
        "nidc_sharded_merge_seconds",
        "nidc_kmeans_iterations",
        "nidc_kmeans_objective_g",
    ] {
        let h = snap
            .histogram(histogram)
            .unwrap_or_else(|| panic!("histogram {histogram} missing from an enabled run"));
        assert!(h.count > 0, "histogram {histogram} never observed");
    }
    // cross-checks that only hold because the run really happened
    // each document event is counted once, by the repository performing it
    assert_eq!(
        snap.counter("nidc_forgetting_docs_inserted_total"),
        Some(37)
    );
    assert_eq!(snap.counter("nidc_forgetting_docs_expired_total"), Some(11));
    assert_eq!(
        snap.counter("nidc_pipeline_reclusters_total"),
        snap.counter("nidc_kmeans_runs_total"),
        "each recluster drives exactly one K-means run"
    );
    let starts = snap.counter("nidc_kmeans_warm_starts_total").unwrap()
        + snap.counter("nidc_kmeans_cold_starts_total").unwrap();
    assert_eq!(Some(starts), snap.counter("nidc_kmeans_runs_total"));
}

/// The lifecycle event stream is held to the same pure-observer contract:
/// running with an active `--events` sink (which also makes the
/// `LineageTracker` serialise every event) must not change a single bit of
/// any clustering result, on both inputs and at all thread counts —
/// and the stream left behind must be non-trivial.
#[test]
fn events_on_off_results_are_bit_identical() {
    let _guard = flag_lock();
    let path = std::env::temp_dir().join(format!(
        "nidc_obs_determinism_events_{}.jsonl",
        std::process::id()
    ));
    for (input, k, stream) in inputs() {
        for threads in THREAD_COUNTS {
            let off = run_pipeline(k, &stream, threads);

            let session = khy2006::obs::EventSession::create(&path).unwrap();
            let on = run_pipeline(k, &stream, threads);
            session.finish().unwrap();

            assert_eq!(
                off, on,
                "the event stream flipped the result on the {input} input, threads {threads}"
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines = text.lines();
            assert_eq!(
                lines.next(),
                Some("{\"schema\":\"nidc-events\",\"v\":1}"),
                "stream must start with the schema header"
            );
            assert!(
                text.contains("\"kind\":\"birth\""),
                "a multi-window run must record births: {text}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Tracing is held to the same pure-observer contract as the metrics
/// recorder: recording spans (begin/end events, ids, parent links,
/// timestamps) across every instrumented layer must not change a single bit
/// of any clustering result — and the trace the run leaves behind must be
/// well-formed (balanced, monotone per thread, parents resolving).
#[test]
fn tracing_on_off_results_are_bit_identical() {
    let _guard = flag_lock();
    for (input, k, stream) in inputs() {
        for threads in THREAD_COUNTS {
            khy2006::obs::trace::set_trace_enabled(false);
            khy2006::obs::trace::clear();
            let off = run_pipeline(k, &stream, threads);

            khy2006::obs::trace::set_trace_enabled(true);
            let on = run_pipeline(k, &stream, threads);
            khy2006::obs::trace::set_trace_enabled(false);
            let events = khy2006::obs::trace::drain();

            let stats = khy2006::obs::trace::validate_events(&events)
                .expect("the traced run leaves a well-formed event stream");
            assert!(stats.spans > 0, "the traced run recorded spans");
            assert_eq!(
                off, on,
                "tracing flipped the result on the {input} input, threads {threads}"
            );
        }
    }
}

/// The counting allocator is held to the same pure-observer contract:
/// tracking every heap allocation must not change a single bit of any
/// clustering result, on both inputs and at all thread counts.
#[test]
fn alloc_tracking_on_off_results_are_bit_identical() {
    let _guard = flag_lock();
    for (input, k, stream) in inputs() {
        for threads in THREAD_COUNTS {
            khy2006::obs::alloc::set_tracking(false);
            let off = run_pipeline(k, &stream, threads);

            khy2006::obs::alloc::set_tracking(true);
            let on = run_pipeline(k, &stream, threads);
            khy2006::obs::alloc::set_tracking(false);

            assert_eq!(
                off, on,
                "alloc tracking flipped the result on the {input} input, threads {threads}"
            );
        }
    }
}

/// Three documents over a three-term vocabulary: a stream small enough
/// that allocation tallies stay cheap to compare.
fn tiny_stream() -> Stream {
    vec![
        (0, 0.0, tf(&[(0, 3.0), (1, 1.0)])),
        (1, 0.4, tf(&[(1, 2.0), (2, 1.0)])),
        (2, 0.8, tf(&[(2, 3.0), (0, 1.0)])),
    ]
}

/// Two ingest → advance → recluster windows over the tiny stream, on one
/// shard.
fn run_tiny(threads: usize) {
    let decay = DecayParams::from_spans(4.0, 8.0).unwrap();
    let config = ClusteringConfig {
        k: 2,
        seed: 7,
        threads,
        ..ClusteringConfig::default()
    };
    let mut pipeline = ShardedPipeline::new(decay, config, 1).unwrap();
    for (id, day, tf) in tiny_stream() {
        pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
    }
    pipeline.advance_to(Timestamp(1.0)).unwrap();
    let _ = pipeline.recluster_incremental().unwrap();
    pipeline.advance_to(Timestamp(2.0)).unwrap();
    let _ = pipeline.recluster_incremental().unwrap();
}

/// For a fixed seed and config, allocation tallies are a pure function of
/// the input — not of the thread count. A one-shard pipeline never fans
/// out, so all four thread counts run the identical sequential code path,
/// and the per-thread tallies (immune to allocations from other test
/// threads) must agree exactly.
#[test]
fn alloc_counts_are_thread_count_invariant() {
    let _guard = flag_lock();
    khy2006::obs::set_enabled(false);
    khy2006::obs::trace::set_trace_enabled(false);
    khy2006::obs::alloc::set_tracking(true);
    // Warm-up: absorb one-time allocations (lazy registration, TLS and
    // OnceLock first touches) before measuring.
    for threads in THREAD_COUNTS {
        run_tiny(threads);
    }
    let deltas: Vec<(u64, u64)> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let (a0, b0) = khy2006::obs::alloc::thread_tallies();
            run_tiny(threads);
            let (a1, b1) = khy2006::obs::alloc::thread_tallies();
            (a1 - a0, b1 - b0)
        })
        .collect();
    khy2006::obs::alloc::set_tracking(false);

    assert!(deltas[0].0 > 0, "the pipeline run allocates");
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!(
            *d, deltas[0],
            "allocation tallies diverged at threads={}",
            THREAD_COUNTS[i]
        );
    }
}

/// 72 documents over four topics, each ≈ 400 terms wide: far above
/// `should_fan_out`'s `len >= 2 * threads` item gate at the thread counts
/// under test.
fn wide_docs() -> Stream {
    (0..72u32)
        .map(|i| {
            let topic = (i % 4) * 1000;
            let mut pairs: Vec<(u32, f64)> = (0..300)
                .map(|j| (topic + j, 1.0 + ((i + j) % 5) as f64))
                .collect();
            // shared background vocabulary, so topics overlap a little
            pairs.extend((0..100).map(|j| (5000 + (j + 7 * i) % 400, 1.0)));
            (u64::from(i), 0.1 * f64::from(i), tf(&pairs))
        })
        .collect()
}

fn wide_decay() -> DecayParams {
    DecayParams::from_spans(7.0, 30.0).unwrap()
}

fn wide_repository() -> Repository {
    let mut repo = Repository::new(wide_decay());
    for (id, day, tf) in wide_docs() {
        repo.insert(DocId(id), Timestamp(day), tf).unwrap();
    }
    repo
}

fn fanouts() -> u64 {
    khy2006::obs::snapshot()
        .counter("nidc_parallel_fanouts_total")
        .unwrap_or(0)
}

/// Step 1 of the extended K-means is sequential by the paper's definition
/// (§4.4): each document is scored against representatives every earlier
/// move of the sweep has updated. On an input far above the item gate, a
/// K-means run — cold or warm — never fans out, and its
/// allocation tallies and result are identical at every thread count.
#[test]
fn kmeans_step1_never_fans_out() {
    let _guard = flag_lock();
    let repo = wide_repository();
    let vecs = DocVectors::build(&repo);
    khy2006::obs::trace::set_trace_enabled(false);
    khy2006::obs::reset();
    khy2006::obs::set_enabled(true);
    khy2006::obs::alloc::set_tracking(true);
    // the probe is live: advancing two shards on two threads does fan out
    let before = fanouts();
    let two_threads = ClusteringConfig {
        threads: 2,
        ..ClusteringConfig::default()
    };
    ShardedPipeline::new(wide_decay(), two_threads, 2)
        .unwrap()
        .advance_to(Timestamp(1.0))
        .unwrap();
    assert!(
        fanouts() > before,
        "nidc_parallel_fanouts_total never moved"
    );

    for k in [4, 3] {
        // a warm start that still has work to do: every third document of
        // a converged clustering is moved to the next slot
        let config = ClusteringConfig {
            k,
            seed: 5,
            ..ClusteringConfig::default()
        };
        let perturbed: BTreeMap<DocId, usize> = cluster_batch(&vecs, &config)
            .unwrap()
            .assignment()
            .into_iter()
            .map(|(d, p)| (d, if d.0 % 3 == 0 { (p + 1) % k } else { p }))
            .collect();
        let touched = postings_touched();
        for (start, initial) in [
            ("cold", InitialState::Random),
            ("warm", InitialState::Assignment(perturbed.clone())),
        ] {
            let run = |threads: usize| {
                let config = ClusteringConfig {
                    threads,
                    ..config.clone()
                };
                let f0 = fanouts();
                let (a0, b0) = khy2006::obs::alloc::thread_tallies();
                let c = cluster_with_initial(&vecs, &config, initial.clone()).unwrap();
                let (a1, b1) = khy2006::obs::alloc::thread_tallies();
                let f1 = fanouts();
                let result = (
                    c.member_lists(),
                    c.outliers().to_vec(),
                    c.g(),
                    c.iterations(),
                );
                (result, (a1 - a0, b1 - b0), f1 - f0)
            };
            // warm-up: absorb one-time allocations (lazy metric registration)
            let _ = run(1);
            let (seq, seq_allocs, _) = run(1);
            let assigned: usize = seq.0.iter().map(Vec::len).sum();
            assert_eq!(assigned + seq.1.len(), 72, "every document accounted for");
            for threads in [1, 2, 4, 7] {
                let (par, allocs, fanned) = run(threads);
                let what = format!("k={k} {start} start, threads={threads}");
                assert_eq!(fanned, 0, "step 1 fanned out at {what}");
                assert_eq!(allocs, seq_allocs, "allocation tallies diverged at {what}");
                assert_eq!(par, seq, "result diverged at {what}");
            }
        }
        assert!(postings_touched() > touched, "k={k} touched no postings");
    }
    khy2006::obs::alloc::set_tracking(false);
    khy2006::obs::set_enabled(false);
}

/// A one-shard window is sequential at every thread count: the shard
/// fan-out needs two shards, and the φ build, the statistics rebuild and
/// K-means step 1 never fan out, even at 72 live documents.
#[test]
fn one_shard_window_never_fans_out() {
    let _guard = flag_lock();
    khy2006::obs::reset();
    khy2006::obs::set_enabled(true);
    let config = ClusteringConfig {
        k: 4,
        seed: 5,
        threads: 2,
        ..ClusteringConfig::default()
    };
    let mut pipeline = ShardedPipeline::new(wide_decay(), config, 1).unwrap();
    for (id, day, tf) in wide_docs() {
        pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
    }
    let before = fanouts();
    pipeline.recluster_incremental().unwrap();
    pipeline.recluster_from_scratch().unwrap();
    let after = fanouts();
    khy2006::obs::set_enabled(false);
    assert_eq!(after, before, "a one-shard window fanned out");
}

/// `nidc_quality_cohesion` is scale-free: φ scales with Pr(d), so the same
/// clusters under another `tdw` have every representative scaled by some
/// c (entries × c, `cr_self` and `ss` × c²) and G by c². The gauge must not
/// move, and it lies in [0, 1].
#[test]
fn cohesion_gauge_is_scale_free() {
    use khy2006::core::{LineageTracker, ObservedCluster};
    let _guard = flag_lock();
    // The representative of a cluster whose members' φ vectors are `phis`
    // over `terms`, every φ scaled by `c`.
    let rep = |terms: [u32; 2], phis: &[[f64; 2]], c: f64| {
        let sum = [0, 1].map(|t| c * phis.iter().map(|p| p[t]).sum::<f64>());
        let ss = phis
            .iter()
            .map(|p| c * c * (p[0] * p[0] + p[1] * p[1]))
            .sum();
        ClusterRep::from_parts(
            vec![(TermId(terms[0]), sum[0]), (TermId(terms[1]), sum[1])],
            phis.len(),
            sum[0] * sum[0] + sum[1] * sum[1],
            ss,
        )
    };
    let members = [vec![DocId(0), DocId(1)], vec![DocId(2), DocId(3), DocId(4)]];
    let cohesion_at = |c: f64| {
        let reps = [
            rep([0, 1], &[[2.0, 0.0], [1.0, 1.0]], c),
            rep([5, 6], &[[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], c),
        ];
        let g: f64 = reps.iter().map(ClusterRep::g_term).sum();
        let observed: Vec<ObservedCluster<'_>> = reps
            .iter()
            .zip(&members)
            .enumerate()
            .map(|(local, (rep, members))| ObservedCluster {
                id: GlobalClusterId { shard: 0, local },
                members,
                rep,
            })
            .collect();
        khy2006::obs::reset();
        khy2006::obs::set_enabled(true);
        LineageTracker::new().observe(&observed, &[], g);
        let gauge = khy2006::obs::snapshot().fgauge("nidc_quality_cohesion");
        khy2006::obs::set_enabled(false);
        gauge.expect("cohesion gauge set")
    };
    let base = cohesion_at(1.0);
    for c in [1e-3, 37.0] {
        let scaled = cohesion_at(c);
        assert!(
            (scaled - base).abs() <= 1e-12 * base.abs(),
            "cohesion moved with scale {c}: {scaled} vs {base}"
        );
        assert!(
            (0.0..=1.0).contains(&scaled),
            "cohesion {scaled} at scale {c}"
        );
    }
    assert!((0.0..=1.0).contains(&base) && base > 0.0, "cohesion {base}");
}

/// One allocation-tracked 3-shard replay of [`stream`], traced or not.
struct TrackedRun {
    /// The process-wide `(allocs, bytes)` counted over the replay.
    global: (u64, u64),
    /// Per top-level pipeline call, in call order, this thread's
    /// `(allocs, bytes)` tallies over the call: what a span around it reads.
    calls: Vec<(u64, u64)>,
    /// The recorded trace (empty when untraced).
    events: Vec<khy2006::obs::trace::TraceEvent>,
}

fn tracked_three_shard_run(traced: bool) -> TrackedRun {
    let config = ClusteringConfig {
        k: 3,
        seed: 7,
        ..ClusteringConfig::default()
    };
    let mut pipeline =
        ShardedPipeline::new(DecayParams::from_spans(4.0, 8.0).unwrap(), config, 3).unwrap();
    let docs = stream();
    let mut calls = Vec::new();
    let mut call = |f: &mut dyn FnMut()| {
        let (a0, b0) = khy2006::obs::alloc::thread_tallies();
        f();
        let (a1, b1) = khy2006::obs::alloc::thread_tallies();
        calls.push((a1 - a0, b1 - b0));
    };
    khy2006::obs::trace::clear();
    khy2006::obs::alloc::set_tracking(true);
    khy2006::obs::trace::set_trace_enabled(traced);
    let before = khy2006::obs::alloc::stats();
    let mut next = 3.0f64;
    for (id, day, tf) in docs {
        while day >= next {
            call(&mut || pipeline.advance_to(Timestamp(next)).unwrap());
            call(&mut || {
                pipeline.recluster_incremental().unwrap();
            });
            next += 3.0;
        }
        let mut tf = Some(tf);
        call(&mut || {
            let tf = tf.take().unwrap();
            pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
        });
    }
    call(&mut || {
        pipeline.recluster_incremental().unwrap();
    });
    let after = khy2006::obs::alloc::stats();
    khy2006::obs::trace::set_trace_enabled(false);
    khy2006::obs::alloc::set_tracking(false);
    let events = khy2006::obs::trace::drain();
    khy2006::obs::trace::validate_events(&events).expect("well-formed");
    TrackedRun {
        global: (
            after.allocs - before.allocs,
            after.bytes_allocated - before.bytes_allocated,
        ),
        calls,
        events,
    }
}

/// The summed `(allocs, bytes)` of the top-level spans, which never
/// overlap.
fn top_level_span_tallies(events: &[khy2006::obs::trace::TraceEvent]) -> (u64, u64) {
    let mut open = BTreeMap::new();
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for ev in events.iter().filter(|e| e.parent == 0) {
        match ev.phase {
            khy2006::obs::trace::TracePhase::Begin => {
                open.insert(ev.id, (ev.allocs, ev.bytes));
            }
            khy2006::obs::trace::TracePhase::End => {
                let (a, b) = open.remove(&ev.id).expect("begun");
                allocs += ev.allocs - a;
                bytes += ev.bytes - b;
            }
        }
    }
    (allocs, bytes)
}

/// Spans and the process-wide totals count allocations in one unit (a
/// `realloc` is an allocation event in both), so over a traced,
/// allocation-tracked 3-shard run the top-level spans — which never overlap
/// — account for no more allocations, and no more bytes, than the process
/// counted over the same scope.
#[test]
fn top_level_span_allocations_fit_in_the_global_totals() {
    let _guard = flag_lock();
    let run = tracked_three_shard_run(true);
    let (allocs, bytes) = top_level_span_tallies(&run.events);
    assert!(allocs > 0, "the spans saw the run allocate");
    assert!(
        allocs <= run.global.0,
        "top-level spans count {allocs} allocations, the process {}",
        run.global.0
    );
    assert!(
        bytes <= run.global.1,
        "top-level spans count {bytes} bytes, the process {}",
        run.global.1
    );
}

/// The trace recorder's own buffers — each thread's event buffer, the
/// shared sink it flushes into, the lane labels — are not the pipeline's
/// allocations: the same tracked 3-shard run counts the same global
/// allocations and bytes, and the same per-call tallies, with tracing on
/// and off, and its top-level spans read exactly what the untraced calls
/// allocated.
#[test]
fn tracing_leaves_every_allocation_tally_as_it_was() {
    let _guard = flag_lock();
    // a first replay takes the process's one-time initialisations (lazy
    // metric handles and the like) out of the two compared below
    tracked_three_shard_run(true);
    let (untraced, traced) = (
        tracked_three_shard_run(false),
        tracked_three_shard_run(true),
    );
    assert!(untraced.events.is_empty());
    assert_eq!(traced.global, untraced.global, "global (allocs, bytes)");
    assert_eq!(traced.calls, untraced.calls, "per-call (allocs, bytes)");
    let sum = untraced
        .calls
        .iter()
        .fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
    assert_eq!(top_level_span_tallies(&traced.events), sum);
}

/// `par_map_mut` attributes worker-thread allocations back to the caller:
/// whatever the thread count, the caller's per-thread tallies grow by at
/// least the closures' own allocations (16 boxed slices of 512 × u64),
/// because fan-out runs fold worker deltas into the calling thread before
/// returning.
#[test]
fn par_map_mut_folds_worker_allocations_into_the_caller() {
    let _guard = flag_lock();
    khy2006::obs::alloc::set_tracking(true);
    for threads in THREAD_COUNTS {
        let mut items: Vec<u64> = (0..16).collect();
        let (a0, b0) = khy2006::obs::alloc::thread_tallies();
        let out = nidc_parallel::par_map_mut(&mut items, threads, |x| vec![*x; 512]);
        let (a1, b1) = khy2006::obs::alloc::thread_tallies();
        assert_eq!(out.len(), 16);
        assert!(
            a1 - a0 >= 16,
            "caller saw only {} allocations at threads={threads}",
            a1 - a0
        );
        assert!(
            b1 - b0 >= 16 * 512 * 8,
            "caller saw only {} bytes at threads={threads}",
            b1 - b0
        );
    }
    khy2006::obs::alloc::set_tracking(false);
}

/// A sharded window is stitched once: `recluster_*` builds and stitches the
/// view, and every `last_merged()` after it borrows that same view, so
/// repeated overview reads never stitch again. The stitch's dot matrix comes
/// from a private postings kernel, not the K-means cluster index, so a
/// stitch moves none of the `nidc_index_*` counters.
#[test]
fn last_merged_borrows_the_window_view_without_restitching() {
    let _guard = flag_lock();
    let config = ClusteringConfig {
        k: 3,
        seed: 7,
        ..ClusteringConfig::default()
    };
    let mut pipeline =
        ShardedPipeline::new(DecayParams::from_spans(4.0, 8.0).unwrap(), config, 3).unwrap();
    for (id, day, tf) in stream() {
        pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
    }
    khy2006::obs::reset();
    khy2006::obs::set_enabled(true);
    let counter = |name: &str| khy2006::obs::snapshot().counter(name).unwrap_or(0);

    let window: *const MergedClustering = pipeline.recluster_incremental().unwrap();
    assert_eq!(
        counter("nidc_stitch_runs_total"),
        1,
        "the window stitches once"
    );
    for _ in 0..3 {
        let view = pipeline.last_merged().expect("a window ran");
        assert!(
            std::ptr::eq(view, window),
            "a read returns the window's view"
        );
        assert!(
            view.stitched().is_some(),
            "stitching defaults on for 3 shards"
        );
    }
    assert_eq!(
        counter("nidc_stitch_runs_total"),
        1,
        "reads must not re-stitch"
    );

    let index_counters = || {
        [
            "nidc_index_postings_touched_total",
            "nidc_index_rebuilds_total",
        ]
        .map(counter)
    };
    let before = index_counters();
    let restitched = pipeline.last_merged().unwrap().stitch(0.0);
    assert_eq!(restitched.non_empty_clusters(), 1);
    assert_eq!(counter("nidc_stitch_runs_total"), 2);
    assert_eq!(
        index_counters(),
        before,
        "the stitch touched the cluster index"
    );
    khy2006::obs::set_enabled(false);
}

/// The window view a sharded pipeline holds between windows is resident
/// memory: `nidc_mem_reps_bytes` counts it on top of the shards' own
/// representatives, and follows it when `set_stitch` drops the stitched
/// clusters.
#[test]
fn held_window_view_is_counted_in_the_reps_gauge() {
    use khy2006::obs::DeepSize;
    let _guard = flag_lock();
    let config = ClusteringConfig {
        k: 3,
        seed: 7,
        ..ClusteringConfig::default()
    };
    let mut pipeline =
        ShardedPipeline::new(DecayParams::from_spans(4.0, 8.0).unwrap(), config, 3).unwrap();
    for (id, day, tf) in stream() {
        pipeline.ingest(DocId(id), Timestamp(day), tf).unwrap();
    }
    khy2006::obs::reset();
    khy2006::obs::set_enabled(true);
    let gauge = || {
        khy2006::obs::snapshot()
            .gauge("nidc_mem_reps_bytes")
            .unwrap_or(0)
    };
    let shard_reps = |p: &ShardedPipeline| -> u64 {
        p.shards().iter().map(|s| s.pipeline().mem_sample().1).sum()
    };

    pipeline.recluster_incremental().unwrap();
    let view = pipeline.last_merged().unwrap();
    assert!(view.stitched().is_some());
    let held = view.deep_size_bytes();
    assert!(held > 0);
    assert_eq!(gauge(), shard_reps(&pipeline) + held);

    pipeline.set_stitch(None).unwrap();
    let unstitched = pipeline.last_merged().unwrap().deep_size_bytes();
    assert!(unstitched < held, "the stitched clusters were counted");
    assert_eq!(gauge(), shard_reps(&pipeline) + unstitched);
    khy2006::obs::set_enabled(false);
}

/// Warm-start bookkeeping survives the recorder: running the same
/// assignment twice through `cluster_with_initial` with metrics on yields
/// the same clustering as with metrics off.
#[test]
fn warm_start_equivalence_with_recorder() {
    let _guard = flag_lock();
    let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
    for (id, day, tf) in stream() {
        repo.insert(DocId(id), Timestamp(day), tf).unwrap();
    }
    let vecs = DocVectors::build(&repo);
    let config = ClusteringConfig {
        k: 3,
        seed: 11,
        ..ClusteringConfig::default()
    };
    let cold = cluster_batch(&vecs, &config).unwrap();
    let prev: BTreeMap<DocId, usize> = cold.assignment();

    khy2006::obs::set_enabled(false);
    let off = cluster_with_initial(&vecs, &config, InitialState::Assignment(prev.clone())).unwrap();
    khy2006::obs::set_enabled(true);
    let on = cluster_with_initial(&vecs, &config, InitialState::Assignment(prev)).unwrap();
    khy2006::obs::set_enabled(false);

    assert_eq!(off.member_lists(), on.member_lists());
    assert_eq!(off.outliers(), on.outliers());
    assert!(off.g() == on.g(), "G must be bitwise equal");
    assert_eq!(off.iterations(), on.iterations());
}
