//! The subcommand implementations.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;

use nidc_core::{cluster_batch, Cluster, ClusteringConfig, ShardedPipeline};
use nidc_corpus::{Corpus, Generator, GeneratorConfig, TopicId};
use nidc_eval::{evaluate, evaluate_sharded, purity, Labeling, MARKING_THRESHOLD};
use nidc_forgetting::{DecayParams, Repository, Timestamp};
use nidc_similarity::{ClusterRep, DocVectors};
use nidc_textproc::{DocId, Pipeline, SparseVector, Vocabulary};

use crate::{CliError, ParsedArgs, Result};

/// Dispatches a parsed command line, writing human output to `out`.
pub fn run<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    // Observability state is process-global. When this invocation configures
    // any observability surface, start from a clean slate so a previous
    // in-process run (the library use case — and an aborted `--trace` run
    // that never reached its session's finish) cannot leak enabled flags,
    // buffered spans, or accumulated values into this one.
    if args.get("metrics").is_some()
        || args.get("trace").is_some()
        || args.flag("trace-summary")
        || args.flag("alloc-stats")
        || args.get("log-level").is_some()
        || (args.command != crate::Command::Inspect && args.get("events").is_some())
    {
        nidc_obs::reset_all();
    }
    // `--log-level off|info|debug`: structured stderr tracing for every
    // subcommand (replaces ad-hoc progress prints).
    if let Some(level) = args.get("log-level") {
        nidc_obs::set_log_level(level.parse().map_err(CliError::Usage)?);
    }
    // `--alloc-stats`: count every allocation through the run and print a
    // one-line summary at the end. Also enriches `--trace-summary` and
    // Chrome traces with per-span allocs/bytes columns.
    let track_allocs = args.flag("alloc-stats");
    if track_allocs {
        nidc_obs::alloc::set_tracking(true);
    }
    let result = match args.command {
        crate::Command::Generate => generate(args, out),
        crate::Command::Stats => stats(args, out),
        crate::Command::Cluster => cluster(args, out),
        crate::Command::Stream => stream(args, out),
        crate::Command::Eval => eval(args, out),
        crate::Command::Inspect => inspect(args, out),
    };
    if track_allocs && result.is_ok() {
        let s = nidc_obs::alloc::stats();
        writeln!(
            out,
            "alloc-stats: allocs={} deallocs={} reallocs={} bytes_allocated={} \
             live_bytes={} peak_live_bytes={}",
            s.allocs, s.deallocs, s.reallocs, s.bytes_allocated, s.live_bytes, s.peak_live_bytes
        )?;
    }
    result
}

/// `--stitch on|off [--stitch-threshold T]`: the per-window stitching pass
/// over a sharded clustering. `None` means stitching is disabled;
/// `Some(threshold)` enables it (the default, at
/// [`nidc_core::DEFAULT_STITCH_THRESHOLD`]). A single shard is never
/// stitched regardless — the pipeline gates on `shards > 1`.
fn stitch_from(args: &ParsedArgs) -> Result<Option<f64>> {
    let on = match args.get("stitch") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--stitch must be 'on' or 'off', got '{other}'"
            )))
        }
    };
    if !on {
        return Ok(None);
    }
    let tau = args.get_f64("stitch-threshold", nidc_core::DEFAULT_STITCH_THRESHOLD)?;
    if !tau.is_finite() || tau < 0.0 {
        return Err(CliError::Usage(
            "--stitch-threshold must be a finite non-negative number".into(),
        ));
    }
    Ok(Some(tau))
}

/// `--metrics FILE [--metrics-format jsonl|prom]`: builds the snapshot
/// exporter (creating it enables global metric recording). `None` when no
/// `--metrics` was given — the instrumentation then costs one relaxed
/// atomic load per site.
fn metrics_exporter(args: &ParsedArgs) -> Result<Option<nidc_obs::MetricsExporter>> {
    let Some(path) = args.get("metrics") else {
        return Ok(None);
    };
    let format = match args.get("metrics-format") {
        None => nidc_obs::MetricsFormat::default(),
        Some(s) => s.parse().map_err(CliError::Usage)?,
    };
    Ok(Some(nidc_obs::MetricsExporter::create(path, format)?))
}

/// `--events FILE`: opens the structured lifecycle-event stream (creating
/// it enables global event recording, so the pipeline's `LineageTracker`
/// serialises births, deaths, splits, merges, drift and per-document moves
/// to FILE as JSON lines). `None` without `--events` — emission then costs
/// one relaxed load per window. Events never alter clustering results.
fn events_session(args: &ParsedArgs) -> Result<Option<nidc_obs::EventSession>> {
    let Some(path) = args.get("events") else {
        return Ok(None);
    };
    Ok(Some(nidc_obs::EventSession::create(path)?))
}

/// `--trace FILE [--trace-summary]`: starts a span-recording session that
/// writes Chrome trace-event JSON to FILE and/or prints a hierarchical
/// profile (per-span call count, total/self time) when the command finishes.
/// `None` when neither was requested — spans then cost one relaxed load.
fn trace_session(args: &ParsedArgs) -> Result<Option<nidc_obs::TraceSession>> {
    let path = args.get("trace").map(std::path::PathBuf::from);
    Ok(nidc_obs::TraceSession::start(
        path,
        args.flag("trace-summary"),
    )?)
}

fn load_corpus(args: &ParsedArgs) -> Result<Corpus> {
    let path = args.require("input")?;
    let file = File::open(path)?;
    Corpus::load_jsonl(file).map_err(CliError::Io)
}

/// Tokenises a corpus with the raw pipeline (synthetic corpora are already
/// clean tokens; real text should be pre-processed upstream).
fn tokenise(corpus: &Corpus) -> (Vocabulary, Vec<SparseVector>) {
    let pipeline = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    let tfs = corpus
        .articles()
        .iter()
        .map(|a| pipeline.analyze(&a.text, &mut vocab).to_sparse())
        .collect();
    (vocab, tfs)
}

fn decay_from(args: &ParsedArgs, default_beta: f64, default_gamma: f64) -> Result<DecayParams> {
    let beta = args.get_f64("beta", default_beta)?;
    let gamma = args.get_f64("gamma", default_gamma)?;
    DecayParams::from_spans(beta, gamma)
        .map_err(|e| CliError::Usage(format!("invalid decay parameters: {e}")))
}

// ---------------------------------------------------------------- generate

fn generate<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let path = args.require("out")?;
    let scale = args.get_f64("scale", 1.0)?;
    let seed = args.get_u64("seed", 19980104)?;
    let corpus = Generator::new(GeneratorConfig {
        seed,
        scale,
        ..GeneratorConfig::default()
    })
    .generate();
    corpus.save_jsonl(File::create(path)?)?;
    writeln!(
        out,
        "wrote {} articles / {} topics to {path}",
        corpus.len(),
        corpus.topics().len()
    )?;
    Ok(())
}

// ------------------------------------------------------------------- stats

fn stats<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let corpus = load_corpus(args)?;
    writeln!(
        out,
        "{} articles, {} topics, day range 0..{:.1}",
        corpus.len(),
        corpus.topics().len(),
        corpus.articles().last().map_or(0.0, |a| a.day)
    )?;
    for w in corpus.standard_windows() {
        let s = corpus.window_stats(&w);
        writeln!(
            out,
            "{:<11} docs {:>5}  topics {:>3}  sizes min {} / med {:.1} / mean {:.2} / max {}",
            w.label,
            s.num_docs,
            s.num_topics,
            s.min_topic_size,
            s.median_topic_size,
            s.mean_topic_size,
            s.max_topic_size
        )?;
    }
    Ok(())
}

// ----------------------------------------------------------------- cluster

/// Renders one cluster as an overview line.
fn overview_line(
    members: &[DocId],
    rep: &ClusterRep,
    vocab: &Vocabulary,
    corpus: &Corpus,
    topic_of: &BTreeMap<DocId, TopicId>,
) -> String {
    let keywords: Vec<String> = rep
        .top_terms(5)
        .into_iter()
        .filter_map(|(t, _)| vocab.term(t).map(str::to_owned))
        .collect();
    let mut counts: BTreeMap<TopicId, usize> = BTreeMap::new();
    for d in members {
        if let Some(&t) = topic_of.get(d) {
            *counts.entry(t).or_insert(0) += 1;
        }
    }
    let label = counts
        .iter()
        .max_by_key(|(_, &n)| n)
        .map(|(t, &n)| {
            let name = corpus.topic_name(*t).unwrap_or("?");
            format!("{name} {n}/{}", members.len())
        })
        .unwrap_or_default();
    format!(
        "{:>4} docs  avg_sim {:.2e}  [{label}]  {}",
        members.len(),
        rep.avg_sim(),
        keywords.join(" ")
    )
}

fn cluster<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let corpus = load_corpus(args)?;
    let (vocab, tfs) = tokenise(&corpus);
    let from = args.get_f64("from", 0.0)?;
    let to = args.get_f64("to", corpus.articles().last().map_or(0.0, |a| a.day) + 0.01)?;
    let decay = decay_from(args, 7.0, 30.0)?;
    let config = ClusteringConfig {
        k: args.get_usize("k", 24)?,
        seed: args.get_u64("seed", 42)?,
        ..ClusteringConfig::default()
    };
    let top = args.get_usize("top", 10)?;
    let mut exporter = metrics_exporter(args)?;
    let events = events_session(args)?;
    let trace = trace_session(args)?;

    let mut repo = Repository::new(decay);
    let mut topic_of = BTreeMap::new();
    for (a, tf) in corpus.articles().iter().zip(&tfs) {
        if a.day >= from && a.day < to {
            repo.insert(DocId(a.id), Timestamp(a.day), tf.clone())
                .map_err(|e| CliError::Other(e.to_string()))?;
            topic_of.insert(DocId(a.id), a.topic);
        }
    }
    if repo.is_empty() {
        return Err(CliError::Other(format!(
            "no articles in day range {from}..{to}"
        )));
    }
    repo.advance_to(Timestamp(to))
        .map_err(|e| CliError::Other(e.to_string()))?;
    let vecs = DocVectors::build(&repo);
    let clustering = cluster_batch(&vecs, &config).map_err(|e| CliError::Other(e.to_string()))?;
    if let Some(m) = exporter.as_mut() {
        m.record_window(&[("from", from), ("to", to)])?;
        m.finish()?;
    }
    if let Some(e) = events {
        // A one-shot clustering has no previous window, so the stream is a
        // single window of births — still useful as a machine-readable
        // cluster inventory, and inspectable with `nidc inspect`.
        nidc_core::LineageTracker::new().observe_clustering(&clustering);
        e.finish()?;
    }
    if let Some(s) = trace {
        s.finish(out)?;
    }

    if args.flag("json") {
        let assignment: BTreeMap<String, usize> = clustering
            .assignment()
            .into_iter()
            .map(|(d, p)| (d.0.to_string(), p))
            .collect();
        let payload = serde_json::json!({
            "days": [from, to],
            "k": config.k,
            "g": clustering.g(),
            "iterations": clustering.iterations(),
            "outliers": clustering.outliers().iter().map(|d| d.0).collect::<Vec<_>>(),
            "assignment": assignment,
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&payload)?)?;
        return Ok(());
    }

    writeln!(
        out,
        "clustered {} docs (days {from:.1}..{to:.1}) into {} clusters, G = {:.3e}, {} outliers\n",
        repo.len(),
        clustering.non_empty_clusters(),
        clustering.g(),
        clustering.outliers().len()
    )?;
    let mut ranked: Vec<&Cluster> = clustering
        .clusters()
        .iter()
        .filter(|c| !c.is_empty())
        .collect();
    ranked.sort_by(|a, b| {
        b.rep()
            .g_term()
            .partial_cmp(&a.rep().g_term())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (i, c) in ranked.iter().take(top).enumerate() {
        writeln!(
            out,
            "{:>2}. {}",
            i + 1,
            overview_line(c.members(), c.rep(), &vocab, &corpus, &topic_of)
        )?;
    }
    Ok(())
}

// ------------------------------------------------------------------ stream

fn stream<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let corpus = load_corpus(args)?;
    let (vocab, tfs) = tokenise(&corpus);
    let decay = decay_from(args, 7.0, 21.0)?;
    let every = args.get_f64("every", 5.0)?;
    let config = ClusteringConfig {
        k: args.get_usize("k", 16)?,
        seed: args.get_u64("seed", 42)?,
        threads: args.get_usize("threads", 0)?,
        ..ClusteringConfig::default()
    };
    let mut exporter = metrics_exporter(args)?;
    let events = events_session(args)?;
    let trace = trace_session(args)?;
    // --shards N: independent stream shards behind the deterministic
    // router (1 = today's single-pipeline behaviour, bit for bit).
    let shards = args.get_usize("shards", 1)?;
    // --state FILE: resume from a previous run's checkpoint, if present,
    // and write a new checkpoint when the stream is exhausted. A sharded
    // checkpoint carries its own topology, which wins over --shards;
    // legacy (unsharded) checkpoints load as one shard.
    let state_path = args.get("state").map(str::to_owned);
    let mut pipeline = match &state_path {
        Some(p) if std::path::Path::new(p).exists() => {
            let restored = ShardedPipeline::load_json(File::open(p)?)?;
            if restored.num_shards() != shards && args.get("shards").is_some() {
                writeln!(
                    out,
                    "note: checkpoint topology ({} shards) overrides --shards {shards}",
                    restored.num_shards()
                )?;
            }
            writeln!(
                out,
                "resumed from {p}: {} live docs at {} across {} shard(s)",
                restored.num_docs(),
                restored.now(),
                restored.num_shards()
            )?;
            restored
        }
        _ => ShardedPipeline::new(decay, config, shards)
            .map_err(|e| CliError::Usage(e.to_string()))?,
    };
    // --stitch on|off / --stitch-threshold: applies to fresh and restored
    // pipelines alike (stitching shapes each window's view, not pipeline
    // state).
    pipeline
        .set_stitch(stitch_from(args)?)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let resume_day = pipeline.now().days();
    let mut topic_of = BTreeMap::new();
    let mut next_report = (resume_day / every).floor() * every + every;
    // One line per window from the view the re-clustering left behind.
    let report = |pipeline: &ShardedPipeline,
                  day: f64,
                  out: &mut W,
                  topic_of: &BTreeMap<DocId, TopicId>|
     -> Result<()> {
        let Some(clustering) = pipeline.last_merged() else {
            return Ok(());
        };
        // Rank the stitched clusters when the stitch ran (shards > 1,
        // --stitch on), so a topic's cross-shard fragments take one slot,
        // not several; the per-shard clusters otherwise.
        let mut ranked: Vec<(&[DocId], &ClusterRep)> = match clustering.stitched() {
            Some(s) => s
                .clusters()
                .iter()
                .map(|c| (c.members(), c.rep()))
                .collect(),
            None => clustering
                .shards()
                .iter()
                .flat_map(|c| c.clusters())
                .map(|c| (c.members(), c.rep()))
                .collect(),
        };
        ranked.retain(|(members, _)| members.len() >= 2);
        ranked.sort_by(|a, b| {
            b.1.g_term()
                .partial_cmp(&a.1.g_term())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // When the stitch ran, show how many topics survive after
        // cross-shard fragments are reunited.
        let stitched_note = clustering
            .stitched()
            .map(|s| {
                format!(
                    " | stitched: {} clusters ({} merges)",
                    s.non_empty_clusters(),
                    s.merges()
                )
            })
            .unwrap_or_default();
        writeln!(
            out,
            "day {:>5.1}  {:>5} live docs | top: {}{stitched_note}",
            day,
            pipeline.num_docs(),
            ranked
                .iter()
                .take(3)
                .map(|(members, rep)| overview_line(members, rep, &vocab, &corpus, topic_of))
                .collect::<Vec<_>>()
                .join(" || ")
        )?;
        Ok(())
    };
    for (a, tf) in corpus.articles().iter().zip(&tfs) {
        if a.day <= resume_day {
            continue; // already processed before the checkpoint
        }
        while a.day >= next_report {
            pipeline
                .advance_to(Timestamp(next_report))
                .map_err(|e| CliError::Other(e.to_string()))?;
            pipeline
                .recluster_incremental()
                .map_err(|e| CliError::Other(e.to_string()))?;
            report(&pipeline, next_report, out, &topic_of)?;
            if let Some(m) = exporter.as_mut() {
                m.record_window(&[("day", next_report), ("docs", pipeline.num_docs() as f64)])?;
            }
            next_report += every;
        }
        topic_of.insert(DocId(a.id), a.topic);
        pipeline
            .ingest(DocId(a.id), Timestamp(a.day), tf.clone())
            .map_err(|e| CliError::Other(e.to_string()))?;
    }
    pipeline
        .recluster_incremental()
        .map_err(|e| CliError::Other(e.to_string()))?;
    report(&pipeline, pipeline.now().days(), out, &topic_of)?;
    if let Some(m) = exporter.as_mut() {
        m.record_window(&[
            ("day", pipeline.now().days()),
            ("docs", pipeline.num_docs() as f64),
        ])?;
        m.finish()?;
    }
    if let Some(e) = events {
        e.finish()?;
    }
    if let Some(s) = trace {
        s.finish(out)?;
    }
    if let Some(p) = &state_path {
        // serialize first, then swap the file in whole: a kill mid-save must
        // not truncate the only checkpoint
        let mut checkpoint = Vec::new();
        pipeline.save_json(&mut checkpoint)?;
        nidc_obs::write_atomic(p, &checkpoint)?;
        writeln!(out, "checkpoint written to {p}")?;
    }
    Ok(())
}

// -------------------------------------------------------------------- eval

fn eval<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let corpus = load_corpus(args)?;
    let (_, tfs) = tokenise(&corpus);
    let window_no = args.get_usize("window", 0)?;
    if !(1..=6).contains(&window_no) {
        return Err(CliError::Usage("--window must be 1..6".into()));
    }
    let windows = corpus.standard_windows();
    let w = &windows[window_no - 1];
    let decay = decay_from(args, 7.0, 30.0)?;
    let config = ClusteringConfig {
        k: args.get_usize("k", 24)?,
        seed: args.get_u64("seed", 42)?,
        threads: args.get_usize("threads", 0)?,
        ..ClusteringConfig::default()
    };
    let mut exporter = metrics_exporter(args)?;
    let trace = trace_session(args)?;
    let labels: Labeling<u32> = w
        .article_indices
        .iter()
        .map(|&i| {
            let a = &corpus.articles()[i];
            (DocId(a.id), a.topic.0)
        })
        .collect();
    // --shards N: score the window as a sharded deployment would see it —
    // merged (fragmented), stitched, and per-shard figures side by side.
    let shards = args.get_usize("shards", 1)?;
    if shards > 1 {
        let mut pipeline = ShardedPipeline::new(decay, config, shards)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        pipeline
            .set_stitch(stitch_from(args)?)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        for &i in &w.article_indices {
            let a = &corpus.articles()[i];
            pipeline
                .ingest(DocId(a.id), Timestamp(a.day), tfs[i].clone())
                .map_err(|e| CliError::Other(e.to_string()))?;
        }
        pipeline
            .advance_to(Timestamp(w.end))
            .map_err(|e| CliError::Other(e.to_string()))?;
        let merged = pipeline
            .recluster_from_scratch()
            .map_err(|e| CliError::Other(e.to_string()))?;
        if let Some(m) = exporter.as_mut() {
            m.record_window(&[("window", window_no as f64), ("shards", shards as f64)])?;
            m.finish()?;
        }
        if let Some(s) = trace {
            s.finish(out)?;
        }
        let per_shard: Vec<Vec<Vec<DocId>>> =
            merged.shards().iter().map(|c| c.member_lists()).collect();
        let stitched_lists = merged.stitched().map(|s| s.member_lists());
        let e = evaluate_sharded(
            &per_shard,
            stitched_lists.as_deref(),
            &labels,
            MARKING_THRESHOLD,
        );
        writeln!(
            out,
            "window {} ({}): {} docs across {} shards",
            window_no,
            w.label,
            w.len(),
            shards
        )?;
        writeln!(
            out,
            "merged   micro F1 {:.3}   macro F1 {:.3}   outliers {}",
            e.merged.micro_f1,
            e.merged.macro_f1,
            merged.outliers().len()
        )?;
        if let (Some(se), Some(sv)) = (&e.stitched, merged.stitched()) {
            writeln!(
                out,
                "stitched micro F1 {:.3}   macro F1 {:.3}   clusters {}   merges {}   threshold {}",
                se.micro_f1,
                se.macro_f1,
                sv.non_empty_clusters(),
                sv.merges(),
                sv.threshold()
            )?;
        }
        for (s, pe) in e.per_shard.iter().enumerate() {
            writeln!(
                out,
                "shard {s}  micro F1 {:.3}   macro F1 {:.3}   detected topics {}",
                pe.micro_f1,
                pe.macro_f1,
                pe.detected_topics.len()
            )?;
        }
        return Ok(());
    }
    let mut repo = Repository::new(decay);
    for &i in &w.article_indices {
        let a = &corpus.articles()[i];
        repo.insert(DocId(a.id), Timestamp(a.day), tfs[i].clone())
            .map_err(|e| CliError::Other(e.to_string()))?;
    }
    repo.advance_to(Timestamp(w.end))
        .map_err(|e| CliError::Other(e.to_string()))?;
    let vecs = DocVectors::build(&repo);
    let clustering = cluster_batch(&vecs, &config).map_err(|e| CliError::Other(e.to_string()))?;
    if let Some(m) = exporter.as_mut() {
        m.record_window(&[("window", window_no as f64)])?;
        m.finish()?;
    }
    if let Some(s) = trace {
        s.finish(out)?;
    }
    let e = evaluate(&clustering.member_lists(), &labels, MARKING_THRESHOLD);
    writeln!(out, "window {} ({}): {} docs", window_no, w.label, w.len())?;
    writeln!(
        out,
        "micro F1 {:.3}   macro F1 {:.3}   purity {:.3}   detected topics {}   outliers {}",
        e.micro_f1,
        e.macro_f1,
        purity(&clustering.member_lists(), &labels),
        e.detected_topics.len(),
        clustering.outliers().len()
    )?;
    Ok(())
}

// ----------------------------------------------------------------- inspect

/// Everything `inspect` accumulates about one lineage while scanning the
/// event stream.
struct LineageTimeline {
    born: u64,
    /// `None` for a birth, `Some(parent)` for a split.
    parent: Option<u64>,
    /// `(window, cause)` once dead.
    death: Option<(u64, String)>,
    /// Member count at each window the lineage reported in.
    sizes: Vec<usize>,
    /// Drift at each continuation (empty for single-window lineages).
    drifts: Vec<f64>,
}

impl LineageTimeline {
    fn last_window(&self) -> u64 {
        match self.death {
            Some((w, _)) => w,
            None => self.born + self.sizes.len().max(1) as u64 - 1,
        }
    }

    fn lifetime(&self) -> u64 {
        self.last_window() - self.born + 1
    }
}

/// Renders `values` as a fixed-height Unicode sparkline, scaled to `max`
/// (values at or above `max` hit the tallest bar; a zero `max` flatlines).
fn sparkline(values: &[f64], max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                return BARS[0];
            }
            let level = ((v / max).clamp(0.0, 1.0) * 7.0).round() as usize;
            BARS[level.min(7)]
        })
        .collect()
}

fn inspect_field(v: &serde_json::Value, name: &str, lineno: usize) -> Result<u64> {
    v.get(name).and_then(|f| f.as_u64()).ok_or_else(|| {
        CliError::Other(format!(
            "line {lineno}: missing or non-integer field \"{name}\""
        ))
    })
}

/// `nidc inspect --events FILE [--top N]`: reads a lifecycle event stream
/// (the `--events` output of `stream`/`cluster`) and renders one timeline
/// row per lineage — birth window, lifetime, size trajectory, drift
/// sparkline, and how it ended.
fn inspect<W: Write>(args: &ParsedArgs, out: &mut W) -> Result<()> {
    let path = args.require("events")?;
    let top = args.get_usize("top", 24)?;
    let text = std::fs::read_to_string(path)?;
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    let (_, header) = lines
        .next()
        .ok_or_else(|| CliError::Other(format!("{path}: empty event stream")))?;
    let hv: serde_json::Value = serde_json::from_str(header)?;
    if hv.get("schema").and_then(|s| s.as_str()) != Some("nidc-events") {
        return Err(CliError::Other(format!(
            "{path}: not an nidc-events stream"
        )));
    }
    let version = hv.get("v").and_then(|s| s.as_u64()).unwrap_or(0);
    if version != u64::from(nidc_obs::EVENTS_SCHEMA_VERSION) {
        return Err(CliError::Other(format!(
            "{path}: schema version {version} is not the supported version {}",
            nidc_obs::EVENTS_SCHEMA_VERSION
        )));
    }

    let mut timelines: BTreeMap<u64, LineageTimeline> = BTreeMap::new();
    let mut last_window = 0u64;
    let (mut splits, mut merges, mut moved, mut outliered) = (0u64, 0u64, 0u64, 0u64);
    for (idx, line) in lines {
        let lineno = idx + 1;
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| CliError::Other(format!("line {lineno}: invalid JSON: {e}")))?;
        let kind = v.get("kind").and_then(|k| k.as_str()).unwrap_or("");
        let window = inspect_field(&v, "window", lineno)?;
        last_window = last_window.max(window);
        match kind {
            "birth" | "split" => {
                let lineage = inspect_field(&v, "lineage", lineno)?;
                let parent = match kind {
                    "split" => {
                        splits += 1;
                        Some(inspect_field(&v, "parent", lineno)?)
                    }
                    _ => None,
                };
                timelines.insert(
                    lineage,
                    LineageTimeline {
                        born: window,
                        parent,
                        death: None,
                        sizes: vec![inspect_field(&v, "size", lineno)? as usize],
                        drifts: Vec::new(),
                    },
                );
            }
            "continuation" => {
                let lineage = inspect_field(&v, "lineage", lineno)?;
                let size = inspect_field(&v, "size", lineno)? as usize;
                let drift = v.get("drift").and_then(|d| d.as_f64()).unwrap_or(0.0);
                if let Some(t) = timelines.get_mut(&lineage) {
                    t.sizes.push(size);
                    t.drifts.push(drift);
                }
            }
            "death" => {
                let lineage = inspect_field(&v, "lineage", lineno)?;
                let cause = v
                    .get("cause")
                    .and_then(|c| c.as_str())
                    .unwrap_or("?")
                    .to_owned();
                if let Some(t) = timelines.get_mut(&lineage) {
                    t.death = Some((window, cause));
                }
            }
            "merge" => merges += 1,
            "moved" => moved += 1,
            "outliered" => outliered += 1,
            // Additive schema: unknown kinds are skipped, not an error.
            _ => {}
        }
    }

    let alive = timelines.values().filter(|t| t.death.is_none()).count();
    writeln!(
        out,
        "{}: {} window(s), {} lineages ({} alive), {} splits, {} merges, \
         {} docs moved, {} outliered",
        path,
        last_window + 1,
        timelines.len(),
        alive,
        splits,
        merges,
        moved,
        outliered
    )?;

    // Longest-lived lineages, rendered in birth order.
    let mut ranked: Vec<(&u64, &LineageTimeline)> = timelines.iter().collect();
    ranked.sort_by(|a, b| b.1.lifetime().cmp(&a.1.lifetime()).then(a.0.cmp(b.0)));
    ranked.truncate(top);
    ranked.sort_by_key(|(id, t)| (t.born, **id));
    if ranked.len() < timelines.len() {
        writeln!(
            out,
            "(showing the {} longest-lived of {} lineages — raise with --top)",
            ranked.len(),
            timelines.len()
        )?;
    }
    let drift_ceiling = timelines
        .values()
        .flat_map(|t| t.drifts.iter().copied())
        .fold(0.0f64, f64::max);
    writeln!(
        out,
        "\nlineage   windows          fate              size          trajectory / drift (▁..█ = 0..{drift_ceiling:.3})"
    )?;
    for (id, t) in ranked {
        let fate = match &t.death {
            Some((_, cause)) => cause.clone(),
            None => "alive".to_owned(),
        };
        let origin = match t.parent {
            Some(p) => format!("  (split of #{p})"),
            None => String::new(),
        };
        let first = t.sizes.first().copied().unwrap_or(0);
        let last = t.sizes.last().copied().unwrap_or(0);
        let peak = t.sizes.iter().copied().max().unwrap_or(0) as f64;
        let size_spark = sparkline(&t.sizes.iter().map(|&s| s as f64).collect::<Vec<_>>(), peak);
        let drift_spark = sparkline(&t.drifts, drift_ceiling);
        writeln!(
            out,
            "#{:<8} w{:<3}–w{:<3}        {:<10}        {:>4}→{:<4}     {}  {}{origin}",
            id,
            t.born,
            t.last_window(),
            fate,
            first,
            last,
            size_spark,
            drift_spark
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nidc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn generate_corpus(name: &str) -> String {
        let path = temp_path(name).to_string_lossy().into_owned();
        let args =
            ParsedArgs::parse(["generate", "--out", &path, "--scale", "0.05", "--seed", "3"])
                .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        path
    }

    #[test]
    fn generate_then_stats() {
        let path = generate_corpus("g1.jsonl");
        let args = ParsedArgs::parse(["stats", "--input", &path]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("articles"));
        assert!(text.contains("Jan4-Feb2"));
    }

    #[test]
    fn cluster_produces_overview() {
        let path = generate_corpus("g2.jsonl");
        let args = ParsedArgs::parse([
            "cluster", "--input", &path, "--k", "8", "--from", "0", "--to", "30",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("clustered"), "{text}");
        assert!(text.contains("docs"));
    }

    #[test]
    fn cluster_json_mode_is_valid_json() {
        let path = generate_corpus("g3.jsonl");
        let args = ParsedArgs::parse([
            "cluster", "--input", &path, "--k", "6", "--to", "30", "--json",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&out).unwrap();
        assert!(v["g"].as_f64().is_some());
        assert!(v["assignment"].as_object().is_some());
    }

    #[test]
    fn eval_reports_scores() {
        let path = generate_corpus("g4.jsonl");
        let args =
            ParsedArgs::parse(["eval", "--input", &path, "--window", "1", "--k", "8"]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("micro F1"));
    }

    #[test]
    fn stream_reports_periodically() {
        let path = generate_corpus("g5.jsonl");
        let args =
            ParsedArgs::parse(["stream", "--input", &path, "--every", "30", "--k", "8"]).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() >= 5, "{text}");
        assert!(text.contains("live docs"));
    }

    #[test]
    fn stream_checkpoint_and_resume() {
        let path = generate_corpus("g8.jsonl");
        let state = temp_path("g8.state.json");
        let _ = std::fs::remove_file(&state);
        let state_s = state.to_string_lossy().into_owned();
        let args = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "60", "--k", "6", "--state", &state_s,
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        assert!(state.exists(), "checkpoint file not written");
        // resuming runs cleanly and reports the resume
        let mut out2 = Vec::new();
        run(&args, &mut out2).unwrap();
        let text = String::from_utf8(out2).unwrap();
        assert!(text.contains("resumed from"), "{text}");
    }

    #[test]
    fn stream_with_shards_reports_periodically() {
        let path = generate_corpus("g9.jsonl");
        let args = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "30", "--k", "8", "--shards", "3",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("live docs"), "{text}");
    }

    #[test]
    fn sharded_stream_reports_stitched_clusters() {
        let path = generate_corpus("g12.jsonl");
        let args = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "30", "--k", "8", "--shards", "3",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // stitching defaults to on for shards > 1
        assert!(text.contains("stitched:"), "{text}");
        assert!(text.contains("merges)"), "{text}");
    }

    #[test]
    fn stitch_off_suppresses_the_stitched_view() {
        let path = generate_corpus("g13.jsonl");
        let args = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "30", "--k", "8", "--shards", "3", "--stitch",
            "off",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("stitched:"), "{text}");
    }

    #[test]
    fn bad_stitch_value_is_usage_error() {
        let path = generate_corpus("g14.jsonl");
        for bad in [
            ["--stitch", "maybe"],
            ["--stitch-threshold", "-1"],
            ["--stitch-threshold", "inf"],
        ] {
            let mut argv = vec!["stream", "--input", &path, "--every", "60"];
            argv.extend(bad);
            let args = ParsedArgs::parse(argv).unwrap();
            let mut out = Vec::new();
            assert!(
                matches!(run(&args, &mut out), Err(CliError::Usage(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn eval_with_shards_reports_merged_stitched_and_per_shard_scores() {
        let path = generate_corpus("g15.jsonl");
        let args = ParsedArgs::parse([
            "eval", "--input", &path, "--window", "1", "--k", "8", "--shards", "3",
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("across 3 shards"), "{text}");
        assert!(text.contains("merged   micro F1"), "{text}");
        assert!(text.contains("stitched micro F1"), "{text}");
        assert!(text.contains("shard 0"), "{text}");
        assert!(text.contains("shard 2"), "{text}");
    }

    #[test]
    fn stream_zero_shards_is_usage_error() {
        let path = generate_corpus("g10.jsonl");
        let args =
            ParsedArgs::parse(["stream", "--input", &path, "--every", "60", "--shards", "0"])
                .unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn sharded_stream_checkpoint_resumes_with_checkpoint_topology() {
        let path = generate_corpus("g11.jsonl");
        let state = temp_path("g11.state.json");
        let _ = std::fs::remove_file(&state);
        let state_s = state.to_string_lossy().into_owned();
        let args = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "60", "--k", "6", "--shards", "2", "--state",
            &state_s,
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        assert!(state.exists(), "checkpoint file not written");
        // resume with a conflicting --shards: the checkpoint topology wins
        let args2 = ParsedArgs::parse([
            "stream", "--input", &path, "--every", "60", "--k", "6", "--shards", "5", "--state",
            &state_s,
        ])
        .unwrap();
        let mut out2 = Vec::new();
        run(&args2, &mut out2).unwrap();
        let text = String::from_utf8(out2).unwrap();
        assert!(text.contains("across 2 shard(s)"), "{text}");
        assert!(text.contains("overrides --shards 5"), "{text}");
    }

    #[test]
    fn missing_input_file_is_io_error() {
        let args = ParsedArgs::parse(["stats", "--input", "/nonexistent/x.jsonl"]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Io(_))));
    }

    #[test]
    fn empty_day_range_is_reported() {
        let path = generate_corpus("g6.jsonl");
        let args = ParsedArgs::parse([
            "cluster", "--input", &path, "--from", "9000", "--to", "9001",
        ])
        .unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Other(_))));
    }

    #[test]
    fn eval_window_bounds_checked() {
        let path = generate_corpus("g7.jsonl");
        let args = ParsedArgs::parse(["eval", "--input", &path, "--window", "9"]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Usage(_))));
    }
}
