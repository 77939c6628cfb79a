//! Library backing the `nidc` command-line tool: argument parsing and the
//! subcommand implementations, separated from `main.rs` so they are unit
//! testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Command, ParsedArgs};

/// CLI errors: usage problems and I/O or clustering failures.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be parsed; the string is the usage hint.
    Usage(String),
    /// An I/O failure.
    Io(std::io::Error),
    /// A library-level failure.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Other(format!("json error: {e}"))
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// Top-level usage text.
pub const USAGE: &str = "\
nidc — novelty-based incremental document clustering (Khy et al., ICDE 2006)

USAGE:
    nidc <command> [options]

COMMANDS:
    generate   generate a synthetic TDT2-like corpus as JSONL
               --out FILE [--scale F=1.0] [--seed N]
    stats      per-window corpus statistics (Table 2 layout)
               --input FILE
    cluster    cluster a time range and print the hot-topic overview
               --input FILE [--k N=24] [--beta DAYS=7] [--gamma DAYS=30]
               [--from DAY=0] [--to DAY=end] [--top N=10] [--json]
               [--seed N] [--metrics FILE] [--events FILE]
    stream     replay the corpus incrementally, printing overviews
               --input FILE [--k N=16] [--beta DAYS=7] [--gamma DAYS=21]
               [--every DAYS=5] [--state FILE] [--shards N=1]
               [--stitch on|off] [--stitch-threshold T]
               [--threads N=0] [--metrics FILE] [--events FILE]
               (--state: resume from / checkpoint to a pipeline state file)
    eval       cluster a window and score it against the labels
               --input FILE --window N(1-6) [--k N=24] [--beta DAYS=7]
               [--gamma DAYS=30] [--seed N] [--threads N=0]
               [--shards N=1] [--stitch on|off] [--stitch-threshold T]
               [--metrics FILE]
    inspect    render per-lineage timelines from an event stream
               --events FILE [--top N=24]

--threads N (stream, eval): how many shards run at once (0 = all hardware
threads, 1 = sequential). Only --shards > 1 fans out; everything within a
shard runs sequentially. Results are identical for any value.
--shards N (stream, eval): split the stream over N independent pipelines
behind a deterministic DocId router, clustered in parallel and merged once
per window. N=1 (default) is the single pipeline, bit for bit; any fixed N
is bit-identical across thread counts. Checkpoints store the topology — on
resume the checkpoint's shard count wins over --shards.
--stitch on|off (stream, eval): the per-window stitching pass that reunites
cross-shard fragments of one topic (group-average agglomeration over the
merged representatives at a normalized cr_sim threshold). Default on; a
single shard has nothing to stitch, so it only takes effect with
--shards > 1. --stitch-threshold T sets the threshold (default 0.2;
higher = merge less).
--metrics FILE: record pipeline/K-means/index instrumentation and export
snapshots to FILE — per window for `stream`, once at the end for `cluster`
and `eval`. --metrics-format jsonl|prom picks the layout (default jsonl:
one per-window delta object per line; prom: cumulative Prometheus text).
Metrics never alter clustering results — recording is observation only.
--events FILE (stream, cluster): export the cluster lifecycle event stream
as JSON lines (schema header, then one birth/death/continuation/split/
merge/moved/outliered object per line). Lineage ids are persistent across
windows and checkpoints; `nidc inspect --events FILE` renders them as
per-lineage timelines and `check_events` (nidc-bench) validates a stream.
Like metrics, events are observation only — results are bit-identical
with the stream on or off.
--log-level off|info|debug: structured `key=value` tracing on stderr
(info: per-recluster summaries; debug: per-iteration K-means traces).

Corpus JSONL format: first line = topic inventory (array), then one article
per line: {\"id\":u64, \"topic\":u32, \"day\":f64, \"text\":\"...\"} —
the format written by `nidc generate` and `Corpus::save_jsonl`.";
