//! **End-to-end benchmark** — raw article text in, clusters out, over four
//! stream workloads (see `README.md` next to this file).
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench_e2e --report [--runs N] [--seed N] [--seconds S] [--json PATH] [--check BASELINE]
//! ```
//!
//! `--trace 0` replays the stream through `ShardedPipeline` with
//! observability off (pass 1) for `--seconds` and prints the end-to-end
//! metrics. `--trace 1` runs pass 1 once in a child process, then replays
//! the same stream layer by layer with spans, metrics and allocation
//! counting on (pass 2), checks that both passes cluster identically, and
//! prints the per-layer metrics. Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and a failed
//! check exits 1.
//!
//! `--report` runs every workload in both modes `--runs` times (each in a
//! fresh child process), prints every metric with its unit and sample count,
//! and writes median and quartiles to `results/e2e/BENCH_e2e.json` (or
//! `--json PATH`). `--check BASELINE` then exits 1 if a deterministic count
//! or clustering digest differs from that file; timing deltas are printed
//! only.

mod metrics;
mod pass1;
mod pass2;
mod report;
mod stats;
mod view;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::metrics::unit_of;
use crate::pass1::{Pass1, Replay};
use crate::stats::{median_and_tail, show, tail_percentile, Digest};
use crate::workload::{Workload, DEFAULT_SEED};
use nidc_corpus::Corpus;

const USAGE: &str = "usage: bench_e2e --workload daily|sharded8|firehose|rebuild \
[--seed N] [--seconds S] [--trace 0|1]\n       bench_e2e --report [--runs N] [--seed N] \
[--seconds S] [--json PATH] [--check BASELINE]";

/// Where the traced pass writes its Chrome trace (not committed).
const TRACE_DIR: &str = "results/e2e/tmp";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print pass 1's per-window digests for the traced parent to compare.
    digests: bool,
    report: bool,
    runs: usize,
    check: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            digests: false,
            report: false,
            runs: 5,
            check: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value()?),
                "--seed" => a.seed = number(&flag, &value()?)?,
                "--seconds" => a.seconds = number(&flag, &value()?)?,
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--digests" => a.digests = true,
                "--report" => a.report = true,
                "--runs" => a.runs = number(&flag, &value()?)?,
                "--check" => a.check = Some(value()?),
                // read by `nidc_bench::write_json_report`
                "--json" => drop(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !a.report && a.workload.is_none() {
            return Err("--workload or --report is required".into());
        }
        if a.runs == 0 || a.seconds.is_nan() || a.seconds < 0.0 {
            return Err("--runs must be at least 1 and --seconds non-negative".into());
        }
        Ok(a)
    }
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: {s:?} is not a valid number"))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.report {
        report::run(&args)
    } else {
        let name = args.workload.as_deref().unwrap_or_default();
        match Workload::by_name(name) {
            Some(w) => run_workload(w, &args),
            None => {
                eprintln!("bench_e2e: unknown workload {name:?}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Reported values with their sample counts, by metric name.
type Values = BTreeMap<&'static str, (f64, usize)>;

/// Runs one workload in one mode and prints its result; returns the exit
/// code.
fn run_workload(w: &Workload, args: &Args) -> i32 {
    let t = Instant::now();
    let corpus = w.generate(args.seed, 1.0);
    let gen_s = t.elapsed().as_secs_f64();
    println!(
        "workload {}: seed {}, {} articles, {} shard(s), {} thread(s)",
        w.name,
        args.seed,
        corpus.len(),
        w.shards,
        w.threads
    );
    let outcome = if args.trace {
        traced(w, &corpus, gen_s, args)
    } else {
        untraced(w, &corpus, args)
    };
    print_values(&outcome.values);
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    let correct = outcome.failures.is_empty();
    let metrics: Vec<(String, serde_json::Value)> = outcome
        .values
        .iter()
        .map(|(&name, &(value, _))| {
            (
                name.to_string(),
                serde_json::json!({"value": value, "unit": unit_of(name)}),
            )
        })
        .collect();
    let result = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    i32::from(!correct)
}

/// What a run reports.
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// `--trace 0`: pass 1, replayed as often as `--seconds` buys, end-to-end
/// metrics.
fn untraced(w: &Workload, corpus: &Corpus, args: &Args) -> Outcome {
    let p = pass1::run(w, corpus, w.replays_for(args.seconds));
    let mut failures = p.failures.clone();
    if p.failed > 0 {
        failures.push(format!(
            "error_rate: {} of {} calls failed",
            p.failed, p.attempted
        ));
    }
    if let Some(r) = p.replays.first() {
        println!("digest: {:016x}", stream_digest(&r.windows, &r.checkpoints));
    }
    if let (true, Some(r)) = (args.digests, p.replays.first()) {
        let hex = |v: &[u64]| v.iter().map(|d| format!("{d:016x}")).collect::<Vec<_>>();
        let line = serde_json::json!({
            "timed_s": r.timed_s(),
            "windows": hex(&r.windows),
            "checkpoints": hex(&r.checkpoints),
        });
        println!(
            "pass1 {}",
            serde_json::to_string(&line).expect("serialises")
        );
    }
    Outcome {
        values: end_to_end(&p),
        attempted: p.attempted,
        failed: p.failed,
        failures,
    }
}

/// The end-to-end metrics of a pass-1 run.
///
/// The replays do identical work, so each timed call is taken at its
/// fastest across them before aggregating: other tenants of a shared host
/// only ever slow a call down, and a burst of their load rarely covers the
/// same call in every replay.
fn end_to_end(p: &Pass1) -> Values {
    let fastest = |calls: fn(&Replay) -> &[f64]| -> Vec<f64> {
        let mut best = calls(&p.replays[0]).to_vec();
        for r in &p.replays[1..] {
            for (b, &x) in best.iter_mut().zip(calls(r)) {
                *b = b.min(x);
            }
        }
        best
    };
    let first = &p.replays[0];
    let calls = p.replays.len() * first.call_s.len();
    let windows = p.replays.len() * first.window_ms.len();
    let mut v = Values::new();
    let timed: f64 = fastest(|r| &r.call_s).iter().sum();
    v.insert("docs_per_s", (first.docs as f64 / timed, calls));
    for (p50_name, tail_name, ms) in [
        ("window_ms_p50", "window_ms_tail", fastest(|r| &r.window_ms)),
        ("query_ms_p50", "query_ms_tail", fastest(|r| &r.query_ms)),
    ] {
        let (p50, tail) = median_and_tail(&ms, tail_percentile(ms.len()));
        v.insert(p50_name, (p50, windows));
        v.insert(tail_name, (tail.unwrap_or(p50), windows));
    }
    v.insert(
        "setup_s",
        (median_and_tail(&p.setup_s, None).0, p.setup_s.len()),
    );
    v.insert(
        "state_mb_peak",
        (first.state_bytes_peak as f64 / 1e6, first.windows.len()),
    );
    v.insert("micro_f1_mean", (first.micro_f1_mean, first.windows.len()));
    v
}

/// One digest over a replay's per-window and checkpoint digests.
fn stream_digest(windows: &[u64], checkpoints: &[u64]) -> u64 {
    let mut h = Digest::default();
    windows.iter().chain(checkpoints).for_each(|&d| h.word(d));
    h.finish()
}

/// Pass 1's result as the `--digests` child prints it.
struct ChildPass1 {
    timed_s: f64,
    windows: Vec<u64>,
    checkpoints: Vec<u64>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Runs pass 1 once in a fresh child process of this binary, so allocator
/// state, trace buffers and the RSS high-water mark of pass 2 start clean.
fn pass1_in_child(w: &Workload, seed: u64) -> Result<ChildPass1, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", "0", "--seconds", "0", "--digests"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start pass 1: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parse_hex = |v: &serde_json::Value| -> Vec<u64> {
        v.as_array()
            .into_iter()
            .flatten()
            .filter_map(|d| u64::from_str_radix(d.as_str()?, 16).ok())
            .collect()
    };
    let pass1: serde_json::Value = stdout
        .lines()
        .find_map(|l| l.strip_prefix("pass1 "))
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or("pass 1 printed no digests")?;
    let result: serde_json::Value = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or("pass 1 printed no result")?;
    Ok(ChildPass1 {
        timed_s: pass1["timed_s"].as_f64().unwrap_or(0.0),
        windows: parse_hex(&pass1["windows"]),
        checkpoints: parse_hex(&pass1["checkpoints"]),
        attempted: result["attempted"].as_u64().unwrap_or(0),
        failed: result["failed"].as_u64().unwrap_or(0),
        correct: out.status.success() && result["correct"].as_bool() == Some(true),
    })
}

/// `--trace 1`: pass 1 in a child, then the traced layer-by-layer pass 2
/// here; per-layer metrics.
fn traced(w: &Workload, corpus: &Corpus, gen_s: f64, args: &Args) -> Outcome {
    let mut failures = Vec::new();
    let p1 = match pass1_in_child(w, args.seed) {
        Ok(p) => p,
        Err(e) => {
            return Outcome {
                values: Values::new(),
                attempted: 1,
                failed: 1,
                failures: vec![format!("pass 1: {e}")],
            }
        }
    };
    if !p1.correct {
        failures.push("pass 1 failed its checks".to_string());
    }
    let p2 = pass2::run(w, corpus);
    failures.extend(p2.failures.iter().cloned());
    if let Some(i) = (0..p1.windows.len().max(p2.windows.len()))
        .find(|&i| p1.windows.get(i) != p2.windows.get(i))
    {
        failures.push(format!(
            "digest: traced window {i} of {} differs from pass 1",
            p1.windows.len()
        ));
    }
    if p1.checkpoints != p2.checkpoints {
        failures.push("digest: traced checkpoints differ from pass 1's bytes".into());
    }
    let failed = p1.failed + p2.failed;
    if failed > 0 {
        failures.push(format!("error_rate: {failed} calls failed"));
    }
    println!(
        "digest: {:016x}",
        stream_digest(&p2.windows, &p2.checkpoints)
    );
    println!("spans recorded: {}", p2.events.len() / 2);
    if let Err(e) = write_trace(w, &p2.events) {
        eprintln!("could not write the Chrome trace: {e}");
    }

    let mut values: Values = p2
        .metrics
        .iter()
        .map(|(&k, &v)| (k, (v, p2.samples[k])))
        .collect();
    let ratio = if p1.timed_s > 0.0 {
        p2.timed_s / p1.timed_s
    } else {
        0.0
    };
    values.insert("obs.traced_wall_ratio", (ratio, 1));
    values.insert(
        "process.peak_rss_mb",
        (nidc_obs::alloc::rss_peak_bytes() as f64 / 1e6, 1),
    );
    values.insert("gen_s", (gen_s, 1));
    Outcome {
        values,
        attempted: p1.attempted + p2.attempted,
        failed,
        failures,
    }
}

/// Writes pass 2's spans as a Chrome trace under [`TRACE_DIR`].
fn write_trace(w: &Workload, events: &[nidc_obs::trace::TraceEvent]) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{}.trace.json", w.name);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    nidc_obs::write_chrome_trace(events, &nidc_obs::trace::track_labels(), &mut out)?;
    out.flush()?;
    println!("chrome trace: {path}");
    Ok(())
}

/// Prints one line per metric: name, value, unit, samples.
fn print_values(values: &Values) {
    println!("| metric | value | unit | samples |");
    println!("|---|---|---|---|");
    for (name, (value, samples)) in values {
        println!(
            "| {name} | {} | {} | {samples} |",
            show(*value),
            unit_of(name)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let a = Args::parse(
            [
                "--workload",
                "daily",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("daily"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [&["--trace", "2"][..], &["--seed"], &["--bogus"], &[]] {
            assert!(
                Args::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    /// Every workload at ≈ 3% of its size: pass 1 passes its own checks,
    /// and the traced layer-by-layer pass 2 reproduces it window for window.
    /// One test, so nothing else runs while pass 2 has tracing switched on.
    #[test]
    fn smoke_every_workload_traced_matches_untraced() {
        for w in &WORKLOADS {
            let corpus = w.generate(DEFAULT_SEED, 0.03);
            let p1 = pass1::run(w, &corpus, 1);
            assert!(p1.failures.is_empty(), "{}: {:?}", w.name, p1.failures);
            assert_eq!(p1.failed, 0, "{}", w.name);
            let r1 = &p1.replays[0];
            assert!(
                r1.windows.len() >= 100,
                "{}: {} windows",
                w.name,
                r1.windows.len()
            );
            let p2 = pass2::run(w, &corpus);
            assert!(p2.failures.is_empty(), "{}: {:?}", w.name, p2.failures);
            assert_eq!(
                p2.windows, r1.windows,
                "{}: traced clusterings differ",
                w.name
            );
            assert_eq!(
                p2.checkpoints, r1.checkpoints,
                "{}: checkpoints differ",
                w.name
            );
            let e2e = end_to_end(&p1);
            for m in &metrics::END_TO_END {
                let (value, samples) = e2e[m.name];
                assert!(
                    value > 0.0 && samples > 0,
                    "{}: {} = {value}",
                    w.name,
                    m.name
                );
            }
            for (name, _, _) in metrics::per_layer() {
                let computed_here = ["obs.traced_wall_ratio", "process.peak_rss_mb", "gen_s"];
                assert!(
                    p2.metrics.contains_key(name) || computed_here.contains(&name),
                    "{name} missing"
                );
            }
        }
    }
}
