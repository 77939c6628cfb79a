//! `--report`: every workload in both modes, several times, each run in a
//! fresh child process; aggregated into median and quartiles, written as
//! BENCH JSON, and optionally checked against a baseline.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::{json, Value};

use crate::metrics::{per_layer, DETERMINISTIC, END_TO_END};
use crate::stats::{quartiles, regressed, show};
use crate::workload::{Workload, WORKLOADS};
use crate::Args;

/// Where the report goes unless `--json` says otherwise.
const DEFAULT_PATH: &str = "results/e2e/BENCH_e2e.json";

/// Everything the runs of one workload reported.
#[derive(Default)]
struct Collected {
    values: BTreeMap<String, Vec<f64>>,
    digests: Vec<String>,
}

/// Runs the report; returns the exit code.
pub fn run(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_e2e: cannot find this executable: {e}");
            return 1;
        }
    };
    let mut failures = Vec::new();
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    for run in 1..=args.runs {
        for w in &WORKLOADS {
            for trace in ["0", "1"] {
                println!("== run {run}/{}: {} --trace {trace}", args.runs, w.name);
                let out = Command::new(&exe)
                    .args(["--workload", w.name, "--trace", trace])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .stderr(Stdio::inherit())
                    .output();
                let stdout = match out {
                    Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                    Ok(o) => {
                        print!("{}", String::from_utf8_lossy(&o.stdout));
                        failures.push(format!(
                            "{} --trace {trace} (run {run}) failed its checks",
                            w.name
                        ));
                        continue;
                    }
                    Err(e) => {
                        failures.push(format!("{}: could not start: {e}", w.name));
                        continue;
                    }
                };
                let mut lines: Vec<&str> = stdout.lines().collect();
                let result: Option<Value> = lines.pop().and_then(|l| serde_json::from_str(l).ok());
                lines.iter().for_each(|l| println!("{l}"));
                let c = collected.entry(w.name).or_default();
                if let Some(d) = lines.iter().find_map(|l| l.strip_prefix("digest: ")) {
                    if trace == "0" {
                        c.digests.push(d.to_string());
                    }
                }
                let metrics = result.as_ref().and_then(|r| r["metrics"].as_object());
                for (name, m) in metrics.into_iter().flatten() {
                    if let Some(v) = m["value"].as_f64() {
                        c.values.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
    }

    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| summarize(w, collected.get(w.name).unwrap_or(&Collected::default())))
        .collect();
    print_summary(&workloads);
    let payload = json!({
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": workloads,
    });
    if let Some(baseline) = &args.check {
        failures.extend(check(baseline, args.seed, &payload));
    }
    nidc_bench::write_json_report("bench_e2e", Some(DEFAULT_PATH), payload);
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    i32::from(!failures.is_empty())
}

/// Median, quartiles and gating of one workload's collected values.
fn summarize(w: &Workload, c: &Collected) -> Value {
    let stat = |name: &str| -> Value {
        match c.values.get(name).filter(|v| !v.is_empty()) {
            Some(v) => {
                let [q1, median, q3] = quartiles(v);
                json!({"median": median, "q1": q1, "q3": q3, "runs": v.len()})
            }
            None => Value::Null,
        }
    };
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound,
                "floor": m.floor,
                "value": stat(m.name),
            })
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .map(|(name, unit, moves)| {
            json!({
                "name": name,
                "unit": unit,
                "better": "lower",
                "moves": moves,
                "value": stat(name),
            })
        })
        .collect();
    // A deterministic value is gated only if every run reproduced it.
    let mut gated = Vec::new();
    let mut ungated = Vec::new();
    for name in DETERMINISTIC {
        match c.values.get(name).map(Vec::as_slice) {
            Some([first, rest @ ..]) if rest.iter().all(|v| v == first) => {
                gated.push((name.to_string(), json!(first)));
            }
            _ => ungated.push(name),
        }
    }
    match c.digests.as_slice() {
        [first, rest @ ..] if rest.iter().all(|d| d == first) => {
            gated.push(("digest".to_string(), json!(first)));
        }
        _ => ungated.push("digest"),
    }
    json!({
        "name": w.name,
        "why": w.why,
        "shards": w.shards,
        "threads": w.threads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "gated": Value::Object(gated),
        "ungated": ungated,
    })
}

fn print_summary(workloads: &[Value]) {
    println!("\n| workload | metric | unit | median | q1 | q3 | runs |");
    println!("|---|---|---|---|---|---|---|");
    for w in workloads {
        for m in w["end_to_end"].as_array().into_iter().flatten() {
            let v = &m["value"];
            let q = |k: &str| show(v[k].as_f64().unwrap_or(f64::NAN));
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                w["name"].as_str().unwrap_or(""),
                m["name"].as_str().unwrap_or(""),
                m["unit"].as_str().unwrap_or(""),
                q("median"),
                q("q1"),
                q("q3"),
                v["runs"].as_u64().unwrap_or(0),
            );
        }
    }
}

/// Compares a fresh report with a baseline: gated values and digests must
/// match exactly (failures returned); end-to-end medians are compared with
/// their bounds and printed, never failed on — timings vary by host.
fn check(path: &str, seed: u64, fresh: &Value) -> Vec<String> {
    let baseline: Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => return vec![format!("baseline {path}: {e}")],
    };
    if baseline["seed"].as_u64() != Some(seed) {
        return vec![format!(
            "baseline {path} was taken with seed {:?}, this run used {seed}",
            baseline["seed"].as_u64()
        )];
    }
    let mut failures = Vec::new();
    println!("\n| workload | metric | baseline | now | change | within bound |");
    println!("|---|---|---|---|---|---|");
    for (b, f) in workloads(&baseline).zip(workloads(fresh)) {
        let name = b["name"].as_str().unwrap_or("");
        for (metric, expected) in b["gated"].as_object().into_iter().flatten() {
            let got = &f["gated"][metric.as_str()];
            let same = match (got.as_f64(), expected.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => got == expected,
            };
            if !same {
                let text = |v: &Value| serde_json::to_string(v).unwrap_or_default();
                failures.push(format!(
                    "{name}: {metric} is {}, the baseline has {}",
                    text(got),
                    text(expected)
                ));
            }
        }
        for (m, (bm, fm)) in END_TO_END.iter().zip(
            b["end_to_end"]
                .as_array()
                .into_iter()
                .flatten()
                .zip(f["end_to_end"].as_array().into_iter().flatten()),
        ) {
            let (Some(base), Some(now)) = (
                bm["value"]["median"].as_f64(),
                fm["value"]["median"].as_f64(),
            ) else {
                continue;
            };
            let ok = !regressed(m.better, m.bound, m.floor, base, now);
            println!(
                "| {name} | {} | {} | {} | {:+.1}% | {} |",
                m.name,
                show(base),
                show(now),
                100.0 * (now - base) / base.abs().max(1e-12),
                if ok { "yes" } else { "NO (warn only)" }
            );
        }
    }
    failures
}

fn workloads(report: &Value) -> impl Iterator<Item = &Value> {
    report["workloads"].as_array().into_iter().flatten()
}
