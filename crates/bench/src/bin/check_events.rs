//! **Lifecycle-event stream gate** — CI's guard against a malformed or
//! internally inconsistent `--events` export. Reads a JSON-lines lifecycle
//! event stream (the `--events` output of `online_simulation` or the CLI)
//! and exits non-zero unless the stream is well formed:
//!
//! * the first line is the schema header `{"schema":"nidc-events","v":1}`
//!   and the version is one this checker understands;
//! * every event line is a single JSON object of a known `kind`;
//! * `window` indices are monotone non-decreasing;
//! * lineage ids resolve — `birth`/`split` introduce fresh ids, every other
//!   reference names a lineage that is alive (or, for the `from` side of
//!   `moved`/`outliered`, died earlier in the same window), and nothing is
//!   heard from a lineage after its `death`;
//! * `split`/`merge` conserve members: `1 ≤ from_parent ≤` the parent's
//!   size in the previous window (its continuation in the same window is
//!   reported first and may already carry the new size), `1 ≤
//!   from_absorbed ≤` the absorbed lineage's size in the previous window,
//!   and a `death`'s `last_size` equals the size the lineage last reported;
//! * `drift` is a finite number in `[0, 1]`.
//!
//! With `--metrics FILE` (the matching `--metrics` JSONL export of the same
//! run), additionally cross-checks that the event counts equal the summed
//! per-window `nidc_lifecycle_{births,deaths,splits,merges}_total` counter
//! deltas — the counters and the stream are written by the same observation
//! pass, so a mismatch means events were dropped or double-counted.
//!
//! Usage: `check_events --events FILE [--metrics FILE]`

use std::collections::BTreeMap;
use std::process::ExitCode;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Liveness {
    Alive,
    /// Died at this window index (its `from` may still be referenced by
    /// `moved`/`outliered` events of the same window).
    Dead(u64),
}

/// Per-lineage bookkeeping while scanning the stream.
#[derive(Debug)]
struct Lineage {
    state: Liveness,
    /// Member count the lineage last reported (birth/split/continuation).
    last_size: usize,
    /// The window of that report.
    reported_in: u64,
    /// The member count before that report (0 for a new lineage).
    size_before_report: usize,
}

impl Lineage {
    /// The member count at the end of the window before `window` — what a
    /// `split` or `merge` in `window` draws its members from.
    fn size_before(&self, window: u64) -> usize {
        if self.reported_in == window {
            self.size_before_report
        } else {
            self.last_size
        }
    }
}

#[derive(Default)]
struct Counts {
    births: u64,
    deaths: u64,
    splits: u64,
    merges: u64,
    continuations: u64,
    moved: u64,
    outliered: u64,
}

fn field_u64(v: &serde_json::Value, name: &str, ctx: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(|f| f.as_u64())
        .ok_or_else(|| format!("{ctx}: missing or non-integer field \"{name}\""))
}

fn field_str<'a>(v: &'a serde_json::Value, name: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(name)
        .and_then(|f| f.as_str())
        .ok_or_else(|| format!("{ctx}: missing or non-string field \"{name}\""))
}

struct Validator {
    lineages: BTreeMap<u64, Lineage>,
    window: u64,
    counts: Counts,
    events: u64,
}

impl Validator {
    fn new() -> Self {
        Self {
            lineages: BTreeMap::new(),
            window: 0,
            counts: Counts::default(),
            events: 0,
        }
    }

    fn alive(&self, id: u64, ctx: &str) -> Result<&Lineage, String> {
        match self.lineages.get(&id) {
            Some(l) if l.state == Liveness::Alive => Ok(l),
            Some(_) => Err(format!("{ctx}: lineage {id} is already dead")),
            None => Err(format!("{ctx}: lineage {id} was never introduced")),
        }
    }

    /// A `from` reference of `moved`/`outliered`: the lineage existed last
    /// window, so it is alive or died earlier *in this same window*.
    fn check_from_ref(&self, id: u64, ctx: &str) -> Result<(), String> {
        match self.lineages.get(&id) {
            Some(l) if l.state == Liveness::Alive => Ok(()),
            Some(l) if l.state == Liveness::Dead(self.window) => Ok(()),
            Some(_) => Err(format!(
                "{ctx}: lineage {id} died before window {}",
                self.window
            )),
            None => Err(format!("{ctx}: lineage {id} was never introduced")),
        }
    }

    fn introduce(&mut self, id: u64, size: usize, ctx: &str) -> Result<(), String> {
        if self.lineages.contains_key(&id) {
            return Err(format!("{ctx}: lineage {id} introduced twice"));
        }
        self.lineages.insert(
            id,
            Lineage {
                state: Liveness::Alive,
                last_size: size,
                reported_in: self.window,
                size_before_report: 0,
            },
        );
        Ok(())
    }

    fn check_event(&mut self, v: &serde_json::Value, ctx: &str) -> Result<(), String> {
        let kind = field_str(v, "kind", ctx)?.to_string();
        let window = field_u64(v, "window", ctx)?;
        if window < self.window {
            return Err(format!(
                "{ctx}: window went backwards ({window} after {})",
                self.window
            ));
        }
        self.window = window;
        self.events += 1;
        match kind.as_str() {
            "birth" => {
                let lineage = field_u64(v, "lineage", ctx)?;
                let size = field_u64(v, "size", ctx)? as usize;
                field_str(v, "cluster", ctx)?;
                self.introduce(lineage, size, ctx)?;
                self.counts.births += 1;
            }
            "split" => {
                let lineage = field_u64(v, "lineage", ctx)?;
                let parent = field_u64(v, "parent", ctx)?;
                let size = field_u64(v, "size", ctx)? as usize;
                let from_parent = field_u64(v, "from_parent", ctx)? as usize;
                field_str(v, "cluster", ctx)?;
                let parent_size = self.alive(parent, ctx)?.size_before(window);
                if from_parent < 1 || from_parent > parent_size {
                    return Err(format!(
                        "{ctx}: split takes {from_parent} members from parent {parent} \
                         which had {parent_size} last window"
                    ));
                }
                if from_parent > size {
                    return Err(format!(
                        "{ctx}: split inherited {from_parent} members but holds only {size}"
                    ));
                }
                self.introduce(lineage, size, ctx)?;
                self.counts.splits += 1;
            }
            "continuation" => {
                let lineage = field_u64(v, "lineage", ctx)?;
                let size = field_u64(v, "size", ctx)? as usize;
                field_str(v, "cluster", ctx)?;
                field_u64(v, "joined", ctx)?;
                field_u64(v, "left", ctx)?;
                let drift = v
                    .get("drift")
                    .and_then(|f| f.as_f64())
                    .ok_or_else(|| format!("{ctx}: missing or non-numeric \"drift\""))?;
                if !drift.is_finite() || !(0.0..=1.0).contains(&drift) {
                    return Err(format!("{ctx}: drift {drift} outside [0, 1]"));
                }
                self.alive(lineage, ctx)?;
                let l = self.lineages.get_mut(&lineage).expect("alive");
                l.size_before_report = l.size_before(window);
                l.last_size = size;
                l.reported_in = window;
                self.counts.continuations += 1;
            }
            "merge" => {
                let absorbed = field_u64(v, "absorbed", ctx)?;
                let into = field_u64(v, "into", ctx)?;
                let from_absorbed = field_u64(v, "from_absorbed", ctx)? as usize;
                let absorbed_size = self.alive(absorbed, ctx)?.size_before(window);
                self.alive(into, ctx)?;
                if from_absorbed < 1 || from_absorbed > absorbed_size {
                    return Err(format!(
                        "{ctx}: merge moves {from_absorbed} members out of lineage {absorbed} \
                         which had {absorbed_size} last window"
                    ));
                }
                self.counts.merges += 1;
            }
            "death" => {
                let lineage = field_u64(v, "lineage", ctx)?;
                let last_size = field_u64(v, "last_size", ctx)? as usize;
                let cause = field_str(v, "cause", ctx)?;
                if cause != "expired" && cause != "absorbed" {
                    return Err(format!("{ctx}: unknown death cause \"{cause}\""));
                }
                let recorded = self.alive(lineage, ctx)?.last_size;
                if last_size != recorded {
                    return Err(format!(
                        "{ctx}: death reports last_size {last_size} but lineage {lineage} \
                         last reported {recorded}"
                    ));
                }
                self.lineages.get_mut(&lineage).expect("alive").state = Liveness::Dead(window);
                self.counts.deaths += 1;
            }
            "moved" => {
                field_u64(v, "doc", ctx)?;
                let from = field_u64(v, "from", ctx)?;
                let to = field_u64(v, "to", ctx)?;
                self.check_from_ref(from, ctx)?;
                self.alive(to, ctx)?;
                self.counts.moved += 1;
            }
            "outliered" => {
                field_u64(v, "doc", ctx)?;
                let from = field_u64(v, "from", ctx)?;
                self.check_from_ref(from, ctx)?;
                self.counts.outliered += 1;
            }
            other => return Err(format!("{ctx}: unknown event kind \"{other}\"")),
        }
        Ok(())
    }
}

/// Validates the whole stream; returns the final tallies.
fn check_stream(jsonl: &str) -> Result<Validator, String> {
    let mut lines = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    let (header_no, header) = lines.next().ok_or("event stream is empty")?;
    let hv: serde_json::Value = serde_json::from_str(header)
        .map_err(|e| format!("line {}: invalid JSON header: {e}", header_no + 1))?;
    let schema = hv.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if schema != "nidc-events" {
        return Err(format!(
            "line {}: not an nidc-events stream (schema \"{schema}\")",
            header_no + 1
        ));
    }
    let version = hv.get("v").and_then(|s| s.as_u64()).unwrap_or(0);
    if version != u64::from(nidc_obs::EVENTS_SCHEMA_VERSION) {
        return Err(format!(
            "line {}: schema version {version} is not the supported version {}",
            header_no + 1,
            nidc_obs::EVENTS_SCHEMA_VERSION
        ));
    }

    let mut validator = Validator::new();
    for (lineno, line) in lines {
        let ctx = format!("line {}", lineno + 1);
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("{ctx}: invalid JSON: {e}"))?;
        validator.check_event(&v, &ctx)?;
    }
    Ok(validator)
}

/// Sums a counter's per-window deltas across every snapshot line of a
/// metrics JSONL export.
fn counter_total(jsonl: &str, name: &str) -> Result<u64, String> {
    let mut total = 0u64;
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| format!("metrics line {}: invalid JSON: {e}", lineno + 1))?;
        if let Some(n) = v
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|n| n.as_u64())
        {
            total += n;
        }
    }
    Ok(total)
}

fn cross_check(metrics_path: &str, counts: &Counts) -> Result<(), String> {
    let jsonl = std::fs::read_to_string(metrics_path)
        .map_err(|e| format!("cannot read metrics export {metrics_path}: {e}"))?;
    let pairs: [(&str, u64); 4] = [
        ("nidc_lifecycle_births_total", counts.births),
        ("nidc_lifecycle_deaths_total", counts.deaths),
        ("nidc_lifecycle_splits_total", counts.splits),
        ("nidc_lifecycle_merges_total", counts.merges),
    ];
    let mut mismatches = Vec::new();
    for (name, from_events) in pairs {
        let from_counters = counter_total(&jsonl, name)?;
        if from_counters != from_events {
            mismatches.push(format!(
                "  - {name}: {from_counters} from counters, {from_events} from events"
            ));
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "event counts disagree with {metrics_path}:\n{}",
            mismatches.join("\n")
        ))
    }
}

fn run() -> Result<(), String> {
    let events_path =
        arg_value("--events").ok_or("usage: check_events --events FILE [--metrics FILE]")?;
    let jsonl = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("cannot read event stream {events_path}: {e}"))?;
    let v = check_stream(&jsonl)?;
    if let Some(metrics_path) = arg_value("--metrics") {
        cross_check(&metrics_path, &v.counts)?;
        println!("check_events: counters in {metrics_path} match the stream");
    }
    let alive = v
        .lineages
        .values()
        .filter(|l| l.state == Liveness::Alive)
        .count();
    let windows = if v.events == 0 { 0 } else { v.window + 1 };
    println!(
        "check_events: {} events over {} window(s) OK — {} lineages ({} still alive), \
         {} births, {} deaths, {} splits, {} merges, {} continuations, {} moved, {} outliered",
        v.events,
        windows,
        v.lineages.len(),
        alive,
        v.counts.births,
        v.counts.deaths,
        v.counts.splits,
        v.counts.merges,
        v.counts.continuations,
        v.counts.moved,
        v.counts.outliered
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("check_events: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check_stream;

    /// A parent that shrank from 5 to 2 members this window, reported
    /// before the split that took 3 of its 5 previous members.
    fn parent_then_split(from_parent: u64) -> String {
        format!(
            "{{\"schema\":\"nidc-events\",\"v\":1}}\n\
             {{\"kind\":\"birth\",\"window\":0,\"lineage\":0,\"cluster\":\"0:0\",\"size\":5}}\n\
             {{\"kind\":\"continuation\",\"window\":1,\"lineage\":0,\"cluster\":\"0:0\",\
             \"size\":2,\"drift\":0.1,\"joined\":0,\"left\":3}}\n\
             {{\"kind\":\"split\",\"window\":1,\"lineage\":1,\"parent\":0,\"cluster\":\"0:1\",\
             \"size\":6,\"from_parent\":{from_parent}}}\n"
        )
    }

    #[test]
    fn split_is_bounded_by_the_parents_previous_window_size() {
        assert!(check_stream(&parent_then_split(3)).is_ok());
        assert!(check_stream(&parent_then_split(5)).is_ok());
        assert!(check_stream(&parent_then_split(6)).is_err());
    }
}
