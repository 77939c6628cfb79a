//! Chrome trace-event JSON export and the `--trace`/`--trace-summary`
//! session helper.
//!
//! The on-disk format is the Trace Event Format's JSON-object form
//! (`{"traceEvents":[...]}`), loadable in Perfetto (ui.perfetto.dev) and
//! `chrome://tracing`. Tracks map to `tid`s, so each shard renders as its
//! own lane; `B`/`E` duration events carry the span id and parent id in
//! `args` so external tools (the `check_trace` validator) can rebuild the
//! causal tree.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::profile::Profile;
use crate::trace::{self, TraceEvent, TracePhase};

/// Serialises events as Chrome trace-event JSON.
///
/// Events are written sorted by timestamp (stable, so per-thread order
/// breaks ties), `pid` is fixed at 1, `tid` is the track, timestamps are
/// microseconds with nanosecond fraction. Lane names come from `labels`
/// (`thread_name` metadata events); a `thread_sort_index` event per track
/// keeps lanes in track order.
pub fn write_chrome_trace(
    events: &[TraceEvent],
    labels: &[(u32, String)],
    w: &mut impl Write,
) -> io::Result<()> {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_ns);

    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut dyn Write, first: &mut bool| -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            w.write_all(b",\n")
        }
    };
    for (track, label) in labels {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            json_str(label)
        )?;
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{track}}}}}"
        )?;
    }
    for ev in sorted {
        sep(w, &mut first)?;
        let us = ev.ts_ns / 1_000;
        let frac = ev.ts_ns % 1_000;
        match ev.phase {
            TracePhase::Begin => write!(
                w,
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{us}.{frac:03},\"name\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"thread\":{},\"allocs\":{},\"bytes\":{}}}}}",
                ev.track,
                json_str(ev.name),
                ev.id,
                ev.parent,
                ev.thread,
                ev.allocs,
                ev.bytes
            )?,
            TracePhase::End => write!(
                w,
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{us}.{frac:03},\"name\":{},\
                 \"args\":{{\"id\":{},\"thread\":{},\"allocs\":{},\"bytes\":{}}}}}",
                ev.track,
                json_str(ev.name),
                ev.id,
                ev.thread,
                ev.allocs,
                ev.bytes
            )?,
        }
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

/// JSON string literal (same escaping rules as the snapshot serialiser).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Drives one traced run: enables tracing up front, drains once at the
/// end, and fans the events into the configured consumers (Chrome JSON
/// file and/or profile summary).
///
/// [`TraceSession::start`] returns `None` when neither consumer is
/// requested, so call sites can hold an `Option<TraceSession>` and stay
/// zero-cost when tracing is off.
#[derive(Debug)]
pub struct TraceSession {
    path: Option<PathBuf>,
    summary: bool,
}

impl TraceSession {
    /// Starts a session writing Chrome JSON to `path` (if given) and/or
    /// printing a profile summary on finish. Creates (truncating) the
    /// output file up front so an unwritable path fails before the run,
    /// clears any stale buffered events, and enables tracing.
    pub fn start(path: Option<PathBuf>, summary: bool) -> io::Result<Option<Self>> {
        if path.is_none() && !summary {
            return Ok(None);
        }
        if let Some(p) = &path {
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
            File::create(p)?;
        }
        trace::clear();
        trace::set_trace_enabled(true);
        trace::set_track_label(0, "main");
        Ok(Some(Self { path, summary }))
    }

    /// The Chrome JSON output path, if one was configured.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Whether a profile summary will be printed on finish.
    pub fn summary(&self) -> bool {
        self.summary
    }

    /// Disables tracing, drains all events, writes the configured outputs
    /// (summary text goes to `out`), and returns the drained events.
    pub fn finish(self, out: &mut impl Write) -> io::Result<Vec<TraceEvent>> {
        trace::set_trace_enabled(false);
        let events = trace::drain();
        let labels = trace::track_labels();
        if let Some(p) = &self.path {
            let mut w = BufWriter::new(File::create(p)?);
            write_chrome_trace(&events, &labels, &mut w)?;
        }
        if self.summary {
            write!(out, "{}", Profile::from_events(&events).to_text())?;
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::global_lock;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nidc_obs_trace_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(name: &'static str, id: u64, parent: u64, phase: TracePhase, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            id,
            parent,
            track: 0,
            thread: 0,
            phase,
            ts_ns,
            allocs: 7,
            bytes: 640,
        }
    }

    #[test]
    fn chrome_json_shape() {
        use TracePhase::{Begin, End};
        let events = vec![
            ev("outer", 1, 0, Begin, 1_500),
            ev("inner \"q\"", 2, 1, Begin, 2_000),
            ev("inner \"q\"", 2, 1, End, 3_250),
            ev("outer", 1, 0, End, 4_000),
        ];
        let labels = vec![(0, "main".to_string())];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &labels, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"thread_name\",\"args\":{\"name\":\"main\"}"));
        assert!(text.contains("\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.500"));
        assert!(text
            .contains("\"args\":{\"id\":1,\"parent\":0,\"thread\":0,\"allocs\":7,\"bytes\":640}"));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"args\":{\"id\":1,\"thread\":0,\"allocs\":7,\"bytes\":640}"));
        assert!(text.contains("\\\"q\\\""), "names are JSON-escaped");
    }

    #[test]
    fn chrome_json_sorts_by_timestamp() {
        use TracePhase::{Begin, End};
        // Worker events flushed after main-thread events but earlier in time.
        let events = vec![
            ev("late", 2, 0, Begin, 9_000),
            ev("late", 2, 0, End, 10_000),
            ev("early", 1, 0, Begin, 1_000),
            ev("early", 1, 0, End, 2_000),
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&events, &[], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let early = text.find("\"early\"").unwrap();
        let late = text.find("\"late\"").unwrap();
        assert!(early < late);
    }

    #[test]
    fn session_none_when_nothing_requested() {
        assert!(TraceSession::start(None, false).unwrap().is_none());
    }

    #[test]
    fn session_records_writes_and_disables() {
        let _guard = global_lock();
        let dir = tmpdir("session");
        let path = dir.join("out.json");
        let session = TraceSession::start(Some(path.clone()), true)
            .unwrap()
            .expect("session requested");
        assert!(trace::trace_enabled());
        assert_eq!(session.path(), Some(path.as_path()));
        {
            let _s = crate::span!("trace_export_test_phase");
        }
        let mut summary = Vec::new();
        let events = session.finish(&mut summary).unwrap();
        assert!(!trace::trace_enabled());
        assert_eq!(events.len(), 2);
        crate::trace::validate_events(&events).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("trace_export_test_phase"));
        let summary = String::from_utf8(summary).unwrap();
        assert!(summary.contains("trace_export_test_phase"));
        assert!(summary.starts_with("span"));
        fs::remove_dir_all(&dir).ok();
    }
}
