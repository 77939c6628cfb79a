//! File exporters for per-window metric snapshots.

use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, LineWriter, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::snapshot::Snapshot;

/// On-disk format for exported snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// One JSON object per window, appended as a line (`jsonl`). Each line
    /// holds the **delta since the previous line** — the exporter resets
    /// the registry after writing, so windows are directly comparable.
    #[default]
    Jsonl,
    /// Prometheus text exposition (`prom`). The file is rewritten on every
    /// export with **cumulative** totals, like a `/metrics` endpoint would
    /// serve; the registry is not reset.
    Prom,
}

impl FromStr for MetricsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(Self::Jsonl),
            "prom" => Ok(Self::Prom),
            other => Err(format!(
                "unknown metrics format {other:?} (expected jsonl|prom)"
            )),
        }
    }
}

impl fmt::Display for MetricsFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Jsonl => "jsonl",
            Self::Prom => "prom",
        })
    }
}

/// Writes global-registry snapshots to a file, once per window.
///
/// Creating an exporter also calls [`crate::set_enabled`]`(true)` — an
/// export target implies the intent to record.
///
/// The JSON-lines writer is **line-buffered**: every completed window line
/// reaches the file as soon as its newline is written, so a run that dies
/// mid-stream (panic, abort between windows) leaves a file of whole,
/// parseable lines — never a truncated one. Call
/// [`MetricsExporter::finish`] at the end of a run to flush and surface
/// any pending I/O error; dropping the exporter flushes too, but swallows
/// errors as `Drop` must.
#[derive(Debug)]
pub struct MetricsExporter {
    path: PathBuf,
    format: MetricsFormat,
    /// Open line-buffered append handle for JSON-lines; `None` for
    /// Prometheus, which rewrites the whole file each export.
    writer: Option<LineWriter<File>>,
}

impl MetricsExporter {
    /// Creates (truncating) the export file at `path`, making parent
    /// directories as needed, and enables global metric recording.
    pub fn create(path: impl Into<PathBuf>, format: MetricsFormat) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let writer = match format {
            MetricsFormat::Jsonl => Some(LineWriter::new(File::create(&path)?)),
            MetricsFormat::Prom => {
                File::create(&path)?; // fail early if the path is unwritable
                None
            }
        };
        crate::set_enabled(true);
        Ok(Self {
            path,
            format,
            writer,
        })
    }

    /// Where exports go.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured format.
    pub fn format(&self) -> MetricsFormat {
        self.format
    }

    /// Exports the current global snapshot, tagged with `meta` fields
    /// (window index, simulation day, …).
    ///
    /// Samples the allocator tallies into the `nidc_alloc_*` counters first
    /// (registered at zero when allocation tracking is off), and appends an
    /// `rss_peak_bytes` meta field (the OS-level `VmHWM` high-water mark;
    /// 0 off Linux) so long streaming runs expose leak trends even without
    /// the counting allocator enabled.
    ///
    /// JSON-lines: appends one line and resets the registry (per-window
    /// deltas). Prometheus: rewrites the file with cumulative totals and
    /// ignores `meta` (the exposition format has no per-sample metadata).
    pub fn record_window(&mut self, meta: &[(&str, f64)]) -> io::Result<()> {
        crate::alloc::sample_metrics();
        let snap = crate::snapshot();
        let mut meta: Vec<(&str, f64)> = meta.to_vec();
        meta.push(("rss_peak_bytes", crate::alloc::rss_peak_bytes() as f64));
        self.export(&snap, &meta)
    }

    /// Like [`MetricsExporter::record_window`] for an explicit snapshot.
    /// JSON-lines still resets the global registry afterwards.
    pub fn export(&mut self, snap: &Snapshot, meta: &[(&str, f64)]) -> io::Result<()> {
        match self.format {
            MetricsFormat::Jsonl => {
                let w = self.writer.as_mut().expect("jsonl exporter has a writer");
                // One write per line: `LineWriter` pushes the whole line to
                // the file when it sees the trailing newline, so the file
                // only ever grows by complete lines.
                let mut line = snap.to_json_line(meta);
                line.push('\n');
                w.write_all(line.as_bytes())?;
                crate::reset();
            }
            MetricsFormat::Prom => {
                // a scraper reading mid-export sees the old file or the new
                // one, never a half-written exposition
                write_atomic(&self.path, snap.to_prometheus().as_bytes())?;
            }
        }
        Ok(())
    }

    /// Flushes anything still buffered (a final line written without its
    /// newline cannot happen through [`MetricsExporter::export`], but the
    /// flush also surfaces deferred I/O errors a `Drop` would swallow).
    /// Call once at the end of a run.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(w) = &mut self.writer {
            w.flush()?;
        }
        Ok(())
    }
}

/// Replaces the file at `path` with `bytes` so that a reader, or a kill at
/// any moment, sees either the old file whole or the new one whole — never a
/// truncated mix. The bytes go to a temporary file in the same directory,
/// which is fsynced and then renamed over `path` (rename within one
/// filesystem is atomic); the directory is fsynced last so the rename itself
/// survives a crash. If staging fails the temporary is removed and `path` is
/// left as it was.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path)?;
    let staged = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
        return staged;
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The temporary sibling [`write_atomic`] stages `path` in: a hidden name in
/// the same directory, tagged with the process id.
fn tmp_path(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} does not name a file", path.display()),
        )
    })?;
    let mut tmp = OsString::from(".");
    tmp.push(name);
    tmp.push(format!(".{}.tmp", std::process::id()));
    Ok(path.with_file_name(tmp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::global_lock;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nidc_obs_export_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn format_parses_and_displays() {
        assert_eq!(
            "jsonl".parse::<MetricsFormat>().unwrap(),
            MetricsFormat::Jsonl
        );
        assert_eq!(
            "prom".parse::<MetricsFormat>().unwrap(),
            MetricsFormat::Prom
        );
        assert!("csv".parse::<MetricsFormat>().is_err());
        assert_eq!(MetricsFormat::Jsonl.to_string(), "jsonl");
        assert_eq!(MetricsFormat::Prom.to_string(), "prom");
        assert_eq!(MetricsFormat::default(), MetricsFormat::Jsonl);
    }

    #[test]
    fn jsonl_appends_deltas_and_resets() {
        let _guard = global_lock();
        let path = tmpdir("jsonl").join("out.jsonl");
        let mut exp = MetricsExporter::create(&path, MetricsFormat::Jsonl).unwrap();
        assert!(crate::enabled());
        crate::global().counter("export_jsonl_total").add(2);
        exp.record_window(&[("window", 0.0)]).unwrap();
        // Reset happened: the counter is registered but back to zero.
        assert_eq!(crate::snapshot().counter("export_jsonl_total"), Some(0));
        crate::global().counter("export_jsonl_total").add(5);
        exp.record_window(&[("window", 1.0)]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"window\":0"));
        assert!(lines[0].contains("\"export_jsonl_total\":2"));
        assert!(
            lines[1].contains("\"export_jsonl_total\":5"),
            "delta, not cumulative"
        );
        assert!(
            lines[0].contains("\"rss_peak_bytes\":"),
            "per-window RSS high-water mark: {:?}",
            lines[0]
        );
        assert!(
            lines[0].contains("\"nidc_alloc_allocs_total\":"),
            "alloc counters registered every window: {:?}",
            lines[0]
        );
        crate::set_enabled(false);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn prom_rewrites_cumulative() {
        let _guard = global_lock();
        let path = tmpdir("prom").join("metrics.prom");
        let mut exp = MetricsExporter::create(&path, MetricsFormat::Prom).unwrap();
        crate::global().counter("export_prom_total").add(1);
        exp.record_window(&[]).unwrap();
        crate::global().counter("export_prom_total").add(1);
        exp.record_window(&[]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("export_prom_total 2"), "cumulative: {text}");
        assert_eq!(
            text.matches("# TYPE export_prom_total").count(),
            1,
            "rewritten, not appended"
        );
        crate::set_enabled(false);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_lines_survive_a_writer_killed_mid_stream() {
        let _guard = global_lock();
        let path = tmpdir("kill").join("killed.jsonl");
        let windows = 3u64;
        let writer = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut exp = MetricsExporter::create(&path, MetricsFormat::Jsonl).unwrap();
                for w in 0..windows {
                    crate::global().counter("export_kill_total").add(w + 1);
                    exp.record_window(&[("window", w as f64)]).unwrap();
                }
                // Die without finish() or Drop — as an aborted process
                // would. Line buffering means every recorded window must
                // already be on disk.
                std::mem::forget(exp);
                panic!("killed mid-stream");
            }
        });
        assert!(writer.join().is_err(), "writer thread must have died");
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), windows as usize, "no window lost: {text:?}");
        for (i, line) in lines.iter().enumerate() {
            let v: serde_json::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}"));
            assert_eq!(v["window"], serde_json::json!(i));
            assert_eq!(v["counters"]["export_kill_total"], serde_json::json!(i + 1));
        }
        crate::set_enabled(false);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_flushes_and_reports_errors_eagerly() {
        let _guard = global_lock();
        let path = tmpdir("finish").join("finish.jsonl");
        let mut exp = MetricsExporter::create(&path, MetricsFormat::Jsonl).unwrap();
        crate::global().counter("export_finish_total").add(1);
        exp.record_window(&[]).unwrap();
        exp.finish().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        // Prometheus exporters have no buffered writer; finish is a no-op.
        let mut prom =
            MetricsExporter::create(tmpdir("finish").join("m.prom"), MetricsFormat::Prom).unwrap();
        prom.finish().unwrap();
        crate::set_enabled(false);
        fs::remove_file(&path).ok();
    }

    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_atomic_creates_the_file_and_leaves_no_temp_behind() {
        let _guard = global_lock();
        let dir = tmpdir("atomic_new");
        let path = dir.join("state.json");
        write_atomic(&path, b"{\"v\":1}\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}\n");
        assert_eq!(dir_entries(&dir), ["state.json"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_an_existing_file_whole() {
        let _guard = global_lock();
        let dir = tmpdir("atomic_replace");
        let path = dir.join("state.json");
        fs::write(&path, "x".repeat(4096)).unwrap();
        // shorter than the old content: an in-place rewrite that died before
        // truncating would leave a tail of x's
        write_atomic(&path, b"short").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short");
        assert_eq!(dir_entries(&dir), ["state.json"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_atomic_leaves_the_old_file_untouched() {
        let _guard = global_lock();
        let dir = tmpdir("atomic_fail");
        let path = dir.join("state.json");
        fs::write(&path, "old").unwrap();

        // a missing directory: nothing can be staged, nothing changes
        let missing = dir.join("gone").join("state.json");
        assert!(write_atomic(&missing, b"new").is_err());
        assert!(!dir.join("gone").exists());

        // the staging step itself fails (its temp name is taken by a
        // directory): the target keeps its old content
        let blocker = tmp_path(&path).unwrap();
        fs::create_dir(&blocker).unwrap();
        assert!(write_atomic(&path, b"new").is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), "old");
        fs::remove_dir(&blocker).unwrap();

        assert_eq!(dir_entries(&dir), ["state.json"]);
        assert!(write_atomic(&dir, b"new").is_err(), "a directory target");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_makes_parent_dirs() {
        let _guard = global_lock();
        let path = tmpdir("mkdir").join("nested/deeper/out.jsonl");
        let exp = MetricsExporter::create(&path, MetricsFormat::Jsonl).unwrap();
        assert!(exp.path().parent().unwrap().is_dir());
        assert_eq!(exp.format(), MetricsFormat::Jsonl);
        crate::set_enabled(false);
        fs::remove_file(&path).ok();
    }
}
