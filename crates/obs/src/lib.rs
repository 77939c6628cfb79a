//! Zero-dependency observability for the NIDC pipeline.
//!
//! Atomic [`Counter`]s and fixed-bucket [`Histogram`]s feed one
//! process-global [`Registry`]; a phase is timed by the trace span that
//! covers it (`span!(name, HIST)` observes the span's seconds into `HIST`).
//! The registry can be frozen into a [`Snapshot`] and exported as a
//! JSON-lines record or a Prometheus text-format exposition
//! ([`MetricsExporter`]). A leveled structured logger ([`Level`], [`info`],
//! [`debug`]) replaces ad-hoc `println!` debugging in the pipeline crates.
//!
//! # Determinism contract
//!
//! Instrumentation must never influence results. Every recording call is a
//! pure observer: it reads values the algorithm already computed and updates
//! atomics that nothing on the algorithm side ever reads back. No control
//! flow and no floating-point value in any instrumented crate depends on
//! recorder state, so clusterings are bit-identical with the recorder on or
//! off (enforced by `tests/obs_determinism.rs` in the workspace root).
//!
//! # Overhead budget
//!
//! Recording is **off by default**. Disabled call sites pay exactly one
//! relaxed atomic load plus a predictable branch — the [`enabled`] check —
//! and construct nothing. Enabled counter/histogram sites pay one relaxed
//! `fetch_add` (histograms add a ≤ 24-element bounds scan and a CAS loop for
//! the running sum); site handles ([`LazyCounter`], [`LazyHistogram`]) cache
//! their registry entry in a `OnceLock`, so the name lookup happens once per
//! site, not per event. Hot loops accumulate locally and publish one `add`
//! per call (see `ClusterIndex::dot_all`).
//!
//! # Usage
//!
//! ```
//! use nidc_obs as obs;
//!
//! static DOCS: obs::LazyCounter = obs::LazyCounter::new("demo_docs_total");
//! static PHASE: obs::LazyHistogram =
//!     obs::LazyHistogram::new("demo_phase_seconds", obs::buckets::LATENCY_SECONDS);
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span!("demo.phase", PHASE); // observes its seconds on drop
//!     DOCS.add(3);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo_docs_total"), Some(3));
//! println!("{}", snap.to_prometheus());
//! obs::set_enabled(false);
//! ```

// `deny`, not `forbid`: the one `GlobalAlloc` impl in `alloc.rs` carries a
// scoped `#[allow(unsafe_code)]`; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod events;
mod export;
mod gauge;
mod handles;
mod log;
mod metrics;
pub mod profile;
mod recorder;
mod snapshot;
pub mod trace;
mod trace_export;

pub use events::{EventSession, EVENTS_SCHEMA_VERSION};
pub use export::{write_atomic, MetricsExporter, MetricsFormat};
pub use gauge::{
    btree_map_size_bytes, DeepSize, FloatGauge, Gauge, LazyFloatGauge, LazyGauge,
    BTREE_ENTRY_OVERHEAD,
};
pub use handles::{LazyCounter, LazyHistogram};
pub use log::{debug, info, log, log_level, log_on, set_log_level, Level};
pub use metrics::{buckets, Counter, Histogram};
pub use profile::{Profile, ProfileNode};
pub use recorder::Registry;
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace_export::{write_chrome_trace, TraceSession};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-global registry every instrumented crate records into.
static GLOBAL: Registry = Registry::new();

/// Master switch. `false` (the default) turns every instrumentation site
/// into a single relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global [`Registry`].
///
/// Always present; whether call sites actually record into it is governed by
/// [`set_enabled`].
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Whether metric recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide.
///
/// Safe to toggle at any time; sites that cached registry handles keep
/// working because [`reset`] zeroes metrics in place rather than replacing
/// them.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Freezes the current state of the global registry.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

/// Zeroes every metric in the global registry **in place**.
///
/// Registered metrics stay registered (and cached handles stay valid), so a
/// snapshot taken right after a reset reports every previously-touched
/// metric with zero values — this is what makes per-window JSON-lines
/// deltas possible without invalidating `LazyCounter` sites.
///
/// **Scope is values only, by design**: the enable flag, log level, and
/// trace state are untouched, because the JSON-lines exporter calls this
/// after every window and must keep recording the next one. Use
/// [`reset_all`] between independent runs in one process.
pub fn reset() {
    GLOBAL.reset();
}

/// Returns the process to the recorder-off ground state: metric values
/// zeroed in place (like [`reset`]), metric recording, tracing and
/// allocation tracking disabled, allocation tallies zeroed, buffered trace
/// events and track labels discarded, and the log level back to
/// [`Level::Off`].
///
/// This is the boundary between independent runs sharing one process (the
/// CLI calls it at the top of every command dispatch), so an earlier run's
/// `--metrics`/`--log-level`/`--trace`/`--alloc-stats` cannot leak into the
/// next.
pub fn reset_all() {
    GLOBAL.reset();
    set_enabled(false);
    set_log_level(Level::Off);
    trace::set_trace_enabled(false);
    trace::clear();
    alloc::set_tracking(false);
    alloc::reset();
    alloc::reset_sample_baseline();
    events::reset();
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The global enable flag is shared across the test binary's threads;
    //! every unit test that toggles it serialises on this lock.
    use std::sync::{Mutex, MutexGuard};

    pub(crate) fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_keeps_flags_but_reset_all_clears_them() {
        let _guard = test_support::global_lock();
        set_enabled(true);
        set_log_level(Level::Debug);
        trace::set_trace_enabled(true);
        alloc::set_tracking(true);
        global().counter("lib_test_reset_total").add(7);
        {
            let _s = span!("lib_test_reset_span");
        }

        // `reset` zeroes values only: every flag survives (the JSONL
        // exporter depends on this between windows).
        reset();
        assert_eq!(snapshot().counter("lib_test_reset_total"), Some(0));
        assert!(enabled());
        assert_eq!(log_level(), Level::Debug);
        assert!(trace::trace_enabled());
        assert!(alloc::tracking_enabled());

        // `reset_all` is the between-runs boundary: flags off, buffers gone.
        global().counter("lib_test_reset_total").add(3);
        reset_all();
        assert_eq!(snapshot().counter("lib_test_reset_total"), Some(0));
        assert!(!enabled());
        assert_eq!(log_level(), Level::Off);
        assert!(!trace::trace_enabled());
        assert!(!alloc::tracking_enabled());
        assert_eq!(alloc::stats(), alloc::AllocStats::default());
        assert!(trace::drain().is_empty(), "buffered spans discarded");
        assert!(trace::track_labels().is_empty());
    }
}
