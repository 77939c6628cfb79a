//! Static site handles: cheap, cache the registry lookup once per site.

use std::sync::{Arc, OnceLock};

use crate::metrics::{Counter, Histogram};
use crate::trace::Span;

/// A named counter site, declared as a `static` next to the code it counts.
///
/// Disabled cost: one relaxed load + branch. Enabled cost: one `OnceLock`
/// load (the registry lookup happens only on the first event) plus one
/// relaxed `fetch_add`.
///
/// ```
/// static MOVES: nidc_obs::LazyCounter = nidc_obs::LazyCounter::new("demo_moves_total");
/// MOVES.add(3);
/// ```
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// A handle for the counter registered under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The metric name this site records under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `delta` events (no-op while recording is disabled).
    ///
    /// `add(0)` still registers the metric — call sites use that to make a
    /// counter visible in snapshots even in runs where it never fires.
    #[inline]
    pub fn add(&self, delta: u64) {
        if crate::enabled() {
            self.cell
                .get_or_init(|| crate::global().counter(self.name))
                .add(delta);
        }
    }

    /// Adds one event (no-op while recording is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A named histogram site, declared as a `static` with its bucket layout.
///
/// ```
/// use nidc_obs::{buckets, LazyHistogram};
/// static PHASE: LazyHistogram = LazyHistogram::new("demo_seconds", buckets::LATENCY_SECONDS);
/// PHASE.observe(0.032);
/// let _span = nidc_obs::span!("demo", PHASE); // or time a scope via a span
/// ```
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    bounds: &'static [f64],
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// A handle for the histogram registered under `name` with `bounds`.
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> Self {
        Self {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// The metric name this site records under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation (no-op while recording is disabled).
    #[inline]
    pub fn observe(&self, value: f64) {
        if crate::enabled() {
            self.cell
                .get_or_init(|| crate::global().histogram(self.name, self.bounds))
                .observe(value);
        }
    }

    /// Registers the histogram without recording anything, so it shows up
    /// (empty) in snapshots even in runs where the site never fires.
    pub fn touch(&self) {
        if crate::enabled() {
            self.cell
                .get_or_init(|| crate::global().histogram(self.name, self.bounds));
        }
    }

    /// Starts a phase timer: an untraced [`Span`] that observes its
    /// elapsed seconds into this histogram when dropped, inert while
    /// recording is disabled. A scope a trace span covers is timed by that
    /// span instead (`span!(name, HIST)`).
    #[inline]
    pub fn start_timer(&'static self) -> Span {
        crate::trace::open(None, Some(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::buckets;
    use crate::test_support::global_lock;

    #[test]
    fn lazy_sites_record_only_while_enabled() {
        let _guard = global_lock();
        static C: LazyCounter = LazyCounter::new("handles_gate_total");
        static H: LazyHistogram =
            LazyHistogram::new("handles_gate_seconds", buckets::LATENCY_SECONDS);
        crate::set_enabled(false);
        C.inc();
        H.observe(1.0);
        assert_eq!(crate::snapshot().counter("handles_gate_total"), None);
        crate::set_enabled(true);
        C.add(2);
        H.observe(0.5);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("handles_gate_total"), Some(2));
        assert_eq!(snap.histogram("handles_gate_seconds").unwrap().count, 1);
        crate::set_enabled(false);
    }

    #[test]
    fn add_zero_registers_the_metric() {
        let _guard = global_lock();
        static C: LazyCounter = LazyCounter::new("handles_zero_total");
        static H: LazyHistogram = LazyHistogram::new("handles_zero_sizes", buckets::SIZES);
        crate::set_enabled(true);
        C.add(0);
        H.touch();
        let snap = crate::snapshot();
        assert_eq!(snap.counter("handles_zero_total"), Some(0));
        assert_eq!(snap.histogram("handles_zero_sizes").unwrap().count, 0);
        crate::set_enabled(false);
    }

    #[test]
    fn phase_timer_observes_on_drop() {
        let _guard = global_lock();
        static H: LazyHistogram =
            LazyHistogram::new("handles_timer_seconds", buckets::LATENCY_SECONDS);
        crate::set_enabled(true);
        {
            let _t = H.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = crate::snapshot();
        let h = snap.histogram("handles_timer_seconds").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.002, "sum={}", h.sum);
        crate::set_enabled(false);
        // Disabled timers observe nothing (that they hold nothing and read
        // no clock is pinned next to the span's fields, in `trace`).
        drop(H.start_timer());
        crate::set_enabled(true);
        let count = crate::snapshot()
            .histogram("handles_timer_seconds")
            .unwrap()
            .count;
        crate::set_enabled(false);
        assert_eq!(count, 1);
    }
}
