//! The [`Registry`] that backs the process-global metrics.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::gauge::{FloatGauge, Gauge};
use crate::metrics::{Counter, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot};

/// A named collection of counters, gauges and histograms.
///
/// Metrics are registered on first use and never removed; [`Registry::reset`]
/// zeroes them in place so `Arc` handles cached by call sites stay valid.
/// Counter, gauge and histogram names live in separate namespaces, but the
/// naming convention (see DESIGN.md §Observability) keeps them disjoint
/// anyway (`*_total` counters vs. `nidc_mem_*_bytes` gauges vs.
/// `*_seconds`/value-distribution histograms).
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    fgauges: Mutex<BTreeMap<&'static str, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            fgauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // A poisoned metrics map only means some thread panicked mid-insert;
        // the data is still a valid BTreeMap, and observability must never
        // take the process down.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(Self::lock(&self.counters).entry(name).or_default())
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(Self::lock(&self.gauges).entry(name).or_default())
    }

    /// The float gauge registered under `name`, created at `0.0` on first
    /// use. Float gauges live in their own namespace (and their own
    /// snapshot section) so integer byte-gauges keep exact `u64` wire
    /// values.
    pub fn fgauge(&self, name: &'static str) -> Arc<FloatGauge> {
        Arc::clone(Self::lock(&self.fgauges).entry(name).or_default())
    }

    /// The histogram registered under `name`, created with `bounds` on first
    /// use (later calls keep the original bounds).
    pub fn histogram(&self, name: &'static str, bounds: &'static [f64]) -> Arc<Histogram> {
        Arc::clone(
            Self::lock(&self.histograms)
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Freezes every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = Self::lock(&self.counters)
            .iter()
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect();
        let gauges = Self::lock(&self.gauges)
            .iter()
            .map(|(name, g)| (name.to_string(), g.get()))
            .collect();
        let fgauges = Self::lock(&self.fgauges)
            .iter()
            .map(|(name, g)| (name.to_string(), g.get()))
            .collect();
        let histograms = Self::lock(&self.histograms)
            .iter()
            .map(|(name, h)| {
                (
                    name.to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            fgauges,
            histograms,
        }
    }

    /// Zeroes every registered metric in place (registrations survive).
    pub fn reset(&self) {
        for c in Self::lock(&self.counters).values() {
            c.reset();
        }
        for g in Self::lock(&self.gauges).values() {
            g.reset();
        }
        for g in Self::lock(&self.fgauges).values() {
            g.reset();
        }
        for h in Self::lock(&self.histograms).values() {
            h.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::buckets;

    #[test]
    fn counter_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("shared_total");
        let b = r.counter("shared_total");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("shared_total").get(), 5);
    }

    #[test]
    fn histogram_keeps_first_bounds() {
        let r = Registry::new();
        let h = r.histogram("h_seconds", buckets::LATENCY_SECONDS);
        let again = r.histogram("h_seconds", buckets::SIZES);
        assert_eq!(h.bounds(), again.bounds());
    }

    #[test]
    fn reset_preserves_registrations_and_handles() {
        let r = Registry::new();
        let c = r.counter("kept_total");
        c.add(7);
        r.histogram("kept_seconds", buckets::LATENCY_SECONDS)
            .observe(0.1);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("kept_total"), Some(0));
        assert_eq!(snap.histogram("kept_seconds").unwrap().count, 0);
        // The pre-reset handle still feeds the same counter.
        c.add(1);
        assert_eq!(r.snapshot().counter("kept_total"), Some(1));
    }

    #[test]
    fn gauge_handles_are_shared_and_reset_zeroes_them() {
        let r = Registry::new();
        let a = r.gauge("shared_bytes");
        let b = r.gauge("shared_bytes");
        a.set(100);
        b.set(250);
        assert_eq!(r.gauge("shared_bytes").get(), 250, "last set wins");
        assert_eq!(r.snapshot().gauge("shared_bytes"), Some(250));
        r.reset();
        assert_eq!(r.snapshot().gauge("shared_bytes"), Some(0));
        // The pre-reset handle still feeds the same gauge.
        a.set(9);
        assert_eq!(r.snapshot().gauge("shared_bytes"), Some(9));
    }

    #[test]
    fn fgauge_handles_are_shared_and_reset_zeroes_them() {
        let r = Registry::new();
        let a = r.fgauge("shared_ratio");
        let b = r.fgauge("shared_ratio");
        a.set(0.5);
        b.set(0.75);
        assert_eq!(r.fgauge("shared_ratio").get(), 0.75, "last set wins");
        assert_eq!(r.snapshot().fgauge("shared_ratio"), Some(0.75));
        r.reset();
        assert_eq!(r.snapshot().fgauge("shared_ratio"), Some(0.0));
        // The pre-reset handle still feeds the same gauge.
        a.set(0.25);
        assert_eq!(r.snapshot().fgauge("shared_ratio"), Some(0.25));
    }
}
