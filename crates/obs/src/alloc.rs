//! Counting global allocator: process-wide and per-thread allocation tallies.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and, **when tracking is
//! enabled**, counts every alloc/dealloc/realloc together with the byte
//! volumes involved. Tracking is off by default; a disabled allocation costs
//! exactly one relaxed atomic load plus a predictable branch on top of the
//! system allocator — the same discipline as the metric recorder's
//! [`crate::enabled`] gate.
//!
//! Two tally sets are kept:
//!
//! * **Global totals** (relaxed atomics): allocs, deallocs, reallocs, bytes
//!   allocated, live bytes, and peak live bytes. These feed [`stats`], the
//!   `nidc_alloc_*` counters, and `bench_alloc`.
//! * **Per-thread tallies** (const-initialised `thread_local!` `Cell`s, so
//!   touching them never allocates and never recurses into the allocator):
//!   allocation events and bytes allocated on *this* thread. Trace spans
//!   snapshot these at open/close, giving the profile tree per-span
//!   `allocs`/`bytes` attribution; `par_chunks`/`par_map_mut` fold worker
//!   deltas back into the capturing span via [`add_external`].
//!
//! Both sets count in one unit — an `alloc`, `alloc_zeroed` or `realloc`
//! call is one event, and bytes are requested sizes plus realloc growth —
//! so spans never count more than the global totals over the same scope.
//! Neither counts the trace recorder's own event buffers, so a traced run
//! reports the allocations an untraced one does.
//!
//! Counting is a pure observer: no allocation decision ever depends on the
//! tallies, so enabling tracking cannot change clustering results (pinned by
//! `tests/obs_determinism.rs`).
//!
//! Live bytes are kept signed internally: blocks allocated before tracking
//! was enabled may be freed after, so the observed live delta can dip below
//! zero — [`stats`] clamps at zero rather than wrapping. "Live bytes" is
//! requested-bytes accounting (`Layout::size`), not allocator-internal
//! fragmentation or arena overhead — see DESIGN.md §4.6 for what peak-live
//! does and does not capture. For the OS view, use [`rss_peak_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Master switch for allocation tracking (off by default).
static TRACKING: AtomicBool = AtomicBool::new(false);

// Process-wide totals. All relaxed: tallies are monotone event counts that
// no algorithm reads back, and exact cross-thread ordering is irrelevant.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
// Signed: frees of blocks allocated before tracking started (or before a
// reset) legitimately push the observed delta negative.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised Cells: no lazy init, no Drop, no allocation on
    // first touch — safe to bump from inside the allocator itself.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    // Set while the trace recorder allocates its own buffers, which are no
    // part of the pipeline's work: see [`recorder_allocating`].
    static TL_RECORDER: Cell<bool> = const { Cell::new(false) };
}

/// Whether allocation tracking is currently enabled.
#[inline(always)]
pub fn tracking_enabled() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Turns allocation tracking on or off process-wide.
///
/// Safe to toggle at any time; tallies accumulated so far are preserved
/// (use [`reset`] to zero them).
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::Relaxed);
}

/// A frozen copy of the process-wide allocation tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocation events: `alloc`, `alloc_zeroed` and `realloc` calls — the
    /// same unit as a span's `allocs`, so span counts sum to at most this.
    pub allocs: u64,
    /// Deallocation events.
    pub deallocs: u64,
    /// The `realloc` calls among `allocs`.
    pub reallocs: u64,
    /// Total bytes ever allocated (allocs plus realloc growth).
    pub bytes_allocated: u64,
    /// Bytes currently live (allocated minus deallocated, clamped at 0).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since the last [`reset_peak`].
    pub peak_live_bytes: u64,
}

/// Reads the current process-wide tallies.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        reallocs: REALLOCS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Zeroes every global tally and this thread's per-thread tallies.
///
/// Note `live_bytes` is also zeroed: after a reset it tracks the *delta*
/// of live bytes since the reset, which is what phase-scoped measurement
/// (`bench_alloc`) wants. Other threads' per-thread tallies are untouched.
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    DEALLOCS.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
    BYTES_ALLOCATED.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(0, Ordering::Relaxed);
    let _ = TL_ALLOCS.try_with(|c| c.set(0));
    let _ = TL_BYTES.try_with(|c| c.set(0));
}

/// Resets the peak-live high-water mark to the current live level, so the
/// next phase measures its own peak rather than inheriting history's.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// This thread's `(allocation events, bytes allocated)` tallies.
///
/// Monotone while tracking is enabled; trace spans snapshot them at open and
/// close, so the difference attributes allocations to the span.
#[inline]
pub fn thread_tallies() -> (u64, u64) {
    (
        TL_ALLOCS.try_with(Cell::get).unwrap_or(0),
        TL_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Folds externally-measured allocation work into *this* thread's tallies.
///
/// The parallel fan-outs measure each worker thread's delta and fold the sum
/// into the calling thread before the fan-out span closes, so enclosing
/// spans attribute worker allocations exactly as `SpanContext` chaining
/// already attributes worker time. Global totals are **not** touched — the
/// workers already counted there.
#[inline]
pub fn add_external(allocs: u64, bytes: u64) {
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(allocs)));
    let _ = TL_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// Leaves this thread's allocations and frees out of every tally, global
/// and per-thread, until the returned guard drops: the trace recorder holds
/// one while it grows its own event buffers, so a traced run counts what an
/// untraced run counts.
pub(crate) fn recorder_allocating() -> RecorderAllocating {
    RecorderAllocating {
        was: TL_RECORDER.try_with(|c| c.replace(true)).unwrap_or(false),
    }
}

/// The guard of [`recorder_allocating`]; restores the mark it found.
pub(crate) struct RecorderAllocating {
    was: bool,
}

impl Drop for RecorderAllocating {
    fn drop(&mut self) {
        let _ = TL_RECORDER.try_with(|c| c.set(self.was));
    }
}

/// Whether this thread's allocations count: not while the recorder holds
/// its mark.
#[inline]
fn counted() -> bool {
    !TL_RECORDER.try_with(Cell::get).unwrap_or(false)
}

#[inline]
fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = TL_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
}

#[inline]
fn on_dealloc(size: u64) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

#[inline]
fn on_realloc(old: u64, new: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    REALLOCS.fetch_add(1, Ordering::Relaxed);
    if new > old {
        let grow = new - old;
        BYTES_ALLOCATED.fetch_add(grow, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(grow as i64, Ordering::Relaxed) + grow as i64;
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
        let _ = TL_BYTES.try_with(|c| c.set(c.get().wrapping_add(grow)));
    } else {
        LIVE_BYTES.fetch_sub((old - new) as i64, Ordering::Relaxed);
    }
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// A counting wrapper over [`std::alloc::System`].
///
/// Installed as the workspace `#[global_allocator]` below, so every binary
/// and test that links `nidc-obs` gets allocation observability for free.
pub struct CountingAlloc;

// `GlobalAlloc` is inherently unsafe to implement; this is the one place in
// the crate that needs it, and it only delegates to `System` plus relaxed
// counter bumps that never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if tracking_enabled() && !p.is_null() && counted() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if tracking_enabled() && !p.is_null() && counted() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking_enabled() && counted() {
            on_dealloc(layout.size() as u64);
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if tracking_enabled() && !p.is_null() && counted() {
            on_realloc(layout.size() as u64, new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// The process's peak resident set size in bytes, from `/proc/self/status`
/// `VmHWM` on Linux; `0` where unavailable.
///
/// This is the OS's view (pages, not requested bytes) and works without the
/// counting allocator enabled — the JSONL metrics exporter emits it per
/// window so long `nidc stream` runs expose leak trends for free.
pub fn rss_peak_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

// Last-sampled totals, so `sample_metrics` can feed *deltas* into the
// cumulative `nidc_alloc_*` counters (which the JSONL exporter zeroes per
// window) without double counting.
static LAST_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LAST_DEALLOCS: AtomicU64 = AtomicU64::new(0);
static LAST_REALLOCS: AtomicU64 = AtomicU64::new(0);
static LAST_BYTES: AtomicU64 = AtomicU64::new(0);

/// Publishes the allocation totals into the `nidc_alloc_*` counters as a
/// delta since the previous sample.
///
/// Called by the metrics exporter before each window snapshot. With tracking
/// disabled the deltas are zero, but the counters still register — so the
/// metrics schema (and `check_metrics`) is stable whether or not
/// `--alloc-stats` was requested.
pub fn sample_metrics() {
    use crate::LazyCounter;
    static M_ALLOCS: LazyCounter = LazyCounter::new("nidc_alloc_allocs_total");
    static M_DEALLOCS: LazyCounter = LazyCounter::new("nidc_alloc_deallocs_total");
    static M_REALLOCS: LazyCounter = LazyCounter::new("nidc_alloc_reallocs_total");
    static M_BYTES: LazyCounter = LazyCounter::new("nidc_alloc_bytes_total");

    let s = stats();
    // swap() gives exactly-once delta semantics even if two exporters race.
    let d_allocs = s
        .allocs
        .wrapping_sub(LAST_ALLOCS.swap(s.allocs, Ordering::Relaxed));
    let d_deallocs = s
        .deallocs
        .wrapping_sub(LAST_DEALLOCS.swap(s.deallocs, Ordering::Relaxed));
    let d_reallocs = s
        .reallocs
        .wrapping_sub(LAST_REALLOCS.swap(s.reallocs, Ordering::Relaxed));
    let d_bytes = s
        .bytes_allocated
        .wrapping_sub(LAST_BYTES.swap(s.bytes_allocated, Ordering::Relaxed));
    // add(0) registers without recording, keeping the schema stable.
    M_ALLOCS.add(d_allocs);
    M_DEALLOCS.add(d_deallocs);
    M_REALLOCS.add(d_reallocs);
    M_BYTES.add(d_bytes);
}

/// Resets the delta baseline used by [`sample_metrics`] (part of
/// [`crate::reset_all`]'s between-runs boundary).
pub(crate) fn reset_sample_baseline() {
    let s = stats();
    LAST_ALLOCS.store(s.allocs, Ordering::Relaxed);
    LAST_DEALLOCS.store(s.deallocs, Ordering::Relaxed);
    LAST_REALLOCS.store(s.reallocs, Ordering::Relaxed);
    LAST_BYTES.store(s.bytes_allocated, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::global_lock;

    #[test]
    fn disabled_tracking_counts_nothing() {
        let _guard = global_lock();
        set_tracking(false);
        reset();
        let before = stats();
        let v: Vec<u64> = Vec::with_capacity(64);
        drop(v);
        let after = stats();
        assert_eq!(before, after, "disabled allocator must not count");
    }

    #[test]
    fn thread_tallies_track_local_allocations() {
        let _guard = global_lock();
        set_tracking(true);
        let (a0, b0) = thread_tallies();
        let v: Vec<u64> = Vec::with_capacity(32);
        let (a1, b1) = thread_tallies();
        drop(v);
        set_tracking(false);
        assert!(a1 > a0);
        assert!(b1 - b0 >= 256);
    }

    #[test]
    fn add_external_bumps_only_thread_tallies() {
        // Tracking stays off: add_external is unconditional, and with the
        // allocator dormant the global totals provably cannot move.
        let _guard = global_lock();
        set_tracking(false);
        let global_before = stats();
        let (a0, b0) = thread_tallies();
        add_external(5, 1000);
        let (a1, b1) = thread_tallies();
        let global_after = stats();
        assert_eq!(a1 - a0, 5);
        assert_eq!(b1 - b0, 1000);
        assert_eq!(global_before, global_after);
    }

    #[test]
    fn realloc_growth_counts_bytes_once() {
        let _guard = global_lock();
        set_tracking(true);
        reset();
        let mut v: Vec<u64> = vec![0; 8];
        let before = stats();
        v.reserve_exact(1024); // forces a realloc (or alloc+copy)
        let after = stats();
        drop(v);
        set_tracking(false);
        assert!(
            after.reallocs > before.reallocs || after.allocs > before.allocs,
            "growing past capacity must surface as a realloc or alloc"
        );
        assert!(after.bytes_allocated > before.bytes_allocated);
    }

    #[test]
    fn a_span_never_counts_more_than_the_global_totals() {
        let _guard = global_lock();
        crate::trace::clear();
        set_tracking(true);
        crate::trace::set_trace_enabled(true);
        let before = stats();
        {
            let _s = crate::span!("alloc_test_growth");
            for _ in 0..64 {
                // one alloc, then a realloc at every doubling
                let mut v: Vec<u64> = Vec::new();
                for i in 0..1024 {
                    v.push(i);
                }
                std::hint::black_box(&v);
            }
        }
        let after = stats();
        crate::trace::set_trace_enabled(false);
        set_tracking(false);
        let events = crate::trace::drain();
        let [begin, end] = &events[..] else {
            panic!("one Begin/End pair expected, got {events:?}")
        };
        assert!(
            after.reallocs - before.reallocs >= 64 * 8,
            "the pushes realloc"
        );
        assert!(
            end.allocs - begin.allocs <= after.allocs - before.allocs,
            "span allocs {} exceed the global delta {}",
            end.allocs - begin.allocs,
            after.allocs - before.allocs
        );
        assert!(end.bytes - begin.bytes <= after.bytes_allocated - before.bytes_allocated);
    }

    #[test]
    fn freeing_pretracked_blocks_clamps_instead_of_wrapping() {
        let _guard = global_lock();
        set_tracking(false);
        let v: Vec<u64> = Vec::with_capacity(512); // allocated unobserved
        set_tracking(true);
        reset();
        drop(v); // freed observed → signed live goes negative internally
        let s = stats();
        set_tracking(false);
        assert!(
            s.live_bytes < 1 << 40,
            "live bytes must clamp at zero, not wrap: {}",
            s.live_bytes
        );
    }

    #[test]
    fn rss_peak_is_nonzero_on_linux() {
        let rss = rss_peak_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "a running process has a nonzero peak RSS");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn sample_metrics_registers_counters_even_when_disabled() {
        let _guard = global_lock();
        set_tracking(false);
        crate::set_enabled(true);
        crate::reset();
        reset_sample_baseline();
        sample_metrics();
        let snap = crate::snapshot();
        crate::set_enabled(false);
        for name in [
            "nidc_alloc_allocs_total",
            "nidc_alloc_deallocs_total",
            "nidc_alloc_reallocs_total",
            "nidc_alloc_bytes_total",
        ] {
            assert_eq!(snap.counter(name), Some(0), "{name} must register at zero");
        }
    }
}
