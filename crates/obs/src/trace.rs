//! Causal span tracing over per-thread event buffers.
//!
//! The metrics layer answers "how much, how often"; this module answers
//! *where inside one window the time went*. Instrumented code opens RAII
//! spans ([`span`] / the [`crate::span!`] macro); each span records a
//! begin and an end [`TraceEvent`] carrying a process-unique `u64` id, the
//! id of the span that was current when it opened (its parent), and a
//! *track* — the lane Perfetto renders it on (track 0 is the main
//! pipeline; sharded runs give every shard its own track).
//!
//! # Recording model
//!
//! Events go into a per-thread buffer (`thread_local!`), so the hot path
//! takes no lock and — once the buffer has warmed up to its flush
//! threshold's capacity — performs no allocation. Buffers are batch-flushed
//! into one process-global sink when full, on [`flush_thread`], when their
//! thread exits, and on [`drain`]. Workers spawned by `nidc-parallel` hold
//! a [`flush_on_exit`] guard, so their buffers reach the sink while the
//! worker closure unwinds — strictly before the fan-out's scope join
//! returns (the thread-exit flush alone would race the spawner's
//! [`drain`], because `std::thread::scope` may return before a finished
//! worker's thread-local destructors run). Per-thread event order is
//! preserved across batches.
//!
//! # Cross-thread propagation
//!
//! A fresh thread has no current span, so spans it opens would become
//! roots. Fan-out call sites capture [`current_context`] *before* spawning
//! and [`SpanContext::attach`] it inside each worker closure: spans the
//! worker opens then parent correctly under the span that was current at
//! the fan-out point, and inherit its track. `ShardedPipeline` overrides
//! the track per shard ([`with_track`]) so each shard renders as one lane.
//!
//! # Contract (same as the metrics layer)
//!
//! Tracing is off by default; a disabled [`span`] site pays one relaxed
//! atomic load plus a branch (a timed one a second, for the metrics flag)
//! and records nothing. Recording never
//! influences results — clusterings are bit-identical with tracing on or
//! off (enforced by `tests/obs_determinism.rs` in the workspace root).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::LazyHistogram;

/// Whether an event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One begin or end record, as captured on the recording thread.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (a static label like `"kmeans.iteration"`).
    pub name: &'static str,
    /// Process-unique span id; the begin and end events of a span share it.
    /// Never 0 (0 means "no span" in parent links).
    pub id: u64,
    /// Id of the enclosing span at open time, 0 for roots.
    pub parent: u64,
    /// Display lane: 0 = main pipeline, shard `s` renders on track `s + 1`.
    pub track: u32,
    /// Ordinal of the OS thread that recorded the event (for validation;
    /// distinct from `track`, which is a display concept).
    pub thread: u64,
    /// Begin or end.
    pub phase: TracePhase,
    /// Nanoseconds since the process trace origin, monotone per thread.
    pub ts_ns: u64,
    /// Snapshot of the recording thread's allocation-event tally at event
    /// time (monotone per thread, like `ts_ns`; 0 while allocation
    /// tracking is disabled). End − begin = allocations inside the span.
    pub allocs: u64,
    /// Snapshot of the recording thread's bytes-allocated tally at event
    /// time (same semantics as `allocs`).
    pub bytes: u64,
}

/// Master switch, independent of the metrics enable flag.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Span id allocator; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Recording-thread ordinal allocator.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Where thread buffers flush to; drained by [`drain`].
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Human-readable lane names for the exporter (`track → label`).
static TRACK_LABELS: Mutex<BTreeMap<u32, String>> = Mutex::new(BTreeMap::new());

/// Buffered events per thread before a batch flush into [`SINK`].
const FLUSH_EVERY: usize = 4096;

/// Whether span recording is currently enabled.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide.
pub fn set_trace_enabled(on: bool) {
    if on {
        origin(); // pin the timestamp origin before the first event
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide timestamp origin: every `ts_ns` counts from here.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Per-thread recording state. The buffer flushes to [`SINK`] when full
/// and in the thread-local destructor, so a worker thread that exits (the
/// `std::thread::scope` join in `nidc-parallel`) never strands events.
struct ThreadState {
    ordinal: u64,
    /// Id of the innermost open span on this thread (0 = none).
    parent: u64,
    /// Track newly opened spans record on.
    track: u32,
    buf: Vec<TraceEvent>,
}

impl ThreadState {
    fn new() -> Self {
        Self {
            ordinal: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            track: 0,
            buf: Vec::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.capacity() == 0 {
            // One allocation per thread; `drain` in `flush` keeps the
            // capacity, so steady-state recording allocates nothing.
            let _own = crate::alloc::recorder_allocating();
            self.buf.reserve(FLUSH_EVERY);
        }
        self.buf.push(ev);
        if self.buf.len() >= FLUSH_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let _own = crate::alloc::recorder_allocating();
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.extend(self.buf.drain(..));
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
        // freed here, under the mark its allocation was made under
        let _own = crate::alloc::recorder_allocating();
        drop(std::mem::take(&mut self.buf));
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// An open span; recording its end event on drop (including during panic
/// unwinding, so traces stay balanced across worker panics).
///
/// A span given a histogram also observes its duration, in seconds, into
/// it while metric recording is on, from the same two clock reads that
/// stamp its Begin/End events. [`LazyHistogram::start_timer`] returns an
/// untraced span of this kind.
///
/// Not `Send`: a span must close on the thread that opened it.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    /// Open time in ns since the trace origin (0 while both recorders are off).
    begin_ns: u64,
    /// The recorded Begin event, while tracing.
    begin: Option<TraceEvent>,
    hist: Option<&'static LazyHistogram>,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` under the thread's current span, timed into
/// `hist` if one is given.
///
/// Inert (no id allocated, no clock read) while tracing and, for a timed
/// span, metric recording are disabled.
#[inline]
pub fn span(name: &'static str, hist: Option<&'static LazyHistogram>) -> Span {
    open(Some(name), hist)
}

/// Opens a span; with no `name` it records no trace events, whatever the
/// tracing flag (the phase timer of [`LazyHistogram::start_timer`]).
#[inline]
pub(crate) fn open(name: Option<&'static str>, hist: Option<&'static LazyHistogram>) -> Span {
    let hist = hist.filter(|_| crate::enabled());
    let name = name.filter(|_| trace_enabled());
    let on = name.is_some() || hist.is_some();
    let begin_ns = if on { now_ns() } else { 0 };
    Span {
        begin_ns,
        begin: name.and_then(|name| begin_event(name, begin_ns)),
        hist,
        _not_send: PhantomData,
    }
}

/// Records a Begin event at `ts_ns` and makes the new span current.
fn begin_event(name: &'static str, ts_ns: u64) -> Option<TraceEvent> {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (allocs, bytes) = crate::alloc::thread_tallies();
    LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let ev = TraceEvent {
                name,
                id,
                parent: l.parent,
                track: l.track,
                thread: l.ordinal,
                phase: TracePhase::Begin,
                ts_ns,
                allocs,
                bytes,
            };
            l.parent = id;
            l.push(ev.clone());
            ev
        })
        .ok()
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.begin.is_none() && self.hist.is_none() {
            return;
        }
        let ts_ns = now_ns();
        // Observed before the tallies are read, so the span's allocations
        // include the histogram's one-time registration.
        if let Some(hist) = self.hist {
            hist.observe((ts_ns - self.begin_ns) as f64 / 1e9);
        }
        let Some(begin) = self.begin.take() else {
            return;
        };
        // Spans close on their opening thread (the type is !Send), so this
        // reads the same thread's tally the begin event snapshotted.
        let (allocs, bytes) = crate::alloc::thread_tallies();
        let ev = TraceEvent {
            phase: TracePhase::End,
            ts_ns,
            allocs,
            bytes,
            ..begin
        };
        let pushed = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.parent = ev.parent;
            l.push(ev.clone());
        });
        if pushed.is_err() {
            // Thread-local already destroyed (span dropped during thread
            // teardown): keep the trace balanced via the sink directly.
            let _own = crate::alloc::recorder_allocating();
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.push(ev);
        }
    }
}

/// The (parent span, track) pair a worker closure should record under.
///
/// Captured on the spawning thread with [`current_context`] and applied in
/// the worker with [`SpanContext::attach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Id of the span current at capture time (0 = none).
    pub parent: u64,
    /// Track current at capture time.
    pub track: u32,
}

/// The calling thread's current (span, track), for handing to workers.
/// Cheap and meaningless (all zeros) while tracing is disabled.
#[inline]
pub fn current_context() -> SpanContext {
    if !trace_enabled() {
        return SpanContext::default();
    }
    LOCAL
        .try_with(|l| {
            let l = l.borrow();
            SpanContext {
                parent: l.parent,
                track: l.track,
            }
        })
        .unwrap_or_default()
}

/// Restores the previous (parent, track) when dropped. Not `Send`.
#[must_use = "the context detaches when this guard drops"]
#[derive(Debug)]
pub struct ContextGuard {
    saved: Option<(u64, u32)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanContext {
    /// Makes this context the calling thread's current one until the
    /// returned guard drops. Inert while tracing is disabled.
    pub fn attach(self) -> ContextGuard {
        if !trace_enabled() {
            return ContextGuard {
                saved: None,
                _not_send: PhantomData,
            };
        }
        let saved = LOCAL
            .try_with(|l| {
                let mut l = l.borrow_mut();
                let saved = (l.parent, l.track);
                l.parent = self.parent;
                l.track = self.track;
                saved
            })
            .ok();
        ContextGuard {
            saved,
            _not_send: PhantomData,
        }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some((parent, track)) = self.saved.take() else {
            return;
        };
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.parent = parent;
            l.track = track;
        });
    }
}

/// Restores the previous track when dropped. Not `Send`.
#[must_use = "the track reverts when this guard drops"]
#[derive(Debug)]
pub struct TrackGuard {
    saved: Option<u32>,
    _not_send: PhantomData<*const ()>,
}

/// Records subsequent spans on this thread onto `track` until the guard
/// drops. Inert while tracing is disabled.
pub fn with_track(track: u32) -> TrackGuard {
    if !trace_enabled() {
        return TrackGuard {
            saved: None,
            _not_send: PhantomData,
        };
    }
    let saved = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let saved = l.track;
            l.track = track;
            saved
        })
        .ok();
    TrackGuard {
        saved,
        _not_send: PhantomData,
    }
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        let Some(track) = self.saved.take() else {
            return;
        };
        let _ = LOCAL.try_with(|l| l.borrow_mut().track = track);
    }
}

/// Names a display lane (idempotent; later labels win). Call sites should
/// gate on [`trace_enabled`] — this takes a lock, it is not a hot path. The
/// label is formatted here, as the recorder's own allocation (pass
/// `format_args!`), so it is not counted as the caller's.
pub fn set_track_label(track: u32, label: impl std::fmt::Display) {
    let _own = crate::alloc::recorder_allocating();
    let mut labels = TRACK_LABELS.lock().unwrap_or_else(|e| e.into_inner());
    labels.insert(track, label.to_string());
}

/// All registered lane labels, sorted by track id.
pub fn track_labels() -> Vec<(u32, String)> {
    let labels = TRACK_LABELS.lock().unwrap_or_else(|e| e.into_inner());
    labels.iter().map(|(t, l)| (*t, l.clone())).collect()
}

/// Flushes the calling thread's buffer into the global sink immediately.
///
/// Worker threads must not rely on their thread-local destructor for this:
/// `std::thread::scope` can return to the spawner *before* a finished
/// worker's destructors have run, so a [`drain`] right after the join
/// could miss events. `nidc-parallel` workers instead hold a
/// [`flush_on_exit`] guard, which flushes deterministically while the
/// worker closure unwinds — before the scope join completes.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Calls [`flush_thread`] when dropped (including during panic unwinding).
/// Not `Send`.
#[must_use = "the flush happens when this guard drops"]
#[derive(Debug)]
pub struct FlushGuard {
    _not_send: PhantomData<*const ()>,
}

/// An RAII handle for worker threads: take it first thing in the worker
/// closure so the thread's events reach the sink by the time the closure
/// returns (or panics), making them visible to the spawner's [`drain`].
pub fn flush_on_exit() -> FlushGuard {
    FlushGuard {
        _not_send: PhantomData,
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush_thread();
    }
}

/// Flushes the calling thread's buffer and takes every event recorded so
/// far, in per-thread recording order.
///
/// Call from the thread that drove the run, after all fan-out has joined.
/// `nidc-parallel` workers flush before their scope joins (see
/// [`flush_on_exit`]), so this sees every fan-out event; buffers of other
/// *live* threads that have not flushed are not visible.
pub fn drain() -> Vec<TraceEvent> {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Discards all buffered events and lane labels (calling thread's buffer
/// included). Part of [`crate::reset_all`]; does not touch the enable flag.
pub fn clear() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().buf.clear());
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TRACK_LABELS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// Summary statistics from a validated event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Complete (begin + end) spans.
    pub spans: usize,
    /// Distinct recording threads.
    pub threads: usize,
    /// Distinct tracks.
    pub tracks: usize,
    /// Deepest parent chain (1 = a root with no children).
    pub max_depth: usize,
}

/// Checks the well-formedness invariants every drained stream must satisfy:
/// per-thread begin/end stack discipline (ends match the innermost open
/// begin, nothing left open), per-thread monotone timestamps, unique span
/// ids, and every parent link resolving to a recorded span (or 0).
pub fn validate_events(events: &[TraceEvent]) -> Result<TraceStats, String> {
    let mut begun: BTreeSet<u64> = BTreeSet::new();
    for ev in events {
        if ev.phase == TracePhase::Begin {
            if ev.id == 0 {
                return Err(format!("span {:?} uses reserved id 0", ev.name));
            }
            if !begun.insert(ev.id) {
                return Err(format!("duplicate span id {} ({:?})", ev.id, ev.name));
            }
        }
    }

    let mut stacks: BTreeMap<u64, Vec<(u64, &'static str)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tracks: BTreeSet<u32> = BTreeSet::new();
    let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ends = 0usize;
    for ev in events {
        tracks.insert(ev.track);
        if let Some(prev) = last_ts.insert(ev.thread, ev.ts_ns) {
            if ev.ts_ns < prev {
                return Err(format!(
                    "thread {} timestamps regress: {} after {} at {:?}",
                    ev.thread, ev.ts_ns, prev, ev.name
                ));
            }
        }
        let stack = stacks.entry(ev.thread).or_default();
        match ev.phase {
            TracePhase::Begin => {
                if ev.parent != 0 && !begun.contains(&ev.parent) {
                    return Err(format!(
                        "span {} ({:?}) has unresolved parent {}",
                        ev.id, ev.name, ev.parent
                    ));
                }
                parents.insert(ev.id, ev.parent);
                stack.push((ev.id, ev.name));
            }
            TracePhase::End => match stack.pop() {
                Some((id, name)) if id == ev.id && name == ev.name => ends += 1,
                Some((id, name)) => {
                    return Err(format!(
                        "thread {}: end of span {} ({:?}) while {} ({:?}) is innermost",
                        ev.thread, ev.id, ev.name, id, name
                    ));
                }
                None => {
                    return Err(format!(
                        "thread {}: end of span {} ({:?}) with no span open",
                        ev.thread, ev.id, ev.name
                    ));
                }
            },
        }
    }
    for (thread, stack) in &stacks {
        if let Some((id, name)) = stack.last() {
            return Err(format!("thread {thread}: span {id} ({name:?}) never ended"));
        }
    }
    if ends != begun.len() {
        return Err(format!("{} begins but {} ends", begun.len(), ends));
    }

    // Depth via parent chains (memoised; chains may cross threads).
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    fn depth_of(id: u64, parents: &BTreeMap<u64, u64>, memo: &mut BTreeMap<u64, usize>) -> usize {
        if id == 0 {
            return 0;
        }
        if let Some(d) = memo.get(&id) {
            return *d;
        }
        let d = 1 + parents.get(&id).map_or(0, |p| depth_of(*p, parents, memo));
        memo.insert(id, d);
        d
    }
    let max_depth = parents
        .keys()
        .map(|id| depth_of(*id, &parents, &mut depth))
        .max()
        .unwrap_or(0);

    Ok(TraceStats {
        spans: ends,
        threads: stacks.len(),
        tracks: tracks.len(),
        max_depth,
    })
}

/// Opens a [`trace::Span`](crate::trace::Span) named by the first
/// argument and, given a `static` [`LazyHistogram`](crate::LazyHistogram)
/// as the second, timed into it: `let _span = nidc_obs::span!("phase",
/// PHASE_SECONDS);` closes (and observes) at scope exit.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name, None)
    };
    ($name:expr, $hist:expr) => {
        $crate::trace::span($name, Some(&$hist))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::global_lock;

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = global_lock();
        set_trace_enabled(false);
        clear();
        {
            let _s = span("trace_test_disabled", None);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_validate() {
        let _guard = global_lock();
        clear();
        set_trace_enabled(true);
        {
            let _outer = span("trace_test_outer", None);
            {
                let _inner = span("trace_test_inner", None);
            }
            let _sibling = span("trace_test_sibling", None);
        }
        set_trace_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 6);
        let stats = validate_events(&events).expect("well-formed");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.max_depth, 2);
        let inner = events
            .iter()
            .find(|e| e.name == "trace_test_inner" && e.phase == TracePhase::Begin)
            .unwrap();
        let outer = events
            .iter()
            .find(|e| e.name == "trace_test_outer" && e.phase == TracePhase::Begin)
            .unwrap();
        let sibling = events
            .iter()
            .find(|e| e.name == "trace_test_sibling" && e.phase == TracePhase::Begin)
            .unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id, "parent restored after inner");
        assert_eq!(outer.parent, 0);
    }

    #[test]
    fn context_attaches_across_threads() {
        let _guard = global_lock();
        clear();
        set_trace_enabled(true);
        let root = span("trace_test_root", None);
        let ctx = current_context();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _flush = flush_on_exit();
                let _attach = ctx.attach();
                let _child = span("trace_test_worker", None);
            });
        });
        drop(root);
        set_trace_enabled(false);
        let events = drain();
        validate_events(&events).expect("well-formed");
        let root_id = events
            .iter()
            .find(|e| e.name == "trace_test_root")
            .unwrap()
            .id;
        let worker = events
            .iter()
            .find(|e| e.name == "trace_test_worker" && e.phase == TracePhase::Begin)
            .unwrap();
        assert_eq!(worker.parent, root_id);
        let root_thread = events
            .iter()
            .find(|e| e.name == "trace_test_root")
            .unwrap()
            .thread;
        assert_ne!(worker.thread, root_thread, "recorded on the worker thread");
    }

    #[test]
    fn tracks_override_and_restore() {
        let _guard = global_lock();
        clear();
        set_trace_enabled(true);
        set_track_label(0, "main");
        set_track_label(7, "shard 6");
        {
            let _t = with_track(7);
            let _s = span("trace_test_on_shard", None);
        }
        {
            let _s = span("trace_test_on_main", None);
        }
        set_trace_enabled(false);
        let events = drain();
        validate_events(&events).expect("well-formed");
        assert!(events
            .iter()
            .filter(|e| e.name == "trace_test_on_shard")
            .all(|e| e.track == 7));
        assert!(events
            .iter()
            .filter(|e| e.name == "trace_test_on_main")
            .all(|e| e.track == 0));
        assert_eq!(
            track_labels(),
            vec![(0, "main".to_string()), (7, "shard 6".to_string())]
        );
    }

    #[test]
    fn span_guard_unwinds_across_panics() {
        let _guard = global_lock();
        clear();
        set_trace_enabled(true);
        let caught = std::panic::catch_unwind(|| {
            let _s = span("trace_test_panicking", None);
            panic!("boom");
        });
        assert!(caught.is_err());
        set_trace_enabled(false);
        let events = drain();
        let stats = validate_events(&events).expect("balanced despite panic");
        assert_eq!(stats.spans, 1);
    }

    #[test]
    fn span_events_snapshot_alloc_tallies() {
        let _guard = global_lock();
        clear();
        crate::alloc::set_tracking(true);
        set_trace_enabled(true);
        {
            let _s = span("trace_test_allocating", None);
            let v: Vec<u64> = Vec::with_capacity(256);
            drop(v);
        }
        set_trace_enabled(false);
        crate::alloc::set_tracking(false);
        let events = drain();
        let begin = events
            .iter()
            .find(|e| e.name == "trace_test_allocating" && e.phase == TracePhase::Begin)
            .unwrap();
        let end = events
            .iter()
            .find(|e| e.name == "trace_test_allocating" && e.phase == TracePhase::End)
            .unwrap();
        assert!(
            end.allocs > begin.allocs,
            "the Vec alloc must be attributed"
        );
        assert!(end.bytes - begin.bytes >= 2048, "256 × 8 bytes expected");
    }

    #[test]
    fn timed_span_feeds_whichever_recorders_are_on() {
        static H: LazyHistogram =
            LazyHistogram::new("trace_test_timed_seconds", crate::buckets::LATENCY_SECONDS);
        static T: LazyHistogram =
            LazyHistogram::new("trace_test_timer_seconds", crate::buckets::LATENCY_SECONDS);
        let _guard = global_lock();
        let run = |recording: bool, tracing: bool| {
            crate::reset();
            clear();
            crate::set_enabled(recording);
            set_trace_enabled(tracing);
            // Each recorder arms only its own half of the guard, and a
            // guard neither arms reads no clock.
            let timer = T.start_timer();
            assert_eq!(timer.hist.is_some(), recording);
            assert!(timer.begin.is_none(), "a timer never traces");
            assert_eq!(timer.begin_ns != 0, recording);
            drop(timer);
            let timed = crate::snapshot()
                .histogram("trace_test_timer_seconds")
                .map_or(0, |h| h.count);
            assert_eq!(timed, u64::from(recording), "a timer observes once");
            {
                let s = crate::span!("trace_test_timed", H);
                assert_eq!(s.hist.is_some(), recording);
                assert_eq!(s.begin.is_some(), tracing);
                assert_eq!(s.begin_ns != 0, recording || tracing);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            set_trace_enabled(false);
            crate::set_enabled(false);
            let hist = crate::snapshot()
                .histogram("trace_test_timed_seconds")
                .map(|h| (h.count, h.sum));
            (hist, drain())
        };

        // The clock's origin is set, so an armed guard's begin_ns is nonzero.
        let _ = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));

        let (hist, events) = run(true, false);
        assert_eq!(hist.map(|h| h.0), Some(1), "one observation");
        assert!(events.is_empty(), "recording alone traces nothing");

        let (hist, events) = run(false, true);
        assert_eq!(hist.map_or(0, |h| h.0), 0, "tracing alone observes nothing");
        assert_eq!(validate_events(&events).expect("balanced").spans, 1);

        let (hist, events) = run(true, true);
        let (count, sum) = hist.expect("registered");
        assert_eq!(count, 1);
        let [begin, end] = &events[..] else {
            panic!("one Begin/End pair expected, got {events:?}")
        };
        assert_eq!(
            (begin.phase, end.phase),
            (TracePhase::Begin, TracePhase::End)
        );
        assert!(sum >= 0.001, "sum={sum}");
        assert_eq!(
            sum,
            (end.ts_ns - begin.ts_ns) as f64 / 1e9,
            "the histogram and the trace share their clock reads"
        );

        let (hist, events) = run(false, false);
        assert_eq!(hist.map_or(0, |h| h.0), 0);
        assert!(events.is_empty());
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        let ev = |name, id, parent, phase, ts_ns| TraceEvent {
            name,
            id,
            parent,
            track: 0,
            thread: 0,
            phase,
            ts_ns,
            allocs: 0,
            bytes: 0,
        };
        // Unbalanced: begin without end.
        let events = vec![ev("a", 1, 0, TracePhase::Begin, 10)];
        assert!(validate_events(&events)
            .unwrap_err()
            .contains("never ended"));
        // Crossed ends.
        let events = vec![
            ev("a", 1, 0, TracePhase::Begin, 10),
            ev("b", 2, 1, TracePhase::Begin, 11),
            ev("a", 1, 0, TracePhase::End, 12),
        ];
        assert!(validate_events(&events).unwrap_err().contains("innermost"));
        // Unresolved parent.
        let events = vec![
            ev("a", 1, 99, TracePhase::Begin, 10),
            ev("a", 1, 99, TracePhase::End, 12),
        ];
        assert!(validate_events(&events)
            .unwrap_err()
            .contains("unresolved parent"));
        // Regressing timestamps.
        let events = vec![
            ev("a", 1, 0, TracePhase::Begin, 10),
            ev("a", 1, 0, TracePhase::End, 9),
        ];
        assert!(validate_events(&events).unwrap_err().contains("regress"));
        // Duplicate ids.
        let events = vec![
            ev("a", 1, 0, TracePhase::Begin, 10),
            ev("a", 1, 0, TracePhase::End, 11),
            ev("b", 1, 0, TracePhase::Begin, 12),
            ev("b", 1, 0, TracePhase::End, 13),
        ];
        assert!(validate_events(&events).unwrap_err().contains("duplicate"));
    }
}
