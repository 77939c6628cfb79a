//! Deterministic chunked thread fan-out, used only where it pays.
//!
//! Two callers fan out: a [`par_map_mut`] over the shards of a
//! sharded pipeline (one coarse unit of work per shard), and
//! [`par_chunks`] over the GAC baseline's O(n²) bucket scans. The
//! millisecond batch passes of a window — the φ build, the statistics
//! rebuild, K-means step 1 — run sequentially, because a fan-out there
//! cost more than it saved.
//!
//! Every helper keeps one invariant: **results are independent of thread
//! count and scheduling**. Work is split into contiguous index chunks, one
//! per worker, each worker produces its chunk's results independently, and
//! the chunks are concatenated in chunk order. Since every function here
//! takes pure per-item (or per-chunk) closures, the output is bit-identical
//! to the sequential loop for any `threads` value.
//!
//! The thread count convention across the workspace: `0` means "use
//! [`available_threads`]", `1` means sequential (no threads spawned), and
//! `n > 1` spawns at most `n` scoped workers.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use nidc_obs::{buckets, LazyCounter, LazyHistogram};

/// Calls that fanned out over scoped worker threads.
static FANOUTS: LazyCounter = LazyCounter::new("nidc_parallel_fanouts_total");
/// Calls that took the sequential path (below the fan-out gate).
static SEQUENTIAL: LazyCounter = LazyCounter::new("nidc_parallel_sequential_total");
/// Chunks processed (sequential calls count as one chunk).
static CHUNKS: LazyCounter = LazyCounter::new("nidc_parallel_chunks_total");
/// Wall-clock seconds each chunk's closure ran for. Chunks routinely finish
/// in microseconds, so this sits on the sub-millisecond bucket family.
static CHUNK_SECONDS: LazyHistogram =
    LazyHistogram::new("nidc_parallel_chunk_seconds", buckets::FINE_SECONDS);

/// The number of hardware threads, falling back to 1 when unknown.
///
/// Cached after the first call: `available_parallelism` re-reads cgroup
/// limits on every invocation (file I/O plus heap allocations), and
/// `resolve_threads(0)` sits on hot paths — with the counting allocator on,
/// the per-call allocations would also make `threads: 0` runs tally
/// differently from explicit thread counts.
pub fn available_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves a user-facing thread knob: `0` → [`available_threads`],
/// anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Splits `0..len` into at most `chunks` contiguous ranges of near-equal
/// size, in order. Returns fewer ranges when `len < chunks`; never returns
/// an empty range.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(len);
    if chunks == 0 {
        return Vec::new();
    }
    let per = len.div_ceil(chunks);
    (0..chunks)
        .map(|c| (c * per)..((c + 1) * per).min(len))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Shared accumulator for worker-thread allocation deltas across one
/// fan-out. Workers measure their own thread-local tallies around the chunk
/// closure; the spawner folds the sum into *its* thread tallies before the
/// fan-out span closes, so enclosing spans attribute worker allocations the
/// same way `SpanContext` chaining attributes worker spans. Inert (and
/// entirely unused) while allocation tracking is off.
struct WorkerAllocFold {
    active: bool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl WorkerAllocFold {
    fn new() -> Self {
        Self {
            active: nidc_obs::alloc::tracking_enabled(),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Runs `work` on a worker thread, accumulating its allocation delta.
    fn measure<R>(&self, work: impl FnOnce() -> R) -> R {
        if !self.active {
            return work();
        }
        let (a0, b0) = nidc_obs::alloc::thread_tallies();
        let out = work();
        let (a1, b1) = nidc_obs::alloc::thread_tallies();
        self.allocs
            .fetch_add(a1.wrapping_sub(a0), Ordering::Relaxed);
        self.bytes.fetch_add(b1.wrapping_sub(b0), Ordering::Relaxed);
        out
    }

    /// Folds the accumulated worker deltas into the calling thread.
    /// Call after the scope join, before the fan-out span drops.
    fn fold_into_caller(self) {
        if self.active {
            nidc_obs::alloc::add_external(self.allocs.into_inner(), self.bytes.into_inner());
        }
    }
}

/// Whether fanning `len` items out over `threads` workers is worthwhile;
/// the same gate every call site used ad hoc before this crate existed.
/// `threads` must already be resolved (see [`resolve_threads`]).
pub fn should_fan_out(len: usize, threads: usize) -> bool {
    // Register (without incrementing) every fan-out metric at the decision
    // point: call sites gate on this before touching `par_chunks`, so on a
    // host that never crosses the gate these metrics would otherwise be
    // absent from snapshots entirely.
    FANOUTS.add(0);
    SEQUENTIAL.add(0);
    CHUNKS.add(0);
    CHUNK_SECONDS.touch();
    threads > 1 && len >= 2 * threads
}

/// Maps `f` over each chunk of `0..len`, one worker per chunk, and returns
/// the per-chunk results in chunk order. Fans out only past
/// [`should_fan_out`]'s gate.
pub fn par_chunks<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = resolve_threads(threads);
    if !should_fan_out(len, threads) {
        // add(0) registers the fan-out counter so snapshots report it even
        // in runs that never cross the gate (single-core hosts).
        SEQUENTIAL.inc();
        FANOUTS.add(0);
        return chunk_ranges(len, 1)
            .into_iter()
            .map(|range| {
                CHUNKS.inc();
                let _timer = CHUNK_SECONDS.start_timer();
                f(range)
            })
            .collect();
    }
    FANOUTS.inc();
    SEQUENTIAL.add(0);
    // Workers are fresh threads with no current span; capture the caller's
    // trace context (inside a span covering the whole fan-out) and attach
    // it in each worker so spans opened by `f` parent under this call.
    let _fan_span = nidc_obs::span!("parallel.fan_out");
    let ctx = nidc_obs::trace::current_context();
    let fold = WorkerAllocFold::new();
    let ranges = chunk_ranges(len, threads);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (slot, range) in results.iter_mut().zip(ranges) {
            let f = &f;
            let fold = &fold;
            scope.spawn(move || {
                // Declared first so it drops last: the flush must follow
                // every span close, and must run even if `f` panics, so the
                // spawner's drain sees this worker's events after the join.
                let _flush = nidc_obs::trace::flush_on_exit();
                let _ctx = ctx.attach();
                CHUNKS.inc();
                let _timer = CHUNK_SECONDS.start_timer();
                *slot = Some(fold.measure(|| f(range)));
            });
        }
    });
    // Before `_fan_span` drops: the fan-out span (and everything above it)
    // absorbs the worker-thread allocation deltas.
    fold.fold_into_caller();
    results
        .into_iter()
        .map(|r| r.expect("worker filled its slot"))
        .collect()
}

/// Maps `f` over a mutable slice in parallel; `results[i] == f(&mut
/// items[i])` exactly as in the sequential loop, for any thread count.
///
/// The slice is split into contiguous `chunks_mut` regions, one scoped
/// worker per region, so each worker holds an exclusive borrow of its items
/// — mutation needs no locks and no `unsafe`. Unlike [`par_chunks`], this
/// one fans out whenever `threads > 1` and there are at least two items:
/// it exists for **coarse-grained** units of work (one pipeline shard)
/// where even two items are worth two workers.
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let threads = resolve_threads(threads);
    let len = items.len();
    // Register the fan-out metrics at the decision point, as should_fan_out
    // does for par_chunks.
    FANOUTS.add(0);
    SEQUENTIAL.add(0);
    CHUNKS.add(0);
    CHUNK_SECONDS.touch();
    if threads <= 1 || len <= 1 {
        SEQUENTIAL.inc();
        return items
            .iter_mut()
            .map(|item| {
                CHUNKS.inc();
                let _timer = CHUNK_SECONDS.start_timer();
                f(item)
            })
            .collect();
    }
    FANOUTS.inc();
    // Same trace-context handoff as `par_chunks`: shard/partition closures
    // open spans of their own, and those must parent under this call site
    // (and inherit its track) rather than dangle as roots.
    let _fan_span = nidc_obs::span!("parallel.fan_out_mut");
    let ctx = nidc_obs::trace::current_context();
    let fold = WorkerAllocFold::new();
    let ranges = chunk_ranges(len, threads);
    let mut results: Vec<Option<Vec<R>>> = Vec::new();
    results.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut offset = 0;
        for (slot, range) in results.iter_mut().zip(&ranges) {
            let (chunk, tail) = rest.split_at_mut(range.end - offset);
            offset = range.end;
            rest = tail;
            let f = &f;
            let fold = &fold;
            scope.spawn(move || {
                // First so it drops last; see the par_chunks worker.
                let _flush = nidc_obs::trace::flush_on_exit();
                let _ctx = ctx.attach();
                CHUNKS.inc();
                let _timer = CHUNK_SECONDS.start_timer();
                *slot = Some(fold.measure(|| chunk.iter_mut().map(f).collect()));
            });
        }
    });
    // Same as par_chunks: fold worker deltas in while the span is open.
    fold.fold_into_caller();
    results
        .into_iter()
        .flat_map(|r| r.expect("worker filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 3, 7, 16, 100, 101] {
            for chunks in [1usize, 2, 3, 4, 7, 13] {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = Vec::new();
                for r in &ranges {
                    assert!(!r.is_empty(), "empty chunk for len={len} chunks={chunks}");
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>());
                assert!(ranges.len() <= chunks);
            }
        }
    }

    #[test]
    fn par_chunks_concatenates_in_chunk_order() {
        for threads in [0usize, 1, 2, 4, 7] {
            let per_chunk = par_chunks(40, threads, |r| (r.start, r.end));
            let mut pos = 0;
            for (start, end) in per_chunk {
                assert_eq!(start, pos);
                pos = end;
            }
            assert_eq!(pos, 40);
        }
    }

    #[test]
    fn par_map_mut_matches_sequential_for_any_thread_count() {
        let reference: Vec<u64> = (0..37).map(|x: u64| x * 2 + 1).collect();
        for threads in [0usize, 1, 2, 4, 7] {
            let mut items: Vec<u64> = (0..37).collect();
            let returned = par_map_mut(&mut items, threads, |x| {
                *x = *x * 2 + 1;
                *x
            });
            assert_eq!(items, reference, "threads={threads}");
            assert_eq!(returned, reference, "threads={threads}");
        }
    }

    #[test]
    fn par_map_mut_fans_out_even_with_few_items() {
        // two items, two threads: the coarse-grained helper must not fall
        // back to sequential (and must still be order-exact)
        let mut items = vec![10u64, 20];
        let got = par_map_mut(&mut items, 2, |x| {
            *x += 1;
            *x
        });
        assert_eq!(got, vec![11, 21]);
        assert_eq!(items, vec![11, 21]);
    }

    #[test]
    fn par_map_mut_handles_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_mut(&mut empty, 4, |x| *x), Vec::<u32>::new());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, 4, |x| *x + 1), vec![8]);
        assert_eq!(one, vec![7]); // closure read, did not assign
    }

    #[test]
    fn worker_alloc_deltas_fold_into_the_caller() {
        // The only test in this binary that toggles allocation tracking, so
        // no cross-test lock is needed; tallies are per-thread anyway.
        nidc_obs::alloc::set_tracking(true);
        let (a0, b0) = nidc_obs::alloc::thread_tallies();
        let results = par_chunks(16, 4, |range| {
            range.map(|i| vec![i as u64; 64]).collect::<Vec<_>>()
        });
        let (a1, b1) = nidc_obs::alloc::thread_tallies();
        nidc_obs::alloc::set_tracking(false);
        assert_eq!(results.concat().len(), 16);
        assert!(
            a1 - a0 >= 16,
            "every worker-side Vec allocation must fold into the caller ({})",
            a1 - a0
        );
        assert!(b1 - b0 >= 16 * 64 * 8, "folded bytes: {}", b1 - b0);
    }

    #[test]
    fn resolve_threads_maps_zero_to_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
