//! Alloc and dealloc counting against the process-wide live tally.
//!
//! With tracking on, every thread's allocations and frees move the global
//! live count, so a test that asserts on live bytes fails whenever another
//! test thread allocates or frees at the same moment — including a finished
//! test thread tearing down. It therefore runs alone, in a test binary of
//! its own: keep this file to this one test.

use nidc_obs::alloc::{reset, set_tracking, stats};

#[test]
fn enabled_tracking_counts_alloc_and_dealloc() {
    set_tracking(true);
    reset();
    // black_box: an unused allocation may be optimized out
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(128));
    let mid = stats();
    drop(v);
    let end = stats();
    set_tracking(false);
    assert!(mid.allocs >= 1);
    assert!(mid.bytes_allocated >= 1024, "128 × 8 bytes expected");
    assert!(mid.live_bytes >= 1024);
    assert!(mid.peak_live_bytes >= mid.live_bytes);
    assert!(end.deallocs > mid.deallocs, "dropping v must count");
}
