//! `alloc::reset_peak` against the process-wide live and peak tallies.
//!
//! With tracking on, every thread's allocations and frees move the global
//! live count, so a test that asserts on live or peak bytes fails whenever
//! another test thread allocates or frees at the same moment — including a
//! finished test thread tearing down. It therefore runs alone, in a test
//! binary of its own: keep this file to this one test.

use nidc_obs::alloc::{reset, reset_peak, set_tracking, stats};

#[test]
fn reset_peak_rebases_to_current_live() {
    set_tracking(true);
    reset();
    // black_box: an unused allocation may be optimized out
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4096));
    drop(v);
    let spiked = stats();
    assert!(spiked.peak_live_bytes >= 32 * 1024);
    reset_peak();
    let rebased = stats();
    set_tracking(false);
    assert!(rebased.peak_live_bytes < spiked.peak_live_bytes);
}
