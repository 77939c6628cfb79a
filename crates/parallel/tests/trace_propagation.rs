//! Trace-context propagation through the fan-out helpers, and span-guard
//! unwinding across worker panics.

use std::sync::{Mutex, MutexGuard};

use nidc_obs::trace::{self, TracePhase};

/// Tracing state is process-global; tests that enable it serialise here.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn worker_spans_parent_under_the_fan_out_call() {
    let _guard = trace_lock();
    trace::clear();
    trace::set_trace_enabled(true);
    {
        let _root = nidc_obs::span!("test.window");
        let got: Vec<u64> = nidc_parallel::par_chunks(16, 4, |range| {
            range
                .map(|x| {
                    let _item = nidc_obs::span!("test.item");
                    x as u64 + 1
                })
                .collect::<Vec<u64>>()
        })
        .concat();
        assert_eq!(got, (1..=16).collect::<Vec<u64>>());
    }
    trace::set_trace_enabled(false);
    let events = trace::drain();
    let stats = trace::validate_events(&events).expect("well-formed");
    assert_eq!(stats.spans, 1 + 1 + 16, "window + fan_out + one per item");
    assert!(stats.threads > 1, "the gate must have fanned out");

    let root = events.iter().find(|e| e.name == "test.window").unwrap();
    let fan = events
        .iter()
        .find(|e| e.name == "parallel.fan_out" && e.phase == TracePhase::Begin)
        .expect("fan-out span recorded");
    assert_eq!(fan.parent, root.id, "fan-out nests under the caller's span");
    let item_begins: Vec<_> = events
        .iter()
        .filter(|e| e.name == "test.item" && e.phase == TracePhase::Begin)
        .collect();
    assert_eq!(item_begins.len(), 16);
    assert!(
        item_begins.iter().all(|e| e.parent == fan.id),
        "every worker span attaches to the fan-out span, not a dangling root"
    );
    assert!(
        item_begins.iter().any(|e| e.thread != root.thread),
        "some spans recorded on worker threads"
    );
}

#[test]
fn par_map_mut_propagates_context_and_track() {
    let _guard = trace_lock();
    trace::clear();
    trace::set_trace_enabled(true);
    let mut items = vec![0u64, 1];
    {
        let _track = trace::with_track(9);
        let _root = nidc_obs::span!("test.mut_window");
        nidc_parallel::par_map_mut(&mut items, 2, |x| {
            let _s = nidc_obs::span!("test.shard_unit");
            *x += 10;
        });
    }
    trace::set_trace_enabled(false);
    let events = trace::drain();
    trace::validate_events(&events).expect("well-formed");
    assert_eq!(items, vec![10, 11]);
    let fan = events
        .iter()
        .find(|e| e.name == "parallel.fan_out_mut" && e.phase == TracePhase::Begin)
        .expect("mut fan-out span recorded");
    let units: Vec<_> = events
        .iter()
        .filter(|e| e.name == "test.shard_unit" && e.phase == TracePhase::Begin)
        .collect();
    assert_eq!(units.len(), 2);
    assert!(units.iter().all(|e| e.parent == fan.id));
    assert!(
        units.iter().all(|e| e.track == 9),
        "workers inherit the caller's track through the attached context"
    );
}

#[test]
fn span_guards_unwind_across_worker_panics() {
    let _guard = trace_lock();
    trace::clear();
    trace::set_trace_enabled(true);
    let result = std::panic::catch_unwind(|| {
        nidc_parallel::par_chunks(16, 4, |range| {
            for x in range {
                let _item = nidc_obs::span!("test.panicking_item");
                if x == 5 {
                    panic!("worker died");
                }
            }
        })
    });
    assert!(result.is_err(), "the worker panic must propagate");
    trace::set_trace_enabled(false);
    let events = trace::drain();
    // Every begin that made it into the trace has its end: the span guard
    // dropped during unwind, and the dying thread flushed its buffer.
    let stats = trace::validate_events(&events)
        .expect("trace stays balanced when a worker panics mid-span");
    assert!(stats.spans >= 1);
    assert!(events
        .iter()
        .any(|e| e.name == "test.panicking_item" && e.phase == TracePhase::End));
}
