//! The allocation budget of keyed state: an event whose window or key is
//! already open, and already touched since the last capture, allocates
//! nothing. Its state is found by the event's borrowed key, so only opening
//! a window or key, or the first change to it after a capture, copies the
//! key; a batch may allocate its output `Vec` and nothing else.
//!
//! A counting global allocator, counting per thread so the tests may run
//! side by side, checks both keyed operators on a 500-event batch over
//! 1 024 open keys. It also checks that `Event::peek_origin`, which the
//! monitor runs on every delivered record, allocates nothing on events
//! whose values are maps and nested lists: it walks the value that
//! `Event::from_bytes` builds, without building it.

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait, and this test counts allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Event, Operator, StatefulMap, Value, WindowAggregate, WindowAssigner};

thread_local! {
    /// Calls that obtained memory (`alloc` and `realloc`) on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // A thread being torn down has no counter left; its calls go uncounted.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: usize = 1_024;
const BATCH: usize = 500;

/// An event of key `key-<k>` at `ts_ms`.
fn event(k: usize, ts_ms: u64) -> Event {
    Event::new(Value::Int(1), SimTime::from_millis(ts_ms)).with_key(format!("key-{k}"))
}

/// Feeds `op` one event per key, so every key's state is open and touched,
/// then counts what a batch of [`BATCH`] events over those keys allocates.
fn allocations_of_a_warm_batch(op: &mut dyn Operator) -> u64 {
    op.process(SimTime::ZERO, (0..KEYS).map(|k| event(k, 1_000)).collect());
    let batch: Vec<Event> = (0..BATCH)
        .map(|i| event(i * 7 % KEYS, 2_000 + i as u64))
        .collect();
    let before = CALLS.with(Cell::get);
    let out = op.process(SimTime::ZERO, batch);
    let calls = CALLS.with(Cell::get) - before;
    drop(out);
    calls
}

#[test]
fn a_window_aggregate_batch_into_open_windows_allocates_nothing_per_event() {
    let mut op = WindowAggregate::count(
        "count",
        WindowAssigner::Tumbling(SimDuration::from_secs(10)),
    );
    let calls = allocations_of_a_warm_batch(&mut op);
    // Four per event (2 000 in all) when each event cloned its key, each
    // touch cloned it into a `(start, key)` tuple and again for a dirty
    // set, and `assign` built a `Vec` of starts.
    assert!(
        calls <= 1,
        "{calls} allocator calls for {BATCH} events into open, touched windows: a touch \
         allocates again"
    );
}

#[test]
fn a_stateful_map_batch_over_open_keys_allocates_nothing_per_event() {
    let mut op = StatefulMap::new("running-count", Value::Int(0), |state, _| {
        *state = Value::Int(state.as_int().unwrap_or(0) + 1);
        Vec::new()
    });
    let calls = allocations_of_a_warm_batch(&mut op);
    // Two per event (1 000 in all) when each event cloned its key for the
    // state map and again for a dirty set.
    assert!(
        calls <= 1,
        "{calls} allocator calls for {BATCH} events over open, changed keys: an update \
         allocates again"
    );
}

#[test]
fn peeking_the_origin_of_a_map_or_a_nested_list_allocates_nothing() {
    let at = SimTime::from_millis(7);
    let nested = Value::List(vec![
        Value::List(vec![Value::Str("deep".into()), Value::Float(0.5)]),
        Value::Null,
        Value::Bool(true),
    ]);
    let map = Value::map([
        ("a", Value::Int(1)),
        ("b", nested.clone()),
        ("c", Value::map([("s", Value::Str("text".into()))])),
    ]);
    let events: Vec<Vec<u8>> = [map, nested]
        .into_iter()
        .map(|v| {
            Event::new(v, at)
                .with_key("k")
                .with_origin(SimTime::from_millis(3))
                .to_bytes()
        })
        .collect();
    let before = CALLS.with(Cell::get);
    for bytes in &events {
        assert_eq!(Event::peek_origin(bytes), Some(SimTime::from_millis(3)));
    }
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(
        calls,
        0,
        "{calls} allocator calls peeking {} events",
        events.len()
    );
}
