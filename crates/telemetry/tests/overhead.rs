//! Overhead budget tests: a disabled sink must be *exactly* free — zero
//! heap allocations on every recording path — and the id-keyed enabled
//! path must not allocate either once names are registered.
//!
//! The counting allocator wraps the system allocator; `GlobalAlloc` is
//! an unsafe trait, so this file opts back into `unsafe` locally (the
//! workspace lints warn on it).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdt_telemetry::{profile_frame, MemoryGauge, MetricsRegistry, TelemetrySink};

/// System allocator shim that counts allocations per thread: the test
/// harness runs the tests below concurrently and allocates on its own
/// threads, and only the recording thread's allocations are under test.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_telemetry_is_allocation_free() {
    let sink = TelemetrySink::disabled();
    let gauge = MemoryGauge::new(sink.metrics(), "array.state_vector");
    let id = sink.metrics().register("dd.unique_table.hits");
    // Warm up every path once (thread-id and any lazy statics init).
    sink.metrics().counter_add("dd.unique_table.hits", 1);
    drop(sink.tracer().span_in("gate", "h"));

    let before = allocations();
    for i in 0..1000usize {
        sink.metrics().counter_add("dd.unique_table.hits", 1);
        sink.metrics().gauge_set("dd.nodes.live", 3.0);
        sink.metrics().gauge_max("mem.x.peak_bytes", 4.0);
        sink.metrics().histogram_record("mps.bond.dimension", 2.0);
        sink.metrics().counter_add_id(id, 1);
        gauge.record(i * 64);
        let _span = sink.tracer().span_in("gate", "cx");
        sink.tracer().instant("tick");
        assert!(sink.enabled_clone().is_none());
        assert!(profile_frame("off").is_none());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate on any recording path"
    );
}

#[test]
fn enabled_id_keyed_recording_does_not_allocate() {
    let registry = MetricsRegistry::new();
    let counter = registry.register("dd.unique_table.hits");
    let gauge = registry.register("dd.nodes.live");
    let peak = registry.register("mem.dd.arena.peak_bytes");
    let hist = registry.register("mps.bond.dimension");
    // Warm up: first writes create and cache this thread's shard.
    registry.counter_add_id(counter, 1);

    let before = allocations();
    for i in 0..1000u32 {
        registry.counter_add_id(counter, 2);
        registry.gauge_set_id(gauge, 5.0);
        registry.gauge_max_id(peak, f64::from(i * 128));
        registry.histogram_record_id(hist, 4.0);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "interned-id recording on a warm shard must not allocate"
    );
}
