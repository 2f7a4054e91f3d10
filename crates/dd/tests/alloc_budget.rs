//! Allocation budget of the gate memo: rebuilding a gate the package
//! has already built is a hash lookup and allocates nothing. The DD
//! miter and the dynamic shot loop's suffix replays re-apply the same
//! gates many times. Unlike a timing test, the count is deterministic.
//!
//! The counting allocator wraps the system allocator; `GlobalAlloc` is
//! an unsafe trait, so this file opts back into `unsafe` locally (the
//! workspace lints warn on it).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdt_circuit::Gate;
use qdt_dd::DdPackage;

/// System allocator shim that counts allocations per thread: the test
/// harness runs tests concurrently and allocates on its own threads,
/// and only the measuring thread's allocations are under test.
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

/// Runs `f` and returns its result with the blocks it allocated.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn gate_memo_hit_allocates_nothing() {
    let mut p = DdPackage::new();
    let x = Gate::X.matrix();
    let phase = Gate::Phase(0.3).matrix();
    let built = [
        p.gate_dd(&x, 12, 3, &[]),
        p.gate_dd(&x, 12, 3, &[7]),
        p.gate_dd(&phase, 12, 0, &[11, 5, 2]),
    ];
    let (hits, blocks) = allocations_during(|| {
        [
            p.gate_dd(&x, 12, 3, &[]),
            p.gate_dd(&x, 12, 3, &[7]),
            // Control order does not change the gate, nor the memo key.
            p.gate_dd(&phase, 12, 0, &[2, 11, 5]),
        ]
    });
    assert_eq!(blocks, 0, "memo hits allocated {blocks} blocks");
    assert_eq!(hits, built);
}

#[test]
#[should_panic(expected = "duplicate controls")]
fn duplicate_controls_are_rejected() {
    DdPackage::new().gate_dd(&Gate::X.matrix(), 4, 0, &[2, 3, 2]);
}

#[test]
#[should_panic(expected = "control equals target")]
fn control_on_the_target_is_rejected() {
    DdPackage::new().gate_dd(&Gate::X.matrix(), 4, 1, &[1]);
}

#[test]
#[should_panic(expected = "control out of range")]
fn out_of_range_controls_are_rejected() {
    DdPackage::new().gate_dd(&Gate::X.matrix(), 4, 1, &[4]);
}
