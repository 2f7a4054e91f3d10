//! Allocation budgets for the front end, from QASM text to the dispatch
//! decision: parsing allocates per controlled gate (its control list),
//! never per token, and dispatch allocates per qubit and per distinct
//! gate kind, never per gate. Unlike a timing test, these counts are
//! deterministic.
//!
//! The counting allocator wraps the system allocator; `GlobalAlloc` is
//! an unsafe trait, so this file opts back into `unsafe` locally (the
//! workspace lints warn on it).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdt_analysis::dispatch_circuit;
use qdt_circuit::{generators, qasm, Circuit, OpKind};

/// System allocator shim that counts allocations per thread: the test
/// harness runs the tests below concurrently and allocates on its own
/// threads, and only the measuring thread's allocations are under test.
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

/// The circuit of a `qft-12` benchmark job: a basis state, then QFT-12.
fn qft_job() -> Circuit {
    let mut qc = Circuit::new(12);
    for q in [0, 3, 4, 6, 9, 11] {
        qc.x(q);
    }
    qc.append(&generators::qft(12, true));
    qc
}

#[test]
fn parsing_allocates_per_controlled_gate_not_per_token() {
    let qc = qft_job();
    let text = qasm::write(&qc).unwrap();
    let controlled = qc
        .iter()
        .filter(|i| matches!(&i.kind, OpKind::Unitary { controls, .. } if !controls.is_empty()))
        .count() as u64;
    assert_eq!(controlled, 66);
    let (parsed, blocks) = allocations_during(|| qasm::parse(&text).unwrap());
    assert_eq!(parsed, qc);
    // 66 control lists, the instruction list's growth and the register
    // table: 73 measured.
    assert!(
        blocks <= controlled + 10,
        "parsing {} bytes took {blocks} allocations",
        text.len()
    );
}

#[test]
fn dispatch_allocates_per_qubit_and_gate_kind_not_per_gate() {
    // (job, allocations measured for one copy of the circuit)
    for (label, qc, measured) in [
        ("qft-12", qft_job(), 46),
        ("w-state-64", generators::w_state(64), 50),
    ] {
        let mut quadrupled = Circuit::new(qc.num_qubits());
        for _ in 0..4 {
            quadrupled.append(&qc);
        }
        let (once, blocks) = allocations_during(|| dispatch_circuit(&qc));
        let (four, blocks_4x) = allocations_during(|| dispatch_circuit(&quadrupled));
        assert_eq!(once.chosen, four.chosen, "{label}");
        assert!(
            blocks <= measured + 4,
            "{label}: {blocks} allocations, {measured} measured"
        );
        // Four times the gates on the same register: only Vec growth.
        assert!(
            blocks_4x <= blocks + 4,
            "{label}: {blocks} allocations for {} gates, {blocks_4x} for {}",
            qc.len(),
            quadrupled.len()
        );
    }
}
