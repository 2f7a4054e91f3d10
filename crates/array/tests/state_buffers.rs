//! Allocation pins of the dense state's buffer lifecycle: a dropped
//! state of at least 2^21 amplitudes becomes the one spare buffer, a
//! new state of exactly its length takes it back zero-filled, a request
//! of another length frees it before allocating, and re-preparing an
//! engine drops the old state before it builds the new one.
//!
//! The counting allocator tracks live and peak bytes across all
//! threads. The spare is process-wide, so everything is one `#[test]`
//! whose steps run in a fixed order. `GlobalAlloc` is an unsafe trait,
//! so this file opts back into `unsafe` locally (the workspace lints
//! warn on it).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qdt_array::{ArrayEngine, StateVector};
use qdt_circuit::{Circuit, Instruction};
use qdt_complex::Complex;
use qdt_engine::SimulationEngine;

/// System allocator shim that counts live bytes, their peak, and the
/// allocations of at least [`LARGE`] bytes.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// An allocation this big can only be an amplitude buffer.
const LARGE: usize = 1 << 20;

/// Bytes the harness and the engine's bookkeeping may hold on top of
/// the amplitude buffers.
const SLACK: usize = 1 << 20;

/// Bytes of an `n`-qubit amplitude buffer.
fn state_bytes(n: usize) -> usize {
    (1usize << n) * std::mem::size_of::<Complex>()
}

fn grow(size: usize) {
    let now = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(now, Ordering::SeqCst);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.load(Ordering::SeqCst)
}

/// Runs `f` and returns the peak live bytes while it ran.
fn peak_during(f: impl FnOnce()) -> usize {
    PEAK.store(live(), Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst)
}

/// A Hadamard on every qubit: after it, no amplitude is zero.
fn hadamards(n: usize) -> Vec<Instruction> {
    let mut qc = Circuit::new(n);
    for q in 0..n {
        qc.h(q);
    }
    qc.instructions().to_vec()
}

fn apply_all(engine: &mut ArrayEngine, instructions: &[Instruction]) {
    for inst in instructions {
        engine.apply_instruction(inst).expect("unitary");
    }
}

#[test]
fn state_buffers_are_reused_one_at_a_time() {
    let baseline = live();

    // A sub-floor state leaves nothing in the spare: its buffer goes
    // straight back to the allocator.
    drop(StateVector::zero_state(20));
    assert!(
        live() <= baseline + SLACK,
        "a dropped 20-qubit state is still held ({} bytes above baseline)",
        live() - baseline
    );

    // Re-preparing at the same width never holds two states.
    let h21 = hadamards(21);
    let mut engine = ArrayEngine::new();
    let first = large_allocations();
    let peak = peak_during(|| {
        engine.prepare(21).expect("21 qubits fit");
        apply_all(&mut engine, &h21);
        engine.prepare(21).expect("21 qubits fit");
    });
    assert!(
        peak <= baseline + state_bytes(21) + SLACK,
        "re-prepare peaked at {} bytes above baseline, one state is {}",
        peak - baseline,
        state_bytes(21)
    );
    assert_eq!(
        large_allocations() - first,
        1,
        "the re-prepare allocated instead of reusing the dropped state"
    );

    // A state built after a dirtied one was dropped reuses its buffer,
    // zero-filled: no new large allocation, and every amplitude but `k`
    // is exactly +0.0.
    apply_all(&mut engine, &h21);
    drop(engine);
    let k = 0x1_2345;
    let before = large_allocations();
    let psi = StateVector::basis_state(21, k);
    assert_eq!(large_allocations(), before, "basis_state allocated afresh");
    for (i, a) in psi.amplitudes().iter().enumerate() {
        let expected = if i == k { Complex::ONE } else { Complex::ZERO };
        assert!(
            a.re.to_bits() == expected.re.to_bits() && a.im.to_bits() == expected.im.to_bits(),
            "amplitude {i} of the reused buffer is {a:?}"
        );
    }

    // A 22-qubit request while a 21-qubit spare is held frees the spare
    // before it allocates.
    drop(psi);
    assert!(
        live() >= baseline + state_bytes(21),
        "the 21-qubit spare is not held"
    );
    let peak = peak_during(|| drop(StateVector::zero_state(22)));
    assert!(
        peak <= baseline + state_bytes(22) + SLACK,
        "a 22-qubit state coexisted with the 21-qubit spare (peak {} bytes above baseline)",
        peak - baseline
    );

    // The 22-qubit buffer is now the spare. A sub-floor state neither
    // joins nor displaces it: the next 22-qubit state still reuses it.
    let held = live();
    drop(StateVector::zero_state(20));
    assert!(
        live() <= held + SLACK,
        "a dropped 20-qubit state is still held"
    );
    let before = large_allocations();
    let psi = StateVector::zero_state(22);
    assert_eq!(
        large_allocations(),
        before,
        "the 22-qubit spare was displaced"
    );
    assert_eq!(psi.memory_bytes(), state_bytes(22));
}
