//! Shared workload definitions and the one stopwatch of the benchmark
//! harness.
//!
//! Every timing the `repro` binary prints goes through [`timed`], so
//! each row of every experiment is measured the same way: one untimed
//! warm-up, then the median of [`TIMED_RUNS`] runs. Each public item
//! serves one or more experiments of DESIGN.md's per-experiment index.

use std::time::Instant;

use qdt::circuit::{generators, Circuit};

/// Timed runs behind every [`timed`] measurement; the median is reported.
pub const TIMED_RUNS: usize = 5;

/// The workspace's stopwatch: runs `f` once untimed (warming caches and
/// allocators), then [`TIMED_RUNS`] times, and returns the last run's
/// result with the median wall-clock seconds of the timed runs. The
/// previous result is dropped before each run, so at most one result is
/// alive while `f` runs.
pub fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    drop(f());
    let mut secs = [0.0; TIMED_RUNS];
    let mut out = None;
    for s in &mut secs {
        drop(out.take());
        let t0 = Instant::now();
        let value = f();
        *s = t0.elapsed().as_secs_f64();
        out = Some(value);
    }
    secs.sort_by(f64::total_cmp);
    (out.expect("TIMED_RUNS ≥ 1"), secs[TIMED_RUNS / 2])
}

/// The circuit families used across the scaling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// GHZ preparation (maximally structured).
    Ghz,
    /// Quantum Fourier transform (dense phase structure).
    Qft,
    /// W state (linear cascade).
    WState,
}

impl Family {
    /// Instantiates the family at `n` qubits (seeded deterministically).
    pub fn circuit(&self, n: usize) -> Circuit {
        match self {
            Family::Ghz => generators::ghz(n),
            Family::Qft => generators::qft(n, true),
            Family::WState => generators::w_state(n),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Ghz => "ghz",
            Family::Qft => "qft",
            Family::WState => "w-state",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_instantiate() {
        for f in [Family::Ghz, Family::Qft, Family::WState] {
            let qc = f.circuit(4);
            assert_eq!(qc.num_qubits(), 4, "{}", f.name());
            assert!(!qc.is_empty());
        }
    }

    #[test]
    fn timed_measures() {
        let mut calls = 0;
        let (v, secs) = timed(|| {
            calls += 1;
            21 * 2
        });
        assert_eq!(v, 42);
        assert_eq!(calls, TIMED_RUNS + 1, "one warm-up, then the timed runs");
        assert!(secs >= 0.0);
    }
}
