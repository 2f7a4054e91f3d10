//! Cross-crate telemetry integration: metric streams are deterministic,
//! exporters emit well-formed output, and a disabled sink changes
//! nothing.

use std::sync::Arc;

use qdt::circuit::{generators, Circuit};
use qdt::dd::DdEngine;
use qdt::engine::EngineFactory;
use qdt::noise::{KrausChannel, NoiseModel, TrajectoryConfig, TrajectoryEngine};
use qdt::telemetry::json::{parse, JsonValue};
use qdt::telemetry::{chrome_trace, deterministic_stream, gate_log_jsonl, GateLog};
use qdt::{run_traced, SimulationEngine, TelemetrySink};

fn traced_log(spec: &str, qc: &Circuit) -> GateLog {
    let sink = TelemetrySink::new();
    let mut engine = qdt::create_engine(spec).expect("spec builds");
    let (_stats, log) = run_traced(engine.as_mut(), qc, &sink).expect("traced run");
    log
}

#[test]
fn metric_streams_are_deterministic_across_runs() {
    let qc = generators::ghz(10);
    for spec in ["array", "decision-diagram", "tensor-network", "mps:16"] {
        let first = deterministic_stream(&traced_log(spec, &qc));
        let second = deterministic_stream(&traced_log(spec, &qc));
        assert!(!first.is_empty(), "{spec}: empty gate log");
        assert_eq!(first, second, "{spec}: metric stream not deterministic");
    }
}

#[test]
fn trajectory_worker_count_does_not_change_metric_stream() {
    let qc = generators::bell();
    let noise = NoiseModel::uniform(KrausChannel::Depolarizing { p: 0.1 });
    let run_with = |workers: usize| {
        let factory: EngineFactory =
            Arc::new(|| Ok(Box::new(DdEngine::new()) as Box<dyn SimulationEngine>));
        let config = TrajectoryConfig {
            trajectories: 16,
            seed: 7,
            workers,
        };
        let mut e = TrajectoryEngine::new(factory, config, &noise).expect("valid model");
        let sink = TelemetrySink::new();
        let (_stats, log) = run_traced(&mut e, &qc, &sink).expect("traced run");
        let zz: qdt::circuit::PauliString = "ZZ".parse().unwrap();
        let expectation = e.expectation(&zz).expect("expectation");
        (deterministic_stream(&log), expectation)
    };
    let (log_1, exp_1) = run_with(1);
    let (log_4, exp_4) = run_with(4);
    assert_eq!(log_1, log_4, "worker count leaked into the gate stream");
    assert!(
        (exp_1 - exp_4).abs() < 1e-12,
        "worker count changed the result: {exp_1} vs {exp_4}"
    );
}

#[test]
fn disabled_sink_changes_no_results_and_registers_nothing() {
    let qc = generators::ghz(8);
    let sink = TelemetrySink::disabled();
    let mut traced = qdt::create_engine("decision-diagram").expect("dd builds");
    let (stats, log) = run_traced(traced.as_mut(), &qc, &sink).expect("traced run");
    let mut plain = qdt::create_engine("decision-diagram").expect("dd builds");
    let plain_stats = qdt::engine::run(plain.as_mut(), &qc).expect("plain run");

    assert_eq!(stats.gates_applied, plain_stats.gates_applied);
    assert_eq!(stats.peak_metric, plain_stats.peak_metric);
    assert_eq!(stats.peak_gate_index, plain_stats.peak_gate_index);
    for basis in [0u128, (1 << 8) - 1, 3] {
        assert_eq!(
            traced.amplitude(basis).unwrap(),
            plain.amplitude(basis).unwrap(),
            "telemetry must not perturb amplitudes"
        );
    }
    // The log still records gate names, but no metrics were registered
    // anywhere: the disabled registry stays empty.
    assert_eq!(log.len(), 8);
    assert!(log.iter().all(|r| r.metrics.is_empty()));
    assert!(sink.metrics().is_empty());
    assert!(sink.tracer().events().is_empty());
}

#[test]
fn exporters_emit_well_formed_output() {
    let qc = generators::ghz(10);
    let sink = TelemetrySink::new();
    let mut engine = qdt::create_engine("decision-diagram").expect("dd builds");
    let (_stats, log) = run_traced(engine.as_mut(), &qc, &sink).expect("traced run");

    // Chrome trace: parses, and every B has a matching same-name E on
    // its thread (checked with a per-thread stack).
    let trace = chrome_trace(&sink.tracer().events());
    let doc = parse(&trace).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    for ev in events {
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap();
        let tid = ev.get("tid").and_then(JsonValue::as_number).unwrap() as u64;
        match ev.get("ph").and_then(JsonValue::as_str).unwrap() {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .expect("E without open B");
                assert_eq!(open, name, "mismatched span close");
            }
            _ => {}
        }
    }
    assert!(stacks.values().all(Vec::is_empty), "unclosed spans remain");

    // JSONL: every row parses and round-trips through the emitter.
    let jsonl = gate_log_jsonl(&log);
    let mut rows = 0;
    for line in jsonl.lines() {
        let v = parse(line).expect("JSONL row parses");
        let reparsed = parse(&v.to_string()).expect("emitted row parses");
        assert_eq!(v, reparsed, "round-trip changed the row");
        assert!(v.get("metrics").is_some());
        rows += 1;
    }
    assert_eq!(rows, log.len());
}

#[test]
fn traced_runs_report_peak_memory() {
    let qc = generators::ghz(10);
    let sink = TelemetrySink::new();
    let mut engine = qdt::create_engine("array").expect("array builds");
    let (stats, _log) = run_traced(engine.as_mut(), &qc, &sink).expect("traced run");
    // The 10-qubit state vector holds 1024 complex amplitudes of 16 bytes.
    assert_eq!(stats.peak_memory_bytes, 1024 * 16);
    let flat = sink.metrics().flattened();
    let mem = |name: &str| {
        flat.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {name} in {flat:?}"))
    };
    assert!((mem("engine.mem.peak_bytes") - 16384.0).abs() < 1e-9);
    assert!((mem("mem.array.state_vector.peak_bytes") - 16384.0).abs() < 1e-9);
}

/// Wall-clock budget for enabled telemetry on QFT-12, as a multiple of
/// the disabled-sink run (documented in DESIGN.md §15): the sharded
/// id-keyed hot path must keep the full traced run within 3× of the
/// untraced run, median-of-5.
const QFT12_OVERHEAD_BUDGET: f64 = 3.0;

#[test]
fn enabled_telemetry_overhead_stays_in_budget() {
    let qc = generators::qft(12, true);
    let median_secs = |enabled: bool| {
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let sink = if enabled {
                    TelemetrySink::new()
                } else {
                    TelemetrySink::disabled()
                };
                let mut e = qdt::create_engine("array").expect("array builds");
                let start = std::time::Instant::now();
                let _ = run_traced(e.as_mut(), &qc, &sink).expect("traced run");
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    // Warm up allocators and the engine before timing.
    let _ = median_secs(false);
    let disabled = median_secs(false);
    let enabled = median_secs(true);
    assert!(
        enabled <= QFT12_OVERHEAD_BUDGET * disabled.max(1e-6),
        "enabled telemetry {enabled:.6}s vs disabled {disabled:.6}s \
         exceeds the {QFT12_OVERHEAD_BUDGET}x budget"
    );
}

mod thread_count_determinism {
    use proptest::prelude::*;
    use qdt::array::ArrayEngine;
    use qdt::circuit::{generators, Circuit, Gate};
    use qdt::parallel::KernelContext;
    use qdt::telemetry::{deterministic_stream, DeterministicRecord};
    use qdt::{run_traced, TelemetrySink};

    /// The deterministic metric stream of `qc` on an array engine with
    /// `threads` workers, with the sequential-fallback threshold forced
    /// to 1 so every gate really runs on the pool.
    fn stream_at(qc: &Circuit, threads: usize) -> Vec<DeterministicRecord> {
        let ctx = KernelContext::with_threads(threads).with_threshold(1);
        let mut e = ArrayEngine::with_context(ctx);
        let sink = TelemetrySink::new();
        let (_stats, log) = run_traced(&mut e, qc, &sink).expect("traced run");
        deterministic_stream(&log)
    }

    fn op_strategy(n: usize) -> impl Strategy<Value = (u8, usize, usize)> {
        (0u8..6, 0..n, 0..n).prop_filter("distinct for 2q ops", |(op, a, b)| *op < 4 || a != b)
    }

    fn circuit_strategy(n: usize) -> impl Strategy<Value = Circuit> {
        prop::collection::vec(op_strategy(n), 1..24).prop_map(move |ops| {
            let mut qc = Circuit::new(n);
            for (op, a, b) in ops {
                match op {
                    0 => {
                        qc.gate(Gate::H, a, &[]);
                    }
                    1 => {
                        qc.gate(Gate::T, a, &[]);
                    }
                    2 => {
                        qc.gate(Gate::X, a, &[]);
                    }
                    3 => {
                        qc.gate(Gate::Rz(0.3), a, &[]);
                    }
                    4 => {
                        qc.cx(a, b);
                    }
                    _ => {
                        qc.swap(a, b);
                    }
                }
            }
            qc
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The exported metric stream is bit-identical whether the
        /// array kernels run on 1, 2, or 4 workers.
        #[test]
        fn metric_stream_is_bit_identical_across_thread_counts(qc in circuit_strategy(6)) {
            let base = stream_at(&qc, 1);
            prop_assert!(!base.is_empty());
            for threads in [2usize, 4] {
                let other = stream_at(&qc, threads);
                prop_assert!(base == other, "threads={} diverged", threads);
            }
        }
    }

    #[test]
    fn qft_stream_is_bit_identical_across_thread_counts() {
        let qc = generators::qft(10, true);
        let base = stream_at(&qc, 1);
        assert_eq!(base, stream_at(&qc, 2));
        assert_eq!(base, stream_at(&qc, 4));
    }
}
