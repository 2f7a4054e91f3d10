//! Regenerates every figure and qualitative claim of the reproduced
//! paper (see DESIGN.md's per-experiment index). Output is the source
//! for EXPERIMENTS.md.
//!
//! Run all experiments:  `cargo run -p qdt-bench --bin repro --release`
//! Run one:              `cargo run -p qdt-bench --bin repro --release -- c2`
//! (an unknown experiment name exits 2 and lists the valid names)
//! Pick backends:        `... -- engines --backend dd --backend mps:16`
//! Export telemetry:     `... -- telemetry --trace t.json --metrics m.jsonl`
//!
//! `--backend <spec>` (repeatable) selects the engines the `engines`
//! experiment profiles; specs are anything `qdt::create_engine`
//! accepts: `array`, `dd`, `tensor-network`, `mps:16`, `mps(χ=16)`,
//! `density(depol=0.01)`, `traj(1000, seed=7, depol=0.01):dd`, …
//! Invalid specs are rejected up front with `create_engine`'s own
//! diagnostic.
//!
//! `--trace <file>` writes the `telemetry` experiment's span stream in
//! Chrome trace format (load in `about:tracing` or Perfetto);
//! `--metrics <file>` writes its per-gate metric stream as JSONL.

use qdt::array::StateVector;
use qdt::circuit::generators;
use qdt::compile::coupling::CouplingMap;
use qdt::compile::target::GateSet;
use qdt::complex::Complex;
use qdt::dd::DdPackage;
use qdt::engine::run;
use qdt::telemetry::json::JsonValue;
use qdt::tensor::mps::Mps;
use qdt::tensor::{ContractionPlan, PlanKind, TensorNetwork};
use qdt::verify::{check, verify_compilation_traced, Method};
use qdt::zx::{simplify, Diagram};
use qdt_bench::{timed, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How `--metrics <file>` serialises the telemetry registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MetricsFormat {
    /// Per-gate metric stream as JSON Lines (the default).
    #[default]
    Jsonl,
    /// Registry totals in Prometheus/OpenMetrics text exposition.
    Prometheus,
}

fn main() {
    // `QDT_PROFILE=<hz>` turns on the sampling wall-clock profiler for
    // the whole process; the collapsed-stack and Chrome-trace files are
    // written on exit (base path `QDT_PROFILE_OUT`, default
    // `qdt-profile`).
    let profiler = qdt::telemetry::Profiler::from_env();
    {
        let _root_frame = qdt::telemetry::profile_frame("repro");
        run_repro();
    }
    if let Some(p) = profiler {
        let report = p.finish();
        let base = std::env::var("QDT_PROFILE_OUT").unwrap_or_else(|_| "qdt-profile".into());
        match report.write_files(&base) {
            Ok((collapsed, trace)) => eprintln!(
                "profiler: {} samples over {} ticks -> {collapsed} (collapsed stacks), \
                 {trace} (chrome trace)",
                report.sample_count(),
                report.ticks
            ),
            Err(e) => eprintln!("profiler: failed to write {base}.*: {e}"),
        }
    }
}

fn run_repro() {
    let mut filter: Vec<String> = Vec::new();
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--backend" {
            let spec = args
                .next()
                .expect("--backend needs a spec, e.g. --backend mps:16");
            // Build one throwaway engine so bad specs fail fast with
            // `create_engine`'s diagnostic instead of mid-experiment.
            if let Err(e) = qdt::create_engine(&spec) {
                eprintln!("{e}");
                std::process::exit(2);
            }
            opts.backends.push(spec);
        } else if a == "--trace" {
            opts.trace_path = Some(args.next().expect("--trace needs a file path"));
        } else if a == "--metrics" {
            opts.metrics_path = Some(args.next().expect("--metrics needs a file path"));
        } else if a == "--format" {
            let fmt = args
                .next()
                .expect("--format needs a value: jsonl or prometheus");
            opts.metrics_format = match fmt.as_str() {
                "jsonl" => MetricsFormat::Jsonl,
                "prometheus" | "openmetrics" => MetricsFormat::Prometheus,
                other => {
                    eprintln!("unknown --format `{other}` (expected jsonl or prometheus)");
                    std::process::exit(2);
                }
            };
        } else if a == "--snapshot" {
            opts.snapshot_path = Some(args.next().expect("--snapshot needs a file path"));
        } else {
            filter.push(a.to_lowercase());
        }
    }
    if opts.backends.is_empty() {
        opts.backends = ["array", "decision-diagram", "tensor-network", "mps:64"]
            .map(String::from)
            .to_vec();
    }
    let unknown = unknown_names(&filter);
    if !unknown.is_empty() {
        let valid: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|(names, _)| *names)
            .copied()
            .collect();
        eprintln!(
            "unknown experiment name(s): {}\nvalid names: {}",
            unknown.join(", "),
            valid.join(", ")
        );
        std::process::exit(2);
    }
    for (names, experiment) in EXPERIMENTS {
        if filter.is_empty() || filter.iter().any(|f| names.contains(&f.as_str())) {
            experiment(&opts);
        }
    }
}

/// The command-line settings an experiment may read.
#[derive(Default)]
struct Options {
    backends: Vec<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    metrics_format: MetricsFormat,
    snapshot_path: Option<String>,
}

/// An experiment: the names that select it, and what it runs.
type Experiment = (&'static [&'static str], fn(&Options));

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    (&["engines"], |o| engines(&o.backends)),
    (&["auto", "auto_dispatch"], |_| auto_dispatch()),
    (&["telemetry"], |o| {
        telemetry(
            o.trace_path.as_deref(),
            o.metrics_path.as_deref(),
            o.metrics_format,
        );
    }),
    (&["fig1"], |_| fig1()),
    (&["fig2"], |_| fig2()),
    (&["fig3"], |_| fig3()),
    (&["c1"], |_| c1_array_scaling()),
    (&["c2"], |_| c2_dd_vs_array()),
    (&["c3"], |_| c3_tn_contraction()),
    (&["c4"], |_| c4_mps_truncation()),
    (&["c5"], |_| c5_zx_simplification()),
    (&["c6"], |_| c6_equivalence()),
    (&["c7"], |_| c7_compilation()),
    (&["c8"], |_| c8_noise()),
    (&["noise"], |_| noise_subsystem()),
    (&["parallel", "parallel_scaling"], |_| parallel_scaling()),
    (&["dynamic"], |_| dynamic_circuits()),
    (&["stabilizer", "stabilizer_scaling"], |o| {
        stabilizer_scaling(o.snapshot_path.as_deref());
    }),
    (&["kernels", "kernel_fusion"], |o| {
        kernel_fusion(o.snapshot_path.as_deref());
    }),
    (&["c9"], |_| c9_approximation()),
    (&["a1"], |_| a1_tolerance_ablation()),
    (&["c10"], |_| c10_zx_extraction()),
];

/// The filter entries that select no experiment.
fn unknown_names(filter: &[String]) -> Vec<&str> {
    filter
        .iter()
        .map(String::as_str)
        .filter(|f| !EXPERIMENTS.iter().any(|(names, _)| names.contains(f)))
        .collect()
}

fn header(title: &str) {
    println!("\n{:=^78}", format!(" {title} "));
}

/// Engines: the same traced run loop over every selected backend,
/// reporting each data structure's own cost metric — the paper's
/// trade-off table, measured.
fn engines(backends: &[String]) {
    header("Engines — one run loop, four data structures (instrumented)");
    println!(
        "         backend  circuit   qubits   gates  threads       metric     peak   peak@    final        mem       time"
    );
    for (fam, n) in [
        (Family::Ghz, 12usize),
        (Family::Qft, 12),
        (Family::WState, 12),
    ] {
        let qc = fam.circuit(n);
        for b in backends {
            let mut e = match qdt::create_engine(b) {
                Ok(e) => e,
                Err(err) => {
                    eprintln!("{b}: {err}");
                    continue;
                }
            };
            let (stats, secs) = timed(|| run(e.as_mut(), &qc).expect("simulates"));
            // `run` alone must resolve `auto`, so its row reports the
            // dispatched engine's work, not a deferred replay.
            assert!(
                e.name() != "auto" || e.describe().starts_with("auto->"),
                "{b}: `run` left auto undispatched"
            );
            println!(
                "{:>16} {:>8} {:>8} {:>7} {:>8} {:>12} {:>8} {:>7} {:>8} {:>10} {:>8.4}s",
                b.to_string(),
                fam.name(),
                e.num_qubits(),
                stats.gates_applied,
                spec_threads(b, e.as_ref()),
                stats.metric_name,
                stats.peak_metric,
                stats.peak_gate_index,
                stats.final_metric,
                format_bytes(stats.peak_memory_bytes),
                secs
            );
        }
    }
    println!("(peak/final are each engine's own cost metric: dense amplitudes,");
    println!(" DD nodes, network tensors, or the MPS bond high-water mark;");
    println!(" peak@ is the 0-based gate index where the peak first occurred;");
    println!(" mem is the engine's self-reported peak state memory over the run;");
    println!(" threads is the kernel worker count for the dense engines — an");
    println!(" explicit threads= key, else QDT_THREADS or the host's cores;");
    println!(" - for the other engines)");
}

/// Human-readable byte count for the engines table (`-` for engines
/// that do not report memory).
fn format_bytes(bytes: usize) -> String {
    if bytes == 0 {
        return "-".to_string();
    }
    #[allow(clippy::cast_precision_loss)]
    let b = bytes as f64;
    if bytes < 1024 {
        format!("{bytes}B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1}KiB", b / 1024.0)
    } else {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    }
}

/// Auto dispatch: the dataflow cost model of `qdt-analysis` prices
/// every backend per circuit and the `auto` spec runs the predicted
/// winner. On a mixed workload — wide Clifford, dense narrow, random
/// volume, low-entanglement — no fixed backend beats the dispatcher's
/// total, because each fixed choice has at least one circuit shape
/// that punishes it (the paper's trade-off, closed into a scheduler).
fn auto_dispatch() {
    header("Auto dispatch — cost-model backend selection (mixed workload)");
    let mut rng = StdRng::seed_from_u64(0xAD);
    // Nested pairs: five CX edges cross the middle cut in natural order,
    // the order the MPS engine runs in.
    let mut nested = qdt::circuit::Circuit::new(10);
    for q in 0..5 {
        nested.h(q);
    }
    for q in 0..5 {
        nested.cx(q, 9 - q).t(9 - q).h(9 - q);
    }
    let workload: Vec<(&str, qdt::circuit::Circuit)> = vec![
        ("ghz-24", generators::ghz(24)),
        ("qft-12", generators::qft(12, true)),
        ("random-12", generators::random_circuit(12, 10, &mut rng)),
        ("wstate-16", generators::w_state(16)),
        ("nested-10", nested),
    ];
    // The fixed backends, then `auto` last.
    let specs = [
        "array",
        "decision-diagram",
        "mps:64",
        "tensor-network",
        "auto",
    ];
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>16}",
        "circuit", "array", "dd", "mps:64", "tn", "auto", "auto resolved"
    );
    let mut totals = [0.0f64; 5];
    for (name, qc) in &workload {
        // Predicted costs: the chosen spec is the cheapest feasible
        // estimate by construction; assert the dominance anyway so the
        // table doubles as a regression test of the model.
        let decision = qdt::analysis::dispatch_circuit(qc);
        if *name == "ghz-24" {
            // Wide Clifford-only is exactly the stabilizer arm's niche.
            assert_eq!(
                decision.chosen, "stabilizer",
                "the wide Clifford workload must dispatch to the tableau"
            );
        }
        let chosen_cost = decision.chosen_estimate().cost;
        for estimate in &decision.estimates {
            assert!(
                !estimate.feasible || chosen_cost <= estimate.cost,
                "{name}: chosen `{}` predicted above `{}`",
                decision.chosen,
                estimate.spec
            );
        }

        let mut row = [0.0f64; 5];
        let mut engines = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let mut e = qdt::create_engine(spec).expect("spec builds");
            row[i] = timed(|| {
                run(e.as_mut(), qc).expect("simulates");
                e.amplitude(0).expect("single amplitude");
            })
            .1;
            totals[i] += row[i];
            engines.push(e);
        }
        let resolved = engines[4].describe();
        if qc.num_qubits() <= 16 {
            // `auto` answers, not only times: its state is the array's.
            let want = engines[0].amplitudes().expect("dense amplitudes");
            let got = engines[4].amplitudes().expect("dense amplitudes");
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    x.approx_eq(*y, 1e-10),
                    "{name}: {resolved} amplitude {i} is {x}, the array's {y}"
                );
            }
        }
        assert!(
            resolved.starts_with("auto->"),
            "{name}: auto did not resolve to a concrete backend: {resolved}"
        );
        assert_eq!(
            resolved,
            format!("auto->{}", decision.chosen),
            "{name}: engine and cost model disagree"
        );
        println!(
            "{:>10} {:>11.4}s {:>11.4}s {:>11.4}s {:>11.4}s {:>11.4}s {:>16}",
            name, row[0], row[1], row[2], row[3], row[4], resolved
        );
    }
    let auto_total = totals[4];
    print!(
        "{:>10} {:>11.4}s {:>11.4}s {:>11.4}s {:>11.4}s {:>11.4}s",
        "total", totals[0], totals[1], totals[2], totals[3], auto_total
    );
    let wins = totals[..4].iter().all(|t| auto_total <= *t);
    println!(" {:>16}", if wins { "auto wins" } else { "auto ties" });
    for (spec, total) in specs.iter().zip(&totals[..4]) {
        // "Beats or ties": a 10% + 50ms band absorbs timer noise on the
        // circuits where both choices are sub-millisecond.
        assert!(
            auto_total <= total * 1.10 + 0.05,
            "auto total {auto_total:.4}s must beat or tie {spec} ({total:.4}s)"
        );
    }
    println!("(run + one amplitude per circuit; auto's column includes the");
    println!(" dataflow analysis and dispatch itself. Each fixed backend has");
    println!(" a circuit shape that punishes it — the dispatcher sidesteps all)");
}

/// The kernel thread count a spec runs with: an explicit `threads=N`
/// key, else [`qdt::parallel::default_threads`] — shown only for
/// the dense engines that have chunked parallel kernels. `engine` is
/// the engine the spec built, so aliases resolve as `create_engine` does;
/// an `auto` engine is keyed on the spec it dispatched to in `run`.
fn spec_threads(spec: &str, engine: &dyn qdt::SimulationEngine) -> String {
    let described = engine.describe();
    let parsed = qdt::engine::parse_spec(described.strip_prefix("auto->").unwrap_or(spec));
    let name = match (&parsed, engine.name()) {
        (Ok(resolved), "auto") => resolved.name.as_str(),
        (_, name) => name,
    };
    if !matches!(name, "array" | "density" | "stabilizer") {
        return "-".into();
    }
    match parsed.and_then(|parsed| parsed.usize_of(&["threads"])) {
        Ok(Some(t)) => t.to_string(),
        Ok(None) => qdt::parallel::default_threads().to_string(),
        Err(_) => "-".into(),
    }
}

/// Parallel: the thread crossover of the chunked state-vector kernels,
/// on plain GHZ and fused QFT at 12–22 qubits. The `threads=2`/`4` rows
/// force every kernel onto the pool (`threshold=1`), so their speed-up
/// over `threads=1` is the raw crossover; the `default` row is the bare
/// spec, on the default thread count and threshold. `pool` marks the
/// circuits whose kernels the default threshold sends to the pool. The
/// amplitudes are asserted bit-identical to `threads=1` on every row.
fn parallel_scaling() {
    use qdt::parallel::{default_threads, host_threads, DEFAULT_PARALLEL_THRESHOLD};
    header("Parallel — thread crossover of the chunked state-vector kernels");
    println!(
        "default: {} threads ({} cores), threshold {DEFAULT_PARALLEL_THRESHOLD} weighted items",
        default_threads(),
        host_threads()
    );
    println!(
        "{:>7} {:>6} {:>35} {:>10} {:>8} {:>7}",
        "circuit", "qubits", "spec", "time", "speedup", "default"
    );
    // Each family's bare spec, and the prefix its keyed specs share.
    for (fam, bare, keyed) in [
        (Family::Ghz, "array", "array("),
        (Family::Qft, "array(fuse=5)", "array(fuse=5,"),
    ] {
        for n in [12usize, 14, 16, 18, 20, 22] {
            let qc = fam.circuit(n);
            let pooled = if reaches_pool(&format!("{keyed}threads=2)"), &qc) {
                "pool"
            } else {
                "inline"
            };
            let mut reference: Option<(Vec<Complex>, f64)> = None;
            for spec in [
                format!("{keyed}threads=1)"),
                format!("{keyed}threads=2,threshold=1)"),
                format!("{keyed}threads=4,threshold=1)"),
                bare.to_string(),
            ] {
                let (amps, secs) = timed(|| {
                    let mut e = qdt::create_engine(&spec).expect("spec builds");
                    run(e.as_mut(), &qc).expect("simulates");
                    e.amplitudes().expect("dense amplitudes")
                });
                let (base_amps, base_secs) = reference.get_or_insert((amps.clone(), secs));
                assert_eq!(
                    &amps, base_amps,
                    "{spec}: thread count changed the amplitudes"
                );
                println!(
                    "{:>7} {:>6} {:>35} {:>8.3}ms {:>7.2}x {:>7}",
                    fam.name(),
                    n,
                    spec,
                    secs * 1e3,
                    *base_secs / secs,
                    if spec == bare { pooled } else { "" }
                );
            }
        }
    }
    println!("(speed-up is threads=1 time over the row's time; `default` reads");
    println!(" `pool` when a traced threads=2 run at the default threshold records");
    println!(" a parallel/worker span; every row's amplitudes equal threads=1's)");
}

/// Whether running `qc` on `spec` hands any kernel to the worker pool:
/// a traced run records a `parallel/worker` span exactly then.
fn reaches_pool(spec: &str, qc: &qdt::circuit::Circuit) -> bool {
    let sink = qdt::TelemetrySink::new();
    let mut e = qdt::create_engine(spec).expect("spec builds");
    qdt::run_traced(e.as_mut(), qc, &sink).expect("traced run");
    sink.tracer()
        .events()
        .iter()
        .any(|ev| ev.category == qdt::parallel::WORKER_SPAN_CATEGORY && ev.name == "worker")
}

/// Dynamic circuits: mid-circuit measurement, reset, and classical
/// feed-forward through the per-shot executor — protocol oracles exact
/// on every collapse-capable backend, histograms bit-identical across
/// worker counts, and the shot loop's throughput and suffix replays per
/// substrate.
fn dynamic_circuits() {
    use qdt::engine::{ShotConfig, ShotExecutor};
    use qdt::telemetry::MetricValue;
    use qdt::verify::dynamic::{check_iterative_phase_estimation, check_teleportation};

    header("Dynamic — mid-circuit measurement, reset, feed-forward");
    let specs = ["array", "decision-diagram", "mps:8"];

    println!("teleportation (3 qubits, 4096 shots): per-shot state fidelity");
    println!(
        "{:>18} {:>16} {:>10} {:>10}",
        "backend", "min fidelity", "patterns", "time"
    );
    let mut teleport_secs = Vec::new();
    for spec in specs {
        let mut e = qdt::create_engine(spec).expect("spec builds");
        let (report, secs) =
            timed(|| check_teleportation(e.as_mut(), 0.8, 2.1, 4096, 17).expect("protocol runs"));
        assert!(
            report.is_faithful(1e-12),
            "{spec}: teleportation fidelity {} below 1 - 1e-12",
            report.min_fidelity
        );
        teleport_secs.push(secs);
        println!(
            "{:>18} {:>16.12} {:>10} {:>8.3}s",
            spec, report.min_fidelity, report.outcome_patterns, secs
        );
    }
    // The DD collapse fast path: snapshot/restore anchors each shot on
    // the cloned package instead of rebuilding the diagram gate by
    // gate, so the per-shot loop stays within a constant factor of the
    // dense array (the band absorbs timer noise on fast hosts).
    let (array_secs, dd_secs) = (teleport_secs[0], teleport_secs[1]);
    assert!(
        dd_secs <= 20.0 * array_secs + 0.05,
        "DD teleportation ({dd_secs:.3}s) drifted past 20x the array ({array_secs:.3}s): \
         the snapshot fast path regressed"
    );

    println!("\niterative phase estimation (4-bit phase k=11, 256 shots):");
    for spec in specs {
        let mut e = qdt::create_engine(spec).expect("spec builds");
        let hits =
            check_iterative_phase_estimation(e.as_mut(), 4, 11, 256, 29).expect("protocol runs");
        assert_eq!(hits, 256, "{spec}: IPE readout must be deterministic");
        println!("  {spec:>16}: read k=11 in {hits}/256 shots");
    }

    println!("\nshot-loop determinism and throughput (teleportation, seed 42):");
    println!(
        "{:>18} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "backend", "shots", "workers", "time", "identical", "replayed"
    );
    let qc = generators::teleportation(std::f64::consts::FRAC_PI_3, std::f64::consts::PI / 5.0);
    for spec in specs {
        let factory = qdt::engine::shot_factory(spec).expect("spec builds");
        let mut reference = None;
        for workers in [1usize, 2, 4] {
            // A fresh sink per run, so the counter reads one run's replays.
            let ((result, replayed), secs) = timed(|| {
                let sink = qdt::TelemetrySink::new();
                let executor = ShotExecutor::new(ShotConfig::new(4096, 42).with_workers(workers))
                    .with_telemetry(&sink);
                let result = executor.sample(&factory, &qc).expect("sampling runs");
                match sink.metrics().get("shots.replayed") {
                    Some(MetricValue::Counter(n)) => (result, n),
                    other => panic!("shots.replayed missing: {other:?}"),
                }
            });
            let base = reference.get_or_insert_with(|| result.counts.clone());
            assert_eq!(&result.counts, base, "{spec}: workers={workers} diverged");
            // Suffix materialisations: the outcome tree replays each of
            // teleportation's four measurement branches once per worker.
            if workers == 1 {
                assert!(
                    replayed <= 4,
                    "{spec}: one worker replayed {replayed} teleportation paths (at most 4)"
                );
            }
            println!(
                "{:>18} {:>8} {:>8} {:>8.3}s {:>10} {:>9}",
                spec, 4096, workers, secs, "yes", replayed
            );
        }
    }

    println!("\nreset-and-reuse: 4-round ladder on one data qubit (512 shots):");
    let ladder = generators::reset_reuse_ladder(4);
    let result = qdt::sample_dynamic(&ladder, 512, "decision-diagram", 7, 4).expect("ladder runs");
    assert!(
        result.counts.keys().all(|&k| k & (1 << 4) == 0),
        "corrected data qubit must always read 0"
    );
    println!(
        "  {} resets, {} collapses, {} conditioned corrections over 512 shots",
        result.stats.resets, result.stats.collapses, result.stats.cond_applied
    );
    println!("(every dynamic histogram above is a seeded pure function of the");
    println!(" circuit: striping shots over the worker pool is bit-identical to");
    println!(" the sequential loop on every collapse-capable backend)");
}

/// Stabilizer scaling: the polynomial Clifford fragment at widths no
/// dense backend can touch — a 1000-qubit GHZ prepared and sampled in
/// well under a second, plus repetition-code syndrome extraction
/// through the dynamic shot loop. With `--snapshot <file>` the
/// deterministic integers (counts, seeds, tableau words — never
/// timings) are written as JSON for CI to diff against the committed
/// `BENCH_stabilizer.json`.
fn stabilizer_scaling(snapshot_path: Option<&str>) {
    use qdt::circuit::{Pauli, PauliString};
    use qdt::stabilizer::StabilizerEngine;
    use qdt::SimulationEngine;

    header("Stabilizer — bit-packed tableaux on the Clifford fragment");

    const GHZ_QUBITS: usize = 1000;
    const GHZ_SHOTS: usize = 4096;
    const GHZ_SEED: u64 = 0x57AB;
    let qc = generators::ghz(GHZ_QUBITS);

    println!("GHZ-{GHZ_QUBITS}: prepare + sample {GHZ_SHOTS} shots (seed {GHZ_SEED:#x})");
    let ((words, counts), secs) = timed(|| {
        let mut e = StabilizerEngine::new();
        run(&mut e, &qc).expect("Clifford circuit runs");
        let words = e.cost_metric().value;
        let counts = e.sample_bits(GHZ_SHOTS, &mut StdRng::seed_from_u64(GHZ_SEED));
        (words, counts)
    });
    // 2n+1 rows, each an x and a z block of ceil(n/64) words.
    let w = GHZ_QUBITS.div_ceil(64);
    assert_eq!(words, 2 * (2 * GHZ_QUBITS + 1) * w);
    // A GHZ register collapses to all-zeros or all-ones, nothing else.
    let zeros = vec![0u64; w];
    let mut ones = vec![u64::MAX; w - 1];
    ones.push((1u64 << (GHZ_QUBITS - 64 * (w - 1))) - 1);
    assert!(
        counts.keys().all(|k| *k == zeros || *k == ones),
        "GHZ sampling produced a non-GHZ bit pattern"
    );
    assert_eq!(counts.values().sum::<usize>(), GHZ_SHOTS);
    let n_zeros = counts.get(&zeros).copied().unwrap_or(0);
    let n_ones = counts.get(&ones).copied().unwrap_or(0);
    println!("  {words} tableau words, all-zeros {n_zeros} / all-ones {n_ones}, {secs:.3}s");
    assert!(
        secs < 1.0,
        "GHZ-{GHZ_QUBITS} prepare+sample took {secs:.3}s (budget: 1s)"
    );

    // `threshold=1` sends the row-block kernels to the pool: at the
    // default threshold a 1000-qubit tableau's stay inline.
    println!("\nthread-count invariance (same RNG seed, identical histograms, threshold=1):");
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "threads", "all-zeros", "all-ones", "time"
    );
    for threads in [1usize, 2, 4] {
        let (t_counts, t_secs) = timed(|| {
            let ctx = qdt::parallel::KernelContext::with_threads(threads).with_threshold(1);
            let mut e = StabilizerEngine::with_context(ctx);
            run(&mut e, &qc).expect("Clifford circuit runs");
            e.sample_bits(GHZ_SHOTS, &mut StdRng::seed_from_u64(GHZ_SEED))
        });
        assert_eq!(
            t_counts, counts,
            "threads={threads}: histogram diverged from the baseline"
        );
        println!(
            "{:>10} {:>12} {:>12} {:>8.3}s",
            threads,
            t_counts.get(&zeros).copied().unwrap_or(0),
            t_counts.get(&ones).copied().unwrap_or(0),
            t_secs
        );
    }

    // Run-only rows: gates applied by `run` alone, before any query; the
    // first query then switches the tableau from its gate layout (bit
    // columns) to rows once.
    const CLIFFORD_SEED: u64 = 0xC11F;
    let clifford = generators::random_clifford_seeded(200, 6, CLIFFORD_SEED);
    println!("\nrun only (no query), then one query (random Clifford seed {CLIFFORD_SEED:#x}):");
    println!(
        "{:>24} {:>7} {:>10} {:>12} {:>18}",
        "circuit", "gates", "time", "gates/s", "switches run/query"
    );
    for (label, circuit) in [
        (format!("ghz-{GHZ_QUBITS}"), &qc),
        ("random-clifford-200x6".to_string(), &clifford),
    ] {
        let (gates, r_secs) = timed(|| {
            let mut e = StabilizerEngine::new();
            run(&mut e, circuit)
                .expect("Clifford circuit runs")
                .gates_applied
        });
        let mut e = StabilizerEngine::new();
        run(&mut e, circuit).expect("Clifford circuit runs");
        let during_run = e.layout_switches();
        let z0 = PauliString::new(
            std::iter::once(Pauli::Z)
                .chain(std::iter::repeat(Pauli::I))
                .take(circuit.num_qubits())
                .collect(),
        );
        e.expectation(&z0).expect("Pauli expectation");
        let with_query = e.layout_switches();
        assert_eq!(
            (during_run, with_query),
            (0, 1),
            "{label}: a gate run must switch layout only at its first query"
        );
        #[allow(clippy::cast_precision_loss)]
        let rate = gates as f64 / r_secs;
        println!(
            "{label:>24} {gates:>7} {:>8.3}ms {rate:>12.3e} {:>18}",
            r_secs * 1e3,
            format!("{during_run}/{with_query}")
        );
    }
    let mut e = StabilizerEngine::new();
    e.prepare(GHZ_QUBITS).expect("prepare");
    println!(
        "  GHZ-{GHZ_QUBITS} storage: {} words held (X/Z padded to 64-row blocks, \
         sign column, scratch row) for {words} tableau words",
        e.memory_bytes() / std::mem::size_of::<u64>()
    );

    const CODE_DISTANCE: usize = 41;
    const CODE_ROUNDS: usize = 3;
    const CODE_SHOTS: usize = 256;
    const CODE_SEED: u64 = 11;
    println!(
        "\nrepetition code d={CODE_DISTANCE}, {CODE_ROUNDS} rounds \
         ({} qubits, {} syndrome bits, {CODE_SHOTS} shots):",
        2 * CODE_DISTANCE - 1,
        CODE_ROUNDS * (CODE_DISTANCE - 1)
    );
    let code = generators::repetition_code(CODE_DISTANCE, CODE_ROUNDS);
    let mut zero_syndrome = 0usize;
    for workers in [1usize, 2, 4] {
        let (result, c_secs) = timed(|| {
            qdt::sample_dynamic(&code, CODE_SHOTS, "stabilizer", CODE_SEED, workers)
                .expect("syndrome extraction runs")
        });
        assert_eq!(
            result.counts.get(&0),
            Some(&CODE_SHOTS),
            "workers={workers}: error-free code must read an all-zero syndrome"
        );
        zero_syndrome = CODE_SHOTS;
        println!(
            "  workers={workers}: {CODE_SHOTS}/{CODE_SHOTS} all-zero syndromes, \
             {} resets, {c_secs:.3}s",
            result.stats.resets
        );
    }

    if let Some(path) = snapshot_path {
        let doc = JsonValue::Object(vec![
            (
                "ghz".into(),
                int_object(&[
                    ("qubits", GHZ_QUBITS as u64),
                    ("shots", GHZ_SHOTS as u64),
                    ("seed", GHZ_SEED),
                    ("tableau_words", words as u64),
                    ("all_zeros", n_zeros as u64),
                    ("all_ones", n_ones as u64),
                ]),
            ),
            (
                "repetition_code".into(),
                int_object(&[
                    ("distance", CODE_DISTANCE as u64),
                    ("rounds", CODE_ROUNDS as u64),
                    ("shots", CODE_SHOTS as u64),
                    ("seed", CODE_SEED),
                    ("zero_syndromes", zero_syndrome as u64),
                ]),
            ),
        ]);
        write_snapshot(path, &doc);
    }
    println!("(exponential backends stop near 30 qubits; the tableau holds the");
    println!(" same GHZ state in {words} machine words and samples it exactly)");
}

/// Kernel fusion: the fused dense kernels against the plain ones on
/// the headline workloads (QFT-20, QFT-22, random Clifford+T-18, dense
/// random-12). Amplitude `0` is compared exactly between the fused and
/// unfused runs, the fused QFT-20 and QFT-22 must win on wall-clock, and with
/// `--snapshot <file>` the deterministic integers (gate counts, fused
/// group counts, relabelled gates, width-histogram totals — never
/// timings) are written for CI to diff against the committed
/// `BENCH_kernels.json`. The last line prints fused QFT-22's time over
/// its groups × one streaming pass, the in-run measure of how far the
/// fused kernels are from the memory bound.
fn kernel_fusion(snapshot_path: Option<&str>) {
    use qdt::telemetry::MetricValue;
    use qdt::TelemetrySink;

    header("Kernel fusion — fused vs unfused dense state-vector kernels");

    const FUSE_WIDTH: usize = 5;
    let mut ct_rng = StdRng::seed_from_u64(0xF05E);
    let mut dr_rng = StdRng::seed_from_u64(0xDE45);
    let workloads: Vec<(&str, qdt::circuit::Circuit)> = vec![
        ("qft-20", generators::qft(20, true)),
        ("qft-22", generators::qft(22, true)),
        (
            "clifford-t-18",
            generators::random_clifford_t(18, 24, 0.3, &mut ct_rng),
        ),
        (
            "dense-random-12",
            generators::random_circuit(12, 16, &mut dr_rng),
        ),
    ];

    // Simulate, then read amplitude 0 (which flushes any pending fused
    // group); every run must reproduce the first run's amplitude exactly.
    let timed_run = |spec: &str, qc: &qdt::circuit::Circuit| {
        let mut e = qdt::create_engine(spec).expect("spec builds");
        let mut first = None;
        timed(|| {
            run(e.as_mut(), qc).expect("simulates");
            let amp = e.amplitude(0).expect("single amplitude");
            assert_eq!(
                *first.get_or_insert(amp),
                amp,
                "{spec}: repeated runs must agree exactly"
            );
            amp
        })
    };

    println!(
        "{:>16} {:>7} {:>7} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "circuit", "qubits", "gates", "groups", "relabelled", "unfused", "fused", "speedup"
    );
    let mut rows = Vec::new();
    // (plain, fused) seconds of the QFT rows, whose fused kernels must win.
    let mut qft_secs = Vec::new();
    let mut qft22 = (0u64, 0.0f64);
    for (name, qc) in &workloads {
        // Fused-group telemetry from an instrumented fused run: the
        // group count and width histogram are pure functions of the
        // circuit, so they are snapshot-stable.
        let sink = TelemetrySink::new();
        let mut fused =
            qdt::create_engine(&format!("array(fuse={FUSE_WIDTH})")).expect("fused spec builds");
        fused.telemetry(&sink);
        run(fused.as_mut(), qc).expect("simulates");
        let fused_amp = fused.amplitude(0).expect("flushes and reads");
        let groups = match sink.metrics().get("array.fuse.groups") {
            Some(MetricValue::Counter(n)) => n,
            other => panic!("array.fuse.groups missing: {other:?}"),
        };
        // Uncontrolled x and swap gates the engine's frame absorbed.
        let relabelled = match sink.metrics().get("array.frame.relabelled") {
            Some(MetricValue::Counter(n)) => n,
            None => 0,
            other => panic!("array.frame.relabelled is not a counter: {other:?}"),
        };
        let width = match sink.metrics().get("array.fuse.width") {
            Some(MetricValue::Histogram(h)) => h,
            other => panic!("array.fuse.width missing: {other:?}"),
        };
        assert_eq!(width.count, groups, "{name}: every group records a width");

        let (plain_amp, plain_secs) = timed_run("array", qc);
        let (fused_run_amp, fused_secs) = timed_run(&format!("array(fuse={FUSE_WIDTH})"), qc);
        assert_eq!(
            plain_amp, fused_run_amp,
            "{name}: fused amplitude drifted from unfused"
        );
        assert_eq!(fused_amp, plain_amp, "{name}: instrumented run drifted");

        let gates = qc.len();
        assert!(
            (groups as usize) < gates,
            "{name}: fusion merged nothing ({groups} groups over {gates} gates)"
        );
        if name.starts_with("qft-") {
            qft_secs.push((*name, plain_secs, fused_secs));
        }
        if *name == "qft-22" {
            qft22 = (groups, fused_secs);
        }
        println!(
            "{:>16} {:>7} {:>7} {:>8} {:>10} {:>9.3}s {:>9.3}s {:>8.2}x",
            name,
            qc.num_qubits(),
            gates,
            groups,
            relabelled,
            plain_secs,
            fused_secs,
            plain_secs / fused_secs.max(1e-9)
        );
        rows.push((
            name.replace('-', "_"),
            int_object(&[
                ("qubits", qc.num_qubits() as u64),
                ("gates", gates as u64),
                ("fuse_width", FUSE_WIDTH as u64),
                ("fused_groups", groups),
                ("relabelled", relabelled),
                ("width_sum", width.sum as u64),
                ("width_max", width.max as u64),
            ]),
        ));
    }

    // The acceptance bar: fewer strided passes must buy wall-clock on
    // the deep dense workloads.
    for (name, plain, fused) in qft_secs {
        assert!(
            fused < plain,
            "fused {name} ({fused:.3}s) must beat the plain array ({plain:.3}s)"
        );
    }

    // One streaming pass at 22 qubits: a Hadamard on the top qubit of a
    // prepared plain engine (the allocation stays outside the clock),
    // timed as a batch of passes and divided, since one pass swings.
    const PASSES: usize = 16;
    let mut e = qdt::create_engine("array").expect("array builds");
    e.prepare(22).expect("22 qubits fit");
    let mut h = qdt::circuit::Circuit::new(22);
    h.h(21);
    let h = h.instructions()[0].clone();
    let ((), batch_secs) = timed(|| {
        for _ in 0..PASSES {
            e.apply_instruction(&h).expect("unitary");
        }
    });
    let pass_secs = batch_secs / PASSES as f64;
    let (groups, fused_secs) = qft22;
    println!(
        "qft-22 fused / ({groups} groups x one streaming pass of {:.2} ms) = {:.1}",
        pass_secs * 1e3,
        fused_secs / (groups as f64 * pass_secs).max(1e-9)
    );

    if let Some(path) = snapshot_path {
        write_snapshot(path, &JsonValue::Object(rows));
    }
    println!("(each fused group is one strided pass over the state; uncontrolled");
    println!(" x and swap gates are relabelled, not executed; the group count and");
    println!(" width histogram are pure functions of the circuit)");
}

/// A JSON object of integer fields, in the given order.
fn int_object(fields: &[(&str, u64)]) -> JsonValue {
    JsonValue::Object(
        fields
            .iter()
            .map(|&(key, value)| (key.to_string(), JsonValue::Number(value as f64)))
            .collect(),
    )
}

/// Writes a snapshot for `qdt-bench-diff`. Snapshots hold deterministic
/// integers only — timings stay out so the file diffs cleanly across
/// machines.
fn write_snapshot(path: &str, doc: &JsonValue) {
    std::fs::write(path, format!("{doc}\n")).expect("snapshot file writes");
    println!("\nsnapshot -> {path}");
}

/// Telemetry: one traced run end-to-end — spans from the engine
/// run-loop and the verifier, a per-gate metric stream from the DD
/// backend — exported as a Chrome trace (`--trace`), a JSONL gate log
/// (`--metrics`), and an aligned text summary on stdout.
fn telemetry(trace_path: Option<&str>, metrics_path: Option<&str>, format: MetricsFormat) {
    use qdt::telemetry::{chrome_trace, gate_log_jsonl, prometheus_text, text_summary};
    use qdt::verify::check_traced;

    header("Telemetry — traced GHZ-10 on decision diagrams");
    let sink = qdt::TelemetrySink::new();
    let qc = generators::ghz(10);
    let mut e = qdt::create_engine("decision-diagram").expect("dd is registered");
    let (stats, log) = qdt::run_traced(e.as_mut(), &qc, &sink).expect("traced run");
    let verdict = check_traced(&qc, &qc, Method::DecisionDiagram, &sink).expect("check runs");
    println!(
        "ghz-10 on dd: {} gates, peak {} {} at gate {}, self-equivalence {verdict:?}",
        stats.gates_applied, stats.peak_metric, stats.metric_name, stats.peak_gate_index
    );
    let events = sink.tracer().events();
    println!(
        "trace: {} span/instant events   gate log: {} records",
        events.len(),
        log.len()
    );
    if let Some(path) = trace_path {
        std::fs::write(path, chrome_trace(&events)).expect("trace file writes");
        println!("chrome trace -> {path} (load in about:tracing / Perfetto)");
    }
    if let Some(path) = metrics_path {
        match format {
            MetricsFormat::Jsonl => {
                std::fs::write(path, gate_log_jsonl(&log)).expect("metrics file writes");
                println!("gate-metric JSONL -> {path}");
            }
            MetricsFormat::Prometheus => {
                std::fs::write(path, prometheus_text(sink.metrics())).expect("metrics file writes");
                println!("OpenMetrics exposition -> {path}");
            }
        }
    }
    println!("\nregistry totals:");
    print!("{}", text_summary(sink.metrics()));
}

/// Fig. 1: the Bell state as a state vector and as a decision diagram.
fn fig1() {
    header("Fig. 1 — Bell state: array (1a) vs decision diagram (1b)");
    let bell = generators::bell();
    let psi = StateVector::from_circuit(&bell).expect("bell simulates");
    println!("state vector (4 complex entries):");
    for (i, a) in psi.amplitudes().iter().enumerate() {
        println!("  alpha_{i:02b} = {a}");
    }
    let mut dd = DdPackage::new();
    let v = dd.run_circuit(&bell).expect("bell on DDs");
    println!("decision diagram: {} nodes", dd.vector_node_count(&v));
    println!(
        "amplitude reconstruction along the |00> path: {} (= 1/sqrt(2) * 1 * 1)",
        dd.amplitude(&v, 0)
    );
    println!("Graphviz source (render with `dot -Tsvg`):");
    print!("{}", dd.vector_to_dot(&v));
}

/// Fig. 2: the Bell circuit as a tensor network.
fn fig2() {
    header("Fig. 2 — Bell circuit as a tensor network");
    let bell = generators::bell();
    let tn = TensorNetwork::from_circuit(&bell);
    println!(
        "network: {} tensors ({} bytes) — |0> inputs, H, CX, open outputs",
        tn.num_tensors(),
        tn.memory_bytes()
    );
    for (i, t) in tn.tensors().iter().enumerate() {
        println!("  tensor {i}: rank {}, {} entries", t.rank(), t.size());
    }
    println!("contracting with outputs open (full state):");
    let state = tn.state_vector(PlanKind::Greedy).expect("bell contracts");
    for (i, a) in state.iter().enumerate() {
        println!("  alpha_{i:02b} = {a}");
    }
    println!("fixing outputs (\"bubbles at the end\") and contracting to scalars:");
    for bits in [0b00u128, 0b11] {
        let amp = tn.amplitude(bits, PlanKind::Greedy).expect("amplitude");
        println!("  <{bits:02b}|C|00> = {amp}");
    }
}

/// Fig. 3: the Bell circuit in the ZX-calculus.
fn fig3() {
    header("Fig. 3 — Bell circuit in the ZX-calculus");
    let bell = generators::bell();
    let d = Diagram::from_circuit(&bell).expect("bell to ZX");
    println!(
        "3a: circuit as diagram — {} spiders, {} wires, scalar {}",
        d.num_spiders(),
        d.num_edges(),
        d.scalar()
    );
    let mut plugged = d.clone();
    plugged.plug_basis_inputs(&[false, false]);
    let before = plugged.num_spiders();
    simplify::full_simp(&mut plugged);
    println!(
        "3b: |00> plugged, simplified: {before} spiders -> {} spiders",
        plugged.num_spiders()
    );
    let m = plugged.to_matrix();
    for i in 0..4 {
        println!("  alpha_{i:02b} = {}", m.get(i, 0));
    }
    let mut graphlike = d.clone();
    simplify::to_graph_like(&mut graphlike);
    println!(
        "3c: graph-like form — {} Z-spiders, {} Hadamard wires, graph-like: {}",
        graphlike.num_spiders(),
        graphlike.num_edges(),
        simplify::is_graph_like(&graphlike)
    );
}

/// C1: array memory/time grow exponentially (Section II's < 50-qubit
/// practical limit).
fn c1_array_scaling() {
    header("C1 — array-based simulation scales exponentially (Sec. II)");
    println!(
        "{:>6} {:>16} {:>14} {:>14} {:>14}",
        "qubits", "amplitudes", "memory", "ghz time", "qft time"
    );
    for n in [4usize, 8, 12, 16, 20, 22, 24] {
        let qc = generators::ghz(n);
        let (psi, secs) = timed(|| StateVector::from_circuit(&qc).expect("fits"));
        let qft = generators::qft(n, true);
        let qft_secs = (n <= 20).then(|| timed(|| StateVector::from_circuit(&qft).expect("fits")));
        println!(
            "{:>6} {:>16} {:>14} {:>12.4}s {:>14}",
            n,
            1u64 << n,
            format_bytes(psi.memory_bytes()),
            secs,
            qft_secs.map_or("-".into(), |(_, s)| format!("{s:.4}s"))
        );
    }
    println!("(each +2 qubits quadruples memory; 50 qubits would need 16 PiB;");
    println!(" QFT is timed up to 20 qubits, where its O(n²) gates still run in");
    println!(" well under a second)");
}

/// C2: DDs exploit redundancy — structured states stay tiny. Both
/// backends run through the engine trait; the node count is the DD
/// engine's own cost metric as reported by the run loop.
fn c2_dd_vs_array() {
    header("C2 — decision diagrams exploit redundancy (Sec. III)");
    println!(
        "{:>10} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "family", "qubits", "dd nodes", "dd time", "array amps", "array time"
    );
    for family in [Family::Ghz, Family::WState] {
        for n in [8usize, 16, 32, 64, 96, 128] {
            let qc = family.circuit(n);
            let mut dd = qdt::create_engine("decision-diagram").expect("dd is registered");
            let (stats, dd_secs) = timed(|| run(dd.as_mut(), &qc).expect("dd sim"));
            let nodes = stats.final_metric;
            let (array_str, array_secs) = if n <= 24 {
                let mut arr = qdt::create_engine("array").expect("array is registered");
                let (stats, s) = timed(|| run(arr.as_mut(), &qc).expect("fits"));
                (format!("{}", stats.final_metric), format!("{s:.4}s"))
            } else {
                ("2^".to_string() + &n.to_string(), "OOM".into())
            };
            println!(
                "{:>10} {:>6} {:>12} {:>10.4}s {:>12} {:>12}",
                family.name(),
                n,
                nodes,
                dd_secs,
                array_str,
                array_secs
            );
        }
    }
    println!("(DD node counts stay LINEAR in qubits on structured states)");
}

/// C3: tensor-network contraction — single amplitudes are cheap, the
/// plan matters.
fn c3_tn_contraction() {
    header("C3 — tensor networks: plans and bond dimension (Sec. IV)");
    println!(
        "{:>8} {:>6} {:>10} | {:>12} {:>12} | {:>12} {:>12}",
        "family", "qubits", "tensors", "naive flops", "peak", "greedy flops", "peak"
    );
    for family in [Family::Ghz, Family::Qft] {
        for n in [8usize, 12, 16, 20] {
            let qc = family.circuit(n);
            let tn = TensorNetwork::from_circuit(&qc).with_output_fixed(0);
            let naive = ContractionPlan::build(&tn, PlanKind::Naive)
                .expect("naive plan")
                .stats();
            let greedy = ContractionPlan::build(&tn, PlanKind::Greedy)
                .expect("greedy plan")
                .stats();
            println!(
                "{:>8} {:>6} {:>10} | {:>12.2e} {:>12.0} | {:>12.2e} {:>12.0}",
                family.name(),
                n,
                tn.num_tensors(),
                naive.total_flops,
                naive.peak_tensor_size,
                greedy.total_flops,
                greedy.peak_tensor_size
            );
        }
    }
    println!("\ncontraction time of <0|C|0> at 10 qubits, by plan:");
    for family in [Family::Ghz, Family::Qft] {
        let (name, tn) = (
            family.name(),
            TensorNetwork::from_circuit(&family.circuit(10)),
        );
        let tn = tn.with_output_fixed(0);
        let [naive, greedy] = [PlanKind::Naive, PlanKind::Greedy]
            .map(|kind| timed(|| tn.contract(kind).expect("contracts")).1);
        println!("  {name:>4}: naive {naive:.4}s    greedy {greedy:.4}s");
    }
    println!("\nsingle amplitude vs full state (GHZ-20, greedy plan):");
    let qc = generators::ghz(20);
    let tn = TensorNetwork::from_circuit(&qc);
    let (_, amp_secs) = timed(|| tn.amplitude(0, PlanKind::Greedy).expect("amplitude"));
    let (_, full_secs) = timed(|| tn.state_vector(PlanKind::Greedy).expect("state"));
    println!("  single amplitude: {amp_secs:.4}s    full 2^20 state: {full_secs:.4}s");
    println!("(the paper: full output state is generally infeasible; single");
    println!(" amplitudes contract to a rank-0 tensor cheaply when the plan is good)");
}

/// C4: MPS — χ buys fidelity; low-entanglement states are free.
fn c4_mps_truncation() {
    header("C4 — matrix product states: entanglement vs memory (Sec. IV)");
    println!("GHZ (1 ebit across any cut): exact at chi=2 at any width");
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "qubits", "mps entries", "trunc error", "time"
    );
    for n in [16usize, 32, 64, 96] {
        let qc = generators::ghz(n);
        let (mps, secs) = timed(|| Mps::from_circuit(&qc, 2).expect("ghz on mps"));
        println!(
            "{:>6} {:>12} {:>14.2e} {:>10.4}s",
            n,
            mps.memory_entries(),
            mps.truncation_error(),
            secs
        );
    }
    println!("\nrandom 10-qubit circuit (depth 6): error vs chi");
    let mut rng = StdRng::seed_from_u64(0xC4);
    let qc = generators::random_circuit(10, 6, &mut rng);
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "chi", "mps entries", "trunc error", "time"
    );
    for chi in [1usize, 2, 4, 8, 16, 32] {
        let (mps, secs) = timed(|| Mps::from_circuit(&qc, chi).expect("mps run"));
        println!(
            "{:>6} {:>12} {:>14.3e} {:>10.4}s",
            chi,
            mps.memory_entries(),
            mps.truncation_error(),
            secs
        );
    }
    println!("(the error collapses once chi reaches the state's entanglement)");
}

/// C5: ZX graph-like rewriting terminates and simplifies.
fn c5_zx_simplification() {
    header("C5 — ZX-calculus: terminating graph-like simplification (Sec. V)");
    println!(
        "qubits  depth  t_prob |  spiders  t-count     to-zx | clifford_simp  t-count      time | full_reduce  t-count"
    );
    let mut rng = StdRng::seed_from_u64(0xC5);
    for (n, depth, t_prob) in [
        (4usize, 8usize, 0.0),
        (6, 12, 0.0),
        (8, 16, 0.0),
        (10, 20, 0.0),
        (6, 12, 0.2),
        (8, 16, 0.3),
        (10, 20, 0.3),
    ] {
        let qc = generators::random_clifford_t(n, depth, t_prob, &mut rng);
        let (d0, zx_secs) = timed(|| Diagram::from_circuit(&qc).expect("zx translation"));
        let (s0, t0) = (d0.num_spiders(), d0.t_count());
        let (plain, simp_secs) = timed(|| {
            let mut plain = d0.clone();
            simplify::clifford_simp(&mut plain);
            plain
        });
        let mut full = d0;
        simplify::full_reduce(&mut full);
        println!(
            "{:>6} {:>6} {:>7.1} | {:>8} {:>8} {:>8.5}s | {:>13} {:>8} {:>8.5}s | {:>11} {:>8}",
            n,
            depth,
            t_prob,
            s0,
            t0,
            zx_secs,
            plain.num_spiders(),
            plain.t_count(),
            simp_secs,
            full.num_spiders(),
            full.t_count()
        );
    }
    println!("(every rule strictly removes vertices: the procedure terminates;");
    println!(" Clifford spiders vanish wholesale; full_reduce's phase-gadget");
    println!(" fusion [paper ref 39] reduces the T-count further)");
}

/// C6: all equivalence checkers agree — on positives and negatives.
fn c6_equivalence() {
    header("C6 — verification: all methods agree (Secs. I, III, V)");
    let mut rng = StdRng::seed_from_u64(0xC6);
    let qc = generators::random_clifford_t(5, 8, 0.2, &mut rng);
    let optimized = qdt::compile::optimize::optimize_with_fusion(&qc);
    let mut mutant = qc.clone();
    mutant.z(3);
    let methods = [
        Method::Array,
        Method::DecisionDiagram,
        Method::Zx,
        Method::RandomStimuli { samples: 8 },
    ];
    println!(
        "{:>22} {:>22} {:>22}",
        "method", "optimised (expect ==)", "mutant (expect !=)"
    );
    for m in methods {
        let (pos, pos_secs) = timed(|| check(&qc, &optimized, m).expect("check runs"));
        let (neg, neg_secs) = timed(|| check(&qc, &mutant, m).expect("check runs"));
        println!(
            "{:>22} {:>15?} {:.4}s {:>15?} {:.4}s",
            m.to_string(),
            pos,
            pos_secs,
            neg,
            neg_secs
        );
    }
    println!("\nDD miter scaling on GHZ self-equivalence:");
    for n in [16usize, 32, 64] {
        let g = generators::ghz(n);
        let (r, secs) = timed(|| check(&g, &g, Method::DecisionDiagram).expect("dd check"));
        println!("  ghz-{n}: {r:?} in {secs:.4}s");
    }
}

/// C10: the full ZX compilation loop — translate, simplify, extract —
/// with every output re-verified (Sec. V's "good intermediate language"
/// claim made executable).
fn c10_zx_extraction() {
    use qdt::zx::optimize_circuit;
    header("C10 — ZX optimise-and-extract pipeline (Sec. V ref [38])");
    println!(
        "{:>10} {:>8} | {:>8} {:>8} | {:>8} {:>8} | {:>10}",
        "circuit", "qubits", "gates", "2q", "gates'", "2q'", "verified"
    );
    let mut rng = StdRng::seed_from_u64(0xC10);
    let mut cases: Vec<(String, qdt::circuit::Circuit)> = vec![
        ("ghz-6".into(), generators::ghz(6)),
        ("qft-4".into(), generators::qft(4, true)),
    ];
    for i in 0..3 {
        cases.push((
            format!("cliff#{i}"),
            generators::random_clifford(5, 10, &mut rng),
        ));
    }
    for (name, qc) in cases {
        let extracted = optimize_circuit(&qc).expect("extraction succeeds");
        // Extraction emits a uniform P/H/CZ/CX stream; a peephole pass
        // tidies the residue (as PyZX does after extraction).
        let out = qdt::compile::optimize::optimize_with_fusion(&extracted);
        let verdict = check(&qc, &out, Method::DecisionDiagram).expect("check runs");
        println!(
            "{:>10} {:>8} | {:>8} {:>8} | {:>8} {:>8} | {:>10}",
            name,
            qc.num_qubits(),
            qc.gate_count(),
            qc.two_qubit_gate_count(),
            out.gate_count(),
            out.two_qubit_gate_count(),
            if verdict.is_equivalent() {
                "yes"
            } else {
                "NO!"
            }
        );
    }
    println!("(circuit -> diagram -> clifford_simp -> extracted circuit, DD-verified;");
    println!(" the round trip through the ZX intermediate language usually shrinks");
    println!(" Clifford-dominated circuits)");
}

/// A1 (ablation): the complex table's tolerance is what makes DD node
/// sharing survive floating-point round-off (DESIGN.md §6).
fn a1_tolerance_ablation() {
    header("A1 — ablation: DD complex-table tolerance (DESIGN.md §6)");
    // Grover states have amplitudes reached along many different
    // arithmetic paths — exactly where round-off breaks bitwise sharing.
    println!(
        "{:>10} {:>8} | {:>14} {:>14} {:>14}",
        "circuit", "qubits", "tol=1e-12", "tol=1e-16", "tol=1e-17"
    );
    for n in [5usize, 6, 7, 8] {
        let marked = (1u64 << n) - 2;
        let qc = generators::grover(n, marked, generators::grover_optimal_iterations(n).min(6));
        let mut row = Vec::new();
        for tol in [1e-12, 1e-16, 1e-17] {
            let mut dd = DdPackage::with_tolerance(tol);
            let v = dd.run_circuit(&qc).expect("simulates");
            row.push(dd.vector_node_count(&v));
        }
        println!(
            "{:>10} {:>8} | {:>14} {:>14} {:>14}",
            "grover", n, row[0], row[1], row[2]
        );
    }
    println!("(below round-off the table stops merging numerically equal weights:");
    println!(" sharing collapses and the diagram inflates ~10x — the quantitative");
    println!(" case for the complex table of the paper's ref [29])");
}

/// C8: noise-aware DD simulation by stochastic Kraus trajectories
/// (paper ref \[13\]) reaches widths no density matrix can, keeping one
/// pure-state DD per trajectory. The `noise` experiment checks the same
/// engines against the exact density matrix at small widths.
fn c8_noise() {
    use qdt::circuit::PauliString;
    header("C8 — noise-aware DD simulation (paper ref [13])");
    let (n, p, trajectories) = (24usize, 0.02f64, 1000usize);
    let qc = generators::ghz(n);
    let spec = format!("traj({trajectories}, seed=200, phaseflip={p}):dd");
    let mut engine = qdt::create_engine(&spec).expect("spec builds");
    let xs: PauliString = "X".repeat(n).parse().expect("Pauli string");
    let (estimate, secs) = timed(|| {
        run(engine.as_mut(), &qc).expect("trajectory run");
        engine.expectation(&xs).expect("expectation")
    });
    // A phase flip after any gate of the GHZ ladder commutes through the
    // later CX gates to a single Z on the output, which flips the sign of
    // X^⊗n. So ⟨X^⊗n⟩ = (1−2p)^k over the k (gate, touched qubit) pairs.
    let k: usize = qc.instructions().iter().map(|i| i.qubits().len()).sum();
    assert_eq!(k, 2 * n - 1, "H plus 2 qubits per CX");
    let exact = (1.0 - 2.0 * p).powi(i32::try_from(k).expect("small k"));
    // Every trajectory ends in an X^⊗n eigenstate (eigenvalue ±1), so one
    // trajectory's variance is 1 − ⟨X^⊗n⟩².
    let se = ((1.0 - exact * exact) / trajectories as f64).sqrt();
    println!("GHZ-{n}, phase flip p = {p} after every gate, `{spec}` ({secs:.2}s):");
    println!("  <X^{n}> estimate {estimate:.4}, exact (1-2p)^{k} = {exact:.4}, std. error {se:.4}");
    println!(
        "  mean fidelity with the ideal state (1+<X^{n}>)/2 = {:.3}",
        (1.0 + estimate) / 2.0
    );
    println!("  (a density matrix would need 2^48 entries = 4 PiB)");
    assert!(
        (estimate - exact).abs() <= 4.0 * se,
        "trajectory estimate {estimate} is more than 4 standard errors from {exact}"
    );
}

/// Noise subsystem: stochastic Kraus trajectories converge on the
/// exact density-matrix ground truth as the trajectory count grows —
/// both engines built through the spec grammar.
fn noise_subsystem() {
    use qdt::circuit::PauliString;
    use qdt::noise::{DensityMatrixEngine, KrausChannel, NoiseModel};
    use qdt::verify::noise::{chi_squared_stat, noisy_vs_ideal};

    header("Noise — trajectory sampling vs density-matrix ground truth");
    let depol = 0.05;
    let qc = generators::ghz(4);
    let model = NoiseModel::uniform(KrausChannel::Depolarizing { p: depol });

    let mut exact = DensityMatrixEngine::with_noise(&model).expect("valid model");
    let (probs, exact_secs) = timed(|| {
        run(&mut exact, &qc).expect("density run");
        exact.density().probabilities()
    });
    let report = noisy_vs_ideal(&qc, &model).expect("fits the density limit");
    println!(
        "GHZ-4, uniform depolarizing p = {depol}: fidelity {:.4}, purity {:.4}, \
         TVD {:.4} vs ideal (exact ρ in {exact_secs:.3}s)",
        report.state_fidelity, report.purity, report.tvd
    );
    println!(
        "\n{:>12} {:>10} {:>10} {:>10}",
        "trajectories", "tvd", "chi^2", "time"
    );
    for t in [250usize, 1000, 4000] {
        let spec = format!("traj({t}, seed=7, depol={depol}):dd");
        let mut e = qdt::create_engine(&spec).expect("spec builds");
        let (hist, secs) = timed(|| {
            run(e.as_mut(), &qc).expect("trajectory run");
            let mut rng = StdRng::seed_from_u64(7);
            e.sample(t, &mut rng).expect("sampling")
        });
        let tvd = 0.5
            * probs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let f = *hist.get(&(i as u128)).unwrap_or(&0) as f64 / t as f64;
                    (f - p).abs()
                })
                .sum::<f64>();
        let chi = chi_squared_stat(&hist, &probs);
        println!("{t:>12} {tvd:>10.4} {chi:>10.2} {secs:>9.3}s");
    }
    println!("(sampling error falls like 1/sqrt(trajectories) toward the exact");
    println!(" distribution; each trajectory stays a pure state on the DD substrate)");

    // The shape of the two noise jobs of the e2e `wide-shots` workload.
    let (n, trajectories) = (8usize, 256usize);
    let ghz8 = generators::ghz(n);
    let z0z7: PauliString = format!("Z{}Z", "I".repeat(n - 2))
        .parse()
        .expect("Pauli string");
    let mut density = qdt::create_engine("density(depol=0.01)").expect("spec builds");
    let (truth, density_secs) = timed(|| {
        run(density.as_mut(), &ghz8).expect("density run");
        density.expectation(&z0z7).expect("expectation")
    });
    let spec = format!("traj({trajectories}, seed=3, workers=1, depol=0.01):dd");
    let mut traj = qdt::create_engine(&spec).expect("spec builds");
    let (estimate, traj_secs) = timed(|| {
        run(traj.as_mut(), &ghz8).expect("trajectory run");
        traj.expectation(&z0z7).expect("expectation")
    });
    // Pauli errors leave every trajectory in a Z₀Z₇ eigenstate (±1).
    let se = ((1.0 - truth * truth) / trajectories as f64).sqrt();
    println!("\nGHZ-{n}, uniform depolarizing p = 0.01, <Z0 Z{}>:", n - 1);
    println!(
        "  {:<44} {truth:>8.4} {density_secs:>9.4}s",
        "density(depol=0.01)"
    );
    println!(
        "  {:<44} {estimate:>8.4} {traj_secs:>9.4}s (std. error {se:.4})",
        format!("`{spec}`")
    );
    assert!(
        (estimate - truth).abs() <= 4.0 * se,
        "GHZ-{n}: trajectory estimate {estimate} is more than 4 standard errors from {truth}"
    );

    println!("\nworker sweep, traj(400, seed=7, depol=0.02):dd on GHZ-6:");
    let ghz6 = generators::ghz(6);
    let mut reference = None;
    for workers in [1usize, 2, 4, 8] {
        let spec = format!("traj(400, seed=7, workers={workers}, depol=0.02):dd");
        let mut e = qdt::create_engine(&spec).expect("spec builds");
        let (hist, secs) = timed(|| {
            run(e.as_mut(), &ghz6).expect("trajectory run");
            e.sample(400, &mut StdRng::seed_from_u64(7))
                .expect("sampling")
        });
        let base = reference.get_or_insert_with(|| hist.clone());
        assert_eq!(
            &hist, base,
            "workers={workers}: trajectory histogram diverged"
        );
        println!("  workers={workers}: {secs:.4}s, histogram identical: yes");
    }
}

/// C9: approximate DD simulation (paper ref \[12\]) — bounded fidelity
/// loss buys smaller diagrams.
fn c9_approximation() {
    header("C9 — approximate DD simulation (paper ref [12])");
    // A random circuit: a dense spread of mostly-small amplitudes.
    let mut rng = StdRng::seed_from_u64(0xC9);
    let qc = generators::random_circuit(12, 3, &mut rng);
    let mut dd = DdPackage::new();
    let exact = dd.run_circuit(&qc).expect("simulates");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "budget", "nodes", "pruned", "lost mass", "fidelity", "time"
    );
    for budget in [0.0, 1e-4, 1e-3, 1e-2, 5e-2] {
        // Simulate, then approximate: the pair the budget trades against.
        let ((v, r), secs) = timed(|| {
            let mut v = dd.run_circuit(&qc).expect("simulates");
            let r = dd.approximate(&mut v, budget);
            (v, r)
        });
        let fid = dd.fidelity(&exact, &v);
        println!(
            "{:>10.0e} {:>12} {:>12} {:>14.3e} {:>12.6} {:>8.4}s",
            budget, r.nodes_after, r.pruned_edges, r.lost_mass, fid, secs
        );
    }
    println!("(fidelity ≥ 1 − budget by construction; node count falls as the");
    println!(" budget admits pruning more of the low-probability paths)");
}

/// C7: compilation onto constrained devices, every output re-verified by
/// the DD miter (asserted in-binary). The `nodes` column counts the
/// matrix nodes each miter created; `elided` the SWAPs it relabelled
/// instead of multiplying (both sides), `residual` the SWAPs appended for
/// the permutation left over.
fn c7_compilation() {
    use qdt::telemetry::MetricValue;
    use qdt::TelemetrySink;

    header("C7 — compilation: gate set + connectivity (Sec. I task 2)");
    println!(
        " circuit       device    gates       2q    swaps    depth    nodes   elided residual   compile    verify   verified"
    );
    let mut rows: Vec<(Family, usize, &str, CouplingMap)> = Vec::new();
    for fam in [Family::Ghz, Family::Qft] {
        rows.push((fam, 6, "line", CouplingMap::linear(6)));
        rows.push((fam, 6, "ring", CouplingMap::ring(6)));
        rows.push((fam, 6, "grid2x3", CouplingMap::grid(2, 3)));
        rows.push((fam, 6, "hhex2x3", CouplingMap::heavy_hex(2, 3)));
    }
    // Multiplying the router's SWAPs in created 29,704 and 137,841 nodes.
    rows.push((Family::Qft, 8, "line", CouplingMap::linear(8)));
    rows.push((Family::Qft, 10, "line", CouplingMap::linear(10)));
    // The miter that pairing gates by index blew up to 445k created nodes.
    rows.push((Family::Qft, 16, "full16", CouplingMap::full(16)));
    for (fam, n, name, map) in &rows {
        let qc = fam.circuit(*n);
        let (routed, compile_secs) = timed(|| {
            qdt::compile::compile(&qc, &GateSet::ibm_basis(), map).expect("compilation succeeds")
        });
        let sink = TelemetrySink::new();
        let (verdict, secs) = timed(|| {
            verify_compilation_traced(&qc, &routed, map, Method::DecisionDiagram, &sink)
                .expect("verification runs")
        });
        let gauge = |name: &str| match sink.metrics().get(name) {
            Some(MetricValue::Gauge(v)) => v,
            other => panic!("the DD check records {name}, got {other:?}"),
        };
        println!(
            "{:>8} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8.3}s {:>8.3}s {:>10}",
            format!("{}-{n}", fam.name()),
            name,
            routed.circuit.gate_count(),
            routed.circuit.two_qubit_gate_count(),
            routed.swap_count,
            routed.circuit.depth(),
            gauge("verify.dd.nodes"),
            gauge("verify.swaps.elided"),
            gauge("verify.swaps.residual"),
            compile_secs,
            secs,
            if verdict.is_equivalent() {
                "yes"
            } else {
                "NO!"
            }
        );
        assert!(
            verdict.is_equivalent(),
            "{}-{n} on {name} failed verification: {verdict:?}",
            fam.name()
        );
    }
    println!("(sparser connectivity -> more SWAPs; every output is re-verified, the");
    println!(" miter pairing each source gate with the compiled gates it lowers to and");
    println!(" relabelling wires for SWAPs instead of multiplying them in)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_names_are_reported() {
        let filter = ["c1", "--c1", "noise", "parallel_scaling", "nosie"].map(String::from);
        assert_eq!(unknown_names(&filter), ["--c1", "nosie"]);
        assert!(unknown_names(&[]).is_empty());
    }
}
