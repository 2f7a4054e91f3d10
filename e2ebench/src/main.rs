//! QASM-to-answer benchmark of the `qdt` design tools.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dense-amps|wide-shots|compile-verify \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One client in one process sends the workload's jobs in a closed loop:
//! each job starts when the previous answer is back. A run generates the
//! job list from the seed, runs every distinct job once as an untimed
//! warm-up (five times, reporting the median as `setup_s`), then times
//! whole passes over the list in a seeded order until `--seconds` is
//! spent. Answers are checked outside the clock. `jobs_per_s` and
//! `cpu_ms_per_job` come from the median pass (every pass runs the same
//! jobs), the percentiles from the latencies of all passes.
//!
//! The host is shared with other machines' work, which slows this
//! process by up to 1.8× for seconds to minutes at a time. So a fixed
//! slice of CPU work, [`host::speed_probe`], runs between each two jobs,
//! outside the clock, and each job's time is scaled by the reference
//! probe time over the mean of the probes before and after it: every
//! end-to-end time is reported at the host speed where the probe takes
//! [`REFERENCE_PROBE_S`]. The raw times are printed on the `#` lines
//! beside them.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run spends half its time untraced and half with
//! spans recorded around every layer call, and the last line carries the
//! per-layer metrics computed from those spans. The trace itself is
//! written to `e2ebench/out/`.

mod host;
mod jobs;
mod oracle;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use qdt::telemetry::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use host::HostInfo;
use jobs::{Job, Outcome, Route, Workload};

/// Warm-up passes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The quantile reported as `job_p90_ms`.
const TAIL_QUANTILE: f64 = 0.9;

/// Jobs an untraced phase measures at least, so that the p90 has ten
/// jobs beyond it whatever the pass length.
const MIN_JOBS: usize = 100;

/// The time [`host::speed_probe`] takes on the host the bounds in
/// `BENCHMARK.json` were set on (2-vCPU Xeon at 2.0 GHz, typical load).
/// End-to-end times are scaled to this probe time.
const REFERENCE_PROBE_S: f64 = 70e-6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload dense-amps|wide-shots|compile-verify \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let host = HostInfo::detect();
    println!("host {}", host.to_json());

    let t0 = Instant::now();
    let jobs = jobs::generate(args.workload, args.seed);
    println!(
        "# {}: {} jobs per pass, generated with references in {:.3} s",
        args.workload.name(),
        jobs.len(),
        t0.elapsed().as_secs_f64()
    );

    let setup = warm_up(&jobs);
    println!("# warm-up passes (raw s, scaled s): {setup:.4?}");
    let mut order_rng = StdRng::seed_from_u64(args.seed ^ 0x0DE7_0DE7);
    let report = if args.trace {
        let budget = args.seconds / 2.0;
        let plain = measure(&jobs, budget, 1, &Tracer::disabled(), &mut order_rng);
        let tracer = Tracer::new();
        let traced = measure(&jobs, budget, 1, &tracer, &mut order_rng);
        let events = tracer.events();
        write_trace(&args, &events);
        summarize(&plain, &jobs, "untraced");
        summarize(&traced, &jobs, "traced");
        let mut metrics = per_layer(&traced, &events, &host);
        metrics.push((
            "trace.overhead".into(),
            traced.jobs_per_s() / plain.jobs_per_s(),
            "ratio",
        ));
        Report {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed() + traced.failed(),
            metrics,
        }
    } else {
        let min_passes = MIN_JOBS.div_ceil(jobs.len());
        let phase = measure(
            &jobs,
            args.seconds,
            min_passes,
            &Tracer::disabled(),
            &mut order_rng,
        );
        summarize(&phase, &jobs, "untraced");
        Report {
            attempted: phase.attempted,
            failed: phase.failed(),
            metrics: end_to_end(&phase, &setup),
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("# {name:<48} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
}

/// `time`, measured between speed probes that took `before` and `after`
/// seconds, at the reference host speed.
fn at_reference_speed(time: f64, before: f64, after: f64) -> f64 {
    time * 2.0 * REFERENCE_PROBE_S / (before + after)
}

/// Times jobs, with a speed probe between each two of them.
#[derive(Default)]
struct Clock {
    /// Time spent inside jobs, in seconds.
    busy: f64,
    /// The same at the reference speed.
    scaled_busy: f64,
    /// Process CPU time spent inside jobs (all threads) at the reference
    /// speed, in seconds.
    scaled_cpu: f64,
    /// The latest probe's time, which is the probe before the next job.
    last_probe: Option<f64>,
}

impl Clock {
    /// Times `f` between two speed probes, both outside the timed span.
    /// Returns `f`'s result, its latency in seconds and that latency at the
    /// reference speed.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last_probe.unwrap_or_else(host::speed_probe);
        let cpu = host::cpu_seconds();
        let start = Instant::now();
        let out = f();
        let latency = start.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu;
        let after = host::speed_probe();
        self.last_probe = Some(after);
        let scaled = at_reference_speed(latency, before, after);
        self.busy += latency;
        self.scaled_busy += scaled;
        self.scaled_cpu += at_reference_speed(cpu, before, after);
        (out, latency, scaled)
    }
}

/// Runs every distinct job once, [`SETUP_REPEATS`] times, and returns
/// the time spent inside jobs in each repetition, raw and scaled to the
/// reference speed.
///
/// The first repetition sends static jobs through `create_engine("auto")`
/// instead of the explicit calls and asserts that `auto` resolves to the
/// spec the explicit `dispatch_circuit` path runs: the explicit path must
/// stay faithful to what `auto` users get.
fn warm_up(jobs: &[Job]) -> Vec<(f64, f64)> {
    let tracer = Tracer::disabled();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for repeat in 0..SETUP_REPEATS {
        let mut clock = Clock::default();
        for job in jobs {
            let via_auto;
            let job = match (&job.route, repeat) {
                (Route::Auto, 0) => {
                    via_auto = Job {
                        route: Route::Spec("auto".into()),
                        ..job.clone()
                    };
                    &via_auto
                }
                _ => job,
            };
            let (outcome, _, _) = clock.time(|| jobs::execute(job, &tracer));
            if let (Some(dispatch), 0) = (&job.dispatch, repeat) {
                let want = format!("auto->{}", dispatch.spec);
                let described = outcome.as_ref().ok().and_then(|o| o.described.as_deref());
                assert_eq!(
                    described,
                    Some(want.as_str()),
                    "{}: `auto` and the explicit dispatch path disagree",
                    job.class
                );
            }
        }
        times.push((clock.busy, clock.scaled_busy));
    }
    times
}

/// One pass over the job list. Every pass runs the same jobs, so passes
/// are repeated samples of one quantity.
struct Pass {
    clock: Clock,
    samples: Vec<Sample>,
}

/// One job's latency in a pass, in seconds (infinite for a failed job).
struct Sample {
    job: usize,
    raw: f64,
    /// At the reference speed.
    scaled: f64,
}

/// One measured phase: whole passes over the job list.
#[derive(Default)]
struct Phase {
    passes: Vec<Pass>,
    /// Counts taken at the layer boundaries, over correct jobs.
    tally: Tally,
    attempted: usize,
    correct: usize,
    /// Failure messages.
    failures: Vec<String>,
}

impl Phase {
    fn failed(&self) -> usize {
        self.attempted - self.correct
    }

    /// Correct jobs per second of time spent inside jobs, over the median
    /// pass, at the reference speed.
    fn jobs_per_s(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let correct_per_pass = self.correct as f64 / self.passes.len() as f64;
        let busy: Vec<f64> = self.passes.iter().map(|p| p.clock.scaled_busy).collect();
        correct_per_pass / stats::median(&busy)
    }
}

/// Counts taken at the layer boundaries, summed over a phase's correct
/// jobs. Kept as sums so memory use does not grow with the job count.
#[derive(Default)]
struct Tally {
    /// Gates applied by `engine::run`, by engine family.
    gates: BTreeMap<&'static str, f64>,
    /// Dispatch decisions, by spec family.
    choices: BTreeMap<&'static str, f64>,
    sweeps: f64,
    sweep_bytes: f64,
    qasm_bytes: f64,
    shots: f64,
    collapses: f64,
    /// Largest engine memory seen after a query, in bytes.
    mem: usize,
    compile_jobs: f64,
    swaps: f64,
    compiled_gates: f64,
    compile_source_gates: f64,
    zx_gates: f64,
    zx_source_gates: f64,
}

impl Tally {
    #[allow(clippy::cast_precision_loss)]
    fn add(&mut self, job: &Job, o: &Outcome) {
        self.qasm_bytes += job.qasm.len() as f64;
        if let Some(spec) = &o.spec {
            *self.gates.entry(jobs::engine_kind(spec)).or_default() += o.gates as f64;
        }
        if let Some(d) = &job.dispatch {
            *self.choices.entry(choice_family(&d.spec)).or_default() += 1.0;
            self.sweeps += d.sweeps as f64;
            self.sweep_bytes += d.sweep_bytes;
        }
        self.shots += o.shots as f64;
        self.collapses += o.collapses as f64;
        self.mem = self.mem.max(o.mem_bytes);
        if let Route::Compile(request) = &job.route {
            self.compile_jobs += 1.0;
            self.swaps += o.swaps as f64;
            self.compiled_gates += o.compiled_gates as f64;
            self.compile_source_gates += o.source_gates as f64;
            if request.clifford {
                self.zx_gates += o.zx_gates as f64;
                self.zx_source_gates += o.source_gates as f64;
            }
        }
    }
}

/// Runs whole passes in a seeded order until another pass would exceed
/// `seconds`, but at least `min_passes`.
fn measure(
    jobs: &[Job],
    seconds: f64,
    min_passes: usize,
    tracer: &Tracer,
    rng: &mut StdRng,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    loop {
        let pass_start = Instant::now();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut pass = Pass {
            clock: Clock::default(),
            samples: Vec::with_capacity(jobs.len()),
        };
        for &i in &order {
            let job = &jobs[i];
            let (result, raw, scaled) = pass.clock.time(|| jobs::execute(job, tracer));
            phase.attempted += 1;
            match result.and_then(|o| jobs::check_answer(job, &o).map(|()| o)) {
                Ok(outcome) => {
                    phase.correct += 1;
                    pass.samples.push(Sample { job: i, raw, scaled });
                    phase.tally.add(job, &outcome);
                }
                Err(e) => {
                    // A failed job misses every latency limit.
                    pass.samples.push(Sample {
                        job: i,
                        raw: f64::INFINITY,
                        scaled: f64::INFINITY,
                    });
                    phase.failures.push(format!("{}: {e}", job.class));
                }
            }
        }
        phase.passes.push(pass);
        let next_end = start.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64();
        if phase.passes.len() >= min_passes && next_end > seconds {
            break;
        }
    }
    phase
}

fn summarize(phase: &Phase, jobs: &[Job], label: &str) {
    let busy: Vec<f64> = phase.passes.iter().map(|p| p.clock.busy).collect();
    let scaled: Vec<f64> = phase.passes.iter().map(|p| p.clock.scaled_busy).collect();
    println!(
        "# {label}: {} passes, {} jobs, {} failed; time in jobs per pass: raw median {:.4} s \
         (range {:.4}..{:.4}), at reference speed median {:.4} s (range {:.4}..{:.4})",
        phase.passes.len(),
        phase.attempted,
        phase.failed(),
        stats::median(&busy),
        min(&busy),
        max(&busy),
        stats::median(&scaled),
        min(&scaled),
        max(&scaled),
    );
    let mut by_class: BTreeMap<&str, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for s in phase.passes.iter().flat_map(|p| &p.samples) {
        if s.raw.is_finite() {
            let class = by_class.entry(jobs[s.job].class).or_default();
            class.entry(s.job).or_default().push(s.raw);
        }
    }
    for (class, by_job) in &by_class {
        let all: Vec<f64> = by_job.values().flatten().copied().collect();
        // The spread of per-job medians shows whether a class is one cost
        // or several, i.e. whether a percentile inside it is stable.
        let per_job: Vec<f64> = by_job.values().map(|l| stats::median(l)).collect();
        println!(
            "#   {class:<24} n={:<6} raw median {:>12.4} ms, per-job medians {:.4}..{:.4} ms",
            all.len(),
            stats::median(&all) * 1e3,
            min(&per_job) * 1e3,
            max(&per_job) * 1e3,
        );
    }
    for f in phase.failures.iter().take(5) {
        println!("#   FAILED {f}");
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

type Metric = (String, f64, &'static str);

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            // JSON has no infinity: a latency of failed jobs is reported
            // as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(m, "\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// The end-to-end metrics of an untraced phase; `setup` holds the warm-up
/// times, raw and scaled.
fn end_to_end(phase: &Phase, setup: &[(f64, f64)]) -> Vec<Metric> {
    #[allow(clippy::cast_precision_loss)]
    let attempted = phase.attempted as f64;
    #[allow(clippy::cast_precision_loss)]
    let correct = phase.correct as f64;
    println!("# fail_ratio {:.6}", 1.0 - correct / attempted);
    let samples = || phase.passes.iter().flat_map(|p| &p.samples);
    let raw: Vec<f64> = samples().map(|s| s.raw).collect();
    let scaled: Vec<f64> = samples().map(|s| s.scaled).collect();
    let (p90, q) = stats::tail_quantile(&scaled, TAIL_QUANTILE);
    println!(
        "# {} jobs; tail quantile reported as job_p90_ms: {q:.4}; raw p50 {:.4} ms, raw p90 {:.4} ms",
        scaled.len(),
        stats::median(&raw) * 1e3,
        stats::tail_quantile(&raw, TAIL_QUANTILE).0 * 1e3,
    );
    #[allow(clippy::cast_precision_loss)]
    let cpu_per_job: Vec<f64> = phase
        .passes
        .iter()
        .map(|p| p.clock.scaled_cpu / p.samples.len() as f64)
        .collect();
    let setup_scaled: Vec<f64> = setup.iter().map(|&(_, s)| s).collect();
    vec![
        ("jobs_per_s".into(), phase.jobs_per_s(), "1/s"),
        ("job_p50_ms".into(), stats::median(&scaled) * 1e3, "ms"),
        ("job_p90_ms".into(), p90 * 1e3, "ms"),
        (
            "cpu_ms_per_job".into(),
            stats::median(&cpu_per_job) * 1e3,
            "ms",
        ),
        ("peak_rss_mib".into(), host::peak_rss_mib(), "MiB"),
        ("setup_s".into(), stats::median(&setup_scaled), "s"),
        ("success_ratio".into(), correct / attempted, "ratio"),
    ]
}

/// Engine families with their own `engine.run.<kind>` metrics.
const ENGINE_KINDS: [&str; 6] = [
    "array",
    "stabilizer",
    "decision-diagram",
    "mps",
    "traj",
    "density",
];

/// Dispatch choices counted per pass, by spec family.
const CHOICES: [&str; 6] = [
    "array",
    "array-fused",
    "stabilizer",
    "decision-diagram",
    "mps",
    "tensor-network",
];

fn choice_family(spec: &str) -> &'static str {
    match jobs::engine_kind(spec) {
        "array" if jobs::fuse_width(spec) > 0 => "array-fused",
        "array" => "array",
        "stabilizer" => "stabilizer",
        "decision-diagram" => "decision-diagram",
        "mps" => "mps",
        "tensor-network" => "tensor-network",
        _ => "other",
    }
}

/// The per-layer metrics of a traced phase.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn per_layer(phase: &Phase, events: &[qdt::telemetry::TraceEvent], host: &HostInfo) -> Vec<Metric> {
    let self_s = stats::self_times(events);
    let total: f64 = self_s.values().sum();
    let n_jobs = phase.attempted as f64;
    let passes = phase.passes.len() as f64;
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let ms_per_job = |name: &str| layer(name) / n_jobs * 1e3;
    let share = |name: &str| layer(name) / total;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let t = &phase.tally;
    let mut m: Vec<Metric> = vec![
        (
            "circuit.parse.ms_per_job".into(),
            ms_per_job("circuit.parse"),
            "ms",
        ),
        (
            "circuit.parse.share".into(),
            share("circuit.parse"),
            "ratio",
        ),
        (
            "circuit.parse.mib_per_s".into(),
            ratio(t.qasm_bytes / 1_048_576.0, layer("circuit.parse")),
            "MiB/s",
        ),
        (
            "analysis.dispatch.ms_per_job".into(),
            ms_per_job("analysis.dispatch"),
            "ms",
        ),
        (
            "analysis.dispatch.share".into(),
            share("analysis.dispatch"),
            "ratio",
        ),
        (
            "core.create.ms_per_job".into(),
            ms_per_job("core.create"),
            "ms",
        ),
    ];
    for family in CHOICES {
        m.push((
            format!("analysis.dispatch.choice.{family}"),
            t.choices.get(family).copied().unwrap_or(0.0) / passes,
            "count",
        ));
    }
    for kind in ENGINE_KINDS {
        let span = format!("engine.run.{kind}");
        m.push((format!("{span}.ms_per_job"), ms_per_job(&span), "ms"));
        m.push((format!("{span}.share"), share(&span), "ratio"));
        m.push((
            format!("{span}.gates_per_s"),
            ratio(t.gates.get(kind).copied().unwrap_or(0.0), layer(&span)),
            "1/s",
        ));
        if kind == "array" {
            m.push((format!("{span}.sweeps"), t.sweeps / passes, "count"));
            m.push((
                format!("{span}.gib_per_s_computed"),
                ratio(t.sweep_bytes / 1_073_741_824.0, layer(&span)),
                "GiB/s",
            ));
        }
    }
    m.extend([
        (
            "engine.readout.ms_per_job".into(),
            ms_per_job("engine.readout"),
            "ms",
        ),
        (
            "engine.readout.share".into(),
            share("engine.readout"),
            "ratio",
        ),
        (
            "engine.shots.ms_per_job".into(),
            ms_per_job("engine.shots"),
            "ms",
        ),
        ("engine.shots.share".into(), share("engine.shots"), "ratio"),
        (
            "engine.shots.shots_per_s".into(),
            ratio(t.shots, layer("engine.shots")),
            "1/s",
        ),
        (
            "engine.shots.collapses".into(),
            t.collapses / passes,
            "count",
        ),
        ("engine.mem_mib".into(), t.mem as f64 / 1_048_576.0, "MiB"),
        ("compile.ms_per_job".into(), ms_per_job("compile"), "ms"),
        ("compile.share".into(), share("compile"), "ratio"),
        (
            "compile.swaps".into(),
            ratio(t.swaps, t.compile_jobs),
            "count",
        ),
        (
            "compile.gate_ratio".into(),
            ratio(t.compiled_gates, t.compile_source_gates),
            "ratio",
        ),
        ("verify.dd.ms_per_job".into(), ms_per_job("verify.dd"), "ms"),
        ("verify.zx.ms_per_job".into(), ms_per_job("verify.zx"), "ms"),
        (
            "verify.share".into(),
            share("verify.dd") + share("verify.zx"),
            "ratio",
        ),
        (
            "zx.optimize.ms_per_job".into(),
            ms_per_job("zx.optimize"),
            "ms",
        ),
        (
            "zx.optimize.gate_ratio".into(),
            ratio(t.zx_gates, t.zx_source_gates),
            "ratio",
        ),
        ("job.unattributed.share".into(), share("job"), "ratio"),
        ("host.nproc".into(), host.nproc as f64, "count"),
        ("host.l2_kib".into(), host.l2_kib as f64, "KiB"),
        ("host.l3_kib".into(), host.l3_kib as f64, "KiB"),
        (
            "host.simd_active".into(),
            if host.simd_active { 1.0 } else { 0.0 },
            "flag",
        ),
        (
            "config.kernel_threads".into(),
            host.kernel_threads() as f64,
            "count",
        ),
        (
            "config.shot_workers".into(),
            host::SHOT_WORKERS as f64,
            "count",
        ),
    ]);
    m
}

/// Writes the traced phase's spans as a Chrome trace under
/// `e2ebench/out/`.
fn write_trace(args: &Args, events: &[qdt::telemetry::TraceEvent]) {
    let dir = std::path::Path::new("e2ebench/out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, qdt::telemetry::chrome_trace(events)));
    match written {
        Ok(()) => println!("# trace: {} events -> {}", events.len(), path.display()),
        Err(e) => println!("# trace not written ({}): {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_takes_a_slow_stretch_to_the_reference_speed() {
        let r = REFERENCE_PROBE_S;
        // At the reference speed a time is left as it is.
        assert!((at_reference_speed(1.0, r, r) - 1.0).abs() < 1e-12);
        // On a host half as fast the job and the probes around it all take
        // twice as long.
        assert!((at_reference_speed(2.0, 2.0 * r, 2.0 * r) - 1.0).abs() < 1e-12);
        // The probes before and after count equally.
        assert!((at_reference_speed(1.5, r, 2.0 * r) - 1.0).abs() < 1e-12);
    }
}
