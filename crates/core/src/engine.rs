//! Engine construction from textual specs, and the spec grammar.
//!
//! [`create_from_spec`] maps a parsed spec to a boxed
//! [`SimulationEngine`] with one `match` over the engine names, so
//! backends are selectable from configuration and CLIs without code
//! edits.
//!
//! The spec grammar ([`parse_spec`]) is compositional:
//!
//! ```text
//! spec  ::= name                      array, dd, density
//!         | name ":" N                mps:16            (positional arg)
//!         | name "(" args ")"         mps(χ=16), density(depol=0.01)
//!         | name [ "(" args ")" ] ":" spec
//!                                     traj(1000,seed=7,depol=0.01):dd
//! args  ::= arg { "," arg }
//! arg   ::= value | key "=" value
//! ```
//!
//! A numeric `:` tail is a positional argument (`mps:16`); a
//! non-numeric tail is a nested *inner* spec, which is how the
//! trajectory engine names its substrate (`traj:dd`, `traj(500):mps(8)`).

use std::fmt;
use std::sync::Arc;

use qdt_array::ArrayEngine;
use qdt_dd::DdEngine;
use qdt_noise::{
    channel_from_key, DensityMatrixEngine, GateSelector, NoiseModel, TrajectoryConfig,
    TrajectoryEngine,
};
use qdt_parallel::{KernelContext, MAX_THREADS};
use qdt_stabilizer::StabilizerEngine;
use qdt_tensor::{MpsEngine, TensorNetEngine};

use crate::auto::AutoEngine;

pub use qdt_engine::{
    check_pauli_width, dense_expectation, run, run_traced, sample_from_amplitudes, CostMetric,
    EngineCaps, EngineError, EngineFactory, GateLog, GateRecord, RunStats, ShotConfig,
    ShotExecutor, ShotResult, ShotStats, SimulationEngine, TelemetrySink,
};

use crate::QdtError;

/// Bond-dimension cap used when an MPS spec names no χ (generous enough
/// to be exact on every workload this suite's tests run densely).
pub const DEFAULT_MPS_BOND: usize = 64;

/// One argument of an engine spec: a bare `value` (positional) or a
/// `key=value` pair. Keys are lowercased during parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecArg {
    /// The key, if the argument was written `key=value`.
    pub key: Option<String>,
    /// The raw value text.
    pub value: String,
}

impl fmt::Display for SpecArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.key {
            Some(k) => write!(f, "{k}={}", self.value),
            None => write!(f, "{}", self.value),
        }
    }
}

/// A parsed engine spec: a lowercased name, its arguments, and an
/// optional nested substrate spec (see the grammar in the module docs).
///
/// # Example
///
/// ```
/// use qdt::engine::parse_spec;
///
/// let spec = parse_spec("traj(1000, seed=7, depol=0.01):mps(χ=8)")?;
/// assert_eq!(spec.name, "traj");
/// assert_eq!(spec.args.len(), 3);
/// assert_eq!(spec.inner.as_ref().unwrap().name, "mps");
/// let canonical = spec.to_string();
/// assert_eq!(parse_spec(&canonical)?, spec); // Display round-trips
/// # Ok::<(), qdt::QdtError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSpec {
    /// The engine name (lowercased).
    pub name: String,
    /// Arguments, in written order.
    pub args: Vec<SpecArg>,
    /// The nested substrate spec, for composite engines like `traj`.
    pub inner: Option<Box<EngineSpec>>,
}

impl EngineSpec {
    /// A bare spec with no arguments and no inner engine.
    pub fn named(name: &str) -> Self {
        EngineSpec {
            name: name.to_lowercase(),
            args: Vec::new(),
            inner: None,
        }
    }

    /// The first positional (key-less) argument, if any.
    ///
    /// # Errors
    ///
    /// Fails if more than one positional argument is present.
    pub fn positional(&self) -> Result<Option<&str>, QdtError> {
        let mut positionals = self.args.iter().filter(|a| a.key.is_none());
        let first = positionals.next();
        if positionals.next().is_some() {
            return Err(QdtError::new(format!(
                "`{self}`: at most one positional argument is allowed"
            )));
        }
        Ok(first.map(|a| a.value.as_str()))
    }

    /// The value of the first argument whose key is in `keys`.
    pub fn value_of(&self, keys: &[&str]) -> Option<&str> {
        self.args
            .iter()
            .find(|a| a.key.as_deref().is_some_and(|k| keys.contains(&k)))
            .map(|a| a.value.as_str())
    }

    /// Parses the value under `keys` as a `usize`.
    ///
    /// # Errors
    ///
    /// Fails when the value is present but not a non-negative integer.
    pub fn usize_of(&self, keys: &[&str]) -> Result<Option<usize>, QdtError> {
        self.value_of(keys)
            .map(|v| {
                v.parse::<usize>().map_err(|_| {
                    QdtError::new(format!(
                        "`{self}`: `{}` expects an integer, got `{v}`",
                        keys[0]
                    ))
                })
            })
            .transpose()
    }

    /// Rejects any argument — for engines that take none.
    ///
    /// # Errors
    ///
    /// Fails if the spec carries arguments.
    pub fn expect_no_args(&self, engine: &str) -> Result<(), QdtError> {
        if self.args.is_empty() {
            Ok(())
        } else {
            Err(QdtError::new(format!(
                "the {engine} engine takes no parameter (got `{self}`)"
            )))
        }
    }

    /// Rejects a nested inner spec — for non-composite engines.
    ///
    /// # Errors
    ///
    /// Fails if the spec carries an inner engine.
    pub fn expect_no_inner(&self, engine: &str) -> Result<(), QdtError> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => Err(QdtError::new(format!(
                "the {engine} engine takes no inner engine (got `{self}`; `:{inner}` is only \
                 valid after composite engines like traj)"
            ))),
        }
    }
}

impl fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, arg) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{arg}")?;
            }
            write!(f, ")")?;
        }
        if let Some(inner) = &self.inner {
            write!(f, ":{inner}")?;
        }
        Ok(())
    }
}

/// Parses an engine spec (grammar in the module docs). Names and keys
/// are case-insensitive; whitespace around tokens is ignored.
///
/// # Errors
///
/// Fails on empty specs, numeric engine names, unbalanced parentheses,
/// malformed `key=value` arguments, a key given twice, a dangling `:`
/// with nothing after it, and trailing garbage after a closing
/// parenthesis.
pub fn parse_spec(spec: &str) -> Result<EngineSpec, QdtError> {
    let spec_str = spec.trim();
    if spec_str.is_empty() {
        return Err(QdtError::new("empty engine spec"));
    }
    let name_end = spec_str.find(['(', ':']).unwrap_or(spec_str.len());
    let name = spec_str[..name_end].trim();
    if name.is_empty() {
        return Err(QdtError::new(format!(
            "engine spec `{spec_str}` is missing an engine name"
        )));
    }
    // A number after `:` is a positional argument, never an engine.
    if name.chars().all(|c| c.is_ascii_digit()) {
        return Err(QdtError::new(format!(
            "engine spec `{spec_str}`: `{name}` is a number, not an engine name"
        )));
    }
    let name = name.to_lowercase();
    let rest = &spec_str[name_end..];
    if rest.is_empty() {
        return Ok(EngineSpec {
            name,
            args: Vec::new(),
            inner: None,
        });
    }
    if let Some(after_open) = rest.strip_prefix('(') {
        let close = after_open
            .find(')')
            .ok_or_else(|| QdtError::new(format!("unbalanced parentheses in `{spec_str}`")))?;
        let args_str = &after_open[..close];
        if args_str.contains('(') {
            return Err(QdtError::new(format!(
                "unbalanced parentheses in `{spec_str}`"
            )));
        }
        let args = parse_args(args_str, spec_str)?;
        let tail = &after_open[close + 1..];
        if tail.is_empty() {
            return Ok(EngineSpec {
                name,
                args,
                inner: None,
            });
        }
        let Some(inner_str) = tail.strip_prefix(':') else {
            return Err(QdtError::new(format!(
                "unexpected trailing `{tail}` in `{spec_str}` (expected `:inner-engine`)"
            )));
        };
        if inner_str.trim().is_empty() {
            return Err(QdtError::new(format!(
                "`{spec_str}`: missing inner engine after `:`"
            )));
        }
        let inner = parse_spec(inner_str)?;
        return Ok(EngineSpec {
            name,
            args,
            inner: Some(Box::new(inner)),
        });
    }
    // `name:tail` — a numeric tail is a positional argument (mps:16), a
    // non-numeric tail is a nested inner spec (traj:dd).
    let tail = rest.strip_prefix(':').expect("rest starts with ':'").trim();
    if tail.is_empty() {
        return Err(QdtError::new(format!(
            "`{spec_str}`: missing parameter after `:` (use `{name}:N`, `{name}(…)`, or \
             `{name}:inner-engine`)"
        )));
    }
    if tail.chars().all(|c| c.is_ascii_digit()) {
        return Ok(EngineSpec {
            name,
            args: vec![SpecArg {
                key: None,
                value: tail.to_string(),
            }],
            inner: None,
        });
    }
    let inner = parse_spec(tail)?;
    Ok(EngineSpec {
        name,
        args: Vec::new(),
        inner: Some(Box::new(inner)),
    })
}

fn parse_args(args_str: &str, full: &str) -> Result<Vec<SpecArg>, QdtError> {
    let args_str = args_str.trim();
    if args_str.is_empty() {
        return Ok(Vec::new());
    }
    let args = args_str
        .split(',')
        .map(|token| {
            let token = token.trim();
            if token.is_empty() {
                return Err(QdtError::new(format!("empty argument in `{full}`")));
            }
            if let Some((key, value)) = token.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                if key.is_empty() || value.is_empty() {
                    return Err(QdtError::new(format!(
                        "malformed `key=value` argument `{token}` in `{full}`"
                    )));
                }
                Ok(SpecArg {
                    key: Some(key.to_lowercase()),
                    value: value.to_string(),
                })
            } else {
                Ok(SpecArg {
                    key: None,
                    value: token.to_string(),
                })
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, arg) in args.iter().enumerate() {
        if let Some(key) = arg.key.as_deref() {
            if args[..i].iter().any(|a| a.key.as_deref() == Some(key)) {
                return Err(QdtError::new(format!("repeated key `{key}` in `{full}`")));
            }
        }
    }
    Ok(args)
}

/// The canonical name of every engine [`create_from_spec`] builds, in
/// the order its unknown-name error lists them.
const ENGINE_NAMES: [&str; 8] = [
    "array",
    "decision-diagram",
    "stabilizer",
    "tensor-network",
    "mps",
    "density",
    "traj",
    "auto",
];

/// Constructs the engine an already-parsed spec names (aliases in
/// parentheses, then the arguments it takes):
///
/// * `array` (`arrays`, `statevector`, `sv`): `threads=`, `threshold=`, `fuse=`;
/// * `decision-diagram` (`dd`, `qmdd`), `tensor-network` (`tn`, `tensor`): none;
/// * `stabilizer` (`tableau`, `chp`): `threads=`, `threshold=`;
/// * `mps`: the bond cap χ, positional or as `χ=`, `chi=` or `max_bond=`;
/// * `density` (`density-matrix`, `dm`): noise channels, `threads=`, `threshold=`;
/// * `traj` (`trajectories`, `stochastic`): the count, `seed=`, `workers=`,
///   noise channels, and `:substrate` (decision diagram by default);
/// * `auto` (`dispatch`): none.
///
/// # Errors
///
/// Fails on unknown engine names (the error lists the canonical ones)
/// and on engine-specific argument errors.
///
/// # Example
///
/// ```
/// use qdt::engine::{create_from_spec, parse_spec, run};
/// use qdt::circuit::generators;
///
/// let mut engine = create_from_spec(&parse_spec("mps:8")?)?;
/// run(engine.as_mut(), &generators::ghz(12))?;
/// assert!((engine.amplitude(0)?.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
/// # Ok::<(), qdt::QdtError>(())
/// ```
pub fn create_from_spec(spec: &EngineSpec) -> Result<Box<dyn SimulationEngine>, QdtError> {
    match spec.name.as_str() {
        "array" | "arrays" | "statevector" | "sv" => {
            spec.expect_no_inner("array")?;
            let ctx = kernel_context_from_spec(spec, &[KEY_FUSE])?;
            let fuse = fuse_width_from_spec(spec)?;
            Ok(Box::new(ArrayEngine::with_context(ctx).with_fusion(fuse)))
        }
        "decision-diagram" | "dd" | "qmdd" => {
            spec.expect_no_args("decision-diagram")?;
            spec.expect_no_inner("decision-diagram")?;
            Ok(Box::new(DdEngine::new()))
        }
        "stabilizer" | "tableau" | "chp" => {
            spec.expect_no_inner("stabilizer")?;
            let ctx = kernel_context_from_spec(spec, &[])?;
            Ok(Box::new(StabilizerEngine::with_context(ctx)))
        }
        "tensor-network" | "tn" | "tensor" => {
            spec.expect_no_args("tensor-network")?;
            spec.expect_no_inner("tensor-network")?;
            Ok(Box::new(TensorNetEngine::new()))
        }
        "mps" => {
            spec.expect_no_inner("mps")?;
            Ok(Box::new(MpsEngine::new(mps_bond_from_spec(spec)?)))
        }
        "density" | "density-matrix" | "dm" => {
            spec.expect_no_inner("density")?;
            if spec.positional()?.is_some() {
                return Err(QdtError::new(format!(
                    "`{spec}`: density takes only `key=value` noise arguments"
                )));
            }
            let ctx = kernel_context_from_spec(spec, &["*"])?;
            let model = noise_model_from_args(spec, &[KEY_THREADS, KEY_THRESHOLD])?;
            let engine =
                DensityMatrixEngine::with_noise_and_context(&model, ctx).map_err(QdtError::new)?;
            Ok(Box::new(engine))
        }
        "traj" | "trajectories" | "stochastic" => trajectory_engine(spec),
        "auto" | "dispatch" => {
            spec.expect_no_args("auto")?;
            spec.expect_no_inner("auto")?;
            Ok(Box::<AutoEngine>::default())
        }
        other => Err(QdtError::new(format!(
            "unknown engine `{other}` (known: {})",
            ENGINE_NAMES.join(", ")
        ))),
    }
}

/// Builds a `traj(...)` engine whose workers construct their substrates
/// from the spec's inner engine.
fn trajectory_engine(spec: &EngineSpec) -> Result<Box<dyn SimulationEngine>, QdtError> {
    let defaults = TrajectoryConfig::default();
    let trajectories = match spec.positional()? {
        Some(v) => v.parse::<usize>().map_err(|_| {
            QdtError::new(format!(
                "`{spec}`: trajectory count must be an integer, got `{v}`"
            ))
        })?,
        None => spec
            .usize_of(&["trajectories", "count"])?
            .unwrap_or(defaults.trajectories),
    };
    if trajectories == 0 {
        return Err(QdtError::new(format!(
            "`{spec}`: trajectory count must be ≥ 1"
        )));
    }
    let seed = match spec.value_of(&["seed"]) {
        None => defaults.seed,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| QdtError::new(format!("`{spec}`: seed must be an integer, got `{v}`")))?,
    };
    let workers = spec.usize_of(&["workers"])?.unwrap_or(defaults.workers);
    check_thread_count(spec, "workers", workers)?;
    let model = noise_model_from_args(spec, &["trajectories", "count", "seed", "workers"])?;
    let inner_spec = spec
        .inner
        .as_deref()
        .cloned()
        .unwrap_or_else(|| EngineSpec::named("decision-diagram"));
    let factory = spec_factory(inner_spec, "trajectories");
    let config = TrajectoryConfig {
        trajectories,
        seed,
        workers,
    };
    let engine = TrajectoryEngine::new(factory, config, &model).map_err(QdtError::new)?;
    Ok(Box::new(engine))
}

/// An [`EngineFactory`] building `spec`'s engine on every call; a
/// failure surfaces as a backend error of `engine`.
fn spec_factory(spec: EngineSpec, engine: &'static str) -> EngineFactory {
    Arc::new(move || {
        create_from_spec(&spec).map_err(|e| EngineError::Backend {
            engine,
            message: e.to_string(),
        })
    })
}

/// Extracts the MPS bond cap from a spec: the positional argument or a
/// `χ=`/`chi=`/`max_bond=` key, defaulting to [`DEFAULT_MPS_BOND`].
fn mps_bond_from_spec(spec: &EngineSpec) -> Result<usize, QdtError> {
    let chi = match spec.positional()? {
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| QdtError::new(format!("`{spec}`: χ must be an integer, got `{v}`")))?,
        ),
        None => {
            for arg in &spec.args {
                if let Some(key) = &arg.key {
                    if !["χ", "chi", "max_bond"].contains(&key.as_str()) {
                        return Err(QdtError::new(format!(
                            "`{spec}`: unknown mps key `{key}` (use χ=, chi=, or max_bond=)"
                        )));
                    }
                }
            }
            spec.usize_of(&["χ", "chi", "max_bond"])?
        }
    };
    let chi = chi.unwrap_or(DEFAULT_MPS_BOND);
    if chi == 0 {
        return Err(QdtError::new(format!(
            "`{spec}`: the bond-dimension cap χ must be ≥ 1"
        )));
    }
    Ok(chi)
}

/// Spec key selecting the gate-fusion width of the array engine.
const KEY_FUSE: &str = "fuse";

/// Parses the `fuse=` width of an array spec: `0` (the default) disables
/// fusion, anything above [`qdt_array::MAX_FUSE_WIDTH`] is rejected with
/// a descriptive error.
fn fuse_width_from_spec(spec: &EngineSpec) -> Result<usize, QdtError> {
    match spec.usize_of(&[KEY_FUSE])? {
        None => Ok(0),
        Some(width) if width > qdt_array::MAX_FUSE_WIDTH => Err(QdtError::new(format!(
            "`{spec}`: fuse width {width} exceeds the maximum of {} qubits (use fuse=0..={})",
            qdt_array::MAX_FUSE_WIDTH,
            qdt_array::MAX_FUSE_WIDTH
        ))),
        Some(width) => Ok(width),
    }
}

/// Spec key selecting the kernel worker-thread count.
const KEY_THREADS: &str = "threads";

/// Spec key selecting the sequential-fallback threshold (weighted item
/// count below which kernels stay on the calling thread).
const KEY_THRESHOLD: &str = "threshold";

/// Builds a [`KernelContext`] from a spec's `threads=`/`threshold=`
/// arguments, defaulting to [`qdt_parallel::default_threads`]
/// (`QDT_THREADS` when set, else the host's cores) and the default
/// threshold exactly like [`ArrayEngine::new`].
///
/// `other_keys` lists additional keys the engine consumes itself; any
/// key outside that set (and outside `threads`/`threshold`) is rejected
/// with a descriptive error. Pass `&["*"]` to skip the key check when
/// the remaining keys are validated elsewhere (density's noise
/// channels).
fn kernel_context_from_spec(
    spec: &EngineSpec,
    other_keys: &[&str],
) -> Result<KernelContext, QdtError> {
    if !other_keys.contains(&"*") {
        for arg in &spec.args {
            let Some(key) = arg.key.as_deref() else {
                return Err(QdtError::new(format!(
                    "`{spec}`: {} takes only `key=value` arguments (threads=, threshold=)",
                    spec.name
                )));
            };
            if key != KEY_THREADS && key != KEY_THRESHOLD && !other_keys.contains(&key) {
                let extra: String = other_keys.iter().map(|k| format!(", or {k}=")).collect();
                return Err(QdtError::new(format!(
                    "`{spec}`: unknown {} key `{key}` (use threads=, threshold={extra})",
                    spec.name
                )));
            }
        }
    }
    let mut ctx = match spec.usize_of(&[KEY_THREADS])? {
        None => KernelContext::from_env(),
        Some(threads) => {
            check_thread_count(spec, KEY_THREADS, threads)?;
            KernelContext::with_threads(threads)
        }
    };
    if let Some(threshold) = spec.usize_of(&[KEY_THRESHOLD])? {
        ctx = ctx.with_threshold(threshold);
    }
    Ok(ctx)
}

/// Rejects a `threads=`/`workers=` count of 0 or above [`MAX_THREADS`].
fn check_thread_count(spec: impl fmt::Display, key: &str, n: usize) -> Result<(), QdtError> {
    match n {
        0 => Err(QdtError::new(format!("`{spec}`: {key} must be ≥ 1"))),
        n if n > MAX_THREADS => Err(QdtError::new(format!(
            "`{spec}`: {key} must be at most {MAX_THREADS}, got {n}"
        ))),
        _ => Ok(()),
    }
}

/// Builds a [`NoiseModel`] from a spec's `key=value` arguments,
/// ignoring keys in `reserved` (consumed by the engine itself) and
/// positionals. Channel keys are those of
/// [`channel_from_key`](qdt_noise::channel_from_key) plus `readout=`.
fn noise_model_from_args(spec: &EngineSpec, reserved: &[&str]) -> Result<NoiseModel, QdtError> {
    let mut model = NoiseModel::new();
    for arg in &spec.args {
        let Some(key) = arg.key.as_deref() else {
            continue;
        };
        if reserved.contains(&key) {
            continue;
        }
        let value: f64 = arg.value.parse().map_err(|_| {
            QdtError::new(format!(
                "`{spec}`: `{key}` expects a probability, got `{}`",
                arg.value
            ))
        })?;
        if key == "readout" {
            model = model.with_readout_flip(value);
        } else if let Some(channel) = channel_from_key(key, value) {
            model = model.with_rule(GateSelector::All, channel);
        } else {
            return Err(QdtError::new(format!(
                "`{spec}`: unknown noise key `{key}` (try depol=, damp=, dephase=, bitflip=, \
                 phaseflip=, or readout=)"
            )));
        }
    }
    model.validate().map_err(QdtError::new)?;
    Ok(model)
}

/// Constructs an engine from a spec string — the one-liner for CLIs and
/// tests.
///
/// # Errors
///
/// Fails on malformed specs (see [`parse_spec`]) and as
/// [`create_from_spec`] does.
pub fn create_engine(spec: &str) -> Result<Box<dyn SimulationEngine>, QdtError> {
    create_from_spec(&parse_spec(spec)?)
}

/// Wraps a spec into an [`EngineFactory`] for the dynamic-circuit shot
/// loop: [`ShotExecutor::sample`] calls it once per worker thread, so
/// each worker gets its own engine built from the same spec.
///
/// The spec is parsed and probed once up front, so unknown names and
/// bad arguments fail here rather than inside a worker.
///
/// # Errors
///
/// As for [`create_engine`].
///
/// # Example
///
/// ```
/// use qdt::engine::{shot_factory, ShotConfig, ShotExecutor};
/// use qdt::circuit::generators;
///
/// let factory = shot_factory("dd")?;
/// let qc = generators::teleportation(0.3, 0.7);
/// let result = ShotExecutor::new(ShotConfig::new(64, 1).with_workers(4))
///     .sample(&factory, &qc)?;
/// assert_eq!(result.counts.values().sum::<usize>(), 64);
/// # Ok::<(), qdt::QdtError>(())
/// ```
pub fn shot_factory(spec: &str) -> Result<EngineFactory, QdtError> {
    let parsed = parse_spec(spec)?;
    create_from_spec(&parsed)?;
    Ok(spec_factory(parsed, "shots"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `spec` is rejected with.
    fn create_err(spec: &str) -> String {
        match create_engine(spec) {
            Ok(_) => panic!("{spec} unexpectedly built an engine"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn spec_parser_handles_composites_and_round_trips() {
        for text in [
            "array",
            "mps:16",
            "mps(χ=16)",
            "density(depol=0.01,readout=0.02)",
            "traj(1000,seed=7,depol=0.01):dd",
            "traj:mps(8)",
            "traj(250):mps(χ=4)",
        ] {
            let spec = parse_spec(text).unwrap();
            let reparsed = parse_spec(&spec.to_string()).unwrap();
            assert_eq!(spec, reparsed, "`{text}` → `{spec}` must round-trip");
        }
        let spec = parse_spec("traj(1000, seed=7):mps(χ=8)").unwrap();
        assert_eq!(spec.name, "traj");
        assert_eq!(spec.positional().unwrap(), Some("1000"));
        assert_eq!(spec.value_of(&["seed"]), Some("7"));
        let inner = spec.inner.as_deref().unwrap();
        assert_eq!(inner.name, "mps");
        assert_eq!(inner.value_of(&["χ", "chi"]), Some("8"));
    }

    #[test]
    fn spec_parser_rejects_malformed_input() {
        for bad in [
            "",
            "(8)",
            "mps(",
            "mps(χ=8",
            "mps(χ=8)x",
            "mps(a,,b)",
            "mps(=3)",
            "traj():",
            ":dd",
        ] {
            assert!(parse_spec(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn display_from_str_round_trips() {
        // The displayed spec parses back to itself and builds the same
        // engine as the text it came from.
        for text in [
            "array",
            "decision-diagram",
            "tensor-network",
            "mps:8",
            "mps(χ=1)",
        ] {
            let spec = parse_spec(text).unwrap();
            let shown = spec.to_string();
            assert_eq!(parse_spec(&shown).unwrap(), spec, "`{text}` → `{shown}`");
            let engine = create_engine(&shown).unwrap();
            assert_eq!(engine.describe(), create_engine(text).unwrap().describe());
        }
    }

    #[test]
    fn from_str_accepts_aliases_and_parameter_forms() {
        assert_eq!(create_engine("dd").unwrap().name(), "decision-diagram");
        assert_eq!(create_engine("TN").unwrap().name(), "tensor-network");
        for (text, bond) in [
            ("mps:16", 16),
            ("mps(32)", 32),
            ("mps(chi=4)", 4),
            ("mps", DEFAULT_MPS_BOND),
        ] {
            assert_eq!(
                mps_bond_from_spec(&parse_spec(text).unwrap()).unwrap(),
                bond
            );
            assert_eq!(create_engine(text).unwrap().name(), "mps", "{text}");
        }
    }

    #[test]
    fn from_str_rejects_garbage_with_descriptive_errors() {
        for bad in ["", "zx", "mps(χ=", "mps:many", "array:dd"] {
            assert!(create_engine(bad).is_err(), "`{bad}` must be rejected");
        }
        for (bad, reason) in [
            ("mps:", "missing parameter"),
            ("mps:0", "must be ≥ 1"),
            ("array:7", "only `key=value` arguments"),
            ("mps(bond=3)", "unknown mps key"),
        ] {
            let err = create_engine(bad).err().expect(bad).to_string();
            assert!(err.contains(reason), "`{bad}`: {err}");
        }
    }

    #[test]
    fn backend_engine_names_match_specs() {
        for (spec, name) in [
            ("array", "array"),
            ("decision-diagram", "decision-diagram"),
            ("tensor-network", "tensor-network"),
            ("mps:2", "mps"),
        ] {
            assert_eq!(create_engine(spec).unwrap().name(), name);
        }
    }

    #[test]
    fn registry_creates_all_default_engines() {
        for spec in [
            "array",
            "array(threads=4)",
            "array(threads=2,threshold=64)",
            "dd",
            "stabilizer",
            "stabilizer(threads=4)",
            "tableau",
            "chp",
            "tensor-network",
            "mps:8",
            "mps(χ=8)",
            "density",
            "density(depol=0.05)",
            "density(threads=4,depol=0.05)",
            "traj(16,seed=1,workers=2,depol=0.05):dd",
            "traj(16):array",
            "traj(16):mps(4)",
            "traj(16,depol=0.05):stabilizer",
        ] {
            let e = create_engine(spec).unwrap();
            assert!(!e.name().is_empty(), "{spec}");
        }
        // Every canonical name and every alias builds with default
        // arguments, an alias the same engine as its canonical name.
        for (canonical, aliases) in [
            ("array", &["arrays", "statevector", "sv"][..]),
            ("decision-diagram", &["dd", "qmdd"]),
            ("stabilizer", &["tableau", "chp"]),
            ("tensor-network", &["tn", "tensor"]),
            ("mps", &[]),
            ("density", &["density-matrix", "dm"]),
            ("traj", &["trajectories", "stochastic"]),
            ("auto", &["dispatch"]),
        ] {
            assert!(ENGINE_NAMES.contains(&canonical), "{canonical}");
            let described = create_engine(canonical).unwrap().describe();
            for alias in aliases {
                assert_eq!(
                    create_engine(alias).unwrap().describe(),
                    described,
                    "{alias}"
                );
            }
        }
        let err = create_engine("nope").err().expect("nope").to_string();
        assert!(err.contains("unknown engine `nope`"), "{err}");
        for name in ENGINE_NAMES {
            assert!(err.contains(name), "`{name}` missing from: {err}");
        }
        assert!(
            create_engine("array:7").is_err(),
            "array takes no parameter"
        );
    }

    #[test]
    fn noise_specs_validate_their_arguments() {
        let err = create_err("density(depol=1.5)");
        assert!(err.contains("outside [0, 1]"), "{err}");
        let err = create_err("density(thermal=0.1)");
        assert!(err.contains("unknown noise key"), "{err}");
        let err = create_err("traj(0):dd");
        assert!(err.contains("must be ≥ 1"), "{err}");
        let err = create_err("traj(8,workers=0):dd");
        assert!(err.contains("workers"), "{err}");
        let err = create_err("traj(8):tn");
        assert!(
            err.contains("stochastic") || err.contains("Kraus"),
            "tensor-network cannot host trajectories: {err}"
        );
        let err = create_err("density:dd");
        assert!(err.contains("no inner engine"), "{err}");
    }

    #[test]
    fn parallel_kernel_specs_validate_their_arguments() {
        let err = create_err("array(threads=0)");
        assert!(err.contains("must be ≥ 1"), "{err}");
        let err = create_err("array(threads=many)");
        assert!(err.contains("integer"), "{err}");
        let err = create_err("array(cores=4)");
        assert!(err.contains("unknown array key"), "{err}");
        let err = create_err("array(8)");
        assert!(err.contains("key=value"), "{err}");
        let err = create_err("stabilizer(threads=0)");
        assert!(err.contains("must be ≥ 1"), "{err}");
        let err = create_err("stabilizer(cores=4)");
        assert!(err.contains("unknown stabilizer key"), "{err}");
        let err = create_err("stabilizer:dd");
        assert!(err.contains("no inner engine"), "{err}");
        let err = create_err("density(threads=0,depol=0.01)");
        assert!(err.contains("must be ≥ 1"), "{err}");
        let err = create_err("density(threads=2,thermal=0.1)");
        assert!(err.contains("unknown noise key"), "{err}");
        // threads=/threshold= are kernel keys, not noise channels.
        assert!(create_engine("density(threads=2,threshold=16,depol=0.05)").is_ok());
        assert!(create_engine("array(threads=4,threshold=1)").is_ok());
    }

    #[test]
    fn fusion_specs_validate_their_arguments() {
        // Beyond the 5-qubit kernel-width cap.
        let err = create_err("array(fuse=6)");
        assert!(err.contains("fuse width 6 exceeds"), "{err}");
        assert!(err.contains("fuse=0..=5"), "{err}");
        // Negative widths are not integers as far as the grammar cares.
        let err = create_err("array(fuse=-1)");
        assert!(err.contains("expects an integer"), "{err}");
        // Engines without a fusion stage reject the key outright.
        let err = create_err("stabilizer(fuse=2)");
        assert!(err.contains("unknown stabilizer key `fuse`"), "{err}");
        let err = create_err("mps(fuse=2)");
        assert!(err.contains("unknown mps key"), "{err}");
        let err = create_err("decision-diagram(fuse=2)");
        assert!(err.contains("takes no parameter"), "{err}");
        // The whole supported range builds, composed with kernel keys.
        for spec in [
            "array(fuse=0)",
            "array(fuse=2)",
            "array(fuse=5)",
            "array(fuse=5,threads=4,threshold=1)",
        ] {
            assert!(create_engine(spec).is_ok(), "{spec} should build");
        }
    }

    #[test]
    fn trajectory_defaults_to_decision_diagram_substrate() {
        let mut e = create_engine("traj(8,seed=3)").unwrap();
        let mut qc = qdt_circuit::Circuit::new(2);
        qc.h(0).cx(0, 1);
        qdt_engine::run(e.as_mut(), &qc).unwrap();
        assert_eq!(e.name(), "trajectories");
        assert_eq!(e.cost_metric().name, "trajectory-gates");
    }
}
