//! Fixed-seed fuzzing of the engine boundary with the vendored proptest
//! shim: spec strings build an engine or return an error, never panic or
//! abort, and every accepted spec round-trips through `Display`; misuse
//! of every default engine (queries before `prepare`, qubits past the
//! register, `rollback` without `checkpoint`) is `Ok` or a typed
//! `EngineError`, never a panic; so is every engine, shot loop and static
//! tool handed a circuit with noise channels in it.

use std::sync::Arc;

use proptest::prelude::*;
use qdt::circuit::{generators, qasm, Channel, Gate, Instruction, OpKind, PauliString};
use qdt::compile::coupling::CouplingMap;
use qdt::compile::target::GateSet;
use qdt::engine::{parse_spec, run, ShotConfig, ShotExecutor};
use qdt::noise::{KrausChannel, NoiseModel};
use qdt::EngineError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Names, keys, values and junk for the spec grammar's slots, `|`-separated.
const WORDS: &str = "array|dd|mps|traj|density|stabilizer|auto|fuse|threads|workers|depol|seed|χ|\
                     5|0|1000000|0.1|-1| |É||(|)|=|99999999999999999999";

/// `name[(args)]` parts joined by `:`, every slot filled from [`WORDS`].
fn spec_text() -> impl Strategy<Value = String> {
    let n = WORDS.split('|').count();
    let part = (
        0..n,
        prop::collection::vec((0..n, 0..n, 0..2usize), 0..4),
        0..2usize,
    );
    prop::collection::vec(part, 1..4).prop_map(|parts| {
        let word = |i: usize| WORDS.split('|').nth(i).expect("in range");
        let parts: Vec<String> = parts
            .into_iter()
            .map(|(name, args, parens)| {
                let args = args.into_iter().map(|(k, v, keyed)| match keyed {
                    0 => word(v).to_string(),
                    _ => format!("{}={}", word(k), word(v)),
                });
                match parens {
                    0 => word(name).to_string(),
                    _ => format!("{}({})", word(name), args.collect::<Vec<_>>().join(",")),
                }
            })
            .collect();
        parts.join(":")
    })
}

/// Every engine spec name, in a small default configuration.
const DEFAULT_SPECS: &str =
    "array array(fuse=5) dd tn mps:8 stabilizer density traj(8,workers=1) auto";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn spec_strings_build_or_err_and_round_trip(spec in spec_text()) {
        if let Ok(parsed) = parse_spec(&spec) {
            let again = parse_spec(&parsed.to_string());
            prop_assert!(again.as_ref() == Ok(&parsed), "{spec:?} -> `{parsed}` -> {again:?}");
        }
        let _ = qdt::create_engine(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn engine_misuse_is_ok_or_a_typed_error(
        spec in 0..DEFAULT_SPECS.split(' ').count(),
        ops in prop::collection::vec((0..9usize, 0..5usize, 0..5usize), 0..16),
    ) {
        let spec = DEFAULT_SPECS.split(' ').nth(spec).expect("in range");
        let mut e = qdt::create_engine(spec).expect("default spec builds");
        let mut rng = StdRng::seed_from_u64(1);
        for (op, a, b) in ops {
            match op {
                0 => drop(e.prepare(a)),
                1 | 2 => {
                    let (gate, controls) = if op == 1 { (Gate::H, vec![]) } else { (Gate::X, vec![b + 1]) };
                    let inst = Instruction::new(OpKind::Unitary { gate, target: a, controls });
                    let invalid = inst.check_qubits(e.num_qubits()).is_err();
                    let res = e.apply_instruction(&inst);
                    let typed = matches!(res, Err(EngineError::InvalidQubits(_)));
                    prop_assert!(!invalid || typed, "{}: {:?}", spec, res);
                }
                3 => drop(e.amplitude(a as u128)),
                4 => drop(e.probability_of_one(a)),
                5 => drop(e.project(a, b % 2 == 1)),
                6 => drop(e.rollback()),
                7 => drop(e.checkpoint()),
                _ => {
                    drop(e.sample(4, &mut rng));
                    drop(e.expectation(&PauliString::new(vec![qdt::circuit::Pauli::Z; a])));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn channels_are_ok_or_a_typed_error(
        spec in 0..DEFAULT_SPECS.split(' ').count(),
        kind in 0..5usize,
        shape in 0..3usize,
        seed in 0..1000u64,
        qubit in 0..5usize,
    ) {
        let spec = DEFAULT_SPECS.split(' ').nth(spec).expect("in range");
        let kraus = KrausChannel::all_kinds(0.1)[kind];
        let mut rng = StdRng::seed_from_u64(seed);
        let qc = match shape {
            0 => generators::random_circuit(3, 3, &mut rng),
            1 => generators::random_clifford(3, 4, &mut rng),
            _ => generators::teleportation(0.3, 0.7),
        };
        let noisy = NoiseModel::uniform(kraus).apply(&qc).expect("valid model");
        let channel = Arc::new(Channel::new(kraus.kraus_operators()).expect("2×2 operators"));
        let inst = Instruction::new(OpKind::Channel { qubit, channel });

        let mut e = qdt::create_engine(spec).expect("default spec builds");
        for _ in 0..2 {
            // Before `run` and after it; past the register it is refused as such.
            let invalid = inst.check_qubits(e.num_qubits()).is_err();
            let res = e.apply_instruction(&inst);
            prop_assert!(!invalid || matches!(res, Err(EngineError::InvalidQubits(_))), "{spec}: {res:?}");
            let ran = run(e.as_mut(), &noisy);
            let mixed = spec.starts_with("density") || spec.starts_with("traj");
            prop_assert!(ran.is_ok() == (mixed && shape < 2), "{spec}: {ran:?}");
        }
        drop(ShotExecutor::new(ShotConfig::new(4, seed)).run_on(e.as_mut(), &noisy));
        drop(qdt::sample_dynamic(&noisy, 4, spec, seed, 2));

        drop(qdt::analysis::Analyzer.analyze(&noisy));
        drop(qdt::analysis::circuit_facts(&noisy));
        let compiled = qdt::compile::compile(&noisy, &GateSet::ibm_basis(), &CouplingMap::linear(3));
        prop_assert!(compiled.is_ok(), "{compiled:?}");
        prop_assert!(qasm::write(&noisy).is_err());
    }
}

#[test]
fn oversized_thread_counts_and_repeated_keys_are_errors() {
    let refused = "array(threads=1000000) density(threads=1000000) stabilizer(threads=1000000) \
                   traj(workers=1000000) array(fuse=5,fuse=3) density(depol=0.1,depol=0.2)";
    for spec in refused.split_whitespace() {
        assert!(qdt::create_engine(spec).is_err(), "{spec} must be refused");
    }
    let bell = qdt::circuit::generators::bell();
    assert!(qdt::sample_dynamic(&bell, 1, "array", 0, 1_000_000).is_err());
}
