//! Property tests for the noise subsystem.
//!
//! Two invariant families:
//!
//! * every built-in [`KrausChannel`] is CPTP — `Σ Kᵢ†Kᵢ = I` within
//!   tolerance — for any parameter in `[0, 1]`;
//! * density-matrix evolution under random Clifford+T circuits with
//!   random channels preserves the physicality of ρ: unit trace,
//!   Hermiticity, and purity ≤ 1.

use proptest::prelude::*;
use qdt_circuit::generators;
use qdt_engine::run;
use qdt_noise::{
    completeness_defect, DensityMatrixEngine, KrausChannel, NoiseModel, CPTP_TOLERANCE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn channel_by_index(kind: usize, p: f64) -> KrausChannel {
    let kinds = KrausChannel::all_kinds(p);
    kinds[kind % kinds.len()]
}

proptest! {
    #[test]
    fn builtin_channels_satisfy_cptp_completeness(kind in 0usize..5, p in 0.0..1.0f64) {
        let ch = channel_by_index(kind, p);
        prop_assert!(ch.validate().is_ok(), "{ch} must validate");
        let defect = completeness_defect(&ch.kraus_operators());
        prop_assert!(
            defect < CPTP_TOLERANCE,
            "{ch}: completeness defect {defect:.3e}"
        );
    }

    #[test]
    fn density_evolution_preserves_physicality(
        seed in 0u64..500,
        n in 1usize..5,
        kind in 0usize..5,
        p in 0.0..0.5f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qc = generators::random_clifford_t(n, 16, 0.25, &mut rng);
        let noise = NoiseModel::uniform(channel_by_index(kind, p));
        let mut engine = DensityMatrixEngine::with_noise(&noise).unwrap();
        run(&mut engine, &qc).unwrap();
        let rho = engine.density();

        prop_assert!((rho.trace() - 1.0).abs() < 1e-9, "trace {}", rho.trace());
        prop_assert!(rho.purity() <= 1.0 + 1e-9, "purity {}", rho.purity());

        let m = rho.to_matrix();
        for r in 0..m.rows() {
            for c in r..m.cols() {
                let defect = (m.get(r, c) - m.get(c, r).conj()).norm_sqr();
                prop_assert!(defect < 1e-18, "ρ[{r},{c}] breaks Hermiticity");
            }
        }
    }
}
