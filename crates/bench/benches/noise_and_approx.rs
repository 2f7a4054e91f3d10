//! C8/C9: noise-aware trajectories and budgeted approximation on DDs
//! (paper refs \[13\] and \[12\]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdt::circuit::generators;
use qdt::dd::DdPackage;
use qdt::engine::run;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_noisy_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("c8_noisy_trajectory");
    group.sample_size(10);
    for n in [8usize, 16, 24] {
        let qc = generators::ghz(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &qc, |b, qc| {
            let mut engine =
                qdt::create_engine("traj(1, seed=1, depol=0.02):dd").expect("spec builds");
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                // The trajectory engine records the gates and evolves its
                // one trajectory when queried.
                run(engine.as_mut(), qc).expect("runs");
                engine.sample(1, &mut rng).expect("samples")
            });
        });
    }
    group.finish();
}

fn bench_approximation(c: &mut Criterion) {
    let mut group = c.benchmark_group("c9_approximate");
    group.sample_size(10);
    let n = 14;
    let mut qc = qdt::circuit::Circuit::new(n);
    for q in 0..n {
        qc.ry(0.18, q);
    }
    for q in 0..n - 1 {
        qc.cx(q, q + 1);
    }
    for budget in [1e-3, 1e-2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{budget:.0e}")),
            &qc,
            |b, qc| {
                b.iter(|| {
                    let mut dd = DdPackage::new();
                    let mut v = dd.run_circuit(qc).expect("simulates");
                    dd.approximate(&mut v, budget)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_noisy_trajectories, bench_approximation);
criterion_main!(benches);
