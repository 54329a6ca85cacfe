//! Criterion bench: Rayleigh channel sampling — one fading slot
//! resolution, the inner loop of every Monte Carlo experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayfade_bench::figure1_instance;
use rayfade_core::{sample_exponential, sample_gamma, NakagamiModel, RayleighModel};
use rayfade_sinr::SuccessModel;
use std::hint::black_box;

fn bench_fading(c: &mut Criterion) {
    let mut group = c.benchmark_group("rayleigh_channel");
    group.bench_function("sample_exponential", |b| {
        let mut rng = rand::rngs::mock::StepRng::new(1, 0x9e3779b97f4a7c15);
        b.iter(|| black_box(sample_exponential(&mut rng, black_box(3.0))))
    });
    group.bench_function("sample_gamma_m4", |b| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| black_box(sample_gamma(&mut rng, black_box(4.0))))
    });
    for &n in &[50usize, 100, 200, 400] {
        let (gm, params) = figure1_instance(0, n);
        let mask = vec![true; n];
        group.bench_with_input(BenchmarkId::new("resolve_slot", n), &n, |b, _| {
            let mut model = RayleighModel::new(gm.clone(), params, 42);
            b.iter(|| black_box(model.resolve_slot(black_box(&mask))))
        });
        group.bench_with_input(BenchmarkId::new("resolve_sinrs", n), &n, |b, _| {
            let mut model = RayleighModel::new(gm.clone(), params, 42);
            let transmitters: Vec<usize> = (0..n).collect();
            let mut sinrs = vec![0.0; n];
            b.iter(|| {
                model.resolve_sinrs(black_box(&transmitters), &mut sinrs);
                black_box(sinrs[0])
            })
        });
        group.bench_with_input(
            BenchmarkId::new("nakagami_resolve_slot_m4", n),
            &n,
            |b, _| {
                let mut model = NakagamiModel::new(gm.clone(), params, 4.0, 42);
                b.iter(|| black_box(model.resolve_slot(black_box(&mask))))
            },
        );
        // Sparse activation: only ~30% of senders on.
        let sparse: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        group.bench_with_input(BenchmarkId::new("resolve_slot_sparse", n), &n, |b, _| {
            let mut model = RayleighModel::new(gm.clone(), params, 42);
            b.iter(|| black_box(model.resolve_slot(black_box(&sparse))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fading);
criterion_main!(benches);
