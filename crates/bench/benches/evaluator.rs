//! Criterion bench: incremental Theorem-1 evaluator primitives.
//!
//! Compares the cached-ratio `SuccessEvaluator` operations against their
//! from-scratch equivalents at n ∈ {50, 200, 800}: a single-link update
//! (`set_prob`, O(n)) vs recomputing all success probabilities (O(n²)),
//! and a greedy candidate score (`activation_gain`, O(n)) vs the naive
//! `expected_successes_of_set(S ∪ {j})` re-score (O(|S|²)). The
//! quantized-log `AmortizedAccumulator` rows measure the analytic slot
//! resolver's per-slot primitives: the contiguous-row mask flip
//! (`amortized_flip`, one row add or subtract, neither of which
//! multiplies), the slot-like `amortized_switch` between two ~8%-dense
//! transmit sets (`NetworkEvaluator::switch_transmit_set`, which rebuilds
//! from the new set when that takes fewer row passes than the flips) and
//! the from-scratch `set_probs` rebuild the conformance check holds them
//! bit-equal to. `f64_set_probs` times the same rebuild on the f64
//! `SuccessEvaluator` (one row gather per receiver), beside it.
//! `sparse_eval` is one certified evaluation of the sparse evaluator at
//! 10⁵ links (`set_uniform` plus `expected_successes_interval`), on the
//! geometry, δ and q-grid of perfbench's `sparse_100k` workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_bench::figure1_instance;
use rayfade_core::{
    expected_successes_of_set, success_probabilities, NetworkEvaluator, SuccessEvaluator,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{AmortizedAccumulator, PowerAssignment, SinrParams};
use std::hint::black_box;

/// A random transmit set of about 8% of `n` links, ascending.
fn sparse_set(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).filter(|_| rng.gen_bool(0.08)).collect()
}

fn bench_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator");
    for &n in &[50usize, 200, 800] {
        let (gm, params) = figure1_instance(0, n);
        let probs = vec![0.7; n];
        // Active set for the candidate-score comparison: every third link
        // plus the probed candidate.
        let mut set: Vec<usize> = (0..n).step_by(3).collect();
        let candidate = 1;
        let mut ev = SuccessEvaluator::new(&gm, &params);
        for &j in &set {
            ev.insert(j);
        }

        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| black_box(SuccessEvaluator::new(black_box(&gm), black_box(&params))))
        });
        group.bench_with_input(BenchmarkId::new("set_prob_incremental", n), &n, |b, _| {
            let mut ev = SuccessEvaluator::new(&gm, &params);
            ev.set_probs(&probs);
            let mut q = 0.3;
            b.iter(|| {
                q = if q == 0.3 { 0.8 } else { 0.3 };
                ev.set_prob(black_box(n / 2), black_box(q));
                black_box(ev.success_probability(n / 2))
            })
        });
        group.bench_with_input(BenchmarkId::new("scratch_all_probs", n), &n, |b, _| {
            b.iter(|| {
                black_box(success_probabilities(
                    black_box(&gm),
                    black_box(&params),
                    black_box(&probs),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("activation_gain", n), &n, |b, _| {
            b.iter(|| black_box(ev.activation_gain(None, black_box(candidate))))
        });
        group.bench_with_input(BenchmarkId::new("naive_candidate_score", n), &n, |b, _| {
            b.iter(|| {
                set.push(candidate);
                let v = expected_successes_of_set(black_box(&gm), black_box(&params), &set);
                set.pop();
                black_box(v)
            })
        });
        group.bench_with_input(BenchmarkId::new("amortized_flip", n), &n, |b, _| {
            let (ratios, mut acc) = AmortizedAccumulator::from_gain(&gm, &params);
            acc.set_probs(&ratios, &probs);
            let mut on = false;
            b.iter(|| {
                on = !on;
                if on {
                    acc.insert(black_box(&ratios), black_box(n / 2));
                } else {
                    acc.remove(black_box(&ratios), black_box(n / 2));
                }
                black_box(acc.conditional_success_probability(&ratios, n / 2))
            })
        });
        group.bench_with_input(BenchmarkId::new("amortized_switch", n), &n, |b, _| {
            let mut ev = NetworkEvaluator::amortized_from_gain(&gm, &params);
            let (mut from, mut to) = (sparse_set(n, 1), sparse_set(n, 2));
            ev.switch_transmit_set(&[], &from);
            b.iter(|| {
                ev.switch_transmit_set(black_box(&from), black_box(&to));
                std::mem::swap(&mut from, &mut to);
                black_box(ev.conditional_success_probability(n / 2))
            })
        });
        group.bench_with_input(BenchmarkId::new("amortized_rebuild", n), &n, |b, _| {
            let (ratios, mut acc) = AmortizedAccumulator::from_gain(&gm, &params);
            b.iter(|| {
                acc.set_probs(black_box(&ratios), black_box(&probs));
                black_box(acc.conditional_success_probability(&ratios, n / 2))
            })
        });
        group.bench_with_input(BenchmarkId::new("f64_set_probs", n), &n, |b, _| {
            let mut ev = SuccessEvaluator::new(&gm, &params);
            b.iter(|| {
                ev.set_probs(black_box(&probs));
                black_box(ev.conditional_success_probability(n / 2))
            })
        });
    }
    let links = 100_000;
    let net = PaperTopology {
        links,
        side: (links as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x51e5);
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let mut ev =
        NetworkEvaluator::for_network(&net, &PowerAssignment::figure1_uniform(), &params, None);
    assert!(ev.is_sparse(), "10^5 links take the sparse evaluator");
    let grid = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0];
    let mut k = 0;
    group.bench_function("sparse_eval", |b| {
        b.iter(|| {
            k = (k + 1) % grid.len();
            ev.set_uniform(black_box(grid[k]));
            black_box(ev.expected_successes_interval())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_evaluator);
criterion_main!(benches);
