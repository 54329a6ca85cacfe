//! The accumulator's batch calls against a per-receiver reference loop,
//! bit for bit, on random CSR tables.
//!
//! The reference rebuilds every receiver's log sum and zero count from
//! its whole row, and reads every link's Theorem-1 value, certified
//! interval and the compensated sums over all links in ascending order.
//! The tables come from `SparseInterferenceRatios::from_raw_parts` in five
//! shapes: rows of random density, every row empty, every row full, and
//! only the first or only the last receiver with a row. Ratios of exactly
//! 1 give zero factors at q = 1, a tenth of the links are dead (noise
//! factor 0), and the probability vectors hold 0, −0.0 and 1. After the
//! batch call a few `set_prob` steps (−0.0 among their values) churn the
//! state, and the reads are checked again.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_sinr::{kahan_sum, RatioTable, SparseInterferenceRatios, SuccessAccumulator};

/// Which receivers get a row.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    Empty,
    Full,
    FirstOnly,
    LastOnly,
}

const SHAPES: [Shape; 5] = [
    Shape::Random,
    Shape::Empty,
    Shape::Full,
    Shape::FirstOnly,
    Shape::LastOnly,
];

/// A random table of `n` links in the given shape. A receiver with a row
/// keeps each other sender with probability `density` (every sender
/// under `Full`, `FirstOnly` and `LastOnly`); one ratio in eight is
/// exactly 1.
fn table(n: usize, shape: Shape, density: f64, rng: &mut StdRng) -> SparseInterferenceRatios {
    let mut row_ptr = vec![0u32];
    let (mut col, mut rho) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (has_row, keep) = match shape {
            Shape::Random => (true, density),
            Shape::Empty => (false, 0.0),
            Shape::Full => (true, 1.0),
            Shape::FirstOnly => (i == 0, 1.0),
            Shape::LastOnly => (i == n - 1, 1.0),
        };
        for j in 0..n {
            if has_row && j != i && rng.gen_bool(keep) {
                col.push(j as u32);
                rho.push(if rng.gen_bool(0.125) {
                    1.0
                } else {
                    1.0 - rng.gen::<f64>()
                });
            }
        }
        row_ptr.push(col.len() as u32);
    }
    let noise = (0..n)
        .map(|_| if rng.gen_bool(0.1) { 0.0 } else { rng.gen() })
        .collect();
    let tau = (0..n)
        .map(|_| {
            if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..0.1)
            }
        })
        .collect();
    SparseInterferenceRatios::from_raw_parts(2.5, 0.05, row_ptr, col, rho, noise, tau)
}

/// A probability with the edge values over-represented.
fn probability(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        _ => rng.gen(),
    }
}

/// The per-receiver batch loop: each receiver's interference product
/// from its whole row, in ascending sender order, with the scatter's
/// skip rules.
fn reference_products(ratios: &SparseInterferenceRatios, probs: &[f64]) -> Vec<f64> {
    (0..ratios.len())
        .map(|i| {
            let (mut sum, mut zeros) = (0.0f64, 0u32);
            let (senders, rhos) = ratios.row(i);
            for (&j, &rho) in senders.iter().zip(rhos) {
                let q_j = probs[j as usize];
                if q_j == 0.0 {
                    continue;
                }
                let factor = 1.0 - rho * q_j;
                if factor == 0.0 {
                    zeros += 1;
                } else if factor != 1.0 {
                    sum += factor.ln();
                }
            }
            if zeros > 0 {
                0.0
            } else if sum == 0.0 {
                1.0
            } else {
                sum.exp()
            }
        })
        .collect()
}

/// Every read of `acc` against the per-link formula over all links.
fn check_reads(ratios: &SparseInterferenceRatios, acc: &SuccessAccumulator) -> Result<(), String> {
    let n = ratios.len();
    let p: Vec<f64> = (0..n)
        .map(|i| {
            let q_i = acc.prob(i);
            if q_i == 0.0 {
                0.0
            } else {
                q_i * ratios.noise_factor(i) * acc.interference_product(i)
            }
        })
        .collect();
    let lo: Vec<f64> = (0..n).map(|i| p[i] * ratios.tau_factor(i)).collect();
    for i in 0..n {
        let got = acc.success_probability(ratios, i);
        if got.to_bits() != p[i].to_bits() {
            return Err(format!("success_probability({i}): {got:e} vs {:e}", p[i]));
        }
        let (l, h) = acc.success_interval(ratios, i);
        if (l.to_bits(), h.to_bits()) != (lo[i].to_bits(), p[i].to_bits()) {
            return Err(format!("success_interval({i}): [{l:e}, {h:e}]"));
        }
    }
    let all = acc.success_probabilities(ratios);
    if all
        .iter()
        .map(|x| x.to_bits())
        .ne(p.iter().map(|x| x.to_bits()))
    {
        return Err(format!("success_probabilities: {all:?} vs {p:?}"));
    }
    let sum = kahan_sum(p.iter().copied());
    let got = acc.expected_successes(ratios);
    if got.to_bits() != sum.to_bits() {
        return Err(format!("expected_successes: {got:e} vs {sum:e}"));
    }
    let want = (kahan_sum(lo.iter().copied()), sum);
    let got = acc.expected_successes_interval(ratios);
    if (got.0.to_bits(), got.1.to_bits()) != (want.0.to_bits(), want.1.to_bits()) {
        return Err(format!("expected_successes_interval: {got:?} vs {want:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `set_uniform` or `set_probs`, then churn: the state equals the
    /// reference loop's and a `set_prob` scatter's, and every read
    /// equals the per-link formula, bit for bit.
    #[test]
    fn batch_calls_match_the_per_receiver_loop(
        seed in any::<u64>(),
        n in 1usize..24,
        shape in 0usize..5,
        density in 0.0f64..1.0,
        uniform in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ratios = table(n, SHAPES[shape], density, &mut rng);
        // `uniform` picks q ∈ {0, 0.3, 1, random}, or 4: a random vector.
        let probs: Vec<f64> = match uniform {
            0 => vec![0.0; n],
            1 => vec![0.3; n],
            2 => vec![1.0; n],
            3 => vec![rng.gen(); n],
            _ => (0..n).map(|_| probability(&mut rng)).collect(),
        };
        let mut acc = SuccessAccumulator::new(n);
        if uniform < 4 {
            acc.set_uniform(&ratios, probs[0]);
        } else {
            acc.set_probs(&ratios, &probs);
        }
        let mut scatter = SuccessAccumulator::new(n);
        for (j, &q) in probs.iter().enumerate() {
            scatter.set_prob(&ratios, j, q);
        }
        prop_assert!(acc == scatter, "batch state differs from the scatter's");
        for (i, want) in reference_products(&ratios, &probs).into_iter().enumerate() {
            let q = if probs[i] == 0.0 { 0.0 } else { probs[i] };
            prop_assert_eq!(acc.prob(i).to_bits(), q.to_bits(), "prob({})", i);
            let got = acc.interference_product(i);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "product({}): {:e} vs {:e}", i, got, want);
        }
        check_reads(&ratios, &acc).map_err(TestCaseError::Fail)?;
        for _ in 0..4 {
            let j = rng.gen_range(0..n);
            acc.set_prob(&ratios, j, probability(&mut rng));
        }
        check_reads(&ratios, &acc).map_err(TestCaseError::Fail)?;
    }
}
