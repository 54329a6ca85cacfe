//! Property tests for the ε-truncated sparse evaluation path.
//!
//! Across every adversarial fuzz [`Regime`] and arbitrary seeds, the
//! certified interval `[p·e^{−τᵢ}, p]` of the accumulator on the sparse
//! table must contain the dense `SuccessEvaluator` value — for every
//! truncation bound δ, including `δ = 0` (where the two tables must give
//! the same bits under any churn) and δ close to 1 (where almost
//! everything is truncated and only the certificate keeps the answer
//! honest).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_conformance::fuzz::Regime;
use rayfade_core::SuccessEvaluator;
use rayfade_sinr::{kahan_sum, InterferenceRatios, SparseInterferenceRatios, SuccessAccumulator};

/// Truncation bounds under test: exact, tiny, moderate, and extreme.
const DELTAS: [f64; 5] = [0.0, 1e-9, 1e-3, 0.5, 0.99];

/// A probability vector mixing interior draws with the boundary extremes
/// (mirrors the adversarial mix the conformance checks use).
fn probs_for(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
    (0..n)
        .map(|_| match rng.gen_range(0usize..6) {
            0 => 0.0,
            1 => 1.0,
            2 => 1e-12,
            3 => 1.0 - 1e-12,
            _ => rng.gen_range(0.0..=1.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense Theorem 1 value always lies inside the sparse certified
    /// interval, for every regime × seed × δ. On the sparse table the
    /// batch `set_probs` equals per-link `set_prob` calls and the one-pass
    /// `expected_successes_interval` equals the compensated sums of the
    /// per-link interval ends, all bit for bit.
    #[test]
    fn dense_value_lies_in_certified_interval(
        regime_idx in 0usize..Regime::ALL.len(),
        seed in any::<u64>(),
        delta_idx in 0usize..DELTAS.len(),
    ) {
        let regime = Regime::ALL[regime_idx];
        let delta = DELTAS[delta_idx];
        let inst = regime.instance(seed);
        let n = inst.gain.len();
        let probs = probs_for(n, seed);

        let mut dense = SuccessEvaluator::new(&inst.gain, &inst.params);
        dense.set_probs(&probs);
        let sparse = SparseInterferenceRatios::from_gain(&inst.gain, &inst.params, delta);
        let mut acc = SuccessAccumulator::new(n);
        acc.set_probs(&sparse, &probs);

        for i in 0..n {
            let d = dense.success_probability(i);
            let (lo, hi) = acc.success_interval(&sparse, i);
            prop_assert!(lo.is_finite() && hi.is_finite() && lo <= hi,
                "regime {} seed {seed} delta {delta}: malformed interval [{lo:e}, {hi:e}]",
                regime.name());
            let slack = 1e-12 + 1e-9 * d.abs();
            prop_assert!(lo - slack <= d && d <= hi + slack,
                "regime {} seed {seed} delta {delta}: dense Q[{i}] = {d:e} \
                 outside [{lo:e}, {hi:e}]", regime.name());
        }
        let (lo, hi) = acc.expected_successes_interval(&sparse);
        let total = dense.expected_successes();
        let slack = 1e-12 + 1e-9 * total.abs();
        prop_assert!(lo - slack <= total && total <= hi + slack,
            "regime {} seed {seed} delta {delta}: dense E[successes] = {total:e} \
             outside [{lo:e}, {hi:e}]", regime.name());

        // The one-pass interval is the compensated sums of the per-link
        // interval ends, bit for bit.
        let ends: Vec<(f64, f64)> = (0..n).map(|i| acc.success_interval(&sparse, i)).collect();
        let lo_sum = kahan_sum(ends.iter().map(|e| e.0));
        let hi_sum = kahan_sum(ends.iter().map(|e| e.1));
        prop_assert_eq!((lo.to_bits(), hi.to_bits()), (lo_sum.to_bits(), hi_sum.to_bits()),
            "regime {} seed {seed} delta {delta}: interval [{:e}, {:e}] vs per-link sums \
             [{:e}, {:e}]", regime.name(), lo, hi, lo_sum, hi_sum);

        // The batch gather over the sparse rows lands on the bits of one
        // `set_prob` per link over the sparse columns.
        let mut steps = SuccessAccumulator::new(n);
        for (j, &p) in probs.iter().enumerate() {
            steps.set_prob(&sparse, j, p);
        }
        prop_assert_eq!(&acc, &steps,
            "regime {} seed {seed} delta {delta}: set_probs vs set_prob steps", regime.name());
        let bits = |a: &SuccessAccumulator| a.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&acc), bits(&steps),
            "regime {} seed {seed} delta {delta}: probs() differ", regime.name());
    }

    /// At δ = 0 nothing is truncated: one accumulator on the dense table
    /// and one on the sparse table must hold the same probabilities, log
    /// sums and zero counts after `set_probs` and after every step of a
    /// churn sequence, with a collapsed interval, the same bits for every
    /// `Q_i`, and the same `activation_gain` bits for every silent link.
    #[test]
    fn delta_zero_is_exact(
        regime_idx in 0usize..Regime::ALL.len(),
        seed in any::<u64>(),
    ) {
        let regime = Regime::ALL[regime_idx];
        let inst = regime.instance(seed);
        let n = inst.gain.len();
        let probs = probs_for(n, seed.wrapping_add(1));

        let dense = InterferenceRatios::new(&inst.gain, &inst.params);
        let sparse = SparseInterferenceRatios::from_gain(&inst.gain, &inst.params, 0.0);
        prop_assert_eq!(sparse.tau_max(), 0.0, "delta 0 must truncate nothing");
        let mut on_dense = SuccessAccumulator::new(n);
        let mut on_sparse = SuccessAccumulator::new(n);
        on_dense.set_probs(&dense, &probs);
        on_sparse.set_probs(&sparse, &probs);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2_17e5_0d0e_a11f);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        for step in 0..=(2 * n + 4) {
            prop_assert_eq!(&on_dense, &on_sparse,
                "regime {} seed {seed} step {step}: accumulator states differ",
                regime.name());
            for i in 0..n {
                let d = on_dense.success_probability(&dense, i);
                let (lo, hi) = on_sparse.success_interval(&sparse, i);
                prop_assert_eq!(lo, hi,
                    "regime {} seed {seed}: interval did not collapse", regime.name());
                prop_assert_eq!(hi.to_bits(), d.to_bits(),
                    "regime {} seed {seed} step {step}: sparse Q[{}] = {:e} vs dense {:e}",
                    regime.name(), i, hi, d);
                if on_dense.prob(i) == 0.0 {
                    let gd = on_dense.activation_gain(&dense, Some(&weights), i);
                    let gs = on_sparse.activation_gain(&sparse, Some(&weights), i);
                    prop_assert_eq!(gd.to_bits(), gs.to_bits(),
                        "regime {} seed {seed} step {step}: activation_gain({}) \
                         {:e} vs {:e}", regime.name(), i, gd, gs);
                }
            }
            if n == 0 {
                break;
            }
            let j = rng.gen_range(0..n);
            match rng.gen_range(0u32..4) {
                0 => {
                    on_dense.insert(&dense, j);
                    on_sparse.insert(&sparse, j);
                }
                1 => {
                    on_dense.remove(&dense, j);
                    on_sparse.remove(&sparse, j);
                }
                2 => {
                    let q = [0.0, 1.0, 1e-12, 1.0 - 1e-12][rng.gen_range(0usize..4)];
                    on_dense.set_prob(&dense, j, q);
                    on_sparse.set_prob(&sparse, j, q);
                }
                _ => {
                    let q = rng.gen_range(0.0..=1.0);
                    on_dense.set_prob(&dense, j, q);
                    on_sparse.set_prob(&sparse, j, q);
                }
            }
        }
    }

    /// Large δ truncates aggressively but the interval stays sound and
    /// the upper end never exceeds the no-interference ceiling.
    #[test]
    fn extreme_delta_stays_sound(
        regime_idx in 0usize..Regime::ALL.len(),
        seed in any::<u64>(),
    ) {
        let regime = Regime::ALL[regime_idx];
        let inst = regime.instance(seed);
        let n = inst.gain.len();
        let sparse = SparseInterferenceRatios::from_gain(&inst.gain, &inst.params, 0.99);
        let mut acc = SuccessAccumulator::new(n);
        acc.set_uniform(&sparse, 1.0);
        for i in 0..n {
            let (lo, hi) = acc.success_interval(&sparse, i);
            prop_assert!((0.0..=1.0).contains(&hi) && (0.0..=hi).contains(&lo),
                "regime {} seed {seed}: interval [{lo:e}, {hi:e}] escapes [0, 1]",
                regime.name());
            prop_assert!(hi <= sparse.noise_factor(i) + 1e-15,
                "regime {} seed {seed}: Q[{i}] = {hi:e} exceeds its \
                 no-interference ceiling {:e}", regime.name(), sparse.noise_factor(i));
        }
    }
}
