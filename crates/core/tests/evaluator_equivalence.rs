//! Equivalence proptests: the incremental [`SuccessEvaluator`] must agree
//! with the from-scratch Theorem 1 evaluation (`success_probabilities`)
//! within 1e-12 after *any* sequence of add/remove/update operations, on
//! random gain matrices including zero-gain rows and `q_j = 0` entries.

use proptest::prelude::*;
use rayfade_core::{success_probabilities, SuccessEvaluator};
use rayfade_sinr::{GainMatrix, SinrParams};

/// Random gain matrix: own signals in [0, 50] (zero possible), cross
/// gains in [0, 5] with many exact zeros, derived deterministically from
/// one seed via SplitMix64.
fn random_gain(seed: u64, n: usize) -> GainMatrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let r = next();
            g[i * n + j] = if j == i {
                // One in four links is dead (zero own signal).
                if r % 4 == 0 {
                    0.0
                } else {
                    unit(r) * 50.0
                }
            } else if r % 3 == 0 {
                0.0 // sparse interference: many exact-zero cross gains
            } else {
                unit(r) * 5.0
            };
        }
    }
    GainMatrix::from_raw(n, g)
}

/// One evaluator operation, decoded from raw proptest integers.
fn apply_op(ev: &mut SuccessEvaluator, probs: &mut [f64], op: u64, link: usize, q: f64) {
    let n = probs.len();
    let j = link % n;
    match op % 4 {
        0 => {
            ev.insert(j);
            probs[j] = 1.0;
        }
        1 => {
            ev.remove(j);
            probs[j] = 0.0;
        }
        2 => {
            ev.set_prob(j, q);
            probs[j] = q;
        }
        _ => {
            // Snap to an exact-zero probability — the edge case where an
            // interference factor must drop out of the product entirely.
            ev.set_prob(j, 0.0);
            probs[j] = 0.0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental add/remove/update sequences agree with the scratch
    /// closed form within 1e-12.
    #[test]
    fn incremental_matches_scratch(
        seed in any::<u64>(),
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), 0.0f64..=1.0), 1..40),
    ) {
        let n = 12;
        let gm = random_gain(seed, n);
        let params = SinrParams::new(2.0, 1.5, 0.3);
        let mut ev = SuccessEvaluator::new(&gm, &params);
        let mut probs = vec![0.0f64; n];
        for &(op, link, q) in &ops {
            apply_op(&mut ev, &mut probs, op, link as usize, q);
            let want = success_probabilities(&gm, &params, &probs);
            for (i, &w) in want.iter().enumerate() {
                let got = ev.success_probability(i);
                prop_assert!(
                    (got - w).abs() < 1e-12,
                    "link {i} after {} ops: {got} vs {w}",
                    ops.len()
                );
            }
        }
    }

    /// `set_probs` (bulk) and a sequence of `set_prob` calls land on the
    /// same state, and both match scratch — including q_j = 0 entries.
    #[test]
    fn bulk_and_incremental_agree(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0.0f64..=1.0, 10),
        zero_mask in any::<u64>(),
    ) {
        let n = 10;
        let gm = random_gain(seed, n);
        let params = SinrParams::new(2.0, 2.5, 0.0);
        // Force exact zeros into the probability vector.
        let probs: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(j, &p)| if zero_mask >> j & 1 == 1 { 0.0 } else { p })
            .collect();
        let mut bulk = SuccessEvaluator::new(&gm, &params);
        bulk.set_probs(&probs);
        let mut steps = SuccessEvaluator::new(&gm, &params);
        for (j, &p) in probs.iter().enumerate() {
            steps.set_prob(j, p);
        }
        let want = success_probabilities(&gm, &params, &probs);
        for (i, &w) in want.iter().enumerate() {
            prop_assert!((bulk.success_probability(i) - w).abs() < 1e-12);
            prop_assert!((steps.success_probability(i) - w).abs() < 1e-12);
        }
    }

    /// The O(n) activation gain equals the actual objective difference.
    #[test]
    fn activation_gain_is_exact(
        seed in any::<u64>(),
        mask in any::<u64>(),
        j in 0usize..12,
    ) {
        let n = 12;
        let gm = random_gain(seed, n);
        let params = SinrParams::new(2.0, 1.5, 0.1);
        let mut ev = SuccessEvaluator::new(&gm, &params);
        let mut probs = vec![0.0f64; n];
        for (i, p) in probs.iter_mut().enumerate() {
            if i != j && mask >> i & 1 == 1 {
                ev.insert(i);
                *p = 1.0;
            }
        }
        let before: f64 = success_probabilities(&gm, &params, &probs).iter().sum();
        probs[j] = 1.0;
        let after: f64 = success_probabilities(&gm, &params, &probs).iter().sum();
        let gain = ev.activation_gain(None, j);
        prop_assert!(
            (gain - (after - before)).abs() < 1e-12,
            "gain {gain} vs delta {}",
            after - before
        );
    }
}
