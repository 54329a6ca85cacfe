//! Equivalence proptests: the incremental [`SuccessEvaluator`] must agree
//! with the from-scratch Theorem 1 evaluation (`success_probabilities`)
//! within 1e-12 after *any* sequence of add/remove/update operations, on
//! random gain matrices including zero-gain rows and `q_j = 0` entries.
//! [`NetworkEvaluator::switch_transmit_set`] must land on the bits of
//! flip-by-flip `insert`/`remove` in ascending link order, on every
//! variant and on both layouts of the amortized variant's log table.

use proptest::prelude::*;
use rayfade_core::{
    success_probabilities, NetworkEvaluator, SparseSuccessEvaluator, SuccessEvaluator,
};
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

/// A far-field gain matrix: own signals in [1, 50] (one link in four
/// dead), cross gains in [0, 10⁻⁷] with many exact zeros, and about one
/// cross gain in twenty near, in [0, 5]. On the amortized variant almost
/// every full-activation log fits in 16 bits, so its table takes the
/// narrow layout that `random_gain`'s near-field instances never do.
fn far_gain(seed: u64, n: usize) -> GainMatrix {
    let mut state = seed ^ 0xfa7;
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
            g[i * n + j] = match (j == i, r % 20) {
                (true, k) if k % 4 == 0 => 0.0,
                (true, _) => 1.0 + unit(r) * 49.0,
                (false, 0) => unit(r) * 5.0,
                (false, k) if k % 3 == 0 => 0.0,
                (false, _) => unit(r) * 1e-7,
            };
        }
    }
    GainMatrix::from_raw(n, g)
}

/// A probability that is one of the edge values −0.0, 0, 1e-12,
/// 1 − 1e-12 and 1 half of the time, uniform on `[0, 1]` otherwise.
fn edge_prob() -> impl Strategy<Value = f64> {
    (0usize..10, 0.0f64..=1.0).prop_map(|(k, u)| match k {
        0 => -0.0,
        1 => 0.0,
        2 => 1e-12,
        3 => 1.0 - 1e-12,
        4 => 1.0,
        _ => u,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
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

/// The transmit set after `prev` for one drawn step: empty, identical,
/// disjoint from `prev`, or a fresh random set (which overlaps `prev`
/// unless the draw misses it).
fn next_set(prev: &[usize], kind: u8, mask: u64, n: usize) -> Vec<usize> {
    let drawn = (0..n).filter(|&j| mask >> j & 1 == 1);
    match kind % 4 {
        0 => Vec::new(),
        1 => prev.to_vec(),
        2 => drawn.filter(|j| !prev.contains(j)).collect(),
        _ => drawn.collect(),
    }
}

/// Brings `ev` from `from` to `to` one flip at a time, in ascending link
/// order — the reference `switch_transmit_set` must equal.
fn flip_by_flip(ev: &mut NetworkEvaluator, from: &[usize], to: &[usize]) {
    for j in 0..ev.len() {
        match (from.contains(&j), to.contains(&j)) {
            (true, false) => ev.remove(j),
            (false, true) => ev.insert(j),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A chain of transmit-set switches — from the empty set through
    /// empty, identical, disjoint and overlapping successors, so the
    /// amortized variant both churns and rebuilds — equals flip-by-flip
    /// churn: the whole state on every variant, and the probability bits
    /// of every link. The near-field instance's amortized table is wide
    /// and the far-field one's narrow.
    #[test]
    fn switch_transmit_set_equals_flip_by_flip(
        seed in any::<u64>(),
        steps in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..8),
    ) {
        let n = 20;
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let (near, far) = (random_gain(seed, n), far_gain(seed, n));
        let amortized = |gm: &GainMatrix, narrow: bool| {
            let ev = NetworkEvaluator::amortized_from_gain(gm, &params);
            let NetworkEvaluator::Amortized(inner) = &ev else {
                unreachable!("below the crossover")
            };
            assert_eq!(inner.is_narrow(), narrow);
            ev
        };
        for (name, fresh) in [
            ("Dense", NetworkEvaluator::from_gain(&near, &params)),
            (
                "Sparse",
                NetworkEvaluator::Sparse(SparseSuccessEvaluator::new(&near, &params, 1e-2)),
            ),
            ("Amortized", amortized(&near, false)),
            ("Amortized (narrow)", amortized(&far, true)),
        ] {
            let (mut switched, mut reference) = (fresh.clone(), fresh);
            let mut from = Vec::new();
            for &(kind, mask) in &steps {
                let to = next_set(&from, kind, mask, n);
                switched.switch_transmit_set(&from, &to);
                flip_by_flip(&mut reference, &from, &to);
                prop_assert_eq!(&switched, &reference, "{}: {:?} -> {:?}", name, from, to);
                for i in 0..n {
                    prop_assert_eq!(
                        switched.conditional_success_probability(i).to_bits(),
                        reference.conditional_success_probability(i).to_bits(),
                        "{}: link {} after {:?} -> {:?}", name, i, from, to
                    );
                    prop_assert_eq!(
                        switched.success_probability(i).to_bits(),
                        reference.success_probability(i).to_bits(),
                        "{}: link {}", name, i
                    );
                }
                from = to;
            }
        }
    }

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
    /// same state, bit for bit, and both match scratch — including
    /// q_j = ±0, 1e-12, 1 − 1e-12 and 1 entries. `set_uniform(q)` likewise
    /// lands on the state of n `set_prob(j, q)` calls.
    #[test]
    fn bulk_and_incremental_agree(
        seed in any::<u64>(),
        probs in proptest::collection::vec(edge_prob(), 10),
        q in edge_prob(),
    ) {
        let n = 10;
        let gm = random_gain(seed, n);
        let params = SinrParams::new(2.0, 2.5, 0.0);
        let mut bulk = SuccessEvaluator::new(&gm, &params);
        bulk.set_probs(&probs);
        let mut steps = SuccessEvaluator::new(&gm, &params);
        for (j, &p) in probs.iter().enumerate() {
            steps.set_prob(j, p);
        }
        prop_assert_eq!(&bulk, &steps, "set_probs({:?})", probs);
        prop_assert_eq!(bits(bulk.probs()), bits(steps.probs()), "probs() of {:?}", probs);
        let want = success_probabilities(&gm, &params, &probs);
        for (i, &w) in want.iter().enumerate() {
            prop_assert!((bulk.success_probability(i) - w).abs() < 1e-12);
            prop_assert!((steps.success_probability(i) - w).abs() < 1e-12);
        }

        let mut uniform = SuccessEvaluator::new(&gm, &params);
        uniform.set_uniform(q);
        let mut steps = SuccessEvaluator::new(&gm, &params);
        for j in 0..n {
            steps.set_prob(j, q);
        }
        prop_assert_eq!(&uniform, &steps, "set_uniform({:e})", q);
        prop_assert_eq!(bits(uniform.probs()), bits(steps.probs()), "probs() at q = {:e}", q);
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
