//! Slot-churn-amortized Theorem 1 products with exact rebuild equality.
//!
//! The dynamic slot loop flips a handful of links in and out of the
//! transmit set every slot and then needs every receiver's interference
//! product again. [`SuccessAccumulator`](crate::SuccessAccumulator)
//! already makes one flip O(n), but its float log-sums are *order
//! dependent*: a product reached through a churn history differs in the
//! last ulps from the same product rebuilt from scratch, so "persistent
//! accumulator ≡ fresh rebuild" cannot be checked bitwise — exactly the
//! invariant a differential conformance harness wants.
//!
//! [`AmortizedAccumulator`] removes the order dependence by accumulating
//! *quantized* logarithms in 64-bit integers: each Theorem 1 factor
//! `1 − ρ(j→i)·q_j` contributes `round(ln(factor) · 2³⁸)`, and integer
//! addition is exact, associative, and commutative, so any churn history
//! that ends in the same probability vector lands on the *same bits* as a
//! from-scratch rebuild. The quantization costs at most `0.5 / 2³⁸`
//! absolute error in the log per factor (≈ 1.8·10⁻¹² relative per
//! factor, `n`× that per product) — far inside the 1e-9 conformance
//! tolerance at check sizes and statistically invisible to the Bernoulli
//! sampling the analytic slot resolver does with these probabilities.
//!
//! Layout is *sender-major* (the transpose of
//! [`InterferenceRatios`]): the full-activation log row of sender `j`
//! against every receiver is contiguous, so the common slot operations —
//! `insert(j)` / `remove(j)` on queue churn — are a single linear pass
//! over one row: a loop of plain i64 adds for `insert`, a loop of plain
//! i64 subtracts for `remove`. Neither multiplies: baseline x86-64
//! (SSE2) has packed 64-bit adds and subtracts (`paddq`, `psubq`) but no
//! packed 64-bit multiply, so one `acc += sign · row` loop vectorizes
//! with each multiply built from three 32-bit `pmuludq` partial products
//! plus shifts and adds, and takes about twice as long per row (criterion
//! `evaluator/amortized_flip`). The from-scratch
//! [`set_probs`](AmortizedAccumulator::set_probs) rebuild accumulates
//! row-blocks the same way instead of striding the receiver-major matrix.
//!
//! Because the sums are exact integers, a caller moving from one transmit
//! set to another may either churn (one row pass per flipped link) or
//! [`reset`](AmortizedAccumulator::reset) and insert the new set (one row
//! pass per new transmitter, plus an O(n) clear) and land on the same
//! bits. The analytic slot resolver does the cheaper of the two
//! (`rayfade_core::NetworkEvaluator::switch_transmit_set`), so a slot
//! costs O(min(flips, k)·n) for k transmitters instead of O(flips·n).
//!
//! Capacity: nonzero factors are at least `2⁻⁵³` (the smallest gap below
//! 1.0), so one quantized log is at most `53·ln 2·2³⁸ ≈ 1.0·10¹³` in
//! magnitude. A receiver's sum therefore cannot overflow `i64` unless
//! more than `i64::MAX / (53·ln 2·2³⁸) ≈ 9.1·10⁵` senders all contribute
//! that worst case at it, and at that n the n² `i64` table alone would
//! need ≈ 6.7 TB. This type is routed only below the sparse crossover.

use crate::gain::GainMatrix;
use crate::params::SinrParams;
use crate::ratio::InterferenceRatios;
use serde::{Deserialize, Serialize};

/// Fixed-point scale of the quantized logarithms: 2³⁸.
const LOG_SCALE: f64 = (1u64 << 38) as f64;

/// Quantized log of the Theorem 1 factor `1 − ρ·q`, or `None` when the
/// factor is exactly zero (tracked by count, never accumulated).
#[inline]
fn quantized_log_factor(rho: f64, q: f64) -> Option<i64> {
    let factor = 1.0 - rho * q;
    debug_assert!(factor >= 0.0, "ρ·q must not exceed 1");
    if factor == 0.0 {
        None
    } else {
        Some((factor.ln() * LOG_SCALE).round() as i64)
    }
}

/// Churn-amortized per-receiver Theorem 1 products over integer-quantized
/// logs (see the [module docs](self) for the exactness argument).
///
/// Methods take the same [`InterferenceRatios`] the accumulator was built
/// from, mirroring the [`SuccessAccumulator`](crate::SuccessAccumulator)
/// convention; the constructor additionally precomputes the sender-major
/// full-activation log rows that make [`insert`](Self::insert) /
/// [`remove`](Self::remove) a contiguous row add.
///
/// Equality compares the semantic state (probabilities, integer sums,
/// zero counts): two accumulators that agree were driven to the same
/// probability vector, regardless of the churn order — the invariant the
/// `amortized-ratios` conformance check certifies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmortizedAccumulator {
    n: usize,
    /// Sender-major quantized logs at full activation:
    /// `qlog[j·n + i] = round(ln(1 − ρ(j→i)) · 2³⁸)`, 0 on the diagonal
    /// and wherever the factor is 1 or exactly 0 (the latter tracked in
    /// [`Self::zero_receivers`]).
    qlog: Vec<i64>,
    /// Per sender `j`: receivers whose full-activation factor is exactly
    /// zero (`ρ(j→i) = 1`), excluded from `qlog`.
    zero_receivers: Vec<Vec<u32>>,
    /// Current transmission probabilities.
    q: Vec<f64>,
    /// Per-receiver `Σ` quantized logs over senders with `q_j > 0` and a
    /// nonzero factor.
    acc: Vec<i64>,
    /// Number of exactly-zero factors at each receiver.
    zeros: Vec<u32>,
}

impl AmortizedAccumulator {
    /// Precomputes the sender-major log rows — O(n²), once per ratio
    /// cache. All probabilities start at 0.
    pub fn new(ratios: &InterferenceRatios) -> Self {
        let n = ratios.len();
        let mut qlog = vec![0i64; n * n];
        let mut zero_receivers = vec![Vec::new(); n];
        for i in 0..n {
            let row = ratios.at_receiver(i);
            for (j, &rho) in row.iter().enumerate() {
                if rho == 0.0 {
                    continue;
                }
                match quantized_log_factor(rho, 1.0) {
                    Some(ql) => qlog[j * n + i] = ql,
                    None => zero_receivers[j].push(i as u32),
                }
            }
        }
        AmortizedAccumulator {
            n,
            qlog,
            zero_receivers,
            q: vec![0.0; n],
            acc: vec![0i64; n],
            zeros: vec![0u32; n],
        }
    }

    /// Convenience: builds the ratio cache and the accumulator together.
    pub fn from_gain(gain: &GainMatrix, params: &SinrParams) -> (InterferenceRatios, Self) {
        let ratios = InterferenceRatios::new(gain, params);
        let acc = AmortizedAccumulator::new(&ratios);
        (ratios, acc)
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the instance has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current transmission probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.q
    }

    /// Current transmission probability of link `j`.
    #[inline]
    pub fn prob(&self, j: usize) -> f64 {
        self.q[j]
    }

    /// Resets every probability to 0 — O(n).
    pub fn reset(&mut self) {
        self.q.fill(0.0);
        self.acc.fill(0);
        self.zeros.fill(0);
    }

    /// Adds (`sign = +1`) or retires (`sign = -1`) sender `j`'s
    /// contribution at probability `q`. The full-activation fast path is
    /// one contiguous row add or subtract (no multiply, see the
    /// [module docs](self)); fractional probabilities quantize the row on
    /// the fly (same deterministic f64 → i64 map either way, so a retire
    /// always cancels its apply exactly).
    fn accumulate(&mut self, ratios: &InterferenceRatios, j: usize, q: f64, sign: i64) {
        if q == 0.0 {
            return;
        }
        if q == 1.0 {
            let row = &self.qlog[j * self.n..(j + 1) * self.n];
            if sign > 0 {
                for (a, &ql) in self.acc.iter_mut().zip(row) {
                    *a += ql;
                }
            } else {
                for (a, &ql) in self.acc.iter_mut().zip(row) {
                    *a -= ql;
                }
            }
            for &i in &self.zero_receivers[j] {
                let i = i as usize;
                self.zeros[i] = (self.zeros[i] as i64 + sign) as u32;
            }
            return;
        }
        for i in 0..self.n {
            let rho = ratios.rho(j, i);
            if rho == 0.0 {
                continue;
            }
            match quantized_log_factor(rho, q) {
                Some(ql) => self.acc[i] += sign * ql,
                None => self.zeros[i] = (self.zeros[i] as i64 + sign) as u32,
            }
        }
    }

    /// Changes one probability — O(n), a row add per side.
    pub fn set_prob(&mut self, ratios: &InterferenceRatios, j: usize, q: f64) {
        debug_assert_eq!(ratios.len(), self.n, "ratio cache mismatch");
        assert!((0.0..=1.0).contains(&q), "probability out of range");
        let old = self.q[j];
        if old == q {
            return;
        }
        self.accumulate(ratios, j, old, -1);
        self.accumulate(ratios, j, q, 1);
        self.q[j] = q;
    }

    /// Sets `q_j = 1` (link joins the transmit set) — the slot-churn fast
    /// path: one contiguous i64 row add.
    pub fn insert(&mut self, ratios: &InterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 1.0);
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    pub fn remove(&mut self, ratios: &InterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 0.0);
    }

    /// Replaces the whole probability vector: reset plus a blocked
    /// sender-major rebuild (one row accumulation per active sender, in
    /// index order). Lands on exactly the bits any churn history ending
    /// in `probs` lands on.
    pub fn set_probs(&mut self, ratios: &InterferenceRatios, probs: &[f64]) {
        assert_eq!(probs.len(), self.n, "probability vector length mismatch");
        self.reset();
        for (j, &q) in probs.iter().enumerate() {
            assert!((0.0..=1.0).contains(&q), "probability out of range");
            self.accumulate(ratios, j, q, 1);
            self.q[j] = q;
        }
    }

    /// Interference product `Π_{j≠i, q_j>0} (1 − ρ(j→i)·q_j)` of receiver
    /// `i`, up to log-quantization (module docs).
    #[inline]
    pub fn interference_product(&self, i: usize) -> f64 {
        if self.zeros[i] > 0 {
            0.0
        } else {
            (self.acc[i] as f64 / LOG_SCALE).exp()
        }
    }

    /// Theorem 1 success probability of link `i` under the current
    /// probability vector.
    pub fn success_probability(&self, ratios: &InterferenceRatios, i: usize) -> f64 {
        self.q[i] * self.conditional_success_probability(ratios, i)
    }

    /// Success probability of link `i` conditioned on transmitting
    /// (`q_i` read as 1; `i`'s own diagonal ratio is 0, so its factor
    /// never enters its own product). This is the exact Bernoulli
    /// parameter of the analytic slot resolver — for active links the
    /// realized success, for idle links the counterfactual one.
    #[inline]
    pub fn conditional_success_probability(&self, ratios: &InterferenceRatios, i: usize) -> f64 {
        ratios.noise_factor(i) * self.interference_product(i)
    }

    /// All Theorem 1 success probabilities — O(n).
    pub fn success_probabilities(&self, ratios: &InterferenceRatios) -> Vec<f64> {
        (0..self.n)
            .map(|i| self.success_probability(ratios, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::SuccessAccumulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ratios4() -> InterferenceRatios {
        let gm = GainMatrix::from_raw(
            4,
            vec![
                10.0, 2.0, 1.0, 0.0, //
                2.0, 8.0, 0.5, 1.0, //
                1.0, 0.5, 12.0, 3.0, //
                0.0, 1.0, 3.0, 9.0,
            ],
        );
        InterferenceRatios::new(&gm, &SinrParams::new(2.0, 1.5, 0.2))
    }

    #[test]
    fn matches_float_accumulator_within_quantization() {
        let ratios = ratios4();
        let mut amortized = AmortizedAccumulator::new(&ratios);
        let mut float = SuccessAccumulator::new(4);
        let probs = [0.7, 0.0, 1.0, 0.3];
        amortized.set_probs(&ratios, &probs);
        float.set_probs(&ratios, &probs);
        for i in 0..4 {
            let a = amortized.success_probability(&ratios, i);
            let f = float.success_probability(&ratios, i);
            assert!(
                (a - f).abs() <= 1e-10 * f.max(1e-12),
                "link {i}: {a} vs {f}"
            );
            let ac = amortized.conditional_success_probability(&ratios, i);
            let fc = float.conditional_success_probability(&ratios, i);
            assert!((ac - fc).abs() <= 1e-10 * fc.max(1e-12), "link {i}");
        }
    }

    #[test]
    fn churn_is_bit_equal_to_rebuild() {
        let ratios = ratios4();
        let mut churned = AmortizedAccumulator::new(&ratios);
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..200 {
            let j = rng.gen_range(0..4usize);
            match rng.gen_range(0..4) {
                0 => churned.insert(&ratios, j),
                1 => churned.remove(&ratios, j),
                2 => churned.set_prob(&ratios, j, rng.gen::<f64>()),
                _ => churned.set_prob(&ratios, j, [0.0, 1.0, 1e-12, 1.0 - 1e-12][step % 4]),
            }
            let mut rebuilt = AmortizedAccumulator::new(&ratios);
            rebuilt.set_probs(&ratios, churned.probs());
            assert_eq!(churned, rebuilt, "step {step}: churn diverged from rebuild");
        }
    }

    #[test]
    fn zero_factors_round_trip_exactly() {
        // Overwhelming cross gain drives ρ(0→1) to round to exactly 1,
        // so sender 0's factor at receiver 1 is exactly 0 at q = 1 — the
        // zero-count path must round-trip bitwise, product included.
        let gm = GainMatrix::from_raw(2, vec![1.0, 1e-30, 1e300, 1.0]);
        let ratios = InterferenceRatios::new(&gm, &SinrParams::new(2.0, 1.0, 0.0));
        assert_eq!(ratios.rho(0, 1), 1.0, "crafted exact-1 ratio");
        let mut acc = AmortizedAccumulator::new(&ratios);
        let fresh = acc.clone();
        acc.insert(&ratios, 0);
        assert_eq!(acc.conditional_success_probability(&ratios, 1), 0.0);
        acc.insert(&ratios, 1);
        acc.remove(&ratios, 0);
        assert!(acc.conditional_success_probability(&ratios, 1) > 0.0);
        acc.remove(&ratios, 1);
        assert_eq!(acc, fresh, "full churn cycle must return to the start");
    }

    #[test]
    fn mask_flip_fast_path_equals_fractional_path() {
        let ratios = ratios4();
        let mut via_insert = AmortizedAccumulator::new(&ratios);
        via_insert.insert(&ratios, 2);
        let mut via_set = AmortizedAccumulator::new(&ratios);
        via_set.set_prob(&ratios, 2, 0.5);
        via_set.set_prob(&ratios, 2, 1.0);
        assert_eq!(via_insert, via_set);
    }

    #[test]
    fn empty_set_gives_noise_only_probabilities() {
        let ratios = ratios4();
        let acc = AmortizedAccumulator::new(&ratios);
        for i in 0..4 {
            assert_eq!(acc.success_probability(&ratios, i), 0.0, "q_i = 0");
            assert_eq!(
                acc.conditional_success_probability(&ratios, i),
                ratios.noise_factor(i),
                "no interference: conditional success is the noise factor"
            );
        }
    }

    #[test]
    fn set_probs_matches_sequential_set_prob() {
        let ratios = ratios4();
        let probs = [0.25, 1.0, 0.0, 0.9];
        let mut bulk = AmortizedAccumulator::new(&ratios);
        bulk.set_probs(&ratios, &probs);
        let mut seq = AmortizedAccumulator::new(&ratios);
        for (j, &q) in probs.iter().enumerate() {
            seq.set_prob(&ratios, j, q);
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.probs(), &probs);
    }
}
