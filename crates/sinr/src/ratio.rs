//! Cached interference ratios for the Theorem 1 closed form.
//!
//! Theorem 1 evaluates, for every receiver `i`, the product
//! `Π_{j≠i} (1 − β·q_j / (β + S̄_{i,i}/S̄_{j,i}))` times the noise factor
//! `exp(−β·ν / S̄_{i,i})`. Both the per-pair ratio
//!
//! ```text
//! ρ(j → i) = β / (β + S̄_{i,i}/S̄_{j,i})
//! ```
//!
//! and the noise factor depend only on `(GainMatrix, SinrParams)` — not on
//! the transmission probabilities — so hot paths that re-evaluate the
//! closed form while the probability vector changes one entry at a time
//! (greedy capacity re-scoring, game rounds, dynamic slot scheduling)
//! should precompute them once. [`InterferenceRatios`] is that cache, and
//! [`SuccessAccumulator`] maintains the per-receiver interference products
//! incrementally: toggling one sender updates every affected product in
//! O(n) instead of recomputing all of them in O(n²).
//!
//! # One accumulator, two tables
//!
//! [`SuccessAccumulator`] reads its ratios through the [`RatioTable`]
//! trait, which this dense cache and the ε-truncated CSR
//! [`SparseInterferenceRatios`](crate::sparse::SparseInterferenceRatios)
//! both implement. Each receiver keeps `Σ ln(1 − ρ·q_j)`; adding or
//! removing a sender adds or subtracts one logarithm. Sums are immune to
//! underflow (a product of 10⁵ factors of `0.99` underflows no
//! accumulator), but every query pays one `exp` and long add/remove
//! sequences accumulate rounding at ~1 ulp of the *sum* per operation —
//! still far inside 1e-12 for realistic magnitudes. Both tables hand over
//! a sender's ratios in ascending receiver order, so a sparse table that
//! dropped nothing (`δ = 0`) gives the dense table's bits.
//!
//! Factors that are exactly zero (possible when `ρ·q` rounds to 1) are
//! excluded from the sums and tracked by count, so removing the offending
//! sender restores the exact nonzero product instead of taking the
//! logarithm of zero.
//!
//! This module is deliberately model-agnostic plumbing: the Rayleigh
//! semantics (Theorem 1 itself) live in `rayfade-core`, whose
//! evaluators wrap these types; they are exposed here so the
//! non-fading algorithm layer (`rayfade-sched`) can reuse the same cache
//! without a dependency cycle.

use crate::gain::GainMatrix;
use crate::params::SinrParams;
use serde::{Deserialize, Serialize};

/// Compensated (Kahan–Neumaier) summation.
///
/// Sums magnitudes that differ by many orders without losing the small
/// terms: the error of a 10⁴-term naive sum is `O(n·ε·Σ|x|)`, while the
/// compensated sum is exact to the final rounding. Used by
/// `rayfade-core`'s `expected_successes` and the batch evaluators.
pub fn kahan_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for x in values {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Precomputed interference ratios `ρ(j → i)` and noise factors for one
/// `(GainMatrix, SinrParams)` pair.
///
/// Stored receiver-major like [`GainMatrix`]: all ratios of senders onto
/// receiver `i` are contiguous. A receiver with zero own signal gets an
/// all-zero row and a zero noise factor (its success probability is zero
/// regardless of interference); a zero cross gain `S̄_{j,i} = 0`
/// contributes ratio 0 (its Theorem 1 factor is 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceRatios {
    n: usize,
    beta: f64,
    /// `rho[i * n + j] = ρ(j → i)`; diagonal entries are 0.
    rho: Vec<f64>,
    /// `noise[i] = exp(−β·ν/S̄_{i,i})`, or 0 when `S̄_{i,i} = 0`.
    noise: Vec<f64>,
}

impl InterferenceRatios {
    /// Precomputes the ratio matrix and noise factors — O(n²), done once
    /// per gain matrix.
    pub fn new(gain: &GainMatrix, params: &SinrParams) -> Self {
        let n = gain.len();
        let beta = params.beta;
        let mut rho = vec![0.0; n * n];
        let mut noise = vec![0.0; n];
        for i in 0..n {
            let s_ii = gain.signal(i);
            if s_ii == 0.0 {
                continue; // dead receiver: zero row, zero noise factor
            }
            noise[i] = (-beta * params.noise / s_ii).exp();
            let row = gain.at_receiver(i);
            let out = &mut rho[i * n..(i + 1) * n];
            for (j, (&s_ji, slot)) in row.iter().zip(out.iter_mut()).enumerate() {
                if j == i || s_ji == 0.0 {
                    continue;
                }
                // Same guarded form as the scratch evaluation: s_ii/s_ji
                // may overflow to +inf for tiny s_ji, giving ratio 0.
                *slot = beta / (beta + s_ii / s_ji);
            }
        }
        // A deliberately wrong fast path for validating the conformance
        // harness end-to-end: every cached ratio is scaled by 0.999, so
        // cached evaluation diverges from the Theorem 1 formulas at ~1e-3
        // while the scratch (uncached) path stays correct. Never enabled
        // in normal builds; see TESTING.md.
        #[cfg(feature = "inject-bug")]
        for r in rho.iter_mut() {
            *r *= 0.999;
        }
        InterferenceRatios {
            n,
            beta,
            rho,
            noise,
        }
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

    /// The SINR threshold `β` the ratios were built with.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Ratio `ρ(j → i)` of sender `j` at receiver `i`.
    #[inline]
    pub fn rho(&self, j: usize, i: usize) -> f64 {
        self.rho[i * self.n + j]
    }

    /// All sender ratios at receiver `i` (contiguous, sender-indexed).
    #[inline]
    pub fn at_receiver(&self, i: usize) -> &[f64] {
        &self.rho[i * self.n..(i + 1) * self.n]
    }

    /// Noise factor `exp(−β·ν/S̄_{i,i})` of link `i` (0 for a dead link).
    #[inline]
    pub fn noise_factor(&self, i: usize) -> f64 {
        self.noise[i]
    }

    /// Theorem 1 factor `1 − ρ(j → i)·q_j` of sender `j` at receiver `i`.
    #[inline]
    pub fn factor(&self, j: usize, i: usize, q_j: f64) -> f64 {
        1.0 - self.rho(j, i) * q_j
    }
}

/// A Theorem 1 ratio table that [`SuccessAccumulator`] evaluates over:
/// the dense [`InterferenceRatios`] or the ε-truncated CSR
/// [`SparseInterferenceRatios`](crate::sparse::SparseInterferenceRatios).
pub trait RatioTable {
    /// Number of links.
    fn len(&self) -> usize;

    /// Whether the table has no links.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Noise factor `exp(−β·ν/S̄_{i,i})` of link `i` (0 for a dead link).
    fn noise_factor(&self, i: usize) -> f64;

    /// Certified truncated log-mass `τᵢ` at receiver `i`: the exact
    /// Theorem 1 probability lies in `[p·e^{−τᵢ}, p]` around the value `p`
    /// evaluated on this table. 0 on a table that drops nothing.
    fn tau(&self, i: usize) -> f64;

    /// Sender `j`'s ratios as `(i, ρ(j → i))` pairs, in ascending receiver
    /// order. A table may hand over zero ratios, which consumers skip; the
    /// ratios come by reference so that a consumer skipping receiver `i`
    /// for another reason never reads one.
    fn sender_ratios(&self, j: usize) -> impl Iterator<Item = (usize, &f64)> + '_;
}

impl RatioTable for InterferenceRatios {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn noise_factor(&self, i: usize) -> f64 {
        self.noise[i]
    }

    /// Always 0: the dense table keeps every ratio.
    #[inline]
    fn tau(&self, _i: usize) -> f64 {
        0.0
    }

    /// Column `j` of the receiver-major matrix, zeros (the diagonal among
    /// them) included: a strided walk whose loads a consumer only pays
    /// for the receivers it reads.
    #[inline]
    fn sender_ratios(&self, j: usize) -> impl Iterator<Item = (usize, &f64)> + '_ {
        assert!(j < self.n, "sender {j} out of range");
        self.rho[j..].iter().step_by(self.n).enumerate()
    }
}

/// Incrementally maintained per-receiver interference products for a
/// changing transmission-probability vector.
///
/// The accumulator stores the current probabilities `q` and, per receiver
/// `i`, the log-domain sum `Σ_{j≠i, q_j>0} ln(1 − ρ(j→i)·q_j)` over the
/// nonzero factors. Changing one `q_j` ([`set_prob`](Self::set_prob),
/// [`insert`](Self::insert), [`remove`](Self::remove)) updates the
/// receivers of sender `j` only: O(n) on the dense table, O(deg j) on the
/// sparse one. All methods take the [`RatioTable`] the accumulator was
/// sized for; callers keep the two together (the `rayfade-core`
/// evaluators bundle them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessAccumulator {
    /// Current transmission probabilities.
    q: Vec<f64>,
    /// Per-receiver `Σ ln(factor)` over nonzero factors.
    acc: Vec<f64>,
    /// Number of exactly-zero factors at each receiver (the product is 0
    /// while any exist, but they never enter `acc`).
    zeros: Vec<u32>,
}

impl SuccessAccumulator {
    /// Empty accumulator (all probabilities 0) for `n` links.
    pub fn new(n: usize) -> Self {
        SuccessAccumulator {
            q: vec![0.0; n],
            acc: vec![0.0; n],
            zeros: vec![0; n],
        }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the accumulator tracks no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Current transmission probability of link `j`.
    #[inline]
    pub fn prob(&self, j: usize) -> f64 {
        self.q[j]
    }

    /// Current transmission probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.q
    }

    /// Resets every probability to 0 — O(n), no reallocation.
    pub fn reset(&mut self) {
        for ((q, acc), z) in self.q.iter_mut().zip(&mut self.acc).zip(&mut self.zeros) {
            *q = 0.0;
            *acc = 0.0;
            *z = 0;
        }
    }

    /// Sets the whole probability vector — one [`set_prob`](Self::set_prob)
    /// per nonzero entry: O(n²) dense, O(nnz) sparse.
    ///
    /// # Panics
    /// If lengths mismatch or any probability is outside `[0, 1]`.
    pub fn set_probs<R: RatioTable>(&mut self, ratios: &R, probs: &[f64]) {
        assert_eq!(probs.len(), self.q.len(), "one probability per link");
        self.reset();
        for (j, &p) in probs.iter().enumerate() {
            if p != 0.0 {
                self.set_prob(ratios, j, p);
            }
        }
    }

    /// Sets every probability to the same value `q`: O(n²) dense, O(nnz)
    /// sparse.
    pub fn set_uniform<R: RatioTable>(&mut self, ratios: &R, q: f64) {
        self.reset();
        if q != 0.0 {
            for j in 0..self.q.len() {
                self.set_prob(ratios, j, q);
            }
        }
    }

    /// Changes `q_j`, updating the sums of the receivers sender `j` has a
    /// ratio at.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]` or `j` is out of range.
    pub fn set_prob<R: RatioTable>(&mut self, ratios: &R, j: usize, q_new: f64) {
        assert!(
            (0.0..=1.0).contains(&q_new),
            "probabilities must lie in [0, 1]"
        );
        assert_eq!(ratios.len(), self.q.len(), "ratio cache size mismatch");
        let q_old = self.q[j];
        if q_old == q_new {
            return;
        }
        self.q[j] = q_new;
        for (i, &rho) in ratios.sender_ratios(j) {
            // A zero ratio gives old = new = 1 and is skipped below.
            let old = if q_old == 0.0 { 1.0 } else { 1.0 - rho * q_old };
            let new = if q_new == 0.0 { 1.0 } else { 1.0 - rho * q_new };
            if old == new {
                continue;
            }
            // Retire the old factor.
            if old == 0.0 {
                self.zeros[i] -= 1;
            } else if old != 1.0 {
                self.acc[i] -= old.ln();
            }
            // Apply the new factor.
            if new == 0.0 {
                self.zeros[i] += 1;
            } else if new != 1.0 {
                self.acc[i] += new.ln();
            }
        }
    }

    /// Sets `q_j = 1` (link joins the transmit set).
    #[inline]
    pub fn insert<R: RatioTable>(&mut self, ratios: &R, j: usize) {
        self.set_prob(ratios, j, 1.0);
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    #[inline]
    pub fn remove<R: RatioTable>(&mut self, ratios: &R, j: usize) {
        self.set_prob(ratios, j, 0.0);
    }

    /// The interference product `Π_{j≠i, q_j>0} (1 − ρ(j→i)·q_j)` at
    /// receiver `i` — O(1), one `exp`.
    #[inline]
    pub fn interference_product(&self, i: usize) -> f64 {
        if self.zeros[i] > 0 {
            return 0.0;
        }
        self.acc[i].exp()
    }

    /// Success probability of link `i` under the current probabilities
    /// (Theorem 1): `q_i · noise_i · Π factors` — O(1). On a truncated
    /// table this is the upper end of the certified interval.
    #[inline]
    pub fn success_probability<R: RatioTable>(&self, ratios: &R, i: usize) -> f64 {
        let q_i = self.q[i];
        if q_i == 0.0 {
            return 0.0;
        }
        q_i * ratios.noise_factor(i) * self.interference_product(i)
    }

    /// Success probability of link `i` *conditioned on transmitting*
    /// (`q_i` overridden to 1; interference unchanged) — O(1). This is the
    /// quantity behind the Section 6 expected reward `2·Q_i − 1`.
    #[inline]
    pub fn conditional_success_probability<R: RatioTable>(&self, ratios: &R, i: usize) -> f64 {
        ratios.noise_factor(i) * self.interference_product(i)
    }

    /// Certified interval `[p·e^{−τᵢ}, p]` containing the exact Theorem 1
    /// probability of link `i`, where `p` is
    /// [`success_probability`](Self::success_probability); collapsed to
    /// `[p, p]` where `τᵢ = 0`.
    #[inline]
    pub fn success_interval<R: RatioTable>(&self, ratios: &R, i: usize) -> (f64, f64) {
        let hi = self.success_probability(ratios, i);
        (hi * (-ratios.tau(i)).exp(), hi)
    }

    /// All success probabilities — O(n).
    pub fn success_probabilities<R: RatioTable>(&self, ratios: &R) -> Vec<f64> {
        (0..self.q.len())
            .map(|i| self.success_probability(ratios, i))
            .collect()
    }

    /// Expected number of successes `Σ_i Q_i` under the current
    /// probabilities — O(n), compensated summation.
    pub fn expected_successes<R: RatioTable>(&self, ratios: &R) -> f64 {
        kahan_sum((0..self.q.len()).map(|i| self.success_probability(ratios, i)))
    }

    /// Certified interval containing the exact expected number of
    /// successes: lower and upper compensated sums of the per-link
    /// intervals.
    pub fn expected_successes_interval<R: RatioTable>(&self, ratios: &R) -> (f64, f64) {
        let lo = kahan_sum((0..self.q.len()).map(|i| self.success_interval(ratios, i).0));
        (lo, self.expected_successes(ratios))
    }

    /// Change in *weighted* expected successes `Σ_i w_i·Q_i` if the
    /// currently-silent link `j` were activated (`q_j: 0 → 1`), without
    /// mutating the accumulator:
    ///
    /// `Δ = w_j·Q_j|_{q_j=1} − Σ_{i≠j} w_i·Q_i·ρ(j→i)`
    ///
    /// (activating `j` multiplies every other `Q_i` by `1 − ρ(j→i)`), the
    /// loss summed in ascending receiver order. `weights = None` means unit
    /// weights. This is the greedy re-scoring primitive: one candidate
    /// costs O(n) dense, O(deg j) sparse, instead of the O(n²)
    /// from-scratch evaluation.
    ///
    /// # Panics
    /// If link `j` is not currently silent (`q_j ≠ 0`).
    pub fn activation_gain<R: RatioTable>(
        &self,
        ratios: &R,
        weights: Option<&[f64]>,
        j: usize,
    ) -> f64 {
        assert_eq!(self.q[j], 0.0, "activation_gain requires a silent link");
        let w = |i: usize| weights.map_or(1.0, |w| w[i]);
        let own = w(j) * self.conditional_success_probability(ratios, j);
        let mut lost = 0.0;
        for (i, rho) in ratios.sender_ratios(j) {
            // Silent receivers lose nothing; test q first so that their
            // ratios are never read.
            if self.q[i] != 0.0 && *rho != 0.0 {
                lost += w(i) * self.success_probability(ratios, i) * rho;
            }
        }
        own - lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratios2() -> (GainMatrix, SinrParams, InterferenceRatios) {
        let gm = GainMatrix::from_raw(2, vec![10.0, 2.0, 2.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let r = InterferenceRatios::new(&gm, &params);
        (gm, params, r)
    }

    /// Scratch Theorem 1 evaluation (the reference the accumulator must
    /// agree with).
    fn scratch(gm: &GainMatrix, params: &SinrParams, probs: &[f64], i: usize) -> f64 {
        let s_ii = gm.signal(i);
        if s_ii == 0.0 {
            return 0.0;
        }
        let beta = params.beta;
        let mut p = probs[i] * (-beta * params.noise / s_ii).exp();
        for (j, &q_j) in probs.iter().enumerate() {
            let s_ji = gm.gain(j, i);
            if j == i || q_j == 0.0 || s_ji == 0.0 {
                continue;
            }
            p *= 1.0 - beta * q_j / (beta + s_ii / s_ji);
        }
        p
    }

    #[test]
    fn ratio_values_match_formula() {
        let (_, _, r) = ratios2();
        // rho(1 -> 0) = beta / (beta + 10/2) = 2/7.
        assert!((r.rho(1, 0) - 2.0 / 7.0).abs() < 1e-15);
        assert_eq!(r.rho(0, 0), 0.0, "diagonal is zero");
        assert!((r.noise_factor(0) - (-0.02f64).exp()).abs() < 1e-15);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.at_receiver(0).len(), 2);
        assert!((r.factor(1, 0, 1.0) - (1.0 - 2.0 / 7.0)).abs() < 1e-15);
    }

    #[test]
    fn dead_and_disconnected_links_have_zero_entries() {
        let gm = GainMatrix::from_raw(2, vec![0.0, 5.0, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.5);
        let r = InterferenceRatios::new(&gm, &params);
        assert_eq!(r.noise_factor(0), 0.0, "dead receiver");
        assert_eq!(r.at_receiver(0), &[0.0, 0.0], "dead receiver row");
        assert_eq!(r.rho(0, 1), 0.0, "zero cross gain contributes ratio 0");
    }

    #[test]
    fn accumulator_matches_scratch() {
        let (gm, params, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.set_probs(&r, &[0.8, 0.6]);
        for i in 0..2 {
            let got = acc.success_probability(&r, i);
            let want = scratch(&gm, &params, &[0.8, 0.6], i);
            assert!((got - want).abs() < 1e-14, "link {i}: {got} vs {want}");
        }
    }

    #[test]
    fn incremental_updates_track_scratch() {
        let (gm, params, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.insert(&r, 0);
        acc.insert(&r, 1);
        acc.set_prob(&r, 1, 0.25);
        acc.remove(&r, 0);
        acc.set_prob(&r, 0, 0.5);
        let probs = [0.5, 0.25];
        for i in 0..2 {
            let got = acc.success_probability(&r, i);
            let want = scratch(&gm, &params, &probs, i);
            assert!((got - want).abs() < 1e-13, "link {i}");
        }
        assert_eq!(acc.probs(), &probs);
    }

    #[test]
    fn conditional_probability_ignores_own_q() {
        let (gm, params, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.set_probs(&r, &[0.0, 0.7]);
        let cond = acc.conditional_success_probability(&r, 0);
        let want = scratch(&gm, &params, &[1.0, 0.7], 0);
        assert!((cond - want).abs() < 1e-14);
        assert_eq!(acc.success_probability(&r, 0), 0.0, "silent link has Q=0");
    }

    #[test]
    fn activation_gain_matches_brute_force() {
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 2.0, 1.0, //
                2.0, 8.0, 0.5, //
                1.0, 0.5, 12.0,
            ],
        );
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let r = InterferenceRatios::new(&gm, &params);
        let mut acc = SuccessAccumulator::new(3);
        acc.insert(&r, 0);
        let before: f64 = (0..3)
            .map(|i| scratch(&gm, &params, &[1.0, 0.0, 0.0], i))
            .sum();
        let after: f64 = (0..3)
            .map(|i| scratch(&gm, &params, &[1.0, 0.0, 1.0], i))
            .sum();
        let gain = acc.activation_gain(&r, None, 2);
        assert!((gain - (after - before)).abs() < 1e-13, "{gain}");
        // Weighted version.
        let w = [2.0, 1.0, 3.0];
        let before_w: f64 = (0..3)
            .map(|i| w[i] * scratch(&gm, &params, &[1.0, 0.0, 0.0], i))
            .sum();
        let after_w: f64 = (0..3)
            .map(|i| w[i] * scratch(&gm, &params, &[1.0, 0.0, 1.0], i))
            .sum();
        let gain_w = acc.activation_gain(&r, Some(&w), 2);
        assert!((gain_w - (after_w - before_w)).abs() < 1e-13);
    }

    #[test]
    fn zero_factor_round_trips_through_removal() {
        // rho = beta/(beta + s_ii/s_ji) rounds to 1 when s_ii/s_ji is
        // denormal-small relative to beta; force a zero factor via a huge
        // cross gain.
        let gm = GainMatrix::from_raw(2, vec![1e-300, 1e300, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let r = InterferenceRatios::new(&gm, &params);
        assert_eq!(r.factor(1, 0, 1.0), 0.0, "factor must round to zero");
        let mut acc = SuccessAccumulator::new(2);
        acc.insert(&r, 0);
        acc.insert(&r, 1);
        assert_eq!(acc.success_probability(&r, 0), 0.0);
        acc.remove(&r, 1);
        let got = acc.success_probability(&r, 0);
        let want = scratch(&gm, &params, &[1.0, 0.0], 0);
        assert!((got - want).abs() < 1e-13, "{got} vs {want}");
    }

    #[test]
    fn reset_restores_empty_state() {
        let (_, _, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.set_probs(&r, &[1.0, 1.0]);
        acc.reset();
        assert_eq!(acc, SuccessAccumulator::new(2));
        assert_eq!(acc.expected_successes(&r), 0.0);
    }

    #[test]
    fn kahan_recovers_tiny_terms() {
        let mut values = vec![1.0f64];
        values.extend(std::iter::repeat_n(1e-16, 10_000));
        let naive: f64 = values.iter().sum();
        let comp = kahan_sum(values.iter().copied());
        let exact = 1.0 + 1e-12;
        assert_eq!(naive, 1.0, "naive summation drops every tiny term");
        assert!((comp - exact).abs() < 1e-24, "compensated sum {comp}");
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let (_, _, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.set_prob(&r, 0, 1.5);
    }

    #[test]
    #[should_panic(expected = "activation_gain requires a silent link")]
    fn activation_gain_rejects_active_link() {
        let (_, _, r) = ratios2();
        let mut acc = SuccessAccumulator::new(2);
        acc.insert(&r, 0);
        let _ = acc.activation_gain(&r, None, 0);
    }
}
