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
//! accumulator), but a query with interference pays one `exp` and long
//! add/remove sequences accumulate rounding at ~1 ulp of the *sum* per
//! operation — still far inside 1e-12 for realistic magnitudes.
//!
//! # Batch calls gather, churn scatters
//!
//! Churn ([`set_prob`](SuccessAccumulator::set_prob),
//! [`insert`](SuccessAccumulator::insert),
//! [`remove`](SuccessAccumulator::remove),
//! [`activation_gain`](SuccessAccumulator::activation_gain)) changes one
//! sender, so it walks that sender's ratios
//! ([`RatioTable::sender_ratios`]) and scatters one factor into each of
//! its receivers. The batch calls
//! ([`set_probs`](SuccessAccumulator::set_probs),
//! [`set_uniform`](SuccessAccumulator::set_uniform)) replace every
//! probability, so they walk each receiver's row instead
//! ([`RatioTable::receiver_ratios`]): one pass writes the receiver's log
//! sum and zero count, reading contiguous memory on both tables. Only the
//! receivers the table lists ([`RatioTable::interfered_receivers`]:
//! every receiver of the dense table, those with a non-empty row on the
//! sparse one) are walked. The others keep the exact 0 of an empty sum,
//! and the batch reads
//! ([`expected_successes`](SuccessAccumulator::expected_successes),
//! [`expected_successes_interval`](SuccessAccumulator::expected_successes_interval),
//! [`success_probabilities`](SuccessAccumulator::success_probabilities))
//! skip their product, which is exactly 1. Both walks give the same
//! bits. A batch call equals a reset followed by one `set_prob` per
//! sender in ascending order, and that scatter adds each receiver's
//! factors in ascending sender order — the order its row lists them in
//! — starting from the same 0. Both tables hand over a
//! sender's ratios in ascending receiver order and a receiver's in
//! ascending sender order, so a sparse table that dropped nothing
//! (`δ = 0`) gives the dense table's bits on either walk.
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

use crate::gain::{geometry_row, GainMatrix};
use crate::params::SinrParams;
use crate::power::PowerAssignment;
use rayfade_geometry::LinkGeometry;
use serde::{Deserialize, Serialize};

/// Compensated (Kahan–Neumaier) summation.
///
/// Sums magnitudes that differ by many orders without losing the small
/// terms: the error of a 10⁴-term naive sum is `O(n·ε·Σ|x|)`, while the
/// compensated sum is exact to the final rounding. Used by
/// `rayfade-core`'s `expected_successes` and the batch evaluators.
pub fn kahan_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = CompensatedSum::default();
    for x in values {
        sum.add(x);
    }
    sum.total()
}

/// The running state of [`kahan_sum`], for passes that feed several sums
/// at once.
#[derive(Default, Clone, Copy)]
struct CompensatedSum {
    sum: f64,
    comp: f64,
}

impl CompensatedSum {
    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.comp += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    #[inline]
    fn total(self) -> f64 {
        self.sum + self.comp
    }
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
        let mut rho = vec![0.0; n * n];
        let mut noise = vec![0.0; n];
        for (i, (out, noise_i)) in rho.chunks_exact_mut(n.max(1)).zip(&mut noise).enumerate() {
            *noise_i = ratio_row(i, gain.at_receiver(i), params, out);
        }
        Self::from_rows(n, params.beta, rho, noise)
    }

    /// The table [`new`](Self::new) builds over
    /// [`GainMatrix::from_geometry`], bit for bit, without the n² gain
    /// matrix: each receiver's gains are computed into one reused row of
    /// n values (with `from_geometry`'s expression and asserts) and turned
    /// into ratios at once. O(n²) time, 8·n² bytes for the table plus 8·n
    /// for the row.
    ///
    /// # Panics
    /// Where [`GainMatrix::from_geometry`] panics.
    pub fn from_geometry<G: LinkGeometry>(
        geometry: &G,
        power: &PowerAssignment,
        params: &SinrParams,
    ) -> Self {
        let n = geometry.len();
        let powers = power.powers(geometry, params.alpha);
        let mut gains = vec![0.0; n];
        let mut rho = vec![0.0; n * n];
        let mut noise = vec![0.0; n];
        for (i, (out, noise_i)) in rho.chunks_exact_mut(n.max(1)).zip(&mut noise).enumerate() {
            geometry_row(geometry, &powers, params.alpha, i, &mut gains);
            *noise_i = ratio_row(i, &gains, params, out);
        }
        Self::from_rows(n, params.beta, rho, noise)
    }

    /// Wraps the rows both constructors build.
    fn from_rows(n: usize, beta: f64, rho: Vec<f64>, noise: Vec<f64>) -> Self {
        // A deliberately wrong fast path for validating the conformance
        // harness end-to-end: every cached ratio is scaled by 0.999, so
        // cached evaluation diverges from the Theorem 1 formulas at ~1e-3
        // while the scratch (uncached) path stays correct. It sits here,
        // where both constructors pass, so it corrupts either route.
        // Never enabled in normal builds; see TESTING.md.
        #[cfg(feature = "inject-bug")]
        let rho: Vec<f64> = rho.into_iter().map(|r| r * 0.999).collect();
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

/// Writes receiver `i`'s ratios `ρ(j → i) = β / (β + S̄_{i,i}/S̄_{j,i})`
/// into `out` from its gains `gains[j] = S̄_{j,i}`, and returns its noise
/// factor `exp(−β·ν/S̄_{i,i})`. A dead receiver (`S̄_{i,i} = 0`) keeps an
/// all-zero row and gets a zero noise factor; the diagonal and zero cross
/// gains keep ratio 0.
fn ratio_row(i: usize, gains: &[f64], params: &SinrParams, out: &mut [f64]) -> f64 {
    let s_ii = gains[i];
    if s_ii == 0.0 {
        return 0.0;
    }
    let beta = params.beta;
    for (j, (&s_ji, slot)) in gains.iter().zip(out.iter_mut()).enumerate() {
        if j == i || s_ji == 0.0 {
            continue;
        }
        // Same guarded form as the scratch evaluation: s_ii/s_ji may
        // overflow to +inf for tiny s_ji, giving ratio 0.
        *slot = beta / (beta + s_ii / s_ji);
    }
    (-beta * params.noise / s_ii).exp()
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

    /// Certificate factor `e^{−τᵢ}` at receiver `i`, where `τᵢ` is the
    /// truncated log-mass: the exact Theorem 1 probability lies in
    /// `[p·e^{−τᵢ}, p]` around the value `p` evaluated on this table.
    /// 1 on a table that drops nothing.
    fn tau_factor(&self, i: usize) -> f64;

    /// Sender `j`'s ratios as `(i, ρ(j → i))` pairs, in ascending receiver
    /// order: the churn walk. A table may hand over zero ratios, which
    /// consumers skip; the ratios come by reference so that a consumer
    /// skipping receiver `i` for another reason never reads one.
    fn sender_ratios(&self, j: usize) -> impl Iterator<Item = (usize, &f64)> + '_;

    /// Receiver `i`'s ratios as `(j, ρ(j → i))` pairs, in ascending sender
    /// order: the batch walk. A table may hand over zero ratios, which
    /// consumers skip.
    fn receiver_ratios(&self, i: usize) -> impl Iterator<Item = (usize, &f64)> + '_;

    /// The receivers whose row can hold a ratio, in ascending order: the
    /// only ones whose interference the batch calls rebuild and read. A
    /// receiver left out must have an empty row and appear in no
    /// sender's ratios, so its interference product is the empty
    /// product, exactly 1. Listing a receiver whose row is empty is
    /// allowed. The default lists every receiver.
    fn interfered_receivers(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.len()
    }
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

    /// Always 1: the dense table keeps every ratio.
    #[inline]
    fn tau_factor(&self, _i: usize) -> f64 {
        1.0
    }

    /// Column `j` of the receiver-major matrix, zeros (the diagonal among
    /// them) included: a strided walk whose loads a consumer only pays
    /// for the receivers it reads.
    #[inline]
    fn sender_ratios(&self, j: usize) -> impl Iterator<Item = (usize, &f64)> + '_ {
        assert!(j < self.n, "sender {j} out of range");
        self.rho[j..].iter().step_by(self.n).enumerate()
    }

    /// Row `i` of the receiver-major matrix, zeros (the diagonal among
    /// them) included: a contiguous walk.
    #[inline]
    fn receiver_ratios(&self, i: usize) -> impl Iterator<Item = (usize, &f64)> + '_ {
        self.at_receiver(i).iter().enumerate()
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
/// sparse one. Replacing every `q_j` ([`set_probs`](Self::set_probs),
/// [`set_uniform`](Self::set_uniform)) rebuilds each interfered
/// receiver's sum from its row (see the [module docs](self)). All methods
/// take the [`RatioTable`] the accumulator was sized for; callers keep
/// the two together (the `rayfade-core` evaluators bundle them).
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

    /// Sets the whole probability vector, one pass over each receiver's
    /// row: O(n²) dense, O(n + nnz) sparse. The state has the bits of a
    /// [`reset`](Self::reset) followed by one [`set_prob`](Self::set_prob)
    /// per link in ascending order (a `−0.0` entry is stored as `+0.0`).
    ///
    /// # Panics
    /// If lengths mismatch or any probability is outside `[0, 1]`.
    pub fn set_probs<R: RatioTable>(&mut self, ratios: &R, probs: &[f64]) {
        assert_eq!(probs.len(), self.q.len(), "one probability per link");
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must lie in [0, 1]"
        );
        self.gather(ratios, |j| probs[j]);
    }

    /// Sets every probability to the same value `q`, one pass over each
    /// receiver's row: O(n²) dense, O(n + nnz) sparse, with the bits of
    /// `n` calls of [`set_prob`](Self::set_prob) after a reset.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn set_uniform<R: RatioTable>(&mut self, ratios: &R, q: f64) {
        assert!((0.0..=1.0).contains(&q), "probabilities must lie in [0, 1]");
        self.gather(ratios, |_| q);
    }

    /// Rewrites the whole state with `q(j)` the probability of link `j`:
    /// one pass writes every probability and an empty log sum and zero
    /// count, then each [interfered receiver](RatioTable::interfered_receivers)
    /// rebuilds its log sum and zero count from its row, whose factors
    /// enter in ascending sender order, the order the `set_prob` scatter
    /// adds them.
    fn gather<R: RatioTable>(&mut self, ratios: &R, q: impl Fn(usize) -> f64) {
        assert_eq!(ratios.len(), self.q.len(), "ratio cache size mismatch");
        let state = self.q.iter_mut().zip(&mut self.acc).zip(&mut self.zeros);
        for (j, ((q_j, acc), zeros)) in state.enumerate() {
            // `set_prob` leaves a −0.0 request at the reset's +0.0.
            let own = q(j);
            *q_j = if own == 0.0 { 0.0 } else { own };
            *acc = 0.0;
            *zeros = 0;
        }
        for i in ratios.interfered_receivers() {
            let (mut sum, mut count) = (0.0, 0);
            for (j, &rho) in ratios.receiver_ratios(i) {
                let q_j = q(j);
                if q_j == 0.0 {
                    continue;
                }
                // The scatter's rule: a factor of 1 (zero ratio) is
                // skipped, a factor of 0 is counted, not logged.
                let factor = 1.0 - rho * q_j;
                if factor == 0.0 {
                    count += 1;
                } else if factor != 1.0 {
                    sum += factor.ln();
                }
            }
            self.acc[i] = sum;
            self.zeros[i] = count;
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
    /// receiver `i` — O(1), one `exp` unless the log sum is exactly 0
    /// (`e^0 = 1`, so skipping it changes no bit).
    #[inline]
    pub fn interference_product(&self, i: usize) -> f64 {
        if self.zeros[i] > 0 {
            return 0.0;
        }
        let sum = self.acc[i];
        if sum == 0.0 {
            1.0
        } else {
            sum.exp()
        }
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

    /// Whether the uniform `u` lies below link `i`'s
    /// [`conditional_success_probability`](Self::conditional_success_probability)
    /// `p`: `u < p`, bit for bit, decided by polynomial brackets on the
    /// `exp` of the log sum (the product's shortcut for a zero sum is
    /// `e⁰ = 1`), and from `p` itself only where the brackets do not
    /// settle it or a zero factor is counted.
    #[inline]
    pub fn conditional_success_below<R: RatioTable>(&self, ratios: &R, i: usize, u: f64) -> bool {
        if self.zeros[i] == 0 {
            if let Some(below) = bracketed_draw(u, ratios.noise_factor(i), self.acc[i]) {
                return below;
            }
        }
        u < self.conditional_success_probability(ratios, i)
    }

    /// Certified interval `[p·e^{−τᵢ}, p]` containing the exact Theorem 1
    /// probability of link `i`, where `p` is
    /// [`success_probability`](Self::success_probability); collapsed to
    /// `[p, p]` where `τᵢ = 0`.
    #[inline]
    pub fn success_interval<R: RatioTable>(&self, ratios: &R, i: usize) -> (f64, f64) {
        let hi = self.success_probability(ratios, i);
        (hi * ratios.tau_factor(i), hi)
    }

    /// Every link's [`success_probability`](Self::success_probability),
    /// bit for bit, in ascending link order. The walk reads interference
    /// only at the [interfered receivers](RatioTable::interfered_receivers),
    /// listed beside the link index; every other link's product is
    /// exactly 1, so its value is `q_i·noise_i`.
    fn successes<'a, R: RatioTable>(&'a self, ratios: &'a R) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(ratios.len(), self.q.len(), "ratio cache size mismatch");
        let mut interfered = ratios.interfered_receivers().peekable();
        self.q.iter().enumerate().map(move |(i, &q_i)| {
            // `q_i·noise_i·Π` associates as `success_probability` does;
            // adding +0.0 turns the −0.0 of a silent link (`set_prob`
            // stores a −0.0 request) into the +0.0 it returns, and leaves
            // every other value as it is.
            let own = q_i * ratios.noise_factor(i) + 0.0;
            if interfered.next_if_eq(&i).is_some() {
                own * self.interference_product(i)
            } else {
                own
            }
        })
    }

    /// All success probabilities — O(n).
    pub fn success_probabilities<R: RatioTable>(&self, ratios: &R) -> Vec<f64> {
        self.successes(ratios).collect()
    }

    /// Expected number of successes `Σ_i Q_i` under the current
    /// probabilities — O(n), compensated summation in ascending link
    /// order.
    pub fn expected_successes<R: RatioTable>(&self, ratios: &R) -> f64 {
        kahan_sum(self.successes(ratios))
    }

    /// Certified interval containing the exact expected number of
    /// successes: lower and upper compensated sums of the per-link
    /// [intervals](Self::success_interval), both fed in one pass in
    /// ascending link order — O(n).
    pub fn expected_successes_interval<R: RatioTable>(&self, ratios: &R) -> (f64, f64) {
        let (mut lo, mut hi) = (CompensatedSum::default(), CompensatedSum::default());
        for (i, p) in self.successes(ratios).enumerate() {
            lo.add(p * ratios.tau_factor(i));
            hi.add(p);
        }
        (lo.total(), hi.total())
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

/// Relative widening of each bracket of [`bracketed_draw`], 2⁻⁴⁰: far
/// more than the rounding of the two polynomials (≤ 2⁻⁵⁰ relative) and of
/// libm's `exp` (≤ 2⁻⁵², within one ulp) together.
const BRACKET_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Decides `u < c * x.exp()` for `c ≥ 0` from brackets on `eˣ`, or
/// returns `None` when they do not settle it. The accumulators'
/// `conditional_success_below` call it with `c` the noise factor and `x`
/// the log of the interference product, so that `exp` runs only for the
/// draws it leaves open.
///
/// For `x ∈ [−½, 0]` Taylor's theorem with its alternating remainder
/// gives `1 + x + x²/2 + x³/6 ≤ eˣ ≤ 1 + x + x²/2`, and both sides lie in
/// `[0.6, 1]`. Each is evaluated in f64 (relative error ≤ 2⁻⁵⁰) and
/// widened by [`BRACKET_MARGIN`], which leaves the lower one below, and
/// the upper one above, libm's `x.exp()` (within one ulp of `eˣ`). A
/// product with `c ≥ 0` rounds monotonically, so `lo ≤ c * x.exp() ≤ hi`
/// for the computed `lo = c·lower`, `hi = c·upper`, subnormal `c`
/// included: `u < lo` is below the probability, and `u ≥ hi` is not.
/// The gap between the brackets is `|x|³/6` plus the margins, so at the
/// small `|x|` of a far-field slot almost every draw is settled here.
/// Outside `[−½, 0]`, NaN included, nothing is decided: the f64 log sums
/// of [`SuccessAccumulator`] can round a hair above 0.
///
/// The outcome is a coin flip, which a branch on it would mispredict, so
/// the kernel branches only on whether `u` lies in `[lo, hi)`, with one
/// unsigned compare: `lo` and `hi` are non-negative, and so is `u`, whose
/// bit patterns order as the numbers do (a negative or NaN `u` lands
/// outside, where `u < lo` is the right answer too).
#[inline]
pub(crate) fn bracketed_draw(u: f64, c: f64, x: f64) -> Option<bool> {
    if !(-0.5..=0.0).contains(&x) {
        return None;
    }
    let (lo, hi) = brackets(c, x);
    let offset = u.to_bits().wrapping_sub(lo.to_bits());
    let width = hi.to_bits().wrapping_sub(lo.to_bits());
    (offset >= width).then_some(u < lo)
}

/// The widened brackets `(c·lower, c·upper)` around `c * x.exp()` for
/// `x ∈ [−½, 0]` (see [`bracketed_draw`]).
#[inline]
fn brackets(c: f64, x: f64) -> (f64, f64) {
    let half_square = 0.5 * (x * x);
    let upper = 1.0 + x + half_square;
    let lower = upper + x * half_square * (1.0 / 3.0);
    (
        c * (lower * (1.0 - BRACKET_MARGIN)),
        c * (upper * (1.0 + BRACKET_MARGIN)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The decision for a draw `u` against `c·eˣ`: the brackets', or the
    /// comparison with libm's `exp` where they leave it open.
    fn decided(u: f64, c: f64, x: f64) -> bool {
        bracketed_draw(u, c, x).unwrap_or_else(|| u < c * x.exp())
    }

    /// `v` and the `k` floats on either side of it.
    fn around(v: f64, k: usize) -> Vec<f64> {
        let (mut below, mut above) = (v, v);
        let mut out = vec![v];
        for _ in 0..k {
            below = below.next_down();
            above = above.next_up();
            out.extend([below, above]);
        }
        out
    }

    #[test]
    fn bracketed_draws_equal_the_exp_comparison_at_the_edges() {
        let tiny = f64::from_bits(1);
        let half = -0.5f64;
        let mut xs = vec![
            0.0,
            -0.0,
            -tiny,
            -f64::MIN_POSITIVE,
            -1e-300,
            -1.0 / (1u64 << 60) as f64,
            -1e-9,
            half.next_up(),
            half,
            half.next_down(),
            -700.0,
            tiny,
            1e-300,
            1.0 / (1u64 << 50) as f64,
            0.1,
        ];
        let mut rng = StdRng::seed_from_u64(0xb4ac);
        xs.extend((0..400).map(|_| -0.5 * rng.gen::<f64>()));
        xs.extend((0..200).map(|k| -(2.0f64).powi(-(k % 60)) * rng.gen::<f64>()));
        let mut cs = vec![0.0, tiny, f64::MIN_POSITIVE, 1e-300, 1.0];
        cs.extend((0..6).map(|_| rng.gen::<f64>()));
        let mut settled = 0usize;
        let mut draws = 0usize;
        for &x in &xs {
            for &c in &cs {
                let p = c * x.exp();
                let (lo, hi) = brackets(c, x);
                let mut us = around(p, 4);
                us.extend(around(lo, 2));
                us.extend(around(hi, 2));
                us.extend([0.0, 1.0f64.next_down(), rng.gen::<f64>()]);
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(decided(u, c, x), u < p, "u = {u:e}, c = {c:e}, x = {x:e}");
                    draws += 1;
                    settled += usize::from(bracketed_draw(u, c, x).is_some());
                }
            }
            if !(-0.5..=0.0).contains(&x) {
                assert_eq!(bracketed_draw(0.3, 1.0, x), None, "x = {x:e} is outside");
            }
        }
        // Not vacuous: many of these edge draws are settled by the
        // brackets themselves, not left to `exp`.
        assert!(settled * 4 > draws, "{settled} of {draws} draws settled");
    }

    #[test]
    fn brackets_settle_almost_every_far_field_draw() {
        let mut rng = StdRng::seed_from_u64(0xfa4);
        let draws = 100_000;
        let settled = (0..draws)
            .filter(|_| {
                let x = -0.05 * rng.gen::<f64>();
                bracketed_draw(rng.gen(), 0.99, x).is_some()
            })
            .count();
        assert!(settled > draws - 10, "{settled} of {draws} settled");
    }

    fn ratios2() -> (GainMatrix, SinrParams, InterferenceRatios) {
        let gm = GainMatrix::from_raw(2, vec![10.0, 2.0, 2.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let r = InterferenceRatios::new(&gm, &params);
        (gm, params, r)
    }

    #[test]
    fn ratios_from_geometry_equal_ratios_over_the_geometry_gain() {
        use rayfade_geometry::generator::PaperTopology;
        let figure1 = PaperTopology {
            links: 60,
            ..PaperTopology::figure1()
        };
        let far_field = PaperTopology {
            links: 200,
            side: (200.0f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        };
        let cases = [
            (
                figure1,
                PowerAssignment::figure1_uniform(),
                SinrParams::figure1(),
            ),
            (
                figure1,
                PowerAssignment::figure1_square_root(),
                SinrParams::figure1(),
            ),
            (
                far_field,
                PowerAssignment::figure1_uniform(),
                SinrParams::new(4.0, 2.5, 4e-7),
            ),
            (
                figure1,
                PowerAssignment::Linear { scale: 0.5 },
                SinrParams::new(3.0, 1.0, 0.0),
            ),
        ];
        for (k, (topology, power, params)) in cases.into_iter().enumerate() {
            let net = topology.generate(40 + k as u64);
            let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
            assert_eq!(
                InterferenceRatios::from_geometry(&net, &power, &params),
                InterferenceRatios::new(&gain, &params),
                "case {k}"
            );
        }
        let empty = rayfade_geometry::Network::new(Vec::new());
        let none = InterferenceRatios::from_geometry(
            &empty,
            &PowerAssignment::Uniform(1.0),
            &SinrParams::figure1(),
        );
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "cross distance d(s_1, r_0) must be positive")]
    fn ratios_from_geometry_reject_a_sender_on_a_receiver() {
        use rayfade_geometry::{Link, Network, Point};
        let net = Network::new(vec![
            Link::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            Link::new(Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
        ]);
        let _ = InterferenceRatios::from_geometry(
            &net,
            &PowerAssignment::Uniform(1.0),
            &SinrParams::figure1(),
        );
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
        // The batch gather reaches the same counted zero.
        let mut bulk = SuccessAccumulator::new(2);
        bulk.set_probs(&r, &[1.0, 1.0]);
        assert_eq!(bulk, acc, "set_probs vs inserts");
        acc.remove(&r, 1);
        let got = acc.success_probability(&r, 0);
        let want = scratch(&gm, &params, &[1.0, 0.0], 0);
        assert!((got - want).abs() < 1e-13, "{got} vs {want}");
        bulk.set_probs(&r, &[1.0, 0.0]);
        assert_eq!(bulk, acc, "set_probs vs inserts and removal");
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
