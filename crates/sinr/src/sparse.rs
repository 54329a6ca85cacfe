//! ε-truncated sparse interference ratios with a certified error interval.
//!
//! The dense [`InterferenceRatios`](crate::ratio::InterferenceRatios) cache
//! stores all n² Theorem 1 ratios `ρ(j → i)`; at n = 10⁵ that is ~160 GB
//! and O(n²) to build, which caps every consumer near n ≈ 10³. Under
//! power-law path loss the ratio of a far sender decays like `d^{−α}`, so
//! almost all of the per-receiver *log-mass* `Σ_j −ln(1 − ρ(j→i))` is
//! concentrated on a few nearby senders. [`SparseInterferenceRatios`]
//! exploits this: per receiver it keeps only the ratios whose combined
//! dropped log-mass stays below a budget `τ = −ln(1 − δ)` derived from a
//! caller-chosen bound `δ` on the Theorem 1 success probability, and it
//! carries the *exact* dropped mass `τᵢ ≤ τ` per receiver.
//!
//! # The certificate
//!
//! Every Theorem 1 factor satisfies `1 ≥ 1 − ρ·q ≥ 1 − ρ` for `q ∈ [0, 1]`,
//! so dropping the factor of sender `j` at receiver `i` *overestimates*
//! `Q_i` by at most the factor `1/(1 − ρ(j→i))`. Summing over all dropped
//! senders, the sparse evaluation `p` and the exact dense value `p*` obey
//!
//! ```text
//! p · e^{−τᵢ} ≤ p* ≤ p,     τᵢ = Σ_{j dropped} −ln(1 − ρ(j→i))
//! ```
//!
//! for **every** probability vector, not just the one the truncation was
//! tuned for. With `τᵢ ≤ τ = −ln(1−δ)` the relative error is at most `δ`.
//! `δ = 0` keeps every nonzero ratio and the sparse path reproduces the
//! dense one bit-for-bit.
//!
//! # Layout
//!
//! CSR by receiver (row `i` holds the retained senders of receiver `i`,
//! column-sorted), plus a transpose (CSC) with duplicated values. The two
//! halves serve the two [`RatioTable`] walks of [`SuccessAccumulator`]:
//! the CSR rows serve the batch calls (`set_probs`, `set_uniform`), which
//! rebuild each receiver's sum from its row, and the CSC columns serve
//! churn (`set_prob`, `insert`, `remove`, `activation_gain`), so changing
//! one sender's probability touches only its O(deg) receivers. Each
//! retained pair is thus stored twice at 12 B (a `u32` index and an `f64`
//! ratio), 3× the dense table's 8 B per pair: the sparse table is the
//! smaller one only while it keeps fewer than a third of the pairs.
//!
//! Per link the table stores 32 B: the noise factor, `τᵢ` and the
//! certificate factor `e^{−τᵢ}` (computed once, so a certified interval
//! costs no `exp`) at 8 B each, and the CSR and CSC offsets at 4 B each.
//! Each receiver with a non-empty row adds a 4 B entry to the list the
//! batch calls walk ([`RatioTable::interfered_receivers`]): at the
//! dynamic workloads' density most rows are empty, and the batch calls
//! skip those receivers' rows and products. The offsets are `u32`,
//! so a table holds at most `u32::MAX` retained pairs; the builders
//! panic beyond that, which takes a `δ = 0` table of 65 536 or more
//! links (~100 GB).
//!
//! The geometric builder that avoids materializing any dense structure
//! lives in the `rayfade-spatial` crate; [`SparseInterferenceRatios::from_gain`]
//! is the dense-input constructor used for validation and for callers that
//! already paid for a [`GainMatrix`].

use crate::gain::GainMatrix;
use crate::params::SinrParams;
use crate::ratio::{RatioTable, SuccessAccumulator};
use serde::{Deserialize, Serialize};

/// Truncation budget `τ = −ln(1 − δ)` for a relative error bound `δ`.
///
/// # Panics
/// If `delta` is outside `[0, 1)`.
pub fn truncation_budget(delta: f64) -> f64 {
    assert!(
        delta.is_finite() && (0.0..1.0).contains(&delta),
        "delta must lie in [0, 1)"
    );
    -(-delta).ln_1p()
}

/// Greedily drops the smallest-`ρ` entries of one receiver row while the
/// exact dropped log-mass `Σ −ln(1 − ρ)` stays within `budget`.
///
/// `entries` are `(sender, ρ)` pairs in any order, with distinct senders
/// and every `ρ > 0`. They are sorted once by the key `(ρ bits, sender)`
/// — for positive floats the bit pattern orders like the value, and ties
/// on `ρ` go to the smaller sender index, so the result is deterministic.
/// The longest prefix of that order whose exact masses, summed
/// smallest-first, fit the budget is dropped, and the survivors are left
/// sorted by sender. Returns the exact dropped log-mass (0 when
/// `budget ≤ 0`, which keeps every entry).
pub fn truncate_smallest(entries: &mut Vec<(u32, f64)>, budget: f64) -> f64 {
    let mut dropped_mass = 0.0f64;
    if budget > 0.0 {
        entries.sort_unstable_by_key(|&(j, rho)| (rho.to_bits(), j));
        let mut cut = 0;
        for &(_, rho) in entries.iter() {
            // −ln(1 − ρ); +∞ when ρ rounds to 1 (such a factor is never
            // droppable).
            let mass = -(-rho).ln_1p();
            let tentative = dropped_mass + mass;
            if tentative <= budget {
                dropped_mass = tentative;
                cut += 1;
            } else {
                // Entries are visited smallest-first: nothing later fits.
                break;
            }
        }
        entries.drain(..cut);
    }
    entries.sort_unstable_by_key(|e| e.0);
    dropped_mass
}

/// ε-truncated sparse mirror of
/// [`InterferenceRatios`](crate::ratio::InterferenceRatios): per receiver,
/// only the senders whose dropped log-mass would exceed the `δ`-derived
/// budget are retained, and the exact dropped mass `τᵢ` is carried as a
/// certificate (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseInterferenceRatios {
    n: usize,
    beta: f64,
    delta: f64,
    /// CSR row offsets: row `i` is `col[row_ptr[i]..row_ptr[i+1]]`.
    row_ptr: Vec<u32>,
    /// Retained sender indices per receiver, strictly ascending per row.
    col: Vec<u32>,
    /// `rho[k] = ρ(col[k] → i)` for `k` in row `i`; bit-equal to the dense
    /// cache for retained pairs.
    rho: Vec<f64>,
    /// `noise[i] = exp(−β·ν/S̄_{i,i})`, or 0 when `S̄_{i,i} = 0`.
    noise: Vec<f64>,
    /// Certified per-receiver truncated log-mass `τᵢ` (0 when nothing was
    /// dropped).
    tau: Vec<f64>,
    /// `tau_factor[i] = e^{−τᵢ}`, the lower end's factor of the certified
    /// interval (1 when nothing was dropped).
    tau_factor: Vec<f64>,
    /// Receivers with a non-empty row, ascending (see
    /// [`RatioTable::interfered_receivers`]).
    interfered: Vec<u32>,
    /// CSC transpose offsets: column `j` (sender `j`'s receivers) is
    /// `t_receiver[t_row_ptr[j]..t_row_ptr[j+1]]`.
    t_row_ptr: Vec<u32>,
    /// Receivers affected by each sender, ascending per column.
    t_receiver: Vec<u32>,
    /// Ratio values duplicated in transpose order.
    t_rho: Vec<f64>,
}

impl SparseInterferenceRatios {
    /// Assembles a sparse ratio cache from raw CSR parts, validating the
    /// layout and building the transpose, the `e^{−τᵢ}` column and the
    /// list of receivers with a non-empty row.
    ///
    /// Intended for builders that compute rows without a dense gain matrix
    /// (the `rayfade-spatial` geometric builder). Rows must be
    /// column-sorted with no diagonal entries, every `ρ` in `(0, 1]`, and
    /// every `τᵢ ≥ 0`. The offsets are `u32` (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// If any of the layout invariants above is violated, or the vector
    /// lengths are inconsistent.
    pub fn from_raw_parts(
        beta: f64,
        delta: f64,
        row_ptr: Vec<u32>,
        col: Vec<u32>,
        #[allow(unused_mut)] mut rho: Vec<f64>,
        noise: Vec<f64>,
        tau: Vec<f64>,
    ) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be > 0");
        assert!(
            delta.is_finite() && (0.0..1.0).contains(&delta),
            "delta must lie in [0, 1)"
        );
        let n = noise.len();
        assert_eq!(tau.len(), n, "one tau per link");
        assert_eq!(row_ptr.len(), n + 1, "row_ptr must have n + 1 offsets");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap() as usize,
            col.len(),
            "row_ptr end mismatch"
        );
        assert_eq!(col.len(), rho.len(), "one rho per stored pair");
        for i in 0..n {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
            assert!(
                tau[i].is_finite() && tau[i] >= 0.0,
                "tau must be finite and >= 0"
            );
            let row = &col[row_ptr[i] as usize..row_ptr[i + 1] as usize];
            for (k, &j) in row.iter().enumerate() {
                assert!((j as usize) < n, "sender {j} out of range");
                assert!(j as usize != i, "diagonal entries must not be stored");
                if k > 0 {
                    assert!(row[k - 1] < j, "row {i} senders must be ascending");
                }
            }
        }
        for &r in &rho {
            assert!(
                r > 0.0 && r <= 1.0,
                "stored ratios must lie in (0, 1], got {r}"
            );
        }
        // Same deliberate corruption as the dense cache (both of
        // `InterferenceRatios`' constructors, TESTING.md): scaling the stored
        // ratios here keeps the sparse path bit-consistent with the dense
        // one under the `inject-bug` validation feature.
        #[cfg(feature = "inject-bug")]
        for r in rho.iter_mut() {
            *r *= 0.999;
        }
        // Transpose via counting sort over sender index: deterministic,
        // receivers ascending per column because rows are visited in
        // ascending receiver order. The offsets fit u32: they count at
        // most nnz = row_ptr[n] pairs.
        let nnz = col.len();
        let mut t_row_ptr = vec![0u32; n + 1];
        for &j in &col {
            t_row_ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            t_row_ptr[j + 1] += t_row_ptr[j];
        }
        let mut cursor = t_row_ptr.clone();
        let mut t_receiver = vec![0u32; nnz];
        let mut t_rho = vec![0.0f64; nnz];
        for i in 0..n {
            for k in row_ptr[i] as usize..row_ptr[i + 1] as usize {
                let j = col[k] as usize;
                let slot = cursor[j] as usize;
                t_receiver[slot] = i as u32;
                t_rho[slot] = rho[k];
                cursor[j] += 1;
            }
        }
        let tau_factor = tau.iter().map(|&t| (-t).exp()).collect();
        let interfered = (0..n)
            .filter(|&i| row_ptr[i] < row_ptr[i + 1])
            .map(|i| i as u32)
            .collect();
        SparseInterferenceRatios {
            n,
            beta,
            delta,
            row_ptr,
            col,
            rho,
            noise,
            tau,
            tau_factor,
            interfered,
            t_row_ptr,
            t_receiver,
            t_rho,
        }
    }

    /// Builds the truncated cache from a dense gain matrix: per receiver
    /// the full ratio row is computed with the exact dense arithmetic,
    /// then the smallest entries are greedily dropped while the exact
    /// dropped log-mass stays within `τ = −ln(1 − δ)` ([`truncate_smallest`],
    /// the routine the geometric builder shares).
    ///
    /// `delta = 0` retains every nonzero ratio (bit-equal to the dense
    /// cache). O(n²) like the dense constructor — the point of this entry
    /// is the downstream O(n + nnz) evaluation, plus validation against the
    /// dense path; truly large instances should use the geometric builder
    /// in `rayfade-spatial`, which never materializes a dense row.
    ///
    /// # Panics
    /// If `delta` is outside `[0, 1)`, or more than `u32::MAX` pairs are
    /// retained (see the [module docs](self)).
    pub fn from_gain(gain: &GainMatrix, params: &SinrParams, delta: f64) -> Self {
        let budget = truncation_budget(delta);
        let n = gain.len();
        let beta = params.beta;
        let offset = |nnz: usize| {
            u32::try_from(nnz)
                .expect("more than u32::MAX retained pairs: the sparse table's offsets are u32")
        };
        let mut row_ptr = vec![0u32; n + 1];
        let mut col = Vec::new();
        let mut rho = Vec::new();
        let mut noise = vec![0.0; n];
        let mut tau = vec![0.0; n];
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for i in 0..n {
            let s_ii = gain.signal(i);
            if s_ii == 0.0 {
                // Dead receiver: empty row, zero noise factor — mirrors
                // the dense cache's all-zero row.
                row_ptr[i + 1] = offset(col.len());
                continue;
            }
            noise[i] = (-beta * params.noise / s_ii).exp();
            entries.clear();
            for (j, &s_ji) in gain.at_receiver(i).iter().enumerate() {
                if j == i || s_ji == 0.0 {
                    continue;
                }
                // Same guarded form as the dense cache: s_ii/s_ji may
                // overflow to +inf for tiny s_ji, giving ratio 0.
                let r = beta / (beta + s_ii / s_ji);
                if r > 0.0 {
                    entries.push((j as u32, r));
                }
            }
            tau[i] = truncate_smallest(&mut entries, budget);
            for &(j, r) in &entries {
                col.push(j);
                rho.push(r);
            }
            row_ptr[i + 1] = offset(col.len());
        }
        Self::from_raw_parts(beta, delta, row_ptr, col, rho, noise, tau)
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

    /// The truncation bound `δ` the cache was built for.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of retained (nonzero) sender→receiver pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Retained senders at receiver `i` as parallel `(senders, ratios)`
    /// slices, column-sorted.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize;
        (&self.col[r.clone()], &self.rho[r])
    }

    /// Receivers affected by sender `j` as parallel `(receivers, ratios)`
    /// slices, receiver-sorted.
    #[inline]
    pub fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let r = self.t_row_ptr[j] as usize..self.t_row_ptr[j + 1] as usize;
        (&self.t_receiver[r.clone()], &self.t_rho[r])
    }

    /// Retained ratio `ρ(j → i)`, or 0 when the pair was truncated (or
    /// was zero to begin with) — O(log deg) binary search.
    pub fn rho(&self, j: usize, i: usize) -> f64 {
        let (cols, rhos) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => rhos[k],
            Err(_) => 0.0,
        }
    }

    /// Noise factor `exp(−β·ν/S̄_{i,i})` of link `i` (0 for a dead link).
    #[inline]
    pub fn noise_factor(&self, i: usize) -> f64 {
        self.noise[i]
    }

    /// Certified truncated log-mass `τᵢ` at receiver `i`: the dense
    /// Theorem 1 probability lies in `[p·e^{−τᵢ}, p]` around any sparse
    /// evaluation `p`.
    #[inline]
    pub fn tau(&self, i: usize) -> f64 {
        self.tau[i]
    }

    /// Largest per-receiver certificate `max_i τᵢ` (0 for an empty
    /// instance).
    pub fn tau_max(&self) -> f64 {
        self.tau.iter().copied().fold(0.0, f64::max)
    }
}

impl RatioTable for SparseInterferenceRatios {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn noise_factor(&self, i: usize) -> f64 {
        self.noise[i]
    }

    #[inline]
    fn tau_factor(&self, i: usize) -> f64 {
        self.tau_factor[i]
    }

    /// Column `j` of the transpose: retained, hence nonzero, ratios only.
    #[inline]
    fn sender_ratios(&self, j: usize) -> impl Iterator<Item = (usize, &f64)> + '_ {
        let (receivers, rhos) = self.column(j);
        receivers.iter().map(|&i| i as usize).zip(rhos)
    }

    /// CSR row `i`: retained, hence nonzero, ratios only.
    #[inline]
    fn receiver_ratios(&self, i: usize) -> impl Iterator<Item = (usize, &f64)> + '_ {
        let (senders, rhos) = self.row(i);
        senders.iter().map(|&j| j as usize).zip(rhos)
    }

    /// The receivers with a non-empty CSR row, listed once in
    /// [`from_raw_parts`](Self::from_raw_parts).
    #[inline]
    fn interfered_receivers(&self) -> impl Iterator<Item = usize> + '_ {
        self.interfered.iter().map(|&i| i as usize)
    }
}

/// [`SuccessAccumulator`] under its former sparse-only name, kept only
/// because the benchmark in `perfbench/` names it; it goes when that
/// benchmark's replay of the library is removed (ROADMAP item 2).
pub type SparseSuccessAccumulator = SuccessAccumulator;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::InterferenceRatios;

    fn gain4() -> GainMatrix {
        GainMatrix::from_raw(
            4,
            vec![
                10.0, 2.0, 0.3, 0.01, //
                2.0, 8.0, 0.5, 0.02, //
                0.3, 0.5, 12.0, 1.0, //
                0.01, 0.02, 1.0, 9.0,
            ],
        )
    }

    fn params() -> SinrParams {
        SinrParams::new(2.0, 1.5, 0.2)
    }

    #[test]
    fn delta_zero_is_bit_equal_to_dense() {
        let gm = gain4();
        let p = params();
        let dense = InterferenceRatios::new(&gm, &p);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        assert_eq!(sparse.nnz(), 12, "all off-diagonal pairs retained");
        for i in 0..4 {
            assert_eq!(sparse.noise_factor(i), dense.noise_factor(i));
            assert_eq!(sparse.tau(i), 0.0);
            for j in 0..4 {
                assert_eq!(sparse.rho(j, i), dense.rho(j, i), "rho({j},{i})");
            }
        }
        assert_eq!(sparse.tau_max(), 0.0);
    }

    #[test]
    fn truncation_drops_small_ratios_and_certifies_the_mass() {
        let gm = gain4();
        let p = params();
        let dense = InterferenceRatios::new(&gm, &p);
        let delta = 0.05;
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, delta);
        let budget = truncation_budget(delta);
        assert!(sparse.nnz() < 12, "weak pairs must be dropped");
        for i in 0..4 {
            // Certified mass equals the exact dropped mass and respects
            // the budget.
            let dropped: f64 = (0..4)
                .filter(|&j| dense.rho(j, i) > 0.0 && sparse.rho(j, i) == 0.0)
                .map(|j| -(-dense.rho(j, i)).ln_1p())
                .sum();
            assert!((sparse.tau(i) - dropped).abs() < 1e-15, "link {i}");
            assert!(sparse.tau(i) <= budget + 1e-15);
            // Retained values are bit-equal to the dense cache.
            for j in 0..4 {
                let r = sparse.rho(j, i);
                if r != 0.0 {
                    assert_eq!(r, dense.rho(j, i));
                }
            }
        }
    }

    #[test]
    fn accumulator_matches_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut dense = SuccessAccumulator::new(4);
        let mut sparse = SuccessAccumulator::new(4);
        dense.set_probs(&dense_r, &[0.8, 0.0, 0.3, 1.0]);
        sparse.set_probs(&sparse_r, &[0.8, 0.0, 0.3, 1.0]);
        dense.set_prob(&dense_r, 1, 0.5);
        sparse.set_prob(&sparse_r, 1, 0.5);
        dense.remove(&dense_r, 3);
        sparse.remove(&sparse_r, 3);
        assert_eq!(dense, sparse, "same log sums and zero counts");
        for i in 0..4 {
            let d = dense.success_probability(&dense_r, i);
            let (lo, hi) = sparse.success_interval(&sparse_r, i);
            assert_eq!(d.to_bits(), hi.to_bits(), "link {i}");
            assert_eq!(lo, hi, "tau = 0 collapses the interval");
        }
        assert_eq!(
            dense.expected_successes(&dense_r).to_bits(),
            sparse.expected_successes(&sparse_r).to_bits()
        );
    }

    #[test]
    fn certified_interval_contains_dense_value() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        for delta in [1e-6, 0.05, 0.5, 0.99] {
            let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, delta);
            let probs = [0.9, 0.4, 1.0, 0.7];
            let mut dense = SuccessAccumulator::new(4);
            let mut sparse = SuccessAccumulator::new(4);
            dense.set_probs(&dense_r, &probs);
            sparse.set_probs(&sparse_r, &probs);
            for i in 0..4 {
                let d = dense.success_probability(&dense_r, i);
                let (lo, hi) = sparse.success_interval(&sparse_r, i);
                assert!(
                    lo - 1e-12 <= d && d <= hi + 1e-12,
                    "delta={delta} link {i}: {d} not in [{lo}, {hi}]"
                );
            }
            let (lo, hi) = sparse.expected_successes_interval(&sparse_r);
            let d = dense.expected_successes(&dense_r);
            assert!(lo - 1e-12 <= d && d <= hi + 1e-12, "delta={delta}");
        }
    }

    #[test]
    fn activation_gain_matches_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut dense = SuccessAccumulator::new(4);
        let mut sparse = SuccessAccumulator::new(4);
        for j in [0, 2] {
            dense.insert(&dense_r, j);
            sparse.insert(&sparse_r, j);
        }
        let w = [2.0, 1.0, 3.0, 0.5];
        for j in [1, 3] {
            let d = dense.activation_gain(&dense_r, Some(&w), j);
            let s = sparse.activation_gain(&sparse_r, Some(&w), j);
            assert_eq!(d.to_bits(), s.to_bits(), "candidate {j}: {d} vs {s}");
        }
    }

    #[test]
    fn transpose_round_trips_every_stored_pair() {
        let gm = gain4();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params(), 0.05);
        let mut via_rows = Vec::new();
        for i in 0..sparse.len() {
            let (cols, rhos) = sparse.row(i);
            for (&j, &r) in cols.iter().zip(rhos) {
                via_rows.push((i as u32, j, r.to_bits()));
            }
        }
        let mut via_cols = Vec::new();
        for j in 0..sparse.len() {
            let (recvs, rhos) = sparse.column(j);
            for (&i, &r) in recvs.iter().zip(rhos) {
                via_cols.push((i, j as u32, r.to_bits()));
            }
        }
        via_rows.sort_unstable();
        via_cols.sort_unstable();
        assert_eq!(via_rows, via_cols);
    }

    #[test]
    fn dead_receiver_gets_empty_row_and_zero_noise() {
        let gm = GainMatrix::from_raw(2, vec![0.0, 5.0, 0.0, 10.0]);
        let p = SinrParams::new(2.0, 2.0, 0.5);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.1);
        assert_eq!(sparse.noise_factor(0), 0.0);
        assert_eq!(sparse.row(0).0.len(), 0);
        let mut acc = SuccessAccumulator::new(2);
        acc.set_uniform(&sparse, 1.0);
        assert_eq!(acc.success_probability(&sparse, 0), 0.0);
    }

    #[test]
    fn empty_and_singleton_instances_work() {
        let p = params();
        for n in [0usize, 1] {
            let gm = GainMatrix::from_raw(n, vec![2.0; n * n]);
            let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.3);
            assert_eq!(sparse.len(), n);
            assert_eq!(sparse.nnz(), 0);
            let mut acc = SuccessAccumulator::new(n);
            acc.set_uniform(&sparse, 0.5);
            let (lo, hi) = acc.expected_successes_interval(&sparse);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn truncate_smallest_prefers_small_ratios_and_breaks_ties_by_index() {
        let mut entries = vec![(0u32, 0.5), (1, 0.01), (2, 0.01), (3, 0.3)];
        // Budget fits only one of the two tied 0.01 entries: index 1 goes.
        let budget = 0.015;
        let dropped = truncate_smallest(&mut entries, budget);
        assert_eq!(
            entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!((dropped - (-(-0.01f64).ln_1p())).abs() < 1e-15);
    }

    #[test]
    fn truncate_smallest_takes_any_order_and_returns_rows_by_sender() {
        let sorted = vec![(1u32, 0.2), (4, 1e-3), (6, 0.7), (9, 2e-3), (12, 1e-3)];
        let mut shuffled = vec![(9u32, 2e-3), (6, 0.7), (12, 1e-3), (1, 0.2), (4, 1e-3)];
        for budget in [0.0, 1.5e-3, 4.1e-3, 0.3, 10.0] {
            let mut a = sorted.clone();
            let mut b = shuffled.clone();
            let dropped = truncate_smallest(&mut a, budget);
            assert_eq!(
                dropped.to_bits(),
                truncate_smallest(&mut b, budget).to_bits()
            );
            assert_eq!(a, b, "budget {budget}");
            assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "sorted by sender");
            shuffled.reverse();
        }
        // 4.1e-3 fits the two tied 1e-3 entries and the 2e-3 one.
        let mut row = shuffled;
        truncate_smallest(&mut row, 4.1e-3);
        assert_eq!(row, vec![(1, 0.2), (6, 0.7)]);
    }

    #[test]
    #[should_panic(expected = "senders must be ascending")]
    fn from_raw_parts_rejects_unsorted_rows() {
        let _ = SparseInterferenceRatios::from_raw_parts(
            1.0,
            0.0,
            vec![0, 2, 2, 2],
            vec![2, 1],
            vec![0.5, 0.5],
            vec![1.0; 3],
            vec![0.0; 3],
        );
    }

    #[test]
    #[should_panic(expected = "diagonal entries must not be stored")]
    fn from_raw_parts_rejects_diagonal_entries() {
        let _ = SparseInterferenceRatios::from_raw_parts(
            1.0,
            0.0,
            vec![0, 1],
            vec![0],
            vec![0.5],
            vec![1.0],
            vec![0.0],
        );
    }

    #[test]
    #[should_panic(expected = "activation_gain requires a silent link")]
    fn activation_gain_rejects_active_link() {
        let gm = gain4();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params(), 0.0);
        let mut acc = SuccessAccumulator::new(4);
        acc.insert(&sparse, 0);
        let _ = acc.activation_gain(&sparse, None, 0);
    }

    #[test]
    fn zero_factor_round_trips_through_removal() {
        // Mirror of the dense test: a ratio that rounds to exactly 1
        // yields a zero factor that must be tracked by count, not stored.
        let gm = GainMatrix::from_raw(2, vec![1e-300, 1e300, 0.0, 10.0]);
        let p = SinrParams::new(2.0, 2.0, 0.0);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut acc = SuccessAccumulator::new(2);
        acc.insert(&sparse, 0);
        acc.insert(&sparse, 1);
        assert_eq!(acc.success_probability(&sparse, 0), 0.0);
        acc.remove(&sparse, 1);
        assert!(acc.success_probability(&sparse, 0) > 0.0);
    }
}
