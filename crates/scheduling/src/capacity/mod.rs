//! Capacity maximization in the non-fading model.
//!
//! Given an instance (gains, parameters, optional weights), select a
//! *feasible* set of links maximizing total weight — the paper's standard
//! objective (Sec. 1.1). These are exactly the algorithms the paper's
//! reduction transfers to the Rayleigh-fading model (Sec. 4): their output
//! is consumed as-is by `rayfade-core`'s transfer lemma.
//!
//! Implemented families:
//! * [`greedy`] — affectance-guarded greedy for fixed (uniform/oblivious)
//!   powers, in the spirit of Goussevskaia et al. \[8\] and
//!   Halldórsson–Mitra \[7\];
//! * [`power_control`] — joint selection + power assignment, in the spirit
//!   of Kesselheim \[6\], with Foschini–Miljanic minimal powers;
//! * [`flexible`] — general (non-binary) utilities via threshold
//!   enumeration, in the spirit of Kesselheim \[22\];
//! * [`optimal`] — exact branch-and-bound and local-search reference
//!   optima for benchmarking.
//!
//! Every algorithm in this module **guarantees** the returned set is
//! feasible in the non-fading model; property tests enforce this.

pub mod flexible;
pub mod greedy;
pub mod optimal;
pub mod power_control;

use rayfade_sinr::{GainMatrix, SinrParams};

/// `true` iff `x` is strictly positive — rejects NaN (unlike `x <= 0.0`,
/// whose negation silently admits it). The selection loops use this to
/// skip degenerate weights/lengths instead of propagating NaN scores.
pub(crate) fn strictly_positive(x: f64) -> bool {
    matches!(x.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater))
}

/// Work tally of one capacity-selection invocation, for observability:
/// how many candidate links were scored, how many were accepted into the
/// transmit set vs. rejected, and how many times an incremental
/// evaluator's underflow guard forced an O(n) product re-derivation
/// (always 0 for selectors that keep no accumulator). Metrics stay the
/// caller's job — the dynamic engine and bench binaries fold these
/// tallies into their own counters — but the `select_*_stats` selectors
/// emit a wall-time span when given a tracer (e.g.
/// [`greedy::GreedyCapacity::select_with_stats`]) so profiles can
/// attribute slot time to candidate scoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidate links examined/scored across all rounds.
    pub candidates_scored: u64,
    /// Links accepted into the returned set.
    pub accepted: u64,
    /// Scored candidates not part of the returned set (guard failures,
    /// insufficient marginal gain, or losing the per-round argmax).
    pub rejected: u64,
    /// Underflow/precision-guard trips in the incremental evaluator.
    pub rederivations: u64,
}

impl SelectionStats {
    /// Accumulates another invocation's tallies into this one.
    pub fn merge(&mut self, other: &SelectionStats) {
        self.candidates_scored += other.candidates_scored;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.rederivations += other.rederivations;
    }
}

/// A capacity-maximization instance with fixed transmission powers
/// (already folded into the gain matrix).
#[derive(Debug, Clone, Copy)]
pub struct CapacityInstance<'a> {
    /// Expected signal strengths `S̄_{j,i}`.
    pub gain: &'a GainMatrix,
    /// Model parameters `(α, β, ν)` (only `β` and `ν` matter here — the
    /// path-loss exponent is already folded into the gains).
    pub params: &'a SinrParams,
    /// Optional per-link weights; `None` means unit weights.
    pub weights: Option<&'a [f64]>,
}

impl<'a> CapacityInstance<'a> {
    /// Creates an unweighted instance.
    pub fn unweighted(gain: &'a GainMatrix, params: &'a SinrParams) -> Self {
        CapacityInstance {
            gain,
            params,
            weights: None,
        }
    }

    /// Creates a weighted instance.
    ///
    /// # Panics
    /// If the weight vector length does not match the gain matrix.
    pub fn weighted(gain: &'a GainMatrix, params: &'a SinrParams, weights: &'a [f64]) -> Self {
        assert_eq!(weights.len(), gain.len(), "one weight per link");
        CapacityInstance {
            gain,
            params,
            weights: Some(weights),
        }
    }

    /// Weight of link `i` (1 when unweighted).
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights.map_or(1.0, |w| w[i])
    }

    /// Total weight of a set.
    pub fn total_weight(&self, set: &[usize]) -> f64 {
        set.iter().map(|&i| self.weight(i)).sum()
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.gain.len()
    }

    /// Whether the instance has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gain.is_empty()
    }
}

/// A fixed-power capacity-maximization algorithm.
pub trait CapacityAlgorithm {
    /// Human-readable algorithm name (for reports).
    fn name(&self) -> &str;

    /// Selects a feasible set of links. Implementations must return a set
    /// that passes [`rayfade_sinr::is_feasible`].
    fn select(&self, instance: &CapacityInstance<'_>) -> Vec<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_weights() {
        let gm = GainMatrix::from_raw(2, vec![1.0, 0.0, 0.0, 1.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let inst = CapacityInstance::unweighted(&gm, &params);
        assert_eq!(inst.weight(0), 1.0);
        assert_eq!(inst.total_weight(&[0, 1]), 2.0);
        let w = vec![3.0, 0.5];
        let inst = CapacityInstance::weighted(&gm, &params, &w);
        assert_eq!(inst.weight(1), 0.5);
        assert_eq!(inst.total_weight(&[0, 1]), 3.5);
        assert_eq!(inst.len(), 2);
        assert!(!inst.is_empty());
    }

    #[test]
    #[should_panic(expected = "one weight per link")]
    fn mismatched_weights_rejected() {
        let gm = GainMatrix::from_raw(2, vec![1.0, 0.0, 0.0, 1.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let w = vec![1.0];
        let _ = CapacityInstance::weighted(&gm, &params, &w);
    }
}
