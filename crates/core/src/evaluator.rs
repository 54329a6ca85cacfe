//! Incremental Theorem 1 evaluator.
//!
//! [`RatioEvaluator`] bundles a Theorem 1 ratio table with the incremental
//! [`SuccessAccumulator`] over it. [`SuccessEvaluator`] is the evaluator on
//! the dense [`InterferenceRatios`]: construction pays the O(n²) ratio
//! precomputation once per `(GainMatrix, SinrParams)` pair, after which
//!
//! * changing one transmission probability (or toggling one link in a
//!   transmit set) updates every affected `Q_i` in **O(n)**,
//! * reading one `Q_i` is **O(1)**,
//! * scoring a candidate activation
//!   ([`activation_gain`](RatioEvaluator::activation_gain)) is
//!   **O(n)** — versus the O(n²) from-scratch evaluation of
//!   [`success_probability`](crate::success_probability) per candidate.
//!
//! This is the intended engine for greedy capacity re-scoring, RWM/Exp3
//! reward computation, and the dynamic slot loop, all of which mutate one
//! link at a time. The accumulator keeps per-receiver log-domain sums
//! (see `rayfade_sinr::ratio`), which stay within 1e-12 of the closed
//! form on realistic instances; the property suite in
//! `tests/evaluator_equivalence.rs` pins this.
//! [`SparseSuccessEvaluator`](crate::SparseSuccessEvaluator) is the same
//! evaluator on the ε-truncated sparse table (see
//! [`crate::sparse_evaluator`]).
//!
//! For embarrassingly parallel workloads (Monte Carlo replications,
//! probability-grid sweeps) the free functions
//! [`batch_expected_successes`] and [`batch_success_probabilities`]
//! evaluate many probability vectors against one shared ratio cache with
//! rayon.

use rayfade_sinr::{
    kahan_sum, GainMatrix, InterferenceRatios, RatioTable, SinrParams, SuccessAccumulator,
};
use rayfade_telemetry::{trace, Telemetry};
use rayon::prelude::*;

/// Incremental Theorem 1 evaluator over the ratio table `R`: the table
/// plus the success-probability accumulator over it (see the
/// [module docs](self) for the complexity model).
#[derive(Debug, Clone, PartialEq)]
pub struct RatioEvaluator<R> {
    ratios: R,
    acc: SuccessAccumulator,
}

/// The exact evaluator on the dense ratio table.
pub type SuccessEvaluator = RatioEvaluator<InterferenceRatios>;

impl SuccessEvaluator {
    /// Builds the evaluator (O(n²) precomputation); all probabilities
    /// start at 0.
    pub fn new(gain: &GainMatrix, params: &SinrParams) -> Self {
        Self::from_ratios(InterferenceRatios::new(gain, params))
    }
}

impl<R: RatioTable> RatioEvaluator<R> {
    /// Wraps an existing ratio table (shared tables can be cloned in); all
    /// probabilities start at 0.
    pub fn from_ratios(ratios: R) -> Self {
        let acc = SuccessAccumulator::new(ratios.len());
        RatioEvaluator { ratios, acc }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// Whether the instance has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// The underlying ratio table.
    #[inline]
    pub fn ratios(&self) -> &R {
        &self.ratios
    }

    /// Current transmission probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        self.acc.probs()
    }

    /// Current transmission probability of link `j`.
    #[inline]
    pub fn prob(&self, j: usize) -> f64 {
        self.acc.prob(j)
    }

    /// Resets every probability to 0 — O(n), no reallocation.
    pub fn reset(&mut self) {
        self.acc.reset();
    }

    /// Replaces the whole probability vector, one pass over each
    /// receiver's row — O(n²) dense, O(n + nnz) sparse.
    pub fn set_probs(&mut self, probs: &[f64]) {
        self.acc.set_probs(&self.ratios, probs);
    }

    /// Sets every probability to the same `q`, one pass over each
    /// receiver's row — O(n²) dense, O(n + nnz) sparse.
    pub fn set_uniform(&mut self, q: f64) {
        self.acc.set_uniform(&self.ratios, q);
    }

    /// Changes one probability, updating all affected `Q_i` — O(n)
    /// dense, O(deg j) sparse.
    pub fn set_prob(&mut self, j: usize, q: f64) {
        self.acc.set_prob(&self.ratios, j, q);
    }

    /// Sets `q_j = 1` (link joins the transmit set).
    pub fn insert(&mut self, j: usize) {
        self.acc.insert(&self.ratios, j);
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    pub fn remove(&mut self, j: usize) {
        self.acc.remove(&self.ratios, j);
    }

    /// Theorem 1 success probability `Q_i` under the current
    /// probabilities — O(1): exact on the dense table, the upper end of
    /// the certified interval on a truncated one.
    #[inline]
    pub fn success_probability(&self, i: usize) -> f64 {
        self.acc.success_probability(&self.ratios, i)
    }

    /// `Q_i` conditioned on link `i` transmitting (`q_i` read as 1,
    /// interference unchanged) — O(1). The Sec. 6 expected send reward is
    /// `2·Q̃_i − 1` with this `Q̃_i`.
    #[inline]
    pub fn conditional_success_probability(&self, i: usize) -> f64 {
        self.acc.conditional_success_probability(&self.ratios, i)
    }

    /// Certified interval `[p·e^{−τᵢ}, p]` containing the exact Theorem 1
    /// probability of link `i` (collapsed on the dense table).
    #[inline]
    pub fn success_interval(&self, i: usize) -> (f64, f64) {
        self.acc.success_interval(&self.ratios, i)
    }

    /// All success probabilities — O(n).
    pub fn success_probabilities(&self) -> Vec<f64> {
        self.acc.success_probabilities(&self.ratios)
    }

    /// Expected successes `Σ_i Q_i` — O(n), compensated summation.
    pub fn expected_successes(&self) -> f64 {
        self.acc.expected_successes(&self.ratios)
    }

    /// Certified interval containing the exact expected number of
    /// successes (collapsed on the dense table).
    pub fn expected_successes_interval(&self) -> (f64, f64) {
        self.acc.expected_successes_interval(&self.ratios)
    }

    /// Change in (optionally weighted) expected successes if silent link
    /// `j` were activated — O(n) dense, O(deg j) sparse; does not mutate
    /// the evaluator.
    ///
    /// # Panics
    /// If `q_j ≠ 0`.
    pub fn activation_gain(&self, weights: Option<&[f64]>, j: usize) -> f64 {
        self.acc.activation_gain(&self.ratios, weights, j)
    }
}

/// Evaluates `Σ_i Q_i` for many probability vectors against one shared
/// ratio cache, in parallel (rayon). The per-vector cost is O(n²) — the
/// win over calling [`expected_successes`](crate::expected_successes) per
/// vector is the shared O(n²) ratio precomputation and the parallelism
/// across vectors (Monte Carlo replications, `q`-grid sweeps).
///
/// When `tele` carries a tracer, the shared ratio precomputation runs
/// under an `evaluator/ratios` span and the parallel sweep under
/// `evaluator/batch` (one span per call — a batch is a chunky unit of
/// work, so tracing is never sampled here). `None` is the uninstrumented
/// path; the result is bit-identical either way.
pub fn batch_expected_successes(
    gain: &GainMatrix,
    params: &SinrParams,
    prob_sets: &[Vec<f64>],
    tele: Option<&Telemetry>,
) -> Vec<f64> {
    let (tracer, ratios_span, batch_span) = evaluator_spans(tele);
    let ratios = {
        let _g = trace::guard(tracer, ratios_span);
        InterferenceRatios::new(gain, params)
    };
    let _g = trace::guard(tracer, batch_span);
    prob_sets
        .into_par_iter()
        .map(|probs| {
            let mut acc = SuccessAccumulator::new(ratios.len());
            acc.set_probs(&ratios, probs);
            acc.expected_successes(&ratios)
        })
        .collect()
}

/// Evaluates the full success-probability vector for many probability
/// vectors against one shared ratio cache, in parallel (rayon), under the
/// same optional spans as [`batch_expected_successes`].
pub fn batch_success_probabilities(
    gain: &GainMatrix,
    params: &SinrParams,
    prob_sets: &[Vec<f64>],
    tele: Option<&Telemetry>,
) -> Vec<Vec<f64>> {
    let (tracer, ratios_span, batch_span) = evaluator_spans(tele);
    let ratios = {
        let _g = trace::guard(tracer, ratios_span);
        InterferenceRatios::new(gain, params)
    };
    let _g = trace::guard(tracer, batch_span);
    prob_sets
        .into_par_iter()
        .map(|probs| {
            let mut acc = SuccessAccumulator::new(ratios.len());
            acc.set_probs(&ratios, probs);
            acc.success_probabilities(&ratios)
        })
        .collect()
}

/// Evaluates `Σ_{i∈S} Q_i` for many fixed transmit sets against one
/// shared ratio cache, in parallel (rayon) — the batch counterpart of
/// [`expected_successes_of_set`](crate::expected_successes_of_set), under
/// the same optional spans as [`batch_expected_successes`].
pub fn batch_expected_successes_of_sets(
    gain: &GainMatrix,
    params: &SinrParams,
    sets: &[Vec<usize>],
    tele: Option<&Telemetry>,
) -> Vec<f64> {
    let (tracer, ratios_span, batch_span) = evaluator_spans(tele);
    let ratios = {
        let _g = trace::guard(tracer, ratios_span);
        InterferenceRatios::new(gain, params)
    };
    let _g = trace::guard(tracer, batch_span);
    sets.into_par_iter()
        .map(|set| {
            let mut acc = SuccessAccumulator::new(ratios.len());
            for &j in set {
                acc.insert(&ratios, j);
            }
            kahan_sum(set.iter().map(|&i| acc.success_probability(&ratios, i)))
        })
        .collect()
}

type EvaluatorSpans<'a> = (
    Option<&'a trace::Tracer>,
    Option<trace::SpanId>,
    Option<trace::SpanId>,
);

fn evaluator_spans(tele: Option<&Telemetry>) -> EvaluatorSpans<'_> {
    let tracer = tele.and_then(Telemetry::tracer);
    let ratios_span = tracer.map(|tr| tr.span_id("evaluator/ratios"));
    let batch_span = tracer.map(|tr| tr.span_id("evaluator/batch"));
    (tracer, ratios_span, batch_span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::success::{
        expected_successes, expected_successes_of_set, success_probabilities, success_probability,
    };

    fn paper_gain() -> GainMatrix {
        GainMatrix::from_raw(
            3,
            vec![
                10.0, 2.0, 1.0, //
                2.0, 8.0, 0.5, //
                1.0, 0.5, 12.0,
            ],
        )
    }

    #[test]
    fn evaluator_matches_scratch_closed_form() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let probs = [0.9, 0.3, 0.6];
        let mut ev = SuccessEvaluator::new(&gm, &params);
        ev.set_probs(&probs);
        let got = ev.success_probabilities();
        let want = success_probabilities(&gm, &params, &probs);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
        let total = ev.expected_successes();
        let want_total = expected_successes(&gm, &params, &probs);
        assert!((total - want_total).abs() < 1e-12);
    }

    #[test]
    fn incremental_sequence_tracks_scratch() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.0);
        let mut ev = SuccessEvaluator::new(&gm, &params);
        ev.insert(0);
        ev.insert(2);
        ev.set_prob(1, 0.4);
        ev.remove(0);
        ev.set_prob(2, 0.75);
        let probs = [0.0, 0.4, 0.75];
        assert_eq!(ev.probs(), &probs);
        for i in 0..3 {
            let want = success_probability(&gm, &params, &probs, i);
            assert!((ev.success_probability(i) - want).abs() < 1e-12);
        }
        assert_eq!(ev.prob(1), 0.4);
        assert_eq!(ev.len(), 3);
        assert!(!ev.is_empty());
    }

    #[test]
    fn activation_gain_matches_set_difference() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.1);
        let mut ev = SuccessEvaluator::new(&gm, &params);
        ev.insert(0);
        let before = expected_successes(&gm, &params, &[1.0, 0.0, 0.0]);
        let after = expected_successes(&gm, &params, &[1.0, 1.0, 0.0]);
        let gain = ev.activation_gain(None, 1);
        assert!((gain - (after - before)).abs() < 1e-12, "{gain}");
    }

    #[test]
    fn reset_and_uniform() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.0);
        let mut ev = SuccessEvaluator::new(&gm, &params);
        ev.set_uniform(0.5);
        let want = expected_successes(&gm, &params, &[0.5, 0.5, 0.5]);
        assert!((ev.expected_successes() - want).abs() < 1e-12);
        ev.reset();
        assert_eq!(ev.expected_successes(), 0.0);
    }

    #[test]
    fn batch_entry_points_match_sequential() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let prob_sets = vec![
            vec![1.0, 1.0, 1.0],
            vec![0.5, 0.0, 0.9],
            vec![0.0, 0.0, 0.0],
        ];
        let totals = batch_expected_successes(&gm, &params, &prob_sets, None);
        let vectors = batch_success_probabilities(&gm, &params, &prob_sets, None);
        for (k, probs) in prob_sets.iter().enumerate() {
            let want = expected_successes(&gm, &params, probs);
            assert!((totals[k] - want).abs() < 1e-12);
            let want_vec = success_probabilities(&gm, &params, probs);
            for (g, w) in vectors[k].iter().zip(&want_vec) {
                assert!((g - w).abs() < 1e-12);
            }
        }
        let sets = vec![vec![0], vec![0, 2], vec![0, 1, 2], vec![]];
        let set_totals = batch_expected_successes_of_sets(&gm, &params, &sets, None);
        for (k, set) in sets.iter().enumerate() {
            let want = expected_successes_of_set(&gm, &params, set);
            assert!((set_totals[k] - want).abs() < 1e-12, "set {set:?}");
        }
    }

    #[test]
    fn traced_batches_match_untraced_and_emit_spans() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let prob_sets = vec![vec![1.0, 1.0, 1.0], vec![0.5, 0.0, 0.9]];
        let sets = vec![vec![0, 2], vec![1]];
        let tele = Telemetry::new().with_tracing();
        let totals = batch_expected_successes(&gm, &params, &prob_sets, Some(&tele));
        let vectors = batch_success_probabilities(&gm, &params, &prob_sets, Some(&tele));
        let set_totals = batch_expected_successes_of_sets(&gm, &params, &sets, Some(&tele));
        assert_eq!(
            totals,
            batch_expected_successes(&gm, &params, &prob_sets, None)
        );
        assert_eq!(
            vectors,
            batch_success_probabilities(&gm, &params, &prob_sets, None)
        );
        assert_eq!(
            set_totals,
            batch_expected_successes_of_sets(&gm, &params, &sets, None)
        );
        let trace = tele.tracer().unwrap().snapshot();
        assert_eq!(trace.dropped, 0);
        let count = |name: &str| trace.records.iter().filter(|r| r.name == name).count();
        assert_eq!(count("evaluator/ratios"), 3, "one ratio build per batch");
        assert_eq!(count("evaluator/batch"), 3, "one batch span per call");
    }

    #[test]
    fn from_ratios_shares_cache() {
        let gm = paper_gain();
        let params = SinrParams::new(2.0, 1.5, 0.0);
        let ratios = InterferenceRatios::new(&gm, &params);
        let mut ev = SuccessEvaluator::from_ratios(ratios.clone());
        ev.insert(1);
        assert_eq!(ev.ratios(), &ratios);
        let want = success_probability(&gm, &params, &[0.0, 1.0, 0.0], 1);
        assert!((ev.success_probability(1) - want).abs() < 1e-12);
    }
}
