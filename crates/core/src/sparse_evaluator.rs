//! Sparse Theorem 1 evaluation and the dense/sparse routing facade.
//!
//! [`SparseSuccessEvaluator`] is the [`RatioEvaluator`] on the
//! ε-truncated [`SparseInterferenceRatios`] table: construction from
//! geometry costs O(n log n) (a bounded number of examined pairs per
//! receiver at a fixed density, plus O(log n) tail-bound terms), one
//! probability change costs O(deg) instead of O(n), and every query
//! additionally exposes the certified error interval `[p·e^{−τᵢ}, p]`
//! around the exact dense value (see `rayfade_sinr::sparse`). It runs the
//! dense [`SuccessEvaluator`]'s code, so at `δ = 0` it gives the dense
//! bits.
//!
//! [`NetworkEvaluator`] is the routing facade: below
//! [`SPARSE_CROSSOVER`] links it builds the exact dense evaluator
//! (keeping small instances bit-identical to the historical path); at or
//! above it, the sparse path with [`DEFAULT_SPARSE_DELTA`]. Consumers
//! (`sim` probability-grid sweeps, the `dynamic` engine's analytic slot
//! resolver) route through this facade and scale transparently.

use crate::evaluator::{RatioEvaluator, SuccessEvaluator};
use rayfade_geometry::Network;
use rayfade_sinr::{
    AmortizedAccumulator, GainMatrix, InterferenceRatios, PowerAssignment, SinrParams,
    SparseInterferenceRatios,
};
use rayfade_telemetry::Telemetry;

/// Instance size at which [`NetworkEvaluator`] switches from the exact
/// dense evaluator to the certified sparse one. Below this the dense
/// O(n²) build stays bit-identical to the historical path. At n = 2 047
/// (one link per 10⁶ area units, α = 4) it costs ~115 ms for the gain
/// matrix plus ~30 ms for the exact evaluator or ~110 ms for the
/// churn-amortized one, against ~2–3 ms for the spatial-grid sparse build
/// at n = 2 048 (8.4 examined pairs per receiver; one core of a 2-vCPU
/// Xeon VM). Above it the dense cache grows unaffordable (n = 10⁵ would
/// need ~160 GB) while the sparse build costs O(n log n): ~0.15 s at
/// n = 10⁵.
pub const SPARSE_CROSSOVER: usize = 2048;

/// Truncation bound `δ` used when [`NetworkEvaluator`] routes to the
/// sparse path: success probabilities are certified to a relative error
/// of at most 0.1%, far below the Monte Carlo noise of the workloads
/// that run at these sizes.
pub const DEFAULT_SPARSE_DELTA: f64 = 1e-3;

/// The certified evaluator on the ε-truncated sparse ratio table (see the
/// [module docs](self)).
pub type SparseSuccessEvaluator = RatioEvaluator<SparseInterferenceRatios>;

impl SparseSuccessEvaluator {
    /// Builds the evaluator from a dense gain matrix with truncation
    /// bound `delta` (O(n²) build, O(n + nnz) evaluation). `delta = 0`
    /// reproduces the dense ratios exactly.
    pub fn new(gain: &GainMatrix, params: &SinrParams, delta: f64) -> Self {
        Self::from_ratios(SparseInterferenceRatios::from_gain(gain, params, delta))
    }

    /// Builds the evaluator directly from geometry via the spatial-grid
    /// builder — O(n log n), never materializes a dense structure.
    pub fn for_network(
        network: &Network,
        power: &PowerAssignment,
        params: &SinrParams,
        delta: f64,
        tele: Option<&Telemetry>,
    ) -> Self {
        Self::from_ratios(rayfade_spatial::build_sparse_ratios(
            network, power, params, delta, tele,
        ))
    }

    /// The truncation bound `δ` the table was built for.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.ratios().delta()
    }
}

/// Churn-amortized dense Theorem 1 evaluator: the
/// [`rayfade_sinr::AmortizedAccumulator`] (integer-quantized logs, state
/// bit-equal to a from-scratch rebuild regardless of churn order) bundled
/// with its ratio cache, mirroring [`SuccessEvaluator`]'s shape. This is
/// the persistent per-replication cache of the dynamic engine's analytic
/// slot resolver: the transmit mask flips few links per slot, so slots
/// cost O(flips · n) contiguous row adds instead of an O(n²) rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct AmortizedEvaluator {
    ratios: InterferenceRatios,
    acc: AmortizedAccumulator,
}

impl AmortizedEvaluator {
    /// Builds the evaluator (O(n²) ratio + log-row precomputation); all
    /// probabilities start at 0.
    pub fn new(gain: &GainMatrix, params: &SinrParams) -> Self {
        Self::from_ratios(InterferenceRatios::new(gain, params))
    }

    /// Wraps an existing ratio cache.
    pub fn from_ratios(ratios: InterferenceRatios) -> Self {
        let acc = AmortizedAccumulator::new(&ratios);
        AmortizedEvaluator { ratios, acc }
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

    /// The underlying ratio cache.
    #[inline]
    pub fn ratios(&self) -> &InterferenceRatios {
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

    /// Resets every probability to 0 — O(n).
    pub fn reset(&mut self) {
        self.acc.reset();
    }

    /// Replaces the whole probability vector — blocked O(n²) rebuild.
    pub fn set_probs(&mut self, probs: &[f64]) {
        self.acc.set_probs(&self.ratios, probs);
    }

    /// Changes one probability — O(n).
    pub fn set_prob(&mut self, j: usize, q: f64) {
        self.acc.set_prob(&self.ratios, j, q);
    }

    /// Sets `q_j = 1` (link joins the transmit set) — one contiguous row
    /// add.
    pub fn insert(&mut self, j: usize) {
        self.acc.insert(&self.ratios, j);
    }

    /// Sets `q_j = 0` (link leaves the transmit set) — one contiguous row
    /// subtract.
    pub fn remove(&mut self, j: usize) {
        self.acc.remove(&self.ratios, j);
    }

    /// Theorem 1 success probability of link `i` (up to the 2⁻³⁸
    /// log-quantization of the accumulator).
    #[inline]
    pub fn success_probability(&self, i: usize) -> f64 {
        self.acc.success_probability(&self.ratios, i)
    }

    /// Success probability of link `i` conditioned on transmitting — the
    /// analytic resolver's Bernoulli parameter.
    #[inline]
    pub fn conditional_success_probability(&self, i: usize) -> f64 {
        self.acc.conditional_success_probability(&self.ratios, i)
    }

    /// All success probabilities — O(n).
    pub fn success_probabilities(&self) -> Vec<f64> {
        self.acc.success_probabilities(&self.ratios)
    }

    /// Sets every probability to the same value — a reset plus one
    /// [`set_prob`](Self::set_prob) per link, O(n²) without allocating.
    pub fn set_uniform(&mut self, q: f64) {
        self.reset();
        for j in 0..self.len() {
            self.set_prob(j, q);
        }
    }

    /// Expected number of successes — O(n), compensated summation.
    pub fn expected_successes(&self) -> f64 {
        rayfade_sinr::kahan_sum((0..self.len()).map(|i| self.success_probability(i)))
    }
}

/// Size-routing facade over the dense and sparse Theorem 1 evaluators
/// (see the [module docs](self) for the crossover policy).
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkEvaluator {
    /// Exact dense evaluation (small instances).
    Dense(SuccessEvaluator),
    /// Certified ε-truncated sparse evaluation (large instances).
    Sparse(SparseSuccessEvaluator),
    /// Churn-amortized dense evaluation (small instances on the analytic
    /// slot path).
    Amortized(AmortizedEvaluator),
}

impl NetworkEvaluator {
    /// Builds from a dense gain matrix: dense below
    /// [`SPARSE_CROSSOVER`], sparse with [`DEFAULT_SPARSE_DELTA`] at or
    /// above it.
    pub fn from_gain(gain: &GainMatrix, params: &SinrParams) -> Self {
        if gain.len() < SPARSE_CROSSOVER {
            NetworkEvaluator::Dense(SuccessEvaluator::new(gain, params))
        } else {
            NetworkEvaluator::Sparse(SparseSuccessEvaluator::new(
                gain,
                params,
                DEFAULT_SPARSE_DELTA,
            ))
        }
    }

    /// Builds from geometry: dense (via `GainMatrix::from_geometry`)
    /// below [`SPARSE_CROSSOVER`]; at or above it, the O(n log n)
    /// spatial-grid builder — no dense structure is ever materialized.
    pub fn for_network(
        network: &Network,
        power: &PowerAssignment,
        params: &SinrParams,
        tele: Option<&Telemetry>,
    ) -> Self {
        if network.len() < SPARSE_CROSSOVER {
            let gain = GainMatrix::from_geometry(network, power, params.alpha);
            NetworkEvaluator::Dense(SuccessEvaluator::new(&gain, params))
        } else {
            NetworkEvaluator::Sparse(SparseSuccessEvaluator::for_network(
                network,
                power,
                params,
                DEFAULT_SPARSE_DELTA,
                tele,
            ))
        }
    }

    /// Builds the *churn-amortized* routing variant: the amortized dense
    /// evaluator below [`SPARSE_CROSSOVER`] (bit-equal incremental state,
    /// contiguous mask-flip row adds), the certified sparse one (already
    /// O(deg) per flip) at or above it. Above the crossover this pays the
    /// O(n²) gain the caller built plus a row-by-row truncation;
    /// [`amortized_for_network`](Self::amortized_for_network) builds its
    /// sparse cache from geometry instead.
    pub fn amortized_from_gain(gain: &GainMatrix, params: &SinrParams) -> Self {
        if gain.len() < SPARSE_CROSSOVER {
            NetworkEvaluator::Amortized(AmortizedEvaluator::new(gain, params))
        } else {
            NetworkEvaluator::Sparse(SparseSuccessEvaluator::new(
                gain,
                params,
                DEFAULT_SPARSE_DELTA,
            ))
        }
    }

    /// Builds the churn-amortized routing variant from geometry: below
    /// [`SPARSE_CROSSOVER`] exactly
    /// [`amortized_from_gain`](Self::amortized_from_gain) over
    /// `GainMatrix::from_geometry`; at or above it, the spatial-grid
    /// sparse evaluator with [`DEFAULT_SPARSE_DELTA`], so no dense
    /// structure is ever materialized. This is the cache the dynamic
    /// engine's analytic slot resolver persists across slots.
    pub fn amortized_for_network(
        network: &Network,
        power: &PowerAssignment,
        params: &SinrParams,
    ) -> Self {
        if network.len() < SPARSE_CROSSOVER {
            let gain = GainMatrix::from_geometry(network, power, params.alpha);
            Self::amortized_from_gain(&gain, params)
        } else {
            NetworkEvaluator::Sparse(SparseSuccessEvaluator::for_network(
                network,
                power,
                params,
                DEFAULT_SPARSE_DELTA,
                None,
            ))
        }
    }

    /// Whether the sparse path was selected.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self, NetworkEvaluator::Sparse(_))
    }

    /// Whether the churn-amortized dense path was selected.
    #[inline]
    pub fn is_amortized(&self) -> bool {
        matches!(self, NetworkEvaluator::Amortized(_))
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        match self {
            NetworkEvaluator::Dense(ev) => ev.len(),
            NetworkEvaluator::Sparse(ev) => ev.len(),
            NetworkEvaluator::Amortized(ev) => ev.len(),
        }
    }

    /// Whether the instance has no links.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets every probability to 0.
    pub fn reset(&mut self) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.reset(),
            NetworkEvaluator::Sparse(ev) => ev.reset(),
            NetworkEvaluator::Amortized(ev) => ev.reset(),
        }
    }

    /// Replaces the whole probability vector.
    pub fn set_probs(&mut self, probs: &[f64]) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.set_probs(probs),
            NetworkEvaluator::Sparse(ev) => ev.set_probs(probs),
            NetworkEvaluator::Amortized(ev) => ev.set_probs(probs),
        }
    }

    /// Sets every probability to the same value.
    pub fn set_uniform(&mut self, q: f64) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.set_uniform(q),
            NetworkEvaluator::Sparse(ev) => ev.set_uniform(q),
            NetworkEvaluator::Amortized(ev) => ev.set_uniform(q),
        }
    }

    /// Changes one probability.
    pub fn set_prob(&mut self, j: usize, q: f64) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.set_prob(j, q),
            NetworkEvaluator::Sparse(ev) => ev.set_prob(j, q),
            NetworkEvaluator::Amortized(ev) => ev.set_prob(j, q),
        }
    }

    /// Sets `q_j = 1` (link joins the transmit set) — the slot-churn fast
    /// path on every variant (amortized: contiguous row add; sparse:
    /// O(deg j)).
    pub fn insert(&mut self, j: usize) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.insert(j),
            NetworkEvaluator::Sparse(ev) => ev.insert(j),
            NetworkEvaluator::Amortized(ev) => ev.insert(j),
        }
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    pub fn remove(&mut self, j: usize) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.remove(j),
            NetworkEvaluator::Sparse(ev) => ev.remove(j),
            NetworkEvaluator::Amortized(ev) => ev.remove(j),
        }
    }

    /// Moves the evaluator from transmit set `from` to transmit set `to`
    /// (both ascending; the evaluator must hold `q = 1` on `from` and 0
    /// everywhere else) — the analytic slot resolver's per-slot update.
    ///
    /// `Dense` and `Sparse` apply one [`remove`](Self::remove) or
    /// [`insert`](Self::insert) per link that flipped, in ascending link
    /// order: their f64 log sums depend on the order, and the committed
    /// bits were produced flip by flip in that order. `Amortized` sums
    /// integers, whose result does not depend on the order, so it takes
    /// the cheaper route to the same bits: when `to` has fewer links than
    /// there are flips it resets and inserts `to`, otherwise it applies
    /// the flips. Either way a slot costs O(min(flips, |to|)·n) there.
    pub fn switch_transmit_set(&mut self, from: &[usize], to: &[usize]) {
        debug_assert!(from.windows(2).all(|w| w[0] < w[1]), "`from` not ascending");
        debug_assert!(to.windows(2).all(|w| w[0] < w[1]), "`to` not ascending");
        if let NetworkEvaluator::Amortized(ev) = self {
            debug_assert!(
                from.iter().all(|&j| ev.prob(j) == 1.0)
                    && ev.probs().iter().filter(|&&q| q != 0.0).count() == from.len(),
                "the evaluator must hold exactly the transmit set `from`"
            );
            let mut flips = 0;
            for_each_flip(from, to, |_, _| flips += 1);
            if to.len() < flips {
                ev.reset();
                for &k in to {
                    ev.insert(k);
                }
                return;
            }
        }
        for_each_flip(from, to, |j, joins| {
            if joins {
                self.insert(j);
            } else {
                self.remove(j);
            }
        });
    }

    /// Success probability of link `i` (dense: exact; sparse: certified
    /// upper end).
    pub fn success_probability(&self, i: usize) -> f64 {
        match self {
            NetworkEvaluator::Dense(ev) => ev.success_probability(i),
            NetworkEvaluator::Sparse(ev) => ev.success_probability(i),
            NetworkEvaluator::Amortized(ev) => ev.success_probability(i),
        }
    }

    /// Success probability of link `i` conditioned on transmitting —
    /// the analytic slot resolver's Bernoulli parameter (counterfactual
    /// for idle links, realized for active ones).
    pub fn conditional_success_probability(&self, i: usize) -> f64 {
        match self {
            NetworkEvaluator::Dense(ev) => ev.conditional_success_probability(i),
            NetworkEvaluator::Sparse(ev) => ev.conditional_success_probability(i),
            NetworkEvaluator::Amortized(ev) => ev.conditional_success_probability(i),
        }
    }

    /// All success probabilities.
    pub fn success_probabilities(&self) -> Vec<f64> {
        match self {
            NetworkEvaluator::Dense(ev) => ev.success_probabilities(),
            NetworkEvaluator::Sparse(ev) => ev.success_probabilities(),
            NetworkEvaluator::Amortized(ev) => ev.success_probabilities(),
        }
    }

    /// Expected number of successes.
    pub fn expected_successes(&self) -> f64 {
        match self {
            NetworkEvaluator::Dense(ev) => ev.expected_successes(),
            NetworkEvaluator::Sparse(ev) => ev.expected_successes(),
            NetworkEvaluator::Amortized(ev) => ev.expected_successes(),
        }
    }

    /// Certified interval containing the exact expected number of
    /// successes (degenerate `[v, v]` on the dense paths, which are exact
    /// up to accumulator rounding).
    pub fn expected_successes_interval(&self) -> (f64, f64) {
        match self {
            NetworkEvaluator::Dense(ev) => ev.expected_successes_interval(),
            NetworkEvaluator::Sparse(ev) => ev.expected_successes_interval(),
            NetworkEvaluator::Amortized(ev) => {
                let v = ev.expected_successes();
                (v, v)
            }
        }
    }
}

/// Calls `flip(j, joins)` for every link `j` in exactly one of the
/// ascending lists `from` and `to`, in ascending link order; `joins` is
/// whether `j` is in `to`.
fn for_each_flip(from: &[usize], to: &[usize], mut flip: impl FnMut(usize, bool)) {
    let (mut old, mut new) = (from.iter().peekable(), to.iter().peekable());
    loop {
        match (old.peek(), new.peek()) {
            (Some(&&j), Some(&&k)) if j == k => {
                old.next();
                new.next();
            }
            (Some(&&j), Some(&&k)) if j < k => {
                flip(j, false);
                old.next();
            }
            (Some(&&j), None) => {
                flip(j, false);
                old.next();
            }
            (_, Some(&&k)) => {
                flip(k, true);
                new.next();
            }
            (None, None) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gain3() -> GainMatrix {
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
    fn sparse_evaluator_mirrors_dense_at_delta_zero() {
        let gm = gain3();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let mut dense = SuccessEvaluator::new(&gm, &params);
        let mut sparse = SparseSuccessEvaluator::new(&gm, &params, 0.0);
        for ev in [0.7, 0.0, 1.0] {
            dense.set_uniform(ev);
            sparse.set_uniform(ev);
            for i in 0..3 {
                let d = dense.success_probability(i);
                let (lo, hi) = sparse.success_interval(i);
                assert_eq!(d.to_bits(), hi.to_bits(), "q={ev} link {i}");
                assert_eq!(lo, hi, "delta = 0 collapses the interval");
            }
        }
        dense.insert(0);
        sparse.insert(0);
        dense.set_prob(1, 0.3);
        sparse.set_prob(1, 0.3);
        dense.remove(2);
        sparse.remove(2);
        assert_eq!(
            dense.expected_successes().to_bits(),
            sparse.expected_successes().to_bits()
        );
        assert_eq!(
            dense.activation_gain(None, 2).to_bits(),
            sparse.activation_gain(None, 2).to_bits()
        );
    }

    #[test]
    fn interval_contains_dense_value_for_positive_delta() {
        let gm = gain3();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let mut dense = SuccessEvaluator::new(&gm, &params);
        let mut sparse = SparseSuccessEvaluator::new(&gm, &params, 0.4);
        let probs = [0.9, 0.5, 1.0];
        dense.set_probs(&probs);
        sparse.set_probs(&probs);
        for i in 0..3 {
            let d = dense.success_probability(i);
            let (lo, hi) = sparse.success_interval(i);
            assert!(lo - 1e-12 <= d && d <= hi + 1e-12, "link {i}");
        }
        let (lo, hi) = sparse.expected_successes_interval();
        let d = dense.expected_successes();
        assert!(lo - 1e-12 <= d && d <= hi + 1e-12);
    }

    #[test]
    fn facade_routes_small_instances_dense() {
        let gm = gain3();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let mut ev = NetworkEvaluator::from_gain(&gm, &params);
        assert!(!ev.is_sparse());
        assert_eq!(ev.len(), 3);
        ev.set_uniform(0.5);
        let mut dense = SuccessEvaluator::new(&gm, &params);
        dense.set_uniform(0.5);
        assert_eq!(ev.expected_successes(), dense.expected_successes());
        let (lo, hi) = ev.expected_successes_interval();
        assert_eq!(lo, hi, "dense interval is degenerate");
    }

    #[test]
    fn facade_routes_large_instances_sparse() {
        // A block-diagonal raw gain matrix above the crossover: cheap to
        // build, exercises the sparse route end to end.
        let n = SPARSE_CROSSOVER;
        let mut g = vec![0.0; n * n];
        for i in 0..n {
            g[i * n + i] = 10.0;
            let j = i ^ 1; // pair (2k, 2k+1)
            if j < n {
                g[i * n + j] = 2.0;
            }
        }
        let gm = GainMatrix::from_raw(n, g);
        let params = SinrParams::new(2.0, 1.5, 0.1);
        let mut ev = NetworkEvaluator::from_gain(&gm, &params);
        assert!(ev.is_sparse());
        ev.set_uniform(1.0);
        let (lo, hi) = ev.expected_successes_interval();
        // Paired links: ρ = β/(β + s_ii/s_ji) = 1.5/6.5, so per-link
        // Q = e^{−βν/s_ii}·(1 − ρ) = e^{−0.015}·10/13.
        let per_link = (-1.5f64 * 0.1 / 10.0).exp() * (10.0 / 13.0);
        let want = per_link * n as f64;
        assert!(lo <= want + 1e-9 && want <= hi + 1e-9, "{lo} {want} {hi}");
        ev.reset();
        assert_eq!(ev.expected_successes(), 0.0);
    }

    #[test]
    fn amortized_route_matches_dense_within_quantization() {
        let gm = gain3();
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let mut ev = NetworkEvaluator::amortized_from_gain(&gm, &params);
        assert!(ev.is_amortized() && !ev.is_sparse());
        let mut dense = SuccessEvaluator::new(&gm, &params);
        // Slot-style churn through the shared facade surface.
        for op in [0usize, 2, 1, 0, 2] {
            ev.insert(op);
            dense.insert(op);
        }
        ev.remove(2);
        dense.remove(2);
        ev.set_prob(1, 0.4);
        dense.set_prob(1, 0.4);
        for i in 0..3 {
            let a = ev.success_probability(i);
            let d = dense.success_probability(i);
            assert!(
                (a - d).abs() <= 1e-10 * d.max(1e-12),
                "link {i}: {a} vs {d}"
            );
            let ac = ev.conditional_success_probability(i);
            let dc = dense.conditional_success_probability(i);
            assert!((ac - dc).abs() <= 1e-10 * dc.max(1e-12), "link {i}");
        }
        let (lo, hi) = ev.expected_successes_interval();
        assert_eq!(lo, hi, "amortized interval is degenerate");
        // Churned facade state equals a fresh rebuild bit-for-bit.
        let mut rebuilt = NetworkEvaluator::amortized_from_gain(&gm, &params);
        rebuilt.set_probs(&[1.0, 0.4, 0.0]);
        assert_eq!(ev, rebuilt);
    }

    #[test]
    fn amortized_route_goes_sparse_above_crossover() {
        let n = SPARSE_CROSSOVER;
        let mut g = vec![0.0; n * n];
        for i in 0..n {
            g[i * n + i] = 10.0;
            g[i * n + (i ^ 1)] = 2.0;
        }
        let gm = GainMatrix::from_raw(n, g);
        let params = SinrParams::new(2.0, 1.5, 0.1);
        let mut ev = NetworkEvaluator::amortized_from_gain(&gm, &params);
        assert!(ev.is_sparse() && !ev.is_amortized());
        ev.insert(0);
        ev.insert(1);
        let p = ev.conditional_success_probability(0);
        // Paired links at q = 1: conditional Q = e^{−βν/s}·(1 − ρ).
        let want = (-1.5f64 * 0.1 / 10.0).exp() * (10.0 / 13.0);
        assert!((p - want).abs() < 1e-6, "{p} vs {want}");
        ev.remove(1);
        assert!(ev.conditional_success_probability(0) > p);
    }

    #[test]
    fn amortized_for_network_is_the_gain_route_below_crossover() {
        use rayfade_geometry::generator::PaperTopology;
        let net = PaperTopology {
            links: 40,
            side: 600.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(11);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let mut built = NetworkEvaluator::amortized_for_network(&net, &power, &params);
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let mut reference = NetworkEvaluator::amortized_from_gain(&gain, &params);
        assert!(built.is_amortized());
        assert_eq!(built, reference, "fresh builds");
        for (k, j) in [3usize, 17, 3, 29, 0, 17, 38, 5].into_iter().enumerate() {
            for ev in [&mut built, &mut reference] {
                if k % 3 == 2 {
                    ev.remove(j);
                } else {
                    ev.insert(j);
                }
            }
        }
        built.set_prob(12, 0.3);
        reference.set_prob(12, 0.3);
        assert_eq!(built, reference, "after churn");
    }

    #[test]
    fn amortized_for_network_certifies_dense_conditionals_at_crossover() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rayfade_geometry::generator::PaperTopology;
        // The 10⁴-link dynamic benchmark's deployment at n = crossover:
        // one link per 10⁶ area units, lengths 20–40.
        let n = SPARSE_CROSSOVER;
        let net = PaperTopology {
            links: n,
            side: (n as f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(0x5107);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let mut built = NetworkEvaluator::amortized_for_network(&net, &power, &params);
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let mut dense = SuccessEvaluator::new(&gain, &params);
        let mut rng = StdRng::seed_from_u64(0xc0de);
        for density in [0.02, 0.2, 0.7] {
            let mask: Vec<f64> = (0..n)
                .map(|_| f64::from(u8::from(rng.gen::<f64>() < density)))
                .collect();
            built.set_probs(&mask);
            dense.set_probs(&mask);
            let NetworkEvaluator::Sparse(sparse) = &built else {
                panic!("at the crossover the facade must build the sparse cache");
            };
            for i in 0..n {
                let d = dense.conditional_success_probability(i);
                let hi = sparse.conditional_success_probability(i);
                let lo = hi * (-sparse.ratios().tau(i)).exp();
                assert!(
                    lo - 1e-12 <= d && d <= hi + 1e-12,
                    "density {density} link {i}: {d} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn facade_for_network_matches_grid_path_on_small_instances() {
        use rayfade_geometry::generator::PaperTopology;
        let net = PaperTopology {
            links: 12,
            side: 400.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(3);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let mut ev = NetworkEvaluator::for_network(&net, &power, &params, None);
        assert!(!ev.is_sparse());
        ev.set_uniform(0.4);
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let mut dense = SuccessEvaluator::new(&gain, &params);
        dense.set_uniform(0.4);
        assert_eq!(ev.expected_successes(), dense.expected_successes());
    }
}
