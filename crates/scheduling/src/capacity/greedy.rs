//! Affectance-guarded greedy capacity maximization.
//!
//! The constant-factor algorithms for fixed powers — Goussevskaia,
//! Wattenhofer, Halldórsson & Welzl \[8\] for uniform powers and
//! Halldórsson–Mitra \[7\] for oblivious (e.g. square-root) powers — share
//! one skeleton: process links from strongest to weakest and accept a link
//! when its mutual affectance with the already-accepted set stays below a
//! constant guard. Our implementation generalizes the skeleton to arbitrary
//! gain matrices while keeping the guarantee that matters downstream:
//! **the returned set is always feasible**, by checking both the incoming
//! affectance of the candidate and the headroom of every accepted link.
//!
//! For geometric instances with the referenced power schemes this is the
//! transferred algorithm of the paper's Sec. 4; for arbitrary gains it
//! degrades gracefully into a feasibility-preserving heuristic.

use super::{CapacityAlgorithm, CapacityInstance, SelectionStats};
use rayfade_sinr::{Affectance, InterferenceRatios, RatioTable, SuccessAccumulator};
use rayfade_telemetry::trace::{self, Tracer};
use serde::{Deserialize, Serialize};

/// Link processing order for [`GreedyCapacity`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GreedyOrder {
    /// Strongest own signal first (ties by index). Under uniform or
    /// square-root powers this equals shortest-link-first, the order the
    /// referenced algorithms use.
    SignalDescending,
    /// Highest weight first (ties by signal, then index) — for weighted
    /// instances.
    WeightDescending,
    /// Caller-provided order (a permutation of `0..n`).
    Explicit(Vec<usize>),
}

/// Greedy capacity maximization with an affectance guard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyCapacity {
    /// Maximum incoming (unclipped) affectance a candidate may already
    /// suffer from the accepted set. The referenced algorithms use a
    /// constant `< 1`; `1/2` leaves headroom for links accepted later.
    pub in_budget: f64,
    /// Hard cap on the incoming affectance of *accepted* links; `1.0` is
    /// exactly the feasibility boundary. Lower values trade capacity for
    /// interference slack.
    pub acceptance_cap: f64,
    /// Processing order.
    pub order: GreedyOrder,
}

impl Default for GreedyCapacity {
    fn default() -> Self {
        GreedyCapacity {
            in_budget: 0.5,
            acceptance_cap: 1.0,
            order: GreedyOrder::SignalDescending,
        }
    }
}

impl GreedyCapacity {
    /// Greedy with default guards and signal-descending order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Greedy in weight-descending order (for weighted instances).
    pub fn weighted() -> Self {
        GreedyCapacity {
            order: GreedyOrder::WeightDescending,
            ..Self::default()
        }
    }

    /// Writes the processing order into `scratch.order`. Every order is a
    /// strict total order (ties end on the link index), so the unstable
    /// sorts, which allocate nothing, produce the one permutation a
    /// stable sort would, from any starting arrangement.
    fn ordering_into(&self, inst: &CapacityInstance<'_>, scratch: &mut GreedyScratch) {
        let n = inst.len();
        let GreedyScratch { order, listed, .. } = scratch;
        match &self.order {
            GreedyOrder::Explicit(explicit) => {
                assert_eq!(explicit.len(), n, "explicit order must cover all links");
                order.clear();
                order.extend_from_slice(explicit);
            }
            GreedyOrder::SignalDescending => {
                order.clear();
                order.extend(0..n);
                // total_cmp: a NaN entry must not abort the whole
                // schedule; it sorts deterministically (first, in
                // descending order) and is skipped by the select() guard.
                order.sort_unstable_by(|&a, &b| {
                    inst.gain
                        .signal(b)
                        .total_cmp(&inst.gain.signal(a))
                        .then(a.cmp(&b))
                });
            }
            GreedyOrder::WeightDescending => {
                // Non-positive (and NaN) weights are skipped by the
                // select() guard no matter where they sort, so drop them
                // before sorting: queue-weighted slot loops call this
                // every slot with mostly-empty queues, and sorting the
                // handful of backlogged links instead of all n is the
                // difference between O(k log k) and O(n log n) per slot.
                // The surviving order — and hence the selection and its
                // stats — is bit-identical to sorting the full range.
                //
                // The sort starts from the order the last call left:
                // those loops move each backlog by at most a packet or
                // two between calls, so the kept order is nearly sorted
                // and the sort's insertion pass takes about O(k) on it.
                // Kept links whose weight is no longer positive (or that
                // an instance of another size does not have) are dropped,
                // and newly positive ones appended.
                let positive = |i: usize| crate::capacity::strictly_positive(inst.weight(i));
                listed.clear();
                listed.resize(n, false);
                order.retain(|&i| {
                    let keep = i < n && !listed[i] && positive(i);
                    if keep {
                        listed[i] = true;
                    }
                    keep
                });
                order.extend((0..n).filter(|&i| !listed[i] && positive(i)));
                order.sort_unstable_by(|&a, &b| {
                    inst.weight(b)
                        .total_cmp(&inst.weight(a))
                        .then(inst.gain.signal(b).total_cmp(&inst.gain.signal(a)))
                        .then(a.cmp(&b))
                });
            }
        }
    }
}

/// The buffers [`GreedyCapacity::select_into`] reuses from one call to
/// the next: the processing order, which the weight-descending order
/// starts its next sort from, and every accepted link's incoming
/// affectance. Once they have grown to the instance, a selection
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    order: Vec<usize>,
    /// Which links the kept order already lists, while it is rebuilt.
    listed: Vec<bool>,
    cur_in: Vec<f64>,
}

/// Marginal-gain greedy on the *Rayleigh* objective `Σ_i w_i·Q_i`
/// (Theorem 1), powered by the incremental ratio-cache accumulator.
///
/// Each round activates the silent link with the largest exact change in
/// weighted expected successes and stops when no activation improves the
/// objective by more than [`min_gain`](Self::min_gain). With the cached
/// [`InterferenceRatios`] a candidate is scored in O(n) (vs. the O(n²)
/// from-scratch Theorem 1 evaluation), so a full run costs O(n³) instead
/// of O(n⁴) — the benchmark in `rayfade-bench` (`evaluator_bench`)
/// measures the re-scoring speedup directly.
///
/// Unlike [`GreedyCapacity`] this does **not** implement
/// [`CapacityAlgorithm`]: its output maximizes a stochastic objective and
/// is deliberately *not* required to be feasible in the non-fading model
/// (a set can be worth transmitting even when every link only succeeds
/// with probability 1/2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RayleighGreedy {
    /// Stop once the best marginal gain drops to this value or below
    /// (0 accepts any strict improvement).
    pub min_gain: f64,
    /// Optional cap on the number of activated links.
    pub max_links: Option<usize>,
}

impl Default for RayleighGreedy {
    fn default() -> Self {
        RayleighGreedy {
            min_gain: 0.0,
            max_links: None,
        }
    }
}

impl RayleighGreedy {
    /// Greedy accepting any strict improvement, no size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects a transmit set maximizing `Σ w_i·Q_i` greedily, in
    /// activation order. NaN or non-positive weights exclude a link.
    pub fn select(&self, inst: &CapacityInstance<'_>) -> Vec<usize> {
        let ratios = InterferenceRatios::new(inst.gain, inst.params);
        self.select_with_ratios(&ratios, inst.weights)
    }

    /// [`select`](Self::select) against a prebuilt ratio table with
    /// optional per-link weights — the entry point for callers re-solving
    /// many weight vectors on one instance (e.g. queue-weighted
    /// scheduling slot loops).
    ///
    /// The table is the dense [`InterferenceRatios`] or the ε-truncated
    /// `SparseInterferenceRatios`. On a sparse table with truncation bound
    /// `δ = 0` the selection is bit-equal to the dense one; for `δ > 0`
    /// the selector greedily maximizes the certified sparse objective,
    /// whose per-link values sit within `[Q·e^{−τᵢ}, Q]` of the exact
    /// dense ones. A candidate is scored in O(deg) instead of O(n), so a
    /// full run costs O(rounds · n + Σ deg) — this is what makes
    /// queue-weighted scheduling feasible at n ≈ 10⁵.
    ///
    /// # Panics
    /// If a weight vector is given and its length does not match the
    /// table.
    pub fn select_with_ratios<R: RatioTable>(
        &self,
        ratios: &R,
        weights: Option<&[f64]>,
    ) -> Vec<usize> {
        self.select_with_ratios_stats(ratios, weights, None).0
    }

    /// [`select_with_ratios`](Self::select_with_ratios) that also returns
    /// the work tally: candidates scored per round, accepted vs.
    /// rejected. With a `tracer`, the whole candidate-scoring loop runs
    /// under a `selector/rayleigh_greedy` span. Callers that invoke the
    /// selector every slot should gate the tracer on their sampling
    /// policy — a span per selection is cheap, but only when it is not
    /// one per microsecond. Allocates its accumulator and selection;
    /// slot loops keep both and call [`select_into`](Self::select_into).
    ///
    /// # Panics
    /// If a weight vector is given and its length does not match the
    /// table.
    pub fn select_with_ratios_stats<R: RatioTable>(
        &self,
        ratios: &R,
        weights: Option<&[f64]>,
        tracer: Option<&Tracer>,
    ) -> (Vec<usize>, SelectionStats) {
        let mut selected = Vec::new();
        let stats = self.select_into(
            ratios,
            weights,
            tracer,
            &mut SuccessAccumulator::new(ratios.len()),
            &mut selected,
        );
        (selected, stats)
    }

    /// [`select_with_ratios_stats`](Self::select_with_ratios_stats) into
    /// buffers the caller owns: resets `acc` (replacing it when it was
    /// sized for another table), clears `selected` and writes the
    /// selection into it, in activation order, and returns the work
    /// tally. Once `acc` and `selected` have grown to the table, a call
    /// allocates nothing.
    ///
    /// # Panics
    /// If a weight vector is given and its length does not match the
    /// table.
    pub fn select_into<R: RatioTable>(
        &self,
        ratios: &R,
        weights: Option<&[f64]>,
        tracer: Option<&Tracer>,
        acc: &mut SuccessAccumulator,
        selected: &mut Vec<usize>,
    ) -> SelectionStats {
        let n = ratios.len();
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weight vector size mismatch");
        }
        let _g = trace::guard(
            tracer,
            tracer.map(|tr| tr.span_id("selector/rayleigh_greedy")),
        );
        let weight = |j: usize| weights.map_or(1.0, |w| w[j]);
        if acc.len() == n {
            acc.reset();
        } else {
            *acc = SuccessAccumulator::new(n);
        }
        selected.clear();
        let mut stats = SelectionStats::default();
        let cap = self.max_links.unwrap_or(n);
        while selected.len() < cap {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                // `strictly_positive` also rejects NaN weights.
                if acc.prob(j) != 0.0 || !crate::capacity::strictly_positive(weight(j)) {
                    continue;
                }
                stats.candidates_scored += 1;
                let gain = acc.activation_gain(ratios, weights, j);
                if best.is_none_or(|(_, g)| gain.total_cmp(&g).is_gt()) {
                    best = Some((j, gain));
                }
            }
            match best {
                Some((j, gain)) if gain > self.min_gain => {
                    acc.insert(ratios, j);
                    selected.push(j);
                }
                _ => break,
            }
        }
        stats.accepted = selected.len() as u64;
        stats.rejected = stats.candidates_scored.saturating_sub(stats.accepted);
        stats
    }
}

impl GreedyCapacity {
    /// [`CapacityAlgorithm::select`] that also returns the work tally:
    /// every link whose affectance guards were evaluated counts as
    /// scored, and scored − accepted as rejected. With a
    /// `tracer`, the affectance build and the guarded scan run under a
    /// `selector/greedy` span (same sampling caveat as
    /// [`RayleighGreedy::select_with_ratios_stats`]).
    pub fn select_with_stats(
        &self,
        inst: &CapacityInstance<'_>,
        tracer: Option<&Tracer>,
    ) -> (Vec<usize>, SelectionStats) {
        let _g = trace::guard(tracer, tracer.map(|tr| tr.span_id("selector/greedy")));
        let aff = Affectance::new(inst.gain, inst.params);
        self.select_with_affectance_stats(&aff, inst, None)
    }

    /// [`select_with_stats`](Self::select_with_stats) against a prebuilt
    /// [`Affectance`] cache — the entry point for callers re-solving many
    /// weight vectors on one gain matrix (e.g. queue-weighted scheduling
    /// slot loops), where rebuilding the O(n²) cache per call dominates
    /// the selection itself. `Affectance` is a pure function of
    /// `(gain, params)`, so the selection is bit-identical to the
    /// per-call path. With a `tracer`, the scan runs under the same
    /// `selector/greedy` span. Allocates its buffers; slot loops keep
    /// them and call [`select_into`](Self::select_into).
    ///
    /// # Panics
    /// If the cache size does not match the instance.
    pub fn select_with_affectance_stats(
        &self,
        aff: &Affectance,
        inst: &CapacityInstance<'_>,
        tracer: Option<&Tracer>,
    ) -> (Vec<usize>, SelectionStats) {
        let mut accepted = Vec::new();
        let stats = self.select_into(
            aff,
            inst,
            tracer,
            &mut GreedyScratch::default(),
            &mut accepted,
        );
        (accepted, stats)
    }

    /// [`select_with_affectance_stats`](Self::select_with_affectance_stats)
    /// into buffers the caller owns: clears `accepted` and writes the
    /// selection into it, in acceptance order, and returns the work
    /// tally. Once `scratch` and `accepted` have grown to the instance, a
    /// call allocates nothing.
    ///
    /// # Panics
    /// If the cache size does not match the instance.
    pub fn select_into(
        &self,
        aff: &Affectance,
        inst: &CapacityInstance<'_>,
        tracer: Option<&Tracer>,
        scratch: &mut GreedyScratch,
        accepted: &mut Vec<usize>,
    ) -> SelectionStats {
        assert!(self.in_budget >= 0.0 && self.acceptance_cap <= 1.0 + 1e-12);
        assert_eq!(aff.len(), inst.len(), "affectance cache size mismatch");
        let _g = trace::guard(tracer, tracer.map(|tr| tr.span_id("selector/greedy")));
        self.ordering_into(inst, scratch);
        let GreedyScratch { order, cur_in, .. } = scratch;
        // Incoming unclipped affectance currently suffered by each accepted
        // link (indexed by link id for O(1) updates). An entry is written
        // when its link is accepted, before any read, so what an earlier
        // call left behind is never read.
        cur_in.resize(inst.len(), 0.0);
        accepted.clear();
        let mut stats = SelectionStats::default();
        'cand: for &i in order.iter() {
            // `strictly_positive` rather than `w <= 0`: it also skips NaN weights.
            if !aff.feasible_alone(i) || !crate::capacity::strictly_positive(inst.weight(i)) {
                continue;
            }
            stats.candidates_scored += 1;
            // Incoming affectance the candidate would suffer.
            let mut in_i = 0.0;
            for &j in accepted.iter() {
                in_i += aff.get_unclipped(j, i);
                if in_i > self.in_budget {
                    continue 'cand;
                }
            }
            // Headroom of every accepted link must survive the newcomer.
            for &k in accepted.iter() {
                if cur_in[k] + aff.get_unclipped(i, k) > self.acceptance_cap {
                    continue 'cand;
                }
            }
            for &k in accepted.iter() {
                cur_in[k] += aff.get_unclipped(i, k);
            }
            cur_in[i] = in_i;
            accepted.push(i);
        }
        stats.accepted = accepted.len() as u64;
        stats.rejected = stats.candidates_scored - stats.accepted;
        stats
    }
}

impl CapacityAlgorithm for GreedyCapacity {
    fn name(&self) -> &str {
        "greedy-affectance"
    }

    fn select(&self, inst: &CapacityInstance<'_>) -> Vec<usize> {
        self.select_with_stats(inst, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{
        is_feasible, GainMatrix, PowerAssignment, SinrParams, SparseInterferenceRatios,
    };

    fn paper_instance(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            side: 1000.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        (gm, params)
    }

    #[test]
    fn output_is_feasible() {
        for seed in 0..5 {
            let (gm, params) = paper_instance(seed, 60);
            let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
            assert!(
                is_feasible(&gm, &params, &set),
                "seed {seed}: infeasible output {set:?}"
            );
            assert!(!set.is_empty(), "seed {seed}: nothing selected");
        }
    }

    #[test]
    fn selects_isolated_links() {
        // Three mutually distant links: all should be kept.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 1e-6, 1e-6, //
                1e-6, 10.0, 1e-6, //
                1e-6, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let mut set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
        set.sort_unstable();
        assert_eq!(set, vec![0, 1, 2]);
    }

    #[test]
    fn drops_conflicting_links() {
        // 0 and 1 kill each other; 2 is free.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 9.0, 1e-6, //
                9.0, 10.0, 1e-6, //
                1e-6, 1e-6, 5.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
        assert!(set.len() == 2, "{set:?}");
        assert!(set.contains(&2));
        assert!(is_feasible(&gm, &params, &set));
    }

    #[test]
    fn skips_hopeless_and_zero_weight_links() {
        let gm = GainMatrix::from_raw(2, vec![0.5, 0.0, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 1.0, 1.0); // link 0: 0.5 < beta*nu = 1
        let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
        assert_eq!(set, vec![1]);
        // Zero-weight link is skipped too.
        let gm2 = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let w = vec![0.0, 1.0];
        let set = GreedyCapacity::weighted().select(&CapacityInstance::weighted(&gm2, &params, &w));
        assert_eq!(set, vec![1]);
    }

    #[test]
    fn weighted_order_prefers_heavy_links() {
        // 0 and 1 mutually exclusive; 1 has more weight.
        let gm = GainMatrix::from_raw(2, vec![10.0, 9.0, 9.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let w = vec![1.0, 5.0];
        let set = GreedyCapacity::weighted().select(&CapacityInstance::weighted(&gm, &params, &w));
        assert_eq!(set, vec![1]);
    }

    #[test]
    fn explicit_order_is_respected() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 9.0, 9.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let alg = GreedyCapacity {
            order: GreedyOrder::Explicit(vec![1, 0]),
            ..GreedyCapacity::default()
        };
        let set = alg.select(&CapacityInstance::unweighted(&gm, &params));
        assert_eq!(set, vec![1]);
    }

    #[test]
    fn tighter_budget_selects_fewer_links() {
        let (gm, params) = paper_instance(11, 80);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let loose = GreedyCapacity::new().select(&inst);
        let strict = GreedyCapacity {
            in_budget: 0.05,
            acceptance_cap: 0.1,
            ..GreedyCapacity::default()
        }
        .select(&inst);
        assert!(strict.len() <= loose.len());
        assert!(is_feasible(&gm, &params, &strict));
    }

    #[test]
    fn empty_instance() {
        let gm = GainMatrix::from_raw(0, vec![]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
        assert!(set.is_empty());
    }

    #[test]
    fn traced_selects_match_untraced_and_emit_spans() {
        let (gm, params) = paper_instance(7, 40);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let tracer = Tracer::new();
        let greedy = GreedyCapacity::new();
        assert_eq!(
            greedy.select_with_stats(&inst, Some(&tracer)),
            greedy.select_with_stats(&inst, None),
            "tracing must not change the selection"
        );
        assert_eq!(
            greedy.select_with_stats(&inst, None).0,
            greedy.select(&inst)
        );
        let ratios = InterferenceRatios::new(&gm, &params);
        let rayleigh = RayleighGreedy::new();
        assert_eq!(
            rayleigh.select_with_ratios_stats(&ratios, None, Some(&tracer)),
            rayleigh.select_with_ratios_stats(&ratios, None, None)
        );
        let trace = tracer.snapshot();
        assert_eq!(trace.dropped, 0);
        let count = |name: &str| trace.records.iter().filter(|r| r.name == name).count();
        assert_eq!(count("selector/greedy"), 1);
        assert_eq!(count("selector/rayleigh_greedy"), 1);
    }

    #[test]
    fn prebuilt_affectance_path_is_bit_identical() {
        let (gm, params) = paper_instance(17, 50);
        let aff = Affectance::new(&gm, &params);
        let greedy = GreedyCapacity::weighted();
        for round in 0..4u64 {
            // Fresh weights per round, same cache: the slot-loop shape.
            let w: Vec<f64> = (0..50)
                .map(|i| 1.0 + ((i as u64 * 7 + round) % 11) as f64)
                .collect();
            let inst = CapacityInstance::weighted(&gm, &params, &w);
            assert_eq!(
                greedy.select_with_affectance_stats(&aff, &inst, None),
                greedy.select_with_stats(&inst, None),
                "round {round}: cached affectance must not change the selection"
            );
        }
        let tracer = Tracer::new();
        let inst = CapacityInstance::unweighted(&gm, &params);
        assert_eq!(
            greedy.select_with_affectance_stats(&aff, &inst, Some(&tracer)),
            greedy.select_with_stats(&inst, None)
        );
        assert_eq!(
            tracer
                .snapshot()
                .records
                .iter()
                .filter(|r| r.name == "selector/greedy")
                .count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "affectance cache size mismatch")]
    fn prebuilt_affectance_size_mismatch_rejected() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let gm3 = GainMatrix::from_raw(3, vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let aff = Affectance::new(&gm3, &params);
        let _ = GreedyCapacity::new().select_with_affectance_stats(
            &aff,
            &CapacityInstance::unweighted(&gm, &params),
            None,
        );
    }

    #[test]
    fn nan_weight_is_skipped_not_fatal() {
        // Regression: the weight sort used partial_cmp().expect(...), so a
        // single NaN weight aborted the whole schedule. It must now be
        // ordered deterministically and excluded from the selection.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 1e-6, 1e-6, //
                1e-6, 10.0, 1e-6, //
                1e-6, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let w = vec![1.0, f64::NAN, 2.0];
        let mut set =
            GreedyCapacity::weighted().select(&CapacityInstance::weighted(&gm, &params, &w));
        set.sort_unstable();
        assert_eq!(set, vec![0, 2], "NaN-weighted link must be dropped");
    }

    /// Scratch Theorem 1 objective `Σ_{i∈set} Q_i` for reference checks
    /// (kept independent of the accumulator under test).
    fn scratch_objective(gm: &GainMatrix, params: &SinrParams, set: &[usize]) -> f64 {
        let beta = params.beta;
        set.iter()
            .map(|&i| {
                let s_ii = gm.signal(i);
                if s_ii == 0.0 {
                    return 0.0;
                }
                let mut p = (-beta * params.noise / s_ii).exp();
                for &j in set {
                    let s_ji = gm.gain(j, i);
                    if j != i && s_ji != 0.0 {
                        p *= 1.0 - beta / (beta + s_ii / s_ji);
                    }
                }
                p
            })
            .sum()
    }

    #[test]
    fn rayleigh_greedy_is_deterministic_and_locally_maximal() {
        let (gm, params) = paper_instance(3, 10);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let set = RayleighGreedy::new().select(&inst);
        assert!(!set.is_empty());
        assert_eq!(set, RayleighGreedy::new().select(&inst), "deterministic");
        // No silent link may improve the objective (greedy stops only
        // when every marginal gain is <= 0).
        let base = scratch_objective(&gm, &params, &set);
        for j in 0..inst.len() {
            if set.contains(&j) {
                continue;
            }
            let mut bigger = set.clone();
            bigger.push(j);
            let with_j = scratch_objective(&gm, &params, &bigger);
            assert!(
                with_j <= base + 1e-9,
                "link {j} would improve {base} -> {with_j}"
            );
        }
        // And greedy must beat every singleton.
        for j in 0..inst.len() {
            assert!(scratch_objective(&gm, &params, &[j]) <= base + 1e-12);
        }
    }

    #[test]
    fn rayleigh_greedy_first_pick_is_best_singleton() {
        // With min_gain = 0 and max_links = 1, the selection is exactly
        // the argmax of w_i * Q_i({i}).
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 2.0, 1.0, //
                2.0, 8.0, 0.5, //
                1.0, 0.5, 12.0,
            ],
        );
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let alg = RayleighGreedy {
            max_links: Some(1),
            ..RayleighGreedy::default()
        };
        let set = alg.select(&inst);
        // Q_i({i}) = exp(-beta*nu/S_ii): maximized by the largest signal.
        assert_eq!(set, vec![2]);
    }

    #[test]
    fn rayleigh_greedy_skips_nan_and_nonpositive_weights() {
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 1e-6, 1e-6, //
                1e-6, 10.0, 1e-6, //
                1e-6, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let w = vec![f64::NAN, 0.0, 1.0];
        let inst = CapacityInstance::weighted(&gm, &params, &w);
        let set = RayleighGreedy::new().select(&inst);
        assert_eq!(set, vec![2]);
    }

    #[test]
    fn rayleigh_greedy_reuses_prebuilt_ratio_cache() {
        use rayfade_sinr::InterferenceRatios;
        let (gm, params) = paper_instance(7, 20);
        let inst = CapacityInstance::unweighted(&gm, &params);
        let ratios = InterferenceRatios::new(&gm, &params);
        let direct = RayleighGreedy::new().select(&inst);
        let cached = RayleighGreedy::new().select_with_ratios(&ratios, None);
        assert_eq!(direct, cached);
    }

    #[test]
    fn sparse_selection_matches_dense_at_delta_zero() {
        let (gm, params) = paper_instance(9, 30);
        let dense = InterferenceRatios::new(&gm, &params);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params, 0.0);
        let alg = RayleighGreedy::new();
        assert_eq!(
            alg.select_with_ratios_stats(&dense, None, None),
            alg.select_with_ratios_stats(&sparse, None, None),
            "delta = 0 must reproduce the dense selection and its stats"
        );

        // Weighted variant too.
        let w: Vec<f64> = (0..30).map(|i| 1.0 + (i % 5) as f64).collect();
        assert_eq!(
            alg.select_with_ratios_stats(&dense, Some(&w), None),
            alg.select_with_ratios_stats(&sparse, Some(&w), None)
        );
    }

    #[test]
    fn sparse_selection_skips_nan_and_nonpositive_weights() {
        let gm = GainMatrix::from_raw(
            3,
            vec![
                10.0, 1e-6, 1e-6, //
                1e-6, 10.0, 1e-6, //
                1e-6, 1e-6, 10.0,
            ],
        );
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params, 0.0);
        let w = vec![f64::NAN, 0.0, 1.0];
        let set = RayleighGreedy::new().select_with_ratios(&sparse, Some(&w));
        assert_eq!(set, vec![2]);
    }

    #[test]
    fn sparse_traced_selects_match_untraced_and_emit_span() {
        let (gm, params) = paper_instance(13, 25);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params, 1e-3);
        let alg = RayleighGreedy::new();
        let tracer = Tracer::new();
        assert_eq!(
            alg.select_with_ratios_stats(&sparse, None, Some(&tracer)),
            alg.select_with_ratios_stats(&sparse, None, None),
            "tracing must not change the selection"
        );
        let trace = tracer.snapshot();
        assert_eq!(
            trace
                .records
                .iter()
                .filter(|r| r.name == "selector/rayleigh_greedy")
                .count(),
            1
        );
    }

    #[test]
    fn selection_stats_balance() {
        let (gm, params) = paper_instance(5, 40);
        let inst = CapacityInstance::unweighted(&gm, &params);

        let (set, stats) = GreedyCapacity::new().select_with_stats(&inst, None);
        assert_eq!(set, GreedyCapacity::new().select(&inst), "same selection");
        assert_eq!(stats.accepted, set.len() as u64);
        assert_eq!(stats.candidates_scored, stats.accepted + stats.rejected);
        assert!(stats.candidates_scored >= set.len() as u64);

        let ratios = InterferenceRatios::new(&gm, &params);
        let (rset, rstats) = RayleighGreedy::new().select_with_ratios_stats(&ratios, None, None);
        assert_eq!(rset, RayleighGreedy::new().select(&inst), "same selection");
        assert_eq!(rstats.accepted, rset.len() as u64);
        assert_eq!(rstats.candidates_scored, rstats.accepted + rstats.rejected);
        // Each of the (accepted + 1 final) rounds scores every silent link.
        assert!(rstats.candidates_scored > rstats.accepted);

        let mut merged = stats;
        merged.merge(&rstats);
        assert_eq!(
            merged.candidates_scored,
            stats.candidates_scored + rstats.candidates_scored
        );
        assert_eq!(merged.accepted, stats.accepted + rstats.accepted);
    }

    #[test]
    fn carried_order_selects_like_a_fresh_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0de5);
        // Equal signals: weight ties fall through to the link index.
        let flat = |rng: &mut StdRng, n: usize| {
            let g = (0..n * n)
                .map(|e| {
                    if e % (n + 1) == 0 {
                        1.0
                    } else {
                        rng.gen_range(0.0..0.3)
                    }
                })
                .collect();
            (GainMatrix::from_raw(n, g), SinrParams::new(2.0, 1.0, 0.1))
        };
        let instances = [
            paper_instance(3, 30),
            flat(&mut rng, 12),
            paper_instance(3, 30),
        ];
        let greedy = GreedyCapacity::weighted();
        // One scratch carried through every call, across both sizes.
        let mut carried = GreedyScratch::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut selected = 0;
        for (round, (gm, params)) in instances.iter().enumerate() {
            let n = gm.len();
            let aff = Affectance::new(gm, params);
            let mut weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0..4) as f64).collect();
            for step in 0..300 {
                // Backlogs as a slot loop moves them: mostly ±1, now and
                // then a queue emptying or a burst filling it, and the
                // weights the guard skips (NaN, −0.0, negative).
                for w in weights.iter_mut() {
                    *w = match rng.gen_range(0..24) {
                        0..=5 => *w + 1.0,
                        6..=11 => (*w - 1.0).max(0.0),
                        12 => 0.0,
                        13 => rng.gen_range(1..8) as f64,
                        14 => f64::NAN,
                        15 => -0.0,
                        16 => -1.0,
                        _ => *w,
                    };
                }
                let inst = CapacityInstance::weighted(gm, params, &weights);
                let stats = greedy.select_into(&aff, &inst, None, &mut carried, &mut got);
                let mut fresh = GreedyScratch::default();
                let fresh_stats = greedy.select_into(&aff, &inst, None, &mut fresh, &mut want);
                assert_eq!(
                    carried.order, fresh.order,
                    "round {round}, step {step}: order"
                );
                assert_eq!(
                    (&got, stats),
                    (&want, fresh_stats),
                    "round {round}, step {step}"
                );
                selected += got.len();
            }
        }
        assert!(selected > 0);
    }

    #[test]
    #[should_panic(expected = "explicit order must cover all links")]
    fn bad_explicit_order_rejected() {
        let gm = GainMatrix::from_raw(2, vec![1.0, 0.0, 0.0, 1.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let alg = GreedyCapacity {
            order: GreedyOrder::Explicit(vec![0]),
            ..GreedyCapacity::default()
        };
        let _ = alg.select(&CapacityInstance::unweighted(&gm, &params));
    }
}
