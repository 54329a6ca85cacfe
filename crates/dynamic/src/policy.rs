//! Online transmission policies for the dynamic setting.
//!
//! A policy sees only per-link backlogs (plus its own internal state) and
//! picks the transmitting set for one slot; after the slot it receives an
//! [`ObservedSlot`] — threshold booleans only, never raw SINR magnitudes —
//! for learning. Four families:
//!
//! * [`QueueMaxWeight`] — the classic max-weight rule: solve a weighted
//!   capacity problem with weights = backlogs (via the non-fading
//!   [`GreedyCapacity`] selector, the workspace's feasibility-preserving
//!   workhorse);
//! * [`QueueAloha`] — blind contention: every *backlogged* link transmits
//!   with the probability an [`AlohaPolicy`] assigns at the current
//!   contention level (reusing `rayfade-sched`'s latency-layer policy
//!   logic, with "pending" = "backlogged");
//! * [`RegretPolicy`] — one RWM learner per link over {idle, send},
//!   updated from counterfactual SINR feedback exactly like the capacity
//!   game in `rayfade-learning`, but gated on a nonempty queue;
//! * [`RayleighMaxWeight`] — max-weight on the exact Rayleigh objective
//!   `Σ backlog_i · Q_i` (Theorem 1) via the incremental
//!   interference-ratio cache.
//!
//! Policies never transmit on an empty queue: a success without a packet
//! to send would be meaningless, and the engine enforces the same
//! invariant defensively.

use crate::queue::Backlogs;
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::StdRng;
use rand::Rng;
use rayfade_learning::{loss, Action, NoRegretLearner, Rwm};
use rayfade_sched::{
    AlohaPolicy, CapacityInstance, GreedyCapacity, GreedyScratch, RayleighGreedy, SelectionStats,
};
use rayfade_sinr::{
    Affectance, GainMatrix, InterferenceRatios, SinrParams, SparseInterferenceRatios,
    SuccessAccumulator,
};
use rayfade_telemetry::trace::Tracer;
use serde::{Deserialize, Serialize};

/// Post-slot feedback handed to [`OnlinePolicy::observe`].
///
/// The contract is deliberately *magnitude-free*: a policy learns which
/// links transmitted, which links' SINR cleared the threshold `β` this
/// slot (counterfactually for idle links — see
/// [`rayfade_sinr::SuccessModel::resolve_sinrs`]), and which links the
/// engine credited with a delivery (`active ∧ would_succeed`). No realized
/// SINR magnitude crosses this boundary, so the analytic slot resolver —
/// which draws Theorem-1 Bernoulli indicators and never materializes an
/// SINR — satisfies the same contract by construction. A future policy
/// that needed raw magnitudes would have to widen this type (and thereby
/// fail to compile against the analytic path) rather than silently read
/// garbage.
#[derive(Debug, Clone, Copy)]
pub struct ObservedSlot<'a> {
    /// Links that transmitted this slot.
    pub active: &'a [bool],
    /// Per-link threshold indicator `SINR_i ≥ β`, counterfactual for
    /// idle links.
    pub would_succeed: &'a [bool],
    /// Links credited with a successful delivery
    /// (`active[i] && would_succeed[i]`).
    pub successes: &'a [bool],
}

/// Which policy a [`crate::DynamicConfig`] runs — the sweepable label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`QueueMaxWeight`].
    MaxWeight,
    /// [`QueueAloha`] with the contention-proportional default.
    Aloha,
    /// [`RegretPolicy`].
    Regret,
    /// [`RayleighMaxWeight`] — max-weight on the exact Rayleigh objective.
    RayleighMaxWeight,
}

impl PolicyKind {
    /// Stable label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::MaxWeight => "max_weight",
            PolicyKind::Aloha => "aloha",
            PolicyKind::Regret => "regret",
            PolicyKind::RayleighMaxWeight => "rayleigh_max_weight",
        }
    }

    /// The kinds the stability sweep iterates, in CSV order. Kept at the
    /// original three so the committed `results/stability.csv` rows stay
    /// comparable across revisions; [`PolicyKind::RayleighMaxWeight`] is
    /// opt-in via an explicit [`crate::DynamicConfig`].
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::MaxWeight, PolicyKind::Aloha, PolicyKind::Regret]
    }
}

/// An online per-slot transmission policy.
pub trait OnlinePolicy {
    /// Stable policy name (CSV label).
    fn name(&self) -> &'static str;

    /// Chooses the transmitting set for this slot: clears `chosen` and
    /// writes the chosen links into it in ascending order, never a link
    /// with zero backlog. Policies that contend link by link (ALOHA,
    /// regret) walk only the backlogged links and, once `chosen` and
    /// their own buffers have grown, allocate nothing. `tracer` lets a
    /// capacity-selector-backed policy emit its `selector/*` spans nested
    /// inside the engine's `dynamic/policy` phase span; the engine passes
    /// `None` on unsampled slots, so the choice must not depend on it.
    fn choose_into(
        &mut self,
        backlogs: &Backlogs,
        rng: &mut StdRng,
        tracer: Option<&Tracer>,
        chosen: &mut Vec<usize>,
    );

    /// [`choose_into`](Self::choose_into) over a plain backlog slice,
    /// returning the chosen set as a fresh per-link mask: same choice,
    /// same draws from `rng`, untraced.
    fn choose(&mut self, backlogs: &[u64], rng: &mut StdRng) -> Vec<bool> {
        let mut chosen = Vec::new();
        self.choose_into(&Backlogs::from_slice(backlogs), rng, None, &mut chosen);
        let mut mask = vec![false; backlogs.len()];
        for i in chosen {
            mask[i] = true;
        }
        mask
    }

    /// Post-slot feedback on the slot of the latest
    /// [`choose_into`](Self::choose_into) — see [`ObservedSlot`] for the
    /// (magnitude-free) contract. Policies read only the entries of links
    /// they chose or found backlogged in that call.
    fn observe(&mut self, slot: &ObservedSlot<'_>);

    /// Whether [`observe`](Self::observe) reads the counterfactual
    /// `would_succeed` indicators of *idle* links. Policies that return
    /// `false` (the max-weight family ignores feedback entirely; gated
    /// ALOHA reads only `active`/`successes`) license the slot resolver
    /// to leave idle links' indicators `false` without resolving them —
    /// the analytic resolver then skips their Bernoulli draws and
    /// product evaluations. Per-link learners that update every arm from
    /// its counterfactual (the regret policy) must return `true`.
    fn observes_counterfactuals(&self) -> bool {
        true
    }

    /// Cumulative capacity-selection work tally over every
    /// [`choose_into`](Self::choose_into) call so far, for policies
    /// backed by a capacity selector; `None` for policies that never
    /// score candidates (ALOHA, per-link learners). The engine drains
    /// this into telemetry at the end of a replication.
    fn selection_stats(&self) -> Option<SelectionStats> {
        None
    }
}

/// Max-weight scheduling: maximize total backlog of a feasible set.
#[derive(Debug, Clone)]
pub struct QueueMaxWeight {
    gain: GainMatrix,
    params: SinrParams,
    /// Affectance cache, a pure function of `(gain, params)`: built once
    /// here instead of on every [`OnlinePolicy::choose_into`] call, where
    /// the O(n²) rebuild used to dominate the per-slot selection itself.
    /// Selections are bit-identical to the per-call path.
    affectance: Affectance,
    selector: GreedyCapacity,
    /// The selector's order and affectance buffers, kept across slots.
    scratch: GreedyScratch,
    stats: SelectionStats,
    /// Per-link weights (the backlogs), refilled every slot.
    weights: Vec<f64>,
}

impl QueueMaxWeight {
    /// Max-weight over the given (non-fading) instance, selecting with
    /// the weight-descending greedy.
    pub fn new(gain: GainMatrix, params: SinrParams) -> Self {
        let affectance = Affectance::new(&gain, &params);
        QueueMaxWeight {
            weights: vec![0.0; gain.len()],
            gain,
            params,
            affectance,
            selector: GreedyCapacity::weighted(),
            scratch: GreedyScratch::default(),
            stats: SelectionStats::default(),
        }
    }
}

/// Refills `weights` with the backlogs, the max-weight selectors' input.
fn fill_weights(weights: &mut [f64], backlogs: &Backlogs) {
    debug_assert_eq!(weights.len(), backlogs.len());
    for (w, &b) in weights.iter_mut().zip(backlogs.as_slice()) {
        *w = b as f64;
    }
}

impl OnlinePolicy for QueueMaxWeight {
    fn name(&self) -> &'static str {
        PolicyKind::MaxWeight.label()
    }

    fn choose_into(
        &mut self,
        backlogs: &Backlogs,
        _rng: &mut StdRng,
        tracer: Option<&Tracer>,
        chosen: &mut Vec<usize>,
    ) {
        fill_weights(&mut self.weights, backlogs);
        // GreedyCapacity skips weight-0 links, so empty queues are never
        // selected.
        let stats = self.selector.select_into(
            &self.affectance,
            &CapacityInstance::weighted(&self.gain, &self.params, &self.weights),
            tracer,
            &mut self.scratch,
            chosen,
        );
        self.stats.merge(&stats);
        chosen.sort_unstable();
    }

    fn observe(&mut self, _slot: &ObservedSlot<'_>) {}

    fn observes_counterfactuals(&self) -> bool {
        false
    }

    fn selection_stats(&self) -> Option<SelectionStats> {
        Some(self.stats)
    }
}

/// Max-weight on the *Rayleigh* objective: each slot transmits the set
/// maximizing `Σ_i backlog_i · Q_i` (Theorem 1), selected by the
/// incremental [`RayleighGreedy`]. The interference-ratio cache is built
/// once at construction and shared across every slot — only the weights
/// (backlogs) change, which is exactly the workload
/// [`RayleighGreedy::select_with_ratios`] is made for.
///
/// Instances at or above [`rayfade_core::SPARSE_CROSSOVER`] links build
/// the ε-truncated [`SparseInterferenceRatios`] cache (with
/// [`rayfade_core::DEFAULT_SPARSE_DELTA`]) instead of the dense O(n²)
/// one; the same selector then runs the same greedy rule on the certified
/// objective, with O(deg) candidate scoring. Below the crossover the
/// dense path is bit-identical to the historical behaviour.
///
/// Unlike [`QueueMaxWeight`] the chosen set need not be feasible in the
/// non-fading model: the fading engine resolves each slot
/// probabilistically, and a set with per-link success probability 1/2 can
/// still drain queues faster than a small "safe" set.
#[derive(Debug, Clone)]
pub struct RayleighMaxWeight {
    ratios: RatioCache,
    selector: RayleighGreedy,
    /// The selector's accumulator, reset every slot.
    acc: SuccessAccumulator,
    stats: SelectionStats,
    /// Per-link weights (the backlogs), refilled every slot.
    weights: Vec<f64>,
}

/// Dense or ε-truncated sparse Theorem 1 ratio cache, chosen once at
/// policy construction by instance size.
#[derive(Debug, Clone)]
enum RatioCache {
    Dense(InterferenceRatios),
    Sparse(SparseInterferenceRatios),
}

impl RayleighMaxWeight {
    /// Rayleigh max-weight over the given instance; precomputes the
    /// Theorem 1 ratio cache once (dense below
    /// [`rayfade_core::SPARSE_CROSSOVER`] links, sparse at or above).
    pub fn new(gain: GainMatrix, params: SinrParams) -> Self {
        let ratios = if gain.len() < rayfade_core::SPARSE_CROSSOVER {
            RatioCache::Dense(InterferenceRatios::new(&gain, &params))
        } else {
            RatioCache::Sparse(SparseInterferenceRatios::from_gain(
                &gain,
                &params,
                rayfade_core::DEFAULT_SPARSE_DELTA,
            ))
        };
        RayleighMaxWeight {
            weights: vec![0.0; gain.len()],
            acc: SuccessAccumulator::new(gain.len()),
            ratios,
            selector: RayleighGreedy::new(),
            stats: SelectionStats::default(),
        }
    }

    /// Whether the sparse ratio cache was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self.ratios, RatioCache::Sparse(_))
    }
}

impl OnlinePolicy for RayleighMaxWeight {
    fn name(&self) -> &'static str {
        PolicyKind::RayleighMaxWeight.label()
    }

    fn choose_into(
        &mut self,
        backlogs: &Backlogs,
        _rng: &mut StdRng,
        tracer: Option<&Tracer>,
        chosen: &mut Vec<usize>,
    ) {
        fill_weights(&mut self.weights, backlogs);
        // RayleighGreedy requires strictly positive weight to activate a
        // link, so empty queues are never selected.
        let (selector, weights, acc) =
            (&self.selector, Some(self.weights.as_slice()), &mut self.acc);
        let stats = match &self.ratios {
            RatioCache::Dense(r) => selector.select_into(r, weights, tracer, acc, chosen),
            RatioCache::Sparse(r) => selector.select_into(r, weights, tracer, acc, chosen),
        };
        self.stats.merge(&stats);
        chosen.sort_unstable();
    }

    fn observe(&mut self, _slot: &ObservedSlot<'_>) {}

    fn observes_counterfactuals(&self) -> bool {
        false
    }

    fn selection_stats(&self) -> Option<SelectionStats> {
        Some(self.stats)
    }
}

/// Queue-gated ALOHA: backlogged links contend with the probability an
/// [`AlohaPolicy`] assigns at the current contention level.
#[derive(Debug, Clone)]
pub struct QueueAloha {
    policy: AlohaPolicy,
    /// Per-link probability state for the `Backoff` policy.
    backoff_prob: Vec<f64>,
    /// Links the latest choice sent (kept for the `Backoff` policy's
    /// feedback only).
    sent: Vec<usize>,
    /// Logical step counter (drives the `Sawtooth` ladder).
    step: u64,
}

impl QueueAloha {
    /// Queue-gated ALOHA under the given contention policy for `n` links.
    pub fn new(policy: AlohaPolicy, n: usize) -> Self {
        let backoff_prob = match &policy {
            AlohaPolicy::Backoff { init, .. } => vec![*init; n],
            _ => Vec::new(),
        };
        QueueAloha {
            policy,
            backoff_prob,
            sent: Vec::new(),
            step: 0,
        }
    }

    /// The contention-proportional `min(1/k, 1/2)` default of the latency
    /// layer.
    pub fn default_inverse(n: usize) -> Self {
        Self::new(AlohaPolicy::default_inverse(), n)
    }

    /// The transmission probability every backlogged link shares when
    /// `contenders` links are backlogged — the same per-policy formula as
    /// `rayfade_sched::latency::run_aloha` — or `None` under `Backoff`,
    /// whose probability is per link.
    fn shared_probability(&self, contenders: usize) -> Option<f64> {
        let q = match &self.policy {
            AlohaPolicy::Fixed(q) => *q,
            AlohaPolicy::InversePending { c, cap } => (c / contenders.max(1) as f64).min(*cap),
            AlohaPolicy::Backoff { .. } => return None,
            AlohaPolicy::Sawtooth { levels } => {
                let level = (self.step % u64::from(*levels)) + 1;
                0.5f64.powi(level as i32)
            }
        };
        Some(q.clamp(0.0, 1.0))
    }
}

impl OnlinePolicy for QueueAloha {
    fn name(&self) -> &'static str {
        PolicyKind::Aloha.label()
    }

    fn choose_into(
        &mut self,
        backlogs: &Backlogs,
        rng: &mut StdRng,
        _tracer: Option<&Tracer>,
        chosen: &mut Vec<usize>,
    ) {
        chosen.clear();
        // One draw per backlogged link, in ascending link order.
        match self.shared_probability(backlogs.count()) {
            Some(q) => {
                // The slot's one coin: `gen_bool(q)`'s draws, tested as
                // integers.
                let coin = Bernoulli::new(q).unwrap_or_else(|_| panic!("p={q} must lie in [0, 1]"));
                chosen.extend(backlogs.iter().filter(|_| coin.sample(rng)));
            }
            None => {
                let probs = &self.backoff_prob;
                chosen.extend(
                    backlogs
                        .iter()
                        .filter(|&i| rng.gen_bool(probs[i].clamp(0.0, 1.0))),
                );
                self.sent.clone_from(chosen);
            }
        }
        self.step += 1;
    }

    fn observe(&mut self, slot: &ObservedSlot<'_>) {
        if let AlohaPolicy::Backoff {
            init,
            factor,
            floor,
        } = &self.policy
        {
            // Failed transmitters back off; a success resets to the
            // initial probability — each delivered packet starts the next
            // head-of-line packet's attempt sequence afresh, mirroring the
            // per-packet restarts of the latency layer.
            for &i in &self.sent {
                if slot.successes[i] {
                    self.backoff_prob[i] = *init;
                } else if slot.active[i] {
                    self.backoff_prob[i] = (self.backoff_prob[i] * factor).max(*floor);
                }
            }
        }
    }

    fn observes_counterfactuals(&self) -> bool {
        // Backoff reads `active`/`successes` only; the stateless variants
        // read nothing at all.
        false
    }
}

/// Per-link RWM learners over {idle, send}, gated on a nonempty queue.
#[derive(Debug, Clone)]
pub struct RegretPolicy {
    /// One binary learner per link, each with its two weights, η, the
    /// ½-loss factor, step count and next η drop inline: one allocation
    /// for the whole population, which the slot loop walks in link order.
    learners: Vec<Rwm<[f64; 2]>>,
    /// Links backlogged at the latest choice, ascending. Only they receive
    /// an update: an empty queue had no packet, so "send" was not an
    /// available action.
    contenders: Vec<usize>,
}

impl RegretPolicy {
    /// One binary RWM learner per link. The SINR-vs-β thresholding that
    /// turns channel feedback into losses happens in the engine's slot
    /// resolver; the policy only consumes the
    /// [`would_succeed`](ObservedSlot::would_succeed) booleans.
    pub fn new(n: usize) -> Self {
        RegretPolicy {
            learners: (0..n).map(|_| Rwm::binary()).collect(),
            contenders: Vec::new(),
        }
    }
}

impl OnlinePolicy for RegretPolicy {
    fn name(&self) -> &'static str {
        PolicyKind::Regret.label()
    }

    fn choose_into(
        &mut self,
        backlogs: &Backlogs,
        rng: &mut StdRng,
        _tracer: Option<&Tracer>,
        chosen: &mut Vec<usize>,
    ) {
        chosen.clear();
        self.contenders.clear();
        self.contenders.extend(backlogs.iter());
        for &i in &self.contenders {
            if self.learners[i].choose(rng) == Action::Send.index() {
                chosen.push(i);
            }
        }
    }

    fn observe(&mut self, slot: &ObservedSlot<'_>) {
        // Same full-information update as the capacity game: one slot
        // yields the realized loss of the taken action and the exact
        // counterfactual loss of the other (interference is identical
        // whether or not link i itself transmits), delivered as the
        // counterfactual threshold indicator.
        for &i in &self.contenders {
            let would_succeed = slot.would_succeed[i];
            let losses = [
                loss(Action::Idle, would_succeed),
                loss(Action::Send, would_succeed),
            ];
            debug_assert_eq!(Action::Idle.index(), 0);
            self.learners[i].update(&losses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{is_feasible, PowerAssignment};

    fn paper_instance(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            ..PaperTopology::figure1()
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        (gm, params)
    }

    #[test]
    fn max_weight_is_feasible_and_skips_empty_queues() {
        let (gm, params) = paper_instance(1, 30);
        let mut policy = QueueMaxWeight::new(gm.clone(), params);
        let mut rng = StdRng::seed_from_u64(0);
        let mut backlogs = vec![3u64; 30];
        backlogs[4] = 0;
        backlogs[17] = 0;
        let mask = policy.choose(&backlogs, &mut rng);
        assert!(!mask[4] && !mask[17], "empty queues must not transmit");
        let set: Vec<usize> = (0..30).filter(|&i| mask[i]).collect();
        assert!(!set.is_empty());
        assert!(is_feasible(&gm, &params, &set));
    }

    #[test]
    fn max_weight_prefers_longer_queues() {
        // Two mutually-exclusive links: the longer queue wins.
        let gm = GainMatrix::from_raw(2, vec![10.0, 9.0, 9.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let mut policy = QueueMaxWeight::new(gm, params);
        let mut rng = StdRng::seed_from_u64(0);
        let mask = policy.choose(&[1, 9], &mut rng);
        assert_eq!(mask, vec![false, true]);
        let mask = policy.choose(&[9, 1], &mut rng);
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn aloha_gates_on_backlog_and_respects_contention() {
        let mut policy = QueueAloha::default_inverse(4);
        let mut rng = StdRng::seed_from_u64(3);
        // Only link 2 backlogged: contention 1 ⇒ q = min(1/1, 1/2) = 1/2.
        let mut sent = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let mask = policy.choose(&[0, 0, 5, 0], &mut rng);
            assert!(!mask[0] && !mask[1] && !mask[3]);
            sent += usize::from(mask[2]);
        }
        let f = sent as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.05, "empirical send rate {f}");
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn aloha_rejects_a_nan_probability() {
        let mut policy = QueueAloha::new(AlohaPolicy::Fixed(f64::NAN), 2);
        policy.choose(&[1, 0], &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn aloha_probability_drops_with_contention() {
        let policy = QueueAloha::default_inverse(10);
        assert!((policy.shared_probability(1).unwrap() - 0.5).abs() < 1e-12);
        assert!((policy.shared_probability(10).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn regret_policy_gates_and_learns() {
        let mut policy = RegretPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        // Empty queues: nobody transmits, regardless of learner state.
        assert_eq!(policy.choose(&[0, 0], &mut rng), vec![false, false]);
        // Teach link 0 that sending always succeeds (its threshold
        // indicator is always true): its send probability must grow.
        for _ in 0..200 {
            let mask = policy.choose(&[5, 0], &mut rng);
            let succ = vec![mask[0], false];
            policy.observe(&ObservedSlot {
                active: &mask,
                would_succeed: &[true, false],
                successes: &succ,
            });
        }
        let sends = (0..500)
            .filter(|_| policy.choose(&[5, 0], &mut rng)[0])
            .count();
        assert!(
            sends > 400,
            "learner should have converged to send: {sends}/500"
        );
    }

    #[test]
    fn regret_policy_does_not_update_gated_links() {
        let mut policy = RegretPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(6);
        let before = policy.learners[1].clone();
        let mask = policy.choose(&[3, 0], &mut rng);
        let succ = vec![mask[0], false];
        policy.observe(&ObservedSlot {
            active: &mask,
            would_succeed: &[true, true],
            successes: &succ,
        });
        assert_eq!(policy.learners[1], before, "gated learner must not move");
        assert_ne!(policy.learners[0], before, "active learner must update");
    }

    /// The `ObservedSlot` contract carries only threshold booleans: two
    /// slots whose realized SINRs differ wildly in magnitude but agree on
    /// `sinr >= beta` must leave every sweep policy in an identical state.
    /// (This is the contract that makes the analytic resolver — which has
    /// no realized SINRs at all — a drop-in replacement.)
    #[test]
    fn sweep_policies_are_magnitude_blind() {
        let beta = 1.5;
        // Two SINR realizations with very different magnitudes but the
        // same threshold pattern: [pass, fail].
        let sinrs_a = [1.5000001, 1.4999999];
        let sinrs_b = [1e9, 0.0];
        let thresholded =
            |sinrs: &[f64]| -> Vec<bool> { sinrs.iter().map(|&s| s >= beta).collect() };
        assert_eq!(thresholded(&sinrs_a), thresholded(&sinrs_b));

        let (gm, params) = paper_instance(2, 2);
        let mut aloha_a = QueueAloha::new(
            AlohaPolicy::Backoff {
                init: 0.5,
                factor: 0.5,
                floor: 0.01,
            },
            2,
        );
        let mut aloha_b = aloha_a.clone();
        let mut regret_a = RegretPolicy::new(2);
        let mut regret_b = regret_a.clone();
        let mut mw_a = QueueMaxWeight::new(gm.clone(), params);
        let mut mw_b = mw_a.clone();

        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let backlogs = [4u64, 4];
            let mask_a = aloha_a.choose(&backlogs, &mut rng_a);
            let mask_b = aloha_b.choose(&backlogs, &mut rng_b);
            assert_eq!(mask_a, mask_b);
            assert_eq!(
                mw_a.choose(&backlogs, &mut rng_a),
                mw_b.choose(&backlogs, &mut rng_b)
            );
            assert_eq!(
                regret_a.choose(&backlogs, &mut rng_a),
                regret_b.choose(&backlogs, &mut rng_b)
            );
            let ws_a = thresholded(&sinrs_a);
            let ws_b = thresholded(&sinrs_b);
            let succ_a: Vec<bool> = (0..2).map(|i| mask_a[i] && ws_a[i]).collect();
            let succ_b: Vec<bool> = (0..2).map(|i| mask_b[i] && ws_b[i]).collect();
            let slot_a = ObservedSlot {
                active: &mask_a,
                would_succeed: &ws_a,
                successes: &succ_a,
            };
            let slot_b = ObservedSlot {
                active: &mask_b,
                would_succeed: &ws_b,
                successes: &succ_b,
            };
            aloha_a.observe(&slot_a);
            aloha_b.observe(&slot_b);
            regret_a.observe(&slot_a);
            regret_b.observe(&slot_b);
            mw_a.observe(&slot_a);
            mw_b.observe(&slot_b);
        }
        assert_eq!(aloha_a.backoff_prob, aloha_b.backoff_prob);
        assert_eq!(regret_a.learners, regret_b.learners);
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(PolicyKind::MaxWeight.label(), "max_weight");
        assert_eq!(PolicyKind::Aloha.label(), "aloha");
        assert_eq!(PolicyKind::Regret.label(), "regret");
        assert_eq!(PolicyKind::RayleighMaxWeight.label(), "rayleigh_max_weight");
        // The sweep list stays at the original three — committed
        // stability.csv rows depend on it.
        assert_eq!(PolicyKind::all().len(), 3);
    }

    #[test]
    fn rayleigh_max_weight_skips_empty_queues_and_prefers_backlog() {
        // Two mutually-destructive links (huge cross gains): only the
        // longer queue should transmit.
        let gm = GainMatrix::from_raw(2, vec![10.0, 1e4, 1e4, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0);
        let mut policy = RayleighMaxWeight::new(gm, params);
        let mut rng = StdRng::seed_from_u64(0);
        let mask = policy.choose(&[1, 9], &mut rng);
        assert_eq!(mask, vec![false, true]);
        let mask = policy.choose(&[9, 1], &mut rng);
        assert_eq!(mask, vec![true, false]);
        let mask = policy.choose(&[0, 0], &mut rng);
        assert_eq!(mask, vec![false, false], "empty queues never transmit");
    }

    #[test]
    fn rayleigh_max_weight_routes_large_instances_through_the_sparse_cache() {
        // Block-diagonal instance above the crossover: pairs (2k, 2k+1)
        // interfere, everyone else is isolated. Only a handful of queues
        // are backlogged, so the greedy terminates in a few rounds.
        let n = rayfade_core::SPARSE_CROSSOVER;
        let mut g = vec![0.0; n * n];
        for i in 0..n {
            g[i * n + i] = 10.0;
            g[i * n + (i ^ 1)] = 2.0;
        }
        let gm = GainMatrix::from_raw(n, g);
        let params = SinrParams::new(2.0, 1.5, 0.1);
        let mut policy = RayleighMaxWeight::new(gm, params);
        assert!(policy.is_sparse(), "above the crossover must go sparse");
        let mut rng = StdRng::seed_from_u64(2);
        let mut backlogs = vec![0u64; n];
        backlogs[0] = 7;
        backlogs[1] = 2;
        backlogs[100] = 4;
        let mask = policy.choose(&backlogs, &mut rng);
        assert!(mask[0] && mask[100], "backlogged isolated links transmit");
        assert!(
            (0..n).filter(|&i| mask[i]).all(|i| backlogs[i] > 0),
            "empty queues never transmit"
        );
        // Small instances stay dense.
        let small = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        assert!(!RayleighMaxWeight::new(small, params).is_sparse());
    }

    #[test]
    fn rayleigh_max_weight_can_overbook_the_nonfading_optimum() {
        // Noise-limited links (S < β·ν): hopeless in the non-fading model
        // — QueueMaxWeight's affectance guard refuses them — but each
        // still succeeds with probability exp(−βν/S) under Rayleigh
        // fading, so the Rayleigh policy transmits both.
        let gm = GainMatrix::from_raw(2, vec![1.0, 0.0, 0.0, 1.0]);
        let params = SinrParams::new(2.0, 1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = RayleighMaxWeight::new(gm.clone(), params);
        let mask = policy.choose(&[5, 5], &mut rng);
        assert_eq!(mask, vec![true, true]);
        assert!(!is_feasible(&gm, &params, &[0]), "non-fading hopeless");
        let mut nonfading = QueueMaxWeight::new(gm, params);
        let mask = nonfading.choose(&[5, 5], &mut rng);
        assert_eq!(mask, vec![false, false], "non-fading policy idles");
    }
}
