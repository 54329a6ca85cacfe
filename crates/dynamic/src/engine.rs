//! The slotted dynamic-scheduling engine.
//!
//! One *cell* = (network, arrival rate λ, policy, success model). The
//! engine runs `networks` independent replications in parallel with rayon
//! and aggregates. Inside one replication the slot loop is sequential
//! (queues and learners are stateful), and every random stream is derived
//! from the base seed through [`rayfade_core::mix_seed2`]:
//!
//! * topology — `(seed, TOPOLOGY, net)`: shared by every cell so policies
//!   and models are compared on identical instances;
//! * arrivals — `(arrival-root, link)` where the root mixes only
//!   `(seed, net, λ-bits)`: identical traffic across policies and models,
//!   the precondition for "max-weight ≥ ALOHA at every λ" comparisons;
//! * policy draws — `(seed, POLICY, net)` xor'd with the policy's label
//!   hash, so different policies see independent randomness;
//! * fading — `(seed, FADING, net)`: the Rayleigh model's own stream.
//!
//! The result is bitwise deterministic for a fixed config regardless of
//! rayon's thread count (replications are indexed, not work-stolen into
//! the output order).
//!
//! A slot costs O(links that arrive, contend or transmit), plus two
//! bit-pinned random streams: one arrival draw per link, and one ALOHA
//! draw per backlogged link. The queues keep an index of the backlogged
//! links, policies write their choice as an ascending list, the analytic
//! resolver moves its cache from one list to the next (the flips between
//! them, or a rebuild from the new list on the amortized cache when that
//! is cheaper), and departures and feedback touch only listed links;
//! every per-slot buffer is reused, so a steady-state slot allocates
//! nothing.
//!
//! Setup builds the n² gain matrix only for what reads it: the Monte
//! Carlo models and the max-weight policies. The analytic resolver builds
//! its cache from geometry (the dense ratio table below
//! [`SPARSE_CROSSOVER`](rayfade_core::SPARSE_CROSSOVER), the sparse one
//! at or above it), so an analytic ALOHA or regret replication never
//! holds the gain (`crates/dynamic/tests/analytic_peak_heap.rs`,
//! `crates/dynamic/tests/no_dense_state.rs`).
//!
//! The analytic resolver draws one uniform `u` per link in ascending link
//! order and takes the indicator `u < p` for the conditional Theorem-1
//! probability `p`, bit for bit, from its cache's
//! `conditional_success_below` (as
//! [`NetworkEvaluator::conditional_success_below`] forwards it), which
//! settles most draws from brackets on `p` without its `exp`; it matches
//! the cache's variant once per slot, not once per link.

use crate::arrivals::{ArrivalProcess, ArrivalStreams};
use crate::policy::{
    ObservedSlot, OnlinePolicy, PolicyKind, QueueAloha, QueueMaxWeight, RayleighMaxWeight,
    RegretPolicy,
};
use crate::queue::QueueBank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_core::{mix_seed, mix_seed2, NetworkEvaluator, RayleighModel};
use rayfade_geometry::{Network, PaperTopology};
use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams, SuccessModel};
use rayfade_telemetry::trace::{self, SpanId};
use rayfade_telemetry::{HealthReport, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::time::Instant;

/// Distinct stream tags for [`mix_seed2`] derivations.
mod stream {
    pub const TOPOLOGY: u64 = 1;
    pub const ARRIVALS: u64 = 2;
    pub const POLICY: u64 = 3;
    pub const FADING: u64 = 4;
}

/// Which success model resolves slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuccessModelKind {
    /// Deterministic SINR (no fading).
    NonFading,
    /// Rayleigh fading: exponential gains redrawn every slot.
    Rayleigh,
}

impl SuccessModelKind {
    /// Stable label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            SuccessModelKind::NonFading => "non_fading",
            SuccessModelKind::Rayleigh => "rayleigh",
        }
    }

    /// Both models, in CSV order.
    pub fn all() -> [SuccessModelKind; 2] {
        [SuccessModelKind::NonFading, SuccessModelKind::Rayleigh]
    }
}

/// How a slot's outcomes are resolved from the chosen transmit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SlotModelKind {
    /// Realize the channel: sample fading coefficients, compute SINRs,
    /// threshold against β ([`MonteCarloResolver`]). Works for every
    /// [`SuccessModelKind`] and is the historical (bit-pinned) path.
    #[default]
    MonteCarlo,
    /// Skip the channel realization: draw each link's threshold
    /// indicator directly as Bernoulli(p_i) from the cached Theorem-1
    /// probability ([`AnalyticResolver`]). Distributionally exact for
    /// [`SuccessModelKind::Rayleigh`] — fading is independent per
    /// (sender, receiver) pair, so the per-link indicators are
    /// independent given the mask — and rejected for non-fading runs.
    Analytic,
}

impl SlotModelKind {
    /// Stable label used in journals and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            SlotModelKind::MonteCarlo => "monte_carlo",
            SlotModelKind::Analytic => "analytic",
        }
    }

    /// Both resolvers, Monte Carlo first.
    pub fn all() -> [SlotModelKind; 2] {
        [SlotModelKind::MonteCarlo, SlotModelKind::Analytic]
    }
}

/// Resolves one slot: given the transmit set, fills `would_succeed[i]`
/// with the per-link threshold indicator `SINR_i ≥ β` — counterfactual
/// for idle links, exactly the [`ObservedSlot`] contract. Implementations
/// persist whatever channel state they need across slots.
pub trait SlotResolver {
    /// Number of links.
    fn len(&self) -> usize;

    /// Whether the instance has no links.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves one slot. `active` is the transmit mask and
    /// `transmitters` lists the links it sets, ascending. Writes
    /// `would_succeed[i]` for every transmitter and, with
    /// `counterfactuals`, every idle link's counterfactual indicator too.
    /// Without it, idle entries are left untouched: the analytic resolver
    /// skips their probability evaluations and Bernoulli draws, and the
    /// Monte Carlo resolver steps its fading stream past their
    /// coefficients, so either resolver's random stream, and every
    /// transmitter's indicator, is the same with or without the scope.
    /// The engine asks for counterfactuals exactly when the policy's
    /// [`observes_counterfactuals`](crate::OnlinePolicy::observes_counterfactuals)
    /// is `true`.
    fn resolve_slot(
        &mut self,
        active: &[bool],
        transmitters: &[usize],
        counterfactuals: bool,
        would_succeed: &mut [bool],
    );

    /// Resolves every link from the mask alone
    /// ([`resolve_slot`](Self::resolve_slot) with counterfactuals).
    fn resolve(&mut self, active: &[bool], would_succeed: &mut [bool]) {
        self.resolve_slot(active, &listed(active), true, would_succeed);
    }

    /// Resolves the transmitting links from the mask alone
    /// ([`resolve_slot`](Self::resolve_slot) without counterfactuals);
    /// idle entries are cleared first, so none is ever stale.
    fn resolve_active_only(&mut self, active: &[bool], would_succeed: &mut [bool]) {
        would_succeed.fill(false);
        self.resolve_slot(active, &listed(active), false, would_succeed);
    }
}

/// The links a mask sets, ascending.
fn listed(mask: &[bool]) -> Vec<usize> {
    (0..mask.len()).filter(|&i| mask[i]).collect()
}

/// The realized-fading resolver: samples the channel through a
/// [`SuccessModel`] over the slot's listed transmitters into one SINR
/// buffer kept across slots, and thresholds the result — bit-identical
/// to the historical engine loop. With counterfactuals a slot realizes
/// every receiver, O(n·k) fading draws for `k` transmitters; scoped to
/// the transmitters it realizes O(k²) of them (each an `ln` under
/// Rayleigh) and steps the generator O(n·k) times past the rest.
pub struct MonteCarloResolver {
    model: Box<dyn SuccessModel>,
    beta: f64,
    /// Every link's SINR in the latest slot.
    sinrs: Vec<f64>,
}

impl MonteCarloResolver {
    /// Wraps a success model and the threshold β it resolves against.
    pub fn new(model: Box<dyn SuccessModel>, beta: f64) -> Self {
        let sinrs = vec![0.0; model.len()];
        MonteCarloResolver { model, beta, sinrs }
    }
}

impl SlotResolver for MonteCarloResolver {
    fn len(&self) -> usize {
        self.model.len()
    }

    /// Draws the same fading stream with or without counterfactuals
    /// ([`SuccessModel::resolve_sinrs`]): the realized-fading stream is
    /// bit-pinned to committed artifacts.
    fn resolve_slot(
        &mut self,
        _active: &[bool],
        transmitters: &[usize],
        counterfactuals: bool,
        would_succeed: &mut [bool],
    ) {
        self.model
            .resolve_sinrs(transmitters, counterfactuals, &mut self.sinrs);
        if counterfactuals {
            for (w, &s) in would_succeed.iter_mut().zip(&self.sinrs) {
                *w = s >= self.beta;
            }
        } else {
            for &i in transmitters {
                would_succeed[i] = self.sinrs[i] >= self.beta;
            }
        }
    }
}

/// The analytic fast-slot resolver: persists a churn-amortized Theorem-1
/// evaluator across slots and brings it from one slot's transmit set to
/// the next — O(min(flips, k)·n) row passes on the amortized dense cache
/// below [`SPARSE_CROSSOVER`](rayfade_core::SPARSE_CROSSOVER) (k
/// transmitters), O(flips·deg) on the certified sparse cache at or above
/// it — instead of an O(n²) rebuild or n fading draws + n² interference
/// terms, and draws each link's
/// indicator as Bernoulli(p_i) with `p_i = P[SINR_i ≥ β | mask]` — the
/// conditional Theorem-1 probability, counterfactual for idle links.
/// Without counterfactuals a slot costs O(flips + transmitters), however
/// many links the network has.
pub struct AnalyticResolver {
    evaluator: NetworkEvaluator,
    /// Transmit set currently reflected in the evaluator, ascending.
    current: Vec<usize>,
    rng: StdRng,
}

/// The accuracy a replication spent resolving slots on the certified
/// sparse cache: every probability it drew from over-states the exact
/// Theorem-1 value by at most a factor `e^{τ_max}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparseAccuracy {
    /// Truncation bound δ the cache was built for.
    pub delta: f64,
    /// Largest per-link certificate `τ_max`, at most `−ln(1 − δ)`.
    pub tau_max: f64,
}

impl AnalyticResolver {
    /// Builds the persistent evaluator from a dense gain matrix
    /// ([`NetworkEvaluator::amortized_from_gain`]: churn-amortized below
    /// the sparse crossover, certified ε-truncated sparse above) with all
    /// links idle, and seeds the Bernoulli stream.
    pub fn new(gain: &GainMatrix, params: &SinrParams, seed: u64) -> Self {
        Self::with_evaluator(NetworkEvaluator::amortized_from_gain(gain, params), seed)
    }

    /// Like [`new`](Self::new), but builds the evaluator from geometry
    /// ([`NetworkEvaluator::amortized_for_network`]): bit-identical to
    /// [`new`](Self::new) over `GainMatrix::from_geometry` below the
    /// sparse crossover, without ever allocating that gain, and the
    /// spatial-grid sparse cache, with no dense n² state, at or above it.
    pub fn for_network(
        network: &Network,
        power: &PowerAssignment,
        params: &SinrParams,
        seed: u64,
    ) -> Self {
        Self::with_evaluator(
            NetworkEvaluator::amortized_for_network(network, power, params),
            seed,
        )
    }

    fn with_evaluator(evaluator: NetworkEvaluator, seed: u64) -> Self {
        AnalyticResolver {
            evaluator,
            current: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// δ and `τ_max` of the sparse cache; `None` on the amortized dense
    /// cache, which is exact up to its log quantization.
    pub fn sparse_accuracy(&self) -> Option<SparseAccuracy> {
        match &self.evaluator {
            NetworkEvaluator::Sparse(ev) => Some(SparseAccuracy {
                delta: ev.delta(),
                tau_max: ev.ratios().tau_max(),
            }),
            NetworkEvaluator::Dense(_) | NetworkEvaluator::Amortized(_) => None,
        }
    }

    /// Brings the persistent evaluator from the previous transmit set to
    /// `transmitters` ([`NetworkEvaluator::switch_transmit_set`]). The
    /// sparse cache applies one update per flipped link in ascending link
    /// order, because its f64 log sums depend on the order and its
    /// committed bits were produced that way. The amortized cache, whose
    /// integer sums do not, rebuilds from `transmitters` when that takes
    /// fewer row passes than the flips: O(min(flips, k)·n) per slot.
    fn apply_flips(&mut self, transmitters: &[usize]) {
        self.evaluator
            .switch_transmit_set(&self.current, transmitters);
        self.current.clear();
        self.current.extend_from_slice(transmitters);
    }
}

impl SlotResolver for AnalyticResolver {
    fn len(&self) -> usize {
        self.evaluator.len()
    }

    fn resolve_slot(
        &mut self,
        _active: &[bool],
        transmitters: &[usize],
        counterfactuals: bool,
        would_succeed: &mut [bool],
    ) {
        debug_assert_eq!(would_succeed.len(), self.evaluator.len());
        self.apply_flips(transmitters);
        // The cache's variant is matched once per slot, not once per link.
        let rng = &mut self.rng;
        match &self.evaluator {
            NetworkEvaluator::Dense(ev) => draw_indicators(
                |i, u| ev.conditional_success_below(i, u),
                rng,
                transmitters,
                counterfactuals,
                would_succeed,
            ),
            NetworkEvaluator::Sparse(ev) => draw_indicators(
                |i, u| ev.conditional_success_below(i, u),
                rng,
                transmitters,
                counterfactuals,
                would_succeed,
            ),
            NetworkEvaluator::Amortized(ev) => draw_indicators(
                |i, u| ev.conditional_success_below(i, u),
                rng,
                transmitters,
                counterfactuals,
                would_succeed,
            ),
        }
    }
}

/// The analytic resolver's draws over one concrete cache: one uniform
/// per resolved link, in ascending link order (determinism), and
/// `would_succeed[i] = below(i, u)`, the indicator `u < p_i`. Without
/// counterfactuals only transmitters draw: the probability evaluation
/// and the draw of every idle link are skipped, which dominates the
/// per-slot cost under sparse contention.
#[inline]
fn draw_indicators(
    below: impl Fn(usize, f64) -> bool,
    rng: &mut StdRng,
    transmitters: &[usize],
    counterfactuals: bool,
    would_succeed: &mut [bool],
) {
    if counterfactuals {
        for (i, w) in would_succeed.iter_mut().enumerate() {
            *w = below(i, rng.gen::<f64>());
        }
    } else {
        for &i in transmitters {
            would_succeed[i] = below(i, rng.gen::<f64>());
        }
    }
}

/// Configuration of one dynamic run (a cell, possibly replicated over
/// several random networks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Links per network.
    pub links: usize,
    /// Independent random networks to average over.
    pub networks: usize,
    /// Slots per replication.
    pub slots: u64,
    /// Arrival process (per link; each link gets an independent stream).
    pub arrival: ArrivalProcess,
    /// The online policy.
    pub policy: PolicyKind,
    /// The success model.
    pub model: SuccessModelKind,
    /// How slots are resolved from the chosen mask — the realized-fading
    /// Monte Carlo path (default, bit-pinned) or the Theorem-1 analytic
    /// Bernoulli path.
    pub slot_model: SlotModelKind,
    /// Topology template (densities control interference pressure).
    pub topology: PaperTopology,
    /// SINR parameters.
    pub params: SinrParams,
    /// Record total backlog every this many slots (drift series).
    pub sample_every: u64,
    /// Base seed.
    pub seed: u64,
}

impl DynamicConfig {
    /// A small smoke configuration (seconds, not minutes).
    pub fn smoke() -> Self {
        DynamicConfig {
            links: 12,
            networks: 2,
            slots: 2_000,
            arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
            policy: PolicyKind::MaxWeight,
            model: SuccessModelKind::NonFading,
            slot_model: SlotModelKind::MonteCarlo,
            topology: PaperTopology {
                links: 12,
                ..PaperTopology::figure1()
            },
            params: SinrParams::figure1(),
            sample_every: 50,
            seed: 0xd1_4a,
        }
    }
}

/// Backlog trace of one replication (for drift estimation / plotting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotTrace {
    /// Slot indices at which the backlog was sampled.
    pub slots: Vec<u64>,
    /// Total backlog at each sampled slot.
    pub total_backlog: Vec<u64>,
    /// Cumulative packet arrivals up to and including each sampled slot.
    pub cum_arrivals: Vec<u64>,
    /// Cumulative packet departures up to and including each sampled slot.
    pub cum_departures: Vec<u64>,
}

/// Aggregated outcome of one replication.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicOutcome {
    /// Packets delivered per slot per link (the throughput the λ sweep
    /// compares against the offered load).
    pub throughput_per_link: f64,
    /// Offered load: packets that *arrived* per slot per link.
    pub offered_per_link: f64,
    /// Mean packet delay in slots (`None` if nothing was delivered).
    pub mean_delay: Option<f64>,
    /// 95th-percentile packet delay (`None` if nothing was delivered).
    pub p95_delay: Option<u64>,
    /// Total backlog remaining when the run stopped, per link.
    pub final_backlog_per_link: f64,
    /// The sampled backlog series.
    pub trace: SlotTrace,
    /// δ and `τ_max` of the sparse cache the analytic resolver drew
    /// from; `None` on the dense paths (Monte Carlo, or analytic below
    /// [`SPARSE_CROSSOVER`](rayfade_core::SPARSE_CROSSOVER)).
    pub sparse_accuracy: Option<SparseAccuracy>,
}

/// Runs dynamic-scheduling cells; see the module docs for the seeding
/// contract.
#[derive(Debug, Clone)]
pub struct DynamicEngine {
    config: DynamicConfig,
}

impl DynamicEngine {
    /// Wraps a configuration.
    pub fn new(config: DynamicConfig) -> Self {
        assert!(config.links > 0, "need at least one link");
        assert!(config.networks > 0, "need at least one network");
        assert!(config.slots > 0, "need at least one slot");
        assert!(config.sample_every > 0, "sample_every must be positive");
        assert!(
            config.slot_model == SlotModelKind::MonteCarlo
                || config.model == SuccessModelKind::Rayleigh,
            "analytic slot resolution draws from Theorem-1 Rayleigh probabilities; \
             non-fading runs must use SlotModelKind::MonteCarlo"
        );
        DynamicEngine { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Runs every replication (rayon-parallel, deterministic order) and
    /// returns the per-network outcomes.
    pub fn run(&self) -> Vec<DynamicOutcome> {
        self.replicate(None, false).0
    }

    /// Like [`run`](Self::run), but records `rayfade_dynamic_*` /
    /// `rayfade_sched_*` metrics into the registry during the parallel
    /// replications and then journals `dyn_run` / `dyn_slot` / `dyn_net`
    /// events post-collect, in deterministic order (journal bytes do not
    /// depend on rayon scheduling). With `monitor`, each replication's
    /// [`HealthReport`] is computed from its trace and delays after its
    /// slot loop, returned (one per network), exported to the registry
    /// post-collect, and journaled as `health` events after that
    /// replication's `dyn_net`, leaving the rest of the event stream
    /// identical to the unmonitored one. `None` and `false` are the
    /// uninstrumented fast path; the returned outcomes are bit-identical
    /// either way.
    pub fn run_with_telemetry(
        &self,
        tele: Option<&Telemetry>,
        monitor: bool,
    ) -> (Vec<DynamicOutcome>, Vec<HealthReport>) {
        let (outcomes, health) = self.replicate(tele, monitor);
        self.journal_outcomes(tele, &outcomes, &health);
        (outcomes, health)
    }

    /// The replication half of [`run_with_telemetry`](Self::run_with_telemetry):
    /// replications tally registry metrics, but nothing is journaled and
    /// the health reports are not yet exported. Sweeps running many
    /// engines in parallel use this and call
    /// [`journal_outcomes`](Self::journal_outcomes) afterwards, in
    /// deterministic order.
    pub(crate) fn replicate(
        &self,
        tele: Option<&Telemetry>,
        monitor: bool,
    ) -> (Vec<DynamicOutcome>, Vec<HealthReport>) {
        let pairs: Vec<(DynamicOutcome, Option<HealthReport>)> = (0..self.config.networks as u64)
            .into_par_iter()
            .map(|net| self.run_network_full(net, tele, monitor))
            .collect();
        let (outcomes, health): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        (outcomes, health.into_iter().flatten().collect())
    }

    /// Runs one replication.
    pub fn run_network(&self, net: u64) -> DynamicOutcome {
        self.run_network_full(net, None, false).0
    }

    /// Runs one replication, optionally tallying metrics (never journal
    /// events — see [`journal_outcomes`](Self::journal_outcomes)) and,
    /// with `monitor`, returning the [`HealthReport`] of its trace and
    /// delays alongside the outcome.
    fn run_network_full(
        &self,
        net: u64,
        tele: Option<&Telemetry>,
        monitor: bool,
    ) -> (DynamicOutcome, Option<HealthReport>) {
        let cfg = &self.config;
        let topology = PaperTopology {
            links: cfg.links,
            ..cfg.topology
        };
        let deployment = Deployment {
            network: topology.generate(mix_seed2(cfg.seed, stream::TOPOLOGY, net)),
            params: cfg.params,
            gain: OnceCell::new(),
        };
        let n = cfg.links;

        // Arrival streams depend on (seed, net, λ) only — never on the
        // policy or model — so every cell at this λ sees identical
        // traffic.
        let arrival_root = mix_seed2(
            mix_seed(cfg.seed, stream::ARRIVALS),
            net,
            cfg.arrival.rate().to_bits(),
        );
        let mut arrivals = ArrivalStreams::new(
            &cfg.arrival,
            (0..n as u64)
                .map(|link| StdRng::seed_from_u64(mix_seed(arrival_root, link)))
                .collect(),
        );

        // Policy randomness: per (seed, net, policy).
        let policy_seed = mix_seed2(
            mix_seed(cfg.seed, stream::POLICY),
            net,
            label_tag(cfg.policy.label()),
        );
        let mut policy_rng = StdRng::seed_from_u64(policy_seed);
        let mut policy = build_policy(cfg, &deployment);

        let (mut resolver, sparse_accuracy) = build_resolver(cfg, &deployment, net);
        // Queried once per replication: when the policy never reads idle
        // links' counterfactual indicators, the resolver may scope its
        // work to the transmitting links (the analytic path skips their
        // probability evaluations and Bernoulli draws entirely).
        let counterfactuals = policy.observes_counterfactuals();

        let mut bank = QueueBank::new(n);
        let samples = cfg.slots.div_ceil(cfg.sample_every) as usize;
        let mut trace = SlotTrace {
            slots: Vec::with_capacity(samples),
            total_backlog: Vec::with_capacity(samples),
            cum_arrivals: Vec::with_capacity(samples),
            cum_departures: Vec::with_capacity(samples),
        };
        // Per-slot buffers, reused: a slot touches only the entries of the
        // links that arrive, contend or transmit. Between slots the masks
        // are all `false`, except idle counterfactuals in `would_succeed`,
        // which a counterfactual resolver overwrites every slot.
        let mut arrived: Vec<(usize, u32)> = Vec::new();
        let mut transmitters: Vec<usize> = Vec::new();
        let mut active = vec![false; n];
        let mut would_succeed = vec![false; n];
        let mut successes = vec![false; n];
        // The one metric the slot loop updates, resolved once per
        // replication; it touches an atomic and `Instant` on sampled
        // slots only.
        let policy_seconds = tele.map(|t| t.registry().histogram("rayfade_dynamic_policy_seconds"));
        // Span ids interned once per replication. The per-slot phase
        // spans and the policy latency are *sampled* (only on
        // `slot % sample_every == 0` slots): four spans, two clock reads
        // and a shared histogram update per sub-µs slot would blow the
        // overhead budget pinned by `telemetry_overhead`, while sampled
        // ones amortize to nanoseconds per slot and still attribute time
        // faithfully — every slot does the same work.
        let tracer = tele.and_then(Telemetry::tracer);
        let sp = |name: &str| tracer.map(|tr| tr.span_id(name));
        let span_replication = sp("dynamic/replication");
        let span_arrivals = sp("dynamic/arrivals");
        let span_policy = sp("dynamic/policy");
        let span_transmission = sp("dynamic/transmission");
        let span_departures = sp("dynamic/departures");
        let _replication_span = trace::guard(tracer, span_replication);
        let mut transmissions: u64 = 0;
        let mut deliveries: u64 = 0;

        for slot in 0..cfg.slots {
            let sampled = slot % cfg.sample_every == 0;
            let phase = |id: Option<SpanId>| trace::guard(tracer.filter(|_| sampled), id);
            // A deliberately slowed slot loop for proving the CI perf
            // sentinel fires; never enabled in normal builds or tests.
            #[cfg(feature = "slowdown")]
            std::thread::sleep(std::time::Duration::from_micros(20));
            // 1. Arrivals: one draw per link, then enqueue the hits.
            {
                let _g = phase(span_arrivals);
                arrivals.draw_slot(&mut arrived);
                for &(i, count) in &arrived {
                    bank.enqueue(i, count, slot);
                }
            }
            // 2. Policy picks transmitters (never on empty queues; the
            //    engine re-checks defensively).
            let choose_start = policy_seconds
                .as_ref()
                .filter(|_| sampled)
                .map(|_| Instant::now());
            {
                let _g = phase(span_policy);
                // Selector-backed policies nest their `selector/*` span
                // under this phase span; unsampled slots pass None.
                policy.choose_into(
                    bank.backlogged(),
                    &mut policy_rng,
                    tracer.filter(|_| sampled),
                    &mut transmitters,
                );
            }
            if let (Some(hist), Some(start)) = (&policy_seconds, choose_start) {
                hist.observe_duration(start.elapsed());
            }
            transmitters.retain(|&i| bank.queue(i).is_backlogged());
            for &i in &transmitters {
                active[i] = true;
            }
            transmissions += transmitters.len() as u64;
            // 3. One physical slot: per-link threshold indicators
            //    (counterfactual for idle links), successes, departures.
            {
                let _g = phase(span_transmission);
                resolver.resolve_slot(&active, &transmitters, counterfactuals, &mut would_succeed);
            }
            {
                let _g = phase(span_departures);
                for &i in &transmitters {
                    if would_succeed[i] {
                        successes[i] = true;
                        let delivered = bank.dequeue(i, slot);
                        debug_assert!(delivered.is_some());
                        deliveries += 1;
                    }
                }
                // 4. Feedback — magnitude-free by construction.
                policy.observe(&ObservedSlot {
                    active: &active,
                    would_succeed: &would_succeed,
                    successes: &successes,
                });
                for &i in &transmitters {
                    active[i] = false;
                    would_succeed[i] = false;
                    successes[i] = false;
                }
            }
            // 5. Sampled backlog trace.
            if sampled {
                trace.slots.push(slot);
                trace.total_backlog.push(bank.total_backlog());
                trace.cum_arrivals.push(bank.total_arrivals());
                trace.cum_departures.push(bank.total_departures());
            }
        }

        if let Some(t) = tele {
            let reg = t.registry();
            reg.counter("rayfade_dynamic_slots_total").add(cfg.slots);
            reg.counter("rayfade_dynamic_arrivals_total")
                .add(bank.total_arrivals());
            reg.counter("rayfade_dynamic_departures_total")
                .add(bank.total_departures());
            reg.counter("rayfade_dynamic_transmissions_total")
                .add(transmissions);
            reg.counter("rayfade_dynamic_successes_total")
                .add(deliveries);
            reg.gauge("rayfade_dynamic_final_backlog")
                .add(bank.total_backlog() as i64);
            // Integer values: the histogram's sum is exact in any order.
            let sampled_backlog = reg.histogram("rayfade_dynamic_sampled_backlog");
            for &backlog in &trace.total_backlog {
                sampled_backlog.observe(backlog as f64);
            }
            if let Some(stats) = policy.selection_stats() {
                reg.counter("rayfade_sched_candidates_scored_total")
                    .add(stats.candidates_scored);
                reg.counter("rayfade_sched_accepted_total")
                    .add(stats.accepted);
                reg.counter("rayfade_sched_rejected_total")
                    .add(stats.rejected);
            }
        }

        let slots = cfg.slots as f64;
        let outcome = DynamicOutcome {
            throughput_per_link: bank.total_departures() as f64 / slots / n as f64,
            offered_per_link: bank.total_arrivals() as f64 / slots / n as f64,
            mean_delay: bank.mean_delay(),
            p95_delay: bank.delay_percentile(95.0),
            final_backlog_per_link: bank.total_backlog() as f64 / n as f64,
            trace,
            sparse_accuracy,
        };
        // Read off the finished run, never during it: a monitored run's
        // outcome is bit-equal to an unmonitored one's.
        let health = monitor.then(|| {
            let t = &outcome.trace;
            HealthReport::from_run(
                &t.slots,
                &t.total_backlog,
                &t.cum_arrivals,
                &t.cum_departures,
                (0..n).map(|i| bank.queue(i).delays()),
            )
        });
        (outcome, health)
    }

    /// Records a finished run post-collect: exports each replication's
    /// [`HealthReport`] to the registry, then journals a `dyn_run` header
    /// plus, per replication (in network order), the sampled `dyn_slot`
    /// trace records, a `dyn_net` summary and that replication's `health`
    /// events (`health` is indexed by network; empty for an unmonitored
    /// run, whose event stream then carries no `health` records). Kept
    /// separate from the rayon-parallel replication phase so registry
    /// floats and journal bytes are deterministic regardless of
    /// scheduling; no-op when `tele` is `None`.
    pub(crate) fn journal_outcomes(
        &self,
        tele: Option<&Telemetry>,
        outcomes: &[DynamicOutcome],
        health: &[HealthReport],
    ) {
        let Some(t) = tele else {
            return;
        };
        for report in health {
            report.export(t.registry());
        }
        let Some(journal) = t.journal() else {
            return;
        };
        let cfg = &self.config;
        let policy = cfg.policy.label();
        let model = cfg.model.label();
        let lambda = cfg.arrival.rate();
        journal
            .event("dyn_run")
            .str("policy", policy)
            .str("model", model)
            .str("slot_model", cfg.slot_model.label())
            .num("lambda", lambda)
            .int("links", cfg.links as i64)
            .int("networks", cfg.networks as i64)
            .int("slots", cfg.slots as i64)
            .int("sample_every", cfg.sample_every as i64)
            // Strings, not JSON numbers: seeds and hashes use all 64 bits
            // and would lose precision above 2^53.
            .str("seed", &format!("{:#x}", cfg.seed))
            .str(
                "config_hash",
                &format!("{:016x}", rayfade_telemetry::config_hash(cfg)),
            )
            .write();
        for (net, out) in outcomes.iter().enumerate() {
            let trace = &out.trace;
            for k in 0..trace.slots.len() {
                journal
                    .event("dyn_slot")
                    .str("policy", policy)
                    .str("model", model)
                    .num("lambda", lambda)
                    .int("net", net as i64)
                    .int("slot", trace.slots[k] as i64)
                    .int("backlog", trace.total_backlog[k] as i64)
                    .int("cum_arrivals", trace.cum_arrivals[k] as i64)
                    .int("cum_departures", trace.cum_departures[k] as i64)
                    .write();
            }
            let mut ev = journal
                .event("dyn_net")
                .str("policy", policy)
                .str("model", model)
                .num("lambda", lambda)
                .int("net", net as i64)
                .num("throughput_per_link", out.throughput_per_link)
                .num("offered_per_link", out.offered_per_link)
                .num("final_backlog_per_link", out.final_backlog_per_link);
            if let Some(d) = out.mean_delay {
                ev = ev.num("mean_delay", d);
            }
            if let Some(p) = out.p95_delay {
                ev = ev.int("p95_delay", p as i64);
            }
            // Only sparse replications carry the keys, so dense runs'
            // journals keep their historical bytes.
            if let Some(acc) = out.sparse_accuracy {
                ev = ev.num("delta", acc.delta).num("tau_max", acc.tau_max);
            }
            ev.write();
            if let Some(report) = health.get(net) {
                report.journal(journal, |e| {
                    e.str("policy", policy)
                        .str("model", model)
                        .num("lambda", lambda)
                        .int("net", net as i64)
                });
            }
        }
    }
}

/// Stable small tag derived from a policy label (FNV-1a), mixed into the
/// policy stream so distinct policies get distinct randomness.
fn label_tag(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One replication's network, with its dense gain matrix built on first
/// use. The O(n²) gain is taken only by the Monte Carlo models and the
/// max-weight policies; the analytic resolver builds its cache from
/// geometry. So a replication builds the gain only when a Monte Carlo
/// model or a max-weight policy is configured, and never twice: gated
/// ALOHA and regret learning on the analytic resolver never allocate it.
struct Deployment {
    network: Network,
    params: SinrParams,
    gain: OnceCell<GainMatrix>,
}

impl Deployment {
    fn gain(&self) -> &GainMatrix {
        self.gain.get_or_init(|| {
            GainMatrix::from_geometry(
                &self.network,
                &PowerAssignment::figure1_uniform(),
                self.params.alpha,
            )
        })
    }

    fn analytic_resolver(&self, seed: u64) -> AnalyticResolver {
        AnalyticResolver::for_network(
            &self.network,
            &PowerAssignment::figure1_uniform(),
            &self.params,
            seed,
        )
    }
}

fn build_policy(cfg: &DynamicConfig, deployment: &Deployment) -> Box<dyn OnlinePolicy> {
    match cfg.policy {
        PolicyKind::MaxWeight => {
            Box::new(QueueMaxWeight::new(deployment.gain().clone(), cfg.params))
        }
        PolicyKind::Aloha => Box::new(QueueAloha::default_inverse(cfg.links)),
        PolicyKind::Regret => Box::new(RegretPolicy::new(cfg.links)),
        PolicyKind::RayleighMaxWeight => Box::new(RayleighMaxWeight::new(
            deployment.gain().clone(),
            cfg.params,
        )),
    }
}

fn build_model(cfg: &DynamicConfig, gain: &GainMatrix, net: u64) -> Box<dyn SuccessModel> {
    match cfg.model {
        SuccessModelKind::NonFading => Box::new(NonFadingModel::new(gain.clone(), cfg.params)),
        SuccessModelKind::Rayleigh => Box::new(RayleighModel::new(
            gain.clone(),
            cfg.params,
            mix_seed2(cfg.seed, stream::FADING, net),
        )),
    }
}

/// Both resolvers draw their channel randomness from the same
/// `(seed, FADING, net)` stream root, so a mode switch changes only *how*
/// the stream is consumed, never which stream it is. Returns the
/// resolver with the accuracy it spends on a sparse cache.
fn build_resolver(
    cfg: &DynamicConfig,
    deployment: &Deployment,
    net: u64,
) -> (Box<dyn SlotResolver>, Option<SparseAccuracy>) {
    match cfg.slot_model {
        SlotModelKind::MonteCarlo => (
            Box::new(MonteCarloResolver::new(
                build_model(cfg, deployment.gain(), net),
                cfg.params.beta,
            )),
            None,
        ),
        // `DynamicEngine::new` already rejected non-Rayleigh configs.
        SlotModelKind::Analytic => {
            let resolver = deployment.analytic_resolver(mix_seed2(cfg.seed, stream::FADING, net));
            let accuracy = resolver.sparse_accuracy();
            (Box::new(resolver), accuracy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_sane() {
        let engine = DynamicEngine::new(DynamicConfig::smoke());
        let a = engine.run();
        let b = engine.run();
        assert_eq!(a, b, "bitwise determinism across runs");
        assert_eq!(a.len(), 2);
        for out in &a {
            assert!(out.throughput_per_link <= out.offered_per_link + 1e-12);
            assert!(out.offered_per_link > 0.0);
            assert!(!out.trace.slots.is_empty());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = DynamicConfig::smoke();
        let a = DynamicEngine::new(cfg.clone()).run();
        cfg.seed ^= 1;
        let b = DynamicEngine::new(cfg).run();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_identical_across_policies_and_models() {
        // The offered load must be bit-identical in every cell sharing
        // (seed, net, λ): the fairness precondition of the comparison.
        let base = DynamicConfig::smoke();
        let mut offered = Vec::new();
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                let cfg = DynamicConfig {
                    policy,
                    model,
                    ..base.clone()
                };
                let outs = DynamicEngine::new(cfg).run();
                offered.push(
                    outs.iter()
                        .map(|o| o.offered_per_link.to_bits())
                        .collect::<Vec<_>>(),
                );
            }
        }
        for w in offered.windows(2) {
            assert_eq!(w[0], w[1], "offered load differed between cells");
        }
    }

    #[test]
    fn rayleigh_max_weight_runs_through_the_engine() {
        let cfg = DynamicConfig {
            policy: PolicyKind::RayleighMaxWeight,
            model: SuccessModelKind::Rayleigh,
            slots: 300,
            networks: 1,
            ..DynamicConfig::smoke()
        };
        let a = DynamicEngine::new(cfg.clone()).run();
        let b = DynamicEngine::new(cfg).run();
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.len(), 1);
        assert!(a[0].throughput_per_link > 0.0, "must deliver something");
        assert!(a[0].throughput_per_link <= a[0].offered_per_link + 1e-12);
    }

    #[test]
    fn zero_rate_means_empty_queues_and_zero_throughput() {
        let cfg = DynamicConfig {
            arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
            ..DynamicConfig::smoke()
        };
        for out in DynamicEngine::new(cfg).run() {
            assert_eq!(out.offered_per_link, 0.0);
            assert_eq!(out.throughput_per_link, 0.0);
            assert_eq!(out.final_backlog_per_link, 0.0);
            assert!(out.trace.total_backlog.iter().all(|&b| b == 0));
            assert_eq!(out.mean_delay, None);
        }
    }

    #[test]
    fn all_policy_model_cells_run() {
        let base = DynamicConfig {
            slots: 300,
            networks: 1,
            ..DynamicConfig::smoke()
        };
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                let cfg = DynamicConfig {
                    policy,
                    model,
                    ..base.clone()
                };
                let outs = DynamicEngine::new(cfg).run();
                assert_eq!(outs.len(), 1);
                let o = &outs[0];
                assert!(o.throughput_per_link >= 0.0);
                assert!(o.throughput_per_link <= o.offered_per_link + 1e-12);
            }
        }
    }

    #[test]
    fn light_load_is_fully_served() {
        // At trivially light load every policy should deliver nearly all
        // arrivals within the horizon.
        for policy in PolicyKind::all() {
            let cfg = DynamicConfig {
                arrival: ArrivalProcess::Bernoulli { rate: 0.01 },
                slots: 4_000,
                networks: 1,
                policy,
                ..DynamicConfig::smoke()
            };
            let o = &DynamicEngine::new(cfg).run()[0];
            assert!(
                o.throughput_per_link > 0.8 * o.offered_per_link,
                "{}: served {} of offered {}",
                policy.label(),
                o.throughput_per_link,
                o.offered_per_link
            );
        }
    }

    #[test]
    fn telemetry_does_not_perturb_outcomes_and_journals_deterministically() {
        let cfg = DynamicConfig {
            slots: 400,
            networks: 2,
            ..DynamicConfig::smoke()
        };
        let engine = DynamicEngine::new(cfg);
        let plain = engine.run();

        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str| {
            let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
            // Journal *and* tracer attached: the strongest instrumented
            // configuration must still not perturb outcomes.
            let tele = Telemetry::with_journal(&path).unwrap().with_tracing();
            let (outs, health) = engine.run_with_telemetry(Some(&tele), false);
            assert!(health.is_empty(), "no monitor, no health reports");
            tele.flush();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            (outs, bytes, tele)
        };
        let (outs_a, bytes_a, tele) = run_once("engine-a");
        let (outs_b, bytes_b, _tele_b) = run_once("engine-b");
        assert_eq!(outs_a, outs_b);

        assert_eq!(plain, outs_a, "instrumentation must not change results");
        assert_eq!(bytes_a, bytes_b, "journal must be byte-reproducible");

        let trace = tele.tracer().unwrap().snapshot();
        assert_eq!(trace.dropped, 0);
        let count = |name: &str| trace.records.iter().filter(|r| r.name == name).count();
        assert_eq!(count("dynamic/replication"), 2, "one span per replication");
        // 400 slots at sample_every=50 → 8 sampled slots per replication.
        for phase in [
            "dynamic/arrivals",
            "dynamic/policy",
            "dynamic/transmission",
            "dynamic/departures",
        ] {
            assert_eq!(count(phase), 16, "{phase}: sampled slots × networks");
        }
        let json = trace.to_chrome_json();
        rayfade_telemetry::trace::validate_chrome_trace(&json)
            .expect("engine trace must be a valid Chrome trace");

        let reg = tele.registry();
        assert_eq!(reg.counter("rayfade_dynamic_slots_total").get(), 800);
        let arrivals = reg.counter("rayfade_dynamic_arrivals_total").get();
        let departures = reg.counter("rayfade_dynamic_departures_total").get();
        let backlog = reg.gauge("rayfade_dynamic_final_backlog").get();
        assert_eq!(arrivals, departures + backlog as u64, "flow conservation");
        assert!(
            reg.counter("rayfade_sched_candidates_scored_total").get()
                >= reg.counter("rayfade_sched_accepted_total").get(),
            "cannot accept more candidates than were scored"
        );
        assert_eq!(
            reg.histogram("rayfade_dynamic_policy_seconds").count(),
            16,
            "one latency observation per sampled slot"
        );
    }

    #[test]
    fn monitored_run_is_bit_equal_and_journals_health_after_each_net() {
        let cfg = DynamicConfig {
            slots: 400,
            networks: 2,
            ..DynamicConfig::smoke()
        };
        let engine = DynamicEngine::new(cfg);
        let plain = engine.run();

        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("monitored-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap();
        let (outcomes, health) = engine.run_with_telemetry(Some(&tele), true);
        tele.flush();
        assert_eq!(plain, outcomes, "monitoring must not perturb outcomes");
        assert_eq!(health.len(), 2, "one report per replication");
        for (report, out) in health.iter().zip(&outcomes) {
            let backlog = &out.trace.total_backlog;
            assert_eq!(report.watermark, *backlog.iter().max().unwrap() as f64);
            // Every delivery of the run, not only those up to the last
            // sampled slot.
            let cfg = engine.config();
            let departed = out.throughput_per_link * (cfg.slots * cfg.links as u64) as f64;
            assert_eq!(report.slo.observed, departed.round() as u64);
        }

        // Health events appear directly after each replication's dyn_net,
        // and stripping them (plus renumbering) recovers the unmonitored
        // stream — checked end-to-end by the bench integration test; here
        // check the ordering invariant.
        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(|k| k.as_str()))
            .collect();
        let health_events = kinds.iter().filter(|&&k| k == "health").count();
        assert_eq!(health_events, 2 * 3, "3 detectors per replication");
        for (k, kind) in kinds.iter().enumerate() {
            if *kind == "health" {
                assert!(
                    kinds[k - 1] == "dyn_net" || kinds[k - 1] == "health",
                    "health events must directly follow their dyn_net"
                );
            }
        }
        // Registry export happened once per replication.
        assert_eq!(
            tele.registry()
                .counter("rayfade_monitor_reports_total")
                .get(),
            2
        );
    }

    #[test]
    fn trace_cumulative_series_are_consistent() {
        let outs = DynamicEngine::new(DynamicConfig::smoke()).run();
        for out in &outs {
            let t = &out.trace;
            assert_eq!(t.slots.len(), t.cum_arrivals.len());
            assert_eq!(t.slots.len(), t.cum_departures.len());
            for k in 0..t.slots.len() {
                assert_eq!(
                    t.total_backlog[k],
                    t.cum_arrivals[k] - t.cum_departures[k],
                    "backlog must equal arrivals minus departures at slot {}",
                    t.slots[k]
                );
                if k > 0 {
                    assert!(t.cum_arrivals[k] >= t.cum_arrivals[k - 1]);
                    assert!(t.cum_departures[k] >= t.cum_departures[k - 1]);
                }
            }
        }
    }

    /// Drives a resolver over `evaluator` through 200 random transmit
    /// masks and checks its cache against a twin that applies each mask's
    /// flips by a scan of the whole mask, in ascending link order: the
    /// whole evaluator state and every conditional probability's bits
    /// must agree, slot after slot.
    fn assert_listed_flips_match_a_mask_scan(evaluator: NetworkEvaluator) {
        let n = evaluator.len();
        let mut twin = evaluator.clone();
        let mut resolver = AnalyticResolver::with_evaluator(evaluator, 7);
        let mut twin_mask = vec![false; n];
        let mut rng = StdRng::seed_from_u64(1);
        for slot in 0..200 {
            // Vary the density so the amortized cache both churns and
            // rebuilds.
            let density = [0.4, 0.05, 0.9, 0.0][slot % 4];
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            resolver.apply_flips(&listed(&mask));
            for (j, (&on, was)) in mask.iter().zip(&mut twin_mask).enumerate() {
                if on != *was {
                    if on {
                        twin.insert(j);
                    } else {
                        twin.remove(j);
                    }
                    *was = on;
                }
            }
            assert_eq!(resolver.evaluator, twin, "slot {slot}");
            for i in 0..n {
                assert_eq!(
                    resolver
                        .evaluator
                        .conditional_success_probability(i)
                        .to_bits(),
                    twin.conditional_success_probability(i).to_bits(),
                    "slot {slot}, link {i}"
                );
            }
        }
    }

    fn forty_link_gain() -> (GainMatrix, SinrParams) {
        let network = PaperTopology {
            links: 40,
            side: 400.0,
            ..PaperTopology::figure1()
        }
        .generate(11);
        let params = SinrParams::figure1();
        let gain =
            GainMatrix::from_geometry(&network, &PowerAssignment::figure1_uniform(), params.alpha);
        (gain, params)
    }

    /// The listed path applies flips in ascending link order, as a scan
    /// of the whole mask does: the sparse cache's f64 log sums depend on
    /// the order, so every conditional probability must stay bit-equal to
    /// a mask-scanned twin's, slot after slot.
    #[test]
    fn listed_flips_keep_the_sparse_cache_bit_equal_to_a_mask_scan() {
        let (gain, params) = forty_link_gain();
        assert_listed_flips_match_a_mask_scan(NetworkEvaluator::Sparse(
            rayfade_core::SparseSuccessEvaluator::new(&gain, &params, 1e-3),
        ));
    }

    /// The amortized cache rebuilds from the new transmit set whenever
    /// that takes fewer row passes than the flips; its integer sums must
    /// still equal a flip-by-flip mask-scanned twin's, state and bits.
    #[test]
    fn listed_flips_keep_the_amortized_cache_bit_equal_to_a_mask_scan() {
        let (gain, params) = forty_link_gain();
        let evaluator = NetworkEvaluator::amortized_from_gain(&gain, &params);
        assert!(evaluator.is_amortized());
        assert_listed_flips_match_a_mask_scan(evaluator);
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
    fn resolver_draws_equal_the_probability_comparison_on_every_cache() {
        let (gain, params) = forty_link_gain();
        // An exactly-one ratio: sender 0 zeroes receiver 1's factor, on
        // the dense and the amortized cache.
        let zeroing = GainMatrix::from_raw(2, vec![1.0, 1e-30, 1e300, 1.0]);
        let zero_params = SinrParams::new(2.0, 1.0, 0.0);
        let caches = [
            NetworkEvaluator::from_gain(&gain, &params),
            NetworkEvaluator::Sparse(rayfade_core::SparseSuccessEvaluator::new(
                &gain, &params, 1e-3,
            )),
            NetworkEvaluator::amortized_from_gain(&gain, &params),
            NetworkEvaluator::from_gain(&zeroing, &zero_params),
            NetworkEvaluator::amortized_from_gain(&zeroing, &zero_params),
        ];
        let mut rng = StdRng::seed_from_u64(0xd4a);
        for mut ev in caches {
            let n = ev.len();
            let mut zeros = 0;
            for density in [0.0, 0.2, 0.6, 1.0] {
                ev.reset();
                for j in 0..n {
                    if rng.gen_bool(density) {
                        ev.insert(j);
                    }
                }
                for i in 0..n {
                    let p = ev.conditional_success_probability(i);
                    zeros += usize::from(p == 0.0);
                    let mut us = around(p, 3);
                    us.extend([0.0, rng.gen()]);
                    for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                        assert_eq!(
                            ev.conditional_success_below(i, u),
                            u < p,
                            "link {i}, u = {u:e}"
                        );
                    }
                }
            }
            if n == 2 {
                assert!(zeros > 0, "the zeroing cache must count a zero factor");
            }
        }
    }

    #[test]
    fn analytic_mode_runs_deterministically_for_all_policies() {
        for policy in PolicyKind::all() {
            let cfg = DynamicConfig {
                policy,
                model: SuccessModelKind::Rayleigh,
                slot_model: SlotModelKind::Analytic,
                slots: 600,
                networks: 2,
                ..DynamicConfig::smoke()
            };
            let engine = DynamicEngine::new(cfg);
            let a = engine.run();
            let b = engine.run();
            assert_eq!(a, b, "{}: bitwise determinism", policy.label());
            for out in &a {
                assert!(out.offered_per_link > 0.0);
                assert!(out.throughput_per_link > 0.0, "{}", policy.label());
                assert!(out.throughput_per_link <= out.offered_per_link + 1e-12);
            }
        }
    }

    #[test]
    fn analytic_and_monte_carlo_share_arrival_streams() {
        // Same seed, same λ: offered load must be bit-identical across
        // slot models — only the channel resolution differs.
        let base = DynamicConfig {
            model: SuccessModelKind::Rayleigh,
            ..DynamicConfig::smoke()
        };
        let mc = DynamicEngine::new(base.clone()).run();
        let analytic = DynamicEngine::new(DynamicConfig {
            slot_model: SlotModelKind::Analytic,
            ..base
        })
        .run();
        for (a, b) in mc.iter().zip(&analytic) {
            assert_eq!(a.offered_per_link.to_bits(), b.offered_per_link.to_bits());
        }
    }

    #[test]
    fn analytic_mode_journals_deterministically() {
        let cfg = DynamicConfig {
            model: SuccessModelKind::Rayleigh,
            slot_model: SlotModelKind::Analytic,
            slots: 400,
            networks: 2,
            ..DynamicConfig::smoke()
        };
        let engine = DynamicEngine::new(cfg);
        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str| {
            let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
            let tele = Telemetry::with_journal(&path).unwrap();
            let (outs, _) = engine.run_with_telemetry(Some(&tele), false);
            tele.flush();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            (outs, bytes)
        };
        let (outs_a, bytes_a) = run_once("analytic-a");
        let (outs_b, bytes_b) = run_once("analytic-b");
        assert_eq!(outs_a, outs_b);
        assert_eq!(bytes_a, bytes_b, "journal must be byte-reproducible");
        assert_eq!(outs_a, engine.run(), "journaling must not perturb outcomes");
        let text = String::from_utf8(bytes_a).unwrap();
        assert!(
            text.contains("\"slot_model\":\"analytic\""),
            "dyn_run must record the slot model"
        );
        // Below the crossover the cache is the exact amortized one: no
        // sparse accuracy to record, so dyn_net keeps its historical keys.
        assert!(outs_a.iter().all(|o| o.sparse_accuracy.is_none()));
        assert!(!text.contains("\"tau_max\"") && !text.contains("\"delta\""));
    }

    #[test]
    fn sparse_analytic_run_journals_its_accuracy() {
        let n = rayfade_core::SPARSE_CROSSOVER;
        let cfg = DynamicConfig {
            links: n,
            networks: 1,
            slots: 100,
            arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
            policy: PolicyKind::Aloha,
            model: SuccessModelKind::Rayleigh,
            slot_model: SlotModelKind::Analytic,
            topology: PaperTopology {
                links: n,
                side: (n as f64 * 1e6).sqrt(),
                min_length: 20.0,
                max_length: 40.0,
            },
            params: SinrParams::new(4.0, 2.5, 4e-7),
            sample_every: 50,
            seed: 0x5107,
        };
        let engine = DynamicEngine::new(cfg);
        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sparse-accuracy-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap();
        let (outs, _) = engine.run_with_telemetry(Some(&tele), false);
        tele.flush();
        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let acc = outs[0]
            .sparse_accuracy
            .expect("at the crossover the resolver runs on the sparse cache");
        assert_eq!(acc.delta, rayfade_core::DEFAULT_SPARSE_DELTA);
        assert!(acc.tau_max > 0.0 && acc.tau_max <= rayfade_sinr::truncation_budget(acc.delta));
        let net = events
            .iter()
            .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("dyn_net"))
            .expect("one dyn_net record");
        let field = |key: &str| net.get(key).and_then(|v| v.as_f64());
        assert_eq!(field("delta"), Some(acc.delta));
        assert_eq!(field("tau_max"), Some(acc.tau_max));
    }

    #[test]
    #[should_panic(expected = "analytic slot resolution")]
    fn analytic_without_rayleigh_rejected() {
        let cfg = DynamicConfig {
            model: SuccessModelKind::NonFading,
            slot_model: SlotModelKind::Analytic,
            ..DynamicConfig::smoke()
        };
        let _ = DynamicEngine::new(cfg);
    }

    #[test]
    fn slot_model_default_and_labels_are_stable() {
        // The bit-pinned Monte Carlo path must stay the default so
        // configs that never mention slot_model keep their historical
        // behaviour, and the journal labels are load-bearing for the
        // inspect tooling.
        assert_eq!(SlotModelKind::default(), SlotModelKind::MonteCarlo);
        assert_eq!(SlotModelKind::MonteCarlo.label(), "monte_carlo");
        assert_eq!(SlotModelKind::Analytic.label(), "analytic");
        assert_eq!(
            SlotModelKind::all(),
            [SlotModelKind::MonteCarlo, SlotModelKind::Analytic]
        );
    }

    #[test]
    #[should_panic(expected = "need at least one link")]
    fn zero_links_rejected() {
        let cfg = DynamicConfig {
            links: 0,
            ..DynamicConfig::smoke()
        };
        let _ = DynamicEngine::new(cfg);
    }
}
