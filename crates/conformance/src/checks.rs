//! The conformance check catalogue.
//!
//! Each [`Check`] compares one optimized path against the independent
//! oracles in [`crate::oracle`] (differential checks) or asserts an
//! invariant the paper guarantees with no oracle at all (metamorphic
//! checks). Checks are pure functions of an [`Instance`] — the per-check
//! randomness (probability vectors, subsets, op sequences) is derived
//! deterministically from the instance seed, so a failure replays
//! bit-identically from its committed [`crate::case::ReproCase`].
//!
//! Tolerances follow one scheme, documented per check in TESTING.md's
//! table: `|fast − oracle| ≤ ABS_TOL + rel·|oracle|` with
//! [`ABS_TOL`] `= 1e-12` absorbing underflow-scale noise. Comparisons
//! treat NaN as an automatic failure. Decision checks (feasibility,
//! exhaustive cardinality) skip knife-edge instances whose scaled slack
//! is below [`KNIFE_EDGE`] — at the boundary the fast path and the
//! oracle may legitimately round opposite ways.

use crate::oracle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayfade_core::evaluator::{
    batch_expected_successes, batch_expected_successes_of_sets, batch_success_probabilities,
};
use rayfade_core::optimum::{compare_optima, rayleigh_optimum_exhaustive};
use rayfade_core::success::{expected_successes_of_set, success_probability_of_set};
use rayfade_core::transfer::transfer_set;
use rayfade_core::{log_star, simulation_rounds, SuccessEvaluator};
use rayfade_sched::{
    CapacityAlgorithm, CapacityInstance, ExactCapacity, GreedyCapacity, RayleighGreedy,
    RayleighLocalSearch,
};
use rayfade_sinr::{
    spectral_report, Affectance, AmortizedAccumulator, GainMatrix, SinrParams,
    SparseInterferenceRatios, SuccessAccumulator,
};

/// Absolute tolerance floor of every comparison (see module docs).
pub const ABS_TOL: f64 = 1e-12;

/// Scaled-slack band around feasibility boundaries inside which decision
/// checks skip the instance instead of asserting agreement.
pub const KNIFE_EDGE: f64 = 1e-9;

/// Enumeration cap for the `O(2ⁿ)` oracle comparisons; larger instances
/// are truncated to their first `EXHAUSTIVE_LIMIT` links.
pub const EXHAUSTIVE_LIMIT: usize = 10;

/// One instance under test: a gain matrix, model parameters and the seed
/// that drives all per-check randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Expected-gain matrix of the network.
    pub gain: GainMatrix,
    /// SINR model parameters.
    pub params: SinrParams,
    /// Seed for per-check randomness (derived, deterministic).
    pub seed: u64,
}

impl Instance {
    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
    }

    /// A probability vector mixing interior draws with the adversarial
    /// extremes `{0, 1, 1e-12, 1 − 1e-12, ~1e-6}` (the q→0/1 regimes).
    fn random_probs(&self, salt: u64) -> Vec<f64> {
        let mut rng = self.rng(salt);
        (0..self.gain.len())
            .map(|_| match rng.gen_range(0usize..8) {
                0 => 0.0,
                1 => 1.0,
                2 => 1e-12,
                3 => 1.0 - 1e-12,
                4 => rng.gen_range(0.0..=1.0) * 1e-6,
                _ => rng.gen_range(0.0..=1.0),
            })
            .collect()
    }

    /// A sorted random subset of links (each kept with probability ~1/2).
    fn random_subset(&self, salt: u64) -> Vec<usize> {
        let mut rng = self.rng(salt);
        (0..self.gain.len())
            .filter(|_| rng.gen_range(0u32..2) == 0)
            .collect()
    }
}

/// Scaled closeness: `|fast − oracle| ≤ ABS_TOL + rel·|oracle|`; NaN or
/// infinity on either side fails (oracle quantities here are finite).
fn close(fast: f64, reference: f64, rel: f64) -> bool {
    fast.is_finite()
        && reference.is_finite()
        && (fast - reference).abs() <= ABS_TOL + rel * reference.abs()
}

/// Scaled one-sided bound: `a ≥ b` up to `ABS_TOL + rel·|b|` slack.
fn at_least(a: f64, b: f64, rel: f64) -> bool {
    a.is_finite() && b.is_finite() && a + ABS_TOL + rel * b.abs() >= b
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)*) => {
        // `if cond {} else { .. }` rather than `if !cond` so float
        // comparisons passed as `$cond` don't trip
        // clippy::neg_cmp_op_on_partial_ord at every call site.
        if $cond {
        } else {
            return Err(format!($($msg)*));
        }
    };
}

/// Every conformance check, differential and metamorphic (see module
/// docs and the TESTING.md catalogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// `SuccessEvaluator::set_probs` vs the direct Theorem 1 product
    /// oracle.
    EvaluatorSetProbs,
    /// Incremental `set_prob`/`insert`/`remove` sequences vs the oracle
    /// at the final probability vector.
    EvaluatorIncremental,
    /// `success_probability_of_set` / `expected_successes_of_set` vs the
    /// oracle on fixed transmit sets.
    SetProbability,
    /// The rayon batch evaluators vs per-item oracle evaluation.
    BatchEvaluators,
    /// `rayleigh_optimum_exhaustive` vs the oracle's own `O(2ⁿ)`
    /// enumeration (value comparison, tie-robust).
    ExhaustiveOptimum,
    /// `RayleighGreedy` / `RayleighLocalSearch`: determinism, oracle
    /// re-scoring of the claimed objective, local-search dominance, and
    /// soundness against the exhaustive oracle optimum.
    Selectors,
    /// `Affectance` entries and feasibility vs the Lemma 6 formulas.
    AffectanceMatrix,
    /// Non-fading SINR predicates and exact/greedy capacity vs direct
    /// definition-level evaluation (knife-edge aware).
    NonfadingFeasibility,
    /// Transfer machinery (Lemma 2) and `compare_optima`/log* bounds.
    TransferLogstar,
    /// `spectral_report` vs the dense Gelfand matrix-squaring oracle.
    SpectralRadius,
    /// ε-truncated `SparseInterferenceRatios` vs the dense evaluator and
    /// the oracle: at every `δ` the certified interval `[p·e^{−τᵢ}, p]`
    /// must contain both, and at `δ = 0` the sparse value must equal the
    /// dense evaluator's bits and agree with the oracle outright.
    SparseTruncation,
    /// The churn-amortized quantized-log accumulator: a persistent
    /// instance driven through a random `set_prob`/`insert`/`remove`
    /// script must be *bit-equal* to a from-scratch `set_probs` rebuild
    /// at every step, and its Theorem 1 probabilities must match the
    /// oracle at the catalogue tolerance.
    AmortizedRatios,
    /// Metamorphic: relabeling links permutes success probabilities.
    Permutation,
    /// Metamorphic: removing a transmitter never hurts the others.
    RemovalMonotonicity,
    /// Metamorphic: scaling all gains and the noise by `c > 0` leaves
    /// every success probability unchanged.
    PowerScaling,
    /// Metamorphic: a silent duplicate link changes nothing; a
    /// transmitting duplicate mirrors its twin.
    DuplicateLink,
}

impl Check {
    /// All checks, in catalogue order.
    pub const ALL: &'static [Check] = &[
        Check::EvaluatorSetProbs,
        Check::EvaluatorIncremental,
        Check::SetProbability,
        Check::BatchEvaluators,
        Check::ExhaustiveOptimum,
        Check::Selectors,
        Check::AffectanceMatrix,
        Check::NonfadingFeasibility,
        Check::TransferLogstar,
        Check::SpectralRadius,
        Check::SparseTruncation,
        Check::AmortizedRatios,
        Check::Permutation,
        Check::RemovalMonotonicity,
        Check::PowerScaling,
        Check::DuplicateLink,
    ];

    /// Stable kebab-case name (used in repro files and reports).
    pub fn name(self) -> &'static str {
        match self {
            Check::EvaluatorSetProbs => "evaluator-set-probs",
            Check::EvaluatorIncremental => "evaluator-incremental",
            Check::SetProbability => "set-probability",
            Check::BatchEvaluators => "batch-evaluators",
            Check::ExhaustiveOptimum => "exhaustive-optimum",
            Check::Selectors => "selectors",
            Check::AffectanceMatrix => "affectance",
            Check::NonfadingFeasibility => "nonfading-feasibility",
            Check::TransferLogstar => "transfer-logstar",
            Check::SpectralRadius => "spectral-radius",
            Check::SparseTruncation => "sparse-truncation",
            Check::AmortizedRatios => "amortized-ratios",
            Check::Permutation => "permutation",
            Check::RemovalMonotonicity => "removal-monotonicity",
            Check::PowerScaling => "power-scaling",
            Check::DuplicateLink => "duplicate-link",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Check> {
        Check::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Runs the check; `Err` carries a human-readable divergence report.
    pub fn run(self, inst: &Instance) -> Result<(), String> {
        match self {
            Check::EvaluatorSetProbs => evaluator_set_probs(inst),
            Check::EvaluatorIncremental => evaluator_incremental(inst),
            Check::SetProbability => set_probability(inst),
            Check::BatchEvaluators => batch_evaluators(inst),
            Check::ExhaustiveOptimum => exhaustive_optimum(inst),
            Check::Selectors => selectors(inst),
            Check::AffectanceMatrix => affectance_matrix(inst),
            Check::NonfadingFeasibility => nonfading_feasibility(inst),
            Check::TransferLogstar => transfer_logstar(inst),
            Check::SpectralRadius => spectral_radius(inst),
            Check::SparseTruncation => sparse_truncation(inst),
            Check::AmortizedRatios => amortized_ratios(inst),
            Check::Permutation => permutation(inst),
            Check::RemovalMonotonicity => removal_monotonicity(inst),
            Check::PowerScaling => power_scaling(inst),
            Check::DuplicateLink => duplicate_link(inst),
        }
    }
}

fn evaluator_set_probs(inst: &Instance) -> Result<(), String> {
    let probs = inst.random_probs(1);
    let mut ev = SuccessEvaluator::new(&inst.gain, &inst.params);
    ev.set_probs(&probs);
    for i in 0..inst.gain.len() {
        let want = oracle::success_probability(&inst.gain, &inst.params, &probs, i);
        let got = ev.success_probability(i);
        ensure!(
            close(got, want, 1e-9),
            "Q[{i}] fast {got:e} vs oracle {want:e} (probs {probs:?})"
        );
    }
    let oracle_total = oracle::expected_successes(&inst.gain, &inst.params, &probs);
    let got = ev.expected_successes();
    ensure!(
        close(got, oracle_total, 1e-9),
        "E[successes] fast {got:e} vs oracle {oracle_total:e}"
    );
    Ok(())
}

fn evaluator_incremental(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    if n == 0 {
        return Ok(());
    }
    let mut rng = inst.rng(2);
    let mut ev = SuccessEvaluator::new(&inst.gain, &inst.params);
    let mut shadow = inst.random_probs(3);
    ev.set_probs(&shadow);
    for _ in 0..(3 * n + 4) {
        let j = rng.gen_range(0..n);
        match rng.gen_range(0u32..4) {
            0 => {
                ev.insert(j);
                shadow[j] = 1.0;
            }
            1 => {
                ev.remove(j);
                shadow[j] = 0.0;
            }
            2 => {
                let q = [0.0, 1.0, 1e-12, 1.0 - 1e-12][rng.gen_range(0usize..4)];
                ev.set_prob(j, q);
                shadow[j] = q;
            }
            _ => {
                let q = rng.gen_range(0.0..=1.0);
                ev.set_prob(j, q);
                shadow[j] = q;
            }
        }
    }
    for i in 0..n {
        let want = oracle::success_probability(&inst.gain, &inst.params, &shadow, i);
        let got = ev.success_probability(i);
        ensure!(
            close(got, want, 1e-9),
            "incremental Q[{i}] fast {got:e} vs oracle {want:e} after op \
             sequence (final probs {shadow:?})"
        );
    }
    Ok(())
}

fn set_probability(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    let all: Vec<usize> = (0..n).collect();
    for (tag, set) in [
        ("empty", Vec::new()),
        ("full", all),
        ("random", inst.random_subset(4)),
    ] {
        for i in 0..n {
            let want = oracle::success_probability_of_set(&inst.gain, &inst.params, &set, i);
            let got = success_probability_of_set(&inst.gain, &inst.params, &set, i);
            ensure!(
                close(got, want, 1e-12),
                "{tag} set {set:?}: Q[{i}] fast {got:e} vs oracle {want:e}"
            );
        }
        let want = oracle::expected_successes_of_set(&inst.gain, &inst.params, &set);
        let got = expected_successes_of_set(&inst.gain, &inst.params, &set);
        ensure!(
            close(got, want, 1e-9),
            "{tag} set {set:?}: E[successes] fast {got:e} vs oracle {want:e}"
        );
    }
    Ok(())
}

fn batch_evaluators(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    let prob_sets = vec![
        inst.random_probs(5),
        inst.random_probs(6),
        vec![0.0; n],
        vec![1.0; n],
    ];
    let totals = batch_expected_successes(&inst.gain, &inst.params, &prob_sets, None);
    let vectors = batch_success_probabilities(&inst.gain, &inst.params, &prob_sets, None);
    for (k, probs) in prob_sets.iter().enumerate() {
        let want = oracle::expected_successes(&inst.gain, &inst.params, probs);
        ensure!(
            close(totals[k], want, 1e-9),
            "batch E[successes][{k}] fast {:e} vs oracle {want:e}",
            totals[k]
        );
        for (i, &got) in vectors[k].iter().enumerate() {
            let want = oracle::success_probability(&inst.gain, &inst.params, probs, i);
            ensure!(
                close(got, want, 1e-9),
                "batch Q[{k}][{i}] fast {got:e} vs oracle {want:e}"
            );
        }
    }
    let sets = vec![Vec::new(), inst.random_subset(7), (0..n).collect()];
    let set_totals = batch_expected_successes_of_sets(&inst.gain, &inst.params, &sets, None);
    for (k, set) in sets.iter().enumerate() {
        let want = oracle::expected_successes_of_set(&inst.gain, &inst.params, set);
        ensure!(
            close(set_totals[k], want, 1e-9),
            "batch set E[successes][{k}] (set {set:?}) fast {:e} vs oracle {want:e}",
            set_totals[k]
        );
    }
    Ok(())
}

/// Truncation of the instance to the exhaustive-oracle size cap.
fn truncated(inst: &Instance) -> GainMatrix {
    let keep: Vec<usize> = (0..inst.gain.len().min(EXHAUSTIVE_LIMIT)).collect();
    inst.gain.submatrix(&keep)
}

fn exhaustive_optimum(inst: &Instance) -> Result<(), String> {
    let sub = truncated(inst);
    let (fast_set, fast_val) = rayleigh_optimum_exhaustive(&sub, &inst.params, EXHAUSTIVE_LIMIT);
    let (_, oracle_val) = oracle::exhaustive_optimum(&sub, &inst.params, EXHAUSTIVE_LIMIT);
    // Compare by value, not set: ties between distinct argmax sets are
    // legitimate and enumeration order dependent.
    ensure!(
        close(fast_val, oracle_val, 1e-9),
        "exhaustive optimum value fast {fast_val:e} vs oracle {oracle_val:e}"
    );
    let rescored = oracle::expected_successes_of_set(&sub, &inst.params, &fast_set);
    ensure!(
        close(fast_val, rescored, 1e-9),
        "fast optimum claims {fast_val:e} for set {fast_set:?} but oracle re-scores {rescored:e}"
    );
    Ok(())
}

fn selectors(inst: &Instance) -> Result<(), String> {
    let cap_inst = CapacityInstance::unweighted(&inst.gain, &inst.params);
    let greedy = RayleighGreedy::new().select(&cap_inst);
    let greedy_again = RayleighGreedy::new().select(&cap_inst);
    ensure!(
        greedy == greedy_again,
        "RayleighGreedy is non-deterministic: {greedy:?} vs {greedy_again:?}"
    );
    let greedy_fast = expected_successes_of_set(&inst.gain, &inst.params, &greedy);
    let greedy_oracle = oracle::expected_successes_of_set(&inst.gain, &inst.params, &greedy);
    ensure!(
        close(greedy_fast, greedy_oracle, 1e-9),
        "greedy set {greedy:?} scores fast {greedy_fast:e} vs oracle {greedy_oracle:e}"
    );
    let local = RayleighLocalSearch::new().select(&cap_inst);
    let local_oracle = oracle::expected_successes_of_set(&inst.gain, &inst.params, &local);
    ensure!(
        at_least(local_oracle, greedy_oracle, 1e-9),
        "local search {local:?} ({local_oracle:e}) lost to its own greedy start \
         {greedy:?} ({greedy_oracle:e})"
    );
    if inst.gain.len() <= EXHAUSTIVE_LIMIT {
        let (_, opt) = oracle::exhaustive_optimum(&inst.gain, &inst.params, EXHAUSTIVE_LIMIT);
        ensure!(
            at_least(opt, greedy_oracle, 1e-9),
            "greedy value {greedy_oracle:e} exceeds the exhaustive optimum {opt:e}"
        );
        ensure!(
            at_least(opt, local_oracle, 1e-9),
            "local-search value {local_oracle:e} exceeds the exhaustive optimum {opt:e}"
        );
    }
    Ok(())
}

fn affectance_matrix(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    let aff = Affectance::new(&inst.gain, &inst.params);
    for i in 0..n {
        for j in 0..n {
            let want = oracle::affectance(&inst.gain, &inst.params, j, i);
            let got = aff.get(j, i);
            ensure!(
                close(got, want, 1e-12),
                "a({j},{i}) fast {got:e} vs oracle {want:e}"
            );
            let want_raw = oracle::affectance_unclipped(&inst.gain, &inst.params, j, i);
            let got_raw = aff.get_unclipped(j, i);
            let raw_ok = if want_raw.is_infinite() {
                got_raw == want_raw
            } else {
                close(got_raw, want_raw, 1e-12)
            };
            ensure!(
                raw_ok,
                "raw a({j},{i}) fast {got_raw:e} vs oracle {want_raw:e}"
            );
        }
    }
    for salt in [8u64, 9] {
        let set = inst.random_subset(salt);
        if oracle::feasibility_margin(&inst.gain, &inst.params, &set) < KNIFE_EDGE {
            continue;
        }
        let want = oracle::set_is_feasible(&inst.gain, &inst.params, &set);
        let got = aff.is_feasible(&set);
        ensure!(
            got == want,
            "Affectance::is_feasible({set:?}) = {got} but the SINR definition says {want}"
        );
    }
    Ok(())
}

fn nonfading_feasibility(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    for salt in [10u64, 11] {
        let set = inst.random_subset(salt);
        let mask = rayfade_sinr::mask_from_set(n, &set);
        for &i in &set {
            let slack = oracle::nonfading_slack(&inst.gain, &inst.params, &set, i);
            let scale = inst.gain.signal(i).max(1e-300);
            if (slack / scale).abs() < KNIFE_EDGE {
                continue;
            }
            let got = rayfade_sinr::succeeds(&inst.gain, &inst.params, &mask, i);
            ensure!(
                got == (slack >= 0.0),
                "succeeds({i}) in {set:?} = {got}, but definition slack is {slack:e}"
            );
        }
        if oracle::feasibility_margin(&inst.gain, &inst.params, &set) >= KNIFE_EDGE {
            let got = rayfade_sinr::is_feasible(&inst.gain, &inst.params, &set);
            let want = oracle::set_is_feasible(&inst.gain, &inst.params, &set);
            ensure!(
                got == want,
                "is_feasible({set:?}) = {got} but the SINR definition says {want}"
            );
        }
    }
    // Exact branch-and-bound capacity against the oracle's exhaustive
    // enumeration, bracketed by tightened/loosened feasibility so the
    // comparison never hinges on boundary rounding.
    let sub = truncated(inst);
    let exact = ExactCapacity::default()
        .select(&CapacityInstance::unweighted(&sub, &inst.params))
        .len();
    let tight =
        oracle::exhaustive_nonfading_optimum(&sub, &inst.params, EXHAUSTIVE_LIMIT, KNIFE_EDGE);
    let loose =
        oracle::exhaustive_nonfading_optimum(&sub, &inst.params, EXHAUSTIVE_LIMIT, -KNIFE_EDGE);
    ensure!(
        (tight..=loose).contains(&exact),
        "ExactCapacity found {exact} links; oracle brackets [{tight}, {loose}]"
    );
    // Greedy capacity promises feasible output.
    let greedy =
        GreedyCapacity::new().select(&CapacityInstance::unweighted(&inst.gain, &inst.params));
    let ok = greedy.iter().all(|&i| {
        let scale = inst.gain.signal(i).max(1e-300);
        oracle::nonfading_slack(&inst.gain, &inst.params, &greedy, i) / scale >= -KNIFE_EDGE
    });
    ensure!(
        ok,
        "GreedyCapacity output {greedy:?} violates the SINR definition"
    );
    Ok(())
}

fn transfer_logstar(inst: &Instance) -> Result<(), String> {
    let feas =
        GreedyCapacity::new().select(&CapacityInstance::unweighted(&inst.gain, &inst.params));
    if oracle::set_is_feasible(&inst.gain, &inst.params, &feas)
        && oracle::feasibility_margin(&inst.gain, &inst.params, &feas) >= KNIFE_EDGE
    {
        let rep = transfer_set(&inst.gain, &inst.params, &feas);
        ensure!(
            rep.nonfading_successes == feas.len(),
            "transfer of feasible set {feas:?}: {} non-fading successes, expected {}",
            rep.nonfading_successes,
            feas.len()
        );
        let want = oracle::expected_successes_of_set(&inst.gain, &inst.params, &feas);
        ensure!(
            close(rep.rayleigh_expected_successes, want, 1e-9),
            "transfer E[successes] fast {:e} vs oracle {want:e}",
            rep.rayleigh_expected_successes
        );
        // Lemma 2, per link: a feasible link keeps Q ≥ 1/e under Rayleigh.
        let floor = 1.0 / std::f64::consts::E;
        for (k, &q) in rep.per_link_probability.iter().enumerate() {
            ensure!(
                at_least(q, floor, 1e-9),
                "Lemma 2 violated: link {} of feasible {feas:?} has Q = {q:e} < 1/e",
                rep.set[k]
            );
        }
        ensure!(
            rep.meets_guarantee(),
            "TransferReport::meets_guarantee() is false on a feasible set"
        );
        ensure!(!rep.ratio().is_nan(), "transfer ratio is NaN");
    }
    // compare_optima: well-defined ratio, oracle-checked Rayleigh value,
    // and the Lemma 2 lower bound on the Theorem 2 gap.
    let sub = truncated(inst);
    let cmp = compare_optima(&sub, &inst.params, EXHAUSTIVE_LIMIT);
    ensure!(!cmp.ratio().is_nan(), "compare_optima ratio is NaN");
    let (_, oracle_opt) = oracle::exhaustive_optimum(&sub, &inst.params, EXHAUSTIVE_LIMIT);
    ensure!(
        close(cmp.rayleigh_value, oracle_opt, 1e-9),
        "compare_optima Rayleigh value {:e} vs oracle {oracle_opt:e}",
        cmp.rayleigh_value
    );
    if cmp.nonfading_value > 0
        && oracle::feasibility_margin(&sub, &inst.params, &cmp.nonfading_set) >= KNIFE_EDGE
    {
        ensure!(
            at_least(cmp.ratio(), 1.0 / std::f64::consts::E, 1e-9),
            "Theorem 2 gap {} fell below the Lemma 2 floor 1/e",
            cmp.ratio()
        );
    }
    // log* machinery invariants: monotone, and the simulation round count
    // matches the sequence length definition.
    let n = inst.gain.len() as f64;
    for (lo, hi) in [(n, n + 1.0), (n, 2.0 * n + 1.0), (16.0, 65536.0)] {
        ensure!(
            log_star(lo) <= log_star(hi),
            "log* not monotone: log*({lo}) > log*({hi})"
        );
    }
    let rounds = simulation_rounds(inst.gain.len());
    let rounds_next = simulation_rounds(inst.gain.len() + 1);
    ensure!(
        rounds <= rounds_next,
        "simulation_rounds not monotone: {rounds} > {rounds_next}"
    );
    Ok(())
}

fn spectral_radius(inst: &Instance) -> Result<(), String> {
    let alive: Vec<usize> = (0..inst.gain.len())
        .filter(|&i| inst.gain.signal(i) > 0.0)
        .collect();
    let mut rng = inst.rng(12);
    let set: Vec<usize> = alive
        .into_iter()
        .filter(|_| rng.gen_range(0u32..4) != 0)
        .collect();
    let rep = spectral_report(&inst.gain, &set);
    ensure!(
        rep.rho.is_finite() && rep.rho >= 0.0,
        "spectral radius of {set:?} is not a finite non-negative number: {:e}",
        rep.rho
    );
    // max_threshold is defined as 1/ρ of the *reported* ρ — an internal
    // consistency contract that holds converged or not.
    if rep.rho > 0.0 {
        ensure!(
            close(rep.max_threshold, 1.0 / rep.rho, 1e-12),
            "max threshold {:e} inconsistent with reported 1/rho = {:e}",
            rep.max_threshold,
            1.0 / rep.rho
        );
    } else {
        ensure!(
            rep.max_threshold == f64::INFINITY,
            "rho = 0 but max threshold is {:e}, not infinity",
            rep.max_threshold
        );
    }
    let f = oracle::normalized_interference_matrix(&inst.gain, &set);
    let want = oracle::spectral_radius_dense(&f, set.len());
    ensure!(want.is_finite(), "dense oracle produced {want:e}");
    // The certified Collatz–Wielandt bracket must contain the true ρ
    // regardless of convergence (tolerance covers the oracle's own
    // squaring roundoff, relative to the shifted eigenvalue 1 + ρ the
    // power method works on).
    let slack = ABS_TOL + 1e-10 * (1.0 + want);
    ensure!(
        rep.rho_lower - slack <= want && want <= rep.rho_upper + slack,
        "dense oracle rho {want:e} outside the certified bracket [{:e}, {:e}] ({} iters)",
        rep.rho_lower,
        rep.rho_upper,
        rep.iterations
    );
    ensure!(
        rep.rho_lower <= rep.rho && rep.rho <= rep.rho_upper,
        "reported rho {:e} outside its own bracket [{:e}, {:e}]",
        rep.rho,
        rep.rho_lower,
        rep.rho_upper
    );
    // When the bracket closed (normal convergence), the point estimate
    // must agree with the oracle to 1e-8 of the shifted eigenvalue. At
    // the iteration cap (spectral gap of I + F pathologically small —
    // e.g. nilpotent F, where convergence is only algebraic) the wide
    // bracket is the honest answer and the point comparison is skipped.
    if rep.rho_upper - rep.rho_lower <= 1e-9 * (1.0 + rep.rho_lower) {
        ensure!(
            (rep.rho - want).abs() <= ABS_TOL + 1e-8 * (1.0 + want),
            "spectral radius of {set:?}: power iteration {:e} ({} iters) vs dense oracle {want:e}",
            rep.rho,
            rep.iterations
        );
    }
    Ok(())
}

fn sparse_truncation(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    let probs = inst.random_probs(20);
    let oracle_q: Vec<f64> = (0..n)
        .map(|i| oracle::success_probability(&inst.gain, &inst.params, &probs, i))
        .collect();
    let oracle_total = oracle::expected_successes(&inst.gain, &inst.params, &probs);
    let mut dense = SuccessEvaluator::new(&inst.gain, &inst.params);
    dense.set_probs(&probs);
    for delta in [0.0, 1e-6, 0.5] {
        let sparse = SparseInterferenceRatios::from_gain(&inst.gain, &inst.params, delta);
        ensure!(
            sparse.len() == n,
            "delta {delta}: sparse cache has {} links, instance has {n}",
            sparse.len()
        );
        let mut acc = SuccessAccumulator::new(n);
        acc.set_probs(&sparse, &probs);
        for (i, &want) in oracle_q.iter().enumerate() {
            let (lo, hi) = acc.success_interval(&sparse, i);
            ensure!(
                lo.is_finite() && hi.is_finite() && lo <= hi,
                "delta {delta}: interval [{lo:e}, {hi:e}] of Q[{i}] is malformed"
            );
            // Certified containment of both references, up to the
            // catalogue's evaluation-roundoff tolerance.
            let slack = ABS_TOL + 1e-9 * want.abs();
            ensure!(
                lo - slack <= want && want <= hi + slack,
                "delta {delta}: oracle Q[{i}] = {want:e} outside certified \
                 interval [{lo:e}, {hi:e}] (probs {probs:?})"
            );
            let d = dense.success_probability(i);
            let slack_d = ABS_TOL + 1e-9 * d.abs();
            ensure!(
                lo - slack_d <= d && d <= hi + slack_d,
                "delta {delta}: dense Q[{i}] = {d:e} outside certified \
                 interval [{lo:e}, {hi:e}]"
            );
            if delta == 0.0 {
                ensure!(
                    hi.to_bits() == d.to_bits(),
                    "delta 0 must give the dense bits: sparse Q[{i}] = {hi:e} vs dense {d:e}"
                );
                ensure!(
                    close(hi, want, 1e-9),
                    "delta 0 must be exact: sparse Q[{i}] = {hi:e} vs oracle {want:e}"
                );
                ensure!(
                    lo == hi,
                    "delta 0: interval [{lo:e}, {hi:e}] of Q[{i}] did not collapse"
                );
            }
        }
        let (lo, hi) = acc.expected_successes_interval(&sparse);
        let slack = ABS_TOL + 1e-9 * oracle_total.abs();
        ensure!(
            lo - slack <= oracle_total && oracle_total <= hi + slack,
            "delta {delta}: oracle E[successes] = {oracle_total:e} outside \
             certified interval [{lo:e}, {hi:e}]"
        );
        ensure!(
            close(acc.expected_successes(&sparse), hi, 1e-12),
            "delta {delta}: expected_successes {:e} disagrees with its own \
             interval top {hi:e}",
            acc.expected_successes(&sparse)
        );
    }
    Ok(())
}

fn amortized_ratios(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    if n == 0 {
        return Ok(());
    }
    let (ratios, mut churned) = AmortizedAccumulator::from_gain(&inst.gain, &inst.params);
    let mut shadow = vec![0.0; n];
    let mut rng = inst.rng(21);
    for step in 0..(3 * n + 8) {
        let j = rng.gen_range(0..n);
        match rng.gen_range(0u32..4) {
            0 => {
                churned.insert(&ratios, j);
                shadow[j] = 1.0;
            }
            1 => {
                churned.remove(&ratios, j);
                shadow[j] = 0.0;
            }
            2 => {
                let q = [0.0, 1.0, 1e-12, 1.0 - 1e-12][rng.gen_range(0usize..4)];
                churned.set_prob(&ratios, j, q);
                shadow[j] = q;
            }
            _ => {
                let q = rng.gen_range(0.0..=1.0);
                churned.set_prob(&ratios, j, q);
                shadow[j] = q;
            }
        }
        // The exactness contract: any churn history landing on `shadow`
        // occupies the same bits as a from-scratch rebuild. `==` compares
        // the full semantic state (probabilities, integer log sums, zero
        // counts), so this is bitwise, not tolerance-based.
        let mut rebuilt = AmortizedAccumulator::new(&ratios);
        rebuilt.set_probs(&ratios, &shadow);
        ensure!(
            churned == rebuilt,
            "step {step}: churned accumulator diverged bitwise from a from-scratch \
             rebuild (probs {shadow:?})"
        );
    }
    // Differential leg against the oracle at the final vector — this is
    // what turns the check red when the shared ratio cache is corrupted
    // (churn and rebuild both read the same cache, so bit-equality alone
    // cannot see an `inject-bug` style fault).
    for i in 0..n {
        let want = oracle::success_probability(&inst.gain, &inst.params, &shadow, i);
        let got = churned.success_probability(&ratios, i);
        ensure!(
            close(got, want, 1e-9),
            "amortized Q[{i}] fast {got:e} vs oracle {want:e} (probs {shadow:?})"
        );
        // Conditional (q_i read as 1): the analytic slot resolver's
        // Bernoulli parameter, for idle links included.
        let mut conditioned = shadow.clone();
        conditioned[i] = 1.0;
        let want = oracle::success_probability(&inst.gain, &inst.params, &conditioned, i);
        let got = churned.conditional_success_probability(&ratios, i);
        ensure!(
            close(got, want, 1e-9),
            "amortized conditional Q[{i}] fast {got:e} vs oracle {want:e} (probs {shadow:?})"
        );
    }
    Ok(())
}

fn permutation(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    if n == 0 {
        return Ok(());
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut inst.rng(13));
    // submatrix(perm) *is* the relabeled instance: entry (a, b) of the
    // result is S̄(perm[b] → perm[a]).
    let relabeled = inst.gain.submatrix(&perm);
    let probs = inst.random_probs(14);
    let probs_p: Vec<f64> = perm.iter().map(|&j| probs[j]).collect();
    let mut ev = SuccessEvaluator::new(&inst.gain, &inst.params);
    ev.set_probs(&probs);
    let mut ev_p = SuccessEvaluator::new(&relabeled, &inst.params);
    ev_p.set_probs(&probs_p);
    for a in 0..n {
        let original = ev.success_probability(perm[a]);
        let relabeled_q = ev_p.success_probability(a);
        ensure!(
            close(relabeled_q, original, 1e-9),
            "permutation {perm:?}: Q[{}] = {original:e} became {relabeled_q:e} at position {a}",
            perm[a]
        );
    }
    Ok(())
}

fn removal_monotonicity(inst: &Instance) -> Result<(), String> {
    let set = inst.random_subset(15);
    if set.is_empty() {
        return Ok(());
    }
    let removed = set[inst.rng(16).gen_range(0..set.len())];
    let smaller: Vec<usize> = set.iter().copied().filter(|&i| i != removed).collect();
    for &i in &smaller {
        let with = success_probability_of_set(&inst.gain, &inst.params, &set, i);
        let without = success_probability_of_set(&inst.gain, &inst.params, &smaller, i);
        ensure!(
            at_least(without, with, 1e-12),
            "removing link {removed} from {set:?} dropped Q[{i}] from {with:e} to {without:e}"
        );
    }
    Ok(())
}

fn power_scaling(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    if n == 0 {
        return Ok(());
    }
    // Pick a power-of-two scale that keeps every entry normal, so scaling
    // is exact and invariance is checked at near-bit precision.
    let max = (0..n)
        .flat_map(|i| inst.gain.at_receiver(i).iter().copied())
        .fold(inst.params.noise, f64::max);
    let c = if max < 1e300 { 256.0 } else { 1.0 / 256.0 };
    let min_nonzero = (0..n)
        .flat_map(|i| inst.gain.at_receiver(i).iter().copied())
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if c < 1.0 && min_nonzero.is_finite() && min_nonzero < 1e-290 {
        return Ok(()); // both ends extreme: scaling would denormalize
    }
    let scaled_entries: Vec<f64> = (0..n)
        .flat_map(|i| inst.gain.at_receiver(i).iter().map(|&v| v * c))
        .collect();
    let scaled = GainMatrix::from_raw(n, scaled_entries);
    let scaled_params = SinrParams::new(inst.params.alpha, inst.params.beta, inst.params.noise * c);
    let probs = inst.random_probs(17);
    for i in 0..n {
        let base = oracle::success_probability(&inst.gain, &inst.params, &probs, i);
        let after = oracle::success_probability(&scaled, &scaled_params, &probs, i);
        ensure!(
            close(after, base, 1e-12),
            "scaling gains and noise by {c}: Q[{i}] moved {base:e} -> {after:e} (oracle)"
        );
        let mut ev = SuccessEvaluator::new(&scaled, &scaled_params);
        ev.set_probs(&probs);
        ensure!(
            close(ev.success_probability(i), base, 1e-9),
            "scaling gains and noise by {c}: fast Q[{i}] moved {base:e} -> {:e}",
            ev.success_probability(i)
        );
    }
    Ok(())
}

fn duplicate_link(inst: &Instance) -> Result<(), String> {
    let n = inst.gain.len();
    if n == 0 {
        return Ok(());
    }
    let d = inst.rng(18).gen_range(0..n);
    // Append a clone of link d: same sender and receiver, so every cross
    // gain copies d's row/column and all four mutual entries are S̄(d→d).
    let m = n + 1;
    let mut g = vec![0.0; m * m];
    for i in 0..n {
        for j in 0..n {
            g[i * m + j] = inst.gain.gain(j, i);
        }
        g[i * m + n] = inst.gain.gain(d, i);
    }
    for j in 0..n {
        g[n * m + j] = inst.gain.gain(j, d);
    }
    g[n * m + n] = inst.gain.signal(d);
    g[n * m + d] = inst.gain.signal(d);
    let d_col = d; // clone interferes with d exactly like d's own signal
    g[d * m + n] = inst.gain.signal(d_col);
    let bigger = GainMatrix::from_raw(m, g);
    let probs = inst.random_probs(19);
    // Silent duplicate: nothing changes for the original links.
    let mut silent = probs.clone();
    silent.push(0.0);
    for i in 0..n {
        let base = oracle::success_probability(&inst.gain, &inst.params, &probs, i);
        let with_clone = oracle::success_probability(&bigger, &inst.params, &silent, i);
        ensure!(
            close(with_clone, base, 1e-12),
            "silent duplicate of {d} changed Q[{i}]: {base:e} -> {with_clone:e}"
        );
    }
    // Transmitting duplicate: the twins are exchangeable.
    let mut twins = probs;
    twins[d] = 0.5;
    twins.push(0.5);
    let q_d = oracle::success_probability(&bigger, &inst.params, &twins, d);
    let q_clone = oracle::success_probability(&bigger, &inst.params, &twins, n);
    ensure!(
        close(q_clone, q_d, 1e-9),
        "duplicate of {d} is not exchangeable with it: {q_d:e} vs {q_clone:e}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::PowerAssignment;

    fn paper_instance(seed: u64, n: usize) -> Instance {
        let net = PaperTopology {
            links: n,
            side: 400.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gain =
            GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        Instance { gain, params, seed }
    }

    #[test]
    fn all_checks_pass_on_paper_instances() {
        for seed in 0..3 {
            let inst = paper_instance(seed, 9);
            for &check in Check::ALL {
                check
                    .run(&inst)
                    .unwrap_or_else(|e| panic!("{} failed on seed {seed}: {e}", check.name()));
            }
        }
    }

    #[test]
    fn all_checks_handle_empty_and_singleton_instances() {
        for n in [0usize, 1] {
            let inst = Instance {
                gain: GainMatrix::from_raw(n, vec![2.0; n * n]),
                params: SinrParams::new(2.0, 2.0, 0.5),
                seed: 7,
            };
            for &check in Check::ALL {
                check
                    .run(&inst)
                    .unwrap_or_else(|e| panic!("{} failed on n={n}: {e}", check.name()));
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for &check in Check::ALL {
            assert_eq!(Check::from_name(check.name()), Some(check));
        }
        assert_eq!(Check::from_name("nope"), None);
    }

    #[test]
    fn checks_are_deterministic_in_the_seed() {
        let a = paper_instance(3, 8);
        let probs1 = a.random_probs(1);
        let probs2 = a.random_probs(1);
        assert_eq!(probs1, probs2);
        assert_ne!(a.random_probs(2), probs1);
    }

    #[test]
    fn a_planted_divergence_is_caught() {
        // Sanity-check the harness itself: corrupt link 0's own gain
        // between the fast evaluation and the oracle by comparing
        // different instances — the evaluator check must notice.
        let inst = paper_instance(5, 6);
        let mut g: Vec<f64> = (0..6)
            .flat_map(|i| inst.gain.at_receiver(i).iter().copied())
            .collect();
        g[0] *= 1.001; // diagonal entry: S̄(0 → 0)
        let corrupted = Instance {
            gain: GainMatrix::from_raw(6, g),
            ..inst.clone()
        };
        let probs = vec![0.5; 6];
        let fast = {
            let mut ev = SuccessEvaluator::new(&corrupted.gain, &corrupted.params);
            ev.set_probs(&probs);
            ev.success_probability(0)
        };
        let want = oracle::success_probability(&inst.gain, &inst.params, &probs, 0);
        assert!(
            !close(fast, want, 1e-9),
            "planted 0.1% corruption went unnoticed: {fast:e} vs {want:e}"
        );
    }
}
