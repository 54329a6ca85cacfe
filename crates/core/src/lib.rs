//! # rayfade-core
//!
//! The primary contribution of *"Scheduling in Wireless Networks with
//! Rayleigh-Fading Interference"* (Dams, Hoefer, Kesselheim; SPAA 2012):
//! a generic reduction from the Rayleigh-fading SINR model to the
//! deterministic non-fading model losing only `O(log* n)`.
//!
//! Module map (paper artifact → code):
//!
//! | Paper | Module |
//! |---|---|
//! | Rayleigh channel, Sec. 2 | [`channel`] ([`channel::RayleighModel`]) |
//! | Theorem 1 (exact success probability) | [`success`] |
//! | Theorem 1, incremental/cached form | [`evaluator`] |
//! | Theorem 1 at scale (ε-truncated sparse) | [`sparse_evaluator`] |
//! | Lemma 1 / Observation 1 (bounds) | [`bounds`] |
//! | Lemma 2 (1/e black-box transfer) | [`transfer`] |
//! | Sec. 4 ALOHA 4× repetition | [`repetition`] |
//! | `b_k` sequence, `log*` | [`logstar`] |
//! | Theorem 2 / Algorithm 1 (simulation) | [`simulation`] |
//! | End-to-end approximation recipe | [`pipeline`] |
//!
//! Everything is analytic where the paper is analytic (Theorem 1 gives
//! closed-form success probabilities) and Monte Carlo where the paper's
//! own argument is probabilistic.
//!
//! # Example
//!
//! Evaluate the exact Rayleigh success probability of a two-link instance
//! and check it against the Lemma 1 sandwich:
//!
//! ```
//! use rayfade_core::{success_probability, success_lower_bound, success_upper_bound};
//! use rayfade_sinr::{GainMatrix, SinrParams};
//!
//! // Receiver-major raw gains: own signals 10, cross gains 2.
//! let gain = GainMatrix::from_raw(2, vec![10.0, 2.0, 2.0, 10.0]);
//! let params = SinrParams::new(2.0, 1.5, 0.1);
//! let probs = [1.0, 0.8];
//!
//! let q = success_probability(&gain, &params, &probs, 0);
//! let lo = success_lower_bound(&gain, &params, &probs, 0);
//! let hi = success_upper_bound(&gain, &params, &probs, 0);
//! assert!(lo <= q && q <= hi);
//! assert!(q > 0.5); // mild interference: the link usually gets through
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod adaptive_mc;
pub mod bounds;
pub mod channel;
pub mod distribution;
pub mod evaluator;
pub mod logstar;
pub mod nakagami;
pub mod optimum;
pub mod pipeline;
pub mod repetition;
pub mod replay;
pub mod seed;
pub mod shadowing;
pub mod simulation;
pub mod sparse_evaluator;
pub mod success;
pub mod transfer;

pub use access::{optimize_uniform_access, AccessOptimum};
pub use adaptive_mc::{estimate_expected_utility, AdaptiveConfig, AdaptiveEstimate};
pub use bounds::{
    interference_mass, observation1_lhs, observation1_rhs, success_lower_bound, success_upper_bound,
};
pub use channel::{sample_exponential, RayleighModel};
pub use distribution::{
    expected_total_utility_exact, expected_utility_exact, sinr_ccdf, QuadratureConfig,
};
pub use evaluator::{
    batch_expected_successes, batch_expected_successes_of_sets, batch_success_probabilities,
    SuccessEvaluator,
};
pub use logstar::{log_star, simulation_rounds, simulation_sequence};
pub use nakagami::{sample_gamma, sample_nakagami_power, NakagamiModel};
pub use optimum::{
    compare_optima, multilinearity_deviation, rayleigh_optimum_exhaustive, OptimumComparison,
};
pub use pipeline::{pick_best_set, rayleigh_capacity, RayleighCapacityResult};
pub use repetition::{
    boosted_probability, min_sufficient_repeats, rayleigh_aloha_config, repetition_recovers,
    PAPER_REPEATS,
};
pub use replay::{replay_until_delivered, ReplayOutcome};
pub use seed::{mix_seed, mix_seed2};
pub use shadowing::apply_lognormal_shadowing;
pub use simulation::{
    best_step, coverage_probability, execute_plan, step_expected_successes, SimulationPlan,
    SimulationRun, SimulationStep, PAPER_ATTEMPTS_PER_ROUND,
};
pub use sparse_evaluator::{
    AmortizedEvaluator, NetworkEvaluator, SparseSuccessEvaluator, DEFAULT_SPARSE_DELTA,
    SPARSE_CROSSOVER,
};
pub use success::{
    expected_successes, expected_successes_of_set, success_probabilities, success_probability,
    success_probability_of_set,
};
pub use transfer::{transfer_multichannel, transfer_set, transfer_utility_mc, TransferReport};
