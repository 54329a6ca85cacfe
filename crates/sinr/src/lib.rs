//! # rayfade-sinr
//!
//! Deterministic (non-fading) SINR substrate for the `rayfade` workspace.
//!
//! Everything the paper's Sec. 2 defines for the non-fading model lives
//! here:
//!
//! * [`params`] — the `(α, β, ν)` parameter triple,
//! * [`power`] — uniform / square-root / monotone / linear / custom power
//!   assignments,
//! * [`gain`] — expected signal-strength matrices `S̄_{j,i}`, either derived
//!   from geometry via path loss or supplied raw (the reduction works for
//!   arbitrary gains),
//! * [`nonfading`] — SINR evaluation, success sets, feasibility,
//! * [`affectance`] — normalized interference `a(j, i)` and the Lemma 7
//!   machinery,
//! * [`ratio`] — cached Theorem-1 interference ratios and the incremental
//!   success-probability accumulator shared by the Rayleigh hot paths,
//!   generic over the dense and the sparse ratio table,
//! * [`amortized`] — churn-amortized quantized-log mirror of the ratio
//!   accumulator whose incremental state is bit-equal to a from-scratch
//!   rebuild (the analytic slot resolver's persistent cache),
//! * [`sparse`] — ε-truncated sparse ratio table with a certified
//!   per-receiver error interval, for instances far beyond the dense
//!   O(n²) limit,
//! * [`utility`] — valid utility functions (Definition 1): binary,
//!   weighted, Shannon.
//!
//! The stochastic Rayleigh layer lives in `rayfade-core`, which builds on
//! the types defined here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affectance;
pub mod amortized;
pub mod gain;
pub mod model;
pub mod nonfading;
pub mod params;
pub mod power;
pub mod power_iteration;
pub mod ratio;
pub mod sparse;
pub mod spectral;
pub mod utility;

pub use affectance::Affectance;
pub use amortized::AmortizedAccumulator;
pub use gain::GainMatrix;
pub use model::{NonFadingModel, SuccessModel};
pub use nonfading::{
    count_successes, greedy_feasible_subset, interference_at, is_feasible, mask_from_set,
    set_from_mask, sinr, sinr_all, succeeds, successful_links,
};
pub use params::SinrParams;
pub use power::PowerAssignment;
pub use power_iteration::{solve_min_powers, PowerIterationConfig, PowerSolve};
pub use ratio::{kahan_sum, InterferenceRatios, RatioTable, SuccessAccumulator};
pub use sparse::{truncation_budget, SparseInterferenceRatios, SparseSuccessAccumulator};
pub use spectral::{max_feasible_threshold, spectral_report, SpectralReport};
pub use utility::{
    is_valid_utility, BinaryUtility, LogisticUtility, ShannonUtility, UtilityFunction,
    WeightedUtility,
};
