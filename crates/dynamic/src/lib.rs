//! Online stochastic-arrival scheduling with queue-stability analysis.
//!
//! The static layers of this workspace answer "which feasible set
//! maximizes one shot" (capacity) and "how few slots deliver one packet
//! each" (latency). This crate answers the *dynamic* question the paper's
//! model ultimately serves: when packets **keep arriving** at rate λ per
//! link, which online policies keep the queues bounded, and how does the
//! sustainable-load frontier λ* differ between the deterministic
//! non-fading SINR model and Rayleigh fading?
//!
//! Pipeline: [`arrivals`] draws seeded per-link arrival processes,
//! [`queue`] tracks FIFO backlogs and per-packet delays, [`policy`] picks
//! transmitters each slot (queue-weighted max-weight, queue-gated ALOHA,
//! regret learning), [`engine`] runs the slotted loop under either success
//! model, and [`stability`] sweeps λ to locate λ* per (policy, model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod policy;
pub mod queue;
pub mod stability;

pub use arrivals::{ArrivalProcess, ArrivalSample};
pub use engine::{
    AnalyticResolver, DynamicConfig, DynamicEngine, DynamicOutcome, MonteCarloResolver,
    SlotModelKind, SlotResolver, SlotTrace, SparseAccuracy, SuccessModelKind,
};
pub use policy::{
    ObservedSlot, OnlinePolicy, PolicyKind, QueueAloha, QueueMaxWeight, RayleighMaxWeight,
    RegretPolicy,
};
pub use queue::{Backlogs, LinkQueue, QueueBank, QueueMut};
pub use stability::{
    judge_cell, least_squares_slope, LambdaSweep, StabilityCell, StabilityReport, StabilityVerdict,
    DRIFT_TOLERANCE,
};
