//! # rayfade-sched
//!
//! Non-fading SINR scheduling algorithms — the algorithm zoo that the
//! paper's reduction (implemented in `rayfade-core`) transfers to the
//! Rayleigh-fading model.
//!
//! * [`capacity`] — feasible-set selection: greedy with affectance guards
//!   (uniform/oblivious powers), joint power control, flexible data rates,
//!   and exact/local-search reference optima;
//! * [`latency`] — schedule-length minimization: repeated single-slot
//!   maximization and model-agnostic ALOHA contention resolution;
//! * [`multihop`] — layered scheduling of multi-hop requests;
//! * [`schedule`] — the validated [`schedule::Schedule`] container.
//!
//! Every selection algorithm guarantees its output is feasible in the
//! non-fading model; this is the contract the fading transfer consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod channels;
pub mod latency;
pub mod multihop;
pub mod schedule;

pub use capacity::flexible::{FlexibleCapacity, FlexibleSolution};
pub use capacity::greedy::{GreedyCapacity, GreedyOrder, GreedyScratch, RayleighGreedy};
pub use capacity::optimal::{ExactCapacity, LocalSearchCapacity, RayleighLocalSearch};
pub use capacity::power_control::{PowerControlCapacity, PowerControlSolution};
pub use capacity::{CapacityAlgorithm, CapacityInstance, SelectionStats};
pub use channels::{
    assign_channels_greedy, multichannel_capacity, ChannelAssignment, MultichannelSolution,
};
pub use latency::aloha::{run_aloha, AlohaConfig, AlohaOutcome, AlohaPolicy};
pub use latency::{first_fit_schedule, recursive_schedule, round_robin_schedule, LatencySolution};
pub use multihop::{multihop_schedule, MultihopSolution, Request};
pub use schedule::{Schedule, ScheduleError};
