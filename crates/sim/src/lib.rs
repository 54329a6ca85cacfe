//! # rayfade-sim
//!
//! Seeded, parallel Monte Carlo experiment engine for the `rayfade`
//! workspace.
//!
//! * [`slots`] — slot-level primitives: Bernoulli activations, success
//!   curve points in both models, and the Theorem 1 closed-form
//!   counterpart;
//! * [`stats`] — streaming mean/variance with parallel merge;
//! * [`engine`] — the experiments of the paper's Sec. 7: Figure 1
//!   ([`engine::run_figure1`]), Figure 2 ([`engine::run_figure2`]) and the
//!   optimum statistic ([`engine::optimum_statistic`]), parallelized over
//!   networks with rayon;
//! * [`report`] — CSV files and fixed-width console tables.
//!
//! Every run is bit-reproducible given its config (all RNG streams derive
//! from the config seed).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod progress;
pub mod report;
pub mod slots;
pub mod stats;

pub use engine::{
    optimum_statistic, run_figure1, run_figure1_analytic, run_figure1_with_telemetry, run_figure2,
    run_figure2_with_telemetry, Curve, CurvePoint, Figure1Config, Figure1Result, Figure2Config,
    Figure2Result, PowerFamily,
};
pub use progress::ProgressSink;
pub use report::{fmt_f, gnuplot_script, sparkline, write_gnuplot_script, Table};
pub use slots::{
    draw_activation, nonfading_success_curve_point, rayleigh_expected_successes,
    rayleigh_expected_successes_grid, rayleigh_success_curve_point,
};
pub use stats::RunningStats;
