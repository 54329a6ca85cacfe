//! # rayfade-spatial
//!
//! Spatial indexing and the geometric sparse-ratio builder for the
//! `rayfade` workspace.
//!
//! Every dense interference structure in the workspace is O(n²) in both
//! memory and build time, which caps instances near n ≈ 10³. Under
//! power-law path loss, interference is local: the Theorem 1 ratio of a
//! sender at distance `d` decays like `d^{−α}`, so the per-receiver
//! log-mass `Σ_j −ln(1 − ρ(j→i))` concentrates on nearby senders. This
//! crate exploits that locality:
//!
//! * [`grid`] — a uniform-grid spatial index over
//!   [`Network`](rayfade_geometry::Network) senders (deterministic
//!   bucketing with the sender positions stored in cell order, ring
//!   walks that hand out a ring as contiguous ranges of that order,
//!   certified exterior-distance bounds and exact block counts for ring
//!   expansion), and
//! * [`builder`] — [`build_sparse_ratios`], which constructs a
//!   [`SparseInterferenceRatios`](rayfade_sinr::SparseInterferenceRatios)
//!   directly from geometry, never touching most of the n² pairs: per
//!   receiver it expands grid rings outward until a bound on the
//!   *unexamined* log-mass drops below half the truncation budget
//!   `τ = −ln(1−δ)` (the bound charges each dyadic annulus of unexamined
//!   cells its exact sender count times the largest power, at the
//!   annulus's own inner distance, so at a fixed density the stop ring
//!   does not grow with `n` and the build costs O(n log n)),
//!   then greedily drops the smallest examined ratios within the
//!   remaining budget (`rayfade_sinr::sparse::truncate_smallest`, which
//!   takes a row in walk order and returns the survivors sorted by
//!   sender). Chunks of receivers, taken in the grid's cell order, are
//!   built in parallel, each straight into its own CSR fragment with one
//!   reused scratch row, and assembly scatters the rows back into link
//!   order. The retained ratios
//!   are bit-equal to the dense cache; the dropped mass is certified per
//!   receiver (see `rayfade_sinr::sparse` for the interval semantics).
//!
//! The crate sits between `rayfade-geometry`/`rayfade-sinr` and
//! `rayfade-core` (whose `NetworkEvaluator` facade routes large instances
//! here), so schedulers and simulators consume the sparse path without
//! depending on this crate directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod grid;

pub use builder::{build_sparse_ratios, build_sparse_ratios_stats, SparseBuildStats};
pub use grid::SpatialGrid;
