//! Geometric construction of certified ε-truncated sparse ratios.
//!
//! [`build_sparse_ratios`] constructs a [`SparseInterferenceRatios`]
//! directly from a [`Network`] and a [`PowerAssignment`] without ever
//! materializing a dense row, in two passes per receiver `i`:
//!
//! 1. **Ring expansion with a lumped exterior bound.** Grid rings around
//!    the receiver's cell are examined outward. After ring `m`, every
//!    unexamined sender is at least `d_min` away
//!    ([`SpatialGrid::exterior_distance`]), so its normalized gain is at
//!    most `ḡ = p_max/(S̄_{i,i}·d_min^α)` and its ratio at most
//!    `ρ̄ = β·ḡ/(β·ḡ + 1) < 1`. Since `−ln(1−ρ) ≤ k(ρ̄)·ρ` for
//!    `ρ ≤ ρ̄` with `k(x) = −ln(1−x)/x`, and
//!    `Σρ ≤ β·P_rem/(S̄_{i,i}·d_min^α)` over the unexamined total power
//!    `P_rem`, the whole unexamined exterior contributes log-mass at most
//!    `B = k(ρ̄)·β·P_rem/(S̄_{i,i}·d_min^α)`. Expansion stops once
//!    `B ≤ τ/2` (or everything is examined, making `B = 0`).
//! 2. **Greedy interior truncation.** The examined ratios — computed with
//!    arithmetic bit-equal to `GainMatrix::from_geometry` +
//!    `InterferenceRatios::new` — go to `truncate_smallest`, which drops
//!    the smallest while their *exact* summed log-mass stays within the
//!    remaining budget `τ − B`, and hands the survivors back sorted by
//!    sender.
//!
//! The per-receiver certificate is `τᵢ = (exact dropped mass) + B ≤ τ`,
//! so every sparse evaluation `p` brackets the dense value in
//! `[p·e^{−τᵢ}, p]` (see `rayfade_sinr::sparse`). `δ = 0` forces a full
//! scan and reproduces the dense cache exactly.
//!
//! # Memory layout of the build
//!
//! The ring walk streams over contiguous memory. The grid stores the
//! senders in cell order ([`SpatialGrid::positions`]), the builder
//! gathers their powers into the same order once, and each grid row of a
//! ring is one contiguous range of both
//! ([`SpatialGrid::for_each_ring_range`]). Receivers are built in chunks
//! of consecutive links on the rayon pool; a chunk reuses one scratch row
//! for all its receivers and appends the survivors straight into its own
//! CSR fragment, and the fragments are concatenated in receiver order. No
//! receiver keeps an allocation of its own, so the build's peak heap is a
//! small multiple of the finished cache.
//!
//! How far the rings must expand depends strongly on `α`: the tail
//! log-mass beyond radius `R` of a constant-density deployment scales
//! like `R^{2−α}`, so truncation only pays off for `α > 2` and the
//! crossover radius shrinks rapidly as `α` grows (see EXPERIMENTS.md §S1
//! for the derivation and measured crossovers).

use crate::grid::SpatialGrid;
use rayfade_geometry::{LinkGeometry, Network};
use rayfade_sinr::sparse::truncate_smallest;
use rayfade_sinr::{
    kahan_sum, truncation_budget, PowerAssignment, SinrParams, SparseInterferenceRatios,
};
use rayfade_telemetry::{trace, Telemetry};
use rayon::prelude::*;
use std::ops::Range;

/// Build statistics of one [`build_sparse_ratios`] run, also exported as
/// telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseBuildStats {
    /// Sender→receiver pairs whose ratio was computed during ring
    /// expansion.
    pub examined: u64,
    /// Nonzero pairs retained in the sparse cache.
    pub retained: u64,
    /// Nonzero examined pairs dropped by the interior truncation.
    pub truncated: u64,
    /// Largest per-receiver certificate `max_i τᵢ`.
    pub tau_max: f64,
}

/// Receivers per chunk of the parallel build: each chunk is one
/// parallel task with its own scratch row and CSR fragment.
const CHUNK: usize = 256;

/// Builds certified ε-truncated sparse ratios from geometry with an
/// automatically chosen cell size (bounding-box side divided by `√n`,
/// i.e. about one sender per cell at uniform density).
///
/// See the [module docs](self) for the algorithm and
/// [`build_sparse_ratios_stats`] for the returned-statistics variant.
///
/// # Panics
/// If `delta` is outside `[0, 1)`, or any examined sender–receiver pair
/// has zero distance or a non-finite gain (mirroring
/// `GainMatrix::from_geometry`; generate networks with the documented
/// minimum separation).
pub fn build_sparse_ratios(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    tele: Option<&Telemetry>,
) -> SparseInterferenceRatios {
    build_sparse_ratios_stats(network, power, params, delta, tele).0
}

/// [`build_sparse_ratios`] returning the build statistics alongside the
/// cache (the same numbers the telemetry counters receive).
pub fn build_sparse_ratios_stats(
    network: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    delta: f64,
    tele: Option<&Telemetry>,
) -> (SparseInterferenceRatios, SparseBuildStats) {
    let tau_budget = truncation_budget(delta);
    let n = network.len();
    let cell = default_cell(network);
    let tracer = tele.and_then(|t| t.tracer());

    let grid = {
        let _g = trace::guard(tracer, tracer.map(|tr| tr.span_id("spatial/grid_build")));
        SpatialGrid::build(network, cell)
    };
    let (nx, ny) = grid.dims();

    let _ratios_span = trace::guard(tracer, tracer.map(|tr| tr.span_id("spatial/sparse_ratios")));
    let fragments: Vec<Fragment> = {
        let powers = power.powers(network, params.alpha);
        let walk = RingWalk {
            network,
            cell_power: grid.items().iter().map(|&j| powers[j as usize]).collect(),
            grid: &grid,
            total_power: kahan_sum(powers.iter().copied()),
            p_max: powers.iter().copied().fold(0.0f64, f64::max),
            powers: &powers,
            beta: params.beta,
            alpha: params.alpha,
            noise: params.noise,
            tau_budget,
        };
        (0..n.div_ceil(CHUNK))
            .into_par_iter()
            .map(|c| walk.chunk(c * CHUNK..((c + 1) * CHUNK).min(n)))
            .collect()
    };
    drop(grid);

    // Concatenate the fragments in receiver order, freeing each once
    // copied.
    let nnz: usize = fragments.iter().map(|f| f.col.len()).sum();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col = Vec::with_capacity(nnz);
    let mut rho = Vec::with_capacity(nnz);
    let mut noise = Vec::with_capacity(n);
    let mut signal = Vec::with_capacity(n);
    let mut tau = Vec::with_capacity(n);
    let mut stats = SparseBuildStats::default();
    for frag in fragments {
        let base = col.len();
        row_ptr.extend(frag.row_end.iter().map(|&end| base + end));
        col.extend_from_slice(&frag.col);
        rho.extend_from_slice(&frag.rho);
        noise.extend_from_slice(&frag.noise);
        signal.extend_from_slice(&frag.signal);
        tau.extend_from_slice(&frag.tau);
        stats.examined += frag.examined;
        stats.truncated += frag.truncated;
    }
    stats.retained = nnz as u64;
    stats.tau_max = tau.iter().copied().fold(0.0, f64::max);
    if let Some(t) = tele {
        let hist = t.registry().histogram("rayfade_spatial_truncated_logmass");
        for &ti in &tau {
            hist.observe(ti);
        }
    }
    let ratios = SparseInterferenceRatios::from_raw_parts(
        params.beta,
        delta,
        row_ptr,
        col,
        rho,
        noise,
        signal,
        tau,
    );
    if let Some(t) = tele {
        let reg = t.registry();
        reg.counter("rayfade_spatial_pairs_examined_total")
            .add(stats.examined);
        reg.counter("rayfade_spatial_pairs_retained_total")
            .add(stats.retained);
        reg.counter("rayfade_spatial_pairs_truncated_total")
            .add(stats.truncated);
        if let Some(ev) = t.event("sparse_ratios") {
            ev.int("links", n as i64)
                .int("nnz", ratios.nnz() as i64)
                .num("delta", delta)
                .num("tau_budget", tau_budget)
                .num("tau_max", stats.tau_max)
                .num("cell", cell)
                .int("cells_x", nx as i64)
                .int("cells_y", ny as i64)
                .write();
        }
    }
    (ratios, stats)
}

/// Default cell size: bounding-box side over `√n` (≈ one sender per cell
/// at uniform density), or 1 for degenerate boxes.
fn default_cell(network: &Network) -> f64 {
    let n = network.len();
    let side = network
        .bounding_box()
        .map_or(0.0, |b| b.width().max(b.height()));
    if n == 0 || side <= 0.0 {
        1.0
    } else {
        side / (n as f64).sqrt()
    }
}

/// The CSR rows of one chunk of consecutive receivers.
struct Fragment {
    /// End of each row in `col`/`rho`, relative to the fragment start.
    row_end: Vec<usize>,
    col: Vec<u32>,
    rho: Vec<f64>,
    noise: Vec<f64>,
    signal: Vec<f64>,
    tau: Vec<f64>,
    examined: u64,
    truncated: u64,
}

/// One receiver row's values besides its retained pairs.
struct RowMeta {
    noise: f64,
    signal: f64,
    tau: f64,
    examined: u64,
    truncated: u64,
}

/// Everything the per-receiver ring walk reads, shared by all chunks.
struct RingWalk<'a> {
    network: &'a Network,
    grid: &'a SpatialGrid,
    /// Link-indexed powers (for the own signal).
    powers: &'a [f64],
    /// Sender powers in the grid's cell order.
    cell_power: Vec<f64>,
    total_power: f64,
    p_max: f64,
    beta: f64,
    alpha: f64,
    noise: f64,
    tau_budget: f64,
}

impl RingWalk<'_> {
    /// Builds the rows of receivers `rows`, reusing one scratch row.
    fn chunk(&self, rows: Range<usize>) -> Fragment {
        let mut frag = Fragment {
            row_end: Vec::with_capacity(rows.len()),
            col: Vec::new(),
            rho: Vec::new(),
            noise: Vec::with_capacity(rows.len()),
            signal: Vec::with_capacity(rows.len()),
            tau: Vec::with_capacity(rows.len()),
            examined: 0,
            truncated: 0,
        };
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for i in rows {
            let row = self.row(i, &mut entries);
            frag.col.extend(entries.iter().map(|e| e.0));
            frag.rho.extend(entries.iter().map(|e| e.1));
            frag.row_end.push(frag.col.len());
            frag.noise.push(row.noise);
            frag.signal.push(row.signal);
            frag.tau.push(row.tau);
            frag.examined += row.examined;
            frag.truncated += row.truncated;
        }
        frag
    }

    /// Builds receiver `i`'s row into the scratch `entries`: ring
    /// expansion until the lumped exterior bound drops below `τ/2`, then
    /// greedy interior truncation within the remaining budget. Leaves the
    /// retained `(sender, ρ)` pairs in `entries`, sorted by sender.
    fn row(&self, i: usize, entries: &mut Vec<(u32, f64)>) -> RowMeta {
        entries.clear();
        let (beta, alpha) = (self.beta, self.alpha);
        let n = self.network.len();
        // Own signal with arithmetic bit-equal to `GainMatrix::from_geometry`.
        let d_own = self.network.cross_dist(i, i);
        assert!(
            d_own > 0.0,
            "cross distance d(s_{i}, r_{i}) must be positive"
        );
        let s_ii = self.powers[i] / d_own.powf(alpha);
        assert!(s_ii.is_finite(), "gain S({i},{i}) must be finite");
        if s_ii == 0.0 {
            // Dead receiver: empty row, zero noise factor, exact (τᵢ = 0) —
            // its success probability is 0 regardless of interference.
            return RowMeta {
                noise: 0.0,
                signal: 0.0,
                tau: 0.0,
                examined: 0,
                truncated: 0,
            };
        }
        let noise = (-beta * self.noise / s_ii).exp();
        let receiver = self.network.link(i).receiver;
        let (cx, cy) = self.grid.cell_of(&receiver);
        let (items, positions) = (self.grid.items(), self.grid.positions());
        let mut examined_power = 0.0f64;
        let mut examined_count = 0usize;
        let exterior; // certified bound on unexamined log-mass, set at loop exit
        let mut m = 0usize;
        loop {
            self.grid.for_each_ring_range(cx, cy, m, |range| {
                examined_count += range.len();
                for ((&j, sender), &p) in items[range.clone()]
                    .iter()
                    .zip(&positions[range.clone()])
                    .zip(&self.cell_power[range])
                {
                    examined_power += p;
                    let ju = j as usize;
                    if ju == i {
                        continue;
                    }
                    let d = sender.distance(&receiver);
                    assert!(d > 0.0, "cross distance d(s_{ju}, r_{i}) must be positive");
                    let s_ji = p / d.powf(alpha);
                    assert!(s_ji.is_finite(), "gain S({ju},{i}) must be finite");
                    if s_ji == 0.0 {
                        continue;
                    }
                    // Same guarded form as the dense cache.
                    let r = beta / (beta + s_ii / s_ji);
                    if r > 0.0 {
                        entries.push((j, r));
                    }
                }
            });
            if examined_count == n {
                exterior = 0.0;
                break;
            }
            match self.grid.exterior_distance(&receiver, cx, cy, m) {
                None => {
                    // Block covers the grid, so every sender was examined —
                    // unreachable given the count check above, but harmless.
                    exterior = 0.0;
                    break;
                }
                Some(d_min) => {
                    if d_min > 0.0 && self.tau_budget > 0.0 {
                        let p_rem = (self.total_power - examined_power).max(0.0);
                        let denom = s_ii * d_min.powf(alpha);
                        let x = beta * self.p_max / denom; // ≥ β·ḡ of any unexamined sender
                        if x.is_finite() {
                            // ρ ≤ ρ̄ = x/(x+1) < 1 and −ln(1−ρ) ≤ k(ρ̄)·ρ.
                            let rho_bar = x / (x + 1.0);
                            let kfac = if rho_bar > 0.0 {
                                -(-rho_bar).ln_1p() / rho_bar
                            } else {
                                1.0
                            };
                            let bound = kfac * beta * p_rem / denom;
                            if bound <= 0.5 * self.tau_budget {
                                exterior = bound;
                                break;
                            }
                        }
                    }
                }
            }
            m += 1;
        }
        let examined = examined_count.saturating_sub(1) as u64; // own sender is not a pair
        let before = entries.len();
        let dropped = truncate_smallest(entries, self.tau_budget - exterior);
        RowMeta {
            noise,
            signal: s_ii,
            tau: dropped + exterior,
            examined,
            truncated: (before - entries.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::generator::PaperTopology;
    use rayfade_sinr::{GainMatrix, InterferenceRatios, SparseSuccessAccumulator};

    fn small_net(links: usize, seed: u64) -> Network {
        PaperTopology {
            links,
            side: 400.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed)
    }

    #[test]
    fn delta_zero_reproduces_the_dense_cache_bitwise() {
        let net = small_net(24, 7);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let sparse = build_sparse_ratios(&net, &power, &params, 0.0, None);
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let dense = InterferenceRatios::new(&gain, &params);
        assert_eq!(sparse.tau_max(), 0.0);
        for i in 0..net.len() {
            assert_eq!(sparse.noise_factor(i), dense.noise_factor(i), "noise {i}");
            for j in 0..net.len() {
                assert_eq!(sparse.rho(j, i), dense.rho(j, i), "rho({j},{i})");
            }
        }
    }

    #[test]
    fn geometric_build_matches_from_gain_certificates() {
        // α = 4 concentrates the interference so the truncation bites.
        let net = small_net(40, 11);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let delta = 0.05;
        let (sparse, stats) = build_sparse_ratios_stats(&net, &power, &params, delta, None);
        let budget = truncation_budget(delta);
        assert!(stats.tau_max <= budget + 1e-15);
        assert!(stats.retained > 0);
        assert_eq!(stats.retained as usize, sparse.nnz());
        // Retained ratios are bit-equal to the dense cache and the
        // certificate covers the dense evaluation.
        let gain = GainMatrix::from_geometry(&net, &power, params.alpha);
        let dense_r = InterferenceRatios::new(&gain, &params);
        for i in 0..net.len() {
            let (cols, rhos) = sparse.row(i);
            for (&j, &r) in cols.iter().zip(rhos) {
                assert_eq!(r, dense_r.rho(j as usize, i), "rho({j},{i})");
            }
            assert!(sparse.tau(i) <= budget + 1e-15, "tau({i})");
        }
        let mut acc = SparseSuccessAccumulator::new(net.len());
        acc.set_uniform(&sparse, 0.7);
        let mut dense_acc =
            rayfade_sinr::SuccessAccumulator::new(net.len(), rayfade_sinr::AccumMode::LogDomain);
        dense_acc.set_uniform(&dense_r, 0.7);
        for i in 0..net.len() {
            let d = dense_acc.success_probability(&dense_r, i);
            let (lo, hi) = acc.success_interval(&sparse, i);
            assert!(
                lo - 1e-12 <= d && d <= hi + 1e-12,
                "link {i}: {d} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn truncation_reduces_stored_pairs_at_steep_alpha() {
        let net = small_net(60, 3);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let exact = build_sparse_ratios(&net, &power, &params, 0.0, None);
        let truncated = build_sparse_ratios(&net, &power, &params, 0.2, None);
        assert!(
            truncated.nnz() < exact.nnz(),
            "δ = 0.2 must drop pairs ({} vs {})",
            truncated.nnz(),
            exact.nnz()
        );
    }

    #[test]
    fn build_is_deterministic() {
        let net = small_net(30, 5);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(3.0, 2.5, 4e-7);
        let a = build_sparse_ratios(&net, &power, &params, 0.01, None);
        let b = build_sparse_ratios(&net, &power, &params, 0.01, None);
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_counters_and_journal_record_the_build() {
        let dir = std::env::temp_dir().join("rayfade_spatial_builder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("build.jsonl");
        let tele = Telemetry::with_journal(&path).unwrap().with_tracing();
        let net = small_net(20, 9);
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::new(4.0, 2.5, 4e-7);
        let (_, stats) = build_sparse_ratios_stats(&net, &power, &params, 0.1, Some(&tele));
        tele.flush();
        let prom = tele.registry().prometheus_text();
        assert!(prom.contains("rayfade_spatial_pairs_examined_total"));
        assert!(prom.contains("rayfade_spatial_pairs_retained_total"));
        assert!(prom.contains("rayfade_spatial_pairs_truncated_total"));
        assert!(prom.contains("rayfade_spatial_truncated_logmass"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sparse_ratios\""), "journal event written");
        assert!(text.contains("\"delta\""));
        let spans = tele.tracer().unwrap().snapshot();
        let names: Vec<_> = spans.records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"spatial/grid_build"), "{names:?}");
        assert!(names.contains(&"spatial/sparse_ratios"), "{names:?}");
        assert!(stats.examined >= stats.retained + stats.truncated);
    }

    #[test]
    fn empty_network_yields_an_empty_cache() {
        let net = Network::default();
        let power = PowerAssignment::figure1_uniform();
        let params = SinrParams::figure1();
        let sparse = build_sparse_ratios(&net, &power, &params, 0.5, None);
        assert!(sparse.is_empty());
        assert_eq!(sparse.nnz(), 0);
    }
}
