//! Geometric construction of certified ε-truncated sparse ratios.
//!
//! [`build_sparse_ratios`] constructs a [`SparseInterferenceRatios`]
//! directly from a [`Network`] and a [`PowerAssignment`] without ever
//! materializing a dense row, in two passes per receiver `i`:
//!
//! 1. **Ring expansion with an annulus-by-annulus tail bound.** Grid
//!    rings around the receiver's cell are examined outward. A sender at
//!    distance at least `d` with power at most `p_max` has
//!    `x = β·S_ji/S̄_{i,i} ≤ a/d^α` with `a = β·p_max/S̄_{i,i}`, so its
//!    log-mass `−ln(1−ρ) = ln(1+x) ≤ x` is at most `a/d^α`. The
//!    unexamined cells after ring `m` are split into dyadic annuli —
//!    block `2^{k+1}` minus block `2^k`, plus the partial annulus between
//!    block `m` and the next dyadic radius — and each annulus is charged
//!    its exact sender count times that per-sender bound, at its own
//!    inner distance ([`SpatialGrid::exterior_distance`]) and with counts
//!    from the grid's summed-area table ([`SpatialGrid::block_count`]).
//!    The sum `B` bounds the whole unexamined log-mass. Expansion stops
//!    once `B ≤ τ/2` (or everything is examined, making `B = 0`).
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
//! The ring walk streams over contiguous memory and reads nothing by
//! link index. The grid stores the senders in cell order
//! ([`SpatialGrid::positions`]), the builder gathers their powers and
//! their links' receiver positions into the same order once, and each
//! grid row of a ring is one contiguous range of them
//! ([`SpatialGrid::for_each_ring_range`]). Receivers are walked in the
//! grid's cell order ([`SpatialGrid::items`]), so consecutive receivers
//! share most of their rings and the walk stays in cache, in fixed chunks
//! of 256 on the rayon pool; a chunk reuses one scratch row for all its
//! receivers and appends the survivors straight into its own CSR
//! fragment. Assembly scatters the rows back into link order, freeing
//! each fragment once copied. No receiver keeps an allocation of its own,
//! so the build's peak heap is a small multiple of the finished cache.
//!
//! # Why the tail bound needs no rounding argument
//!
//! The bound is a sum of non-negative terms, each an exact integer count
//! times `a/d^α` evaluated from exact inputs (the largest power, the own
//! signal, a grid distance). Every term is accurate to a few ulps
//! relative to itself, and nothing is subtracted. A bound built from a
//! running total of unexamined power, `P_total − P_examined`, is not: once
//! the walk has examined a sender whose power dwarfs the rest, the f64
//! difference cancels to 0 and certifies a tail of senders that were
//! never looked at (`tests/tail_oracle.rs` keeps that case).
//!
//! # Cost
//!
//! The annulus terms are computed once per receiver, O(log n) of them,
//! into suffix sums, so the stop test after each ring is O(1): the
//! partial annulus plus one suffix. At a fixed density and `α > 2` the
//! log-mass beyond radius `R` scales like `R^{2−α}` whatever `n` is, so
//! the stop ring — and the examined pairs per receiver — do not grow
//! with `n`, and the build costs O(n log n) (`tests/examined_pairs.rs`
//! gates the pair count). How far the rings expand still depends
//! strongly on `α`: truncation only pays off for `α > 2`, and at the
//! Figure-1 exponent α = 2.2 the walk covers most of a small grid (see
//! EXPERIMENTS.md §S2).

use crate::grid::SpatialGrid;
use rayfade_geometry::{Network, Point};
use rayfade_sinr::sparse::truncate_smallest;
use rayfade_sinr::{truncation_budget, PowerAssignment, SinrParams, SparseInterferenceRatios};
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
            cell_power: grid.items().iter().map(|&j| powers[j as usize]).collect(),
            cell_receiver: (grid.items().iter())
                .map(|&j| network.link(j as usize).receiver)
                .collect(),
            grid: &grid,
            p_max: powers.iter().copied().fold(0.0f64, f64::max),
            beta: params.beta,
            alpha: params.alpha,
            noise: params.noise,
            tau_budget,
        };
        drop(powers);
        (0..n.div_ceil(CHUNK))
            .into_par_iter()
            .map(|c| walk.chunk(c * CHUNK..((c + 1) * CHUNK).min(n)))
            .collect()
    };
    let order = grid.into_items();

    // The rows come in cell order: size each link's row, then copy every
    // row into its place in link order, freeing each fragment once copied.
    // The table's offsets are u32.
    let nnz: usize = fragments.iter().map(|f| f.col.len()).sum();
    assert!(
        u32::try_from(nnz).is_ok(),
        "more than u32::MAX retained pairs: the sparse table's offsets are u32"
    );
    let mut row_ptr = vec![0u32; n + 1];
    let rows = fragments.iter().flat_map(|f| &f.rows);
    for (&i, row) in order.iter().zip(rows) {
        row_ptr[i as usize + 1] = row.len as u32;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut col = vec![0u32; nnz];
    let mut rho = vec![0.0f64; nnz];
    let mut noise = vec![0.0f64; n];
    let mut tau = vec![0.0f64; n];
    let mut stats = SparseBuildStats::default();
    let mut receivers = order.iter();
    for frag in fragments {
        let mut start = 0;
        for (row, &i) in frag.rows.iter().zip(receivers.by_ref()) {
            let (i, end) = (i as usize, start + row.len);
            let at = row_ptr[i] as usize;
            col[at..at + row.len].copy_from_slice(&frag.col[start..end]);
            rho[at..at + row.len].copy_from_slice(&frag.rho[start..end]);
            noise[i] = row.noise;
            tau[i] = row.tau;
            start = end;
        }
        stats.examined += frag.examined;
        stats.truncated += frag.truncated;
    }
    drop(order);
    stats.retained = nnz as u64;
    stats.tau_max = tau.iter().copied().fold(0.0, f64::max);
    if let Some(t) = tele {
        let hist = t.registry().histogram("rayfade_spatial_truncated_logmass");
        for &ti in &tau {
            hist.observe(ti);
        }
    }
    let ratios =
        SparseInterferenceRatios::from_raw_parts(params.beta, delta, row_ptr, col, rho, noise, tau);
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

/// The CSR rows of one chunk of receivers, in the chunk's order.
struct Fragment {
    rows: Vec<Row>,
    /// The retained senders of every row, one row after another.
    col: Vec<u32>,
    rho: Vec<f64>,
    examined: u64,
    truncated: u64,
}

/// One receiver row's values besides its retained pairs.
struct Row {
    /// Retained pairs.
    len: usize,
    noise: f64,
    tau: f64,
}

/// Everything the per-receiver ring walk reads, shared by all chunks.
struct RingWalk<'a> {
    grid: &'a SpatialGrid,
    /// Sender powers in the grid's cell order.
    cell_power: Vec<f64>,
    /// Receiver positions of the same links, in the same order.
    cell_receiver: Vec<Point>,
    /// Largest sender power: every unexamined sender is charged at it.
    p_max: f64,
    beta: f64,
    alpha: f64,
    noise: f64,
    tau_budget: f64,
}

impl RingWalk<'_> {
    /// Builds the rows of the receivers of links `items()[cells]`, in that
    /// cell order, reusing one scratch row.
    fn chunk(&self, cells: Range<usize>) -> Fragment {
        let mut frag = Fragment {
            rows: Vec::with_capacity(cells.len()),
            col: Vec::new(),
            rho: Vec::new(),
            examined: 0,
            truncated: 0,
        };
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for k in cells {
            self.push_row(k, &mut entries, &mut frag);
        }
        frag
    }

    /// Builds the row of the receiver of link `i = items()[k]` in the
    /// scratch `entries` and appends it to `frag`: ring expansion until
    /// the [`TailBound`] drops below `τ/2`, then greedy interior
    /// truncation within the remaining budget, which leaves the retained
    /// `(sender, ρ)` pairs sorted by sender.
    fn push_row(&self, k: usize, entries: &mut Vec<(u32, f64)>, frag: &mut Fragment) {
        entries.clear();
        let (beta, alpha) = (self.beta, self.alpha);
        let (items, positions) = (self.grid.items(), self.grid.positions());
        let n = items.len();
        let i = items[k] as usize;
        let receiver = self.cell_receiver[k];
        // Own signal with arithmetic bit-equal to `GainMatrix::from_geometry`.
        let d_own = positions[k].distance(&receiver);
        assert!(
            d_own > 0.0,
            "cross distance d(s_{i}, r_{i}) must be positive"
        );
        let s_ii = self.cell_power[k] / d_own.powf(alpha);
        assert!(s_ii.is_finite(), "gain S({i},{i}) must be finite");
        if s_ii == 0.0 {
            // Dead receiver: empty row, zero noise factor, exact (τᵢ = 0) —
            // its success probability is 0 regardless of interference.
            frag.rows.push(Row {
                len: 0,
                noise: 0.0,
                tau: 0.0,
            });
            return;
        }
        let noise = (-beta * self.noise / s_ii).exp();
        let (cx, cy) = self.grid.cell_of(&receiver);
        // δ = 0 scans every ring: there is no budget to spend on a tail.
        let tail = (self.tau_budget > 0.0)
            .then(|| TailBound::new(self.grid, receiver, beta * self.p_max / s_ii, alpha));
        let mut examined_count = 0usize;
        let mut own_examined = false;
        let mut m = 0usize;
        // Certified bound on the unexamined log-mass at the stop.
        let exterior = loop {
            self.grid.for_each_ring_range(cx, cy, m, |range| {
                examined_count += range.len();
                for ((&j, sender), &p) in items[range.clone()]
                    .iter()
                    .zip(&positions[range.clone()])
                    .zip(&self.cell_power[range])
                {
                    let ju = j as usize;
                    if ju == i {
                        own_examined = true;
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
                break 0.0;
            }
            if let Some(tail) = &tail {
                let bound = tail.after_ring(m);
                if bound <= 0.5 * self.tau_budget {
                    break bound;
                }
            }
            m += 1;
        };
        frag.examined += (examined_count - usize::from(own_examined)) as u64; // own sender is not a pair
        let before = entries.len();
        let dropped = truncate_smallest(entries, self.tau_budget - exterior);
        frag.truncated += (before - entries.len()) as u64;
        frag.col.extend(entries.iter().map(|e| e.0));
        frag.rho.extend(entries.iter().map(|e| e.1));
        frag.rows.push(Row {
            len: entries.len(),
            noise,
            tau: dropped + exterior,
        });
    }
}

/// Dyadic block radii `1, 2, 4, …, 2²⁵`: block `2²⁴` already covers any
/// grid of at most 2²⁴ cells.
const LEVELS: usize = 26;

/// Certified bound on the log-mass that the senders outside a block of
/// cells around one receiver contribute, charging each dyadic annulus of
/// cells at its own inner distance (see the [module docs](self)).
///
/// Annulus `k` holds the cells of block `2^{k+1}` outside block `2^k`.
/// Every sender in it lies at least `d_k`, the exterior distance of block
/// `2^k`, from the receiver and has power at most `p_max`, so its
/// `x = β·S_ji/S̄_{i,i}` is at most `a/d_k^α` with `a = β·p_max/S̄_{i,i}`,
/// and its log-mass `−ln(1−ρ) = ln(1+x)` at most `x`. The annulus is
/// charged its exact sender count times `a/d_k^α`. The terms are summed
/// once per receiver into suffix sums, so the bound after any ring costs
/// O(1): the partial annulus between the ring and the next dyadic
/// radius, plus one suffix.
pub(crate) struct TailBound<'a> {
    grid: &'a SpatialGrid,
    receiver: Point,
    cell: (usize, usize),
    a: f64,
    alpha: f64,
    /// `suffix[k]` bounds the mass outside block `2^k` (0 once the block
    /// covers the grid).
    suffix: [f64; LEVELS],
}

impl<'a> TailBound<'a> {
    /// The annulus terms of the receiver at `receiver`, with
    /// `a = β·p_max/S̄_{i,i}`.
    pub(crate) fn new(grid: &'a SpatialGrid, receiver: Point, a: f64, alpha: f64) -> Self {
        let (cx, cy) = grid.cell_of(&receiver);
        let mut tail = TailBound {
            grid,
            receiver,
            cell: (cx, cy),
            a,
            alpha,
            suffix: [0.0; LEVELS],
        };
        let mut levels = 0;
        let mut inner = grid.block_count(cx, cy, 1);
        while let Some(d) = grid.exterior_distance(&receiver, cx, cy, 1 << levels) {
            let outer = grid.block_count(cx, cy, 2 << levels);
            tail.suffix[levels] = tail.charge(outer - inner, d);
            inner = outer;
            levels += 1;
        }
        for k in (0..levels).rev() {
            tail.suffix[k] += tail.suffix[k + 1];
        }
        tail
    }

    /// Bound on the log-mass of `count` senders at distance `d` or more.
    fn charge(&self, count: u32, d: f64) -> f64 {
        if count == 0 {
            0.0
        } else {
            f64::from(count) * (self.a / d.powf(self.alpha))
        }
    }

    /// Bound on the log-mass of every sender outside block `m`, i.e. not
    /// yet examined after ring `m`.
    pub(crate) fn after_ring(&self, m: usize) -> f64 {
        let (cx, cy) = self.cell;
        let Some(d) = self.grid.exterior_distance(&self.receiver, cx, cy, m) else {
            return 0.0;
        };
        // The first dyadic radius 2^k ≥ m; the cells between block m and
        // block 2^k lie at least `d` away.
        let k = (usize::BITS - m.saturating_sub(1).leading_zeros()) as usize;
        let partial = self.grid.block_count(cx, cy, 1 << k) - self.grid.block_count(cx, cy, m);
        self.suffix[k] + self.charge(partial, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::generator::PaperTopology;
    use rayfade_geometry::LinkGeometry;
    use rayfade_sinr::{kahan_sum, GainMatrix, InterferenceRatios, SuccessAccumulator};

    fn uniform(links: usize, side: f64, seed: u64) -> Network {
        PaperTopology {
            links,
            side,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed)
    }

    fn small_net(links: usize, seed: u64) -> Network {
        uniform(links, 400.0, seed)
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
        let mut acc = SuccessAccumulator::new(net.len());
        acc.set_uniform(&sparse, 0.7);
        let mut dense_acc = SuccessAccumulator::new(net.len());
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

    /// Every other sender's exact log-mass `ln(1 + β·S_ji/S_ii)` at
    /// receiver `i`, with the Chebyshev distance of its cell from the
    /// receiver's cell: the senders outside block `m` are those beyond `m`.
    fn masses_by_ring(
        net: &Network,
        powers: &[f64],
        params: &SinrParams,
        grid: &SpatialGrid,
        i: usize,
    ) -> Vec<(usize, f64)> {
        let receiver = net.link(i).receiver;
        let (cx, cy) = grid.cell_of(&receiver);
        let s_ii = powers[i] / net.length(i).powf(params.alpha);
        (0..net.len())
            .filter(|&j| j != i)
            .map(|j| {
                let sender = net.link(j).sender;
                let (x, y) = grid.cell_of(&sender);
                let s_ji = powers[j] / sender.distance(&receiver).powf(params.alpha);
                let mass = (params.beta * s_ji / s_ii).ln_1p();
                (x.abs_diff(cx).max(y.abs_diff(cy)), mass)
            })
            .collect()
    }

    #[test]
    fn tail_bound_covers_the_exact_mass_outside_every_block() {
        let clustered = rayfade_geometry::ClusteredTopology {
            links: 240,
            clusters: 4,
            side: 20_000.0,
            spread: 200.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(0xc2);
        let deployments = [
            ("sparse", uniform(200, 14_000.0, 21)),
            ("dense", uniform(200, 1_400.0, 22)),
            ("clustered", clustered),
        ];
        let mut checked = 0;
        for (name, net) in &deployments {
            let grid = SpatialGrid::build(net, default_cell(net));
            for alpha in [2.2, 3.0, 4.0, 5.0] {
                let params = SinrParams::new(alpha, 2.5, 4e-7);
                for power in [
                    PowerAssignment::figure1_uniform(),
                    PowerAssignment::figure1_square_root(),
                ] {
                    let powers = power.powers(net, alpha);
                    let p_max = powers.iter().copied().fold(0.0, f64::max);
                    for i in 0..net.len() {
                        let receiver = net.link(i).receiver;
                        let s_ii = powers[i] / net.length(i).powf(alpha);
                        let tail =
                            TailBound::new(&grid, receiver, params.beta * p_max / s_ii, alpha);
                        let (cx, cy) = grid.cell_of(&receiver);
                        let masses = masses_by_ring(net, &powers, &params, &grid, i);
                        // The walk's stop at δ = 1e-3, or the ring that covers the grid.
                        let half = 0.5 * truncation_budget(1e-3);
                        let covers = |m| grid.exterior_distance(&receiver, cx, cy, m).is_none();
                        let stop = (0..)
                            .find(|&m| covers(m) || tail.after_ring(m) <= half)
                            .unwrap();
                        for m in 0..=stop + 2 {
                            let bound = tail.after_ring(m);
                            let exact = kahan_sum(masses.iter().filter(|e| e.0 > m).map(|e| e.1));
                            assert!(
                                bound >= exact * (1.0 - 1e-12),
                                "{name}, α = {alpha}, {power:?}, receiver {i}, ring {m} \
                                 (stop {stop}): bound {bound:e} < exact mass {exact:e}"
                            );
                            if covers(m) {
                                assert_eq!(bound, 0.0);
                                break;
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(
            checked > 5_000,
            "only {checked} rings checked outside the full grid"
        );
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
