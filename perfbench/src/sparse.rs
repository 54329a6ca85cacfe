//! The `sparse_100k` workload: the certified ε-truncated Theorem-1
//! evaluator built from geometry at 10⁵ links through the
//! `NetworkEvaluator::for_network` facade (sparse path, default δ), then
//! evaluated over a grid of uniform transmission probabilities.

use crate::checks;
use crate::layers::{self, Layers, SPARSE_EVAL, SPATIAL_BUILD};
use crate::report::{alternate, fastest, median, Report};
use rayfade_core::{NetworkEvaluator, SparseSuccessEvaluator, DEFAULT_SPARSE_DELTA};
use rayfade_geometry::{LinkGeometry, Network, PaperTopology};
use rayfade_sinr::{truncation_budget, PowerAssignment, SinrParams, SparseSuccessAccumulator};
use rayfade_spatial::build_sparse_ratios_stats;
use std::time::Instant;

/// `sparse_smoke`'s topology seed.
pub const SMOKE_SEED: u64 = 0x51e5;
const LINKS: usize = 100_000;
/// The uniform transmission probabilities evaluated, in turn.
const Q_GRID: [f64; 8] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0];
/// Links per q-point whose exact Theorem-1 value is computed from
/// geometry and must lie inside its certified interval.
const EXACT_LINKS: usize = 4;
/// Relative slack on that containment for floating-point rounding: the
/// exact product over 10⁵ factors and the sparse log-domain sum round
/// differently, by far less than this.
const EXACT_SLACK: f64 = 1e-9;

/// The dynamic workloads' density, one link per 10⁶ area units, at
/// `links` links (side 316 228 at 10⁵ links).
fn topology(links: usize) -> PaperTopology {
    PaperTopology {
        links,
        side: (links as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
}

fn params() -> SinrParams {
    SinrParams::new(4.0, 2.5, 4e-7)
}

fn power() -> PowerAssignment {
    PowerAssignment::figure1_uniform()
}

/// The facade's build for `net`: at 10⁵ links, above `SPARSE_CROSSOVER`,
/// the spatial-grid builder with `DEFAULT_SPARSE_DELTA`.
fn build(net: &Network) -> NetworkEvaluator {
    NetworkEvaluator::for_network(net, &power(), &params(), None)
}

/// The sparse evaluator the facade routed to.
fn sparse(evaluator: &NetworkEvaluator) -> Result<&SparseSuccessEvaluator, String> {
    match evaluator {
        NetworkEvaluator::Sparse(ev) => Ok(ev),
        _ => Err(format!(
            "for_network chose a dense evaluator at {} links",
            evaluator.len()
        )),
    }
}

/// Untraced `setup_s` (median of `NetworkEvaluator::for_network` builds
/// on one generated network, generation not counted) and certified full-network
/// evaluations per second (the inverse of the fastest evaluation),
/// alternated over at least `setup_runs` builds and `seconds` of
/// evaluations; then the exact-value check at every q-point.
pub fn measure(seed: u64, setup_runs: usize, seconds: f64, report: &mut Report) {
    let net = topology(LINKS).generate(seed);
    let mut evals = 0;
    let (setups, times, mut evaluator) = alternate(
        setup_runs,
        seconds,
        report,
        |report| {
            let built = build(&net);
            report.op(cache(&built));
            built
        },
        |evaluator, report| {
            let q = Q_GRID[evals % Q_GRID.len()];
            evals += 1;
            evaluator.set_uniform(q);
            let (lo, hi) = evaluator.expected_successes_interval();
            report.op(interval(q, lo, hi));
        },
    );
    for q in Q_GRID {
        report.op(exact_links(&net, &mut evaluator, q));
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_per_s", 1.0 / fastest(&times), "1/s");
}

/// The evaluator is the sparse one and its cache honours
/// `sparse_smoke`'s soundness checks.
fn cache(evaluator: &NetworkEvaluator) -> Result<(), String> {
    let ratios = sparse(evaluator)?.ratios();
    let n = ratios.len();
    if n != LINKS {
        return Err(format!("the cache has {n} links, expected {LINKS}"));
    }
    if ratios.tau_max() > truncation_budget(ratios.delta()) {
        return Err(format!(
            "certificate τ_max = {} exceeds the budget of δ = {}",
            ratios.tau_max(),
            ratios.delta()
        ));
    }
    if ratios.nnz() as f64 >= (n * n) as f64 / 100.0 {
        return Err(format!("the cache is not sparse: nnz = {}", ratios.nnz()));
    }
    Ok(())
}

/// A certified expected-successes interval is well formed and inside
/// `[0, n]`.
fn interval(q: f64, lo: f64, hi: f64) -> Result<(), String> {
    if lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi && hi <= LINKS as f64 {
        Ok(())
    } else {
        Err(format!("q = {q}: malformed interval [{lo:e}, {hi:e}]"))
    }
}

/// Theorem 1 for link `i` at uniform probability `q`, computed from
/// geometry over all n links:
/// `q · e^(−βν/S̄ᵢᵢ) · Π_{j≠i} (1 − β·q / (β + S̄ᵢᵢ/S̄ⱼᵢ))`.
fn theorem1(net: &Network, powers: &[f64], params: &SinrParams, q: f64, i: usize) -> f64 {
    let gain = |j: usize| powers[j] / net.cross_dist(j, i).powf(params.alpha);
    let s_ii = gain(i);
    let beta = params.beta;
    (0..net.len())
        .filter(|&j| j != i)
        .fold(q * (-beta * params.noise / s_ii).exp(), |p, j| {
            p * (1.0 - beta * q / (beta + s_ii / gain(j)))
        })
}

/// At `q`, the exact Theorem-1 value of a few links lies inside their
/// certified intervals.
fn exact_links(net: &Network, evaluator: &mut NetworkEvaluator, q: f64) -> Result<(), String> {
    evaluator.set_uniform(q);
    let evaluator = sparse(evaluator)?;
    let params = params();
    let powers = power().powers(net, params.alpha);
    for k in 0..EXACT_LINKS {
        let i = k * LINKS / EXACT_LINKS;
        let (lo, hi) = evaluator.success_interval(i);
        let exact = theorem1(net, &powers, &params, q, i);
        if exact < lo * (1.0 - EXACT_SLACK) || exact > hi * (1.0 + EXACT_SLACK) {
            return Err(format!(
                "q = {q}, link {i}: exact {exact:e} outside its interval [{lo:e}, {hi:e}]"
            ));
        }
    }
    Ok(())
}

/// Generation, `for_network` and one pass over the q-grid, untraced.
fn untraced(seed: u64, report: &mut Report) -> Vec<(f64, f64)> {
    let net = topology(LINKS).generate(seed);
    let mut evaluator = build(&net);
    report.op(cache(&evaluator));
    Q_GRID
        .iter()
        .map(|&q| {
            evaluator.set_uniform(q);
            evaluator.expected_successes_interval()
        })
        .collect()
}

/// Traced run: the untraced work (the reference, and a warm-up), then the
/// same work through the layer calls `for_network` wraps —
/// `PaperTopology::generate`, `build_sparse_ratios_stats` and the sparse
/// accumulator — with a span around each, checking every replayed
/// interval equals the reference; then the untraced work again for the
/// trace overhead, and the builder alone at 10³ and 10⁴ links for its
/// slope.
pub fn trace(seed: u64, layers: &mut Layers, report: &mut Report) {
    let reference = untraced(seed, report);

    let (replayed, stats, nnz) = layers.traced(|layers| {
        let tracer = &layers.tracer;
        let net = layers::span(tracer, "geometry.generate", || {
            topology(LINKS).generate(seed)
        });
        let (ratios, stats) = layers::span(tracer, "spatial.build", || {
            build_sparse_ratios_stats(&net, &power(), &params(), DEFAULT_SPARSE_DELTA, None)
        });
        let mut acc = SparseSuccessAccumulator::new(LINKS);
        let replayed: Vec<(f64, f64)> = Q_GRID
            .iter()
            .map(|&q| {
                layers::span(tracer, SPARSE_EVAL, || {
                    acc.set_uniform(&ratios, q);
                    acc.expected_successes_interval(&ratios)
                })
            })
            .collect();
        (replayed, stats, ratios.nnz())
    });
    for ((q, reference), replayed) in Q_GRID.iter().zip(&reference).zip(&replayed) {
        report.op(interval(*q, replayed.0, replayed.1).and_then(|()| {
            if reference == replayed {
                Ok(())
            } else {
                Err(format!(
                    "q = {q}: replay gave {replayed:?}, for_network {reference:?}"
                ))
            }
        }));
    }
    let start = Instant::now();
    let again = untraced(seed, report);
    layers.untraced_ns = start.elapsed().as_nanos() as u64;
    report.op(checks::repeats(&reference, &again));
    layers.units = 1.0;
    layers.spatial = Some(stats);
    // Per evaluation: each retained pair streams a u32 index and an f64
    // ratio and read-modify-writes its receiver's f64 log-sum and u32
    // zero count (24 B); each link's q, log-sum, zero count, noise factor
    // and certificate are reset and read back (56 B).
    layers.sparse_eval_bytes = (24 * nnz + 56 * LINKS) as f64;

    let mut sizes = Vec::new();
    let mut builds = Vec::new();
    for links in [1_000, 10_000] {
        let net = topology(links).generate(seed);
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(build_sparse_ratios_stats(
                    &net,
                    &power(),
                    &params(),
                    DEFAULT_SPARSE_DELTA,
                    None,
                ));
                start.elapsed().as_secs_f64()
            })
            .collect();
        sizes.push(links as f64);
        builds.push(median(&times));
    }
    sizes.push(LINKS as f64);
    builds.push(layers::span_seconds(
        &layers.tracer.snapshot(),
        "spatial.build",
    ));
    layers
        .slopes
        .push((SPATIAL_BUILD, layers::log_log_slope(&sizes, &builds)));
}
