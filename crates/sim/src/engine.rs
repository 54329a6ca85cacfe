//! Experiment engines regenerating the paper's figures.
//!
//! The engines are deterministic given their configuration (all seeds are
//! derived from the config) and parallelized over networks with rayon —
//! the sweeps are embarrassingly parallel, exactly the pattern the
//! hpc-parallel guides prescribe.

use crate::slots::{nonfading_success_curve_point, rayleigh_success_curve_point};
use crate::stats::RunningStats;
use rayfade_core::{mix_seed2, RayleighModel};
use rayfade_geometry::PaperTopology;
use rayfade_learning::{run_game_with_beta, GameConfig};
use rayfade_sched::{CapacityAlgorithm, CapacityInstance, LocalSearchCapacity};
use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams};
use rayfade_telemetry::monitor::export_duration_quantiles;
use rayfade_telemetry::{QuantileSketch, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::Instant;

/// Stream tags for [`mix_seed2`]-derived RNG streams. Topology seeds
/// deliberately stay `seed + net` so networks remain shared with
/// `figure1_instance`-style helpers elsewhere in the workspace.
const GAME_STREAM: u64 = 0x6a;
const FADING_STREAM: u64 = 0xfa;

/// Which power assignments Figure 1 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerFamily {
    /// Uniform power `p = 2`.
    Uniform,
    /// Square-root power `p = 2·√(d^α)`.
    SquareRoot,
}

impl PowerFamily {
    /// The concrete assignment of this family (Figure 1 constants).
    pub fn assignment(self) -> PowerAssignment {
        match self {
            PowerFamily::Uniform => PowerAssignment::figure1_uniform(),
            PowerFamily::SquareRoot => PowerAssignment::figure1_square_root(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PowerFamily::Uniform => "uniform",
            PowerFamily::SquareRoot => "square-root",
        }
    }
}

/// Configuration of the Figure 1 experiment. Defaults reproduce the
/// paper exactly: 40 networks × 100 links, β=2.5, α=2.2, ν=4e−7,
/// lengths ∈ [20, 40], 25 transmit seeds, 10 fading seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1Config {
    /// Number of random networks to average over.
    pub networks: u64,
    /// Topology generator settings.
    pub topology: PaperTopology,
    /// SINR parameters.
    pub params: SinrParams,
    /// Transmission probabilities to sweep.
    pub q_grid: Vec<f64>,
    /// Random activations per (network, q) pair.
    pub tx_seeds: u64,
    /// Fading realizations per activation (Rayleigh curves only).
    pub fading_seeds: u64,
    /// Base seed from which all network seeds derive.
    pub seed: u64,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Figure1Config {
            networks: 40,
            topology: PaperTopology::figure1(),
            params: SinrParams::figure1(),
            q_grid: (1..=20).map(|k| k as f64 / 20.0).collect(),
            tx_seeds: 25,
            fading_seeds: 10,
            seed: 0xf161,
        }
    }
}

impl Figure1Config {
    /// A reduced configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Figure1Config {
            networks: 3,
            topology: PaperTopology {
                links: 20,
                ..PaperTopology::figure1()
            },
            q_grid: vec![0.25, 0.5, 1.0],
            tx_seeds: 5,
            fading_seeds: 3,
            ..Figure1Config::default()
        }
    }
}

/// One point of a Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Transmission probability.
    pub q: f64,
    /// Mean successful transmissions (over networks and seeds).
    pub mean: f64,
    /// Standard error of the per-network means.
    pub std_err: f64,
}

/// One of the four Figure 1 curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Power family of this curve.
    pub power: PowerFamily,
    /// Whether this is the Rayleigh (true) or non-fading (false) curve.
    pub rayleigh: bool,
    /// The sweep, ordered by `q`.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Display label, e.g. `"uniform/rayleigh"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            self.power.label(),
            if self.rayleigh {
                "rayleigh"
            } else {
                "non-fading"
            }
        )
    }

    /// The q maximizing the mean curve (the curves of Figure 1 are
    /// unimodal: too few transmitters waste slots, too many jam).
    pub fn argmax(&self) -> Option<CurvePoint> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite"))
    }
}

/// The full Figure 1 result: four curves over the same networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure1Result {
    /// Configuration that produced the result.
    pub config: Figure1Config,
    /// The four curves: (uniform, sqrt) × (non-fading, Rayleigh).
    pub curves: Vec<Curve>,
}

/// Runs the Figure 1 experiment (parallel over networks).
pub fn run_figure1(config: &Figure1Config) -> Figure1Result {
    run_figure1_with_telemetry(config, |_| {}, None)
}

/// [`run_figure1`] with a per-network completion callback (e.g. a
/// [`crate::progress::ProgressSink`] tick; it runs on rayon worker
/// threads and must be cheap) and optional telemetry: per-curve-point
/// timings and success tallies go to the registry during the parallel
/// sweep, and the finished curves are journaled afterwards (`fig1_config`,
/// `fig1_point`, `fig1_argmax` events, in deterministic order). `None` is
/// the uninstrumented fast path; the result is bit-identical either way.
pub fn run_figure1_with_telemetry<F>(
    config: &Figure1Config,
    on_network_done: F,
    tele: Option<&Telemetry>,
) -> Figure1Result
where
    F: Fn(u64) + Sync,
{
    assert!(config.networks > 0, "need at least one network");
    let families = [PowerFamily::Uniform, PowerFamily::SquareRoot];
    let point_seconds = tele.map(|t| t.registry().histogram("rayfade_fig1_point_seconds"));
    // γ-accurate latency quantiles alongside the coarse base-2 histogram:
    // exported post-sweep as ns gauges (registry only — wall-clock values
    // never enter journals).
    let point_sketch = tele.map(|_| Mutex::new(QuantileSketch::new(0.01)));
    // Span ids interned once; per-network and per-point spans are chunky
    // enough (many slots each) to trace unsampled.
    let tracer = tele.and_then(Telemetry::tracer);
    let network_span = tracer.map(|tr| tr.span_id("fig1/network"));
    let point_span = tracer.map(|tr| tr.span_id("fig1/point"));
    // per_network[net] -> per (family, rayleigh?, q) mean successes.
    let per_network: Vec<Vec<f64>> = (0..config.networks)
        .into_par_iter()
        .map(|net_idx| {
            let _net_span = rayfade_telemetry::trace::guard(tracer, network_span);
            let net = config.topology.generate(config.seed.wrapping_add(net_idx));
            let mut row = Vec::with_capacity(families.len() * 2 * config.q_grid.len());
            for family in families {
                let gain =
                    GainMatrix::from_geometry(&net, &family.assignment(), config.params.alpha);
                for rayleigh in [false, true] {
                    for (qi, &q) in config.q_grid.iter().enumerate() {
                        // Collision-free (net, q) stream separation; the
                        // old `seed*31 + net*10_007 + qi` arithmetic
                        // aliased across nearby seeds.
                        let seed_base = mix_seed2(config.seed, net_idx, qi as u64);
                        let _point_span = rayfade_telemetry::trace::guard(tracer, point_span);
                        let start = point_seconds.as_ref().map(|_| Instant::now());
                        let v = if rayleigh {
                            rayleigh_success_curve_point(
                                &gain,
                                &config.params,
                                q,
                                config.tx_seeds,
                                config.fading_seeds,
                                seed_base,
                            )
                        } else {
                            nonfading_success_curve_point(
                                &gain,
                                &config.params,
                                q,
                                config.tx_seeds,
                                seed_base,
                            )
                        };
                        if let (Some(hist), Some(t0)) = (&point_seconds, start) {
                            let elapsed = t0.elapsed();
                            hist.observe_duration(elapsed);
                            if let Some(sketch) = &point_sketch {
                                sketch
                                    .lock()
                                    .expect("sketch mutex poisoned")
                                    .observe(elapsed.as_secs_f64());
                            }
                        }
                        row.push(v);
                    }
                }
            }
            if let Some(t) = tele {
                t.registry().counter("rayfade_fig1_networks_total").inc();
                t.registry()
                    .counter("rayfade_fig1_points_total")
                    .add((families.len() * 2 * config.q_grid.len()) as u64);
            }
            on_network_done(net_idx);
            row
        })
        .collect();

    let mut curves = Vec::new();
    let mut col = 0usize;
    for family in families {
        for rayleigh in [false, true] {
            let mut points = Vec::with_capacity(config.q_grid.len());
            for (qi, &q) in config.q_grid.iter().enumerate() {
                let stats: RunningStats = per_network.iter().map(|row| row[col + qi]).collect();
                points.push(CurvePoint {
                    q,
                    mean: stats.mean(),
                    std_err: stats.std_err(),
                });
            }
            curves.push(Curve {
                power: family,
                rayleigh,
                points,
            });
            col += config.q_grid.len();
        }
    }
    if let (Some(t), Some(sketch)) = (tele, &point_sketch) {
        export_duration_quantiles(
            t.registry(),
            "rayfade_fig1_point",
            &sketch.lock().expect("sketch mutex poisoned"),
        );
    }
    let result = Figure1Result {
        config: config.clone(),
        curves,
    };
    journal_figure1(tele, &result);
    result
}

/// Journals a finished Figure 1 result (`fig1_config` header, one
/// `fig1_point` per (curve, q), one `fig1_argmax` per curve). Runs after
/// the parallel sweep so journal bytes are deterministic; no-op when
/// `tele` is `None` or journal-less.
fn journal_figure1(tele: Option<&Telemetry>, result: &Figure1Result) {
    let Some(t) = tele.filter(|t| t.journal().is_some()) else {
        return;
    };
    let config = &result.config;
    t.event("fig1_config")
        .expect("journal present")
        .int("networks", config.networks as i64)
        .int("links", config.topology.links as i64)
        .int("q_steps", config.q_grid.len() as i64)
        .int("tx_seeds", config.tx_seeds as i64)
        .int("fading_seeds", config.fading_seeds as i64)
        .str("seed", &format!("{:#x}", config.seed))
        .str(
            "config_hash",
            &format!("{:016x}", rayfade_telemetry::config_hash(config)),
        )
        .write();
    for curve in &result.curves {
        let label = curve.label();
        for p in &curve.points {
            t.event("fig1_point")
                .expect("journal present")
                .str("curve", &label)
                .num("q", p.q)
                .num("mean", p.mean)
                .num("std_err", p.std_err)
                .write();
        }
        if let Some(best) = curve.argmax() {
            t.event("fig1_argmax")
                .expect("journal present")
                .str("curve", &label)
                .num("q", best.q)
                .num("mean", best.mean)
                .write();
        }
    }
    t.flush();
}

/// Analytic (Theorem 1) counterpart of the Rayleigh curves of Figure 1:
/// the exact expected successes at each q, averaged over the same
/// networks — no Monte Carlo. Cross-validates the sampled pipeline.
pub fn run_figure1_analytic(config: &Figure1Config, family: PowerFamily) -> Curve {
    assert!(config.networks > 0, "need at least one network");
    let per_network: Vec<Vec<f64>> = (0..config.networks)
        .into_par_iter()
        .map(|net_idx| {
            let net = config.topology.generate(config.seed.wrapping_add(net_idx));
            let gain = GainMatrix::from_geometry(&net, &family.assignment(), config.params.alpha);
            // One ratio cache per network, shared across the whole q-grid.
            crate::slots::rayleigh_expected_successes_grid(&gain, &config.params, &config.q_grid)
        })
        .collect();
    let points = config
        .q_grid
        .iter()
        .enumerate()
        .map(|(qi, &q)| {
            let stats: RunningStats = per_network.iter().map(|row| row[qi]).collect();
            CurvePoint {
                q,
                mean: stats.mean(),
                std_err: stats.std_err(),
            }
        })
        .collect();
    Curve {
        power: family,
        rayleigh: true,
        points,
    }
}

/// Configuration of the Figure 2 experiment (no-regret learning).
/// Defaults: 200 links, lengths ∈ (0, 100], β=0.5, α=2.1, ν=0, p=2,
/// 100 rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2Config {
    /// Number of networks to average over.
    pub networks: u64,
    /// Topology generator settings.
    pub topology: PaperTopology,
    /// SINR parameters.
    pub params: SinrParams,
    /// Uniform transmission power.
    pub power: f64,
    /// Learning rounds per run.
    pub rounds: usize,
    /// Base seed.
    pub seed: u64,
    /// Local-search restarts for the reference optimum line (0 disables
    /// the optimum computation).
    pub optimum_restarts: usize,
}

impl Default for Figure2Config {
    fn default() -> Self {
        Figure2Config {
            networks: 10,
            topology: PaperTopology::figure2(),
            params: SinrParams::figure2(),
            power: 2.0,
            rounds: 100,
            seed: 0xf162,
            optimum_restarts: 4,
        }
    }
}

impl Figure2Config {
    /// Reduced configuration for tests.
    pub fn smoke() -> Self {
        Figure2Config {
            networks: 2,
            topology: PaperTopology {
                links: 30,
                ..PaperTopology::figure2()
            },
            rounds: 40,
            optimum_restarts: 1,
            ..Figure2Config::default()
        }
    }
}

/// The Figure 2 result: per-round mean successes in both models plus the
/// non-fading reference optimum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2Result {
    /// Configuration that produced the result.
    pub config: Figure2Config,
    /// Mean successes per round, non-fading model.
    pub nonfading: Vec<f64>,
    /// Mean successes per round, Rayleigh model.
    pub rayleigh: Vec<f64>,
    /// Mean size of the non-fading reference optimum (local search), or
    /// `None` when disabled.
    pub optimum: Option<f64>,
    /// Mean of the maximum per-link average regret, non-fading runs.
    pub mean_max_regret_nonfading: f64,
    /// Mean of the maximum per-link average regret, Rayleigh runs.
    pub mean_max_regret_rayleigh: f64,
}

/// Runs the Figure 2 experiment (parallel over networks).
pub fn run_figure2(config: &Figure2Config) -> Figure2Result {
    run_figure2_with_telemetry(config, |_| {}, None)
}

/// [`run_figure2`] with a per-network completion callback (same contract
/// as [`run_figure1_with_telemetry`]'s) and optional telemetry:
/// per-network game timings and learning tallies go to the registry; the
/// averaged per-round series and regret summary are journaled
/// post-collect (`fig2_config`, `fig2_round`, `fig2_summary` events,
/// deterministic order). Per-network games themselves run
/// uninstrumented — their `learn_round` journal events would interleave
/// nondeterministically under rayon; use
/// [`rayfade_learning::run_game_instrumented`] directly for a single
/// game's round-by-round trace.
pub fn run_figure2_with_telemetry<F>(
    config: &Figure2Config,
    on_network_done: F,
    tele: Option<&Telemetry>,
) -> Figure2Result
where
    F: Fn(u64) + Sync,
{
    assert!(config.networks > 0 && config.rounds > 0);
    struct PerNet {
        nonfading: Vec<usize>,
        rayleigh: Vec<usize>,
        optimum: Option<usize>,
        regret_nf: f64,
        regret_ray: f64,
    }
    let network_seconds = tele.map(|t| t.registry().histogram("rayfade_fig2_network_seconds"));
    let network_sketch = tele.map(|_| Mutex::new(QuantileSketch::new(0.01)));
    let tracer = tele.and_then(Telemetry::tracer);
    let network_span = tracer.map(|tr| tr.span_id("fig2/network"));
    let runs: Vec<PerNet> = (0..config.networks)
        .into_par_iter()
        .map(|net_idx| {
            let _net_span = rayfade_telemetry::trace::guard(tracer, network_span);
            let net_start = network_seconds.as_ref().map(|_| Instant::now());
            let net = config.topology.generate(config.seed.wrapping_add(net_idx));
            let gain = GainMatrix::from_geometry(
                &net,
                &PowerAssignment::Uniform(config.power),
                config.params.alpha,
            );
            let game_cfg = GameConfig {
                rounds: config.rounds,
                seed: mix_seed2(config.seed, GAME_STREAM, net_idx),
            };
            let mut nf_model = NonFadingModel::new(gain.clone(), config.params);
            let nf = run_game_with_beta(&mut nf_model, config.params.beta, &game_cfg);
            let mut ray_model = RayleighModel::new(
                gain.clone(),
                config.params,
                mix_seed2(config.seed, FADING_STREAM, net_idx),
            );
            let ray = run_game_with_beta(&mut ray_model, config.params.beta, &game_cfg);
            let optimum = (config.optimum_restarts > 0).then(|| {
                LocalSearchCapacity {
                    restarts: config.optimum_restarts,
                    seed: config.seed.wrapping_add(net_idx),
                    max_sweeps: 30,
                }
                .select(&CapacityInstance::unweighted(&gain, &config.params))
                .len()
            });
            if let (Some(hist), Some(t0)) = (&network_seconds, net_start) {
                let elapsed = t0.elapsed();
                hist.observe_duration(elapsed);
                if let Some(sketch) = &network_sketch {
                    sketch
                        .lock()
                        .expect("sketch mutex poisoned")
                        .observe(elapsed.as_secs_f64());
                }
            }
            if let Some(t) = tele {
                let reg = t.registry();
                reg.counter("rayfade_fig2_networks_total").inc();
                reg.counter("rayfade_fig2_games_total").add(2);
                reg.counter("rayfade_fig2_successes_total").add(
                    (nf.successes_per_round.iter().sum::<usize>()
                        + ray.successes_per_round.iter().sum::<usize>()) as u64,
                );
            }
            on_network_done(net_idx);
            PerNet {
                nonfading: nf.successes_per_round.clone(),
                rayleigh: ray.successes_per_round.clone(),
                optimum,
                regret_nf: nf.regret.max_average_regret(config.rounds),
                regret_ray: ray.regret.max_average_regret(config.rounds),
            }
        })
        .collect();

    if let (Some(t), Some(sketch)) = (tele, &network_sketch) {
        export_duration_quantiles(
            t.registry(),
            "rayfade_fig2_network",
            &sketch.lock().expect("sketch mutex poisoned"),
        );
    }
    let rounds = config.rounds;
    let average_series = |select: &dyn Fn(&PerNet) -> &Vec<usize>| -> Vec<f64> {
        (0..rounds)
            .map(|t| runs.iter().map(|r| select(r)[t] as f64).sum::<f64>() / runs.len() as f64)
            .collect()
    };
    let nonfading = average_series(&|r: &PerNet| &r.nonfading);
    let rayleigh = average_series(&|r: &PerNet| &r.rayleigh);
    let optimum = if config.optimum_restarts > 0 {
        Some(
            runs.iter()
                .map(|r| r.optimum.unwrap_or(0) as f64)
                .sum::<f64>()
                / runs.len() as f64,
        )
    } else {
        None
    };
    let result = Figure2Result {
        config: config.clone(),
        nonfading,
        rayleigh,
        optimum,
        mean_max_regret_nonfading: runs.iter().map(|r| r.regret_nf).sum::<f64>()
            / runs.len() as f64,
        mean_max_regret_rayleigh: runs.iter().map(|r| r.regret_ray).sum::<f64>()
            / runs.len() as f64,
    };
    if let Some(t) = tele.filter(|t| t.journal().is_some()) {
        t.event("fig2_config")
            .expect("journal present")
            .int("networks", config.networks as i64)
            .int("links", config.topology.links as i64)
            .int("rounds", config.rounds as i64)
            .str("seed", &format!("{:#x}", config.seed))
            .str(
                "config_hash",
                &format!("{:016x}", rayfade_telemetry::config_hash(config)),
            )
            .write();
        for t_round in 0..config.rounds {
            t.event("fig2_round")
                .expect("journal present")
                .int("round", t_round as i64)
                .num("nonfading", result.nonfading[t_round])
                .num("rayleigh", result.rayleigh[t_round])
                .write();
        }
        let mut ev = t
            .event("fig2_summary")
            .expect("journal present")
            .num(
                "mean_max_regret_nonfading",
                result.mean_max_regret_nonfading,
            )
            .num("mean_max_regret_rayleigh", result.mean_max_regret_rayleigh);
        if let Some(opt) = result.optimum {
            ev = ev.num("optimum", opt);
        }
        ev.write();
        t.flush();
    }
    result
}

/// Computes the paper's Sec. 7 scalar: the mean size of the (reference)
/// optimal feasible set under uniform powers on Figure 1 networks
/// ("we reach on average 49.75 successful transmissions").
pub fn optimum_statistic(config: &Figure1Config, restarts: usize) -> RunningStats {
    (0..config.networks)
        .into_par_iter()
        .map(|net_idx| {
            let net = config.topology.generate(config.seed.wrapping_add(net_idx));
            let gain = GainMatrix::from_geometry(
                &net,
                &PowerAssignment::figure1_uniform(),
                config.params.alpha,
            );
            LocalSearchCapacity {
                restarts,
                seed: config.seed.wrapping_add(net_idx),
                max_sweeps: 50,
            }
            .select(&CapacityInstance::unweighted(&gain, &config.params))
            .len() as f64
        })
        .fold(RunningStats::new, |mut acc, x| {
            acc.push(x);
            acc
        })
        .reduce(RunningStats::new, |mut a, b| {
            a.merge(&b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_smoke_has_four_curves() {
        let res = run_figure1(&Figure1Config::smoke());
        assert_eq!(res.curves.len(), 4);
        for c in &res.curves {
            assert_eq!(c.points.len(), 3);
            for p in &c.points {
                assert!(p.mean >= 0.0 && p.mean <= 20.0, "{}: {p:?}", c.label());
            }
            assert!(c.argmax().is_some());
        }
        let labels: Vec<String> = res.curves.iter().map(Curve::label).collect();
        assert!(labels.contains(&"uniform/rayleigh".to_string()));
        assert!(labels.contains(&"square-root/non-fading".to_string()));
    }

    #[test]
    fn figure1_deterministic() {
        let cfg = Figure1Config::smoke();
        assert_eq!(run_figure1(&cfg), run_figure1(&cfg));
    }

    #[test]
    fn figure2_smoke_series_lengths() {
        let res = run_figure2(&Figure2Config::smoke());
        assert_eq!(res.nonfading.len(), 40);
        assert_eq!(res.rayleigh.len(), 40);
        assert!(res.optimum.unwrap() > 0.0);
        assert!(res.mean_max_regret_nonfading >= 0.0);
        // Learning should reach nontrivial throughput by the end.
        let tail_nf: f64 = res.nonfading[30..].iter().sum::<f64>() / 10.0;
        assert!(tail_nf > 0.0);
    }

    #[test]
    fn analytic_curve_matches_monte_carlo() {
        // The Theorem 1 curve must agree with the sampled Rayleigh curve
        // within Monte Carlo error.
        let mut cfg = Figure1Config::smoke();
        cfg.tx_seeds = 40;
        cfg.fading_seeds = 15;
        let mc = run_figure1(&cfg);
        let analytic = run_figure1_analytic(&cfg, PowerFamily::Uniform);
        let mc_uniform_ray = mc
            .curves
            .iter()
            .find(|c| c.power == PowerFamily::Uniform && c.rayleigh)
            .expect("curve exists");
        for (a, b) in analytic.points.iter().zip(&mc_uniform_ray.points) {
            assert_eq!(a.q, b.q);
            assert!(
                (a.mean - b.mean).abs() < 0.5,
                "q={}: analytic {} vs MC {}",
                a.q,
                a.mean,
                b.mean
            );
        }
    }

    #[test]
    fn telemetry_figures_match_plain_runs() {
        let cfg1 = Figure1Config::smoke();
        let dir = std::env::temp_dir().join("rayfade-sim-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fig1-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap().with_tracing();
        let instrumented = run_figure1_with_telemetry(&cfg1, |_| {}, Some(&tele));
        assert_eq!(run_figure1(&cfg1), instrumented);
        let reg = tele.registry();
        assert_eq!(reg.counter("rayfade_fig1_networks_total").get(), 3);
        // 2 families × 2 models × 3 q values × 3 networks.
        assert_eq!(reg.counter("rayfade_fig1_points_total").get(), 36);
        assert_eq!(reg.histogram("rayfade_fig1_point_seconds").count(), 36);
        let trace = tele.tracer().unwrap().snapshot();
        let spans = |name: &str| trace.records.iter().filter(|r| r.name == name).count();
        assert_eq!(spans("fig1/network"), 3);
        assert_eq!(spans("fig1/point"), 36);
        rayfade_telemetry::trace::validate_chrome_trace(&trace.to_chrome_json())
            .expect("fig1 trace must validate");
        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let count = |kind: &str| {
            events
                .iter()
                .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some(kind))
                .count()
        };
        assert_eq!(count("fig1_config"), 1);
        assert_eq!(count("fig1_point"), 12, "4 curves × 3 q points");
        assert_eq!(count("fig1_argmax"), 4);

        let cfg2 = Figure2Config::smoke();
        let tele2 = Telemetry::new().with_tracing();
        let instrumented2 = run_figure2_with_telemetry(&cfg2, |_| {}, Some(&tele2));
        assert_eq!(run_figure2(&cfg2), instrumented2);
        assert_eq!(
            tele2
                .registry()
                .counter("rayfade_fig2_networks_total")
                .get(),
            2
        );
        assert_eq!(
            tele2.registry().counter("rayfade_fig2_games_total").get(),
            4
        );
        let trace2 = tele2.tracer().unwrap().snapshot();
        assert_eq!(
            trace2
                .records
                .iter()
                .filter(|r| r.name == "fig2/network")
                .count(),
            2
        );
    }

    #[test]
    fn optimum_statistic_positive() {
        let mut cfg = Figure1Config::smoke();
        cfg.networks = 2;
        let stats = optimum_statistic(&cfg, 2);
        assert_eq!(stats.count(), 2);
        assert!(stats.mean() > 0.0);
    }
}
