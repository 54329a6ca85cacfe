//! Cross-model consistency checks: the analytic layer (Theorem 1 closed
//! form, SINR CCDF, quadrature utilities) must agree with the sampled
//! channels, and the channel family must be coherent (Nakagami m=1 ≡
//! Rayleigh, m→∞ → non-fading).

use rayfade::fading::{expected_utility_exact, sinr_ccdf, NakagamiModel, QuadratureConfig};
use rayfade::prelude::*;

fn paper_case(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
    let net = PaperTopology {
        links: n,
        ..PaperTopology::figure1()
    }
    .generate(seed);
    let params = SinrParams::figure1();
    let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
    (gm, params)
}

#[test]
fn ccdf_matches_empirical_distribution() {
    let (gm, params) = paper_case(1, 8);
    let set: Vec<usize> = (0..8).collect();
    let mut model = RayleighModel::new(gm.clone(), params, 7);
    let trials = 40_000;
    // Empirical CCDF of link 0's SINR at a few levels vs the closed form.
    let levels = [0.5, 1.0, 2.5, 5.0, 10.0];
    let mut hits = [0usize; 5];
    let mut sinrs = vec![0.0; 8];
    for _ in 0..trials {
        SuccessModel::resolve_sinrs(&mut model, &set, true, &mut sinrs);
        for (k, &x) in levels.iter().enumerate() {
            if sinrs[0] >= x {
                hits[k] += 1;
            }
        }
    }
    for (k, &x) in levels.iter().enumerate() {
        let emp = hits[k] as f64 / trials as f64;
        let analytic = sinr_ccdf(&gm, params.noise, &set, 0, x);
        assert!(
            (emp - analytic).abs() < 0.01,
            "level {x}: empirical {emp} vs analytic {analytic}"
        );
    }
}

#[test]
fn quadrature_expected_successes_match_theorem1() {
    // Integrating the binary utility must recover Sigma Q_i.
    let (gm, params) = paper_case(2, 10);
    let set: Vec<usize> = (0..10).collect();
    let u = BinaryUtility::new(params.beta);
    let quad_total: f64 = set
        .iter()
        .map(|&i| {
            expected_utility_exact(&gm, params.noise, &set, i, &u, &QuadratureConfig::default())
        })
        .sum();
    let theorem1 = rayfade::fading::expected_successes_of_set(&gm, &params, &set);
    assert!(
        (quad_total - theorem1).abs() < 0.05,
        "quadrature {quad_total} vs Theorem 1 {theorem1}"
    );
}

#[test]
fn nakagami_family_is_coherent() {
    let (gm, params) = paper_case(3, 12);
    let mask = vec![true; 12];
    let trials = 20_000;
    let mean_rate = |m: Option<f64>, seed: u64| -> f64 {
        match m {
            Some(m) => {
                let mut model = NakagamiModel::new(gm.clone(), params, m, seed);
                (0..trials)
                    .map(|_| model.resolve_slot(&mask).len())
                    .sum::<usize>() as f64
                    / trials as f64
            }
            None => {
                let mut model = RayleighModel::new(gm.clone(), params, seed);
                (0..trials)
                    .map(|_| SuccessModel::resolve_slot(&mut model, &mask).len())
                    .sum::<usize>() as f64
                    / trials as f64
            }
        }
    };
    let rayleigh = mean_rate(None, 10);
    let naka1 = mean_rate(Some(1.0), 11);
    assert!(
        (rayleigh - naka1).abs() < 0.15,
        "m=1 ({naka1}) must match Rayleigh ({rayleigh})"
    );
    // Interpolation toward non-fading.
    let naka4 = mean_rate(Some(4.0), 12);
    let nonfading = rayfade::sinr::count_successes(&gm, &params, &mask) as f64;
    assert!(
        (naka4 - nonfading).abs() < (naka1 - nonfading).abs(),
        "m=4 ({naka4}) must sit closer to non-fading ({nonfading}) than m=1 ({naka1})"
    );
}

#[test]
fn analytic_figure1_curve_matches_sampled_curve() {
    let cfg = Figure1Config {
        networks: 4,
        topology: PaperTopology {
            links: 40,
            ..PaperTopology::figure1()
        },
        q_grid: vec![0.3, 0.8],
        tx_seeds: 30,
        fading_seeds: 10,
        ..Figure1Config::default()
    };
    let sampled = rayfade::sim::run_figure1(&cfg);
    let analytic = rayfade::sim::run_figure1_analytic(&cfg, rayfade::sim::PowerFamily::Uniform);
    let mc = sampled
        .curves
        .iter()
        .find(|c| c.rayleigh && c.power == rayfade::sim::PowerFamily::Uniform)
        .unwrap();
    for (a, b) in analytic.points.iter().zip(&mc.points) {
        assert!(
            (a.mean - b.mean).abs() < 0.6,
            "q {}: analytic {} vs sampled {}",
            a.q,
            a.mean,
            b.mean
        );
    }
}

#[test]
fn spectral_threshold_consistent_with_greedy_feasibility() {
    // Any feasible set under threshold beta must have spectral max
    // threshold >= beta (power control can only help).
    let (gm, params) = paper_case(4, 30);
    let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
    let beta_star = rayfade::sinr::max_feasible_threshold(&gm, &set);
    assert!(
        beta_star >= params.beta,
        "spectral threshold {beta_star} below operating beta {}",
        params.beta
    );
}
