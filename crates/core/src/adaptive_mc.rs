//! Adaptive Monte Carlo estimation with confidence-interval stopping.
//!
//! Fixed-trial Monte Carlo (as in [`crate::transfer::transfer_utility_mc`])
//! forces the caller to guess a trial count; too few gives noisy answers,
//! too many wastes time. This estimator runs in batches and stops when the
//! ~95% confidence half-width of the running mean drops below the target —
//! or when the trial cap is hit, in which case the (wider) interval is
//! reported honestly.

use rayfade_sinr::{set_from_mask, SuccessModel, UtilityFunction};
use serde::{Deserialize, Serialize};

/// Stopping rule for [`estimate_expected_utility`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Target half-width of the ~95% confidence interval (absolute).
    pub target_ci: f64,
    /// Trials per batch between stopping checks.
    pub batch: usize,
    /// Hard cap on total trials.
    pub max_trials: usize,
    /// Minimum trials before the first stopping check (avoids lucky
    /// early stops on tiny samples).
    pub min_trials: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_ci: 0.1,
            batch: 200,
            max_trials: 200_000,
            min_trials: 400,
        }
    }
}

/// Result of an adaptive estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveEstimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the ~95% normal confidence interval.
    pub ci95: f64,
    /// Trials actually executed.
    pub trials: usize,
    /// Whether the target precision was reached before the cap.
    pub converged: bool,
}

/// Estimates the expected total utility of transmitting `mask` under the
/// given (stochastic) model, stopping adaptively.
pub fn estimate_expected_utility<M: SuccessModel, U: UtilityFunction>(
    model: &mut M,
    mask: &[bool],
    utility: &U,
    config: &AdaptiveConfig,
) -> AdaptiveEstimate {
    assert!(config.target_ci > 0.0, "target CI must be positive");
    assert!(config.batch > 0 && config.max_trials >= config.min_trials);
    let transmitters = set_from_mask(mask);
    let mut sinrs = vec![0.0; model.len()];
    let mut n = 0u64;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    loop {
        for _ in 0..config.batch {
            model.resolve_sinrs(&transmitters, &mut sinrs);
            let total: f64 = transmitters
                .iter()
                .map(|&i| utility.value(i, sinrs[i]))
                .sum();
            n += 1;
            let delta = total - mean;
            mean += delta / n as f64;
            m2 += delta * (total - mean);
        }
        let trials = n as usize;
        let ci = if n >= 2 {
            1.96 * (m2 / (n - 1) as f64 / n as f64).sqrt()
        } else {
            f64::INFINITY
        };
        if trials >= config.min_trials && ci <= config.target_ci {
            return AdaptiveEstimate {
                mean,
                ci95: ci,
                trials,
                converged: true,
            };
        }
        if trials >= config.max_trials {
            return AdaptiveEstimate {
                mean,
                ci95: ci,
                trials,
                converged: false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RayleighModel;
    use crate::success::expected_successes_of_set;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{BinaryUtility, GainMatrix, PowerAssignment, SinrParams};

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
    fn converges_to_theorem1_value() {
        let (gm, params) = paper_case(1, 20);
        let set: Vec<usize> = (0..20).collect();
        let mask = vec![true; 20];
        let mut model = RayleighModel::new(gm.clone(), params, 5);
        let est = estimate_expected_utility(
            &mut model,
            &mask,
            &BinaryUtility::new(params.beta),
            &AdaptiveConfig {
                target_ci: 0.05,
                ..AdaptiveConfig::default()
            },
        );
        assert!(est.converged, "should reach target within cap");
        let analytic = expected_successes_of_set(&gm, &params, &set);
        assert!(
            (est.mean - analytic).abs() <= 3.0 * est.ci95.max(0.02),
            "estimate {} +/- {} vs analytic {analytic}",
            est.mean,
            est.ci95
        );
    }

    #[test]
    fn tighter_target_needs_more_trials() {
        let (gm, params) = paper_case(2, 15);
        let mask = vec![true; 15];
        let run = |target: f64| -> usize {
            let mut model = RayleighModel::new(gm.clone(), params, 7);
            estimate_expected_utility(
                &mut model,
                &mask,
                &BinaryUtility::new(params.beta),
                &AdaptiveConfig {
                    target_ci: target,
                    ..AdaptiveConfig::default()
                },
            )
            .trials
        };
        assert!(run(0.02) > run(0.2));
    }

    #[test]
    fn cap_reported_as_not_converged() {
        let (gm, params) = paper_case(3, 10);
        let mask = vec![true; 10];
        let mut model = RayleighModel::new(gm, params, 9);
        let est = estimate_expected_utility(
            &mut model,
            &mask,
            &BinaryUtility::new(params.beta),
            &AdaptiveConfig {
                target_ci: 1e-9, // unreachable
                batch: 50,
                max_trials: 500,
                min_trials: 100,
            },
        );
        assert!(!est.converged);
        assert_eq!(est.trials, 500);
        assert!(est.ci95 > 1e-9);
    }

    #[test]
    fn deterministic_outcome_stops_immediately_after_min() {
        // Utility of an empty mask is always 0: zero variance.
        let (gm, params) = paper_case(4, 5);
        let mask = vec![false; 5];
        let mut model = RayleighModel::new(gm, params, 1);
        let est = estimate_expected_utility(
            &mut model,
            &mask,
            &BinaryUtility::new(params.beta),
            &AdaptiveConfig {
                target_ci: 0.01,
                batch: 100,
                max_trials: 10_000,
                min_trials: 200,
            },
        );
        assert!(est.converged);
        assert_eq!(est.mean, 0.0);
        assert!(est.trials <= 300);
    }
}
