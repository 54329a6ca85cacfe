//! Distributed channel selection via no-regret learning.
//!
//! The natural multi-channel generalization of the Sec. 6 game: every link
//! now has `C + 1` actions — stay idle, or transmit on one of `C`
//! orthogonal channels. Links on different channels do not interfere.
//! Rewards stay the paper's: success `+1`, failure `−1`, idle `0`
//! (loss form 0 / 1 / 0.5); every learner is the same RWM instance the
//! binary game uses, just over a larger action set — full-information
//! counterfactuals are evaluated per channel.
//!
//! Rather than depending on a specific channel model, the game takes one
//! [`SuccessModel`] *per channel* (orthogonality = independent models over
//! the same gain matrix), so it runs under the non-fading, Rayleigh, or
//! Nakagami channel alike.

use crate::rwm::{NoRegretLearner, Rwm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayfade_sinr::SuccessModel;
use serde::{Deserialize, Serialize};

/// Configuration of a multichannel game run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultichannelGameConfig {
    /// Number of rounds.
    pub rounds: usize,
    /// RNG seed for action draws.
    pub seed: u64,
}

impl Default for MultichannelGameConfig {
    fn default() -> Self {
        MultichannelGameConfig {
            rounds: 200,
            seed: 0xc4a2,
        }
    }
}

/// Outcome of a multichannel game run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultichannelGameOutcome {
    /// Successful transmissions per round (all channels combined).
    pub successes_per_round: Vec<usize>,
    /// Final per-link probability of *transmitting* (on any channel).
    pub final_send_probability: Vec<f64>,
    /// Final most-likely channel per link (`None` = idle dominates).
    pub preferred_channel: Vec<Option<usize>>,
    /// Mean per-round load imbalance across channels (max/mean − 1,
    /// 0 = perfectly balanced transmitters).
    pub mean_imbalance: f64,
}

/// Runs the multichannel capacity game. `models[c]` resolves slots on
/// channel `c`; all models must have the same number of links.
///
/// Action encoding per learner: `0` = idle, `1 + c` = transmit on
/// channel `c`. Losses: idle `0.5`; transmit on `c`: `0` on success,
/// `1` on failure — with the counterfactual for every channel evaluated
/// against that channel's interference this round.
pub fn run_game_multichannel<M: SuccessModel>(
    models: &mut [M],
    beta: f64,
    config: &MultichannelGameConfig,
) -> MultichannelGameOutcome {
    let channels = models.len();
    assert!(channels >= 1, "need at least one channel");
    let n = models[0].len();
    assert!(
        models.iter().all(|m| m.len() == n),
        "all channel models must cover the same links"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut learners: Vec<Rwm> = (0..n).map(|_| Rwm::new(channels + 1)).collect();
    let mut successes_per_round = Vec::with_capacity(config.rounds);
    let mut imbalance_acc = 0.0f64;
    let mut actions = vec![0usize; n];
    // Each channel's transmitters, ascending, and its links' SINRs.
    let mut channel_tx: Vec<Vec<usize>> = vec![Vec::new(); channels];
    let mut losses = vec![0.0f64; channels + 1];
    let mut channel_sinrs: Vec<Vec<f64>> = vec![vec![0.0; n]; channels];
    for _round in 0..config.rounds {
        for tx in &mut channel_tx {
            tx.clear();
        }
        for (i, learner) in learners.iter_mut().enumerate() {
            actions[i] = learner.choose(&mut rng);
            if actions[i] > 0 {
                channel_tx[actions[i] - 1].push(i);
            }
        }
        for ((model, tx), sinrs) in models.iter_mut().zip(&channel_tx).zip(&mut channel_sinrs) {
            model.resolve_sinrs(tx, sinrs);
        }
        let mut succ = 0usize;
        let mut per_channel_tx = vec![0usize; channels];
        for i in 0..n {
            losses[0] = 0.5;
            for c in 0..channels {
                let ok = channel_sinrs[c][i] >= beta;
                losses[1 + c] = if ok { 0.0 } else { 1.0 };
            }
            if actions[i] > 0 {
                per_channel_tx[actions[i] - 1] += 1;
                if losses[actions[i]] == 0.0 {
                    succ += 1;
                }
            }
            learners[i].update(&losses);
        }
        successes_per_round.push(succ);
        let total_tx: usize = per_channel_tx.iter().sum();
        if total_tx > 0 {
            let mean = total_tx as f64 / channels as f64;
            let max = *per_channel_tx.iter().max().expect("non-empty") as f64;
            imbalance_acc += max / mean - 1.0;
        }
    }
    let final_send_probability: Vec<f64> = learners.iter().map(|l| 1.0 - l.strategy()[0]).collect();
    let preferred_channel: Vec<Option<usize>> = learners
        .iter()
        .map(|l| {
            let s = l.strategy();
            let (best, &p) = s
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("non-empty");
            if best == 0 || p <= s[0] {
                None
            } else {
                Some(best - 1)
            }
        })
        .collect();
    MultichannelGameOutcome {
        successes_per_round,
        final_send_probability,
        preferred_channel,
        mean_imbalance: if config.rounds > 0 {
            imbalance_acc / config.rounds as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_core::RayleighModel;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams};

    fn figure2_gain(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            ..PaperTopology::figure2()
        }
        .generate(seed);
        let params = SinrParams::figure2();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(2.0), params.alpha);
        (gm, params)
    }

    #[test]
    fn more_channels_more_throughput_nonfading() {
        let (gm, params) = figure2_gain(1, 60);
        let run = |c: usize| -> f64 {
            let mut models: Vec<NonFadingModel> = (0..c)
                .map(|_| NonFadingModel::new(gm.clone(), params))
                .collect();
            let out = run_game_multichannel(
                &mut models,
                params.beta,
                &MultichannelGameConfig {
                    rounds: 300,
                    seed: 5,
                },
            );
            let tail = &out.successes_per_round[240..];
            tail.iter().sum::<usize>() as f64 / tail.len() as f64
        };
        let c1 = run(1);
        let c3 = run(3);
        assert!(
            c3 > c1 * 1.3,
            "3 channels ({c3}) should clearly beat 1 ({c1})"
        );
    }

    #[test]
    fn single_channel_reduces_to_binary_game_behaviour() {
        // Isolated links: everyone learns to transmit.
        let gm = GainMatrix::from_raw(2, vec![100.0, 1e-9, 1e-9, 100.0]);
        let params = SinrParams::new(2.0, 1.0, 1e-6);
        let mut models = vec![NonFadingModel::new(gm, params)];
        let out = run_game_multichannel(
            &mut models,
            params.beta,
            &MultichannelGameConfig {
                rounds: 300,
                seed: 2,
            },
        );
        for (i, &p) in out.final_send_probability.iter().enumerate() {
            assert!(p > 0.85, "link {i} send probability {p}");
        }
        for pc in &out.preferred_channel {
            assert_eq!(*pc, Some(0));
        }
    }

    #[test]
    fn hostile_pair_splits_across_two_channels() {
        // Two links that destroy each other on a shared channel learn to
        // occupy different channels.
        let gm = GainMatrix::from_raw(2, vec![10.0, 50.0, 50.0, 10.0]);
        let params = SinrParams::new(2.0, 1.0, 0.0);
        let mut models: Vec<NonFadingModel> = (0..2)
            .map(|_| NonFadingModel::new(gm.clone(), params))
            .collect();
        let out = run_game_multichannel(
            &mut models,
            params.beta,
            &MultichannelGameConfig {
                rounds: 800,
                seed: 3,
            },
        );
        let a = out.preferred_channel[0];
        let b = out.preferred_channel[1];
        assert!(
            a.is_some() && b.is_some(),
            "both should transmit: {a:?} {b:?}"
        );
        assert_ne!(a, b, "they must split channels");
        // Near-perfect throughput at the end.
        let tail = &out.successes_per_round[700..];
        let mean = tail.iter().sum::<usize>() as f64 / tail.len() as f64;
        assert!(mean > 1.6, "converged throughput {mean}");
    }

    #[test]
    fn runs_under_rayleigh() {
        let (gm, params) = figure2_gain(4, 30);
        let mut models: Vec<RayleighModel> = (0..2)
            .map(|c| RayleighModel::new(gm.clone(), params, 100 + c as u64))
            .collect();
        let out = run_game_multichannel(
            &mut models,
            params.beta,
            &MultichannelGameConfig {
                rounds: 150,
                seed: 9,
            },
        );
        assert_eq!(out.successes_per_round.len(), 150);
        assert!(out.mean_imbalance >= 0.0);
        assert!(out.successes_per_round.iter().any(|&s| s > 0));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let mut models: Vec<NonFadingModel> = Vec::new();
        let _ = run_game_multichannel(&mut models, 1.0, &MultichannelGameConfig::default());
    }
}
