//! The distributed capacity-maximization game (Sec. 6–7).
//!
//! Every link runs its own no-regret learner over {idle, send}. Each round
//! the chosen actions form a transmission set, the physical model resolves
//! which transmissions succeed, and every learner receives the losses of
//! *both* its actions:
//!
//! * the realized loss of the action it took;
//! * the counterfactual loss of the other action, evaluated against the
//!   same round's interference (deterministically in the non-fading model,
//!   via the same slot's fading draw in the Rayleigh model).
//!
//! Because the game runs against the [`SuccessModel`] abstraction, the
//! identical dynamics execute in both models — which is precisely the
//! comparison Figure 2 of the paper draws.

use crate::regret::RegretTracker;
use crate::reward::{loss, Action};
use crate::rwm::{NoRegretLearner, Rwm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayfade_sinr::SuccessModel;
use rayfade_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Configuration of a game run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Number of rounds `T`.
    pub rounds: usize,
    /// Seed for all action draws.
    pub seed: u64,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            rounds: 100,
            seed: 0x9a3e,
        }
    }
}

/// Per-round and aggregate results of a game run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Number of successful transmissions in each round — the series
    /// Figure 2 plots.
    pub successes_per_round: Vec<usize>,
    /// Number of transmitting links in each round.
    pub transmitters_per_round: Vec<usize>,
    /// Per-link regret statistics.
    pub regret: RegretTracker,
    /// Final mixed strategies (probability of sending) per link.
    pub final_send_probability: Vec<f64>,
}

impl GameOutcome {
    /// Mean successes per round over the last `window` rounds (the
    /// converged throughput Figure 2 eyeballs).
    pub fn converged_successes(&self, window: usize) -> f64 {
        let k = window.min(self.successes_per_round.len()).max(1);
        let tail = &self.successes_per_round[self.successes_per_round.len() - k..];
        tail.iter().sum::<usize>() as f64 / k as f64
    }

    /// Mean successes per round over the entire run.
    pub fn mean_successes(&self) -> f64 {
        if self.successes_per_round.is_empty() {
            return 0.0;
        }
        self.successes_per_round.iter().sum::<usize>() as f64
            / self.successes_per_round.len() as f64
    }
}

/// Runs the capacity game with one RWM learner per link against the SINR
/// threshold `beta`.
///
/// Each round: every learner samples an action; one call to
/// [`SuccessModel::resolve_sinrs`] over the round's transmitters yields,
/// for transmitting links, their realized SINR and, for idle links, the
/// exact counterfactual "had I transmitted" SINR (a link's own signal
/// does not interfere with others, so the interference term is identical
/// either way).
pub fn run_game_with_beta<M: SuccessModel>(
    model: &mut M,
    beta: f64,
    config: &GameConfig,
) -> GameOutcome {
    run_game_instrumented(model, beta, config, None)
}

/// Mean binary entropy (nats) of the learners' mixed strategies — 0 when
/// every link has converged to a pure action, ln 2 at maximum hedging.
fn mean_strategy_entropy(learners: &[Rwm<[f64; 2]>]) -> f64 {
    if learners.is_empty() {
        return 0.0;
    }
    let h = |p: f64| {
        if p <= 0.0 || p >= 1.0 {
            0.0
        } else {
            -p * p.ln() - (1.0 - p) * (1.0 - p).ln()
        }
    };
    learners
        .iter()
        .map(|l| h(l.strategy()[Action::Send.index()]))
        .sum::<f64>()
        / learners.len() as f64
}

/// [`run_game_with_beta`] with optional telemetry: tallies
/// `rayfade_learning_*` counters and journals one `learn_round` event per
/// round (successes, transmitters, running max average regret, mean
/// strategy entropy). All journaled quantities are deterministic given
/// the config, so journals stay byte-reproducible; callers running many
/// games concurrently should pass a metrics-only [`Telemetry`] (journal
/// interleaving across threads is not ordered). `None` is the
/// uninstrumented fast path and the returned outcome is bit-identical
/// either way.
pub fn run_game_instrumented<M: SuccessModel>(
    model: &mut M,
    beta: f64,
    config: &GameConfig,
    tele: Option<&Telemetry>,
) -> GameOutcome {
    let n = model.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut learners: Vec<Rwm<[f64; 2]>> = (0..n).map(|_| Rwm::binary()).collect();
    let mut regret = RegretTracker::new(n);
    let mut successes_per_round = Vec::with_capacity(config.rounds);
    let mut transmitters_per_round = Vec::with_capacity(config.rounds);
    let mut active = vec![false; n];
    let mut transmitters = Vec::with_capacity(n);
    let mut sinrs = vec![0.0; n];
    let tracer = tele.and_then(Telemetry::tracer);
    let round_span = tracer.map(|tr| tr.span_id("learning/round"));
    for round in 0..config.rounds {
        let _round_span = rayfade_telemetry::trace::guard(tracer, round_span);
        transmitters.clear();
        for (i, learner) in learners.iter_mut().enumerate() {
            active[i] = learner.choose(&mut rng) == Action::Send.index();
            if active[i] {
                transmitters.push(i);
            }
        }
        model.resolve_sinrs(&transmitters, &mut sinrs);
        let mut succ_count = 0usize;
        let mut tx_count = 0usize;
        for i in 0..n {
            let would_succeed = sinrs[i] >= beta;
            if active[i] {
                tx_count += 1;
                if would_succeed {
                    succ_count += 1;
                }
            }
            let losses = [
                loss(Action::Idle, would_succeed),
                loss(Action::Send, would_succeed),
            ];
            let taken = if active[i] {
                Action::Send
            } else {
                Action::Idle
            };
            regret.record(i, taken.index(), &losses);
            learners[i].update(&losses);
        }
        successes_per_round.push(succ_count);
        transmitters_per_round.push(tx_count);
        if let Some(t) = tele {
            let reg = t.registry();
            reg.counter("rayfade_learning_rounds_total").inc();
            reg.counter("rayfade_learning_transmissions_total")
                .add(tx_count as u64);
            reg.counter("rayfade_learning_successes_total")
                .add(succ_count as u64);
            if let Some(ev) = t.event("learn_round") {
                ev.int("round", round as i64)
                    .int("successes", succ_count as i64)
                    .int("transmitters", tx_count as i64)
                    .num("max_avg_regret", regret.max_average_regret(round + 1))
                    .num("mean_entropy", mean_strategy_entropy(&learners))
                    .write();
            }
        }
    }
    GameOutcome {
        successes_per_round,
        transmitters_per_round,
        regret,
        final_send_probability: learners
            .iter()
            .map(|l| l.strategy()[Action::Send.index()])
            .collect(),
    }
}

/// Bandit-feedback variant of the capacity game: every link runs Exp3 and
/// observes **only the loss of the action it took** — no counterfactuals.
/// This is the fully distributed information model; ablation A8 compares
/// it with the full-information dynamics.
pub fn run_game_bandit<M: SuccessModel>(
    model: &mut M,
    beta: f64,
    config: &GameConfig,
) -> GameOutcome {
    use crate::exp3::{BanditLearner, Exp3};
    let n = model.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut learners: Vec<Exp3> = (0..n).map(|_| Exp3::binary()).collect();
    let mut regret = RegretTracker::new(n);
    let mut successes_per_round = Vec::with_capacity(config.rounds);
    let mut transmitters_per_round = Vec::with_capacity(config.rounds);
    let mut active = vec![false; n];
    let mut actions = vec![0usize; n];
    let mut transmitters = Vec::with_capacity(n);
    let mut sinrs = vec![0.0; n];
    for _round in 0..config.rounds {
        transmitters.clear();
        for (i, learner) in learners.iter_mut().enumerate() {
            actions[i] = learner.choose(&mut rng);
            active[i] = actions[i] == Action::Send.index();
            if active[i] {
                transmitters.push(i);
            }
        }
        model.resolve_sinrs(&transmitters, &mut sinrs);
        let mut succ_count = 0usize;
        let mut tx_count = 0usize;
        for i in 0..n {
            let would_succeed = sinrs[i] >= beta;
            if active[i] {
                tx_count += 1;
                if would_succeed {
                    succ_count += 1;
                }
            }
            // The regret tracker still records both losses (it is an
            // *observer*, not part of the protocol); the learner only sees
            // its own.
            let losses = [
                loss(Action::Idle, would_succeed),
                loss(Action::Send, would_succeed),
            ];
            regret.record(i, actions[i], &losses);
            learners[i].update(actions[i], losses[actions[i]]);
        }
        successes_per_round.push(succ_count);
        transmitters_per_round.push(tx_count);
    }
    GameOutcome {
        successes_per_round,
        transmitters_per_round,
        regret,
        final_send_probability: learners
            .iter()
            .map(|l| l.strategy()[Action::Send.index()])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_core::RayleighModel;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::{GainMatrix, NonFadingModel, PowerAssignment, SinrParams};

    fn figure2_model(seed: u64, n: usize) -> (GainMatrix, SinrParams) {
        let net = PaperTopology {
            links: n,
            side: 1000.0,
            min_length: 1.0,
            max_length: 100.0,
        }
        .generate(seed);
        let params = SinrParams::figure2();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(2.0), params.alpha);
        (gm, params)
    }

    #[test]
    fn game_runs_and_produces_successes_nonfading() {
        let (gm, params) = figure2_model(1, 40);
        let mut model = NonFadingModel::new(gm, params);
        let out = run_game_with_beta(&mut model, params.beta, &GameConfig::default());
        assert_eq!(out.successes_per_round.len(), 100);
        assert!(out.mean_successes() > 0.0);
        // Convergence: the tail should outperform the opening rounds.
        let head: f64 = out.successes_per_round[..10].iter().sum::<usize>() as f64 / 10.0;
        let tail = out.converged_successes(10);
        assert!(
            tail >= head * 0.8,
            "throughput degraded: head {head}, tail {tail}"
        );
    }

    #[test]
    fn game_runs_under_rayleigh() {
        let (gm, params) = figure2_model(2, 40);
        let mut model = RayleighModel::new(gm, params, 7);
        let out = run_game_with_beta(&mut model, params.beta, &GameConfig::default());
        assert_eq!(out.successes_per_round.len(), 100);
        assert!(out.mean_successes() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (gm, params) = figure2_model(3, 20);
        let cfg = GameConfig {
            rounds: 30,
            seed: 11,
        };
        let a = run_game_with_beta(
            &mut NonFadingModel::new(gm.clone(), params),
            params.beta,
            &cfg,
        );
        let b = run_game_with_beta(&mut NonFadingModel::new(gm, params), params.beta, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn regret_per_round_shrinks_with_horizon() {
        let (gm, params) = figure2_model(4, 25);
        let short = run_game_with_beta(
            &mut NonFadingModel::new(gm.clone(), params),
            params.beta,
            &GameConfig {
                rounds: 16,
                seed: 5,
            },
        );
        let long = run_game_with_beta(
            &mut NonFadingModel::new(gm, params),
            params.beta,
            &GameConfig {
                rounds: 512,
                seed: 5,
            },
        );
        let short_avg = short.regret.max_average_regret(16);
        let long_avg = long.regret.max_average_regret(512);
        assert!(
            long_avg <= short_avg + 0.05,
            "average regret should shrink: {short_avg} -> {long_avg}"
        );
        // The no-regret property: vanishing average regret.
        assert!(long_avg < 0.25, "long-run average regret {long_avg}");
    }

    #[test]
    fn isolated_links_learn_to_send() {
        // Two links with negligible mutual interference: sending always
        // succeeds, so both learners should converge to "send".
        let gm = GainMatrix::from_raw(2, vec![100.0, 1e-9, 1e-9, 100.0]);
        let params = SinrParams::new(2.0, 1.0, 1e-6);
        let mut model = NonFadingModel::new(gm, params);
        let out = run_game_with_beta(
            &mut model,
            params.beta,
            &GameConfig {
                rounds: 200,
                seed: 2,
            },
        );
        for (i, &p) in out.final_send_probability.iter().enumerate() {
            assert!(p > 0.9, "link {i} send probability {p}");
        }
        assert!(out.converged_successes(20) > 1.8);
    }

    #[test]
    fn bandit_game_runs_and_converges_roughly() {
        let (gm, params) = figure2_model(5, 30);
        let mut model = NonFadingModel::new(gm, params);
        let out = run_game_bandit(
            &mut model,
            params.beta,
            &GameConfig {
                rounds: 400,
                seed: 9,
            },
        );
        assert_eq!(out.successes_per_round.len(), 400);
        assert!(out.mean_successes() > 0.0);
        // Bandit feedback is slower but the tail should beat the head.
        let head: f64 = out.successes_per_round[..50].iter().sum::<usize>() as f64 / 50.0;
        let tail = out.converged_successes(50);
        assert!(tail >= head * 0.8, "head {head} tail {tail}");
    }

    #[test]
    fn instrumented_game_matches_plain_and_tallies_metrics() {
        let (gm, params) = figure2_model(6, 25);
        let cfg = GameConfig {
            rounds: 50,
            seed: 13,
        };
        let plain = run_game_with_beta(
            &mut NonFadingModel::new(gm.clone(), params),
            params.beta,
            &cfg,
        );

        let dir = std::env::temp_dir().join("rayfade-learning-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("game-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap().with_tracing();
        let instrumented = run_game_instrumented(
            &mut NonFadingModel::new(gm, params),
            params.beta,
            &cfg,
            Some(&tele),
        );
        assert_eq!(plain, instrumented, "telemetry must not change the game");

        let reg = tele.registry();
        assert_eq!(reg.counter("rayfade_learning_rounds_total").get(), 50);
        assert_eq!(
            reg.counter("rayfade_learning_successes_total").get(),
            plain.successes_per_round.iter().sum::<usize>() as u64
        );
        assert_eq!(
            reg.counter("rayfade_learning_transmissions_total").get(),
            plain.transmitters_per_round.iter().sum::<usize>() as u64
        );
        tele.flush();
        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            events[0].get("kind").and_then(|v| v.as_str()),
            Some("schema"),
            "journal must open with the schema header"
        );
        let rounds = events
            .iter()
            .filter(|e| e.get("kind").and_then(|v| v.as_str()) == Some("learn_round"))
            .count();
        assert_eq!(rounds, 50, "one learn_round event per round");
        let trace = tele.tracer().unwrap().snapshot();
        assert_eq!(trace.dropped, 0);
        assert_eq!(
            trace
                .records
                .iter()
                .filter(|r| r.name == "learning/round")
                .count(),
            50,
            "one learning/round span per round"
        );
        let last = events.last().unwrap();
        assert_eq!(
            last.get("max_avg_regret").and_then(|v| v.as_f64()),
            Some(plain.regret.max_average_regret(50)),
            "journaled regret must match the tracker"
        );
        let entropy = last.get("mean_entropy").and_then(|v| v.as_f64()).unwrap();
        assert!((0.0..=std::f64::consts::LN_2 + 1e-12).contains(&entropy));
    }

    #[test]
    fn hopeless_links_learn_to_stay_idle() {
        // A link that can never succeed (huge noise) should learn idle:
        // sending always loses 1, idling loses 0.5.
        let gm = GainMatrix::from_raw(1, vec![0.1]);
        let params = SinrParams::new(2.0, 10.0, 10.0);
        let mut model = NonFadingModel::new(gm, params);
        let out = run_game_with_beta(
            &mut model,
            params.beta,
            &GameConfig {
                rounds: 300,
                seed: 3,
            },
        );
        assert!(
            out.final_send_probability[0] < 0.1,
            "send probability {}",
            out.final_send_probability[0]
        );
    }
}
