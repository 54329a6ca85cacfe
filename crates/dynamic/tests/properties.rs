//! Property tests for the dynamic subsystem: structural invariants that
//! must hold for *any* seed, not just the pinned ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_dynamic::{
    judge_cell, ArrivalProcess, Backlogs, DynamicConfig, DynamicEngine, ObservedSlot, OnlinePolicy,
    PolicyKind, QueueAloha, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sched::AlohaPolicy;
use rayfade_sinr::SinrParams;

fn config(links: usize, slots: u64, rate: f64, side: f64, seed: u64) -> DynamicConfig {
    DynamicConfig {
        links,
        networks: 1,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::NonFading,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 25,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a zero arrival rate nothing ever queues: no offered load, no
    /// throughput, an all-zero backlog trace — for every policy, model,
    /// and seed.
    #[test]
    fn zero_arrivals_mean_empty_queues(seed in any::<u64>(), links in 2usize..10) {
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                let cfg = DynamicConfig {
                    policy,
                    model,
                    ..config(links, 500, 0.0, 400.0, seed)
                };
                let outcomes = DynamicEngine::new(cfg).run();
                for o in &outcomes {
                    prop_assert_eq!(o.offered_per_link, 0.0);
                    prop_assert_eq!(o.throughput_per_link, 0.0);
                    prop_assert_eq!(o.final_backlog_per_link, 0.0);
                    prop_assert!(o.trace.total_backlog.iter().all(|&b| b == 0));
                    prop_assert_eq!(o.mean_delay, None);
                }
            }
        }
    }

    /// Throughput can never exceed the offered load.
    #[test]
    fn throughput_bounded_by_offered(seed in any::<u64>(), rate in 0.05f64..0.5) {
        let cfg = config(6, 600, rate, 300.0, seed);
        for o in DynamicEngine::new(cfg).run() {
            prop_assert!(o.throughput_per_link <= o.offered_per_link + 1e-12);
        }
    }

    /// A two-link toy offered λ = 1.5 packets/slot/link (batches of 3,
    /// half the slots) can never be served — a link delivers at most one
    /// packet per slot — so the drift detector must flag instability for
    /// every seed and geometry.
    #[test]
    fn overloaded_two_link_toy_is_unstable(seed in any::<u64>()) {
        let cfg = DynamicConfig {
            arrival: ArrivalProcess::Batch { rate: 1.5, batch: 3 },
            ..config(2, 2_000, 0.0, 100.0, seed)
        };
        let outcomes = DynamicEngine::new(cfg.clone()).run();
        let cell = judge_cell(cfg.policy, cfg.model, 1.5, cfg.links, &outcomes);
        prop_assert!(
            !cell.verdict.is_stable(),
            "drift {} unexpectedly under threshold",
            cell.drift
        );
    }
}

/// Queue-gated ALOHA as a loop over every link: each link with a nonempty
/// queue draws once, in link order, at the probability its policy assigns
/// it, and `Backoff` feedback scans every link. `QueueAloha`, which walks
/// the backlog index instead, must reproduce it draw for draw.
struct ReferenceAloha {
    policy: AlohaPolicy,
    backoff_prob: Vec<f64>,
    step: u64,
}

impl ReferenceAloha {
    fn new(policy: AlohaPolicy, n: usize) -> Self {
        let backoff_prob = match &policy {
            AlohaPolicy::Backoff { init, .. } => vec![*init; n],
            _ => Vec::new(),
        };
        ReferenceAloha {
            policy,
            backoff_prob,
            step: 0,
        }
    }

    fn probability(&self, i: usize, contenders: usize) -> f64 {
        let q = match &self.policy {
            AlohaPolicy::Fixed(q) => *q,
            AlohaPolicy::InversePending { c, cap } => (c / contenders.max(1) as f64).min(*cap),
            AlohaPolicy::Backoff { .. } => self.backoff_prob[i],
            AlohaPolicy::Sawtooth { levels } => {
                let level = (self.step % u64::from(*levels)) + 1;
                0.5f64.powi(level as i32)
            }
        };
        q.clamp(0.0, 1.0)
    }

    fn choose(&mut self, backlogs: &[u64], rng: &mut StdRng) -> Vec<bool> {
        let contenders = backlogs.iter().filter(|&&b| b > 0).count();
        let mask = backlogs
            .iter()
            .enumerate()
            .map(|(i, &b)| b > 0 && rng.gen_bool(self.probability(i, contenders)))
            .collect();
        self.step += 1;
        mask
    }

    fn observe(&mut self, active: &[bool], successes: &[bool]) {
        if let AlohaPolicy::Backoff {
            init,
            factor,
            floor,
        } = &self.policy
        {
            for i in 0..active.len() {
                if successes[i] {
                    self.backoff_prob[i] = *init;
                } else if active[i] {
                    self.backoff_prob[i] = (self.backoff_prob[i] * factor).max(*floor);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random backlogs and random delivery feedback, every ALOHA
    /// variant chooses the same links as the per-link reference loop and
    /// leaves the policy RNG in the same state, slot after slot.
    #[test]
    fn aloha_backlog_walk_matches_per_link_loop(
        kind in 0u8..4,
        p in 0.0f64..=1.0,
        links in 1usize..200,
        busy in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let policy = match kind {
            0 => AlohaPolicy::Fixed(p),
            1 => AlohaPolicy::InversePending { c: 4.0 * p, cap: 0.5 + p / 2.0 },
            2 => AlohaPolicy::Backoff { init: p, factor: 0.5, floor: 0.02 },
            _ => AlohaPolicy::Sawtooth { levels: 1 + (p * 6.0) as u32 },
        };
        let mut reference = ReferenceAloha::new(policy.clone(), links);
        let mut walk = QueueAloha::new(policy, links);
        let mut inputs = StdRng::seed_from_u64(seed);
        let mut rng_reference = StdRng::seed_from_u64(seed ^ 0xa10a);
        let mut rng_walk = rng_reference.clone();
        let mut chosen = Vec::new();
        for _ in 0..12 {
            let backlogs: Vec<u64> = (0..links)
                .map(|_| if inputs.gen_bool(busy) { inputs.gen_range(1u64..5) } else { 0 })
                .collect();
            let mask = reference.choose(&backlogs, &mut rng_reference);
            walk.choose_into(&Backlogs::from_slice(&backlogs), &mut rng_walk, None, &mut chosen);
            let want: Vec<usize> = (0..links).filter(|&i| mask[i]).collect();
            prop_assert_eq!(&chosen, &want);
            prop_assert_eq!(&rng_walk, &rng_reference);

            let successes: Vec<bool> = mask.iter().map(|&on| on && inputs.gen_bool(0.5)).collect();
            reference.observe(&mask, &successes);
            walk.observe(&ObservedSlot {
                active: &mask,
                would_succeed: &successes,
                successes: &successes,
            });
        }
    }
}
