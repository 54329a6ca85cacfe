//! Seeded per-link packet-arrival processes.
//!
//! The stability experiments compare policies under *identical* traffic:
//! every (policy, model) cell must see byte-identical arrival sequences so
//! that throughput differences are attributable to the policy, not the
//! draw. The engine therefore gives each link its own arrival stream
//! driven by an RNG derived **only** from `(seed, link)` — never from the
//! policy or the success model.
//!
//! All processes are parameterized by their mean rate λ (packets per slot
//! per link), so a λ sweep changes offered load without changing the
//! burstiness structure.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A stationary arrival process with mean rate λ packets/slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// One packet with probability λ each slot (i.i.d.).
    Bernoulli {
        /// Mean arrival rate λ ∈ [0, 1].
        rate: f64,
    },
    /// A batch of `batch` packets with probability λ/`batch` each slot —
    /// same mean as `Bernoulli`, burstier sample paths.
    Batch {
        /// Mean arrival rate λ (packets per slot).
        rate: f64,
        /// Packets per batch (≥ 1).
        batch: u32,
    },
    /// Markov-modulated ON/OFF arrivals: a two-state chain with mean ON
    /// sojourn `burst` slots; in ON, one packet arrives per slot with a
    /// probability chosen so the *stationary* mean is exactly λ. Models
    /// bursty traffic whose time-average load still equals λ.
    MarkovBurst {
        /// Stationary mean arrival rate λ ∈ [0, 1).
        rate: f64,
        /// Mean number of consecutive ON slots (≥ 1.0).
        burst: f64,
    },
}

impl ArrivalProcess {
    /// The process's mean arrival rate λ.
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Bernoulli { rate }
            | ArrivalProcess::Batch { rate, .. }
            | ArrivalProcess::MarkovBurst { rate, .. } => rate,
        }
    }

    /// The same process shape with a different mean rate — the λ-sweep
    /// primitive.
    #[must_use]
    pub fn with_rate(&self, rate: f64) -> Self {
        let mut p = self.clone();
        match &mut p {
            ArrivalProcess::Bernoulli { rate: r }
            | ArrivalProcess::Batch { rate: r, .. }
            | ArrivalProcess::MarkovBurst { rate: r, .. } => *r = rate,
        }
        p
    }

    /// Creates the per-link stateful sampler.
    ///
    /// # Panics
    /// On parameters outside their documented domains.
    pub fn sampler(&self) -> ArrivalSample {
        match *self {
            ArrivalProcess::Bernoulli { rate } => {
                assert!(
                    (0.0..=1.0).contains(&rate),
                    "Bernoulli rate must be in [0, 1]"
                );
                ArrivalSample::Bernoulli { rate }
            }
            ArrivalProcess::Batch { rate, batch } => {
                assert!(batch >= 1, "batch size must be at least 1");
                let p = rate / f64::from(batch);
                assert!(
                    (0.0..=1.0).contains(&p),
                    "Batch rate/batch must be in [0, 1]"
                );
                ArrivalSample::Batch { prob: p, batch }
            }
            ArrivalProcess::MarkovBurst { rate, burst } => {
                assert!(
                    (0.0..1.0).contains(&rate),
                    "MarkovBurst rate must be in [0, 1)"
                );
                assert!(burst >= 1.0, "mean burst length must be at least 1");
                if rate == 0.0 {
                    // Degenerate: never enters ON.
                    return ArrivalSample::Markov {
                        on: false,
                        p_on_arrival: 0.0,
                        p_enter: 0.0,
                        p_exit: 1.0 / burst,
                    };
                }
                // In ON, arrive w.p. `a`; stationary P(ON) = rate / a.
                // Doubling concentration (a = 2λ, capped at 1) gives a
                // genuinely bursty path while keeping the mean exact.
                let a = (2.0 * rate).min(1.0);
                let pi_on = (rate / a).min(1.0 - 1e-9);
                let p_exit = 1.0 / burst;
                // π = p_enter / (p_enter + p_exit)  ⇒  solve for p_enter.
                let p_enter = (pi_on * p_exit / (1.0 - pi_on)).min(1.0);
                ArrivalSample::Markov {
                    on: false,
                    p_on_arrival: a,
                    p_enter,
                    p_exit,
                }
            }
        }
    }
}

/// Stateful per-link sampler created by [`ArrivalProcess::sampler`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSample {
    /// i.i.d. single arrivals.
    Bernoulli {
        /// Per-slot arrival probability.
        rate: f64,
    },
    /// i.i.d. batched arrivals.
    Batch {
        /// Per-slot batch probability.
        prob: f64,
        /// Packets per batch.
        batch: u32,
    },
    /// ON/OFF modulated arrivals.
    Markov {
        /// Current chain state.
        on: bool,
        /// Arrival probability while ON.
        p_on_arrival: f64,
        /// OFF → ON transition probability.
        p_enter: f64,
        /// ON → OFF transition probability.
        p_exit: f64,
    },
}

impl ArrivalSample {
    /// Draws the number of packets arriving this slot.
    pub fn draw(&mut self, rng: &mut StdRng) -> u32 {
        match self {
            ArrivalSample::Bernoulli { rate } => u32::from(rng.gen_bool(*rate)),
            ArrivalSample::Batch { prob, batch } => {
                if rng.gen_bool(*prob) {
                    *batch
                } else {
                    0
                }
            }
            ArrivalSample::Markov {
                on,
                p_on_arrival,
                p_enter,
                p_exit,
            } => u32::from(markov_step(on, *p_on_arrival, *p_enter, *p_exit, rng)),
        }
    }
}

/// One slot of an ON/OFF chain: transition first, then sample in the
/// (possibly new) state — sojourn times are geometric with the stated
/// means either way. Returns whether a packet arrives.
fn markov_step(
    on: &mut bool,
    p_on_arrival: f64,
    p_enter: f64,
    p_exit: f64,
    rng: &mut StdRng,
) -> bool {
    *on = if *on {
        !rng.gen_bool(p_exit)
    } else {
        rng.gen_bool(p_enter)
    };
    *on && rng.gen_bool(p_on_arrival)
}

/// Every link's arrival stream in one replication: a generator per link
/// and, for Markov arrivals, each link's chain state. A slot's draws are
/// bit-identical to one [`ArrivalSample::draw`] per link, in link order,
/// but the process is matched once per slot rather than once per link.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalStreams {
    /// The process parameters (a Markov template's own state is unused).
    sample: ArrivalSample,
    rngs: Vec<StdRng>,
    /// Per-link ON/OFF state; empty unless the process is Markov.
    on: Vec<bool>,
}

impl ArrivalStreams {
    /// One stream per generator in `rngs` (link `i` draws from
    /// `rngs[i]`), all following `process`.
    ///
    /// # Panics
    /// On parameters outside their documented domains (see
    /// [`ArrivalProcess::sampler`]).
    pub(crate) fn new(process: &ArrivalProcess, rngs: Vec<StdRng>) -> Self {
        let sample = process.sampler();
        let on = match sample {
            ArrivalSample::Markov { on, .. } => vec![on; rngs.len()],
            ArrivalSample::Bernoulli { .. } | ArrivalSample::Batch { .. } => Vec::new(),
        };
        ArrivalStreams { sample, rngs, on }
    }

    /// Draws one slot on every link: clears `arrivals`, then appends
    /// `(link, packets)` for each link that receives packets, in link
    /// order.
    pub(crate) fn draw_slot(&mut self, arrivals: &mut Vec<(usize, u32)>) {
        arrivals.clear();
        match self.sample {
            ArrivalSample::Bernoulli { rate } => {
                for (i, rng) in self.rngs.iter_mut().enumerate() {
                    if rng.gen_bool(rate) {
                        arrivals.push((i, 1));
                    }
                }
            }
            ArrivalSample::Batch { prob, batch } => {
                for (i, rng) in self.rngs.iter_mut().enumerate() {
                    if rng.gen_bool(prob) {
                        arrivals.push((i, batch));
                    }
                }
            }
            ArrivalSample::Markov {
                p_on_arrival,
                p_enter,
                p_exit,
                ..
            } => {
                let links = self.rngs.iter_mut().zip(&mut self.on).enumerate();
                for (i, (rng, on)) in links {
                    if markov_step(on, p_on_arrival, p_enter, p_exit, rng) {
                        arrivals.push((i, 1));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn empirical_rate(process: &ArrivalProcess, slots: usize, seed: u64) -> f64 {
        let mut s = process.sampler();
        let mut rng = StdRng::seed_from_u64(seed);
        let total: u64 = (0..slots).map(|_| u64::from(s.draw(&mut rng))).sum();
        total as f64 / slots as f64
    }

    #[test]
    fn bernoulli_mean_matches_rate() {
        let p = ArrivalProcess::Bernoulli { rate: 0.3 };
        let r = empirical_rate(&p, 200_000, 1);
        assert!((r - 0.3).abs() < 0.01, "empirical {r}");
    }

    #[test]
    fn batch_mean_matches_rate() {
        let p = ArrivalProcess::Batch {
            rate: 0.3,
            batch: 5,
        };
        let r = empirical_rate(&p, 400_000, 2);
        assert!((r - 0.3).abs() < 0.01, "empirical {r}");
    }

    #[test]
    fn markov_mean_matches_rate() {
        for &(rate, burst) in &[(0.1, 4.0), (0.3, 8.0), (0.6, 2.0)] {
            let p = ArrivalProcess::MarkovBurst { rate, burst };
            let r = empirical_rate(&p, 600_000, 3);
            assert!(
                (r - rate).abs() < 0.02,
                "λ={rate} burst={burst}: empirical {r}"
            );
        }
    }

    #[test]
    fn markov_is_burstier_than_bernoulli() {
        // Compare the variance of per-window arrival counts.
        let windows = 4000;
        let w = 50;
        let var = |process: &ArrivalProcess| {
            let mut s = process.sampler();
            let mut rng = StdRng::seed_from_u64(7);
            let counts: Vec<f64> = (0..windows)
                .map(|_| (0..w).map(|_| f64::from(s.draw(&mut rng))).sum::<f64>())
                .collect();
            let mean = counts.iter().sum::<f64>() / windows as f64;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / windows as f64
        };
        let v_iid = var(&ArrivalProcess::Bernoulli { rate: 0.2 });
        let v_burst = var(&ArrivalProcess::MarkovBurst {
            rate: 0.2,
            burst: 10.0,
        });
        assert!(
            v_burst > 1.5 * v_iid,
            "burst variance {v_burst} should exceed iid variance {v_iid}"
        );
    }

    #[test]
    fn zero_rate_never_arrives() {
        for p in [
            ArrivalProcess::Bernoulli { rate: 0.0 },
            ArrivalProcess::Batch {
                rate: 0.0,
                batch: 4,
            },
            ArrivalProcess::MarkovBurst {
                rate: 0.0,
                burst: 5.0,
            },
        ] {
            assert_eq!(empirical_rate(&p, 10_000, 4), 0.0);
        }
    }

    #[test]
    fn with_rate_preserves_shape() {
        let p = ArrivalProcess::Batch {
            rate: 0.1,
            batch: 3,
        };
        let q = p.with_rate(0.4);
        assert_eq!(
            q,
            ArrivalProcess::Batch {
                rate: 0.4,
                batch: 3
            }
        );
        assert_eq!(q.rate(), 0.4);
        assert_eq!(p.rate(), 0.1);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ArrivalProcess::MarkovBurst {
            rate: 0.25,
            burst: 6.0,
        };
        let draw_seq = |seed| {
            let mut s = p.sampler();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..500).map(|_| s.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw_seq(9), draw_seq(9));
        assert_ne!(draw_seq(9), draw_seq(10));
    }

    #[test]
    fn streams_draw_what_per_link_samplers_draw() {
        let processes = [
            ArrivalProcess::Bernoulli { rate: 0.3 },
            ArrivalProcess::Batch {
                rate: 0.4,
                batch: 3,
            },
            ArrivalProcess::MarkovBurst {
                rate: 0.2,
                burst: 5.0,
            },
        ];
        let rngs = || (0..7).map(StdRng::seed_from_u64).collect::<Vec<_>>();
        for process in processes {
            let mut samplers: Vec<ArrivalSample> = (0..7).map(|_| process.sampler()).collect();
            let mut reference = rngs();
            let mut streams = ArrivalStreams::new(&process, rngs());
            let mut arrivals = Vec::new();
            for _ in 0..300 {
                let want: Vec<(usize, u32)> = samplers
                    .iter_mut()
                    .zip(&mut reference)
                    .enumerate()
                    .map(|(i, (s, rng))| (i, s.draw(rng)))
                    .filter(|&(_, count)| count > 0)
                    .collect();
                streams.draw_slot(&mut arrivals);
                assert_eq!(arrivals, want, "{process:?}");
            }
            assert_eq!(streams.rngs, reference, "{process:?}: generators in step");
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_rejected() {
        let _ = ArrivalProcess::Batch {
            rate: 0.1,
            batch: 0,
        }
        .sampler();
    }
}
