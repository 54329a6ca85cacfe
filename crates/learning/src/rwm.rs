//! Randomized Weighted Majority (Littlestone–Warmuth \[26\]), in the exact
//! variant the paper simulates (Sec. 7):
//!
//! * one weight per action, initialized to 1;
//! * after each step every action's weight is multiplied by
//!   `(1 − η)^{loss}`;
//! * `η` starts at `√0.5` and is multiplied by `√0.5` every time the step
//!   count crosses the next power of 2 (so `η → 0` and the average regret
//!   vanishes — the no-regret property).
//!
//! The learner is full-information: it receives the loss of *every*
//! action each step (the capacity game can evaluate counterfactual
//! outcomes, see `crate::game`).
//!
//! The capacity game's losses are 0, ½ and 1 only (`crate::loss`), and η
//! changes only at powers of two, so [`Rwm::update`] skips the `powf` on
//! that grid without moving a bit: `powf(x, 0)` is exactly 1 and
//! `powf(x, 1)` exactly `x`, and the factor of a loss of ½ is computed by
//! the same `(1 − η).powf(0.5)` call once per η epoch. Any other loss
//! still calls `powf`.
//!
//! [`Rwm`] is generic over where its weights live: [`Rwm::binary`] keeps
//! its two inline (`[f64; 2]`), so a population of binary learners is one
//! flat allocation, and [`Rwm::new`] keeps any number on the heap
//! (`Vec<f64>`). Both run the same code on a weight slice, so a binary
//! learner gives the bits of `Rwm::new(2)`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A full-information no-regret learner over a finite action set.
pub trait NoRegretLearner {
    /// Number of actions.
    fn num_actions(&self) -> usize;

    /// Samples an action for the current step.
    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize;

    /// Feeds back the loss of every action for the current step.
    fn update(&mut self, losses: &[f64]);

    /// Current mixed strategy (probability of each action).
    fn strategy(&self) -> Vec<f64>;
}

/// The paper's Randomized Weighted Majority variant, its weights stored
/// in `W`: `[f64; 2]` for [`binary`](Rwm::binary) learners, `Vec<f64>`
/// (the default) for [`new`](Rwm::new) ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rwm<W = Vec<f64>> {
    weights: W,
    eta: f64,
    /// `(1 − η)^½`, the weight factor of a loss of ½; recomputed whenever
    /// η drops.
    half_loss_factor: f64,
    steps: u64,
    /// Next power of 2 at which η halves (multiplied by √0.5).
    next_eta_drop: u64,
}

impl Rwm {
    /// Creates a learner with `actions ≥ 2` actions and the paper's η
    /// schedule (`η₀ = √0.5`).
    pub fn new(actions: usize) -> Self {
        assert!(actions >= 2, "need at least two actions");
        Rwm::with_weights(vec![1.0; actions])
    }
}

impl Rwm<[f64; 2]> {
    /// The binary send/idle learner used by the capacity game, with its
    /// two weights inline; bit for bit `Rwm::new(2)`.
    pub fn binary() -> Self {
        Rwm::with_weights([1.0; 2])
    }
}

impl<W: AsRef<[f64]> + AsMut<[f64]>> Rwm<W> {
    /// A learner starting from `weights` (all 1) with the paper's η
    /// schedule.
    fn with_weights(weights: W) -> Self {
        let eta = 0.5f64.sqrt();
        Rwm {
            weights,
            eta,
            half_loss_factor: half_loss_factor(eta),
            steps: 0,
            next_eta_drop: 2,
        }
    }

    /// Current learning rate η.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Steps observed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn renormalize_if_tiny(&mut self) {
        // Weights only shrink; rescale to keep them in floating range.
        let weights = self.weights.as_mut();
        let max = weights.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 && max < 1e-100 {
            for w in weights {
                *w /= max;
            }
        }
    }
}

/// The weight factor `(1 − η)^½` of a loss of ½.
fn half_loss_factor(eta: f64) -> f64 {
    (1.0 - eta).powf(0.5)
}

impl<W: AsRef<[f64]> + AsMut<[f64]>> NoRegretLearner for Rwm<W> {
    fn num_actions(&self) -> usize {
        self.weights.as_ref().len()
    }

    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let weights = self.weights.as_ref();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // All weights collapsed (possible only after astronomically
            // many steps); fall back to uniform.
            return rng.gen_range(0..weights.len());
        }
        let mut t = rng.gen_range(0.0..total);
        for (a, &w) in weights.iter().enumerate() {
            if t < w {
                return a;
            }
            t -= w;
        }
        weights.len() - 1
    }

    fn update(&mut self, losses: &[f64]) {
        assert_eq!(
            losses.len(),
            self.weights.as_ref().len(),
            "one loss per action"
        );
        debug_assert!(
            losses.iter().all(|l| (0.0..=1.0).contains(l)),
            "losses must lie in [0, 1]"
        );
        // w·(1 − η)^l, bit for bit, with `powf` only off the loss grid
        // {0, ½, 1} (module docs).
        let base = 1.0 - self.eta;
        let half = self.half_loss_factor;
        for (w, &l) in self.weights.as_mut().iter_mut().zip(losses) {
            if l == 0.0 {
                continue;
            }
            *w *= if l == 1.0 {
                base
            } else if l == 0.5 {
                half
            } else {
                base.powf(l)
            };
        }
        self.renormalize_if_tiny();
        self.steps += 1;
        // Paper: eta is multiplied by sqrt(0.5) every time the number of
        // time steps is increased above the next power of 2.
        if self.steps >= self.next_eta_drop {
            self.eta *= 0.5f64.sqrt();
            self.half_loss_factor = half_loss_factor(self.eta);
            self.next_eta_drop *= 2;
        }
    }

    fn strategy(&self) -> Vec<f64> {
        let weights = self.weights.as_ref();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / weights.len() as f64; weights.len()];
        }
        weights.iter().map(|&w| w / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_strategy_is_uniform() {
        let rwm = Rwm::binary();
        let s = rwm.strategy();
        assert!((s[0] - 0.5).abs() < 1e-12 && (s[1] - 0.5).abs() < 1e-12);
        assert_eq!(rwm.num_actions(), 2);
        assert!((rwm.eta() - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn update_shifts_mass_away_from_lossy_action() {
        let mut rwm = Rwm::binary();
        for _ in 0..20 {
            rwm.update(&[1.0, 0.0]); // action 0 always loses
        }
        let s = rwm.strategy();
        assert!(s[1] > 0.95, "strategy should favour action 1: {s:?}");
    }

    #[test]
    fn eta_schedule_halves_at_powers_of_two() {
        let mut rwm = Rwm::binary();
        let eta0 = rwm.eta();
        rwm.update(&[0.0, 0.0]); // step 1 (< 2)
        assert!((rwm.eta() - eta0).abs() < 1e-12);
        rwm.update(&[0.0, 0.0]); // step 2: crosses 2
        assert!((rwm.eta() - eta0 * 0.5f64.sqrt()).abs() < 1e-12);
        rwm.update(&[0.0, 0.0]); // step 3 (< 4)
        assert!((rwm.eta() - eta0 * 0.5f64.sqrt()).abs() < 1e-12);
        rwm.update(&[0.0, 0.0]); // step 4: crosses 4
        assert!((rwm.eta() - eta0 * 0.5).abs() < 1e-12);
        assert_eq!(rwm.steps(), 4);
    }

    #[test]
    fn choose_follows_strategy_empirically() {
        let mut rwm = Rwm::binary();
        for _ in 0..30 {
            rwm.update(&[1.0, 0.0]);
        }
        let mut rng = StdRng::seed_from_u64(3);
        let picks1 = (0..2000).filter(|_| rwm.choose(&mut rng) == 1).count();
        assert!(picks1 > 1900, "picked action 1 only {picks1}/2000 times");
    }

    #[test]
    fn no_regret_against_adversarial_alternation() {
        // Alternating losses give both actions the same cumulative loss;
        // the learner's average loss should approach 0.5 (no regret).
        let mut rwm = Rwm::binary();
        let mut rng = StdRng::seed_from_u64(4);
        let t = 4096;
        let mut incurred = 0.0;
        for step in 0..t {
            let a = rwm.choose(&mut rng);
            let losses = if step % 2 == 0 {
                [1.0, 0.0]
            } else {
                [0.0, 1.0]
            };
            incurred += losses[a];
            rwm.update(&losses);
        }
        let avg = incurred / t as f64;
        let best_fixed = 0.5;
        assert!(
            avg - best_fixed < 0.05,
            "average loss {avg} should be near best fixed action {best_fixed}"
        );
    }

    #[test]
    fn regret_vanishes_against_constant_losses() {
        // Best fixed action has loss 0.1; the learner must converge to it.
        let mut rwm = Rwm::binary();
        let mut rng = StdRng::seed_from_u64(5);
        let t = 4096;
        let mut incurred = 0.0;
        for _ in 0..t {
            let a = rwm.choose(&mut rng);
            let losses = [0.9, 0.1];
            incurred += losses[a];
            rwm.update(&losses);
        }
        let regret_per_step = incurred / t as f64 - 0.1;
        assert!(regret_per_step < 0.05, "regret/T = {regret_per_step}");
    }

    #[test]
    fn weights_survive_extreme_runs() {
        let mut rwm = Rwm::binary();
        for _ in 0..100_000 {
            rwm.update(&[1.0, 1.0]);
        }
        let s = rwm.strategy();
        assert!(s.iter().all(|p| p.is_finite()));
        assert!((s[0] - 0.5).abs() < 1e-9);
    }

    /// `update` equals the plain `w *= (1 − η).powf(l)` learner bit for
    /// bit over 4 096 steps, which cross 12 η drops, on losses drawn from
    /// {0, ½, 1} and, for the third action, one loss off that grid.
    #[test]
    fn update_equals_powf_reference_bit_for_bit() {
        let mut rwm = Rwm::new(3);
        let (mut weights, mut eta, mut next_drop) = (vec![1.0f64; 3], 0.5f64.sqrt(), 2u64);
        let mut rng = StdRng::seed_from_u64(6);
        let grid = [0.0, 0.5, 1.0];
        let mut drops = 0;
        for step in 1..=4096u64 {
            let mut losses = [0.0; 3];
            for l in &mut losses {
                *l = grid[rng.gen_range(0..3usize)];
            }
            if step % 5 == 0 {
                losses[2] = 0.3;
            }
            rwm.update(&losses);

            let base = 1.0 - eta;
            for (w, &l) in weights.iter_mut().zip(&losses) {
                *w *= base.powf(l);
            }
            let max = weights.iter().cloned().fold(0.0f64, f64::max);
            if max > 0.0 && max < 1e-100 {
                for w in &mut weights {
                    *w /= max;
                }
            }
            if step >= next_drop {
                eta *= 0.5f64.sqrt();
                next_drop *= 2;
                drops += 1;
            }

            let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rwm.weights), bits(&weights), "step {step}");
            assert_eq!(rwm.eta().to_bits(), eta.to_bits(), "step {step}");
        }
        assert_eq!(drops, 12);
    }

    /// A binary learner's inline weights follow `Rwm::new(2)`'s heap ones
    /// bit for bit: the same choice from cloned generators at every step,
    /// and the same weights, η and step count after every update, over
    /// 4 096 steps (12 η drops) of random losses on the grid {0, ½, 1}.
    #[test]
    fn binary_inline_learner_equals_the_heap_learner_bit_for_bit() {
        let (mut inline, mut heap) = (Rwm::binary(), Rwm::new(2));
        let mut rng = StdRng::seed_from_u64(0x2b);
        let grid = [0.0, 0.5, 1.0];
        let mut drops = 0;
        for step in 1..=4096u64 {
            let mut twin = rng.clone();
            assert_eq!(
                inline.choose(&mut rng),
                heap.choose(&mut twin),
                "step {step}"
            );
            assert_eq!(rng, twin, "step {step}: both consumed the same draws");
            let losses = [
                grid[rng.gen_range(0..3usize)],
                grid[rng.gen_range(0..3usize)],
            ];
            let eta = inline.eta();
            inline.update(&losses);
            heap.update(&losses);
            drops += u32::from(inline.eta() != eta);
            let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&inline.weights), bits(&heap.weights), "step {step}");
            assert_eq!(inline.eta().to_bits(), heap.eta().to_bits(), "step {step}");
            assert_eq!(inline.steps(), heap.steps());
            assert_eq!(inline.strategy(), heap.strategy());
        }
        assert_eq!(drops, 12);
        assert_eq!(inline.num_actions(), 2);
    }

    #[test]
    #[should_panic(expected = "one loss per action")]
    fn wrong_loss_arity_rejected() {
        let mut rwm = Rwm::binary();
        rwm.update(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least two actions")]
    fn degenerate_action_set_rejected() {
        let _ = Rwm::new(1);
    }
}
