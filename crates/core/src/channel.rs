//! The Rayleigh-fading channel.
//!
//! Under Rayleigh fading the signal transmitted by `s_j` arrives at `r_i`
//! with strength `S_{j,i}`, an **exponentially distributed** random
//! variable with mean `S̄_{j,i}`, independent across pairs `(j, i)` and
//! across time slots (paper Sec. 2). This module samples realizations and
//! implements [`SuccessModel`] so every model-agnostic protocol (ALOHA,
//! regret learning, Monte Carlo slot execution) runs under fading
//! unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_sinr::model::debug_check_listed;
use rayfade_sinr::{GainMatrix, SinrParams, SuccessModel};

/// Samples one exponential variate with the given mean using inverse-CDF:
/// `-mean · ln(1 − U)`, `U ∈ [0, 1)`. A zero mean yields exactly zero.
#[inline]
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean >= 0.0, "exponential mean must be non-negative");
    if mean == 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen(); // [0, 1)
    -mean * (1.0 - u).ln()
}

/// The stochastic Rayleigh-fading SINR model.
///
/// Each call to [`SuccessModel::resolve_slot`] draws a fresh, independent
/// fading realization — exactly the paper's assumption of independence
/// across time slots. The model is deterministic given its seed.
#[derive(Debug, Clone)]
pub struct RayleighModel {
    gain: GainMatrix,
    params: SinrParams,
    rng: StdRng,
}

impl RayleighModel {
    /// Creates a Rayleigh model over expected gains with a fixed RNG seed.
    pub fn new(gain: GainMatrix, params: SinrParams, seed: u64) -> Self {
        RayleighModel {
            gain,
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The expected-gain matrix.
    pub fn gain(&self) -> &GainMatrix {
        &self.gain
    }

    /// The model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }
}

/// The fading kernel behind [`RayleighModel`] and
/// [`NakagamiModel`](crate::NakagamiModel): for each receiver in
/// ascending order, `draw(mean)` realizes the coefficient of every listed
/// transmitter but its own link, in list order, then its own signal, and
/// `sinrs[i]` receives the realized SINR. O(n·k) draws for `k`
/// transmitters; `draw` consumes no randomness for a zero mean.
pub(crate) fn realize_sinrs(
    gain: &GainMatrix,
    noise: f64,
    transmitters: &[usize],
    sinrs: &mut [f64],
    mut draw: impl FnMut(f64) -> f64,
) {
    debug_check_listed(gain.len(), transmitters, sinrs);
    for (i, out) in sinrs.iter_mut().enumerate() {
        let row = gain.at_receiver(i);
        let mut interference = 0.0;
        for &j in transmitters {
            if j != i {
                interference += draw(row[j]);
            }
        }
        let signal = draw(row[i]);
        let denom = interference + noise;
        *out = if denom == 0.0 {
            if signal > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            signal / denom
        };
    }
}

impl SuccessModel for RayleighModel {
    fn len(&self) -> usize {
        self.gain.len()
    }

    fn beta(&self) -> f64 {
        self.params.beta
    }

    fn resolve_sinrs(&mut self, transmitters: &[usize], sinrs: &mut [f64]) {
        let rng = &mut self.rng;
        realize_sinrs(&self.gain, self.params.noise, transmitters, sinrs, |mean| {
            sample_exponential(rng, mean)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_sampling_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mean = 3.0;
        let k = 200_000;
        let mut sum = 0.0;
        for _ in 0..k {
            let x = sample_exponential(&mut rng, mean);
            assert!(x >= 0.0);
            sum += x;
        }
        let emp = sum / k as f64;
        assert!(
            (emp - mean).abs() < 0.05,
            "empirical mean {emp} vs expected {mean}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_exponential(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn exponential_memorylessness_quantile() {
        // P[X > mean] should be e^-1 ~ 0.3679.
        let mut rng = StdRng::seed_from_u64(3);
        let k = 200_000;
        let hits = (0..k)
            .filter(|_| sample_exponential(&mut rng, 2.0) > 2.0)
            .count();
        let frac = hits as f64 / k as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.01, "{frac}");
    }

    #[test]
    fn model_is_deterministic_per_seed_and_fresh_per_slot() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let params = SinrParams::new(2.0, 1.0, 0.1);
        let mut a = RayleighModel::new(gm.clone(), params, 42);
        let mut b = RayleighModel::new(gm, params, 42);
        let active = vec![true, true];
        let s1a = a.resolve_slot(&active);
        let s1b = b.resolve_slot(&active);
        assert_eq!(s1a, s1b);
        // Different slots draw different coefficients (overwhelmingly).
        let (mut x, mut y) = ([0.0; 2], [0.0; 2]);
        a.resolve_sinrs(&[0, 1], &mut x);
        a.resolve_sinrs(&[0, 1], &mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn inactive_links_never_succeed() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let params = SinrParams::new(2.0, 0.1, 0.1);
        let mut m = RayleighModel::new(gm, params, 7);
        for _ in 0..50 {
            let succ = m.resolve_slot(&[true, false]);
            assert!(!succ.contains(&1));
        }
    }

    #[test]
    fn lone_link_success_rate_matches_exp_formula() {
        // Pr[S >= beta*nu] = exp(-beta*nu/mean): with mean=10, beta=2,
        // nu=1 -> exp(-0.2) ~ 0.8187.
        let gm = GainMatrix::from_raw(1, vec![10.0]);
        let params = SinrParams::new(2.0, 2.0, 1.0);
        let mut m = RayleighModel::new(gm, params, 11);
        let k = 100_000;
        let mut hits = 0;
        for _ in 0..k {
            if !m.resolve_slot(&[true]).is_empty() {
                hits += 1;
            }
        }
        let frac = hits as f64 / k as f64;
        let expected = (-0.2f64).exp();
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn zero_noise_lone_transmitter_always_succeeds() {
        let gm = GainMatrix::from_raw(1, vec![5.0]);
        let params = SinrParams::new(2.0, 100.0, 0.0);
        let mut m = RayleighModel::new(gm, params, 5);
        for _ in 0..100 {
            assert_eq!(m.resolve_slot(&[true]), vec![0]);
        }
    }

    #[test]
    fn fading_lets_hopeless_links_succeed_sometimes() {
        // Non-fading: signal 0.5 < beta*nu = 1 -> never succeeds.
        // Rayleigh: succeeds with prob exp(-1/0.5) = exp(-2) ~ 0.135.
        let gm = GainMatrix::from_raw(1, vec![0.5]);
        let params = SinrParams::new(2.0, 1.0, 1.0);
        let mut m = RayleighModel::new(gm, params, 13);
        let k = 50_000;
        let hits = (0..k)
            .filter(|_| !m.resolve_slot(&[true]).is_empty())
            .count();
        let frac = hits as f64 / k as f64;
        assert!((frac - (-2.0f64).exp()).abs() < 0.01, "{frac}");
    }
}
