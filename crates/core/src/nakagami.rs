//! Nakagami-m fading — the paper's "further realistic properties"
//! extension (Sec. 8 raises the hope that the techniques carry over to
//! other interference models; Nakagami-m is the canonical next step).
//!
//! Under Nakagami-m fading the received *power* is Gamma-distributed with
//! shape `m ≥ 1/2` and mean `S̄_{j,i}`; `m = 1` recovers Rayleigh exactly,
//! larger `m` means milder fading (less variance around the mean), and
//! `m → ∞` degenerates to the deterministic non-fading model. The channel
//! implements [`SuccessModel`], so every protocol in the workspace —
//! ALOHA, regret learning, Monte Carlo slot execution — runs under
//! Nakagami unchanged, and ablations can chart how the Rayleigh results
//! deform as `m` grows.

use crate::channel::{realize_sinrs, Fading};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_sinr::{GainMatrix, SinrParams, SuccessModel};

/// Samples a standard normal via Box–Muller (no extra crates).
#[inline]
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Samples `Gamma(shape, scale = 1)` for `shape ≥ 1/2` via
/// Marsaglia–Tsang (squeeze method), with the standard boost trick for
/// `shape < 1`.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape >= 0.5, "shape must be at least 1/2 (Nakagami range)");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) · U^(1/a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Samples the Nakagami-m received power: `Gamma(m, mean/m)` (mean-
/// preserving). `m = 1` is exactly the exponential (Rayleigh) law.
#[inline]
pub fn sample_nakagami_power<R: Rng + ?Sized>(rng: &mut R, m: f64, mean: f64) -> f64 {
    debug_assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0.0;
    }
    sample_gamma(rng, m) * (mean / m)
}

/// Nakagami-m fading: Gamma-distributed coefficients
/// ([`sample_nakagami_power`]).
struct Gamma<'a> {
    rng: &'a mut StdRng,
    m: f64,
}

/// Rejection sampling takes a varying number of uniforms, so an idle
/// receiver's coefficients are drawn and discarded (the default
/// [`Fading::step_past`]).
impl Fading for Gamma<'_> {
    #[inline]
    fn draw(&mut self, mean: f64) -> f64 {
        sample_nakagami_power(self.rng, self.m, mean)
    }
}

/// The Nakagami-m fading SINR model.
#[derive(Debug, Clone)]
pub struct NakagamiModel {
    gain: GainMatrix,
    params: SinrParams,
    /// Shape parameter `m ≥ 1/2`; `1` = Rayleigh.
    m: f64,
    rng: StdRng,
}

impl NakagamiModel {
    /// Creates a Nakagami-m model.
    ///
    /// # Panics
    /// If `m < 1/2`.
    pub fn new(gain: GainMatrix, params: SinrParams, m: f64, seed: u64) -> Self {
        assert!(m >= 0.5, "Nakagami shape m must be at least 1/2");
        NakagamiModel {
            gain,
            params,
            m,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The shape parameter `m`.
    pub fn shape(&self) -> f64 {
        self.m
    }

    /// The model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }
}

impl SuccessModel for NakagamiModel {
    fn len(&self) -> usize {
        self.gain.len()
    }

    fn beta(&self) -> f64 {
        self.params.beta
    }

    fn resolve_sinrs(&mut self, transmitters: &[usize], counterfactuals: bool, sinrs: &mut [f64]) {
        realize_sinrs(
            &self.gain,
            self.params.noise,
            transmitters,
            counterfactuals,
            sinrs,
            &mut Gamma {
                rng: &mut self.rng,
                m: self.m,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RayleighModel;

    #[test]
    fn gamma_sampler_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        for &shape in &[0.5, 1.0, 2.0, 5.0] {
            let k = 100_000;
            let mut sum = 0.0;
            let mut sq = 0.0;
            for _ in 0..k {
                let x = sample_gamma(&mut rng, shape);
                assert!(x >= 0.0);
                sum += x;
                sq += x * x;
            }
            let mean = sum / k as f64;
            let var = sq / k as f64 - mean * mean;
            assert!(
                (mean - shape).abs() < 0.05 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape}: var {var}"
            );
        }
    }

    #[test]
    fn m_equal_one_matches_rayleigh_statistics() {
        // Lone link: P[success] = P[S >= beta*nu] must match the Rayleigh
        // closed form exp(-beta*nu/mean) at m = 1.
        let gm = GainMatrix::from_raw(1, vec![10.0]);
        let params = SinrParams::new(2.0, 2.0, 1.0);
        let mut model = NakagamiModel::new(gm, params, 1.0, 7);
        let k = 100_000;
        let hits = (0..k)
            .filter(|_| !model.resolve_slot(&[true]).is_empty())
            .count();
        let frac = hits as f64 / k as f64;
        let expected = (-0.2f64).exp();
        assert!((frac - expected).abs() < 0.01, "{frac} vs {expected}");
    }

    #[test]
    fn larger_m_concentrates_toward_nonfading() {
        // A link whose mean SINR is comfortably above beta: under milder
        // fading (large m) it succeeds more often than under Rayleigh.
        let gm = GainMatrix::from_raw(2, vec![10.0, 2.0, 2.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.1);
        let rate = |m: f64| -> f64 {
            let mut model = NakagamiModel::new(gm.clone(), params, m, 3);
            let k = 30_000;
            (0..k)
                .filter(|_| model.resolve_slot(&[true, true]).contains(&0))
                .count() as f64
                / k as f64
        };
        let r1 = rate(1.0);
        let r4 = rate(4.0);
        let r16 = rate(16.0);
        assert!(r4 > r1 + 0.02, "m=4 ({r4}) should beat m=1 ({r1})");
        assert!(r16 > r4, "m=16 ({r16}) should beat m=4 ({r4})");
        // Non-fading succeeds deterministically here (SINR = 10/2.1 > 2),
        // so the rates should approach 1.
        assert!(r16 > 0.9);
    }

    #[test]
    fn nakagami_one_close_to_rayleigh_model_in_distribution() {
        // Multi-link instance: expected success counts of the two models
        // at m = 1 agree within MC error.
        let gm = GainMatrix::from_raw(
            3,
            vec![
                8.0, 1.0, 0.5, //
                1.0, 8.0, 0.5, //
                0.5, 0.5, 8.0,
            ],
        );
        let params = SinrParams::new(2.0, 1.5, 0.2);
        let active = [true, true, true];
        let k = 40_000;
        let mut naka = NakagamiModel::new(gm.clone(), params, 1.0, 11);
        let naka_total: usize = (0..k).map(|_| naka.resolve_slot(&active).len()).sum();
        let mut ray = RayleighModel::new(gm, params, 13);
        let ray_total: usize = (0..k).map(|_| ray.resolve_slot(&active).len()).sum();
        let diff = (naka_total as f64 - ray_total as f64).abs() / k as f64;
        assert!(diff < 0.03, "mean success gap {diff}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gm = GainMatrix::from_raw(2, vec![5.0, 1.0, 1.0, 5.0]);
        let params = SinrParams::new(2.0, 1.0, 0.1);
        let a = NakagamiModel::new(gm.clone(), params, 2.0, 5).resolve_slot(&[true, true]);
        let b = NakagamiModel::new(gm, params, 2.0, 5).resolve_slot(&[true, true]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 1/2")]
    fn tiny_shape_rejected() {
        let gm = GainMatrix::from_raw(1, vec![1.0]);
        let _ = NakagamiModel::new(gm, SinrParams::new(2.0, 1.0, 0.0), 0.3, 0);
    }
}
