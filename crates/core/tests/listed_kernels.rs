//! The listed SINR kernels realize exactly the channel of the mask scan.
//!
//! `SuccessModel::resolve_sinrs` walks the ascending list of transmitters
//! instead of testing every (sender, receiver) pair of a transmit mask.
//! Each model must still produce, slot after slot, the bits of the mask
//! scan kept below as the reference: receivers in ascending order, each
//! one's interference drawn and summed sender by sender in ascending
//! order, then its own signal, with no randomness spent on a zero mean.
//! Random gains (exact zeros of both signs included), zero and positive
//! noise, and transmit sets that are empty, a single link, every link or
//! a random subset cover the kernels' branches.
//!
//! Scoped to the transmitters (`counterfactuals = false`), each model
//! must give the transmitters the full call's bits, leave every idle
//! entry alone, and leave its generator where the full call does: the
//! Rayleigh kernel steps past an idle receiver's uniforms without their
//! `ln`, one per nonzero mean, so a step taken for a zero mean shows here.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_core::{sample_exponential, sample_nakagami_power, NakagamiModel, RayleighModel};
use rayfade_sinr::{mask_from_set, sinr, GainMatrix, NonFadingModel, SinrParams, SuccessModel};
use std::fmt::Debug;

/// The mask scan: every link's SINR against the links `active` sets,
/// with `draw(rng, mean)` realizing one coefficient of the given mean.
fn mask_scan(
    gain: &GainMatrix,
    noise: f64,
    active: &[bool],
    rng: &mut StdRng,
    draw: impl Fn(&mut StdRng, f64) -> f64,
) -> Vec<f64> {
    let n = gain.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let row = gain.at_receiver(i);
        let mut interference = 0.0;
        for (j, (&mean, &on)) in row.iter().zip(active).enumerate() {
            if on && j != i {
                interference += draw(rng, mean);
            }
        }
        let signal = draw(rng, row[i]);
        let denom = interference + noise;
        out.push(if denom == 0.0 {
            if signal > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            signal / denom
        });
    }
    out
}

/// The non-fading mask scan: the deterministic gains themselves.
fn nonfading_mask_scan(gain: &GainMatrix, params: &SinrParams, active: &[bool]) -> Vec<f64> {
    let n = gain.len();
    (0..n)
        .map(|i| {
            let row = gain.at_receiver(i);
            let mut interference = 0.0;
            for (j, (&g, &on)) in row.iter().zip(active).enumerate() {
                if on && j != i {
                    interference += g;
                }
            }
            let denom = interference + params.noise;
            if denom == 0.0 {
                f64::INFINITY
            } else {
                gain.signal(i) / denom
            }
        })
        .collect()
}

/// An `n`-link gain matrix whose entries span six decades, a fifth of
/// them exactly zero (`0.0` or `−0.0`, evenly).
fn random_gain(rng: &mut StdRng, n: usize) -> GainMatrix {
    let g = (0..n * n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                10f64.powf(rng.gen_range(-4.0..2.0))
            }
        })
        .collect();
    GainMatrix::from_raw(n, g)
}

/// One slot's transmit set: empty, one link, every link or a random
/// subset, ascending.
fn random_transmitters(rng: &mut StdRng, n: usize) -> Vec<usize> {
    match rng.gen_range(0..4) {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0..n)],
        2 => (0..n).collect(),
        _ => (0..n).filter(|_| rng.gen_bool(0.5)).collect(),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Realizes one slot on `full` with counterfactuals and on its twin
/// `scoped` without, and checks the scope's contract: the transmitters'
/// bits equal, every idle entry untouched, and the two models (their
/// generators included) equal afterwards.
fn check_scope<M: SuccessModel + Debug>(
    full: &mut M,
    scoped: &mut M,
    transmitters: &[usize],
    label: &str,
) -> Result<(), TestCaseError> {
    let n = full.len();
    let mut every = vec![f64::NAN; n];
    full.resolve_sinrs(transmitters, true, &mut every);
    // No SINR is negative, so an idle entry that still reads -1 was
    // never written.
    let mut listed = vec![-1.0; n];
    scoped.resolve_sinrs(transmitters, false, &mut listed);
    let expected: Vec<f64> = (0..n)
        .map(|i| {
            if transmitters.contains(&i) {
                every[i]
            } else {
                -1.0
            }
        })
        .collect();
    prop_assert_eq!(bits(&listed), bits(&expected), "{}", label);
    prop_assert_eq!(
        format!("{full:?}"),
        format!("{scoped:?}"),
        "{} state",
        label
    );
    Ok(())
}

/// The transmitters whose SINR reaches `beta`: `resolve_slot`'s answer.
fn successes(transmitters: &[usize], sinrs: &[f64], beta: f64) -> Vec<usize> {
    transmitters
        .iter()
        .copied()
        .filter(|&i| sinrs[i] >= beta)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn listed_kernels_match_the_mask_scan_bit_for_bit(
        seed in any::<u64>(),
        n in 1usize..12,
        zero_noise in any::<bool>(),
        shape in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gain = random_gain(&mut rng, n);
        let noise = if zero_noise { 0.0 } else { 10f64.powf(rng.gen_range(-3.0..1.0)) };
        let params = SinrParams::new(4.0, rng.gen_range(0.5..3.0), noise);
        let m = [0.5, 1.0, 3.0][shape];
        let fading_seed = rng.gen::<u64>();

        let mut nonfading = NonFadingModel::new(gain.clone(), params);
        let mut rayleigh = RayleighModel::new(gain.clone(), params, fading_seed);
        let mut nakagami = NakagamiModel::new(gain.clone(), params, m, fading_seed);
        let mut slot_rayleigh = RayleighModel::new(gain.clone(), params, fading_seed);
        let mut rayleigh_ref = StdRng::seed_from_u64(fading_seed);
        let mut nakagami_ref = StdRng::seed_from_u64(fading_seed);
        let mut sinrs = vec![f64::NAN; n];
        for slot in 0..6 {
            let transmitters = random_transmitters(&mut rng, n);
            let mask = mask_from_set(n, &transmitters);

            nonfading.resolve_sinrs(&transmitters, true, &mut sinrs);
            prop_assert_eq!(
                bits(&sinrs),
                bits(&nonfading_mask_scan(&gain, &params, &mask)),
                "non-fading, slot {}", slot
            );
            for (i, &s) in sinrs.iter().enumerate() {
                prop_assert_eq!(s.to_bits(), sinr(&gain, &params, &mask, i).to_bits());
            }
            prop_assert_eq!(
                nonfading.resolve_slot(&mask),
                successes(&transmitters, &sinrs, params.beta)
            );

            rayleigh.resolve_sinrs(&transmitters, true, &mut sinrs);
            let reference = mask_scan(&gain, noise, &mask, &mut rayleigh_ref, |r, mean| {
                sample_exponential(r, mean)
            });
            prop_assert_eq!(bits(&sinrs), bits(&reference), "Rayleigh, slot {}", slot);
            // `resolve_slot` realizes the same channel from the mask.
            prop_assert_eq!(
                slot_rayleigh.resolve_slot(&mask),
                successes(&transmitters, &reference, params.beta),
                "Rayleigh resolve_slot, slot {}", slot
            );

            nakagami.resolve_sinrs(&transmitters, true, &mut sinrs);
            let reference = mask_scan(&gain, noise, &mask, &mut nakagami_ref, |r, mean| {
                sample_nakagami_power(r, m, mean)
            });
            prop_assert_eq!(bits(&sinrs), bits(&reference), "Nakagami m = {}, slot {}", m, slot);
        }
    }

    #[test]
    fn scoped_kernels_equal_the_full_kernels_on_the_transmitters(
        seed in any::<u64>(),
        n in 1usize..12,
        zero_noise in any::<bool>(),
        shape in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gain = random_gain(&mut rng, n);
        let noise = if zero_noise { 0.0 } else { 10f64.powf(rng.gen_range(-3.0..1.0)) };
        let params = SinrParams::new(4.0, rng.gen_range(0.5..3.0), noise);
        let m = [0.5, 1.0, 3.0][shape];
        let fading_seed = rng.gen::<u64>();

        let nonfading = NonFadingModel::new(gain.clone(), params);
        let rayleigh = RayleighModel::new(gain.clone(), params, fading_seed);
        let nakagami = NakagamiModel::new(gain.clone(), params, m, fading_seed);
        let (mut nonfading_full, mut nonfading_scoped) = (nonfading.clone(), nonfading);
        let (mut rayleigh_full, mut rayleigh_scoped) = (rayleigh.clone(), rayleigh);
        let (mut nakagami_full, mut nakagami_scoped) = (nakagami.clone(), nakagami);
        for slot in 0..6 {
            // The empty and the full set first, then random ones.
            let transmitters = match slot {
                0 => Vec::new(),
                1 => (0..n).collect(),
                _ => random_transmitters(&mut rng, n),
            };
            let label = |model: &str| format!("{model}, slot {slot}");
            check_scope(&mut nonfading_full, &mut nonfading_scoped, &transmitters, &label("non-fading"))?;
            check_scope(&mut rayleigh_full, &mut rayleigh_scoped, &transmitters, &label("Rayleigh"))?;
            check_scope(&mut nakagami_full, &mut nakagami_scoped, &transmitters, &label("Nakagami"))?;
        }
    }
}
