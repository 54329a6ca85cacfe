//! The black-box transfer (Lemma 2).
//!
//! Take any solution computed for the non-fading model — a feasible set
//! with its transmission powers — and simply transmit the *same* set under
//! Rayleigh fading. Lemma 2: the expected utility is at least a `1/e`
//! fraction of the non-fading utility. Combined with Theorem 2 (the
//! Rayleigh optimum exceeds the non-fading optimum by at most `O(log* n)`),
//! every non-fading approximation algorithm becomes an `O(log* n)`-factor
//! Rayleigh approximation with **no modification at all**.
//!
//! This module evaluates both sides of the transfer analytically (the
//! Rayleigh side via Theorem 1's closed form) and, for non-binary
//! utilities, by Monte Carlo.

use crate::channel::RayleighModel;
use crate::success::{expected_successes_of_set, success_probability_of_set};
use rayfade_sinr::{
    mask_from_set, set_from_mask, sinr_all, GainMatrix, SinrParams, SuccessModel, UtilityFunction,
};
use serde::{Deserialize, Serialize};

/// Analytic report of transferring a fixed transmitting set from the
/// non-fading to the Rayleigh model (binary utilities).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferReport {
    /// The transferred set.
    pub set: Vec<usize>,
    /// Successful transmissions in the non-fading model (links of `set`
    /// reaching SINR `β`).
    pub nonfading_successes: usize,
    /// Exact expected successes under Rayleigh fading (Theorem 1).
    pub rayleigh_expected_successes: f64,
    /// Lemma 2's guaranteed floor: `nonfading_successes / e`.
    pub guaranteed_floor: f64,
    /// Per-link Rayleigh success probabilities (aligned with `set`).
    pub per_link_probability: Vec<f64>,
}

impl TransferReport {
    /// Measured transfer ratio `E[Rayleigh successes] / nonfading
    /// successes` (`∞`-free: `1.0` when the non-fading count is zero).
    pub fn ratio(&self) -> f64 {
        if self.nonfading_successes == 0 {
            1.0
        } else {
            self.rayleigh_expected_successes / self.nonfading_successes as f64
        }
    }

    /// Whether Lemma 2's `1/e` guarantee holds for this instance.
    ///
    /// For sets that are feasible in the non-fading model this is a
    /// theorem, so it must always be true; exposed for tests/ablations.
    pub fn meets_guarantee(&self) -> bool {
        self.rayleigh_expected_successes + 1e-9 >= self.guaranteed_floor
    }
}

/// Evaluates Lemma 2 analytically for binary utilities: transmit exactly
/// `set` (probability 1 each) in both models.
pub fn transfer_set(gain: &GainMatrix, params: &SinrParams, set: &[usize]) -> TransferReport {
    let mask = mask_from_set(gain.len(), set);
    let nonfading_successes = set
        .iter()
        .filter(|&&i| rayfade_sinr::succeeds(gain, params, &mask, i))
        .count();
    let per_link_probability: Vec<f64> = set
        .iter()
        .map(|&i| success_probability_of_set(gain, params, set, i))
        .collect();
    let rayleigh_expected_successes = expected_successes_of_set(gain, params, set);
    TransferReport {
        set: set.to_vec(),
        nonfading_successes,
        rayleigh_expected_successes,
        guaranteed_floor: nonfading_successes as f64 / std::f64::consts::E,
        per_link_probability,
    }
}

/// General-utility transfer: expected Rayleigh utility of transmitting
/// `set`, estimated over `trials` independent fading draws, compared to
/// the deterministic non-fading utility.
///
/// Returns `(nonfading_utility, estimated_rayleigh_utility)`. Lemma 2
/// guarantees the second is at least `1/e` of the first in expectation
/// (up to Monte Carlo error) whenever the utility is valid (Definition 1)
/// and the set feasible.
pub fn transfer_utility_mc<U: UtilityFunction>(
    gain: &GainMatrix,
    params: &SinrParams,
    set: &[usize],
    utility: &U,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    let mask = mask_from_set(gain.len(), set);
    let nf_sinrs = sinr_all(gain, params, &mask);
    let nonfading: f64 = set.iter().map(|&i| utility.value(i, nf_sinrs[i])).sum();
    let transmitters = set_from_mask(&mask);
    let mut model = RayleighModel::new(gain.clone(), *params, seed);
    let mut sinrs = vec![0.0; gain.len()];
    let mut acc = 0.0;
    for _ in 0..trials {
        model.resolve_sinrs(&transmitters, false, &mut sinrs);
        acc += set.iter().map(|&i| utility.value(i, sinrs[i])).sum::<f64>();
    }
    (nonfading, acc / trials as f64)
}

/// Multi-channel transfer: evaluates Lemma 2 independently on every
/// channel's sub-instance (channels are orthogonal, so fading draws are
/// independent across them) and aggregates.
///
/// Returns `(total nonfading successes, total expected Rayleigh
/// successes)`; each channel individually satisfies the 1/e floor, hence
/// so does the sum.
pub fn transfer_multichannel(
    gain: &GainMatrix,
    params: &SinrParams,
    solution: &rayfade_sched::MultichannelSolution,
) -> (usize, f64) {
    let mut nonfading = 0usize;
    let mut rayleigh = 0.0f64;
    for c in 0..solution.assignment.count {
        let links = solution.assignment.links_on(c);
        if links.is_empty() {
            continue;
        }
        let sub = gain.submatrix(&links);
        let local: Vec<usize> = solution.per_channel[c]
            .iter()
            .map(|g| {
                links
                    .iter()
                    .position(|x| x == g)
                    .expect("selected link must live on its channel")
            })
            .collect();
        let report = transfer_set(&sub, params, &local);
        nonfading += report.nonfading_successes;
        rayleigh += report.rayleigh_expected_successes;
    }
    (nonfading, rayleigh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::PaperTopology;
    use rayfade_sched::{CapacityAlgorithm, CapacityInstance, GreedyCapacity};
    use rayfade_sinr::{PowerAssignment, ShannonUtility};

    fn paper_case(seed: u64, n: usize) -> (GainMatrix, SinrParams, Vec<usize>) {
        let net = PaperTopology {
            links: n,
            side: 700.0,
            min_length: 20.0,
            max_length: 40.0,
        }
        .generate(seed);
        let params = SinrParams::figure1();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
        let set = GreedyCapacity::new().select(&CapacityInstance::unweighted(&gm, &params));
        (gm, params, set)
    }

    #[test]
    fn transfer_meets_one_over_e_guarantee() {
        for seed in 0..6 {
            let (gm, params, set) = paper_case(seed, 50);
            let report = transfer_set(&gm, &params, &set);
            assert_eq!(report.nonfading_successes, set.len(), "set is feasible");
            assert!(
                report.meets_guarantee(),
                "seed {seed}: ratio {} below 1/e",
                report.ratio()
            );
            // The ratio can never exceed 1 for... actually it can, if the
            // set was *infeasible* non-fading; for feasible sets each
            // probability is <= 1, so expected <= |set|.
            assert!(report.ratio() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn per_link_probabilities_are_at_least_one_over_e_for_feasible_sets() {
        // Lemma 2's proof shows Q_i >= 1/e per link when evaluated at the
        // non-fading SINR; at the (smaller or equal) threshold beta the
        // probability is even larger.
        let (gm, params, set) = paper_case(3, 40);
        let report = transfer_set(&gm, &params, &set);
        for (idx, &p) in report.per_link_probability.iter().enumerate() {
            assert!(
                p >= 1.0 / std::f64::consts::E - 1e-9,
                "link {}: probability {p} below 1/e",
                report.set[idx]
            );
        }
    }

    #[test]
    fn empty_set_transfers_trivially() {
        let (gm, params, _) = paper_case(0, 10);
        let report = transfer_set(&gm, &params, &[]);
        assert_eq!(report.nonfading_successes, 0);
        assert_eq!(report.rayleigh_expected_successes, 0.0);
        assert_eq!(report.ratio(), 1.0);
        assert!(report.meets_guarantee());
    }

    #[test]
    fn infeasible_set_can_do_better_under_fading() {
        // Two links that barely fail together in the non-fading model:
        // fading gives each a positive chance, so Rayleigh wins.
        let gm = GainMatrix::from_raw(2, vec![10.0, 6.0, 6.0, 10.0]);
        let params = SinrParams::new(2.0, 2.0, 0.0); // SINR = 10/6 < 2
        let report = transfer_set(&gm, &params, &[0, 1]);
        assert_eq!(report.nonfading_successes, 0);
        assert!(report.rayleigh_expected_successes > 0.0);
    }

    #[test]
    fn multichannel_transfer_keeps_the_floor() {
        use rayfade_sched::multichannel_capacity;
        let (gm, params, _) = paper_case(7, 60);
        let sol = multichannel_capacity(&gm, &params, 3, &GreedyCapacity::new());
        let (nf, ray) = transfer_multichannel(&gm, &params, &sol);
        assert_eq!(nf, sol.total(), "per-channel sets are feasible");
        assert!(ray >= nf as f64 / std::f64::consts::E);
        // Channels shrink interference: more channels, better per-link
        // survival than single-channel on the same instance.
        let single = multichannel_capacity(&gm, &params, 1, &GreedyCapacity::new());
        let (nf1, ray1) = transfer_multichannel(&gm, &params, &single);
        if nf1 > 0 && nf > 0 {
            assert!(ray / nf as f64 >= ray1 / nf1 as f64 - 0.05);
        }
    }

    #[test]
    fn shannon_transfer_mc() {
        let (gm, params, set) = paper_case(1, 30);
        let u = ShannonUtility::capped(20.0);
        let (nf, ray) = transfer_utility_mc(&gm, &params, &set, &u, 3000, 42);
        assert!(nf > 0.0);
        assert!(
            ray >= nf / std::f64::consts::E * 0.9,
            "Rayleigh Shannon utility {ray} too far below nf {nf} / e"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let (gm, params, set) = paper_case(0, 10);
        let _ = transfer_utility_mc(&gm, &params, &set, &ShannonUtility::uncapped(), 0, 1);
    }
}
