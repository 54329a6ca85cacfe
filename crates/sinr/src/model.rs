//! Interference-model abstraction.
//!
//! The paper compares two models over the *same* instance: deterministic
//! non-fading SINR and stochastic Rayleigh fading. Algorithms that merely
//! need to ask "which of these transmissions succeeded this slot?" — ALOHA
//! latency protocols, regret-learning loops, Monte Carlo slot execution —
//! are written against [`SuccessModel`] so they run unmodified under
//! either model. The non-fading implementation lives here; the Rayleigh
//! implementation lives in `rayfade-core`.

use crate::gain::GainMatrix;
use crate::nonfading::set_from_mask;
use crate::params::SinrParams;

/// A physical model that can resolve one time slot: given which links
/// transmit, report every link's SINR, and which transmitters reach `β`.
///
/// Implementations may be stochastic (`&mut self`): the Rayleigh model
/// draws fresh fading coefficients per slot, independent across slots, as
/// the paper assumes (Sec. 2). Only the coefficients of the `k`
/// transmitting senders matter, so a slot costs O(n·k), however many
/// links stay idle. A transmission succeeds or fails on the fading at its
/// own receiver alone, so a caller that reads only the transmitters'
/// SINRs scopes the slot to them: O(k²) fading values (each an `ln` under
/// Rayleigh) plus O(n·k) generator steps.
pub trait SuccessModel {
    /// Number of links in the underlying instance.
    fn len(&self) -> usize;

    /// Whether the instance has no links.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The SINR threshold `β` a transmission must reach to succeed.
    fn beta(&self) -> f64;

    /// Realizes one slot: `transmitters` lists the transmitting links in
    /// ascending order (no repeats), and `sinrs[i]` receives the SINR of
    /// every transmitter `i` against the others. With `counterfactuals`,
    /// every idle link `i` receives one too: the SINR `i` would have
    /// reached transmitting alongside them, since a link's own signal adds
    /// nothing to the interference at the others. Without it, idle entries
    /// are left as they were.
    ///
    /// Writes into the caller's buffer (one entry per link) and allocates
    /// nothing. Stochastic models draw, receiver by receiver in ascending
    /// order, one coefficient per transmitter other than the receiver's
    /// own link, in list order, and then the receiver's own signal.
    /// Without `counterfactuals` they step their generator past an idle
    /// receiver's draws instead of realizing them, so either way the
    /// transmitters' SINRs are bit-identical and the generator ends in
    /// the same state.
    ///
    /// # Panics
    /// May panic if `sinrs` does not hold one entry per link or a listed
    /// link is out of range.
    fn resolve_sinrs(&mut self, transmitters: &[usize], counterfactuals: bool, sinrs: &mut [f64]);

    /// Resolves one slot from a transmit mask (`active[i]` says whether
    /// link `i` transmits): the indices of the transmitting links whose
    /// SINR reaches `β`, sorted. Realizes the same channel as
    /// [`resolve_sinrs`](Self::resolve_sinrs) scoped to the transmitters,
    /// but allocates its list and buffer; slot loops keep both and call
    /// that instead.
    fn resolve_slot(&mut self, active: &[bool]) -> Vec<usize> {
        let transmitters = set_from_mask(active);
        let mut sinrs = vec![0.0; self.len()];
        self.resolve_sinrs(&transmitters, false, &mut sinrs);
        let beta = self.beta();
        transmitters
            .into_iter()
            .filter(|&i| sinrs[i] >= beta)
            .collect()
    }
}

/// Checks the [`SuccessModel::resolve_sinrs`] contract in debug builds:
/// one SINR slot per link, transmitters strictly ascending and in range.
#[inline]
pub fn debug_check_listed(n: usize, transmitters: &[usize], sinrs: &[f64]) {
    debug_assert_eq!(sinrs.len(), n, "one SINR slot per link");
    debug_assert!(
        transmitters.windows(2).all(|w| w[0] < w[1]),
        "transmitters must be listed in strictly ascending order"
    );
    debug_assert!(
        transmitters.last().is_none_or(|&j| j < n),
        "transmitter out of range"
    );
}

/// The deterministic non-fading SINR model (Sec. 2 of the paper).
#[derive(Debug, Clone)]
pub struct NonFadingModel {
    gain: GainMatrix,
    params: SinrParams,
}

impl NonFadingModel {
    /// Bundles a gain matrix with model parameters.
    pub fn new(gain: GainMatrix, params: SinrParams) -> Self {
        NonFadingModel { gain, params }
    }

    /// The underlying gain matrix.
    pub fn gain(&self) -> &GainMatrix {
        &self.gain
    }

    /// The model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }
}

impl SuccessModel for NonFadingModel {
    fn len(&self) -> usize {
        self.gain.len()
    }

    fn beta(&self) -> f64 {
        self.params.beta
    }

    /// `γ_i^nf` of every link (of every transmitter without
    /// `counterfactuals`), bit-equal to [`crate::nonfading::sinr`] over
    /// the transmitters' mask: the same gains summed in the same
    /// ascending order, in O(n·k), or O(k²) without `counterfactuals`.
    fn resolve_sinrs(&mut self, transmitters: &[usize], counterfactuals: bool, sinrs: &mut [f64]) {
        debug_check_listed(self.gain.len(), transmitters, sinrs);
        let (gain, noise) = (&self.gain, self.params.noise);
        let sinr_at = |i: usize| {
            let row = gain.at_receiver(i);
            let mut interference = 0.0;
            for &j in transmitters {
                if j != i {
                    interference += row[j];
                }
            }
            let denom = interference + noise;
            if denom == 0.0 {
                f64::INFINITY
            } else {
                row[i] / denom
            }
        };
        if counterfactuals {
            for (i, out) in sinrs.iter_mut().enumerate() {
                *out = sinr_at(i);
            }
        } else {
            for &i in transmitters {
                sinrs[i] = sinr_at(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonfading_model_is_deterministic() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 5.0, 0.0));
        let active = vec![true, true];
        let a = model.resolve_slot(&active);
        let b = model.resolve_slot(&active);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1]); // 10/1 = 10 >= 5 for both.
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn nonfading_model_sinrs() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 5.0, 0.0));
        let mut sinrs = [0.0; 2];
        model.resolve_sinrs(&[0, 1], true, &mut sinrs);
        assert!((sinrs[0] - 10.0).abs() < 1e-12);
        assert!((sinrs[1] - 10.0).abs() < 1e-12);
        // Lone transmitter with zero noise: infinite SINR; the idle link's
        // counterfactual hears it.
        model.resolve_sinrs(&[0], true, &mut sinrs);
        assert_eq!(sinrs[0], f64::INFINITY);
        assert!((sinrs[1] - 10.0).abs() < 1e-12);
        // Scoped to the transmitters, the idle link's entry is left alone.
        sinrs[1] = -1.0;
        model.resolve_sinrs(&[0], false, &mut sinrs);
        assert_eq!(sinrs, [f64::INFINITY, -1.0]);
    }

    #[test]
    fn inactive_links_cannot_succeed() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 1.0, 1.0));
        assert_eq!(model.resolve_slot(&[false, true]), vec![1]);
        assert_eq!(model.resolve_slot(&[false, false]), Vec::<usize>::new());
    }
}
