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
/// links stay idle.
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
    /// every link `i` against them — counterfactual for idle links (the
    /// SINR `i` would have reached transmitting alongside them), since a
    /// link's own signal adds nothing to the interference at the others.
    ///
    /// Writes into the caller's buffer (one entry per link) and allocates
    /// nothing. Stochastic models draw, receiver by receiver in ascending
    /// order, one coefficient per transmitter other than the receiver's
    /// own link, in list order, and then the receiver's own signal.
    ///
    /// # Panics
    /// May panic if `sinrs` does not hold one entry per link or a listed
    /// link is out of range.
    fn resolve_sinrs(&mut self, transmitters: &[usize], sinrs: &mut [f64]);

    /// Resolves one slot from a transmit mask (`active[i]` says whether
    /// link `i` transmits): the indices of the transmitting links whose
    /// SINR reaches `β`, sorted. Realizes the same channel as
    /// [`resolve_sinrs`](Self::resolve_sinrs), but allocates its list and
    /// buffer; slot loops keep both and call that instead.
    fn resolve_slot(&mut self, active: &[bool]) -> Vec<usize> {
        let transmitters = set_from_mask(active);
        let mut sinrs = vec![0.0; self.len()];
        self.resolve_sinrs(&transmitters, &mut sinrs);
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

    /// `γ_i^nf` of every link, bit-equal to [`crate::nonfading::sinr`]
    /// over the transmitters' mask: the same gains summed in the same
    /// ascending order, in O(n·k).
    fn resolve_sinrs(&mut self, transmitters: &[usize], sinrs: &mut [f64]) {
        debug_check_listed(self.gain.len(), transmitters, sinrs);
        for (i, out) in sinrs.iter_mut().enumerate() {
            let row = self.gain.at_receiver(i);
            let mut interference = 0.0;
            for &j in transmitters {
                if j != i {
                    interference += row[j];
                }
            }
            let denom = interference + self.params.noise;
            *out = if denom == 0.0 {
                f64::INFINITY
            } else {
                row[i] / denom
            };
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
        model.resolve_sinrs(&[0, 1], &mut sinrs);
        assert!((sinrs[0] - 10.0).abs() < 1e-12);
        assert!((sinrs[1] - 10.0).abs() < 1e-12);
        // Lone transmitter with zero noise: infinite SINR; the idle link's
        // counterfactual hears it.
        model.resolve_sinrs(&[0], &mut sinrs);
        assert_eq!(sinrs[0], f64::INFINITY);
        assert!((sinrs[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn inactive_links_cannot_succeed() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 1.0, 1.0));
        assert_eq!(model.resolve_slot(&[false, true]), vec![1]);
        assert_eq!(model.resolve_slot(&[false, false]), Vec::<usize>::new());
    }
}
