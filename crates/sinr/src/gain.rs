//! Expected signal-strength (gain) matrices.
//!
//! `S̄_{j,i}` is the expected strength at link `i`'s receiver of the signal
//! transmitted by link `j`'s sender. Under the geometric path-loss law this
//! is `p_j / d(s_j, r_i)^α`, but the paper's reduction (Sec. 2) holds for
//! *arbitrary* non-negative matrices — so [`GainMatrix`] can also be built
//! from raw values ([`GainMatrix::from_raw`]) to model measured or
//! adversarial propagation environments.

use crate::params::SinrParams;
use crate::power::PowerAssignment;
use rayfade_geometry::LinkGeometry;
use serde::{Deserialize, Serialize};

/// Dense matrix of expected signal strengths `S̄_{j,i}`.
///
/// Stored row-major **by receiver**: the strengths of all senders at
/// receiver `i` are contiguous, so interference sums (`Σ_j S̄_{j,i}`) walk
/// memory linearly — that sum is the innermost loop of every Monte Carlo
/// slot evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GainMatrix {
    n: usize,
    /// `g[i * n + j] = S̄_{j,i}`.
    g: Vec<f64>,
}

impl GainMatrix {
    /// Builds the matrix from link geometry, a power assignment and the
    /// path-loss exponent: `S̄_{j,i} = p_j / d(s_j, r_i)^α`.
    ///
    /// # Panics
    /// If any cross distance is zero (a sender exactly on top of a receiver
    /// has unbounded gain under the path-loss law) or any entry would be
    /// non-finite.
    pub fn from_geometry<G: LinkGeometry>(
        geometry: &G,
        power: &PowerAssignment,
        alpha: f64,
    ) -> Self {
        let n = geometry.len();
        let powers = power.powers(geometry, alpha);
        let mut g = vec![0.0; n * n];
        for (i, row) in g.chunks_exact_mut(n.max(1)).enumerate() {
            geometry_row(geometry, &powers, alpha, i, row);
        }
        GainMatrix { n, g }
    }

    /// Wraps a raw row-major-by-receiver matrix: entry `(i, j)` of the
    /// input is `S̄_{j,i}`.
    ///
    /// # Panics
    /// If dimensions mismatch or entries are negative/non-finite.
    pub fn from_raw(n: usize, g: Vec<f64>) -> Self {
        assert_eq!(g.len(), n * n, "matrix must be n*n");
        assert!(
            g.iter().all(|v| v.is_finite() && *v >= 0.0),
            "gains must be finite and non-negative"
        );
        GainMatrix { n, g }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Expected strength `S̄_{j,i}` of sender `j` at receiver `i`.
    #[inline]
    pub fn gain(&self, j: usize, i: usize) -> f64 {
        self.g[i * self.n + j]
    }

    /// Expected strength of link `i`'s own signal, `S̄_{i,i}`.
    #[inline]
    pub fn signal(&self, i: usize) -> f64 {
        self.g[i * self.n + i]
    }

    /// All sender strengths at receiver `i` (contiguous slice of length
    /// `n`, indexed by sender).
    #[inline]
    pub fn at_receiver(&self, i: usize) -> &[f64] {
        &self.g[i * self.n..(i + 1) * self.n]
    }

    /// Restriction of the matrix to a subset of links (preserving order).
    pub fn submatrix(&self, indices: &[usize]) -> GainMatrix {
        let m = indices.len();
        let mut g = vec![0.0; m * m];
        for (a, &i) in indices.iter().enumerate() {
            for (b, &j) in indices.iter().enumerate() {
                g[a * m + b] = self.gain(j, i);
            }
        }
        GainMatrix { n: m, g }
    }

    /// Whether link `i` could succeed with SINR threshold `β` even with no
    /// interference at all: `S̄_{i,i} ≥ β·ν`.
    ///
    /// Links failing this are hopeless in the non-fading model (the "large
    /// noise" case the paper excludes, Sec. 2); in the Rayleigh model they
    /// still succeed with positive probability.
    #[inline]
    pub fn feasible_alone(&self, i: usize, params: &SinrParams) -> bool {
        self.signal(i) >= params.beta * params.noise
    }
}

/// Fills `row` with receiver `i`'s gains `S̄_{j,i} = p_j / d(s_j, r_i)^α`
/// from every sender `j`, `powers` holding the `p_j`: row `i` of
/// [`GainMatrix::from_geometry`], its asserts included. The ratio table
/// built from geometry
/// ([`InterferenceRatios::from_geometry`](crate::InterferenceRatios::from_geometry))
/// calls it one receiver at a time, so both routes compute the same
/// gains.
pub(crate) fn geometry_row<G: LinkGeometry>(
    geometry: &G,
    powers: &[f64],
    alpha: f64,
    i: usize,
    row: &mut [f64],
) {
    for (j, slot) in row.iter_mut().enumerate() {
        let d = geometry.cross_dist(j, i);
        assert!(d > 0.0, "cross distance d(s_{j}, r_{i}) must be positive");
        let v = powers[j] / d.powf(alpha);
        assert!(v.is_finite(), "gain S({j},{i}) must be finite");
        *slot = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::{Link, Network, Point};

    fn simple_net() -> Network {
        // Link 0: sender (0,0), receiver (1,0); link 1: sender (5,0), receiver (5,1).
        Network::new(vec![
            Link::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            Link::new(Point::new(5.0, 0.0), Point::new(5.0, 1.0)),
        ])
    }

    #[test]
    fn geometry_gains_follow_path_loss() {
        let net = simple_net();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(2.0), 2.0);
        // S(0,0) = 2 / 1^2 = 2.
        assert!((gm.signal(0) - 2.0).abs() < 1e-12);
        // S(1,1) = 2 / 1^2 = 2.
        assert!((gm.signal(1) - 2.0).abs() < 1e-12);
        // S(0,1): sender (0,0) to receiver (5,1): d^2 = 26.
        assert!((gm.gain(0, 1) - 2.0 / 26.0).abs() < 1e-12);
        // S(1,0): sender (5,0) to receiver (1,0): d = 4.
        assert!((gm.gain(1, 0) - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn at_receiver_slice_is_sender_indexed() {
        let net = simple_net();
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(1.0), 2.0);
        let row = gm.at_receiver(0);
        assert_eq!(row.len(), 2);
        assert_eq!(row[0], gm.gain(0, 0));
        assert_eq!(row[1], gm.gain(1, 0));
    }

    #[test]
    fn raw_matrix_round_trip() {
        // Receiver-major: row i holds S(j, i) for all j.
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 2.0, 20.0]);
        assert_eq!(gm.signal(0), 10.0);
        assert_eq!(gm.signal(1), 20.0);
        assert_eq!(gm.gain(1, 0), 1.0);
        assert_eq!(gm.gain(0, 1), 2.0);
    }

    #[test]
    fn submatrix_preserves_entries() {
        let gm = GainMatrix::from_raw(
            3,
            vec![
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 9.0,
            ],
        );
        let sub = gm.submatrix(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.signal(0), gm.signal(0));
        assert_eq!(sub.signal(1), gm.signal(2));
        assert_eq!(sub.gain(1, 0), gm.gain(2, 0));
        assert_eq!(sub.gain(0, 1), gm.gain(0, 2));
    }

    #[test]
    fn feasible_alone_checks_noise_margin() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 0.1]);
        let params = SinrParams::new(2.0, 2.0, 1.0); // beta*nu = 2.0
        assert!(gm.feasible_alone(0, &params)); // 10 >= 2
        assert!(!gm.feasible_alone(1, &params)); // 0.1 < 2
                                                 // With zero noise everyone is feasible alone.
        let no_noise = SinrParams::new(2.0, 2.0, 0.0);
        assert!(gm.feasible_alone(1, &no_noise));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cross_distance_rejected() {
        let net = Network::new(vec![
            Link::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            // Sender of link 1 sits exactly on receiver of link 0.
            Link::new(Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
        ]);
        let _ = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(1.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn raw_matrix_shape_checked() {
        let _ = GainMatrix::from_raw(2, vec![1.0; 3]);
    }

    #[test]
    fn square_root_power_gains() {
        let net = simple_net();
        let alpha = 2.2;
        let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_square_root(), alpha);
        // Both links have length 1, so p = 2 * 1^1.1 = 2 and signal = 2.
        assert!((gm.signal(0) - 2.0).abs() < 1e-12);
        assert!((gm.signal(1) - 2.0).abs() < 1e-12);
    }
}
