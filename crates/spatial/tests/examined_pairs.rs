//! Work gate for the sparse build: examined pairs per receiver stay flat
//! in n at a fixed density.
//!
//! The tail bound charges each dyadic annulus of unexamined cells at its
//! own inner distance, and at a fixed density and α > 2 the mass beyond
//! radius R falls like R^{2−α} whatever n is, so the walk's stop ring does
//! not grow with n. A bound that charges all unexamined senders at the
//! nearest exterior distance grows its stop radius like n^{1/α}: it
//! examined 24.8 pairs per receiver at 2 048 links and 44 at 10⁴. Pair
//! counts are deterministic, so this gate does not drift with the
//! machine the way a wall-time gate does.

use rayfade_geometry::PaperTopology;
use rayfade_sinr::{PowerAssignment, SinrParams};
use rayfade_spatial::build_sparse_ratios_stats;

/// Examined pairs per receiver at the 10⁴-link dynamic benchmark's
/// density (one link per 10⁶ area units), α = 4, δ = 1e-3.
fn examined_per_receiver(links: usize) -> f64 {
    let net = PaperTopology {
        links,
        side: (links as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x5107);
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let (_, stats) = build_sparse_ratios_stats(
        &net,
        &PowerAssignment::figure1_uniform(),
        &params,
        1e-3,
        None,
    );
    stats.examined as f64 / links as f64
}

#[test]
fn examined_pairs_per_receiver_stay_flat_in_n() {
    let small = examined_per_receiver(2_048);
    let large = examined_per_receiver(32_768);
    let spread = small.max(large) / small.min(large);
    assert!(
        spread <= 1.1,
        "examined pairs per receiver moved from {small:.2} at 2 048 links to \
         {large:.2} at 32 768 ({:.0}% apart, at most 10% allowed)",
        (spread - 1.0) * 100.0
    );
}
