//! Bit pins for the sparse interference cache: every value the
//! evaluator reads, hashed row by row (floats by their bit patterns),
//! plus the builder's `SparseBuildStats`, must equal a constant recorded
//! from an earlier revision of the builder.
//!
//! Per row the digest covers the retained columns and the bits of each
//! ρ, the noise factor and the certificate τᵢ. The
//! configurations cover the 10⁴-link dynamic benchmark's density at two
//! sizes and two truncation bounds, square-root power at α = 3, a
//! clustered deployment (crowded and empty grid cells), a full scan
//! (δ = 0), and the dense-input `SparseInterferenceRatios::from_gain`,
//! which shares the truncation routine. A rewrite of the ring walk, the
//! truncation or the CSR assembly that moves a single examined pair,
//! reorders a floating-point sum or drops a different entry changes a
//! digest. On failure the message prints the full table as computed,
//! ready to paste only when a change is meant to move bits. The six
//! δ > 0 builder constants were re-recorded when the lumped exterior
//! bound gave way to the annulus-by-annulus tail bound, which moves the
//! stop ring, τᵢ and the truncation of every such row; the full scan and
//! the `from_gain` constant are the link-indexed builder's. All eight
//! were recomputed, on the builder that produced them, when the table
//! stopped carrying the own signal and the digest dropped that word.

use rayfade_geometry::{ClusteredTopology, Network, PaperTopology};
use rayfade_sinr::{GainMatrix, PowerAssignment, SinrParams, SparseInterferenceRatios};
use rayfade_spatial::{build_sparse_ratios_stats, SparseBuildStats};

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn digest(ratios: &SparseInterferenceRatios, stats: Option<&SparseBuildStats>) -> u64 {
    let mut d = Digest::new();
    d.word(ratios.len() as u64);
    d.word(ratios.nnz() as u64);
    for i in 0..ratios.len() {
        let (cols, rhos) = ratios.row(i);
        d.word(cols.len() as u64);
        for (&j, &r) in cols.iter().zip(rhos) {
            d.word(u64::from(j));
            d.word(r.to_bits());
        }
        d.word(ratios.noise_factor(i).to_bits());
        d.word(ratios.tau(i).to_bits());
    }
    match stats {
        Some(s) => {
            d.word(s.examined);
            d.word(s.retained);
            d.word(s.truncated);
            d.word(s.tau_max.to_bits());
        }
        None => d.word(u64::MAX),
    }
    d.0
}

/// Uniform deployment of `links` links with lengths 20–40 at one link
/// per `area_per_link` area units.
fn uniform_deployment(links: usize, area_per_link: f64, seed: u64) -> Network {
    PaperTopology {
        links,
        side: (links as f64 * area_per_link).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(seed)
}

/// The 10⁴-link dynamic benchmark's density: one link per 10⁶ area units.
fn aloha_density(links: usize, seed: u64) -> Network {
    uniform_deployment(links, 1e6, seed)
}

/// The 10⁵-link smoke run's density, ten times denser: one link per 10⁵
/// area units, where far more pairs survive truncation.
fn smoke_density(links: usize, seed: u64) -> Network {
    uniform_deployment(links, 1e5, seed)
}

/// Six tight clusters in a wide square: most grid cells are empty and a
/// few hold dozens of senders.
fn clustered(seed: u64) -> Network {
    ClusteredTopology {
        links: 1500,
        clusters: 6,
        side: 40_000.0,
        spread: 250.0,
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(seed)
}

fn steep() -> SinrParams {
    SinrParams::new(4.0, 2.5, 4e-7)
}

/// A builder configuration and its recorded digest.
struct Case {
    name: &'static str,
    network: Network,
    power: PowerAssignment,
    params: SinrParams,
    delta: f64,
    digest: u64,
}

fn case(name: &'static str, network: Network, delta: f64, digest: u64) -> Case {
    Case {
        name,
        network,
        power: PowerAssignment::figure1_uniform(),
        params: steep(),
        delta,
        digest,
    }
}

fn cases() -> Vec<Case> {
    let dense_2k = aloha_density(2048, 0x5107);
    let dense_10k = aloha_density(10_000, 0x5108);
    vec![
        case(
            "aloha/n2048/delta1e-3",
            dense_2k.clone(),
            1e-3,
            0xd45e0a2fdecea8b9,
        ),
        case("aloha/n2048/delta5e-2", dense_2k, 5e-2, 0xb0ab2e6a5415947c),
        case(
            "aloha/n10000/delta1e-3",
            dense_10k.clone(),
            1e-3,
            0xa0fbe7531c186b51,
        ),
        case(
            "aloha/n10000/delta5e-2",
            dense_10k,
            5e-2,
            0xad208f8dbba9d591,
        ),
        Case {
            power: PowerAssignment::SquareRoot { scale: 2.0 },
            params: SinrParams::new(3.0, 2.5, 4e-7),
            ..case(
                "sqrt_power/alpha3/n1500/delta1e-2",
                aloha_density(1500, 0xa3),
                1e-2,
                0xa606fb1072ea4449,
            )
        },
        case(
            "clustered/n1500/delta1e-3",
            clustered(0xc1),
            1e-3,
            0x050766c4e7a6e262,
        ),
        case(
            "full_scan/n300/delta0",
            smoke_density(300, 0xf5),
            0.0,
            0xe9e444bd495c75e8,
        ),
    ]
}

#[test]
fn geometric_caches_match_recorded_digests() {
    let mut table = String::new();
    let mut mismatched = Vec::new();
    for c in cases() {
        let (ratios, stats) =
            build_sparse_ratios_stats(&c.network, &c.power, &c.params, c.delta, None);
        let got = digest(&ratios, Some(&stats));
        table.push_str(&format!("{}: {got:#018x} {stats:?}\n", c.name));
        if got != c.digest {
            mismatched.push(c.name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "cache digests moved for {mismatched:?}; computed table:\n{table}"
    );
}

#[test]
fn dense_input_cache_matches_recorded_digest() {
    let net = smoke_density(300, 0xf6);
    let params = steep();
    let gain = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
    let ratios = SparseInterferenceRatios::from_gain(&gain, &params, 5e-2);
    assert!(ratios.tau_max() > 0.0, "δ = 5e-2 must drop pairs");
    let got = digest(&ratios, None);
    assert_eq!(
        got, 0xd3c80204b1432a2b,
        "from_gain digest moved: computed {got:#018x}"
    );
}
