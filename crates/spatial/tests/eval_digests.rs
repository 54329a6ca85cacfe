//! Bit pins for batch Theorem-1 evaluation: every value the accumulator
//! hands out after the batch calls and after churn, hashed (floats by
//! their bit patterns), must equal a constant recorded from an earlier
//! revision of the evaluator.
//!
//! The tables are `cache_digests.rs`'s: the geometric builder's seven
//! configurations and the dense-input `SparseInterferenceRatios::from_gain`
//! case, plus the dense `InterferenceRatios` of that case's gain matrix.
//! On each, one accumulator runs `set_uniform(q)` for q ∈ {0, 0.02, 0.3, 1},
//! then `set_probs` with a seeded vector that holds 0, −0.0 and 1, then
//! 200 seeded `set_prob` steps (0, −0.0 and 1 among their values). After
//! each batch call and after the churn the digest takes every `probs()`
//! entry, every link's `success_probability` and `success_interval`,
//! `expected_successes`, `expected_successes_interval` and
//! `success_probabilities`. A rewrite of the batch kernels that skips a
//! receiver, reorders a log sum or a compensated sum, or lets a −0.0 out
//! changes a digest. On failure the message prints the full table as
//! computed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayfade_geometry::{ClusteredTopology, Network, PaperTopology};
use rayfade_sinr::{
    GainMatrix, InterferenceRatios, PowerAssignment, RatioTable, SinrParams,
    SparseInterferenceRatios, SuccessAccumulator,
};
use rayfade_spatial::build_sparse_ratios;

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

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Hashes everything a consumer can read back from `acc`.
fn read_back<R: RatioTable>(d: &mut Digest, ratios: &R, acc: &SuccessAccumulator) {
    for &q in acc.probs() {
        d.float(q);
    }
    for i in 0..ratios.len() {
        d.float(acc.success_probability(ratios, i));
        let (lo, hi) = acc.success_interval(ratios, i);
        d.float(lo);
        d.float(hi);
    }
    d.float(acc.expected_successes(ratios));
    let (lo, hi) = acc.expected_successes_interval(ratios);
    d.float(lo);
    d.float(hi);
    for p in acc.success_probabilities(ratios) {
        d.float(p);
    }
}

/// A probability with the edge values over-represented: 0, −0.0 and 1
/// each one time in five, otherwise uniform in [0, 1).
fn probability(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        _ => rng.gen::<f64>(),
    }
}

/// The batch calls and churn on one table, digested.
fn eval_digest<R: RatioTable>(ratios: &R, seed: u64) -> u64 {
    let n = ratios.len();
    let mut d = Digest::new();
    d.word(n as u64);
    let mut acc = SuccessAccumulator::new(n);
    for q in [0.0, 0.02, 0.3, 1.0] {
        acc.set_uniform(ratios, q);
        read_back(&mut d, ratios, &acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let probs: Vec<f64> = (0..n).map(|_| probability(&mut rng)).collect();
    acc.set_probs(ratios, &probs);
    read_back(&mut d, ratios, &acc);
    for _ in 0..200 {
        let j = rng.gen_range(0..n);
        let q = probability(&mut rng);
        acc.set_prob(ratios, j, q);
    }
    read_back(&mut d, ratios, &acc);
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

/// The geometric builder's configurations of `cache_digests.rs`, each
/// with its recorded evaluation digest.
fn cases() -> Vec<(&'static str, SparseInterferenceRatios, u64)> {
    let uniform = PowerAssignment::figure1_uniform();
    let dense_2k = uniform_deployment(2048, 1e6, 0x5107);
    let dense_10k = uniform_deployment(10_000, 1e6, 0x5108);
    let build = |net: &Network, power: &PowerAssignment, params: &SinrParams, delta: f64| {
        build_sparse_ratios(net, power, params, delta, None)
    };
    vec![
        (
            "aloha/n2048/delta1e-3",
            build(&dense_2k, &uniform, &steep(), 1e-3),
            0xde2334ac85b5326f,
        ),
        (
            "aloha/n2048/delta5e-2",
            build(&dense_2k, &uniform, &steep(), 5e-2),
            0x40d490b9b0ebe021,
        ),
        (
            "aloha/n10000/delta1e-3",
            build(&dense_10k, &uniform, &steep(), 1e-3),
            0xa7b7d481e820314e,
        ),
        (
            "aloha/n10000/delta5e-2",
            build(&dense_10k, &uniform, &steep(), 5e-2),
            0x66410ad2ec1bc0fb,
        ),
        (
            "sqrt_power/alpha3/n1500/delta1e-2",
            build(
                &uniform_deployment(1500, 1e6, 0xa3),
                &PowerAssignment::SquareRoot { scale: 2.0 },
                &SinrParams::new(3.0, 2.5, 4e-7),
                1e-2,
            ),
            0xedfbf23e6b60bdc0,
        ),
        (
            "clustered/n1500/delta1e-3",
            build(&clustered(0xc1), &uniform, &steep(), 1e-3),
            0x11c4a0db9b492746,
        ),
        (
            "full_scan/n300/delta0",
            build(&uniform_deployment(300, 1e5, 0xf5), &uniform, &steep(), 0.0),
            0xc8fccda3e904316a,
        ),
    ]
}

#[test]
fn geometric_cache_evaluations_match_recorded_digests() {
    let mut table = String::new();
    let mut mismatched = Vec::new();
    for (k, (name, ratios, want)) in cases().into_iter().enumerate() {
        let got = eval_digest(&ratios, 0xe7a1 + k as u64);
        table.push_str(&format!("{name}: {got:#018x}\n"));
        if got != want {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "evaluation digests moved for {mismatched:?}; computed table:\n{table}"
    );
}

#[test]
fn dense_input_evaluations_match_recorded_digests() {
    let net = uniform_deployment(300, 1e5, 0xf6);
    let params = steep();
    let gain = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
    let sparse = SparseInterferenceRatios::from_gain(&gain, &params, 5e-2);
    assert!(sparse.tau_max() > 0.0, "δ = 5e-2 must drop pairs");
    let dense = InterferenceRatios::new(&gain, &params);
    let got = (eval_digest(&sparse, 0xf6), eval_digest(&dense, 0xf6));
    assert_eq!(
        got,
        (0x79b812d03f5726ee, 0x6d3d0cf8e39fc3b7),
        "from_gain / dense digests moved: computed ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
