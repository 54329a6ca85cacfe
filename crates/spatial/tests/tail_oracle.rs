//! Oracle for the sparse builder's certificate, summed over every sender.
//!
//! For each receiver `i` the oracle recomputes, from geometry alone, the
//! Theorem 1 quantity `x_ji = β·S_ji/S_ii` of every other sender `j`. Two
//! things must hold for every receiver of every build:
//!
//! * each retained ratio equals `x_ji/(1 + x_ji)` within a relative
//!   1e-12 (the builder evaluates `β/(β + S_ii/S_ji)`, which rounds
//!   differently), and
//! * the exact log-mass `Σ ln(1 + x_ji)` of every sender the row does not
//!   retain — those dropped by the interior truncation and those the ring
//!   walk never examined — is at most the certificate `τᵢ`, and
//!   `τᵢ ≤ τ = −ln(1−δ)`, both within a relative 1e-12 for summation
//!   order.
//!
//! The second check is what the builder's tail bound certifies: a bound
//! that undercharges the unexamined senders lets the walk stop early and
//! the truncation spend budget it does not have. The first turns red
//! under `rayfade-sinr/inject-bug`, which scales every stored ratio.
//! The builds cover uniform deployments at two densities and a clustered
//! one, α ∈ {2.2, 3, 4, 5}, uniform and square-root power, and
//! δ ∈ {1e-6, 1e-3, 5e-2, 0.5}, at a few hundred links each.

use rayfade_geometry::{ClusteredTopology, Network, PaperTopology};
use rayfade_sinr::{kahan_sum, truncation_budget, PowerAssignment, SinrParams};
use rayfade_spatial::build_sparse_ratios_stats;

/// Relative slack for rounding: the oracle's arithmetic and summation
/// order differ from the builder's by a few ulps per term.
const REL: f64 = 1e-12;

const DELTAS: [f64; 4] = [1e-6, 1e-3, 5e-2, 0.5];

/// Links per deployment of the main oracle test.
const LINKS: usize = 200;

fn uniform(links: usize, area_per_link: f64, seed: u64) -> Network {
    PaperTopology {
        links,
        side: (links as f64 * area_per_link).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(seed)
}

/// `x_ji = β·S_ji/S_ii` of every sender `j` at receiver `i`, from
/// geometry, into `row` (`x_ii` is unused).
fn theorem1_x(net: &Network, powers: &[f64], params: &SinrParams, i: usize, row: &mut Vec<f64>) {
    let li = net.link(i);
    let s_ii = powers[i] / li.sender.distance(&li.receiver).powf(params.alpha);
    row.clear();
    row.extend(net.links().iter().zip(powers).map(|(lj, &p)| {
        params.beta * (p / lj.sender.distance(&li.receiver).powf(params.alpha)) / s_ii
    }));
}

/// What the checks found.
#[derive(Default)]
struct Findings {
    rows: usize,
    /// Rows with unexamined or dropped senders (`τᵢ > 0`).
    truncated_rows: usize,
    failures: Vec<String>,
}

/// Builds the cache at every `δ` and holds each row to the oracle.
fn check(
    label: &str,
    net: &Network,
    power: &PowerAssignment,
    params: &SinrParams,
    deltas: &[f64],
    found: &mut Findings,
) {
    let powers = power.powers(net, params.alpha);
    let builds: Vec<_> = deltas
        .iter()
        .map(|&delta| {
            let (ratios, _) = build_sparse_ratios_stats(net, power, params, delta, None);
            (delta, truncation_budget(delta), ratios)
        })
        .collect();
    let (mut x, mut dropped) = (Vec::new(), Vec::new());
    for i in 0..net.len() {
        theorem1_x(net, &powers, params, i, &mut x);
        for (delta, budget, ratios) in &builds {
            let (cols, rhos) = ratios.row(i);
            let mut retained = cols.iter().zip(rhos).peekable();
            dropped.clear();
            for (j, &x_ji) in x.iter().enumerate() {
                if j == i {
                    continue;
                }
                match retained.peek() {
                    Some(&(&col, &rho)) if col as usize == j => {
                        let exact = x_ji / (1.0 + x_ji);
                        if (rho - exact).abs() > REL * exact {
                            found.failures.push(format!(
                                "{label}, δ = {delta}: ρ({j}→{i}) = {rho:e}, geometry gives {exact:e}"
                            ));
                        }
                        retained.next();
                    }
                    _ => dropped.push(x_ji.ln_1p()),
                }
            }
            let mass = kahan_sum(dropped.iter().copied());
            let tau = ratios.tau(i);
            if mass > tau * (1.0 + REL) || tau > budget * (1.0 + REL) {
                found.failures.push(format!(
                    "{label}, δ = {delta}: receiver {i} drops mass {mass:e} \
                     against τᵢ = {tau:e} (τ = {budget:e})"
                ));
            }
            found.rows += 1;
            found.truncated_rows += usize::from(tau > 0.0);
        }
    }
}

fn report(found: &Findings) {
    assert!(
        found.failures.is_empty(),
        "{} of the checks failed, first ones:\n{}",
        found.failures.len(),
        found.failures[..found.failures.len().min(10)].join("\n")
    );
}

#[test]
fn certificate_covers_every_dropped_and_unexamined_sender() {
    let clustered = ClusteredTopology {
        links: LINKS,
        clusters: 5,
        side: 30_000.0,
        spread: 250.0,
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0xc3);
    let deployments = [
        ("aloha_density", uniform(LINKS, 1e6, 0x0a1)),
        ("smoke_density", uniform(LINKS, 1e5, 0x0a2)),
        ("clustered", clustered),
    ];
    let powers = [
        PowerAssignment::figure1_uniform(),
        PowerAssignment::figure1_square_root(),
    ];
    let mut found = Findings::default();
    for (name, net) in &deployments {
        for alpha in [2.2, 3.0, 4.0, 5.0] {
            let params = SinrParams::new(alpha, 2.5, 4e-7);
            for power in &powers {
                let label = format!("{name}, α = {alpha}, {power:?}");
                check(&label, net, power, &params, &DELTAS, &mut found);
            }
        }
    }
    report(&found);
    assert_eq!(found.rows, 3 * 4 * 2 * DELTAS.len() * LINKS);
    assert!(
        found.truncated_rows > found.rows / 2,
        "only {} of {} rows drop anything: the certificate is barely exercised",
        found.truncated_rows,
        found.rows
    );
}

/// One sender 20 orders of magnitude louder than the rest. A bound built
/// from a running total of unexamined power cancels to zero once that
/// sender is examined, stops the walk with a zero tail and leaves the
/// far senders uncounted; sender counts times the largest power cannot
/// cancel.
#[test]
fn wide_range_custom_powers_keep_the_certificate_sound() {
    let n = 3_000;
    let net = uniform(n, 1e6, 0x5107);
    let mut powers = vec![1.0; n];
    powers[0] = 1e20;
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let mut found = Findings::default();
    check(
        "wide-range powers",
        &net,
        &PowerAssignment::Custom(powers),
        &params,
        &[1e-6],
        &mut found,
    );
    report(&found);
    assert_eq!(found.rows, n);
}
