//! Bit pins for the dynamic engine: every replication's `DynamicOutcome`,
//! hashed field by field (floats by their bit patterns), must equal a
//! constant recorded from an earlier revision of the slot loop.
//!
//! The configurations cover every policy, all three ways of resolving a
//! slot (realized Rayleigh fading, realized non-fading SINR, and the
//! analytic Theorem-1 Bernoulli draw), all three arrival processes, and
//! instances on both sides of `SPARSE_CROSSOVER` (the dense amortized
//! cache below it, the certified sparse cache at it). The max-weight
//! policies are pinned below the crossover only: above it they take a
//! dense gain, whose O(n²) build alone takes seconds in a debug build. A rewrite of the
//! loop, the queues, a policy or a resolver that moves a single random
//! draw or reorders a floating-point sum changes a digest. On failure the
//! message prints the full table as computed, ready to paste only when a
//! change is meant to move bits (and then `results/` must be regenerated
//! with every verdict and λ* unchanged).

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, DynamicOutcome, PolicyKind, SlotModelKind,
    SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;

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

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

fn digest(out: &DynamicOutcome) -> u64 {
    let mut d = Digest::new();
    d.word(out.throughput_per_link.to_bits());
    d.word(out.offered_per_link.to_bits());
    d.word(out.mean_delay.map_or(u64::MAX, f64::to_bits));
    d.word(out.p95_delay.unwrap_or(u64::MAX));
    d.word(out.final_backlog_per_link.to_bits());
    d.words(&out.trace.slots);
    d.words(&out.trace.total_backlog);
    d.words(&out.trace.cum_arrivals);
    d.words(&out.trace.cum_departures);
    match out.sparse_accuracy {
        Some(acc) => {
            d.word(acc.delta.to_bits());
            d.word(acc.tau_max.to_bits());
        }
        None => d.word(u64::MAX),
    }
    d.0
}

const BERNOULLI: ArrivalProcess = ArrivalProcess::Bernoulli { rate: 0.08 };
const BATCH: ArrivalProcess = ArrivalProcess::Batch {
    rate: 0.12,
    batch: 3,
};
const MARKOV: ArrivalProcess = ArrivalProcess::MarkovBurst {
    rate: 0.07,
    burst: 4.0,
};

/// 12 links in the Figure 1 geometry, two replications: well below the
/// crossover, and loaded enough that queues build and drain.
fn small(
    policy: PolicyKind,
    model: SuccessModelKind,
    slot_model: SlotModelKind,
    arrival: ArrivalProcess,
) -> DynamicConfig {
    DynamicConfig {
        links: 12,
        networks: 2,
        slots: 600,
        arrival,
        policy,
        model,
        slot_model,
        topology: PaperTopology {
            links: 12,
            side: 300.0,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 20,
        seed: 0xb175,
    }
}

/// `SPARSE_CROSSOVER` links at one link per 10⁶ area units (the 10⁴-link
/// benchmark's density), two replications: the analytic resolver runs on
/// the certified sparse cache.
fn at_crossover(policy: PolicyKind, arrival: ArrivalProcess) -> DynamicConfig {
    let n = SPARSE_CROSSOVER;
    DynamicConfig {
        links: n,
        networks: 2,
        slots: 100,
        arrival,
        policy,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: n,
            side: (n as f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 5,
        seed: 0x5107,
    }
}

/// (name, configuration, one digest per replication).
fn pins() -> Vec<(&'static str, DynamicConfig, &'static [u64])> {
    use PolicyKind::{Aloha, MaxWeight, RayleighMaxWeight, Regret};
    use SlotModelKind::{Analytic, MonteCarlo};
    use SuccessModelKind::{NonFading, Rayleigh};
    vec![
        (
            "max_weight/non_fading/monte_carlo/bernoulli",
            small(MaxWeight, NonFading, MonteCarlo, BERNOULLI),
            &[0xe13c7b075d11e2fc, 0xe7ea990e526e22cd],
        ),
        (
            "max_weight/rayleigh/analytic/batch",
            small(MaxWeight, Rayleigh, Analytic, BATCH),
            &[0xddbb62fd6ebe6471, 0x6caed9ff8567ec83],
        ),
        (
            "aloha/non_fading/monte_carlo/markov",
            small(Aloha, NonFading, MonteCarlo, MARKOV),
            &[0x4db7a3dc3e87231a, 0x002fb32b698e49e5],
        ),
        (
            "aloha/rayleigh/monte_carlo/bernoulli",
            small(Aloha, Rayleigh, MonteCarlo, BERNOULLI),
            &[0xd987b62a4575f4c4, 0x7795cb01bbe5371b],
        ),
        (
            "aloha/rayleigh/analytic/batch",
            small(Aloha, Rayleigh, Analytic, BATCH),
            &[0x2eef93aa6791cf7d, 0xfd6e22f1f047a1ec],
        ),
        (
            "regret/non_fading/monte_carlo/batch",
            small(Regret, NonFading, MonteCarlo, BATCH),
            &[0x74fbaee846983803, 0x1f8d26871fba8d37],
        ),
        (
            "regret/rayleigh/monte_carlo/markov",
            small(Regret, Rayleigh, MonteCarlo, MARKOV),
            &[0xe5c6909ae0c79a46, 0x5675ea760e1d4005],
        ),
        (
            "regret/rayleigh/analytic/bernoulli",
            small(Regret, Rayleigh, Analytic, BERNOULLI),
            &[0x7719848abdfeedb0, 0x96243b32e7e08196],
        ),
        (
            "rayleigh_max_weight/rayleigh/monte_carlo/bernoulli",
            small(RayleighMaxWeight, Rayleigh, MonteCarlo, BERNOULLI),
            &[0x48168c3bd75caf4b, 0x3e019ba785e875d6],
        ),
        (
            "rayleigh_max_weight/rayleigh/analytic/markov",
            small(RayleighMaxWeight, Rayleigh, Analytic, MARKOV),
            &[0xe12647f1a63d0d0e, 0xc5709290c9c31ffa],
        ),
        (
            "crossover/aloha/rayleigh/analytic/bernoulli",
            at_crossover(Aloha, BERNOULLI),
            &[0x3887507c44793ae7, 0xc3e12b5fcb379f64],
        ),
        (
            "crossover/regret/rayleigh/analytic/markov",
            at_crossover(Regret, MARKOV),
            &[0x4e0d2a0dc23b34bc, 0x5baa7d58bc3003a8],
        ),
    ]
}

#[test]
fn outcomes_match_recorded_digests() {
    let mut table = String::new();
    let mut mismatched = Vec::new();
    for (name, cfg, want) in pins() {
        let got: Vec<u64> = DynamicEngine::new(cfg).run().iter().map(digest).collect();
        let row: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
        table.push_str(&format!("{name}: [{}]\n", row.join(", ")));
        if got != want {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "outcome digests moved for {mismatched:?}; computed table:\n{table}"
    );
}
