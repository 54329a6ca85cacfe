//! D1 — queue stability under stochastic arrivals: sweep the mean
//! arrival rate λ for every (policy, model) pair on a high-interference
//! network and locate the sustainable-load frontier λ*.
//!
//! Links are packed into a small square (strong interference pressure),
//! packets arrive per link as a Bernoulli(λ) stream identical across
//! cells, and three online policies compete: queue-weighted max-weight,
//! queue-gated ALOHA, and per-link regret learning. Each cell runs under
//! the deterministic non-fading SINR model and under Rayleigh fading.
//! A cell is stable when the least-squares drift of its sampled total
//! backlog stays below 5% of the offered load (see
//! `rayfade_dynamic::stability`).
//!
//! Expected shape (documented in EXPERIMENTS.md): max-weight dominates
//! ALOHA in throughput at every λ, and under high interference Rayleigh
//! fading sustains at least as much load as the non-fading model for at
//! least one policy — fading randomizes interference, so the strongest
//! blocker is not *always* present.
//!
//! With `--telemetry dir --monitor`, the sweep also runs the online
//! health monitor (watermark, throughput-collapse, and delay-SLO
//! detectors per network) and journals its `health` records after each
//! replication's `dyn_net`. Monitoring never changes the schedule: the
//! monitored report is bit-equal to the plain one.
//!
//! Usage: `cargo run -p rayfade-bench --release --bin stability_exp [--quick] [--out dir] [--telemetry dir [--trace] [--monitor]]`

use rayfade_bench::{telemetry_ref, Cli};
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, LambdaSweep, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sim::{fmt_f, Table};
use rayfade_sinr::SinrParams;
use rayfade_telemetry::MonitorConfig;

fn main() {
    let cli = Cli::parse();
    let (links, networks, slots, steps, max_lambda) = if cli.quick {
        (10, 2, 3_000u64, 4, 0.12)
    } else {
        (20, 4, 20_000u64, 10, 0.20)
    };
    eprintln!(
        "stability experiment: {links} links, {networks} networks, {slots} slots, \
         {steps} λ steps up to {max_lambda} ..."
    );

    // A dense deployment: ~`links` sender/receiver pairs inside a square
    // a few link-lengths wide, so concurrent transmissions interfere
    // strongly and the scheduling policy actually matters.
    let base = DynamicConfig {
        links,
        networks,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::NonFading,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side: 150.0,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: (slots / 100).max(1),
        seed: 0xd1_4a,
    };
    let tele = cli.experiment_telemetry("stability");
    let sweep = LambdaSweep::linear(base, max_lambda, steps);
    let monitor = cli.monitor.then(MonitorConfig::default);
    let report = sweep.run_with_telemetry(telemetry_ref(&tele), monitor.as_ref());

    let mut table = Table::new([
        "policy",
        "model",
        "lambda",
        "offered",
        "throughput",
        "mean_delay",
        "p95_delay",
        "drift",
        "verdict",
    ]);
    for cell in &report.cells {
        table.push_row([
            cell.policy.label().to_string(),
            cell.model.label().to_string(),
            fmt_f(cell.lambda, 4),
            fmt_f(cell.offered, 4),
            fmt_f(cell.throughput, 4),
            cell.mean_delay
                .map_or_else(|| "-".to_string(), |d| fmt_f(d, 2)),
            cell.p95_delay
                .map_or_else(|| "-".to_string(), |d| d.to_string()),
            fmt_f(cell.drift, 4),
            cell.verdict.label().to_string(),
        ]);
    }
    print!("{}", table.to_console());

    // λ* summary and the two documented claims.
    println!("\nsustainable-load frontier λ* (largest λ stable from below):");
    for policy in PolicyKind::all() {
        for model in SuccessModelKind::all() {
            let star = report.lambda_star(policy, model);
            println!(
                "  {:>10} / {:<10} λ* = {}",
                policy.label(),
                model.label(),
                star.map_or_else(|| "none".to_string(), |l| fmt_f(l, 4)),
            );
        }
    }
    let rayleigh_wins = PolicyKind::all().iter().any(|&p| {
        let ray = report.lambda_star(p, SuccessModelKind::Rayleigh);
        let nf = report.lambda_star(p, SuccessModelKind::NonFading);
        ray.unwrap_or(0.0) >= nf.unwrap_or(0.0)
    });
    println!(
        "claim: Rayleigh λ* ≥ non-fading λ* for ≥1 policy — {}",
        if rayleigh_wins { "HOLDS" } else { "VIOLATED" }
    );
    let mw_dominates = SuccessModelKind::all().iter().all(|&m| {
        report
            .curve(PolicyKind::MaxWeight, m)
            .iter()
            .zip(report.curve(PolicyKind::Aloha, m))
            .all(|(mw, al)| mw.throughput + 1e-9 >= al.throughput)
    });
    println!(
        "claim: max-weight throughput ≥ ALOHA at every λ — {}",
        if mw_dominates { "HOLDS" } else { "VIOLATED" }
    );

    let path = cli.csv_path("stability.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
    if let Some(t) = &tele {
        t.finish();
    }
}
