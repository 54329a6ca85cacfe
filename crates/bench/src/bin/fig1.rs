//! F1 — regenerates **Figure 1** of the paper: mean number of successful
//! transmissions vs. transmission probability, four curves
//! ({uniform, square-root power} × {non-fading, Rayleigh}).
//!
//! Paper setup (reproduced exactly by the default config): 40 networks ×
//! 100 links on a 1000×1000 plane, link lengths U[20, 40], β = 2.5,
//! α = 2.2, ν = 4·10⁻⁷, p = 2 (sqrt: pᵢ = 2·√(dᵢ^2.2)), 25 transmit seeds,
//! 10 fading seeds.
//!
//! Usage: `cargo run -p rayfade-bench --release --bin fig1 [--quick] [--out dir] [--telemetry dir]`

use rayfade_bench::{telemetry_ref, Cli};
use rayfade_sim::{
    fmt_f, run_figure1_analytic, run_figure1_with_telemetry, write_gnuplot_script, Figure1Config,
    PowerFamily, ProgressSink, Table,
};

fn main() {
    let cli = Cli::parse();
    let config = if cli.quick {
        Figure1Config::smoke()
    } else {
        Figure1Config::default()
    };
    eprintln!(
        "figure 1: {} networks x {} links, {} q-points, {}x{} seeds ...",
        config.networks,
        config.topology.links,
        config.q_grid.len(),
        config.tx_seeds,
        config.fading_seeds
    );
    let tele = cli.experiment_telemetry("fig1");
    let progress = ProgressSink::stderr(config.networks, "networks", (config.networks / 10).max(1));
    let units = telemetry_ref(&tele).map(|t| t.registry().counter("rayfade_progress_units_total"));
    let on_network_done = |_| {
        progress.tick(1);
        if let Some(counter) = &units {
            counter.inc();
        }
    };
    let result = run_figure1_with_telemetry(&config, on_network_done, telemetry_ref(&tele));
    progress.finish();

    let mut table = Table::new(["q", "power", "model", "mean_successes", "std_err"]);
    for curve in &result.curves {
        for p in &curve.points {
            table.push_row([
                fmt_f(p.q, 3),
                curve.power.label().to_string(),
                if curve.rayleigh {
                    "rayleigh"
                } else {
                    "non-fading"
                }
                .to_string(),
                fmt_f(p.mean, 3),
                fmt_f(p.std_err, 3),
            ]);
        }
    }
    print!("{}", table.to_console());
    let path = cli.csv_path("fig1.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("\nwrote {}", path.display());

    // Wide-format CSV + gnuplot script for direct figure rendering.
    let mut wide = Table::new(["q", "uniform_nf", "uniform_ray", "sqrt_nf", "sqrt_ray"]);
    for (qi, &q) in config.q_grid.iter().enumerate() {
        wide.push_row([
            fmt_f(q, 3),
            fmt_f(result.curves[0].points[qi].mean, 3),
            fmt_f(result.curves[1].points[qi].mean, 3),
            fmt_f(result.curves[2].points[qi].mean, 3),
            fmt_f(result.curves[3].points[qi].mean, 3),
        ]);
    }
    wide.write_csv(cli.csv_path("fig1_wide.csv"))
        .expect("write CSV");
    write_gnuplot_script(
        cli.csv_path("fig1.gp"),
        "fig1_wide.csv",
        "fig1.png",
        "Figure 1: successful transmissions vs transmission probability",
        "transmission probability q",
        "successful transmissions",
        1,
        &[
            (2, "uniform / non-fading"),
            (3, "uniform / rayleigh"),
            (4, "square-root / non-fading"),
            (5, "square-root / rayleigh"),
        ],
    )
    .expect("write gnuplot script");

    // Closed-form (Theorem 1) cross-check of the Rayleigh curves: exact
    // expected successes, no Monte Carlo — written alongside.
    let mut analytic = Table::new(["q", "power", "mean_expected_successes"]);
    for family in [PowerFamily::Uniform, PowerFamily::SquareRoot] {
        let curve = run_figure1_analytic(&config, family);
        for p in &curve.points {
            analytic.push_row([fmt_f(p.q, 3), family.label().to_string(), fmt_f(p.mean, 3)]);
        }
    }
    let apath = cli.csv_path("fig1_analytic.csv");
    analytic.write_csv(&apath).expect("write CSV");
    eprintln!("wrote {}", apath.display());

    // Exact peak of the Rayleigh curve on the first network, found by
    // golden-section search on the Theorem 1 objective.
    let net = config.topology.generate(config.seed);
    let gm = rayfade_sinr::GainMatrix::from_geometry(
        &net,
        &PowerFamily::Uniform.assignment(),
        config.params.alpha,
    );
    let opt = rayfade_core::optimize_uniform_access(&gm, &config.params, 20, 1e-4);
    println!(
        "\nexact Rayleigh peak (network 0, uniform power): q* = {} -> E = {}",
        fmt_f(opt.q, 3),
        fmt_f(opt.expected_successes, 2)
    );

    // Headline comparison the paper highlights: peak of each curve and
    // the crossover behaviour (non-fading wins at low interference,
    // Rayleigh at high).
    println!();
    for curve in &result.curves {
        let peak = curve.argmax().expect("non-empty curve");
        println!(
            "peak {:<24} q = {:<5} mean = {}",
            curve.label(),
            fmt_f(peak.q, 2),
            fmt_f(peak.mean, 2)
        );
    }
    for power_idx in [0usize, 2] {
        let nf = &result.curves[power_idx];
        let ray = &result.curves[power_idx + 1];
        let low_q = 0;
        let high_q = nf.points.len() - 1;
        println!(
            "{}: at q={} nf-ray = {:+.2}; at q={} nf-ray = {:+.2}",
            nf.power.label(),
            fmt_f(nf.points[low_q].q, 2),
            nf.points[low_q].mean - ray.points[low_q].mean,
            fmt_f(nf.points[high_q].q, 2),
            nf.points[high_q].mean - ray.points[high_q].mean,
        );
    }
    if let Some(t) = &tele {
        t.finish();
    }
}
