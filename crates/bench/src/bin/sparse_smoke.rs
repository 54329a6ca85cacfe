//! S1 — the sparse-scalability smoke: Theorem 1 at 100 000 links.
//!
//! Generates a paper-style uniform deployment at `n = 100_000` (the dense
//! ratio cache alone would need `n² × 8 B ≈ 80 GB`, before the transpose),
//! builds the ε-truncated [`rayfade_sinr::SparseInterferenceRatios`]
//! through the spatial grid, and evaluates the certified success-probability interval at a
//! uniform transmission probability. The run fails (exit ≠ 0) when
//!
//! * the certified interval is malformed or escapes `[0, n]`,
//! * the retained pair count is not actually sparse (`nnz ≥ n²/100`), or
//! * peak RSS exceeds [`RSS_CEILING_BYTES`] (Linux; measured from
//!   `/proc/self/status` `VmHWM`, so it covers the whole process —
//!   topology, grid, CSR, and transpose together). The builder streams
//!   each chunk of receivers into its own CSR fragment, so the whole run
//!   peaks near 20 MB.
//!
//! Artifacts: `sparse_smoke.csv` in `--out` (one row of build/eval
//! statistics including peak RSS), plus the usual journal/metrics dumps
//! under `--telemetry <dir>` — the builder journals a `sparse_ratios`
//! event carrying δ and the certificate `τ_max`.
//!
//! `--quick` drops to 10 000 links at the same deployment density for a
//! fast local sanity pass; CI runs the full size. `--links N` runs `N`
//! links at the same density instead (e.g. `--links 1000000`, which the
//! builder handles inside the same RSS ceiling).

use rayfade_bench::{exit_usage, telemetry_ref, Cli, USAGE};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{PowerAssignment, SinrParams, SuccessAccumulator};
use rayfade_spatial::build_sparse_ratios_stats;
use std::time::Instant;

/// Peak-RSS ceiling for the full run: 256 MB, ~13× the measured
/// footprint (19 MB at one and at four threads, 2-vCPU x86-64 VM) and
/// well below the ~0.7 GB of a build that keeps every receiver's
/// examined row until assembly, so such a build fails the run.
const RSS_CEILING_BYTES: u64 = 256 * 1024 * 1024;

/// Default link count (quick mode divides by 10; `--links` overrides).
const LINKS: usize = 100_000;

/// Deployment density: one link per 10⁵ area units (`side = √(n·10⁵)`),
/// matching the long-range regime where a 100k dense build is hopeless
/// but interference is still far from negligible per receiver.
const AREA_PER_LINK: f64 = 1e5;

/// Truncation bound δ: certificate width `1 − e^{−τ} ≤ 1%` per link.
const DELTA: f64 = 1e-2;

/// Uniform transmission probability used for the evaluation pass.
const Q: f64 = 0.5;

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// off Linux / if the field is missing.
fn peak_rss_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Splits `--links N` off the command line (`args`, without the program
/// name) and parses the rest as the common options.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Option<usize>, Cli), String> {
    let mut links = None;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--links" {
            let value = args.next().ok_or("--links requires a link count")?;
            let n: usize = value.parse().map_err(|e| format!("--links {value}: {e}"))?;
            if n == 0 {
                return Err("--links must be at least 1".to_string());
            }
            links = Some(n);
        } else {
            rest.push(a);
        }
    }
    let cli = Cli::parse_from(rest).map_err(|e| e.to_string())?;
    Ok((links, cli))
}

fn main() {
    let (links, cli) = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| exit_usage(&e, &format!("[--links N] {USAGE}")));
    let tele = cli.experiment_telemetry("sparse_smoke");

    let links = links.unwrap_or(if cli.quick { LINKS / 10 } else { LINKS });
    let topology = PaperTopology {
        links,
        side: (links as f64 * AREA_PER_LINK).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    };
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let power = PowerAssignment::figure1_uniform();

    let start = Instant::now();
    let net = topology.generate(0x51e5);
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let (ratios, stats) =
        build_sparse_ratios_stats(&net, &power, &params, DELTA, telemetry_ref(&tele));
    let build_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let mut acc = SuccessAccumulator::new(links);
    acc.set_uniform(&ratios, Q);
    let (lo, hi) = acc.expected_successes_interval(&ratios);
    let eval_ms = start.elapsed().as_secs_f64() * 1e3;

    let peak_rss = peak_rss_bytes();
    let dense_bytes = (links as f64) * (links as f64) * 8.0;
    println!(
        "sparse_smoke: n={links} side={:.0} delta={DELTA} q={Q}\n\
         \x20 gen {gen_ms:.0} ms | build {build_ms:.0} ms | eval {eval_ms:.0} ms\n\
         \x20 examined {} | retained {} (nnz) | truncated {} | tau_max {:.3e}\n\
         \x20 E[successes] in [{lo:.3}, {hi:.3}] (width {:.3e})\n\
         \x20 peak RSS {} | dense ratio matrix would need {:.0} GB",
        topology.side,
        stats.examined,
        stats.retained,
        stats.truncated,
        stats.tau_max,
        hi - lo,
        peak_rss.map_or_else(
            || "unavailable".to_string(),
            |b| format!("{:.2} GB", b as f64 / 1e9)
        ),
        dense_bytes / 1e9,
    );

    // Soundness of the certified interval at this scale.
    assert!(
        lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi && hi <= links as f64,
        "malformed expected-successes interval [{lo:e}, {hi:e}]"
    );
    assert_eq!(ratios.len(), links);
    assert!(
        stats.tau_max <= rayfade_sinr::truncation_budget(DELTA),
        "certificate {} exceeds the requested budget",
        stats.tau_max
    );
    // The whole point: the retained pair set must be genuinely sparse.
    let nnz = ratios.nnz() as f64;
    assert!(
        nnz < dense_bytes / 8.0 / 100.0,
        "cache is not sparse: nnz = {nnz} at n = {links}"
    );
    if let Some(bytes) = peak_rss {
        assert!(
            bytes <= RSS_CEILING_BYTES,
            "peak RSS {bytes} B exceeds the {RSS_CEILING_BYTES} B ceiling"
        );
    } else {
        eprintln!("peak-RSS ceiling skipped: VmHWM unavailable on this platform");
    }

    std::fs::create_dir_all(&cli.out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", cli.out.display()));
    let csv_path = cli.csv_path("sparse_smoke.csv");
    let csv = format!(
        "links,side,delta,q,gen_ms,build_ms,eval_ms,examined,retained,truncated,tau_max,\
         expected_lo,expected_hi,peak_rss_bytes\n\
         {links},{:.0},{DELTA},{Q},{gen_ms:.3},{build_ms:.3},{eval_ms:.3},{},{},{},{:.6e},\
         {lo:.6},{hi:.6},{}\n",
        topology.side,
        stats.examined,
        stats.retained,
        stats.truncated,
        stats.tau_max,
        peak_rss.map_or_else(|| "NA".to_string(), |b| b.to_string()),
    );
    std::fs::write(&csv_path, csv)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", csv_path.display()));
    eprintln!("wrote {}", csv_path.display());
    if let Some(t) = tele {
        t.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Option<usize>, Cli), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn links_splits_off_the_common_options() {
        let (links, cli) = parse(&["--quick", "--links", "1000"]).unwrap();
        assert_eq!(links, Some(1000));
        assert!(cli.quick);
    }

    #[test]
    fn zero_links_rejected() {
        assert_eq!(
            parse(&["--links", "0"]).unwrap_err(),
            "--links must be at least 1"
        );
    }

    #[test]
    fn non_numeric_links_rejected() {
        let err = parse(&["--links", "many"]).unwrap_err();
        assert!(err.starts_with("--links many: "), "{err}");
    }

    #[test]
    fn links_without_a_count_rejected() {
        assert_eq!(
            parse(&["--links"]).unwrap_err(),
            "--links requires a link count"
        );
    }

    #[test]
    fn bad_common_option_rejected() {
        assert_eq!(
            parse(&["--links", "10", "--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
    }
}
