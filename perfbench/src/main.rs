//! The rayfade benchmark: one workload per process, run through the
//! library's public entry points with the rayon pool pinned to one
//! thread.
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation.
//! `--trace 1` replays the same work from this package's own code, with a
//! span around every setup call into a layer and duration sums around
//! every per-slot call, and reports the per-layer breakdown. Either way
//! every output is checked, and the last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. README.md defines the workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <aloha_10k|regret_1k|stability_sweep|sparse_100k> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod checks;
mod dynamic;
mod layers;
mod report;
mod sparse;

use layers::Layers;
use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Aloha10k,
    Regret1k,
    StabilitySweep,
    Sparse100k,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Aloha10k,
        Workload::Regret1k,
        Workload::StabilitySweep,
        Workload::Sparse100k,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Aloha10k => "aloha_10k",
            Workload::Regret1k => "regret_1k",
            Workload::StabilitySweep => "stability_sweep",
            Workload::Sparse100k => "sparse_100k",
        }
    }

    /// Setups timed per untraced run: at least three for a median, and
    /// more where a setup is cheap (~50 ms and ~4 ms) next to the ~10 s
    /// setups of `aloha_10k` and ~3 s builds of `sparse_100k`.
    fn setup_runs(self) -> usize {
        match self {
            Workload::Aloha10k | Workload::Sparse100k => 3,
            Workload::Regret1k | Workload::StabilitySweep => 25,
        }
    }

    /// The seed of the committed configuration the workload is taken
    /// from (`slot_throughput`, `stability_exp`, `sparse_smoke`).
    fn default_seed(self) -> u64 {
        match self {
            Workload::Aloha10k | Workload::Regret1k => dynamic::THROUGHPUT_SEED,
            Workload::StabilitySweep => dynamic::STABILITY_SEED,
            Workload::Sparse100k => sparse::SMOKE_SEED,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <aloha_10k|regret_1k|stability_sweep|sparse_100k> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                let raw = value()?;
                let parsed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("bad --seed {raw}: {e}"))?);
            }
            "--seconds" => {
                let raw = value()?;
                seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {raw}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every parallel region inside runs on one worker: single-thread
    // numbers are the ones this benchmark records.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a pool handle cannot fail");
    let report = pool.install(|| run(&args));
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

fn run(args: &Args) -> Report {
    let pool_threads = rayon::current_num_threads();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} pool_threads={pool_threads} nproc={nproc} \
         rss=VmHWM",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut report = Report::default();
    let exact = args.seed == args.workload.default_seed();
    if args.trace {
        let mut layers = Layers::default();
        match args.workload {
            Workload::Aloha10k => dynamic::trace_engine(
                &dynamic::aloha_10k(args.seed),
                1,
                true,
                &mut layers,
                &mut report,
            ),
            Workload::Regret1k => dynamic::trace_engine(
                &dynamic::regret_1k(args.seed),
                dynamic::REGRET_TRACE_REPS,
                false,
                &mut layers,
                &mut report,
            ),
            Workload::StabilitySweep => dynamic::trace_sweep(
                &dynamic::stability_sweep(args.seed),
                exact,
                &mut layers,
                &mut report,
            ),
            Workload::Sparse100k => sparse::trace(args.seed, &mut layers, &mut report),
        }
        layers.emit(&mut report, pool_threads);
        let stem = format!("{}-{}", args.workload.name(), args.seed);
        if let Err(e) = layers.write(Path::new(layers::TRACE_DIR), &stem, &report) {
            report.fail(format!(
                "cannot write the trace to {}: {e}",
                layers::TRACE_DIR
            ));
        }
    } else {
        let (setups, seconds) = (args.workload.setup_runs(), args.seconds);
        match args.workload {
            Workload::Aloha10k => dynamic::measure_engine(
                &dynamic::aloha_10k(args.seed),
                setups,
                seconds,
                &mut report,
            ),
            Workload::Regret1k => dynamic::measure_engine(
                &dynamic::regret_1k(args.seed),
                setups,
                seconds,
                &mut report,
            ),
            Workload::StabilitySweep => dynamic::measure_sweep(
                &dynamic::stability_sweep(args.seed),
                setups,
                seconds,
                exact,
                &mut report,
            ),
            Workload::Sparse100k => sparse::measure(args.seed, setups, seconds, &mut report),
        }
    }
    report
}
