//! Shared helpers for the rayfade experiment harness.
//!
//! Every binary in `src/bin/` regenerates one figure/statistic of the
//! paper (or one of our ablations) — see DESIGN.md's experiment index.
//! All binaries accept `--quick` for a reduced smoke configuration,
//! `--out <dir>` to choose where CSV files land (default `results/`),
//! `--telemetry <dir>` to dump a metrics registry and JSONL journal on
//! exit, `--trace` (implies nothing without `--telemetry`) to also
//! record spans and write a Chrome-trace JSON plus a self-profile table,
//! and `--monitor` to run the online health detectors where supported
//! (see README's Observability section).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rayfade_geometry::PaperTopology;
use rayfade_sinr::{GainMatrix, PowerAssignment, SinrParams};
use rayfade_telemetry::Telemetry;
use std::path::PathBuf;

/// Parsed common command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Reduced configuration for smoke runs.
    pub quick: bool,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
    /// Telemetry output directory (`None` disables instrumentation).
    pub telemetry: Option<PathBuf>,
    /// Record spans alongside metrics (requires `--telemetry`): the
    /// experiment's [`ExperimentTelemetry::finish`] additionally writes a
    /// Chrome-trace JSON and a self-profile CSV.
    pub trace: bool,
    /// Run with online health monitoring: streaming detectors ride
    /// along with the experiment and, for experiments that support it,
    /// a `<name>_health.jsonl` artifact lands next to the journal.
    pub monitor: bool,
}

impl Cli {
    /// Parses `--quick`, `--out <dir>`, `--telemetry <dir>`, `--trace`
    /// and `--monitor` from `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`parse`](Self::parse) over `args`, without the program name: for
    /// binaries that take options of their own and pass the rest on.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut quick = false;
        let mut out = PathBuf::from("results");
        let mut telemetry = None;
        let mut trace = false;
        let mut monitor = false;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--out" => {
                    out = PathBuf::from(args.next().expect("--out requires a directory argument"))
                }
                "--telemetry" => {
                    telemetry = Some(PathBuf::from(
                        args.next()
                            .expect("--telemetry requires a directory argument"),
                    ))
                }
                "--trace" => trace = true,
                "--monitor" => monitor = true,
                other => panic!(
                    "unknown argument: {other} (expected --quick / --out <dir> / \
                     --telemetry <dir> / --trace / --monitor)"
                ),
            }
        }
        if trace && telemetry.is_none() {
            panic!("--trace requires --telemetry <dir> (traces land next to the journal)");
        }
        Cli {
            quick,
            out,
            telemetry,
            trace,
            monitor,
        }
    }

    /// Path for a CSV artifact inside the output directory.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out.join(name)
    }

    /// Experiment-scoped telemetry when `--telemetry <dir>` was given:
    /// journal events stream to `<dir>/<name>_journal.jsonl` and
    /// [`ExperimentTelemetry::finish`] dumps the metric registry to
    /// `<dir>/<name>_metrics.prom` / `.csv`.
    pub fn experiment_telemetry(&self, name: &str) -> Option<ExperimentTelemetry> {
        let dir = self.telemetry.as_ref()?;
        let journal_path = dir.join(format!("{name}_journal.jsonl"));
        let mut tele = Telemetry::with_journal(&journal_path).unwrap_or_else(|e| {
            panic!(
                "cannot create telemetry journal {}: {e}",
                journal_path.display()
            )
        });
        if self.trace {
            tele = tele.with_tracing();
        }
        Some(ExperimentTelemetry {
            tele,
            journal_path,
            prom_path: dir.join(format!("{name}_metrics.prom")),
            csv_path: dir.join(format!("{name}_metrics.csv")),
            trace_path: self.trace.then(|| dir.join(format!("{name}_trace.json"))),
            profile_path: self.trace.then(|| dir.join(format!("{name}_profile.csv"))),
        })
    }
}

/// Borrows the inner [`Telemetry`] out of an optional
/// [`ExperimentTelemetry`] — the `Option<&Telemetry>` shape every
/// instrumented library entry point takes.
pub fn telemetry_ref(tele: &Option<ExperimentTelemetry>) -> Option<&Telemetry> {
    tele.as_ref().map(ExperimentTelemetry::telemetry)
}

/// A [`Telemetry`] bound to one experiment's output paths (see
/// [`Cli::experiment_telemetry`]).
#[derive(Debug)]
pub struct ExperimentTelemetry {
    tele: Telemetry,
    journal_path: PathBuf,
    prom_path: PathBuf,
    csv_path: PathBuf,
    trace_path: Option<PathBuf>,
    profile_path: Option<PathBuf>,
}

impl ExperimentTelemetry {
    /// The telemetry context to pass into instrumented entry points.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Flushes the journal and writes the metric registry to the
    /// `.prom`/`.csv` paths; call once at the end of the experiment.
    /// Panics on IO failure (an experiment run that silently loses its
    /// telemetry is worse than one that fails loudly) and reports any
    /// journal write errors tallied during the run.
    pub fn finish(&self) {
        self.tele
            .write_metrics(&self.prom_path, &self.csv_path)
            .unwrap_or_else(|e| panic!("cannot write telemetry metrics: {e}"));
        if let Some(j) = self.tele.journal() {
            let errs = j.write_errors();
            if errs > 0 {
                eprintln!(
                    "warning: {errs} journal write error(s); {} is incomplete",
                    self.journal_path.display()
                );
            }
        }
        if let (Some(tracer), Some(trace_path), Some(profile_path)) = (
            self.tele.tracer(),
            self.trace_path.as_ref(),
            self.profile_path.as_ref(),
        ) {
            let trace = tracer.snapshot();
            if trace.dropped > 0 {
                eprintln!(
                    "warning: {} span(s) dropped (ring full); {} is incomplete",
                    trace.dropped,
                    trace_path.display()
                );
            }
            trace
                .write_chrome_json(trace_path)
                .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", trace_path.display()));
            trace
                .self_profile()
                .write_csv(profile_path)
                .unwrap_or_else(|e| panic!("cannot write profile {}: {e}", profile_path.display()));
            eprintln!(
                "telemetry: wrote {}, {}",
                trace_path.display(),
                profile_path.display()
            );
        }
        eprintln!(
            "telemetry: wrote {}, {}, {}",
            self.journal_path.display(),
            self.prom_path.display(),
            self.csv_path.display()
        );
    }
}

/// Builds the `k`-th Figure 1 network with its uniform-power gain matrix.
pub fn figure1_instance(k: u64, links: usize) -> (GainMatrix, SinrParams) {
    let params = SinrParams::figure1();
    let net = PaperTopology {
        links,
        ..PaperTopology::figure1()
    }
    .generate(0xf161u64.wrapping_add(k));
    let gm = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
    (gm, params)
}

/// Builds the `k`-th Figure 2 network with its uniform-power gain matrix.
pub fn figure2_instance(k: u64, links: usize) -> (GainMatrix, SinrParams) {
    let params = SinrParams::figure2();
    let net = PaperTopology {
        links,
        ..PaperTopology::figure2()
    }
    .generate(0xf162u64.wrapping_add(k));
    let gm = GainMatrix::from_geometry(&net, &PowerAssignment::Uniform(2.0), params.alpha);
    (gm, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_deterministic() {
        let (a, _) = figure1_instance(0, 10);
        let (b, _) = figure1_instance(0, 10);
        assert_eq!(a, b);
        let (c, _) = figure1_instance(1, 10);
        assert_ne!(a, c);
        let (d, p2) = figure2_instance(0, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(p2.noise, 0.0);
    }

    #[test]
    fn parse_from_reads_the_common_options() {
        let args = ["--quick", "--out", "o", "--telemetry", "t", "--trace"];
        let cli = Cli::parse_from(args.map(String::from));
        assert_eq!(
            cli,
            Cli {
                quick: true,
                out: PathBuf::from("o"),
                telemetry: Some(PathBuf::from("t")),
                trace: true,
                monitor: false,
            }
        );
        assert_eq!(Cli::parse_from(Vec::new()).out, PathBuf::from("results"));
    }

    #[test]
    fn csv_path_joins() {
        let cli = Cli {
            quick: true,
            out: PathBuf::from("x"),
            telemetry: None,
            trace: false,
            monitor: false,
        };
        assert_eq!(cli.csv_path("a.csv"), PathBuf::from("x/a.csv"));
        assert!(cli.experiment_telemetry("noop").is_none());
    }

    #[test]
    fn experiment_telemetry_writes_all_three_artifacts() {
        let dir = std::env::temp_dir().join(format!("rayfade-bench-tele-{}", std::process::id()));
        let cli = Cli {
            quick: true,
            out: PathBuf::from("x"),
            telemetry: Some(dir.clone()),
            trace: false,
            monitor: false,
        };
        let tele = cli.experiment_telemetry("smoke").expect("enabled");
        telemetry_ref(&Some(tele))
            .unwrap()
            .registry()
            .counter("rayfade_smoke_total")
            .inc();
        // `finish` on a fresh handle: recreate (the previous line consumed
        // the Option wrapper, not the files).
        let tele = cli.experiment_telemetry("smoke").expect("enabled");
        tele.telemetry()
            .registry()
            .counter("rayfade_smoke_total")
            .inc();
        if let Some(ev) = tele.telemetry().event("smoke") {
            ev.int("x", 1).write();
        }
        tele.finish();
        for name in [
            "smoke_journal.jsonl",
            "smoke_metrics.prom",
            "smoke_metrics.csv",
        ] {
            let p = dir.join(name);
            assert!(p.exists(), "{} missing", p.display());
        }
        let prom = std::fs::read_to_string(dir.join("smoke_metrics.prom")).unwrap();
        assert!(prom.contains("rayfade_smoke_total 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracing_adds_trace_and_profile_artifacts() {
        let dir = std::env::temp_dir().join(format!("rayfade-bench-trace-{}", std::process::id()));
        let cli = Cli {
            quick: true,
            out: PathBuf::from("x"),
            telemetry: Some(dir.clone()),
            trace: true,
            monitor: false,
        };
        let tele = cli.experiment_telemetry("traced").expect("enabled");
        {
            let tracer = tele.telemetry().tracer().expect("--trace enables spans");
            let id = tracer.span_id("bench/smoke");
            let _g = tracer.span(id);
        }
        tele.finish();
        let trace_path = dir.join("traced_trace.json");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let stats = rayfade_telemetry::trace::validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.spans, 1);
        let profile = std::fs::read_to_string(dir.join("traced_profile.csv")).unwrap();
        assert!(profile.contains("bench/smoke"), "{profile}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
