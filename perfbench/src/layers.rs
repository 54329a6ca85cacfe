//! The traced run's instruments and the per-layer metrics built from
//! them: a span around every setup call into a layer, duration sums and
//! counters around every per-slot call, and the scaling slopes.

use crate::report::Report;
use rayfade_dynamic::least_squares_slope;
use rayfade_sched::SelectionStats;
use rayfade_spatial::SparseBuildStats;
use rayfade_telemetry::trace::{Trace, Tracer};
use std::path::Path;

/// Where a traced run writes its spans and metrics, relative to the
/// working directory.
pub const TRACE_DIR: &str = ".bench_trace";

/// Name of the span around a whole traced replay: its wall time is what
/// the setup spans plus the slot phases must add up to.
const TRACED: &str = "bench.traced";

/// Runs `f` inside a span named `name` of `tracer`.
pub fn span<R>(tracer: &Tracer, name: &str, f: impl FnOnce() -> R) -> R {
    let _span = tracer.span(tracer.span_id(name));
    f()
}

/// Total nanoseconds `trace` spent in spans whose name `select` accepts,
/// and how many such spans there were.
fn span_ns(trace: &Trace, select: impl Fn(&str) -> bool) -> (u64, usize) {
    trace
        .records
        .iter()
        .filter(|r| select(&r.name))
        .fold((0, 0), |(ns, count), r| (ns + r.duration_ns(), count + 1))
}

/// Total seconds `trace` spent in spans named `name`.
pub fn span_seconds(trace: &Trace, name: &str) -> f64 {
    span_ns(trace, |n| n == name).0 as f64 / 1e9
}

/// Per-slot phase durations and counters, summed over replayed slots.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub slots: u64,
    pub arrivals_ns: u64,
    pub backlogs_ns: u64,
    pub policy_ns: u64,
    pub resolve_ns: u64,
    pub departures_ns: u64,
    pub observe_ns: u64,
    /// Arrival draws, and draws that delivered at least one packet.
    pub draws: u64,
    pub hits: u64,
    pub transmitters: u64,
    /// Links whose transmit state changed from the previous slot.
    pub flips: u64,
    pub successes: u64,
}

impl Phases {
    pub fn add(&mut self, o: &Phases) {
        self.slots += o.slots;
        self.arrivals_ns += o.arrivals_ns;
        self.backlogs_ns += o.backlogs_ns;
        self.policy_ns += o.policy_ns;
        self.resolve_ns += o.resolve_ns;
        self.departures_ns += o.departures_ns;
        self.observe_ns += o.observe_ns;
        self.draws += o.draws;
        self.hits += o.hits;
        self.transmitters += o.transmitters;
        self.flips += o.flips;
        self.successes += o.successes;
    }

    fn total_ns(&self) -> u64 {
        self.arrivals_ns
            + self.backlogs_ns
            + self.policy_ns
            + self.resolve_ns
            + self.departures_ns
            + self.observe_ns
    }

    /// `x` per replayed slot (0 when no slot was replayed).
    fn per_slot(&self, x: u64) -> f64 {
        ratio(x as f64, self.slots as f64)
    }

    /// The phase timings one scaling point records, in [`SCALED`] order
    /// after the three setup layers.
    fn per_slot_ns(&self) -> [f64; 6] {
        [
            self.arrivals_ns,
            self.backlogs_ns,
            self.policy_ns,
            self.resolve_ns,
            self.departures_ns,
            self.observe_ns,
        ]
        .map(|ns| self.per_slot(ns))
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never called).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The layers whose growth with n the dynamic scaling sweep records: the
/// three setup spans (seconds per replication) and the six slot phases
/// (ns per slot).
pub const SCALED: [&str; 9] = [
    "geometry.generate_s",
    "sinr.gain_build_s",
    "core.evaluator_build_s",
    "dynamic.arrivals_ns_per_slot",
    "dynamic.backlogs_ns_per_slot",
    "dynamic.policy_ns_per_slot",
    "dynamic.resolve_ns_per_slot",
    "dynamic.departures_ns_per_slot",
    "dynamic.observe_ns_per_slot",
];

/// The spatial builder's scaling metric.
pub const SPATIAL_BUILD: &str = "spatial.build_s";

/// The span around one certified sparse evaluation.
pub const SPARSE_EVAL: &str = "sinr.sparse_eval";

/// One scaling point of the dynamic layers, in [`SCALED`] order.
pub fn scaling_point(trace: &Trace, phases: &Phases, replications: f64) -> [f64; 9] {
    let setup = [
        "geometry.generate",
        "sinr.gain_build",
        "core.evaluator_build",
    ]
    .map(|name| span_seconds(trace, name) / replications);
    let slot = phases.per_slot_ns();
    std::array::from_fn(|k| if k < 3 { setup[k] } else { slot[k - 3] })
}

/// Log-log least-squares slope of `values` against `sizes`.
pub fn log_log_slope(sizes: &[f64], values: &[f64]) -> f64 {
    let xs: Vec<f64> = sizes.iter().map(|n| n.ln()).collect();
    let ys: Vec<f64> = values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .collect();
    least_squares_slope(&xs, &ys)
}

/// Everything a traced run measured. Fields of layers a workload does
/// not call stay 0, so every workload reports the same metric set.
#[derive(Debug, Default)]
pub struct Layers {
    /// One span per setup call into a layer (and per sparse evaluation),
    /// kept in memory until the run ends.
    pub tracer: Tracer,
    /// Setup units replayed: replications, or whole sweeps. Setup spans
    /// are reported per unit, matching what `setup_s` times.
    pub units: f64,
    /// Slot phases over every replayed slot, and over the slots of the
    /// regret cells, the max-weight cells, the Monte Carlo Rayleigh
    /// cells and the non-fading cells.
    pub all: Phases,
    pub regret: Phases,
    pub max_weight: Phases,
    pub fading: Phases,
    pub nonfading: Phases,
    pub selection: SelectionStats,
    /// Computed size of one replication's dense gain matrix (n²·8).
    pub gain_bytes: f64,
    pub spatial: Option<SparseBuildStats>,
    pub sparse_eval_bytes: f64,
    /// Wall time of the same work run untraced through the library.
    pub untraced_ns: u64,
    pub slopes: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Runs `replay` inside the span whose wall time the breakdown must
    /// account for.
    pub fn traced<R>(&mut self, replay: impl FnOnce(&mut Self) -> R) -> R {
        let _span = self.tracer.span(self.tracer.span_id(TRACED));
        replay(self)
    }

    /// Appends every per-layer metric to `report`.
    pub fn emit(&self, report: &mut Report, pool_threads: usize) {
        let trace = self.tracer.snapshot();
        if trace.dropped > 0 {
            report.fail(format!("the tracer dropped {} spans", trace.dropped));
        }
        let traced = span_ns(&trace, |n| n == TRACED).0 as f64;
        let spanned = span_ns(&trace, |n| n != TRACED).0 as f64;
        let (eval_ns, evals) = span_ns(&trace, |n| n == SPARSE_EVAL);
        let eval_ns = eval_ns as f64;
        let residual = traced - spanned - self.all.total_ns() as f64;
        let per_unit = |name: &str| ratio(span_seconds(&trace, name), self.units);
        let (all, rwm, mw) = (&self.all, &self.regret, &self.max_weight);
        let (fading, nonfading) = (&self.fading, &self.nonfading);
        let sel = &self.selection;
        let sp = self.spatial.unwrap_or_default();
        let metrics = [
            ("geometry.generate_s", per_unit("geometry.generate"), "s"),
            ("sinr.gain_build_s", per_unit("sinr.gain_build"), "s"),
            ("sinr.gain_bytes", self.gain_bytes, "B"),
            (
                "core.evaluator_build_s",
                per_unit("core.evaluator_build"),
                "s",
            ),
            ("sinr.model_build_s", per_unit("sinr.model_build"), "s"),
            (
                "dynamic.policy_build_s",
                per_unit("dynamic.policy_build"),
                "s",
            ),
            ("spatial.build_s", per_unit("spatial.build"), "s"),
            ("spatial.examined", sp.examined as f64, "count"),
            ("spatial.retained", sp.retained as f64, "count"),
            (
                "spatial.retained_ratio",
                ratio(sp.retained as f64, sp.examined as f64),
                "ratio",
            ),
            ("spatial.tau_max", sp.tau_max, "nats"),
            ("sinr.sparse_eval_ns", ratio(eval_ns, evals as f64), "ns"),
            ("sinr.sparse_eval_bytes", self.sparse_eval_bytes, "B"),
            (
                "dynamic.arrivals_ns_per_slot",
                all.per_slot(all.arrivals_ns),
                "ns",
            ),
            (
                "dynamic.arrival_draws_per_slot",
                all.per_slot(all.draws),
                "count",
            ),
            (
                "dynamic.arrival_hit_ratio",
                ratio(all.hits as f64, all.draws as f64),
                "ratio",
            ),
            (
                "dynamic.backlogs_ns_per_slot",
                all.per_slot(all.backlogs_ns),
                "ns",
            ),
            (
                "dynamic.policy_ns_per_slot",
                all.per_slot(all.policy_ns),
                "ns",
            ),
            (
                "dynamic.transmitters_per_slot",
                all.per_slot(all.transmitters),
                "count",
            ),
            (
                "dynamic.resolve_ns_per_slot",
                all.per_slot(all.resolve_ns),
                "ns",
            ),
            (
                "dynamic.mask_flips_per_slot",
                all.per_slot(all.flips),
                "count",
            ),
            (
                "dynamic.success_ratio",
                ratio(all.successes as f64, all.transmitters as f64),
                "ratio",
            ),
            (
                "dynamic.departures_ns_per_slot",
                all.per_slot(all.departures_ns),
                "ns",
            ),
            (
                "dynamic.observe_ns_per_slot",
                all.per_slot(all.observe_ns),
                "ns",
            ),
            (
                "learning.rwm_ns_per_slot",
                rwm.per_slot(rwm.policy_ns + rwm.observe_ns),
                "ns",
            ),
            (
                "core.fading_resolve_ns_per_slot",
                fading.per_slot(fading.resolve_ns),
                "ns",
            ),
            (
                "sinr.nonfading_resolve_ns_per_slot",
                nonfading.per_slot(nonfading.resolve_ns),
                "ns",
            ),
            (
                "scheduling.greedy_ns_per_slot",
                mw.per_slot(mw.policy_ns),
                "ns",
            ),
            (
                "scheduling.candidates_scored_per_slot",
                mw.per_slot(sel.candidates_scored),
                "count",
            ),
            (
                "scheduling.accept_ratio",
                ratio(sel.accepted as f64, sel.candidates_scored as f64),
                "ratio",
            ),
            (
                "bench.setup_share",
                ratio(spanned - eval_ns, traced),
                "ratio",
            ),
            ("bench.residual_share", ratio(residual, traced), "ratio"),
            (
                "bench.trace_overhead",
                ratio(traced, self.untraced_ns as f64),
                "ratio",
            ),
            ("bench.pool_threads", pool_threads as f64, "count"),
        ];
        for (name, value, unit) in metrics {
            report.metric(name, value, unit);
        }
        for name in SCALED.into_iter().chain([SPATIAL_BUILD]) {
            let slope = self
                .slopes
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |s| s.1);
            report.metric(&format!("{name}.slope"), slope, "log-log");
        }
    }

    /// Writes the spans as a Chrome trace and the result line next to it.
    pub fn write(&self, dir: &Path, stem: &str, report: &Report) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.tracer
            .snapshot()
            .write_chrome_json(dir.join(format!("{stem}.trace.json")))?;
        std::fs::write(dir.join(format!("{stem}.json")), report.to_json() + "\n")
    }
}
