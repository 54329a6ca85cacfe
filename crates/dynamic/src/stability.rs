//! Queue-stability estimation and the λ load sweep.
//!
//! A cell is judged *stable* when its sampled total backlog shows no
//! systematic upward drift over the run: we fit a least-squares line to
//! the (slot, total backlog) samples of each replication and call the
//! cell stable when the mean slope is at most a small fraction of the
//! offered load. Under a stable policy the backlog is a positive-
//! recurrent process and the fitted slope concentrates near zero; in
//! overload the backlog grows linearly at rate ≈ (λ − service) · n and
//! the slope test fires.
//!
//! [`LambdaSweep`] runs every (policy, model, λ) cell — rayon-parallel
//! with indexed collection, so output order and content are deterministic
//! — and [`StabilityReport::lambda_star`] locates λ*, the largest swept λ
//! such that every λ' ≤ λ in the sweep was stable (the "sustainable
//! frontier from below": a single unstable cell caps λ* even if a larger
//! λ happened to pass the drift test by chance).

use crate::engine::{
    DynamicConfig, DynamicEngine, DynamicOutcome, SlotModelKind, SuccessModelKind,
};
use crate::policy::PolicyKind;
use rayfade_telemetry::{HealthReport, Telemetry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fraction of the offered load the backlog drift may reach before the
/// cell is declared unstable.
pub const DRIFT_TOLERANCE: f64 = 0.05;

/// The verdict of the drift test for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityVerdict {
    /// Backlog drift within tolerance: queues look positive recurrent.
    Stable,
    /// Backlog grows systematically: the offered load is unsustainable.
    Unstable,
}

impl StabilityVerdict {
    /// Stable label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Unstable => "unstable",
        }
    }

    /// Whether this verdict is [`StabilityVerdict::Stable`].
    pub fn is_stable(&self) -> bool {
        matches!(self, StabilityVerdict::Stable)
    }
}

/// Least-squares slope of `(x, y)` pairs, in y-units per x-unit.
///
/// Returns 0.0 when fewer than two distinct x values are given.
pub fn least_squares_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// One (policy, model, λ) cell of a sweep, aggregated over replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityCell {
    /// The policy this cell ran.
    pub policy: PolicyKind,
    /// The success model this cell ran.
    pub model: SuccessModelKind,
    /// Swept mean arrival rate λ (packets/slot/link).
    pub lambda: f64,
    /// Mean delivered packets per slot per link over replications.
    pub throughput: f64,
    /// Mean offered packets per slot per link over replications.
    pub offered: f64,
    /// Mean packet delay in slots (`None` if nothing was delivered).
    pub mean_delay: Option<f64>,
    /// Largest per-replication 95th-percentile delay.
    pub p95_delay: Option<u64>,
    /// Mean backlog drift in packets/slot (network total).
    pub drift: f64,
    /// The drift-test verdict.
    pub verdict: StabilityVerdict,
}

/// Aggregates replication outcomes of one cell into a [`StabilityCell`].
pub fn judge_cell(
    policy: PolicyKind,
    model: SuccessModelKind,
    lambda: f64,
    links: usize,
    outcomes: &[DynamicOutcome],
) -> StabilityCell {
    assert!(!outcomes.is_empty(), "need at least one replication");
    let reps = outcomes.len() as f64;
    let mean = |f: &dyn Fn(&DynamicOutcome) -> f64| outcomes.iter().map(f).sum::<f64>() / reps;
    let throughput = mean(&|o| o.throughput_per_link);
    let offered = mean(&|o| o.offered_per_link);
    let drift = mean(&|o| {
        let xs: Vec<f64> = o.trace.slots.iter().map(|&s| s as f64).collect();
        let ys: Vec<f64> = o.trace.total_backlog.iter().map(|&b| b as f64).collect();
        least_squares_slope(&xs, &ys)
    });
    // Delay statistics: weight replication means by their delivery counts
    // is overkill here; replications are i.i.d. equal-sized, so a plain
    // mean of means is an unbiased summary.
    let delays: Vec<f64> = outcomes.iter().filter_map(|o| o.mean_delay).collect();
    let mean_delay = (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64);
    let p95_delay = outcomes.iter().filter_map(|o| o.p95_delay).max();
    // The drift threshold scales with the *network-wide* offered load
    // (λ · n packets/slot): instability means the backlog grows at a
    // constant fraction of what arrives. `<=` so λ = 0 (zero drift, zero
    // load) counts stable.
    let threshold = DRIFT_TOLERANCE * lambda * links as f64;
    let verdict = if drift <= threshold {
        StabilityVerdict::Stable
    } else {
        StabilityVerdict::Unstable
    };
    StabilityCell {
        policy,
        model,
        lambda,
        throughput,
        offered,
        mean_delay,
        p95_delay,
        drift,
        verdict,
    }
}

/// A λ load sweep over every (policy, model) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LambdaSweep {
    /// Base configuration; its `arrival` rate is replaced by each swept λ
    /// and its `policy`/`model` by each pair.
    pub base: DynamicConfig,
    /// Arrival rates to sweep, ascending.
    pub lambdas: Vec<f64>,
}

impl LambdaSweep {
    /// A sweep of `steps` evenly spaced rates in `(0, max_lambda]`.
    pub fn linear(base: DynamicConfig, max_lambda: f64, steps: usize) -> Self {
        assert!(steps > 0, "need at least one sweep step");
        assert!(
            max_lambda > 0.0 && max_lambda.is_finite(),
            "max_lambda must be positive"
        );
        let lambdas = (1..=steps)
            .map(|i| max_lambda * i as f64 / steps as f64)
            .collect();
        LambdaSweep { base, lambdas }
    }

    /// Runs every (policy, model, λ) cell in parallel and returns the
    /// report. Cell order is deterministic: policies × models × λ
    /// ascending.
    pub fn run(&self) -> StabilityReport {
        self.run_with_telemetry(None, false)
    }

    /// Like [`run`](Self::run), but tallies registry metrics during the
    /// parallel cell runs and afterwards journals — in deterministic
    /// sweep order, so journal bytes never depend on rayon scheduling —
    /// a `stability_config` header, each cell's `dyn_run`/`dyn_slot`/
    /// `dyn_net` trace, a `stability_cell` verdict per cell, and one
    /// `lambda_star` event per (policy, model) curve.
    ///
    /// With `monitor`, every replication's [`HealthReport`], computed
    /// from its trace and delays after its slot loop, is exported to the
    /// registry and journaled as `health` events after the replication's
    /// `dyn_net`; the journal is otherwise identical to the unmonitored
    /// stream. The [`StabilityReport`] is bit-identical to
    /// [`run`](Self::run)'s either way.
    pub fn run_with_telemetry(&self, tele: Option<&Telemetry>, monitor: bool) -> StabilityReport {
        let mut configs = Vec::new();
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                for &lambda in &self.lambdas {
                    configs.push(DynamicConfig {
                        policy,
                        model,
                        arrival: self.base.arrival.with_rate(lambda),
                        // The analytic resolver draws from Theorem-1
                        // Rayleigh probabilities, so it only applies to
                        // the Rayleigh half of the grid; non-fading cells
                        // always run their (deterministic) realized path.
                        slot_model: match model {
                            SuccessModelKind::NonFading => SlotModelKind::MonteCarlo,
                            SuccessModelKind::Rayleigh => self.base.slot_model,
                        },
                        ..self.base.clone()
                    });
                }
            }
        }
        let tracer = tele.and_then(Telemetry::tracer);
        let cell_span = tracer.map(|tr| tr.span_id("stability/cell"));
        let runs: Vec<(DynamicEngine, Vec<DynamicOutcome>, Vec<HealthReport>)> = configs
            .into_par_iter()
            .map(|cfg| {
                let _g = rayfade_telemetry::trace::guard(tracer, cell_span);
                let engine = DynamicEngine::new(cfg);
                let (outcomes, reports) = engine.replicate(tele, monitor);
                (engine, outcomes, reports)
            })
            .collect();

        if let Some(t) = tele {
            if t.journal().is_some() {
                t.event("stability_config")
                    .expect("journal present")
                    .int("links", self.base.links as i64)
                    .int("networks", self.base.networks as i64)
                    .int("slots", self.base.slots as i64)
                    .int("sample_every", self.base.sample_every as i64)
                    .int("lambda_steps", self.lambdas.len() as i64)
                    .str("seed", &format!("{:#x}", self.base.seed))
                    .str(
                        "config_hash",
                        &format!("{:016x}", rayfade_telemetry::config_hash(&self.base)),
                    )
                    .write();
            }
        }

        let mut cells = Vec::with_capacity(runs.len());
        for (engine, outcomes, reports) in &runs {
            engine.journal_outcomes(tele, outcomes, reports);
            let cfg = engine.config();
            let cell = judge_cell(
                cfg.policy,
                cfg.model,
                cfg.arrival.rate(),
                cfg.links,
                outcomes,
            );
            if let Some(ev) = tele.and_then(|t| t.event("stability_cell")) {
                ev.str("policy", cell.policy.label())
                    .str("model", cell.model.label())
                    .num("lambda", cell.lambda)
                    .num("throughput", cell.throughput)
                    .num("offered", cell.offered)
                    .num("drift", cell.drift)
                    .str("verdict", cell.verdict.label())
                    .write();
            }
            cells.push(cell);
        }
        let report = StabilityReport { cells };

        if let Some(t) = tele {
            if t.journal().is_some() {
                for policy in PolicyKind::all() {
                    for model in SuccessModelKind::all() {
                        let mut ev = t
                            .event("lambda_star")
                            .expect("journal present")
                            .str("policy", policy.label())
                            .str("model", model.label());
                        match report.lambda_star(policy, model) {
                            Some(star) => ev = ev.num("lambda_star", star),
                            None => ev = ev.bool("none", true),
                        }
                        ev.write();
                    }
                }
            }
            t.flush();
        }
        report
    }
}

/// The outcome of a [`LambdaSweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Every swept cell, in deterministic sweep order.
    pub cells: Vec<StabilityCell>,
}

impl StabilityReport {
    /// Cells of one (policy, model) pair, λ-ascending.
    pub fn curve(&self, policy: PolicyKind, model: SuccessModelKind) -> Vec<&StabilityCell> {
        let mut cells: Vec<&StabilityCell> = self
            .cells
            .iter()
            .filter(|c| c.policy == policy && c.model == model)
            .collect();
        cells.sort_by(|a, b| a.lambda.total_cmp(&b.lambda));
        cells
    }

    /// λ* for one (policy, model) pair: the largest swept λ such that
    /// every swept λ' ≤ λ was stable. `None` when even the smallest λ is
    /// unstable.
    pub fn lambda_star(&self, policy: PolicyKind, model: SuccessModelKind) -> Option<f64> {
        let mut star = None;
        for cell in self.curve(policy, model) {
            if cell.verdict.is_stable() {
                star = Some(cell.lambda);
            } else {
                break;
            }
        }
        star
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use rayfade_geometry::PaperTopology;
    use rayfade_sinr::SinrParams;

    #[test]
    fn slope_of_line_is_exact() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((least_squares_slope(&xs, &ys) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn slope_degenerate_cases() {
        assert_eq!(least_squares_slope(&[], &[]), 0.0);
        assert_eq!(least_squares_slope(&[1.0], &[5.0]), 0.0);
        assert_eq!(least_squares_slope(&[2.0, 2.0], &[1.0, 9.0]), 0.0);
    }

    #[test]
    fn flat_backlog_is_stable_growing_is_not() {
        let flat = DynamicOutcome {
            throughput_per_link: 0.1,
            offered_per_link: 0.1,
            mean_delay: Some(2.0),
            p95_delay: Some(4),
            final_backlog_per_link: 0.0,
            trace: crate::engine::SlotTrace {
                slots: (0..20).map(|i| i * 100).collect(),
                total_backlog: vec![3; 20],
                cum_arrivals: (0..20).map(|i| i * 10 + 3).collect(),
                cum_departures: (0..20).map(|i| i * 10).collect(),
            },
            sparse_accuracy: None,
        };
        let cell = judge_cell(
            PolicyKind::MaxWeight,
            SuccessModelKind::NonFading,
            0.1,
            10,
            std::slice::from_ref(&flat),
        );
        assert!(cell.verdict.is_stable());
        assert_eq!(cell.drift, 0.0);

        let growing = DynamicOutcome {
            trace: crate::engine::SlotTrace {
                slots: (0..20).map(|i| i * 100).collect(),
                // One extra packet per slot: far beyond 5% of 0.1·10.
                total_backlog: (0..20).map(|i| i * 100).collect(),
                cum_arrivals: (0..20).map(|i| i * 100).collect(),
                cum_departures: vec![0; 20],
            },
            ..flat
        };
        let cell = judge_cell(
            PolicyKind::MaxWeight,
            SuccessModelKind::NonFading,
            0.1,
            10,
            &[growing],
        );
        assert!(!cell.verdict.is_stable());
        assert!((cell.drift - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_lambda_counts_stable() {
        let idle = DynamicOutcome {
            throughput_per_link: 0.0,
            offered_per_link: 0.0,
            mean_delay: None,
            p95_delay: None,
            final_backlog_per_link: 0.0,
            trace: crate::engine::SlotTrace {
                slots: vec![0, 100, 200],
                total_backlog: vec![0, 0, 0],
                cum_arrivals: vec![0, 0, 0],
                cum_departures: vec![0, 0, 0],
            },
            sparse_accuracy: None,
        };
        let cell = judge_cell(
            PolicyKind::Aloha,
            SuccessModelKind::Rayleigh,
            0.0,
            10,
            &[idle],
        );
        assert!(cell.verdict.is_stable());
        assert_eq!(cell.mean_delay, None);
    }

    fn tiny_base() -> DynamicConfig {
        DynamicConfig {
            links: 6,
            networks: 1,
            slots: 800,
            arrival: ArrivalProcess::Bernoulli { rate: 0.1 },
            policy: PolicyKind::MaxWeight,
            model: SuccessModelKind::NonFading,
            slot_model: crate::SlotModelKind::MonteCarlo,
            topology: PaperTopology {
                links: 6,
                ..PaperTopology::figure1()
            },
            params: SinrParams::figure1(),
            sample_every: 40,
            seed: 0x57ab,
        }
    }

    #[test]
    fn sweep_runs_all_cells_deterministically() {
        let sweep = LambdaSweep::linear(tiny_base(), 0.2, 2);
        let a = sweep.run();
        let b = sweep.run();
        assert_eq!(a, b, "sweep must be deterministic");
        // 3 policies × 2 models × 2 λ.
        assert_eq!(a.cells.len(), 12);
        for policy in PolicyKind::all() {
            for model in SuccessModelKind::all() {
                let curve = a.curve(policy, model);
                assert_eq!(curve.len(), 2);
                assert!(curve[0].lambda < curve[1].lambda);
            }
        }
    }

    #[test]
    fn lambda_star_requires_stability_from_below() {
        // Construct a report by hand: stable at λ=0.1, unstable at 0.2,
        // (spuriously) stable again at 0.3 — λ* must still be 0.1.
        let mk = |lambda, verdict| StabilityCell {
            policy: PolicyKind::Aloha,
            model: SuccessModelKind::NonFading,
            lambda,
            throughput: 0.0,
            offered: lambda,
            mean_delay: None,
            p95_delay: None,
            drift: 0.0,
            verdict,
        };
        let report = StabilityReport {
            cells: vec![
                mk(0.1, StabilityVerdict::Stable),
                mk(0.2, StabilityVerdict::Unstable),
                mk(0.3, StabilityVerdict::Stable),
            ],
        };
        let star = report.lambda_star(PolicyKind::Aloha, SuccessModelKind::NonFading);
        assert_eq!(star, Some(0.1));
        // And an all-unstable curve has no λ*.
        let report = StabilityReport {
            cells: vec![mk(0.1, StabilityVerdict::Unstable)],
        };
        assert_eq!(
            report.lambda_star(PolicyKind::Aloha, SuccessModelKind::NonFading),
            None
        );
    }

    #[test]
    fn overloaded_toy_network_is_flagged_unstable() {
        // Pack the links into a tiny square so they interfere heavily:
        // only ~1 can succeed per slot, while 0.9 · 6 packets arrive —
        // the backlog must grow linearly and trip the drift test.
        let cfg = DynamicConfig {
            arrival: ArrivalProcess::Bernoulli { rate: 0.9 },
            topology: PaperTopology {
                links: 6,
                side: 60.0,
                ..PaperTopology::figure1()
            },
            ..tiny_base()
        };
        let outcomes = DynamicEngine::new(cfg.clone()).run();
        let cell = judge_cell(cfg.policy, cfg.model, 0.9, cfg.links, &outcomes);
        assert!(
            !cell.verdict.is_stable(),
            "drift {} should exceed threshold",
            cell.drift
        );
    }

    #[test]
    #[should_panic(expected = "need at least one sweep step")]
    fn empty_sweep_rejected() {
        let _ = LambdaSweep::linear(tiny_base(), 0.5, 0);
    }

    #[test]
    fn monitored_sweep_matches_plain() {
        let base = DynamicConfig {
            slots: 600,
            networks: 2,
            ..tiny_base()
        };
        let sweep = LambdaSweep::linear(base, 0.3, 3);
        let plain = sweep.run();
        let monitored = sweep.run_with_telemetry(None, true);
        assert_eq!(
            plain, monitored,
            "monitoring must not change the post-hoc report"
        );
    }

    #[test]
    fn monitored_journal_has_three_detector_events_per_replication() {
        let base = DynamicConfig {
            slots: 300,
            networks: 2,
            ..tiny_base()
        };
        let sweep = LambdaSweep::linear(base, 0.2, 1);

        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("health-journal-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap();
        let report = sweep.run_with_telemetry(Some(&tele), true);
        tele.flush();
        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let detectors: Vec<&str> = events
            .iter()
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("health"))
            .map(|e| e.get("detector").and_then(|d| d.as_str()).unwrap())
            .collect();
        let replications = report.cells.len() * 2;
        assert_eq!(detectors.len(), replications * 3);
        for chunk in detectors.chunks(3) {
            assert_eq!(chunk, ["watermark", "throughput", "delay_slo"]);
        }
    }

    #[test]
    fn telemetry_sweep_matches_plain_and_journals_verdicts() {
        let base = DynamicConfig {
            slots: 400,
            ..tiny_base()
        };
        let sweep = LambdaSweep::linear(base, 0.2, 2);
        let plain = sweep.run();

        let dir = std::env::temp_dir().join("rayfade-dynamic-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sweep-{}.jsonl", std::process::id()));
        let tele = Telemetry::with_journal(&path).unwrap();
        let instrumented = sweep.run_with_telemetry(Some(&tele), false);
        assert_eq!(plain, instrumented, "telemetry must not change verdicts");

        let events = rayfade_telemetry::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let kind_count = |kind: &str| {
            events
                .iter()
                .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some(kind))
                .count()
        };
        assert_eq!(kind_count("stability_config"), 1);
        // 3 policies × 2 models × 2 λ cells; one run header + verdict each.
        assert_eq!(kind_count("dyn_run"), plain.cells.len());
        assert_eq!(kind_count("stability_cell"), plain.cells.len());
        // One λ* event per (policy, model) curve.
        assert_eq!(kind_count("lambda_star"), 6);
        assert!(kind_count("dyn_slot") > 0, "trace records must be present");
        assert_eq!(tele.journal().unwrap().write_errors(), 0);
    }
}
