//! Output checks. Each returns `Err` with a description when an output
//! is wrong; the caller counts the operation as failed.

use rayfade_dynamic::{
    DynamicConfig, DynamicOutcome, StabilityCell, StabilityReport, DRIFT_TOLERANCE,
};

/// Half-width of the band a count may stray from its expectation: six
/// standard deviations, plus one count of rounding slack.
fn band(variance: f64) -> f64 {
    6.0 * variance.sqrt() + 1.0
}

/// Packets that arrived, departed and remained in one replication,
/// recovered from its per-link rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packets {
    pub arrived: u64,
    pub departed: u64,
    pub backlog: u64,
}

impl Packets {
    pub fn of(cfg: &DynamicConfig, out: &DynamicOutcome) -> Packets {
        let link_slots = cfg.slots as f64 * cfg.links as f64;
        Packets {
            arrived: (out.offered_per_link * link_slots).round() as u64,
            departed: (out.throughput_per_link * link_slots).round() as u64,
            backlog: (out.final_backlog_per_link * cfg.links as f64).round() as u64,
        }
    }
}

/// `arrived` Bernoulli(λ) arrivals over `trials` link-slots is within
/// binomial noise of its mean.
pub fn offered_load(lambda: f64, trials: f64, arrived: f64) -> Result<(), String> {
    let mean = trials * lambda;
    let limit = band(mean * (1.0 - lambda));
    if (arrived - mean).abs() > limit {
        return Err(format!(
            "offered load {arrived} packets over {trials} link-slots strays from λ = {lambda} \
             (mean {mean:.1}, band ±{limit:.1})"
        ));
    }
    Ok(())
}

/// Flow conservation (overall and at every sampled slot), throughput ≤
/// offered, and offered load within binomial noise of λ.
pub fn outcome(cfg: &DynamicConfig, out: &DynamicOutcome) -> Result<(), String> {
    let p = Packets::of(cfg, out);
    if p.arrived != p.departed + p.backlog {
        return Err(format!(
            "flow not conserved: {} arrived, {} departed, {} left",
            p.arrived, p.departed, p.backlog
        ));
    }
    let t = &out.trace;
    for k in 0..t.slots.len() {
        if t.cum_arrivals[k] != t.cum_departures[k] + t.total_backlog[k] {
            return Err(format!("flow not conserved at sampled slot {}", t.slots[k]));
        }
    }
    if out.throughput_per_link > out.offered_per_link {
        return Err(format!(
            "throughput {} exceeds offered load {}",
            out.throughput_per_link, out.offered_per_link
        ));
    }
    let trials = cfg.slots as f64 * cfg.links as f64;
    offered_load(cfg.arrival.rate(), trials, p.arrived as f64)
}

/// A replay's arrivals and departures agree with the engine's within
/// binomial noise, so the breakdown describes the same work.
pub fn replay_agrees(
    what: &str,
    lambda: f64,
    trials: f64,
    engine: (f64, f64),
    replay: (f64, f64),
) -> Result<(), String> {
    let arrivals = band(2.0 * trials * lambda * (1.0 - lambda));
    let departures = band(engine.1 + replay.1);
    if (engine.0 - replay.0).abs() > arrivals || (engine.1 - replay.1).abs() > departures {
        return Err(format!(
            "{what}: replay moved {}/{} packets (arrived/departed), the engine {}/{}",
            replay.0, replay.1, engine.0, engine.1
        ));
    }
    Ok(())
}

/// A second untraced run repeats the first bit for bit.
pub fn repeats<T: PartialEq>(first: &[T], again: &[T]) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err("a repeated untraced run gave different outputs".into())
    }
}

/// The committed sweep's CSV rows (header dropped), read from the
/// checkout.
pub fn committed_rows() -> Result<Vec<String>, String> {
    let path = "results/stability.csv";
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text.lines().skip(1).map(str::to_string).collect())
}

/// A cell in the CSV layout `stability_exp` writes.
fn csv_row(cell: &StabilityCell) -> String {
    format!(
        "{},{},{:.4},{:.4},{:.4},{},{},{:.4},{}",
        cell.policy.label(),
        cell.model.label(),
        cell.lambda,
        cell.offered,
        cell.throughput,
        cell.mean_delay
            .map_or("-".to_string(), |d| format!("{d:.2}")),
        cell.p95_delay.map_or("-".to_string(), |d| d.to_string()),
        cell.drift,
        cell.verdict.label(),
    )
}

/// Checks every cell of a sweep report against the cell configurations
/// the sweep runs, one operation per cell: the deterministic cell order,
/// throughput ≤ offered, offered load within binomial noise, and a
/// verdict consistent with the drift. With `committed` (the default
/// seed), each cell must also equal its committed CSV row; since λ* is
/// read off the verdict column, a moved λ* fails a row.
pub fn sweep(
    configs: &[DynamicConfig],
    report: &StabilityReport,
    committed: Option<&[String]>,
    mut op: impl FnMut(Result<(), String>),
) {
    if report.cells.len() != configs.len() {
        op(Err(format!(
            "sweep returned {} cells, expected {}",
            report.cells.len(),
            configs.len()
        )));
    }
    if let Some(rows) = committed.filter(|rows| rows.len() != configs.len()) {
        op(Err(format!(
            "the committed sweep has {} rows, expected {}",
            rows.len(),
            configs.len()
        )));
    }
    for (k, (cell, cfg)) in report.cells.iter().zip(configs).enumerate() {
        let lambda = cfg.arrival.rate();
        let check = || -> Result<(), String> {
            if (cell.policy, cell.model, cell.lambda) != (cfg.policy, cfg.model, lambda) {
                return Err(format!("cell {k} is out of order"));
            }
            if cell.throughput > cell.offered + 1e-12 {
                return Err("throughput exceeds the offered load".into());
            }
            let trials = cfg.networks as f64 * cfg.slots as f64 * cfg.links as f64;
            offered_load(lambda, trials, (cell.offered * trials).round())?;
            let stable = cell.drift <= DRIFT_TOLERANCE * lambda * cfg.links as f64;
            if stable != cell.verdict.is_stable() {
                return Err(format!("verdict disagrees with drift {}", cell.drift));
            }
            if let Some(rows) = committed {
                let row = csv_row(cell);
                if rows.get(k) != Some(&row) {
                    return Err(format!(
                        "{row} differs from the committed row {:?}",
                        rows.get(k)
                    ));
                }
            }
            Ok(())
        };
        op(check().map_err(|e| {
            format!(
                "{}/{}/λ={lambda}: {e}",
                cfg.policy.label(),
                cfg.model.label()
            )
        }));
    }
}
