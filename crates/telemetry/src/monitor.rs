//! Health records: SLO, watermark, and throughput detectors over one
//! finished replication, with journal + registry exposition.
//!
//! [`HealthReport::from_run`] reads what a replication already recorded
//! (its sampled backlog and cumulative counter series, and every link's
//! delivery delays) after its slot loop, so a report never touches the
//! loop or a random stream. It answers:
//!
//! * **delay SLO**: is the p95 delay at most 500 slots, and has no link
//!   sent more than 5% of its deliveries over that? The p95 is read off
//!   the γ-relative-error [`QuantileSketch`], not the coarse base-2
//!   [`Histogram`](crate::Histogram).
//! * **watermark**: has the backlog set a new all-time high on 10
//!   *consecutive* samples? A bounded process renews its maximum ever
//!   more rarely; a linearly growing one renews it every sample.
//! * **throughput**: has the departure rate fallen below half the
//!   arrival rate? EWMA rates over the sampled cumulative counters.
//!
//! Whether a backlog drifts is not a detector here: the stability sweep
//! judges it once per cell from the sampled backlog trace
//! (`rayfade_dynamic::judge_cell`).
//!
//! Reports journal as deterministic `kind: "health"` events (one per
//! detector, each carrying `detector` and `verdict` fields, the contract
//! `telemetry_lint` enforces) and export through the existing
//! [`Registry`].

use crate::journal::{Event, Journal};
use crate::registry::Registry;
use crate::stream::QuantileSketch;

/// Consecutive new-high-watermark samples at which the watermark
/// detector alerts.
const WATERMARK_STREAK_LIMIT: u64 = 10;
/// EWMA smoothing factor of the arrival and departure rates.
const RATE_EWMA_ALPHA: f64 = 0.05;
/// The throughput detector alerts when the departure rate falls below
/// this fraction of the arrival rate.
const COLLAPSE_RATIO: f64 = 0.5;
/// Relative accuracy γ of the delay quantile sketch.
const SKETCH_GAMMA: f64 = 0.01;
/// The delay quantile the SLO constrains.
const SLO_QUANTILE: f64 = 0.95;
/// Upper bound, in slots, on the SLO quantile and on each delay.
const SLO_THRESHOLD: f64 = 500.0;
/// Fraction of a link's deliveries allowed over the threshold.
const SLO_BUDGET: f64 = 0.05;
/// Number of recent backlog samples in the windowed mean and variance.
const BACKLOG_WINDOW: usize = 64;

/// A detector's binary state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Within its envelope.
    Ok,
    /// Out of envelope — the condition the detector watches for is live.
    Alert,
}

impl HealthVerdict {
    /// Stable label used in journals and logs.
    pub fn label(&self) -> &'static str {
        match self {
            HealthVerdict::Ok => "ok",
            HealthVerdict::Alert => "alert",
        }
    }

    /// Whether this is [`HealthVerdict::Alert`].
    pub fn is_alert(&self) -> bool {
        matches!(self, HealthVerdict::Alert)
    }

    fn from_alert(alert: bool) -> Self {
        if alert {
            HealthVerdict::Alert
        } else {
            HealthVerdict::Ok
        }
    }
}

/// The delay SLO's state over one replication's deliveries.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Sketch estimate of the p95 delay (`None` without deliveries).
    pub estimate: Option<f64>,
    /// Total deliveries.
    pub observed: u64,
    /// Total over-threshold deliveries.
    pub violations: u64,
    /// The link with the highest violation fraction, the lowest such
    /// link on ties (`None` without deliveries).
    pub worst_link: Option<usize>,
    /// That link's violation fraction.
    pub worst_fraction: f64,
    /// `Alert` when the p95 estimate exceeds the threshold or the worst
    /// link's violation fraction exceeds the budget.
    pub verdict: HealthVerdict,
}

impl SloReport {
    /// The SLO over every link's delivery delays, in link order. The
    /// sketch's quantile reads bucket counts only, so it does not matter
    /// that the delays arrive link by link rather than in delivery order.
    fn from_delays<'a>(delays: impl IntoIterator<Item = &'a [u64]>) -> Self {
        let mut sketch = QuantileSketch::new(SKETCH_GAMMA);
        let (mut observed, mut violations) = (0, 0);
        let mut worst_link = None;
        let mut worst_fraction = 0.0f64;
        for (link, link_delays) in delays.into_iter().enumerate() {
            if link_delays.is_empty() {
                continue;
            }
            for &delay in link_delays {
                sketch.observe(delay as f64);
            }
            let over = link_delays
                .iter()
                .filter(|&&d| d as f64 > SLO_THRESHOLD)
                .count() as u64;
            observed += link_delays.len() as u64;
            violations += over;
            let fraction = over as f64 / link_delays.len() as f64;
            if worst_link.is_none() || fraction > worst_fraction {
                worst_link = Some(link);
                worst_fraction = fraction;
            }
        }
        let estimate = sketch.quantile(SLO_QUANTILE);
        let quantile_over = estimate.is_some_and(|e| e > SLO_THRESHOLD);
        let budget_blown = worst_fraction > SLO_BUDGET;
        SloReport {
            estimate,
            observed,
            violations,
            worst_link,
            worst_fraction,
            verdict: HealthVerdict::from_alert(quantile_over || budget_blown),
        }
    }
}

/// Every detector's state over one replication.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// All-time backlog maximum.
    pub watermark: f64,
    /// Longest consecutive new-watermark streak.
    pub growth_streak: u64,
    /// Watermark detector state.
    pub watermark_verdict: HealthVerdict,
    /// EWMA arrival rate, packets/slot (0 before two samples).
    pub arrival_rate: f64,
    /// EWMA departure rate, packets/slot (0 before two samples).
    pub departure_rate: f64,
    /// Throughput-collapse detector state.
    pub throughput_verdict: HealthVerdict,
    /// Mean of the last 64 backlog samples.
    pub backlog_mean: f64,
    /// Population variance of the last 64 backlog samples.
    pub backlog_variance: f64,
    /// Delay-SLO state.
    pub slo: SloReport,
}

/// Folds `rate` into an EWMA seeded with its first rate.
fn ewma(value: &mut Option<f64>, rate: f64) {
    *value = Some(match *value {
        None => rate,
        Some(v) => RATE_EWMA_ALPHA * rate + (1.0 - RATE_EWMA_ALPHA) * v,
    });
}

impl HealthReport {
    /// The report of one replication. `slots`, `backlog`, `cum_arrivals`
    /// and `cum_departures` are its sampled series, in slot order:
    /// network-total backlog and cumulative arrival and departure counts
    /// at each sampled slot. `delays` yields each link's delivery delays
    /// (in slots), in link order.
    ///
    /// # Panics
    /// When the four series differ in length.
    pub fn from_run<'a>(
        slots: &[u64],
        backlog: &[u64],
        cum_arrivals: &[u64],
        cum_departures: &[u64],
        delays: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        let n = slots.len();
        assert!(
            backlog.len() == n && cum_arrivals.len() == n && cum_departures.len() == n,
            "the sampled series must have one entry per sampled slot"
        );
        let (mut watermark, mut streak, mut growth_streak) = (0.0f64, 0u64, 0u64);
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        let (mut arrival_rate, mut departure_rate) = (None, None);
        for k in 0..n {
            let b = backlog[k] as f64;
            if b > watermark {
                watermark = b;
                streak += 1;
                growth_streak = growth_streak.max(streak);
            } else {
                streak = 0;
            }
            // The window evicts its oldest sample before it adds.
            if k >= BACKLOG_WINDOW {
                let old = backlog[k - BACKLOG_WINDOW] as f64;
                sum -= old;
                sumsq -= old * old;
            }
            sum += b;
            sumsq += b * b;
            // A sample in the same slot as the previous one adds no rate,
            // but is the previous sample of the next.
            if k > 0 {
                let dt = slots[k].saturating_sub(slots[k - 1]) as f64;
                if dt > 0.0 {
                    let arrived = cum_arrivals[k].saturating_sub(cum_arrivals[k - 1]);
                    let departed = cum_departures[k].saturating_sub(cum_departures[k - 1]);
                    ewma(&mut arrival_rate, arrived as f64 / dt);
                    ewma(&mut departure_rate, departed as f64 / dt);
                }
            }
        }
        // An empty window divides its zero sums by 1. Incremental sums
        // can take the variance fractionally negative.
        let filled = n.clamp(1, BACKLOG_WINDOW) as f64;
        let backlog_variance = ((sumsq - sum * sum / filled) / filled).max(0.0);
        let arrival_rate = arrival_rate.unwrap_or(0.0);
        let departure_rate = departure_rate.unwrap_or(0.0);
        let collapsed = arrival_rate > 0.0 && departure_rate < COLLAPSE_RATIO * arrival_rate;
        HealthReport {
            watermark,
            growth_streak,
            watermark_verdict: HealthVerdict::from_alert(growth_streak >= WATERMARK_STREAK_LIMIT),
            arrival_rate,
            departure_rate,
            throughput_verdict: HealthVerdict::from_alert(collapsed),
            backlog_mean: sum / filled,
            backlog_variance,
            slo: SloReport::from_delays(delays),
        }
    }

    /// Journals one `kind: "health"` event per detector.
    ///
    /// Every event carries a `detector` tag (`watermark`, `throughput`,
    /// `delay_slo`) and a `verdict` string — the fields
    /// `telemetry_lint` requires on health events. `decorate` adds caller
    /// context (policy, λ, replication index, ...) to each event before
    /// the detector fields; all values here derive from simulated state,
    /// never wall clock, so the events are deterministic.
    pub fn journal<'a>(&self, journal: &'a Journal, decorate: impl Fn(Event<'a>) -> Event<'a>) {
        decorate(journal.event("health"))
            .str("detector", "watermark")
            .num("watermark", self.watermark)
            .int("growth_streak", self.growth_streak as i64)
            .str("verdict", self.watermark_verdict.label())
            .write();
        decorate(journal.event("health"))
            .str("detector", "throughput")
            .num("arrival_rate", self.arrival_rate)
            .num("departure_rate", self.departure_rate)
            .num("backlog_mean", self.backlog_mean)
            .num("backlog_variance", self.backlog_variance)
            .str("verdict", self.throughput_verdict.label())
            .write();
        let slo = &self.slo;
        let mut ev = decorate(journal.event("health"))
            .str("detector", "delay_slo")
            .num("quantile", SLO_QUANTILE)
            .num("threshold", SLO_THRESHOLD)
            .num("budget", SLO_BUDGET);
        if let Some(estimate) = slo.estimate {
            ev = ev.num("estimate", estimate);
        }
        ev = ev
            .int("observed", slo.observed as i64)
            .int("violations", slo.violations as i64);
        if let Some(link) = slo.worst_link {
            ev = ev
                .int("worst_link", link as i64)
                .num("worst_fraction", slo.worst_fraction);
        }
        ev.str("verdict", slo.verdict.label()).write();
    }

    /// Exports the report into `registry` as `rayfade_monitor_*`
    /// metrics.
    ///
    /// Gauges are integer-valued, so float health values ride on
    /// histograms (one observation per report — `_sum`/`_count` exposition
    /// carries the value) and counters carry totals.
    pub fn export(&self, registry: &Registry) {
        registry.counter("rayfade_monitor_reports_total").inc();
        let alerts = [
            self.watermark_verdict,
            self.throughput_verdict,
            self.slo.verdict,
        ]
        .iter()
        .filter(|v| v.is_alert())
        .count() as u64;
        registry.counter("rayfade_monitor_alerts_total").add(alerts);
        registry
            .histogram("rayfade_monitor_backlog_mean")
            .observe(self.backlog_mean);
        let watermark_gauge = registry.gauge("rayfade_monitor_watermark_max");
        watermark_gauge.set(watermark_gauge.get().max(self.watermark as i64));
        registry
            .counter("rayfade_monitor_slo_observed_total")
            .add(self.slo.observed);
        registry
            .counter("rayfade_monitor_slo_violations_total")
            .add(self.slo.violations);
        if let Some(estimate) = self.slo.estimate {
            registry
                .histogram("rayfade_monitor_slo_delay_quantile")
                .observe(estimate);
        }
    }
}

/// Exports a duration sketch's p50/p95/p99 (seconds in, nanoseconds out)
/// as integer gauges `{prefix}_p50_ns` / `{prefix}_p95_ns` /
/// `{prefix}_p99_ns`.
///
/// Gauges are integer-valued, so sub-second latencies ride on a
/// nanosecond scale. No-op on an empty sketch. Wall-clock quantiles
/// belong in the registry only — never in journals, whose bytes must be
/// deterministic.
pub fn export_duration_quantiles(registry: &Registry, prefix: &str, sketch: &QuantileSketch) {
    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(seconds) = sketch.quantile(q) {
            registry
                .gauge(&format!("{prefix}_{label}_ns"))
                .set((seconds * 1e9) as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_quantiles_export_as_ns_gauges() {
        let registry = Registry::new();
        let mut sketch = QuantileSketch::new(0.01);
        export_duration_quantiles(&registry, "rayfade_test_phase", &sketch);
        // Empty sketch: nothing registered, prometheus text stays empty.
        assert!(registry.prometheus_text().is_empty());
        for k in 1..=100 {
            sketch.observe(k as f64 * 1e-6); // 1µs .. 100µs
        }
        export_duration_quantiles(&registry, "rayfade_test_phase", &sketch);
        let p50 = registry.gauge("rayfade_test_phase_p50_ns").get();
        let p99 = registry.gauge("rayfade_test_phase_p99_ns").get();
        assert!((49_000..=51_000).contains(&p50), "p50 {p50}");
        assert!((98_000..=101_000).contains(&p99), "p99 {p99}");
    }

    /// The report of a run sampled every `every` slots, with cumulative
    /// arrival and departure counts `arr` and `dep` at each sample.
    fn run(every: u64, arr: &[u64], dep: &[u64], delays: &[&[u64]]) -> HealthReport {
        let slots: Vec<u64> = (0..arr.len() as u64).map(|k| k * every).collect();
        let backlog: Vec<u64> = arr.iter().zip(dep).map(|(a, d)| a - d).collect();
        HealthReport::from_run(&slots, &backlog, arr, dep, delays.iter().copied())
    }

    #[test]
    fn flat_backlog_is_healthy() {
        // 100 samples, so the 64-sample window is full and has evicted.
        let arrivals: Vec<u64> = (0..100).map(|k| k * 5 + 3).collect();
        let departures: Vec<u64> = (0..100).map(|k| k * 5).collect();
        let r = run(10, &arrivals, &departures, &[&[], &[2; 20], &[], &[]]);
        assert_eq!(r.watermark_verdict, HealthVerdict::Ok);
        assert_eq!(r.throughput_verdict, HealthVerdict::Ok);
        assert_eq!(r.slo.verdict, HealthVerdict::Ok);
        assert_eq!(r.slo.observed, 20);
        assert_eq!(r.slo.violations, 0);
        assert_eq!(r.slo.worst_link, Some(1));
        assert!((r.arrival_rate - 0.5).abs() < 1e-9);
        assert!((r.departure_rate - 0.5).abs() < 1e-9);
        assert_eq!(r.backlog_mean, 3.0);
        assert_eq!(r.backlog_variance, 0.0);
    }

    #[test]
    fn linear_growth_trips_watermark_and_throughput() {
        // One packet per slot arrives, nothing departs: every sample a
        // new watermark, departure rate 0.
        let arrivals: Vec<u64> = (0..40).map(|k| k * 10).collect();
        let r = run(10, &arrivals, &[0; 40], &[]);
        assert_eq!(r.watermark, 390.0);
        assert!(r.growth_streak >= 10);
        assert_eq!(r.watermark_verdict, HealthVerdict::Alert);
        assert_eq!(r.throughput_verdict, HealthVerdict::Alert);
    }

    #[test]
    fn rates_are_an_ewma_seeded_with_the_first_rate() {
        // Rates 1.0, then 0.0, then (a same-slot sample adds none) 0.5
        // measured from the same-slot sample, not from the one before.
        let slots = [0, 10, 20, 20, 40];
        let arrivals = [0, 10, 10, 15, 25];
        let r = HealthReport::from_run(&slots, &arrivals, &arrivals, &[0; 5], []);
        let second = 0.05 * 0.0 + 0.95 * 1.0;
        assert_eq!(r.arrival_rate, 0.05 * 0.5 + 0.95 * second);
        assert_eq!(r.departure_rate, 0.0);
        let one = HealthReport::from_run(&[0], &[4], &[4], &[0], []);
        assert_eq!(one.arrival_rate, 0.0, "no rate before two samples");
        assert_eq!(one.throughput_verdict, HealthVerdict::Ok);
    }

    #[test]
    fn backlog_window_holds_the_last_64_samples() {
        // 65 samples: an outlier of 100, then 0, 1, 0, 1, ... The 65th
        // sample evicts the outlier.
        let backlog: Vec<u64> = (0..65).map(|k| if k == 0 { 100 } else { k % 2 }).collect();
        let slots: Vec<u64> = (0..65).collect();
        let full = HealthReport::from_run(&slots, &backlog, &backlog, &[0; 65], []);
        assert_eq!(full.backlog_mean, 0.5);
        assert_eq!(full.backlog_variance, 0.25);
        let before =
            HealthReport::from_run(&slots[..64], &backlog[..64], &backlog[..64], &[0; 64], []);
        assert_eq!(before.backlog_mean, (100.0 + 32.0) / 64.0);
        let empty = HealthReport::from_run(&[], &[], &[], &[], []);
        assert_eq!((empty.backlog_mean, empty.backlog_variance), (0.0, 0.0));
    }

    #[test]
    fn slo_budget_blown_on_the_worst_link_alerts() {
        // Link 0: all fast. Link 2: 1 of 4 over 500 slots (25% > 5%),
        // while the p95 stays far under it.
        let r = run(10, &[0, 0], &[0, 0], &[&[2; 20], &[], &[5, 5, 5, 600]]);
        let slo = &r.slo;
        assert_eq!(slo.observed, 24);
        assert_eq!(slo.violations, 1);
        assert_eq!(slo.worst_link, Some(2));
        assert!((slo.worst_fraction - 0.25).abs() < 1e-12);
        assert!(slo.estimate.unwrap() < 10.0);
        assert_eq!(slo.verdict, HealthVerdict::Alert);
    }

    #[test]
    fn slo_quantile_over_threshold_alerts() {
        // Every delivery over 500 slots. (At p95 with a 5% budget, a
        // p95 over the threshold always blows the budget too: more than
        // 5% of the deliveries rank at or above the p95.)
        let r = run(10, &[0, 0], &[0, 0], &[&[520; 10]]);
        let estimate = r.slo.estimate.unwrap();
        assert!((estimate - 520.0).abs() <= 0.01 * 520.0 * 1.000_001);
        assert!(estimate > 500.0);
        assert_eq!(r.slo.verdict, HealthVerdict::Alert);
        let idle = run(10, &[0, 0], &[0, 0], &[&[], &[]]);
        assert_eq!(idle.slo.estimate, None);
        assert_eq!(idle.slo.worst_link, None);
        assert_eq!(idle.slo.verdict, HealthVerdict::Ok);
    }

    #[test]
    fn watermark_streak_resets_on_non_record_samples() {
        let watermark = |backlog: &[u64]| {
            let slots: Vec<u64> = (0..backlog.len() as u64).collect();
            HealthReport::from_run(&slots, backlog, backlog, &vec![0; backlog.len()], [])
        };
        let mut backlog = vec![1, 2, 1, 3, 4, 2, 5];
        let r = watermark(&backlog);
        assert_eq!(r.watermark, 5.0);
        assert_eq!(r.growth_streak, 2);
        // Eight more new highs after the 5: a streak of 9 is still ok,
        // the tenth alerts.
        backlog.extend(6..=13);
        let r = watermark(&backlog);
        assert_eq!(r.growth_streak, 9);
        assert_eq!(r.watermark_verdict, HealthVerdict::Ok);
        backlog.push(14);
        assert_eq!(watermark(&backlog).watermark_verdict, HealthVerdict::Alert);
    }

    #[test]
    fn report_journals_one_event_per_detector() {
        let dir = std::env::temp_dir().join("rayfade-monitor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("health-{}.jsonl", std::process::id()));
        let journal = Journal::create(&path).unwrap();
        let arrivals: Vec<u64> = (0..10).map(|k| k * 2).collect();
        let departures: Vec<u64> = (0..10).collect();
        let delays: [&[u64]; 2] = [&[1, 3, 5, 7, 9], &[2, 4, 6, 8, 10]];
        run(5, &arrivals, &departures, &delays).journal(&journal, |e| e.int("net", 7));
        drop(journal);

        let events = crate::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let health: Vec<_> = events
            .iter()
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("health"))
            .collect();
        assert_eq!(health.len(), 3, "watermark, throughput, SLO");
        for ev in &health {
            assert_eq!(ev.get("net").and_then(|v| v.as_i64()), Some(7));
            assert!(ev.get("detector").and_then(|v| v.as_str()).is_some());
            let verdict = ev.get("verdict").and_then(|v| v.as_str()).unwrap();
            assert!(verdict == "ok" || verdict == "alert");
        }
        let detectors: Vec<_> = health
            .iter()
            .filter_map(|e| e.get("detector").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(detectors, ["watermark", "throughput", "delay_slo"]);
        let slo = health[2];
        let field = |key: &str| slo.get(key).and_then(|v| v.as_f64());
        assert_eq!(field("quantile"), Some(0.95));
        assert_eq!(field("threshold"), Some(500.0));
        assert_eq!(field("budget"), Some(0.05));
        assert_eq!(field("observed"), Some(10.0));
    }

    #[test]
    fn export_writes_monitor_metrics() {
        let registry = Registry::new();
        let arrivals: Vec<u64> = (0..30).map(|k| k * 10).collect();
        let r = run(10, &arrivals, &[0; 30], &[]); // growing: alerts
        r.export(&registry);
        assert_eq!(registry.counter("rayfade_monitor_reports_total").get(), 1);
        assert_eq!(registry.counter("rayfade_monitor_alerts_total").get(), 2);
        assert_eq!(registry.gauge("rayfade_monitor_watermark_max").get(), 290);
        assert_eq!(
            registry.histogram("rayfade_monitor_backlog_mean").count(),
            1
        );
        // A second, larger watermark advances the max; a smaller one
        // would not.
        let mut r = r;
        r.watermark = 1000.0;
        r.export(&registry);
        assert_eq!(registry.gauge("rayfade_monitor_watermark_max").get(), 1000);
    }
}
