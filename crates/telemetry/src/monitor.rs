//! Online health monitoring: SLO, watermark, and throughput detectors
//! over a live run, with journal + registry exposition.
//!
//! A [`HealthMonitor`] is fed *during* the run (one per replication;
//! feeding it never touches any random stream, so monitored runs stay
//! bit-equal to plain ones) and its [`HealthReport`] snapshot answers:
//!
//! * **delay SLO** — is the target delay quantile under its threshold,
//!   and is the per-link violation fraction inside budget? Backed by the
//!   γ-relative-error [`QuantileSketch`],
//!   not the coarse base-2 [`Histogram`](crate::Histogram).
//! * **watermark** — has the backlog set a new all-time high on too many
//!   *consecutive* samples? A bounded process renews its maximum ever
//!   more rarely; a linearly growing one renews it every sample.
//! * **throughput** — has the departure rate collapsed relative to the
//!   arrival rate? Windowed EWMA rates over the sampled cumulative
//!   counters.
//!
//! Whether a backlog drifts is not a detector here: the stability sweep
//! judges it once per cell from the sampled backlog trace
//! (`rayfade_dynamic::judge_cell`).
//!
//! Reports journal as deterministic `kind: "health"` events (one per
//! detector, each carrying `detector` and `verdict` fields — the contract
//! `telemetry_lint` enforces) and export through the existing
//! [`Registry`].

use crate::journal::{Event, Journal};
use crate::registry::Registry;
use crate::stream::{Ewma, QuantileSketch, SlidingWindow};

/// Number of recent backlog samples the monitor keeps for windowed
/// mean/variance.
const BACKLOG_WINDOW: usize = 64;

/// A detector's binary state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Within its configured envelope.
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

/// A per-link delay service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// The delay quantile the objective constrains (e.g. 0.95).
    pub quantile: f64,
    /// Upper bound, in slots, that the quantile (and each individual
    /// delay) must respect.
    pub threshold: f64,
    /// Allowed fraction of over-threshold deliveries per link before the
    /// tracker alerts.
    pub budget: f64,
}

impl Default for SloConfig {
    /// p95 delay ≤ 500 slots, with 5% of deliveries allowed over.
    fn default() -> Self {
        SloConfig {
            quantile: 0.95,
            threshold: 500.0,
            budget: 0.05,
        }
    }
}

/// Configuration of a [`HealthMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Delay SLO to track (`None` disables the tracker).
    pub slo: Option<SloConfig>,
    /// Consecutive new-high-watermark samples before the watermark
    /// detector alerts.
    pub watermark_streak_limit: u64,
    /// EWMA smoothing factor for the arrival/departure rate estimators.
    pub ewma_alpha: f64,
    /// The throughput detector alerts when the departure rate falls below
    /// this fraction of the arrival rate.
    pub collapse_ratio: f64,
    /// Relative accuracy γ of the delay quantile sketch.
    pub sketch_gamma: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            slo: Some(SloConfig::default()),
            watermark_streak_limit: 10,
            ewma_alpha: 0.05,
            collapse_ratio: 0.5,
            sketch_gamma: 0.01,
        }
    }
}

/// Backlog high-watermark growth detector.
///
/// Tracks the all-time maximum of the sampled backlog and the longest run
/// of *consecutive* samples that each set a new maximum. A positive-
/// recurrent backlog renews its maximum ever more rarely; under linear
/// growth every sample is a new high and the streak grows without bound.
#[derive(Debug, Clone, PartialEq)]
pub struct WatermarkDetector {
    watermark: f64,
    streak: u64,
    max_streak: u64,
    limit: u64,
}

impl WatermarkDetector {
    /// A detector alerting at `limit` consecutive new highs.
    pub fn new(limit: u64) -> Self {
        WatermarkDetector {
            watermark: 0.0,
            streak: 0,
            max_streak: 0,
            limit,
        }
    }

    /// Folds one sampled backlog value in.
    pub fn observe(&mut self, backlog: f64) {
        if backlog > self.watermark {
            self.watermark = backlog;
            self.streak += 1;
            self.max_streak = self.max_streak.max(self.streak);
        } else {
            self.streak = 0;
        }
    }

    /// The all-time backlog maximum seen so far.
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// The longest consecutive new-high streak seen so far.
    pub fn max_streak(&self) -> u64 {
        self.max_streak
    }

    /// `Ok` iff the longest streak stayed below the limit.
    pub fn verdict(&self) -> HealthVerdict {
        HealthVerdict::from_alert(self.max_streak >= self.limit)
    }
}

/// Per-link delay-SLO tracker: one γ-accurate sketch of all delivery
/// delays plus per-link violation tallies against the threshold/budget.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySloTracker {
    cfg: SloConfig,
    sketch: QuantileSketch,
    observed: Vec<u64>,
    violations: Vec<u64>,
}

impl DelaySloTracker {
    /// A tracker over `links` links.
    pub fn new(cfg: SloConfig, sketch_gamma: f64, links: usize) -> Self {
        DelaySloTracker {
            cfg,
            sketch: QuantileSketch::new(sketch_gamma),
            observed: vec![0; links],
            violations: vec![0; links],
        }
    }

    /// Records one delivered packet's delay (in slots) on `link`.
    pub fn observe(&mut self, link: usize, delay: f64) {
        self.sketch.observe(delay);
        self.observed[link] += 1;
        if delay > self.cfg.threshold {
            self.violations[link] += 1;
        }
    }

    /// Snapshot of the objective's state.
    pub fn report(&self) -> SloReport {
        let estimate = self.sketch.quantile(self.cfg.quantile);
        let mut worst_link = None;
        let mut worst_fraction = 0.0f64;
        for (link, (&obs, &vio)) in self.observed.iter().zip(&self.violations).enumerate() {
            if obs == 0 {
                continue;
            }
            let fraction = vio as f64 / obs as f64;
            if worst_link.is_none() || fraction > worst_fraction {
                worst_link = Some(link);
                worst_fraction = fraction;
            }
        }
        let quantile_over = estimate.is_some_and(|e| e > self.cfg.threshold);
        let budget_blown = worst_fraction > self.cfg.budget;
        SloReport {
            quantile: self.cfg.quantile,
            threshold: self.cfg.threshold,
            budget: self.cfg.budget,
            estimate,
            observed: self.observed.iter().sum(),
            violations: self.violations.iter().sum(),
            worst_link,
            worst_fraction,
            verdict: HealthVerdict::from_alert(quantile_over || budget_blown),
        }
    }
}

/// Snapshot of a [`DelaySloTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The tracked quantile.
    pub quantile: f64,
    /// The delay threshold, in slots.
    pub threshold: f64,
    /// The allowed per-link violation fraction.
    pub budget: f64,
    /// Sketch estimate of the tracked delay quantile (`None` before any
    /// delivery).
    pub estimate: Option<f64>,
    /// Total deliveries observed.
    pub observed: u64,
    /// Total over-threshold deliveries.
    pub violations: u64,
    /// The link with the highest violation fraction (`None` before any
    /// delivery).
    pub worst_link: Option<usize>,
    /// That link's violation fraction.
    pub worst_fraction: f64,
    /// `Alert` when the quantile estimate exceeds the threshold or the
    /// worst link's violation fraction exceeds the budget.
    pub verdict: HealthVerdict,
}

/// The online health monitor for one replication: every detector behind
/// one pair of feed calls.
///
/// Feed [`observe_sample`](HealthMonitor::observe_sample) at each sampled
/// slot and [`observe_delay`](HealthMonitor::observe_delay) at each
/// delivery; take a [`report`](HealthMonitor::report) whenever a snapshot
/// is needed (the dynamic engine takes one at end of run). The monitor is
/// pure read-side state — it draws no randomness and feeds nothing back,
/// so a monitored run's outcomes are bit-equal to an unmonitored one's.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    watermark: WatermarkDetector,
    window: SlidingWindow,
    arrivals: Ewma,
    departures: Ewma,
    collapse_ratio: f64,
    slo: Option<DelaySloTracker>,
    /// Previous sampled (slot, cum_arrivals, cum_departures) for rate
    /// deltas.
    last: Option<(u64, u64, u64)>,
}

impl HealthMonitor {
    /// A monitor over `links` links.
    pub fn new(cfg: &MonitorConfig, links: usize) -> Self {
        HealthMonitor {
            watermark: WatermarkDetector::new(cfg.watermark_streak_limit),
            window: SlidingWindow::new(BACKLOG_WINDOW),
            arrivals: Ewma::new(cfg.ewma_alpha),
            departures: Ewma::new(cfg.ewma_alpha),
            collapse_ratio: cfg.collapse_ratio,
            slo: cfg
                .slo
                .map(|slo| DelaySloTracker::new(slo, cfg.sketch_gamma, links)),
            last: None,
        }
    }

    /// Feeds one sampled slot: the network-total backlog plus the
    /// cumulative arrival/departure counters at `slot`.
    pub fn observe_sample(
        &mut self,
        slot: u64,
        backlog: u64,
        cum_arrivals: u64,
        cum_departures: u64,
    ) {
        let b = backlog as f64;
        self.watermark.observe(b);
        self.window.observe(b);
        if let Some((prev_slot, prev_arr, prev_dep)) = self.last {
            let dt = slot.saturating_sub(prev_slot) as f64;
            if dt > 0.0 {
                self.arrivals
                    .observe(cum_arrivals.saturating_sub(prev_arr) as f64 / dt);
                self.departures
                    .observe(cum_departures.saturating_sub(prev_dep) as f64 / dt);
            }
        }
        self.last = Some((slot, cum_arrivals, cum_departures));
    }

    /// Feeds one delivered packet's delay (in slots) on `link`. No-op
    /// when no SLO is configured.
    pub fn observe_delay(&mut self, link: usize, delay: u64) {
        if let Some(slo) = &mut self.slo {
            slo.observe(link, delay as f64);
        }
    }

    /// Snapshot of every detector.
    pub fn report(&self) -> HealthReport {
        let arrival_rate = self.arrivals.value().unwrap_or(0.0);
        let departure_rate = self.departures.value().unwrap_or(0.0);
        let collapsed = arrival_rate > 0.0 && departure_rate < self.collapse_ratio * arrival_rate;
        HealthReport {
            watermark: self.watermark.watermark(),
            growth_streak: self.watermark.max_streak(),
            watermark_verdict: self.watermark.verdict(),
            arrival_rate,
            departure_rate,
            throughput_verdict: HealthVerdict::from_alert(collapsed),
            backlog_mean: self.window.mean(),
            backlog_variance: self.window.variance(),
            slo: self.slo.as_ref().map(DelaySloTracker::report),
        }
    }
}

/// A point-in-time snapshot of every detector in a [`HealthMonitor`].
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
    /// Mean of the recent-backlog window.
    pub backlog_mean: f64,
    /// Population variance of the recent-backlog window.
    pub backlog_variance: f64,
    /// Delay-SLO snapshot, when an SLO was configured.
    pub slo: Option<SloReport>,
}

impl HealthReport {
    /// The worst verdict across all detectors: `Alert` if any alerts.
    pub fn worst(&self) -> HealthVerdict {
        let alert = self.watermark_verdict.is_alert()
            || self.throughput_verdict.is_alert()
            || self.slo.as_ref().is_some_and(|s| s.verdict.is_alert());
        HealthVerdict::from_alert(alert)
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
        if let Some(slo) = &self.slo {
            let mut ev = decorate(journal.event("health"))
                .str("detector", "delay_slo")
                .num("quantile", slo.quantile)
                .num("threshold", slo.threshold)
                .num("budget", slo.budget);
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
    }

    /// Exports the snapshot into `registry` as `rayfade_monitor_*`
    /// metrics.
    ///
    /// Gauges are integer-valued, so float health values ride on
    /// histograms (one observation per report — `_sum`/`_count` exposition
    /// carries the value) and counters carry totals.
    pub fn export(&self, registry: &Registry) {
        registry.counter("rayfade_monitor_reports_total").inc();
        let alerts = [self.watermark_verdict, self.throughput_verdict]
            .iter()
            .filter(|v| v.is_alert())
            .count() as u64
            + u64::from(self.slo.as_ref().is_some_and(|s| s.verdict.is_alert()));
        registry.counter("rayfade_monitor_alerts_total").add(alerts);
        registry
            .histogram("rayfade_monitor_backlog_mean")
            .observe(self.backlog_mean);
        let watermark_gauge = registry.gauge("rayfade_monitor_watermark_max");
        watermark_gauge.set(watermark_gauge.get().max(self.watermark as i64));
        if let Some(slo) = &self.slo {
            registry
                .counter("rayfade_monitor_slo_observed_total")
                .add(slo.observed);
            registry
                .counter("rayfade_monitor_slo_violations_total")
                .add(slo.violations);
            if let Some(estimate) = slo.estimate {
                registry
                    .histogram("rayfade_monitor_slo_delay_quantile")
                    .observe(estimate);
            }
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

    #[test]
    fn flat_backlog_is_healthy() {
        let mut m = HealthMonitor::new(&MonitorConfig::default(), 4);
        for k in 0..50u64 {
            m.observe_sample(k * 10, 3, k * 5 + 3, k * 5);
        }
        for _ in 0..20 {
            m.observe_delay(1, 2);
        }
        let r = m.report();
        assert_eq!(r.watermark_verdict, HealthVerdict::Ok);
        assert_eq!(r.throughput_verdict, HealthVerdict::Ok);
        let slo = r.slo.as_ref().expect("SLO configured by default");
        assert_eq!(slo.verdict, HealthVerdict::Ok);
        assert_eq!(slo.observed, 20);
        assert_eq!(slo.violations, 0);
        assert_eq!(r.worst(), HealthVerdict::Ok);
        assert!((r.arrival_rate - 0.5).abs() < 1e-9);
        assert!((r.departure_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linear_growth_trips_watermark_and_throughput() {
        let mut m = HealthMonitor::new(&MonitorConfig::default(), 4);
        // One packet per slot arrives, nothing departs: every sample a
        // new watermark, departure rate 0.
        for k in 0..40u64 {
            m.observe_sample(k * 10, k * 10, k * 10, 0);
        }
        let r = m.report();
        assert_eq!(r.watermark, 390.0);
        assert!(r.growth_streak >= 10);
        assert_eq!(r.watermark_verdict, HealthVerdict::Alert);
        assert_eq!(r.throughput_verdict, HealthVerdict::Alert);
        assert_eq!(r.worst(), HealthVerdict::Alert);
    }

    #[test]
    fn slo_tracker_flags_budget_blowout_on_the_worst_link() {
        let mut t = DelaySloTracker::new(
            SloConfig {
                quantile: 0.95,
                threshold: 10.0,
                budget: 0.1,
            },
            0.01,
            3,
        );
        // Link 0: all fast. Link 2: 1 of 4 over threshold (25% > 10%).
        for _ in 0..20 {
            t.observe(0, 2.0);
        }
        for _ in 0..3 {
            t.observe(2, 5.0);
        }
        t.observe(2, 50.0);
        let r = t.report();
        assert_eq!(r.observed, 24);
        assert_eq!(r.violations, 1);
        assert_eq!(r.worst_link, Some(2));
        assert!((r.worst_fraction - 0.25).abs() < 1e-12);
        assert_eq!(r.verdict, HealthVerdict::Alert);
    }

    #[test]
    fn slo_quantile_over_threshold_alerts_even_within_budget() {
        let mut t = DelaySloTracker::new(
            SloConfig {
                quantile: 0.5,
                threshold: 10.0,
                budget: 1.0, // budget can never blow
            },
            0.01,
            1,
        );
        for _ in 0..10 {
            t.observe(0, 40.0);
        }
        let r = t.report();
        assert!(r.estimate.unwrap() > 10.0);
        assert_eq!(r.verdict, HealthVerdict::Alert);
    }

    #[test]
    fn watermark_streak_resets_on_non_record_samples() {
        let mut d = WatermarkDetector::new(3);
        for b in [1.0, 2.0, 1.0, 3.0, 4.0, 2.0, 5.0] {
            d.observe(b);
        }
        assert_eq!(d.watermark(), 5.0);
        assert_eq!(d.max_streak(), 2);
        assert_eq!(d.verdict(), HealthVerdict::Ok);
        for b in [6.0, 7.0, 8.0] {
            d.observe(b);
        }
        assert_eq!(d.verdict(), HealthVerdict::Alert);
    }

    #[test]
    fn monitor_without_slo_skips_delay_tracking() {
        let mut m = HealthMonitor::new(
            &MonitorConfig {
                slo: None,
                ..MonitorConfig::default()
            },
            2,
        );
        m.observe_delay(0, 9999); // must be a no-op
        m.observe_sample(0, 0, 0, 0);
        assert!(m.report().slo.is_none());
    }

    #[test]
    fn report_journals_one_event_per_detector() {
        let dir = std::env::temp_dir().join("rayfade-monitor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("health-{}.jsonl", std::process::id()));
        let journal = Journal::create(&path).unwrap();
        let mut m = HealthMonitor::new(&MonitorConfig::default(), 2);
        for k in 0..10u64 {
            m.observe_sample(k * 5, k, k * 2, k);
            m.observe_delay((k % 2) as usize, k + 1);
        }
        m.report().journal(&journal, |e| e.int("net", 7));
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
    }

    #[test]
    fn export_writes_monitor_metrics() {
        let registry = Registry::new();
        let mut m = HealthMonitor::new(&MonitorConfig::default(), 2);
        for k in 0..30u64 {
            m.observe_sample(k * 10, k * 10, k * 10, 0); // growing: alerts
        }
        m.report().export(&registry);
        assert_eq!(registry.counter("rayfade_monitor_reports_total").get(), 1);
        assert_eq!(registry.counter("rayfade_monitor_alerts_total").get(), 2);
        assert_eq!(registry.gauge("rayfade_monitor_watermark_max").get(), 290);
        assert_eq!(
            registry.histogram("rayfade_monitor_backlog_mean").count(),
            1
        );
        // A second, larger watermark advances the max; a smaller one
        // would not.
        let mut r = m.report();
        r.watermark = 1000.0;
        r.export(&registry);
        assert_eq!(registry.gauge("rayfade_monitor_watermark_max").get(), 1000);
    }
}
