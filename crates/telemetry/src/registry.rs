//! A named-metric registry with Prometheus-text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A get-or-create registry of named metrics.
///
/// Lookup takes a brief mutex, so callers should resolve their metric
/// `Arc`s once outside a hot loop and hammer the lock-free handles inside
/// it. Metric names are sorted (BTreeMap) in every exposition, making the
/// rendered output deterministic. Registering the same name as two
/// different metric kinds panics — that is an instrumentation bug, not a
/// runtime condition.
///
/// # Example
///
/// ```
/// use rayfade_telemetry::Registry;
///
/// let registry = Registry::new();
/// let slots = registry.counter("rayfade_dynamic_slots_total");
/// let latency = registry.histogram("rayfade_dynamic_policy_seconds");
/// for _ in 0..3 {
///     slots.inc();
///     latency.observe(2e-6);
/// }
///
/// let text = registry.prometheus_text();
/// assert!(text.contains("rayfade_dynamic_slots_total 3"));
/// assert!(text.contains("rayfade_dynamic_policy_seconds_count 3"));
/// ```
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry mutex poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        assert!(
            !inner.gauges.contains_key(name) && !inner.histograms.contains_key(name),
            "metric name {name:?} already registered as a different kind"
        );
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or histogram.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        assert!(
            !inner.counters.contains_key(name) && !inner.histograms.contains_key(name),
            "metric name {name:?} already registered as a different kind"
        );
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or gauge.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        assert!(
            !inner.counters.contains_key(name) && !inner.gauges.contains_key(name),
            "metric name {name:?} already registered as a different kind"
        );
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Renders every metric in Prometheus text exposition format.
    ///
    /// Histograms use cumulative `_bucket{le="..."}` series (buckets past
    /// the highest non-empty one are elided, `+Inf` always present) plus
    /// `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().expect("registry mutex poisoned");
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in &inner.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        for (name, h) in &inner.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let counts = h.bucket_counts();
            let last_nonempty = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cumulative = 0u64;
            for (k, &c) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                cumulative += c;
                if k > last_nonempty {
                    break;
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{:e}\"}} {cumulative}",
                    Histogram::upper_bound(k)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Writes [`Registry::prometheus_text`] to `path` (creating parent
    /// directories).
    pub fn write_prometheus<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_creating_dirs(path.as_ref(), &self.prometheus_text())
    }
}

fn write_creating_dirs(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("hits").inc();
        r.counter("hits").inc();
        assert_eq!(r.counter("hits").get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn cross_kind_name_collision_panics() {
        let r = Registry::new();
        r.counter("x").inc();
        let _ = r.gauge("x");
    }

    #[test]
    fn prometheus_golden_output() {
        let r = Registry::new();
        r.counter("rayfade_slots_total").add(5);
        r.gauge("rayfade_backlog").set(-3);
        let h = r.histogram("rayfade_policy_seconds");
        h.observe(0.0); // bucket 0 (le 1e-9)
        h.observe(1.5e-9); // bucket 1 (le 2e-9)
        h.observe(3.0e-9); // bucket 2 (le 4e-9)
                           // Counters render before gauges before histograms; names sort
                           // within each kind.
        let expected = "\
# TYPE rayfade_slots_total counter
rayfade_slots_total 5
# TYPE rayfade_backlog gauge
rayfade_backlog -3
# TYPE rayfade_policy_seconds histogram
rayfade_policy_seconds_bucket{le=\"1e-9\"} 1
rayfade_policy_seconds_bucket{le=\"2e-9\"} 2
rayfade_policy_seconds_bucket{le=\"4e-9\"} 3
rayfade_policy_seconds_bucket{le=\"+Inf\"} 3
rayfade_policy_seconds_sum 0.0000000045
rayfade_policy_seconds_count 3
";
        assert_eq!(r.prometheus_text(), expected);
    }
}
