//! Homegrown, zero-dependency observability for the rayfade workspace.
//!
//! The hermetic build vendors only API stubs (no real `serde`, no
//! `metrics`/`tracing` ecosystem), so this crate implements the whole
//! stack itself:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free metric
//!   primitives safe to hammer from rayon workers ([`metrics`]).
//! - [`Registry`] — get-or-create named metrics with Prometheus-text
//!   exposition ([`registry`]).
//! - [`Journal`] — append-only JSONL event logs with monotone sequence
//!   numbers instead of wall-clock timestamps, so deterministic runs
//!   produce byte-identical journals — and [`JournalReader`], the
//!   constant-memory streaming consumer ([`journal`]).
//! - [`Json`] — the minimal JSON value/parser backing the journal
//!   ([`json`]).
//! - [`Tracer`] — hierarchical RAII spans in per-thread ring buffers,
//!   exported as Chrome Trace Event JSON and a self-profile table
//!   ([`trace`]).
//! - [`Ewma`] / [`SlidingWindow`] / [`QuantileSketch`] — streaming
//!   estimators, including a mergeable γ-relative-error quantile sketch
//!   ([`stream`]).
//! - [`HealthMonitor`] — online delay-SLO / watermark / throughput
//!   detectors producing deterministic `health` journal events and
//!   registry metrics ([`monitor`]).
//!
//! Instrumented code takes an `Option<&Telemetry>`; `None` keeps the
//! uninstrumented fast path (see `results/telemetry_overhead.csv` for
//! the measured cost of `Some`).
//!
//! ```
//! use rayfade_telemetry::Telemetry;
//!
//! let tele = Telemetry::new(); // metrics only, no journal
//! tele.registry().counter("rayfade_example_total").add(2);
//! assert!(tele.registry().prometheus_text().contains("rayfade_example_total 2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod registry;
pub mod stream;
pub mod trace;

use std::io;
use std::path::Path;

pub use journal::{read_jsonl, Event, Journal, JournalReader, SCHEMA_VERSION};
pub use json::{Json, JsonError, MAX_DEPTH};
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use monitor::{
    DelaySloTracker, HealthMonitor, HealthReport, HealthVerdict, MonitorConfig, SloConfig,
    SloReport, WatermarkDetector,
};
pub use registry::Registry;
pub use stream::{Ewma, QuantileSketch, SlidingWindow};
pub use trace::{SpanGuard, SpanId, Tracer};

/// A run's telemetry context: a metric [`Registry`], an optional event
/// [`Journal`], and an optional span [`Tracer`].
///
/// All methods take `&self` and the internals are atomics or mutexes, so
/// one `Telemetry` can be shared across rayon workers by reference.
#[derive(Debug, Default)]
pub struct Telemetry {
    registry: Registry,
    journal: Option<Journal>,
    tracer: Option<Tracer>,
}

impl Telemetry {
    /// Metrics-only telemetry (no journal file).
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Telemetry that also journals events to `path` (JSONL, truncated).
    pub fn with_journal<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Telemetry {
            registry: Registry::new(),
            journal: Some(Journal::create(path)?),
            tracer: None,
        })
    }

    /// Attaches a span [`Tracer`] (builder-style):
    /// `Telemetry::new().with_tracing()`.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracer = Some(Tracer::new());
        self
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The journal, when one was attached.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The span tracer, when tracing was enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Starts a journal event of the given kind, if a journal is
    /// attached — `tele.event("slot").map(|e| e.int("slot", 3).write())`
    /// style call sites stay one-liners.
    pub fn event(&self, kind: &str) -> Option<Event<'_>> {
        self.journal.as_ref().map(|j| j.event(kind))
    }

    /// Writes the registry to `prom_path` (Prometheus text), flushing
    /// the journal first if one is attached.
    pub fn write_metrics<P: AsRef<Path>>(&self, prom_path: P) -> io::Result<()> {
        self.flush();
        self.registry.write_prometheus(prom_path)
    }

    /// Flushes the journal (no-op without one).
    pub fn flush(&self) {
        if let Some(j) = &self.journal {
            j.flush();
        }
    }
}

/// Hashes a config's `Debug` rendering with FNV-1a, for journaling which
/// configuration produced a run. Deterministic across runs of the same
/// build; intended for journal diffing, not cryptography.
pub fn config_hash<T: std::fmt::Debug>(config: &T) -> u64 {
    let text = format!("{config:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_without_journal_skips_events() {
        let tele = Telemetry::new();
        assert!(tele.journal().is_none());
        assert!(tele.tracer().is_none());
        assert!(tele.event("noop").is_none());
        tele.registry().counter("c").inc();
        tele.flush();
    }

    #[test]
    fn with_tracing_attaches_a_tracer() {
        let tele = Telemetry::new().with_tracing();
        let tracer = tele.tracer().expect("tracer attached");
        let id = tracer.span_id("rayfade_test/span");
        {
            let _g = tracer.span(id);
        }
        assert_eq!(tracer.snapshot().records.len(), 1);
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields exist only for their Debug rendering
        struct Cfg {
            links: usize,
            lambda: f64,
        }
        let a = Cfg {
            links: 20,
            lambda: 0.04,
        };
        let b = Cfg {
            links: 20,
            lambda: 0.06,
        };
        assert_eq!(config_hash(&a), config_hash(&a));
        assert_ne!(config_hash(&a), config_hash(&b));
    }
}
