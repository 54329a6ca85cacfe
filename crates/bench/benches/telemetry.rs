//! Criterion bench: cost of the telemetry primitives themselves.
//!
//! The instrumentation hot path is a handful of atomic operations
//! (`Counter::inc`, `Histogram::observe`) plus an `Instant::now` pair per
//! timed scope, so each should sit in the tens of nanoseconds. The
//! journal's `Event` builder allocates and formats, so it is reserved for
//! post-collect writing — its cost here documents why it stays off the
//! slot loop. The `slot_loop` pair measures the end-to-end effect on the
//! dynamic engine (the committed `results/telemetry_overhead.csv` claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use rayfade_telemetry::{Registry, Telemetry};
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    let registry = Registry::new();
    let counter = registry.counter("bench_counter");
    let gauge = registry.gauge("bench_gauge");
    let histogram = registry.histogram("bench_histogram");

    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("gauge_set", |b| {
        let mut v = 0i64;
        b.iter(|| {
            v = v.wrapping_add(1);
            gauge.set(black_box(v));
        })
    });
    group.bench_function("histogram_observe", |b| {
        let mut v = 1e-9;
        b.iter(|| {
            v *= 1.1;
            if v > 1e3 {
                v = 1e-9;
            }
            histogram.observe(black_box(v));
        })
    });
    group.bench_function("registry_lookup", |b| {
        b.iter(|| black_box(registry.counter(black_box("bench_counter"))))
    });
    group.bench_function("prometheus_text", |b| {
        b.iter(|| black_box(registry.prometheus_text()))
    });

    // Journal event build+serialize, against an in-memory sink via a
    // metrics-only Telemetry (event() returns None, measuring the
    // disabled-journal fast path) and a real temp-file journal.
    let metrics_only = Telemetry::new();
    group.bench_function("event_disabled", |b| {
        b.iter(|| black_box(metrics_only.event("bench").is_none()))
    });
    let dir = std::env::temp_dir().join("rayfade_telemetry_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journaling = Telemetry::with_journal(dir.join("bench_journal.jsonl")).expect("journal");
    group.bench_function("event_journaled", |b| {
        b.iter(|| {
            if let Some(ev) = journaling.event("bench") {
                ev.int("slot", 7).num("backlog", 3.5).write();
            }
        })
    });
    group.finish();
}

fn slot_loop_config() -> DynamicConfig {
    DynamicConfig {
        links: 12,
        networks: 1,
        slots: 400,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links: 12,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 50,
        seed: 0xd1_4a,
    }
}

fn bench_slot_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_loop");
    let cfg = slot_loop_config();
    group.bench_with_input(BenchmarkId::new("plain", cfg.slots), &cfg, |b, cfg| {
        b.iter(|| black_box(DynamicEngine::new(cfg.clone()).run()))
    });
    group.bench_with_input(
        BenchmarkId::new("instrumented", cfg.slots),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let tele = Telemetry::new();
                black_box(DynamicEngine::new(cfg.clone()).run_with_telemetry(Some(&tele), false))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_slot_loop);
criterion_main!(benches);
