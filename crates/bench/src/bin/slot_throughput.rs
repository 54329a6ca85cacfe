//! O4 — the slots/sec throughput floor of the analytic fast-slot engine
//! at scale: 10⁴ links, gated-ALOHA contention, the ε-truncated sparse
//! Theorem-1 resolver (the only per-slot path that survives this size).
//!
//! Unlike `perf_baseline` — which pins *relative* regressions of
//! mid-size workloads — this sentinel pins an *absolute* capability: the
//! number of engine slots resolved per second at n = 10 000, measured
//! from the `dynamic/replication` span of a traced run so one-off setup
//! (topology and the spatial-grid build of the sparse cache; no dense
//! gain is built at this size) never pollutes the figure. Machine speed
//! is factored out the same way as `perf_baseline`: both sides normalize
//! by their own calibration spin.
//!
//! Record mode writes `BENCH_slot_throughput.json` (slots/sec, the
//! calibration time, thread count, and a config hash); `--check` re-runs
//! the measurement and fails (exit 1) when the calibration-normalized
//! throughput falls below `--floor` (default 0.7) times the recorded
//! value. CI pins `RAYFADE_THREADS=4`, matching the recorded file.
//!
//! Usage:
//!   `cargo run -p rayfade-bench --release --bin slot_throughput --
//!   [--check] [--baseline PATH] [--floor FRAC]`

use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use rayfade_telemetry::{Json, Telemetry};
use std::path::PathBuf;
use std::time::Instant;

/// Bumped whenever the measured configuration or JSON layout changes.
const SCHEMA_VERSION: i64 = 1;
/// Default fraction of the recorded throughput the check tolerates.
const DEFAULT_FLOOR: f64 = 0.7;

/// The measured configuration: constant deployment density at 10⁴ links
/// (the `sparse_100k` geometry scaled down by √10), gated ALOHA — the
/// only O(n)-per-slot policy — and the analytic sparse resolver.
fn config() -> DynamicConfig {
    DynamicConfig {
        links: 10_000,
        networks: 1,
        slots: 2_000,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::Aloha,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: 10_000,
            side: 100_000.0,
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 500,
        seed: 0x5107,
    }
}

/// Same fixed xorshift64* spin as `perf_baseline`: wall time tracks raw
/// single-core speed, so dividing by it cancels a uniformly slower
/// machine out of the comparison.
fn calibration_spin() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    acc
}

fn median_ns(repeats: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Stable FNV-1a hash of the measured configuration and thread count.
fn config_hash(cfg: &DynamicConfig, threads: usize) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{SCHEMA_VERSION} {threads} {cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One traced engine run; returns the summed `dynamic/replication` span
/// nanoseconds (one span per replication, always on).
fn replication_ns(cfg: &DynamicConfig) -> u64 {
    let tele = Telemetry::new().with_tracing();
    let _ = DynamicEngine::new(cfg.clone()).run_with_telemetry(Some(&tele), false);
    let trace = tele.tracer().expect("tracing enabled").snapshot();
    let ns: u64 = trace
        .records
        .iter()
        .filter(|r| r.name == "dynamic/replication")
        .map(|r| r.duration_ns())
        .sum();
    assert!(ns > 0, "no dynamic/replication span recorded");
    ns
}

struct Args {
    check: bool,
    baseline: PathBuf,
    floor: f64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        check: false,
        baseline: PathBuf::from("BENCH_slot_throughput.json"),
        floor: DEFAULT_FLOOR,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => parsed.check = true,
            "--baseline" => {
                parsed.baseline =
                    PathBuf::from(args.next().expect("--baseline requires a path argument"))
            }
            "--floor" => {
                parsed.floor = args
                    .next()
                    .expect("--floor requires a fraction argument")
                    .parse()
                    .expect("--floor must be a number (e.g. 0.7)");
                assert!(
                    parsed.floor > 0.0 && parsed.floor <= 1.0,
                    "--floor must be in (0, 1]"
                );
            }
            other => panic!(
                "unknown argument: {other} (expected --check / --baseline <path> / --floor <frac>)"
            ),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let cfg = config();
    let threads = rayon::current_num_threads();
    let hash = config_hash(&cfg, threads);
    eprintln!(
        "slot throughput: links={} slots={} policy={} slot_model={} threads={threads}",
        cfg.links,
        cfg.slots,
        cfg.policy.label(),
        cfg.slot_model.label()
    );

    // Warm-up (page cache, allocator, rayon spin-up), then medians.
    let _ = replication_ns(&cfg);
    let calib_ns = median_ns(3, || {
        std::hint::black_box(calibration_spin());
    });
    let mut samples: Vec<u64> = (0..3).map(|_| replication_ns(&cfg)).collect();
    samples.sort_unstable();
    let span_ns = samples[samples.len() / 2];
    let slots_per_sec = cfg.slots as f64 / (span_ns as f64 / 1e9);
    eprintln!(
        "calibration {:.2} ms, replication span {:.2} ms -> {:.0} slots/sec",
        calib_ns as f64 / 1e6,
        span_ns as f64 / 1e6,
        slots_per_sec
    );

    if !args.check {
        let json = Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("config_hash".into(), Json::Str(hash)),
            ("threads".into(), Json::Num(threads as f64)),
            ("slots_per_sec".into(), Json::Num(slots_per_sec)),
            ("calibration_ns".into(), Json::Num(calib_ns as f64)),
        ]);
        std::fs::write(&args.baseline, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.baseline.display()));
        eprintln!("recorded floor file {}", args.baseline.display());
        return;
    }

    let text = std::fs::read_to_string(&args.baseline).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run `slot_throughput` without --check to record)",
            args.baseline.display()
        )
    });
    let base = Json::parse(&text)
        .unwrap_or_else(|e| panic!("{} is not JSON: {e}", args.baseline.display()));
    let num = |k: &str| {
        base.get(k)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("floor file is missing numeric key {k}"))
    };
    assert_eq!(
        num("schema_version") as i64,
        SCHEMA_VERSION,
        "floor file schema mismatch — re-record"
    );
    assert_eq!(
        base.get("config_hash").and_then(Json::as_str),
        Some(hash.as_str()),
        "measured configuration or thread count differs from the floor file (recorded \
         threads: {}) — pin RAYFADE_THREADS to match or re-record",
        num("threads")
    );
    // slots per calibration-spin unit: machine-speed free on both sides.
    let recorded = num("slots_per_sec") * num("calibration_ns");
    let fresh = slots_per_sec * calib_ns as f64;
    let ratio = fresh / recorded;
    println!(
        "recorded {:.0} slots/sec, fresh {:.0} slots/sec, normalized ratio {:.3} \
         (floor {:.2})",
        num("slots_per_sec"),
        slots_per_sec,
        ratio,
        args.floor
    );
    assert!(
        ratio >= args.floor,
        "slot throughput fell below the floor: normalized ratio {ratio:.3} < {:.2}",
        args.floor
    );
    println!("throughput floor holds");
}
