//! O3 — the perf-regression sentinel: a fixed workload matrix timed
//! against a committed baseline.
//!
//! Six workloads cover the workspace's hot paths — one Figure 1 curve
//! point, the dynamic slot loop under both slot resolvers (the analytic
//! Theorem-1 fast path and its bit-pinned Monte Carlo twin), a
//! shared-cache evaluator batch, a regret-learning game, and the
//! 100k-link ε-truncated sparse build — plus a pure-CPU calibration spin
//! that factors machine speed out of the comparison. Record mode writes
//! `BENCH_perf.json` (workload → median ns, span breakdown from one
//! traced pass, a config hash, and the calibration time); `--check`
//! re-times the same matrix and fails (exit 1) when any workload's
//! calibration-normalized time regresses past the tolerance.
//!
//! Workload *sizes* are fixed so medians stay comparable across runs;
//! `--quick` only reduces the repeat count. The committed baseline is
//! refreshed by re-running record mode on an idle machine.
//!
//! Span accounting (schema 2): the breakdown comes from one extra
//! *traced* pass per workload. For each span name the baseline records
//! `count` (spans per pass), `cpu_ns` (summed span durations — under
//! real parallelism this is thread-time and may legitimately exceed
//! wall time), and `total_ns`: the wall-clock **union** of the span's
//! open intervals across all threads, rescaled by
//! `median_ns / traced_wall_ns` so breakdowns are directly comparable
//! to the workload median. By construction no span's `total_ns` can
//! exceed its workload's `median_ns` (schema 1 summed sibling spans
//! into `total_ns`, which made `dynamic/replication` appear to cost
//! more than the whole workload).
//!
//! Thread policy: the pool size (`rayon::current_num_threads()`, i.e.
//! `RAYFADE_THREADS` when set) is recorded and folded into the config
//! hash, so `--check` refuses to compare timings taken at different
//! pool sizes. CI pins `RAYFADE_THREADS=4`.
//!
//! Usage:
//!   `cargo run -p rayfade-bench --release --bin perf_baseline --
//!   [--check] [--quick] [--baseline PATH] [--tolerance FRAC] [--out DIR]`

use rayfade_core::batch_expected_successes;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_learning::{run_game_instrumented, GameConfig};
use rayfade_sim::{run_figure1_with_telemetry, Figure1Config};
use rayfade_sinr::{NonFadingModel, PowerAssignment, SinrParams, SuccessAccumulator};
use rayfade_spatial::build_sparse_ratios;
use rayfade_telemetry::{Json, Telemetry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bumped whenever the workload matrix or the JSON layout changes.
/// Schema 2: real thread pool; span breakdowns carry per-traced-pass
/// `count`, wall-union `total_ns` normalized to the workload median,
/// and raw `cpu_ns`; top-level `threads` and `repeats` recorded.
const PERF_SCHEMA_VERSION: i64 = 2;
/// Default relative slowdown tolerated before `--check` fails.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Per-workload ratchets tighter than the global `--tolerance`; the
/// effective tolerance is the minimum of the two. `stability_slots` was
/// pinned after the analytic Theorem-1 resolver landed its >3× win over
/// the Monte Carlo twin: a silent fallback to the realized-fading path
/// (or a fat regression of the amortized evaluator) trips this ratchet
/// long before it would reach the default envelope.
fn tolerance_override(name: &str) -> Option<f64> {
    match name {
        "stability_slots" => Some(0.15),
        _ => None,
    }
}

struct Args {
    check: bool,
    quick: bool,
    baseline: PathBuf,
    tolerance: f64,
    out: PathBuf,
}

/// `rayfade_bench::Cli` rejects unknown flags, so the sentinel parses its
/// richer flag set itself.
fn parse_args() -> Args {
    let mut parsed = Args {
        check: false,
        quick: false,
        baseline: PathBuf::from("BENCH_perf.json"),
        tolerance: DEFAULT_TOLERANCE,
        out: PathBuf::from("target/perf"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => parsed.check = true,
            "--quick" => parsed.quick = true,
            "--baseline" => {
                parsed.baseline =
                    PathBuf::from(args.next().expect("--baseline requires a path argument"))
            }
            "--tolerance" => {
                parsed.tolerance = args
                    .next()
                    .expect("--tolerance requires a fraction argument")
                    .parse()
                    .expect("--tolerance must be a number (e.g. 0.25)");
                assert!(
                    parsed.tolerance > 0.0,
                    "--tolerance must be strictly positive"
                );
            }
            "--out" => {
                parsed.out =
                    PathBuf::from(args.next().expect("--out requires a directory argument"))
            }
            other => panic!(
                "unknown argument: {other} (expected --check / --quick / --baseline <path> / \
                 --tolerance <frac> / --out <dir>)"
            ),
        }
    }
    parsed
}

/// The closure under measurement; `Some` only on the untimed traced pass.
type WorkloadFn = Box<dyn Fn(Option<&Telemetry>)>;

/// One entry of the workload matrix: a stable name, a descriptor string
/// folded into the config hash, and the closure under measurement (also
/// run once with tracing for the span breakdown).
struct Workload {
    name: &'static str,
    descriptor: String,
    run: WorkloadFn,
}

fn workloads() -> Vec<Workload> {
    let mut list = Vec::new();

    // One Figure 1 sweep at a fixed reduced size: exercises the parallel
    // network loop, the Monte Carlo point estimator, and both power
    // families.
    let fig1_cfg = Figure1Config {
        networks: 2,
        topology: PaperTopology {
            links: 15,
            ..PaperTopology::figure1()
        },
        q_grid: vec![0.2, 0.5, 0.8],
        tx_seeds: 5,
        fading_seeds: 3,
        ..Figure1Config::default()
    };
    list.push(Workload {
        name: "fig1_point",
        descriptor: format!(
            "fig1 networks={} links={} qs={} tx={} fading={} seed={:#x}",
            fig1_cfg.networks,
            fig1_cfg.topology.links,
            fig1_cfg.q_grid.len(),
            fig1_cfg.tx_seeds,
            fig1_cfg.fading_seeds,
            fig1_cfg.seed
        ),
        run: Box::new(move |tele| {
            let _ = run_figure1_with_telemetry(&fig1_cfg, |_| {}, tele);
        }),
    });

    // The dynamic slot loop at the telemetry_overhead headline size:
    // max-weight selection every slot, with the analytic Theorem-1 slot
    // resolver (the production fast path) and a Monte Carlo twin pinning
    // the realized-fading path.
    let dyn_cfg = DynamicConfig {
        links: 20,
        networks: 2,
        slots: 800,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::MaxWeight,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: 20,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 50,
        seed: 0xd1_4a,
    };
    let mc_cfg = DynamicConfig {
        slot_model: SlotModelKind::MonteCarlo,
        ..dyn_cfg.clone()
    };
    let dyn_descriptor = |cfg: &DynamicConfig| {
        format!(
            "dynamic links={} networks={} slots={} policy={} slot_model={} seed={:#x}",
            cfg.links,
            cfg.networks,
            cfg.slots,
            cfg.policy.label(),
            cfg.slot_model.label(),
            cfg.seed
        )
    };
    list.push(Workload {
        name: "stability_slots",
        descriptor: dyn_descriptor(&dyn_cfg),
        run: Box::new(move |tele| {
            let _ = DynamicEngine::new(dyn_cfg.clone()).run_with_telemetry(tele, None);
        }),
    });
    list.push(Workload {
        name: "stability_slots_mc",
        descriptor: dyn_descriptor(&mc_cfg),
        run: Box::new(move |tele| {
            let _ = DynamicEngine::new(mc_cfg.clone()).run_with_telemetry(tele, None);
        }),
    });

    // A shared-ratio-cache evaluator batch: one O(n²) precompute plus 64
    // parallel O(n²) Theorem 1 sweeps on a 60-link instance.
    let (gm, params) = rayfade_bench::figure1_instance(0, 60);
    let prob_sets: Vec<Vec<f64>> = (0..64)
        .map(|k| {
            let q = (k + 1) as f64 / 64.0;
            vec![q; gm.len()]
        })
        .collect();
    list.push(Workload {
        name: "evaluator_batch",
        descriptor: format!("evaluator links={} vectors={}", gm.len(), prob_sets.len()),
        run: Box::new(move |tele| {
            let _ = batch_expected_successes(&gm, &params, &prob_sets, tele);
        }),
    });

    // A regret-learning game: 200 rounds of per-link RWM updates against
    // the non-fading model on a Figure 2 instance.
    let (gm2, params2) = rayfade_bench::figure2_instance(0, 25);
    let game_cfg = GameConfig {
        rounds: 200,
        seed: 13,
    };
    list.push(Workload {
        name: "learning_round",
        descriptor: format!(
            "learning links={} rounds={} seed={}",
            gm2.len(),
            game_cfg.rounds,
            game_cfg.seed
        ),
        run: Box::new(move |tele| {
            let mut model = NonFadingModel::new(gm2.clone(), params2);
            let _ = run_game_instrumented(&mut model, params2.beta, &game_cfg, tele);
        }),
    });

    // The S1 acceptance gate: one ε-truncated sparse build plus a
    // certified Theorem 1 evaluation at n = 100 000 links — the scale
    // where the dense O(n²) mirror stops being an option (~80 GB for
    // the ratio matrix alone). Sized (deployment density, δ) so one
    // pass stays around a second; the network is generated once here
    // so only the grid build, ring sweep, and evaluation are timed.
    let sparse_topology = PaperTopology {
        links: 100_000,
        side: 316_228.0,
        min_length: 20.0,
        max_length: 40.0,
    };
    let sparse_params = SinrParams::new(4.0, 2.5, 4e-7);
    let sparse_delta = 5e-2;
    let sparse_seed = 0x51e5u64;
    let sparse_net = sparse_topology.generate(sparse_seed);
    list.push(Workload {
        name: "sparse_100k",
        descriptor: format!(
            "sparse links={} side={:.0} lengths=[{},{}] alpha={} beta={} noise={:e} \
             delta={} q=0.5 seed={sparse_seed:#x}",
            sparse_topology.links,
            sparse_topology.side,
            sparse_topology.min_length,
            sparse_topology.max_length,
            sparse_params.alpha,
            sparse_params.beta,
            sparse_params.noise,
            sparse_delta,
        ),
        run: Box::new(move |tele| {
            let ratios = build_sparse_ratios(
                &sparse_net,
                &PowerAssignment::figure1_uniform(),
                &sparse_params,
                sparse_delta,
                tele,
            );
            let mut acc = SuccessAccumulator::new(ratios.len());
            acc.set_uniform(&ratios, 0.5);
            let _ = std::hint::black_box(acc.expected_successes_interval(&ratios));
        }),
    });

    list
}

/// FNV-1a over the workload descriptors — changes whenever the matrix
/// does, so `--check` refuses to compare against a stale baseline.
fn config_hash(workloads: &[Workload], threads: usize) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&PERF_SCHEMA_VERSION.to_le_bytes());
    // Pool size is part of the configuration: medians taken at
    // different thread counts are not comparable.
    eat(&(threads as u64).to_le_bytes());
    for w in workloads {
        eat(w.name.as_bytes());
        eat(w.descriptor.as_bytes());
    }
    format!("{h:016x}")
}

/// The calibration spin: a fixed xorshift64* loop whose wall time tracks
/// raw single-core speed. Baseline and fresh runs divide their medians by
/// their own calibration time, so a uniformly slower machine cancels out.
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

/// Median wall time of `repeats` runs, in nanoseconds.
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

/// One span row of the recorded breakdown (see the module docs).
struct SpanRow {
    name: String,
    /// Spans recorded in the traced pass.
    count: u64,
    /// Wall-clock union of the span's open intervals, rescaled by
    /// `median_ns / traced_wall_ns` — never exceeds the workload median.
    total_ns: u64,
    /// Raw summed span durations (thread-time under parallelism).
    cpu_ns: u64,
}

struct Measured {
    name: &'static str,
    median_ns: u64,
    /// Wall time of the (untimed-for-medians) traced pass.
    traced_wall_ns: u64,
    spans: Vec<SpanRow>,
}

/// Wall-clock union (in ns) of a set of `[start, end)` intervals.
fn interval_union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Aggregates one traced pass into [`SpanRow`]s: per span name, the
/// count, the summed durations (`cpu_ns`), and the wall-union rescaled
/// to the workload median (`total_ns`).
fn span_breakdown(trace: &rayfade_telemetry::trace::Trace, median: u64, wall: u64) -> Vec<SpanRow> {
    use std::collections::BTreeMap;
    /// Per-name accumulator: (count, summed durations, open intervals).
    type NameAcc = (u64, u64, Vec<(u64, u64)>);
    let mut by_name: BTreeMap<&str, NameAcc> = BTreeMap::new();
    for r in &trace.records {
        let e = by_name.entry(&r.name).or_default();
        e.0 += 1;
        e.1 += r.duration_ns();
        e.2.push((r.start_ns, r.end_ns));
    }
    by_name
        .into_iter()
        .map(|(name, (count, cpu_ns, intervals))| {
            let union = interval_union_ns(intervals);
            // Rescale so breakdowns are comparable to median_ns even
            // though the traced pass itself runs a little slower; the
            // union is capped at the pass wall, so the scaled total is
            // capped at the median.
            let scaled = (union.min(wall) as f64 * median as f64 / wall.max(1) as f64) as u64;
            SpanRow {
                name: name.to_string(),
                count,
                total_ns: scaled,
                cpu_ns,
            }
        })
        .collect()
}

fn measure_all(quick: bool) -> (u64, usize, usize, Vec<Measured>, String) {
    let workloads = workloads();
    let threads = rayon::current_num_threads();
    let hash = config_hash(&workloads, threads);
    let repeats = if quick { 5 } else { 15 };
    eprintln!("thread pool: {threads} worker(s) (RAYFADE_THREADS to pin)");

    // Warm-up: one untimed pass per workload (page-cache, allocator,
    // thread spin-up).
    for w in &workloads {
        (w.run)(None);
    }
    let calib_ns = median_ns(repeats, || {
        std::hint::black_box(calibration_spin());
    });
    eprintln!(
        "calibration spin: {:.2} ms (median of {repeats})",
        calib_ns as f64 / 1e6
    );

    let mut measured = Vec::new();
    for w in &workloads {
        let ns = median_ns(repeats, || (w.run)(None));
        // One traced pass for the span breakdown; timed separately, so
        // the span overhead never touches the medians but the pass wall
        // is known for normalization.
        let tele = Telemetry::new().with_tracing();
        let traced_start = Instant::now();
        (w.run)(Some(&tele));
        let traced_wall_ns = u64::try_from(traced_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let trace = tele.tracer().expect("tracing enabled").snapshot();
        let spans = span_breakdown(&trace, ns, traced_wall_ns);
        for row in &spans {
            assert!(
                row.total_ns <= ns,
                "span accounting bug: {} total {} exceeds workload median {}",
                row.name,
                row.total_ns,
                ns
            );
        }
        eprintln!("  {}: {:.2} ms", w.name, ns as f64 / 1e6);
        measured.push(Measured {
            name: w.name,
            median_ns: ns,
            traced_wall_ns,
            spans,
        });
    }
    (calib_ns, threads, repeats, measured, hash)
}

fn to_json(
    calib_ns: u64,
    threads: usize,
    repeats: usize,
    measured: &[Measured],
    hash: &str,
) -> Json {
    let workloads = measured
        .iter()
        .map(|m| {
            let spans = m
                .spans
                .iter()
                .map(|row| {
                    (
                        row.name.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(row.count as f64)),
                            ("total_ns".into(), Json::Num(row.total_ns as f64)),
                            ("cpu_ns".into(), Json::Num(row.cpu_ns as f64)),
                        ]),
                    )
                })
                .collect();
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("median_ns".into(), Json::Num(m.median_ns as f64)),
                    ("traced_wall_ns".into(), Json::Num(m.traced_wall_ns as f64)),
                    ("spans".into(), Json::Obj(spans)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "schema_version".into(),
            Json::Num(PERF_SCHEMA_VERSION as f64),
        ),
        ("config_hash".into(), Json::Str(hash.to_string())),
        ("threads".into(), Json::Num(threads as f64)),
        ("repeats".into(), Json::Num(repeats as f64)),
        ("calibration_ns".into(), Json::Num(calib_ns as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn load_baseline(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read baseline {}: {e} (run `perf_baseline` without --check to record one)",
            path.display()
        )
    });
    Json::parse(&text).unwrap_or_else(|e| panic!("baseline {} is not JSON: {e}", path.display()))
}

fn baseline_num(json: &Json, keys: &[&str]) -> f64 {
    let mut cur = json;
    for k in keys {
        cur = cur
            .get(k)
            .unwrap_or_else(|| panic!("baseline is missing key {}", keys.join(".")));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("baseline key {} is not a number", keys.join(".")))
}

/// Writes a trace + self-profile of one traced pass over every workload,
/// for CI artifact upload alongside a `--check` verdict.
fn write_check_artifacts(out: &Path) {
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let tele = Telemetry::new().with_tracing();
    for w in &workloads() {
        (w.run)(Some(&tele));
    }
    let trace = tele.tracer().expect("tracing enabled").snapshot();
    let trace_path = out.join("perf_check_trace.json");
    let profile_path = out.join("perf_check_profile.csv");
    trace
        .write_chrome_json(&trace_path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));
    trace
        .self_profile()
        .write_csv(&profile_path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", profile_path.display()));
    print!("{}", trace.self_profile().to_console());
    eprintln!("wrote {}, {}", trace_path.display(), profile_path.display());
}

fn main() {
    let args = parse_args();
    let (calib_ns, threads, repeats, measured, hash) = measure_all(args.quick);

    if !args.check {
        let json = to_json(calib_ns, threads, repeats, &measured, &hash);
        std::fs::write(&args.baseline, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.baseline.display()));
        eprintln!("recorded baseline {}", args.baseline.display());
        write_check_artifacts(&args.out);
        return;
    }

    let baseline = load_baseline(&args.baseline);
    let base_schema = baseline_num(&baseline, &["schema_version"]);
    assert_eq!(
        base_schema as i64, PERF_SCHEMA_VERSION,
        "baseline schema_version mismatch — re-record the baseline"
    );
    let base_hash = baseline
        .get("config_hash")
        .and_then(Json::as_str)
        .expect("baseline is missing config_hash");
    assert_eq!(
        base_hash,
        hash,
        "workload matrix or thread count differs from the baseline (baseline threads: {}; \
         this run: {threads}) — pin RAYFADE_THREADS to match or re-record",
        baseline
            .get("threads")
            .and_then(Json::as_f64)
            .map_or_else(|| "unknown".to_string(), |t| format!("{t}")),
    );
    let base_calib = baseline_num(&baseline, &["calibration_ns"]);

    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>10}",
        "workload", "baseline_ms", "fresh_ms", "ratio", "verdict"
    );
    let mut regressions = 0usize;
    for m in &measured {
        let base_ns = baseline_num(&baseline, &["workloads", m.name, "median_ns"]);
        // Normalize both sides by their own calibration spin so the
        // comparison tracks the code, not the machine.
        let base_norm = base_ns / base_calib;
        let fresh_norm = m.median_ns as f64 / calib_ns as f64;
        let ratio = fresh_norm / base_norm;
        let tolerance = tolerance_override(m.name)
            .unwrap_or(args.tolerance)
            .min(args.tolerance);
        let regressed = ratio > 1.0 + tolerance;
        if regressed {
            regressions += 1;
        }
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>10.3} {:>10}",
            m.name,
            base_ns / 1e6,
            m.median_ns as f64 / 1e6,
            ratio,
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    write_check_artifacts(&args.out);

    if regressions > 0 {
        eprintln!(
            "perf check FAILED: {regressions} workload(s) regressed beyond {:.0}% \
             (normalized against the calibration spin)",
            args.tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "perf check passed: all workloads within {:.0}% of {}",
        args.tolerance * 100.0,
        args.baseline.display()
    );
}
