//! B1 — incremental Theorem-1 evaluator vs naive re-scoring.
//!
//! The Rayleigh-aware greedy must score every silent candidate each
//! round. Done naively that is one `expected_successes_of_set(S ∪ {j})`
//! per candidate — `O(|S|²)` apiece, `O(n·K³)` for a full selection of
//! `K` links. The [`SuccessEvaluator`]'s cached interference ratios and
//! log-domain accumulators reduce a candidate score to one `O(n)`
//! `activation_gain` call, `O(K·n²)` for the same selection. This bench
//! times both on full greedy selections over Figure-1 networks and
//! verifies they pick the identical set.
//!
//! Claim checked at the largest size: incremental is ≥ 5× faster.
//!
//! Usage: `cargo run -p rayfade-bench --release --bin evaluator_bench [--quick] [--out dir]`

use rayfade_bench::{figure1_instance, telemetry_ref, Cli};
use rayfade_core::{expected_successes_of_set, SuccessEvaluator};
use rayfade_sim::{fmt_f, Table};
use rayfade_sinr::{GainMatrix, SinrParams};
use std::time::Instant;

/// Textbook greedy on the Theorem 1 objective: re-evaluates the whole
/// candidate set from scratch for every (round, candidate) pair.
fn naive_greedy(gm: &GainMatrix, params: &SinrParams, max_links: usize) -> Vec<usize> {
    let n = gm.len();
    let mut set: Vec<usize> = Vec::new();
    let mut active = vec![false; n];
    let mut objective = 0.0;
    while set.len() < max_links {
        let mut best: Option<(usize, f64)> = None;
        for (j, &is_active) in active.iter().enumerate() {
            if is_active {
                continue;
            }
            set.push(j);
            let gain = expected_successes_of_set(gm, params, &set) - objective;
            set.pop();
            if best.is_none_or(|(_, g)| gain.total_cmp(&g).is_gt()) {
                best = Some((j, gain));
            }
        }
        match best {
            Some((j, gain)) if gain > 0.0 => {
                set.push(j);
                active[j] = true;
                objective += gain;
            }
            _ => break,
        }
    }
    set.sort_unstable();
    set
}

/// Same greedy driven by the incremental evaluator: one `activation_gain`
/// per candidate, one `insert` per round.
fn incremental_greedy(gm: &GainMatrix, params: &SinrParams, max_links: usize) -> Vec<usize> {
    let n = gm.len();
    let mut ev = SuccessEvaluator::new(gm, params);
    let mut active = vec![false; n];
    let mut picked = 0usize;
    while picked < max_links {
        let mut best: Option<(usize, f64)> = None;
        for (j, &is_active) in active.iter().enumerate() {
            if is_active {
                continue;
            }
            let gain = ev.activation_gain(None, j);
            if best.is_none_or(|(_, g)| gain.total_cmp(&g).is_gt()) {
                best = Some((j, gain));
            }
        }
        match best {
            Some((j, gain)) if gain > 0.0 => {
                ev.insert(j);
                active[j] = true;
                picked += 1;
            }
            _ => break,
        }
    }
    (0..n).filter(|&j| active[j]).collect()
}

fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("repeats >= 1"))
}

fn main() {
    let cli = Cli::parse();
    let sizes: &[usize] = if cli.quick {
        &[50, 200]
    } else {
        &[50, 200, 800]
    };
    eprintln!("incremental evaluator vs naive re-scoring, n in {sizes:?} ...");

    let tele = cli.experiment_telemetry("evaluator");
    let mut table = Table::new(["n", "k", "naive_ms", "incr_ms", "speedup"]);
    let mut last_speedup = 0.0;
    for &n in sizes {
        let (gm, params) = figure1_instance(0, n);
        let cap = n / 4;
        let repeats = if n <= 200 { 3 } else { 1 };
        let (naive_ms, naive_set) = time_ms(repeats, || naive_greedy(&gm, &params, cap));
        let (incr_ms, incr_set) = time_ms(repeats, || incremental_greedy(&gm, &params, cap));
        assert_eq!(
            naive_set, incr_set,
            "n={n}: evaluator-driven greedy diverged from the naive greedy"
        );
        let speedup = naive_ms / incr_ms;
        last_speedup = speedup;
        if let Some(t) = telemetry_ref(&tele) {
            let reg = t.registry();
            reg.counter("rayfade_evaluator_selections_total").inc();
            reg.histogram("rayfade_evaluator_naive_seconds")
                .observe(naive_ms / 1e3);
            reg.histogram("rayfade_evaluator_incremental_seconds")
                .observe(incr_ms / 1e3);
            // Journal only deterministic fields — timings stay in the
            // metrics dump so journals remain byte-diffable across runs.
            if let Some(ev) = t.event("evaluator_size") {
                ev.int("n", n as i64)
                    .int("k", naive_set.len() as i64)
                    .write();
            }
        }
        table.push_row([
            n.to_string(),
            naive_set.len().to_string(),
            fmt_f(naive_ms, 2),
            fmt_f(incr_ms, 2),
            fmt_f(speedup, 1),
        ]);
        eprintln!(
            "  n={n}: k={}, naive {naive_ms:.2} ms, incremental {incr_ms:.2} ms ({speedup:.1}x)",
            naive_set.len()
        );
    }
    print!("{}", table.to_console());

    let target = *sizes.last().expect("at least one size");
    if cli.quick {
        // The ≥5× claim is calibrated for n=800; don't judge it on the
        // smoke sizes.
        println!(
            "\nclaim: incremental >= 5x naive at n=800: not checked under --quick \
             (largest smoke size n={target}: {last_speedup:.1}x)"
        );
    } else {
        let verdict = if last_speedup >= 5.0 {
            "HOLDS"
        } else {
            "FAILS"
        };
        println!("\nclaim: incremental >= 5x naive at n={target}: {verdict} ({last_speedup:.1}x)");
    }

    let path = cli.csv_path("evaluator.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
    if let Some(t) = &tele {
        t.finish();
    }
    if !cli.quick {
        assert!(
            last_speedup >= 5.0,
            "speedup claim failed at n={target}: {last_speedup:.1}x < 5x"
        );
    }
}
