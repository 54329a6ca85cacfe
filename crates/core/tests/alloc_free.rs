//! Allocation-freedom regression for the Theorem 1 set evaluations and
//! the evaluators' batch calls.
//!
//! `success_probability_of_set` used to build a fresh `vec![0.0; n]`
//! probability vector on every call — inside greedy's inner loop that is
//! one heap allocation per candidate per round. The rewrite computes
//! directly over the set; this test pins that with a counting global
//! allocator, and pins the same for every `NetworkEvaluator` variant's
//! `set_uniform`, `set_probs`, `expected_successes`,
//! `expected_successes_interval` and `switch_transmit_set` (the dynamic
//! engine's per-slot call), the amortized variant on both layouts of its
//! log table. It also holds the amortized table at the benchmark density
//! to its 16-bit size. The allocator counts the calls and bytes of each
//! thread apart, and each measured call runs on a one-thread pool, all of
//! it on the calling thread, so the test harness and the other tests of
//! this binary, which run on threads of their own, cannot pollute a
//! count.

use rayfade_core::{
    expected_successes, expected_successes_of_set, success_probability_of_set, NetworkEvaluator,
    SparseSuccessEvaluator,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::{
    AmortizedAccumulator, GainMatrix, InterferenceRatios, PowerAssignment, SinrParams,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by this thread. Const-initialized and free
    /// of destructors, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new
    /// size in full).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the counts are thread-local cells that allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` on a one-thread pool and returns the heap allocations it
/// made, with its result.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let before = ALLOCATIONS.with(Cell::get);
    let out = pool.install(f);
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A 64-link instance whose cross gains decay with index distance as
/// `scale / (1 + d)^power`.
fn instance_decaying(scale: f64, power: i32) -> (GainMatrix, SinrParams) {
    let n = 64;
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            g[i * n + j] = if i == j {
                50.0
            } else {
                scale / (1.0 + (i as f64 - j as f64).abs()).powi(power)
            };
        }
    }
    (GainMatrix::from_raw(n, g), SinrParams::new(2.0, 1.5, 0.1))
}

/// The 64-link instance with cross gains `1/(1 + d)`: every amortized log
/// is near, so the table is wide.
fn instance() -> (GainMatrix, SinrParams) {
    instance_decaying(1.0, 1)
}

#[test]
fn set_evaluations_do_not_allocate() {
    let (gm, params) = instance();
    let n = gm.len();
    let set: Vec<usize> = (0..n).step_by(3).collect();
    let probs = vec![0.5; n];

    // Warm up (lazy test-harness state, first-use allocations).
    let _ = success_probability_of_set(&gm, &params, &set, set[1]);
    let _ = expected_successes_of_set(&gm, &params, &set);
    let _ = expected_successes(&gm, &params, &probs);

    let (count, q) = allocations_during(|| success_probability_of_set(&gm, &params, &set, set[1]));
    assert!(q > 0.0 && q < 1.0);
    assert_eq!(count, 0, "success_probability_of_set allocated {count}x");

    let (count, total) = allocations_during(|| expected_successes_of_set(&gm, &params, &set));
    assert!(total > 0.0);
    assert_eq!(count, 0, "expected_successes_of_set allocated {count}x");

    // The Kahan rewrite of expected_successes also dropped its
    // intermediate Vec.
    let (count, total) = allocations_during(|| expected_successes(&gm, &params, &probs));
    assert!(total > 0.0);
    assert_eq!(count, 0, "expected_successes allocated {count}x");
}

#[test]
fn batch_calls_do_not_allocate() {
    let (gm, params) = instance();
    let n = gm.len();
    let probs: Vec<f64> = (0..n).map(|j| (j % 5) as f64 / 4.0).collect();
    // Transmit sets: on the amortized variant a → b churns (9 flips, 9
    // transmitters), b → c and c → ∅ rebuild (more flips than
    // transmitters).
    let a: Vec<usize> = (0..n).step_by(4).collect();
    let b: Vec<usize> = [0, 1].into_iter().chain((8..n).step_by(8)).collect();
    let c: Vec<usize> = (2..n).step_by(16).collect();
    // Cross gains 10⁻³/(1 + d)⁴: only neighbours' logs are near, so the
    // amortized table is narrow.
    let (far_gm, far_params) = instance_decaying(1e-3, 4);
    let mut evaluators = [
        ("Dense", NetworkEvaluator::from_gain(&gm, &params)),
        (
            "Sparse",
            NetworkEvaluator::Sparse(SparseSuccessEvaluator::new(&gm, &params, 1e-3)),
        ),
        (
            "Amortized",
            NetworkEvaluator::amortized_from_gain(&gm, &params),
        ),
        (
            "Amortized (narrow)",
            NetworkEvaluator::amortized_from_gain(&far_gm, &far_params),
        ),
    ];
    for (name, ev) in &evaluators {
        if let NetworkEvaluator::Amortized(amortized) = ev {
            assert_eq!(amortized.is_narrow(), name.contains("narrow"), "{name}");
        }
    }
    // Every allocating call, so that one failure names all of them.
    let mut allocating = Vec::new();
    for (name, ev) in &mut evaluators {
        // Warm up (first-use allocations).
        ev.set_uniform(0.5);
        ev.set_probs(&probs);
        let _ = (ev.expected_successes(), ev.expected_successes_interval());

        let (count, ()) = allocations_during(|| ev.set_uniform(0.3));
        allocating.push((*name, "set_uniform", count));
        let (count, total) = allocations_during(|| ev.expected_successes());
        assert!(total > 0.0, "{name}: E[successes] = {total}");
        allocating.push((*name, "expected_successes", count));
        let (count, ()) = allocations_during(|| ev.set_probs(&probs));
        allocating.push((*name, "set_probs", count));
        let (count, (lo, hi)) = allocations_during(|| ev.expected_successes_interval());
        assert!(0.0 < lo && lo <= hi, "{name}: interval [{lo}, {hi}]");
        allocating.push((*name, "expected_successes_interval", count));

        ev.reset();
        let (count, ()) = allocations_during(|| {
            ev.switch_transmit_set(&[], &a);
            ev.switch_transmit_set(&a, &b);
            ev.switch_transmit_set(&b, &c);
            ev.switch_transmit_set(&c, &[]);
        });
        assert_eq!(
            ev.expected_successes(),
            0.0,
            "{name}: back to the empty set"
        );
        allocating.push((*name, "switch_transmit_set", count));
    }
    allocating.retain(|&(_, _, count)| count > 0);
    assert!(
        allocating.is_empty(),
        "(variant, call, allocations): {allocating:?}"
    );
}

#[test]
fn amortized_table_takes_at_most_3_bytes_per_entry() {
    // perfbench `regret_1k`'s deployment: 10³ links at one link per 10⁶
    // area units, α = 4, where 99% of the full-activation logs fit in 16
    // bits. An all-`i64` table would take 8 B per entry.
    let n = 1_000;
    let net = PaperTopology {
        links: n,
        side: (n as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x5107);
    let params = SinrParams::new(4.0, 2.5, 4e-7);
    let gain = GainMatrix::from_geometry(&net, &PowerAssignment::figure1_uniform(), params.alpha);
    let ratios = InterferenceRatios::new(&gain, &params);
    let before = BYTES.with(Cell::get);
    let acc = AmortizedAccumulator::new(&ratios);
    let bytes = BYTES.with(Cell::get) - before;
    assert!(acc.is_narrow());
    assert!(
        bytes <= 3 * (n * n) as u64,
        "{bytes} B allocated for {} entries",
        n * n
    );
}
