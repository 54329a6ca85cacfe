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
//! engine's per-slot call). The tests live in their own
//! integration-test binary and take one lock, so no concurrently running
//! test can pollute the allocation counter.

use rayfade_core::{
    expected_successes, expected_successes_of_set, success_probability_of_set, NetworkEvaluator,
    SparseSuccessEvaluator,
};
use rayfade_sinr::{GainMatrix, SinrParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A 64-link instance whose cross gains decay with index distance.
fn instance() -> (GainMatrix, SinrParams) {
    let n = 64;
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            g[i * n + j] = if i == j {
                50.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            };
        }
    }
    (GainMatrix::from_raw(n, g), SinrParams::new(2.0, 1.5, 0.1))
}

#[test]
fn set_evaluations_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (gm, params) = instance();
    let n = gm.len();
    let probs: Vec<f64> = (0..n).map(|j| (j % 5) as f64 / 4.0).collect();
    // Transmit sets: on the amortized variant a → b churns (9 flips, 9
    // transmitters), b → c and c → ∅ rebuild (more flips than
    // transmitters).
    let a: Vec<usize> = (0..n).step_by(4).collect();
    let b: Vec<usize> = [0, 1].into_iter().chain((8..n).step_by(8)).collect();
    let c: Vec<usize> = (2..n).step_by(16).collect();
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
    ];
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
