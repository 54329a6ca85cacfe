//! No dense n² allocation above the sparse crossover.
//!
//! At or above `SPARSE_CROSSOVER` links the analytic resolver builds its
//! interference cache from geometry, and neither gated ALOHA nor regret
//! learning takes a gain matrix, so an analytic replication of either
//! must never allocate anything near the dense `GainMatrix`'s n²·8
//! bytes. A recording global allocator keeps the largest single
//! allocation. It lives alone in its own integration-test binary so no
//! concurrently running test can pollute the record.

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the record is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// The 10⁴-link dynamic benchmark's deployment at n = crossover: one link
/// per 10⁶ area units, lengths 20–40, α = 4, β = 2.5, ν = 4e-7,
/// Bernoulli λ = 0.05, Rayleigh fading resolved analytically.
fn at_crossover(policy: PolicyKind) -> DynamicConfig {
    let n = SPARSE_CROSSOVER;
    DynamicConfig {
        links: n,
        networks: 1,
        slots: 50,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy,
        model: SuccessModelKind::Rayleigh,
        slot_model: SlotModelKind::Analytic,
        topology: PaperTopology {
            links: n,
            side: (n as f64 * 1e6).sqrt(),
            min_length: 20.0,
            max_length: 40.0,
        },
        params: SinrParams::new(4.0, 2.5, 4e-7),
        sample_every: 10,
        seed: 0x5107,
    }
}

#[test]
fn analytic_replications_above_crossover_allocate_no_dense_state() {
    let n = SPARSE_CROSSOVER;
    let limit = n * n * 8 / 16;
    for policy in [PolicyKind::Aloha, PolicyKind::Regret] {
        let engine = DynamicEngine::new(at_crossover(policy));
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = engine.run_network(0);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            outcome.sparse_accuracy.is_some(),
            "{}: the replication must resolve on the sparse cache",
            policy.label()
        );
        assert!(outcome.offered_per_link > 0.0);
        assert!(
            largest < limit,
            "{}: largest allocation {largest} B, limit n²·8/16 = {limit} B",
            policy.label()
        );
    }
}
