//! Steady-state slots allocate nothing.
//!
//! The slot loop reuses every per-slot buffer: the arrival list, the
//! transmit list, the transmit/indicator/delivery masks, the backlog
//! index, and the policies' own lists. So with no traffic (λ = 0, where no
//! queue ever grows) a replication twice as long must make no more heap
//! allocations than a short one: everything it allocates, it allocates
//! during setup. A counting global allocator records the calls; it lives
//! alone in its own integration-test binary so no concurrently running
//! test can pollute the count.

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the count is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `SPARSE_CROSSOVER` links at the 10⁴-link benchmark's density, Rayleigh
/// fading resolved analytically on the sparse cache, no arrivals.
fn idle(policy: PolicyKind, slots: u64) -> DynamicConfig {
    let n = SPARSE_CROSSOVER;
    DynamicConfig {
        links: n,
        networks: 1,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
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
        sample_every: 50,
        seed: 0x5107,
    }
}

/// Heap allocations made by one replication of `cfg`.
fn allocations(cfg: DynamicConfig) -> u64 {
    let engine = DynamicEngine::new(cfg);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = engine.run_network(0);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        outcome.sparse_accuracy.is_some(),
        "must run on the sparse cache"
    );
    assert_eq!(outcome.offered_per_link, 0.0);
    after - before
}

#[test]
fn idle_slots_allocate_nothing() {
    // Regret learning reads every link's counterfactual, so its slots
    // also run the full-network resolve; gated ALOHA runs the listed one.
    for policy in [PolicyKind::Aloha, PolicyKind::Regret] {
        let short = allocations(idle(policy, 1_000));
        let long = allocations(idle(policy, 2_000));
        assert!(
            long <= short,
            "{}: 2 000 slots made {long} allocations, 1 000 slots {short}: \
             {} per extra slot",
            policy.label(),
            (long - short) as f64 / 1_000.0
        );
    }
}
