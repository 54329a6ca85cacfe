//! Peak heap of an analytic replication below the sparse crossover.
//!
//! Below `SPARSE_CROSSOVER` the analytic resolver keeps the dense ratio
//! table (8·n² bytes) and the quantized log table (2·n² bytes plus the
//! near entries in the 16-bit layout this far-field deployment takes).
//! It builds the ratio table straight from geometry, and regret learning
//! takes no gain matrix, so a replication must never also hold the
//! 8·n²-byte `GainMatrix`: its live heap stays within 11·n² bytes. A
//! counting global allocator tracks the live bytes and their high-water
//! mark; it lives alone in its own integration-test binary so no
//! concurrently running test can pollute the record.

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the counters are relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn analytic_regret_replication_below_crossover_holds_no_gain_matrix() {
    // The regret benchmark's deployment: one link per 10⁶ area units,
    // lengths 20–40, α = 4, β = 2.5, ν = 4e-7, Bernoulli λ = 0.05,
    // Rayleigh fading resolved analytically.
    let n = 1_000;
    assert!(n < SPARSE_CROSSOVER);
    let engine = DynamicEngine::new(DynamicConfig {
        links: n,
        networks: 1,
        slots: 50,
        arrival: ArrivalProcess::Bernoulli { rate: 0.05 },
        policy: PolicyKind::Regret,
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
    });
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = engine.run_network(0);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        outcome.sparse_accuracy.is_none(),
        "below the crossover the replication resolves on the dense cache"
    );
    assert!(outcome.offered_per_link > 0.0);
    let limit = 11 * n * n;
    assert!(
        peak <= limit,
        "peak live heap {peak} B over the replication, limit 11·n² = {limit} B"
    );
}
