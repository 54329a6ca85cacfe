//! Steady-state slots allocate nothing.
//!
//! The slot loop reuses every per-slot buffer: the arrival list, the
//! transmit list, the transmit/indicator/delivery masks, the backlog
//! index, the policies' own lists, the max-weight selector's order and
//! affectance buffers, the Rayleigh max-weight selector's accumulator,
//! and the Monte Carlo resolver's SINR buffer. So
//! with no traffic (λ = 0, where no queue ever grows) a replication twice
//! as long must make no more heap allocations than a short one:
//! everything it allocates, it allocates during setup. A counting global
//! allocator records the calls of each thread apart, and each replication
//! runs on a one-thread pool, all of it on the calling thread, so the
//! tests of this binary, which run concurrently, cannot pollute each
//! other's counts.

use rayfade_core::SPARSE_CROSSOVER;
use rayfade_dynamic::{
    ArrivalProcess, DynamicConfig, DynamicEngine, PolicyKind, SlotModelKind, SuccessModelKind,
};
use rayfade_geometry::PaperTopology;
use rayfade_sinr::SinrParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by this thread. Const-initialized and free
    /// of destructors, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations_so_far() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the count is a thread-local cell that allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// The committed stability sweep's 20-link deployment with the channel
/// realized slot by slot (Monte Carlo) under `model`, no arrivals.
fn idle_monte_carlo(policy: PolicyKind, model: SuccessModelKind, slots: u64) -> DynamicConfig {
    let links = 20;
    DynamicConfig {
        links,
        networks: 1,
        slots,
        arrival: ArrivalProcess::Bernoulli { rate: 0.0 },
        policy,
        model,
        slot_model: SlotModelKind::MonteCarlo,
        topology: PaperTopology {
            links,
            side: 150.0,
            ..PaperTopology::figure1()
        },
        params: SinrParams::figure1(),
        sample_every: 200,
        seed: 0xd1_4a,
    }
}

/// Heap allocations made by one replication of `cfg`, which must run on
/// the sparse cache exactly when `sparse`.
fn allocations(cfg: DynamicConfig, sparse: bool) -> u64 {
    let engine = DynamicEngine::new(cfg);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let before = allocations_so_far();
    let outcome = pool.install(|| engine.run_network(0));
    let after = allocations_so_far();
    assert_eq!(outcome.sparse_accuracy.is_some(), sparse, "wrong resolver");
    assert_eq!(outcome.offered_per_link, 0.0);
    after - before
}

/// Fails unless 2 000 slots of `config(slots)` allocate no more than
/// 1 000 slots do.
fn assert_slots_allocate_nothing(label: &str, sparse: bool, config: impl Fn(u64) -> DynamicConfig) {
    let short = allocations(config(1_000), sparse);
    let long = allocations(config(2_000), sparse);
    assert!(
        long <= short,
        "{label}: 2 000 slots made {long} allocations, 1 000 slots {short}: \
         {} per extra slot",
        (long - short) as f64 / 1_000.0
    );
}

#[test]
fn idle_slots_allocate_nothing() {
    // Regret learning reads every link's counterfactual, so its slots
    // also run the full-network resolve; gated ALOHA runs the listed one;
    // Rayleigh max-weight runs its greedy on the sparse cache every slot.
    for policy in [
        PolicyKind::Aloha,
        PolicyKind::Regret,
        PolicyKind::RayleighMaxWeight,
    ] {
        assert_slots_allocate_nothing(policy.label(), true, |slots| idle(policy, slots));
    }
}

#[test]
fn idle_monte_carlo_slots_allocate_nothing() {
    // Every Monte Carlo slot realizes the channel into the resolver's
    // SINR buffer (every receiver under regret, the transmitters under
    // the others), and both max-weight policies run their greedy every
    // slot, even with no queue to serve.
    for model in SuccessModelKind::all() {
        for policy in PolicyKind::all()
            .into_iter()
            .chain([PolicyKind::RayleighMaxWeight])
        {
            assert_slots_allocate_nothing(
                &format!("{}/{}", policy.label(), model.label()),
                false,
                |slots| idle_monte_carlo(policy, model, slots),
            );
        }
    }
}
