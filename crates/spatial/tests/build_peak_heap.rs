//! Peak heap of the geometric sparse build.
//!
//! The builder streams each chunk of receivers into its own CSR fragment
//! and keeps no per-receiver allocation, so while it runs the live heap
//! should stay within a small multiple of the finished cache (~45 B per
//! link at this density and δ). Keeping every receiver's examined row
//! until assembly costs more than 1 KB per link. A counting global
//! allocator tracks the live bytes and their high-water mark; it lives
//! alone in its own integration-test binary so no concurrently running
//! test can pollute the record.

use rayfade_geometry::PaperTopology;
use rayfade_sinr::{PowerAssignment, SinrParams};
use rayfade_spatial::build_sparse_ratios_stats;
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

/// Bytes per link the build may hold live at its peak, on top of what
/// was live before it started.
const PEAK_BYTES_PER_LINK: usize = 256;

#[test]
fn sparse_build_peak_heap_stays_under_256_bytes_per_link() {
    // The 10⁴-link dynamic benchmark's density (one link per 10⁶ area
    // units) at twice its size, at the default δ.
    let n = 20_000;
    let net = PaperTopology {
        links: n,
        side: (n as f64 * 1e6).sqrt(),
        min_length: 20.0,
        max_length: 40.0,
    }
    .generate(0x5107);
    let power = PowerAssignment::figure1_uniform();
    let params = SinrParams::new(4.0, 2.5, 4e-7);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (ratios, stats) = build_sparse_ratios_stats(&net, &power, &params, 1e-3, None);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(ratios.len(), n);
    assert!(stats.retained > 0 && stats.truncated > 0);
    assert!(
        peak < PEAK_BYTES_PER_LINK * n,
        "peak live heap {peak} B ({} B per link) exceeds {PEAK_BYTES_PER_LINK} B per link",
        peak / n
    );
}
