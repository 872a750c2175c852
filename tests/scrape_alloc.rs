//! Allocation cost of reading the monitoring surface.
//!
//! A counting global allocator wraps the system allocator, and the catalog's
//! `steady` scenario runs at `N` and `2N` requests. One
//! [`Gateway::export_metrics`] plus one [`Gateway::dashboard_snapshot`] is
//! then counted on each run's gateway. The difference, divided by the
//! difference in logged rows, is what one more request log row costs a
//! scrape in heap allocations. Fixed costs (one label set per model, tenant,
//! endpoint and cluster, the registry's families) cancel out.
//!
//! The file holds exactly one test, so no other test's allocations land in
//! the count. The bound holds in debug builds and in release builds (CI runs
//! this file under `--release` as well).
//!
//! [`Gateway::export_metrics`]: first::core::Gateway::export_metrics
//! [`Gateway::dashboard_snapshot`]: first::core::Gateway::dashboard_snapshot

use first::core::{Gateway, ScenarioRun, ShardedGateway};
use first::desim::SimTime;
use first::workload::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations one more logged row may cost one export plus one
/// dashboard snapshot.
const BOUND_PER_ROW: f64 = 0.05;

/// The fleet the `steady` scenario (one gateway) leaves after `requests`
/// requests.
fn steady_fleet(requests: usize) -> ShardedGateway {
    let spec = catalog(requests)
        .into_iter()
        .find(|s| s.name == "steady")
        .expect("in catalog");
    ScenarioRun::new(&spec).seed(1).execute().unwrap().fleet
}

/// Heap allocations made by one export and one dashboard snapshot of `gw`.
fn scrape_allocations(gw: &Gateway) -> u64 {
    let now = SimTime::from_secs(3600);
    let before = ALLOCS.load(Ordering::Relaxed);
    let registry = gw.export_metrics(now);
    let snapshot = gw.dashboard_snapshot(now);
    let after = ALLOCS.load(Ordering::Relaxed);
    drop((registry, snapshot));
    after - before
}

#[test]
fn a_scrape_costs_no_allocation_per_logged_row() {
    const N: usize = 1_000;
    let (small, large) = (steady_fleet(N), steady_fleet(2 * N));
    let (small, large) = (small.shard(0), large.shard(0));
    let (rows_small, rows_large) = (small.log().len(), large.log().len());
    assert!(rows_large >= rows_small + N / 2, "the larger run logs more");
    // Warm up thread-locals and lazily built tables outside the measurement.
    scrape_allocations(small);
    let (a_small, a_large) = (scrape_allocations(small), scrape_allocations(large));
    let per_row = (a_large as f64 - a_small as f64) / (rows_large - rows_small) as f64;
    eprintln!(
        "scrape allocations: {a_small} at {rows_small} rows, {a_large} at {rows_large} rows; \
         {per_row:.3} per row"
    );
    assert!(
        per_row < BOUND_PER_ROW,
        "{per_row:.3} heap allocations per logged row, bound {BOUND_PER_ROW}"
    );
}
