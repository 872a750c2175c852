//! Memory the request path keeps per request.
//!
//! A counting global allocator tracks live heap bytes and their peak. A
//! federation-shaped [`ScenarioRun`] (four shards, one Poisson tenant homed
//! on each, fan-in and bounded spillover) runs at `N` and `4N` requests.
//! The difference of the two peaks, divided by `3N`, is what one more
//! request adds to the peak heap end to end: the compiled stream, the
//! per-task state of every layer, the request log and the report. Only a
//! few hundred requests are in flight at once here, so state the program
//! frees at delivery does not grow with `N` and stays out of the slope;
//! state it keeps for the whole run does not. Fixed costs (deployment
//! build, interners, tables) cancel out.
//!
//! The budget holds in debug builds and in release builds, the ones the
//! benchmark measures (CI runs this file under `--release` as well).

use first::core::{ScenarioRun, ShardingConfig, SpilloverPolicy};
use first::desim::SimDuration;
use first::workload::scenario::models::{LLAMA_70B, LLAMA_8B};
use first::workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, TenantClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts bytes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // Counted as alloc-then-free: a moving realloc holds both
            // blocks for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Most bytes one more request may add to the peak heap, end to end.
const BUDGET_BYTES_PER_REQUEST: f64 = 320.0;

/// `requests` requests over four tenants whose names a 4-shard ring homes
/// one per shard, each a Poisson stream near its shard's capacity.
fn federation_spec(requests: usize) -> ScenarioSpec {
    let tenants = [
        ("batch-embed", LLAMA_8B),
        ("copilot", LLAMA_70B),
        ("argonne-chat", LLAMA_70B),
        ("eval-harness", LLAMA_8B),
    ]
    .into_iter()
    .map(|(name, model)| {
        TenantClass::synthetic(name, requests / 4, ArrivalProcess::Poisson(12.0), model)
    })
    .collect();
    let mut spec = ScenarioSpec::new(
        "live-bytes-federation",
        "four shards near capacity, one Poisson tenant homed on each",
        DeploymentRef::SingleClusterTest,
        tenants,
    );
    spec.horizon_s = 40.0 * 3600.0;
    spec
}

/// Peak live heap bytes during one `ScenarioRun::execute` of `spec`, above
/// the live bytes before it, and the number of requests it completed.
fn peak_bytes_of(spec: &ScenarioSpec) -> (usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = ScenarioRun::new(spec)
        .seed(7)
        .sharding(
            ShardingConfig::with_shards(4)
                .fanin(SimDuration::from_millis(5))
                .spill(SpilloverPolicy::bounded(64, 0.05)),
        )
        .execute()
        .unwrap()
        .report;
    (PEAK.load(Ordering::Relaxed) - before, report.completed)
}

#[test]
fn peak_live_bytes_per_request_stay_within_budget() {
    const N: usize = 16_000;
    let small = federation_spec(N);
    let large = federation_spec(4 * N);
    // Warm up thread-locals and lazily built tables outside the measurement.
    peak_bytes_of(&federation_spec(64));
    let (peak_small, done_small) = peak_bytes_of(&small);
    let (peak_large, done_large) = peak_bytes_of(&large);
    assert_eq!(
        (done_small, done_large),
        (N, 4 * N),
        "every request completes"
    );
    let per_request = (peak_large as f64 - peak_small as f64) / (3 * N) as f64;
    eprintln!(
        "peak live bytes: {peak_small} at {N}, {peak_large} at {}; {per_request:.0} per request",
        4 * N
    );
    assert!(
        per_request <= BUDGET_BYTES_PER_REQUEST,
        "{per_request:.0} peak live bytes per request, budget {BUDGET_BYTES_PER_REQUEST}"
    );
}
