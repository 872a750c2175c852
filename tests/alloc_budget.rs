//! Allocation budget of the request path.
//!
//! A counting global allocator wraps the system allocator, and a
//! backlog-flood-shaped [`ScenarioRun`] (one 70B tenant, every request at
//! t=0 on a prewarmed single instance) runs at `N` and `2N` requests. The
//! difference, divided by `N`, is what one more request costs in heap
//! allocations end to end: the arrival stream, admission, fabric, engine,
//! delivery and report. Fixed costs (deployment build, interners, tables)
//! cancel out.
//!
//! The scenario runner's closing invariant check runs in both builds and is
//! inside the measurement. The budget holds in debug builds and in release
//! builds, the ones the benchmark measures (CI runs this file under
//! `--release` as well).

use first::core::ScenarioRun;
use first::desim::SimTime;
use first::workload::{
    ArrivalProcess, DeploymentRef, ModelShare, ReplayEntry, ReplayTrack, ScenarioSpec,
    ShareGptProfile, SloTarget, TenantClass, TenantWorkload,
};
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

const MODEL_70B: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// Most heap allocations one more request may cost, end to end.
const BUDGET_PER_REQUEST: f64 = 5.0;

/// `requests` 70B requests at t=0 with varied prompt and output lengths.
fn flood_spec(requests: usize) -> ScenarioSpec {
    let entries = (0..requests)
        .map(|i| ReplayEntry {
            at: SimTime::ZERO,
            model: MODEL_70B.to_string(),
            prompt_tokens: 16 + (i as u32 * 37) % 900,
            output_tokens: 8 + (i as u32 * 53) % 400,
        })
        .collect();
    let tenant = TenantClass {
        name: "flood".to_string(),
        requests,
        workload: TenantWorkload::Synthetic {
            arrival: ArrivalProcess::Replay(ReplayTrack { entries }),
            profile: ShareGptProfile::default(),
        },
        models: ModelShare::only(MODEL_70B),
        priority: 100,
        slo: SloTarget {
            p95_latency_s: 60.0,
            availability: 0.99,
        },
    };
    let mut spec = ScenarioSpec::new(
        "alloc-flood",
        "one 70B tenant floods a prewarmed single instance at t=0",
        DeploymentRef::SophiaSingleInstance,
        vec![tenant],
    );
    spec.prewarm = 1;
    spec.horizon_s = 40.0 * 3600.0;
    spec
}

/// Heap allocations made by one `ScenarioRun::execute` of `spec`, and the
/// number of requests it completed.
fn allocations_of(spec: &ScenarioSpec) -> (u64, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = ScenarioRun::new(spec).seed(7).execute().unwrap().report;
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, report.completed)
}

#[test]
fn marginal_allocations_per_request_stay_within_budget() {
    const N: usize = 1_500;
    let small = flood_spec(N);
    let large = flood_spec(2 * N);
    // Warm up thread-locals and lazily built tables outside the measurement.
    allocations_of(&flood_spec(16));
    let (a_small, done_small) = allocations_of(&small);
    let (a_large, done_large) = allocations_of(&large);
    assert_eq!((done_small, done_large), (N, 2 * N), "the flood must drain");
    let per_request = (a_large as f64 - a_small as f64) / N as f64;
    eprintln!(
        "allocations: {a_small} at {N}, {a_large} at {}; {per_request:.2} per request",
        2 * N
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} heap allocations per request, budget {BUDGET_PER_REQUEST}"
    );
}
