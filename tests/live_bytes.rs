//! Memory the request path keeps per request.
//!
//! A counting global allocator tracks live heap bytes and their peak. A
//! federation-shaped [`ScenarioRun`] (four shards, one tenant homed on
//! each, fan-in and bounded spillover) runs at `N` and `4N` requests. The
//! difference of the two peaks, divided by `3N`, is what one more request
//! adds to the peak heap end to end: the arrival stream, the per-task state
//! of every layer, the request log and the report. Only a few hundred
//! requests are in flight at once here, so state the program frees at
//! delivery does not grow with `N` and stays out of the slope; state it
//! keeps for the whole run does not. Fixed costs (deployment build,
//! interners, tables) cancel out.
//!
//! Two input shapes run: synthetic Poisson tenants, and the benchmark's
//! shape, where each tenant replays a recorded track. The caller builds the
//! spec before the measurement starts, so the replay case counts only what
//! the run adds on top of its input: a copy of the spec or a materialised
//! request stream (each about 80 bytes per request) would show in it.
//!
//! A third shape is the batch regime's backlog: one tenant floods one
//! prewarmed instance with every request at t=0, so every request is
//! queued somewhere at once. There the slope is the peak bytes each
//! backlogged request holds across the layers' queues and windows, and it
//! has its own budget.
//!
//! The budgets hold in debug builds and in release builds, the ones the
//! benchmark measures (CI runs this file under `--release` as well).

use first::core::{ScenarioRun, ShardingConfig, SpilloverPolicy};
use first::desim::{SimDuration, SimRng, SimTime};
use first::workload::scenario::models::{LLAMA_70B, LLAMA_8B};
use first::workload::{
    ArrivalProcess, DeploymentRef, ReplayEntry, ReplayTrack, ScenarioSpec, TenantClass,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Most bytes one more request may add to the peak heap, end to end (for
/// a replayed request, above its caller's spec).
const BUDGET_BYTES_PER_REQUEST: f64 = 152.0;

/// Most peak bytes one more request may add while every request is
/// backlogged at once (it reads 504).
const BACKLOG_BUDGET_BYTES_PER_REQUEST: f64 = 510.0;

/// The two tests share the byte counters, so they measure one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Four tenants whose names a 4-shard ring homes one per shard.
const TENANTS: [(&str, &str); 4] = [
    ("batch-embed", LLAMA_8B),
    ("copilot", LLAMA_70B),
    ("argonne-chat", LLAMA_70B),
    ("eval-harness", LLAMA_8B),
];

/// `requests` requests over the four tenants, each a Poisson stream near
/// its shard's capacity.
fn federation_spec(requests: usize) -> ScenarioSpec {
    let tenants = TENANTS
        .into_iter()
        .map(|(name, model)| {
            TenantClass::synthetic(name, requests / 4, ArrivalProcess::Poisson(12.0), model)
        })
        .collect();
    with_horizon(ScenarioSpec::new(
        "live-bytes-federation",
        "four shards near capacity, one Poisson tenant homed on each",
        DeploymentRef::SingleClusterTest,
        tenants,
    ))
}

/// The same load as [`federation_spec`], but each tenant replays a track
/// of Poisson arrivals with its own model string per entry, as the
/// benchmark's inputs do.
fn replay_federation_spec(requests: usize) -> ScenarioSpec {
    let tenants = TENANTS
        .into_iter()
        .enumerate()
        .map(|(i, (name, model))| {
            let mut rng = SimRng::seed_from_u64(i as u64);
            let mut at = 0.0;
            let entries = (0..requests / 4)
                .map(|j| {
                    at += rng.exponential(1.0 / 12.0);
                    ReplayEntry {
                        at: SimTime::from_secs_f64(at),
                        model: model.to_string(),
                        prompt_tokens: 16 + (j as u32 * 37) % 900,
                        output_tokens: 8 + (j as u32 * 53) % 400,
                    }
                })
                .collect();
            let track = ArrivalProcess::Replay(ReplayTrack { entries });
            TenantClass::synthetic(name, requests / 4, track, model)
        })
        .collect();
    with_horizon(ScenarioSpec::new(
        "live-bytes-replay-federation",
        "four shards near capacity, one replayed tenant homed on each",
        DeploymentRef::SingleClusterTest,
        tenants,
    ))
}

/// `requests` 70B requests from one tenant, all at t=0, on a prewarmed
/// single instance: the benchmark's `backlog-flood` shape.
fn backlog_spec(requests: usize) -> ScenarioSpec {
    let entries = (0..requests)
        .map(|i| ReplayEntry {
            at: SimTime::ZERO,
            model: LLAMA_70B.to_string(),
            prompt_tokens: 16 + (i as u32 * 37) % 900,
            output_tokens: 8 + (i as u32 * 53) % 400,
        })
        .collect();
    let track = ArrivalProcess::Replay(ReplayTrack { entries });
    let mut spec = with_horizon(ScenarioSpec::new(
        "live-bytes-backlog",
        "one 70B tenant floods a prewarmed single instance at t=0",
        DeploymentRef::SophiaSingleInstance,
        vec![TenantClass::synthetic("flood", requests, track, LLAMA_70B)],
    ));
    spec.prewarm = 1;
    spec
}

fn with_horizon(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.horizon_s = 40.0 * 3600.0;
    spec
}

/// Four shards with fan-in and bounded spillover.
fn four_shards() -> ShardingConfig {
    ShardingConfig::with_shards(4)
        .fanin(SimDuration::from_millis(5))
        .spill(SpilloverPolicy::bounded(64, 0.05))
}

/// Peak live heap bytes during one `ScenarioRun::execute` of `spec`, above
/// the live bytes before it, and the number of requests it completed.
fn peak_bytes_of(spec: &ScenarioSpec, sharding: ShardingConfig) -> (usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = ScenarioRun::new(spec)
        .seed(7)
        .sharding(sharding)
        .execute()
        .unwrap()
        .report;
    (PEAK.load(Ordering::Relaxed) - before, report.completed)
}

/// The peak-heap slope per request between `N` and `4N` requests of the
/// spec `make` builds, run as `sharding` builds, with every request
/// completing.
fn slope_per_request(
    make: fn(usize) -> ScenarioSpec,
    sharding: fn() -> ShardingConfig,
    n: usize,
) -> f64 {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small = make(n);
    let large = make(4 * n);
    // Warm up thread-locals and lazily built tables outside the measurement.
    peak_bytes_of(&make(64), sharding());
    let (peak_small, done_small) = peak_bytes_of(&small, sharding());
    let (peak_large, done_large) = peak_bytes_of(&large, sharding());
    assert_eq!(
        (done_small, done_large),
        (n, 4 * n),
        "every request completes"
    );
    let per_request = (peak_large as f64 - peak_small as f64) / (3 * n) as f64;
    eprintln!(
        "peak live bytes: {peak_small} at {n}, {peak_large} at {}; {per_request:.0} per request",
        4 * n
    );
    per_request
}

#[test]
fn peak_live_bytes_per_request_stay_within_budget() {
    let per_request = slope_per_request(federation_spec, four_shards, 16_000);
    assert!(
        per_request <= BUDGET_BYTES_PER_REQUEST,
        "{per_request:.0} peak live bytes per request, budget {BUDGET_BYTES_PER_REQUEST}"
    );
}

#[test]
fn replayed_input_is_not_copied_or_materialised() {
    let per_request = slope_per_request(replay_federation_spec, four_shards, 16_000);
    assert!(
        per_request <= BUDGET_BYTES_PER_REQUEST,
        "{per_request:.0} peak live bytes per replayed request, budget {BUDGET_BYTES_PER_REQUEST}"
    );
}

#[test]
fn backlogged_requests_stay_within_their_budget() {
    let per_request = slope_per_request(backlog_spec, ShardingConfig::single, 16_000);
    assert!(
        per_request <= BACKLOG_BUDGET_BYTES_PER_REQUEST,
        "{per_request:.0} peak live bytes per backlogged request, budget {BACKLOG_BUDGET_BYTES_PER_REQUEST}"
    );
}
