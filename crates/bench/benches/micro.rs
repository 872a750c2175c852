//! Criterion micro-benchmarks for the hot paths of the FIRST reproduction:
//! the continuous-batching engine, the batch scheduler, the federation
//! router + gateway request path, and the vector index behind the RAG case
//! study. The full table/figure regenerations live in `src/bin/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use first_core::middleware::CachedResponse;
use first_core::{ChatCompletionRequest, DeploymentBuilder, ResponseCache};
use first_desim::{Interner, SimDuration, SimProcess, SimTime, SymbolId, TimingWheel};
use first_hpc::{BatchScheduler, Cluster, GpuModel, JobRequest};
use first_serving::{find_model, run_to_completion, EngineConfig, InferenceRequest};
use first_telemetry::{BucketHistogram, LabelSet, MetricRegistry};
use first_vector::{Embedder, FlatIndex, Metric};

fn bench_engine_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("vllm_engine");
    group.sample_size(10);
    for &batch in &[16usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("saturated_decode", batch),
            &batch,
            |b, &n| {
                b.iter(|| {
                    let cfg =
                        EngineConfig::for_model(find_model("llama-8b").unwrap(), GpuModel::A100_40);
                    let requests: Vec<InferenceRequest> = (0..n as u64)
                        .map(|i| InferenceRequest::chat(i, 200, 100))
                        .collect();
                    run_to_completion(cfg, requests, false)
                });
            },
        );
    }
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler_submit_complete_500_jobs", |b| {
        b.iter(|| {
            let mut sched = BatchScheduler::new(Cluster::sophia());
            let mut now = SimTime::ZERO;
            for i in 0..500u64 {
                let id = sched.submit(
                    JobRequest::single_node((i % 8 + 1) as u32, SimDuration::from_hours(1)),
                    now,
                );
                now += SimDuration::from_secs(5);
                sched.advance(now);
                if i % 3 == 0 {
                    sched.complete(id, now);
                }
            }
            sched.stats().started
        });
    });
}

fn bench_gateway_request_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway");
    group.sample_size(10);
    group.bench_function("single_hot_request_end_to_end", |b| {
        b.iter(|| {
            let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
                .prewarm(1)
                .build_with_tokens();
            let req = ChatCompletionRequest::simple(
                "meta-llama/Llama-3.3-70B-Instruct",
                "benchmark the gateway path",
                128,
            );
            gw.chat_completions(&req, &tokens.alice, Some(128), SimTime::ZERO)
                .unwrap();
            let mut now = SimTime::ZERO;
            while let Some(t) = SimProcess::next_event_time(&gw) {
                now = t.max(now);
                gw.advance(now);
                if gw.is_drained() {
                    break;
                }
            }
            gw.take_responses().len()
        });
    });
    group.finish();
}

fn bench_vector_index(c: &mut Criterion) {
    let embedder = Embedder::default();
    let mut index = FlatIndex::new(Metric::Cosine);
    for i in 0..2000u64 {
        index.add(
            i,
            embedder.embed(&format!("document number {i} about hpc topic {}", i % 17)),
        );
    }
    let query = embedder.embed("how do I submit an hpc job");
    c.bench_function("flat_index_search_top10_of_2000", |b| {
        b.iter(|| index.search(&query, 10));
    });
}

fn bench_telemetry(c: &mut Criterion) {
    // Each scrape folds the request log into a fresh registry; these keep
    // the cost of its counter and histogram updates visible.
    c.bench_function("metric_registry_request_path_updates", |b| {
        let mut registry = MetricRegistry::new();
        let labels = LabelSet::single("model", "meta-llama/Llama-3.3-70B-Instruct");
        b.iter(|| {
            registry.inc_counter("first_gateway_requests_received_total", labels.clone());
            registry.observe("first_request_latency_seconds", labels.clone(), 9.2);
            registry.add_counter("first_gateway_output_tokens_total", LabelSet::empty(), 180);
        });
    });
    c.bench_function("bucket_histogram_observe_and_quantile", |b| {
        let mut h = BucketHistogram::latency_seconds();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            h.observe((i % 600) as f64 / 10.0);
            h.p95()
        });
    });
}

fn bench_interner(c: &mut Criterion) {
    // The boundary costs of the interned-id architecture: one `get` per
    // request at the API edge, one `resolve` per report/telemetry line.
    let names: Vec<String> = (0..64)
        .map(|i| format!("meta-llama/Llama-3.3-70B-Instruct-shard-{i}"))
        .collect();
    let mut interner = Interner::new();
    for n in &names {
        interner.intern(n);
    }
    c.bench_function("interner_lookup_64_models", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % names.len();
            interner.get(&names[i]).unwrap()
        });
    });
    c.bench_function("interner_resolve", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            interner.resolve(SymbolId(i)).len()
        });
    });
}

fn bench_event_queue_100k(c: &mut Criterion) {
    // Push/pop churn at 1e5 events: the desim future-event list (the
    // timing wheel) under the load profile the scale sweep produces.
    const N: u64 = 100_000;
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    group.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut q: TimingWheel<u64> = TimingWheel::with_capacity(N as usize);
            // Interleaved times (reversed halves) so pops cross the levels.
            for i in 0..N {
                let t = if i % 2 == 0 { i } else { N - i };
                q.push(SimTime::from_micros(t), i);
            }
            let mut sum = 0u64;
            while let Some(ev) = q.pop() {
                sum = sum.wrapping_add(ev.payload);
            }
            sum
        });
    });
    group.finish();
}

fn bench_wheel_vs_heap(c: &mut Criterion) {
    // Head-to-head future-event-list comparison: the hierarchical timing
    // wheel against the classic `BinaryHeap` it replaced, on the same
    // push-all/drain-all churn at 1e5–1e7 events. `FIRST_MICRO_EVENTS`
    // caps the sweep so CI can run a reduced smoke pass (e.g. set it to
    // 100000) while local runs cover the full range.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let cap: u64 = std::env::var("FIRST_MICRO_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    // Mixed-horizon deadline pattern: near bursts, mid-range, far tail —
    // the shape the gateway produces (a cheap LCG keeps it deterministic).
    let time_for = |i: u64, n: u64| {
        let r = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33;
        match i % 8 {
            0..=4 => i + r % 1_000,       // near: next millisecond
            5 | 6 => i + r % 1_000_000,   // mid: next second
            _ => i + r % (n.max(1) * 10), // far tail
        }
    };
    let mut group = c.benchmark_group("wheel_vs_heap");
    group.sample_size(10);
    for &n in &[100_000u64, 1_000_000, 10_000_000] {
        if n > cap {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("timing_wheel", n), &n, |b, &n| {
            b.iter(|| {
                let mut q: TimingWheel<u64> = TimingWheel::with_capacity(n as usize);
                for i in 0..n {
                    q.push(SimTime::from_micros(time_for(i, n)), i);
                }
                let mut sum = 0u64;
                while let Some(ev) = q.pop() {
                    sum = sum.wrapping_add(ev.payload);
                }
                sum
            });
        });
        group.bench_with_input(BenchmarkId::new("binary_heap", n), &n, |b, &n| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(n as usize);
                for i in 0..n {
                    q.push(Reverse((time_for(i, n), i)));
                }
                let mut sum = 0u64;
                while let Some(Reverse((_, payload))) = q.pop() {
                    sum = sum.wrapping_add(payload);
                }
                sum
            });
        });
    }
    group.finish();
}

fn bench_response_cache(c: &mut Criterion) {
    // The gateway's cache insert once its 4,096-entry cache is full, where
    // every put evicts the oldest entry. Puts come in batches of 8 whose
    // instants are a shuffle of the batch's own (one delivery batch is
    // collected in endpoint order, not time order), so an insert lands a
    // few pairs before the back of the eviction index.
    const CAPACITY: usize = 4096;
    const SHUFFLE: [u64; 8] = [3, 0, 1, 5, 2, 7, 4, 6];
    let mut cache = ResponseCache::new(SimDuration::from_mins(30), CAPACITY);
    let mut n = 0u64;
    let mut put_batch = |cache: &mut ResponseCache| {
        for offset in SHUFFLE {
            let at = SimTime::from_millis(n / SHUFFLE.len() as u64 * 10 + offset);
            let key = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let response = CachedResponse {
                text: String::new(),
                completion_tokens: 64,
            };
            cache.put(key, response, at);
            n += 1;
        }
    };
    for _ in 0..2 * CAPACITY / SHUFFLE.len() {
        put_batch(&mut cache);
    }
    let mut group = c.benchmark_group("response_cache");
    group.bench_function("put_at_capacity_4096", |b| {
        b.iter(|| put_batch(&mut cache));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_decode,
    bench_scheduler,
    bench_gateway_request_path,
    bench_vector_index,
    bench_telemetry,
    bench_interner,
    bench_event_queue_100k,
    bench_wheel_vs_heap,
    bench_response_cache
);
criterion_main!(benches);
