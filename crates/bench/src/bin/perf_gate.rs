//! Perf-regression gate: re-runs a fast scenario subset, emits
//! `BENCH_perf_gate.json`, and compares it against the committed baseline in
//! `bench/baselines/` with per-metric tolerance bands. Exits nonzero when any
//! metric regresses, so CI holds the performance line.
//!
//! Usage:
//!   perf_gate                       compare against the committed baseline
//!   perf_gate --write-baseline      refresh the committed baseline in place
//!   perf_gate --inject-regression   self-test: double every cost metric and
//!                                   halve every throughput metric before
//!                                   comparing — the gate MUST fail (CI runs
//!                                   this to prove the gate still bites)
//!
//! The workload is pinned by `FIRST_BENCH_SEED` / `FIRST_BENCH_REQUESTS`
//! (CI sets both explicitly); the gate refuses to compare artifacts produced
//! under different workloads. Deterministic simulation metrics (completions,
//! throughput, latency, events processed) carry tight bands; wall-clock
//! metrics carry wide bands so machine-to-machine noise passes while a
//! genuine blow-up still fails the build.

use first_bench::{
    arrival_seed, arrivals, benchmark_request_count, gate_compare, print_sim_stats,
    sharegpt_samples, BenchArtifact, GateMetric,
};
use first_core::{GatewayReport, ScenarioReport, ScenarioRun};
use first_desim::stats::kernel;
use first_desim::{SimMeter, SimRunStats, SimTime, TimingWheel};
use first_workload::{ArrivalProcess, ConversationSample, DeploymentRef, ScenarioSpec};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// Tight band for seed-deterministic simulation metrics.
const DET: f64 = 0.02;
/// Wide band for wall-clock metrics (fails only on a ~5x blow-up — the gate
/// run is sub-second, so machine and scheduling noise must pass while an
/// accidental O(n²) hot path, which costs 10x+, still trips).
const WALL: f64 = 4.0;
/// Absolute no-fail floor for wall-clock metrics: the committed baselines are
/// few-millisecond readings from one machine, and a shared CI runner can
/// multiply such a section several-fold with zero code change. Below this
/// many seconds the gate never fails on wall clock — a genuine complexity
/// regression blows well past it.
const WALL_FLOOR: f64 = 0.25;

/// A one-tenant FIRST run of `samples` at `arrivals` on `deployment` (one
/// instance prewarmed), metered: its §5.1 row and kernel measurement.
fn metered_first_run(
    label: &str,
    rate_label: &str,
    deployment: DeploymentRef,
    samples: Vec<ConversationSample>,
    arrivals: &[SimTime],
) -> (ScenarioReport, SimRunStats) {
    let spec = ScenarioSpec::one_tenant_replay(label, deployment, MODEL, samples, arrivals);
    let meter = SimMeter::start();
    let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
    let report = ScenarioReport::from_run(label, rate_label, &out.report, out.latencies);
    let sim = meter.finish(SimTime::from_secs_f64(report.duration_s));
    (report, sim)
}

/// Open-loop run against the single-instance Sophia deployment at 5 req/s:
/// the gateway + engine hot path the figures exercise.
fn gateway_rate5(n: usize) -> (ScenarioReport, SimRunStats, Vec<GateMetric>) {
    let samples = sharegpt_samples(n, first_bench::benchmark_seed());
    let arr = arrivals(ArrivalProcess::FixedRate(5.0), n, arrival_seed());
    let (report, sim) = metered_first_run(
        "gate: gateway@5",
        "5",
        DeploymentRef::SophiaSingleInstance,
        samples,
        &arr,
    );
    let metrics = vec![
        GateMetric::higher("gateway_rate5/completed", report.completed as f64, 0.001),
        GateMetric::higher("gateway_rate5/req_per_s", report.request_throughput, DET),
        GateMetric::lower(
            "gateway_rate5/median_latency_s",
            report.median_latency_s,
            DET,
        ),
        GateMetric::lower(
            "gateway_rate5/events_processed",
            sim.events_processed as f64,
            0.10,
        ),
        GateMetric::lower("gateway_rate5/wall_time_s", sim.wall_time_s, WALL)
            .with_floor(WALL_FLOOR),
    ];
    (report, sim, metrics)
}

/// Infinite-rate run against the federated two-cluster deployment: the
/// federation-routing hot path under a deep backlog.
fn federated_inf(n: usize) -> (ScenarioReport, SimRunStats, Vec<GateMetric>) {
    let samples = sharegpt_samples(n, first_bench::benchmark_seed());
    let arr = arrivals(ArrivalProcess::Infinite, n, arrival_seed());
    let (report, sim) = metered_first_run(
        "gate: federated@inf",
        "inf",
        DeploymentRef::FederatedSophiaPolaris,
        samples,
        &arr,
    );
    let metrics = vec![
        GateMetric::higher("federated_inf/completed", report.completed as f64, 0.001),
        GateMetric::higher(
            "federated_inf/tok_per_s",
            report.output_token_throughput,
            DET,
        ),
        GateMetric::lower(
            "federated_inf/events_processed",
            sim.events_processed as f64,
            0.10,
        ),
        GateMetric::lower("federated_inf/wall_time_s", sim.wall_time_s, WALL)
            .with_floor(WALL_FLOOR),
    ];
    (report, sim, metrics)
}

/// Fast subset of the `scale_sweep` workload: one infinite-rate point on the
/// single-instance Sophia deployment — the deep-queue regime where the
/// interned-id hot paths and the response-cache eviction index carry the
/// load. Gating its event count and peak queue depth keeps the scale story
/// honest at smoke size.
fn scale_inf(n: usize) -> (ScenarioReport, SimRunStats, Vec<GateMetric>) {
    let seed = first_bench::benchmark_seed().wrapping_add(1);
    let samples = sharegpt_samples(n, seed);
    let arr = arrivals(
        ArrivalProcess::Infinite,
        n,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
    );
    let (report, sim) = metered_first_run(
        "gate: scale@inf",
        "inf",
        DeploymentRef::SophiaSingleInstance,
        samples,
        &arr,
    );
    let metrics = vec![
        GateMetric::higher("scale_inf/completed", report.completed as f64, 0.001),
        GateMetric::higher("scale_inf/req_per_s", report.request_throughput, DET),
        GateMetric::lower(
            "scale_inf/events_processed",
            sim.events_processed as f64,
            0.10,
        ),
        GateMetric::lower(
            "scale_inf/peak_queue_depth",
            sim.peak_queue_depth as f64,
            0.10,
        ),
        GateMetric::lower("scale_inf/wall_time_s", sim.wall_time_s, WALL).with_floor(WALL_FLOOR),
    ];
    (report, sim, metrics)
}

/// Scenario-matrix subset: two catalog scenarios through the declarative
/// `ScenarioRun` path — `steady` (single tenant, the runner's base cost)
/// and `multi-tenant-contention` (three tenant classes, per-tenant metric
/// partitions and SLO accounting). Gating their completions, SLO attainment
/// and tail latency keeps the scenario subsystem's behaviour pinned, and
/// the shared wall/events metrics catch a runner-level slowdown.
fn scenario_subset(n: usize) -> (Vec<GatewayReport>, SimRunStats, Vec<GateMetric>) {
    let specs = first_workload::catalog(n);
    let pick = |name: &str| {
        specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("catalog scenario '{name}' missing"))
            .clone()
    };
    let seed = first_bench::benchmark_seed();
    let meter = SimMeter::start();
    let run = |spec: &first_workload::ScenarioSpec| {
        ScenarioRun::new(spec)
            .seed(seed)
            .execute()
            .expect("gate scenario runs")
            .report
    };
    let steady = run(&pick("steady"));
    let contention = run(&pick("multi-tenant-contention"));
    let sim = meter.finish(SimTime::from_secs_f64(
        steady.duration_s + contention.duration_s,
    ));
    let metrics = vec![
        GateMetric::higher("scenario/steady/completed", steady.completed as f64, 0.001),
        GateMetric::lower(
            "scenario/steady/p95_latency_s",
            steady.tenants[0].p95_latency_s,
            DET,
        ),
        GateMetric::higher(
            "scenario/contention/completed",
            contention.completed as f64,
            0.001,
        ),
        GateMetric::higher(
            "scenario/contention/slo_attained_tenants",
            contention.slo_attained_tenants as f64,
            0.001,
        ),
        GateMetric::lower(
            "scenario/events_processed",
            sim.events_processed as f64,
            0.10,
        ),
        GateMetric::lower("scenario/wall_time_s", sim.wall_time_s, WALL).with_floor(WALL_FLOOR),
    ];
    (vec![steady, contention], sim, metrics)
}

/// Tracing-off section: the `burst` catalog scenario through the default
/// (recorder-off) configuration. The request path is instrumented for the
/// flight recorder, but with tracing disabled every instrumentation site
/// must cost one predicted branch — this section's events/wall metrics hold
/// that "default off ⇒ free" promise against the committed baseline.
fn trace_off(n: usize) -> (GatewayReport, SimRunStats, Vec<GateMetric>) {
    let specs = first_workload::catalog(n);
    let spec = specs
        .iter()
        .find(|s| s.name == "burst")
        .expect("catalog scenario 'burst' missing");
    let seed = first_bench::benchmark_seed();
    let meter = SimMeter::start();
    let report = ScenarioRun::new(spec)
        .seed(seed)
        .execute()
        .expect("gate scenario runs")
        .report;
    let sim = meter.finish(SimTime::from_secs_f64(report.duration_s));
    assert!(
        report.phases.is_none(),
        "default TraceConfig must leave the flight recorder off"
    );
    let metrics = vec![
        GateMetric::higher("trace_off/completed", report.completed as f64, 0.001),
        GateMetric::lower(
            "trace_off/events_processed",
            sim.events_processed as f64,
            0.10,
        ),
        GateMetric::lower("trace_off/wall_time_s", sim.wall_time_s, WALL).with_floor(WALL_FLOOR),
    ];
    (report, sim, metrics)
}

/// Event-queue micro-benchmark: schedule-then-drain churn on the desim
/// kernel's future-event list, the `TimingWheel` (the `pop_due` hot path).
/// The wheel is unmetered, so the loop records each pop and each batch's
/// depth into the kernel counters itself.
fn queue_drain_micro() -> (SimRunStats, Vec<GateMetric>) {
    const EVENTS: u64 = 200_000;
    const BATCH: u64 = 50;
    let meter = SimMeter::start();
    let mut q: TimingWheel<u64> = TimingWheel::with_capacity(BATCH as usize * 2);
    let mut fired = 0u64;
    let mut t = 0u64;
    while fired < EVENTS {
        for i in 0..BATCH {
            q.push(SimTime::from_micros(t + BATCH + i), i);
        }
        kernel::record_queue_depth(q.len());
        // The first drain lands before anything is due — the empty case the
        // allocation-free fast path covers.
        assert!(
            q.pop_due(SimTime::from_micros(t)).is_none(),
            "no event is due before its batch window"
        );
        while q.pop_due(SimTime::from_micros(t + 2 * BATCH)).is_some() {
            kernel::record_event();
            fired += 1;
        }
        t += BATCH;
    }
    let sim = meter.finish(SimTime::from_micros(t));
    let metrics = vec![
        GateMetric::lower(
            "queue_micro/events_processed",
            sim.events_processed as f64,
            0.001,
        ),
        GateMetric::lower("queue_micro/wall_time_s", sim.wall_time_s, WALL).with_floor(WALL_FLOOR),
    ];
    (sim, metrics)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let inject_regression = args.iter().any(|a| a == "--inject-regression");
    if let Some(unknown) = args
        .iter()
        .find(|a| a.as_str() != "--write-baseline" && a.as_str() != "--inject-regression")
    {
        eprintln!("unknown argument: {unknown}");
        eprintln!("usage: perf_gate [--write-baseline | --inject-regression]");
        std::process::exit(2);
    }
    if write_baseline && inject_regression {
        // Never let the self-test's falsified numbers become the baseline.
        eprintln!("--write-baseline and --inject-regression are mutually exclusive");
        std::process::exit(2);
    }

    let n = benchmark_request_count();
    let (r1, s1, m1) = gateway_rate5(n);
    let (r2, s2, m2) = federated_inf(n);
    let (r3, s3, m3) = scale_inf(n);
    let (s4, m4) = queue_drain_micro();
    let (mut scenario_runs, s5, m5) = scenario_subset(n);
    let (r6, s6, m6) = trace_off(n);
    scenario_runs.push(r6);
    let mut sim = s1;
    sim.merge(&s2);
    sim.merge(&s3);
    sim.merge(&s4);
    sim.merge(&s5);
    sim.merge(&s6);

    let mut artifact = BenchArtifact::new("perf_gate")
        .with_scenarios(&[r1, r2, r3])
        .with_scenario_runs(&scenario_runs)
        .with_sim(sim);
    for mut m in m1
        .into_iter()
        .chain(m2)
        .chain(m3)
        .chain(m4)
        .chain(m5)
        .chain(m6)
    {
        if inject_regression {
            // Synthetic 2x regression in the bad direction of every metric:
            // the gate must fail, proving the comparison still bites.
            m.value = if m.higher_is_better {
                m.value / 2.0
            } else {
                m.value * 2.0
            };
        }
        artifact = artifact.with_metric(m);
    }
    print_sim_stats(&artifact.sim);
    if inject_regression {
        // Self-test mode: the metrics are deliberately falsified, so never
        // overwrite the honest BENCH_perf_gate.json CI uploads and baseline
        // refreshes read from.
        println!("(--inject-regression: artifact not written)");
    } else {
        artifact.write().expect("artifact written");
    }

    let baselines = first_bench::baseline_dir();
    if write_baseline {
        let path = artifact.write_to(&baselines).expect("baseline written");
        println!("baseline refreshed: {}", path.display());
        return;
    }

    let baseline = match BenchArtifact::read_from(&baselines, "perf_gate") {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "no usable baseline ({e}); bootstrap one with `cargo run --release -p \
                 first-bench --bin perf_gate -- --write-baseline` and commit {}",
                baselines.join("BENCH_perf_gate.json").display()
            );
            std::process::exit(2);
        }
    };
    match gate_compare(&artifact, &baseline) {
        Ok(result) => {
            println!("\n== perf gate vs {} ==", baselines.display());
            print!("{}", result.render());
            if result.failed() {
                eprintln!(
                    "\nPERF GATE FAILED — fix the regression, or refresh the baseline with \
                     `perf_gate -- --write-baseline` and justify the change in the PR"
                );
                std::process::exit(1);
            }
            println!("\nperf gate passed");
        }
        Err(e) => {
            eprintln!("perf gate error: {e}");
            std::process::exit(2);
        }
    }
}
