//! Million-request scale sweep: drives the gateway at n = 100k–1M requests
//! per point and emits `BENCH_scale_sweep.json` (wall clock, events/s, and
//! the peak-queue-depth memory proxy per point).
//!
//! Points are (arrival rate × seed) combinations over independent
//! deployments, so the sweep fans out across `FIRST_BENCH_THREADS` workers
//! (default = available cores; 1 = sequential). The reported simulation
//! metrics are bit-identical whatever the thread count — only the wall
//! clock changes.
//!
//! Request count: `FIRST_BENCH_REQUESTS` when set, otherwise 100 000 (this
//! binary exists to prove the scale story, so its default is 100x the other
//! binaries'; CI smoke runs it at 2000). Aim it at a million with
//! `FIRST_BENCH_REQUESTS=1000000`.
//!
//! The sweep ends with a **sharded federation point**: the same total
//! request budget replayed through `FIRST_SCALE_SHARDS` peer gateway shards
//! (default 4) by [`SHARD_USERS`] tenants, `user-0` …, consistent-hashed
//! across the shards — the horizontal path past the single-gateway serial
//! ceiling, reported per shard (when there are at least two) and in
//! aggregate. Every point, the sharded one too, is a `ScenarioRun` and ends
//! with its conservation check. `FIRST_SCALE_SHARD_REQUESTS` overrides the
//! sharded point's budget independently (that is how the committed
//! ≥10M-request artifact point is produced without rerunning the
//! per-gateway sweep at 10M).

use first_bench::{
    aggregate_stats, arrivals, benchmark_seed, print_reports, print_sim_stats, sharegpt_samples,
    BenchArtifact, GateMetric, PointStats, ScenarioExecutor,
};
use first_core::{ScenarioReport, ScenarioRun, ShardReport, ShardingConfig};
use first_desim::{SimMeter, SimTime};
use first_workload::{
    ArrivalProcess, DeploymentRef, ReplayEntry, ReplayTrack, ScenarioSpec, TenantClass,
};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

/// Default request count (overridden by `FIRST_BENCH_REQUESTS`).
const DEFAULT_REQUESTS: usize = 100_000;

/// Horizon, seconds. A million requests at the dispatcher's ~25 req/s
/// ceiling cover ~11 virtual hours; give the drain comfortable headroom.
const HORIZON_S: f64 = 14.0 * 24.0 * 3600.0;

/// Tenants of the sharded point, and so its routing keys: enough distinct
/// users that the consistent-hash split stays statistically balanced.
const SHARD_USERS: usize = 256;

fn request_count() -> usize {
    std::env::var("FIRST_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_REQUESTS)
}

/// Shard count for the federation point (`FIRST_SCALE_SHARDS`, default 4).
fn shard_count() -> usize {
    std::env::var("FIRST_SCALE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|s: usize| s.max(1))
        .unwrap_or(4)
}

/// Request budget for the sharded point: `FIRST_SCALE_SHARD_REQUESTS` when
/// set, otherwise the sweep's own budget.
fn shard_request_count(default: usize) -> usize {
    std::env::var("FIRST_SCALE_SHARD_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The sharded point's spec: `total` requests at infinite rate (the
/// deep-backlog regime every shard's dispatcher ceiling shapes) on the
/// one-instance Sophia deployment, replayed by [`SHARD_USERS`] tenants,
/// request `i` by `user-{i % SHARD_USERS}`.
fn sharded_spec(total: usize, seed: u64) -> ScenarioSpec {
    let samples = sharegpt_samples(total, seed.wrapping_add(2));
    let arr = arrivals(
        ArrivalProcess::Infinite,
        total,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(11),
    );
    let mut tracks: Vec<Vec<ReplayEntry>> = vec![Vec::new(); SHARD_USERS];
    for (i, (s, at)) in samples.into_iter().zip(arr).enumerate() {
        tracks[i % SHARD_USERS].push(ReplayEntry {
            at,
            model: MODEL.to_string(),
            prompt_tokens: s.prompt_tokens,
            output_tokens: s.output_tokens,
        });
    }
    let tenants = tracks
        .into_iter()
        .enumerate()
        .map(|(u, entries)| {
            let n = entries.len();
            let replay = ArrivalProcess::Replay(ReplayTrack { entries });
            TenantClass::synthetic(&format!("user-{u}"), n, replay, MODEL)
        })
        .collect();
    let mut spec = ScenarioSpec::new(
        "scale-sharded",
        "sharded federation point",
        DeploymentRef::SophiaSingleInstance,
        tenants,
    );
    spec.horizon_s = HORIZON_S;
    spec
}

/// The sharded federation point: [`sharded_spec`] run over `shards` peer
/// gateways. Returns the aggregate report, the per-shard rows (none for one
/// shard) and the kernel measurement.
fn sharded_point(
    shards: usize,
    total: usize,
    seed: u64,
) -> (ScenarioReport, Vec<ShardReport>, first_desim::SimRunStats) {
    let spec = sharded_spec(total, seed);
    let meter = SimMeter::start();
    let mut out = ScenarioRun::new(&spec)
        .sharding(ShardingConfig::with_shards(shards))
        .execute()
        .expect("unrecorded run");
    let rows = out.report.shards.take().map_or_else(Vec::new, |s| s.shards);
    let label = format!("scale sharded x{shards}");
    let report = ScenarioReport::from_run(&label, "inf", &out.report, out.latencies);
    let sim = meter.finish(SimTime::from_secs_f64(report.duration_s));
    (report, rows, sim)
}

fn main() {
    let n = request_count();
    let base_seed = benchmark_seed();
    // Multi-point sweep: two independent seeds per rate, so the executor has
    // parallel work and the artifact shows seed sensitivity at scale.
    let rates = [
        ArrivalProcess::FixedRate(10.0),
        ArrivalProcess::FixedRate(20.0),
        ArrivalProcess::Infinite,
    ];
    let seeds = [base_seed, base_seed.wrapping_add(1)];
    let points: Vec<(ArrivalProcess, u64)> = rates
        .iter()
        .flat_map(|r| seeds.iter().map(move |&s| (r.clone(), s)))
        .collect();

    let executor = ScenarioExecutor::from_env();
    println!(
        "scale sweep: {} requests x {} points ({} threads)",
        n,
        points.len(),
        executor.threads()
    );
    let harness = std::time::Instant::now();
    let runs = executor.run(points, |_, (rate, seed)| {
        let samples = sharegpt_samples(n, seed);
        let label = rate.label();
        let arr = arrivals(rate, n, seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
        let mut spec = ScenarioSpec::one_tenant_replay(
            "scale",
            DeploymentRef::SophiaSingleInstance,
            MODEL,
            samples,
            &arr,
        );
        spec.horizon_s = HORIZON_S;
        let out = ScenarioRun::new(&spec).execute().expect("unrecorded run");
        ScenarioReport::from_run(
            &format!("scale seed={seed}"),
            &label,
            &out.report,
            out.latencies,
        )
    });

    let stats: Vec<PointStats> = runs.iter().map(|r| r.stats).collect();
    let reports: Vec<ScenarioReport> = runs.into_iter().map(|r| r.result).collect();
    let wall = harness.elapsed().as_secs_f64();
    let sim_secs: f64 = reports.iter().map(|r| r.duration_s).sum();
    // Round-trip through integer-microsecond SimTime, exactly as a
    // single-threaded SimMeter::finish would have.
    let sim_secs = SimTime::from_secs_f64(sim_secs).as_secs_f64();
    let sim = aggregate_stats(stats.iter().copied(), wall, sim_secs);

    print_reports(&format!("Scale sweep — {n} requests/point"), &reports);

    // Sharded federation point: same deployment template, `k` peer gateway
    // shards, consistent-hash fan-out. Runs after the executor (it is a
    // single sequential point — the shards interleave on one virtual clock).
    let k = shard_count();
    let shard_n = shard_request_count(n);
    println!("\nsharded point: {shard_n} requests over {k} shard(s)");
    let (shard_report, shard_rows, shard_sim) = sharded_point(k, shard_n, base_seed);
    print_reports(
        &format!("Sharded federation — {shard_n} requests, {k} shards"),
        std::slice::from_ref(&shard_report),
    );
    println!("{}", ShardReport::table_header());
    for row in &shard_rows {
        println!("{}", row.table_row());
    }

    let completed: usize = reports.iter().map(|r| r.completed).sum();
    let offered: usize = reports.iter().map(|r| r.offered).sum();
    let slowest_point_wall = stats.iter().map(|s| s.wall_time_s).fold(0.0, f64::max);
    let events_per_sec = sim.events_per_sec();

    let mut artifact = BenchArtifact::new("scale_sweep")
        .with_scenarios(&reports)
        .with_metric(GateMetric::higher(
            "scale/completed",
            completed as f64,
            0.001,
        ))
        .with_metric(GateMetric::lower(
            "scale/events_processed",
            sim.events_processed as f64,
            0.10,
        ))
        .with_metric(GateMetric::lower(
            "scale/peak_queue_depth",
            sim.peak_queue_depth as f64,
            0.10,
        ))
        .with_metric(GateMetric::lower("scale/wall_time_s", sim.wall_time_s, 4.0).with_floor(0.25));
    // Per-point wall + events/s rows make the sweep's parallel behaviour
    // visible in the artifact (the deterministic rows above gate it).
    for (report, stat) in reports.iter().zip(&stats) {
        artifact = artifact.with_metric(GateMetric::lower(
            &format!(
                "scale/point_wall_s/{}@{}",
                report.label.replace(' ', "_"),
                report.offered_rate
            ),
            stat.wall_time_s,
            8.0,
        ));
    }
    // Sharded-point rows: aggregate throughput plus a per-shard breakdown,
    // so the artifact carries both views of the federation point.
    artifact = artifact
        .with_metric(GateMetric::higher(
            &format!("scale_sharded/x{k}/requests"),
            shard_n as f64,
            0.001,
        ))
        .with_metric(GateMetric::higher(
            &format!("scale_sharded/x{k}/completed"),
            shard_report.completed as f64,
            0.001,
        ))
        .with_metric(GateMetric::lower(
            &format!("scale_sharded/x{k}/events_processed"),
            shard_sim.events_processed as f64,
            0.10,
        ))
        .with_metric(GateMetric::lower(
            &format!("scale_sharded/x{k}/wall_time_s"),
            shard_sim.wall_time_s,
            8.0,
        ));
    for row in &shard_rows {
        artifact = artifact
            .with_metric(GateMetric::higher(
                &format!("scale_sharded/x{k}/shard{}/completed", row.shard),
                row.completed as f64,
                0.001,
            ))
            .with_metric(GateMetric::lower(
                &format!("scale_sharded/x{k}/shard{}/peak_load_depth", row.shard),
                row.peak_load_depth as f64,
                0.10,
            ));
    }
    // The artifact's `requests` field records the *per-point* request count
    // (this binary's own default differs from the shared helper's 1000).
    artifact.requests = n;
    let artifact = artifact.with_sim(sim);
    print_sim_stats(&artifact.sim);
    println!(
        "scale: {completed}/{offered} completed, {:.0} events/s, slowest point {slowest_point_wall:.3}s wall",
        events_per_sec
    );
    artifact.write().expect("artifact written");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_point_completes_every_request_and_its_shards_sum_to_the_run() {
        let (report, rows, _) = sharded_point(4, 2_000, 42);
        assert_eq!(report.offered, 2_000);
        assert_eq!(report.completed, report.offered);
        assert_eq!(rows.len(), 4);
        let sum = |field: fn(&ShardReport) -> usize| rows.iter().map(field).sum::<usize>();
        // Every request completed, so the run ledger accepted all of them
        // and failed or rejected none.
        assert_eq!(sum(|r| r.offered), report.offered);
        assert_eq!(sum(|r| r.accepted), report.offered);
        assert_eq!(sum(|r| r.completed), report.completed);
        assert_eq!(sum(|r| r.failed), 0);
        assert_eq!(sum(|r| r.rejected), 0);
    }
}
