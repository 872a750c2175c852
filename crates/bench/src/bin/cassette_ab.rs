//! Cassette A/B runner: record one catalog scenario, prove the recording
//! replays byte-identically, then replay the *same* recorded traffic against
//! deployment/fault variants and report per-tenant SLO diffs.
//!
//! The recording is the control: every variant sees the exact request stream
//! (arrival times, models, token lengths, priorities) the baseline saw, so
//! any metric movement is attributable to the variant alone — "what if this
//! exact Tuesday had hit the federated deployment / a fault storm / a cold
//! cluster?". Every run is traced (`sample_every = 1`), so each variant also
//! carries per-phase latency diffs attributing *where* in the request
//! lifecycle the movement happened. Emits the schema-v1
//! `BENCH_cassette_ab.json` artifact with one [`CassetteAbRun`] per variant
//! (tenant + phase diffs) plus a [`TraceSection`] for the recording, and
//! writes the recorded cassette itself to `CASSETTE_<scenario>.json` next to
//! it.
//!
//! Env: `FIRST_CASSETTE_SCENARIO` picks the catalog scenario (default
//! `burst`); `FIRST_BENCH_REQUESTS` / `FIRST_BENCH_SEED` scale and seed the
//! recording as everywhere else. The `replay-identity` variant is a hard
//! assertion — the binary exits non-zero if the replayed report is not
//! byte-identical to the recording.

use first_bench::{
    benchmark_request_count, benchmark_seed, print_sim_stats, report::artifact_out_dir,
    BenchArtifact, CassetteAbRun, GateMetric, PhaseDiff, TenantSloDiff, TraceSection,
};
use first_core::{GatewayReport, ScenarioRun};
use first_desim::{SimMeter, SimTime};
use first_telemetry::TraceConfig;
use first_workload::{catalog, Cassette, DeploymentRef, ScenarioSpec};

/// One deployment/fault mutation applied to the recorded spec.
struct Variant {
    name: &'static str,
    description: String,
    spec: ScenarioSpec,
}

/// Build the variant sweep from the cassette's compiled spec: a different
/// deployment, a seeded fault storm, and a cold start. The recorded traffic
/// is identical in every one.
fn variants(cassette: &Cassette) -> Vec<Variant> {
    let base = cassette.to_spec().expect("recorded cassette compiles");

    // Swap the deployment: federated if the recording was single-site, the
    // 24-node Sophia deployment if it was already federated.
    let (alt_deployment, alt_label) = match base.deployment {
        DeploymentRef::FederatedSophiaPolaris => (DeploymentRef::Sophia, "sophia"),
        _ => (DeploymentRef::FederatedSophiaPolaris, "federated"),
    };
    let mut deployment = base.clone();
    deployment.deployment = alt_deployment;

    let mut chaos = base.clone();
    chaos.resilience = true;
    chaos.faults = first_chaos::FaultPlan::seeded(
        cassette.seed ^ 0xFA17_5EED,
        SimTime::from_secs(5),
        SimTime::from_secs_f64(cassette.horizon_s.min(600.0)),
        &[
            "sophia-endpoint".to_string(),
            "polaris-endpoint".to_string(),
        ],
        8,
    );

    let mut cold = base;
    cold.prewarm = 0;

    vec![
        Variant {
            name: alt_label,
            description: format!("same traffic on the {alt_deployment:?} deployment"),
            spec: deployment,
        },
        Variant {
            name: "chaos-faults",
            description: "same traffic under a seeded mixed-fault schedule with the production \
                          resilience profile"
                .to_string(),
            spec: chaos,
        },
        Variant {
            name: "cold-start",
            description: "same traffic with nothing pre-warmed".to_string(),
            spec: cold,
        },
    ]
}

fn phase_diff_table(runs: &[CassetteAbRun]) {
    println!("\n== per-phase latency diffs vs recording ==");
    println!(
        "{:<18} {:<14} {:>11} {:>11} {:>11} {:>10} {:>10}",
        "variant", "phase", "mean base", "mean var", "d_mean", "p95 base", "p95 var"
    );
    for run in runs {
        for d in &run.phase_diffs {
            println!(
                "{:<18} {:<14} {:>10.4}s {:>10.4}s {:>+10.4}s {:>9.3}s {:>9.3}s",
                run.variant,
                d.phase,
                d.baseline_mean_s,
                d.variant_mean_s,
                d.d_mean_s,
                d.baseline_p95_s,
                d.variant_p95_s,
            );
        }
    }
}

fn diff_table(runs: &[CassetteAbRun]) {
    println!("\n== per-tenant SLO diffs vs recording ==");
    println!(
        "{:<18} {:<18} {:>10} {:>10} {:>9} {:>8} {:>8} {:>11}",
        "variant", "tenant", "p95 base", "p95 var", "d_p95", "av base", "av var", "slo"
    );
    for run in runs {
        for d in &run.tenant_diffs {
            println!(
                "{:<18} {:<18} {:>9.1}s {:>9.1}s {:>+8.1}s {:>7.2}% {:>7.2}% {:>5}->{}",
                run.variant,
                d.tenant,
                d.baseline_p95_s,
                d.variant_p95_s,
                d.d_p95_s,
                d.baseline_availability * 100.0,
                d.variant_availability * 100.0,
                if d.slo_met_baseline { "met" } else { "MISS" },
                if d.slo_met_variant { "met" } else { "MISS" },
            );
        }
    }
}

fn main() {
    let n = benchmark_request_count();
    let seed = benchmark_seed();
    let scenario = std::env::var("FIRST_CASSETTE_SCENARIO").unwrap_or_else(|_| "burst".to_string());

    let spec = catalog(n)
        .into_iter()
        .find(|s| s.name == scenario)
        .unwrap_or_else(|| {
            eprintln!("unknown catalog scenario '{scenario}'");
            std::process::exit(2);
        });

    // Trace every request on both sides of the A/B: the recording and every
    // replay variant run under the same `TraceConfig`, so the byte-identity
    // check still holds (the `phases` section is deterministic) and each
    // variant yields a per-phase diff attributing *where* latency moved.
    let trace = TraceConfig::every_request(n.max(1));

    let meter = SimMeter::start();
    println!("recording '{scenario}' (budget {n} requests, seed {seed})...");
    let base_out = ScenarioRun::new(&spec)
        .seed(seed)
        .recorded()
        .traced(trace)
        .execute()
        .expect("catalog scenario records");
    let (base_report, cassette, base_trees) = (
        base_out.report,
        base_out.cassette.expect("recorded"),
        base_out.traces.expect("traced"),
    );
    print!("{}", base_report.render_text());

    let cassette_path = artifact_out_dir().join(format!("CASSETTE_{scenario}.json"));
    cassette.save(&cassette_path).expect("cassette written");
    println!(
        "cassette: {} entries, {} fault events -> {}",
        cassette.len(),
        cassette.faults.len(),
        cassette_path.display()
    );

    // Variant 0 — replay identity: the headline guarantee, enforced hard.
    let replayed = ScenarioRun::replay(&cassette)
        .expect("cassette compiles")
        .traced(trace)
        .execute()
        .expect("cassette replays")
        .report;
    let base_json = serde_json::to_string(&base_report).expect("report serializes");
    let replay_json = serde_json::to_string(&replayed).expect("report serializes");
    if base_json != replay_json {
        eprintln!("FATAL: replay diverged from the recording");
        eprintln!("  recorded: {base_json}");
        eprintln!("  replayed: {replay_json}");
        std::process::exit(1);
    }
    println!("replay-identity: byte-identical report ok");

    let tenant_names: Vec<String> = base_report
        .tenants
        .iter()
        .map(|t| t.tenant.clone())
        .collect();
    let diffs_vs_base = |report: &GatewayReport| -> Vec<TenantSloDiff> {
        tenant_names
            .iter()
            .filter_map(|t| TenantSloDiff::between(&base_report, report, t))
            .collect()
    };
    let phase_diffs_vs_base = |report: &GatewayReport| -> Vec<PhaseDiff> {
        match (&base_report.phases, &report.phases) {
            (Some(base), Some(var)) => PhaseDiff::between(base, var),
            _ => Vec::new(),
        }
    };

    let mut runs = vec![CassetteAbRun {
        variant: "replay-identity".to_string(),
        description: "byte-identical replay of the recording (control)".to_string(),
        tenant_diffs: diffs_vs_base(&replayed),
        phase_diffs: phase_diffs_vs_base(&replayed),
        report: replayed,
    }];
    for variant in variants(&cassette) {
        println!("\nreplaying variant '{}'...", variant.name);
        let report = ScenarioRun::new(&variant.spec)
            .seed(cassette.seed)
            .traced(trace)
            .execute()
            .expect("variant runs")
            .report;
        print!("{}", report.render_text());
        runs.push(CassetteAbRun {
            variant: variant.name.to_string(),
            description: variant.description,
            tenant_diffs: diffs_vs_base(&report),
            phase_diffs: phase_diffs_vs_base(&report),
            report,
        });
    }

    diff_table(&runs);
    phase_diff_table(&runs);

    let sim_secs: f64 = std::iter::once(&base_report)
        .chain(runs.iter().map(|r| &r.report))
        .map(|r| r.duration_s)
        .sum();
    let sim = meter.finish(SimTime::from_secs_f64(sim_secs));

    let mut artifact = BenchArtifact::new("cassette_ab")
        .with_scenario_runs(std::slice::from_ref(&base_report))
        .with_cassette_ab(&runs);
    if let Some(breakdown) = base_report.phases.clone() {
        artifact = artifact.with_trace(TraceSection {
            scenario: scenario.clone(),
            sample_every: trace.sample_every,
            trees: base_trees.len() as u64,
            breakdown,
        });
    }
    for run in &runs {
        artifact = artifact
            .with_metric(GateMetric::higher(
                &format!("cassette/{scenario}/{}/completed", run.variant),
                run.report.completed as f64,
                0.001,
            ))
            .with_metric(GateMetric::higher(
                &format!("cassette/{scenario}/{}/slo_attained_tenants", run.variant),
                run.report.slo_attained_tenants as f64,
                0.001,
            ));
    }
    artifact = artifact.with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
