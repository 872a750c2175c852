//! Cross-crate scenario-matrix tests: the declarative catalog runs end to
//! end through the façade, per-tenant partitions line up with the request
//! log, Table 1's closed-loop WebUI sessions honor their generated think
//! times, and every run passes the invariant checker.

use first::core::{
    check_run_invariants, run_webui_closed_loop, DeploymentBuilder, RunLedger, ScenarioRun,
};
use first::desim::{SimDuration, SimTime};
use first::workload::{catalog, generate_sessions, SessionWorkloadConfig, TenantWorkload};

const MODEL_8B: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";

#[test]
fn catalog_scenarios_run_end_to_end_with_per_tenant_partitions() {
    // Every `ScenarioRun` also executes the invariant checker after the
    // scenario, in every build, so this doubles as the conservation proof
    // for each exercised deployment shape.
    let specs = catalog(48);
    for name in ["steady", "multi-tenant-contention", "chaos-under-load"] {
        let spec = specs.iter().find(|s| s.name == name).expect("in catalog");
        let report = ScenarioRun::new(spec).seed(42).execute().unwrap().report;
        assert_eq!(report.offered, report.accepted + report.rejected, "{name}");
        assert_eq!(
            report.accepted,
            report.completed + report.failed,
            "{name} lost requests"
        );
        assert_eq!(report.tenants.len(), spec.tenants.len(), "{name}");
        for tenant in &report.tenants {
            assert_eq!(
                tenant.offered,
                tenant.completed + tenant.failed + tenant.rejected,
                "{name}/{} tenant conservation",
                tenant.tenant
            );
        }
    }
    // The chaos scenario actually injected faults.
    let chaos = specs
        .iter()
        .find(|s| s.name == "chaos-under-load")
        .expect("in catalog");
    let report = ScenarioRun::new(chaos).seed(42).execute().unwrap().report;
    assert!(report.faults_injected > 0, "chaos plan applied");
}

#[test]
fn trace_replay_scenario_preserves_the_trace_shape() {
    let specs = catalog(64);
    let spec = specs
        .iter()
        .find(|s| s.name == "trace-replay")
        .expect("in catalog");
    assert!(matches!(
        spec.tenants[0].workload,
        TenantWorkload::TraceReplay { .. }
    ));
    let report = ScenarioRun::new(spec).seed(42).execute().unwrap().report;
    assert!(report.completed > 0);
    // The trace tenant spreads over several models (popularity skew).
    let compiled = spec.compile(42);
    let mut models: Vec<&str> = compiled.requests.iter().map(|r| r.model.as_str()).collect();
    models.sort_unstable();
    models.dedup();
    assert!(
        models.len() >= 2,
        "trace replay uses a model mix: {models:?}"
    );
}

#[test]
fn session_think_times_are_honored_by_the_closed_loop() {
    // One session, hot 8B model: the only thing separating consecutive
    // turns is the response time plus the generated think time, so each
    // logged arrival must sit at least one think time after the previous
    // turn's delivery.
    let seed = 11u64;
    let config = SessionWorkloadConfig::table1(MODEL_8B, 1, 120);
    let overhead = SimDuration::from_millis(500);
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let cell = run_webui_closed_loop(&mut gateway, &tokens.alice, &config, overhead, seed);
    assert!(cell.completed >= 3, "several turns complete in 120 s");

    // Re-derive the exact session plan the run used (generation is a pure
    // function of (config, seed)) and check the log against its think times.
    let plan = &generate_sessions(&config, seed)[0];
    let entries = gateway.log().entries();
    assert!(entries.len() >= cell.completed);
    for i in 1..entries.len() {
        let think = plan.think_before(i);
        let gap = entries[i]
            .arrived_at
            .saturating_since(entries[i - 1].finished_at);
        assert!(
            gap >= think,
            "turn {i} arrived {:.3}s after turn {}'s delivery, but the plan's think time is {:.3}s",
            gap.as_secs_f64(),
            i - 1,
            think.as_secs_f64()
        );
    }

    // Longer thinking means fewer turns inside the same window.
    let slow_config = SessionWorkloadConfig {
        mean_think_time: SimDuration::from_secs(30),
        ..config
    };
    let (mut slow_gateway, slow_tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let slow_cell = run_webui_closed_loop(
        &mut slow_gateway,
        &slow_tokens.alice,
        &slow_config,
        overhead,
        seed,
    );
    assert!(
        slow_cell.completed < cell.completed,
        "30s think ({}) should complete fewer turns than 3s think ({})",
        slow_cell.completed,
        cell.completed
    );
}

#[test]
fn manual_driver_passes_the_invariant_checker() {
    use first::core::ChatCompletionRequest;
    use first::desim::SimProcess;

    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let mut ledger = RunLedger::new();
    for i in 0..12u64 {
        let req = ChatCompletionRequest::simple(MODEL_8B, &format!("inv sweep {i}"), 96);
        let accepted = gateway
            .chat_completions(&req, &tokens.bob, Some(64), SimTime::from_secs(i))
            .is_ok();
        ledger.on_submission(accepted);
    }
    let mut now = SimTime::ZERO;
    while let Some(t) = SimProcess::next_event_time(&gateway) {
        now = now.max(t);
        ledger.clock.observe(now);
        gateway.advance(now);
        for r in gateway.take_responses() {
            ledger.on_response(r.success);
        }
        if gateway.is_drained() {
            break;
        }
    }
    ledger.drained = gateway.is_drained();
    assert!(ledger.drained);
    check_run_invariants(&gateway, &ledger)
        .unwrap_or_else(|v| panic!("invariants violated: {v:?}"));
}
