//! Direct exercises of the `first-core::invariants` public API: the clock
//! monitor, the run ledger, the run-invariant checker over a hand-driven
//! gateway, and replay-mode conservation against a real recorded cassette.
//! These cover the checker *as a library* — independent of the front-tier
//! check every `ScenarioRun` closes with.

use first_core::{
    check_replay_invariants, check_run_invariants, ChatCompletionRequest, ClockMonitor,
    DeploymentBuilder, RunLedger, ScenarioRun,
};
use first_desim::{SimProcess, SimTime};
use first_workload::{ArrivalProcess, DeploymentRef, ScenarioSpec, TenantClass};

const MODEL: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";

#[test]
fn clock_monitor_tracks_monotone_and_backward_steps() {
    let mut clock = ClockMonitor::new();
    assert_eq!(clock.last(), SimTime::ZERO);
    assert!(clock.observe(SimTime::from_secs(3)));
    assert!(clock.observe(SimTime::from_secs(3)), "repeats are monotone");
    assert!(!clock.observe(SimTime::from_secs(1)), "backward step");
    assert!(
        !clock.observe(SimTime::ZERO),
        "still behind the high-water mark"
    );
    assert_eq!(clock.violations(), 2);
    // A backward step never lowers the high-water mark.
    assert_eq!(clock.last(), SimTime::from_secs(3));
    assert!(clock.observe(SimTime::from_secs(4)));
    assert_eq!(clock.violations(), 2);
}

#[test]
fn ledger_counts_submissions_and_responses() {
    let mut ledger = RunLedger::new();
    ledger.on_submission(true);
    ledger.on_submission(true);
    ledger.on_submission(false);
    ledger.on_response(true);
    ledger.on_response(false);
    assert_eq!(
        (ledger.offered, ledger.accepted, ledger.rejected),
        (3, 2, 1)
    );
    assert_eq!((ledger.completed, ledger.failed), (1, 1));
}

/// Drive a small run by hand, ledger alongside, and check every invariant.
#[test]
fn hand_driven_run_satisfies_the_checker() {
    let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let mut ledger = RunLedger::new();
    for i in 0..8u64 {
        let req = ChatCompletionRequest::simple(MODEL, &format!("direct {i}"), 96);
        let ok = gw
            .chat_completions(&req, &tokens.alice, Some(64), SimTime::from_secs(i * 2))
            .is_ok();
        ledger.on_submission(ok);
    }
    let mut now = SimTime::ZERO;
    while let Some(t) = SimProcess::next_event_time(&gw) {
        now = now.max(t);
        ledger.clock.observe(now);
        gw.advance(now);
        for r in gw.take_responses() {
            ledger.on_response(r.success);
        }
        if gw.is_drained() {
            break;
        }
    }
    ledger.drained = gw.is_drained();
    check_run_invariants(&gw, &ledger).expect("hand-driven run holds all invariants");
    assert_eq!(ledger.offered, ledger.accepted + ledger.rejected);
    assert_eq!(ledger.completed + ledger.failed, ledger.accepted);
}

#[test]
fn each_forged_ledger_defect_is_named_in_the_violations() {
    let (gw, _tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let clean = RunLedger {
        offered: 4,
        accepted: 4,
        rejected: 0,
        completed: 4,
        failed: 0,
        clock: ClockMonitor::new(),
        drained: true,
    };
    check_run_invariants(&gw, &clean).expect("baseline forged ledger is clean");

    // Conservation at the submission boundary.
    let unbalanced = RunLedger {
        rejected: 1,
        ..clean.clone()
    };
    let v = check_run_invariants(&gw, &unbalanced).unwrap_err();
    assert!(v.iter().any(|m| m.contains("offered")), "{v:?}");

    // More answers than acceptances is wrong even mid-run.
    let overdelivered = RunLedger {
        completed: 5,
        drained: false,
        ..clean.clone()
    };
    let v = check_run_invariants(&gw, &overdelivered).unwrap_err();
    assert!(v.iter().any(|m| m.contains("more responses")), "{v:?}");

    // A backwards clock is reported no matter how the counts look.
    let mut clock = ClockMonitor::new();
    clock.observe(SimTime::from_secs(9));
    clock.observe(SimTime::from_secs(1));
    let time_traveller = RunLedger { clock, ..clean };
    let v = check_run_invariants(&gw, &time_traveller).unwrap_err();
    assert!(v.iter().any(|m| m.contains("backwards")), "{v:?}");
}

/// Replay-mode conservation against a genuinely recorded cassette: the
/// recorded report passes, and every forgeable divergence — count, seed,
/// scenario name, tenant partition — is called out by name.
#[test]
fn replay_conservation_holds_for_a_real_recording_and_names_forgeries() {
    let spec = ScenarioSpec::new(
        "replay-conservation",
        "two-tenant recording for replay invariant checks",
        DeploymentRef::SingleClusterTest,
        vec![
            TenantClass::synthetic("gold", 6, ArrivalProcess::Poisson(2.0), MODEL),
            TenantClass::synthetic("bronze", 4, ArrivalProcess::FixedRate(1.0), MODEL),
        ],
    );
    let out = ScenarioRun::new(&spec)
        .seed(7)
        .recorded()
        .execute()
        .expect("spec records");
    let (report, cassette) = (out.report, out.cassette.expect("recorded"));

    // The genuine pair conserves: offered == cassette length, per tenant too.
    check_replay_invariants(&report, &cassette).expect("recording conserves");
    assert_eq!(report.offered, cassette.len());

    // Whole-run count forgery.
    let mut forged = report.clone();
    forged.offered += 1;
    let v = check_replay_invariants(&forged, &cassette).unwrap_err();
    assert!(v.iter().any(|m| m.contains("recorded")), "{v:?}");

    // Identity forgeries.
    let mut renamed = report.clone();
    renamed.scenario = "somebody-else".to_string();
    renamed.seed = 8;
    let v = check_replay_invariants(&renamed, &cassette).unwrap_err();
    assert!(v.iter().any(|m| m.contains("scenario")), "{v:?}");
    assert!(v.iter().any(|m| m.contains("seed")), "{v:?}");

    // Per-tenant partition forgeries: a dropped partition, then a renamed
    // tenant with a shifted per-tenant count.
    let mut dropped = report.clone();
    dropped.tenants.pop();
    let v = check_replay_invariants(&dropped, &cassette).unwrap_err();
    assert!(v.iter().any(|m| m.contains("partition")), "{v:?}");

    let mut shifted = report.clone();
    shifted.tenants[0].tenant = "impostor".to_string();
    shifted.tenants[1].offered += 1;
    let v = check_replay_invariants(&shifted, &cassette).unwrap_err();
    assert!(v.iter().any(|m| m.contains("impostor")), "{v:?}");
    assert!(v.iter().any(|m| m.contains("bronze")), "{v:?}");
}
