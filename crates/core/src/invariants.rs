//! Post-run invariant checking for simulation drivers.
//!
//! Every scenario runner moves requests through the same lifecycle:
//! offered → accepted (or rejected at the API boundary) → completed or
//! failed. A [`RunLedger`] records what the driver observed on the way;
//! [`check_run_invariants`] then cross-checks the ledger against the
//! gateway's internal queues and asserts the three properties every correct
//! run must satisfy:
//!
//! 1. **Request conservation** — `offered == accepted + rejected`, and once
//!    the run drains, `accepted == completed + failed`: no request may
//!    vanish or be answered twice.
//! 2. **Monotone simulation clock** — the driver never advanced the gateway
//!    backwards.
//! 3. **No leaked tasks** — a drained gateway holds nothing in its pending,
//!    in-flight, awaiting-delivery, hedge-deadline or outstanding-copy
//!    slabs, and its fabric service holds no task record.
//!
//! [`crate::ScenarioRun`] closes every run with
//! `check_front_tier_invariants`, in every build, and panics on a
//! violation: each shard passes the single-gateway checks, and the per-shard
//! ledgers reconcile with the whole-run ledger through the front tier's
//! retries, sheds, crash losses, stale answers and spills. Table 1's closed loop,
//! [`crate::run_webui_closed_loop`], closes its run with
//! [`check_run_invariants`] and panics too; its window cuts turns off in
//! flight, so its ledger never claims a drained gateway. Integration tests
//! call [`check_run_invariants`] directly on their own single-gateway
//! loops.

use crate::gateway::Gateway;
use crate::scenario::{FailoverSection, GatewayReport};
use first_desim::SimTime;
use first_workload::Cassette;

/// Watches a driver's advance instants for monotonicity.
#[derive(Debug, Clone, Default)]
pub struct ClockMonitor {
    last: SimTime,
    violations: u64,
}

impl ClockMonitor {
    /// A monitor starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one advance instant; returns `false` (and counts a violation)
    /// when the clock moved backwards.
    pub fn observe(&mut self, now: SimTime) -> bool {
        if now < self.last {
            self.violations += 1;
            false
        } else {
            self.last = now;
            true
        }
    }

    /// Latest instant observed.
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// Number of backwards steps observed.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

/// What one driver observed over a run: the request-lifecycle counts and the
/// clock trace the invariant checker validates.
#[derive(Debug, Clone, Default)]
pub struct RunLedger {
    /// Requests the driver tried to submit.
    pub offered: usize,
    /// Requests the gateway accepted.
    pub accepted: usize,
    /// Requests rejected at the API boundary (auth, access, validation, no
    /// route).
    pub rejected: usize,
    /// Successful responses collected.
    pub completed: usize,
    /// Failed responses collected.
    pub failed: usize,
    /// The driver's clock trace.
    pub clock: ClockMonitor,
    /// Whether the run ended with the gateway drained (as opposed to being
    /// cut off by the horizon with work still in flight).
    pub drained: bool,
}

impl RunLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one submission attempt.
    pub fn on_submission(&mut self, accepted: bool) {
        self.offered += 1;
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }

    /// Record one collected response.
    pub fn on_response(&mut self, success: bool) {
        if success {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// The checks a ledger supports on its own: a monotone clock, `offered ==
/// accepted + rejected`, no more responses than acceptances, and `accepted
/// == completed + failed` once drained.
fn check_ledger(ledger: &RunLedger, violations: &mut Vec<String>) {
    if ledger.clock.violations() > 0 {
        violations.push(format!(
            "sim clock moved backwards {} time(s)",
            ledger.clock.violations()
        ));
    }
    if ledger.offered != ledger.accepted + ledger.rejected {
        violations.push(format!(
            "offered {} != accepted {} + rejected {}",
            ledger.offered, ledger.accepted, ledger.rejected
        ));
    }
    if ledger.completed + ledger.failed > ledger.accepted {
        violations.push(format!(
            "more responses ({} completed + {} failed) than accepted requests ({})",
            ledger.completed, ledger.failed, ledger.accepted
        ));
    }
    if ledger.drained && ledger.completed + ledger.failed != ledger.accepted {
        violations.push(format!(
            "drained run lost requests: accepted {} != completed {} + failed {}",
            ledger.accepted, ledger.completed, ledger.failed
        ));
    }
}

/// `Ok` when no invariant was violated.
fn verdict(violations: Vec<String>) -> Result<(), Vec<String>> {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Cross-check a finished run's ledger against the gateway's internal state.
/// Returns every violated invariant (empty = all hold).
pub fn check_run_invariants(gateway: &Gateway, ledger: &RunLedger) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    check_ledger(ledger, &mut violations);
    if ledger.drained {
        if !gateway.is_drained() {
            violations.push("ledger says drained but the gateway disagrees".to_string());
        }
        let queues = gateway.queue_snapshot();
        if queues.pending_dispatches != 0
            || queues.in_flight_tasks != 0
            || queues.tracked_tasks != 0
            || queues.awaiting_delivery != 0
            || queues.hedge_deadlines != 0
        {
            violations.push(format!("drained gateway leaks tasks: {queues:?}"));
        }
        if queues.outstanding_copies != 0 || queues.outstanding_slots != 0 {
            violations.push(format!(
                "drained gateway leaks {} outstanding copies in {} slots",
                queues.outstanding_copies, queues.outstanding_slots
            ));
        }
    }
    verdict(violations)
}

/// Conservation across the front tier, checked at the end of every
/// open-loop scenario run. The logical ledger (`total`) counts each client
/// request once; the per-shard ledgers count physical submissions, and each
/// must pass [`check_run_invariants`] against its own shard (a shard that
/// crashed never reports drained, since the copies it lost were purged, not
/// answered).
///
/// The two reconcile through the front tier's `counters`: retries add
/// physical submissions, typed sheds resolve a client request without one,
/// a give-up fails it without a physical answer, a crash loses copies in
/// flight, and a duplicate answer is dropped as stale. So, with `R` the
/// retries dispatched, `total.accepted ≤ Σ accepted ≤ total.accepted + R`,
/// `total.completed ≤ Σ completed ≤ total.completed + stale`, and
/// `total.failed − gave_up ≤ Σ failed ≤ total.failed − gave_up + stale`.
/// When nothing was re-dispatched, shed or dropped, the bounds collapse to
/// exact per-field sums. Every spill leaving one shard must also arrive at
/// another. Returns every violated invariant (empty = all hold).
pub(crate) fn check_front_tier_invariants(
    shards: &[Gateway],
    shard_ledgers: &[RunLedger],
    total: &RunLedger,
    counters: &FailoverSection,
    spilled_out: &[usize],
    spilled_in: &[usize],
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    if shards.len() != shard_ledgers.len() {
        violations.push(format!(
            "{} shards but {} shard ledgers",
            shards.len(),
            shard_ledgers.len()
        ));
        return Err(violations);
    }
    for (i, (gateway, ledger)) in shards.iter().zip(shard_ledgers).enumerate() {
        if let Err(shard_violations) = check_run_invariants(gateway, ledger) {
            for v in shard_violations {
                violations.push(format!("shard {i}: {v}"));
            }
        }
    }
    check_ledger(total, &mut violations);

    let c = counters;
    let sum = |f: fn(&RunLedger) -> usize| shard_ledgers.iter().map(f).sum::<usize>();
    let redispatched = c.retries_dispatched;
    let gave_up = c.shed_retries_exhausted;
    let stale = c.stale_responses;
    let phys_offered = sum(|l| l.offered);
    let phys_accepted = sum(|l| l.accepted);
    let phys_completed = sum(|l| l.completed);
    let phys_failed = sum(|l| l.failed);
    // Physical dispatch flow: every client request the front tier did not
    // shed pre-submit, plus every retry, hit exactly one shard.
    if phys_offered + c.shed_no_live_shard != total.offered + redispatched {
        violations.push(format!(
            "physical dispatch flow does not reconcile: shards saw {} submissions + shed {} \
             != offered {} + retries {}",
            phys_offered, c.shed_no_live_shard, total.offered, redispatched
        ));
    }
    let failed_low = total.failed.saturating_sub(gave_up);
    for (name, got, low, slack) in [
        ("accepted", phys_accepted, total.accepted, redispatched),
        ("completed", phys_completed, total.completed, stale),
        ("failed", phys_failed, failed_low, stale),
    ] {
        if got < low || got > low + slack {
            violations.push(format!(
                "cross-shard conservation: per-shard {name} sums to {got}, outside the run \
                 ledger's [{low}, {}]",
                low + slack
            ));
        }
    }
    if total.drained {
        // Every physically accepted copy was answered or died in a crash…
        let phys_answered = phys_completed + phys_failed;
        if phys_accepted != phys_answered + c.lost_in_flight {
            violations.push(format!(
                "physical copies leak: {} accepted != {} answered + {} lost in flight",
                phys_accepted, phys_answered, c.lost_in_flight
            ));
        }
        // …and every physical answer either resolved a client request or
        // arrived stale; give-ups resolved a client request without one.
        let logical_answered = total.completed + total.failed;
        if phys_answered + gave_up != logical_answered + stale {
            violations.push(format!(
                "response flow does not reconcile: shards answered {} + gave up {} != \
                 logical {} + stale {}",
                phys_answered, gave_up, logical_answered, stale
            ));
        }
    }
    if c.retried_to_completion > redispatched {
        violations.push(format!(
            "more retry wins ({}) than retries dispatched ({redispatched})",
            c.retried_to_completion
        ));
    }
    let out: usize = spilled_out.iter().sum();
    let inn: usize = spilled_in.iter().sum();
    if out != inn {
        violations.push(format!(
            "spill flow does not reconcile: {out} spilled out but {inn} spilled in"
        ));
    }
    verdict(violations)
}

/// Replay-mode conservation: cross-check a replayed run's report against the
/// cassette it replayed. The replayed run must offer exactly the recorded
/// stream — whole-run and per-tenant — under the recorded scenario identity.
/// Returns every violated invariant (empty = all hold).
pub fn check_replay_invariants(
    report: &GatewayReport,
    cassette: &Cassette,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    if report.scenario != cassette.scenario {
        violations.push(format!(
            "replayed scenario '{}' != recorded '{}'",
            report.scenario, cassette.scenario
        ));
    }
    if report.seed != cassette.seed {
        violations.push(format!(
            "replayed seed {} != recorded {}",
            report.seed, cassette.seed
        ));
    }
    if report.offered != cassette.len() {
        violations.push(format!(
            "replay offered {} requests but the cassette recorded {}",
            report.offered,
            cassette.len()
        ));
    }
    if report.tenants.len() != cassette.tenants.len() {
        violations.push(format!(
            "replay has {} tenant partitions but the cassette recorded {}",
            report.tenants.len(),
            cassette.tenants.len()
        ));
    } else {
        for (i, tenant) in cassette.tenants.iter().enumerate() {
            let recorded = cassette
                .entries
                .iter()
                .filter(|e| e.request.tenant as usize == i)
                .count();
            let replayed = &report.tenants[i];
            if replayed.tenant != tenant.name {
                violations.push(format!(
                    "tenant {i} replayed as '{}' but was recorded as '{}'",
                    replayed.tenant, tenant.name
                ));
            }
            if replayed.offered != recorded {
                violations.push(format!(
                    "tenant '{}' replayed {} requests but the cassette recorded {}",
                    tenant.name, replayed.offered, recorded
                ));
            }
        }
    }
    verdict(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ChatCompletionRequest;
    use crate::deploy::DeploymentBuilder;
    use first_desim::SimProcess;

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    #[test]
    fn clock_monitor_counts_backward_steps() {
        let mut clock = ClockMonitor::new();
        assert!(clock.observe(SimTime::from_secs(1)));
        assert!(clock.observe(SimTime::from_secs(1)), "equal times are fine");
        assert!(clock.observe(SimTime::from_secs(5)));
        assert!(!clock.observe(SimTime::from_secs(2)));
        assert_eq!(clock.violations(), 1);
        assert_eq!(clock.last(), SimTime::from_secs(5));
    }

    #[test]
    fn clean_run_passes_all_invariants() {
        let (mut gw, tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let mut ledger = RunLedger::new();
        for i in 0..5u64 {
            let req = ChatCompletionRequest::simple(MODEL, &format!("inv {i}"), 100);
            let ok = gw
                .chat_completions(&req, &tokens.alice, Some(80), SimTime::from_secs(i))
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
        assert!(ledger.drained);
        check_run_invariants(&gw, &ledger).expect("clean run holds all invariants");
    }

    #[test]
    fn drained_gateway_holding_a_task_record_is_reported() {
        let mut gw = DeploymentBuilder::single_cluster_test().prewarm(1).build();
        // A task submitted behind the gateway's back resolves in the fabric
        // but is never polled, so its record is never released.
        let svc = gw.service_mut();
        let function = svc
            .registry()
            .find_by_name("run_vllm_inference")
            .unwrap()
            .id;
        let endpoint = svc.endpoint_names()[0].clone();
        svc.submit(
            function,
            &endpoint,
            MODEL,
            first_serving::InferenceRequest::chat(1, 100, 20),
            SimTime::ZERO,
        )
        .unwrap();
        while let Some(t) = SimProcess::next_event_time(gw.service()) {
            gw.service_mut().advance(t);
            if gw.service().is_drained() {
                break;
            }
        }
        assert!(gw.is_drained());
        assert_eq!(gw.queue_snapshot().tracked_tasks, 1);
        let ledger = RunLedger {
            drained: true,
            ..RunLedger::new()
        };
        let violations = check_front_tier_invariants(
            std::slice::from_ref(&gw),
            std::slice::from_ref(&ledger),
            &ledger,
            &FailoverSection::default(),
            &[0],
            &[0],
        )
        .unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("shard 0: drained gateway leaks tasks")
                    && v.contains("tracked_tasks: 1")),
            "{violations:?}"
        );
    }

    #[test]
    fn lost_response_is_reported_as_conservation_violation() {
        let (gw, _tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        let ledger = RunLedger {
            offered: 3,
            accepted: 3,
            rejected: 0,
            completed: 2,
            failed: 0,
            clock: ClockMonitor::new(),
            drained: true,
        };
        let violations = check_run_invariants(&gw, &ledger).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("lost requests")),
            "{violations:?}"
        );
    }

    #[test]
    fn undrained_run_only_requires_weak_conservation() {
        let (gw, _tokens) = DeploymentBuilder::single_cluster_test()
            .prewarm(1)
            .build_with_tokens();
        // Horizon cut the run short: 1 of 3 accepted still in flight — fine
        // while not drained, but responses may never exceed acceptances.
        let ledger = RunLedger {
            offered: 4,
            accepted: 3,
            rejected: 1,
            completed: 2,
            failed: 0,
            clock: ClockMonitor::new(),
            drained: false,
        };
        check_run_invariants(&gw, &ledger).expect("weak conservation holds");
        let bad = RunLedger {
            completed: 5,
            ..ledger
        };
        assert!(check_run_invariants(&gw, &bad).is_err());
    }

    /// A hand-built two-shard failover run: shard 1 crashed mid-run with two
    /// copies in flight, one was retried to completion on shard 0, one
    /// exhausted its retry budget, and one request was shed before it
    /// reached any shard.
    fn failover_fixture() -> (Vec<Gateway>, Vec<RunLedger>, RunLedger, FailoverSection) {
        let shards = vec![
            DeploymentBuilder::single_cluster_test().prewarm(1).build(),
            DeploymentBuilder::single_cluster_test().prewarm(1).build(),
        ];
        let shard_ledgers = vec![
            RunLedger {
                offered: 6,
                accepted: 6,
                rejected: 0,
                completed: 6,
                failed: 0,
                clock: ClockMonitor::new(),
                drained: true,
            },
            RunLedger {
                offered: 4,
                accepted: 4,
                rejected: 0,
                completed: 2,
                failed: 0,
                clock: ClockMonitor::new(),
                drained: false,
            },
        ];
        let total = RunLedger {
            offered: 10,
            accepted: 9,
            rejected: 1,
            completed: 8,
            failed: 1,
            clock: ClockMonitor::new(),
            drained: true,
        };
        let failover = FailoverSection {
            crashes: 1,
            lost_in_flight: 2,
            retries_dispatched: 1,
            retried_to_completion: 1,
            shed_no_live_shard: 1,
            shed_retries_exhausted: 1,
            ..FailoverSection::default()
        };
        (shards, shard_ledgers, total, failover)
    }

    #[test]
    fn failover_flow_reconciles_across_home_retry_and_shed_paths() {
        let (shards, shard_ledgers, total, failover) = failover_fixture();
        check_front_tier_invariants(&shards, &shard_ledgers, &total, &failover, &[0, 0], &[0, 0])
            .expect("every request is accounted exactly once");
    }

    #[test]
    fn failover_copy_leak_is_reported() {
        let (shards, shard_ledgers, total, mut failover) = failover_fixture();
        // Claim three copies were lost when only two physically went missing:
        // the accepted-vs-answered reconciliation must catch the gap.
        failover.lost_in_flight = 3;
        let violations = check_front_tier_invariants(
            &shards,
            &shard_ledgers,
            &total,
            &failover,
            &[0, 0],
            &[0, 0],
        )
        .unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("physical copies leak")),
            "{violations:?}"
        );
    }

    #[test]
    fn failover_unshed_dispatch_mismatch_is_reported() {
        let (shards, shard_ledgers, total, mut failover) = failover_fixture();
        failover.shed_no_live_shard = 0;
        let violations = check_front_tier_invariants(
            &shards,
            &shard_ledgers,
            &total,
            &failover,
            &[0, 0],
            &[0, 0],
        )
        .unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("physical dispatch flow")),
            "{violations:?}"
        );
    }

    #[test]
    fn cross_shard_accepted_overcount_is_reported_without_redispatch() {
        // Nothing retried, shed or stale, so the accepted bound is
        // an exact sum. Shard 0 over-counts one acceptance while `offered`
        // still reconciles and both shard ledgers balance on their own: only
        // the cross-shard sum can see it.
        let (shards, _, _, _) = failover_fixture();
        let shard = |offered, accepted, completed| RunLedger {
            offered,
            accepted,
            rejected: offered - accepted,
            completed,
            failed: 0,
            clock: ClockMonitor::new(),
            drained: false,
        };
        let shard_ledgers = vec![shard(5, 5, 3), shard(5, 4, 3)];
        let total = RunLedger {
            offered: 10,
            accepted: 8,
            rejected: 2,
            completed: 6,
            failed: 0,
            clock: ClockMonitor::new(),
            drained: false,
        };
        let violations = check_front_tier_invariants(
            &shards,
            &shard_ledgers,
            &total,
            &FailoverSection::default(),
            &[0, 0],
            &[0, 0],
        )
        .unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("per-shard accepted sums to 9"),
            "{violations:?}"
        );
    }

    #[test]
    fn cross_shard_completions_beyond_stale_slack_are_reported() {
        let (shards, mut shard_ledgers, mut total, mut failover) = failover_fixture();
        // Undrained, so only the completed bound can catch one physical
        // success too many: 9 shard completions against 8 logical ones.
        total.drained = false;
        shard_ledgers[1].completed = 3;
        let check = |failover: &FailoverSection| {
            check_front_tier_invariants(&shards, &shard_ledgers, &total, failover, &[0, 0], &[0, 0])
        };
        let violations = check(&failover).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("per-shard completed sums to 9")),
            "{violations:?}"
        );
        // One stale duplicate is exactly the slack the extra success needs.
        failover.stale_responses = 1;
        check(&failover).expect("a stale duplicate accounts for the extra completion");
    }
}
