//! Golden-artifact regression tests for the scenario matrix.
//!
//! Five small catalog scenarios run at a pinned seed and request budget;
//! their `GatewayReport`s must serialize **byte-identically** to the JSON
//! committed under `bench/golden/`. A diff here means the simulation's
//! observable behaviour changed — per-tenant latencies, SLO attainment,
//! conservation counts — which must be an intentional, reviewed change.
//!
//! Refresh path (mirror of the perf-gate baseline convention in CHANGES.md):
//!
//! ```text
//! FIRST_GOLDEN_WRITE=1 cargo test -p first-bench --test golden_scenarios
//! ```
//!
//! then commit the regenerated `bench/golden/GOLDEN_*.json` files and
//! justify the new numbers in the PR / CHANGES.md entry.

use first_core::{GatewayReport, ScenarioRun, ShardingConfig};
use first_workload::{catalog, ScenarioSpec};
use std::path::PathBuf;

/// Seed and budgets are pinned: goldens are not reruns of the live bench
/// configuration, they are fixed probes of simulator behaviour.
const GOLDEN_SEED: u64 = 42;

/// The pinned scenarios with the catalog budget each runs at: the runner's
/// base case, the multi-tenant SLO-partition case, the priority/tie-break
/// merge case, the federation-tier failover case (shard crash + restart
/// under load), and the gateway's resilience layer under faults. The last
/// needs the larger budget to reach hedging: at 300 requests it retries,
/// fails over, hedges and trips a breaker.
const GOLDEN_SCENARIOS: &[(&str, usize)] = &[
    ("steady", 120),
    ("multi-tenant-contention", 120),
    ("priority-inversion", 120),
    ("shard-outage", 120),
    ("chaos-under-load", 300),
];

/// A pinned scenario as the catalog builds it at its golden budget.
fn golden_spec(name: &str) -> ScenarioSpec {
    let &(_, budget) = GOLDEN_SCENARIOS
        .iter()
        .find(|(pinned, _)| *pinned == name)
        .unwrap_or_else(|| panic!("'{name}' is not a pinned scenario"));
    catalog(budget)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("catalog scenario '{name}' missing"))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/golden")
}

/// Run a pinned scenario exactly the way its golden was produced.
/// `shard-outage` is the one catalog entry that needs a federation: its
/// fault plan kills shard 1 of 4, so it runs on a 4-shard fleet.
fn run_golden(spec: &ScenarioSpec) -> GatewayReport {
    let mut run = ScenarioRun::new(spec).seed(GOLDEN_SEED);
    if spec.name == "shard-outage" {
        run = run.sharding(ShardingConfig::with_shards(4));
    }
    run.execute().expect("golden scenario runs").report
}

#[test]
fn golden_catalog_scenarios_reproduce_byte_identically() {
    let write = std::env::var("FIRST_GOLDEN_WRITE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    for &(name, _) in GOLDEN_SCENARIOS {
        let report = run_golden(&golden_spec(name));
        let rendered = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
        let path = golden_dir().join(format!("GOLDEN_{name}.json"));
        if write {
            std::fs::create_dir_all(golden_dir()).expect("golden dir");
            std::fs::write(&path, &rendered).expect("golden written");
            println!("refreshed {}", path.display());
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {} ({e}); bootstrap with \
                 `FIRST_GOLDEN_WRITE=1 cargo test -p first-bench --test golden_scenarios`",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            committed,
            "scenario '{name}' diverged from its golden artifact {}.\n\
             If the behaviour change is intentional, refresh with\n\
             `FIRST_GOLDEN_WRITE=1 cargo test -p first-bench --test golden_scenarios`\n\
             and justify the new numbers in the PR.",
            path.display()
        );
    }
}

#[test]
fn golden_scenarios_exist_in_the_catalog_at_any_budget() {
    // Guard against a catalog refactor silently dropping a pinned scenario.
    for budget in [16, 120, 1000] {
        let specs = catalog(budget);
        for (name, _) in GOLDEN_SCENARIOS {
            assert!(
                specs.iter().any(|s| s.name == *name),
                "catalog({budget}) lost pinned scenario '{name}'"
            );
        }
    }
}

/// The headline failover guarantee, pinned at golden seed/budget: killing
/// 1 of 4 shards mid-run loses **zero** accepted requests — every request
/// completes, is retried to completion, or is shed with a typed outcome
/// (none are shed here: surviving capacity is sufficient).
#[test]
fn shard_outage_golden_loses_zero_accepted_requests() {
    let report = run_golden(&golden_spec("shard-outage"));
    assert_eq!(report.offered, 120);
    assert_eq!(report.accepted, 120, "nothing rejected at the front tier");
    assert_eq!(report.completed, 120, "zero accepted requests lost");
    assert_eq!(report.failed, 0);
    let failover = report.failover.as_ref().expect("failover section");
    assert_eq!(failover.crashes, 1);
    assert_eq!(failover.restarts, 1);
    assert!(
        failover.lost_in_flight > 0,
        "the crash catches requests in flight: {failover:?}"
    );
    assert_eq!(
        failover.retried_to_completion, failover.lost_in_flight,
        "every lost copy completed on a surviving peer"
    );
    // Only the dead shard's tenant ("copilot", homed on shard 1) re-homes:
    // the other three tenants' keys never move.
    let copilot = report.tenant("copilot").expect("copilot report");
    assert!(failover.rehomed_requests > 0);
    assert!(
        failover.rehomed_requests <= copilot.offered,
        "re-homing is confined to the dead shard's tenant: {} rehomed vs {} copilot requests",
        failover.rehomed_requests,
        copilot.offered
    );
    assert_eq!(failover.shed_no_live_shard, 0);
    // Per-tenant SLO accounting survives the outage.
    for tenant in &report.tenants {
        assert_eq!(tenant.completed, tenant.offered, "{}", tenant.tenant);
    }
}
