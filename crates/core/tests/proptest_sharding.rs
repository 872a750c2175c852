//! Property-based guarantees for the sharded federation tier.
//!
//! Two families of properties:
//!
//! 1. **Single-shard transparency** — a 1-shard [`ShardedGateway`] is the
//!    unsharded gateway: for random workloads, driving a 1-shard fleet with
//!    the same request stream as a one-tenant [`ScenarioRun`] yields
//!    identical §5.1 metrics, and a 1-shard [`ScenarioRun`] serializes to
//!    the same bytes whether sharding was requested explicitly or left at
//!    the default.
//! 2. **Consistent-hash stability** — growing the ring from `n` to `n+1`
//!    shards moves keys only *to* the new shard (never between old shards),
//!    the moved fraction stays near the ideal `1/(n+1)`, and lookups are a
//!    pure function of `(key, n)`.

use first_core::{
    run_sharded_openloop, ConsistentHashRing, DeploymentBuilder, ScenarioReport, ScenarioRun,
    ShardedGateway, ShardingConfig,
};
use first_desim::{SimRng, SimTime};
use first_workload::{
    ArrivalProcess, DeploymentRef, ScenarioSpec, ShareGptGenerator, SloTarget, TenantClass,
};
use proptest::prelude::*;

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Driving a 1-shard fleet open-loop produces exactly the §5.1 metrics
    /// of a one-tenant `ScenarioRun` of the same stream on one gateway: the
    /// federation tier adds nothing at n = 1.
    #[test]
    fn one_shard_openloop_matches_unsharded(
        requests in 5usize..60,
        rate in 1.0f64..30.0,
        users in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let samples = ShareGptGenerator::new(seed).samples(requests);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5);
        let arrivals =
            ArrivalProcess::FixedRate(rate).arrivals(requests, SimTime::ZERO, &mut rng);
        let horizon = SimTime::from_secs(14 * 24 * 3600);

        let mut spec = ScenarioSpec::one_tenant_replay(
            "one-shard",
            DeploymentRef::SophiaSingleInstance,
            MODEL,
            samples.clone(),
            &arrivals,
        );
        spec.horizon_s = horizon.as_secs_f64();
        let out = ScenarioRun::new(&spec).execute().unwrap();
        let plain = ScenarioReport::from_one_tenant("", "p", &out.report);

        let mut fleet = ShardedGateway::from_builder(
            &DeploymentBuilder::sophia_single_instance().prewarm(1),
            ShardingConfig::single(),
        );
        let shard_tokens =
            vec![first_core::enroll_standard_users(fleet.shard_mut(0)).alice];
        let mut sharded = run_sharded_openloop(
            &mut fleet, &shard_tokens, MODEL, &samples, &arrivals, users, "p", horizon,
        );

        // The label is the only intentional difference.
        prop_assert_eq!(&sharded.label, "FIRST x1 shards");
        sharded.label.clear();
        prop_assert_eq!(plain, sharded);
        prop_assert_eq!(fleet.spilled_total(), 0);
        prop_assert_eq!(fleet.routed(), &[requests][..]);
    }

    /// `ScenarioRun::new(spec).shards(1)` is byte-identical to the default
    /// (unsharded) execution for random specs: explicit single-sharding is
    /// a no-op all the way down to the serialized report.
    #[test]
    fn one_shard_scenario_run_byte_identical(
        requests_a in 3usize..40,
        requests_b in 3usize..40,
        rate in 0.5f64..10.0,
        seed in 0u64..1_000,
    ) {
        let mut spec = ScenarioSpec::new(
            "prop-shard",
            "randomised 1-shard transparency spec",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic(
                    "alpha",
                    requests_a,
                    ArrivalProcess::Poisson(rate),
                    "meta-llama/Meta-Llama-3.1-8B-Instruct",
                )
                .with_slo(SloTarget::interactive()),
                TenantClass::synthetic(
                    "beta",
                    requests_b,
                    ArrivalProcess::FixedRate(rate * 2.0),
                    "meta-llama/Meta-Llama-3.1-8B-Instruct",
                )
                .with_slo(SloTarget::batch()),
            ],
        );
        spec.horizon_s = 7200.0;

        let plain = ScenarioRun::new(&spec).seed(seed).execute().unwrap().report;
        let explicit = ScenarioRun::new(&spec)
            .seed(seed)
            .shards(1)
            .execute()
            .unwrap()
            .report;
        prop_assert!(plain.shards.is_none());
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&explicit).unwrap()
        );
    }

    /// Ring growth from `n` to `n+1` shards moves keys only onto the new
    /// shard, and the moved fraction stays near the ideal `1/(n+1)`.
    #[test]
    fn ring_growth_moves_keys_only_to_new_shard(
        n in 1usize..9,
        keys in 200usize..600,
        salt in 0u64..10_000,
    ) {
        let old = ConsistentHashRing::new(n);
        let new = ConsistentHashRing::new(n + 1);
        let mut moved = 0usize;
        for k in 0..keys {
            let key = format!("tenant-{salt}-{k}");
            let before = old.shard_for(&key);
            let after = new.shard_for(&key);
            if before != after {
                // A remapped key may only land on the newly added shard.
                prop_assert_eq!(after, n);
                moved += 1;
            }
        }
        let ideal = keys as f64 / (n as f64 + 1.0);
        // With 64 vnodes/shard the arc ownership is uneven but bounded:
        // allow 3x the ideal churn plus slack for small samples.
        prop_assert!(
            (moved as f64) < 3.0 * ideal + 12.0,
            "moved {} of {} keys at n={} (ideal {:.1})",
            moved, keys, n, ideal
        );
    }

    /// Shard death is the exact inverse of ring growth: removing shard `k`
    /// from an `n`-shard ring remaps **only** the keys that were homed on
    /// `k` — every key on a surviving shard keeps its assignment, so a
    /// crash never disturbs live shards' tenants.
    #[test]
    fn ring_removal_remaps_only_the_dead_shards_keys(
        n in 2usize..10,
        dead in 0usize..10,
        keys in 200usize..600,
        salt in 0u64..10_000,
    ) {
        let dead = dead % n;
        let full = ConsistentHashRing::new(n);
        let degraded = full.without(dead);
        let mut moved = 0usize;
        for k in 0..keys {
            let key = format!("tenant-{salt}-{k}");
            let before = full.shard_for(&key);
            let after = degraded.shard_for(&key);
            // The dead shard owns nothing in the degraded view…
            prop_assert_ne!(after, dead);
            if before == dead {
                moved += 1;
            } else {
                // …and nobody else's keys move.
                prop_assert_eq!(before, after);
            }
        }
        // Sanity: with 64 vnodes/shard the dead shard owned a nontrivial
        // slice, so a large enough sample sees at least one remap.
        if keys >= 400 && n <= 4 {
            prop_assert!(moved > 0, "shard {} owned no keys of {}", dead, keys);
        }
    }

    /// Degraded-view lookups are a pure function of `(key, live-set)`:
    /// deriving the same live-set twice — or via `restricted` with the
    /// equivalent membership mask — yields identical assignments.
    #[test]
    fn ring_removal_lookup_pure_in_key_and_live_set(
        n in 2usize..10,
        dead in 0usize..10,
        keys in 1usize..200,
        salt in 0u64..10_000,
    ) {
        let dead = dead % n;
        let full = ConsistentHashRing::new(n);
        let a = full.without(dead);
        let b = full.without(dead);
        let mut routable = vec![true; n];
        routable[dead] = false;
        let c = full.restricted(&routable);
        for k in 0..keys {
            let key = format!("user-{salt}-{k}");
            let shard = a.shard_for(&key);
            prop_assert!(shard < n);
            prop_assert_ne!(shard, dead);
            prop_assert_eq!(shard, b.shard_for(&key));
            prop_assert_eq!(shard, c.shard_for(&key));
        }
    }

    /// Lookups are a pure function of `(key, shard count)`: rebuilding the
    /// ring never changes an assignment, and every shard index is in range.
    #[test]
    fn ring_lookup_deterministic_and_in_range(
        n in 1usize..12,
        keys in 1usize..200,
        salt in 0u64..10_000,
    ) {
        let a = ConsistentHashRing::new(n);
        let b = ConsistentHashRing::new(n);
        for k in 0..keys {
            let key = format!("user-{salt}-{k}");
            let shard = a.shard_for(&key);
            prop_assert!(shard < n);
            prop_assert_eq!(shard, b.shard_for(&key));
        }
    }
}
