//! Property-based guarantees for the sharded federation tier.
//!
//! Two families of properties:
//!
//! 1. **Single-shard transparency** — a 1-shard federation is the
//!    unsharded gateway: for random workloads, the same request stream
//!    split over many tenants on one shard yields the §5.1 metrics of a
//!    one-tenant [`ScenarioRun`], and a 1-shard [`ScenarioRun`] serializes
//!    to the same bytes whether sharding was requested explicitly or left
//!    at the default.
//! 2. **Consistent-hash stability** — growing the ring from `n` to `n+1`
//!    shards moves keys only *to* the new shard (never between old shards),
//!    the moved fraction stays near the ideal `1/(n+1)`, and lookups are a
//!    pure function of `(key, n)`.

use first_core::{
    ConsistentHashRing, DeploymentBuilder, GatewayConfig, ScenarioReport, ScenarioRun,
    ShardingConfig,
};
use first_desim::{SimRng, SimTime};
use first_workload::{
    ArrivalProcess, DeploymentRef, ReplayEntry, ReplayTrack, ScenarioSpec, ShareGptGenerator,
    SloTarget, TenantClass,
};
use proptest::prelude::*;

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same stream split over `users` tenants, request `i` to tenant
    /// `user-{i % users}`, produces on one shard exactly the §5.1 metrics of
    /// the one-tenant replay: the federation tier adds nothing at n = 1,
    /// and a run's row does not depend on how its requests split into
    /// tenants. Both runs leave the token-introspection cache off, so every
    /// request pays the same token check; with it on, each tenant's first
    /// request pays one more introspection than a lone tenant's would.
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
        let horizon_s = (14 * 24 * 3600) as f64;
        let deployment = DeploymentBuilder::sophia_single_instance().gateway_config(GatewayConfig {
            auth_cache: false,
            ..GatewayConfig::default()
        });

        let mut tracks: Vec<Vec<ReplayEntry>> = vec![Vec::new(); users];
        for (i, (s, &at)) in samples.iter().zip(&arrivals).enumerate() {
            tracks[i % users].push(ReplayEntry {
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
        let mut split = ScenarioSpec::new(
            "n-users",
            "one stream over many tenants",
            DeploymentRef::SophiaSingleInstance,
            tenants,
        );
        split.horizon_s = horizon_s;
        let out = ScenarioRun::new(&split)
            .deployment(deployment.clone())
            .sharding(ShardingConfig::single())
            .execute()
            .unwrap();
        prop_assert_eq!(out.fleet.spilled_total(), 0);
        prop_assert_eq!(out.report.offered, requests);
        let sharded = ScenarioReport::from_run("", "p", &out.report, out.latencies);

        let mut spec = ScenarioSpec::one_tenant_replay(
            "one-shard",
            DeploymentRef::SophiaSingleInstance,
            MODEL,
            samples,
            &arrivals,
        );
        spec.horizon_s = horizon_s;
        let out = ScenarioRun::new(&spec).deployment(deployment).execute().unwrap();
        let plain = ScenarioReport::from_run("", "p", &out.report, out.latencies);
        prop_assert_eq!(plain, sharded);
    }

    /// `ScenarioRun::new(spec).sharding(ShardingConfig::with_shards(1))` is
    /// byte-identical to the default (unsharded) execution for random specs:
    /// explicit single-sharding is a no-op all the way down to the
    /// serialized report.
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
            .sharding(ShardingConfig::with_shards(1))
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
