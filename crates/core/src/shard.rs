//! Sharded multi-gateway federation: N peer gateway shards behind a thin
//! front tier.
//!
//! One `Gateway` advance loop is the reproduction's serial ceiling (PR 4's
//! scale sweep drove 26.8M events through a single instance), and the
//! production path to million-user traffic is horizontal: run several
//! identical gateway deployments as peers and fan requests in through
//! DNS/load-balancer routing. This module models that tier:
//!
//! * [`ConsistentHashRing`] — virtual-node consistent hashing of tenant
//!   names (API keys) onto shards, so adding a shard remaps only ~`1/(n+1)`
//!   of the key space and every remapped key moves *to the new shard*.
//! * [`SpilloverPolicy`] — bounded cross-shard spillover: when a tenant's
//!   home shard is saturated (its [`Gateway::load_depth`] exceeds the
//!   threshold) a bounded fraction of its traffic may divert to the
//!   least-loaded peer. Spills are accounted per shard (out at the home,
//!   in at the receiver) and surface in telemetry.
//! * [`ShardedGateway`] — the front tier itself: owns the shard fleet,
//!   routes submissions, models the fan-in hop with a configurable latency,
//!   and rolls shard-local queues and telemetry up into per-shard
//!   [`ShardReport`] rows plus aggregate dashboard/metric views.
//!
//! Every shard is a full deployment replica built from the *same*
//! [`DeploymentBuilder`] configuration, so
//! a credential enrolled identically on each shard is valid wherever the
//! ring (or a spill) sends the request — exactly the shared-control-plane /
//! shard-local-data-plane split the production gateway runs.
//!
//! A 1-shard [`ShardedGateway`] is transparent: the ring maps every key to
//! shard 0, no spill target exists, and the default fan-in latency is zero,
//! so driving it is bit-identical to driving the bare [`Gateway`] — the
//! property the sharding proptests pin.

use crate::deploy::DeploymentBuilder;
use crate::gateway::{CompletedRequest, Gateway};
use first_chaos::{CircuitBreakerConfig, HealthTracker, RetryPolicy};
use first_desim::{fnv1a_64, SimDuration, SimProcess, SimTime};
use first_telemetry::{DashboardSnapshot, LabelSet, MetricRegistry, ShardRow};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Virtual nodes per shard on the [`ConsistentHashRing`]. 64 points per
/// shard keeps the expected load imbalance across shards within a few
/// percent while the ring stays small enough to rebuild on every topology
/// change.
pub const RING_VNODES: usize = 64;

/// Bounded cross-shard spillover policy for the front tier.
///
/// Spillover fires per submission: when the home shard's
/// [`Gateway::load_depth`] exceeds `queue_threshold` and a strictly
/// less-loaded peer exists, the request diverts to the least-loaded peer —
/// but never more than `max_fraction` of the home shard's routed traffic,
/// so a melting shard cannot silently turn the whole fleet into one big
/// queue. Disabled by default (strict consistent-hash routing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpilloverPolicy {
    /// Whether spillover is allowed at all.
    pub enabled: bool,
    /// Home-shard [`Gateway::load_depth`] above which spillover may fire.
    pub queue_threshold: usize,
    /// Upper bound on the fraction of a home shard's routed requests that
    /// may spill away from it (evaluated cumulatively over the run).
    pub max_fraction: f64,
}

impl Default for SpilloverPolicy {
    fn default() -> Self {
        SpilloverPolicy {
            enabled: false,
            queue_threshold: 0,
            max_fraction: 0.0,
        }
    }
}

impl SpilloverPolicy {
    /// Spillover disabled: every request sticks to its ring shard.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Bounded spillover: divert once the home shard holds more than
    /// `queue_threshold` unanswered requests, spilling at most
    /// `max_fraction` of the home shard's traffic.
    pub fn bounded(queue_threshold: usize, max_fraction: f64) -> Self {
        SpilloverPolicy {
            enabled: true,
            queue_threshold,
            max_fraction: max_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Degraded-mode load shedding at the front tier: when the surviving fleet
/// cannot absorb a failover wave, requests below `priority_floor` whose home
/// shard already holds more than `queue_depth` unanswered requests are
/// rejected with a typed overload outcome instead of joining a collapsing
/// queue. High-priority work is never shed by this policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedPolicy {
    /// Home-shard [`Gateway::load_depth`] above which shedding starts.
    pub queue_depth: usize,
    /// Requests with priority strictly below this value may be shed.
    pub priority_floor: u8,
}

impl ShedPolicy {
    /// Shed sub-`priority_floor` work once the home queue exceeds `queue_depth`.
    pub fn new(queue_depth: usize, priority_floor: u8) -> Self {
        ShedPolicy {
            queue_depth,
            priority_floor,
        }
    }
}

/// How the front tier handles shard failure: the retry/backoff schedule for
/// requests lost to a dead shard, an optional per-attempt timeout, an
/// optional hedge delay (duplicate a slow request to a peer and take the
/// first answer), and an optional degraded-mode [`ShedPolicy`].
///
/// The default — [`RetryPolicy::default`] backoff, no timeout, no hedging,
/// no shedding — only ever acts when a shard actually dies, so fault-free
/// runs are byte-identical with or without it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FrontTierPolicy {
    /// Backoff schedule for re-dispatching requests lost to a dead shard.
    pub retry: RetryPolicy,
    /// Per-attempt timeout: when set, an attempt unanswered after this long
    /// is re-dispatched (the original answer still wins if it arrives first).
    pub request_timeout: Option<SimDuration>,
    /// Hedge delay: when set, an attempt unanswered after this long is
    /// *duplicated* to the least-loaded routable peer; first answer wins.
    pub hedge_after: Option<SimDuration>,
    /// Degraded-mode shedding policy (off by default).
    pub shed: Option<ShedPolicy>,
}

/// Front-tier configuration: how many shards, what the fan-in hop costs and
/// whether saturated shards may spill. The default (`1` shard, zero fan-in,
/// no spillover) is the transparent configuration whose behaviour is
/// bit-identical to an unsharded deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardingConfig {
    /// Number of peer gateway shards (≥ 1).
    pub shards: usize,
    /// DNS/LB fan-in latency added between a client's send instant and the
    /// request reaching its shard. Zero by default so single-shard runs stay
    /// bit-identical to the unsharded path.
    pub fanin_latency: SimDuration,
    /// Cross-shard spillover policy.
    pub spillover: SpilloverPolicy,
    /// Shard-failure handling policy (retry/timeout/hedge/shed).
    #[serde(default)]
    pub front_tier: FrontTierPolicy,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            shards: 1,
            fanin_latency: SimDuration::ZERO,
            spillover: SpilloverPolicy::disabled(),
            front_tier: FrontTierPolicy::default(),
        }
    }
}

impl ShardingConfig {
    /// The transparent single-shard configuration.
    pub fn single() -> Self {
        Self::default()
    }

    /// `shards` peers with zero fan-in latency and no spillover.
    pub fn with_shards(shards: usize) -> Self {
        ShardingConfig {
            shards: shards.max(1),
            ..Self::default()
        }
    }

    /// Set the fan-in latency.
    pub fn fanin(mut self, latency: SimDuration) -> Self {
        self.fanin_latency = latency;
        self
    }

    /// Set the spillover policy.
    pub fn spill(mut self, policy: SpilloverPolicy) -> Self {
        self.spillover = policy;
        self
    }

    /// Set the shard-failure handling policy.
    pub fn front(mut self, policy: FrontTierPolicy) -> Self {
        self.front_tier = policy;
        self
    }
}

/// Consistent hashing of string keys (tenant names / API keys) onto shard
/// indices via [`RING_VNODES`] virtual nodes per shard.
///
/// The stability property the tests pin: growing the ring from `n` to `n+1`
/// shards only *adds* points, so a key either keeps its shard or moves to
/// the new shard — never between two old shards — and the expected moved
/// fraction is `1/(n+1)`.
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, u32)>,
    shards: usize,
}

/// Finalize a 64-bit hash (splitmix64 mixer). FNV-1a alone avalanches
/// poorly on near-identical strings like `shard-0#vnode-1` /
/// `shard-0#vnode-2`, which clusters ring points and skews arc ownership;
/// one mixing round restores a uniform spread. Applied to both ring points
/// and lookup keys, it stays a pure deterministic function of the input.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ConsistentHashRing {
    /// A ring over `shards` shards (≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * RING_VNODES);
        for shard in 0..shards {
            for vnode in 0..RING_VNODES {
                let key = format!("shard-{shard}#vnode-{vnode}");
                points.push((mix64(fnv1a_64(key.as_bytes())), shard as u32));
            }
        }
        // Ties (64-bit collisions) are broken toward the lower shard index,
        // deterministically.
        points.sort_unstable();
        ConsistentHashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or clockwise of the
    /// key's hash, wrapping at the top of the hash space.
    pub fn shard_for(&self, key: &str) -> usize {
        self.try_shard_for(key)
            .expect("ring has at least one point")
    }

    /// [`ConsistentHashRing::shard_for`] on rings that may have lost every
    /// point to membership removal: `None` means no shard is routable.
    pub fn try_shard_for(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = mix64(fnv1a_64(key.as_bytes()));
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        let (_, shard) = self.points[idx % self.points.len()];
        Some(shard as usize)
    }

    /// A view of this ring with `shard`'s points removed — the failover
    /// counterpart of ring growth. Removal only *deletes* points, so a
    /// surviving shard's arcs can only grow: keys homed on the dead shard
    /// re-home to surviving peers, and every other key keeps its assignment
    /// (the inverse of the growth property the sharding proptests pin).
    /// `shards()` is unchanged, so surviving indices keep their meaning.
    pub fn without(&self, shard: usize) -> Self {
        ConsistentHashRing {
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(_, s)| s as usize != shard)
                .collect(),
            shards: self.shards,
        }
    }

    /// A view keeping only the points of shards marked routable. An
    /// all-`true` mask is the identity; an all-`false` mask yields an empty
    /// ring whose [`ConsistentHashRing::try_shard_for`] returns `None`.
    pub fn restricted(&self, routable: &[bool]) -> Self {
        ConsistentHashRing {
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(_, s)| routable.get(s as usize).copied().unwrap_or(false))
                .collect(),
            shards: self.shards,
        }
    }
}

/// Per-shard rollup of one run, reported inside
/// [`ShardSection`](crate::scenario::ShardSection) and rendered by the
/// scenario report and the dashboard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Requests the front tier routed to this shard (spill-ins included).
    pub offered: usize,
    /// Requests the shard accepted.
    pub accepted: usize,
    /// Requests the shard rejected at its API boundary.
    pub rejected: usize,
    /// Requests the shard answered successfully.
    pub completed: usize,
    /// Requests that failed after acceptance.
    pub failed: usize,
    /// Requests this shard received because another shard was saturated.
    pub spilled_in: usize,
    /// Requests routed away from this shard under the spillover policy.
    pub spilled_out: usize,
    /// Faults the shard's injector applied.
    pub faults_injected: usize,
    /// Peak [`Gateway::load_depth`] observed at submission instants.
    pub peak_load_depth: usize,
}

impl ShardReport {
    /// One formatted table row (used by the scenario report renderer).
    pub fn table_row(&self) -> String {
        format!(
            "{:<6} {:>8} {:>8} {:>6} {:>8} {:>6} {:>9} {:>10} {:>7} {:>9}",
            self.shard,
            self.offered,
            self.accepted,
            self.rejected,
            self.completed,
            self.failed,
            self.spilled_in,
            self.spilled_out,
            self.faults_injected,
            self.peak_load_depth,
        )
    }

    /// The table header matching [`ShardReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<6} {:>8} {:>8} {:>6} {:>8} {:>6} {:>9} {:>10} {:>7} {:>9}",
            "shard",
            "offered",
            "accept",
            "rej",
            "done",
            "fail",
            "spill_in",
            "spill_out",
            "faults",
            "peak_q"
        )
    }
}

/// Where the front tier decided one submission should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The shard that will receive the request.
    pub shard: usize,
    /// The consistent-hash home shard of the key.
    pub home: usize,
    /// Whether this submission spilled away from its home shard.
    pub spilled: bool,
}

/// One shard's cached [`SimProcess::next_event_time`].
#[derive(Debug, Clone, Copy)]
enum Wake {
    /// The shard may have changed since the last read; the next read asks it.
    Stale,
    /// The shard's next event as of the last read (`None` for a dead or idle
    /// shard).
    At(Option<SimTime>),
}

/// The sharded front tier: N peer [`Gateway`] deployments behind consistent
/// hashing, bounded spillover and a fan-in hop. See the module docs for the
/// model.
pub struct ShardedGateway {
    shards: Vec<Gateway>,
    /// Per-shard wake-time cache. Every path that can change a shard marks
    /// it stale ([`ShardedGateway::shard_mut`], [`ShardedGateway::shards_mut`],
    /// kills, restores and advances); reads refresh only stale entries, so the
    /// front tier asks only the shards that moved for their next event.
    wake: Vec<Cell<Wake>>,
    ring: ConsistentHashRing,
    /// The ring restricted to routable (live *and* reachable) shards;
    /// identical to `ring` while the whole fleet is healthy.
    live_ring: ConsistentHashRing,
    config: ShardingConfig,
    routed: Vec<usize>,
    spilled_in: Vec<usize>,
    spilled_out: Vec<usize>,
    peak_load: Vec<usize>,
    /// Whether each shard process is alive (false after a crash, until a
    /// restart replaces it).
    live: Vec<bool>,
    /// Whether the front tier can reach each shard (false during a
    /// front-tier partition; the shard itself keeps running).
    reachable: Vec<bool>,
    /// Per-shard circuit-breaker health, keyed `shard-<index>`.
    health: HealthTracker,
    crashes: usize,
    restarts: usize,
}

impl ShardedGateway {
    /// Build `config.shards` identical deployments from `builder` (one
    /// [`DeploymentBuilder::build`] per shard — the shared control plane is
    /// the configuration itself, so auth policy, registry and topology match
    /// across the fleet).
    pub fn from_builder(builder: &DeploymentBuilder, config: ShardingConfig) -> Self {
        let n = config.shards.max(1);
        let shards: Vec<Gateway> = (0..n).map(|_| builder.clone().build()).collect();
        let ring = ConsistentHashRing::new(n);
        ShardedGateway {
            shards,
            wake: vec![Cell::new(Wake::Stale); n],
            live_ring: ring.clone(),
            ring,
            config: ShardingConfig {
                shards: n,
                ..config
            },
            routed: vec![0; n],
            spilled_in: vec![0; n],
            spilled_out: vec![0; n],
            peak_load: vec![0; n],
            live: vec![true; n],
            reachable: vec![true; n],
            health: HealthTracker::new(CircuitBreakerConfig::default()),
            crashes: 0,
            restarts: 0,
        }
    }

    /// The health-tracker key for shard `index`.
    fn health_key(index: usize) -> String {
        format!("shard-{index}")
    }

    fn rebuild_live_ring(&mut self) {
        let routable: Vec<bool> = (0..self.shards.len())
            .map(|i| self.live[i] && self.reachable[i])
            .collect();
        self.live_ring = self.ring.restricted(&routable);
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The front tier's configuration.
    pub fn config(&self) -> &ShardingConfig {
        &self.config
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &ConsistentHashRing {
        &self.ring
    }

    /// Borrow one shard.
    pub fn shard(&self, index: usize) -> &Gateway {
        &self.shards[index]
    }

    /// Mutably borrow one shard. Marks its cached wake time stale.
    pub fn shard_mut(&mut self, index: usize) -> &mut Gateway {
        self.wake[index].set(Wake::Stale);
        &mut self.shards[index]
    }

    /// Borrow the whole fleet.
    pub fn shards(&self) -> &[Gateway] {
        &self.shards
    }

    /// Mutably borrow the whole fleet (enrollment loops, per-shard drains).
    /// Marks every cached wake time stale.
    pub fn shards_mut(&mut self) -> &mut [Gateway] {
        for wake in &self.wake {
            wake.set(Wake::Stale);
        }
        &mut self.shards
    }

    /// Drain shard `index`'s completed responses. Unlike
    /// `shard_mut(index).take_responses()` this keeps the shard's cached wake
    /// time: handing over buffered responses schedules nothing, so a
    /// per-step collection pass over the fleet does not force every shard to
    /// be asked for its next event again.
    pub fn take_responses(&mut self, index: usize) -> Vec<CompletedRequest> {
        self.shards[index].take_responses()
    }

    /// The consistent-hash home shard for `key` (no spillover considered).
    pub fn home_shard(&self, key: &str) -> usize {
        self.ring.shard_for(key)
    }

    /// The home shard for `key` on the *live* ring: the full ring's
    /// assignment while the fleet is healthy, a surviving peer when `key`'s
    /// home shard is dead or partitioned, and `None` when no shard is
    /// routable at all.
    pub fn routable_home(&self, key: &str) -> Option<usize> {
        self.live_ring.try_shard_for(key)
    }

    /// The ring restricted to routable shards.
    pub fn live_ring(&self) -> &ConsistentHashRing {
        &self.live_ring
    }

    /// Whether the shard process is alive (not crashed).
    pub fn is_live(&self, index: usize) -> bool {
        self.live.get(index).copied().unwrap_or(false)
    }

    /// Whether the front tier can reach the shard.
    pub fn is_reachable(&self, index: usize) -> bool {
        self.reachable.get(index).copied().unwrap_or(false)
    }

    /// Whether the front tier may route new work to the shard (live *and*
    /// reachable).
    pub fn routable(&self, index: usize) -> bool {
        self.is_live(index) && self.is_reachable(index)
    }

    /// Number of shards the front tier may currently route to.
    pub fn routable_count(&self) -> usize {
        (0..self.shards.len()).filter(|&i| self.routable(i)).count()
    }

    /// Kill shard `index`: it stops advancing, its in-flight work is lost,
    /// its breaker trips, and its keys re-home to surviving peers. Returns
    /// whether the fault was effective (the shard existed and was alive) —
    /// out-of-range indices apply vacuously, matching
    /// [`first_chaos::FaultInjector`]'s unknown-endpoint semantics.
    pub fn kill_shard(&mut self, index: usize, now: SimTime) -> bool {
        if index >= self.shards.len() || !self.live[index] {
            return false;
        }
        self.live[index] = false;
        self.wake[index].set(Wake::Stale);
        self.crashes += 1;
        // A dead shard is observed as consecutive probe failures until the
        // breaker trips.
        let key = Self::health_key(index);
        for _ in 0..16 {
            if self.health.on_failure(&key, now) {
                break;
            }
        }
        self.rebuild_live_ring();
        true
    }

    /// Replace a dead shard with a freshly built `gateway` (cold caches,
    /// empty queues) and rejoin it to the ring. Returns whether the restart
    /// was effective (the shard existed and was dead).
    pub fn restore_shard(&mut self, index: usize, gateway: Gateway, now: SimTime) -> bool {
        if index >= self.shards.len() || self.live[index] {
            return false;
        }
        self.shards[index] = gateway;
        self.wake[index].set(Wake::Stale);
        self.live[index] = true;
        self.reachable[index] = true;
        self.restarts += 1;
        self.health.on_success(&Self::health_key(index), now);
        self.rebuild_live_ring();
        true
    }

    /// Cut the front tier off from a (healthy) shard: it keeps draining its
    /// own queue but receives no new work until [`ShardedGateway::heal_shard`].
    /// Returns whether the partition was effective.
    pub fn partition_shard(&mut self, index: usize, now: SimTime) -> bool {
        if index >= self.shards.len() || !self.live[index] || !self.reachable[index] {
            return false;
        }
        self.reachable[index] = false;
        self.health.on_failure(&Self::health_key(index), now);
        self.rebuild_live_ring();
        true
    }

    /// Heal a front-tier partition. Returns whether anything changed.
    pub fn heal_shard(&mut self, index: usize, now: SimTime) -> bool {
        if index >= self.shards.len() || self.reachable[index] {
            return false;
        }
        self.reachable[index] = true;
        if self.live[index] {
            self.health.on_success(&Self::health_key(index), now);
        }
        self.rebuild_live_ring();
        true
    }

    /// Per-shard circuit-breaker health (keys are `shard-<index>`).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Shard crashes applied so far.
    pub fn crashes(&self) -> usize {
        self.crashes
    }

    /// Shard restarts applied so far.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Decide where the next submission keyed by `key` goes and account the
    /// decision: the ring's home shard unless the spillover policy diverts
    /// it to the least-loaded peer. Call exactly once per submission.
    pub fn route(&mut self, key: &str) -> RouteDecision {
        self.route_home(self.ring.shard_for(key))
    }

    /// [`ShardedGateway::route`] with a precomputed home shard (drivers that
    /// cache ring lookups per tenant).
    pub fn route_home(&mut self, home: usize) -> RouteDecision {
        let depth = self.shards[home].load_depth();
        self.peak_load[home] = self.peak_load[home].max(depth);
        let policy = self.config.spillover;
        let mut target = home;
        if policy.enabled && self.shards.len() > 1 && depth > policy.queue_threshold {
            // Cumulative budget, checked before counting this request so a
            // freshly saturated shard can spill its first request: once
            // traffic accumulates, `spilled_out <= max_fraction * routed`
            // bounds the diverted share.
            let budget_ok =
                self.spilled_out[home] as f64 <= policy.max_fraction * self.routed[home] as f64;
            if budget_ok {
                // Least-loaded routable peer, lowest index on ties
                // (deterministic). All shards are routable on a healthy
                // fleet, so this matches the pre-failover behaviour exactly.
                let best = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != home && self.live[i] && self.reachable[i])
                    .map(|(i, gw)| (i, gw.load_depth()))
                    .min_by_key(|&(i, d)| (d, i));
                if let Some((best, best_depth)) = best {
                    if best_depth < depth {
                        target = best;
                    }
                }
            }
        }
        self.routed[home] += 1;
        let spilled = target != home;
        if spilled {
            self.spilled_out[home] += 1;
            self.spilled_in[target] += 1;
        }
        RouteDecision {
            shard: target,
            home,
            spilled,
        }
    }

    /// Shard `index`'s next pending event, from the wake cache (refreshed
    /// first if stale). A dead shard makes no progress of its own, so its
    /// wake is `None`.
    pub fn shard_wake(&self, index: usize) -> Option<SimTime> {
        match self.wake[index].get() {
            Wake::At(at) => at,
            Wake::Stale => {
                let at = if self.live[index] {
                    SimProcess::next_event_time(&self.shards[index])
                } else {
                    None
                };
                self.wake[index].set(Wake::At(at));
                at
            }
        }
    }

    /// Earliest pending event across the live fleet: the minimum of the
    /// per-shard wake cache.
    pub fn next_event_time(&self) -> Option<SimTime> {
        (0..self.shards.len())
            .filter_map(|i| self.shard_wake(i))
            .min()
    }

    /// Advance every live shard with an event due at or before `now` (peer
    /// simulation entities share one clock). A shard whose next event lies
    /// after `now` is skipped: advancing it would change nothing. Partitioned
    /// shards still advance — they are running, merely unreachable from the
    /// front tier.
    pub fn advance_all(&mut self, now: SimTime) {
        for i in 0..self.shards.len() {
            if self.shard_wake(i).is_some_and(|at| at <= now) {
                self.shard_mut(i).advance(now);
            }
        }
    }

    /// Whether every live shard has answered everything it accepted (a dead
    /// shard's in-flight work is lost, not awaited).
    pub fn is_drained(&self) -> bool {
        self.shards
            .iter()
            .zip(&self.live)
            .all(|(shard, &live)| !live || shard.is_drained())
    }

    /// Requests the front tier routed per shard (spill-ins counted at the
    /// receiving shard is tracked separately in [`ShardedGateway::spilled_in`]).
    pub fn routed(&self) -> &[usize] {
        &self.routed
    }

    /// Per-shard spill-in counts.
    pub fn spilled_in(&self) -> &[usize] {
        &self.spilled_in
    }

    /// Per-shard spill-out counts.
    pub fn spilled_out(&self) -> &[usize] {
        &self.spilled_out
    }

    /// Total requests that crossed shards under the spillover policy.
    pub fn spilled_total(&self) -> usize {
        self.spilled_out.iter().sum()
    }

    /// Peak [`Gateway::load_depth`] per shard, observed at submission
    /// instants.
    pub fn peak_load(&self) -> &[usize] {
        &self.peak_load
    }

    /// Roll the fleet up into per-shard report rows. Acceptance and outcome
    /// counts come from each shard's own metrics layer, routing and spill
    /// counts from the front tier, fault counts from `faults_per_shard`
    /// (pass `&[]` when no injector ran).
    pub fn shard_reports(&self, faults_per_shard: &[usize]) -> Vec<ShardReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, gw)| {
                let m = gw.metrics();
                let completed = m.completed as usize;
                let failed = m.failed as usize;
                let rejected = m.rejected as usize;
                ShardReport {
                    shard: i,
                    offered: self.routed[i] - self.spilled_out[i] + self.spilled_in[i],
                    accepted: completed + failed,
                    rejected,
                    completed,
                    failed,
                    spilled_in: self.spilled_in[i],
                    spilled_out: self.spilled_out[i],
                    faults_injected: faults_per_shard.get(i).copied().unwrap_or(0),
                    peak_load_depth: self.peak_load[i],
                }
            })
            .collect()
    }

    /// The fleet dashboard: shard 0..n's snapshots folded into one aggregate
    /// view (totals summed, per-model/cluster/queue/tenant rows merged by
    /// key) plus the per-shard `-- shards --` section.
    pub fn dashboard_snapshot(&self, now: SimTime) -> DashboardSnapshot {
        let mut merged: Option<DashboardSnapshot> = None;
        for gw in &self.shards {
            let snap = gw.dashboard_snapshot(now);
            merged = Some(match merged {
                None => snap,
                Some(mut acc) => {
                    acc.absorb(&snap);
                    acc
                }
            });
        }
        let mut snapshot = merged.unwrap_or_default();
        snapshot.shards = self.shard_rows();
        snapshot.normalise();
        snapshot
    }

    /// The per-shard dashboard rows.
    pub fn shard_rows(&self) -> Vec<ShardRow> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, gw)| {
                let m = gw.metrics();
                ShardRow {
                    shard: i as u64,
                    requests: m.total_received(),
                    completed: m.completed,
                    failed: m.failed + m.rejected,
                    spilled_in: self.spilled_in[i] as u64,
                    spilled_out: self.spilled_out[i] as u64,
                    load_depth: gw.load_depth() as u64,
                }
            })
            .collect()
    }

    /// Export the `first_shard_*` metric family: one sample per shard,
    /// labelled `shard="<index>"`, covering routed/completed/failed
    /// requests, spill flow, the live load depth, shard liveness and the
    /// time-dependent breaker health at `now`, plus the fleet-level
    /// `first_shard_failover_*` counters. Read-only, like
    /// [`Gateway::export_metrics`].
    pub fn export_shard_metrics(&self, now: SimTime) -> MetricRegistry {
        let registry = MetricRegistry::new();
        for (i, gw) in self.shards.iter().enumerate() {
            let labels = LabelSet::single("shard", i.to_string());
            let m = gw.metrics();
            registry.add_counter(
                "first_shard_requests_total",
                labels.clone(),
                m.total_received(),
            );
            registry.add_counter("first_shard_completed_total", labels.clone(), m.completed);
            registry.add_counter(
                "first_shard_failed_total",
                labels.clone(),
                m.failed + m.rejected,
            );
            registry.add_counter(
                "first_shard_spilled_in_total",
                labels.clone(),
                self.spilled_in[i] as u64,
            );
            registry.add_counter(
                "first_shard_spilled_out_total",
                labels.clone(),
                self.spilled_out[i] as u64,
            );
            registry.set_gauge(
                "first_shard_load_depth",
                labels.clone(),
                gw.load_depth() as f64,
            );
            registry.set_gauge(
                "first_shard_peak_load_depth",
                labels.clone(),
                self.peak_load[i] as f64,
            );
            registry.set_gauge(
                "first_shard_live",
                labels.clone(),
                if self.live[i] { 1.0 } else { 0.0 },
            );
            registry.set_gauge(
                "first_shard_health",
                labels,
                self.health.state(&Self::health_key(i), now).severity(),
            );
        }
        registry.set_gauge(
            "first_shard_count",
            LabelSet::empty(),
            self.shards.len() as f64,
        );
        registry.add_counter(
            "first_shard_failover_crashes_total",
            LabelSet::empty(),
            self.crashes as u64,
        );
        registry.add_counter(
            "first_shard_failover_restarts_total",
            LabelSet::empty(),
            self.restarts as u64,
        );
        registry.add_counter(
            "first_shard_failover_breaker_trips_total",
            LabelSet::empty(),
            self.health.trips(),
        );
        registry.set_gauge(
            "first_scrape_time_seconds",
            LabelSet::empty(),
            now.as_secs_f64(),
        );
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use first_auth::TokenString;
    use std::collections::BTreeMap;

    #[test]
    fn ring_covers_every_shard_and_is_deterministic() {
        let ring = ConsistentHashRing::new(4);
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..2000 {
            let shard = ring.shard_for(&format!("tenant-{i}"));
            assert!(shard < 4);
            *seen.entry(shard).or_default() += 1;
        }
        assert_eq!(seen.len(), 4, "all shards own keys: {seen:?}");
        // Virtual nodes keep the split roughly balanced.
        for (&shard, &count) in &seen {
            assert!(
                count > 200,
                "shard {shard} owns only {count}/2000 keys: {seen:?}"
            );
        }
        let again = ConsistentHashRing::new(4);
        for i in 0..100 {
            let key = format!("tenant-{i}");
            assert_eq!(ring.shard_for(&key), again.shard_for(&key));
        }
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        for n in 1..6usize {
            let old = ConsistentHashRing::new(n);
            let new = ConsistentHashRing::new(n + 1);
            let mut moved = 0usize;
            let keys = 4000usize;
            for i in 0..keys {
                let key = format!("tenant-{i}");
                let before = old.shard_for(&key);
                let after = new.shard_for(&key);
                if before != after {
                    assert_eq!(
                        after, n,
                        "key '{key}' moved between old shards {before}->{after} at n={n}"
                    );
                    moved += 1;
                }
            }
            let expected = keys as f64 / (n + 1) as f64;
            let moved = moved as f64;
            assert!(
                moved > expected * 0.5 && moved < expected * 1.6,
                "n={n}: {moved} keys moved, expected ~{expected:.0}"
            );
        }
    }

    #[test]
    fn single_shard_routing_is_transparent() {
        let mut fleet = ShardedGateway::from_builder(
            &DeploymentBuilder::single_cluster_test().prewarm(1),
            ShardingConfig::single(),
        );
        for i in 0..10 {
            let d = fleet.route(&format!("tenant-{i}"));
            assert_eq!(d.shard, 0);
            assert!(!d.spilled);
        }
        assert_eq!(fleet.spilled_total(), 0);
        assert_eq!(fleet.routed()[0], 10);
    }

    #[test]
    fn spillover_respects_threshold_and_budget() {
        use crate::api::ChatCompletionRequest;
        let builder = DeploymentBuilder::single_cluster_test().prewarm(1);
        let mut fleet = ShardedGateway::from_builder(
            &builder,
            ShardingConfig::with_shards(2).spill(SpilloverPolicy::bounded(0, 0.5)),
        );
        // Enroll the same users on both shards (shared control plane).
        let tokens: Vec<_> = (0..2)
            .map(|i| {
                let gw = fleet.shard_mut(i);
                crate::deploy::enroll_standard_users(gw)
            })
            .collect();
        // Saturate shard 0 with a few requests so its load depth is nonzero.
        let model = "meta-llama/Llama-3.3-70B-Instruct";
        for i in 0..4u64 {
            let req = ChatCompletionRequest::simple(model, &format!("warm {i}"), 64);
            fleet
                .shard_mut(0)
                .chat_completions(&req, &tokens[0].alice, Some(32), SimTime::from_secs(i))
                .expect("accepted");
        }
        assert!(fleet.shard(0).load_depth() > 0);
        assert_eq!(fleet.shard(1).load_depth(), 0);
        // A key homed on shard 0 now spills to shard 1 — but only within the
        // 50% budget.
        let key = (0..)
            .map(|i| format!("probe-{i}"))
            .find(|k| fleet.home_shard(k) == 0)
            .unwrap();
        let first = fleet.route(&key);
        assert_eq!(first.home, 0);
        assert_eq!(first.shard, 1, "saturated home spills to the idle peer");
        assert!(first.spilled);
        // Exhaust the budget: with max_fraction=0.5 the cumulative spill
        // count can never exceed half the routed count.
        for _ in 0..20 {
            fleet.route(&key);
        }
        let routed = fleet.routed()[0];
        let spilled = fleet.spilled_out()[0];
        assert!(
            spilled as f64 <= 0.5 * routed as f64 + 1.0,
            "budget exceeded: {spilled}/{routed}"
        );
        assert_eq!(fleet.spilled_in()[1], spilled);
    }

    #[test]
    fn removing_a_shard_rehomes_only_its_keys() {
        for n in 2..6usize {
            let full = ConsistentHashRing::new(n);
            for dead in 0..n {
                let survivors = full.without(dead);
                assert_eq!(survivors.shards(), n, "indices keep their meaning");
                for i in 0..2000 {
                    let key = format!("tenant-{i}");
                    let before = full.shard_for(&key);
                    let after = survivors.shard_for(&key);
                    assert_ne!(after, dead, "key '{key}' routed to the dead shard");
                    if before != dead {
                        assert_eq!(
                            before, after,
                            "live key '{key}' moved {before}->{after} when shard {dead} died"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restricted_ring_masks_and_empties() {
        let ring = ConsistentHashRing::new(3);
        assert_eq!(
            ring.restricted(&[true, true, true]).shard_for("tenant-7"),
            ring.shard_for("tenant-7"),
            "all-true mask is the identity"
        );
        let only_two = ring.restricted(&[false, false, true]);
        for i in 0..50 {
            assert_eq!(only_two.shard_for(&format!("tenant-{i}")), 2);
        }
        assert_eq!(
            ring.restricted(&[false, false, false]).try_shard_for("k"),
            None,
            "no routable shard left"
        );
    }

    #[test]
    fn kill_restore_and_partition_drive_routing_and_health() {
        let builder = DeploymentBuilder::single_cluster_test().prewarm(1);
        let mut fleet = ShardedGateway::from_builder(&builder, ShardingConfig::with_shards(3));
        let key = (0..)
            .map(|i| format!("probe-{i}"))
            .find(|k| fleet.home_shard(k) == 1)
            .unwrap();
        assert_eq!(fleet.routable_home(&key), Some(1));
        assert_eq!(fleet.routable_count(), 3);

        // Crash shard 1: its keys re-home, it stops counting toward drain,
        // and its breaker trips.
        let t = SimTime::from_secs(10);
        assert!(fleet.kill_shard(1, t));
        assert!(!fleet.kill_shard(1, t), "double-kill is vacuous");
        assert!(!fleet.kill_shard(9, t), "out-of-range kill is vacuous");
        assert!(!fleet.is_live(1));
        assert_eq!(fleet.routable_count(), 2);
        let rehomed = fleet.routable_home(&key).expect("survivors own the key");
        assert_ne!(rehomed, 1);
        assert_eq!(
            fleet.health().state("shard-1", t),
            first_chaos::HealthState::Unavailable
        );
        assert_eq!(fleet.crashes(), 1);

        // Restart with a fresh replica: routing returns to the full ring.
        let t2 = SimTime::from_secs(40);
        assert!(fleet.restore_shard(1, builder.clone().build(), t2));
        assert!(!fleet.restore_shard(1, builder.clone().build(), t2));
        assert!(fleet.is_live(1));
        assert_eq!(fleet.routable_home(&key), Some(1));
        assert_eq!(fleet.restarts(), 1);

        // Partition: the shard is alive but unroutable until healed.
        assert!(fleet.partition_shard(1, t2));
        assert!(fleet.is_live(1));
        assert!(!fleet.is_reachable(1));
        assert_ne!(fleet.routable_home(&key), Some(1));
        assert!(fleet.heal_shard(1, SimTime::from_secs(50)));
        assert_eq!(fleet.routable_home(&key), Some(1));
    }

    #[test]
    fn exported_shard_metrics_cover_health_liveness_and_failover_counters() {
        let builder = DeploymentBuilder::single_cluster_test().prewarm(1);
        let mut fleet = ShardedGateway::from_builder(&builder, ShardingConfig::with_shards(2));
        let t = SimTime::from_secs(30);
        fleet.kill_shard(1, t);
        let snap = fleet.export_shard_metrics(t).snapshot();
        for name in [
            "first_shard_requests_total",
            "first_shard_completed_total",
            "first_shard_failed_total",
            "first_shard_spilled_in_total",
            "first_shard_spilled_out_total",
        ] {
            for shard in 0..2 {
                assert!(
                    snap.find(name, &LabelSet::single("shard", shard.to_string()))
                        .is_some(),
                    "missing {name} for shard {shard}"
                );
            }
        }
        let gauge = |name: &str, shard: usize| {
            snap.gauge_value(name, &LabelSet::single("shard", shard.to_string()))
        };
        assert_eq!(gauge("first_shard_live", 0), 1.0);
        assert_eq!(gauge("first_shard_live", 1), 0.0);
        assert_eq!(gauge("first_shard_health", 0), 0.0, "healthy severity");
        assert_eq!(gauge("first_shard_health", 1), 2.0, "unavailable severity");
        assert_eq!(
            snap.counter_value("first_shard_failover_crashes_total", &LabelSet::empty()),
            1
        );
        assert_eq!(
            snap.counter_value("first_shard_failover_restarts_total", &LabelSet::empty()),
            0
        );
        assert!(
            snap.counter_value(
                "first_shard_failover_breaker_trips_total",
                &LabelSet::empty()
            ) >= 1
        );
        // The scrape timestamp comes from `now`, no longer ignored.
        assert_eq!(
            snap.gauge_value("first_scrape_time_seconds", &LabelSet::empty()),
            30.0
        );
    }

    #[test]
    fn spillover_disabled_never_diverts() {
        let builder = DeploymentBuilder::single_cluster_test().prewarm(1);
        let mut fleet = ShardedGateway::from_builder(&builder, ShardingConfig::with_shards(3));
        for i in 0..50 {
            let d = fleet.route(&format!("tenant-{i}"));
            assert_eq!(d.shard, d.home);
            assert!(!d.spilled);
        }
        assert_eq!(fleet.spilled_total(), 0);
    }

    const MODEL_70B: &str = "meta-llama/Llama-3.3-70B-Instruct";

    /// A cold fleet (no prewarm, so an untouched shard has no pending
    /// event) with `alice` enrolled on every shard.
    fn cold_fleet(config: ShardingConfig) -> (ShardedGateway, Vec<TokenString>) {
        let mut fleet =
            ShardedGateway::from_builder(&DeploymentBuilder::single_cluster_test(), config);
        let tokens = fleet
            .shards_mut()
            .iter_mut()
            .map(|gw| crate::deploy::enroll_standard_users(gw).alice)
            .collect();
        (fleet, tokens)
    }

    fn admit(gw: &mut Gateway, token: &TokenString, tag: &str, at: SimTime) {
        let req = crate::api::ChatCompletionRequest::simple(MODEL_70B, tag, 64);
        gw.chat_completions(&req, token, Some(32), at)
            .expect("accepted");
    }

    fn is_stale(fleet: &ShardedGateway, index: usize) -> bool {
        matches!(fleet.wake[index].get(), Wake::Stale)
    }

    #[test]
    fn admission_through_shard_mut_shows_in_the_fleet_wake() {
        let (mut fleet, tokens) = cold_fleet(ShardingConfig::with_shards(2));
        assert_eq!(fleet.next_event_time(), None, "a cold fleet is idle");
        admit(
            fleet.shard_mut(1),
            &tokens[1],
            "hello",
            SimTime::from_secs(5),
        );
        let wake = SimProcess::next_event_time(fleet.shard(1));
        assert!(wake.is_some());
        assert_eq!(fleet.shard_wake(1), wake);
        assert_eq!(fleet.shard_wake(0), None);
        assert_eq!(fleet.next_event_time(), wake);
    }

    #[test]
    fn take_responses_keeps_the_cached_wake() {
        let (mut fleet, tokens) = cold_fleet(ShardingConfig::with_shards(2));
        admit(
            fleet.shard_mut(0),
            &tokens[0],
            "hello",
            SimTime::from_secs(1),
        );
        let wake = fleet.next_event_time();
        assert!((0..2).all(|i| !is_stale(&fleet, i)), "a read refreshes");
        assert!(fleet.take_responses(0).is_empty());
        assert!(fleet.take_responses(1).is_empty());
        assert!(
            (0..2).all(|i| !is_stale(&fleet, i)),
            "collecting responses forces no refresh"
        );
        assert_eq!(fleet.next_event_time(), wake);
        fleet.shard_mut(1);
        assert!(is_stale(&fleet, 1), "mutable access invalidates");
        assert!(!is_stale(&fleet, 0));
    }

    #[test]
    fn killed_wake_leaves_the_minimum_and_restored_wake_rejoins() {
        let builder = DeploymentBuilder::single_cluster_test();
        let (mut fleet, tokens) = cold_fleet(ShardingConfig::with_shards(2));
        admit(
            fleet.shard_mut(0),
            &tokens[0],
            "late",
            SimTime::from_secs(30),
        );
        admit(
            fleet.shard_mut(1),
            &tokens[1],
            "early",
            SimTime::from_secs(1),
        );
        let late = SimProcess::next_event_time(fleet.shard(0));
        let early = SimProcess::next_event_time(fleet.shard(1));
        assert!(early < late);
        assert_eq!(fleet.next_event_time(), early);

        assert!(fleet.kill_shard(1, SimTime::from_secs(2)));
        assert_eq!(fleet.shard_wake(1), None, "a dead shard has no wake");
        assert_eq!(fleet.next_event_time(), late);

        let mut fresh = builder.build();
        let token = crate::deploy::enroll_standard_users(&mut fresh).alice;
        admit(&mut fresh, &token, "again", SimTime::from_secs(3));
        let rejoined = SimProcess::next_event_time(&fresh);
        assert!(rejoined < late);
        assert!(fleet.restore_shard(1, fresh, SimTime::from_secs(3)));
        assert_eq!(fleet.next_event_time(), rejoined);
    }

    #[test]
    fn traffic_homed_on_one_shard_moves_only_that_shard() {
        use first_desim::stats::kernel;
        let samples = first_workload::ShareGptGenerator::new(3).samples(24);
        let arrivals: Vec<SimTime> = (0..24).map(|i| SimTime::from_millis(250 * i)).collect();
        let horizon = SimTime::from_secs(24 * 3600);
        let run = |shards: usize| {
            let (mut fleet, tokens) = cold_fleet(ShardingConfig::with_shards(shards));
            kernel::reset();
            let report = crate::sim::run_sharded_openloop(
                &mut fleet, &tokens, MODEL_70B, &samples, &arrivals, 1, "r", horizon,
            );
            let home = fleet.home_shard("user-0");
            assert_eq!(fleet.routed()[home], 24, "every request homes on one shard");
            (kernel::events_processed(), report)
        };
        let (alone, mut single) = run(1);
        let (fleet, mut sharded) = run(4);
        assert!(alone > 0);
        assert_eq!(
            fleet, alone,
            "three idle shards must record no kernel event"
        );
        single.label.clear();
        sharded.label.clear();
        assert_eq!(single, sharded);
    }

    /// One response as the differential test compares it.
    type Seen = (usize, u64, SimTime, crate::api::Usage);

    /// The pre-cache loop: every live shard advances at every step, and
    /// the next step is read from every live shard directly.
    #[allow(clippy::too_many_arguments)]
    fn every_shard_openloop(
        fleet: &mut ShardedGateway,
        tokens: &[TokenString],
        samples: &[first_workload::ConversationSample],
        arrivals: &[SimTime],
        users: usize,
        horizon: SimTime,
    ) -> Vec<Seen> {
        let n = fleet.shard_count();
        let homes: Vec<usize> = (0..users)
            .map(|u| fleet.home_shard(&format!("user-{u}")))
            .collect();
        let mut seen = Vec::new();
        let mut collect = |fleet: &mut ShardedGateway| {
            for i in 0..n {
                for r in fleet.shard_mut(i).take_responses() {
                    seen.push((i, r.request_id, r.finished_at, r.usage));
                }
            }
        };
        let mut next = 0usize;
        loop {
            let internal = (0..n)
                .filter(|&i| fleet.is_live(i))
                .filter_map(|i| SimProcess::next_event_time(fleet.shard(i)))
                .min();
            let Some(step) = [arrivals.get(next).copied(), internal]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            if step > horizon {
                break;
            }
            for i in 0..n {
                if fleet.is_live(i) {
                    fleet.shard_mut(i).advance(step);
                }
            }
            while next < arrivals.len() && arrivals[next] <= step {
                let req = crate::sim::synthetic_chat_request(MODEL_70B, next, &samples[next]);
                let d = fleet.route_home(homes[next % users]);
                let _ = fleet.shard_mut(d.shard).chat_completions(
                    &req,
                    &tokens[d.shard],
                    Some(samples[next].output_tokens),
                    arrivals[next],
                );
                next += 1;
            }
            collect(fleet);
            if next >= arrivals.len() && fleet.is_drained() {
                break;
            }
        }
        collect(fleet);
        seen
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Advancing only due shards answers every request exactly as
        /// advancing the whole fleet at every step does: same shard, same
        /// id, same finish instant, same usage.
        #[test]
        fn due_only_walk_matches_every_shard_walk(
            requests in 1usize..40,
            rate in 0.5f64..20.0,
            users in 1usize..6,
            threshold in 0usize..4,
            fraction in 0.1f64..0.9,
            seed in 0u64..1_000,
        ) {
            let samples = first_workload::ShareGptGenerator::new(seed).samples(requests);
            let mut rng = first_desim::SimRng::seed_from_u64(seed ^ 0x5EED);
            let arrivals = first_workload::ArrivalProcess::Poisson(rate)
                .arrivals(requests, SimTime::ZERO, &mut rng);
            let horizon = SimTime::from_secs(24 * 3600);
            let config = ShardingConfig::with_shards(3)
                .spill(SpilloverPolicy::bounded(threshold, fraction));

            let (mut fleet, tokens) = cold_fleet(config.clone());
            let mut due_only = Vec::new();
            crate::sim::drive_sharded_openloop(
                &mut fleet, &tokens, MODEL_70B, &samples, &arrivals, users, horizon,
                |shard, r| due_only.push((shard, r.request_id, r.finished_at, r.usage)),
            );
            let (mut reference, ref_tokens) = cold_fleet(config);
            let every = every_shard_openloop(
                &mut reference, &ref_tokens, &samples, &arrivals, users, horizon,
            );
            prop_assert_eq!(due_only.len(), requests);
            prop_assert_eq!(due_only, every);
            prop_assert_eq!(fleet.spilled_out(), reference.spilled_out());
        }
    }
}
