//! The scenario runner: compiles a declarative [`ScenarioSpec`] into a
//! request stream and replays it against a live deployment — one gateway or
//! a sharded federation of peers.
//!
//! [`ScenarioRun`] is the single seam every scenario-matrix consumer shares:
//! a builder that composes the orthogonal run axes — seed, shard topology,
//! tracing, recording, replay — into one `execute()`. The run resolves the
//! spec's deployment reference (once per shard), enrolls one auth user per
//! tenant class on every shard (so the request log, dashboard and metric
//! export partition per tenant for free, and a credential is valid wherever
//! the ring or a spill sends the request), replays the merged stream
//! open-loop with the spec's embedded fault plan applied along the way, and
//! reports per-tenant metric partitions and SLO attainment in a
//! [`GatewayReport`] — with a per-shard [`ShardSection`] rollup when the run
//! was sharded. In debug builds the run finishes with the
//! [`crate::invariants`] check, so every `cargo test` that touches a
//! scenario also proves request conservation and task-slab hygiene.
//!
//! Every open-loop request goes through one front tier: live-ring routing,
//! the optional overload shed, fan-in, and first-response-wins delivery. A
//! single unsharded gateway with the default [`FrontTierPolicy`] is just the
//! front tier with one shard and nothing to retry, hedge or shed.

use crate::deploy::DeploymentBuilder;
use crate::gateway::Gateway;
#[cfg(debug_assertions)]
use crate::invariants::{
    check_failover_run_invariants, check_run_invariants, check_sharded_run_invariants,
};
use crate::invariants::{check_replay_invariants, RunLedger};
use crate::shard::{FrontTierPolicy, ShardReport, ShardedGateway, ShardingConfig, SpilloverPolicy};
use crate::sim::{admit_simulated, run_webui_closed_loop, WebUiCell};
use first_auth::{Identity, Scope, TokenString, UserId};
use first_chaos::{FaultInjector, ResilienceConfig, ShardFaultKind};
use first_desim::{Histogram, SimDuration, SimProcess, SimTime, TimingWheel};
use first_telemetry::{PhaseBreakdown, SpanTree, TraceConfig};
use first_workload::{
    Cassette, CassetteError, DeploymentRef, RequestOutcome, ScenarioRequest, ScenarioSpec,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-tenant metric partition of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant-class name.
    pub tenant: String,
    /// Tenant priority (from the spec).
    pub priority: u8,
    /// Requests the tenant offered.
    pub offered: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed after acceptance.
    pub failed: usize,
    /// Requests rejected at the API boundary.
    pub rejected: usize,
    /// `completed / offered`.
    pub availability: f64,
    /// Median end-to-end latency of successful requests, seconds.
    pub median_latency_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_latency_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Output tokens delivered to this tenant.
    pub output_tokens: u64,
    /// Output tokens per second over the run.
    pub output_tok_per_s: f64,
    /// SLO target: 95th-percentile latency, seconds.
    pub slo_p95_target_s: f64,
    /// SLO target: availability.
    pub slo_availability_target: f64,
    /// Fraction of completed requests inside the latency target.
    pub slo_latency_attainment: f64,
    /// Whether the tenant's measured p95 and availability met the target.
    pub slo_met: bool,
}

impl TenantReport {
    /// One formatted table row (used by `scenario_matrix` and the dashboard
    /// example).
    pub fn table_row(&self) -> String {
        format!(
            "{:<18} {:>4} {:>7} {:>7} {:>5} {:>5} {:>7.2}% {:>9.1} {:>9.1} {:>10} {:>8.1}% {:>5}",
            self.tenant,
            self.priority,
            self.offered,
            self.completed,
            self.failed,
            self.rejected,
            self.availability * 100.0,
            self.median_latency_s,
            self.p95_latency_s,
            self.output_tokens,
            self.slo_latency_attainment * 100.0,
            if self.slo_met { "met" } else { "MISS" },
        )
    }

    /// The table header matching [`TenantReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<18} {:>4} {:>7} {:>7} {:>5} {:>5} {:>8} {:>9} {:>9} {:>10} {:>9} {:>5}",
            "tenant",
            "prio",
            "offered",
            "done",
            "fail",
            "rej",
            "avail",
            "med (s)",
            "p95 (s)",
            "out_tok",
            "slo_att",
            "slo"
        )
    }
}

/// The sharded-federation rollup of one run: how the front tier split the
/// traffic, what each shard did with its share and how much crossed shards
/// under the spillover policy. `None` on the report when the run used the
/// transparent single-shard configuration, so unsharded reports serialize
/// exactly as they did before sharding existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSection {
    /// Number of peer gateway shards.
    pub count: usize,
    /// DNS/LB fan-in latency modelled between client and shard, seconds.
    pub fanin_latency_s: f64,
    /// The spillover policy the front tier ran under.
    pub spillover: SpilloverPolicy,
    /// Requests that crossed shards under the spillover policy.
    pub spilled_requests: usize,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardReport>,
}

/// The failover rollup of one run under shard-scoped faults or a non-default
/// front-tier policy: what the chaos plan did to the federation tier and how
/// the front tier absorbed it — retries, hedges, re-homes, and typed sheds.
/// `None` on the report when the run had neither, so reports from before
/// shard faults existed keep serializing exactly as they did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailoverSection {
    /// Whole-shard crashes applied from the plan.
    pub crashes: usize,
    /// Shard restarts applied (fresh replica, cold caches, re-enrolled
    /// tenants).
    pub restarts: usize,
    /// Front-tier partitions applied (shard alive but unroutable).
    pub partitions: usize,
    /// Fan-in latency spikes applied.
    pub fanin_spikes: usize,
    /// Physical in-flight copies lost to shard crashes.
    pub lost_in_flight: usize,
    /// Arrivals routed to a surviving peer because their home shard was dead
    /// or partitioned at arrival time.
    pub rehomed_requests: usize,
    /// Front-tier re-dispatches: crash-loss retries under exponential
    /// backoff plus request-timeout re-dispatches.
    pub retries_dispatched: usize,
    /// Requests that resolved on a non-hedge attempt after more than one
    /// dispatch.
    pub retried_to_completion: usize,
    /// Hedged duplicate dispatches issued by the front tier.
    pub hedges_dispatched: usize,
    /// Requests whose hedged duplicate answered first.
    pub hedge_wins: usize,
    /// Responses that arrived after their request had already been resolved
    /// by a duplicate; dropped at the front tier, counted on the shard.
    pub stale_responses: usize,
    /// Typed overload sheds: arrivals below the shed policy's priority floor
    /// rejected while their home shard's queue exceeded the depth bound.
    pub shed_overload: usize,
    /// Typed sheds because no shard was routable at arrival time.
    pub shed_no_live_shard: usize,
    /// Accepted requests failed back to the client after the retry budget
    /// ran out, or with no routable shard left to retry on.
    pub shed_retries_exhausted: usize,
    /// Circuit-breaker trips recorded by the fleet's per-shard health
    /// tracker.
    pub breaker_trips: u64,
}

/// The full result of one scenario run: whole-run totals plus the per-tenant
/// partitions. Contains no wall-clock measurement, so two runs of the same
/// spec and seed serialize byte-identically — the property the golden tests
/// and the CI thread-count diff pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Requests offered across all tenants.
    pub offered: usize,
    /// Requests accepted by the gateway.
    pub accepted: usize,
    /// Requests rejected at the API boundary.
    pub rejected: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests failed after acceptance.
    pub failed: usize,
    /// Run duration in seconds (first arrival → last delivery).
    pub duration_s: f64,
    /// Completed requests per second.
    pub request_throughput: f64,
    /// Output tokens per second.
    pub output_token_throughput: f64,
    /// Faults the injector actually applied.
    pub faults_injected: usize,
    /// Gateway retries issued.
    pub retries: u64,
    /// Failovers to a different endpoint.
    pub failovers: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Hedged requests issued.
    pub hedges: u64,
    /// Per-tenant partitions, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Tenants whose SLO was met.
    pub slo_attained_tenants: usize,
    /// Closed-loop session cell, when the spec carried a session rider.
    pub webui: Option<WebUiCell>,
    /// Phase-latency breakdown of the sampled span trees; `None` unless the
    /// run was traced ([`ScenarioRun::traced`]) and sampled at least one
    /// request.
    #[serde(default)]
    pub phases: Option<PhaseBreakdown>,
    /// Per-shard federation rollup; `None` for single-shard runs, so
    /// unsharded reports stay byte-compatible with pre-sharding ones.
    #[serde(default)]
    pub shards: Option<ShardSection>,
    /// Shard-fault failover rollup; `None` unless the run carried a shard
    /// fault plan or a non-default front-tier policy, so existing reports
    /// stay byte-compatible.
    #[serde(default)]
    pub failover: Option<FailoverSection>,
}

impl GatewayReport {
    /// Look up a tenant partition by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    /// Render the whole report as the table the bench binaries print.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario '{}' (seed {}): offered={} accepted={} rejected={} completed={} failed={} \
             in {:.1}s ({:.2} req/s, {:.1} tok/s), faults={} retries={} failovers={} trips={} hedges={}",
            self.scenario,
            self.seed,
            self.offered,
            self.accepted,
            self.rejected,
            self.completed,
            self.failed,
            self.duration_s,
            self.request_throughput,
            self.output_token_throughput,
            self.faults_injected,
            self.retries,
            self.failovers,
            self.breaker_trips,
            self.hedges,
        );
        if !self.tenants.is_empty() {
            let _ = writeln!(out, "{}", TenantReport::table_header());
            for t in &self.tenants {
                let _ = writeln!(out, "{}", t.table_row());
            }
        }
        if let Some(sh) = &self.shards {
            let _ = writeln!(
                out,
                "sharded federation: {} shards, fan-in {:.3}s, spillover {}, {} spilled",
                sh.count,
                sh.fanin_latency_s,
                if sh.spillover.enabled {
                    "bounded"
                } else {
                    "off"
                },
                sh.spilled_requests,
            );
            let _ = writeln!(out, "{}", ShardReport::table_header());
            for s in &sh.shards {
                let _ = writeln!(out, "{}", s.table_row());
            }
        }
        if let Some(fo) = &self.failover {
            let _ = writeln!(
                out,
                "failover: {} crashed / {} restarted / {} partitioned / {} fan-in spikes; \
                 lost {} in flight, rehomed {}, retries {} ({} won), hedges {} ({} won), \
                 {} stale; shed {} overload + {} no-shard + {} exhausted; {} breaker trips",
                fo.crashes,
                fo.restarts,
                fo.partitions,
                fo.fanin_spikes,
                fo.lost_in_flight,
                fo.rehomed_requests,
                fo.retries_dispatched,
                fo.retried_to_completion,
                fo.hedges_dispatched,
                fo.hedge_wins,
                fo.stale_responses,
                fo.shed_overload,
                fo.shed_no_live_shard,
                fo.shed_retries_exhausted,
                fo.breaker_trips,
            );
        }
        if let Some(cell) = &self.webui {
            let _ = writeln!(
                out,
                "webui sessions: {} concurrent, {} turns in {:.0}s ({:.2} req/s, {:.1} tok/s)",
                cell.concurrency,
                cell.completed,
                cell.duration_s,
                cell.request_throughput,
                cell.token_throughput,
            );
        }
        if let Some(phases) = &self.phases {
            let _ = writeln!(
                out,
                "phase latency ({} sampled, {} dropped):",
                phases.sampled, phases.dropped
            );
            let _ = writeln!(
                out,
                "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "phase", "count", "p50 (s)", "p95 (s)", "mean (s)", "total (s)"
            );
            for s in &phases.by_phase {
                let _ = writeln!(
                    out,
                    "{:<14} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                    s.phase.name(),
                    s.count,
                    s.p50_s,
                    s.p95_s,
                    s.mean_s,
                    s.total_s,
                );
            }
            if let Some(top) = phases.critical_path.first() {
                let _ = writeln!(
                    out,
                    "critical path: {} dominates {} requests ({:.0}% of attributed time)",
                    top.phase.name(),
                    top.requests,
                    top.time_share * 100.0,
                );
            }
        }
        out
    }
}

/// Everything one [`ScenarioRun::execute`] yields: the report, plus the
/// cassette when the run was [`ScenarioRun::recorded`] and the sampled span
/// trees when it was [`ScenarioRun::traced`].
#[derive(Debug)]
pub struct RunOutput {
    /// The scenario report (per-tenant partitions, SLO attainment, optional
    /// per-shard rollup).
    pub report: GatewayReport,
    /// The recorded cassette; `Some` exactly when the run was
    /// [`ScenarioRun::recorded`].
    pub cassette: Option<Cassette>,
    /// The sampled span trees; `Some` exactly when the run was
    /// [`ScenarioRun::traced`] with tracing enabled.
    pub traces: Option<Vec<SpanTree>>,
}

/// A composable scenario run: the one entrypoint behind which seed, shard
/// topology, tracing, recording and replay compose instead of multiplying
/// the API.
///
/// ```
/// use first_core::ScenarioRun;
/// use first_workload::{catalog, ScenarioSpec};
///
/// let spec = &catalog(32)[0];
/// // Plain run.
/// let report = ScenarioRun::new(spec).seed(42).execute().unwrap().report;
/// // The same traffic over a 3-shard federation.
/// let sharded = ScenarioRun::new(spec).seed(42).shards(3).execute().unwrap().report;
/// assert_eq!(report.offered, sharded.offered);
/// assert_eq!(sharded.shards.as_ref().unwrap().count, 3);
/// ```
///
/// The run is deterministic for a fixed configuration: the report carries no
/// wall-clock measurement and every random draw derives from the seed.
/// Debug builds finish with the [`crate::invariants`] check. A spec may
/// carry either open-loop tenants or a closed-loop session rider, not both
/// (the two drivers would fight over the same simulation clock).
#[derive(Debug, Clone)]
pub struct ScenarioRun<'c> {
    spec: ScenarioSpec,
    seed: u64,
    sharding: ShardingConfig,
    trace: TraceConfig,
    record: bool,
    replay_of: Option<&'c Cassette>,
}

impl ScenarioRun<'static> {
    /// A run of `spec` with the default configuration: seed 0, one shard,
    /// no tracing, no recording.
    pub fn new(spec: &ScenarioSpec) -> Self {
        ScenarioRun {
            spec: spec.clone(),
            seed: 0,
            sharding: ShardingConfig::single(),
            trace: TraceConfig::default(),
            record: false,
            replay_of: None,
        }
    }
}

impl<'c> ScenarioRun<'c> {
    /// A replay of a recorded cassette: validates it, compiles it back into
    /// a self-contained spec (outcomes stripped, tenants replaying their
    /// recorded tracks) and pins the recorded seed. `execute()` then runs it
    /// against the recorded deployment and enforces byte-level fidelity via
    /// [`check_replay_invariants`], turning any divergence in offered counts
    /// or identity into a typed [`CassetteError::ReplayMismatch`].
    pub fn replay(cassette: &'c Cassette) -> Result<ScenarioRun<'c>, CassetteError> {
        let spec = cassette.to_spec()?;
        Ok(ScenarioRun {
            spec,
            seed: cassette.seed,
            sharding: ShardingConfig::single(),
            trace: TraceConfig::default(),
            record: false,
            replay_of: Some(cassette),
        })
    }

    /// Set the run seed (replays pin the recorded seed instead).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run the spec over `n` peer gateway shards (consistent-hash routed,
    /// zero fan-in latency, no spillover unless configured separately).
    /// `n = 1` is the transparent configuration, bit-identical to not
    /// calling this at all.
    pub fn shards(mut self, n: usize) -> Self {
        self.sharding.shards = n.max(1);
        self
    }

    /// Model the DNS/LB fan-in hop: every request reaches its shard
    /// `latency` after the client sent it, and client-observed latencies
    /// include the hop.
    pub fn fanin_latency(mut self, latency: SimDuration) -> Self {
        self.sharding.fanin_latency = latency;
        self
    }

    /// Allow bounded cross-shard spillover when a home shard is saturated.
    pub fn spillover(mut self, policy: SpilloverPolicy) -> Self {
        self.sharding.spillover = policy;
        self
    }

    /// Replace the whole sharding configuration at once.
    pub fn sharding(mut self, config: ShardingConfig) -> Self {
        self.sharding = config;
        self
    }

    /// Configure the front-tier failover policy: retry/backoff for requests
    /// lost to shard crashes, an optional per-request timeout re-dispatch,
    /// an optional hedge, and an optional lowest-priority shed under
    /// overload. Setting any non-default policy (or running a spec with a
    /// shard fault plan) adds a [`FailoverSection`] to the report and checks
    /// the run with the failover invariants.
    pub fn front_tier(mut self, policy: FrontTierPolicy) -> Self {
        self.sharding.front_tier = policy;
        self
    }

    /// Enable request-lifecycle tracing: every `sample_every`-th accepted
    /// request yields a [`SpanTree`] in [`RunOutput::traces`], and the
    /// report's [`GatewayReport::phases`] carries the aggregated breakdown.
    /// Tracing never perturbs the simulation — sim-time outcomes are
    /// identical whether or not a request is sampled — and the sampled trees
    /// are seed-deterministic.
    pub fn traced(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Record the run as a [`Cassette`] in [`RunOutput::cassette`]: the
    /// compiled request stream, what the gateway did with every request, and
    /// the spec's fault timeline. Only transparent single-shard runs are
    /// recordable — the cassette format deliberately carries no shard
    /// topology, so a recording replays bit-exactly everywhere.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }

    /// Execute the configured run.
    ///
    /// Infallible unless the run was [`ScenarioRun::recorded`] (closed-loop
    /// session specs and sharded configurations are
    /// [`CassetteError::Unrecordable`]) or is a [`ScenarioRun::replay`]
    /// (divergence is [`CassetteError::ReplayMismatch`]).
    pub fn execute(self) -> Result<RunOutput, CassetteError> {
        if self.record {
            if self.spec.sessions.is_some() {
                return Err(CassetteError::Unrecordable(format!(
                    "scenario '{}' carries a closed-loop session rider",
                    self.spec.name
                )));
            }
            if !self.spec.shard_faults.is_empty() {
                return Err(CassetteError::Unrecordable(format!(
                    "scenario '{}' carries a shard-scoped fault plan; cassettes replay on one \
                     transparent shard, which cannot express federation-tier faults",
                    self.spec.name
                )));
            }
            let transparent = self.sharding.shards <= 1
                && self.sharding.fanin_latency == SimDuration::ZERO
                && !self.sharding.spillover.enabled
                && self.sharding.front_tier == FrontTierPolicy::default();
            if !transparent {
                return Err(CassetteError::Unrecordable(format!(
                    "scenario '{}' runs on a sharded front tier; cassettes carry no shard \
                     topology, so only transparent single-shard runs are recordable",
                    self.spec.name
                )));
            }
        }
        let (report, outcomes, trees) =
            run_scenario_impl(&self.spec, self.seed, self.trace, &self.sharding);
        let cassette = if self.record {
            let compiled = self.spec.compile(self.seed);
            Some(Cassette::from_run(
                &self.spec, self.seed, &compiled, outcomes,
            )?)
        } else {
            None
        };
        if let Some(recording) = self.replay_of {
            check_replay_invariants(&report, recording)
                .map_err(|violations| CassetteError::ReplayMismatch(violations.join("; ")))?;
        }
        let traces = self.trace.enabled().then_some(trees);
        Ok(RunOutput {
            report,
            cassette,
            traces,
        })
    }
}

/// Resolve a [`DeploymentRef`] to its concrete builder.
fn builder_for(deployment: DeploymentRef) -> DeploymentBuilder {
    match deployment {
        DeploymentRef::SingleClusterTest => DeploymentBuilder::single_cluster_test(),
        DeploymentRef::SophiaSingleInstance => DeploymentBuilder::sophia_single_instance(),
        DeploymentRef::Sophia => DeploymentBuilder::sophia(),
        DeploymentRef::FederatedSophiaPolaris => DeploymentBuilder::federated_sophia_polaris(),
    }
}

/// Enroll one auth user for `name` and return their bearer token.
fn enroll_tenant_user(gateway: &mut Gateway, name: &str) -> TokenString {
    let auth = gateway.auth_mut();
    auth.enroll_user(&UserId::new(name));
    let (token, _) = auth
        .login(
            &Identity::new(name, "anl.gov").with_project("scenario-matrix"),
            &[Scope::InferenceApi],
            SimTime::ZERO,
        )
        .unwrap_or_else(|e| panic!("tenant '{name}' login failed: {e:?}"));
    token.token
}

/// The replay-mode dashboard banner for a cassette: what an operator sees
/// when the traffic on the dashboard is a recording, not live users.
pub fn replay_dashboard_cell(cassette: &Cassette) -> first_telemetry::ReplayCell {
    first_telemetry::ReplayCell {
        cassette: cassette.scenario.clone(),
        seed: cassette.seed,
        entries: cassette.len() as u64,
        fault_events: cassette.faults.len() as u64,
    }
}

/// One shard's in-flight index: shard-local request id → (position in the
/// compiled stream, whether the copy is a hedged duplicate). Kept per shard
/// so a crash drains only the dead shard's map.
type InFlightIndex = HashMap<u64, (usize, bool)>;

#[cfg(test)]
thread_local! {
    /// Entries each shard's in-flight index still held when the latest run
    /// on this thread finished.
    static LEFT_IN_INDEX: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Front-tier actions scheduled on the failover event queue. Ordering within
/// one instant follows the queue's insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontAction {
    /// Re-dispatch request `idx` after a crash lost its in-flight copy.
    Retry(usize),
    /// Request-timeout check for request `idx`, armed at attempt snapshot.
    Timeout(usize, u32),
    /// Hedge request `idx` if the attempt snapshot is still current.
    Hedge(usize, u32),
    /// A front-tier partition of `shard` heals.
    Heal(usize),
}

/// Mutable front-tier state for one run: per-request attempt bookkeeping,
/// the retry/timeout/hedge/heal queue and the failover counters. Built on
/// every run; without shard faults or a non-default [`FrontTierPolicy`] its
/// queue stays empty and every request resolves on its first attempt.
struct FrontState {
    policy: FrontTierPolicy,
    /// Per-request resolution flag, aligned with the compiled stream.
    resolved: Vec<bool>,
    /// Physical dispatch attempts per request (initial submit included).
    attempts: Vec<u32>,
    /// Physical copies currently in flight per request.
    outstanding: Vec<u32>,
    /// Shard the latest non-hedge attempt went to (hedges go elsewhere).
    last_shard: Vec<usize>,
    /// Accepted-but-unresolved logical requests.
    unresolved: usize,
    /// Event queue popped in `(time, insertion sequence)` order, which keeps
    /// ordering deterministic within one instant. The unmetered wheel, not
    /// an `EventQueue`, so the kernel event counts stay the gateways' own.
    queue: TimingWheel<FrontAction>,
    /// Cursor into the spec's shard fault plan.
    cursor: usize,
    /// Active fan-in latency spikes: `(expires, extra latency)`.
    spikes: Vec<(SimTime, SimDuration)>,
    /// Shards that crashed at least once; their physical ledgers can never
    /// report drained because the in-flight work they lost is gone.
    ever_crashed: Vec<bool>,
    counters: FailoverSection,
}

impl FrontState {
    fn new(policy: FrontTierPolicy, requests: usize, shards: usize) -> Self {
        FrontState {
            policy,
            resolved: vec![false; requests],
            attempts: vec![0; requests],
            outstanding: vec![0; requests],
            last_shard: vec![0; requests],
            unresolved: 0,
            queue: TimingWheel::new(),
            cursor: 0,
            spikes: Vec::new(),
            ever_crashed: vec![false; shards],
            counters: FailoverSection::default(),
        }
    }

    fn push(&mut self, at: SimTime, action: FrontAction) {
        self.queue.push(at, action);
    }

    fn next_at(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Fan-in latency including any active spike at `now`. Expired spikes
    /// are pruned here — arrivals are non-decreasing, so an entry that has
    /// lapsed can never contribute again and would otherwise accumulate for
    /// the whole run (one per injected spike, scanned on every request).
    fn effective_fanin(&mut self, base: SimDuration, now: SimTime) -> SimDuration {
        self.spikes.retain(|&(until, _)| until > now);
        let extra = self
            .spikes
            .iter()
            .map(|&(_, extra)| extra)
            .max()
            .unwrap_or(SimDuration::ZERO);
        base + extra
    }

    /// Whether the shed policy turns away an arrival of `priority` whose
    /// home shard holds `depth` queued requests.
    fn sheds(&self, priority: u8, depth: usize) -> bool {
        self.policy
            .shed
            .is_some_and(|shed| priority < shed.priority_floor && depth > shed.queue_depth)
    }

    /// Book `shard` as the home of the latest non-hedge attempt of `idx`,
    /// accepted at `now`, and arm the policy's timeout and hedge against the
    /// current attempt count.
    fn arm(&mut self, idx: usize, shard: usize, now: SimTime) {
        self.last_shard[idx] = shard;
        let snap = self.attempts[idx];
        if let Some(timeout) = self.policy.request_timeout {
            self.push(now + timeout, FrontAction::Timeout(idx, snap));
        }
        if let Some(after) = self.policy.hedge_after {
            self.push(now + after, FrontAction::Hedge(idx, snap));
        }
    }

    /// Resolve `idx` as failed-back-to-the-client when nothing is in flight
    /// for it any more and the front tier has no further move.
    fn give_up(&mut self, idx: usize, tenant: usize, ledger: &mut RunLedger, failed: &mut [usize]) {
        if self.outstanding[idx] > 0 || self.resolved[idx] {
            return;
        }
        self.resolved[idx] = true;
        self.unresolved -= 1;
        ledger.on_response(false);
        failed[tenant] += 1;
        self.counters.shed_retries_exhausted += 1;
    }
}

/// One front-tier re-dispatch of request `idx` at `now`: a crash-loss or
/// timeout retry (`hedge == false`, budgeted by the retry policy) or a
/// hedged duplicate to a different shard (`hedge == true`). Resolves the
/// request as failed when the budget is exhausted or no shard is routable
/// and nothing is in flight.
#[allow(clippy::too_many_arguments)]
fn front_dispatch(
    fleet: &mut ShardedGateway,
    f: &mut FrontState,
    ledger: &mut RunLedger,
    shard_ledgers: &mut [RunLedger],
    request_index: &mut [InFlightIndex],
    requests: &[ScenarioRequest],
    spec: &ScenarioSpec,
    tokens: &[Vec<TokenString>],
    failed: &mut [usize],
    idx: usize,
    now: SimTime,
    hedge: bool,
) {
    let request = &requests[idx];
    let tenant = request.tenant as usize;
    let budget = 1 + f.policy.retry.max_retries;
    if !hedge && f.attempts[idx] >= budget {
        f.give_up(idx, tenant, ledger, failed);
        return;
    }
    let target = if hedge {
        // Hedge to the least-loaded routable shard other than the one the
        // primary attempt went to; with nowhere else to go, skip quietly —
        // the primary is still in flight.
        let exclude = f.last_shard[idx];
        (0..fleet.shard_count())
            .filter(|&i| i != exclude && fleet.routable(i))
            .min_by_key(|&i| (fleet.shard(i).load_depth(), i))
    } else {
        fleet.routable_home(&spec.tenants[tenant].name)
    };
    let Some(shard) = target else {
        if !hedge {
            f.give_up(idx, tenant, ledger, failed);
        }
        return;
    };
    let result = admit_simulated(
        fleet.shard_mut(shard),
        &tokens[shard][tenant],
        &request.model,
        idx,
        request.prompt_tokens,
        request.output_tokens,
        now,
    );
    f.attempts[idx] += 1;
    if hedge {
        f.counters.hedges_dispatched += 1;
    } else {
        f.counters.retries_dispatched += 1;
    }
    match result {
        Ok(id) => {
            request_index[shard].insert(id, (idx, hedge));
            f.outstanding[idx] += 1;
            shard_ledgers[shard].on_submission(true);
            if !hedge {
                f.arm(idx, shard, now);
            }
        }
        Err(_) => {
            shard_ledgers[shard].on_submission(false);
            if !hedge {
                if f.attempts[idx] >= budget {
                    f.give_up(idx, tenant, ledger, failed);
                } else {
                    // The shard refused the retry outright: burn one backoff
                    // step and try again within the same budget.
                    let backoff = f.policy.retry.backoff(f.attempts[idx].saturating_sub(1));
                    f.push(now + backoff, FrontAction::Retry(idx));
                }
            }
        }
    }
}

/// Drain every reachable shard's responses into the ledgers, outcomes and
/// per-tenant accumulators. The first response to a logical request wins —
/// duplicates are counted stale and dropped at the front tier — and dead or
/// partitioned shards deliver nothing: a crash loses its in-flight copies
/// outright and a partition buffers responses until it heals.
#[allow(clippy::too_many_arguments)]
fn collect_responses(
    fleet: &mut ShardedGateway,
    f: &mut FrontState,
    ledger: &mut RunLedger,
    shard_ledgers: &mut [RunLedger],
    last_delivery: &mut SimTime,
    outcomes: &mut [RequestOutcome],
    request_index: &mut [InFlightIndex],
    requests: &[ScenarioRequest],
    latencies: &mut [Histogram],
    output_tokens: &mut [u64],
    failed: &mut [usize],
) {
    for (shard, shard_ledger) in shard_ledgers.iter_mut().enumerate() {
        if !fleet.is_live(shard) || !fleet.is_reachable(shard) {
            continue;
        }
        for r in fleet.take_responses(shard) {
            *last_delivery = (*last_delivery).max(r.finished_at);
            shard_ledger.on_response(r.success);
            // Each physical copy is answered at most once, so its entry goes:
            // the index holds the in-flight set, not the whole run.
            let Some((idx, was_hedge)) = request_index[shard].remove(&r.request_id) else {
                continue;
            };
            f.outstanding[idx] = f.outstanding[idx].saturating_sub(1);
            if f.resolved[idx] {
                f.counters.stale_responses += 1;
                continue;
            }
            f.resolved[idx] = true;
            f.unresolved -= 1;
            ledger.on_response(r.success);
            // Client-observed latency spans from the original arrival, in
            // exact integer microseconds: the fan-in hop, backoff,
            // re-dispatch and hedge delay all count against the SLO.
            let observed = r
                .finished_at
                .saturating_since(requests[idx].at)
                .as_secs_f64();
            let o = &mut outcomes[idx];
            o.delivered = true;
            o.success = r.success;
            o.latency_s = observed;
            o.completion_tokens = r.usage.completion_tokens;
            if f.attempts[idx] > 1 {
                if was_hedge {
                    f.counters.hedge_wins += 1;
                } else {
                    f.counters.retried_to_completion += 1;
                }
            }
            let tenant = requests[idx].tenant as usize;
            if r.success {
                latencies[tenant].record(observed);
                output_tokens[tenant] += r.usage.completion_tokens as u64;
            } else {
                failed[tenant] += 1;
            }
        }
    }
}

/// The shared body of every [`ScenarioRun`]: drive the compiled stream over
/// the (possibly single-shard) federation and return the report, the
/// per-request outcomes aligned with the compiled stream by index (always
/// collected — it is two vector writes per request), and the sampled span
/// trees (empty unless `trace` is enabled).
///
/// One next-event loop serves every configuration: arrivals, retries,
/// timeouts and hedges all enter through the front tier, and responses leave
/// through one first-response-wins collector. With one shard, zero fan-in
/// and the default policy the front tier has nothing to add, so the run is
/// the plain single-gateway replay.
fn run_scenario_impl(
    spec: &ScenarioSpec,
    seed: u64,
    trace: TraceConfig,
    sharding: &ShardingConfig,
) -> (GatewayReport, Vec<RequestOutcome>, Vec<SpanTree>) {
    assert!(
        spec.tenants.is_empty() || spec.sessions.is_none(),
        "scenario '{}': open-loop tenants and a session rider are mutually exclusive",
        spec.name
    );
    assert!(
        spec.shard_faults.is_empty() || spec.sessions.is_none(),
        "scenario '{}': shard-scoped faults drive the open-loop front tier and cannot compose \
         with a closed-loop session rider",
        spec.name
    );

    let mut builder = builder_for(spec.deployment)
        .prewarm(spec.prewarm)
        .trace(trace);
    if spec.resilience {
        builder = builder.resilience(ResilienceConfig::production());
    }
    let mut fleet = ShardedGateway::from_builder(&builder, sharding.clone());
    let n_shards = fleet.shard_count();
    let fanin = sharding.fanin_latency;

    // One auth user per tenant class, enrolled identically on every shard
    // (the shared control plane): a tenant's credential is valid wherever
    // the ring or a spill sends the request. tokens[shard][tenant].
    let mut tokens: Vec<Vec<TokenString>> = fleet
        .shards_mut()
        .iter_mut()
        .map(|gw| {
            spec.tenants
                .iter()
                .map(|t| enroll_tenant_user(gw, &t.name))
                .collect()
        })
        .collect();
    // Ring lookups cached per tenant: tenants are the routing key (API key).
    let home: Vec<usize> = spec
        .tenants
        .iter()
        .map(|t| fleet.home_shard(&t.name))
        .collect();

    let compiled = spec.compile(seed);
    let horizon = compiled.horizon;
    // The report's failover section and the failover invariant check are
    // reserved for runs that can actually need the front tier's extra moves.
    let front_active =
        !spec.shard_faults.is_empty() || sharding.front_tier != FrontTierPolicy::default();
    let mut front = FrontState::new(
        sharding.front_tier.clone(),
        compiled.requests.len(),
        n_shards,
    );
    // Every shard gets its own injector over the same plan: the spec's fault
    // timeline is facility-wide, hitting each shard's replica of the
    // affected endpoints at the same instants.
    let mut injectors: Vec<FaultInjector> = (0..n_shards)
        .map(|_| FaultInjector::new(spec.faults.clone()))
        .collect();
    let mut ledger = RunLedger::new();
    let mut shard_ledgers: Vec<RunLedger> = vec![RunLedger::new(); n_shards];

    // Per-tenant accumulators.
    let n_tenants = spec.tenants.len();
    let mut offered = vec![0usize; n_tenants];
    let mut rejected = vec![0usize; n_tenants];
    let mut failed = vec![0usize; n_tenants];
    let mut output_tokens = vec![0u64; n_tenants];
    let mut latencies: Vec<Histogram> = (0..n_tenants).map(|_| Histogram::new()).collect();

    let mut next = 0usize;
    let mut last_delivery = SimTime::ZERO;
    let first_arrival = compiled
        .requests
        .first()
        .map(|r| r.at)
        .unwrap_or(SimTime::ZERO);

    // Per-request outcomes, aligned with `compiled.requests` by index; each
    // shard's dense request ids map its responses back to stream positions.
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(compiled.requests.len());
    let mut request_index: Vec<InFlightIndex> = vec![InFlightIndex::new(); n_shards];

    // Pure closed-loop specs skip the open-loop drive entirely: advancing
    // the gateways through their prewarm events here would fast-forward the
    // clock past the session window before the session driver starts.
    while !compiled.requests.is_empty()
        || injectors.iter().any(FaultInjector::is_active)
        || !spec.shard_faults.is_empty()
    {
        let next_arrival = compiled.requests.get(next).map(|r| r.at);
        // A dead shard makes no progress of its own (the fleet counts no
        // wake for it); only its injector's pending timeline still drains.
        let internal = injectors
            .iter()
            .filter_map(FaultInjector::next_event_time)
            .chain(fleet.next_event_time())
            .min();
        let plan_next = spec.shard_faults.events().get(front.cursor).map(|e| e.at);
        let Some(step) = [next_arrival, internal, plan_next, front.next_at()]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        if step > horizon {
            break;
        }
        ledger.clock.observe(step);
        // Only due shards move: a shard whose wake and injector both lie
        // after `step` has nothing to do, and advancing it would change
        // nothing. Due shards apply faults, then advance, in shard order.
        let due = |at: Option<SimTime>| at.is_some_and(|at| at <= step);
        for i in 0..n_shards {
            shard_ledgers[i].clock.observe(step);
            if !due(fleet.shard_wake(i)) && !due(injectors[i].next_event_time()) {
                continue;
            }
            injectors[i].apply_due(fleet.shard_mut(i).service_mut(), step);
            if fleet.is_live(i) {
                fleet.shard_mut(i).advance(step);
            }
        }
        // Shard-plan faults due at this step, applied before arrivals so
        // routing at `step` already sees the new membership.
        while let Some(event) = spec.shard_faults.events().get(front.cursor) {
            if event.at > step {
                break;
            }
            front.cursor += 1;
            match &event.kind {
                ShardFaultKind::ShardCrash { shard } => {
                    let shard = *shard;
                    if !fleet.kill_shard(shard, step) {
                        continue;
                    }
                    front.ever_crashed[shard] = true;
                    // Everything in flight on the shard dies with it. Sort
                    // the purged ids so HashMap iteration order never leaks
                    // into the retry schedule.
                    let mut lost: Vec<(u64, (usize, bool))> =
                        std::mem::take(&mut request_index[shard])
                            .into_iter()
                            .collect();
                    lost.sort_unstable();
                    for (_, (idx, _)) in lost {
                        front.counters.lost_in_flight += 1;
                        front.outstanding[idx] = front.outstanding[idx].saturating_sub(1);
                        if front.resolved[idx] || front.outstanding[idx] > 0 {
                            continue;
                        }
                        if front.attempts[idx] > front.policy.retry.max_retries {
                            let tenant = compiled.requests[idx].tenant as usize;
                            front.give_up(idx, tenant, &mut ledger, &mut failed);
                        } else {
                            let backoff = front
                                .policy
                                .retry
                                .backoff(front.attempts[idx].saturating_sub(1));
                            front.push(step + backoff, FrontAction::Retry(idx));
                        }
                    }
                }
                ShardFaultKind::ShardRestart { shard } => {
                    let shard = *shard;
                    if shard >= n_shards || fleet.is_live(shard) {
                        continue;
                    }
                    // A fresh replica from the same deployment builder: cold
                    // caches, re-enrolled tenants, clock caught up to the
                    // restart instant.
                    let mut gw = builder.clone().build();
                    let fresh: Vec<TokenString> = spec
                        .tenants
                        .iter()
                        .map(|t| enroll_tenant_user(&mut gw, &t.name))
                        .collect();
                    gw.advance(step);
                    fleet.restore_shard(shard, gw, step);
                    tokens[shard] = fresh;
                }
                ShardFaultKind::FrontTierPartition { shard, duration } => {
                    if fleet.partition_shard(*shard, step) {
                        front.counters.partitions += 1;
                        front.push(step + *duration, FrontAction::Heal(*shard));
                    }
                }
                ShardFaultKind::FanInLatencySpike { extra, duration } => {
                    front.counters.fanin_spikes += 1;
                    front.spikes.push((step + *duration, *extra));
                }
            }
        }
        // Front-tier events due now: retries, timeouts, hedges, heals. A
        // timeout or hedge only fires if no later attempt superseded it.
        while let Some(event) = front.queue.pop_due(step) {
            let (idx, hedge) = match event.payload {
                FrontAction::Heal(shard) => {
                    fleet.heal_shard(shard, step);
                    continue;
                }
                FrontAction::Retry(idx) => (idx, false),
                FrontAction::Timeout(idx, snap) if front.attempts[idx] == snap => (idx, false),
                FrontAction::Hedge(idx, snap) if front.attempts[idx] == snap => (idx, true),
                FrontAction::Timeout(..) | FrontAction::Hedge(..) => continue,
            };
            if !front.resolved[idx] {
                front_dispatch(
                    &mut fleet,
                    &mut front,
                    &mut ledger,
                    &mut shard_ledgers,
                    &mut request_index,
                    &compiled.requests,
                    spec,
                    &tokens,
                    &mut failed,
                    idx,
                    step,
                    hedge,
                );
            }
        }
        while next < compiled.requests.len() && compiled.requests[next].at <= step {
            let idx = next;
            next += 1;
            let request = &compiled.requests[idx];
            let tenant = request.tenant as usize;
            offered[tenant] += 1;
            // Degraded-mode routing: home on the live ring (dead and
            // partitioned shards carry no points), shed typed when the
            // federation cannot take the request at all or the shed policy
            // says this priority must yield.
            let routed = match fleet.routable_home(&spec.tenants[tenant].name) {
                None => Err(&mut front.counters.shed_no_live_shard),
                Some(home) if front.sheds(request.priority, fleet.shard(home).load_depth()) => {
                    Err(&mut front.counters.shed_overload)
                }
                Some(home) => Ok(home),
            };
            let cur_home = match routed {
                Ok(home) => home,
                Err(shed_counter) => {
                    *shed_counter += 1;
                    outcomes.push(RequestOutcome::default());
                    ledger.on_submission(false);
                    rejected[tenant] += 1;
                    front.resolved[idx] = true;
                    continue;
                }
            };
            if cur_home != home[tenant] {
                front.counters.rehomed_requests += 1;
            }
            let shard = fleet.route_home(cur_home).shard;
            let arrival = request.at + front.effective_fanin(fanin, request.at);
            let result = admit_simulated(
                fleet.shard_mut(shard),
                &tokens[shard][tenant],
                &request.model,
                idx,
                request.prompt_tokens,
                request.output_tokens,
                arrival,
            );
            let accepted = result.is_ok();
            outcomes.push(RequestOutcome {
                accepted,
                ..RequestOutcome::default()
            });
            ledger.on_submission(accepted);
            shard_ledgers[shard].on_submission(accepted);
            match result {
                Ok(id) => {
                    request_index[shard].insert(id, (idx, false));
                    front.attempts[idx] = 1;
                    front.outstanding[idx] = 1;
                    front.unresolved += 1;
                    front.arm(idx, shard, arrival);
                }
                Err(_) => {
                    rejected[tenant] += 1;
                    front.resolved[idx] = true;
                }
            }
        }
        collect_responses(
            &mut fleet,
            &mut front,
            &mut ledger,
            &mut shard_ledgers,
            &mut last_delivery,
            &mut outcomes,
            &mut request_index,
            &compiled.requests,
            &mut latencies,
            &mut output_tokens,
            &mut failed,
        );
        if next >= compiled.requests.len()
            && fleet.is_drained()
            && injectors.iter().all(FaultInjector::is_exhausted)
            && front.cursor >= spec.shard_faults.len()
            && front.queue.is_empty()
            && front.unresolved == 0
        {
            break;
        }
    }
    collect_responses(
        &mut fleet,
        &mut front,
        &mut ledger,
        &mut shard_ledgers,
        &mut last_delivery,
        &mut outcomes,
        &mut request_index,
        &compiled.requests,
        &mut latencies,
        &mut output_tokens,
        &mut failed,
    );
    let all_submitted = next >= compiled.requests.len();
    ledger.drained = all_submitted && fleet.is_drained() && front.unresolved == 0;
    #[cfg(test)]
    LEFT_IN_INDEX
        .with(|left| *left.borrow_mut() = request_index.iter().map(HashMap::len).collect());
    for (i, shard_ledger) in shard_ledgers.iter_mut().enumerate() {
        // A shard that ever crashed can never report drained: the physical
        // copies it lost mid-flight are gone, not answered.
        shard_ledger.drained =
            all_submitted && fleet.shard(i).is_drained() && !front.ever_crashed[i];
    }

    // Closed-loop session rider (pure closed-loop specs only; the gateways
    // are untouched at this point, so the session window starts at t=0). On
    // a sharded fleet the rider lands on its ring shard, like any tenant.
    let webui = spec.sessions.as_ref().map(|rider| {
        let shard = fleet.home_shard("webui-sessions");
        let gateway = fleet.shard_mut(shard);
        let token = enroll_tenant_user(gateway, "webui-sessions");
        run_webui_closed_loop(
            gateway,
            &token,
            &rider.config,
            SimDuration::from_millis(rider.webui_overhead_ms),
            seed ^ 0x5E55_10A5,
        )
    });

    #[cfg(debug_assertions)]
    if spec.sessions.is_none() {
        let checked = if front_active {
            check_failover_run_invariants(
                fleet.shards(),
                &shard_ledgers,
                &ledger,
                &front.ever_crashed,
                &front.counters,
                fleet.spilled_out(),
                fleet.spilled_in(),
            )
        } else if n_shards == 1 {
            check_run_invariants(fleet.shard(0), &ledger)
        } else {
            check_sharded_run_invariants(
                fleet.shards(),
                &shard_ledgers,
                &ledger,
                fleet.spilled_out(),
                fleet.spilled_in(),
            )
        };
        if let Err(violations) = checked {
            panic!(
                "scenario '{}' violated run invariants:\n  {}",
                spec.name,
                violations.join("\n  ")
            );
        }
    }

    let duration_s = if let Some(cell) = &webui {
        cell.duration_s
    } else {
        (last_delivery.saturating_since(first_arrival))
            .as_secs_f64()
            .max(1e-9)
    };

    let tenants: Vec<TenantReport> = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let completed = latencies[i].count();
            let availability = completed as f64 / offered[i].max(1) as f64;
            let within_target = latencies[i]
                .samples()
                .iter()
                .filter(|&&l| l <= t.slo.p95_latency_s)
                .count();
            let p95 = latencies[i].p95();
            TenantReport {
                tenant: t.name.clone(),
                priority: t.priority,
                offered: offered[i],
                completed,
                failed: failed[i],
                rejected: rejected[i],
                availability,
                median_latency_s: latencies[i].median(),
                p95_latency_s: p95,
                mean_latency_s: latencies[i].mean(),
                output_tokens: output_tokens[i],
                output_tok_per_s: output_tokens[i] as f64 / duration_s,
                slo_p95_target_s: t.slo.p95_latency_s,
                slo_availability_target: t.slo.availability,
                slo_latency_attainment: within_target as f64 / completed.max(1) as f64,
                slo_met: t.slo.met(p95, availability),
            }
        })
        .collect();
    let slo_attained_tenants = tenants.iter().filter(|t| t.slo_met).count();

    // Drain the sampled span trees and derive the phase breakdown before the
    // report is sealed; both are deterministic functions of `(spec, seed,
    // trace, sharding)`, so traced reports stay byte-identical across runs.
    // Trees concatenate in shard order.
    let mut trees: Vec<SpanTree> = Vec::new();
    let mut sampled = 0u64;
    let mut dropped = 0u64;
    for gateway in fleet.shards_mut() {
        trees.extend(gateway.recorder_mut().take_trees());
        sampled += gateway.recorder().sampled();
        dropped += gateway.recorder().dropped();
    }
    let phases = if trees.is_empty() {
        None
    } else {
        Some(PhaseBreakdown::from_trees(trees.iter(), sampled, dropped))
    };

    // Per-shard rollup, only reported for genuinely sharded runs so
    // single-shard reports serialize exactly as before the federation.
    let shard_section = if n_shards > 1 {
        let shards: Vec<ShardReport> = shard_ledgers
            .iter()
            .enumerate()
            .map(|(i, l)| ShardReport {
                shard: i,
                offered: l.offered,
                accepted: l.accepted,
                rejected: l.rejected,
                completed: l.completed,
                failed: l.failed,
                spilled_in: fleet.spilled_in()[i],
                spilled_out: fleet.spilled_out()[i],
                faults_injected: injectors[i].applied().len(),
                peak_load_depth: fleet.peak_load()[i],
            })
            .collect();
        Some(ShardSection {
            count: n_shards,
            fanin_latency_s: fanin.as_secs_f64(),
            spillover: sharding.spillover,
            spilled_requests: fleet.spilled_total(),
            shards,
        })
    } else {
        None
    };

    // Failover rollup: the driver's counters plus what the fleet itself
    // tracked (crashes, restarts, per-shard breaker trips).
    let failover = front_active.then(|| FailoverSection {
        crashes: fleet.crashes(),
        restarts: fleet.restarts(),
        breaker_trips: fleet.health().trips(),
        ..front.counters
    });

    let (retries, failovers, breaker_trips, hedges) = fleet
        .shards()
        .iter()
        .map(Gateway::metrics)
        .fold((0, 0, 0, 0), |acc, m| {
            (
                acc.0 + m.retries,
                acc.1 + m.failovers,
                acc.2 + m.breaker_trips,
                acc.3 + m.hedges,
            )
        });
    let completed_total = ledger.completed + webui.as_ref().map_or(0, |c| c.completed);
    let report = GatewayReport {
        scenario: spec.name.clone(),
        seed,
        offered: ledger.offered + webui.as_ref().map_or(0, |c| c.completed),
        accepted: ledger.accepted + webui.as_ref().map_or(0, |c| c.completed),
        rejected: ledger.rejected,
        completed: completed_total,
        failed: ledger.failed,
        duration_s,
        request_throughput: completed_total as f64 / duration_s,
        output_token_throughput: (output_tokens.iter().sum::<u64>() as f64
            + webui
                .as_ref()
                .map_or(0.0, |c| c.token_throughput * c.duration_s))
            / duration_s,
        faults_injected: injectors[0].applied().len(),
        retries,
        failovers,
        breaker_trips,
        hedges,
        tenants,
        slo_attained_tenants,
        webui,
        phases,
        shards: shard_section,
        failover,
    };
    (report, outcomes, trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ConsistentHashRing, ShedPolicy};
    use first_workload::{
        scenario::models, ArrivalProcess, DeploymentRef, ScenarioSpec, SloTarget, TenantClass,
    };

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "unit-steady",
            "unit-test steady load",
            DeploymentRef::SingleClusterTest,
            vec![TenantClass::synthetic(
                "unit-tenant",
                25,
                ArrivalProcess::Poisson(2.0),
                models::LLAMA_70B,
            )],
        )
    }

    fn run(spec: &ScenarioSpec, seed: u64) -> GatewayReport {
        ScenarioRun::new(spec)
            .seed(seed)
            .execute()
            .expect("plain run")
            .report
    }

    #[test]
    fn steady_scenario_completes_everything_and_partitions_by_tenant() {
        let report = run(&small_spec(), 42);
        assert_eq!(report.offered, 25);
        assert_eq!(report.accepted, 25);
        assert_eq!(report.completed, 25);
        assert_eq!(report.failed, 0);
        assert_eq!(report.tenants.len(), 1);
        assert!(
            report.shards.is_none(),
            "single-shard runs report no shard section"
        );
        let t = report.tenant("unit-tenant").unwrap();
        assert_eq!(t.completed, 25);
        assert!((t.availability - 1.0).abs() < 1e-9);
        assert!(t.p95_latency_s > 0.0);
        assert!(t.output_tokens > 0);
        let text = report.render_text();
        assert!(text.contains("unit-tenant"));
        assert!(text.contains("unit-steady"));
    }

    #[test]
    fn reports_are_seed_deterministic_and_seed_sensitive() {
        let spec = small_spec();
        let a = run(&spec, 7);
        let b = run(&spec, 7);
        assert_eq!(a, b);
        let c = run(&spec, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn explicit_single_shard_config_is_byte_identical_to_default() {
        let spec = small_spec();
        let plain = run(&spec, 42);
        let explicit = ScenarioRun::new(&spec)
            .seed(42)
            .shards(1)
            .spillover(SpilloverPolicy::disabled())
            .fanin_latency(SimDuration::ZERO)
            .execute()
            .expect("plain run")
            .report;
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&explicit).unwrap()
        );
    }

    #[test]
    fn drained_runs_leave_every_in_flight_index_empty() {
        // A 1 ms hedge puts a second copy of most requests in flight; the
        // losing copies must leave the index too.
        let hedged = FrontTierPolicy {
            hedge_after: Some(SimDuration::from_millis(1)),
            ..FrontTierPolicy::default()
        };
        for (shards, policy) in [
            (1, FrontTierPolicy::default()),
            (3, FrontTierPolicy::default()),
            (3, hedged),
        ] {
            let out = ScenarioRun::new(&small_spec())
                .seed(7)
                .shards(shards)
                .front_tier(policy.clone())
                .execute()
                .expect("run");
            let r = &out.report;
            assert!(r.accepted > 0, "{shards} shard(s), {policy:?}");
            assert_eq!(r.accepted, r.completed + r.failed, "the run drains");
            let left = LEFT_IN_INDEX.with(|left| left.borrow().clone());
            assert_eq!(left, vec![0; shards], "{shards} shard(s), {policy:?}");
        }
    }

    #[test]
    fn sharded_runs_conserve_requests_and_report_per_shard_partitions() {
        let spec = ScenarioSpec::new(
            "unit-sharded",
            "",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic(
                    "tenant-a",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_70B,
                ),
                TenantClass::synthetic(
                    "tenant-b",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_8B,
                ),
                TenantClass::synthetic(
                    "tenant-c",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_8B,
                ),
            ],
        );
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(3)
            .execute()
            .expect("sharded run")
            .report;
        assert_eq!(report.offered, 60);
        assert_eq!(report.completed + report.failed + report.rejected, 60);
        let section = report.shards.as_ref().expect("shard section present");
        assert_eq!(section.count, 3);
        assert_eq!(section.shards.len(), 3);
        assert_eq!(
            section.shards.iter().map(|s| s.offered).sum::<usize>(),
            report.offered
        );
        assert_eq!(
            section.shards.iter().map(|s| s.completed).sum::<usize>(),
            report.completed
        );
        assert_eq!(section.spilled_requests, 0, "spillover defaults off");
        // Sharded runs are deterministic too.
        let again = ScenarioRun::new(&spec)
            .seed(42)
            .shards(3)
            .execute()
            .expect("sharded run")
            .report;
        assert_eq!(report, again);
        let text = report.render_text();
        assert!(text.contains("sharded federation: 3 shards"));
    }

    #[test]
    fn fanin_latency_defers_arrivals_and_shows_in_client_latency() {
        let spec = small_spec();
        let base = run(&spec, 42);
        let hop = SimDuration::from_millis(250);
        let delayed = ScenarioRun::new(&spec)
            .seed(42)
            .fanin_latency(hop)
            .execute()
            .expect("run")
            .report;
        assert_eq!(delayed.offered, base.offered);
        assert_eq!(delayed.completed, base.completed);
        let t_base = base.tenant("unit-tenant").unwrap();
        let t_hop = delayed.tenant("unit-tenant").unwrap();
        assert!(
            t_hop.mean_latency_s >= t_base.mean_latency_s + 0.2,
            "fan-in hop shows up in client-observed latency: {} vs {}",
            t_hop.mean_latency_s,
            t_base.mean_latency_s
        );
    }

    #[test]
    fn multi_tenant_runs_keep_per_tenant_slo_accounting() {
        let spec = ScenarioSpec::new(
            "unit-two-tenants",
            "",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic(
                    "interactive",
                    15,
                    ArrivalProcess::Poisson(1.0),
                    models::LLAMA_70B,
                )
                .with_priority(200)
                .with_slo(SloTarget {
                    p95_latency_s: 300.0,
                    availability: 0.9,
                }),
                TenantClass::synthetic("flood", 20, ArrivalProcess::Infinite, models::LLAMA_8B)
                    .with_priority(10)
                    .with_slo(SloTarget::batch()),
            ],
        );
        let report = run(&spec, 42);
        assert_eq!(report.offered, 35);
        assert_eq!(report.completed, 35);
        let interactive = report.tenant("interactive").unwrap();
        let flood = report.tenant("flood").unwrap();
        assert_eq!(interactive.offered, 15);
        assert_eq!(flood.offered, 20);
        assert!(interactive.slo_met, "generous SLO is met");
        assert_eq!(
            report.slo_attained_tenants,
            report.tenants.iter().filter(|t| t.slo_met).count()
        );
    }

    #[test]
    fn traced_runs_sample_complete_trees_without_perturbing_the_sim() {
        let spec = small_spec();
        let plain = run(&spec, 42);
        let out = ScenarioRun::new(&spec)
            .seed(42)
            .traced(TraceConfig::every_request(4096))
            .execute()
            .expect("traced run");
        let traced = out.report;
        let trees = out.traces.expect("traced run returns trees");
        // Tracing must not move sim time: everything but the breakdown is
        // identical to the untraced run.
        let mut stripped = traced.clone();
        stripped.phases = None;
        assert_eq!(plain, stripped, "tracing perturbed the simulation");
        // Every accepted request yielded a well-formed tree that reconciles
        // with its end-to-end latency (clean run: no idle time at all).
        assert_eq!(trees.len(), traced.accepted);
        for tree in &trees {
            assert!(tree.well_formed(), "malformed tree: {tree:?}");
            assert_eq!(
                tree.phase_total_micros() + tree.idle_micros(),
                tree.end_to_end_micros()
            );
            assert_eq!(tree.idle_micros(), 0, "clean run has no idle gaps");
        }
        let phases = traced.phases.as_ref().expect("breakdown present");
        assert_eq!(phases.sampled, trees.len() as u64);
        assert_eq!(phases.by_tenant.len(), 1);
        assert!(!phases.critical_path.is_empty());
        // Traced runs are themselves deterministic, trees included.
        let again = ScenarioRun::new(&spec)
            .seed(42)
            .traced(TraceConfig::every_request(4096))
            .execute()
            .expect("traced run");
        assert_eq!(traced, again.report);
        assert_eq!(trees, again.traces.expect("trees again"));
    }

    #[test]
    fn recording_matches_the_plain_run_and_replays_byte_identically() {
        let spec = small_spec();
        let plain = run(&spec, 42);
        let out = ScenarioRun::new(&spec)
            .seed(42)
            .recorded()
            .execute()
            .expect("recordable");
        let recorded = out.report;
        let cassette = out.cassette.expect("recorded run yields a cassette");
        assert!(out.traces.is_none(), "untraced run returns no trees");
        assert_eq!(plain, recorded, "recording must not perturb the run");
        assert_eq!(cassette.len(), recorded.offered);
        // Every accepted request in this clean run was delivered and succeeded.
        assert!(cassette
            .entries
            .iter()
            .all(|e| e.outcome.accepted && e.outcome.delivered && e.outcome.success));
        assert!(cassette
            .entries
            .iter()
            .all(|e| e.outcome.latency_s > 0.0 && e.outcome.completion_tokens > 0));

        let replayed = ScenarioRun::replay(&cassette)
            .expect("cassette compiles")
            .execute()
            .expect("replays")
            .report;
        assert_eq!(plain, replayed, "replay reproduces the report");
        // Byte-level, not just structural: what the golden files pin.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&replayed).unwrap()
        );
        // And the cassette survives a serde round trip on the way.
        let thawed = first_workload::Cassette::from_json(&cassette.to_json()).expect("round trips");
        let replayed_again = ScenarioRun::replay(&thawed)
            .expect("compiles")
            .execute()
            .expect("replays")
            .report;
        assert_eq!(replayed_again, plain);
    }

    #[test]
    fn empty_cassette_replays_to_a_clean_empty_report() {
        let spec = ScenarioSpec::new(
            "unit-empty",
            "no tenants at all",
            DeploymentRef::SingleClusterTest,
            Vec::new(),
        );
        let out = ScenarioRun::new(&spec)
            .seed(1)
            .recorded()
            .execute()
            .expect("recordable");
        let cassette = out.cassette.expect("cassette");
        assert!(cassette.is_empty());
        assert_eq!(out.report.offered, 0);
        let replayed = ScenarioRun::replay(&cassette)
            .expect("compiles")
            .execute()
            .expect("empty replay is clean")
            .report;
        assert_eq!(out.report, replayed);
        assert_eq!(replayed.completed, 0);
    }

    #[test]
    fn session_and_sharded_specs_are_unrecordable_with_typed_errors() {
        let mut spec = ScenarioSpec::new(
            "unit-sessions",
            "",
            DeploymentRef::SingleClusterTest,
            Vec::new(),
        );
        spec.sessions = Some(first_workload::SessionClosedLoop {
            config: first_workload::SessionWorkloadConfig::table1(models::LLAMA_8B, 4, 60),
            webui_overhead_ms: 1200,
        });
        match ScenarioRun::new(&spec).seed(1).recorded().execute() {
            Err(CassetteError::Unrecordable(msg)) => assert!(msg.contains("unit-sessions")),
            other => panic!("expected Unrecordable, got {other:?}"),
        }
        // Sharded runs are unrecordable too: the cassette format carries no
        // shard topology.
        match ScenarioRun::new(&small_spec())
            .seed(1)
            .shards(2)
            .recorded()
            .execute()
        {
            Err(CassetteError::Unrecordable(msg)) => assert!(msg.contains("sharded")),
            other => panic!("expected Unrecordable, got {other:?}"),
        }
    }

    #[test]
    fn session_rider_runs_the_same_under_a_front_tier_policy() {
        let mut spec = ScenarioSpec::new(
            "unit-sessions",
            "",
            DeploymentRef::SingleClusterTest,
            Vec::new(),
        );
        spec.prewarm = 1;
        spec.sessions = Some(first_workload::SessionClosedLoop {
            config: first_workload::SessionWorkloadConfig::table1(models::LLAMA_8B, 4, 600),
            webui_overhead_ms: 1200,
        });
        let plain = run(&spec, 1).webui.expect("session cell");
        assert!(plain.completed > 0, "{plain:?}");
        // The policy has no open-loop request to act on, so it must leave
        // the closed-loop window exactly as the plain run drives it.
        let fronted = ScenarioRun::new(&spec)
            .seed(1)
            .front_tier(FrontTierPolicy {
                request_timeout: Some(SimDuration::from_secs(3600)),
                ..FrontTierPolicy::default()
            })
            .execute()
            .expect("fronted run")
            .report
            .webui
            .expect("session cell");
        assert_eq!(plain, fronted);
    }

    #[test]
    fn replay_invariants_catch_divergence() {
        let out = ScenarioRun::new(&small_spec())
            .seed(42)
            .recorded()
            .execute()
            .expect("recordable");
        let cassette = out.cassette.expect("cassette");
        let replayed = ScenarioRun::replay(&cassette)
            .expect("compiles")
            .execute()
            .expect("replays")
            .report;
        assert_eq!(replayed.seed, cassette.seed, "replay reuses the seed");
        // Forge a diverging report: the conservation check must trip on the
        // offered count and on a renamed tenant partition.
        let mut forged = replayed.clone();
        forged.offered += 1;
        forged.tenants[0].tenant = "impostor".to_string();
        let violations = check_replay_invariants(&forged, &cassette).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("offered")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("impostor")),
            "{violations:?}"
        );
    }

    /// Three tenants across four shards, enough load that a mid-run crash
    /// catches requests in flight.
    fn failover_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "unit-failover",
            "shard faults under load",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic(
                    "tenant-a",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_70B,
                ),
                TenantClass::synthetic(
                    "tenant-b",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_8B,
                ),
                TenantClass::synthetic(
                    "tenant-c",
                    20,
                    ArrivalProcess::Poisson(2.0),
                    models::LLAMA_8B,
                ),
            ],
        )
    }

    /// Pick a shard that actually hosts one of the spec's tenants, so a kill
    /// is guaranteed to disturb live traffic.
    fn home_of(spec: &ScenarioSpec, shards: usize, tenant: usize) -> usize {
        ConsistentHashRing::new(shards).shard_for(&spec.tenants[tenant].name)
    }

    #[test]
    fn shard_crash_with_restart_loses_no_accepted_requests() {
        let mut spec = failover_spec();
        let victim = home_of(&spec, 4, 0);
        spec.shard_faults = first_chaos::ShardFaultPlan::kill_and_restart(
            victim,
            SimTime::from_secs(4),
            SimDuration::from_secs(30),
        );
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(4)
            .execute()
            .expect("failover run")
            .report;
        assert_eq!(report.offered, 60);
        assert_eq!(report.failed, 0, "front tier retried every lost request");
        assert_eq!(report.rejected, 0, "no shedding configured");
        assert_eq!(report.completed, 60, "zero accepted requests lost");
        let failover = report.failover.as_ref().expect("failover section");
        assert_eq!(failover.crashes, 1);
        assert_eq!(failover.restarts, 1);
        assert!(
            failover.lost_in_flight > 0,
            "a 30s outage on a tenant's home shard catches requests in flight: {failover:?}"
        );
        assert_eq!(
            failover.retried_to_completion, failover.lost_in_flight,
            "every lost copy was re-dispatched and completed elsewhere"
        );
        assert!(
            failover.rehomed_requests > 0,
            "arrivals during the outage re-home to surviving peers"
        );
        assert_eq!(failover.shed_retries_exhausted, 0);
        let text = report.render_text();
        assert!(text.contains("failover:"), "{text}");
        // Failover runs are byte-deterministic like everything else.
        let again = ScenarioRun::new(&spec)
            .seed(42)
            .shards(4)
            .execute()
            .expect("failover run")
            .report;
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn fault_free_front_tier_policy_matches_the_plain_run() {
        let spec = failover_spec();
        // A timeout far beyond any real completion never fires, so the
        // policy must leave the run exactly as the default front tier does.
        let policy = FrontTierPolicy {
            request_timeout: Some(SimDuration::from_secs(3600)),
            ..FrontTierPolicy::default()
        };
        for shards in [1, 3] {
            for fanin in [SimDuration::ZERO, SimDuration::from_millis(333)] {
                let plain = ScenarioRun::new(&spec)
                    .seed(42)
                    .shards(shards)
                    .fanin_latency(fanin)
                    .execute()
                    .expect("plain run")
                    .report;
                let fronted = ScenarioRun::new(&spec)
                    .seed(42)
                    .shards(shards)
                    .fanin_latency(fanin)
                    .front_tier(policy.clone())
                    .execute()
                    .expect("fronted run")
                    .report;
                let failover = fronted.failover.clone().expect("failover section");
                assert_eq!(
                    failover,
                    FailoverSection::default(),
                    "no faults, no retries, nothing shed"
                );
                let mut stripped = fronted;
                stripped.failover = None;
                assert_eq!(
                    serde_json::to_string(&plain).unwrap(),
                    serde_json::to_string(&stripped).unwrap(),
                    "{shards} shard(s), fan-in {fanin:?}: the policy perturbed the run"
                );
            }
        }
    }

    #[test]
    fn shed_policy_rejects_low_priority_overload_with_typed_outcome() {
        let spec = failover_spec();
        // Every tenant sits below the floor and any queued work counts as
        // overload: most of the burst sheds instead of queueing.
        let policy = FrontTierPolicy {
            shed: Some(ShedPolicy::new(0, 200)),
            ..FrontTierPolicy::default()
        };
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(2)
            .front_tier(policy)
            .execute()
            .expect("shedding run")
            .report;
        let failover = report.failover.as_ref().expect("failover section");
        assert!(failover.shed_overload > 0, "overload shed engaged");
        assert_eq!(
            report.rejected, failover.shed_overload,
            "typed sheds are the only rejections"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.offered,
            report.completed + report.rejected,
            "every request resolves exactly once"
        );
    }

    #[test]
    fn hedged_requests_complete_without_double_counting() {
        let spec = failover_spec();
        let policy = FrontTierPolicy {
            hedge_after: Some(SimDuration::from_millis(1)),
            ..FrontTierPolicy::default()
        };
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(2)
            .front_tier(policy)
            .execute()
            .expect("hedged run")
            .report;
        assert_eq!(report.offered, 60);
        assert_eq!(report.completed, 60);
        assert_eq!(report.failed, 0);
        let failover = report.failover.as_ref().expect("failover section");
        assert!(failover.hedges_dispatched > 0, "1ms hedge delay fires");
        assert_eq!(
            failover.stale_responses + failover.hedge_wins,
            failover.hedges_dispatched,
            "every hedge copy either won or arrived stale"
        );
    }

    #[test]
    fn partitioned_shard_times_out_and_heals_without_losing_requests() {
        let mut spec = failover_spec();
        let victim = home_of(&spec, 4, 0);
        spec.shard_faults = first_chaos::ShardFaultPlan::partition(
            victim,
            SimTime::from_secs(3),
            SimDuration::from_secs(20),
        );
        let policy = FrontTierPolicy {
            request_timeout: Some(SimDuration::from_secs(5)),
            ..FrontTierPolicy::default()
        };
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(4)
            .front_tier(policy)
            .execute()
            .expect("partitioned run")
            .report;
        assert_eq!(report.offered, 60);
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, 60);
        let failover = report.failover.as_ref().expect("failover section");
        assert_eq!(failover.partitions, 1);
        assert_eq!(failover.crashes, 0, "a partition is not a crash");
        assert!(
            failover.rehomed_requests > 0,
            "arrivals during the partition route around the unreachable shard"
        );
    }

    #[test]
    fn expired_fanin_spikes_are_pruned_not_accumulated() {
        let mut f = FrontState::new(FrontTierPolicy::default(), 1, 1);
        for i in 0..1_000u64 {
            f.spikes
                .push((SimTime::from_secs(i + 1), SimDuration::from_millis(i)));
        }
        // Once every spike has lapsed, a single query drops the whole
        // backlog instead of rescanning it on every later request.
        let base = SimDuration::from_millis(5);
        assert_eq!(f.effective_fanin(base, SimTime::from_secs(2_000)), base);
        assert!(f.spikes.is_empty(), "lapsed spikes must not accumulate");
        // Active spikes survive the prune and the largest extra still wins.
        f.spikes
            .push((SimTime::from_secs(3_000), SimDuration::from_millis(40)));
        f.spikes
            .push((SimTime::from_secs(3_000), SimDuration::from_millis(70)));
        f.spikes
            .push((SimTime::from_secs(2_100), SimDuration::from_millis(90)));
        assert_eq!(
            f.effective_fanin(base, SimTime::from_secs(2_500)),
            base + SimDuration::from_millis(70)
        );
        assert_eq!(f.spikes.len(), 2, "only the lapsed spike is dropped");
    }

    #[test]
    fn fanin_spike_fault_inflates_latency_for_its_duration() {
        let mut spec = failover_spec();
        spec.shard_faults = first_chaos::ShardFaultPlan::none().with(
            SimTime::from_secs(2),
            first_chaos::ShardFaultKind::FanInLatencySpike {
                extra: SimDuration::from_secs(2),
                duration: SimDuration::from_secs(10),
            },
        );
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .shards(2)
            .execute()
            .expect("spiked run")
            .report;
        assert_eq!(report.completed, 60);
        let failover = report.failover.as_ref().expect("failover section");
        assert_eq!(failover.fanin_spikes, 1);
        // The same run without the spike is strictly faster on average.
        let calm_spec = failover_spec();
        let calm = ScenarioRun::new(&calm_spec)
            .seed(42)
            .shards(2)
            .front_tier(FrontTierPolicy {
                request_timeout: Some(SimDuration::from_secs(3600)),
                ..FrontTierPolicy::default()
            })
            .execute()
            .expect("calm run")
            .report;
        let mean = |r: &GatewayReport| {
            r.tenants.iter().map(|t| t.mean_latency_s).sum::<f64>() / r.tenants.len() as f64
        };
        assert!(
            mean(&report) > mean(&calm) + 0.1,
            "spike shows in client latency: {} vs {}",
            mean(&report),
            mean(&calm)
        );
    }

    /// The shard rollup structures are part of the serialized report format
    /// the goldens pin: a JSON round trip must be lossless field-for-field.
    #[test]
    fn shard_report_and_section_round_trip_through_serde() {
        let report = crate::shard::ShardReport {
            shard: 2,
            offered: 41,
            accepted: 40,
            rejected: 1,
            completed: 38,
            failed: 2,
            spilled_in: 3,
            spilled_out: 5,
            faults_injected: 4,
            peak_load_depth: 17,
        };
        let json = serde_json::to_string(&report).unwrap();
        let thawed: crate::shard::ShardReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, thawed);

        let section = ShardSection {
            count: 3,
            fanin_latency_s: 0.25,
            spillover: SpilloverPolicy::bounded(10, 0.5),
            spilled_requests: 8,
            shards: vec![report.clone(), ShardReport::default()],
        };
        let json = serde_json::to_string_pretty(&section).unwrap();
        let thawed: ShardSection = serde_json::from_str(&json).unwrap();
        assert_eq!(section, thawed);

        let failover = FailoverSection {
            crashes: 1,
            restarts: 1,
            lost_in_flight: 16,
            retries_dispatched: 16,
            retried_to_completion: 16,
            breaker_trips: 1,
            ..FailoverSection::default()
        };
        let json = serde_json::to_string(&failover).unwrap();
        let thawed: FailoverSection = serde_json::from_str(&json).unwrap();
        assert_eq!(failover, thawed);
    }

    #[test]
    fn shard_fault_specs_are_unrecordable_with_typed_errors() {
        let mut spec = failover_spec();
        spec.shard_faults = first_chaos::ShardFaultPlan::kill(0, SimTime::from_secs(1));
        match ScenarioRun::new(&spec)
            .seed(1)
            .shards(4)
            .recorded()
            .execute()
        {
            Err(CassetteError::Unrecordable(msg)) => {
                assert!(msg.contains("federation-tier faults"), "{msg}")
            }
            other => panic!("expected Unrecordable, got {other:?}"),
        }
    }
}
