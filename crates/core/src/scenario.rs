//! The scenario runner: streams the requests of a declarative
//! [`ScenarioSpec`] against a live deployment — one gateway or a sharded
//! federation of peers.
//!
//! [`ScenarioRun`] is the single seam every scenario-matrix consumer and
//! every §5 gateway replay shares: a builder that composes the orthogonal
//! run axes — seed, deployment, shard topology, tracing, recording, replay
//! — into one `execute()`. The run builds the spec's deployment (or one
//! given to [`ScenarioRun::deployment`]) once per shard, enrolls one auth
//! user per tenant class on every shard (so the request log, dashboard and
//! metric export partition per tenant for free, and a credential is valid
//! wherever the ring or a spill sends the request), replays the merged
//! stream open-loop with the spec's embedded fault plan applied along the
//! way, and reports per-tenant metric partitions and SLO attainment in a
//! [`GatewayReport`] — with a per-shard [`ShardSection`] rollup when the run
//! was sharded — and hands back the fleet it drove ([`RunOutput::fleet`]).
//! Every run, in every build, finishes with the [`crate::invariants`]
//! front-tier check, so every scenario run also proves request
//! conservation and task-slab hygiene, or panics.
//!
//! Every request goes through one front tier: live-ring routing, fan-in,
//! and first-response-wins delivery. A single unsharded gateway with the
//! default [`FrontTierPolicy`] is just the front tier with one shard and
//! nothing to retry. The front tier owns the fleet, one fault injector per
//! shard, the shard fault plan and the retry/timeout queue, and it is the
//! process the run hands to `drive_openloop`, the same next-event loop the
//! remaining runners in [`crate::sim`] step through.

use crate::deploy::DeploymentBuilder;
use crate::gateway::Gateway;
use crate::invariants::{check_front_tier_invariants, check_replay_invariants, RunLedger};
use crate::shard::{FrontTierPolicy, ShardReport, ShardedGateway, ShardingConfig, SpilloverPolicy};
use crate::sim::{admit_simulated, drive_openloop};
use first_auth::{Identity, Scope, TokenString, UserId};
use first_chaos::{FaultInjector, ResilienceConfig, ShardFaultKind};
use first_desim::{Histogram, IdWindow, SimDuration, SimProcess, SimTime, TimingWheel};
use first_telemetry::{PhaseBreakdown, SpanTree, TraceConfig};
use first_workload::{
    Cassette, CassetteError, DeploymentRef, RequestOutcome, ScenarioArrival, ScenarioSpec,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Per-tenant metric partition of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant-class name.
    pub tenant: String,
    /// Tenant priority (from the spec).
    pub(crate) priority: u8,
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
    pub(crate) mean_latency_s: f64,
    /// Output tokens delivered to this tenant.
    pub output_tokens: u64,
    /// Output tokens per second over the run.
    pub(crate) output_tok_per_s: f64,
    /// SLO target: 95th-percentile latency, seconds.
    pub(crate) slo_p95_target_s: f64,
    /// SLO target: availability.
    pub(crate) slo_availability_target: f64,
    /// Fraction of completed requests inside the latency target.
    pub slo_latency_attainment: f64,
    /// Whether the tenant's measured p95 and availability met the target.
    pub slo_met: bool,
}

impl TenantReport {
    /// One formatted table row (used by `scenario_matrix` and the dashboard
    /// example).
    pub(crate) fn table_row(&self) -> String {
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
    pub(crate) fn table_header() -> String {
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
    pub(crate) fanin_latency_s: f64,
    /// The spillover policy the front tier ran under.
    pub(crate) spillover: SpilloverPolicy,
    /// Requests that crossed shards under the spillover policy.
    pub spilled_requests: usize,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardReport>,
}

/// The failover rollup of one run under shard-scoped faults or a non-default
/// front-tier policy: what the chaos plan did to the federation tier and how
/// the front tier absorbed it — retries, re-homes, and typed sheds.
/// `None` on the report when the run had neither, so reports from before
/// shard faults existed keep serializing exactly as they did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailoverSection {
    /// Whole-shard crashes applied from the plan.
    pub crashes: usize,
    /// Shard restarts applied (fresh replica, cold caches, re-enrolled
    /// tenants).
    pub restarts: usize,
    /// Physical in-flight copies lost to shard crashes.
    pub lost_in_flight: usize,
    /// Arrivals routed to a surviving peer because their home shard was dead
    /// at arrival time.
    pub rehomed_requests: usize,
    /// Front-tier re-dispatches: crash-loss retries under exponential
    /// backoff plus request-timeout re-dispatches.
    pub retries_dispatched: usize,
    /// Requests that resolved after more than one dispatch.
    pub retried_to_completion: usize,
    /// Responses that arrived after their request had already been resolved
    /// by another copy (a timeout re-dispatch puts several in flight);
    /// dropped at the front tier, counted on the shard.
    pub(crate) stale_responses: usize,
    /// Typed sheds because no shard was live at arrival time.
    pub shed_no_live_shard: usize,
    /// Accepted requests failed back to the client after the retry budget
    /// ran out, or with no live shard left to retry on.
    pub(crate) shed_retries_exhausted: usize,
    /// Circuit-breaker trips recorded by the fleet's per-shard health
    /// tracker.
    pub(crate) breaker_trips: u64,
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
    pub(crate) request_throughput: f64,
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
                "failover: {} crashed / {} restarted; lost {} in flight, rehomed {}, \
                 retries {} ({} won), {} stale; shed {} no-shard + {} exhausted; \
                 {} breaker trips",
                fo.crashes,
                fo.restarts,
                fo.lost_in_flight,
                fo.rehomed_requests,
                fo.retries_dispatched,
                fo.retried_to_completion,
                fo.stale_responses,
                fo.shed_no_live_shard,
                fo.shed_retries_exhausted,
                fo.breaker_trips,
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

/// Everything one [`ScenarioRun::execute`] yields: the report and the fleet,
/// plus the cassette when the run was [`ScenarioRun::recorded`] and the
/// sampled span trees when it was [`ScenarioRun::traced`].
pub struct RunOutput {
    /// The scenario report (per-tenant partitions, SLO attainment, optional
    /// per-shard rollup).
    pub report: GatewayReport,
    /// Client-observed latencies of the successful requests, seconds: one
    /// histogram per tenant, in spec order. The report's tenant rows are
    /// summaries of these; [`crate::ScenarioReport::from_run`] summarises
    /// them over the whole run.
    pub latencies: Vec<Histogram>,
    /// The gateways as the run left them (request log, health, queues).
    pub fleet: ShardedGateway,
    /// The recorded cassette; `Some` exactly when the run was
    /// [`ScenarioRun::recorded`].
    pub cassette: Option<Cassette>,
    /// The sampled span trees; `Some` exactly when the run was
    /// [`ScenarioRun::traced`] with tracing enabled.
    pub traces: Option<Vec<SpanTree>>,
}

impl std::fmt::Debug for RunOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutput")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// A composable scenario run: the one entrypoint behind which seed, shard
/// topology, tracing, recording and replay compose instead of multiplying
/// the API.
///
/// ```
/// use first_core::{ScenarioRun, ShardingConfig};
/// use first_workload::{catalog, ScenarioSpec};
///
/// let spec = &catalog(32)[0];
/// // Plain run.
/// let report = ScenarioRun::new(spec).seed(42).execute().unwrap().report;
/// // The same traffic over a 3-shard federation.
/// let sharded = ScenarioRun::new(spec)
///     .seed(42)
///     .sharding(ShardingConfig::with_shards(3))
///     .execute()
///     .unwrap()
///     .report;
/// assert_eq!(report.offered, sharded.offered);
/// assert_eq!(sharded.shards.as_ref().unwrap().count, 3);
/// ```
///
/// The run is deterministic for a fixed configuration: the report carries no
/// wall-clock measurement and every random draw derives from the seed.
/// Every run finishes with the [`crate::invariants`] front-tier check, in
/// every build, and panics on a violation.
///
/// The run borrows the caller's spec and streams its requests from it
/// ([`ScenarioSpec::arrivals`]); it owns a spec only when it replays a
/// cassette, and it materialises the stream only to record one.
#[derive(Debug, Clone)]
pub struct ScenarioRun<'c> {
    spec: Cow<'c, ScenarioSpec>,
    /// Replaces the deployment the spec names; `None` runs the spec's own.
    deployment: Option<DeploymentBuilder>,
    seed: u64,
    sharding: ShardingConfig,
    trace: TraceConfig,
    record: bool,
    replay_of: Option<&'c Cassette>,
}

impl<'c> ScenarioRun<'c> {
    /// A run of `spec` with the default configuration: seed 0, one shard,
    /// no tracing, no recording.
    pub fn new(spec: &'c ScenarioSpec) -> Self {
        ScenarioRun {
            spec: Cow::Borrowed(spec),
            deployment: None,
            seed: 0,
            sharding: ShardingConfig::single(),
            trace: TraceConfig::default(),
            record: false,
            replay_of: None,
        }
    }

    /// A replay of a recorded cassette: validates it, compiles it back into
    /// a self-contained spec (outcomes stripped, tenants replaying their
    /// recorded tracks) and pins the recorded seed. `execute()` then runs it
    /// against the recorded deployment and enforces byte-level fidelity via
    /// [`check_replay_invariants`], turning any divergence in offered counts
    /// or identity into a typed [`CassetteError::ReplayMismatch`].
    pub fn replay(cassette: &'c Cassette) -> Result<ScenarioRun<'c>, CassetteError> {
        let spec = cassette.to_spec()?;
        Ok(ScenarioRun {
            spec: Cow::Owned(spec),
            deployment: None,
            seed: cassette.seed,
            sharding: ShardingConfig::single(),
            trace: TraceConfig::default(),
            record: false,
            replay_of: Some(cassette),
        })
    }

    /// Run on `deployment` instead of the spec's preset; the spec's
    /// `prewarm`, `resilience` and `horizon_s` still apply. A cassette cannot
    /// name such a deployment, so the run is not recordable.
    pub fn deployment(mut self, deployment: DeploymentBuilder) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Set the run seed (replays pin the recorded seed instead).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run the spec on the front tier `config` describes: the shard count,
    /// the fan-in hop, the spillover policy and the failover policy
    /// ([`ShardingConfig::with_shards`], [`ShardingConfig::fanin`],
    /// [`ShardingConfig::spill`], [`ShardingConfig::front`]). The default,
    /// [`ShardingConfig::single`], is one transparent shard. A non-default
    /// failover policy (or a spec with a shard fault plan) adds a
    /// [`FailoverSection`] to the report.
    pub fn sharding(mut self, config: ShardingConfig) -> Self {
        self.sharding = config;
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
    /// Infallible unless the spec's shard fault plan names a shard the run
    /// does not have ([`CassetteError::MissingShard`]), the run was
    /// [`ScenarioRun::recorded`] (sharded configurations, shard fault plans
    /// and replaced deployments are [`CassetteError::Unrecordable`]) or is a
    /// [`ScenarioRun::replay`] (divergence is
    /// [`CassetteError::ReplayMismatch`]).
    pub fn execute(mut self) -> Result<RunOutput, CassetteError> {
        if self.record {
            if self.deployment.is_some() {
                return Err(CassetteError::Unrecordable(format!(
                    "scenario '{}' runs on a replaced deployment",
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
        let shards = self.sharding.shards.max(1);
        let plan = self.spec.shard_faults.events();
        let named = plan.iter().map(|e| match e.kind {
            ShardFaultKind::ShardCrash { shard } | ShardFaultKind::ShardRestart { shard } => shard,
        });
        if let Some(shard) = named.max().filter(|&shard| shard >= shards) {
            return Err(CassetteError::MissingShard {
                scenario: self.spec.name.clone(),
                shard,
                shards,
            });
        }
        let builder = self.deployment.take();
        let builder = builder.unwrap_or_else(|| builder_for(self.spec.deployment));
        let (mut out, outcomes) = run_scenario_impl(&self, builder);
        let spec = &*self.spec;
        if let Some(outcomes) = outcomes {
            let compiled = spec.compile(self.seed);
            out.cassette = Some(Cassette::from_run(spec, self.seed, &compiled, outcomes)?);
        }
        if let Some(recording) = self.replay_of {
            check_replay_invariants(&out.report, recording)
                .map_err(|violations| CassetteError::ReplayMismatch(violations.join("; ")))?;
        }
        Ok(out)
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

/// Enroll one auth user per tenant class of `spec` on `gateway`, in spec
/// order, and return their bearer tokens (indexed by tenant).
fn enroll_tenants(gateway: &mut Gateway, spec: &ScenarioSpec) -> Vec<TokenString> {
    let auth = gateway.auth_mut();
    spec.tenants
        .iter()
        .map(|t| {
            let name = &t.name;
            auth.enroll_user(&UserId::new(name));
            let (token, _) = auth
                .login(
                    &Identity::new(name, "anl.gov").with_project("scenario-matrix"),
                    &[Scope::InferenceApi],
                    SimTime::ZERO,
                )
                .unwrap_or_else(|e| panic!("tenant '{name}' login failed: {e:?}"));
            token.token
        })
        .collect()
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

/// One shard's in-flight index: shard-local request id → position in the
/// request stream. Kept per shard so a crash drains only the dead shard's
/// window.
///
/// A window, not a hash map, because of how the ids behave: each shard
/// gateway hands out its request ids from one counter, so the ids a shard
/// accepts are dense, and its copies answer roughly in arrival order, so
/// the oldest entries leave first and the window stays about as wide as
/// the shard's in-flight set. A restarted shard counts from 1 again, but
/// its crash drained the window first. Iteration is in ascending id
/// order, the order a crash retries the lost copies in.
type InFlightIndex = IdWindow<usize>;

/// Front-tier actions scheduled on the failover event queue. Ordering within
/// one instant follows the queue's insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontAction {
    /// Re-dispatch request `idx` after a crash lost its in-flight copy.
    Retry(usize),
    /// Request-timeout check for request `idx`, armed at attempt snapshot.
    Timeout(usize, u32),
}

/// One request the front tier has accepted and not yet resolved.
#[derive(Debug, Clone, Copy)]
struct LiveRequest<'a> {
    /// The request as the stream yielded it.
    request: ScenarioArrival<'a>,
    /// Physical dispatch attempts (initial submit included).
    attempts: u32,
    /// Physical copies currently in flight: a timeout re-dispatch leaves
    /// the earlier copy running.
    outstanding: u32,
}

/// One tenant's share of a run, as the front tier tallies it.
#[derive(Debug, Clone, Default)]
struct TenantTally {
    offered: usize,
    rejected: usize,
    failed: usize,
    output_tokens: u64,
    /// Client-observed latencies of successful requests, seconds.
    latencies: Histogram,
}

/// The front tier of one open-loop run, and the simulation process
/// [`drive_openloop`] steps: the fleet, one fault injector per shard, the
/// shard fault plan, and the retry/timeout queue. It routes every arrival
/// (live-ring home, fan-in) and collects every response
/// first-response-wins, keeping the ledgers and per-tenant
/// tallies the report is built from. A request's own state lives in the
/// front tier only from its acceptance to its resolution; per-request
/// outcomes are kept only when the run is recorded. Without shard faults or
/// a non-default [`FrontTierPolicy`] its queue stays empty and every
/// request resolves on its first attempt.
struct FrontTier<'a> {
    spec: &'a ScenarioSpec,
    /// Builds the fresh replica a restarted shard gets.
    builder: &'a DeploymentBuilder,
    policy: FrontTierPolicy,
    fanin: SimDuration,
    fleet: ShardedGateway,
    /// One injector per shard over the same plan: the spec's fault timeline
    /// is facility-wide, hitting each shard's replica of the affected
    /// endpoints at the same instants.
    injectors: Vec<FaultInjector>,
    /// `tokens[shard][tenant]`: one auth user per tenant class, enrolled
    /// identically on every shard (the shared control plane), so a tenant's
    /// credential is valid wherever the ring or a spill sends the request.
    tokens: Vec<Vec<TokenString>>,
    /// Each tenant's ring home, cached: tenants are the routing key (API key).
    home: Vec<usize>,
    ledger: RunLedger,
    shard_ledgers: Vec<RunLedger>,
    request_index: Vec<InFlightIndex>,
    /// Accepted, unresolved requests, keyed by position in the stream. A
    /// request missing here is resolved (or was never accepted).
    live: IdWindow<LiveRequest<'a>>,
    /// Per-request outcomes in stream order; `Some` only when recording.
    outcomes: Option<Vec<RequestOutcome>>,
    tenants: Vec<TenantTally>,
    /// When the stream's first request arrived; the run's duration starts
    /// there.
    first_arrival: Option<SimTime>,
    last_delivery: SimTime,
    /// Accepted-but-unresolved logical requests.
    unresolved: usize,
    /// Event queue popped in `(time, insertion sequence)` order, which keeps
    /// ordering deterministic within one instant. Its pops record no kernel
    /// event, so the kernel event counts stay the gateways' own.
    queue: TimingWheel<FrontAction>,
    /// Cursor into the spec's shard fault plan.
    cursor: usize,
    /// Shards that crashed at least once; their physical ledgers can never
    /// report drained because the in-flight work they lost is gone.
    ever_crashed: Vec<bool>,
    counters: FailoverSection,
}

impl<'a> FrontTier<'a> {
    fn new(
        spec: &'a ScenarioSpec,
        builder: &'a DeploymentBuilder,
        sharding: &ShardingConfig,
        record: bool,
    ) -> Self {
        let mut fleet = ShardedGateway::from_builder(builder, sharding.clone());
        let shards = fleet.shard_count();
        let tokens = fleet
            .shards_mut()
            .iter_mut()
            .map(|gw| enroll_tenants(gw, spec))
            .collect();
        let home = spec
            .tenants
            .iter()
            .map(|t| fleet.home_shard(&t.name))
            .collect();
        FrontTier {
            spec,
            builder,
            policy: sharding.front_tier.clone(),
            fanin: sharding.fanin_latency,
            fleet,
            injectors: vec![FaultInjector::new(spec.faults.clone()); shards],
            tokens,
            home,
            ledger: RunLedger::new(),
            shard_ledgers: vec![RunLedger::new(); shards],
            request_index: vec![InFlightIndex::new(); shards],
            live: IdWindow::new(),
            outcomes: record.then(Vec::new),
            tenants: vec![TenantTally::default(); spec.tenants.len()],
            first_arrival: None,
            last_delivery: SimTime::ZERO,
            unresolved: 0,
            queue: TimingWheel::new(),
            cursor: 0,
            ever_crashed: vec![false; shards],
            counters: FailoverSection::default(),
        }
    }

    /// Tenant `tenant`'s home on the live ring: its cached full-ring home
    /// while that shard is live, else a live-ring lookup, `None` when no
    /// shard is live. The two agree: the live ring only deletes the points
    /// of dead shards, so a key whose full-ring shard survives keeps it.
    fn routable_home(&self, tenant: usize) -> Option<usize> {
        let home = self.home[tenant];
        if self.fleet.routable(home) {
            Some(home)
        } else {
            self.fleet.routable_home(&self.spec.tenants[tenant].name)
        }
    }

    /// Attempts made for request `idx`; `None` once it is resolved.
    fn attempts(&self, idx: usize) -> Option<u32> {
        self.live.get(idx as u64).map(|live| live.attempts)
    }

    /// The live state of request `idx`, which the caller knows is live.
    fn live_mut(&mut self, idx: usize) -> &mut LiveRequest<'a> {
        self.live
            .get_mut(idx as u64)
            .expect("request is live until resolved")
    }

    /// The retry policy's backoff before the next attempt of a request
    /// that has made `attempts` attempts.
    fn retry_backoff(&self, attempts: u32) -> SimDuration {
        self.policy.retry.backoff(attempts.saturating_sub(1))
    }

    /// Resolve `idx` as failed-back-to-the-client when nothing is in flight
    /// for it any more and the front tier has no further move.
    fn give_up(&mut self, idx: usize) {
        if self
            .live
            .get(idx as u64)
            .is_none_or(|live| live.outstanding > 0)
        {
            return;
        }
        let live = self.live.remove(idx as u64).expect("checked live");
        self.unresolved -= 1;
        self.ledger.on_response(false);
        self.tenants[live.request.tenant as usize].failed += 1;
        self.counters.shed_retries_exhausted += 1;
    }

    /// Route arrival `idx` of the stream and submit it.
    fn arrive(&mut self, idx: usize, request: ScenarioArrival<'a>) {
        self.first_arrival.get_or_insert(request.at);
        let tenant = request.tenant as usize;
        self.tenants[tenant].offered += 1;
        // Degraded-mode routing: home on the live ring (dead shards carry
        // no points), shed typed when no shard is live at all.
        let accepted = match self.routable_home(tenant) {
            None => {
                self.counters.shed_no_live_shard += 1;
                false
            }
            Some(home) => {
                if home != self.home[tenant] {
                    self.counters.rehomed_requests += 1;
                }
                let shard = self.fleet.route_home(home).shard;
                self.live.insert(
                    idx as u64,
                    LiveRequest {
                        request,
                        attempts: 0,
                        outstanding: 0,
                    },
                );
                self.attempt(idx, shard, request.at + self.fanin)
            }
        };
        if let Some(outcomes) = &mut self.outcomes {
            outcomes.push(RequestOutcome {
                accepted,
                ..RequestOutcome::default()
            });
        }
        self.ledger.on_submission(accepted);
        if accepted {
            self.unresolved += 1;
        } else {
            self.tenants[tenant].rejected += 1;
            self.live.remove(idx as u64);
        }
    }

    /// Send one attempt of live request `idx` to `shard`, reaching it at
    /// `at`: count the attempt and, when the shard accepts, track the copy
    /// in flight and arm the policy's timeout against the new attempt
    /// count. Returns whether the shard accepted.
    fn attempt(&mut self, idx: usize, shard: usize, at: SimTime) -> bool {
        let live = self.live_mut(idx);
        live.attempts += 1;
        let request = live.request;
        let token = &self.tokens[shard][request.tenant as usize];
        let (prompt, output) = (request.prompt_tokens, request.output_tokens);
        let gateway = self.fleet.shard_mut(shard);
        let result = admit_simulated(gateway, token, request.model, idx, prompt, output, at);
        self.shard_ledgers[shard].on_submission(result.is_ok());
        let Ok(id) = result else {
            return false;
        };
        self.request_index[shard].insert(id, idx);
        let live = self.live_mut(idx);
        live.outstanding += 1;
        let snap = live.attempts;
        if let Some(timeout) = self.policy.request_timeout {
            self.queue
                .push(at + timeout, FrontAction::Timeout(idx, snap));
        }
        true
    }

    /// One front-tier re-dispatch of live request `idx` at `now`, after a
    /// crash lost its copy or a timeout fired, budgeted by the retry policy.
    /// Resolves the request as failed when the budget is exhausted or no
    /// shard is live and nothing is in flight.
    fn dispatch(&mut self, idx: usize, now: SimTime) {
        let budget = 1 + self.policy.retry.max_retries;
        let live = *self.live_mut(idx);
        if live.attempts >= budget {
            self.give_up(idx);
            return;
        }
        let Some(shard) = self.routable_home(live.request.tenant as usize) else {
            self.give_up(idx);
            return;
        };
        let accepted = self.attempt(idx, shard, now);
        self.counters.retries_dispatched += 1;
        if accepted {
            return;
        }
        let attempts = self.live_mut(idx).attempts;
        if attempts >= budget {
            self.give_up(idx);
        } else {
            // The shard refused the retry outright: burn one backoff step
            // and try again within the same budget.
            let backoff = self.retry_backoff(attempts);
            self.queue.push(now + backoff, FrontAction::Retry(idx));
        }
    }

    /// Apply one shard-plan fault at `step`.
    fn shard_fault(&mut self, kind: &ShardFaultKind, step: SimTime) {
        match *kind {
            ShardFaultKind::ShardCrash { shard } => {
                if !self.fleet.kill_shard(shard, step) {
                    return;
                }
                self.ever_crashed[shard] = true;
                // Everything in flight on the shard dies with it, retried
                // in ascending gateway-id order (the window's order).
                let lost = std::mem::take(&mut self.request_index[shard]);
                for &idx in lost.values() {
                    self.counters.lost_in_flight += 1;
                    let Some(live) = self.live.get_mut(idx as u64) else {
                        continue;
                    };
                    live.outstanding = live.outstanding.saturating_sub(1);
                    if live.outstanding > 0 {
                        continue;
                    }
                    let attempts = live.attempts;
                    if attempts > self.policy.retry.max_retries {
                        self.give_up(idx);
                    } else {
                        let backoff = self.retry_backoff(attempts);
                        self.queue.push(step + backoff, FrontAction::Retry(idx));
                    }
                }
            }
            ShardFaultKind::ShardRestart { shard } => {
                // `ScenarioRun::execute` has rejected shards the run lacks.
                if self.fleet.is_live(shard) {
                    return;
                }
                // A fresh replica from the same deployment builder: cold
                // caches, re-enrolled tenants, clock caught up to the
                // restart instant.
                let mut gw = self.builder.clone().build();
                let fresh = enroll_tenants(&mut gw, self.spec);
                gw.advance(step);
                self.fleet.restore_shard(shard, gw, step);
                self.tokens[shard] = fresh;
            }
        }
    }

    /// Drain every live shard's responses into the ledgers, outcomes and
    /// per-tenant tallies. The first response to a logical request wins and
    /// retires its live state — duplicates are counted stale and dropped at
    /// the front tier — and dead shards deliver nothing: a crash loses its
    /// in-flight copies outright.
    fn collect(&mut self) {
        for shard in 0..self.fleet.shard_count() {
            if !self.fleet.is_live(shard) {
                continue;
            }
            for r in self.fleet.take_responses(shard) {
                self.last_delivery = self.last_delivery.max(r.finished_at);
                self.shard_ledgers[shard].on_response(r.success);
                // Each physical copy is answered at most once, so its entry
                // goes: the index holds the in-flight set, not the whole run.
                let Some(idx) = self.request_index[shard].remove(r.request_id) else {
                    continue;
                };
                let Some(live) = self.live.remove(idx as u64) else {
                    self.counters.stale_responses += 1;
                    continue;
                };
                self.unresolved -= 1;
                self.ledger.on_response(r.success);
                // Client-observed latency spans from the original arrival, in
                // exact integer microseconds: the fan-in hop, backoff and
                // re-dispatch all count against the SLO.
                let request = live.request;
                let observed = r.finished_at.saturating_since(request.at).as_secs_f64();
                if let Some(o) = self.outcomes.as_mut().map(|o| &mut o[idx]) {
                    o.delivered = true;
                    o.success = r.success;
                    o.latency_s = observed;
                    o.completion_tokens = r.usage.completion_tokens;
                }
                if live.attempts > 1 {
                    self.counters.retried_to_completion += 1;
                }
                let tally = &mut self.tenants[request.tenant as usize];
                if r.success {
                    tally.latencies.record(observed);
                    tally.output_tokens += r.usage.completion_tokens as u64;
                } else {
                    tally.failed += 1;
                }
            }
        }
    }

    /// Whether the run is over once every arrival is in: the fleet, every
    /// injector, the shard plan and the failover queue all spent, and every
    /// accepted request resolved.
    fn drained(&self) -> bool {
        self.fleet.is_drained()
            && self.injectors.iter().all(FaultInjector::is_exhausted)
            && self.cursor >= self.spec.shard_faults.len()
            && self.queue.is_empty()
            && self.unresolved == 0
    }
}

impl SimProcess for FrontTier<'_> {
    fn next_event_time(&self) -> Option<SimTime> {
        // A dead shard makes no progress of its own (the fleet counts no
        // wake for it); only its injector's pending timeline still drains.
        let plan_next = self.spec.shard_faults.events().get(self.cursor);
        self.injectors
            .iter()
            .filter_map(FaultInjector::next_event_time)
            .chain(self.fleet.next_event_time())
            .chain(plan_next.map(|e| e.at))
            .chain(self.queue.peek_time())
            .min()
    }

    fn advance(&mut self, step: SimTime) {
        self.ledger.clock.observe(step);
        // Only due shards move: a shard whose wake and injector both lie
        // after `step` has nothing to do, and advancing it would change
        // nothing. Due shards apply faults, then advance, in shard order.
        let due = |at: Option<SimTime>| at.is_some_and(|at| at <= step);
        for i in 0..self.fleet.shard_count() {
            if !due(self.fleet.shard_wake(i)) && !due(self.injectors[i].next_event_time()) {
                continue;
            }
            self.injectors[i].apply_due(self.fleet.shard_mut(i).service_mut(), step);
            if self.fleet.is_live(i) {
                self.fleet.shard_mut(i).advance(step);
            }
        }
        // Shard-plan faults due at this step, applied before arrivals so
        // routing at `step` already sees the new membership.
        let plan = self.spec.shard_faults.events();
        while let Some(event) = plan.get(self.cursor).filter(|e| e.at <= step) {
            self.cursor += 1;
            self.shard_fault(&event.kind, step);
        }
        // Front-tier events due now: retries and timeouts. A timeout only
        // fires if no later attempt superseded it.
        while let Some(event) = self.queue.pop_due(step) {
            // A resolved request has nothing left to dispatch.
            let idx = match event.payload {
                FrontAction::Retry(idx) if self.attempts(idx).is_some() => idx,
                FrontAction::Timeout(idx, snap) if self.attempts(idx) == Some(snap) => idx,
                _ => continue,
            };
            self.dispatch(idx, step);
        }
    }
}

/// The shared body of every [`ScenarioRun`]: stream the spec's requests at
/// the run's seed ([`ScenarioSpec::arrivals`]) over the (possibly
/// single-shard) federation built from `builder` and return the output,
/// without a cassette, and the per-request outcomes in stream order (`Some`
/// only when the run is recorded).
///
/// The run's [`FrontTier`] is the process [`drive_openloop`] steps, so
/// arrivals, retries and timeouts all enter through the front tier,
/// and responses leave through one first-response-wins collector. With one
/// shard, zero fan-in and the default policy the front tier has nothing to
/// add, so the run is the plain single-gateway replay.
fn run_scenario_impl(
    run: &ScenarioRun,
    builder: DeploymentBuilder,
) -> (RunOutput, Option<Vec<RequestOutcome>>) {
    let (spec, seed, trace, sharding) = (&*run.spec, run.seed, run.trace, &run.sharding);

    let mut builder = builder.prewarm(spec.prewarm).trace(trace);
    if spec.resilience {
        builder = builder.resilience(ResilienceConfig::production());
    }
    let mut front = FrontTier::new(spec, &builder, sharding, run.record);
    // The report's failover section is reserved for runs that can actually
    // need the front tier's extra moves.
    let front_active =
        !spec.shard_faults.is_empty() || sharding.front_tier != FrontTierPolicy::default();

    let all_submitted = drive_openloop(
        &mut front,
        spec.arrivals(seed),
        |r| r.at,
        spec.horizon(),
        FrontTier::arrive,
        FrontTier::collect,
        FrontTier::drained,
    );
    #[cfg(test)]
    tests::LEFT_IN_INDEX.with(|left| {
        *left.borrow_mut() = front.request_index.iter().map(IdWindow::len).collect();
    });
    #[cfg(test)]
    tests::LEFT_LIVE.with(|left| left.set((front.live.len(), front.live.span())));
    let FrontTier {
        mut fleet,
        mut ledger,
        mut shard_ledgers,
        outcomes,
        tenants: mut tallies,
        injectors,
        first_arrival,
        last_delivery,
        unresolved,
        ever_crashed,
        counters,
        ..
    } = front;
    ledger.drained = all_submitted && fleet.is_drained() && unresolved == 0;
    for (i, shard_ledger) in shard_ledgers.iter_mut().enumerate() {
        // A shard that ever crashed can never report drained: the physical
        // copies it lost mid-flight are gone, not answered.
        shard_ledger.drained = all_submitted && fleet.shard(i).is_drained() && !ever_crashed[i];
    }

    // Every run, one shard or many, failover or not, closes with the same
    // conservation check.
    if let Err(violations) = check_front_tier_invariants(
        fleet.shards(),
        &shard_ledgers,
        &ledger,
        &counters,
        fleet.spilled_out(),
        fleet.spilled_in(),
    ) {
        panic!(
            "scenario '{}' violated run invariants:\n  {}",
            spec.name,
            violations.join("\n  ")
        );
    }

    let first_arrival = first_arrival.unwrap_or(SimTime::ZERO);
    let duration_s = (last_delivery.saturating_since(first_arrival))
        .as_secs_f64()
        .max(1e-9);

    let tenants: Vec<TenantReport> = spec
        .tenants
        .iter()
        .zip(&mut tallies)
        .map(|(t, tally)| {
            let completed = tally.latencies.count();
            let availability = completed as f64 / tally.offered.max(1) as f64;
            let within_target = tally
                .latencies
                .samples()
                .iter()
                .filter(|&&l| l <= t.slo.p95_latency_s)
                .count();
            let p95 = tally.latencies.p95();
            TenantReport {
                tenant: t.name.clone(),
                priority: t.priority,
                offered: tally.offered,
                completed,
                failed: tally.failed,
                rejected: tally.rejected,
                availability,
                median_latency_s: tally.latencies.median(),
                p95_latency_s: p95,
                mean_latency_s: tally.latencies.mean(),
                output_tokens: tally.output_tokens,
                output_tok_per_s: tally.output_tokens as f64 / duration_s,
                slo_p95_target_s: t.slo.p95_latency_s,
                slo_availability_target: t.slo.availability,
                slo_latency_attainment: within_target as f64 / completed.max(1) as f64,
                slo_met: t.slo.met(p95, availability),
            }
        })
        .collect();
    let slo_attained_tenants = tenants.iter().filter(|t| t.slo_met).count();
    let output_tokens: u64 = tallies.iter().map(|t| t.output_tokens).sum();
    let latencies = tallies.into_iter().map(|t| t.latencies).collect();

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
    let n_shards = fleet.shard_count();
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
            fanin_latency_s: sharding.fanin_latency.as_secs_f64(),
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
        ..counters
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
    let report = GatewayReport {
        scenario: spec.name.clone(),
        seed,
        offered: ledger.offered,
        accepted: ledger.accepted,
        rejected: ledger.rejected,
        completed: ledger.completed,
        failed: ledger.failed,
        duration_s,
        request_throughput: ledger.completed as f64 / duration_s,
        output_token_throughput: output_tokens as f64 / duration_s,
        faults_injected: injectors[0].applied().len(),
        retries,
        failovers,
        breaker_trips,
        hedges,
        tenants,
        slo_attained_tenants,
        phases,
        shards: shard_section,
        failover,
    };
    let traces = trace.enabled().then_some(trees);
    let out = RunOutput {
        report,
        latencies,
        fleet,
        cassette: None,
        traces,
    };
    (out, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ConsistentHashRing;
    use first_workload::{
        scenario::models, ArrivalProcess, DeploymentRef, ScenarioSpec, SloTarget, TenantClass,
    };

    thread_local! {
        /// Entries each shard's in-flight index still held when the latest
        /// run on this thread finished.
        pub(super) static LEFT_IN_INDEX: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
        /// Live requests and window slots the front tier still held when the
        /// latest run on this thread finished.
        pub(super) static LEFT_LIVE: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    }

    #[test]
    fn every_deployment_resolves_every_registered_endpoint() {
        for deployment in [
            DeploymentRef::SingleClusterTest,
            DeploymentRef::SophiaSingleInstance,
            DeploymentRef::Sophia,
            DeploymentRef::FederatedSophiaPolaris,
        ] {
            let gateway = builder_for(deployment).build();
            let registry = gateway.registry();
            for model in registry.models() {
                for name in registry.endpoints_for(&model).unwrap() {
                    assert!(
                        gateway.service().endpoint_id(name).is_some(),
                        "{deployment:?} registers {model} on unknown endpoint {name}"
                    );
                }
            }
        }
    }

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
            .sharding(
                ShardingConfig::with_shards(1)
                    .spill(SpilloverPolicy::disabled())
                    .fanin(SimDuration::ZERO),
            )
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
        // A 1 ms timeout re-dispatches most requests while their first copy
        // is still in flight; the losing copies must leave the index too.
        let timed_out = FrontTierPolicy {
            request_timeout: Some(SimDuration::from_millis(1)),
            ..FrontTierPolicy::default()
        };
        for (shards, policy) in [
            (1, FrontTierPolicy::default()),
            (3, FrontTierPolicy::default()),
            (3, timed_out),
        ] {
            let out = ScenarioRun::new(&small_spec())
                .seed(7)
                .sharding(ShardingConfig::with_shards(shards).front(policy.clone()))
                .execute()
                .expect("run");
            let r = &out.report;
            assert!(r.accepted > 0, "{shards} shard(s), {policy:?}");
            assert_eq!(r.accepted, r.completed + r.failed, "the run drains");
            let left = LEFT_IN_INDEX.with(|left| left.borrow().clone());
            assert_eq!(left, vec![0; shards], "{shards} shard(s), {policy:?}");
            // Every resolved request's front-tier state is gone too.
            let live = LEFT_LIVE.with(std::cell::Cell::get);
            assert_eq!(live, (0, 0), "{shards} shard(s), {policy:?}");
        }
    }

    #[test]
    fn a_crash_retries_lost_copies_in_ascending_gateway_id_order() {
        // Constant backoff, so every retry lands at one instant and the
        // queue pops them in the order the crash pushed them.
        let mut sharding = ShardingConfig::with_shards(2);
        sharding.front_tier.retry = first_chaos::RetryPolicy {
            multiplier: 1.0,
            ..first_chaos::RetryPolicy::default()
        };
        let spec = small_spec();
        let builder = builder_for(spec.deployment);
        let mut f = FrontTier::new(&spec, &builder, &sharding, false);
        let home = f.home[0];
        let first = spec.arrivals(1).next().expect("an arrival");
        // Stream indices 0..=3 take gateway ids 1..=4 on the home shard;
        // index 1 is short, so it answers first and leaves a hole at id 2.
        for (idx, output_tokens) in [400, 8, 400, 400].into_iter().enumerate() {
            let seq = idx as u32;
            f.arrive(
                idx,
                ScenarioArrival {
                    seq,
                    output_tokens,
                    ..first
                },
            );
        }
        let mut now = first.at;
        while f.attempts(1).is_some() {
            now = f.next_event_time().expect("copies in flight");
            f.advance(now);
            f.collect();
        }
        assert!([0, 2, 3].iter().all(|&idx| f.attempts(idx) == Some(1)));
        // A timeout-style retry re-sends index 0 home as id 5: the ids now
        // run out of stream order.
        f.dispatch(0, now);
        let index = &f.request_index[home];
        assert_eq!((index.len(), index.span()), (4, 5));
        assert_eq!(index.get(2), None);
        assert_eq!(index.get(5), Some(&0));
        f.shard_fault(&ShardFaultKind::ShardCrash { shard: home }, now);
        assert_eq!(f.counters.lost_in_flight, 4);
        assert!(f.request_index[home].is_empty());
        // Id 1 leaves index 0 one copy still counted in flight; ids 3, 4
        // and 5 each lose a request's last copy, in that order.
        let mut retried = Vec::new();
        while let Some(ev) = f.queue.pop() {
            retried.push(ev.payload);
        }
        assert_eq!(
            retried,
            [2, 3, 0].map(FrontAction::Retry),
            "lost copies retry in ascending gateway-id order"
        );
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
            .sharding(ShardingConfig::with_shards(3))
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
            .sharding(ShardingConfig::with_shards(3))
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
            .sharding(ShardingConfig::default().fanin(hop))
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
    fn sharded_specs_are_unrecordable_with_typed_errors() {
        // The cassette format carries no shard topology.
        match ScenarioRun::new(&small_spec())
            .seed(1)
            .sharding(ShardingConfig::with_shards(2))
            .recorded()
            .execute()
        {
            Err(CassetteError::Unrecordable(msg)) => assert!(msg.contains("sharded")),
            other => panic!("expected Unrecordable, got {other:?}"),
        }
    }

    /// A replaced deployment runs in place of the spec's preset, with the
    /// spec's prewarm still applied, and hands back the fleet it drove; a
    /// cassette could not name it, so recording such a run is refused.
    #[test]
    fn replaced_deployments_run_but_are_unrecordable() {
        let spec = small_spec();
        let plain = ScenarioRun::new(&spec).seed(3).execute().unwrap();
        let replaced = ScenarioRun::new(&spec)
            .seed(3)
            .deployment(DeploymentBuilder::single_cluster_test())
            .execute()
            .unwrap();
        assert_eq!(plain.report, replaced.report);
        let gateway = replaced.fleet.shard(0);
        assert!(gateway.is_drained());
        let logged = gateway.log().entries().iter().filter(|e| e.success);
        assert_eq!(logged.count(), replaced.report.completed);
        match ScenarioRun::new(&spec)
            .deployment(DeploymentBuilder::single_cluster_test())
            .recorded()
            .execute()
        {
            Err(CassetteError::Unrecordable(msg)) => assert!(msg.contains("replaced deployment")),
            other => panic!("expected Unrecordable, got {other:?}"),
        }
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
            .sharding(ShardingConfig::with_shards(4))
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
            .sharding(ShardingConfig::with_shards(4))
            .execute()
            .expect("failover run")
            .report;
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn exhausted_retries_fail_back_and_retire_front_tier_state() {
        let mut spec = failover_spec();
        let victim = home_of(&spec, 4, 0);
        spec.shard_faults = first_chaos::ShardFaultPlan::kill_and_restart(
            victim,
            SimTime::from_secs(4),
            SimDuration::from_secs(30),
        );
        // No retry budget: every copy the crash loses fails back at once.
        let mut policy = FrontTierPolicy::default();
        policy.retry.max_retries = 0;
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .sharding(ShardingConfig::with_shards(4).front(policy))
            .execute()
            .expect("failover run")
            .report;
        let failover = report.failover.as_ref().expect("failover section");
        assert!(failover.lost_in_flight > 0, "{failover:?}");
        assert_eq!(failover.shed_retries_exhausted, failover.lost_in_flight);
        assert_eq!(report.failed, failover.lost_in_flight);
        assert_eq!(report.offered, report.completed + report.failed);
        assert_eq!(LEFT_LIVE.with(std::cell::Cell::get), (0, 0));
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
                    .sharding(ShardingConfig::with_shards(shards).fanin(fanin))
                    .execute()
                    .expect("plain run")
                    .report;
                let fronted = ScenarioRun::new(&spec)
                    .seed(42)
                    .sharding(
                        ShardingConfig::with_shards(shards)
                            .fanin(fanin)
                            .front(policy.clone()),
                    )
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
    fn timed_out_requests_complete_once_and_drop_their_stale_copies() {
        let spec = failover_spec();
        // A 1 ms timeout re-dispatches every request before its first copy
        // can answer, so several copies of one request race each other.
        let policy = FrontTierPolicy {
            request_timeout: Some(SimDuration::from_millis(1)),
            ..FrontTierPolicy::default()
        };
        // `execute` ends with `check_front_tier_invariants` and panics on a
        // violation, so reaching the report means the run conserved.
        let report = ScenarioRun::new(&spec)
            .seed(42)
            .sharding(ShardingConfig::with_shards(2).front(policy))
            .execute()
            .expect("timed-out run")
            .report;
        assert_eq!(report.offered, 60);
        assert_eq!(report.accepted, 60);
        assert_eq!(report.completed, 60, "every request completes");
        assert_eq!(report.failed, 0);
        for t in &report.tenants {
            assert_eq!(t.completed, t.offered, "{} completes once each", t.tenant);
        }
        let failover = report.failover.as_ref().expect("failover section");
        assert!(failover.retries_dispatched > 0, "1 ms timeout fires");
        assert!(
            failover.stale_responses > 0,
            "losing copies answer after their request resolved: {failover:?}"
        );
        assert!(failover.stale_responses <= failover.retries_dispatched);
        assert_eq!(LEFT_LIVE.with(std::cell::Cell::get), (0, 0));
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
    fn a_fault_on_a_missing_shard_is_a_typed_error() {
        let spec = first_workload::catalog(40)
            .into_iter()
            .find(|s| s.name == "shard-outage")
            .expect("in catalog");
        match ScenarioRun::new(&spec).seed(1).execute() {
            Err(CassetteError::MissingShard {
                scenario,
                shard,
                shards,
            }) => assert_eq!((scenario.as_str(), shard, shards), ("shard-outage", 1, 1)),
            other => panic!("expected MissingShard, got {other:?}"),
        }
        // Two shards have the shard the plan crashes.
        let report = ScenarioRun::new(&spec)
            .seed(1)
            .sharding(ShardingConfig::with_shards(2))
            .execute()
            .unwrap()
            .report;
        assert_eq!(report.failover.unwrap().crashes, 1);
    }

    #[test]
    fn shard_fault_specs_are_unrecordable_with_typed_errors() {
        let mut spec = failover_spec();
        spec.shard_faults = first_chaos::ShardFaultPlan::kill(0, SimTime::from_secs(1));
        match ScenarioRun::new(&spec)
            .seed(1)
            .sharding(ShardingConfig::with_shards(4))
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
