//! Deterministic fault plans and the injector that applies them.
//!
//! A [`FaultPlan`] is a time-ordered schedule of [`FaultEvent`]s — node
//! crashes and PBS preemptions on the HPC substrate, endpoint flaps, cluster
//! outages and network latency spikes on the compute fabric, and engine
//! stalls in the serving layer. Plans are either hand-written (scenario
//! tests) or generated from a seed (sweep benchmarks), and the same seed
//! always yields the same plan, so every chaos experiment reproduces
//! bit-for-bit. The [`FaultInjector`] replays a plan against a live
//! [`ComputeService`] as virtual time advances and schedules the matching
//! recovery actions (e.g. a crashed node coming back online).

use first_desim::{SimDuration, SimRng, SimTime};
use first_fabric::ComputeService;
use first_hpc::NodeId;
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A compute node backing a hot instance crashes: the instance fails,
    /// its in-flight tasks error out, and the node stays offline for
    /// `offline_for` before rejoining the cluster.
    NodeCrash {
        /// Endpoint whose cluster loses the node.
        endpoint: String,
        /// How long the node stays offline.
        offline_for: SimDuration,
    },
    /// The PBS scheduler preempts the batch job backing one hot instance
    /// (walltime pressure or a higher-priority reservation).
    JobPreemption {
        /// Endpoint whose instance job is cancelled.
        endpoint: String,
    },
    /// The Globus-Compute endpoint becomes unreachable (process flap or
    /// network partition): task deliveries fail until it recovers.
    EndpointFlap {
        /// Endpoint that goes dark.
        endpoint: String,
        /// How long deliveries fail.
        down_for: SimDuration,
    },
    /// A full cluster outage: the endpoint is unreachable *and* every active
    /// instance is killed, so nothing survives the window.
    ClusterOutage {
        /// Endpoint whose cluster goes down.
        endpoint: String,
        /// Outage duration.
        down_for: SimDuration,
    },
    /// A fabric-wide latency spike (congested WAN path): every submission and
    /// result relay pays `extra` until the spike ends.
    LatencySpike {
        /// Extra one-way latency added.
        extra: SimDuration,
        /// Spike duration.
        duration: SimDuration,
    },
    /// Every autoregressive (vLLM) serving engine on the endpoint stops
    /// making decode progress (NCCL hang, storage stall) until the given
    /// duration elapses; queued and running work resumes afterwards.
    /// Embedding backends are unaffected.
    EngineStall {
        /// Endpoint whose engines stall.
        endpoint: String,
        /// Stall duration.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// The endpoint this fault targets, if any (latency spikes are global).
    pub(crate) fn endpoint(&self) -> Option<&str> {
        match self {
            FaultKind::NodeCrash { endpoint, .. }
            | FaultKind::JobPreemption { endpoint }
            | FaultKind::EndpointFlap { endpoint, .. }
            | FaultKind::ClusterOutage { endpoint, .. }
            | FaultKind::EngineStall { endpoint, .. } => Some(endpoint),
            FaultKind::LatencySpike { .. } => None,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node-crash",
            FaultKind::JobPreemption { .. } => "job-preemption",
            FaultKind::EndpointFlap { .. } => "endpoint-flap",
            FaultKind::ClusterOutage { .. } => "cluster-outage",
            FaultKind::LatencySpike { .. } => "latency-spike",
            FaultKind::EngineStall { .. } => "engine-stall",
        }
    }
}

/// A fault scheduled at an absolute virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub(crate) at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a fault; events are kept sorted by time (ties keep push order).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing (the baseline).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A single full-cluster outage at `at` lasting `down_for`.
    pub fn cluster_outage(endpoint: &str, at: SimTime, down_for: SimDuration) -> Self {
        Self::none().with(
            at,
            FaultKind::ClusterOutage {
                endpoint: endpoint.to_string(),
                down_for,
            },
        )
    }

    /// Seeded endpoint flapping: the endpoint alternates between up periods
    /// (exponential, mean `mean_up`) and outages (exponential, mean
    /// `mean_down`) from `start` until `horizon`.
    pub fn endpoint_flaps(
        endpoint: &str,
        seed: u64,
        start: SimTime,
        horizon: SimTime,
        mean_up: SimDuration,
        mean_down: SimDuration,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xF1A9_F1A9_F1A9_F1A9);
        let mut plan = FaultPlan::none();
        let mut t = start;
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(mean_up.as_secs_f64()).max(1.0));
            if t >= horizon {
                break;
            }
            let down =
                SimDuration::from_secs_f64(rng.exponential(mean_down.as_secs_f64()).max(1.0));
            plan.push(
                t,
                FaultKind::EndpointFlap {
                    endpoint: endpoint.to_string(),
                    down_for: down,
                },
            );
            t += down;
        }
        plan
    }

    /// A seeded mixed-fault schedule over the given endpoints: `count` faults
    /// drawn uniformly over `[start, horizon)` with kinds weighted toward the
    /// common failure modes (flaps and preemptions over full outages).
    pub fn seeded(
        seed: u64,
        start: SimTime,
        horizon: SimTime,
        endpoints: &[String],
        count: usize,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let mut plan = FaultPlan::none();
        if endpoints.is_empty() || horizon <= start {
            return plan;
        }
        let span = (horizon - start).as_secs_f64();
        for _ in 0..count {
            let at = start + SimDuration::from_secs_f64(rng.uniform(0.0, span));
            let endpoint = endpoints[rng.uniform_usize(0, endpoints.len() - 1)].clone();
            let kind = match rng.weighted_index(&[4.0, 3.0, 2.0, 1.0, 1.0]) {
                0 => FaultKind::EndpointFlap {
                    endpoint,
                    down_for: SimDuration::from_secs_f64(rng.uniform(5.0, 45.0)),
                },
                1 => FaultKind::JobPreemption { endpoint },
                2 => FaultKind::EngineStall {
                    endpoint,
                    duration: SimDuration::from_secs_f64(rng.uniform(10.0, 60.0)),
                },
                3 => FaultKind::NodeCrash {
                    endpoint,
                    offline_for: SimDuration::from_secs_f64(rng.uniform(60.0, 300.0)),
                },
                _ => FaultKind::LatencySpike {
                    extra: SimDuration::from_secs_f64(rng.uniform(0.5, 3.0)),
                    duration: SimDuration::from_secs_f64(rng.uniform(10.0, 60.0)),
                },
            };
            plan.push(at, kind);
        }
        plan
    }
}

/// One kind of shard-scoped fault. Unlike [`FaultKind`], which perturbs the
/// compute substrate *inside* one shard, these strike the federation tier
/// itself: whole-shard death and recovery. They are applied by the scenario
/// driver at the `ShardedGateway` level, not by the per-shard
/// [`FaultInjector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardFaultKind {
    /// The shard process dies: every in-flight request on it is lost, its
    /// keys re-home to surviving peers, and it stays dead until an explicit
    /// [`ShardFaultKind::ShardRestart`].
    ShardCrash {
        /// Index of the shard that crashes.
        shard: usize,
    },
    /// A previously crashed shard comes back empty (cold caches, fresh
    /// queues) and rejoins the ring.
    ShardRestart {
        /// Index of the shard that restarts.
        shard: usize,
    },
}

/// A shard-scoped fault scheduled at an absolute virtual time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: ShardFaultKind,
}

/// A deterministic, time-ordered schedule of shard-scoped faults, mirroring
/// [`FaultPlan`] for the federation tier.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardFaultPlan {
    events: Vec<ShardFaultEvent>,
}

impl ShardFaultPlan {
    /// An empty plan (the shard-fault-free baseline).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a fault; events are kept sorted by time (ties keep push order).
    pub fn push(&mut self, at: SimTime, kind: ShardFaultKind) -> &mut Self {
        self.events.push(ShardFaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Builder-style [`ShardFaultPlan::push`].
    pub fn with(mut self, at: SimTime, kind: ShardFaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[ShardFaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing (the baseline).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A single permanent shard crash at `at`.
    pub fn kill(shard: usize, at: SimTime) -> Self {
        Self::none().with(at, ShardFaultKind::ShardCrash { shard })
    }

    /// A shard crash at `at` followed by its restart `down_for` later.
    pub fn kill_and_restart(shard: usize, at: SimTime, down_for: SimDuration) -> Self {
        Self::none()
            .with(at, ShardFaultKind::ShardCrash { shard })
            .with(at + down_for, ShardFaultKind::ShardRestart { shard })
    }
}

/// A fault the injector actually applied (for logs and assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedFault {
    /// Virtual time of application.
    pub at: SimTime,
    /// Fault label (see [`FaultKind::label`]).
    pub fault: String,
    /// Target endpoint, when the fault has one.
    pub endpoint: Option<String>,
    /// Whether the fault found something to break (e.g. a preemption with no
    /// running instance applies vacuously).
    pub(crate) effective: bool,
}

/// Scheduled recovery action paired with an applied fault.
#[derive(Debug, Clone, PartialEq)]
enum RestoreAction {
    NodeOnline { endpoint: String, node: NodeId },
}

/// Replays a [`FaultPlan`] against a [`ComputeService`] as time advances.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Pending events, earliest last (so `pop` is O(1)).
    pending: Vec<FaultEvent>,
    restores: Vec<(SimTime, RestoreAction)>,
    applied: Vec<AppliedFault>,
}

impl FaultInjector {
    /// An injector for the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        let mut pending = plan.events;
        pending.reverse();
        FaultInjector {
            pending,
            restores: Vec::new(),
            applied: Vec::new(),
        }
    }

    /// Earliest pending fault or recovery instant, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let fault = self.pending.last().map(|e| e.at);
        let restore = self.restores.iter().map(|(t, _)| *t).min();
        match (fault, restore) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// The earliest of the injector's next fault/recovery instant and a
    /// simulated process's next event — the driver-loop merge every chaos
    /// scenario needs (call [`FaultInjector::apply_due`] before advancing the
    /// process to the returned instant).
    pub fn next_event_merged(&self, process: &impl first_desim::SimProcess) -> Option<SimTime> {
        match (process.next_event_time(), self.next_event_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Faults applied so far.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Whether every scheduled fault and recovery has been applied.
    pub fn is_exhausted(&self) -> bool {
        self.pending.is_empty() && self.restores.is_empty()
    }

    /// Apply every fault and recovery due at or before `now`. Returns the
    /// faults applied in this call.
    pub fn apply_due(&mut self, service: &mut ComputeService, now: SimTime) -> Vec<AppliedFault> {
        let restore_due = self.restores.iter().any(|(t, _)| *t <= now);
        let fault_due = self.pending.last().map(|e| e.at <= now).unwrap_or(false);
        if !restore_due && !fault_due {
            return Vec::new();
        }
        // Bring the deployment up to `now` before perturbing it: fault
        // application fast-forwards endpoint internals, and anything still in
        // transit with an earlier timestamp must land first.
        use first_desim::SimProcess as _;
        service.advance(now);
        // Recoveries first so that a restore and a re-crash at the same
        // instant leave the node down (the crash wins, matching real races).
        let mut i = 0;
        while i < self.restores.len() {
            if self.restores[i].0 <= now {
                let (_, action) = self.restores.remove(i);
                match action {
                    RestoreAction::NodeOnline { endpoint, node } => {
                        if let Some(ep) = service.endpoint_mut(&endpoint) {
                            ep.restore_node(node);
                        }
                    }
                }
            } else {
                i += 1;
            }
        }

        let mut out = Vec::new();
        while self.pending.last().map(|e| e.at <= now).unwrap_or(false) {
            let event = self.pending.pop().expect("pending checked non-empty");
            let effective = self.apply_one(service, &event, now);
            let record = AppliedFault {
                at: event.at,
                fault: event.kind.label().to_string(),
                endpoint: event.kind.endpoint().map(str::to_string),
                effective,
            };
            self.applied.push(record.clone());
            out.push(record);
        }
        out
    }

    fn apply_one(
        &mut self,
        service: &mut ComputeService,
        event: &FaultEvent,
        now: SimTime,
    ) -> bool {
        match &event.kind {
            FaultKind::NodeCrash {
                endpoint,
                offline_for,
            } => {
                let Some(ep) = service.endpoint_mut(endpoint) else {
                    return false;
                };
                match ep.inject_node_crash(now) {
                    Some(node) => {
                        self.restores.push((
                            now + *offline_for,
                            RestoreAction::NodeOnline {
                                endpoint: endpoint.clone(),
                                node,
                            },
                        ));
                        true
                    }
                    None => false,
                }
            }
            FaultKind::JobPreemption { endpoint } => service
                .endpoint_mut(endpoint)
                .map(|ep| ep.preempt_instance(now))
                .unwrap_or(false),
            FaultKind::EndpointFlap { endpoint, down_for } => {
                match service.endpoint_mut(endpoint) {
                    Some(ep) => {
                        ep.set_offline_until(now + *down_for);
                        true
                    }
                    None => false,
                }
            }
            FaultKind::ClusterOutage { endpoint, down_for } => {
                match service.endpoint_mut(endpoint) {
                    Some(ep) => {
                        ep.set_offline_until(now + *down_for);
                        ep.preempt_all_instances(now);
                        true
                    }
                    None => false,
                }
            }
            FaultKind::LatencySpike { extra, duration } => {
                service.inject_latency_spike(*extra, now + *duration);
                true
            }
            FaultKind::EngineStall { endpoint, duration } => service
                .endpoint_mut(endpoint)
                .map(|ep| ep.stall_engines(now, now + *duration) > 0)
                .unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_stay_time_ordered() {
        let plan = FaultPlan::none()
            .with(
                SimTime::from_secs(100),
                FaultKind::JobPreemption {
                    endpoint: "b".into(),
                },
            )
            .with(
                SimTime::from_secs(10),
                FaultKind::JobPreemption {
                    endpoint: "a".into(),
                },
            );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, SimTime::from_secs(10));
        assert_eq!(plan.events()[1].at, SimTime::from_secs(100));
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let endpoints = vec!["sophia-endpoint".to_string(), "polaris-endpoint".into()];
        let a = FaultPlan::seeded(7, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 12);
        let b = FaultPlan::seeded(7, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 12);
        let c = FaultPlan::seeded(8, SimTime::ZERO, SimTime::from_secs(600), &endpoints, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 12);
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn flap_plans_cover_the_window() {
        let plan = FaultPlan::endpoint_flaps(
            "sophia-endpoint",
            42,
            SimTime::ZERO,
            SimTime::from_secs(600),
            SimDuration::from_secs(60),
            SimDuration::from_secs(20),
        );
        assert!(!plan.is_empty());
        assert!(plan.events().iter().all(|e| e.at < SimTime::from_secs(600)));
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::EndpointFlap { .. })));
    }

    #[test]
    fn injector_orders_events_and_reports_exhaustion() {
        let plan = FaultPlan::none()
            .with(
                SimTime::from_secs(5),
                FaultKind::LatencySpike {
                    extra: SimDuration::from_secs(1),
                    duration: SimDuration::from_secs(10),
                },
            )
            .with(
                SimTime::from_secs(2),
                FaultKind::LatencySpike {
                    extra: SimDuration::from_secs(1),
                    duration: SimDuration::from_secs(10),
                },
            );
        let mut injector = FaultInjector::new(plan);
        assert_eq!(injector.next_event_time(), Some(SimTime::from_secs(2)));
        let mut service = ComputeService::new(first_fabric::FabricLatencyModel::default());
        let applied = injector.apply_due(&mut service, SimTime::from_secs(3));
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].fault, "latency-spike");
        assert_eq!(injector.next_event_time(), Some(SimTime::from_secs(5)));
        injector.apply_due(&mut service, SimTime::from_secs(10));
        assert!(injector.is_exhausted());
        assert_eq!(injector.applied().len(), 2);
    }

    #[test]
    fn shard_fault_plans_stay_time_ordered_and_round_trip() {
        let plan = ShardFaultPlan::none()
            .with(
                SimTime::from_secs(40),
                ShardFaultKind::ShardRestart { shard: 1 },
            )
            .with(
                SimTime::from_secs(8),
                ShardFaultKind::ShardCrash { shard: 1 },
            )
            .with(
                SimTime::from_secs(20),
                ShardFaultKind::ShardCrash { shard: 0 },
            );
        assert_eq!(plan.len(), 3);
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            plan.events()[0].kind,
            ShardFaultKind::ShardCrash { shard: 1 }
        );
        assert_eq!(
            plan.events()[1].kind,
            ShardFaultKind::ShardCrash { shard: 0 }
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: ShardFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        assert!(ShardFaultPlan::none().is_empty());
    }

    #[test]
    fn kill_and_restart_schedules_the_matching_pair() {
        let plan =
            ShardFaultPlan::kill_and_restart(2, SimTime::from_secs(10), SimDuration::from_secs(30));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.events()[0].kind,
            ShardFaultKind::ShardCrash { shard: 2 }
        );
        assert_eq!(plan.events()[0].at, SimTime::from_secs(10));
        assert_eq!(
            plan.events()[1].kind,
            ShardFaultKind::ShardRestart { shard: 2 }
        );
        assert_eq!(plan.events()[1].at, SimTime::from_secs(40));
    }

    #[test]
    fn faults_against_unknown_endpoints_are_ineffective() {
        let plan = FaultPlan::cluster_outage(
            "nowhere-endpoint",
            SimTime::from_secs(1),
            SimDuration::from_secs(60),
        );
        let mut injector = FaultInjector::new(plan);
        let mut service = ComputeService::new(first_fabric::FabricLatencyModel::default());
        let applied = injector.apply_due(&mut service, SimTime::from_secs(2));
        assert_eq!(applied.len(), 1);
        assert!(!applied[0].effective);
    }
}
