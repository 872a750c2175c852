//! Declarative multi-tenant scenarios ("scenario matrix").
//!
//! A [`ScenarioSpec`] is a serde-serializable description of one full run:
//! named tenant classes (each with its own arrival shape, length profile,
//! model mix, priority and SLO targets), an optional embedded
//! [`FaultPlan`], a deployment reference and a horizon. A spec yields a
//! merged, deterministically-ordered request stream
//! ([`ScenarioSpec::arrivals`]), lazily and borrowed from the spec, or
//! **compiles** it into owned requests ([`ScenarioSpec::compile`]);
//! `first-core`'s `ScenarioRun` builder replays that stream against a live
//! gateway and reports per-tenant SLO attainment.
//! The committed [`catalog`] is the scenario matrix every benchmark sweep,
//! golden test and CI smoke run shares.

use crate::arrival::{ArrivalCursor, ArrivalProcess, ReplayEntry, ReplayTrack};
use crate::sharegpt::{ConversationSample, ShareGptGenerator, ShareGptProfile};
use crate::trace::{generate_trace, DeploymentTraceConfig, TraceEntry, TraceEntryKind};
use first_chaos::{FaultPlan, ShardFaultPlan};
use first_desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Which deployment a scenario runs against. Resolved to a concrete
/// `DeploymentBuilder` by `first-core` (this crate only names it, so specs
/// stay serializable without dragging the whole deployment model along).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeploymentRef {
    /// The compact 8-node single-cluster test deployment.
    SingleClusterTest,
    /// Sophia hosting one instance of each benchmark model (Figure 3 shape).
    SophiaSingleInstance,
    /// The paper's 24-node Sophia proof-of-concept deployment.
    Sophia,
    /// The federated Sophia + Polaris deployment (§4.5).
    FederatedSophiaPolaris,
}

/// Per-tenant-class service-level objectives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloTarget {
    /// Target 95th-percentile end-to-end latency, seconds.
    pub p95_latency_s: f64,
    /// Target availability (completed / offered), `0..=1`.
    pub availability: f64,
}

impl SloTarget {
    /// Interactive-chat default: p95 under a minute, 99% availability.
    pub fn interactive() -> Self {
        SloTarget {
            p95_latency_s: 60.0,
            availability: 0.99,
        }
    }

    /// Batch/throughput default: an hour of queueing is fine, 95% availability.
    pub fn batch() -> Self {
        SloTarget {
            p95_latency_s: 3600.0,
            availability: 0.95,
        }
    }

    /// Whether measured `(p95, availability)` meet this target.
    pub fn met(&self, p95_latency_s: f64, availability: f64) -> bool {
        p95_latency_s <= self.p95_latency_s && availability >= self.availability
    }
}

/// One share of a tenant's model mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelShare {
    /// Full model name as registered in the deployment.
    pub model: String,
    /// Relative weight within the tenant's mix.
    pub weight: f64,
}

impl ModelShare {
    /// A single-model mix entry with weight 1.
    pub fn only(model: &str) -> Vec<ModelShare> {
        vec![ModelShare {
            model: model.to_string(),
            weight: 1.0,
        }]
    }
}

/// How a tenant's arrivals and request lengths are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TenantWorkload {
    /// Synthetic ShareGPT-style lengths under an arrival process.
    Synthetic {
        /// Arrival shape.
        arrival: ArrivalProcess,
        /// Prompt/output length profile.
        profile: ShareGptProfile,
    },
    /// Replay of the scaled production trace (interactive entries only),
    /// with arrival times divided by `time_compression` so a months-long
    /// window fits a benchmark run.
    TraceReplay {
        /// Trace generator configuration.
        config: DeploymentTraceConfig,
        /// Factor arrival times are divided by (≥ 1).
        time_compression: f64,
    },
}

/// One named tenant class in a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantClass {
    /// Tenant name; also the auth user the tenant's requests run as, so the
    /// request log and dashboard partition per tenant for free.
    pub name: String,
    /// Requests this tenant offers over the run.
    pub requests: usize,
    /// Arrival + length source.
    pub workload: TenantWorkload,
    /// Weighted model mix the tenant draws each request's target from.
    pub models: Vec<ModelShare>,
    /// Scheduling priority (higher = submitted first on arrival-time ties).
    pub priority: u8,
    /// SLO targets reported against in the `GatewayReport`.
    pub slo: SloTarget,
}

impl TenantClass {
    /// A synthetic tenant with the default ShareGPT profile.
    pub fn synthetic(name: &str, requests: usize, arrival: ArrivalProcess, model: &str) -> Self {
        TenantClass {
            name: name.to_string(),
            requests,
            workload: TenantWorkload::Synthetic {
                arrival,
                profile: ShareGptProfile::default(),
            },
            models: ModelShare::only(model),
            priority: 100,
            slo: SloTarget::interactive(),
        }
    }

    /// Override the priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Override the SLO targets.
    pub fn with_slo(mut self, slo: SloTarget) -> Self {
        self.slo = slo;
        self
    }

    /// Override the length profile (synthetic workloads only).
    pub fn with_profile(mut self, profile: ShareGptProfile) -> Self {
        if let TenantWorkload::Synthetic {
            profile: ref mut p, ..
        } = self.workload
        {
            *p = profile;
        }
        self
    }

    /// Override the model mix.
    pub fn with_models(mut self, models: Vec<ModelShare>) -> Self {
        self.models = models;
        self
    }
}

/// Declarative description of one full multi-tenant run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique scenario name (artifact keys, golden files, gate metrics).
    pub name: String,
    /// One-line description shown in tables.
    pub(crate) description: String,
    /// Deployment the scenario runs against.
    pub deployment: DeploymentRef,
    /// Instances of every hosted chat model pre-warmed at time zero.
    pub prewarm: u32,
    /// Whether the gateway runs the production resilience profile.
    pub resilience: bool,
    /// Simulation horizon in seconds; arrivals past it are dropped from the
    /// stream and the run stops there even if undrained.
    pub horizon_s: f64,
    /// Open-loop tenant classes.
    pub tenants: Vec<TenantClass>,
    /// Embedded fault schedule ([`FaultPlan::none`] for fault-free runs).
    pub faults: FaultPlan,
    /// Shard-scoped fault schedule applied at the federation tier
    /// (whole-shard crashes and restarts).
    /// Defaults to empty so specs recorded before shard faults existed still
    /// deserialize.
    #[serde(default)]
    pub shard_faults: ShardFaultPlan,
}

impl ScenarioSpec {
    /// A fault-free, open-loop spec with the given tenants.
    pub fn new(
        name: &str,
        description: &str,
        deployment: DeploymentRef,
        tenants: Vec<TenantClass>,
    ) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            description: description.to_string(),
            deployment,
            prewarm: 1,
            resilience: false,
            horizon_s: 24.0 * 3600.0,
            tenants,
            faults: FaultPlan::none(),
            shard_faults: ShardFaultPlan::none(),
        }
    }

    /// A fault-free spec with one tenant, `"client"`, that replays `samples`
    /// against `model`: request `i` arrives at `arrivals[i]` with sample
    /// `i`'s prompt and output lengths, in that order. This is the §5
    /// open-loop replay as a spec. The samples are consumed, so the replay
    /// track is the only copy of the input.
    ///
    /// # Panics
    /// If `samples` and `arrivals` differ in length.
    pub fn one_tenant_replay(
        name: &str,
        deployment: DeploymentRef,
        model: &str,
        samples: Vec<ConversationSample>,
        arrivals: &[SimTime],
    ) -> Self {
        assert_eq!(samples.len(), arrivals.len(), "one arrival per sample");
        let entries: Vec<ReplayEntry> = samples
            .into_iter()
            .zip(arrivals)
            .map(|(s, &at)| ReplayEntry {
                at,
                model: model.to_string(),
                prompt_tokens: s.prompt_tokens,
                output_tokens: s.output_tokens,
            })
            .collect();
        let client = TenantClass::synthetic(
            "client",
            entries.len(),
            ArrivalProcess::Replay(ReplayTrack { entries }),
            model,
        );
        ScenarioSpec::new(name, "one-tenant replay", deployment, vec![client])
    }

    /// Total requests offered across all tenants.
    pub fn total_requests(&self) -> usize {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// The simulation horizon as an instant.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs_f64(self.horizon_s)
    }

    /// The merged, deterministically-ordered request stream at `seed`,
    /// yielded lazily and borrowed from the spec: one cursor per tenant,
    /// merged by `(at, priority desc, tenant, seq)`, with every arrival
    /// past the horizon dropped. Each tenant's randomness derives from
    /// `seed` plus a stable hash of the tenant name, so adding a tenant
    /// never perturbs the streams of the others.
    pub fn arrivals(&self, seed: u64) -> ScenarioArrivals<'_> {
        let horizon = self.horizon();
        let mut cursors: Vec<_> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(idx, tenant)| TenantCursor::new(tenant, idx as u32, seed, horizon))
            .collect();
        // One tenant's cursor is the whole stream; only several need a
        // merge.
        let heads: Vec<_> = if cursors.len() > 1 {
            cursors.iter_mut().map(TenantCursor::next).collect()
        } else {
            Vec::new()
        };
        let keys = heads.iter().map(merge_key).collect();
        ScenarioArrivals {
            cursors,
            heads,
            keys,
        }
    }

    /// Compile the spec into the merged request stream: [`Self::arrivals`]
    /// collected into owned requests.
    pub fn compile(&self, seed: u64) -> CompiledScenario {
        let mut requests = Vec::with_capacity(self.total_requests());
        requests.extend(self.arrivals(seed).map(ScenarioRequest::from));
        CompiledScenario {
            requests,
            horizon: self.horizon(),
        }
    }
}

/// One request of a scenario's merged stream, borrowed from its spec: the
/// model name points into the spec's replay track or model mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioArrival<'s> {
    /// Arrival time at the gateway.
    pub at: SimTime,
    /// Index into the spec's tenant list.
    pub tenant: u32,
    /// The owning tenant's priority (merge tie-break, higher first).
    pub priority: u8,
    /// The request's sequence number within its tenant.
    pub seq: u32,
    /// Target model (full registry name).
    pub model: &'s str,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Expected output length in tokens.
    pub output_tokens: u32,
}

/// Where a tenant's next arrival `head` sorts in the merged stream: by
/// time, then priority (higher first), then tenant index, packed into one
/// integer; a spent tenant sorts last. The heads being merged all belong to
/// different tenants, and each tenant yields its own arrivals in sequence
/// order, so the merge never needs the sequence number.
fn merge_key(head: &Option<ScenarioArrival<'_>>) -> u128 {
    head.map_or(u128::MAX, |a| {
        (a.at.as_micros() as u128) << 64 | ((u8::MAX - a.priority) as u128) << 32 | a.tenant as u128
    })
}

impl From<ScenarioArrival<'_>> for ScenarioRequest {
    fn from(a: ScenarioArrival<'_>) -> Self {
        ScenarioRequest {
            at: a.at,
            tenant: a.tenant,
            priority: a.priority,
            seq: a.seq,
            model: a.model.to_string(),
            prompt_tokens: a.prompt_tokens,
            output_tokens: a.output_tokens,
        }
    }
}

/// The lazily merged request stream of [`ScenarioSpec::arrivals`].
#[derive(Debug, Clone)]
pub struct ScenarioArrivals<'s> {
    /// One cursor per tenant, indexed by tenant.
    cursors: Vec<TenantCursor<'s>>,
    /// With several tenants, each tenant's next arrival (`None` once its
    /// cursor is spent); empty with one tenant.
    heads: Vec<Option<ScenarioArrival<'s>>>,
    /// [`merge_key`] of each head.
    keys: Vec<u128>,
}

impl<'s> Iterator for ScenarioArrivals<'s> {
    type Item = ScenarioArrival<'s>;

    #[inline]
    fn next(&mut self) -> Option<ScenarioArrival<'s>> {
        if self.heads.is_empty() {
            return self.cursors.first_mut()?.next();
        }
        // A scan for the earliest head: specs carry a handful of tenants,
        // where a scan is cheaper than a heap.
        let mut first = 0;
        for t in 1..self.keys.len() {
            if self.keys[t] < self.keys[first] {
                first = t;
            }
        }
        if self.keys[first] == u128::MAX {
            return None;
        }
        let next = self.cursors[first].next();
        self.keys[first] = merge_key(&next);
        std::mem::replace(&mut self.heads[first], next)
    }
}

/// One tenant's arrivals, in `(at, seq)` order.
#[derive(Debug, Clone)]
struct TenantCursor<'s> {
    tenant: u32,
    priority: u8,
    horizon: SimTime,
    /// Requests the tenant offers at most.
    limit: usize,
    models: &'s [ModelShare],
    /// Sequence number of the next arrival of a source read in order.
    seq: u32,
    source: Source<'s>,
}

/// Where a tenant's arrivals come from.
#[derive(Debug, Clone)]
enum Source<'s> {
    /// A time-sorted replay track, cut at the horizon and read in place.
    Sorted(&'s [ReplayEntry]),
    /// A replay track that is not time-sorted: the positions of its
    /// in-horizon entries, in stable time order.
    Unsorted(&'s [ReplayEntry], std::vec::IntoIter<u32>),
    /// Arrival times, lengths and model mix drawn per request.
    Synthetic(Box<Synthetic<'s>>),
    /// The generated trace (sorted by time); only interactive entries are
    /// replayed, with arrival times divided by the compression.
    Trace {
        entries: std::vec::IntoIter<TraceEntry>,
        compression: f64,
    },
}

/// A synthetic tenant's generators, each with its own RNG stream.
#[derive(Debug, Clone)]
struct Synthetic<'s> {
    arrival: &'s ArrivalProcess,
    cursor: ArrivalCursor,
    arrival_rng: SimRng,
    lengths: ShareGptGenerator,
    mix_rng: SimRng,
    weights: Vec<f64>,
}

impl<'s> TenantCursor<'s> {
    fn new(tenant: &'s TenantClass, idx: u32, seed: u64, horizon: SimTime) -> Self {
        let tenant_seed = seed ^ stable_name_hash(&tenant.name);
        let source = match &tenant.workload {
            // Cassette playback: the track *is* the stream. Arrival times,
            // models and token lengths come straight from the recording; no
            // RNG is consulted, so a replayed spec compiles identically
            // under any seed. A track that is not time-sorted (hand-built)
            // is walked in time order, with the horizon as a filter.
            TenantWorkload::Synthetic {
                arrival: ArrivalProcess::Replay(track),
                ..
            } => {
                let entries = &track.entries[..tenant.requests.min(track.entries.len())];
                let mut last = SimTime::ZERO;
                let sorted = entries.iter().all(|e| {
                    let in_order = last <= e.at;
                    last = e.at;
                    in_order
                });
                if sorted {
                    Source::Sorted(&entries[..entries.partition_point(|e| e.at <= horizon)])
                } else {
                    let mut order: Vec<u32> = (0..entries.len() as u32)
                        .filter(|&i| entries[i as usize].at <= horizon)
                        .collect();
                    order.sort_by_key(|&i| entries[i as usize].at);
                    Source::Unsorted(entries, order.into_iter())
                }
            }
            TenantWorkload::Synthetic { arrival, profile } => {
                let mut rng = SimRng::seed_from_u64(tenant_seed);
                let arrival_rng = rng.derive(1);
                let mix_rng = rng.derive(2);
                Source::Synthetic(Box::new(Synthetic {
                    arrival,
                    cursor: ArrivalCursor::new(tenant.requests, SimTime::ZERO),
                    arrival_rng,
                    lengths: ShareGptGenerator::with_profile(
                        profile.clone(),
                        tenant_seed ^ 0x1E46_7D5A,
                    ),
                    mix_rng,
                    weights: tenant.models.iter().map(|m| m.weight).collect(),
                }))
            }
            TenantWorkload::TraceReplay {
                config,
                time_compression,
            } => Source::Trace {
                entries: generate_trace(config, tenant_seed).entries.into_iter(),
                compression: time_compression.max(1.0),
            },
        };
        TenantCursor {
            tenant: idx,
            priority: tenant.priority,
            horizon,
            limit: tenant.requests,
            models: &tenant.models,
            seq: 0,
            source,
        }
    }
}

impl<'s> Iterator for TenantCursor<'s> {
    type Item = ScenarioArrival<'s>;

    #[inline]
    fn next(&mut self) -> Option<ScenarioArrival<'s>> {
        let mut seq = self.seq;
        let (at, model, prompt_tokens, output_tokens) = match &mut self.source {
            // Replay tracks are read in place, in the loop that consumes
            // the stream; generated sources draw out of line.
            Source::Sorted(entries) => {
                let e = entries.get(seq as usize)?;
                (e.at, e.model.as_str(), e.prompt_tokens, e.output_tokens)
            }
            Source::Unsorted(entries, order) => {
                seq = order.next()?;
                let e = &entries[seq as usize];
                (e.at, e.model.as_str(), e.prompt_tokens, e.output_tokens)
            }
            source => source.draw(seq, self.horizon, self.limit, self.models)?,
        };
        self.seq = seq + 1;
        Some(ScenarioArrival {
            at,
            tenant: self.tenant,
            priority: self.priority,
            seq,
            model,
            prompt_tokens,
            output_tokens,
        })
    }
}

impl<'s> Source<'s> {
    /// The next arrival of a generated source (synthetic or trace): its
    /// time, model and token lengths, or `None` once the tenant's `limit`
    /// is reached or the next arrival falls past `horizon`.
    #[inline(never)]
    fn draw(
        &mut self,
        seq: u32,
        horizon: SimTime,
        limit: usize,
        models: &'s [ModelShare],
    ) -> Option<(SimTime, &'s str, u32, u32)> {
        match self {
            Source::Synthetic(synthetic) => {
                let Synthetic {
                    arrival,
                    cursor,
                    arrival_rng,
                    lengths,
                    mix_rng,
                    weights,
                } = &mut **synthetic;
                let at = cursor
                    .next(arrival, arrival_rng)
                    .filter(|&at| at <= horizon)?;
                let sample = lengths.sample();
                let model = &models[mix_rng.weighted_index(weights)].model;
                Some((at, model, sample.prompt_tokens, sample.output_tokens))
            }
            Source::Trace {
                entries,
                compression,
            } => {
                if seq as usize >= limit {
                    return None;
                }
                let e = entries.find(|e| e.kind == TraceEntryKind::Interactive)?;
                let at = SimTime::from_secs_f64(e.at.as_secs_f64() / *compression);
                if at > horizon {
                    return None;
                }
                // The trace's model index maps onto the tenant's mix by
                // position, preserving the trace's popularity skew.
                let model = &models[e.model_index % models.len().max(1)].model;
                Some((at, model, e.prompt_tokens, e.output_tokens))
            }
            Source::Sorted(_) | Source::Unsorted(..) => None,
        }
    }
}

/// One request in the compiled, merged stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRequest {
    /// Arrival time at the gateway.
    pub at: SimTime,
    /// Index into the spec's tenant list.
    pub tenant: u32,
    /// The owning tenant's priority (merge tie-break, higher first).
    pub priority: u8,
    /// The request's sequence number within its tenant.
    pub seq: u32,
    /// Target model (full registry name).
    pub model: String,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Expected output length in tokens.
    pub output_tokens: u32,
}

/// The compiled request stream of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// Merged stream, sorted by `(at, priority desc, tenant, seq)`.
    pub requests: Vec<ScenarioRequest>,
    /// Horizon the stream was truncated to.
    pub horizon: SimTime,
}

/// Stable hash of a tenant name (the workspace-shared FNV-1a, independent
/// of the std hasher, so compiled streams never change across Rust
/// releases).
fn stable_name_hash(name: &str) -> u64 {
    first_desim::fnv1a_64(name.as_bytes())
}

/// Canonical model names used by the catalog (must match the serving
/// catalog's full names).
pub mod models {
    /// Llama 3.3 70B (the headline benchmark model).
    pub const LLAMA_70B: &str = "meta-llama/Llama-3.3-70B-Instruct";
    /// Llama 3.1 8B.
    pub const LLAMA_8B: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";
    /// Gemma 2 27B.
    pub(crate) const GEMMA_27B: &str = "google/gemma-2-27b-it";
    /// Qwen 2.5 32B.
    pub(crate) const QWEN_32B: &str = "Qwen/Qwen2.5-32B-Instruct";
}

/// The committed scenario catalog: the matrix `scenario_matrix` sweeps, the
/// golden tests pin and CI smokes. `n` is the total request budget of the
/// *largest* scenario; the others scale proportionally (with small floors so
/// tiny smoke budgets still exercise every code path).
pub fn catalog(n: usize) -> Vec<ScenarioSpec> {
    use models::*;
    let n = n.max(16);
    let part = |num: usize, den: usize| (n * num / den).max(4);

    let steady = ScenarioSpec::new(
        "steady",
        "single tenant, Poisson 5 req/s against one hot 70B instance",
        DeploymentRef::SophiaSingleInstance,
        vec![TenantClass::synthetic(
            "interactive",
            n,
            ArrivalProcess::Poisson(5.0),
            LLAMA_70B,
        )],
    );

    let burst = ScenarioSpec::new(
        "burst",
        "on/off bursts: 25 req/s for 15 s out of every 120 s over a 2 req/s floor",
        DeploymentRef::SophiaSingleInstance,
        vec![TenantClass::synthetic(
            "bursty-chat",
            n,
            ArrivalProcess::Bursty {
                base_rate: 2.0,
                burst_rate: 25.0,
                period_s: 120.0,
                burst_s: 15.0,
            },
            LLAMA_70B,
        )
        .with_slo(SloTarget {
            p95_latency_s: 120.0,
            availability: 0.99,
        })],
    );

    let diurnal = ScenarioSpec::new(
        "diurnal",
        "sinusoidal day/night load over a 70B/8B model mix on Sophia",
        DeploymentRef::Sophia,
        vec![TenantClass::synthetic(
            "diurnal-chat",
            n,
            ArrivalProcess::Diurnal {
                mean_rate: 6.0,
                amplitude: 0.7,
                period_s: 600.0,
            },
            LLAMA_70B,
        )
        .with_models(vec![
            ModelShare {
                model: LLAMA_70B.to_string(),
                weight: 0.6,
            },
            ModelShare {
                model: LLAMA_8B.to_string(),
                weight: 0.4,
            },
        ])],
    );

    let long_outputs = ShareGptProfile {
        output_mean: 600.0,
        output_cv: 0.5,
        ..ShareGptProfile::default()
    };
    let contention = ScenarioSpec::new(
        "multi-tenant-contention",
        "interactive chat, a batch flood and an analytics tenant share Sophia",
        DeploymentRef::Sophia,
        vec![
            TenantClass::synthetic("chat", part(1, 2), ArrivalProcess::Poisson(4.0), LLAMA_70B)
                .with_priority(200),
            TenantClass::synthetic(
                "batch-synth",
                part(1, 4),
                ArrivalProcess::Infinite,
                LLAMA_8B,
            )
            .with_priority(10)
            .with_profile(long_outputs)
            .with_slo(SloTarget::batch()),
            TenantClass::synthetic(
                "analytics",
                part(1, 4),
                ArrivalProcess::Poisson(2.0),
                QWEN_32B,
            )
            .with_priority(100)
            .with_slo(SloTarget {
                p95_latency_s: 180.0,
                availability: 0.99,
            }),
        ],
    );

    // Scale the production trace so its interactive stream matches this
    // scenario's budget, and compress ten months into ~10 simulated minutes.
    let trace_config = DeploymentTraceConfig {
        scale_down: (4_100_000 / part(1, 1) as u64).max(1),
        ..DeploymentTraceConfig::default()
    };
    let window_s = trace_config.window.as_secs_f64();
    let trace_replay = ScenarioSpec::new(
        "trace-replay",
        "scaled ten-month production trace (interactive slice) on Sophia",
        DeploymentRef::Sophia,
        vec![TenantClass {
            name: "production-trace".to_string(),
            requests: part(1, 1),
            workload: TenantWorkload::TraceReplay {
                config: trace_config,
                time_compression: window_s / 600.0,
            },
            models: vec![
                ModelShare {
                    model: LLAMA_70B.to_string(),
                    weight: 1.0,
                },
                ModelShare {
                    model: LLAMA_8B.to_string(),
                    weight: 1.0,
                },
                ModelShare {
                    model: GEMMA_27B.to_string(),
                    weight: 1.0,
                },
                ModelShare {
                    model: QWEN_32B.to_string(),
                    weight: 1.0,
                },
            ],
            priority: 100,
            slo: SloTarget {
                p95_latency_s: 300.0,
                availability: 0.99,
            },
        }],
    );

    let mut chaos = ScenarioSpec::new(
        "chaos-under-load",
        "federated deployment with a seeded mixed-fault schedule and the production resilience profile",
        DeploymentRef::FederatedSophiaPolaris,
        vec![TenantClass::synthetic(
            "chat",
            n,
            ArrivalProcess::Poisson(5.0),
            LLAMA_70B,
        )
        .with_slo(SloTarget {
            p95_latency_s: 180.0,
            availability: 0.97,
        })],
    );
    chaos.resilience = true;
    chaos.faults = FaultPlan::seeded(
        0xC4A0_5C4A,
        SimTime::from_secs(10),
        SimTime::from_secs(300),
        &[
            "sophia-endpoint".to_string(),
            "polaris-endpoint".to_string(),
        ],
        10,
    );

    let inversion = ScenarioSpec::new(
        "priority-inversion",
        "a low-priority infinite flood queues ahead of a high-priority trickle on one instance",
        DeploymentRef::SophiaSingleInstance,
        vec![
            TenantClass::synthetic(
                "background-flood",
                part(3, 4),
                ArrivalProcess::Infinite,
                LLAMA_70B,
            )
            .with_priority(10)
            .with_slo(SloTarget::batch()),
            TenantClass::synthetic(
                "interactive",
                part(1, 4),
                ArrivalProcess::Poisson(1.0),
                LLAMA_70B,
            )
            .with_priority(200),
        ],
    );

    let mut cold_start = ScenarioSpec::new(
        "cold-start",
        "MMPP flash crowd hitting a deployment with nothing pre-warmed",
        DeploymentRef::Sophia,
        vec![TenantClass::synthetic(
            "morning-rush",
            n,
            ArrivalProcess::Mmpp {
                calm_rate: 0.5,
                surge_rate: 8.0,
                mean_calm_s: 120.0,
                mean_surge_s: 40.0,
            },
            LLAMA_8B,
        )
        .with_slo(SloTarget {
            p95_latency_s: 900.0,
            availability: 0.99,
        })],
    );
    cold_start.prewarm = 0;

    // Tenant names are chosen so that on a 4-shard ring each shard hosts
    // exactly one tenant ("copilot" homes on shard 1, the one the plan
    // kills): the outage must re-home copilot's keys and nobody else's.
    let mut shard_outage = ScenarioSpec::new(
        "shard-outage",
        "4-shard federation; shard 1 crashes at t=8s mid-load and restarts 32s later — the front tier retries every lost request onto surviving peers",
        DeploymentRef::SingleClusterTest,
        vec![
            TenantClass::synthetic(
                "batch-embed",
                part(1, 4),
                ArrivalProcess::Poisson(2.0),
                LLAMA_8B,
            ),
            TenantClass::synthetic(
                "copilot",
                part(1, 4),
                ArrivalProcess::Poisson(2.0),
                LLAMA_70B,
            ),
            TenantClass::synthetic(
                "argonne-chat",
                part(1, 4),
                ArrivalProcess::Poisson(2.0),
                LLAMA_70B,
            ),
            TenantClass::synthetic(
                "eval-harness",
                part(1, 4),
                ArrivalProcess::Poisson(2.0),
                LLAMA_8B,
            ),
        ],
    );
    shard_outage.shard_faults =
        ShardFaultPlan::kill_and_restart(1, SimTime::from_secs(8), SimDuration::from_secs(32));

    vec![
        steady,
        burst,
        diurnal,
        contention,
        trace_replay,
        chaos,
        inversion,
        cold_start,
        shard_outage,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_cover_the_matrix() {
        let specs = catalog(1000);
        assert!(specs.len() >= 8, "catalog has {} scenarios", specs.len());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario names");
        assert!(
            specs.iter().any(|s| !s.faults.is_empty()),
            "a chaos scenario"
        );
        assert!(
            specs.iter().any(|s| s
                .tenants
                .iter()
                .any(|t| matches!(t.workload, TenantWorkload::TraceReplay { .. }))),
            "a trace-replay scenario"
        );
        assert!(
            specs.iter().any(|s| s.tenants.len() >= 3),
            "a multi-tenant scenario"
        );
        assert!(
            specs.iter().any(|s| s.prewarm == 0),
            "a cold-start scenario"
        );
    }

    #[test]
    fn compiled_streams_are_sorted_and_deterministic() {
        for spec in catalog(200) {
            let a = spec.compile(42);
            let b = spec.compile(42);
            assert_eq!(a, b, "{} not deterministic", spec.name);
            assert!(
                a.requests.windows(2).all(|w| w[0].at <= w[1].at),
                "{} not time-sorted",
                spec.name
            );
            assert!(
                a.requests.iter().all(|r| r.at <= a.horizon),
                "{} exceeds horizon",
                spec.name
            );
            let c = spec.compile(43);
            if !a.requests.is_empty() {
                assert_ne!(a, c, "{} ignores the seed", spec.name);
            }
        }
    }

    #[test]
    fn ties_order_by_priority_then_tenant() {
        let spec = ScenarioSpec::new(
            "tie",
            "two infinite tenants",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic("low", 5, ArrivalProcess::Infinite, models::LLAMA_8B)
                    .with_priority(10),
                TenantClass::synthetic("high", 5, ArrivalProcess::Infinite, models::LLAMA_8B)
                    .with_priority(200),
            ],
        );
        let compiled = spec.compile(1);
        assert_eq!(compiled.requests.len(), 10);
        // All arrivals at t=0: the high-priority tenant's requests come first.
        assert!(compiled.requests[..5].iter().all(|r| r.priority == 200));
        assert!(compiled.requests[5..].iter().all(|r| r.priority == 10));
    }

    #[test]
    fn unsorted_replay_tracks_keep_every_in_horizon_entry() {
        let entry = |at_s: u64, output_tokens: u32| ReplayEntry {
            at: SimTime::from_secs(at_s),
            model: models::LLAMA_8B.to_string(),
            prompt_tokens: 10,
            output_tokens,
        };
        // Out of time order, with an entry past the 100 s horizon in the
        // middle: the entries after it are still inside the horizon.
        let track = vec![entry(30, 0), entry(10, 1), entry(500, 2), entry(20, 3)];
        let mut spec = ScenarioSpec::new(
            "unsorted",
            "hand-built replay track out of time order",
            DeploymentRef::SingleClusterTest,
            vec![TenantClass::synthetic(
                "replay",
                track.len(),
                ArrivalProcess::Replay(ReplayTrack { entries: track }),
                models::LLAMA_8B,
            )],
        );
        spec.horizon_s = 100.0;
        let stream: Vec<(u64, u32, u32)> = spec
            .arrivals(1)
            .map(|a| (a.at.as_secs_f64() as u64, a.seq, a.output_tokens))
            .collect();
        // Time order; each entry keeps its track position as `seq`.
        assert_eq!(stream, vec![(10, 1, 1), (20, 3, 3), (30, 0, 0)]);
        assert_eq!(spec.compile(1).requests.len(), 3);
    }

    #[test]
    fn adding_a_tenant_does_not_perturb_existing_streams() {
        let base = ScenarioSpec::new(
            "base",
            "",
            DeploymentRef::Sophia,
            vec![TenantClass::synthetic(
                "alpha",
                50,
                ArrivalProcess::Poisson(3.0),
                models::LLAMA_70B,
            )],
        );
        let mut extended = base.clone();
        extended.tenants.push(TenantClass::synthetic(
            "beta",
            50,
            ArrivalProcess::Poisson(1.0),
            models::LLAMA_8B,
        ));
        let a = base.compile(7);
        let b = extended.compile(7);
        let alpha_only: Vec<_> = b
            .requests
            .iter()
            .filter(|r| r.tenant == 0)
            .cloned()
            .collect();
        assert_eq!(a.requests, alpha_only);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in catalog(100) {
            let json = serde_json::to_string(&spec).expect("serializes");
            let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(spec, back, "{} round trip", spec.name);
        }
    }

    #[test]
    fn slo_target_met_logic() {
        let slo = SloTarget::interactive();
        assert!(slo.met(30.0, 1.0));
        assert!(!slo.met(90.0, 1.0));
        assert!(!slo.met(30.0, 0.5));
    }
}
