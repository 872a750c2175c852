//! Seeded inputs for the three benchmark workloads.
//!
//! Every request stream is generated here, from the workload seed, with the
//! benchmark's own generator: a change to the program's arrival or length
//! models never changes what the benchmark feeds it. The streams reach the
//! program as `ArrivalProcess::Replay` tenants of a `ScenarioSpec`, so the
//! program receives only generated inputs. Arrival instants are fixed in
//! simulated time, which makes every workload open-loop: a host stall cannot
//! delay an arrival, so there is no generator lateness to report.

use first_chaos::{FaultKind, FaultPlan, ShardFaultKind, ShardFaultPlan};
use first_core::{ConsistentHashRing, FrontTierPolicy, ShardingConfig, SpilloverPolicy};
use first_desim::{SimDuration, SimTime};
use first_workload::scenario::models::{LLAMA_70B, LLAMA_8B};
use first_workload::{
    ArrivalProcess, DeploymentRef, ModelShare, ReplayEntry, ReplayTrack, ScenarioSpec,
    ShareGptProfile, SloTarget, TenantClass, TenantWorkload,
};

/// The workload names, in the order the benchmark runs them.
pub const WORKLOADS: [&str; 3] = ["backlog-flood", "federated-chaos", "sharded-outage"];

/// Simulation horizon: far beyond every workload's drain time, so the
/// horizon never truncates a run (access tokens last 48 simulated hours).
const HORIZON_S: f64 = 40.0 * 3600.0;

/// One generated workload: the spec the program runs and the shard topology
/// it runs on.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The scenario handed to `ScenarioRun`; every tenant is a replay track.
    pub spec: ScenarioSpec,
    /// Shard count, fan-in, spillover and front-tier policy.
    pub sharding: ShardingConfig,
}

impl Workload {
    /// Requests offered across all tenants.
    pub fn requests(&self) -> usize {
        self.spec.total_requests()
    }
}

/// Request count of each workload at full size.
pub fn default_requests(name: &str) -> Option<usize> {
    match name {
        "backlog-flood" => Some(100_000),
        "federated-chaos" => Some(40_000),
        "sharded-outage" => Some(100_000),
        _ => None,
    }
}

/// Generate workload `name` with `requests` requests from `seed`.
pub fn generate(name: &str, seed: u64, requests: usize) -> Option<Workload> {
    let requests = requests.max(8);
    match name {
        "backlog-flood" => Some(backlog_flood(seed, requests)),
        "federated-chaos" => Some(federated_chaos(seed, requests)),
        "sharded-outage" => Some(sharded_outage(seed, requests)),
        _ => None,
    }
}

/// SplitMix64: small, fast and fully specified here, so inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on `(lo, hi]`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    /// Log-normal with the given mean and coefficient of variation.
    pub fn lognormal(&mut self, mean: f64, cv: f64) -> f64 {
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        let normal = (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos();
        (mu + sigma2.sqrt() * normal).exp()
    }
}

/// One request with ShareGPT-like prompt and output lengths.
fn entry(rng: &mut Rng, at_s: f64, model: &str) -> ReplayEntry {
    let prompt = rng.lognormal(220.0, 1.0).clamp(16.0, 2048.0) as u32;
    let output = rng.lognormal(200.0, 0.8).clamp(8.0, 1024.0) as u32;
    ReplayEntry {
        at: SimTime::from_secs_f64(at_s),
        model: model.to_string(),
        prompt_tokens: prompt,
        output_tokens: output,
    }
}

fn tenant(name: &str, track: Vec<ReplayEntry>, p95_target_s: f64) -> TenantClass {
    TenantClass {
        name: name.to_string(),
        requests: track.len(),
        workload: TenantWorkload::Synthetic {
            arrival: ArrivalProcess::Replay(ReplayTrack { entries: track }),
            profile: ShareGptProfile::default(),
        },
        // Replay tracks carry their own per-request model; the mix only
        // documents what the track draws from.
        models: ModelShare::only(LLAMA_70B),
        priority: 100,
        slo: SloTarget {
            p95_latency_s: p95_target_s,
            availability: 0.99,
        },
    }
}

fn spec(
    name: &str,
    description: &str,
    deployment: DeploymentRef,
    tenants: Vec<TenantClass>,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(name, description, deployment, tenants);
    spec.horizon_s = HORIZON_S;
    spec
}

/// Batch regime: every request of one 70B tenant arrives at t=0 on a
/// prewarmed single instance.
fn backlog_flood(seed: u64, requests: usize) -> Workload {
    let mut rng = Rng::new(seed, 1);
    let track = (0..requests)
        .map(|_| entry(&mut rng, 0.0, LLAMA_70B))
        .collect();
    let mut spec = spec(
        "backlog-flood",
        "one 70B tenant floods a prewarmed single instance at t=0",
        DeploymentRef::SophiaSingleInstance,
        vec![tenant(
            "flood",
            track,
            requests as f64 * FLOOD_TARGET_S_PER_REQUEST,
        )],
    );
    spec.prewarm = 1;
    Workload {
        name: "backlog-flood",
        spec,
        sharding: ShardingConfig::single(),
    }
}

/// The flood drains at about 0.14 simulated seconds per request, so this
/// latency target sits near half its makespan.
const FLOOD_TARGET_S_PER_REQUEST: f64 = 0.07;

/// Interactive regime: an MMPP flash crowd over a 70B/8B mix hits a cold
/// federation under a seeded mixed fault plan, with production resilience.
fn federated_chaos(seed: u64, requests: usize) -> Workload {
    const CALM_RATE: f64 = 1.0;
    const SURGE_RATE: f64 = 16.0;
    const MEAN_CALM_S: f64 = 90.0;
    const MEAN_SURGE_S: f64 = 30.0;
    let mut rng = Rng::new(seed, 2);
    // Dwell times are exponential, as in any MMPP, but drawn stratified
    // (one draw per quantile band, shuffled): the run's total calm and surge
    // time then barely depends on the seed, so neither does the offered
    // load, while where and how long each surge lasts still does.
    let per_cycle = CALM_RATE * MEAN_CALM_S + SURGE_RATE * MEAN_SURGE_S;
    let cycles = (requests as f64 / per_cycle).ceil() as usize + 1;
    let calm = stratified_exp(&mut rng, cycles, MEAN_CALM_S);
    let surges = stratified_exp(&mut rng, cycles, MEAN_SURGE_S);
    let mut dwell = calm.into_iter().zip(surges).flat_map(|(c, s)| [c, s]);
    let mut track = Vec::with_capacity(requests);
    let mut t = 0.0;
    let mut surge = false;
    let mut state_end = dwell.next().unwrap_or(MEAN_CALM_S);
    while track.len() < requests {
        let rate = if surge { SURGE_RATE } else { CALM_RATE };
        let gap = rng.exp(rate);
        if t + gap > state_end {
            // Memoryless arrivals: restart the clock at the state switch.
            t = state_end;
            surge = !surge;
            let mean = if surge { MEAN_SURGE_S } else { MEAN_CALM_S };
            state_end = t + dwell.next().unwrap_or_else(|| rng.exp(1.0 / mean));
            continue;
        }
        t += gap;
        let model = if rng.unit() <= 0.6 {
            LLAMA_70B
        } else {
            LLAMA_8B
        };
        track.push(entry(&mut rng, t, model));
    }

    // A mixed fault plan over the whole run, one fault per 800 requests
    // (about one every 3.5 simulated minutes). Faults are spread over the
    // traffic, not over the clock: fault i strikes during the i-th equal
    // share of the requests, so surges draw faults in proportion to their
    // load and every seed's faults hit a comparable number of requests.
    // Kinds come in fixed proportions (flaps and preemptions over crashes)
    // and alternate between the two sites; the seed picks the order, the
    // instants within each share and the durations.
    let mut rng = Rng::new(seed, 3);
    let count = requests.div_ceil(800);
    const MIX: [usize; 11] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4];
    let mut kinds: Vec<usize> = (0..count).map(|i| MIX[i % MIX.len()]).collect();
    shuffle(&mut rng, &mut kinds);
    let endpoints = ["sophia-endpoint", "polaris-endpoint"];
    let share = requests as f64 / count as f64;
    let mut faults = FaultPlan::none();
    for (i, kind) in kinds.into_iter().enumerate() {
        let nth = ((i as f64 + rng.unit()) * share) as usize;
        let at = track[nth.min(requests - 1)].at;
        let endpoint = endpoints[i % endpoints.len()].to_string();
        let mut secs = |lo: f64, hi: f64| SimDuration::from_secs_f64(rng.uniform(lo, hi));
        let kind = match kind {
            0 => FaultKind::EndpointFlap {
                endpoint,
                down_for: secs(10.0, 30.0),
            },
            1 => FaultKind::JobPreemption { endpoint },
            2 => FaultKind::EngineStall {
                endpoint,
                duration: secs(15.0, 45.0),
            },
            3 => FaultKind::NodeCrash {
                endpoint,
                offline_for: secs(120.0, 240.0),
            },
            _ => FaultKind::LatencySpike {
                extra: secs(1.0, 2.0),
                duration: secs(20.0, 40.0),
            },
        };
        faults.push(at, kind);
    }

    let mut spec = spec(
        "federated-chaos",
        "MMPP flash crowd over a 70B/8B mix on a cold federation with mixed faults",
        DeploymentRef::FederatedSophiaPolaris,
        vec![tenant("rush", track, 30.0)],
    );
    spec.prewarm = 0;
    spec.resilience = true;
    spec.faults = faults;
    Workload {
        name: "federated-chaos",
        spec,
        sharding: ShardingConfig::single(),
    }
}

/// `n` exponential draws with the given mean, one from each of `n` equal
/// quantile bands, in shuffled order.
fn stratified_exp(rng: &mut Rng, n: usize, mean: f64) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..n)
        .map(|i| -mean * (1.0 - (i as f64 + rng.unit()) / (n as f64 + 1e-9)).ln())
        .collect();
    shuffle(rng, &mut draws);
    draws
}

/// Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Federation regime: four shards, one tenant homed on each (the names are
/// the catalog's `shard-outage` tenants, which a 4-shard ring spreads one
/// per shard), Poisson load near each shard's capacity, and two loaded
/// shards crashing and restarting mid-run.
fn sharded_outage(seed: u64, requests: usize) -> Workload {
    const RATE: f64 = 12.0;
    const TENANTS: [(&str, &str); 4] = [
        ("batch-embed", LLAMA_8B),
        ("copilot", LLAMA_70B),
        ("argonne-chat", LLAMA_70B),
        ("eval-harness", LLAMA_8B),
    ];
    let per_tenant = requests.div_ceil(TENANTS.len());
    let mut span_s: f64 = 0.0;
    let tenants = TENANTS
        .iter()
        .enumerate()
        .map(|(i, &(name, model))| {
            let mut rng = Rng::new(seed, 10 + i as u64);
            let mut t = 0.0;
            let track = (0..per_tenant)
                .map(|_| {
                    t += rng.exp(RATE);
                    entry(&mut rng, t, model)
                })
                .collect();
            span_s = span_s.max(t);
            tenant(name, track, 60.0)
        })
        .collect();

    // One shard serving a 70B tenant and one serving an 8B tenant crash and
    // restart, so every seed loses comparable work; the seed picks which
    // shard of each kind, when, and for how long.
    let ring = ConsistentHashRing::new(TENANTS.len());
    let mut rng = Rng::new(seed, 4);
    let mut shard_faults = ShardFaultPlan::none();
    for (model, lo, hi) in [(LLAMA_70B, 0.2, 0.4), (LLAMA_8B, 0.6, 0.8)] {
        let homes: Vec<usize> = TENANTS
            .iter()
            .filter(|t| t.1 == model)
            .map(|t| ring.shard_for(t.0))
            .collect();
        let shard = homes[rng.below(homes.len())];
        let at = SimTime::from_secs_f64(rng.uniform(lo * span_s, hi * span_s));
        let down_for = SimDuration::from_secs_f64(rng.uniform(20.0, 60.0));
        shard_faults.push(at, ShardFaultKind::ShardCrash { shard });
        shard_faults.push(at + down_for, ShardFaultKind::ShardRestart { shard });
    }

    let mut spec = spec(
        "sharded-outage",
        "4-shard federation near capacity; two loaded shards crash and restart mid-run",
        DeploymentRef::SingleClusterTest,
        tenants,
    );
    spec.shard_faults = shard_faults;
    let sharding = ShardingConfig::with_shards(4)
        .fanin(SimDuration::from_millis(5))
        .spill(SpilloverPolicy::bounded(64, 0.05))
        .front(FrontTierPolicy {
            request_timeout: Some(SimDuration::from_secs(300)),
            ..FrontTierPolicy::default()
        });
    Workload {
        name: "sharded-outage",
        spec,
        sharding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tenant's replay track, in spec order.
    pub fn tracks(spec: &ScenarioSpec) -> Vec<&[ReplayEntry]> {
        spec.tenants
            .iter()
            .map(|t| match &t.workload {
                TenantWorkload::Synthetic {
                    arrival: ArrivalProcess::Replay(track),
                    ..
                } => track.entries.as_slice(),
                _ => &[],
            })
            .collect()
    }

    #[test]
    fn same_seed_same_tracks_other_seed_other_tracks() {
        for name in WORKLOADS {
            let a = generate(name, 7, 400).unwrap();
            let b = generate(name, 7, 400).unwrap();
            let c = generate(name, 8, 400).unwrap();
            assert_eq!(
                a.spec, b.spec,
                "{name}: same seed must give the same inputs"
            );
            assert_ne!(
                a.spec, c.spec,
                "{name}: another seed must give other inputs"
            );
        }
    }

    #[test]
    fn tracks_are_time_sorted_and_sized() {
        for name in WORKLOADS {
            let w = generate(name, 3, 400).unwrap();
            assert!(w.requests() >= 400, "{name}");
            for track in tracks(&w.spec) {
                assert!(!track.is_empty(), "{name}: every tenant replays a track");
                assert!(
                    track.windows(2).all(|p| p[0].at <= p[1].at),
                    "{name}: track not time-sorted"
                );
            }
        }
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(generate("nope", 1, 10).is_none());
        assert!(default_requests("nope").is_none());
    }
}
