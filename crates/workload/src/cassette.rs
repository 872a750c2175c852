//! Cassette record/replay: a recorded scenario run as a self-contained,
//! pinnable fixture.
//!
//! A [`Cassette`] captures everything one scenario run offered to the
//! gateway — the merged request stream (per-request arrival time, tenant,
//! priority, model, token lengths), the per-request outcomes the gateway
//! produced, the embedded fault timeline and the scenario metadata — in one
//! serde-serializable value. Recording happens in `first-core`
//! (`ScenarioRun::recorded`); this module owns the format and the **compile**
//! step ([`Cassette::to_spec`]) that strips outcomes back into a
//! self-contained [`ScenarioSpec`] whose tenants replay their recorded tracks
//! through [`ArrivalProcess::Replay`]. Compiling that spec reproduces the
//! original merged stream exactly, so replaying a cassette against the
//! recorded deployment reproduces the original `GatewayReport`
//! byte-identically — the guarantee the golden cassette tests pin.
//!
//! The same compiled spec can instead be pointed at a *different* deployment,
//! prewarm level or fault plan ("what if this exact Tuesday hit half the
//! clusters?"), which is what the `cassette_ab` benchmark sweeps.

use crate::arrival::{ArrivalProcess, ReplayEntry, ReplayTrack};
use crate::scenario::{
    CompiledScenario, ModelShare, ScenarioSpec, SloTarget, TenantClass, TenantWorkload,
};
use crate::sharegpt::ShareGptProfile;
use first_chaos::FaultPlan;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format version stamped into every cassette. Bump when a field changes
/// meaning or is removed; adding fields is backward compatible.
pub(crate) const CASSETTE_FORMAT_VERSION: u32 = 1;

/// Typed failure modes of the cassette subsystem. An empty cassette is *not*
/// an error — it replays to a clean, empty report — but a cassette that
/// cannot be parsed, fails internal consistency checks, or replays to a
/// different offered count than it recorded is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CassetteError {
    /// The cassette file could not be read or written.
    Io(String),
    /// The cassette text is not valid JSON for this format (e.g. a file
    /// truncated mid-write).
    Parse(String),
    /// The cassette was recorded by a newer format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The cassette parsed but fails internal consistency checks (tenant
    /// index out of range, non-dense sequence numbers, arrivals past the
    /// horizon, outcome on a rejected request, ...).
    Corrupt(String),
    /// The run cannot be recorded as a cassette (a sharded front tier, a
    /// shard-scoped fault plan or a replaced deployment).
    Unrecordable(String),
    /// A replay produced a run that disagrees with the cassette (offered
    /// count, scenario name or seed mismatch).
    ReplayMismatch(String),
    /// The spec's shard fault plan names a shard the run's front tier does
    /// not have (say, a plan that crashes shard 1 on one shard).
    MissingShard {
        /// Scenario name.
        scenario: String,
        /// The highest shard index the plan names.
        shard: usize,
        /// Shards the run has.
        shards: usize,
    },
}

impl std::fmt::Display for CassetteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CassetteError::Io(e) => write!(f, "cassette io error: {e}"),
            CassetteError::Parse(e) => write!(f, "cassette parse error: {e}"),
            CassetteError::UnsupportedVersion { found, supported } => write!(
                f,
                "cassette format v{found} is newer than this build understands (v{supported})"
            ),
            CassetteError::Corrupt(e) => write!(f, "corrupt cassette: {e}"),
            CassetteError::Unrecordable(e) => write!(f, "unrecordable scenario: {e}"),
            CassetteError::ReplayMismatch(e) => write!(f, "replay mismatch: {e}"),
            CassetteError::MissingShard {
                scenario,
                shard,
                shards,
            } => write!(
                f,
                "scenario '{scenario}' faults shard {shard}, but the run has {shards} shard(s)"
            ),
        }
    }
}

impl std::error::Error for CassetteError {}

/// What the gateway did with one recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct RequestOutcome {
    /// Whether the gateway accepted the request at the API boundary.
    pub accepted: bool,
    /// Whether a response (success or failure) was delivered before the run
    /// ended. `false` for rejected requests and for work cut off in flight
    /// by the horizon.
    pub delivered: bool,
    /// Whether the delivered response was a success.
    pub success: bool,
    /// End-to-end latency of the delivered response, seconds (0 otherwise).
    pub latency_s: f64,
    /// Output tokens delivered (0 otherwise).
    pub completion_tokens: u32,
}

/// One tenant class as recorded: the identity, priority and SLO targets the
/// replayed spec reconstructs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CassetteTenant {
    /// Tenant-class name (also the auth user the replay enrolls).
    pub name: String,
    /// Scheduling priority (merge tie-break, higher first).
    pub(crate) priority: u8,
    /// SLO targets reported against.
    pub(crate) slo: SloTarget,
}

/// One request of the recorded merged stream, plus its observed outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CassetteEntry {
    /// The request exactly as it was offered (arrival time, tenant index,
    /// priority, per-tenant sequence number, model, token lengths).
    pub request: crate::scenario::ScenarioRequest,
    /// What the gateway did with it.
    pub outcome: RequestOutcome,
}

/// A recorded scenario run: request stream, outcomes, fault timeline and the
/// metadata needed to replay it byte-deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cassette {
    /// Format version ([`CASSETTE_FORMAT_VERSION`] at record time).
    pub(crate) format_version: u32,
    /// Scenario name the recording ran (kept by the replayed spec so the
    /// replayed report matches byte-for-byte).
    pub scenario: String,
    /// One-line description (from the spec).
    pub(crate) description: String,
    /// Deployment the recording ran against.
    pub(crate) deployment: crate::scenario::DeploymentRef,
    /// Prewarm level of the recording.
    pub(crate) prewarm: u32,
    /// Whether the recording ran the production resilience profile.
    pub(crate) resilience: bool,
    /// Simulation horizon of the recording, seconds.
    pub horizon_s: f64,
    /// Seed the recording used (replays must reuse it to reproduce the
    /// report byte-identically).
    pub seed: u64,
    /// Tenant classes in spec order (entry tenant indices point here).
    pub tenants: Vec<CassetteTenant>,
    /// The merged request stream with outcomes, in compiled merge order.
    pub entries: Vec<CassetteEntry>,
    /// The fault timeline the recording applied.
    pub faults: FaultPlan,
}

impl Cassette {
    /// Build a cassette from a finished run: the spec it ran, the compiled
    /// stream it offered, and the per-request outcomes observed (aligned
    /// with `compiled.requests` by index).
    pub fn from_run(
        spec: &ScenarioSpec,
        seed: u64,
        compiled: &CompiledScenario,
        outcomes: Vec<RequestOutcome>,
    ) -> Result<Cassette, CassetteError> {
        if outcomes.len() != compiled.requests.len() {
            return Err(CassetteError::Corrupt(format!(
                "{} outcomes for {} requests",
                outcomes.len(),
                compiled.requests.len()
            )));
        }
        Ok(Cassette {
            format_version: CASSETTE_FORMAT_VERSION,
            scenario: spec.name.clone(),
            description: spec.description.clone(),
            deployment: spec.deployment,
            prewarm: spec.prewarm,
            resilience: spec.resilience,
            horizon_s: spec.horizon_s,
            seed,
            tenants: spec
                .tenants
                .iter()
                .map(|t| CassetteTenant {
                    name: t.name.clone(),
                    priority: t.priority,
                    slo: t.slo,
                })
                .collect(),
            entries: compiled
                .requests
                .iter()
                .zip(outcomes)
                .map(|(request, outcome)| CassetteEntry {
                    request: request.clone(),
                    outcome,
                })
                .collect(),
            faults: spec.faults.clone(),
        })
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cassette recorded no requests. An empty cassette is valid
    /// and replays to a clean, empty report.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Internal consistency checks: format version in range, every entry's
    /// tenant index valid and priority matching its tenant, per-tenant
    /// sequence numbers dense from zero, merge order intact, arrivals inside
    /// the horizon, and no delivered outcome on a rejected request.
    pub fn validate(&self) -> Result<(), CassetteError> {
        if self.format_version > CASSETTE_FORMAT_VERSION {
            return Err(CassetteError::UnsupportedVersion {
                found: self.format_version,
                supported: CASSETTE_FORMAT_VERSION,
            });
        }
        let horizon = first_desim::SimTime::from_secs_f64(self.horizon_s);
        let mut next_seq = vec![0u32; self.tenants.len()];
        for (i, e) in self.entries.iter().enumerate() {
            let r = &e.request;
            let Some(tenant) = self.tenants.get(r.tenant as usize) else {
                return Err(CassetteError::Corrupt(format!(
                    "entry {i} references tenant {} of {}",
                    r.tenant,
                    self.tenants.len()
                )));
            };
            if r.priority != tenant.priority {
                return Err(CassetteError::Corrupt(format!(
                    "entry {i} carries priority {} but tenant '{}' has {}",
                    r.priority, tenant.name, tenant.priority
                )));
            }
            if r.seq != next_seq[r.tenant as usize] {
                return Err(CassetteError::Corrupt(format!(
                    "tenant '{}' sequence jumps to {} (expected {}): cassette truncated mid-stream?",
                    tenant.name, r.seq, next_seq[r.tenant as usize]
                )));
            }
            next_seq[r.tenant as usize] += 1;
            if r.at > horizon {
                return Err(CassetteError::Corrupt(format!(
                    "entry {i} arrives at {:?}, past the horizon {:?}",
                    r.at, horizon
                )));
            }
            if !e.outcome.accepted && e.outcome.delivered {
                return Err(CassetteError::Corrupt(format!(
                    "entry {i} was rejected yet has a delivered outcome"
                )));
            }
        }
        if !self.entries.windows(2).all(|w| {
            let (a, b) = (&w[0].request, &w[1].request);
            (a.at, std::cmp::Reverse(a.priority), a.tenant, a.seq)
                <= (b.at, std::cmp::Reverse(b.priority), b.tenant, b.seq)
        }) {
            return Err(CassetteError::Corrupt(
                "entries are not in merge order (at, priority desc, tenant, seq)".to_string(),
            ));
        }
        Ok(())
    }

    /// **Compile** the cassette into a self-contained [`ScenarioSpec`]:
    /// outcomes are stripped and each tenant replays its recorded track
    /// through [`ArrivalProcess::Replay`], so `spec.compile(self.seed)`
    /// reproduces the recorded merged stream exactly. Mutate the returned
    /// spec (deployment, prewarm, faults, resilience) for A/B replays.
    pub fn to_spec(&self) -> Result<ScenarioSpec, CassetteError> {
        self.validate()?;
        let mut tracks: Vec<Vec<ReplayEntry>> = vec![Vec::new(); self.tenants.len()];
        for e in &self.entries {
            let r = &e.request;
            tracks[r.tenant as usize].push(ReplayEntry {
                at: r.at,
                model: r.model.clone(),
                prompt_tokens: r.prompt_tokens,
                output_tokens: r.output_tokens,
            });
        }
        let tenants = self
            .tenants
            .iter()
            .zip(tracks)
            .map(|(t, entries)| {
                // Preserve the model mix as informational metadata: the
                // replay arm takes each request's model from the track, but
                // a self-contained spec should still name what it serves.
                let mut models: Vec<ModelShare> = Vec::new();
                for e in &entries {
                    if !models.iter().any(|m| m.model == e.model) {
                        models.push(ModelShare {
                            model: e.model.clone(),
                            weight: 1.0,
                        });
                    }
                }
                TenantClass {
                    name: t.name.clone(),
                    requests: entries.len(),
                    workload: TenantWorkload::Synthetic {
                        arrival: ArrivalProcess::Replay(ReplayTrack { entries }),
                        profile: ShareGptProfile::default(),
                    },
                    models,
                    priority: t.priority,
                    slo: t.slo,
                }
            })
            .collect();
        Ok(ScenarioSpec {
            name: self.scenario.clone(),
            description: self.description.clone(),
            deployment: self.deployment,
            prewarm: self.prewarm,
            resilience: self.resilience,
            horizon_s: self.horizon_s,
            tenants,
            faults: self.faults.clone(),
            // Runs with shard-scoped faults are unrecordable, so a cassette
            // never carries a shard fault plan.
            shard_faults: first_chaos::ShardFaultPlan::none(),
        })
    }

    /// Serialize to pretty JSON (trailing newline included, so written files
    /// byte-match the golden convention).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("cassette serializes") + "\n"
    }

    /// Parse and validate a cassette from JSON. A truncated or otherwise
    /// malformed file yields [`CassetteError::Parse`]; a parseable but
    /// internally inconsistent one yields [`CassetteError::Corrupt`].
    pub fn from_json(text: &str) -> Result<Cassette, CassetteError> {
        let cassette: Cassette =
            serde_json::from_str(text).map_err(|e| CassetteError::Parse(format!("{e:?}")))?;
        cassette.validate()?;
        Ok(cassette)
    }

    /// Write the cassette to `path` (parent directories created).
    pub fn save(&self, path: &Path) -> Result<(), CassetteError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CassetteError::Io(format!("{}: {e}", parent.display())))?;
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| CassetteError::Io(format!("{}: {e}", path.display())))
    }

    /// Read and validate a cassette from `path`.
    pub fn load(path: &Path) -> Result<Cassette, CassetteError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CassetteError::Io(format!("{}: {e}", path.display())))?;
        Cassette::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::scenario::{models, DeploymentRef};

    fn recorded(spec: &ScenarioSpec, seed: u64) -> Cassette {
        let compiled = spec.compile(seed);
        let outcomes = vec![RequestOutcome::default(); compiled.requests.len()];
        Cassette::from_run(spec, seed, &compiled, outcomes).expect("recordable")
    }

    fn two_tenant_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "cassette-unit",
            "two synthetic tenants",
            DeploymentRef::SingleClusterTest,
            vec![
                TenantClass::synthetic(
                    "alpha",
                    20,
                    ArrivalProcess::Poisson(3.0),
                    models::LLAMA_70B,
                )
                .with_priority(200),
                TenantClass::synthetic("beta", 15, ArrivalProcess::Infinite, models::LLAMA_8B)
                    .with_priority(10),
            ],
        )
    }

    #[test]
    fn cassette_round_trips_byte_identically() {
        let cassette = recorded(&two_tenant_spec(), 7);
        let json = cassette.to_json();
        let back = Cassette::from_json(&json).expect("parses");
        assert_eq!(cassette, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn compiled_spec_reproduces_the_recorded_stream() {
        let spec = two_tenant_spec();
        let seed = 42;
        let cassette = recorded(&spec, seed);
        let replayed = cassette.to_spec().expect("compiles");
        assert_eq!(replayed.name, spec.name);
        assert_eq!(replayed.compile(seed).requests, spec.compile(seed).requests);
        // The replay stream is seed-independent: the track *is* the stream.
        assert_eq!(replayed.compile(99).requests, spec.compile(seed).requests);
    }

    #[test]
    fn empty_cassette_is_valid_and_compiles_to_an_empty_stream() {
        let spec = ScenarioSpec::new("empty", "", DeploymentRef::SingleClusterTest, Vec::new());
        let cassette = recorded(&spec, 1);
        assert!(cassette.is_empty());
        cassette.validate().expect("empty cassettes are valid");
        let replayed = cassette.to_spec().expect("compiles");
        assert!(replayed.compile(1).requests.is_empty());
    }

    #[test]
    fn truncated_json_is_a_typed_parse_error() {
        let json = recorded(&two_tenant_spec(), 7).to_json();
        let truncated = &json[..json.len() / 2];
        match Cassette::from_json(truncated) {
            Err(CassetteError::Parse(_)) => {}
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn seq_gap_is_reported_as_truncation() {
        let mut cassette = recorded(&two_tenant_spec(), 7);
        // Drop an entry from the middle of one tenant's track: the dense-seq
        // check catches the hole.
        let victim = cassette
            .entries
            .iter()
            .position(|e| e.request.tenant == 0 && e.request.seq == 5)
            .expect("tenant 0 has a 6th request");
        cassette.entries.remove(victim);
        match cassette.validate() {
            Err(CassetteError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A cleanly truncated *tail* is still a valid (shorter) cassette.
        let mut tail_cut = recorded(&two_tenant_spec(), 7);
        tail_cut.entries.truncate(10);
        tail_cut.validate().expect("dense prefix remains valid");
        assert_eq!(tail_cut.to_spec().unwrap().total_requests(), 10);
    }

    #[test]
    fn bad_tenant_index_and_future_version_are_rejected() {
        let mut cassette = recorded(&two_tenant_spec(), 7);
        cassette.entries[0].request.tenant = 99;
        assert!(matches!(
            cassette.validate(),
            Err(CassetteError::Corrupt(_))
        ));

        let mut future = recorded(&two_tenant_spec(), 7);
        future.format_version = CASSETTE_FORMAT_VERSION + 1;
        assert!(matches!(
            future.validate(),
            Err(CassetteError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CassetteError::UnsupportedVersion {
            found: 9,
            supported: CASSETTE_FORMAT_VERSION,
        };
        assert!(e.to_string().contains("v9"));
        assert!(CassetteError::Parse("eof".into())
            .to_string()
            .contains("parse"));
    }
}
