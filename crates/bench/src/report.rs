//! Machine-readable benchmark artifacts and the perf-regression gate logic.
//!
//! Every bench binary serializes its results into a schema-versioned
//! `BENCH_<name>.json` artifact (see [`BenchArtifact`]): the scenario /
//! resilience / WebUI tables it already prints, the paper-vs-measured
//! comparisons, a flat list of [`GateMetric`]s, and the kernel measurement of
//! the run itself ([`SimRunStats`]: wall-clock time, events processed, peak
//! queue depth). CI uploads the artifacts and the `perf_gate` binary compares
//! a fast scenario subset against the baselines committed under
//! `bench/baselines/`, failing the build on regression.

use crate::Comparison;
use first_core::{GatewayReport, RunOutput, ScenarioReport, WebUiCell};
use first_desim::{Histogram, SimRunStats};
use first_telemetry::PhaseBreakdown;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp written into every artifact. Bump when a field changes
/// meaning or is removed; adding fields is backward compatible.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// One gated metric: a named scalar plus the tolerance band the perf gate
/// applies when comparing a fresh run against the committed baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateMetric {
    /// Metric name, unique within an artifact.
    pub(crate) name: String,
    /// Measured value.
    pub value: f64,
    /// Fractional tolerance band: the gate fails when the current value is
    /// worse than `baseline * (1 ± tolerance)` in the bad direction.
    /// Deterministic simulation metrics carry tight bands (~2%); wall-clock
    /// metrics carry wide ones so machine-to-machine noise passes while a
    /// genuine blow-up still trips.
    pub(crate) tolerance: f64,
    /// Whether larger values are better (throughput) or worse (latency,
    /// wall-clock time, event counts).
    pub higher_is_better: bool,
    /// Absolute no-fail floor for lower-is-better metrics: a current value
    /// at or below the floor never regresses, whatever the ratio says.
    /// Committed wall-clock baselines are few-millisecond readings from one
    /// machine — scheduling noise on a shared CI runner can multiply such a
    /// section several-fold, so the floor (e.g. 0.25 s) keeps the gate quiet
    /// until a slowdown is large in absolute terms too. 0 disables it.
    pub(crate) floor: f64,
}

impl GateMetric {
    /// A metric where **higher** values are better (throughput).
    pub fn higher(name: &str, value: f64, tolerance: f64) -> Self {
        GateMetric {
            name: name.to_string(),
            value,
            tolerance,
            higher_is_better: true,
            floor: 0.0,
        }
    }

    /// A metric where **lower** values are better (latency, wall time).
    pub fn lower(name: &str, value: f64, tolerance: f64) -> Self {
        GateMetric {
            name: name.to_string(),
            value,
            tolerance,
            higher_is_better: false,
            floor: 0.0,
        }
    }

    /// Set the absolute no-fail floor (lower-is-better metrics only).
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor;
        self
    }

    /// Whether `current` regresses against this baseline value beyond the
    /// baseline's tolerance band (and, for lower-is-better metrics, above
    /// the baseline's absolute floor).
    fn regressed_by(&self, current: f64) -> bool {
        if self.higher_is_better {
            current < self.value * (1.0 - self.tolerance)
        } else {
            current > self.value * (1.0 + self.tolerance) && current > self.floor
        }
    }
}

/// Per-tenant SLO delta between a cassette's baseline recording and one
/// replay variant (a different deployment, fault plan or prewarm level).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSloDiff {
    /// Tenant-class name.
    pub tenant: String,
    /// p95 end-to-end latency in the baseline recording, seconds.
    pub baseline_p95_s: f64,
    /// p95 end-to-end latency under the variant, seconds.
    pub variant_p95_s: f64,
    /// `variant_p95_s - baseline_p95_s` (positive = variant is slower).
    pub d_p95_s: f64,
    /// Availability in the baseline recording.
    pub baseline_availability: f64,
    /// Availability under the variant.
    pub variant_availability: f64,
    /// `variant_availability - baseline_availability`.
    pub(crate) d_availability: f64,
    /// Whether the tenant met its SLO in the baseline recording.
    pub slo_met_baseline: bool,
    /// Whether the tenant met its SLO under the variant.
    pub slo_met_variant: bool,
}

impl TenantSloDiff {
    /// Diff one tenant partition of a variant report against the baseline.
    pub fn between(
        baseline: &GatewayReport,
        variant: &GatewayReport,
        tenant: &str,
    ) -> Option<Self> {
        let b = baseline.tenant(tenant)?;
        let v = variant.tenant(tenant)?;
        Some(TenantSloDiff {
            tenant: tenant.to_string(),
            baseline_p95_s: b.p95_latency_s,
            variant_p95_s: v.p95_latency_s,
            d_p95_s: v.p95_latency_s - b.p95_latency_s,
            baseline_availability: b.availability,
            variant_availability: v.availability,
            d_availability: v.availability - b.availability,
            slo_met_baseline: b.slo_met,
            slo_met_variant: v.slo_met,
        })
    }
}

/// Per-phase latency delta between a cassette's baseline recording and one
/// replay variant, derived from the two runs' flight-recorder breakdowns.
/// Where [`TenantSloDiff`] says *which tenants* got slower, this says *which
/// lifecycle phase* the regression (or win) lives in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDiff {
    /// Phase name (snake_case, e.g. "queue_wait", "decode").
    pub phase: String,
    /// Mean phase latency in the baseline recording, seconds.
    pub baseline_mean_s: f64,
    /// Mean phase latency under the variant, seconds.
    pub variant_mean_s: f64,
    /// `variant_mean_s - baseline_mean_s` (positive = variant is slower).
    pub d_mean_s: f64,
    /// p95 phase latency in the baseline recording, seconds.
    pub baseline_p95_s: f64,
    /// p95 phase latency under the variant, seconds.
    pub variant_p95_s: f64,
    /// `variant_p95_s - baseline_p95_s`.
    pub(crate) d_p95_s: f64,
}

impl PhaseDiff {
    /// Diff every phase present in either breakdown, in baseline lifecycle
    /// order (variant-only phases append after). A phase absent from one
    /// side diffs against zero.
    pub fn between(baseline: &PhaseBreakdown, variant: &PhaseBreakdown) -> Vec<PhaseDiff> {
        let mut diffs: Vec<PhaseDiff> = baseline
            .by_phase
            .iter()
            .map(|b| {
                let v = variant.by_phase.iter().find(|v| v.phase == b.phase);
                PhaseDiff {
                    phase: b.phase.name().to_string(),
                    baseline_mean_s: b.mean_s,
                    variant_mean_s: v.map_or(0.0, |v| v.mean_s),
                    d_mean_s: v.map_or(0.0, |v| v.mean_s) - b.mean_s,
                    baseline_p95_s: b.p95_s,
                    variant_p95_s: v.map_or(0.0, |v| v.p95_s),
                    d_p95_s: v.map_or(0.0, |v| v.p95_s) - b.p95_s,
                }
            })
            .collect();
        for v in &variant.by_phase {
            if !baseline.by_phase.iter().any(|b| b.phase == v.phase) {
                diffs.push(PhaseDiff {
                    phase: v.phase.name().to_string(),
                    baseline_mean_s: 0.0,
                    variant_mean_s: v.mean_s,
                    d_mean_s: v.mean_s,
                    baseline_p95_s: 0.0,
                    variant_p95_s: v.p95_s,
                    d_p95_s: v.p95_s,
                });
            }
        }
        diffs
    }
}

/// The flight-recorder summary of one traced benchmark run: which scenario
/// was traced, at what sampling rate, and the resulting phase breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSection {
    /// Scenario name the trace came from.
    pub scenario: String,
    /// Sampling rate the recorder ran at (1 = every request).
    pub sample_every: u64,
    /// Complete span trees captured.
    pub trees: u64,
    /// Per-phase / per-tenant / per-endpoint latency breakdown with
    /// critical-path attribution.
    pub breakdown: PhaseBreakdown,
}

/// One replay variant of a cassette A/B sweep: the full report the variant
/// produced plus its per-tenant SLO deltas against the baseline recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CassetteAbRun {
    /// Variant name ("replay-identity", "federated", ...).
    pub variant: String,
    /// What the variant changed relative to the recording.
    pub description: String,
    /// The variant's full scenario report.
    pub report: GatewayReport,
    /// Per-tenant SLO deltas vs the baseline recording, in spec order.
    pub tenant_diffs: Vec<TenantSloDiff>,
    /// Per-phase latency deltas vs the baseline recording, in lifecycle
    /// order (empty when the sweep ran untraced; `default` so pre-tracing
    /// artifacts still parse).
    #[serde(default)]
    pub phase_diffs: Vec<PhaseDiff>,
}

/// Availability and tail-latency metrics of one resilience scenario: a
/// one-tenant run under a fault plan, as `resilience_sweep` prints it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceRow {
    /// Scenario label ("fault-free", "endpoint-flap", ...).
    pub label: String,
    /// Requests offered.
    pub(crate) offered: usize,
    /// Requests answered successfully.
    pub(crate) completed: usize,
    /// Requests that ultimately failed (after any retries) or were rejected.
    pub(crate) failed: usize,
    /// `completed / offered`.
    pub availability: f64,
    /// Median end-to-end latency of successful requests, in seconds.
    pub(crate) median_latency_s: f64,
    /// 99th-percentile end-to-end latency of successful requests, in seconds.
    pub p99_latency_s: f64,
    /// Output tokens delivered to clients.
    pub(crate) output_tokens: u64,
    /// Output tokens per second over the run (the goodput measure).
    pub(crate) goodput_tok_s: f64,
    /// Run duration in seconds (first arrival → last delivery).
    pub duration_s: f64,
    /// Retries issued by the gateway.
    pub retries: u64,
    /// Failovers to a different endpoint.
    pub failovers: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Hedged requests issued.
    pub hedges: u64,
    /// Faults the injector actually applied.
    pub(crate) faults_injected: usize,
}

impl ResilienceRow {
    /// The row of a one-tenant, one-shard run; the gateway's request log
    /// gives the p99 (the report carries no p99).
    pub fn new(label: &str, out: RunOutput) -> Self {
        let RunOutput {
            report,
            latencies: samples,
            fleet,
            ..
        } = out;
        let row = ScenarioReport::from_run(label, "", &report, samples);
        let mut latencies = Histogram::new();
        for entry in fleet.shard(0).log().entries().iter().filter(|e| e.success) {
            latencies.record(entry.latency().as_secs_f64());
        }
        ResilienceRow {
            label: row.label,
            offered: row.offered,
            completed: row.completed,
            failed: report.failed + report.rejected,
            availability: report.tenants[0].availability,
            median_latency_s: row.median_latency_s,
            p99_latency_s: latencies.p99(),
            output_tokens: report.tenants[0].output_tokens,
            goodput_tok_s: row.output_token_throughput,
            duration_s: row.duration_s,
            retries: report.retries,
            failovers: report.failovers,
            breaker_trips: report.breaker_trips,
            hedges: report.hedges,
            faults_injected: report.faults_injected,
        }
    }

    /// Goodput retained versus a (fault-free) baseline, as a fraction.
    pub fn goodput_retained(&self, baseline: &ResilienceRow) -> f64 {
        if baseline.goodput_tok_s <= 0.0 {
            0.0
        } else {
            self.goodput_tok_s / baseline.goodput_tok_s
        }
    }

    /// One formatted table row.
    pub fn table_row(&self, baseline: &ResilienceRow) -> String {
        format!(
            "{:<18} {:>7} {:>6} {:>6} {:>7.2}% {:>9.1} {:>9.1} {:>10.1} {:>8.1}% {:>7} {:>9} {:>6} {:>6} {:>6}",
            self.label,
            self.offered,
            self.completed,
            self.failed,
            self.availability * 100.0,
            self.median_latency_s,
            self.p99_latency_s,
            self.goodput_tok_s,
            self.goodput_retained(baseline) * 100.0,
            self.retries,
            self.failovers,
            self.breaker_trips,
            self.hedges,
            self.faults_injected,
        )
    }

    /// The table header matching [`ResilienceRow::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<18} {:>7} {:>6} {:>6} {:>8} {:>9} {:>9} {:>10} {:>9} {:>7} {:>9} {:>6} {:>6} {:>6}",
            "scenario",
            "offered",
            "done",
            "fail",
            "avail",
            "med (s)",
            "p99 (s)",
            "tok/s",
            "goodput",
            "retries",
            "failovers",
            "trips",
            "hedges",
            "faults"
        )
    }
}

/// The schema-versioned content of one `BENCH_<name>.json` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub(crate) schema_version: u32,
    /// Benchmark name (the binary name; the file is `BENCH_<name>.json`).
    pub(crate) name: String,
    /// Base RNG seed the run used (`FIRST_BENCH_SEED`).
    pub(crate) seed: u64,
    /// Request count the run used (`FIRST_BENCH_REQUESTS`).
    pub requests: usize,
    /// Kernel measurement of the whole run: wall-clock seconds, virtual
    /// seconds covered, events processed, peak queue depth.
    pub sim: SimRunStats,
    /// Open-loop scenario reports (empty when not applicable).
    pub scenarios: Vec<ScenarioReport>,
    /// Resilience-sweep reports (empty when not applicable).
    pub(crate) resilience: Vec<ResilienceRow>,
    /// WebUI closed-loop cells (empty when not applicable).
    pub(crate) webui: Vec<WebUiCell>,
    /// Scenario-matrix runs with per-tenant SLO partitions (empty when not
    /// applicable; `default` so pre-scenario artifacts still parse).
    #[serde(default)]
    pub(crate) scenario_runs: Vec<GatewayReport>,
    /// Cassette A/B replay variants with per-tenant SLO diffs against the
    /// baseline recording (empty when not applicable; `default` so
    /// pre-cassette artifacts still parse).
    #[serde(default)]
    pub(crate) cassette_ab: Vec<CassetteAbRun>,
    /// Flight-recorder trace sections from traced runs (empty when the run
    /// was untraced; `default` so pre-tracing artifacts still parse).
    #[serde(default)]
    pub(crate) trace: Vec<TraceSection>,
    /// Paper-vs-measured comparison rows (empty when not applicable).
    pub(crate) comparisons: Vec<Comparison>,
    /// Flat gate metrics derived from the run (what `perf_gate` compares).
    pub(crate) metrics: Vec<GateMetric>,
}

impl BenchArtifact {
    /// Start an artifact for the named benchmark, stamped with the active
    /// seed and request count.
    pub fn new(name: &str) -> Self {
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            name: name.to_string(),
            seed: crate::benchmark_seed(),
            requests: crate::benchmark_request_count(),
            sim: SimRunStats {
                wall_time_s: 0.0,
                sim_time_s: 0.0,
                events_processed: 0,
                peak_queue_depth: 0,
            },
            scenarios: Vec::new(),
            resilience: Vec::new(),
            webui: Vec::new(),
            scenario_runs: Vec::new(),
            cassette_ab: Vec::new(),
            trace: Vec::new(),
            comparisons: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Attach the kernel measurement of the run.
    pub fn with_sim(mut self, sim: SimRunStats) -> Self {
        self.sim = sim;
        self
    }

    /// Attach scenario reports.
    pub fn with_scenarios(mut self, scenarios: &[ScenarioReport]) -> Self {
        self.scenarios.extend_from_slice(scenarios);
        self
    }

    /// Attach resilience reports.
    pub fn with_resilience(mut self, reports: &[ResilienceRow]) -> Self {
        self.resilience.extend_from_slice(reports);
        self
    }

    /// Attach WebUI cells.
    pub fn with_webui(mut self, cells: &[WebUiCell]) -> Self {
        self.webui.extend_from_slice(cells);
        self
    }

    /// Attach scenario-matrix runs.
    pub fn with_scenario_runs(mut self, runs: &[GatewayReport]) -> Self {
        self.scenario_runs.extend_from_slice(runs);
        self
    }

    /// Attach cassette A/B replay variants.
    pub fn with_cassette_ab(mut self, runs: &[CassetteAbRun]) -> Self {
        self.cassette_ab.extend_from_slice(runs);
        self
    }

    /// Attach a flight-recorder trace section.
    pub fn with_trace(mut self, section: TraceSection) -> Self {
        self.trace.push(section);
        self
    }

    /// Attach paper-vs-measured comparisons.
    pub fn with_comparisons(mut self, rows: &[Comparison]) -> Self {
        self.comparisons.extend_from_slice(rows);
        self
    }

    /// Attach one gate metric.
    pub fn with_metric(mut self, metric: GateMetric) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Parse an artifact back from JSON, rejecting unknown schema versions.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let artifact: BenchArtifact =
            serde_json::from_str(text).map_err(|e| format!("invalid artifact JSON: {e:?}"))?;
        if artifact.schema_version > SCHEMA_VERSION {
            return Err(format!(
                "artifact schema v{} is newer than this binary understands (v{})",
                artifact.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(artifact)
    }

    /// Look up a gate metric by name.
    pub(crate) fn metric(&self, name: &str) -> Option<&GateMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The file name this artifact is written under.
    fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Write the artifact into `dir` (created if missing); returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        ensure_out_dir(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }

    /// Write the artifact into the standard output directory
    /// (`FIRST_BENCH_OUT_DIR`, default `bench/out`) and print where it went.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.write_to(&artifact_out_dir())?;
        println!("\nwrote {}", path.display());
        Ok(path)
    }

    /// Read an artifact from `dir/BENCH_<name>.json`.
    pub fn read_from(dir: &Path, name: &str) -> Result<Self, String> {
        let path = dir.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// Create the artifact directory, tolerating a concurrent bench binary (or
/// sweep worker) racing the same `mkdir`: a create error is only fatal when
/// the directory genuinely does not exist afterwards.
fn ensure_out_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::create_dir_all(dir) {
        Err(e) if !dir.is_dir() => Err(e),
        _ => Ok(()),
    }
}

/// Directory benchmark artifacts are written to (`FIRST_BENCH_OUT_DIR`,
/// default `bench/out`).
pub fn artifact_out_dir() -> PathBuf {
    std::env::var("FIRST_BENCH_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench/out"))
}

/// Directory the perf gate reads committed baselines from
/// (`FIRST_BENCH_BASELINE_DIR`, default `bench/baselines`).
pub fn baseline_dir() -> PathBuf {
    std::env::var("FIRST_BENCH_BASELINE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench/baselines"))
}

/// One per-metric comparison the gate performed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GateCheck {
    /// Metric name.
    pub(crate) name: String,
    /// Baseline value.
    pub(crate) baseline: f64,
    /// Current value.
    pub(crate) current: f64,
    /// `current / baseline` (0 when the baseline is 0).
    pub(crate) ratio: f64,
    /// Tolerance band applied (from the baseline artifact).
    pub(crate) tolerance: f64,
    /// Whether the metric regressed beyond the band.
    pub(crate) regressed: bool,
}

/// Outcome of gating one artifact against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Per-metric checks, in baseline order.
    pub(crate) checks: Vec<GateCheck>,
    /// Baseline metrics absent from the current run (a hard failure: a
    /// silently dropped metric must not weaken the gate).
    pub(crate) missing: Vec<String>,
    /// Current metrics absent from the baseline (informational; they start
    /// being gated once the baseline is refreshed).
    pub(crate) ungated: Vec<String>,
}

impl GateResult {
    /// Whether any metric regressed or disappeared.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.checks.iter().any(|c| c.regressed)
    }

    /// Render the human-readable verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>7} {:>6} {:>8}",
            "metric", "baseline", "current", "ratio", "band", "verdict"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<44} {:>12.3} {:>12.3} {:>6.2}x {:>5.0}% {:>8}",
                c.name,
                c.baseline,
                c.current,
                c.ratio,
                c.tolerance * 100.0,
                if c.regressed { "REGRESS" } else { "ok" }
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "{name:<44} missing from current run: FAIL");
        }
        for name in &self.ungated {
            let _ = writeln!(out, "{name:<44} not in baseline yet (ungated)");
        }
        out
    }
}

/// Compare a fresh artifact against the committed baseline.
///
/// The tolerance band of each metric comes from the **baseline** artifact, so
/// loosening a band requires touching the committed file in review. Seed or
/// request-count drift is a hard error: comparing runs of different workloads
/// would make every band meaningless — refresh the baseline instead
/// (`perf_gate --write-baseline`).
pub fn gate_compare(
    current: &BenchArtifact,
    baseline: &BenchArtifact,
) -> Result<GateResult, String> {
    if current.seed != baseline.seed || current.requests != baseline.requests {
        return Err(format!(
            "workload mismatch: current (seed={}, requests={}) vs baseline (seed={}, requests={}); \
             re-run with the baseline's FIRST_BENCH_SEED/FIRST_BENCH_REQUESTS or refresh the \
             baseline with `perf_gate --write-baseline`",
            current.seed, current.requests, baseline.seed, baseline.requests
        ));
    }
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.metrics {
        match current.metric(&base.name) {
            Some(cur) => {
                let ratio = if base.value.abs() < 1e-12 {
                    0.0
                } else {
                    cur.value / base.value
                };
                checks.push(GateCheck {
                    name: base.name.clone(),
                    baseline: base.value,
                    current: cur.value,
                    ratio,
                    tolerance: base.tolerance,
                    regressed: base.regressed_by(cur.value),
                });
            }
            None => missing.push(base.name.clone()),
        }
    }
    let ungated = current
        .metrics
        .iter()
        .filter(|m| baseline.metric(&m.name).is_none())
        .map(|m| m.name.clone())
        .collect();
    Ok(GateResult {
        checks,
        missing,
        ungated,
    })
}

/// Print the standard harness-health footer every bench binary emits.
pub fn print_sim_stats(sim: &SimRunStats) {
    println!(
        "\nharness: wall {:.3}s, sim {:.0}s ({:.0}x real time), {} events ({:.0} events/s), peak queue {}",
        sim.wall_time_s,
        sim.sim_time_s,
        sim.speedup(),
        sim.events_processed,
        sim.events_per_sec(),
        sim.peak_queue_depth
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(metrics: Vec<GateMetric>) -> BenchArtifact {
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            name: "unit".to_string(),
            seed: 42,
            requests: 100,
            sim: SimRunStats {
                wall_time_s: 0.5,
                sim_time_s: 100.0,
                events_processed: 1234,
                peak_queue_depth: 17,
            },
            scenarios: Vec::new(),
            resilience: Vec::new(),
            webui: Vec::new(),
            scenario_runs: Vec::new(),
            cassette_ab: Vec::new(),
            trace: Vec::new(),
            comparisons: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let a = artifact(vec![
            GateMetric::higher("req_per_s", 9.5, 0.02),
            GateMetric::lower("wall_time_s", 0.5, 2.0),
        ])
        .with_comparisons(&[Comparison::new("tok/s", 1677.0, 1650.0)]);
        let json = a.to_json();
        let b = BenchArtifact::from_json(&json).expect("parses");
        assert_eq!(a, b);
        assert!(json.contains("\"schema_version\": 1"));
    }

    #[test]
    fn artifact_without_scenario_runs_still_parses() {
        // Pre-scenario-matrix artifacts (and committed baselines) lack the
        // `scenario_runs` field; `#[serde(default)]` keeps them readable.
        let a = artifact(vec![GateMetric::higher("req_per_s", 9.5, 0.02)]);
        let json = a
            .to_json()
            .replace("\"scenario_runs\": [],\n  ", "")
            .replace("\"cassette_ab\": [],\n  ", "")
            .replace("\"trace\": [],\n  ", "");
        assert!(!json.contains("scenario_runs"));
        assert!(!json.contains("cassette_ab"));
        assert!(!json.contains("\"trace\""));
        let b = BenchArtifact::from_json(&json).expect("legacy artifact parses");
        assert_eq!(a, b);
    }

    #[test]
    fn phase_diffs_cover_both_sides_in_lifecycle_order() {
        use first_telemetry::{FlightRecorder, Phase, Span, SpanTree, TraceConfig};

        // Build two tiny breakdowns through the real recorder so the diff
        // sees the same shapes the cassette A/B sweep produces.
        fn breakdown(decode_us: u64) -> PhaseBreakdown {
            let mut rec = FlightRecorder::new(TraceConfig::every_request(8));
            assert!(rec.should_sample());
            rec.record(SpanTree {
                request_id: 1,
                tenant: "chat".into(),
                model: "m".into(),
                endpoint: "ep".into(),
                success: true,
                cached: false,
                spans: vec![
                    Span {
                        phase: Phase::Request,
                        start: first_desim::SimTime::from_micros(0),
                        end: first_desim::SimTime::from_micros(100 + decode_us),
                        parent: None,
                    },
                    Span {
                        phase: Phase::QueueWait,
                        start: first_desim::SimTime::from_micros(0),
                        end: first_desim::SimTime::from_micros(100),
                        parent: Some(0),
                    },
                    Span {
                        phase: Phase::Decode,
                        start: first_desim::SimTime::from_micros(100),
                        end: first_desim::SimTime::from_micros(100 + decode_us),
                        parent: Some(0),
                    },
                ],
            });
            rec.breakdown()
        }

        let base = breakdown(1_000);
        let variant = breakdown(3_000);
        let diffs = PhaseDiff::between(&base, &variant);
        assert_eq!(diffs.len(), 2);
        // Lifecycle order: queue_wait before decode.
        assert_eq!(diffs[0].phase, "queue_wait");
        assert_eq!(diffs[1].phase, "decode");
        assert!(diffs[0].d_mean_s.abs() < 1e-12, "queue_wait unchanged");
        assert!((diffs[1].d_mean_s - 0.002).abs() < 1e-9, "decode +2ms");
        assert!((diffs[1].d_p95_s - 0.002).abs() < 1e-9);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let mut a = artifact(vec![]);
        a.schema_version = SCHEMA_VERSION + 1;
        assert!(BenchArtifact::from_json(&a.to_json()).is_err());
    }

    #[test]
    fn synthetic_two_x_regression_trips_the_gate() {
        let baseline = artifact(vec![
            GateMetric::lower("wall_time_s", 1.0, 0.5),
            GateMetric::higher("req_per_s", 10.0, 0.05),
        ]);
        // 2x slower wall time and halved throughput: both regress.
        let current = artifact(vec![
            GateMetric::lower("wall_time_s", 2.0, 0.5),
            GateMetric::higher("req_per_s", 5.0, 0.05),
        ]);
        let result = gate_compare(&current, &baseline).expect("comparable");
        assert!(result.failed());
        assert!(result.checks.iter().all(|c| c.regressed));
    }

    #[test]
    fn in_tolerance_noise_passes_the_gate() {
        let baseline = artifact(vec![
            GateMetric::lower("wall_time_s", 1.0, 0.5),
            GateMetric::higher("req_per_s", 10.0, 0.05),
        ]);
        // +20% wall (inside the 50% band), -2% throughput (inside 5%).
        let current = artifact(vec![
            GateMetric::lower("wall_time_s", 1.2, 0.5),
            GateMetric::higher("req_per_s", 9.8, 0.05),
        ]);
        let result = gate_compare(&current, &baseline).expect("comparable");
        assert!(!result.failed(), "{}", result.render());
        // Improvements never fail either.
        let faster = artifact(vec![
            GateMetric::lower("wall_time_s", 0.3, 0.5),
            GateMetric::higher("req_per_s", 14.0, 0.05),
        ]);
        assert!(!gate_compare(&faster, &baseline).unwrap().failed());
    }

    #[test]
    fn dropped_metric_fails_and_new_metric_is_reported_ungated() {
        let baseline = artifact(vec![GateMetric::higher("req_per_s", 10.0, 0.05)]);
        let current = artifact(vec![GateMetric::lower("wall_time_s", 1.0, 0.5)]);
        let result = gate_compare(&current, &baseline).expect("comparable");
        assert!(result.failed());
        assert_eq!(result.missing, vec!["req_per_s".to_string()]);
        assert_eq!(result.ungated, vec!["wall_time_s".to_string()]);
        let text = result.render();
        assert!(text.contains("missing from current run"));
    }

    #[test]
    fn wall_floor_suppresses_ratio_failures_below_the_floor() {
        let baseline = artifact(vec![
            GateMetric::lower("wall_time_s", 0.002, 4.0).with_floor(0.25)
        ]);
        // 50x the baseline but still under the 0.25 s floor: noise, not a
        // regression.
        let noisy = artifact(vec![
            GateMetric::lower("wall_time_s", 0.1, 4.0).with_floor(0.25)
        ]);
        assert!(!gate_compare(&noisy, &baseline).unwrap().failed());
        // Past the floor AND past the band: regression.
        let blown = artifact(vec![
            GateMetric::lower("wall_time_s", 0.5, 4.0).with_floor(0.25)
        ]);
        assert!(gate_compare(&blown, &baseline).unwrap().failed());
    }

    #[test]
    fn workload_mismatch_is_a_hard_error() {
        let baseline = artifact(vec![]);
        let mut current = artifact(vec![]);
        current.requests = 999;
        assert!(gate_compare(&current, &baseline).is_err());
    }

    #[test]
    fn write_and_read_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("first-bench-report-{}", std::process::id()));
        let a = artifact(vec![GateMetric::higher("req_per_s", 10.0, 0.05)]);
        let path = a.write_to(&dir).expect("writes");
        assert!(path.ends_with("BENCH_unit.json"));
        let b = BenchArtifact::read_from(&dir, "unit").expect("reads");
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
