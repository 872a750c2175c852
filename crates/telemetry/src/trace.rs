//! Request-lifecycle tracing: sim-time spans, a bounded flight recorder and
//! phase-latency aggregation (§3.1.1 "queue status", §7 "deeper insights").
//!
//! The rest of the telemetry crate answers *what* happened (counters,
//! quantiles, SLO attainment); this module answers *where the time went*.
//! A sampled request yields a [`SpanTree`]: one root span covering the whole
//! request plus one child [`Span`] per lifecycle [`Phase`] (gateway queue
//! wait, admission, fabric dispatch and transit, endpoint backlog, engine
//! prefill and decode, the return path). Trees are recorded into a
//! [`FlightRecorder`] — a bounded ring buffer with deterministic 1-in-N
//! sampling — and aggregated into a [`PhaseBreakdown`] (per-phase, per-tenant
//! and per-endpoint quantiles plus critical-path attribution). A
//! [`chrome_trace_json`] exporter renders the sampled trees in the Chrome
//! trace-event format so a run can be opened in `chrome://tracing` or
//! Perfetto.
//!
//! Everything here is sim-time: spans carry [`SimTime`] instants, so traces
//! are exactly reproducible across runs with the same seed and the exporter
//! can promise byte-identical output.

use std::collections::{BTreeMap, VecDeque};

use first_desim::SimTime;
use serde::{Deserialize, Serialize};

/// A lifecycle phase of a gateway request.
///
/// The phases partition the request's wall-to-wall interval: for a clean
/// (no-retry, no-hedge) request the phase spans chain end-to-start from
/// arrival to delivery, so their durations sum to the end-to-end latency.
/// Retries and hedges introduce idle gaps between attempts; those gaps are
/// deliberately *not* attributed to any phase (see [`SpanTree::idle_micros`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Root span: the whole request, arrival to delivery.
    Request,
    /// Federation routing decision, taken synchronously at the API boundary
    /// (instantaneous in the model).
    Route,
    /// Waiting for a gateway worker slot (admission backlog).
    QueueWait,
    /// Gateway CPU: auth, rate-limit and validation work.
    Admission,
    /// Auth latency plus connection overhead before the fabric sees the task.
    Submit,
    /// Fabric client→service hop plus dispatcher queue and dispatch cost.
    Dispatch,
    /// Service→endpoint network transit.
    Transit,
    /// Sitting in the compute endpoint's backlog before engine admission.
    BacklogWait,
    /// Endpoint slot assignment (instantaneous in the model).
    Assignment,
    /// Engine queueing plus prefill: admission to first token.
    Prefill,
    /// Token generation: first token to completion.
    Decode,
    /// Result relay from endpoint back to the fabric client.
    Relay,
    /// Client-side observation delay (poll interval, clock skew model).
    Observe,
    /// Gateway response CPU before final delivery to the caller.
    Deliver,
}

impl Phase {
    /// Every leaf phase, in lifecycle order. Excludes the [`Phase::Request`]
    /// root, which is not a phase of the request but the request itself.
    pub const ALL: [Phase; 13] = [
        Phase::Route,
        Phase::QueueWait,
        Phase::Admission,
        Phase::Submit,
        Phase::Dispatch,
        Phase::Transit,
        Phase::BacklogWait,
        Phase::Assignment,
        Phase::Prefill,
        Phase::Decode,
        Phase::Relay,
        Phase::Observe,
        Phase::Deliver,
    ];

    /// Stable lowercase snake-case name, used for metric labels and the
    /// Chrome-trace `name` field.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::QueueWait => "queue_wait",
            Phase::Admission => "admission",
            Phase::Route => "route",
            Phase::Submit => "submit",
            Phase::Dispatch => "dispatch",
            Phase::Transit => "transit",
            Phase::BacklogWait => "backlog_wait",
            Phase::Assignment => "assignment",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Relay => "relay",
            Phase::Observe => "observe",
            Phase::Deliver => "deliver",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap_or(0)
    }
}

/// One timed interval within a request's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which lifecycle phase this interval covers.
    pub phase: Phase,
    /// Sim-time start of the interval.
    pub start: SimTime,
    /// Sim-time end of the interval (`end >= start`).
    pub end: SimTime,
    /// Index of the parent span within the owning [`SpanTree`]; `None` for
    /// the root.
    pub parent: Option<u32>,
}

impl Span {
    /// Span duration in integer microseconds (exact, deterministic).
    fn duration_micros(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.start.as_micros())
    }

    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_micros() as f64 / 1e6
    }
}

/// The complete span tree for one sampled request: a root
/// [`Phase::Request`] span plus one child span per lifecycle phase the
/// request passed through.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTree {
    /// Gateway request id.
    pub request_id: u64,
    /// Authenticated user (tenant) that issued the request.
    pub tenant: String,
    /// Model the request targeted.
    pub model: String,
    /// Compute endpoint that served the final attempt (empty for cache hits
    /// and requests that failed before routing).
    pub endpoint: String,
    /// Whether the request ultimately succeeded.
    pub success: bool,
    /// Whether the gateway answered from the response cache (a degenerate
    /// tree: root plus admission-side spans only).
    pub cached: bool,
    /// All spans; index 0 is the root, children reference it by index.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// The root span (whole-request interval), if the tree is non-empty.
    pub fn root(&self) -> Option<&Span> {
        self.spans.first()
    }

    /// End-to-end latency in microseconds (root span duration).
    pub fn end_to_end_micros(&self) -> u64 {
        self.root().map(Span::duration_micros).unwrap_or(0)
    }

    /// Sum of all leaf-phase durations in microseconds.
    pub fn phase_total_micros(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(Span::duration_micros)
            .sum()
    }

    /// Idle time: end-to-end minus attributed phase time, in microseconds.
    /// Zero for clean requests; positive when retries or hedges leave gaps
    /// between attempts (the superseded attempt's phases are not recorded).
    pub fn idle_micros(&self) -> u64 {
        self.end_to_end_micros()
            .saturating_sub(self.phase_total_micros())
    }

    /// Structural well-formedness: a root exists, every child's interval is
    /// contained in its parent's, spans are ordered (`end >= start`) and
    /// parent indices are in bounds and acyclic (parent index < child index).
    pub fn well_formed(&self) -> bool {
        let Some(root) = self.root() else {
            return false;
        };
        if root.parent.is_some() || root.phase != Phase::Request {
            return false;
        }
        self.spans.iter().enumerate().all(|(i, s)| {
            if s.end < s.start {
                return false;
            }
            match s.parent {
                None => i == 0,
                Some(p) => {
                    let p = p as usize;
                    p < i
                        && self
                            .spans
                            .get(p)
                            .is_some_and(|parent| s.start >= parent.start && s.end <= parent.end)
                }
            }
        })
    }
}

/// Sampling and retention knobs for the flight recorder.
///
/// The default is **off** (`sample_every == 0`): the gateway takes a single
/// branch per request and allocates nothing, which the perf gate's
/// `trace_off/*` metrics hold it to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Record every Nth accepted request; `0` disables tracing entirely,
    /// `1` records every request.
    #[serde(default)]
    pub sample_every: u64,
    /// Maximum span trees retained; older trees are evicted (and counted as
    /// dropped) once the ring is full.
    #[serde(default = "default_capacity")]
    pub capacity: usize,
}

fn default_capacity() -> usize {
    4096
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 0,
            capacity: default_capacity(),
        }
    }
}

impl TraceConfig {
    /// Tracing enabled at all?
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Convenience: record every request with the given retention.
    pub fn every_request(capacity: usize) -> Self {
        TraceConfig {
            sample_every: 1,
            capacity,
        }
    }
}

/// Bounded ring buffer of sampled span trees, owned by the gateway.
///
/// Sampling is a deterministic counter (`seen % sample_every == 0`), not a
/// coin flip, so the same seed and workload always sample the same requests
/// — a requirement for byte-identical trace exports across runs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    config: TraceConfig,
    ring: VecDeque<SpanTree>,
    seen: u64,
    sampled: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Create a recorder with the given configuration. A disabled config
    /// allocates no ring storage.
    pub fn new(config: TraceConfig) -> Self {
        let cap = if config.enabled() {
            config.capacity.min(65_536)
        } else {
            0
        };
        FlightRecorder {
            config,
            ring: VecDeque::with_capacity(cap),
            seen: 0,
            sampled: 0,
            dropped: 0,
        }
    }

    /// Deterministic sampling decision for the next accepted request.
    /// Call exactly once per request; returns `true` for every
    /// `sample_every`-th call starting with the first.
    pub fn should_sample(&mut self) -> bool {
        if !self.config.enabled() {
            return false;
        }
        let pick = self.seen.is_multiple_of(self.config.sample_every);
        self.seen += 1;
        pick
    }

    /// Record a completed span tree, evicting the oldest if at capacity.
    pub fn record(&mut self, tree: SpanTree) {
        if !self.config.enabled() || self.config.capacity == 0 {
            return;
        }
        if self.ring.len() >= self.config.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(tree);
        self.sampled += 1;
    }

    /// Iterate retained trees, oldest first.
    pub fn trees(&self) -> impl Iterator<Item = &SpanTree> {
        self.ring.iter()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total trees recorded (including any later evicted).
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Trees evicted from the ring to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the retained trees, oldest first, resetting the ring (counters
    /// are kept).
    pub fn take_trees(&mut self) -> Vec<SpanTree> {
        self.ring.drain(..).collect()
    }

    /// Aggregate the retained trees into a [`PhaseBreakdown`].
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown::from_trees(self.ring.iter(), self.sampled, self.dropped)
    }
}

/// Latency statistics for one phase within one grouping.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// The phase.
    pub phase: Phase,
    /// Number of spans observed.
    pub count: u64,
    /// Total time spent in the phase, seconds.
    pub total_s: f64,
    /// Mean span duration, seconds.
    pub mean_s: f64,
    /// Median span duration, seconds.
    pub p50_s: f64,
    /// 95th-percentile span duration, seconds.
    pub p95_s: f64,
}

/// Per-phase statistics for one named group (a tenant or an endpoint).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupPhases {
    /// Group key: the tenant name or endpoint name.
    pub(crate) name: String,
    /// Stats for each phase the group's requests passed through, in
    /// lifecycle order. Phases never observed are omitted.
    pub(crate) by_phase: Vec<PhaseStats>,
}

/// Critical-path attribution: how often each phase dominated a request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathEntry {
    /// The phase.
    pub phase: Phase,
    /// Requests whose single largest phase was this one.
    pub requests: u64,
    /// This phase's share of total attributed time across all sampled
    /// requests, in `[0, 1]`.
    pub time_share: f64,
}

/// Aggregated phase-latency view over the sampled span trees.
///
/// This is the summary that flows into the `GatewayReport`, the dashboard's
/// phase section, the Prometheus exposition and the bench artifact's trace
/// section.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Total trees recorded by the flight recorder.
    #[serde(default)]
    pub sampled: u64,
    /// Trees evicted from the ring before aggregation.
    #[serde(default)]
    pub dropped: u64,
    /// Overall per-phase stats, lifecycle order, unobserved phases omitted.
    #[serde(default)]
    pub by_phase: Vec<PhaseStats>,
    /// Per-tenant per-phase stats, tenants sorted by name.
    #[serde(default)]
    pub by_tenant: Vec<GroupPhases>,
    /// Per-endpoint per-phase stats, endpoints sorted by name. Requests that
    /// never reached an endpoint (cache hits, early failures) are grouped
    /// under an empty name and omitted here.
    #[serde(default)]
    pub(crate) by_endpoint: Vec<GroupPhases>,
    /// Which phase dominated each request, sorted by request count
    /// descending then lifecycle order.
    #[serde(default)]
    pub critical_path: Vec<CriticalPathEntry>,
}

/// Per-phase accumulation: span durations in integer micros (exact).
type PhaseDurations = [Vec<u64>; 13];

/// Intermediate accumulation over the sampled trees, before quantiles.
#[derive(Default)]
struct Accumulated {
    overall: PhaseDurations,
    tenants: BTreeMap<String, PhaseDurations>,
    endpoints: BTreeMap<String, PhaseDurations>,
    dominated: [u64; 13],
    attributed_total: u64,
}

fn accumulate<'a>(trees: impl Iterator<Item = &'a SpanTree>) -> Accumulated {
    let mut overall: PhaseDurations = Default::default();
    let mut tenants: BTreeMap<String, PhaseDurations> = BTreeMap::new();
    let mut endpoints: BTreeMap<String, PhaseDurations> = BTreeMap::new();
    let mut dominated = [0u64; 13];
    let mut attributed_total = 0u64;
    for tree in trees {
        let mut dominant: Option<(usize, u64)> = None;
        for span in tree.spans.iter().filter(|s| s.parent.is_some()) {
            let idx = span.phase.index();
            let us = span.duration_micros();
            overall[idx].push(us);
            attributed_total += us;
            tenants.entry(tree.tenant.clone()).or_default()[idx].push(us);
            if !tree.endpoint.is_empty() {
                endpoints.entry(tree.endpoint.clone()).or_default()[idx].push(us);
            }
            if dominant.map(|(_, best)| us > best).unwrap_or(true) {
                dominant = Some((idx, us));
            }
        }
        if let Some((idx, _)) = dominant {
            dominated[idx] += 1;
        }
    }
    Accumulated {
        overall,
        tenants,
        endpoints,
        dominated,
        attributed_total,
    }
}

fn percentile_micros(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn stats_from(durations: &mut PhaseDurations) -> Vec<PhaseStats> {
    let mut out = Vec::new();
    for phase in Phase::ALL {
        let samples = &mut durations[phase.index()];
        if samples.is_empty() {
            continue;
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let total: u64 = samples.iter().sum();
        out.push(PhaseStats {
            phase,
            count,
            total_s: total as f64 / 1e6,
            mean_s: total as f64 / 1e6 / count as f64,
            p50_s: percentile_micros(samples, 0.50) as f64 / 1e6,
            p95_s: percentile_micros(samples, 0.95) as f64 / 1e6,
        });
    }
    out
}

impl PhaseBreakdown {
    /// Aggregate an iterator of span trees (plus the recorder's counters)
    /// into the breakdown. Deterministic: group maps are ordered, durations
    /// are integer micros and quantiles are nearest-rank.
    pub fn from_trees<'a>(
        trees: impl Iterator<Item = &'a SpanTree>,
        sampled: u64,
        dropped: u64,
    ) -> Self {
        let Accumulated {
            mut overall,
            tenants,
            endpoints,
            dominated,
            attributed_total,
        } = accumulate(trees);
        let group = |map: BTreeMap<String, PhaseDurations>| -> Vec<GroupPhases> {
            map.into_iter()
                .map(|(name, mut durs)| GroupPhases {
                    name,
                    by_phase: stats_from(&mut durs),
                })
                .collect()
        };
        let by_phase = stats_from(&mut overall);
        let mut critical_path: Vec<CriticalPathEntry> = Phase::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| dominated[*i] > 0)
            .map(|(i, phase)| {
                let phase_total: f64 = by_phase
                    .iter()
                    .find(|s| s.phase == *phase)
                    .map(|s| s.total_s)
                    .unwrap_or(0.0);
                CriticalPathEntry {
                    phase: *phase,
                    requests: dominated[i],
                    time_share: if attributed_total > 0 {
                        phase_total / (attributed_total as f64 / 1e6)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        critical_path.sort_by(|a, b| {
            b.requests
                .cmp(&a.requests)
                .then(a.phase.index().cmp(&b.phase.index()))
        });
        PhaseBreakdown {
            sampled,
            dropped,
            by_phase,
            by_tenant: group(tenants),
            by_endpoint: group(endpoints),
            critical_path,
        }
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render span trees in the Chrome trace-event format (the JSON object form
/// with a `traceEvents` array of `ph: "X"` complete events), loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Timestamps and durations are integer microseconds of sim time and events
/// are emitted in deterministic order (tree order, then span order), so two
/// same-seed runs export byte-identical JSON. Each request renders as its
/// own track (`tid` = request id) under a single `pid`.
pub fn chrome_trace_json<'a>(trees: impl Iterator<Item = &'a SpanTree>) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for tree in trees {
        for span in &tree.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":\"");
            out.push_str(span.phase.name());
            out.push_str("\",\"cat\":\"");
            out.push_str(if span.parent.is_none() {
                "request"
            } else {
                "phase"
            });
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            out.push_str(&span.start.as_micros().to_string());
            out.push_str(",\"dur\":");
            out.push_str(&span.duration_micros().to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&tree.request_id.to_string());
            out.push_str(",\"args\":{\"tenant\":\"");
            escape_json(&tree.tenant, &mut out);
            out.push_str("\",\"model\":\"");
            escape_json(&tree.model, &mut out);
            out.push_str("\",\"endpoint\":\"");
            escape_json(&tree.endpoint, &mut out);
            out.push_str("\",\"success\":");
            out.push_str(if tree.success { "true" } else { "false" });
            out.push_str(",\"cached\":");
            out.push_str(if tree.cached { "true" } else { "false" });
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tree(id: u64, tenant: &str, endpoint: &str, phases: &[(Phase, u64, u64)]) -> SpanTree {
        let mut spans = vec![Span {
            phase: Phase::Request,
            start: t(phases.first().map(|p| p.1).unwrap_or(0)),
            end: t(phases.last().map(|p| p.2).unwrap_or(0)),
            parent: None,
        }];
        spans.extend(phases.iter().map(|&(phase, s, e)| Span {
            phase,
            start: t(s),
            end: t(e),
            parent: Some(0),
        }));
        SpanTree {
            request_id: id,
            tenant: tenant.to_string(),
            model: "m".to_string(),
            endpoint: endpoint.to_string(),
            success: true,
            cached: false,
            spans,
        }
    }

    #[test]
    fn default_config_is_off_and_samples_nothing() {
        let mut rec = FlightRecorder::new(TraceConfig::default());
        assert!(!rec.config.enabled());
        for _ in 0..100 {
            assert!(!rec.should_sample());
        }
        rec.record(tree(1, "a", "e", &[(Phase::Prefill, 0, 10)]));
        assert!(rec.is_empty());
    }

    #[test]
    fn sampling_is_one_in_n_starting_with_the_first() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 3,
            capacity: 8,
        });
        let picks: Vec<bool> = (0..7).map(|_| rec.should_sample()).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::new(TraceConfig {
            sample_every: 1,
            capacity: 2,
        });
        for id in 0..5 {
            rec.record(tree(id, "a", "e", &[(Phase::Decode, 0, 10)]));
        }
        assert_eq!(rec.trees().count(), 2);
        assert_eq!(rec.sampled(), 5);
        assert_eq!(rec.dropped(), 3);
        let ids: Vec<u64> = rec.trees().map(|t| t.request_id).collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn well_formed_checks_nesting_and_ordering() {
        let good = tree(
            1,
            "a",
            "e",
            &[(Phase::QueueWait, 0, 5), (Phase::Prefill, 5, 20)],
        );
        assert!(good.well_formed());
        assert_eq!(good.end_to_end_micros(), 20);
        assert_eq!(good.phase_total_micros(), 20);
        assert_eq!(good.idle_micros(), 0);

        let mut escapes_root = good.clone();
        escapes_root.spans[2].end = t(99); // child past root end
        assert!(!escapes_root.well_formed());

        let mut reversed = good.clone();
        reversed.spans[1].end = t(0);
        reversed.spans[1].start = t(5);
        assert!(!reversed.well_formed());
    }

    #[test]
    fn breakdown_groups_by_tenant_and_endpoint_with_critical_path() {
        let trees = [
            tree(
                1,
                "alice",
                "ep-a",
                &[(Phase::QueueWait, 0, 10), (Phase::Decode, 10, 110)],
            ),
            tree(
                2,
                "bob",
                "ep-b",
                &[(Phase::QueueWait, 0, 50), (Phase::Decode, 50, 70)],
            ),
        ];
        let bd = PhaseBreakdown::from_trees(trees.iter(), 2, 0);
        assert_eq!(bd.sampled, 2);
        assert_eq!(bd.by_tenant.len(), 2);
        assert_eq!(bd.by_tenant[0].name, "alice");
        assert_eq!(bd.by_endpoint.len(), 2);
        let decode = bd
            .by_phase
            .iter()
            .find(|s| s.phase == Phase::Decode)
            .unwrap();
        assert_eq!(decode.count, 2);
        assert!((decode.total_s - 120e-6).abs() < 1e-12);
        // decode dominated request 1, queue-wait dominated request 2.
        assert_eq!(bd.critical_path.len(), 2);
        assert!(bd
            .critical_path
            .iter()
            .any(|e| e.phase == Phase::Decode && e.requests == 1));
        let share: f64 = bd.critical_path.iter().map(|e| e.time_share).sum();
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let trees = [tree(7, "alice \"quoted\"", "ep", &[(Phase::Prefill, 3, 9)])];
        let a = chrome_trace_json(trees.iter());
        let b = chrome_trace_json(trees.iter());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"tid\":7"));
        // The exporter's output must be real JSON: lean on the dev-dep
        // parser to prove it round-trips.
        let value = serde_json::parse_value_complete(&a).expect("parses");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn empty_breakdown_is_empty() {
        let bd = PhaseBreakdown::from_trees(std::iter::empty(), 0, 0);
        assert!(bd.by_phase.is_empty());
        assert!(bd.critical_path.is_empty());
    }
}
