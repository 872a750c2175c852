//! Request logging and the metrics layer (§3.1.1).
//!
//! The production gateway logs every user activity in PostgreSQL and exposes
//! real-time and summary metrics through a dashboard. Here the log is an
//! in-memory append-only store, and the metrics layer keeps the counters the
//! log cannot give. Recording is one push; every read is one pass,
//! [`RequestLog::summary`], that allocates per model and per user, not per
//! row, but is still linear in the length of the log.
//!
//! A log row holds ids, not names, and the summary's rows sit in `Vec`s
//! indexed by them. The log owns the user interner the gateway interns
//! authenticated users into; model and endpoint names stay with the registry
//! and the compute service. A name is resolved when a reader asks for rows
//! in name order ([`LogSummary::users`], [`LogSummary::models`]) or for a
//! row's endpoint ([`crate::Gateway::endpoint_name`]).

use crate::api::ApiOperation;
use crate::registry::ModelId;
use first_desim::{Histogram, Interner, SimDuration, SimTime, SymbolId};
use first_fabric::EndpointId;
use first_telemetry::BucketHistogram;

/// Dense id of a submitting user (a tenant, in scenario runs), interned by
/// the gateway into its [`RequestLog`] when the request is authenticated.
pub type UserSym = SymbolId;

/// One logged request (the PostgreSQL row equivalent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLogEntry {
    /// Gateway-assigned request id.
    pub request_id: u64,
    /// Submitting user (`RequestLog::user_name`).
    pub user: UserSym,
    /// Target model ([`crate::ModelRegistry::model_name`]).
    pub model: ModelId,
    /// Endpoint the request was routed to ([`crate::Gateway::endpoint_name`]);
    /// `None` when it never reached one (cache hits).
    pub endpoint: Option<EndpointId>,
    /// API operation.
    pub operation: ApiOperation,
    /// Arrival time at the gateway.
    pub arrived_at: SimTime,
    /// Completion time (response returned to the user).
    pub finished_at: SimTime,
    /// Prompt tokens.
    pub prompt_tokens: u32,
    /// Completion tokens.
    pub completion_tokens: u32,
    /// Whether the request succeeded.
    pub success: bool,
    /// Whether the request was part of a batch job.
    pub batch: bool,
}

impl RequestLogEntry {
    /// End-to-end latency of the request.
    pub fn latency(&self) -> SimDuration {
        self.finished_at - self.arrived_at
    }

    /// Total tokens processed.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens as u64 + self.completion_tokens as u64
    }
}

/// Aggregates the dashboard shows per user or per model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageSummary {
    /// Requests logged.
    pub requests: u64,
    /// Prompt + completion tokens.
    pub total_tokens: u64,
    /// Completion tokens only.
    pub(crate) completion_tokens: u64,
    /// Failed requests.
    pub(crate) failures: u64,
}

/// One model's rows of the request log, folded.
#[derive(Debug, Default)]
pub struct ModelUsage {
    /// Requests, tokens and failures.
    pub usage: UsageSummary,
    /// Exact latencies (seconds) of the successful requests.
    pub(crate) latency: Histogram,
    /// Latencies (seconds) of every request, failed ones included, observed
    /// in log order into the exported buckets.
    pub(crate) latency_buckets: BucketHistogram,
}

/// Everything the monitoring readers take from the request log, folded in
/// one pass ([`RequestLog::summary`]). Rows are indexed by the dense model
/// id (a [`SymbolId`]) and [`UserSym`]; a row no log entry names has no
/// requests. Names are resolved when a reader asks for rows in name order.
#[derive(Debug)]
pub struct LogSummary<'a> {
    log: &'a RequestLog,
    /// Requests answered successfully (cache hits included).
    pub(crate) completed: u64,
    /// Requests answered with a failure.
    pub(crate) failed: u64,
    /// Completion tokens returned by successful requests.
    pub(crate) output_tokens: u64,
    /// Requests that were part of a batch job.
    pub batch: u64,
    pub(crate) models: Vec<ModelUsage>,
    users: Vec<UsageSummary>,
}

impl<'a> LogSummary<'a> {
    /// Per-model rows in the order of the names `model_name` gives each
    /// model id (the registry's, for a gateway's log).
    pub fn models<'n>(
        &self,
        model_name: impl Fn(ModelId) -> &'n str,
    ) -> Vec<(&'n str, &ModelUsage)> {
        in_name_order(&self.models, |m| &m.usage, model_name)
    }

    /// Per-user usage in user-name order.
    pub fn users(&self) -> Vec<(&'a str, &UsageSummary)> {
        in_name_order(&self.users, |u| u, |id| self.log.user_name(id))
    }
}

/// The id-indexed rows some log entry names, with their names, sorted by
/// name (names are unique within an id space).
fn in_name_order<'r, 'n, T>(
    rows: &'r [T],
    usage: impl Fn(&T) -> &UsageSummary,
    name: impl Fn(SymbolId) -> &'n str,
) -> Vec<(&'n str, &'r T)> {
    let logged = rows
        .iter()
        .enumerate()
        .filter(|(_, row)| usage(row).requests > 0);
    let mut named: Vec<_> = logged
        .map(|(i, row)| (name(SymbolId(i as u32)), row))
        .collect();
    named.sort_unstable_by_key(|&(name, _)| name);
    named
}

/// Append-only request log (PostgreSQL substitute).
#[derive(Debug, Clone, Default)]
pub struct RequestLog {
    entries: Vec<RequestLogEntry>,
    /// Names of the users whose ids the rows carry.
    users: Interner,
}

impl RequestLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry. Its user id should come from
    /// [`RequestLog::intern_user`].
    pub fn record(&mut self, entry: RequestLogEntry) {
        self.entries.push(entry);
    }

    /// The id of a user name, interned on first use.
    pub fn intern_user(&mut self, name: &str) -> UserSym {
        self.users.intern(name)
    }

    /// The name of an interned user.
    ///
    /// # Panics
    /// Panics if `id` was not returned by [`RequestLog::intern_user`].
    pub(crate) fn user_name(&self, id: UserSym) -> &str {
        self.users.resolve(id)
    }

    /// Number of logged requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all entries.
    pub fn entries(&self) -> &[RequestLogEntry] {
        &self.entries
    }

    /// Fold the log into its [`LogSummary`], one pass over the rows.
    pub fn summary(&self) -> LogSummary<'_> {
        let mut summary = LogSummary {
            log: self,
            completed: 0,
            failed: 0,
            output_tokens: 0,
            batch: 0,
            models: Vec::new(),
            users: vec![UsageSummary::default(); self.users.len()],
        };
        for e in &self.entries {
            let latency = e.latency().as_secs_f64();
            let model = e.model.index();
            if model >= summary.models.len() {
                summary.models.resize_with(model + 1, ModelUsage::default);
            }
            let model = &mut summary.models[model];
            model.latency_buckets.observe(latency);
            for usage in [&mut model.usage, &mut summary.users[e.user.index()]] {
                usage.requests += 1;
                usage.total_tokens += e.total_tokens();
                usage.completion_tokens += e.completion_tokens as u64;
                usage.failures += u64::from(!e.success);
            }
            summary.failed += u64::from(!e.success);
            summary.batch += u64::from(e.batch);
            if e.success {
                summary.completed += 1;
                summary.output_tokens += e.completion_tokens as u64;
                model.latency.record(latency);
            }
        }
        summary
    }
}

/// Live counters the gateway exposes (§3.1.1 "metrics layer") that the
/// request log cannot give: the log holds one row per answered request, so
/// arrivals, rejections and the resilience layer's extra copies are counted
/// here. Completions, failures, output tokens and latencies are folded
/// from the [`RequestLog`] when they are read.
#[derive(Debug, Clone, Default)]
pub struct GatewayMetrics {
    /// Requests received, indexed by [`ApiOperation`].
    received: [u64; ApiOperation::ALL.len()],
    /// Requests rejected before dispatch (auth, access, validation).
    pub(crate) rejected: u64,
    /// Retries of failed idempotent requests (resilience layer).
    pub retries: u64,
    /// Requests failed over to a different endpoint than the one that
    /// originally failed them.
    pub failovers: u64,
    /// Circuit-breaker trips observed across all endpoints.
    pub breaker_trips: u64,
    /// Hedged (duplicated) requests issued for slow in-flight calls.
    pub hedges: u64,
}

impl GatewayMetrics {
    /// Create empty metrics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Count a received request for an operation.
    pub(crate) fn on_received(&mut self, operation: ApiOperation) {
        self.received[operation as usize] += 1;
    }

    /// Requests received for an operation.
    pub(crate) fn received(&self, operation: ApiOperation) -> u64 {
        self.received[operation as usize]
    }

    /// Count a rejection.
    pub(crate) fn on_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Count a retry of a failed idempotent request.
    pub(crate) fn on_retry(&mut self) {
        self.retries += 1;
    }

    /// Count a failover to a different endpoint.
    pub(crate) fn on_failover(&mut self) {
        self.failovers += 1;
    }

    /// Count a circuit-breaker trip.
    pub(crate) fn on_breaker_trip(&mut self) {
        self.breaker_trips += 1;
    }

    /// Count a hedged (duplicated) request.
    pub(crate) fn on_hedge(&mut self) {
        self.hedges += 1;
    }

    /// Total requests received across operations.
    pub(crate) fn total_received(&self) -> u64 {
        self.received.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        user: UserSym,
        model: ModelId,
        tokens: u32,
        success: bool,
        batch: bool,
    ) -> RequestLogEntry {
        RequestLogEntry {
            request_id: 0,
            user,
            model,
            endpoint: Some(EndpointId(0)),
            operation: ApiOperation::ChatCompletions,
            arrived_at: SimTime::from_secs(1),
            finished_at: SimTime::from_secs(4),
            prompt_tokens: 100,
            completion_tokens: tokens,
            success,
            batch,
        }
    }

    #[test]
    fn log_aggregates_by_user_and_model() {
        const MODELS: [&str; 2] = ["llama-70b", "llama-8b"];
        let (llama_70b, llama_8b) = (SymbolId(0), SymbolId(1));
        let mut log = RequestLog::new();
        let bob = log.intern_user("bob");
        let alice = log.intern_user("alice");
        // Carol authenticates but logs no request.
        log.intern_user("carol");
        log.record(entry(alice, llama_70b, 150, true, false));
        log.record(RequestLogEntry {
            finished_at: SimTime::from_secs(8),
            ..entry(alice, llama_70b, 180, true, false)
        });
        log.record(entry(alice, llama_8b, 0, false, false));
        log.record(entry(bob, llama_70b, 0, false, true));
        assert_eq!(log.len(), 4);
        let summary = log.summary();
        assert_eq!((summary.completed, summary.failed), (2, 2));
        assert_eq!(summary.output_tokens, 330);
        assert_eq!(summary.batch, 1);
        // Users come out in name order, carol left out.
        let users = summary.users();
        let names: Vec<&str> = users.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["alice", "bob"]);
        assert_eq!(users[0].1.requests, 3);
        assert_eq!(users[0].1.completion_tokens, 330);
        assert_eq!(users[0].1.total_tokens, 630);
        assert_eq!(users[1].1.failures, 1);
        let models = summary.models(|m| MODELS[m.index()]);
        let (name, row) = models[0];
        assert_eq!(name, "llama-70b");
        assert_eq!((row.usage.requests, row.usage.failures), (3, 1));
        // Only successful requests carry an exact latency; the exported
        // buckets see every row.
        assert_eq!(row.latency.samples(), [3.0, 7.0]);
        assert_eq!(row.latency_buckets.count(), 3);
        let (name, row) = models[1];
        assert_eq!(
            (name, row.usage.requests, row.latency.count()),
            ("llama-8b", 1, 0)
        );
        assert_eq!(models.len(), 2);
        // Interning is idempotent, and ids resolve back to their names.
        assert_eq!(log.intern_user("alice"), alice);
        assert_eq!(log.user_name(log.entries()[3].user), "bob");
    }

    #[test]
    fn answered_totals_fold_the_log() {
        let (llama_70b, llama_8b) = (SymbolId(0), SymbolId(1));
        let mut log = RequestLog::new();
        let alice = log.intern_user("alice");
        log.record(entry(alice, llama_70b, 150, true, false));
        log.record(RequestLogEntry {
            finished_at: SimTime::from_secs(8),
            ..entry(alice, llama_70b, 180, true, false)
        });
        log.record(entry(alice, llama_8b, 0, false, false));
        let totals = log.summary();
        assert_eq!((totals.completed, totals.failed), (2, 1));
        assert_eq!(totals.output_tokens, 330);
        // Only successful requests carry a latency.
        let latency = &totals.models[llama_70b.index()].latency;
        assert_eq!(latency.count(), 2);
        assert_eq!(latency.samples(), [3.0, 7.0]);
        assert_eq!(totals.models[llama_8b.index()].latency.count(), 0);
    }

    #[test]
    fn log_entry_latency() {
        let e = entry(SymbolId(0), SymbolId(0), 10, true, false);
        assert_eq!(e.latency(), SimDuration::from_secs(3));
        assert_eq!(e.total_tokens(), 110);
    }

    #[test]
    fn metrics_track_lifecycle() {
        let mut m = GatewayMetrics::new();
        m.on_received(ApiOperation::ChatCompletions);
        m.on_received(ApiOperation::ChatCompletions);
        m.on_received(ApiOperation::Embeddings);
        m.on_rejected();
        assert_eq!(m.received(ApiOperation::ChatCompletions), 2);
        assert_eq!(m.received(ApiOperation::Embeddings), 1);
        assert_eq!(m.total_received(), 3);
        assert_eq!(m.rejected, 1);
    }
}
