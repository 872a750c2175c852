//! Request logging and the metrics layer (§3.1.1).
//!
//! The production gateway logs every user activity in PostgreSQL and exposes
//! real-time and summary metrics through a dashboard. Here the log is an
//! in-memory append-only store with the query patterns the dashboard needs
//! (per-user, per-model, deployment totals, per-model latencies), and the
//! metrics layer keeps the counters the log cannot give.
//!
//! A log row holds ids, not names. The log owns the user interner the
//! gateway interns authenticated users into; model and endpoint names stay
//! with the registry and the compute service, and the gateway resolves them
//! when a report is read ([`crate::Gateway::usage_by_model`],
//! [`crate::Gateway::endpoint_name`]).

use crate::api::ApiOperation;
use crate::registry::ModelId;
use first_desim::{Histogram, Interner, SimDuration, SimTime, SymbolId};
use first_fabric::EndpointId;
use std::collections::BTreeMap;

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

/// What the request log says about the requests the gateway answered: the
/// metrics layer's outcome counters and per-model latencies, derived on
/// read rather than kept beside the log.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnsweredTotals {
    /// Requests answered successfully (cache hits included).
    pub(crate) completed: u64,
    /// Requests answered with a failure.
    pub(crate) failed: u64,
    /// Completion tokens returned by successful requests.
    pub(crate) output_tokens: u64,
    /// End-to-end latency (seconds) of each model's successful requests.
    pub(crate) latency_by_model: BTreeMap<ModelId, Histogram>,
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

    /// Number of distinct users seen.
    pub fn distinct_users(&self) -> usize {
        let mut users: Vec<UserSym> = self.entries.iter().map(|e| e.user).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }

    /// Per-user usage aggregates.
    pub fn usage_by_user(&self) -> BTreeMap<String, UsageSummary> {
        let mut out: BTreeMap<String, UsageSummary> = BTreeMap::new();
        for e in &self.entries {
            let s = out.entry(self.user_name(e.user).to_string()).or_default();
            s.requests += 1;
            s.total_tokens += e.total_tokens();
            s.completion_tokens += e.completion_tokens as u64;
            if !e.success {
                s.failures += 1;
            }
        }
        out
    }

    /// Per-model usage aggregates, keyed by the name `model_name` gives each
    /// model id (the registry's, for a gateway's log).
    pub fn usage_by_model<'n>(
        &self,
        model_name: impl Fn(ModelId) -> &'n str,
    ) -> BTreeMap<String, UsageSummary> {
        let mut by_id: BTreeMap<ModelId, UsageSummary> = BTreeMap::new();
        for e in &self.entries {
            let s = by_id.entry(e.model).or_default();
            s.requests += 1;
            s.total_tokens += e.total_tokens();
            s.completion_tokens += e.completion_tokens as u64;
            if !e.success {
                s.failures += 1;
            }
        }
        by_id
            .into_iter()
            .map(|(id, usage)| (model_name(id).to_string(), usage))
            .collect()
    }

    /// Interactive vs batch request counts.
    pub fn interactive_batch_split(&self) -> (u64, u64) {
        let batch = self.entries.iter().filter(|e| e.batch).count() as u64;
        (self.entries.len() as u64 - batch, batch)
    }

    /// Fold the log into the metrics layer's totals.
    pub(crate) fn answered_totals(&self) -> AnsweredTotals {
        let mut totals = AnsweredTotals::default();
        for e in &self.entries {
            if !e.success {
                totals.failed += 1;
                continue;
            }
            totals.completed += 1;
            totals.output_tokens += e.completion_tokens as u64;
            totals
                .latency_by_model
                .entry(e.model)
                .or_default()
                .record(e.latency().as_secs_f64());
        }
        totals
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
    /// Requests rejected before dispatch (auth, rate limit, validation).
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
        let alice = log.intern_user("alice");
        let bob = log.intern_user("bob");
        log.record(entry(alice, llama_70b, 200, true, false));
        log.record(entry(alice, llama_8b, 100, true, false));
        log.record(entry(bob, llama_70b, 50, false, true));
        assert_eq!(log.len(), 3);
        assert_eq!(log.distinct_users(), 2);
        let by_user = log.usage_by_user();
        assert_eq!(by_user["alice"].requests, 2);
        assert_eq!(by_user["alice"].completion_tokens, 300);
        assert_eq!(by_user["bob"].failures, 1);
        let by_model = log.usage_by_model(|m| MODELS[m.index()]);
        assert_eq!(by_model["llama-70b"].requests, 2);
        assert_eq!(by_model["llama-70b"].failures, 1);
        assert_eq!(by_model["llama-8b"].requests, 1);
        assert_eq!(log.interactive_batch_split(), (2, 1));
        // Interning is idempotent, and ids resolve back to their names.
        assert_eq!(log.intern_user("alice"), alice);
        assert_eq!(log.user_name(log.entries()[2].user), "bob");
    }

    #[test]
    fn log_entry_latency() {
        let e = entry(SymbolId(0), SymbolId(0), 10, true, false);
        assert_eq!(e.latency(), SimDuration::from_secs(3));
        assert_eq!(e.total_tokens(), 110);
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
        let totals = log.answered_totals();
        assert_eq!((totals.completed, totals.failed), (2, 1));
        assert_eq!(totals.output_tokens, 330);
        // Only successful requests carry a latency.
        let latency = &totals.latency_by_model[&llama_70b];
        assert_eq!(latency.count(), 2);
        assert_eq!((latency.quantile(0.0), latency.quantile(100.0)), (3.0, 7.0));
        assert!(!totals.latency_by_model.contains_key(&llama_8b));
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
