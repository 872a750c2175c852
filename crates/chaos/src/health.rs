//! Endpoint health tracking and resilience policies.
//!
//! The paper's production concern — keeping an always-on API alive on top of
//! batch-scheduled, preemptible HPC substrates — needs more than the §4.5
//! routing priorities: the gateway must know *which* endpoints are currently
//! trustworthy, back off before hammering a flapping site, stop sending work
//! to a dead one, and hedge requests that appear stuck. This module provides
//! those primitives: per-endpoint [`HealthState`]s driven by observed
//! successes/failures, an exponential-backoff [`RetryPolicy`], a
//! `CircuitBreaker`, and the [`ResilienceConfig`] bundle the gateway
//! consumes.

use first_desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Coarse health of one federated endpoint, as seen from the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Recent requests succeeded; route freely.
    Healthy,
    /// Recent failures (or a half-open breaker probing recovery): route only
    /// when no healthy endpoint is available.
    Degraded,
    /// Circuit breaker open: do not route here.
    Unavailable,
}

impl HealthState {
    /// Numeric severity used for the `first_endpoint_health` gauge
    /// (0 = healthy, 1 = degraded, 2 = unavailable).
    pub fn severity(&self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Unavailable => 2.0,
        }
    }

    /// Short label for dashboards and `/jobs`.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Unavailable => "unavailable",
        }
    }
}

/// Exponential-backoff retry policy for idempotent gateway requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial try (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Multiplier applied per subsequent retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::from_millis(500),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Backoff before retry number `attempt` (0-based): `base * m^attempt`,
    /// capped at `max_backoff`. Deterministic — no jitter, so simulations
    /// reproduce bit-for-bit from the seed.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = self.multiplier.max(1.0).powi(attempt.min(30) as i32);
        let backed = self.base_backoff.mul_f64(factor);
        if backed.as_micros() > self.max_backoff.as_micros() {
            self.max_backoff
        } else {
            backed
        }
    }
}

/// Consecutive failures that trip a circuit breaker open.
const FAILURE_THRESHOLD: u32 = 3;

/// How long a breaker stays open before allowing a half-open probe.
const OPEN_FOR: SimDuration = SimDuration::from_secs(60);

/// How long past the breaker's open window an endpoint is still reported
/// [`HealthState::Degraded`]: after its last failure an endpoint spends up to
/// `OPEN_FOR` unavailable, then stays degraded until `OPEN_FOR +
/// DEGRADED_WINDOW` has elapsed since that failure, after which it
/// optimistically returns to full rotation.
const DEGRADED_WINDOW: SimDuration = SimDuration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    /// Open until the embedded instant; afterwards half-open (one probe).
    Open(SimTime),
}

/// A per-endpoint circuit breaker (closed → open → half-open → closed).
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub(crate) fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Whether the breaker is open (not yet probing) at `now`.
    fn is_open(&self, now: SimTime) -> bool {
        matches!(self.state, BreakerState::Open(until) if now < until)
    }

    /// Times the breaker has transitioned to open.
    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }

    /// Record a success at `now`. Closes the breaker only from the closed or
    /// half-open state: a stale success relayed for work that was already in
    /// flight before an outage must not reset a fully-open breaker while the
    /// endpoint is still unreachable.
    pub(crate) fn on_success(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Open(until) if now < until => {}
            _ => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
            }
        }
    }

    /// Record a failure. Returns `true` when this failure (re-)tripped the
    /// breaker open — a failed half-open probe reopens immediately.
    pub(crate) fn on_failure(&mut self, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::Open(until) if now >= until => {
                // Half-open probe failed: reopen for another window.
                self.state = BreakerState::Open(now + OPEN_FOR);
                self.trips += 1;
                true
            }
            BreakerState::Open(_) => false,
            BreakerState::Closed => {
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open(now + OPEN_FOR);
                    self.trips += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Rolling health record for one endpoint.
#[derive(Debug, Clone)]
struct EndpointHealth {
    breaker: CircuitBreaker,
    successes: u64,
    failures: u64,
    last_failure_at: Option<SimTime>,
}

impl EndpointHealth {
    fn new() -> Self {
        EndpointHealth {
            breaker: CircuitBreaker::new(),
            successes: 0,
            failures: 0,
            last_failure_at: None,
        }
    }
}

/// Per-endpoint health states driven by observed request outcomes.
///
/// The tracker is consulted by the failover-aware federation router (route
/// around unavailable endpoints), by the gateway's retry logic (pick a
/// different site), and by the telemetry layer (the `first_endpoint_health`
/// gauge and the sustained-unavailability alert).
///
/// [`HealthTracker::default`] tracks no endpoint yet; every endpoint gets
/// the same breaker tuning.
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    endpoints: BTreeMap<String, EndpointHealth>,
}

impl HealthTracker {
    /// The endpoint's record, created on first use; an endpoint already
    /// tracked costs a lookup, not a name allocation.
    fn entry(&mut self, endpoint: &str) -> &mut EndpointHealth {
        if !self.endpoints.contains_key(endpoint) {
            self.endpoints
                .insert(endpoint.to_string(), EndpointHealth::new());
        }
        self.endpoints.get_mut(endpoint).expect("inserted above")
    }

    /// Record a successful request served by `endpoint`.
    pub fn on_success(&mut self, endpoint: &str, now: SimTime) {
        let e = self.entry(endpoint);
        e.successes += 1;
        e.breaker.on_success(now);
    }

    /// Record a failed request attributed to `endpoint`. Returns `true` when
    /// the failure tripped the endpoint's circuit breaker open.
    pub fn on_failure(&mut self, endpoint: &str, now: SimTime) -> bool {
        let e = self.entry(endpoint);
        e.failures += 1;
        e.last_failure_at = Some(now);
        e.breaker.on_failure(now)
    }

    /// The endpoint's health state at `now`. Unknown endpoints are healthy.
    pub fn state(&self, endpoint: &str, now: SimTime) -> HealthState {
        let Some(e) = self.endpoints.get(endpoint) else {
            return HealthState::Healthy;
        };
        if e.breaker.is_open(now) {
            return HealthState::Unavailable;
        }
        // Degraded while the breaker is half-open or a failure is recent;
        // long after the last failure the endpoint optimistically returns to
        // full rotation (a healthy-preferred router would otherwise never
        // probe it again). A failure during the aged-out phase reopens the
        // breaker immediately, so the optimism is bounded.
        let recently_failed = e
            .last_failure_at
            .map(|at| now.saturating_since(at) < OPEN_FOR + DEGRADED_WINDOW);
        match recently_failed {
            Some(true) => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }

    /// Whether the router may send work to `endpoint` at `now` (anything but
    /// an open breaker; half-open endpoints accept probe traffic).
    pub fn allows(&self, endpoint: &str, now: SimTime) -> bool {
        self.state(endpoint, now) != HealthState::Unavailable
    }

    /// Total breaker trips across all endpoints.
    pub fn trips(&self) -> u64 {
        self.endpoints.values().map(|e| e.breaker.trips()).sum()
    }

    /// `(successes, failures)` recorded for an endpoint.
    pub fn counts(&self, endpoint: &str) -> (u64, u64) {
        self.endpoints
            .get(endpoint)
            .map(|e| (e.successes, e.failures))
            .unwrap_or((0, 0))
    }
}

/// The resilience bundle the gateway consumes: failover-aware routing,
/// retries, hedging and circuit breaking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ResilienceConfig {
    /// Master switch. When `false` the gateway behaves exactly like the
    /// paper's proof of concept: failures are returned to the client as-is.
    pub enabled: bool,
    /// Retry policy for idempotent requests that failed at an endpoint.
    pub retry: RetryPolicy,
    /// Hedge a request still unanswered after this long by duplicating it to
    /// another endpoint (first response wins). `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
}

impl ResilienceConfig {
    /// The hardened production profile: retries, failover, breaker and
    /// hedging all on.
    pub fn production() -> Self {
        ResilienceConfig {
            enabled: true,
            retry: RetryPolicy::default(),
            hedge_after: Some(SimDuration::from_secs(60)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_millis(500));
        assert_eq!(p.backoff(1), SimDuration::from_secs(1));
        assert_eq!(p.backoff(2), SimDuration::from_secs(2));
        // Far past the cap.
        assert_eq!(p.backoff(20), SimDuration::from_secs(30));
        assert_eq!(RetryPolicy::disabled().max_retries, 0);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new();
        let t0 = SimTime::ZERO;
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert!(!b.is_open(t0));
        // Third consecutive failure trips it.
        assert!(b.on_failure(t0));
        assert_eq!(b.trips(), 1);
        assert!(b.is_open(SimTime::from_secs(30)));
        // A stale success arriving while the breaker is still open (work that
        // was in flight before the outage) must not reset it.
        b.on_success(SimTime::from_secs(30));
        assert!(b.is_open(SimTime::from_secs(31)));
        // After open_for, a half-open probe is allowed.
        assert!(!b.is_open(SimTime::from_secs(61)));
        // Successful probe closes the breaker.
        b.on_success(SimTime::from_secs(61));
        assert!(!b.is_open(SimTime::from_secs(62)));
    }

    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::new();
        for _ in 0..3 {
            b.on_failure(SimTime::ZERO);
        }
        // Probe at t=61 fails: reopen until t=121.
        assert!(b.on_failure(SimTime::from_secs(61)));
        assert_eq!(b.trips(), 2);
        assert!(b.is_open(SimTime::from_secs(100)));
        assert!(!b.is_open(SimTime::from_secs(121)));
    }

    #[test]
    fn tracker_reports_states_and_allows() {
        let mut h = HealthTracker::default();
        let t = SimTime::from_secs(10);
        assert_eq!(h.state("sophia-endpoint", t), HealthState::Healthy);
        assert!(h.allows("sophia-endpoint", t));

        // One failure: degraded but still routable.
        assert!(!h.on_failure("sophia-endpoint", t));
        assert_eq!(h.state("sophia-endpoint", t), HealthState::Degraded);
        assert!(h.allows("sophia-endpoint", t));

        // Two more: breaker opens, endpoint unavailable.
        h.on_failure("sophia-endpoint", t);
        assert!(h.on_failure("sophia-endpoint", t));
        assert_eq!(h.state("sophia-endpoint", t), HealthState::Unavailable);
        assert!(!h.allows("sophia-endpoint", t));
        assert_eq!(h.trips(), 1);

        // Recovery: half-open probe, then success, then the degraded window
        // elapses and the endpoint is healthy again.
        let probe = t + SimDuration::from_secs(61);
        assert_eq!(h.state("sophia-endpoint", probe), HealthState::Degraded);
        h.on_success("sophia-endpoint", probe);
        let later = probe + SimDuration::from_secs(300);
        assert_eq!(h.state("sophia-endpoint", later), HealthState::Healthy);
        assert_eq!(h.counts("sophia-endpoint"), (1, 3));
    }

    #[test]
    fn severity_and_labels_are_monotone() {
        assert_eq!(HealthState::Healthy.severity(), 0.0);
        assert_eq!(HealthState::Degraded.severity(), 1.0);
        assert_eq!(HealthState::Unavailable.severity(), 2.0);
        assert_eq!(HealthState::Unavailable.label(), "unavailable");
    }

    #[test]
    fn production_profile_enables_everything() {
        let c = ResilienceConfig::production();
        assert!(c.enabled);
        assert!(c.retry.max_retries > 0);
        assert!(c.hedge_after.is_some());
        assert!(!ResilienceConfig::default().enabled);
    }
}
