//! Compute SDK client behaviour (Optimizations 1 and 2, §5.3.1).
//!
//! The gateway talks to the cloud service through the Compute SDK. Two client
//! behaviours changed during the paper's optimization campaign:
//!
//! * **Result retrieval** — originally the gateway polled task status every
//!   2 s; switching to future-based retrieval returns results as soon as they
//!   are relayed (Optimization 1).
//! * **Connection/token caching** — originally every request re-introspected
//!   the user token and created a fresh endpoint connection, costing about
//!   2 s per request and risking service-side rate limits; caching removed
//!   that (Optimization 2). The connection half of that cost lives here; the
//!   token half lives in the gateway's auth middleware.

use first_desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Interval at which a polling client asks the service for a result,
/// measured from submission (the pre-optimization gateway's 2 s).
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Cost of establishing a fresh endpoint connection when none is cached.
const CONNECTION_SETUP: SimDuration = SimDuration::from_millis(1100);

/// How the client learns that a task's result is ready.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResultMode {
    /// Future-based: delivered as soon as the service relays it.
    Futures,
    /// Poll the service every 2 s, measured from submission.
    Polling,
}

/// Client-side configuration of the Compute SDK as used by the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// Result retrieval mode (Optimization 1).
    pub result_mode: ResultMode,
    /// Whether endpoint connections are cached across requests (Optimization 2).
    pub connection_cache: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        // The optimized production configuration.
        ClientConfig {
            result_mode: ResultMode::Futures,
            connection_cache: true,
        }
    }
}

impl ClientConfig {
    /// The configuration before the paper's optimizations: polling retrieval,
    /// no connection caching.
    pub fn unoptimized() -> Self {
        ClientConfig {
            result_mode: ResultMode::Polling,
            connection_cache: false,
        }
    }

    /// Extra submission latency caused by connection establishment.
    /// `first_request_to_endpoint` is true when no cached connection exists.
    pub fn submit_overhead(&self, first_request_to_endpoint: bool) -> SimDuration {
        if self.connection_cache && !first_request_to_endpoint {
            SimDuration::ZERO
        } else {
            // A cache miss pays the setup once; no caching pays it every time.
            CONNECTION_SETUP
        }
    }

    /// When the client actually observes a result that the service made
    /// available at `available`, for a task submitted at `submitted`.
    pub fn observe_result_at(&self, submitted: SimTime, available: SimTime) -> SimTime {
        match self.result_mode {
            ResultMode::Futures => available,
            ResultMode::Polling => {
                let interval_us = POLL_INTERVAL.as_micros();
                let waited = available.saturating_since(submitted).as_micros();
                let polls = waited.div_ceil(interval_us);
                submitted + SimDuration::from_micros(polls * interval_us)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn futures_mode_observes_immediately() {
        let cfg = ClientConfig::default();
        let seen = cfg.observe_result_at(SimTime::from_secs(10), SimTime::from_secs(17));
        assert_eq!(seen, SimTime::from_secs(17));
    }

    #[test]
    fn polling_mode_rounds_up_to_poll_ticks() {
        let cfg = ClientConfig::unoptimized();
        // Submitted at t=10, available at t=16.5 → next poll at t=18.
        let seen = cfg.observe_result_at(SimTime::from_secs(10), SimTime::from_millis(16_500));
        assert_eq!(seen, SimTime::from_secs(18));
        // Available exactly on a tick is observed on that tick.
        let on_tick = cfg.observe_result_at(SimTime::from_secs(10), SimTime::from_secs(14));
        assert_eq!(on_tick, SimTime::from_secs(14));
    }

    #[test]
    fn polling_adds_latency_on_average() {
        let optimized = ClientConfig::default();
        let legacy = ClientConfig::unoptimized();
        let submitted = SimTime::ZERO;
        let mut extra = 0.0;
        for ms in (100..10_000).step_by(137) {
            let available = SimTime::from_millis(ms);
            let a = optimized
                .observe_result_at(submitted, available)
                .as_secs_f64();
            let b = legacy.observe_result_at(submitted, available).as_secs_f64();
            assert!(b >= a);
            extra += b - a;
        }
        assert!(extra > 0.0);
    }

    #[test]
    fn connection_cache_pays_setup_only_once() {
        let cached = ClientConfig::default();
        assert_eq!(cached.submit_overhead(true), SimDuration::from_millis(1100));
        assert_eq!(cached.submit_overhead(false), SimDuration::ZERO);
        let uncached = ClientConfig::unoptimized();
        assert_eq!(
            uncached.submit_overhead(true),
            SimDuration::from_millis(1100)
        );
        assert_eq!(
            uncached.submit_overhead(false),
            SimDuration::from_millis(1100)
        );
    }
}
