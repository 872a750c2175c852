//! # first-chaos — deterministic fault injection and resilience primitives
//!
//! FIRST's value proposition is keeping an OpenAI-compatible endpoint alive
//! on substrates that are *expected* to misbehave: batch jobs get preempted,
//! Globus-Compute endpoints flap, nodes crash mid-decode, WAN paths spike.
//! This crate provides both sides of that story for the simulation:
//!
//! * [`fault`] — seeded, schedule-driven fault plans ([`FaultPlan`]) and the
//!   [`FaultInjector`] that replays them against a deployment: node crashes
//!   and PBS preemptions (`first-hpc`), endpoint flaps, cluster outages and
//!   latency spikes (`first-fabric`), engine stalls (`first-serving`). The
//!   same seed always produces the same failure scenario. Shard-scoped plans
//!   ([`ShardFaultPlan`]) schedule federation-tier faults — whole-shard
//!   crashes and restarts — that the sharded scenario driver applies above
//!   the per-shard injectors.
//! * [`health`] — the resilience machinery the gateway consumes: per-endpoint
//!   [`HealthState`]s, an exponential-backoff [`RetryPolicy`], hedged-request
//!   support, a `CircuitBreaker`, and the [`ResilienceConfig`] bundle.
//!
//! `first-core` wires these through the stack: the federation router routes
//! around unavailable endpoints, the gateway retries and hedges idempotent
//! calls, and `first-telemetry` surfaces failover/retry/breaker-trip counters.

#![warn(missing_docs)]

pub mod fault;
pub mod health;

pub use fault::{FaultInjector, FaultKind, FaultPlan, ShardFaultKind, ShardFaultPlan};
pub use health::{HealthState, HealthTracker, ResilienceConfig, RetryPolicy};
