//! # FIRST — Federated Inference Resource Scheduling Toolkit
//!
//! Root façade crate: re-exports every workspace crate under one name so the
//! examples and integration tests at the repository top level have a single
//! import surface.
//!
//! * [`desim`] — deterministic discrete-event simulation kernel.
//! * [`auth`] — Globus-Auth-style identity, token, group and policy service.
//! * [`chaos`] — deterministic fault injection and resilience primitives
//!   (fault plans, health tracking, retries, circuit breaker).
//! * [`hpc`] — GPU cluster substrate with a PBS-like batch scheduler.
//! * [`serving`] — model catalog, performance model, continuous-batching
//!   engine, frontends, offline batch runner and the OpenAI-cloud comparator.
//! * [`fabric`] — Globus-Compute-style federated function-serving fabric.
//! * [`workload`] — ShareGPT-like workloads, arrival processes, batch files.
//! * [`vector`] — embeddings, vector indexes and the RAG pipeline.
//! * [`telemetry`] — metric registry, dashboards, exposition and alerting.
//! * [`core`] — the FIRST gateway itself plus the end-to-end system simulator.

#![warn(missing_docs)]

pub use first_auth as auth;
pub use first_chaos as chaos;
pub use first_core as core;
pub use first_desim as desim;
pub use first_fabric as fabric;
pub use first_hpc as hpc;
pub use first_serving as serving;
pub use first_telemetry as telemetry;
pub use first_vector as vector;
pub use first_workload as workload;
