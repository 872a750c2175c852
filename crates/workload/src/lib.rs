//! # first-workload — synthetic workloads for the FIRST reproduction
//!
//! The paper's evaluation replays the ShareGPT dataset through vLLM's
//! benchmark script at controlled request rates, drives the WebUI with
//! simulated concurrent sessions, and reports production deployment volumes.
//! This crate generates statistically matched synthetic equivalents:
//!
//! * [`sharegpt`] — conversation length profile and prompt-text generator.
//! * [`arrival`] — fixed-rate, Poisson, "infinite" and Artillery-style
//!   sustained arrival processes.
//! * [`batchfile`] — OpenAI-style JSON Lines batch input files.
//! * [`sessions`] — closed-loop WebUI session plans for Table 1.
//! * [`trace`] — scaled ten-month deployment trace (8.7 M requests, 76 users).
//! * [`scenario`] — declarative multi-tenant scenario specs, the compiled
//!   request streams they produce, and the committed scenario catalog.
//! * [`cassette`] — recorded scenario runs as self-contained, pinnable
//!   replay fixtures (request stream + outcomes + fault timeline).

#![warn(missing_docs)]

pub mod arrival;
pub mod batchfile;
pub mod cassette;
pub mod scenario;
pub mod sessions;
pub mod sharegpt;
pub mod trace;

pub use arrival::{ArrivalProcess, ReplayEntry, ReplayTrack, SustainedLoad};
pub use batchfile::{BatchInputFile, ChatMessage};
pub use cassette::{Cassette, CassetteError, RequestOutcome};
pub use scenario::{
    catalog, DeploymentRef, ModelShare, ScenarioArrival, ScenarioRequest, ScenarioSpec, SloTarget,
    TenantClass, TenantWorkload,
};
pub use sessions::{generate_sessions, SessionWorkloadConfig};
pub use sharegpt::{ConversationSample, ShareGptGenerator, ShareGptProfile};
pub use trace::{generate_trace, DeploymentTraceConfig, TraceEntryKind};
