//! # first-auth — Globus-Auth-style identity and access management
//!
//! The paper gates every FIRST request with Globus Auth (§3.1.2): users log in
//! through institutional identity providers (OAuth2/OIDC with MFA), the
//! gateway acts as a resource server that introspects bearer tokens, Globus
//! Groups provide role-based access control, and the administrator-owned
//! confidential client is the only principal allowed to reach the compute
//! endpoints directly. This crate reproduces those behaviours as an in-process
//! service with a modelled call latency so the end-to-end simulation can show
//! the effect of the gateway's token-introspection cache (Optimization 2).

#![warn(missing_docs)]

pub mod error;
pub mod groups;
pub mod identity;
pub mod policy;
pub mod service;
pub mod token;

pub use identity::{Identity, UserId};
pub use policy::{AccessPolicy, ResourceRule};
pub use service::AuthService;
pub use token::{IntrospectionResult, Scope, TokenString};
