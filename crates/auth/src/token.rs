//! Access and refresh tokens.
//!
//! Tokens are opaque strings issued by the auth service; per the paper (§4.6)
//! access tokens are valid for 48 hours and can be refreshed without a new
//! interactive login.

use crate::identity::UserId;
use first_desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Default access-token lifetime (48 hours, §4.6).
pub const DEFAULT_ACCESS_TOKEN_LIFETIME: SimDuration = SimDuration(48 * 3600 * 1_000_000);

/// Scopes a token may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// Call the inference gateway API.
    InferenceApi,
    /// Submit batch jobs.
    Batch,
    /// Administer the service (register models, endpoints).
    Admin,
    /// Act as the Globus-Compute confidential client.
    ComputeClient,
}

/// An opaque bearer token string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TokenString(pub String);

impl TokenString {
    /// Wrap a raw token value.
    pub fn new(s: impl Into<String>) -> Self {
        TokenString(s.into())
    }
}

/// Server-side record of an issued access token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessToken {
    /// The bearer value presented in request headers.
    pub token: TokenString,
    /// Principal the token was issued to.
    pub user: UserId,
    /// Scopes granted.
    pub scopes: Vec<Scope>,
    /// Issue time.
    pub issued_at: SimTime,
    /// Expiry time.
    pub expires_at: SimTime,
    /// Whether the token has been revoked by an administrator.
    pub revoked: bool,
    /// Paired refresh token, if offline refresh was requested.
    pub refresh_token: Option<TokenString>,
}

impl AccessToken {
    /// Whether the token is valid (not expired, not revoked) at `now`.
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        !self.revoked && now < self.expires_at
    }
}

/// The result of a successful token introspection, as the gateway sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntrospectionResult {
    /// Principal the token belongs to.
    pub user: UserId,
    /// Scopes attached to the token.
    pub scopes: Vec<Scope>,
    /// Groups the user belongs to, resolved at introspection time.
    pub groups: Vec<String>,
    /// Token expiry.
    pub expires_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(issued: SimTime) -> AccessToken {
        AccessToken {
            token: TokenString::new("tok"),
            user: UserId::new("alice"),
            scopes: vec![Scope::InferenceApi],
            issued_at: issued,
            expires_at: issued + DEFAULT_ACCESS_TOKEN_LIFETIME,
            revoked: false,
            refresh_token: None,
        }
    }

    #[test]
    fn token_valid_until_expiry() {
        let t = sample(SimTime::ZERO);
        assert!(t.is_valid_at(SimTime::from_secs(3600)));
        assert!(t.is_valid_at(SimTime::from_secs(48 * 3600 - 1)));
        assert!(!t.is_valid_at(SimTime::from_secs(48 * 3600)));
    }

    #[test]
    fn revoked_token_is_invalid() {
        let mut t = sample(SimTime::ZERO);
        t.revoked = true;
        assert!(!t.is_valid_at(SimTime::from_secs(1)));
    }
}
