//! Access and refresh tokens.
//!
//! Tokens are opaque strings issued by the auth service; per the paper (§4.6)
//! access tokens are valid for 48 hours and can be refreshed without a new
//! interactive login.

use crate::identity::UserId;
use first_desim::{SimDuration, SimTime};

/// Default access-token lifetime (48 hours, §4.6).
pub(crate) const DEFAULT_ACCESS_TOKEN_LIFETIME: SimDuration = SimDuration(48 * 3600 * 1_000_000);

/// Scopes a token may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TokenString(pub String);

impl TokenString {
    /// Wrap a raw token value.
    pub fn new(s: impl Into<String>) -> Self {
        TokenString(s.into())
    }
}

/// Server-side record of an issued access token.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessToken {
    /// The bearer value presented in request headers.
    pub token: TokenString,
    /// Principal the token was issued to.
    pub(crate) user: UserId,
    /// Scopes granted.
    pub(crate) scopes: Vec<Scope>,
    /// Expiry time.
    pub(crate) expires_at: SimTime,
    /// Whether the token has been revoked by an administrator.
    pub(crate) revoked: bool,
    /// Paired refresh token, if offline refresh was requested.
    pub refresh_token: Option<TokenString>,
}

/// The result of a successful token introspection, as the gateway sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct IntrospectionResult {
    /// Principal the token belongs to.
    pub user: UserId,
    /// Scopes attached to the token.
    pub scopes: Vec<Scope>,
    /// Groups the user belongs to, resolved at introspection time.
    pub(crate) groups: Vec<String>,
    /// Token expiry.
    pub expires_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AuthError;
    use crate::identity::Identity;
    use crate::policy::AccessPolicy;
    use crate::service::AuthService;

    fn issue() -> (AuthService, AccessToken) {
        let mut svc = AuthService::new(AccessPolicy::default(), 7);
        svc.enroll_user(&UserId::new("alice"));
        let (tok, _) = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap();
        (svc, tok)
    }

    #[test]
    fn token_valid_until_expiry() {
        let (mut svc, t) = issue();
        assert!(svc.introspect(&t.token, SimTime::from_secs(3600)).0.is_ok());
        assert!(svc
            .introspect(&t.token, SimTime::from_secs(48 * 3600 - 1))
            .0
            .is_ok());
        let (res, _) = svc.introspect(&t.token, SimTime::from_secs(48 * 3600));
        assert_eq!(res.unwrap_err(), AuthError::TokenExpired);
    }

    #[test]
    fn revoked_token_is_invalid() {
        let (mut svc, t) = issue();
        svc.revoke(&t.token).unwrap();
        let (res, _) = svc.introspect(&t.token, SimTime::from_secs(1));
        assert_eq!(res.unwrap_err(), AuthError::TokenRevoked);
    }
}
