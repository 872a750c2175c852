//! Error types for the authentication and authorization service.

use std::fmt;

/// Errors returned by the auth service and by policy evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The presented token is not known to the service.
    UnknownToken,
    /// The token exists but has expired.
    TokenExpired,
    /// The token has been revoked.
    TokenRevoked,
    /// The identity provider is not trusted by the deployment policy.
    UntrustedIdentityProvider(String),
    /// Multi-factor authentication is required but the identity lacks it.
    MfaRequired,
    /// The user is not a member of any group granting the requested access.
    NotAuthorized(String),
    /// A refresh was attempted with an unknown or expired refresh token.
    InvalidRefreshToken,
    /// The requested scope is not grantable to this user.
    ScopeNotAllowed(String),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownToken => write!(f, "unknown access token"),
            AuthError::TokenExpired => write!(f, "access token expired"),
            AuthError::TokenRevoked => write!(f, "access token revoked"),
            AuthError::UntrustedIdentityProvider(idp) => {
                write!(f, "identity provider '{idp}' is not trusted")
            }
            AuthError::MfaRequired => write!(f, "multi-factor authentication required"),
            AuthError::NotAuthorized(what) => write!(f, "not authorized for {what}"),
            AuthError::InvalidRefreshToken => write!(f, "invalid refresh token"),
            AuthError::ScopeNotAllowed(s) => write!(f, "scope '{s}' not allowed"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Convenient result alias.
pub(crate) type AuthResult<T> = Result<T, AuthError>;
