//! The Globus-Auth-style authorization server.
//!
//! Issues access/refresh tokens for authenticated identities and introspects
//! bearer tokens for resource servers (the FIRST gateway).
//!
//! Introspection carries a modelled network/service latency: the paper's
//! Optimization 2 found that introspecting the token and re-creating endpoint
//! connections on every request added roughly two seconds, which caching
//! eliminated — the gateway's auth middleware reproduces that caching on top
//! of this service.

use crate::error::{AuthError, AuthResult};
use crate::groups::GroupRegistry;
use crate::identity::{Identity, UserId};
use crate::policy::AccessPolicy;
use crate::token::{
    AccessToken, IntrospectionResult, Scope, TokenString, DEFAULT_ACCESS_TOKEN_LIFETIME,
};
use first_desim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// Latency model for calls made to the (remote) auth service.
#[derive(Debug, Clone)]
pub(crate) struct AuthLatencyModel {
    /// Round-trip for a token introspection call.
    pub(crate) introspection: SimDuration,
    /// Round-trip for a token issue / refresh call.
    pub(crate) token_grant: SimDuration,
}

impl Default for AuthLatencyModel {
    fn default() -> Self {
        AuthLatencyModel {
            // ~0.9 s introspection round trip; together with connection
            // re-creation in the fabric client this forms the ≈2 s/request
            // overhead the paper's Optimization 2 removed via caching.
            introspection: SimDuration::from_millis(900),
            token_grant: SimDuration::from_millis(700),
        }
    }
}

/// The authorization server.
#[derive(Debug, Clone)]
pub struct AuthService {
    policy: AccessPolicy,
    groups: GroupRegistry,
    tokens: BTreeMap<String, AccessToken>,
    refresh_index: BTreeMap<String, String>,
    latency: AuthLatencyModel,
    rng: SimRng,
    next_token_id: u64,
}

impl AuthService {
    /// Create a service with the given deployment policy.
    pub fn new(policy: AccessPolicy, seed: u64) -> Self {
        AuthService {
            policy,
            groups: GroupRegistry::new(),
            tokens: BTreeMap::new(),
            refresh_index: BTreeMap::new(),
            latency: AuthLatencyModel::default(),
            rng: SimRng::seed_from_u64(seed ^ 0xA117),
            next_token_id: 1,
        }
    }

    /// Access the deployment policy.
    pub fn policy(&self) -> &AccessPolicy {
        &self.policy
    }

    /// Access the group registry.
    pub fn groups(&self) -> &GroupRegistry {
        &self.groups
    }

    /// Mutable access to the group registry.
    pub fn groups_mut(&mut self) -> &mut GroupRegistry {
        &mut self.groups
    }

    /// Register a user in the platform group so they pass the baseline policy.
    pub fn enroll_user(&mut self, user: &UserId) {
        for g in self.policy.platform_groups.clone() {
            self.groups.add_member(&g, user.clone());
        }
    }

    fn mint_token_string(&mut self, prefix: &str) -> TokenString {
        let id = self.next_token_id;
        self.next_token_id += 1;
        let salt: u64 = (self.rng.uniform01() * u64::MAX as f64) as u64;
        TokenString::new(format!("{prefix}-{id:08}-{salt:016x}"))
    }

    /// Interactive login: validates the identity against policy and issues an
    /// access token (with refresh token) carrying the requested scopes.
    /// Returns the token and the modelled grant latency.
    pub fn login(
        &mut self,
        identity: &Identity,
        scopes: &[Scope],
        now: SimTime,
    ) -> AuthResult<(AccessToken, SimDuration)> {
        self.policy.validate_login(identity)?;
        // The compute-client scope is reserved for the confidential client.
        if scopes.contains(&Scope::ComputeClient) {
            return Err(AuthError::ScopeNotAllowed("compute client".into()));
        }
        let token = self.mint_token_string("agv");
        let refresh = self.mint_token_string("rft");
        let record = AccessToken {
            token: token.clone(),
            user: identity.user.clone(),
            scopes: scopes.to_vec(),
            expires_at: now + DEFAULT_ACCESS_TOKEN_LIFETIME,
            revoked: false,
            refresh_token: Some(refresh.clone()),
        };
        self.tokens.insert(token.0.clone(), record.clone());
        self.refresh_index.insert(refresh.0, token.0);
        Ok((record, self.latency.token_grant))
    }

    /// Refresh an access token using its refresh token. The old access token
    /// is revoked and a new one issued with a fresh 48-hour lifetime.
    pub fn refresh(
        &mut self,
        refresh_token: &TokenString,
        now: SimTime,
    ) -> AuthResult<(AccessToken, SimDuration)> {
        let old_key = self
            .refresh_index
            .get(&refresh_token.0)
            .cloned()
            .ok_or(AuthError::InvalidRefreshToken)?;
        let old = self
            .tokens
            .get_mut(&old_key)
            .ok_or(AuthError::InvalidRefreshToken)?;
        old.revoked = true;
        let (user, scopes) = (old.user.clone(), old.scopes.clone());
        let token = self.mint_token_string("agv");
        let new_refresh = self.mint_token_string("rft");
        let record = AccessToken {
            token: token.clone(),
            user,
            scopes,
            expires_at: now + DEFAULT_ACCESS_TOKEN_LIFETIME,
            revoked: false,
            refresh_token: Some(new_refresh.clone()),
        };
        self.refresh_index.remove(&refresh_token.0);
        self.refresh_index.insert(new_refresh.0, token.0.clone());
        self.tokens.insert(token.0, record.clone());
        Ok((record, self.latency.token_grant))
    }

    /// Revoke an access token.
    pub fn revoke(&mut self, token: &TokenString) -> AuthResult<()> {
        match self.tokens.get_mut(&token.0) {
            Some(t) => {
                t.revoked = true;
                Ok(())
            }
            None => Err(AuthError::UnknownToken),
        }
    }

    /// Introspect a bearer token on behalf of a resource server. Returns the
    /// introspection result and the modelled service latency.
    pub fn introspect(
        &mut self,
        token: &TokenString,
        now: SimTime,
    ) -> (AuthResult<IntrospectionResult>, SimDuration) {
        let latency = self.latency.introspection;
        let result = match self.tokens.get(&token.0) {
            None => Err(AuthError::UnknownToken),
            Some(t) if t.revoked => Err(AuthError::TokenRevoked),
            Some(t) if now >= t.expires_at => Err(AuthError::TokenExpired),
            Some(t) => Ok(IntrospectionResult {
                user: t.user.clone(),
                scopes: t.scopes.clone(),
                groups: self.groups.groups_of(&t.user),
                expires_at: t.expires_at,
            }),
        };
        (result, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> AuthService {
        let mut svc = AuthService::new(AccessPolicy::default(), 7);
        svc.enroll_user(&UserId::new("alice"));
        svc
    }

    #[test]
    fn login_issues_valid_token() {
        let mut svc = service();
        let identity = Identity::new("alice", "anl.gov");
        let (tok, latency) = svc
            .login(&identity, &[Scope::InferenceApi], SimTime::ZERO)
            .unwrap();
        assert!(latency > SimDuration::ZERO);
        let (res, _) = svc.introspect(&tok.token, SimTime::from_secs(60));
        let res = res.unwrap();
        assert_eq!(res.user, UserId::new("alice"));
        assert!(res.groups.contains(&"first-users".to_string()));
    }

    #[test]
    fn untrusted_login_is_rejected_and_counted() {
        let mut svc = service();
        let err = svc
            .login(
                &Identity::new("eve", "evil.example"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, AuthError::UntrustedIdentityProvider(_)));
        // The rejected login minted nothing: the next login gets the first
        // token id.
        let (tok, _) = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap();
        assert!(tok.token.0.starts_with("agv-00000001-"), "{}", tok.token.0);
    }

    #[test]
    fn compute_client_scope_not_grantable_interactively() {
        let mut svc = service();
        let err = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::ComputeClient],
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, AuthError::ScopeNotAllowed(_)));
    }

    #[test]
    fn introspection_reports_expiry_and_revocation() {
        let mut svc = service();
        let (tok, _) = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap();
        // Expired after 48 hours.
        let (res, _) = svc.introspect(&tok.token, SimTime::from_secs(49 * 3600));
        assert_eq!(res.unwrap_err(), AuthError::TokenExpired);
        // Revocation.
        svc.revoke(&tok.token).unwrap();
        let (res, _) = svc.introspect(&tok.token, SimTime::from_secs(1));
        assert_eq!(res.unwrap_err(), AuthError::TokenRevoked);
        // Unknown token.
        let (res, _) = svc.introspect(&TokenString::new("nope"), SimTime::from_secs(1));
        assert_eq!(res.unwrap_err(), AuthError::UnknownToken);
    }

    #[test]
    fn refresh_rotates_tokens() {
        let mut svc = service();
        let (tok, _) = svc
            .login(
                &Identity::new("alice", "anl.gov"),
                &[Scope::InferenceApi],
                SimTime::ZERO,
            )
            .unwrap();
        let refresh = tok.refresh_token.clone().unwrap();
        let (newer, _) = svc
            .refresh(&refresh, SimTime::from_secs(47 * 3600))
            .unwrap();
        assert_ne!(newer.token, tok.token);
        let (res, _) = svc.introspect(&newer.token, SimTime::from_secs(90 * 3600));
        assert!(res.is_ok());
        // Old token is revoked, old refresh token unusable.
        let (res, _) = svc.introspect(&tok.token, SimTime::from_secs(1));
        assert_eq!(res.unwrap_err(), AuthError::TokenRevoked);
        assert!(svc.refresh(&refresh, SimTime::from_secs(1)).is_err());
    }
}
