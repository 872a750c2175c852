//! Access policies (§3.1.2): which identity providers are accepted, whether
//! MFA is required, and which groups gate access to the platform and to
//! specific models.

use crate::error::{AuthError, AuthResult};
use crate::groups::GroupRegistry;
use crate::identity::{Identity, IdentityProvider, UserId};
use std::collections::BTreeMap;

/// A group-gated resource rule: access requires membership in any listed group.
#[derive(Debug, Clone, Default)]
pub struct ResourceRule {
    /// Groups granting access; empty means "any platform user".
    pub(crate) allowed_groups: Vec<String>,
}

impl ResourceRule {
    /// Rule restricted to the listed groups.
    pub fn restricted(groups: &[&str]) -> Self {
        ResourceRule {
            allowed_groups: groups.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// The deployment-wide access policy.
#[derive(Debug, Clone)]
pub struct AccessPolicy {
    /// Identity providers accepted at login.
    pub(crate) trusted_providers: Vec<IdentityProvider>,
    /// Whether MFA is mandatory (Globus high-assurance style policy).
    pub(crate) require_mfa: bool,
    /// Groups granting baseline access to the platform; empty means open.
    pub(crate) platform_groups: Vec<String>,
    /// Per-model access rules (model name → rule).
    pub(crate) model_rules: BTreeMap<String, ResourceRule>,
}

impl Default for AccessPolicy {
    fn default() -> Self {
        AccessPolicy {
            trusted_providers: vec![
                IdentityProvider::trusted("anl.gov"),
                IdentityProvider::trusted("uchicago.edu"),
                IdentityProvider::trusted("uic.edu"),
            ],
            require_mfa: true,
            platform_groups: vec!["first-users".to_string()],
            model_rules: BTreeMap::new(),
        }
    }
}

impl AccessPolicy {
    /// Add or replace a model-specific rule.
    pub fn set_model_rule(&mut self, model: impl Into<String>, rule: ResourceRule) {
        self.model_rules.insert(model.into(), rule);
    }

    /// Validate a login attempt: provider trust and MFA.
    pub(crate) fn validate_login(&self, identity: &Identity) -> AuthResult<()> {
        let provider = self
            .trusted_providers
            .iter()
            .find(|p| p.name == identity.provider);
        match provider {
            Some(p) if p.trusted => {}
            _ => {
                return Err(AuthError::UntrustedIdentityProvider(
                    identity.provider.clone(),
                ))
            }
        }
        if self.require_mfa && !identity.mfa_completed {
            return Err(AuthError::MfaRequired);
        }
        Ok(())
    }

    /// Check baseline platform access for an already-authenticated user.
    fn check_platform_access(&self, user: &UserId, groups: &GroupRegistry) -> AuthResult<()> {
        if groups.member_of_any(user, &self.platform_groups) {
            Ok(())
        } else {
            Err(AuthError::NotAuthorized("the inference platform".into()))
        }
    }

    /// Check access to a specific model.
    pub fn check_model_access(
        &self,
        user: &UserId,
        model: &str,
        groups: &GroupRegistry,
    ) -> AuthResult<()> {
        self.check_platform_access(user, groups)?;
        if let Some(rule) = self.model_rules.get(model) {
            if !groups.member_of_any(user, &rule.allowed_groups) {
                return Err(AuthError::NotAuthorized(format!("model '{model}'")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_alice() -> GroupRegistry {
        let mut reg = GroupRegistry::new();
        reg.add_member("first-users", UserId::new("alice"));
        reg
    }

    #[test]
    fn login_requires_trusted_provider() {
        let policy = AccessPolicy::default();
        assert!(policy
            .validate_login(&Identity::new("alice", "anl.gov"))
            .is_ok());
        let err = policy
            .validate_login(&Identity::new("eve", "evil.example"))
            .unwrap_err();
        assert!(matches!(err, AuthError::UntrustedIdentityProvider(_)));
    }

    #[test]
    fn login_requires_mfa_when_policy_says_so() {
        let policy = AccessPolicy::default();
        let no_mfa = Identity {
            mfa_completed: false,
            ..Identity::new("alice", "anl.gov")
        };
        let err = policy.validate_login(&no_mfa).unwrap_err();
        assert_eq!(err, AuthError::MfaRequired);
        let relaxed = AccessPolicy {
            require_mfa: false,
            ..AccessPolicy::default()
        };
        assert!(relaxed.validate_login(&no_mfa).is_ok());
    }

    #[test]
    fn platform_access_gated_by_group() {
        let policy = AccessPolicy::default();
        let reg = registry_with_alice();
        assert!(policy
            .check_platform_access(&UserId::new("alice"), &reg)
            .is_ok());
        assert!(policy
            .check_platform_access(&UserId::new("bob"), &reg)
            .is_err());
    }

    #[test]
    fn model_rule_restricts_access() {
        let mut policy = AccessPolicy::default();
        policy.set_model_rule("auroragpt-7b", ResourceRule::restricted(&["aurora-early"]));
        let mut reg = registry_with_alice();
        reg.add_member("first-users", UserId::new("bob"));
        reg.add_member("aurora-early", UserId::new("alice"));
        assert!(policy
            .check_model_access(&UserId::new("alice"), "auroragpt-7b", &reg)
            .is_ok());
        let err = policy
            .check_model_access(&UserId::new("bob"), "auroragpt-7b", &reg)
            .unwrap_err();
        assert!(matches!(err, AuthError::NotAuthorized(_)));
        // Unrestricted models are open to any platform user.
        assert!(policy
            .check_model_access(&UserId::new("bob"), "llama-3.1-8b", &reg)
            .is_ok());
    }
}
