//! Users and identity providers.
//!
//! Mirrors the roles Globus Auth plays in the paper (§3.1.2): users log in
//! through institutional identity providers (possibly with MFA).

/// Opaque user identifier (`user@institution` style principal).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub String);

impl UserId {
    /// Build a user id from any displayable value.
    pub fn new(s: impl Into<String>) -> Self {
        UserId(s.into())
    }
}

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An institutional identity provider (university, laboratory, ORCID, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IdentityProvider {
    /// Display name, e.g. `"anl.gov"` or `"uchicago.edu"`.
    pub(crate) name: String,
    /// Whether the deployment's Globus policy accepts logins from this IdP.
    pub(crate) trusted: bool,
    /// Whether this IdP enforces multi-factor authentication at login.
    pub(crate) enforces_mfa: bool,
}

impl IdentityProvider {
    /// A trusted, MFA-enforcing institutional provider.
    pub(crate) fn trusted(name: impl Into<String>) -> Self {
        IdentityProvider {
            name: name.into(),
            trusted: true,
            enforces_mfa: true,
        }
    }
}

/// A registered user identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// The user's principal.
    pub(crate) user: UserId,
    /// Identity provider through which the user authenticates.
    pub(crate) provider: String,
    /// Whether the user completed multi-factor authentication.
    pub(crate) mfa_completed: bool,
    /// Free-form project affiliation used in the request log.
    pub(crate) project: String,
}

impl Identity {
    /// Construct an identity that has completed MFA.
    pub fn new(user: impl Into<String>, provider: impl Into<String>) -> Self {
        Identity {
            user: UserId::new(user),
            provider: provider.into(),
            mfa_completed: true,
            project: String::new(),
        }
    }

    /// Attach a project affiliation.
    pub fn with_project(mut self, project: impl Into<String>) -> Self {
        self.project = project.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_builders() {
        let id = Identity::new("alice", "anl.gov").with_project("climate");
        assert_eq!(id.user, UserId::new("alice"));
        assert!(id.mfa_completed);
        assert_eq!(id.project, "climate");
    }

    #[test]
    fn identity_provider_flags() {
        let t = IdentityProvider::trusted("anl.gov");
        assert!(t.trusted && t.enforces_mfa);
    }

    #[test]
    fn user_id_display() {
        assert_eq!(UserId::new("carol").to_string(), "carol");
    }
}
