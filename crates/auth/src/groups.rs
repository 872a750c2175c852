//! Globus-Groups-style group membership access control (§3.1.2).
//!
//! Groups gate which users may use the service at all, and which users may
//! reach restricted models or resources ("researchers working on sensitive
//! projects may be granted special access to specific models").

use crate::identity::UserId;
use std::collections::{BTreeMap, BTreeSet};

/// An access group's members; the registry keys it by name, e.g.
/// `"first-users"` or `"auroragpt-early-access"`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Group {
    members: BTreeSet<UserId>,
}

impl Group {
    /// Add a member (adding one twice is a no-op).
    pub(crate) fn add_member(&mut self, user: UserId) {
        self.members.insert(user);
    }

    /// Whether the user is a member.
    pub(crate) fn contains(&self, user: &UserId) -> bool {
        self.members.contains(user)
    }
}

/// Registry of all groups known to the deployment.
#[derive(Debug, Clone, Default)]
pub struct GroupRegistry {
    groups: BTreeMap<String, Group>,
}

impl GroupRegistry {
    /// Create an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Create a group if it does not already exist; returns whether it was created.
    fn create_group(&mut self, name: impl Into<String>) -> bool {
        let name = name.into();
        if self.groups.contains_key(&name) {
            return false;
        }
        self.groups.insert(name.clone(), Group::default());
        true
    }

    /// Look up a group.
    pub(crate) fn get(&self, name: &str) -> Option<&Group> {
        self.groups.get(name)
    }

    /// Add a member to a group, creating the group if needed.
    pub fn add_member(&mut self, group: &str, user: UserId) {
        self.create_group(group);
        self.groups
            .get_mut(group)
            .expect("group just created")
            .add_member(user);
    }

    /// All group names the user belongs to, sorted.
    pub(crate) fn groups_of(&self, user: &UserId) -> Vec<String> {
        let mut out: BTreeSet<String> = BTreeSet::new();
        for (name, g) in &self.groups {
            if g.contains(user) {
                out.insert(name.clone());
            }
        }
        out.into_iter().collect()
    }

    /// Whether the user belongs to *any* of the listed groups. An empty list
    /// means "no group requirement" and always passes.
    pub(crate) fn member_of_any(&self, user: &UserId, required: &[String]) -> bool {
        if required.is_empty() {
            return true;
        }
        required
            .iter()
            .any(|g| self.get(g).map(|g| g.contains(user)).unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_membership() {
        let mut g = Group::default();
        g.add_member(UserId::new("alice"));
        g.add_member(UserId::new("bob"));
        g.add_member(UserId::new("bob"));
        assert!(g.contains(&UserId::new("alice")));
        assert!(g.contains(&UserId::new("bob")));
        assert!(!g.contains(&UserId::new("carol")));
        assert_eq!(g.members.len(), 2);
    }

    #[test]
    fn registry_tracks_user_groups() {
        let mut reg = GroupRegistry::new();
        reg.add_member("first-users", UserId::new("alice"));
        reg.add_member("sensitive-project", UserId::new("alice"));
        reg.add_member("first-users", UserId::new("bob"));
        assert_eq!(
            reg.groups_of(&UserId::new("alice")),
            vec!["first-users".to_string(), "sensitive-project".to_string()]
        );
        assert_eq!(
            reg.groups_of(&UserId::new("bob")),
            vec!["first-users".to_string()]
        );
        assert!(reg.groups_of(&UserId::new("carol")).is_empty());
    }

    #[test]
    fn member_of_any_semantics() {
        let mut reg = GroupRegistry::new();
        reg.add_member("a", UserId::new("alice"));
        assert!(reg.member_of_any(&UserId::new("alice"), &[]));
        assert!(reg.member_of_any(&UserId::new("alice"), &["a".into(), "b".into()]));
        assert!(!reg.member_of_any(&UserId::new("bob"), &["a".into()]));
        assert!(!reg.member_of_any(&UserId::new("alice"), &["missing".into()]));
    }

    #[test]
    fn create_group_is_idempotent() {
        let mut reg = GroupRegistry::new();
        assert!(reg.create_group("g"));
        assert!(!reg.create_group("g"));
        assert_eq!(reg.groups.len(), 1);
    }
}
