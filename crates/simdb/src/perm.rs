//! Role-based table permissions.
//!
//! AMP "wanted to use database permissions to carefully control access to
//! database tables on a per-user basis" (§4). The portal connects with the
//! `web` role and the GridAMP daemon with the `daemon` role; each is granted
//! only the table operations it needs, so even a fully compromised web
//! server cannot touch grid-side state it has no business writing (paper
//! §3's isolation argument). `admin` bypasses all checks.

use crate::error::DbError;
use std::collections::HashMap;

/// The four grantable operations on a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PermSet {
    pub select: bool,
    pub insert: bool,
    pub update: bool,
    pub delete: bool,
}

impl PermSet {
    pub const ALL: PermSet = PermSet {
        select: true,
        insert: true,
        update: true,
        delete: true,
    };
    pub const READ_ONLY: PermSet = PermSet {
        select: true,
        insert: false,
        update: false,
        delete: false,
    };
    pub const NONE: PermSet = PermSet {
        select: false,
        insert: false,
        update: false,
        delete: false,
    };

    pub fn allows(&self, action: Action) -> bool {
        match action {
            Action::Select => self.select,
            Action::Insert => self.insert,
            Action::Update => self.update,
            Action::Delete => self.delete,
        }
    }
}

/// A database action subject to permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Select,
    Insert,
    Update,
    Delete,
}

impl Action {
    pub fn name(self) -> &'static str {
        match self {
            Action::Select => "SELECT",
            Action::Insert => "INSERT",
            Action::Update => "UPDATE",
            Action::Delete => "DELETE",
        }
    }
}

/// A named role with per-table grants.
#[derive(Debug, Clone)]
pub struct Role {
    pub name: String,
    /// True for the superuser role: all checks pass, including on tables
    /// created after the role.
    pub superuser: bool,
    grants: HashMap<String, PermSet>,
}

impl Role {
    pub fn new(name: &str) -> Self {
        Role {
            name: name.to_string(),
            superuser: false,
            grants: HashMap::new(),
        }
    }

    pub fn superuser(name: &str) -> Self {
        Role {
            name: name.to_string(),
            superuser: true,
            grants: HashMap::new(),
        }
    }

    pub fn grant(mut self, table: &str, perms: PermSet) -> Self {
        self.grants.insert(table.to_string(), perms);
        self
    }

    pub fn revoke(&mut self, table: &str) {
        self.grants.remove(table);
    }

    /// Check an action; tables without an explicit grant deny everything.
    pub fn check(&self, table: &str, action: Action) -> Result<(), DbError> {
        if self.superuser {
            return Ok(());
        }
        let allowed = self
            .grants
            .get(table)
            .map(|p| p.allows(action))
            .unwrap_or(false);
        if allowed {
            Ok(())
        } else {
            Err(DbError::PermissionDenied {
                role: self.name.clone(),
                table: table.to_string(),
                action: action.name(),
            })
        }
    }

    pub fn grants(&self) -> impl Iterator<Item = (&str, &PermSet)> {
        self.grants.iter().map(|(t, p)| (t.as_str(), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deny() {
        let r = Role::new("web");
        assert!(r.check("anything", Action::Select).is_err());
    }

    #[test]
    fn grants_are_per_action() {
        let r = Role::new("web").grant("star", PermSet::READ_ONLY);
        assert!(r.check("star", Action::Select).is_ok());
        assert!(r.check("star", Action::Insert).is_err());
        assert!(r.check("star", Action::Delete).is_err());
    }

    #[test]
    fn superuser_bypasses() {
        let r = Role::superuser("admin");
        assert!(r.check("whatever", Action::Delete).is_ok());
    }

    #[test]
    fn revoke_restores_default_deny() {
        let mut r = Role::new("d").grant("t", PermSet::ALL);
        assert!(r.check("t", Action::Delete).is_ok());
        r.revoke("t");
        assert!(r.check("t", Action::Select).is_err());
    }

    #[test]
    fn error_carries_context() {
        let r = Role::new("web");
        match r.check("grid_job", Action::Update) {
            Err(DbError::PermissionDenied {
                role,
                table,
                action,
            }) => {
                assert_eq!(role, "web");
                assert_eq!(table, "grid_job");
                assert_eq!(action, "UPDATE");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
