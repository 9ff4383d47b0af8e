//! Gateway user accounts.
//!
//! §4.1: AMP adopted Django's auth framework and "extended \[it] to support
//! additional information required by AMP and TeraGrid, such as data
//! provenance and user authentication metadata". `AmpUser` is that
//! extended account record. Passwords are stored hashed (the portal's auth
//! module does the hashing); accounts require administrator approval
//! before they may submit simulations.

use super::{get_bool, get_int, get_text};
use crate::models::notification::NotifyMode;
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, TableSchema, Value, ValueType};

/// A registered gateway user.
#[derive(Debug, Clone, PartialEq)]
pub struct AmpUser {
    pub id: Option<i64>,
    pub username: String,
    pub email: String,
    /// Salted hash, never the password itself.
    pub password_hash: String,
    /// Set by an administrator from the admin interface (§4.1).
    pub approved: bool,
    pub is_admin: bool,
    /// TeraGrid-required provenance: how/when the account was requested,
    /// which CAPTCHA question was answered.
    pub provenance: String,
    /// E-mail notification preference (§4.4).
    pub notify_mode: NotifyMode,
    /// Registration time (simulated clock, seconds).
    pub created_at: i64,
}

impl AmpUser {
    pub fn new(username: &str, email: &str, password_hash: &str, created_at: i64) -> Self {
        AmpUser {
            id: None,
            username: username.to_string(),
            email: email.to_string(),
            password_hash: password_hash.to_string(),
            approved: false,
            is_admin: false,
            provenance: String::new(),
            notify_mode: NotifyMode::OnCompletion,
            created_at,
        }
    }
}

impl Model for AmpUser {
    const TABLE: &'static str = "amp_user";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("username", ValueType::Text)
                    .not_null()
                    .unique()
                    .max_length(64),
                Column::new("email", ValueType::Text)
                    .not_null()
                    .max_length(190),
                Column::new("password_hash", ValueType::Text)
                    .not_null()
                    .max_length(190),
                Column::new("approved", ValueType::Bool)
                    .not_null()
                    .default(false),
                Column::new("is_admin", ValueType::Bool)
                    .not_null()
                    .default(false),
                Column::new("provenance", ValueType::Text)
                    .not_null()
                    .default(""),
                Column::new("notify_mode", ValueType::Text)
                    .not_null()
                    .default(NotifyMode::OnCompletion.as_str()),
                Column::new("created_at", ValueType::Int)
                    .not_null()
                    .default(0),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(AmpUser {
            id: Some(id),
            username: get_text::<Self>(row, "username")?,
            email: get_text::<Self>(row, "email")?,
            password_hash: get_text::<Self>(row, "password_hash")?,
            approved: get_bool::<Self>(row, "approved")?,
            is_admin: get_bool::<Self>(row, "is_admin")?,
            provenance: get_text::<Self>(row, "provenance")?,
            notify_mode: get_text::<Self>(row, "notify_mode")?
                .parse()
                .map_err(DbError::Schema)?,
            created_at: get_int::<Self>(row, "created_at")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("username", self.username.as_str().into()),
            ("email", self.email.as_str().into()),
            ("password_hash", self.password_hash.as_str().into()),
            ("approved", self.approved.into()),
            ("is_admin", self.is_admin.into()),
            ("provenance", self.provenance.as_str().into()),
            ("notify_mode", self.notify_mode.as_str().into()),
            ("created_at", self.created_at.into()),
        ]
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_simdb::orm::{Manager, Registry};
    use amp_simdb::{Db, PermSet, Query, Role};

    fn setup() -> Db {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        db.define_role(Role::new("web").grant(AmpUser::TABLE, PermSet::ALL));
        let admin = db.connect("admin").unwrap();
        Registry::new()
            .register::<AmpUser>()
            .migrate(&admin)
            .unwrap();
        db
    }

    #[test]
    fn create_and_reload() {
        let db = setup();
        let m = Manager::<AmpUser>::new(db.connect("web").unwrap());
        let mut u = AmpUser::new("astro1", "a@example.edu", "hash123", 1000);
        u.provenance = "captcha: Alpha Centauri".into();
        let id = m.create(&mut u).unwrap();
        let loaded = m.get(id).unwrap();
        assert_eq!(loaded, u);
        assert!(!loaded.approved);
    }

    #[test]
    fn username_unique() {
        let db = setup();
        let m = Manager::<AmpUser>::new(db.connect("web").unwrap());
        m.create(&mut AmpUser::new("astro1", "a@x.edu", "h", 0))
            .unwrap();
        assert!(m
            .create(&mut AmpUser::new("astro1", "b@x.edu", "h", 0))
            .is_err());
    }

    #[test]
    fn approval_flow() {
        let db = setup();
        let m = Manager::<AmpUser>::new(db.connect("web").unwrap());
        let mut u = AmpUser::new("astro1", "a@x.edu", "h", 0);
        m.create(&mut u).unwrap();
        u.approved = true;
        m.save(&u).unwrap();
        let pending = m.filter(&Query::new().eq("approved", false)).unwrap();
        assert!(pending.is_empty());
    }

    #[test]
    fn notify_mode_roundtrip() {
        let db = setup();
        let m = Manager::<AmpUser>::new(db.connect("web").unwrap());
        let mut u = AmpUser::new("astro1", "a@x.edu", "h", 0);
        u.notify_mode = NotifyMode::EveryTransition;
        m.create(&mut u).unwrap();
        assert_eq!(
            m.get(u.id.unwrap()).unwrap().notify_mode,
            NotifyMode::EveryTransition
        );
    }
}
