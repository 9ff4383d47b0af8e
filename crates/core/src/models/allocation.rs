//! TeraGrid allocations and per-user submit authorizations.
//!
//! §4.1: "administrative tasks such as ... adjusting back-end parameters
//! (like allocations and the authorization for a user to submit to a
//! machine using a particular allocation) can easily be manipulated from a
//! graphical interface" — these are those two tables, plus the SU
//! accounting that Table 1's charge factors feed.

use super::{get_bool, get_float, get_int, get_text};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};

/// A service-unit allocation on one TeraGrid system.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    pub id: Option<i64>,
    /// Site name ("kraken").
    pub system: String,
    /// Charge account, e.g. "TG-AST090030".
    pub account: String,
    /// SUs granted.
    pub su_granted: f64,
    /// SUs consumed so far.
    pub su_used: f64,
    /// Whether new submissions may charge this allocation.
    pub active: bool,
}

impl Allocation {
    pub fn new(system: &str, account: &str, su_granted: f64) -> Self {
        Allocation {
            id: None,
            system: system.to_string(),
            account: account.to_string(),
            su_granted,
            su_used: 0.0,
            active: true,
        }
    }

    pub fn su_remaining(&self) -> f64 {
        (self.su_granted - self.su_used).max(0.0)
    }

    /// Record a charge (CPU-hours × the system's SU factor). Fails if the
    /// allocation would go negative — AMP must not submit unfunded work.
    pub fn charge(&mut self, sus: f64) -> Result<(), DbError> {
        if sus < 0.0 {
            return Err(DbError::Schema("negative SU charge".to_string()));
        }
        if self.su_used + sus > self.su_granted {
            return Err(DbError::Schema(format!(
                "allocation {} exhausted: {} used + {} > {} granted",
                self.account, self.su_used, sus, self.su_granted
            )));
        }
        self.su_used += sus;
        Ok(())
    }
}

impl Model for Allocation {
    const TABLE: &'static str = "allocation";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("system", ValueType::Text)
                    .not_null()
                    .max_length(32),
                Column::new("account", ValueType::Text)
                    .not_null()
                    .unique()
                    .max_length(32),
                Column::new("su_granted", ValueType::Float).not_null(),
                Column::new("su_used", ValueType::Float)
                    .not_null()
                    .default(0.0),
                Column::new("active", ValueType::Bool)
                    .not_null()
                    .default(true),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Allocation {
            id: Some(id),
            system: get_text::<Self>(row, "system")?,
            account: get_text::<Self>(row, "account")?,
            su_granted: get_float::<Self>(row, "su_granted")?,
            su_used: get_float::<Self>(row, "su_used")?,
            active: get_bool::<Self>(row, "active")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("system", self.system.as_str().into()),
            ("account", self.account.as_str().into()),
            ("su_granted", self.su_granted.into()),
            ("su_used", self.su_used.into()),
            ("active", self.active.into()),
        ]
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

/// Authorization for a user to submit to a machine via an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemAuthorization {
    pub id: Option<i64>,
    pub user_id: i64,
    pub allocation_id: i64,
    pub granted_at: i64,
}

impl SystemAuthorization {
    pub fn new(user_id: i64, allocation_id: i64, at: i64) -> Self {
        SystemAuthorization {
            id: None,
            user_id,
            allocation_id,
            granted_at: at,
        }
    }

    /// Is `user` authorized for `allocation`? (Portal submission check.)
    pub fn is_authorized(
        manager: &Manager<SystemAuthorization>,
        user_id: i64,
        allocation_id: i64,
    ) -> Result<bool, DbError> {
        manager.exists(
            &amp_simdb::Query::new()
                .eq("user_id", user_id)
                .eq("allocation_id", allocation_id),
        )
    }
}

impl Model for SystemAuthorization {
    const TABLE: &'static str = "system_authorization";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("user_id", ValueType::Int)
                    .not_null()
                    .references("amp_user", OnDelete::Cascade)
                    .indexed(),
                Column::new("allocation_id", ValueType::Int)
                    .not_null()
                    .references("allocation", OnDelete::Cascade)
                    .indexed(),
                Column::new("granted_at", ValueType::Int)
                    .not_null()
                    .default(0),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(SystemAuthorization {
            id: Some(id),
            user_id: get_int::<Self>(row, "user_id")?,
            allocation_id: get_int::<Self>(row, "allocation_id")?,
            granted_at: get_int::<Self>(row, "granted_at")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("user_id", self.user_id.into()),
            ("allocation_id", self.allocation_id.into()),
            ("granted_at", self.granted_at.into()),
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

    #[test]
    fn charge_accounting() {
        let mut a = Allocation::new("kraken", "TG-AST090030", 100_000.0);
        assert_eq!(a.su_remaining(), 100_000.0);
        a.charge(51_486.0).unwrap(); // one Kraken optimization run
        assert!((a.su_remaining() - 48_514.0).abs() < 1e-9);
        // a second run does not fit
        assert!(a.charge(51_486.0).is_err());
        assert!(
            (a.su_used - 51_486.0).abs() < 1e-9,
            "failed charge must not apply"
        );
        assert!(a.charge(-1.0).is_err());
    }

    #[test]
    fn remaining_never_negative() {
        let mut a = Allocation::new("kraken", "TG-X", 10.0);
        a.su_used = 50.0; // e.g. adjusted by admin
        assert_eq!(a.su_remaining(), 0.0);
    }
}
