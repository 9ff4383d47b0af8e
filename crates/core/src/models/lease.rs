//! Simulation ownership leases.
//!
//! The paper's components communicate *only* through the central database
//! (§3), which makes scaling the GridAMP daemon out to several processes a
//! pure data-plane problem: ownership of each simulation is itself a row.
//! A lease binds one simulation to one daemon until `expires_at`; the
//! `epoch` is a fencing token that increases monotonically on every
//! takeover, so a stale daemon waking from a pause can detect — before any
//! GRAM submission — that the world has moved on without it.

use super::{get_int, get_opt_ts, get_text};
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};

/// One daemon's claim on one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    pub id: Option<i64>,
    /// The owned simulation — at most one lease row per simulation.
    pub simulation_id: i64,
    /// Identity of the holding daemon process.
    pub daemon_id: String,
    /// Science application of the leased simulation — keeps lease keys
    /// app-qualified so per-app ownership is observable from the row alone.
    pub app: String,
    /// Fencing token: starts at 1, bumped by every expiry takeover. A
    /// writer whose epoch no longer matches the row must not submit.
    pub epoch: i64,
    /// Simulated-time expiry; an unrenewed lease past this instant may be
    /// taken over by any peer.
    pub expires_at: i64,
}

impl Lease {
    pub fn new(
        simulation_id: i64,
        daemon_id: &str,
        app: &str,
        epoch: i64,
        expires_at: i64,
    ) -> Self {
        Lease {
            id: None,
            simulation_id,
            daemon_id: daemon_id.to_string(),
            app: app.to_string(),
            epoch,
            expires_at,
        }
    }

    /// Valid (unexpired) at `now`?
    pub fn valid_at(&self, now: i64) -> bool {
        now < self.expires_at
    }
}

impl Model for Lease {
    const TABLE: &'static str = "lease";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("simulation_id", ValueType::Int)
                    .not_null()
                    .unique()
                    .references("simulation", OnDelete::Cascade),
                Column::new("daemon_id", ValueType::Text)
                    .not_null()
                    .max_length(64)
                    .indexed(),
                Column::new("app", ValueType::Text)
                    .not_null()
                    .default("stellar"),
                Column::new("epoch", ValueType::Int).not_null().default(1),
                Column::new("expires_at", ValueType::Timestamp).not_null(),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Lease {
            id: Some(id),
            simulation_id: get_int::<Self>(row, "simulation_id")?,
            daemon_id: get_text::<Self>(row, "daemon_id")?,
            app: get_text::<Self>(row, "app")?,
            epoch: get_int::<Self>(row, "epoch")?,
            expires_at: get_opt_ts::<Self>(row, "expires_at")?.unwrap_or_default(),
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("simulation_id", self.simulation_id.into()),
            ("daemon_id", self.daemon_id.as_str().into()),
            ("app", self.app.as_str().into()),
            ("epoch", self.epoch.into()),
            ("expires_at", Value::Timestamp(self.expires_at)),
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
    fn validity_boundary_is_exclusive() {
        let l = Lease::new(1, "d0", "stellar", 1, 1000);
        assert!(l.valid_at(999));
        assert!(!l.valid_at(1000));
        assert!(!l.valid_at(2000));
    }

    #[test]
    fn round_trips_through_row() {
        let l = Lease::new(7, "gridamp-3", "curvefit", 4, 86_400);
        let row: Vec<Value> = l.to_values().into_iter().map(|(_, v)| v).collect();
        let back = Lease::from_row(42, &row).unwrap();
        assert_eq!(back.id, Some(42));
        assert_eq!(back.simulation_id, 7);
        assert_eq!(back.daemon_id, "gridamp-3");
        assert_eq!(back.app, "curvefit");
        assert_eq!(back.epoch, 4);
        assert_eq!(back.expires_at, 86_400);
    }
}
