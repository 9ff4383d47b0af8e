//! The GridAMP failure taxonomy.
//!
//! §4.4: "The GridAMP daemon distinguishes between anticipated transients,
//! model processing failures, and its own failures." Transients retry
//! silently (admins notified, users never); model failures park the
//! simulation in the hold state and notify both; daemon failures surface
//! to the external monitor.

use amp_grid::GridError;
use amp_simdb::DbError;
use std::fmt;

/// A workflow stage's failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// Anticipated transient: retried automatically next tick.
    Transient(String),
    /// The step's lease moved to another daemon mid-step: it backs out and
    /// writes nothing more, because the simulation is the new owner's.
    Fenced(String),
    /// Model processing failure: simulation goes to HOLD, user and
    /// administrator are notified.
    ModelFailure(String),
    /// A daemon-side defect (DB inconsistency, impossible state): surfaces
    /// to the external monitor.
    Daemon(String),
}

impl WorkflowError {
    /// Classify a grid client error per the taxonomy.
    pub fn from_grid(e: GridError) -> Self {
        if e.is_transient() {
            WorkflowError::Transient(e.to_string())
        } else {
            // Bad job specs / missing executables are deployment problems
            // an administrator must resolve: model-failure class.
            WorkflowError::ModelFailure(e.to_string())
        }
    }
}

impl From<GridError> for WorkflowError {
    fn from(e: GridError) -> Self {
        WorkflowError::from_grid(e)
    }
}

impl From<DbError> for WorkflowError {
    fn from(e: DbError) -> Self {
        // The DB is daemon-local infrastructure; failures there are the
        // daemon's own class.
        WorkflowError::Daemon(e.to_string())
    }
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Transient(m) => write!(f, "transient: {m}"),
            WorkflowError::Fenced(m) => write!(f, "fenced: {m}"),
            WorkflowError::ModelFailure(m) => write!(f, "model failure: {m}"),
            WorkflowError::Daemon(m) => write!(f, "daemon failure: {m}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_grid::SimTime;

    #[test]
    fn grid_errors_classified() {
        let t = WorkflowError::from_grid(GridError::ServiceUnreachable {
            site: "kraken".into(),
            service: "GRAM",
            at: SimTime(0),
        });
        assert!(matches!(t, WorkflowError::Transient(_)));
        let m = WorkflowError::from_grid(GridError::BadJobSpec("x".into()));
        assert!(matches!(m, WorkflowError::ModelFailure(_)));
    }

    #[test]
    fn db_errors_are_daemon_class() {
        let e: WorkflowError = DbError::NoSuchTable("x".into()).into();
        assert!(matches!(e, WorkflowError::Daemon(_)));
    }
}
