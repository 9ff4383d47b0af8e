//! The core AMP application's data models.
//!
//! §4.1: "we implemented most of the science gateway functionality in a
//! single core application consisting of ORM models and support routines.
//! ... the catalog of stars, their identifiers, the simulations, and the
//! constituent supercomputer jobs are all stored in this core application."
//! These are those models; both the portal and the GridAMP daemon import
//! them (the paper's single-codebase "don't repeat yourself" decision).

pub mod allocation;
pub mod job;
pub mod lease;
pub mod notification;
pub mod simulation;
pub mod star;
pub mod user;

pub use allocation::{Allocation, SystemAuthorization};
pub use job::GridJobRecord;
pub use lease::Lease;
pub use notification::{Notification, NotifyMode};
pub use simulation::{SimKind, Simulation};
pub use star::{Observation, Star};
pub use user::AmpUser;

use amp_simdb::orm::{row_value, Model};
use amp_simdb::{DbError, Value};

// Typed row readers shared by the Model implementations below.

pub(crate) fn get_text<M: Model>(row: &[Value], col: &str) -> Result<String, DbError> {
    Ok(row_value::<M>(row, col)?
        .as_text()
        .unwrap_or_default()
        .to_string())
}

pub(crate) fn get_opt_text<M: Model>(row: &[Value], col: &str) -> Result<Option<String>, DbError> {
    Ok(row_value::<M>(row, col)?.as_text().map(str::to_string))
}

pub(crate) fn get_int<M: Model>(row: &[Value], col: &str) -> Result<i64, DbError> {
    Ok(row_value::<M>(row, col)?.as_int().unwrap_or_default())
}

pub(crate) fn get_opt_int<M: Model>(row: &[Value], col: &str) -> Result<Option<i64>, DbError> {
    Ok(row_value::<M>(row, col)?.as_int())
}

pub(crate) fn get_float<M: Model>(row: &[Value], col: &str) -> Result<f64, DbError> {
    Ok(row_value::<M>(row, col)?.as_float().unwrap_or_default())
}

pub(crate) fn get_bool<M: Model>(row: &[Value], col: &str) -> Result<bool, DbError> {
    Ok(row_value::<M>(row, col)?.as_bool().unwrap_or_default())
}

pub(crate) fn get_opt_ts<M: Model>(row: &[Value], col: &str) -> Result<Option<i64>, DbError> {
    Ok(row_value::<M>(row, col)?.as_timestamp())
}

pub(crate) fn opt_ts(v: Option<i64>) -> Value {
    match v {
        Some(t) => Value::Timestamp(t),
        None => Value::Null,
    }
}
