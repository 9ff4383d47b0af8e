//! Constituent grid job records.
//!
//! §4.4: "workflow state management and job status tracking are integrated
//! with AMP's data model ... maintaining constituent grid job status in a
//! more generic fashion". Each row tracks one GRAM job (pre-job, a GA
//! continuation, post-job, cleanup, or the solution evaluation) with the
//! submit/start/end times the §6 Gantt tool plots.

use super::{get_int, get_opt_ts, get_text, opt_ts};
use crate::status::{JobPurpose, JobStatus};
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};

/// One grid job belonging to a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct GridJobRecord {
    pub id: Option<i64>,
    pub simulation_id: i64,
    /// Which GA run of the ensemble this job serves (0-based); -1 for jobs
    /// covering the whole simulation (pre/post/cleanup/solution).
    pub ga_run: i64,
    pub purpose: JobPurpose,
    /// 0-based continuation index within a GA run's job chain.
    pub continuation: i64,
    /// Owning science application (registry id). Part of the idempotent
    /// GRAM submit key so two apps' jobs can never collide.
    pub app: String,
    /// GRAM contact string once submitted.
    pub gram_handle: Option<String>,
    pub site: String,
    pub status: JobStatus,
    pub cores: i64,
    pub submitted_at: Option<i64>,
    pub started_at: Option<i64>,
    pub ended_at: Option<i64>,
    /// Failure detail / troubleshooting note (the daemon logs the exact
    /// command line equivalents, §4.4).
    pub detail: String,
}

impl GridJobRecord {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        simulation_id: i64,
        ga_run: i64,
        purpose: JobPurpose,
        continuation: i64,
        site: &str,
        cores: i64,
        app: &str,
    ) -> Self {
        GridJobRecord {
            id: None,
            simulation_id,
            ga_run,
            purpose,
            continuation,
            app: app.to_string(),
            gram_handle: None,
            site: site.to_string(),
            status: JobStatus::Unsubmitted,
            cores,
            submitted_at: None,
            started_at: None,
            ended_at: None,
            detail: String::new(),
        }
    }

    /// Queue wait, once started.
    pub fn wait_secs(&self) -> Option<i64> {
        match (self.submitted_at, self.started_at) {
            (Some(s), Some(t)) => Some((t - s).max(0)),
            _ => None,
        }
    }

    /// Execution time, once ended.
    pub fn run_secs(&self) -> Option<i64> {
        match (self.started_at, self.ended_at) {
            (Some(s), Some(e)) => Some((e - s).max(0)),
            _ => None,
        }
    }
}

impl Model for GridJobRecord {
    const TABLE: &'static str = "grid_job";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("simulation_id", ValueType::Int)
                    .not_null()
                    .references("simulation", OnDelete::Cascade)
                    .indexed(),
                Column::new("ga_run", ValueType::Int).not_null().default(-1),
                Column::new("purpose", ValueType::Text).not_null(),
                Column::new("continuation", ValueType::Int)
                    .not_null()
                    .default(0),
                Column::new("app", ValueType::Text)
                    .not_null()
                    .default("stellar")
                    .indexed(),
                Column::new("gram_handle", ValueType::Text).max_length(200),
                Column::new("site", ValueType::Text)
                    .not_null()
                    .max_length(32),
                Column::new("status", ValueType::Text).not_null().indexed(),
                Column::new("cores", ValueType::Int).not_null().default(1),
                Column::new("submitted_at", ValueType::Timestamp),
                Column::new("started_at", ValueType::Timestamp),
                Column::new("ended_at", ValueType::Timestamp),
                Column::new("detail", ValueType::Text)
                    .not_null()
                    .default(""),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(GridJobRecord {
            id: Some(id),
            simulation_id: get_int::<Self>(row, "simulation_id")?,
            ga_run: get_int::<Self>(row, "ga_run")?,
            purpose: get_text::<Self>(row, "purpose")?
                .parse()
                .map_err(DbError::Schema)?,
            continuation: get_int::<Self>(row, "continuation")?,
            app: get_text::<Self>(row, "app")?,
            gram_handle: super::get_opt_text::<Self>(row, "gram_handle")?,
            site: get_text::<Self>(row, "site")?,
            status: get_text::<Self>(row, "status")?
                .parse()
                .map_err(DbError::Schema)?,
            cores: get_int::<Self>(row, "cores")?,
            submitted_at: get_opt_ts::<Self>(row, "submitted_at")?,
            started_at: get_opt_ts::<Self>(row, "started_at")?,
            ended_at: get_opt_ts::<Self>(row, "ended_at")?,
            detail: get_text::<Self>(row, "detail")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("simulation_id", self.simulation_id.into()),
            ("ga_run", self.ga_run.into()),
            ("purpose", self.purpose.as_str().into()),
            ("continuation", self.continuation.into()),
            ("app", self.app.as_str().into()),
            ("gram_handle", self.gram_handle.as_deref().into()),
            ("site", self.site.as_str().into()),
            ("status", self.status.as_str().into()),
            ("cores", self.cores.into()),
            ("submitted_at", opt_ts(self.submitted_at)),
            ("started_at", opt_ts(self.started_at)),
            ("ended_at", opt_ts(self.ended_at)),
            ("detail", self.detail.as_str().into()),
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
    fn new_record_defaults() {
        let j = GridJobRecord::new(1, 0, JobPurpose::Work, 2, "kraken", 128, "stellar");
        assert_eq!(j.status, JobStatus::Unsubmitted);
        assert_eq!(j.continuation, 2);
        assert_eq!(j.app, "stellar");
        assert!(j.gram_handle.is_none());
        assert_eq!(j.wait_secs(), None);
        assert_eq!(j.run_secs(), None);
    }

    #[test]
    fn timing_accessors() {
        let mut j = GridJobRecord::new(1, -1, JobPurpose::PreJob, 0, "kraken", 0, "stellar");
        j.submitted_at = Some(100);
        j.started_at = Some(400);
        j.ended_at = Some(1000);
        assert_eq!(j.wait_secs(), Some(300));
        assert_eq!(j.run_secs(), Some(600));
    }
}
