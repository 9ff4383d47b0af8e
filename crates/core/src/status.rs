//! Simulation and grid-job status vocabularies.
//!
//! The two-level status scheme of §4.4: simulation status lives "at the
//! highest level of the application-specific data model so the user
//! interface does not need to analyze the state of many individual grid
//! jobs", while constituent grid jobs carry a generic job status.

use std::fmt;
use std::str::FromStr;

/// Workflow states of a simulation — exactly Listing 1's vocabulary plus
/// the failure-handling states of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimStatus {
    /// Submitted by the user, not yet picked up.
    Queued,
    /// Pre-job environment setup running (fork script).
    PreJob,
    /// Model job(s) running/propagating.
    Running,
    /// Post-job output consolidation running.
    PostJob,
    /// Execution environment teardown.
    Cleanup,
    /// Completed; results available.
    Done,
    /// Model failure: parked for administrator attention (§4.4).
    Hold,
}

impl SimStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            SimStatus::Queued => "QUEUED",
            SimStatus::PreJob => "PREJOB",
            SimStatus::Running => "RUNNING",
            SimStatus::PostJob => "POSTJOB",
            SimStatus::Cleanup => "CLEANUP",
            SimStatus::Done => "DONE",
            SimStatus::Hold => "HOLD",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self, SimStatus::Done)
    }

    /// The linear happy path of Listing 1.
    pub fn happy_path() -> [SimStatus; 6] {
        [
            SimStatus::Queued,
            SimStatus::PreJob,
            SimStatus::Running,
            SimStatus::PostJob,
            SimStatus::Cleanup,
            SimStatus::Done,
        ]
    }
}

impl fmt::Display for SimStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SimStatus {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "QUEUED" => Ok(SimStatus::Queued),
            "PREJOB" => Ok(SimStatus::PreJob),
            "RUNNING" => Ok(SimStatus::Running),
            "POSTJOB" => Ok(SimStatus::PostJob),
            "CLEANUP" => Ok(SimStatus::Cleanup),
            "DONE" => Ok(SimStatus::Done),
            "HOLD" => Ok(SimStatus::Hold),
            other => Err(format!("unknown simulation status {other:?}")),
        }
    }
}

/// Generic status of one constituent grid job (purpose-independent, §4.4:
/// "this process is identical for all grid jobs regardless of purpose").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Created in the DB, not yet submitted to GRAM.
    Unsubmitted,
    /// Submitted; queued remotely.
    Pending,
    /// Executing.
    Active,
    /// Finished successfully.
    Done,
    /// Finished unsuccessfully.
    Failed,
}

impl JobStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Unsubmitted => "UNSUBMITTED",
            JobStatus::Pending => "PENDING",
            JobStatus::Active => "ACTIVE",
            JobStatus::Done => "DONE",
            JobStatus::Failed => "FAILED",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for JobStatus {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "UNSUBMITTED" => Ok(JobStatus::Unsubmitted),
            "PENDING" => Ok(JobStatus::Pending),
            "ACTIVE" => Ok(JobStatus::Active),
            "DONE" => Ok(JobStatus::Done),
            "FAILED" => Ok(JobStatus::Failed),
            other => Err(format!("unknown job status {other:?}")),
        }
    }
}

/// The purpose of a constituent grid job inside a simulation workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobPurpose {
    /// Fork script creating the runtime directory tree (§4.3).
    PreJob,
    /// A model execution (direct run, or one GA continuation).
    Work,
    /// Fork script tarring outputs for staging back.
    PostJob,
    /// Fork script removing the execution environment.
    Cleanup,
    /// The final forward-model detail run on the best GA solution (§2).
    SolutionEvaluation,
}

impl JobPurpose {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPurpose::PreJob => "PREJOB",
            JobPurpose::Work => "WORK",
            JobPurpose::PostJob => "POSTJOB",
            JobPurpose::Cleanup => "CLEANUP",
            JobPurpose::SolutionEvaluation => "SOLUTION",
        }
    }
}

impl FromStr for JobPurpose {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "PREJOB" => Ok(JobPurpose::PreJob),
            "WORK" => Ok(JobPurpose::Work),
            "POSTJOB" => Ok(JobPurpose::PostJob),
            "CLEANUP" => Ok(JobPurpose::Cleanup),
            "SOLUTION" => Ok(JobPurpose::SolutionEvaluation),
            other => Err(format!("unknown job purpose {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_statuses() {
        for s in [
            SimStatus::Queued,
            SimStatus::PreJob,
            SimStatus::Running,
            SimStatus::PostJob,
            SimStatus::Cleanup,
            SimStatus::Done,
            SimStatus::Hold,
        ] {
            assert_eq!(s.as_str().parse::<SimStatus>().unwrap(), s);
        }
        for s in [
            JobStatus::Unsubmitted,
            JobStatus::Pending,
            JobStatus::Active,
            JobStatus::Done,
            JobStatus::Failed,
        ] {
            assert_eq!(s.as_str().parse::<JobStatus>().unwrap(), s);
        }
        for p in [
            JobPurpose::PreJob,
            JobPurpose::Work,
            JobPurpose::PostJob,
            JobPurpose::Cleanup,
            JobPurpose::SolutionEvaluation,
        ] {
            assert_eq!(p.as_str().parse::<JobPurpose>().unwrap(), p);
        }
        assert!("BOGUS".parse::<SimStatus>().is_err());
        assert!("BOGUS".parse::<JobStatus>().is_err());
        assert!("BOGUS".parse::<JobPurpose>().is_err());
    }

    #[test]
    fn happy_path_matches_listing1() {
        let path = SimStatus::happy_path();
        assert_eq!(path[0], SimStatus::Queued);
        assert_eq!(path[5], SimStatus::Done);
        assert!(path[5].is_terminal());
        assert!(!path[0].is_terminal());
        assert!(!SimStatus::Hold.is_terminal());
    }

    #[test]
    fn terminal_job_statuses() {
        assert!(JobStatus::Done.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(!JobStatus::Active.is_terminal());
        assert!(!JobStatus::Pending.is_terminal());
    }
}
