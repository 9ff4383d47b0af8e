//! GRAM job-submission types: the RSL-like job specification, contact
//! handles, and the status vocabulary the GridAMP daemon polls.
//!
//! AMP deliberately drives GRAM through thin command-line-style calls
//! (§4.4: "the GridAMP daemon directly formulates and submits GRAM
//! execution requests"); this module is the data vocabulary of those calls.

use crate::scheduler::{JobOutcome, JobState};
use crate::time::{SimDuration, SimTime};

/// Which GRAM job service to use (§4.3: setup/teardown scripts run via the
/// fork service; the model runs through the scheduler interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GramService {
    /// Immediate execution on the login node.
    #[default]
    Fork,
    /// Submission to the site batch scheduler.
    Batch,
}

/// A GRAM job description.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GramJobSpec {
    pub service: GramService,
    /// Path of the installed executable on the remote site.
    pub executable: String,
    pub args: Vec<String>,
    /// Scratch working directory for the job.
    pub workdir: String,
    /// Processor cores (batch only; fork jobs run on the login node).
    pub cores: u32,
    pub walltime: SimDuration,
    /// Handles of jobs that must succeed first (scheduler job chaining,
    /// §6). Only honoured on systems that support it.
    pub depends_on: Vec<GramJobHandle>,
    /// Human-readable name for audit/Gantt output.
    pub name: String,
    /// Client-chosen submission id (GT4 WS-GRAM's `-submission-id`): a site
    /// accepts an id once and answers a repeat with the job it already has,
    /// so a client that lost the reply — or its own record of it — submits
    /// again and cannot create a second job. `None` is a plain submission.
    pub submission_id: Option<String>,
}

/// One accepted submission id, as [`crate::Grid::gram_submissions`] lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct GramSubmission {
    pub id: String,
    pub handle: GramJobHandle,
    pub service: GramService,
    pub cores: u32,
}

/// An opaque GRAM contact string, e.g.
/// `gram://kraken/jobmanager-pbs/42`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GramJobHandle(pub String);

impl GramJobHandle {
    pub fn new(site: &str, service: GramService, id: u64) -> Self {
        let mgr = match service {
            GramService::Fork => "jobmanager-fork",
            GramService::Batch => "jobmanager-pbs",
        };
        GramJobHandle(format!("gram://{site}/{mgr}/{id}"))
    }

    /// Parse `(site, local job id)` out of the contact string.
    pub fn parse(&self) -> Option<(String, u64)> {
        let rest = self.0.strip_prefix("gram://")?;
        let mut parts = rest.split('/');
        let site = parts.next()?.to_string();
        let _mgr = parts.next()?;
        let id = parts.next()?.parse().ok()?;
        Some((site, id))
    }
}

impl std::fmt::Display for GramJobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The GRAM status vocabulary the daemon's generic poll understands.
#[derive(Debug, Clone, PartialEq)]
pub enum GramState {
    /// Queued (or held on dependencies).
    Pending,
    Active,
    Done,
    Failed(String),
}

impl GramState {
    pub fn is_terminal(&self) -> bool {
        matches!(self, GramState::Done | GramState::Failed(_))
    }

    /// Map a scheduler job state onto the GRAM vocabulary.
    pub fn from_job_state(state: &JobState) -> GramState {
        match state {
            JobState::Waiting => GramState::Pending,
            JobState::Running { .. } => GramState::Active,
            JobState::Done { outcome, .. } => match outcome {
                JobOutcome::Success => GramState::Done,
                JobOutcome::AppFailure(m) => GramState::Failed(m.clone()),
                JobOutcome::WalltimeExceeded => GramState::Failed("walltime exceeded".to_string()),
            },
            JobState::Cancelled { reason } => GramState::Failed(format!("cancelled: {reason}")),
        }
    }
}

/// Submit/start/end record for one job — the raw data of the §6 Gantt tool.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimes {
    pub name: String,
    pub cores: u32,
    pub submitted_at: SimTime,
    pub started_at: Option<SimTime>,
    pub ended_at: Option<SimTime>,
    pub state: GramState,
}

impl JobTimes {
    pub fn wait(&self) -> Option<SimDuration> {
        self.started_at.map(|s| s - self.submitted_at)
    }

    pub fn run(&self) -> Option<SimDuration> {
        match (self.started_at, self.ended_at) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let h = GramJobHandle::new("kraken", GramService::Batch, 42);
        assert_eq!(h.to_string(), "gram://kraken/jobmanager-pbs/42");
        assert_eq!(h.parse(), Some(("kraken".to_string(), 42)));
        let f = GramJobHandle::new("frost", GramService::Fork, 7);
        assert!(f.0.contains("jobmanager-fork"));
        assert_eq!(f.parse(), Some(("frost".to_string(), 7)));
    }

    #[test]
    fn handle_parse_rejects_garbage() {
        assert_eq!(GramJobHandle("nonsense".into()).parse(), None);
        assert_eq!(GramJobHandle("gram://only-site".into()).parse(), None);
        assert_eq!(
            GramJobHandle("gram://site/mgr/notanumber".into()).parse(),
            None
        );
    }

    #[test]
    fn state_mapping() {
        assert_eq!(
            GramState::from_job_state(&JobState::Waiting),
            GramState::Pending
        );
        assert!(GramState::from_job_state(&JobState::Done {
            started_at: SimTime(0),
            ended_at: SimTime(1),
            outcome: JobOutcome::Success,
        })
        .is_terminal());
        let failed = GramState::from_job_state(&JobState::Done {
            started_at: SimTime(0),
            ended_at: SimTime(1),
            outcome: JobOutcome::WalltimeExceeded,
        });
        assert!(matches!(failed, GramState::Failed(_)));
        assert!(!GramState::Pending.is_terminal());
    }

    #[test]
    fn job_times_accessors() {
        let t = JobTimes {
            name: "ga".into(),
            cores: 128,
            submitted_at: SimTime(100),
            started_at: Some(SimTime(400)),
            ended_at: Some(SimTime(1000)),
            state: GramState::Done,
        };
        assert_eq!(t.wait().unwrap().as_secs(), 300);
        assert_eq!(t.run().unwrap().as_secs(), 600);
        let q = JobTimes {
            started_at: None,
            ended_at: None,
            state: GramState::Pending,
            ..t
        };
        assert_eq!(q.wait(), None);
        assert_eq!(q.run(), None);
    }
}
