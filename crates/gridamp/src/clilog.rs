//! The operations log: Globus command-line transparency.
//!
//! §4.4: "The most important operational benefit for wrapping command line
//! clients is that it provides excellent support for troubleshooting. The
//! daemon produces logs that clearly highlight warnings and errors with
//! the relevant command lines displayed for failure cases. To
//! troubleshoot, a developer needs only to open a new console on the
//! GridAMP server and copy-paste the line at the shell prompt to retry the
//! failed action."
//!
//! Every grid client call the daemon makes is recorded here with its
//! Globus-CLI-equivalent command line; failures are highlighted and keep
//! the exact line to paste.

use amp_grid::{GramJobSpec, GramService};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Outcome of one logged operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpOutcome {
    Ok,
    /// Anticipated transient (silently retried; admins notified).
    Transient(String),
    /// Hard failure (model-failure class).
    Failed(String),
}

/// One operations-log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpsEntry {
    /// Simulated time of the call (seconds).
    pub at: i64,
    /// Simulation this call served, if any.
    pub simulation_id: Option<i64>,
    /// The copy-pasteable command line.
    pub command: String,
    pub outcome: OpOutcome,
}

impl OpsEntry {
    pub fn is_failure(&self) -> bool {
        !matches!(self.outcome, OpOutcome::Ok)
    }

    /// Render one log line, highlighting warnings/errors as the paper
    /// describes.
    pub fn render(&self) -> String {
        match &self.outcome {
            OpOutcome::Ok => format!("t={} ok    $ {}", self.at, self.command),
            OpOutcome::Transient(m) => format!(
                "t={} WARN  $ {}\n            transient: {m} (will retry; paste the line above to retry manually)",
                self.at, self.command
            ),
            OpOutcome::Failed(m) => format!(
                "t={} ERROR $ {}\n            failed: {m} (paste the line above to reproduce)",
                self.at, self.command
            ),
        }
    }
}

/// Bounded in-memory operations log (the daemon's console/log file).
#[derive(Debug, Default)]
pub struct OpsLog {
    entries: VecDeque<OpsEntry>,
    capacity: usize,
}

impl OpsLog {
    pub fn new() -> OpsLog {
        OpsLog {
            entries: VecDeque::new(),
            capacity: 10_000,
        }
    }

    pub fn with_capacity(capacity: usize) -> OpsLog {
        OpsLog {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn record(&mut self, entry: OpsEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    pub fn entries(&self) -> impl Iterator<Item = &OpsEntry> {
        self.entries.iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Failure entries only — what a troubleshooting session greps for.
    pub fn failures(&self) -> impl Iterator<Item = &OpsEntry> {
        self.entries.iter().filter(|e| e.is_failure())
    }

    /// Render the tail of the log (most recent `n` entries).
    pub fn render_tail(&self, n: usize) -> String {
        self.entries
            .iter()
            .rev()
            .take(n)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .map(|e| e.render())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The `globusrun`-equivalent command line for a GRAM submission. It
/// carries the submission id, so pasting it repeats the submission without
/// creating a second job.
pub fn gram_submit_cmdline(site: &str, spec: &GramJobSpec) -> String {
    let manager = match spec.service {
        GramService::Fork => "jobmanager-fork",
        GramService::Batch => "jobmanager-pbs",
    };
    let mut rsl = format!(
        "&(executable={})(directory={})(count={})(maxWallTime={})",
        spec.executable,
        spec.workdir,
        spec.cores.max(1),
        spec.walltime.as_minutes().ceil() as u64,
    );
    if !spec.args.is_empty() {
        rsl.push_str(&format!("(arguments={})", spec.args.join(" ")));
    }
    for dep in &spec.depends_on {
        rsl.push_str(&format!("(dependsOn={dep})"));
    }
    let id = spec.submission_id.as_deref();
    let (flag, id) = id.map_or(("", ""), |id| (" -submission-id ", id));
    format!("globusrun -b -r {site}/{manager}{flag}{id} '{rsl}'")
}

/// The `globus-job-status`-equivalent poll command line.
pub fn gram_status_cmdline(handle: &str) -> String {
    format!("globus-job-status {handle}")
}

/// The `globus-url-copy`-equivalent transfer command line.
pub fn ftp_cmdline(site: &str, put: bool, local: &str, remote: &str) -> String {
    if put {
        format!("globus-url-copy file://{local} gsiftp://{site}/{remote}")
    } else {
        format!("globus-url-copy gsiftp://{site}/{remote} file://{local}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_grid::{GramJobHandle, SimDuration};

    fn spec() -> GramJobSpec {
        GramJobSpec {
            service: GramService::Batch,
            executable: "/amp/bin/mpikaia".into(),
            args: vec!["126".into(), "200".into(), "7".into()],
            workdir: "amp/sim3/run0".into(),
            cores: 128,
            walltime: SimDuration::from_hours(6.0),
            depends_on: vec![GramJobHandle::new("kraken", GramService::Batch, 9)],
            name: "sim3/stellar/WORK/r0c1".into(),
            submission_id: None,
        }
    }

    #[test]
    fn cmdlines_are_copy_pasteable_globus_syntax() {
        let cmd = gram_submit_cmdline("kraken", &spec());
        assert!(cmd.starts_with("globusrun -b -r kraken/jobmanager-pbs '&"));
        assert!(cmd.contains("(executable=/amp/bin/mpikaia)"));
        assert!(cmd.contains("(count=128)"));
        assert!(cmd.contains("(maxWallTime=360)"));
        assert!(cmd.contains("(arguments=126 200 7)"));
        assert!(cmd.contains("dependsOn=gram://kraken/jobmanager-pbs/9"));
        let mut with_id = spec();
        with_id.submission_id = Some(with_id.name.clone());
        assert!(gram_submit_cmdline("kraken", &with_id).starts_with(
            "globusrun -b -r kraken/jobmanager-pbs -submission-id sim3/stellar/WORK/r0c1 '&"
        ));

        assert_eq!(
            gram_status_cmdline("gram://kraken/jobmanager-pbs/42"),
            "globus-job-status gram://kraken/jobmanager-pbs/42"
        );
        assert!(ftp_cmdline(
            "kraken",
            true,
            "/tmp/obs.in",
            "amp/sim3/run0/observations.in"
        )
        .contains("gsiftp://kraken/amp/sim3/run0/observations.in"));
    }

    #[test]
    fn log_is_bounded_and_highlights_failures() {
        let mut log = OpsLog::with_capacity(3);
        for i in 0..5 {
            log.record(OpsEntry {
                at: i,
                simulation_id: Some(1),
                command: format!("cmd{i}"),
                outcome: OpOutcome::Ok,
            });
        }
        assert_eq!(log.len(), 3);
        assert!(log.entries().next().unwrap().command == "cmd2");

        log.record(OpsEntry {
            at: 9,
            simulation_id: None,
            command: "globusrun -b -r kraken/jobmanager-pbs '&(...)'".into(),
            outcome: OpOutcome::Transient("GRAM on kraken unreachable".into()),
        });
        assert_eq!(log.failures().count(), 1);
        let tail = log.render_tail(2);
        assert!(tail.contains("WARN"));
        assert!(tail.contains("paste the line above"));
        assert!(tail.contains("$ globusrun"));
    }

    #[test]
    fn render_formats() {
        let ok = OpsEntry {
            at: 5,
            simulation_id: None,
            command: "globus-job-status x".into(),
            outcome: OpOutcome::Ok,
        };
        assert!(ok.render().starts_with("t=5 ok"));
        let failed = OpsEntry {
            outcome: OpOutcome::Failed("no such job".into()),
            ..ok.clone()
        };
        assert!(failed.render().contains("ERROR"));
        assert!(failed.is_failure());
        assert!(!ok.is_failure());
    }
}
