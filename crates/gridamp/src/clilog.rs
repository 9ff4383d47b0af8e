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
//! the exact line to paste. Beside the command lines, in the order they
//! happened, are what the daemon decided about each simulation: its
//! transitions, transient retries, holds, lease takeovers, fences and
//! reconciled submissions, and the daemon's own errors.

use amp_core::status::SimStatus;
use amp_grid::{GramJobSpec, GramService, GridError};
use std::collections::VecDeque;

/// Outcome of one logged grid call.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    Ok,
    /// Anticipated transient (silently retried; admins notified).
    Transient(String),
    /// Hard failure (model-failure class).
    Failed(String),
}

/// What one operations-log entry tells.
#[derive(Debug, Clone, PartialEq)]
pub enum OpsEvent {
    /// A grid call: the copy-pasteable command line and how it ended.
    Command { command: String, outcome: OpOutcome },
    /// The simulation moved from one Listing-1 state to the next.
    Transition { from: SimStatus, to: SimStatus },
    /// A step failed transiently, the `streak`-th time in a row.
    Transient { streak: u32, message: String },
    /// The simulation was parked in HOLD.
    Hold { reason: String },
    /// This daemon took the simulation's expired lease over from `from`,
    /// at fencing epoch `epoch`.
    Takeover { from: String, epoch: i64 },
    /// The lease moved to another daemon mid-step: the step backed out.
    Fence { message: String },
    /// A submission the site had accepted got the job row it lacked.
    Reconciled { submission_id: String },
    /// A daemon-class failure (surfaced to the external monitor).
    DaemonError { message: String },
}

impl OpsEvent {
    /// A grid call's line: its command line and how `result` says it ended.
    pub fn command<T>(command: String, result: &Result<T, GridError>) -> OpsEvent {
        let outcome = match result {
            Ok(_) => OpOutcome::Ok,
            Err(e) if e.is_transient() => OpOutcome::Transient(e.to_string()),
            Err(e) => OpOutcome::Failed(e.to_string()),
        };
        OpsEvent::Command { command, outcome }
    }
}

/// One operations-log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsEntry {
    /// Simulated time of the call or decision (seconds).
    pub at: i64,
    /// Simulation this entry is about, if any.
    pub simulation_id: Option<i64>,
    pub event: OpsEvent,
}

impl OpsEntry {
    /// `ok`, `WARN` or `ERROR`: how the entry is highlighted.
    fn level(&self) -> &'static str {
        match &self.event {
            OpsEvent::Command {
                outcome: OpOutcome::Ok,
                ..
            }
            | OpsEvent::Transition { .. }
            | OpsEvent::Takeover { .. }
            | OpsEvent::Reconciled { .. } => "ok",
            OpsEvent::Command {
                outcome: OpOutcome::Transient(_),
                ..
            }
            | OpsEvent::Transient { .. }
            | OpsEvent::Fence { .. } => "WARN",
            OpsEvent::Command { .. } | OpsEvent::Hold { .. } | OpsEvent::DaemonError { .. } => {
                "ERROR"
            }
        }
    }

    pub fn is_failure(&self) -> bool {
        self.level() != "ok"
    }

    /// Render one log line, highlighting warnings/errors as the paper
    /// describes.
    pub fn render(&self) -> String {
        let head = format!("t={} {:<5}", self.at, self.level());
        let sim = self.simulation_id.map(|id| format!("sim {id}: "));
        let sim = sim.unwrap_or_default();
        match &self.event {
            OpsEvent::Command { command, outcome } => match outcome {
                OpOutcome::Ok => format!("{head} $ {command}"),
                OpOutcome::Transient(m) => format!(
                    "{head} $ {command}\n            transient: {m} (will retry; paste the line above to retry manually)"
                ),
                OpOutcome::Failed(m) => format!(
                    "{head} $ {command}\n            failed: {m} (paste the line above to reproduce)"
                ),
            },
            OpsEvent::Transition { from, to } => format!("{head} {sim}{from} -> {to}"),
            OpsEvent::Transient { streak, message } => {
                format!("{head} {sim}transient #{streak}: {message}")
            }
            OpsEvent::Hold { reason } => format!("{head} {sim}HOLD: {reason}"),
            OpsEvent::Takeover { from, epoch } => {
                format!("{head} {sim}lease taken over from {from} (epoch {epoch})")
            }
            OpsEvent::Fence { message } => format!("{head} {sim}fenced: {message}"),
            OpsEvent::Reconciled { submission_id } => {
                format!("{head} {sim}reconciled {submission_id}")
            }
            OpsEvent::DaemonError { message } => format!("{head} {sim}daemon: {message}"),
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

    pub fn record(&mut self, at: i64, simulation_id: Option<i64>, event: OpsEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(OpsEntry {
            at,
            simulation_id,
            event,
        });
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
        let skip = self.entries.len().saturating_sub(n);
        let lines: Vec<String> = self.entries.iter().skip(skip).map(|e| e.render()).collect();
        lines.join("\n")
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

/// The `globus-job-clean`-equivalent command line that makes a site forget
/// a submission id, so that the next submission under it creates a new job.
pub fn gram_release_cmdline(site: &str, submission_id: &str) -> String {
    format!("globus-job-clean -r {site} {submission_id}")
}

/// The `uberftp`-equivalent command line that removes a remote tree.
pub fn ftp_remove_cmdline(site: &str, remote: &str) -> String {
    format!("uberftp {site} \"rm -r {remote}\"")
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
        assert_eq!(
            gram_release_cmdline("kraken", "sim3/stellar/WORK/r0c1"),
            "globus-job-clean -r kraken sim3/stellar/WORK/r0c1"
        );
        assert!(ftp_cmdline(
            "kraken",
            true,
            "/tmp/obs.in",
            "amp/sim3/run0/observations.in"
        )
        .contains("gsiftp://kraken/amp/sim3/run0/observations.in"));
    }

    fn command(command: &str, outcome: OpOutcome) -> OpsEvent {
        let command = command.to_string();
        OpsEvent::Command { command, outcome }
    }

    #[test]
    fn log_is_bounded_and_highlights_failures() {
        let mut log = OpsLog::with_capacity(3);
        for i in 0..5 {
            log.record(i, Some(1), command(&format!("cmd{i}"), OpOutcome::Ok));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries().next().unwrap().at, 2);

        let unreachable = OpOutcome::Transient("GRAM on kraken unreachable".into());
        let pbs = "globusrun -b -r kraken/jobmanager-pbs '&(...)'";
        log.record(9, None, command(pbs, unreachable));
        assert_eq!(log.failures().count(), 1);
        let tail = log.render_tail(2);
        assert!(tail.contains("WARN"));
        assert!(tail.contains("paste the line above"));
        assert!(tail.contains("$ globusrun"));
    }

    #[test]
    fn render_formats() {
        let entry = |event| OpsEntry {
            at: 5,
            simulation_id: Some(3),
            event,
        };
        let ok = entry(command("globus-job-status x", OpOutcome::Ok));
        assert_eq!(ok.render(), "t=5 ok    $ globus-job-status x");
        let failed = entry(command("x", OpOutcome::Failed("no such job".into())));
        assert!(failed
            .render()
            .starts_with("t=5 ERROR $ x\n            failed: no such job"));
        assert!(failed.is_failure() && !ok.is_failure());

        let (from, to) = (SimStatus::PreJob, SimStatus::Running);
        let moved = entry(OpsEvent::Transition { from, to });
        assert_eq!(moved.render(), "t=5 ok    sim 3: PREJOB -> RUNNING");
        let held = entry(OpsEvent::Hold {
            reason: "transient storm: GRAM down".into(),
        });
        assert_eq!(
            held.render(),
            "t=5 ERROR sim 3: HOLD: transient storm: GRAM down"
        );
        let fenced = entry(OpsEvent::Fence {
            message: "lease moved".into(),
        });
        assert!(fenced.render().starts_with("t=5 WARN  sim 3: fenced"));
        assert!(held.is_failure() && fenced.is_failure() && !moved.is_failure());
    }
}
