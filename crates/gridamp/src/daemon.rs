//! The GridAMP daemon process.
//!
//! §4.4: the daemon "reads simulation information from the centralized
//! database, performs the necessary grid client actions, and updates the
//! database accordingly". Each tick it (1) polls the status of every grid
//! job generically — "no special callbacks or processing are performed as
//! part of the grid job status update procedure" — then (2) steps each
//! simulation's workflow from its last-known job statuses, and (3) handles
//! the failure taxonomy: silent retry for transients, HOLD + notification
//! for model failures, and an externally monitored heartbeat for daemon
//! failures.
//!
//! ## The tick
//!
//! One loop, on the caller's thread: claim leases → `pause_point` → poll
//! phase → step phase → closing flush (DESIGN §7). A step is a [`Decision`]
//! made from reads only ([`crate::workflow`]) and applied here, by one
//! applier: the effects in order, one write of the simulation row, the
//! outcome. Every write goes through the daemon's one deferring
//! [`Connection`]. A second core is a second daemon over the same database
//! (DESIGN §12).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use amp_core::models::{
    Allocation, AmpUser, GridJobRecord, Lease, Notification, NotifyMode, Simulation, Star,
};
use amp_core::status::{JobStatus, SimStatus};
use amp_grid::{CommunityCredential, GramJobHandle, GramState, Grid, GridError, SimDuration};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Connection, Db, DbError, Op, Query, Value};

use crate::clilog::{
    ftp_cmdline, ftp_remove_cmdline, gram_release_cmdline, gram_status_cmdline,
    gram_submit_cmdline, OpsEvent, OpsLog,
};
use crate::error::WorkflowError;
use crate::lease::{self, ClaimOutcome};
use crate::optimize::PartialResults;
use crate::workflow::{
    self, owner_username, submission_id, DaemonConfig, Decision, Effect, View, PROXY_LIFETIME,
    STAGING,
};

/// Daemon-wide metric handles with a fixed name, resolved once (the per-state
/// transition and per-site poll series are resolved at their call sites).
pub(crate) struct DaemonMetrics {
    job_transitions: amp_obs::Counter,
    transient_retries: amp_obs::Counter,
    holds: amp_obs::Counter,
    errors: amp_obs::Counter,
    lease_claims: amp_obs::Counter,
    lease_renewals: amp_obs::Counter,
    lease_takeovers: amp_obs::Counter,
    lease_losses: amp_obs::Counter,
    lease_fences: amp_obs::Counter,
    /// `daemon_gram_submissions_total{outcome=…}`: `[accepted, known,
    /// reconciled]` — a job the site created for us, a repeat it answered
    /// with the job it already had, a record from the site's own list.
    submissions: [amp_obs::Counter; 3],
    /// `gridamp_tick_stage_seconds{stage=…}`: where a tick's wall time
    /// goes. The four stages are contiguous, so their sums add up to the
    /// time spent in [`GridAmp::tick`] (less a `pause_point` hook, which
    /// belongs to no stage).
    stage_claim: amp_obs::Histogram,
    stage_poll: amp_obs::Histogram,
    stage_step: amp_obs::Histogram,
    stage_flush: amp_obs::Histogram,
}

pub(crate) fn obs_metrics() -> &'static DaemonMetrics {
    static METRICS: std::sync::OnceLock<DaemonMetrics> = std::sync::OnceLock::new();
    let stage = |name| {
        amp_obs::registry().histogram(
            &amp_obs::labeled("gridamp_tick_stage_seconds", &[("stage", name)]),
            amp_obs::Unit::Seconds,
        )
    };
    METRICS.get_or_init(|| DaemonMetrics {
        job_transitions: amp_obs::counter("daemon_job_transitions_total"),
        transient_retries: amp_obs::counter("daemon_transient_retries_total"),
        holds: amp_obs::counter("daemon_holds_total"),
        errors: amp_obs::counter("daemon_errors_total"),
        lease_claims: amp_obs::counter("daemon_lease_claims_total"),
        lease_renewals: amp_obs::counter("daemon_lease_renewals_total"),
        lease_takeovers: amp_obs::counter("daemon_lease_takeovers_total"),
        lease_losses: amp_obs::counter("daemon_lease_losses_total"),
        lease_fences: amp_obs::counter("daemon_lease_fences_total"),
        submissions: ["accepted", "known", "reconciled"].map(|outcome| {
            amp_obs::counter(&amp_obs::labeled(
                "daemon_gram_submissions_total",
                &[("outcome", outcome)],
            ))
        }),
        stage_claim: stage("claim"),
        stage_poll: stage("poll"),
        stage_step: stage("step"),
        stage_flush: stage("flush"),
    })
}

/// Summary of one daemon tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// Grid jobs whose status changed this tick, a failed poll included.
    pub job_transitions: usize,
    /// (simulation id, from, to) workflow transitions this tick.
    pub transitions: Vec<(i64, SimStatus, SimStatus)>,
    pub transient_errors: usize,
    pub new_holds: usize,
    /// Daemon-class failures (surfaced to the external monitor).
    pub daemon_errors: Vec<String>,
}

/// The username a simulation's proxies carry — its owner's — looked up once
/// per simulation per poll phase instead of two row reads per polled job.
fn proxy_username<'a>(
    names: &'a mut HashMap<i64, String>,
    conn: &Connection,
    sim_id: i64,
) -> &'a str {
    names.entry(sim_id).or_insert_with(|| {
        Manager::<Simulation>::new(conn.clone())
            .get(sim_id)
            .ok()
            .and_then(|s| owner_username(conn, &s).ok())
            .unwrap_or_else(|| "amp-gateway".to_string())
    })
}

/// What the poll phase (phase 1) carries from one job to the next.
#[derive(Default)]
struct PollPhase {
    /// Proxy usernames by simulation ([`proxy_username`]).
    names: HashMap<i64, String>,
    /// Dirtied job rows, for [`commit_job_batch`].
    dirty: Vec<GridJobRecord>,
    /// The `daemon_gram_poll_seconds{site=…}` series by site: a formatted
    /// name and a registry lookup, so each is resolved once per phase.
    poll_seconds: HashMap<String, amp_obs::Histogram>,
}

/// Commit the poll phase's dirtied job rows as one transaction: one WAL
/// batch, however many jobs moved. A crash before the tick's flush loses
/// them, and the next poll re-derives them from GRAM.
fn commit_job_batch(conn: &Connection, batch: &[GridJobRecord]) -> Result<(), DbError> {
    if batch.is_empty() {
        return Ok(());
    }
    conn.transaction(&[GridJobRecord::TABLE], |tx| {
        for job in batch {
            let id = job.id().expect("polled jobs are persisted rows");
            tx.update(GridJobRecord::TABLE, id, &job.to_values())?;
        }
        Ok(())
    })
}

/// An instant inside a step, just after the applier did one thing, named by
/// `kind`: `staged_in`, `accepted` (a submission whose record is not written
/// yet), `recorded` (a job record), `released`, `removed`, or `written`
/// (the simulation row, with its charge).
#[derive(Debug, Clone, Copy)]
pub struct StepPoint<'a> {
    pub kind: &'static str,
    /// The job of an `accepted` or `recorded` point.
    pub job: Option<&'a GridJobRecord>,
}

/// A [`StepPoint`] hook.
pub type StepHook = dyn Fn(StepPoint<'_>) + Send;

/// The workflow daemon.
pub struct GridAmp {
    db: Db,
    conn: Connection,
    pub config: DaemonConfig,
    cred: CommunityCredential,
    /// Consecutive transient-failure count per simulation.
    transient_streak: HashMap<i64, u32>,
    /// Simulated time of the last completed tick (heartbeat).
    pub last_heartbeat: Option<i64>,
    /// §4.4: the command-line transparency log, and what the daemon
    /// decided about each simulation beside it.
    ops_log: OpsLog,
    /// The simulations this daemon holds leases on, with the held epoch,
    /// rebuilt by every claim phase: in id order, the step phase's worklist.
    owned: BTreeMap<i64, i64>,
    /// What the last step of each owned optimization knew of its partial
    /// results ([`PartialResults`]): replaced or dropped by every step, dropped
    /// with a lost lease, never written to the database.
    partial: HashMap<i64, PartialResults>,
    /// Clock-skew fault injection: seconds added to this daemon's clock for
    /// lease accounting (a fast daemon attempts takeovers the fencing must
    /// absorb).
    pub clock_skew_secs: i64,
    /// Chaos-test instrumentation, invoked between the claim phase and the
    /// work phases: a harness can park the daemon here (a GC-style pause)
    /// while peers take its leases over.
    pub pause_point: Option<Box<dyn FnMut() + Send>>,
    /// Crash-test instrumentation inside the step phase: called at every
    /// [`StepPoint`], after each effect the applier performs.
    pub step_point: Option<Box<StepHook>>,
    /// The owned simulations that have been stepped without error since
    /// this process came to own them: the first such step reconciles the job
    /// table with what the site accepted ([`workflow::decide_reconcile`]).
    reconciled: HashSet<i64>,
}

impl GridAmp {
    /// Connect to the central database with the daemon role. The
    /// connection defers its flushes: the tick is the daemon's commit
    /// (see [`Self::tick`]).
    pub fn new(db: &Db, config: DaemonConfig) -> Result<Self, DbError> {
        let conn = db.connect(amp_core::roles::ROLE_DAEMON)?.deferred();
        Ok(GridAmp {
            db: db.clone(),
            conn,
            config,
            cred: CommunityCredential::new("/C=US/O=NCAR/CN=amp community"),
            transient_streak: HashMap::new(),
            last_heartbeat: None,
            ops_log: OpsLog::new(),
            owned: BTreeMap::new(),
            partial: HashMap::new(),
            clock_skew_secs: 0,
            pause_point: None,
            step_point: None,
            reconciled: HashSet::new(),
        })
    }

    /// This daemon's identity in the lease table.
    pub fn daemon_id(&self) -> &str {
        &self.config.daemon_id
    }

    /// The simulations this daemon owned as of its last claim phase.
    pub fn owned_sims(&self) -> Vec<i64> {
        self.owned.keys().copied().collect()
    }

    /// The operations log: every grid call as its Globus command line (§4.4)
    /// and, in order beside them, what the daemon decided and what failed.
    pub fn ops_log(&self) -> &OpsLog {
        &self.ops_log
    }

    /// The community credential (so tests/benches can authorize sites).
    pub fn credential(&self) -> &CommunityCredential {
        &self.cred
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    fn sims(&self) -> Manager<Simulation> {
        Manager::new(self.conn.clone())
    }

    fn notifications(&self) -> Manager<Notification> {
        Manager::new(self.conn.clone())
    }

    fn notify_user(&self, sim: &Simulation, subject: &str, body: &str, now: i64) {
        let mut n = Notification::to_user(sim.owner_id, sim.id, subject, body, now);
        let _ = self.notifications().create(&mut n);
    }

    fn notify_admins(&self, sim_id: Option<i64>, subject: &str, body: &str, now: i64) {
        let mut n = Notification::to_admins(sim_id, subject, body, now);
        let _ = self.notifications().create(&mut n);
    }

    /// Lease-claim phase: walk the live simulations and claim, renew, or
    /// take over each one's lease. Rebuilds the ownership map both work
    /// phases filter on.
    fn claim_leases(&mut self, grid: &Grid, report: &mut TickReport) {
        let live = match self.live_sims() {
            Ok(v) => v,
            Err(e) => {
                report.daemon_errors.push(e.to_string());
                return;
            }
        };
        // The daemon's own (possibly skewed) clock drives lease expiry.
        let at = grid.now().as_secs() as i64;
        let now = at + self.clock_skew_secs;
        let ttl = self.config.lease_ttl_secs;
        let mut owned = BTreeMap::new();
        for (sim_id, app) in live {
            match lease::claim(&self.conn, &self.config.daemon_id, sim_id, &app, now, ttl) {
                Ok(outcome) => {
                    match &outcome {
                        ClaimOutcome::Claimed { .. } => obs_metrics().lease_claims.inc(),
                        ClaimOutcome::Renewed { .. } => obs_metrics().lease_renewals.inc(),
                        ClaimOutcome::TakenOver { epoch, from } => {
                            obs_metrics().lease_takeovers.inc();
                            let (from, epoch) = (from.clone(), *epoch);
                            let takeover = OpsEvent::Takeover { from, epoch };
                            self.ops_log.record(at, Some(sim_id), takeover);
                        }
                        ClaimOutcome::Lost => obs_metrics().lease_losses.inc(),
                        ClaimOutcome::Kept { .. } | ClaimOutcome::Held { .. } => {}
                    }
                    if let Some(epoch) = outcome.held_epoch() {
                        owned.insert(sim_id, epoch);
                    }
                }
                Err(e) => report
                    .daemon_errors
                    .push(format!("lease claim sim {sim_id}: {e}")),
            }
        }
        self.partial.retain(|sim_id, _| owned.contains_key(sim_id));
        self.reconciled.retain(|sim_id| owned.contains_key(sim_id));
        self.owned = owned;
    }

    /// Drop our lease on a settled (DONE or HOLD) simulation. Advisory —
    /// expiry would clean up anyway — but keeps the lease table equal to
    /// the live working set.
    fn release_lease(&mut self, sim_id: i64) {
        self.owned.remove(&sim_id);
        let _ = lease::release(&self.conn, &self.config.daemon_id, sim_id);
    }

    /// One daemon cycle, and the daemon's unit of durability: its writes are
    /// visible as they happen and flushed once, at the end. What a crash
    /// loses, the next owner recomputes from what is durable and from the
    /// site (DESIGN §9).
    pub fn tick(&mut self, grid: &Grid) -> TickReport {
        let metrics = obs_metrics();
        let mut since = Instant::now();
        let mut report = TickReport::default();
        self.claim_leases(grid, &mut report);
        metrics.stage_claim.lap(&mut since);
        if let Some(hook) = self.pause_point.as_mut() {
            hook();
            since = Instant::now();
        }
        self.poll_phase(grid, &mut report);
        metrics.stage_poll.lap(&mut since);
        self.step_phase(grid, &mut report);
        metrics.stage_step.lap(&mut since);
        let now = grid.now().as_secs() as i64;
        if let Err(e) = self.conn.flush() {
            report.daemon_errors.push(format!("tick flush: {e}"));
        }
        metrics.stage_flush.lap(&mut since);
        self.last_heartbeat = Some(now + self.clock_skew_secs);
        // Daemon-class errors go to the external monitor: count them, and
        // log them beside the commands and decisions that led up to them.
        for message in &report.daemon_errors {
            metrics.errors.inc();
            let message = message.clone();
            self.ops_log
                .record(now, None, OpsEvent::DaemonError { message });
        }
        report
    }

    /// `(id, column)` of every row of `table` that `query` selects, in
    /// primary-key order: one projection over the query's index postings (an
    /// `Op::In` unions them), no row body decoded. It reads through a view
    /// pinning both the job and the simulation tables, so that a transaction
    /// over both is wholly visible to the tick or not at all; the pin is
    /// lock-free and never stalls a writer.
    fn project(
        &self,
        table: &str,
        query: &Query,
        column: &str,
    ) -> Result<Vec<(i64, Value)>, DbError> {
        let view = self
            .conn
            .read_view(&[GridJobRecord::TABLE, Simulation::TABLE])?;
        view.select_project(table, query, column)
    }

    /// The poll phase's worklist: `(job id, owning simulation id)` of every
    /// pending or active job record.
    fn pending_job_ids(&self) -> Result<Vec<(i64, i64)>, DbError> {
        let statuses = [JobStatus::Pending, JobStatus::Active].map(|s| Value::from(s.as_str()));
        let pending = Query::new().filter("status", Op::In(statuses.into()), Value::Null);
        let owners = self.project(GridJobRecord::TABLE, &pending, "simulation_id")?;
        Ok(owners
            .into_iter()
            .filter_map(|(job_id, owner)| match owner {
                Value::Int(sim_id) => Some((job_id, sim_id)),
                _ => None,
            })
            .collect())
    }

    /// Selects the live simulations: every Listing-1 state short of DONE
    /// (HOLD is parked, not live).
    fn live_query() -> Query {
        let statuses: Vec<Value> = SimStatus::happy_path()
            .iter()
            .filter(|s| !s.is_terminal())
            .map(|s| Value::from(s.as_str()))
            .collect();
        Query::new().filter("status", Op::In(statuses), Value::Null)
    }

    /// The claim phase's worklist: `(id, app)` of every live simulation (the
    /// app rides along so lease rows carry per-application ownership).
    fn live_sims(&self) -> Result<Vec<(i64, Arc<str>)>, DbError> {
        let apps = self.project(Simulation::TABLE, &Self::live_query(), "app")?;
        Ok(apps
            .into_iter()
            .filter_map(|(sim_id, app)| match app {
                Value::Text(app) => Some((sim_id, app)),
                _ => None,
            })
            .collect())
    }

    /// Phase 1: generic grid-job status update (identical for all jobs
    /// "regardless of purpose or execution method", §4.4) over the owned
    /// simulations' pending jobs, in job-id order, committed as one
    /// transaction ([`commit_job_batch`]).
    fn poll_phase(&mut self, grid: &Grid, report: &mut TickReport) {
        let pending = match self.pending_job_ids() {
            Ok(v) => v,
            Err(e) => {
                report.daemon_errors.push(e.to_string());
                return;
            }
        };
        let jobs: Manager<GridJobRecord> = Manager::new(self.conn.clone());
        let mut phase = PollPhase::default();
        for (job_id, sim_id) in pending {
            // Only the lease holder polls a simulation's jobs.
            if !self.owned.contains_key(&sim_id) {
                continue;
            }
            if let Ok(job) = jobs.get(job_id) {
                self.poll_job(grid, job, &mut phase, report);
            }
        }
        if let Err(e) = commit_job_batch(&self.conn, &phase.dirty) {
            report.daemon_errors.push(format!("job batch commit: {e}"));
        }
    }

    /// Poll one job's GRAM status, pushing a dirtied row onto `phase.dirty`.
    /// A failed poll goes on the ops log: a transient is retried next tick,
    /// any other error fails the job.
    fn poll_job(
        &mut self,
        grid: &Grid,
        mut job: GridJobRecord,
        phase: &mut PollPhase,
        report: &mut TickReport,
    ) {
        let Some(handle) = job.gram_handle.clone().map(GramJobHandle) else {
            return;
        };
        let now = grid.now();
        let username = proxy_username(&mut phase.names, &self.conn, job.simulation_id);
        let proxy = self.cred.issue_proxy(username, now, PROXY_LIFETIME);
        let poll_timer = Instant::now();
        let status = grid.gram_status(&job.site, &proxy, &handle);
        let elapsed = poll_timer.elapsed();
        if !phase.poll_seconds.contains_key(&job.site) {
            let series = amp_obs::labeled("daemon_gram_poll_seconds", &[("site", &job.site)]);
            let series = amp_obs::registry().histogram(&series, amp_obs::Unit::Seconds);
            phase.poll_seconds.insert(job.site.clone(), series);
        }
        phase.poll_seconds[&job.site].observe_duration(elapsed);
        match &status {
            Ok(state) => {
                let new_status = match state {
                    GramState::Pending => JobStatus::Pending,
                    GramState::Active => JobStatus::Active,
                    GramState::Done => JobStatus::Done,
                    GramState::Failed(m) => {
                        job.detail = m.clone();
                        JobStatus::Failed
                    }
                };
                if new_status != job.status {
                    job.status = new_status;
                    if let Some(times) = grid.job_times(&job.site, &handle) {
                        job.started_at = times.started_at.map(|t| t.as_secs() as i64);
                        job.ended_at = times.ended_at.map(|t| t.as_secs() as i64);
                    }
                    phase.dirty.push(job);
                    report.job_transitions += 1;
                    obs_metrics().job_transitions.inc();
                }
                return;
            }
            Err(e) if e.is_transient() => {
                report.transient_errors += 1;
                // Anticipated transient: administrators notified, the
                // user-visible display annotated, processing retried.
                job.detail = format!("transient: {e}");
            }
            Err(e) => {
                job.status = JobStatus::Failed;
                job.detail = e.to_string();
                report.job_transitions += 1;
                obs_metrics().job_transitions.inc();
            }
        }
        let line = OpsEvent::command(gram_status_cmdline(&handle.0), &status);
        let (at, sim_id) = (now.as_secs() as i64, Some(job.simulation_id));
        self.ops_log.record(at, sim_id, line);
        phase.dirty.push(job);
    }

    /// Phase 2: step every owned simulation, in simulation-id order: decide
    /// its step from reads only, then apply the decision before the next
    /// simulation is read. The worklist is the claim phase's (a simulation
    /// deleted since fails its row read and is skipped). A pending resume is
    /// decided alone ([`workflow::decide_resume`]); the first step under this
    /// process's ownership performs its reconciliation
    /// ([`workflow::decide_reconcile`]) first, so that Listing 1 sees it.
    fn step_phase(&mut self, grid: &Grid, report: &mut TickReport) {
        let worklist: Vec<(i64, i64)> = self.owned.iter().map(|(&id, &e)| (id, e)).collect();
        for (sim_id, epoch) in worklist {
            let Ok(sim) = self.sims().get(sim_id) else {
                continue;
            };
            let decision = match (sim.held_from.is_some(), self.reconciled.contains(&sim_id)) {
                (true, _) => self.deciding(grid, &sim, workflow::decide_resume),
                (false, true) => self.decide(grid, &sim),
                (false, false) => {
                    let reconcile = self.deciding(grid, &sim, workflow::decide_reconcile);
                    match self.perform(grid, &reconcile, epoch) {
                        Ok(()) => self.decide(grid, &sim),
                        Err(e) => Decision::new(&sim).failing(e),
                    }
                }
            };
            self.apply(grid, decision, epoch, report);
        }
    }

    fn deciding(&self, grid: &Grid, sim: &Simulation, decide: fn(&View) -> Decision) -> Decision {
        let remembered = self.partial.get(&sim.id.expect("saved sim"));
        match View::new(grid, &self.conn, &self.config, &self.cred, sim, remembered) {
            Ok(view) => decide(&view),
            Err(e) => Decision::new(sim).failing(e),
        }
    }

    /// Listing 1's decision for `sim` at the grid's instant, as the step
    /// phase makes it (with what this daemon remembers), writing nothing.
    pub fn decide(&self, grid: &Grid, sim: &Simulation) -> Decision {
        self.deciding(grid, sim, workflow::decide)
    }

    /// Apply a decision under lease epoch `lease_epoch`: its effects in order
    /// (`Self::perform`), one write of the simulation row
    /// (`Self::write_row`), then the outcome: streak, ops-log lines,
    /// notifications, mail, lease release. A failed step keeps what it had
    /// decided of the row but not its move: it stays in its state (a resume
    /// request included) with the transient's note, or is parked in HOLD. A
    /// fenced or daemon-class failure writes nothing.
    pub fn apply(&mut self, grid: &Grid, d: Decision, lease_epoch: i64, report: &mut TickReport) {
        let result = self.perform(grid, &d, lease_epoch);
        let (loaded, now) = (d.loaded, grid.now().as_secs() as i64);
        let (sim_id, from) = (loaded.id.expect("saved sim"), loaded.status);
        match d.learned.filter(|_| result.is_ok()) {
            Some(partial) => self.partial.insert(sim_id, partial),
            None => self.partial.remove(&sim_id),
        };
        let streak = match &result {
            Err(WorkflowError::Transient(_)) => {
                let streak = self.transient_streak.entry(sim_id).or_insert(0);
                *streak += 1;
                *streak
            }
            _ => 0,
        };
        let hold = match &result {
            Err(WorkflowError::ModelFailure(why)) => Some(why.clone()),
            Err(WorkflowError::Transient(why)) if streak > self.config.max_transient_retries => {
                Some(format!("transient storm: {why}"))
            }
            _ => None,
        };
        let mut row = match (&result, hold) {
            (Ok(()), _) => d.sim,
            (_, Some(reason)) => Simulation {
                status: SimStatus::Hold,
                held_from: Some(from.as_str().to_string()),
                status_message: reason,
                ..d.sim
            },
            (Err(WorkflowError::Transient(note)), None) => Simulation {
                status: from,
                held_from: loaded.held_from.clone(),
                status_message: note.clone(),
                ..d.sim
            },
            (Err(_), None) => loaded.clone(),
        };
        let charge = d.charge.filter(|_| result.is_ok());
        let written = self.write_row(&loaded, &mut row, charge);
        let error = |e| report.daemon_errors.push(format!("sim {sim_id}: {e}"));
        let written = written.map_err(error).is_ok();
        let event = match result {
            Ok(()) => {
                self.reconciled.insert(sim_id);
                self.transient_streak.remove(&sim_id);
                None
            }
            Err(WorkflowError::Transient(message)) => {
                report.transient_errors += 1;
                obs_metrics().transient_retries.inc();
                if streak == 1 {
                    self.notify_admins(Some(sim_id), "transient grid failure", &message, now);
                }
                Some(OpsEvent::Transient { streak, message })
            }
            // The lease moved on mid-step: the row, its notes, its streak
            // and any hold are the new owner's.
            Err(WorkflowError::Fenced(message)) => {
                report.transient_errors += 1;
                Some(OpsEvent::Fence { message })
            }
            Err(WorkflowError::ModelFailure(_)) => None,
            Err(WorkflowError::Daemon(msg)) => {
                report.daemon_errors.push(format!("sim {sim_id}: {msg}"));
                None
            }
        };
        if let Some(event) = event {
            self.ops_log.record(now, Some(sim_id), event);
        }
        if written && row.status != from {
            self.moved(&row, from, now, report);
        }
    }

    /// Log the decision's reads, then perform its effects in order, each seen
    /// by [`Self::step_point`]. A submission or release is fenced
    /// ([`Self::check_fence`]); a job record is written under the fence again
    /// ([`Self::record`]). The first failure ends the step.
    fn perform(&mut self, grid: &Grid, d: &Decision, epoch: i64) -> Result<(), WorkflowError> {
        let (sim, now) = (&d.sim, grid.now().as_secs() as i64);
        let (sim_id, site) = (sim.id.expect("saved sim"), sim.system.as_str());
        for read in &d.reads {
            self.ops_log.record(now, Some(sim_id), read.clone());
        }
        if let Some(e) = &d.failed {
            return Err(e.clone());
        }
        if d.effects.is_empty() {
            return Ok(());
        }
        let no_view = || WorkflowError::Daemon("effects decided without a view".into());
        let proxy = d.proxy.as_ref().ok_or_else(no_view)?;
        let mut previous = None;
        for effect in &d.effects {
            match effect {
                Effect::StageIn { path, content } => {
                    let put = grid.ftp_put(site, proxy, path, content.clone().into_bytes());
                    self.log_op(now, sim_id, ftp_cmdline(site, true, STAGING, path), put)?;
                    self.at("staged_in", None);
                }
                Effect::Submit(sub) => {
                    self.check_fence(sim_id, epoch)?;
                    let mut spec = sub.spec.clone();
                    spec.depends_on
                        .extend(previous.take().filter(|_| sub.after_previous));
                    let command = gram_submit_cmdline(site, &spec);
                    let reply = grid.gram_submit_known(site, proxy, spec);
                    let (handle, known) = self.log_op(now, sim_id, command, reply)?;
                    obs_metrics().submissions[known as usize].inc();
                    let mut rec = GridJobRecord {
                        gram_handle: Some(handle.0.clone()),
                        status: JobStatus::Pending,
                        submitted_at: Some(now),
                        ..sub.record.clone()
                    };
                    self.at("accepted", Some(&rec));
                    self.record(epoch, &mut rec)?;
                    self.at("recorded", Some(&rec));
                    previous = Some(handle);
                }
                Effect::Reconcile(rec) => {
                    let mut rec = rec.clone();
                    self.record(epoch, &mut rec)?;
                    obs_metrics().submissions[2].inc();
                    let (purpose, run, continuation) = (rec.purpose, rec.ga_run, rec.continuation);
                    let submission_id = submission_id(sim_id, &rec.app, purpose, run, continuation);
                    let reconciled = OpsEvent::Reconciled { submission_id };
                    self.ops_log.record(now, Some(sim_id), reconciled);
                    self.at("recorded", Some(&rec));
                }
                Effect::Release(id) => {
                    self.check_fence(sim_id, epoch)?;
                    let released = grid.gram_release(site, proxy, id);
                    self.log_op(now, sim_id, gram_release_cmdline(site, id), released)?;
                    self.at("released", None);
                }
                Effect::Remove(tree) => {
                    let removed = grid.ftp_remove(site, proxy, tree);
                    self.log_op(now, sim_id, ftp_remove_cmdline(site, tree), removed)?;
                    self.at("removed", None);
                }
            }
        }
        Ok(())
    }

    /// The one write of a step's simulation row, saved unless it is the row as
    /// loaded. A charge commits in one transaction with it, the allocation
    /// read inside: no torn write separates the charge from its state, a
    /// failed step has charged nothing, and a peer charging the same
    /// allocation waits its turn.
    fn write_row(
        &self,
        loaded: &Simulation,
        sim: &mut Simulation,
        charge: Option<f64>,
    ) -> Result<(), DbError> {
        let tables = [Allocation::TABLE, Star::TABLE, Simulation::TABLE];
        match charge {
            None if sim == loaded => return Ok(()),
            None => self.sims().save(sim)?,
            Some(sus) => self.conn.transaction(&tables, |tx| {
                let alloc_id = sim.allocation_id;
                let mut alloc =
                    Allocation::from_row(alloc_id, &tx.get(Allocation::TABLE, alloc_id)?)?;
                if alloc.charge(sus).is_err() {
                    // Over-spend is an administrative problem, not a reason
                    // to withhold the user's results.
                    let account = &alloc.account;
                    sim.status_message =
                        format!("allocation {account} exhausted while charging {sus:.0} SUs");
                    alloc.su_used = alloc.su_granted;
                }
                let su_used = [("su_used", alloc.su_used.into())];
                tx.update(Allocation::TABLE, alloc_id, &su_used)?;
                if !Star::from_row(sim.star_id, &tx.get(Star::TABLE, sim.star_id)?)?.has_results {
                    tx.update(Star::TABLE, sim.star_id, &[("has_results", true.into())])?;
                }
                tx.update(Simulation::TABLE, sim.id.expect("saved"), &sim.to_values())
            })?,
        }
        self.at("written", None);
        Ok(())
    }

    fn at(&self, kind: &'static str, job: Option<&GridJobRecord>) {
        if let Some(hook) = &self.step_point {
            hook(StepPoint { kind, job });
        }
    }

    /// Put a grid call's §4.4 line on the ops log: its command line and how
    /// the call ended.
    fn log_op<T>(
        &mut self,
        at: i64,
        sim_id: i64,
        command: String,
        result: Result<T, GridError>,
    ) -> Result<T, WorkflowError> {
        let line = OpsEvent::command(command, &result);
        self.ops_log.record(at, Some(sim_id), line);
        Ok(result?)
    }

    /// The fencing-epoch guard: unless `lease` is the one the step runs
    /// under, the step backs out; the simulation is its new owner's.
    fn fence(&self, lease: Option<Lease>, epoch: i64) -> Result<(), WorkflowError> {
        let ours = |l: &Lease| l.daemon_id == self.config.daemon_id && l.epoch == epoch;
        if lease.as_ref().is_some_and(ours) {
            return Ok(());
        }
        obs_metrics().lease_fences.inc();
        let holder = lease.map(|l| format!("{} at epoch {}", l.daemon_id, l.epoch));
        let holder = holder.unwrap_or("nobody".into());
        let moved = format!("lease moved to {holder} (we held epoch {epoch})");
        Err(WorkflowError::Fenced(moved))
    }

    /// Re-read the lease row just before a GRAM call that changes the site: a
    /// daemon paused past its lease finds the epoch moved and backs out.
    fn check_fence(&self, sim_id: i64, epoch: i64) -> Result<(), WorkflowError> {
        self.fence(lease::current(&self.conn, sim_id)?, epoch)
    }

    /// Write a job record in one transaction with a re-read of the lease: a
    /// peer's takeover (a compare-and-swap on that row) lands wholly before
    /// it, and nothing is written, or wholly after. A daemon stalled between
    /// the site's acceptance and this write leaves the job to the new owner,
    /// which asks the site for it again or reconciles it.
    fn record(&self, epoch: i64, rec: &mut GridJobRecord) -> Result<(), WorkflowError> {
        let values = rec.to_values();
        let of_sim = Query::new().eq("simulation_id", rec.simulation_id);
        let tables = [Lease::TABLE, GridJobRecord::TABLE];
        let inserted = self.conn.transaction(&tables, |tx| {
            let leases = tx.select(Lease::TABLE, &of_sim)?;
            let lease = leases.first().map(|(id, row)| Lease::from_row(*id, row));
            Ok(match self.fence(lease.transpose()?, epoch) {
                Ok(()) => Ok(tx.insert(GridJobRecord::TABLE, &values)?),
                Err(fenced) => Err(fenced),
            })
        })?;
        rec.set_id(inserted?);
        Ok(())
    }

    /// The outcome of a row written in a new state: a transition, or a
    /// simulation parked in HOLD (§4.4 model-failure handling).
    fn moved(&mut self, sim: &Simulation, from: SimStatus, now: i64, report: &mut TickReport) {
        let (sim_id, to) = (sim.id.expect("saved sim"), sim.status);
        if to == SimStatus::Hold {
            report.new_holds += 1;
            obs_metrics().holds.inc();
            let (reason, id) = (sim.status_message.clone(), Some(sim_id));
            self.ops_log.record(now, id, OpsEvent::Hold { reason });
            self.transient_streak.remove(&sim_id);
            self.release_lease(sim_id);
            let why = "Your simulation hit a processing problem; AMP staff are investigating.";
            self.notify_user(sim, "simulation needs attention", why, now);
            let reason = &sim.status_message;
            self.notify_admins(Some(sim_id), "model failure (HOLD)", reason, now);
            return;
        }
        report.transitions.push((sim_id, from, to));
        let (app, was, is) = (sim.app.as_str(), from.as_str(), to.as_str());
        let labels = [("app", app), ("from", was), ("to", is)];
        amp_obs::counter(&amp_obs::labeled("daemon_transitions_total", &labels)).inc();
        let moved = OpsEvent::Transition { from, to };
        self.ops_log.record(now, Some(sim_id), moved);
        self.send_transition_mail(sim, from, to, now);
        if to.is_terminal() {
            self.release_lease(sim_id);
        }
    }

    fn send_transition_mail(&self, sim: &Simulation, from: SimStatus, to: SimStatus, now: i64) {
        let users = Manager::<AmpUser>::new(self.conn.clone());
        let Ok(owner) = users.get(sim.owner_id) else {
            return;
        };
        match owner.notify_mode {
            NotifyMode::None => {}
            NotifyMode::OnCompletion => {
                if to == SimStatus::Done {
                    self.notify_user(
                        sim,
                        "simulation complete",
                        "Your AMP simulation has completed; results are on the website.",
                        now,
                    );
                }
            }
            NotifyMode::EveryTransition => {
                self.notify_user(
                    sim,
                    &format!("simulation {from} -> {to}"),
                    &format!("Your AMP simulation moved from {from} to {to}."),
                    now,
                );
            }
        }
    }

    /// Convenience driver: tick and advance the clock by the poll interval
    /// until every simulation is DONE or HOLD or `max_sim_hours` pass;
    /// returns the ticks. A frozen clock (`poll_interval_secs == 0`) ends
    /// after many ticks in a row that changed nothing.
    pub fn run_until_settled(&mut self, grid: &Grid, max_sim_hours: f64) -> usize {
        const MAX_STALLED_TICKS: usize = 1000;
        let deadline = grid.now() + SimDuration::from_hours(max_sim_hours);
        let mut ticks = 0;
        let mut stalled = 0usize;
        loop {
            let before = grid.now();
            let report = self.tick(grid);
            ticks += 1;
            let all_settled = self
                .sims()
                .count(&Self::live_query())
                .map_or(true, |live| live == 0);
            if all_settled || grid.now() >= deadline {
                return ticks;
            }
            grid.advance(SimDuration::from_secs(self.config.poll_interval_secs));
            let progressed = report.job_transitions > 0
                || !report.transitions.is_empty()
                || report.new_holds > 0;
            if grid.now() == before && !progressed {
                stalled += 1;
                if stalled >= MAX_STALLED_TICKS {
                    return ticks;
                }
            } else {
                stalled = 0;
            }
        }
    }
}

/// The external daemon monitor (§4.4: "failures of the GridAMP daemon
/// itself are monitored externally and immediately brought to the
/// attention of the gateway administrators").
pub struct DaemonMonitor {
    /// Longest acceptable heartbeat silence, simulated seconds.
    pub max_silence_secs: i64,
}

impl DaemonMonitor {
    /// True if the daemon looks alive at `now` (the monitor's clock).
    ///
    /// A heartbeat stamped *ahead* of `now` means the daemon's clock runs
    /// fast relative to the monitor's, not that the daemon is dead — skew
    /// produces a negative silence, which trivially passes the threshold.
    /// Only genuine silence (no beat within `max_silence_secs` of the
    /// monitor's clock) is unhealthy.
    pub fn healthy(&self, daemon: &GridAmp, now: i64) -> bool {
        match daemon.last_heartbeat {
            Some(hb) => now - hb <= self.max_silence_secs,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_stellar::StellarParams;

    /// Queue one direct run of the Sun on kraken; returns its id.
    fn queue_sim(db: &Db) -> i64 {
        let (user, star, alloc, _obs) =
            crate::setup::seed_fixtures(db, "kraken", &StellarParams::sun(), 1).unwrap();
        let web = db.connect(amp_core::roles::ROLE_WEB).unwrap();
        let mut sim = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
        Manager::<Simulation>::new(web).create(&mut sim).unwrap()
    }

    /// A database with one queued simulation, plus a daemon on it.
    fn fixture() -> (Db, GridAmp, i64) {
        let db = Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let sim_id = queue_sim(&db);
        let daemon = GridAmp::new(&db, DaemonConfig::default()).unwrap();
        (db, daemon, sim_id)
    }

    #[test]
    fn monitor_flags_silence_but_tolerates_clock_skew() {
        let (_db, mut daemon, _sim) = fixture();
        let monitor = DaemonMonitor {
            max_silence_secs: 100,
        };
        // no heartbeat yet: never healthy
        assert!(!monitor.healthy(&daemon, 0));
        daemon.last_heartbeat = Some(1000);
        assert!(monitor.healthy(&daemon, 1050));
        assert!(!monitor.healthy(&daemon, 1101));
        // a fast daemon clock stamps heartbeats in the monitor's future;
        // negative silence must read as alive, not as an i64 surprise
        daemon.clock_skew_secs = 500;
        daemon.last_heartbeat = Some(1500); // monitor clock says 1000
        assert!(monitor.healthy(&daemon, 1000));
    }

    #[test]
    fn run_until_settled_bails_out_without_progress() {
        // A frozen clock (poll interval 0) plus a permanently unreachable
        // site and an uncapped transient retry budget used to spin
        // run_until_settled forever: the deadline can never arrive because
        // simulated time never moves. The no-progress guard must end the
        // loop instead.
        let mut dep = crate::setup::deploy(
            amp_grid::systems::kraken(),
            DaemonConfig {
                poll_interval_secs: 0,
                max_transient_retries: u32::MAX,
                ..DaemonConfig::default()
            },
            None,
        )
        .unwrap();
        dep.grid.faults.add_outage(
            "kraken",
            amp_grid::Service::Both,
            amp_grid::SimTime(0),
            amp_grid::SimTime(u64::MAX / 2),
        );
        queue_sim(&dep.db);
        let ticks = dep.daemon.run_until_settled(&dep.grid, 48.0);
        assert!(
            (2..=1001).contains(&ticks),
            "expected the stall guard to fire, got {ticks} ticks"
        );
    }
}
