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
//! phase → step phase → apply → closing flush. The poll phase walks the
//! owned simulations' pending jobs in job-id order and commits the rows it
//! dirtied as one transaction; the step phase steps every owned simulation
//! in simulation-id order, and the apply pass then takes the outcomes in
//! the same order (streaks, holds, notifications, lease releases). Every
//! write goes through the daemon's one deferring [`Connection`]. A second
//! core is a second daemon over the same database: the lease table decides
//! which of them steps each simulation (DESIGN §12).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use amp_core::models::{AmpUser, GridJobRecord, Notification, NotifyMode, Simulation};
use amp_core::status::{JobStatus, SimStatus};
use amp_grid::{CommunityCredential, GramJobHandle, GramState, Grid, SimDuration};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Connection, Db, DbError, Op, Query, Value};

use crate::clilog::{gram_status_cmdline, OpOutcome, OpsEvent, OpsLog};
use crate::error::WorkflowError;
use crate::lease::{self, ClaimOutcome};
use crate::optimize::PartialResults;
use crate::workflow::{
    commit_results, owner_username, step, DaemonConfig, StageCtx, StepHook, PROXY_LIFETIME,
};

/// Daemon-wide metric handles (global registry, resolved once). The
/// per-state transition and per-site poll series are labelled, so those
/// go through the registry at the call site (the poll series once per site
/// per poll phase, [`PollPhase`]); everything with a fixed name lives here.
pub(crate) struct DaemonMetrics {
    job_transitions: amp_obs::Counter,
    transient_retries: amp_obs::Counter,
    holds: amp_obs::Counter,
    errors: amp_obs::Counter,
    lease_claims: amp_obs::Counter,
    lease_renewals: amp_obs::Counter,
    lease_takeovers: amp_obs::Counter,
    lease_losses: amp_obs::Counter,
    pub(crate) lease_fences: amp_obs::Counter,
    /// `gridamp_tick_stage_seconds{stage=…}`: where a tick's wall time
    /// goes. The five stages are contiguous, so their sums add up to the
    /// time spent in [`GridAmp::tick`] (less a `pause_point` hook, which
    /// belongs to no stage). `apply` is the step phase's second pass.
    stage_claim: amp_obs::Histogram,
    stage_poll: amp_obs::Histogram,
    stage_step: amp_obs::Histogram,
    stage_apply: amp_obs::Histogram,
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
        stage_claim: stage("claim"),
        stage_poll: stage("poll"),
        stage_step: stage("step"),
        stage_apply: stage("apply"),
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

/// Commit the poll phase's dirtied job rows as one database transaction:
/// one WAL batch and one new table version, regardless of how many jobs
/// transitioned this tick. Rows are per-job disjoint (each job is polled
/// at most once per tick). Like every daemon write, the batch waits for
/// the tick's closing flush: a crash loses at most one tick's poll results,
/// which the next tick's poll re-derives from GRAM.
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

/// The step phase's product for one simulation, applied by the second pass
/// in simulation-id order.
struct StepProduct {
    sim: Simulation,
    from: SimStatus,
    /// The transition the step made, if any. A failed owner lookup is a
    /// daemon-class error like any other database failure inside the step.
    outcome: Result<Option<SimStatus>, WorkflowError>,
    /// True when the step succeeded and the database holds the row as it
    /// left it (also when there was nothing to save). After a failed step
    /// [`GridAmp::apply_step_outcome`] decides what to write.
    saved: bool,
    /// What to remember of the simulation's partial results from here on:
    /// what the step knew of them if it ended without error, else nothing.
    partial: Option<PartialResults>,
}

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
    /// Simulations this daemon currently holds leases on, with the held
    /// epoch — rebuilt by the claim phase of every tick. Both work phases
    /// step only owned simulations; in id order it is the step phase's
    /// worklist.
    owned: BTreeMap<i64, i64>,
    /// What the last step of each owned optimization simulation knew of its
    /// partial results ([`PartialResults`]). Replaced or dropped after every
    /// step of the simulation (the step that ends in DONE or HOLD leaves
    /// nothing), dropped by the claim phase with a lease that is gone, never
    /// written to the database: a daemon that remembers nothing fetches.
    partial: HashMap<i64, PartialResults>,
    /// Clock-skew fault injection: offset (simulated seconds) added to
    /// this daemon's view of the clock for lease accounting. A daemon
    /// running fast sees peers' leases expire early and attempts takeovers
    /// the epoch fencing must absorb.
    pub clock_skew_secs: i64,
    /// Chaos-test instrumentation: invoked after the lease-claim phase and
    /// before any work phase. A harness can park the daemon here —
    /// simulating a GC-style stop-the-world pause — while peers take over
    /// its leases, then let it resume into the fencing guards.
    pub pause_point: Option<Box<dyn FnMut() + Send>>,
    /// Crash-test instrumentation inside the step phase: called at each
    /// [`crate::workflow::StepPoint`] of every GRAM submission.
    pub step_point: Option<Box<StepHook>>,
    /// The owned simulations that have been stepped without error since
    /// this process came to own them: the first such step reconciles the job
    /// table with what the site accepted ([`StageCtx::reconcile`]).
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

    /// The operations log: every grid call with its Globus-CLI-equivalent
    /// command line, failures highlighted (§4.4), and, in the order they
    /// happened, every transition, transient retry, hold, lease takeover,
    /// fence, reconciled submission and daemon error.
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

    /// One daemon cycle, and the daemon's unit of durability: its writes
    /// are logged and visible as they happen, and the log is flushed once,
    /// at the end. Whatever a crash takes with it since the last tick's
    /// end — lease renewals, job records, poll results, transitions,
    /// charges, notifications — the next owner recomputes from what is
    /// durable and from the site, which answers a submission's id with the
    /// job it already has (DESIGN §9).
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
        let products = self.step_phase(grid);
        metrics.stage_step.lap(&mut since);
        let now = grid.now().as_secs() as i64;
        for product in products {
            self.apply_step_outcome(product, now, &mut report);
        }
        metrics.stage_apply.lap(&mut since);
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

    /// The poll phase's worklist: `(job id, owning simulation id)` of every
    /// pending/active job record, in primary-key order. A single
    /// `Op::In` projection: the planner unions the status-index postings
    /// for both values, so the ever-growing job table is never scanned
    /// and the result comes back already id-ordered. No row bodies are
    /// cloned or decoded here — a job's row is fetched when its turn comes.
    ///
    /// The worklist is built through a read view pinning both the job and
    /// simulation tables: the `(job, owning sim)` pairs are one coherent
    /// snapshot — a multi-table transaction (e.g. cancel: sim + its jobs)
    /// is either entirely visible to this tick or not at all. The view is
    /// a lock-free MVCC pin: holding it never stalls a writer, no matter
    /// how long the tick takes.
    fn pending_job_ids(&self) -> Result<Vec<(i64, i64)>, DbError> {
        let statuses = vec![
            Value::from(JobStatus::Pending.as_str()),
            Value::from(JobStatus::Active.as_str()),
        ];
        let view = self
            .conn
            .read_view(&[GridJobRecord::TABLE, Simulation::TABLE])?;
        Ok(view
            .select_project(
                GridJobRecord::TABLE,
                &Query::new().filter("status", Op::In(statuses), Value::Null),
                "simulation_id",
            )?
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

    /// The claim phase's worklist (what it leaves in `owned` is the step
    /// phase's): `(id, app)` of every live simulation, in primary-key
    /// order — the app rides along so lease rows carry per-application
    /// ownership. The same single-`In`
    /// projection over the status index and the same coherent
    /// job+simulation read view as [`Self::pending_job_ids`]: no row body
    /// is decoded.
    fn live_sims(&self) -> Result<Vec<(i64, String)>, DbError> {
        let view = self
            .conn
            .read_view(&[GridJobRecord::TABLE, Simulation::TABLE])?;
        Ok(view
            .select_project(Simulation::TABLE, &Self::live_query(), "app")?
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

    /// Poll one job's GRAM status — the §4.4 generic status update,
    /// identical for all jobs "regardless of purpose or execution method".
    /// A dirtied row is not saved here but pushed onto `phase.dirty`. A
    /// failed poll is on the ops log with the line that repeats it: a
    /// transient is retried next tick, any other error fails the job.
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
        let outcome = match status {
            Ok(state) => {
                let new_status = match &state {
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
                OpOutcome::Transient(e.to_string())
            }
            Err(e) => {
                job.status = JobStatus::Failed;
                job.detail = e.to_string();
                report.job_transitions += 1;
                obs_metrics().job_transitions.inc();
                OpOutcome::Failed(e.to_string())
            }
        };
        let command = gram_status_cmdline(&handle.0);
        let (at, sim_id) = (now.as_secs() as i64, Some(job.simulation_id));
        self.ops_log
            .record(at, sim_id, OpsEvent::Command { command, outcome });
        phase.dirty.push(job);
    }

    /// Phase 2, first pass: step every owned simulation's workflow, in
    /// simulation-id order. The worklist is the claim phase's: a simulation
    /// queued since has no lease yet, and one deleted since fails its row
    /// read and is skipped. Returns the products, in the same order, for
    /// [`Self::tick`] to apply.
    fn step_phase(&mut self, grid: &Grid) -> Vec<StepProduct> {
        let worklist: Vec<(i64, i64)> = self.owned.iter().map(|(&id, &e)| (id, e)).collect();
        let sims = self.sims();
        worklist
            .into_iter()
            .filter_map(|(sim_id, epoch)| {
                let sim = sims.get(sim_id).ok()?;
                Some(self.step_sim(grid, sim, epoch))
            })
            .collect()
    }

    /// Run one freshly loaded simulation's workflow step, recording its grid
    /// calls on the ops log, and persist the row if the step succeeded. This
    /// is the save rule: a step that left the row exactly as it was loaded —
    /// most ticks of a simulation waiting on the grid — commits nothing (no
    /// WAL record, no table version bump), and a transition clears the
    /// status message. The save waits for no flush: a lost transition is
    /// re-derived by the next tick from the job records, and a lost job
    /// record from the site, which answers the submission's id with the job
    /// it already has. The one transition that carries a charge commits with
    /// it ([`commit_results`]). A live row with `held_from` still set is an
    /// administrator's resume: its step applies that and nothing else
    /// ([`StageCtx::resume`]), ahead of any reconciliation, which would
    /// otherwise give the job rows deleted during the hold back.
    fn step_sim(&mut self, grid: &Grid, mut sim: Simulation, lease_epoch: i64) -> StepProduct {
        let (from, loaded) = (sim.status, sim.clone());
        let sim_id = sim.id.expect("stepped sims are persisted rows");
        let (mut partial, mut charge) = (None, None);
        let conn = &self.conn;
        let outcome = owner_username(conn, &sim).and_then(|owner_username| {
            let mut ctx = StageCtx {
                grid,
                conn,
                config: &self.config,
                cred: &self.cred,
                sim: &mut sim,
                owner_username,
                ops: &mut self.ops_log,
                lease_epoch,
                remembered: self.partial.get(&sim_id),
                learned: None,
                charge: None,
                step_point: self.step_point.as_deref(),
            };
            if ctx.sim.held_from.is_some() {
                ctx.resume()?;
                return Ok(None);
            }
            if !self.reconciled.contains(&sim_id) {
                ctx.reconcile()?;
            }
            let next = step(&mut ctx)?;
            (partial, charge) = (ctx.learned, ctx.charge.filter(|_| next.is_some()));
            Ok(next)
        });
        let saved = outcome.as_ref().is_ok_and(|next| {
            if next.is_some() {
                sim.status_message.clear();
            }
            match charge {
                Some(sus) => commit_results(conn, &mut sim, sus).is_ok(),
                None => sim == loaded || self.sims().save(&sim).is_ok(),
            }
        });
        StepProduct {
            sim,
            from,
            outcome,
            saved,
            partial,
        }
    }

    /// Phase 2, second pass: apply one simulation's step product — maintain
    /// the transient streak, save and hold on failures, and send the
    /// notifications — in simulation-id order, after every step of the
    /// tick.
    fn apply_step_outcome(&mut self, mut product: StepProduct, now: i64, report: &mut TickReport) {
        let (sim, from) = (&mut product.sim, product.from);
        let sim_id = sim.id.expect("saved sim");
        match product.partial {
            Some(partial) => self.partial.insert(sim_id, partial),
            None => self.partial.remove(&sim_id),
        };
        if product.outcome.is_ok() {
            self.reconciled.insert(sim_id);
        }
        match product.outcome {
            Ok(Some(next)) => {
                self.transient_streak.remove(&sim_id);
                if !product.saved {
                    return;
                }
                report.transitions.push((sim_id, from, next));
                amp_obs::counter(&amp_obs::labeled(
                    "daemon_transitions_total",
                    &[
                        ("app", &sim.app),
                        ("from", from.as_str()),
                        ("to", next.as_str()),
                    ],
                ))
                .inc();
                let transition = OpsEvent::Transition { from, to: next };
                self.ops_log.record(now, Some(sim_id), transition);
                self.send_transition_mail(sim, from, next, now);
                if next.is_terminal() {
                    self.release_lease(sim_id);
                }
            }
            Ok(None) => {
                self.transient_streak.remove(&sim_id);
            }
            Err(WorkflowError::Transient(msg)) => {
                report.transient_errors += 1;
                let streak = {
                    let s = self.transient_streak.entry(sim_id).or_insert(0);
                    *s += 1;
                    *s
                };
                obs_metrics().transient_retries.inc();
                let message = msg.clone();
                let transient = OpsEvent::Transient { streak, message };
                self.ops_log.record(now, Some(sim_id), transient);
                // Silent for users; a plain-text note on the status
                // display and an admin notification on first sight.
                sim.status_message = msg.clone();
                let _ = self.sims().save(sim);
                if streak == 1 {
                    self.notify_admins(Some(sim_id), "transient grid failure", &msg, now);
                }
                if streak > self.config.max_transient_retries {
                    self.hold(sim, &format!("transient storm: {msg}"), now, report);
                }
            }
            // The lease moved on mid-step: the row, its notes, its streak
            // and any hold are the new owner's, so nothing is written here.
            Err(WorkflowError::Fenced(message)) => {
                report.transient_errors += 1;
                let fence = OpsEvent::Fence { message };
                self.ops_log.record(now, Some(sim_id), fence);
            }
            Err(WorkflowError::ModelFailure(msg)) => {
                self.hold(sim, &msg, now, report);
            }
            Err(WorkflowError::Daemon(msg)) => {
                report.daemon_errors.push(format!("sim {sim_id}: {msg}"));
            }
        }
    }

    /// Park a simulation in the hold state (§4.4 model-failure handling).
    fn hold(&mut self, sim: &mut Simulation, msg: &str, now: i64, report: &mut TickReport) {
        sim.held_from = Some(sim.status.as_str().to_string());
        sim.status = SimStatus::Hold;
        sim.status_message = msg.to_string();
        if self.sims().save(sim).is_ok() {
            report.new_holds += 1;
            let sim_id = sim.id.expect("saved");
            obs_metrics().holds.inc();
            let reason = msg.to_string();
            self.ops_log
                .record(now, Some(sim_id), OpsEvent::Hold { reason });
            self.transient_streak.remove(&sim_id);
            self.release_lease(sim_id);
            self.notify_user(
                sim,
                "simulation needs attention",
                "Your simulation hit a processing problem; AMP staff are investigating.",
                now,
            );
            self.notify_admins(Some(sim_id), "model failure (HOLD)", msg, now);
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

    /// Convenience driver: tick, advance simulated time by the poll
    /// interval, repeat — until every simulation is terminal (DONE or
    /// HOLD) or `max_sim_hours` of simulated time elapse. Returns the
    /// number of ticks executed.
    ///
    /// With `poll_interval_secs == 0` the simulated clock never moves, so
    /// the deadline alone cannot terminate the loop; a no-progress bailout
    /// (no clock motion and a tick that changed nothing, many times in a
    /// row) guards against spinning forever on a stuck campaign.
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
