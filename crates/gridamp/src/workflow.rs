//! The Listing-1 workflow engine.
//!
//! The paper's entire workflow manager is a table from state to a list of
//! functions plus the next state: "If the job is in a particular state,
//! all of the functions in the subsequent list are called. If all return
//! True, then the job is set to the indicated next state." This module is
//! that table, verbatim:
//!
//! ```text
//! QUEUED  : ([check_queued_sim, submit_pre_job],                 PREJOB)
//! PREJOB  : ([check_pre_job,    submit_workjob],                 RUNNING)
//! RUNNING : ([check_workjob,    submit_post_job],                POSTJOB)
//! POSTJOB : ([check_post_job,   postprocess, submit_cleanup],    CLEANUP)
//! CLEANUP : ([check_cleanup,    close_simulation],               DONE)
//! ```
//!
//! The base stages here implement all routine functionality (queuing,
//! stage-in/out, fork scripts); only `submit_workjob` / `check_workjob` /
//! `postprocess` dispatch to the model-specific derived workflows
//! ([`crate::direct`], [`crate::optimize`]) — the paper's
//! inheritance-with-small-derived-classes design.

use std::sync::Arc;

use amp_core::app::{self, ScienceApp};
use amp_core::models::{AmpUser, GridJobRecord, Lease, Simulation};
use amp_core::status::{JobPurpose, JobStatus, SimStatus};
use amp_core::SimKind;
use amp_grid::{
    CommunityCredential, GramJobHandle, GramJobSpec, GramService, GramSubmission, Grid, GridError,
    ProxyCertificate, SimDuration,
};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Connection, DbError, Op, Query, Value};

use crate::apps::paths;
use crate::clilog::{
    ftp_cmdline, gram_release_cmdline, gram_submit_cmdline, OpOutcome, OpsEvent, OpsLog,
};
use crate::error::WorkflowError;
use crate::optimize::PartialResults;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// This daemon process's identity in the lease table. Each member of
    /// a multi-daemon control plane needs a distinct id.
    pub daemon_id: String,
    /// Lease time-to-live in simulated seconds: how long a claimed
    /// simulation stays fenced to this daemon without renewal. A lease is
    /// renewed once half of it is gone, so this should be at least four
    /// poll intervals for one missed tick never to lose ownership.
    pub lease_ttl_secs: i64,
    /// Walltime requested for model (batch) jobs — "usually 6 or 24
    /// hours" (§6).
    pub work_walltime_hours: f64,
    /// §6 extension: submit continuation jobs up-front with scheduler
    /// dependencies instead of sequentially after each completion.
    pub job_chaining: bool,
    /// Consecutive transient failures on one simulation before escalating
    /// to HOLD (the paper retries indefinitely; a cap keeps tests finite).
    pub max_transient_retries: u32,
    /// Daemon poll interval in simulated seconds.
    pub poll_interval_secs: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            daemon_id: "gridamp-0".into(),
            lease_ttl_secs: 1800,
            work_walltime_hours: 24.0,
            job_chaining: false,
            max_transient_retries: 1_000,
            poll_interval_secs: 300,
        }
    }
}

/// Lifetime of the short-lived proxy each grid call is made with.
pub(crate) const PROXY_LIFETIME: SimDuration = SimDuration(12 * 3600);

/// Everything a workflow stage function can touch.
///
/// The grid is shared (`&Grid`): every client call holds the grid's one
/// lock for its duration, so daemons on other threads can step their
/// simulations against the same substrate. A `grid.site(..)` guard holds
/// that lock too: drop it before the next grid call.
pub struct StageCtx<'a> {
    pub grid: &'a Grid,
    pub conn: &'a Connection,
    pub config: &'a DaemonConfig,
    pub cred: &'a CommunityCredential,
    pub sim: &'a mut Simulation,
    /// Username the proxy's SAML attribute carries (the sim owner).
    pub owner_username: String,
    /// The command-line transparency log (§4.4).
    pub ops: &'a mut OpsLog,
    /// The lease epoch under which this step runs (fencing token).
    pub lease_epoch: i64,
    /// What the caller remembers of this simulation's partial results from
    /// an earlier step, if anything ([`crate::optimize::check_work`]). With
    /// `None` every look fetches.
    pub remembered: Option<&'a PartialResults>,
    /// What this step knows of them, for the caller to remember — but only
    /// if the whole step then ends without error.
    pub learned: Option<PartialResults>,
    /// The service units `postprocess` found this simulation's jobs to have
    /// used, for [`commit_results`] to charge with the transition.
    pub charge: Option<f64>,
    /// Test hook ([`crate::GridAmp::step_point`]).
    pub step_point: Option<&'a StepHook>,
}

/// Where inside a step [`crate::GridAmp::step_point`] is called: the site
/// has accepted a submission and its job record is not written yet, or the
/// record is written and the tick's flush is still to come.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPoint {
    Accepted,
    Recorded,
}

/// A [`StepPoint`] hook; the record is the submission's.
pub type StepHook = dyn Fn(StepPoint, &GridJobRecord) + Send;

/// The job-state key `(simulation, app, purpose, ga_run, continuation)` as
/// the client submission id its GRAM submission carries — the one rendering
/// of it, so every daemon that ever steps the simulation asks the site for
/// the same job. Everything a simulation submits sorts under
/// [`submission_prefix`].
pub(crate) fn submission_id(
    sim_id: i64,
    app: &str,
    purpose: JobPurpose,
    ga_run: i64,
    continuation: i64,
) -> String {
    let purpose = purpose.as_str();
    format!("sim{sim_id}/{app}/{purpose}/r{ga_run}c{continuation}")
}

/// What every [`submission_id`] of one simulation starts with.
pub(crate) fn submission_prefix(sim_id: i64) -> String {
    format!("sim{sim_id}/")
}

/// `(app, purpose, ga_run, continuation)` back out of a [`submission_id`].
pub(crate) fn parse_submission_id(id: &str) -> Option<(&str, JobPurpose, i64, i64)> {
    let mut parts = id.split('/').skip(1);
    let (app, purpose) = (parts.next()?, parts.next()?.parse().ok()?);
    let (ga_run, continuation) = parts.next()?.strip_prefix('r')?.split_once('c')?;
    Some((
        app,
        purpose,
        ga_run.parse().ok()?,
        continuation.parse().ok()?,
    ))
}

/// What `sim`'s site has accepted under its submission prefix that the job
/// table has no record of.
fn unrecorded(
    grid: &Grid,
    conn: &Connection,
    proxy: &ProxyCertificate,
    sim: &Simulation,
) -> Result<Vec<GramSubmission>, WorkflowError> {
    let sim_id = sim.id.expect("saved sim");
    let mut held = grid.gram_submissions(&sim.system, proxy, &submission_prefix(sim_id))?;
    if !held.is_empty() {
        let of_sim = Query::new().eq("simulation_id", sim_id);
        let rows = Manager::<GridJobRecord>::new(conn.clone()).filter(&of_sim)?;
        held.retain(|s| {
            rows.iter()
                .all(|r| r.gram_handle.as_ref() != Some(&s.handle.0))
        });
    }
    Ok(held)
}

/// `daemon_gram_submissions_total{outcome=…}`: `[accepted, known,
/// reconciled]` — a job the site created for us, a repeat it answered with
/// the job it already had, a record written from the site's own list.
pub(crate) fn submission_counters() -> &'static [amp_obs::Counter; 3] {
    static COUNTERS: std::sync::OnceLock<[amp_obs::Counter; 3]> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        ["accepted", "known", "reconciled"].map(|outcome| {
            amp_obs::counter(&amp_obs::labeled(
                "daemon_gram_submissions_total",
                &[("outcome", outcome)],
            ))
        })
    })
}

impl StageCtx<'_> {
    pub fn now(&self) -> i64 {
        self.grid.now().as_secs() as i64
    }

    /// Fresh short-lived proxy attributed to the simulation owner
    /// (GridShib SAML, §3).
    pub fn proxy(&self) -> ProxyCertificate {
        self.cred
            .issue_proxy(&self.owner_username, self.grid.now(), PROXY_LIFETIME)
    }

    /// Remote scratch root for this simulation.
    pub fn workdir(&self) -> String {
        format!("amp/sim{}", self.sim.id.expect("saved sim"))
    }

    pub fn jobs(&self) -> Manager<GridJobRecord> {
        Manager::new(self.conn.clone())
    }

    pub fn sims(&self) -> Manager<Simulation> {
        Manager::new(self.conn.clone())
    }

    /// Resolve this simulation's science application from the registry. A
    /// simulation carrying an unregistered app id is a model failure (it
    /// can never make progress) rather than a transient.
    pub fn app(&self) -> Result<Arc<dyn ScienceApp>, WorkflowError> {
        app_of(self.sim)
    }

    /// All job records of one purpose for this simulation.
    pub fn jobs_of(&self, purpose: JobPurpose) -> Result<Vec<GridJobRecord>, WorkflowError> {
        Ok(self.jobs().filter(
            &Query::new()
                .eq("simulation_id", self.sim.id.expect("saved"))
                .eq("purpose", purpose.as_str())
                .order_by("ga_run")
                .order_by("continuation"),
        )?)
    }

    /// Whether `lease` is the one this step started under — the
    /// fencing-epoch guard.
    fn holds(&self, lease: Option<&Lease>) -> bool {
        lease.is_some_and(|l| l.daemon_id == self.config.daemon_id && l.epoch == self.lease_epoch)
    }

    /// The error a fenced-out step backs out with; the simulation is then
    /// stepped by its new owner. The apply pass puts it on the ops log.
    fn fenced(&self, lease: Option<Lease>) -> WorkflowError {
        let holder = lease
            .map(|l| format!("{} at epoch {}", l.daemon_id, l.epoch))
            .unwrap_or_else(|| "nobody".to_string());
        crate::daemon::obs_metrics().lease_fences.inc();
        let epoch = self.lease_epoch;
        WorkflowError::Fenced(format!("lease moved to {holder} (we held epoch {epoch})"))
    }

    /// Re-read the lease row immediately before a GRAM submission: a daemon
    /// that paused past its lease expiry finds the epoch bumped (or the row
    /// re-owned) and backs out instead of submitting.
    fn check_fence(&mut self) -> Result<(), WorkflowError> {
        let lease = crate::lease::current(self.conn, self.sim.id.expect("saved sim"))?;
        match self.holds(lease.as_ref()) {
            true => Ok(()),
            false => Err(self.fenced(lease)),
        }
    }

    /// Write a submission's job record in one transaction with a re-read of
    /// the lease, so that a peer's takeover (a compare-and-swap on the
    /// lease row) lands wholly before it — and nothing is written — or
    /// wholly after. A daemon that stalls between the site's acceptance and
    /// this write therefore leaves the job to the new owner, which asks the
    /// site for it again or reconciles it.
    fn record(&self, rec: &mut GridJobRecord) -> Result<(), WorkflowError> {
        let values = rec.to_values();
        let of_sim = Query::new().eq("simulation_id", rec.simulation_id);
        let tables = [Lease::TABLE, GridJobRecord::TABLE];
        let (lease, id) = self.conn.transaction(&tables, |tx| {
            let leases = tx.select(Lease::TABLE, &of_sim)?;
            let lease = leases.first().map(|(id, row)| Lease::from_row(*id, row));
            let lease = lease.transpose()?;
            let id = match self.holds(lease.as_ref()) {
                true => Some(tx.insert(GridJobRecord::TABLE, &values)?),
                false => None,
            };
            Ok((lease, id))
        })?;
        rec.set_id(id.ok_or_else(|| self.fenced(lease))?);
        Ok(())
    }

    /// Submit a fork script job (idempotent: returns the existing record
    /// if one was already submitted for this purpose).
    pub fn submit_fork(
        &mut self,
        purpose: JobPurpose,
        executable: &str,
        args: Vec<String>,
    ) -> Result<GridJobRecord, WorkflowError> {
        if let Some(existing) = self.jobs_of(purpose)?.into_iter().next() {
            if existing.gram_handle.is_some() {
                return Ok(existing);
            }
        }
        const FORK_WALLTIME: SimDuration = SimDuration(10 * 60);
        let spec = GramJobSpec {
            service: GramService::Fork,
            executable: executable.to_string(),
            args,
            workdir: self.workdir(),
            cores: 0,
            walltime: FORK_WALLTIME,
            depends_on: vec![],
            name: String::new(), // `submit` names it
            submission_id: None,
        };
        self.submit(spec, purpose, -1, 0)
    }

    /// Submit a batch model job and record it. Idempotent on the job-state
    /// key `(simulation, app, purpose, ga_run, continuation)`: if a
    /// submitted record already exists — e.g. written by this simulation's
    /// new owner while we were paused — it is returned instead of
    /// re-submitting. The app qualifier keeps two applications' job chains
    /// from ever colliding on one key.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_batch(
        &mut self,
        purpose: JobPurpose,
        ga_run: i64,
        continuation: i64,
        executable: &str,
        args: Vec<String>,
        cores: u32,
        workdir: String,
        depends_on: Vec<GramJobHandle>,
    ) -> Result<GridJobRecord, WorkflowError> {
        let existing = self.jobs().first(
            &Query::new()
                .eq("simulation_id", self.sim.id.expect("saved"))
                .eq("app", self.sim.app.as_str())
                .eq("purpose", purpose.as_str())
                .eq("ga_run", ga_run)
                .eq("continuation", continuation),
        )?;
        if let Some(existing) = existing {
            if existing.gram_handle.is_some() {
                return Ok(existing);
            }
        }
        let spec = GramJobSpec {
            service: GramService::Batch,
            executable: executable.to_string(),
            args,
            workdir,
            cores,
            walltime: SimDuration::from_hours(self.config.work_walltime_hours),
            depends_on,
            name: String::new(), // `submit` names it
            submission_id: None,
        };
        self.submit(spec, purpose, ga_run, continuation)
    }

    /// The one path to GRAM: fence, submit `spec` under the job-state key's
    /// [`submission_id`], write the job record under the fence again
    /// ([`Self::record`]). The record waits for the
    /// tick's flush like every other write, because it can be re-derived:
    /// whoever steps this simulation next — after a crash before the record
    /// was durable, or a reply lost after the site accepted — renders the
    /// same id, and the site answers it with the job it already has.
    fn submit(
        &mut self,
        mut spec: GramJobSpec,
        purpose: JobPurpose,
        ga_run: i64,
        continuation: i64,
    ) -> Result<GridJobRecord, WorkflowError> {
        self.check_fence()?;
        let sim_id = self.sim.id.expect("saved");
        let id = submission_id(sim_id, &self.sim.app, purpose, ga_run, continuation);
        spec.name.clone_from(&id);
        spec.submission_id = Some(id);
        let mut rec = GridJobRecord::new(
            sim_id,
            ga_run,
            purpose,
            continuation,
            &self.sim.system,
            spec.cores as i64,
            &self.sim.app,
        );
        let proxy = self.proxy();
        rec.gram_handle = Some(self.log_gram_submit(&proxy, spec)?.0);
        rec.status = JobStatus::Pending;
        rec.submitted_at = Some(self.now());
        self.at(StepPoint::Accepted, &rec);
        self.record(&mut rec)?;
        self.at(StepPoint::Recorded, &rec);
        Ok(rec)
    }

    /// The first step under a new ownership — a first claim, a takeover, a
    /// restart — writes the job record of every submission the site
    /// accepted for the simulation and the job table lacks. Re-derivation
    /// heals the rest: a stage that asks for a lost submission again gets
    /// the same job (so a QUEUED simulation, whose first stage list asks for
    /// all it can have submitted, has nothing to do here). This is for the
    /// one nobody asks for again: a continuation accepted just before a
    /// crash, whose run converged before anyone came back — or whose replies
    /// were all lost until it converged, which is why an optimization also
    /// reconciles as it leaves its chains ([`crate::optimize::check_work`]).
    /// An unreachable site fails the step
    /// like any GRAM outage, and the next one asks again.
    pub(crate) fn reconcile(&mut self) -> Result<(), WorkflowError> {
        if self.sim.status == SimStatus::Queued {
            return Ok(());
        }
        let (sim_id, site) = (self.sim.id.expect("saved"), &self.sim.system);
        for sub in unrecorded(self.grid, self.conn, &self.proxy(), self.sim)? {
            let Some((app, purpose, ga_run, continuation)) = parse_submission_id(&sub.id) else {
                continue;
            };
            let cores = sub.cores as i64;
            let mut rec =
                GridJobRecord::new(sim_id, ga_run, purpose, continuation, site, cores, app);
            let times = self.grid.job_times(site, &sub.handle);
            rec.submitted_at = times.map(|t| t.submitted_at.as_secs() as i64);
            rec.status = JobStatus::Pending;
            rec.gram_handle = Some(sub.handle.0);
            self.record(&mut rec)?;
            submission_counters()[2].inc();
            let reconciled = OpsEvent::Reconciled {
                submission_id: sub.id,
            };
            self.ops.record(self.now(), Some(sim_id), reconciled);
        }
        Ok(())
    }

    /// The step that applies an administrator's resume (§4.4: "once the
    /// problem has been resolved, the workflow resumes automatically"). The
    /// portal sets a held row's status back and leaves `held_from` set, so a
    /// live row with `held_from` is a resume not yet applied. A job row the
    /// administrator deleted while fixing the hold is a job to run again, so
    /// the site is told to forget every submission id it holds with no row —
    /// or it would answer the resubmission with the job that failed. Each
    /// release is fenced like a submission. Then `held_from` is cleared and
    /// nothing else is stepped: the tick's flush makes the resume durable
    /// before anything is submitted again.
    pub(crate) fn resume(&mut self) -> Result<(), WorkflowError> {
        let (proxy, site) = (self.proxy(), self.sim.system.clone());
        for sub in unrecorded(self.grid, self.conn, &proxy, self.sim)? {
            self.check_fence()?;
            let command = gram_release_cmdline(&site, &sub.id);
            let released = self.grid.gram_release(&site, &proxy, &sub.id);
            self.log_op(command, released)?;
        }
        self.sim.held_from = None;
        Ok(())
    }

    fn at(&self, point: StepPoint, rec: &GridJobRecord) {
        if let Some(hook) = self.step_point {
            hook(point, rec);
        }
    }

    /// One line of the ops log (§4.4's copy-paste troubleshooting log): a
    /// grid call's command line and how the call ended.
    fn log_op<T>(
        &mut self,
        command: String,
        result: Result<T, GridError>,
    ) -> Result<T, WorkflowError> {
        let outcome = match &result {
            Ok(_) => OpOutcome::Ok,
            Err(e) if e.is_transient() => OpOutcome::Transient(e.to_string()),
            Err(e) => OpOutcome::Failed(e.to_string()),
        };
        let (at, sim_id) = (self.now(), self.sim.id);
        self.ops
            .record(at, sim_id, OpsEvent::Command { command, outcome });
        Ok(result?)
    }

    /// Submit via GRAM, recording the globusrun-equivalent command line.
    fn log_gram_submit(
        &mut self,
        proxy: &ProxyCertificate,
        spec: GramJobSpec,
    ) -> Result<GramJobHandle, WorkflowError> {
        let command = gram_submit_cmdline(&self.sim.system, &spec);
        let reply = self.grid.gram_submit_known(&self.sim.system, proxy, spec);
        let (handle, known) = self.log_op(command, reply)?;
        submission_counters()[known as usize].inc();
        Ok(handle)
    }

    /// Stage a text file to the remote system via GridFTP.
    pub fn stage_in(&mut self, path: &str, content: String) -> Result<(), WorkflowError> {
        let proxy = self.proxy();
        let command = ftp_cmdline(&self.sim.system, true, "/var/amp/staging", path);
        let data = content.into_bytes();
        let put = self.grid.ftp_put(&self.sim.system, &proxy, path, data);
        self.log_op(command, put).map(|_| ())
    }

    /// Fetch a remote file via GridFTP. (Fetch misses of optional files are
    /// routine — see `optimize::try_stage_out` — so only transport-level
    /// failures are highlighted in the ops log.)
    pub fn stage_out(&mut self, path: &str) -> Result<Vec<u8>, WorkflowError> {
        let proxy = self.proxy();
        let command = ftp_cmdline(&self.sim.system, false, "/var/amp/staging", path);
        match self.grid.ftp_get(&self.sim.system, &proxy, path) {
            Err(e) if !e.is_transient() => Err(e.into()),
            got => self.log_op(command, got).map(|(data, _)| data),
        }
    }

    /// Check a fork-job purpose: Ok(true) done, Ok(false) still going,
    /// model failure on a failed script.
    fn fork_done(&self, purpose: JobPurpose) -> Result<bool, WorkflowError> {
        let Some(rec) = self.jobs_of(purpose)?.into_iter().next() else {
            return Ok(false);
        };
        match rec.status {
            JobStatus::Done => Ok(true),
            JobStatus::Failed => Err(WorkflowError::ModelFailure(format!(
                "{} script failed: {}",
                purpose.as_str(),
                rec.detail
            ))),
            _ => Ok(false),
        }
    }
}

/// A named stage function — names mirror Listing 1.
pub struct StageDef {
    pub name: &'static str,
    pub run: fn(&mut StageCtx<'_>) -> Result<bool, WorkflowError>,
}

/// One row of Listing 1: in this state, call these; if all return true,
/// move to that state.
pub type WorkflowRow = (SimStatus, &'static [StageDef], SimStatus);

macro_rules! stages {
    ($($f:ident),+) => {
        &[$(StageDef { name: stringify!($f), run: $f }),+]
    };
}

/// The workflow definition — Listing 1, verbatim.
static WORKFLOW: [WorkflowRow; 5] = [
    (
        SimStatus::Queued,
        stages![check_queued_sim, submit_pre_job],
        SimStatus::PreJob,
    ),
    (
        SimStatus::PreJob,
        stages![check_pre_job, submit_workjob],
        SimStatus::Running,
    ),
    (
        SimStatus::Running,
        stages![check_workjob, submit_post_job],
        SimStatus::PostJob,
    ),
    (
        SimStatus::PostJob,
        stages![check_post_job, postprocess, submit_cleanup],
        SimStatus::Cleanup,
    ),
    (
        SimStatus::Cleanup,
        stages![check_cleanup, close_simulation],
        SimStatus::Done,
    ),
];

/// The workflow definition ([`WORKFLOW`]).
pub fn workflow_table() -> &'static [WorkflowRow] {
    &WORKFLOW
}

/// Run one workflow step for a simulation: execute the stage list for its
/// current state; if every function returns true, transition. Returns the
/// new state on transition.
pub fn step(ctx: &mut StageCtx<'_>) -> Result<Option<SimStatus>, WorkflowError> {
    let Some(&(_, stages, next)) = WORKFLOW.iter().find(|(s, _, _)| *s == ctx.sim.status) else {
        return Ok(None); // DONE or HOLD: nothing to run
    };
    for stage in stages {
        if !(stage.run)(ctx)? {
            return Ok(None);
        }
    }
    ctx.sim.status = next;
    Ok(Some(next))
}

// ---- base stages (the paper's workflow-manager base class) ----

fn check_queued_sim(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    // Sanity: payload must decode and the app must be registered; a
    // corrupt request is a model failure.
    ctx.sim
        .payload()
        .map_err(|e| WorkflowError::ModelFailure(e.to_string()))?;
    ctx.app()?;
    Ok(ctx.sim.status == SimStatus::Queued)
}

fn submit_pre_job(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    ctx.submit_fork(JobPurpose::PreJob, paths::PREJOB, vec![])?;
    Ok(true)
}

fn check_pre_job(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    ctx.fork_done(JobPurpose::PreJob)
}

fn submit_workjob(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    let started = match ctx.sim.kind {
        SimKind::Direct => crate::direct::submit_work(ctx)?,
        SimKind::Optimization => crate::optimize::submit_work(ctx)?,
    };
    if started {
        ctx.sim.started_at = Some(ctx.now());
    }
    Ok(started)
}

fn check_workjob(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    match ctx.sim.kind {
        SimKind::Direct => crate::direct::check_work(ctx),
        SimKind::Optimization => crate::optimize::check_work(ctx),
    }
}

fn submit_post_job(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    let root = ctx.workdir();
    ctx.submit_fork(JobPurpose::PostJob, paths::POSTJOB, vec![root])?;
    Ok(true)
}

fn check_post_job(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    ctx.fork_done(JobPurpose::PostJob)
}

fn postprocess(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    let done = match ctx.sim.kind {
        SimKind::Direct => crate::direct::postprocess(ctx)?,
        SimKind::Optimization => crate::optimize::postprocess(ctx)?,
    };
    if done {
        ctx.charge = Some(service_units(ctx)?);
    }
    Ok(done)
}

fn submit_cleanup(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    ctx.submit_fork(JobPurpose::Cleanup, paths::CLEANUP, vec![])?;
    Ok(true)
}

fn check_cleanup(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    if !ctx.fork_done(JobPurpose::Cleanup)? {
        return Ok(false);
    }
    // "A final cleanup stage ensures that the execution environment has
    // been removed" — verify-and-remove on the remote scratch.
    let root = ctx.workdir();
    let system = ctx.sim.system.clone();
    if let Some(mut site) = ctx.grid.site(&system) {
        crate::apps::cleanup_tree(&mut site.fs, &root);
    }
    Ok(true)
}

fn close_simulation(ctx: &mut StageCtx<'_>) -> Result<bool, WorkflowError> {
    ctx.sim.completed_at = Some(ctx.now());
    ctx.sim.progress = 1.0;
    ctx.sim.status_message.clear();
    Ok(true)
}

// ---- shared accounting helpers ----

/// CPU-hours × SU factor over every completed computational job.
fn service_units(ctx: &StageCtx<'_>) -> Result<f64, WorkflowError> {
    let su_factor = ctx
        .grid
        .site(&ctx.sim.system)
        .map(|s| s.profile.su_per_cpuh)
        .unwrap_or(0.0);
    let jobs = ctx.jobs().filter(
        &Query::new()
            .eq("simulation_id", ctx.sim.id.expect("saved"))
            .filter(
                "purpose",
                Op::In(vec![
                    Value::Text(JobPurpose::Work.as_str().into()),
                    Value::Text(JobPurpose::SolutionEvaluation.as_str().into()),
                ]),
                Value::Null,
            ),
    )?;
    let mut cpuh = 0.0;
    for j in &jobs {
        if let Some(run) = j.run_secs() {
            cpuh += (run as f64 / 3600.0) * j.cores as f64;
        }
    }
    Ok(cpuh * su_factor)
}

/// Commit the transition that ends `postprocess`'s stage list: the charge
/// of `sus`, the star's has-results flag and the simulation's row, in one
/// transaction with the allocation read inside it. One frame in the log —
/// a step that fails after `postprocess` (a GRAM outage at
/// `submit_cleanup`, a fence) has charged nothing for its retry to charge
/// again, a torn write cannot separate the charge from the state that says
/// it was made, and a peer daemon charging the same allocation waits its
/// turn instead of overwriting.
pub(crate) fn commit_results(
    conn: &Connection,
    sim: &mut Simulation,
    sus: f64,
) -> Result<(), DbError> {
    use amp_core::models::{Allocation, Star};
    let tables = [Allocation::TABLE, Star::TABLE, Simulation::TABLE];
    conn.transaction(&tables, |tx| {
        let alloc_id = sim.allocation_id;
        let mut alloc = Allocation::from_row(alloc_id, &tx.get(Allocation::TABLE, alloc_id)?)?;
        if alloc.charge(sus).is_err() {
            // Over-spend is an administrative problem, not a reason to
            // withhold the user's results.
            sim.status_message = format!(
                "allocation {} exhausted while charging {:.0} SUs",
                alloc.account, sus
            );
            alloc.su_used = alloc.su_granted;
        }
        tx.update(
            Allocation::TABLE,
            alloc_id,
            &[("su_used", alloc.su_used.into())],
        )?;
        if !Star::from_row(sim.star_id, &tx.get(Star::TABLE, sim.star_id)?)?.has_results {
            tx.update(Star::TABLE, sim.star_id, &[("has_results", true.into())])?;
        }
        tx.update(Simulation::TABLE, sim.id.expect("saved"), &sim.to_values())
    })
}

/// Look up the owning user's username (for proxy SAML attribution).
pub fn owner_username(conn: &Connection, sim: &Simulation) -> Result<String, WorkflowError> {
    let users = Manager::<AmpUser>::new(conn.clone());
    Ok(users.get(sim.owner_id)?.username)
}

/// Resolve a simulation's science application from the built-in registry.
pub fn app_of(sim: &Simulation) -> Result<Arc<dyn ScienceApp>, WorkflowError> {
    app::lookup(&sim.app)
        .ok_or_else(|| WorkflowError::ModelFailure(format!("unknown application {:?}", sim.app)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_listing_1() {
        let table = workflow_table();
        let shape: Vec<(SimStatus, Vec<&'static str>, SimStatus)> = table
            .iter()
            .map(|(s, fns, n)| (*s, fns.iter().map(|f| f.name).collect(), *n))
            .collect();
        assert_eq!(
            shape,
            vec![
                (
                    SimStatus::Queued,
                    vec!["check_queued_sim", "submit_pre_job"],
                    SimStatus::PreJob
                ),
                (
                    SimStatus::PreJob,
                    vec!["check_pre_job", "submit_workjob"],
                    SimStatus::Running
                ),
                (
                    SimStatus::Running,
                    vec!["check_workjob", "submit_post_job"],
                    SimStatus::PostJob
                ),
                (
                    SimStatus::PostJob,
                    vec!["check_post_job", "postprocess", "submit_cleanup"],
                    SimStatus::Cleanup
                ),
                (
                    SimStatus::Cleanup,
                    vec!["check_cleanup", "close_simulation"],
                    SimStatus::Done
                ),
            ]
        );
    }

    #[test]
    fn submission_ids_parse_back_and_sort_under_their_simulation() {
        let id = submission_id(12, "curvefit", JobPurpose::Work, 3, 2);
        assert_eq!(id, "sim12/curvefit/WORK/r3c2");
        assert_eq!(
            parse_submission_id(&id),
            Some(("curvefit", JobPurpose::Work, 3, 2))
        );
        let fork = submission_id(1, "stellar", JobPurpose::PreJob, -1, 0);
        assert_eq!(
            parse_submission_id(&fork),
            Some(("stellar", JobPurpose::PreJob, -1, 0))
        );
        assert!(fork.starts_with(&submission_prefix(1)) && !id.starts_with(&submission_prefix(1)));
        assert_eq!(parse_submission_id("sim1/stellar/NOPE/r0c0"), None);
        assert_eq!(parse_submission_id("demo"), None);
    }

    #[test]
    fn table_is_linear_and_complete() {
        let table = workflow_table();
        // each state's next is the following row's state; last is DONE
        for w in table.windows(2) {
            assert_eq!(w[0].2, w[1].0);
        }
        assert_eq!(table.last().unwrap().2, SimStatus::Done);
        // every non-terminal happy-path state is covered
        for s in SimStatus::happy_path() {
            if s != SimStatus::Done {
                assert!(table.iter().any(|(st, _, _)| *st == s), "{s} missing");
            }
        }
    }
}
