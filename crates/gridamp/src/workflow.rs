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
//!
//! A stage only decides: it reads through a [`View`] and puts the row as the
//! step leaves it and the ordered [`Effect`]s into a [`Decision`], which the
//! daemon's applier performs ([`crate::daemon`]). No stage reads what an
//! earlier stage of the step wants written, so a step reads before it
//! writes, and a step whose reads fail has written nothing.

use std::sync::Arc;

use amp_core::app::{self, ScienceApp};
use amp_core::models::{AmpUser, GridJobRecord, Observation, Simulation};
use amp_core::status::{JobPurpose, JobStatus, SimStatus};
use amp_core::{SimKind, SimPayload};
use amp_grid::{
    CommunityCredential, GramJobHandle, GramJobSpec, GramService, GramSubmission, Grid, GridError,
    ProxyCertificate, SimDuration, SystemProfile,
};
use amp_simdb::orm::Manager;
use amp_simdb::{Connection, Op, Query, Value};

use crate::apps::paths;
use crate::clilog::{ftp_cmdline, OpsEvent};
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

/// The job-state key `(simulation, app, purpose, ga_run, continuation)` as
/// the client submission id its GRAM submission carries — the one rendering
/// of it, so every daemon that ever steps the simulation asks the site for
/// the same job. Everything a simulation submits sorts under `sim<id>/`.
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

/// What a step decides from: the simulation's row as loaded, and read-only
/// access to its job rows and its site. Nothing here writes, so deciding
/// twice at one instant decides the same.
pub struct View<'a> {
    grid: &'a Grid,
    conn: &'a Connection,
    pub config: &'a DaemonConfig,
    /// The simulation's row as it was loaded.
    pub sim: &'a Simulation,
    /// A short-lived proxy in the simulation owner's name (GridShib, §3).
    proxy: ProxyCertificate,
    /// What the daemon remembers of the simulation's partial results, if
    /// anything ([`crate::optimize::check_work`]); with `None` every look
    /// fetches.
    pub remembered: Option<&'a PartialResults>,
}

impl<'a> View<'a> {
    /// A view of `sim` at the grid's instant, its proxy in its owner's name.
    pub fn new(
        grid: &'a Grid,
        conn: &'a Connection,
        config: &'a DaemonConfig,
        cred: &CommunityCredential,
        sim: &'a Simulation,
        remembered: Option<&'a PartialResults>,
    ) -> Result<Self, WorkflowError> {
        let owner = owner_username(conn, sim)?;
        let proxy = cred.issue_proxy(&owner, grid.now(), PROXY_LIFETIME);
        Ok(View {
            grid,
            conn,
            config,
            sim,
            proxy,
            remembered,
        })
    }

    pub fn now(&self) -> i64 {
        self.grid.now().as_secs() as i64
    }

    /// The simulation's request; one that does not decode is a model failure.
    pub fn payload(&self) -> Result<SimPayload, WorkflowError> {
        let payload = self.sim.payload();
        payload.map_err(|e| WorkflowError::ModelFailure(e.to_string()))
    }

    /// Remote scratch root for this simulation.
    pub fn workdir(&self) -> String {
        format!("amp/sim{}", self.sim.id.expect("saved sim"))
    }

    /// This simulation's science application, from the registry. An
    /// unregistered app id is a model failure (it can never make progress)
    /// rather than a transient.
    pub fn app(&self) -> Result<Arc<dyn ScienceApp>, WorkflowError> {
        app_of(self.sim)
    }

    /// All job records of one purpose for this simulation.
    pub fn jobs_of(&self, purpose: JobPurpose) -> Result<Vec<GridJobRecord>, WorkflowError> {
        Ok(Manager::new(self.conn.clone()).filter(
            &Query::new()
                .eq("simulation_id", self.sim.id.expect("saved"))
                .eq("purpose", purpose.as_str())
                .order_by("ga_run")
                .order_by("continuation"),
        )?)
    }

    /// The submitted record of a job-state key of this simulation, if any,
    /// found among its own rows (its app is the key's).
    pub fn recorded(
        &self,
        key: (JobPurpose, i64, i64),
    ) -> Result<Option<GridJobRecord>, WorkflowError> {
        let existing = Manager::<GridJobRecord>::new(self.conn.clone()).first(
            &Query::new()
                .eq("simulation_id", self.sim.id.expect("saved"))
                .eq("purpose", key.0.as_str())
                .eq("ga_run", key.1)
                .eq("continuation", key.2),
        )?;
        Ok(existing.filter(|rec| rec.app == self.sim.app && rec.gram_handle.is_some()))
    }

    /// An observation row (the input an optimization stages).
    pub fn observation(&self, id: i64) -> Result<Observation, WorkflowError> {
        Ok(Manager::new(self.conn.clone()).get(id)?)
    }

    /// A job description: a fork script's 10 minutes, or a batch job's
    /// configured walltime. [`submit`] gives it its submission id.
    pub(crate) fn job(
        &self,
        service: GramService,
        executable: &str,
        args: Vec<String>,
        cores: u32,
        workdir: String,
    ) -> GramJobSpec {
        let walltime = match service {
            GramService::Fork => SimDuration(10 * 60),
            GramService::Batch => SimDuration::from_hours(self.config.work_walltime_hours),
        };
        GramJobSpec {
            service,
            executable: executable.to_string(),
            args,
            workdir,
            cores,
            walltime,
            ..GramJobSpec::default()
        }
    }

    /// One number of the site's profile, if the site exists.
    pub fn profile<T>(&self, number: impl FnOnce(&SystemProfile) -> T) -> Option<T> {
        self.grid.site(&self.sim.system).map(|s| number(&s.profile))
    }

    /// Fetch a remote file via GridFTP, its §4.4 line into `d`; `None` (and
    /// no line) if there is no such file, as while a run has not converged.
    pub fn get(&self, path: &str, d: &mut Decision) -> Result<Option<Vec<u8>>, WorkflowError> {
        let got = self.grid.ftp_get(&self.sim.system, &self.proxy, path);
        if let Err(GridError::NoSuchFile { .. }) = got {
            return Ok(None);
        }
        let command = ftp_cmdline(&self.sim.system, false, STAGING, path);
        d.reads.push(OpsEvent::command(command, &got));
        Ok(Some(got?.0))
    }

    /// What the site has accepted under this simulation's submission prefix
    /// that the job table has no record of.
    pub fn unrecorded(&self) -> Result<Vec<GramSubmission>, WorkflowError> {
        let sim_id = self.sim.id.expect("saved sim");
        let prefix = format!("sim{sim_id}/");
        let mut held = self
            .grid
            .gram_submissions(&self.sim.system, &self.proxy, &prefix)?;
        if !held.is_empty() {
            let of_sim = Query::new().eq("simulation_id", sim_id);
            let rows = Manager::<GridJobRecord>::new(self.conn.clone()).filter(&of_sim)?;
            held.retain(|s| {
                rows.iter()
                    .all(|r| r.gram_handle.as_ref() != Some(&s.handle.0))
            });
        }
        Ok(held)
    }
}

/// The local directory the §4.4 transfer lines name.
pub(crate) const STAGING: &str = "/var/amp/staging";

/// One thing a decision asks the daemon to do at the site or in the job
/// table, in the order the decision lists them.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Stage a text file to the site (a GridFTP put).
    StageIn { path: String, content: String },
    /// Submit a GRAM job and write its job record.
    Submit(Submission),
    /// Write the record of a job the site accepted and the job table lacks.
    Reconcile(GridJobRecord),
    /// Make the site forget a submission id that has no job row.
    Release(String),
    /// Remove a tree of the site's scratch space (GridFTP).
    Remove(String),
}

/// A GRAM submission: the job description (its `submission_id` set), the
/// job record to write once the site accepts it, and whether the job also
/// waits for the one the submission before it creates (§6 chaining).
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    pub spec: GramJobSpec,
    pub record: GridJobRecord,
    pub after_previous: bool,
}

/// What one step of a simulation decided from its [`View`]: the row as the
/// step leaves it and the effects that get it there, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The row as the step leaves it (its status the next state, after a
    /// transition).
    pub sim: Simulation,
    pub effects: Vec<Effect>,
    /// The service units to charge with the row.
    pub charge: Option<f64>,
    /// What the step knows of the simulation's partial results, to remember
    /// if the whole step succeeds.
    pub learned: Option<PartialResults>,
    /// The §4.4 lines of the grid reads the decision was made from.
    pub reads: Vec<OpsEvent>,
    /// Why no decision could be made; then no effect is performed.
    pub failed: Option<WorkflowError>,
    /// The row as it was loaded.
    pub(crate) loaded: Simulation,
    /// The view's proxy, for the effects (none if no view could be made).
    pub(crate) proxy: Option<ProxyCertificate>,
}

impl Decision {
    /// Nothing decided yet about `sim`.
    pub fn new(sim: &Simulation) -> Self {
        Decision {
            sim: sim.clone(),
            effects: Vec::new(),
            charge: None,
            learned: None,
            reads: Vec::new(),
            failed: None,
            loaded: sim.clone(),
            proxy: None,
        }
    }

    /// This decision, failed with `error`.
    pub(crate) fn failing(mut self, error: WorkflowError) -> Self {
        self.failed = Some(error);
        self
    }
}

/// Run `decide` on a fresh [`Decision`], keeping its error in it.
fn deciding(
    view: &View,
    decide: impl FnOnce(&View, &mut Decision) -> Result<(), WorkflowError>,
) -> Decision {
    let mut d = Decision::new(view.sim);
    d.proxy = Some(view.proxy.clone());
    match decide(view, &mut d) {
        Ok(()) => d,
        Err(e) => d.failing(e),
    }
}

/// Listing 1's decision for the view's simulation: run the stage list of its
/// state; if every stage returns true, the row moves to the next state and
/// its status message is cleared. DONE and HOLD decide nothing.
pub fn decide(view: &View) -> Decision {
    deciding(view, |view, d| {
        let status = view.sim.status;
        let Some(&(_, stages, next)) = WORKFLOW.iter().find(|(s, _, _)| *s == status) else {
            return Ok(());
        };
        for stage in stages {
            if !(stage.run)(view, d)? {
                return Ok(());
            }
        }
        d.sim.status = next;
        d.sim.status_message.clear();
        Ok(())
    })
}

/// The decision that applies an administrator's resume (§4.4), which the
/// portal leaves as a live row with `held_from` set: the site forgets every
/// submission id whose job row was deleted during the hold (or it would
/// answer a resubmission with the failed job), `held_from` is cleared, and
/// nothing else is decided, so the resume is durable before anything is
/// submitted again.
pub fn decide_resume(view: &View) -> Decision {
    deciding(view, |view, d| {
        let held = view.unrecorded()?.into_iter();
        d.effects.extend(held.map(|s| Effect::Release(s.id)));
        d.sim.held_from = None;
        Ok(())
    })
}

/// The decision of the first step under a new ownership: record every
/// submission the site accepted and the job table lacks — the one nobody
/// asks for again, a continuation accepted just before a crash whose run
/// converged before anyone came back. Whatever a stage asks for again heals
/// by itself (the site answers with the same job), so QUEUED has none.
pub fn decide_reconcile(view: &View) -> Decision {
    deciding(view, |view, d| match view.sim.status {
        SimStatus::Queued => Ok(()),
        _ => reconcile(view, d, |_| true),
    })
}

/// Decide the record of every submission the site accepted and the job
/// table lacks whose purpose is one to `keep`.
pub(crate) fn reconcile(
    view: &View,
    d: &mut Decision,
    keep: impl Fn(JobPurpose) -> bool,
) -> Result<(), WorkflowError> {
    let (sim_id, site) = (view.sim.id.expect("saved"), &view.sim.system);
    for sub in view.unrecorded()? {
        let key = parse_submission_id(&sub.id).filter(|key| keep(key.1));
        let Some((app, purpose, ga_run, continuation)) = key else {
            continue;
        };
        let cores = sub.cores as i64;
        let mut rec = GridJobRecord::new(sim_id, ga_run, purpose, continuation, site, cores, app);
        let times = view.grid.job_times(site, &sub.handle);
        rec.submitted_at = times.map(|t| t.submitted_at.as_secs() as i64);
        rec.status = JobStatus::Pending;
        rec.gram_handle = Some(sub.handle.0);
        d.effects.push(Effect::Reconcile(rec));
    }
    Ok(())
}

/// What a chained job waits for (§6): nothing, a recorded job, or the job
/// the submission decided just before it creates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum After {
    Nothing,
    Recorded(GramJobHandle),
    Previous,
}

/// Decide the submission of `spec` under a job-state key, waiting for
/// `after`, unless the key has a submitted record. The key is its
/// [`submission_id`], so whoever steps the simulation next asks the site for
/// the same job. Returns what the next link of a chain waits for.
pub(crate) fn submit(
    view: &View,
    d: &mut Decision,
    (purpose, ga_run, continuation): (JobPurpose, i64, i64),
    mut spec: GramJobSpec,
    after: After,
) -> Result<After, WorkflowError> {
    if let Some(rec) = view.recorded((purpose, ga_run, continuation))? {
        let handle = rec.gram_handle.expect("submitted");
        return Ok(After::Recorded(GramJobHandle(handle)));
    }
    let (sim_id, site, app) = (view.sim.id.expect("saved"), &view.sim.system, &view.sim.app);
    let id = submission_id(sim_id, app, purpose, ga_run, continuation);
    (spec.name, spec.submission_id) = (id.clone(), Some(id));
    if let After::Recorded(handle) = &after {
        spec.depends_on.push(handle.clone());
    }
    let cores = spec.cores as i64;
    let record = GridJobRecord::new(sim_id, ga_run, purpose, continuation, site, cores, app);
    let after_previous = after == After::Previous;
    d.effects.push(Effect::Submit(Submission {
        spec,
        record,
        after_previous,
    }));
    Ok(After::Previous)
}

/// Decide a fork script's submission, run in the scratch root.
fn fork_script(
    view: &View,
    d: &mut Decision,
    purpose: JobPurpose,
    executable: &str,
    args: Vec<String>,
) -> Result<bool, WorkflowError> {
    let spec = view.job(GramService::Fork, executable, args, 0, view.workdir());
    submit(view, d, (purpose, -1, 0), spec, After::Nothing)?;
    Ok(true)
}

/// Check a fork-job purpose: Ok(true) done, Ok(false) still going, model
/// failure on a failed script.
fn fork_done(view: &View, purpose: JobPurpose) -> Result<bool, WorkflowError> {
    let Some(rec) = view.jobs_of(purpose)?.into_iter().next() else {
        return Ok(false);
    };
    let failed = || format!("{} script failed: {}", purpose.as_str(), rec.detail);
    match rec.status {
        JobStatus::Done => Ok(true),
        JobStatus::Failed => Err(WorkflowError::ModelFailure(failed())),
        _ => Ok(false),
    }
}

/// A named stage function — names mirror Listing 1.
pub struct StageDef {
    pub name: &'static str,
    pub run: fn(&View, &mut Decision) -> Result<bool, WorkflowError>,
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

/// The workflow definition (`WORKFLOW`).
pub fn workflow_table() -> &'static [WorkflowRow] {
    &WORKFLOW
}

// ---- base stages (the paper's workflow-manager base class) ----

fn check_queued_sim(view: &View, _: &mut Decision) -> Result<bool, WorkflowError> {
    // Sanity: payload must decode and the app must be registered; a
    // corrupt request is a model failure.
    view.payload()?;
    view.app()?;
    Ok(view.sim.status == SimStatus::Queued)
}

fn submit_pre_job(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    fork_script(view, d, JobPurpose::PreJob, paths::PREJOB, vec![])
}

fn check_pre_job(view: &View, _: &mut Decision) -> Result<bool, WorkflowError> {
    fork_done(view, JobPurpose::PreJob)
}

fn submit_workjob(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let started = match view.sim.kind {
        SimKind::Direct => crate::direct::submit_work(view, d)?,
        SimKind::Optimization => crate::optimize::submit_work(view, d)?,
    };
    if started {
        d.sim.started_at = Some(view.now());
    }
    Ok(started)
}

fn check_workjob(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    match view.sim.kind {
        SimKind::Direct => crate::direct::check_work(view, d),
        SimKind::Optimization => crate::optimize::check_work(view, d),
    }
}

fn submit_post_job(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let root = vec![view.workdir()];
    fork_script(view, d, JobPurpose::PostJob, paths::POSTJOB, root)
}

fn check_post_job(view: &View, _: &mut Decision) -> Result<bool, WorkflowError> {
    fork_done(view, JobPurpose::PostJob)
}

fn postprocess(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let done = match view.sim.kind {
        SimKind::Direct => crate::direct::postprocess(view, d)?,
        SimKind::Optimization => crate::optimize::postprocess(view, d)?,
    };
    if done {
        d.charge = Some(service_units(view)?);
    }
    Ok(done)
}

fn submit_cleanup(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    fork_script(view, d, JobPurpose::Cleanup, paths::CLEANUP, vec![])
}

/// "A final cleanup stage ensures that the execution environment has been
/// removed": once the cleanup job is done, the scratch tree goes.
fn check_cleanup(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    if !fork_done(view, JobPurpose::Cleanup)? {
        return Ok(false);
    }
    d.effects.push(Effect::Remove(view.workdir()));
    Ok(true)
}

fn close_simulation(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    d.sim.completed_at = Some(view.now());
    d.sim.progress = 1.0;
    d.sim.status_message.clear();
    Ok(true)
}

// ---- shared accounting helpers ----

/// CPU-hours × SU factor over every completed computational job.
fn service_units(view: &View) -> Result<f64, WorkflowError> {
    let su_factor = view.profile(|p| p.su_per_cpuh).unwrap_or(0.0);
    let jobs = Manager::<GridJobRecord>::new(view.conn.clone()).filter(
        &Query::new()
            .eq("simulation_id", view.sim.id.expect("saved"))
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
        assert!(fork.starts_with("sim1/") && !id.starts_with("sim1/"));
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
