//! # amp-grid — a discrete-event TeraGrid simulator
//!
//! The computational substrate of the AMP reproduction (Woitaszek et al.,
//! GCE 2009). AMP targets TeraGrid resources through exactly three
//! mechanisms, all part of the common CTSS stack (§4.3): GRAM job
//! submission (fork + batch), GridFTP file staging, and community-credential
//! proxies with GridShib SAML user attribution. This crate simulates that
//! surface over a virtual clock:
//!
//! * [`time`] — simulated seconds; Table 1's numbers are simulated time;
//! * [`systems`] — Frost/Kraken/Lonestar/Ranger profiles calibrated to
//!   Table 1 (benchmark minutes, SU charge factors, walltime limits);
//! * [`scheduler`] — per-site FCFS + EASY-backfill batch queue with
//!   walltime kill, job chaining, and seeded synthetic background load;
//! * [`fs`] / [`app`] — site scratch filesystems and installed executables;
//! * [`gss`] — community credential → SAML-attributed proxies;
//! * [`gram`] / GridFTP methods on [`Grid`] — the client calls the daemon
//!   makes, with outage-window fault injection ([`fault`]) and full request
//!   attribution ([`audit`]).
//!
//! A [`Grid`] keeps its clock, event queue, sites and audit log behind one
//! lock, held for the whole of each client call and of `advance`. The
//! guards [`Grid::site`] and [`Grid::audit`] return hold that lock too:
//! drop one before the next `Grid` call.
//!
//! ```
//! use amp_grid::prelude::*;
//! use std::sync::Arc;
//!
//! let mut grid = Grid::new();
//! grid.add_site(amp_grid::systems::kraken());
//! grid.install_app("kraken", "/bin/sleep", Arc::new(amp_grid::app::SleepApp));
//! let cred = CommunityCredential::new("/CN=amp community");
//! grid.authorize("kraken", &cred);
//! let proxy = cred.issue_proxy("astro1", grid.now(), SimDuration::from_hours(12.0));
//!
//! let h = grid.gram_submit("kraken", &proxy, GramJobSpec {
//!     service: GramService::Batch,
//!     executable: "/bin/sleep".into(),
//!     args: vec!["5".into()],
//!     workdir: "scratch/demo".into(),
//!     cores: 1,
//!     walltime: SimDuration::from_minutes(10.0),
//!     depends_on: vec![],
//!     name: "demo".into(),
//!     submission_id: None,
//! }).unwrap();
//! grid.advance(SimDuration::from_minutes(30.0));
//! assert_eq!(grid.gram_status("kraken", &proxy, &h).unwrap(), GramState::Done);
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod audit;
pub mod error;
pub mod fault;
pub mod fs;
pub mod gram;
pub mod gss;
pub mod scheduler;
pub mod systems;
pub mod time;

pub use crate::app::{AppContext, AppRegistry, AppRun, Application};
pub use crate::audit::{AuditLog, AuditRecord};
pub use crate::error::GridError;
pub use crate::fault::{FaultPlan, Service};
pub use crate::fs::SiteFs;
pub use crate::gram::{
    GramJobHandle, GramJobSpec, GramService, GramState, GramSubmission, JobTimes,
};
pub use crate::gss::{CommunityCredential, ProxyCertificate};
pub use crate::scheduler::{BatchJob, JobOutcome, JobState, Scheduler};
pub use crate::systems::SystemProfile;
pub use crate::time::{SimDuration, SimTime};

/// Common imports for consumers.
pub mod prelude {
    pub use crate::app::{AppContext, AppRun, Application};
    pub use crate::error::GridError;
    pub use crate::fault::Service;
    pub use crate::gram::{GramJobHandle, GramJobSpec, GramService, GramState, JobTimes};
    pub use crate::gss::{CommunityCredential, ProxyCertificate};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::Grid;
}

use crate::scheduler::{BackgroundLoad, JobRequest, Payload};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::{Bound, Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Simulated GridFTP throughput (bytes per simulated second) and per-call
/// latency — only used for transfer accounting; calls complete inline.
const FTP_BANDWIDTH_BPS: u64 = 50 * 1024 * 1024;
const FTP_LATENCY_SECS: u64 = 2;

/// What a due event does, to the site at an index of [`State::sites`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    JobFinish { site: usize, job: u64 },
    BgArrival { site: usize },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One simulated resource provider site.
pub struct Site {
    pub profile: SystemProfile,
    pub scheduler: Scheduler,
    pub fs: SiteFs,
    pub apps: AppRegistry,
    background: Option<BackgroundState>,
    /// Community credential subjects enabled on this site.
    authorized: BTreeSet<String>,
    /// Registered credentials for proxy verification, by subject.
    trust: BTreeMap<String, CommunityCredential>,
    /// Accepted submission ids, each with the job it created: `(service,
    /// scheduler job id, cores)`. Ordered, so a prefix lists in one range.
    submissions: BTreeMap<String, (GramService, u64, u32)>,
}

struct BackgroundState {
    generator: BackgroundLoad,
    next_request: JobRequest,
}

/// Statistics for one GridFTP transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStats {
    pub bytes: u64,
    /// Modeled transfer duration (latency + bytes/bandwidth). Transfers
    /// complete inline — this is accounting, not a clock advance: staging
    /// is minutes against multi-hour jobs.
    pub duration: SimDuration,
}

fn transfer(bytes: u64) -> TransferStats {
    let duration = SimDuration::from_secs(FTP_LATENCY_SECS + bytes / FTP_BANDWIDTH_BPS);
    TransferStats { bytes, duration }
}

/// Everything the simulation mutates, behind the grid's one lock: the
/// virtual clock, the event queue (`seq` orders events at equal timestamps
/// by insertion), the sites and the attribution log.
struct State {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    sites: Vec<Site>,
    audit: AuditLog,
}

impl State {
    fn site_index(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s.profile.name == name)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, kind }));
    }

    /// Run a scheduler pass on a site and queue the JobFinish events of
    /// the jobs it started.
    fn schedule(&mut self, site: usize) {
        let s = &mut self.sites[site];
        for (at, job) in s.scheduler.schedule_pass(self.now, &mut s.fs, &s.apps) {
            self.push_event(at, EventKind::JobFinish { site, job });
        }
    }

    /// Process every event due by `target` in `(at, seq)` order, then
    /// leave the clock at `target`.
    fn advance_to(&mut self, target: SimTime) {
        while self
            .events
            .peek()
            .is_some_and(|Reverse(ev)| ev.at <= target)
        {
            let Reverse(ev) = self.events.pop().expect("peeked");
            self.now = ev.at;
            self.dispatch(ev.kind);
        }
        self.now = self.now.max(target);
    }

    fn dispatch(&mut self, kind: EventKind) {
        let now = self.now;
        match kind {
            EventKind::JobFinish { site, job } => {
                let s = &mut self.sites[site];
                s.scheduler.finish_job(job, now, &mut s.fs);
                self.schedule(site);
            }
            EventKind::BgArrival { site } => {
                let s = &mut self.sites[site];
                let Some(bg) = s.background.as_mut() else {
                    return;
                };
                let (delay, upcoming) = bg.generator.next_arrival();
                let req = std::mem::replace(&mut bg.next_request, upcoming);
                // Background load submits outside the GRAM surface.
                let _ = s.scheduler.submit(req, now, true);
                self.schedule(site);
                self.push_event(now + delay, EventKind::BgArrival { site });
            }
        }
    }

    fn record(
        &mut self,
        site: &str,
        service: &str,
        proxy: &ProxyCertificate,
        action: &str,
        detail: String,
    ) {
        self.audit.record(AuditRecord {
            time: self.now,
            site: site.to_string(),
            service: service.to_string(),
            subject: proxy.issuer.clone(),
            saml_user: proxy.saml_user.clone(),
            action: action.to_string(),
            detail,
        });
    }
}

/// A view of one [`Site`] that holds the grid's one lock: drop it before
/// the next [`Grid`] call, which would wait for that lock forever.
pub struct SiteGuard<'a> {
    state: MutexGuard<'a, State>,
    site: usize,
}

impl Deref for SiteGuard<'_> {
    type Target = Site;
    fn deref(&self) -> &Site {
        &self.state.sites[self.site]
    }
}

impl DerefMut for SiteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Site {
        &mut self.state.sites[self.site]
    }
}

/// A view of the attribution log that holds the grid's one lock: drop it
/// before the next [`Grid`] call, which would wait for that lock forever.
pub struct AuditGuard<'a>(MutexGuard<'a, State>);

impl Deref for AuditGuard<'_> {
    type Target = AuditLog;
    fn deref(&self) -> &AuditLog {
        &self.0.audit
    }
}

/// The simulation: virtual clock, event queue, all sites and the audit
/// log, behind one lock.
///
/// Client calls (`gram_*`, `ftp_*`, `job_times`) and `advance` take
/// `&self` and hold the lock for the whole call, so daemons on other
/// threads can share a `Grid` by reference. [`Grid::site`] and
/// [`Grid::audit`] return guards that hold the same lock. Setup
/// (`add_site`, `install_app`, `authorize`) takes `&mut self`.
pub struct Grid {
    state: Mutex<State>,
    pub faults: FaultPlan,
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

impl Grid {
    pub fn new() -> Self {
        Grid {
            state: Mutex::new(State {
                now: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
                sites: Vec::new(),
                audit: AuditLog::default(),
            }),
            faults: FaultPlan::none(),
        }
    }

    /// Take the lock. A panic on another thread leaves plain simulator
    /// data behind, so a poisoned lock is taken all the same.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The state during setup, when `&mut self` rules out other callers.
    fn state_mut(&mut self) -> &mut State {
        self.state.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn now(&self) -> SimTime {
        self.state().now
    }

    pub fn audit(&self) -> AuditGuard<'_> {
        AuditGuard(self.state())
    }

    pub fn site(&self, name: &str) -> Option<SiteGuard<'_>> {
        let state = self.state();
        let site = state.site_index(name)?;
        Some(SiteGuard { state, site })
    }

    /// Register a quiet site (no competing load).
    pub fn add_site(&mut self, profile: SystemProfile) {
        let site = Site {
            fs: SiteFs::new(&profile.name, profile.scratch_quota_bytes),
            scheduler: Scheduler::new(profile.clone()),
            profile,
            apps: AppRegistry::new(),
            background: None,
            authorized: BTreeSet::new(),
            trust: BTreeMap::new(),
            submissions: BTreeMap::new(),
        };
        let state = self.state_mut();
        match state.site_index(&site.profile.name) {
            Some(i) => state.sites[i] = site,
            None => state.sites.push(site),
        }
    }

    /// Register a site with synthetic background load (queue contention).
    pub fn add_site_with_background(&mut self, profile: SystemProfile, seed: u64) {
        let mut generator = BackgroundLoad::new(&profile, seed);
        let (delay, next_request) = generator.next_arrival();
        let name = profile.name.clone();
        self.add_site(profile);
        let state = self.state_mut();
        let site = state.site_index(&name).expect("just added");
        state.sites[site].background = Some(BackgroundState {
            generator,
            next_request,
        });
        state.push_event(state.now + delay, EventKind::BgArrival { site });
    }

    pub fn install_app(&mut self, site: &str, executable: &str, app: Arc<dyn Application>) {
        let state = self.state_mut();
        if let Some(i) = state.site_index(site) {
            state.sites[i].apps.install(executable, app);
        }
    }

    /// Enable a community credential on a site (the "community account has
    /// been authorized" step, §4.3).
    pub fn authorize(&mut self, site: &str, cred: &CommunityCredential) {
        let state = self.state_mut();
        if let Some(i) = state.site_index(site) {
            let s = &mut state.sites[i];
            s.authorized.insert(cred.subject.clone());
            s.trust.insert(cred.subject.clone(), cred.clone());
        }
    }

    /// Advance the clock by `dur`, processing all events in order.
    pub fn advance(&self, dur: SimDuration) {
        let mut state = self.state();
        let target = state.now + dur;
        state.advance_to(target);
    }

    /// Advance the clock to `target`, processing all events in order.
    pub fn advance_to(&self, target: SimTime) {
        self.state().advance_to(target);
    }

    /// Take the lock and pass the outage + credential + authorization gate
    /// shared by every client call: the locked state and the site's index.
    fn check_access(
        &self,
        site: &str,
        service: Service,
        proxy: &ProxyCertificate,
    ) -> Result<(MutexGuard<'_, State>, usize), GridError> {
        let service_name = match service {
            Service::Gram => "GRAM",
            Service::GridFtp => "GridFTP",
            Service::Both => "grid",
        };
        let state = self.state();
        let now = state.now;
        let i = state
            .site_index(site)
            .ok_or_else(|| GridError::NoSuchSite(site.to_string()))?;
        if self.faults.is_down(site, service, now) {
            return Err(GridError::ServiceUnreachable {
                site: site.to_string(),
                service: service_name,
                at: now,
            });
        }
        if !proxy.is_valid_at(now) {
            return Err(GridError::CredentialExpired {
                subject: proxy.subject.clone(),
                at: now,
            });
        }
        let s = &state.sites[i];
        let trusted = s
            .trust
            .get(&proxy.issuer)
            .map(|cred| cred.verify(proxy))
            .unwrap_or(false);
        if !trusted || !s.authorized.contains(&proxy.issuer) {
            return Err(GridError::NotAuthorized {
                site: site.to_string(),
                subject: proxy.subject.clone(),
            });
        }
        Ok((state, i))
    }

    /// Submit a GRAM job (`globusrun`-equivalent).
    pub fn gram_submit(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        spec: GramJobSpec,
    ) -> Result<GramJobHandle, GridError> {
        let reply = self.gram_submit_known(site, proxy, spec);
        reply.map(|(handle, _known)| handle)
    }

    /// [`Self::gram_submit`], also saying whether the site already held the
    /// spec's submission id. If it did, the handle is that job's, the
    /// scheduler is not touched and the audit action is `"resubmit"` (with
    /// the id), so `"submit"` records count the jobs created.
    pub fn gram_submit_known(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        spec: GramJobSpec,
    ) -> Result<(GramJobHandle, bool), GridError> {
        // Resolve dependency handles to local scheduler ids.
        let mut deps = Vec::with_capacity(spec.depends_on.len());
        for h in &spec.depends_on {
            let (dep_site, id) = h
                .parse()
                .ok_or_else(|| GridError::BadDependency(format!("unparseable handle {h}")))?;
            if dep_site != site {
                return Err(GridError::BadDependency(format!(
                    "dependency {h} is on another site"
                )));
            }
            deps.push(id);
        }
        let (mut state, i) = self.check_access(site, Service::Gram, proxy)?;
        let now = state.now;
        let s = &mut state.sites[i];
        let held = spec.submission_id.as_ref().and_then(|id| {
            let &(service, job, _cores) = s.submissions.get(id)?;
            Some((id, GramJobHandle::new(site, service, job)))
        });
        let (handle, known, detail) = if let Some((id, handle)) = held {
            let detail = format!("{id} -> {handle}");
            (handle, true, detail)
        } else {
            if s.apps.get(&spec.executable).is_none() {
                return Err(GridError::NoSuchApplication {
                    site: site.to_string(),
                    executable: spec.executable,
                });
            }
            let cores = match spec.service {
                GramService::Fork => 0,
                GramService::Batch => spec.cores.max(1),
            };
            let req = JobRequest {
                name: spec.name,
                cores,
                walltime: spec.walltime,
                deps,
                payload: Payload::App {
                    executable: spec.executable.clone(),
                    args: spec.args,
                    workdir: spec.workdir,
                },
            };
            let job = s.scheduler.submit(req, now, false)?;
            if let Some(id) = spec.submission_id {
                s.submissions.insert(id, (spec.service, job, cores));
            }
            let handle = GramJobHandle::new(site, spec.service, job);
            let detail = format!("{} -> {}", spec.executable, handle);
            state.schedule(i);
            (handle, false, detail)
        };
        let action = if known { "resubmit" } else { "submit" };
        state.record(site, "GRAM", proxy, action, detail);
        if self.faults.reply_lost(site, now) {
            return Err(GridError::ServiceUnreachable {
                site: site.to_string(),
                service: "GRAM",
                at: now,
            });
        }
        Ok((handle, known))
    }

    /// The submission ids this site has accepted under `prefix`, in id
    /// order, each with the job it created — what a client that lost its
    /// own records asks the site's GRAM audit database for.
    pub fn gram_submissions(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        prefix: &str,
    ) -> Result<Vec<GramSubmission>, GridError> {
        let (state, i) = self.check_access(site, Service::Gram, proxy)?;
        let from = (Bound::Included(prefix), Bound::Unbounded);
        let under = state.sites[i].submissions.range::<str, _>(from);
        Ok(under
            .take_while(|(id, _)| id.starts_with(prefix))
            .map(|(id, &(service, job, cores))| GramSubmission {
                id: id.clone(),
                handle: GramJobHandle::new(site, service, job),
                service,
                cores,
            })
            .collect())
    }

    /// Destroy a submission id (the job resource's `destroy`): the site
    /// forgets it, and the next submission carrying it creates a job.
    pub fn gram_release(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        id: &str,
    ) -> Result<(), GridError> {
        let (mut state, i) = self.check_access(site, Service::Gram, proxy)?;
        state.sites[i].submissions.remove(id);
        state.record(site, "GRAM", proxy, "release", id.to_string());
        Ok(())
    }

    /// Poll a job's GRAM status (`globus-job-status`-equivalent).
    pub fn gram_status(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        handle: &GramJobHandle,
    ) -> Result<GramState, GridError> {
        let (state, i) = self.check_access(site, Service::Gram, proxy)?;
        let (_, id) = handle
            .parse()
            .ok_or_else(|| GridError::NoSuchJob(handle.to_string()))?;
        let job = state.sites[i]
            .scheduler
            .job(id)
            .ok_or_else(|| GridError::NoSuchJob(handle.to_string()))?;
        Ok(GramState::from_job_state(&job.state))
    }

    /// Cancel a job (`globus-job-cancel`).
    pub fn gram_cancel(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        handle: &GramJobHandle,
    ) -> Result<(), GridError> {
        let (_, id) = handle
            .parse()
            .ok_or_else(|| GridError::NoSuchJob(handle.to_string()))?;
        let (mut state, i) = self.check_access(site, Service::Gram, proxy)?;
        state.sites[i].scheduler.cancel(id, "cancelled via GRAM")?;
        state.schedule(i);
        state.record(site, "GRAM", proxy, "cancel", handle.to_string());
        Ok(())
    }

    /// Submit/start/end record for the Gantt tool (§6) — introspection,
    /// not a grid client call.
    pub fn job_times(&self, site: &str, handle: &GramJobHandle) -> Option<JobTimes> {
        let s = self.site(site)?;
        let (_, id) = handle.parse()?;
        let job = s.scheduler.job(id)?;
        let (started, ended) = match &job.state {
            JobState::Waiting | JobState::Cancelled { .. } => (None, None),
            JobState::Running { started_at, .. } => (Some(*started_at), None),
            JobState::Done {
                started_at,
                ended_at,
                ..
            } => (Some(*started_at), Some(*ended_at)),
        };
        Some(JobTimes {
            name: job.name.clone(),
            cores: job.cores,
            submitted_at: job.submitted_at,
            started_at: started,
            ended_at: ended,
            state: GramState::from_job_state(&job.state),
        })
    }

    /// Stage a file to a site (`globus-url-copy` put).
    pub fn ftp_put(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        path: &str,
        data: Vec<u8>,
    ) -> Result<TransferStats, GridError> {
        let bytes = data.len() as u64;
        let (mut state, i) = self.check_access(site, Service::GridFtp, proxy)?;
        state.sites[i].fs.write(path, data)?;
        let detail = format!("{path} ({bytes} B)");
        state.record(site, "GridFTP", proxy, "put", detail);
        Ok(transfer(bytes))
    }

    /// Remove a remote tree (`uberftp rm -r`-equivalent); returns how many
    /// files went.
    pub fn ftp_remove(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        prefix: &str,
    ) -> Result<usize, GridError> {
        let (mut state, i) = self.check_access(site, Service::GridFtp, proxy)?;
        let removed = state.sites[i].fs.remove_tree(prefix);
        let detail = format!("{prefix} ({removed} files)");
        state.record(site, "GridFTP", proxy, "remove", detail);
        Ok(removed)
    }

    /// List remote files under a prefix (`uberftp ls`-equivalent) — used
    /// for troubleshooting staged trees.
    pub fn ftp_list(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        prefix: &str,
    ) -> Result<Vec<String>, GridError> {
        let (state, i) = self.check_access(site, Service::GridFtp, proxy)?;
        Ok(state.sites[i].fs.list_tree(prefix))
    }

    /// Fetch a file from a site (`globus-url-copy` get).
    pub fn ftp_get(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        path: &str,
    ) -> Result<(Vec<u8>, TransferStats), GridError> {
        let (mut state, i) = self.check_access(site, Service::GridFtp, proxy)?;
        let data = state.sites[i].fs.read(path)?.to_vec();
        let bytes = data.len() as u64;
        let detail = format!("{path} ({bytes} B)");
        state.record(site, "GridFTP", proxy, "get", detail);
        Ok((data, transfer(bytes)))
    }
}

/// Daemons on other threads share a `Grid` by reference.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Grid>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SleepApp;
    use crate::systems::{kraken, lonestar};

    fn setup() -> (Grid, CommunityCredential, ProxyCertificate) {
        let mut grid = Grid::new();
        grid.add_site(kraken());
        grid.install_app("kraken", "sleep", Arc::new(SleepApp));
        let cred = CommunityCredential::new("/CN=amp community");
        grid.authorize("kraken", &cred);
        let proxy = cred.issue_proxy("astro1", grid.now(), SimDuration::from_hours(1000.0));
        (grid, cred, proxy)
    }

    fn sleep_spec(name: &str, minutes: f64, service: GramService) -> GramJobSpec {
        GramJobSpec {
            service,
            executable: "sleep".into(),
            args: vec![minutes.to_string()],
            workdir: format!("scratch/{name}"),
            cores: 128,
            walltime: SimDuration::from_minutes(minutes + 10.0),
            depends_on: vec![],
            name: name.into(),
            submission_id: None,
        }
    }

    #[test]
    fn batch_job_lifecycle() {
        let (grid, _cred, proxy) = setup();
        let h = grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 30.0, GramService::Batch))
            .unwrap();
        assert_eq!(
            grid.gram_status("kraken", &proxy, &h).unwrap(),
            GramState::Active
        );
        grid.advance(SimDuration::from_minutes(15.0));
        assert_eq!(
            grid.gram_status("kraken", &proxy, &h).unwrap(),
            GramState::Active
        );
        grid.advance(SimDuration::from_minutes(20.0));
        assert_eq!(
            grid.gram_status("kraken", &proxy, &h).unwrap(),
            GramState::Done
        );
        let times = grid.job_times("kraken", &h).unwrap();
        assert_eq!(times.run().unwrap().as_minutes(), 30.0);
        assert_eq!(times.wait().unwrap(), SimDuration::ZERO);
        assert!(grid.site("kraken").unwrap().fs.exists("scratch/a/done.txt"));
    }

    #[test]
    fn fork_job_runs_despite_busy_queue() {
        let (grid, _cred, proxy) = setup();
        // saturate the machine
        let mut big = sleep_spec("big", 60.0, GramService::Batch);
        big.cores = kraken().cores;
        grid.gram_submit("kraken", &proxy, big).unwrap();
        let mut fork = sleep_spec("pre", 0.5, GramService::Fork);
        fork.cores = 0;
        let h = grid.gram_submit("kraken", &proxy, fork).unwrap();
        grid.advance(SimDuration::from_minutes(2.0));
        assert_eq!(
            grid.gram_status("kraken", &proxy, &h).unwrap(),
            GramState::Done
        );
    }

    #[test]
    fn gridftp_staging_roundtrip() {
        let (grid, _cred, proxy) = setup();
        let stats = grid
            .ftp_put("kraken", &proxy, "scratch/in.txt", b"observables".to_vec())
            .unwrap();
        assert_eq!(stats.bytes, 11);
        assert!(stats.duration.as_secs() >= 2);
        let (data, _) = grid.ftp_get("kraken", &proxy, "scratch/in.txt").unwrap();
        assert_eq!(data, b"observables");
        assert!(matches!(
            grid.ftp_get("kraken", &proxy, "missing"),
            Err(GridError::NoSuchFile { .. })
        ));
        // directory listing
        grid.ftp_put("kraken", &proxy, "scratch/out.txt", vec![1])
            .unwrap();
        let listing = grid.ftp_list("kraken", &proxy, "scratch").unwrap();
        assert_eq!(listing.len(), 2);
        assert!(grid.ftp_list("kraken", &proxy, "empty").unwrap().is_empty());
        // listing is permission-gated like any GridFTP call
        let mallory = CommunityCredential::new("/CN=m");
        let fake = mallory.issue_proxy("m", grid.now(), SimDuration::from_hours(1.0));
        assert!(grid.ftp_list("kraken", &fake, "scratch").is_err());
    }

    #[test]
    fn outage_blocks_then_recovers() {
        let (mut grid, _cred, proxy) = setup();
        grid.faults
            .add_outage("kraken", Service::Gram, SimTime(0), SimTime(600));
        let err = grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 5.0, GramService::Batch))
            .unwrap_err();
        assert!(err.is_transient());
        // GridFTP unaffected by a GRAM-only outage
        assert!(grid.ftp_put("kraken", &proxy, "x", vec![1]).is_ok());
        grid.advance(SimDuration::from_secs(700));
        assert!(grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 5.0, GramService::Batch))
            .is_ok());
    }

    #[test]
    fn a_repeated_submission_id_is_answered_with_the_job_it_created() {
        let (grid, _cred, proxy) = setup();
        let with_id = |id: &str| GramJobSpec {
            submission_id: Some(id.into()),
            ..sleep_spec("a", 30.0, GramService::Batch)
        };
        let submit = |id: &str| grid.gram_submit_known("kraken", &proxy, with_id(id));
        let (first, known) = submit("sim7/stellar/WORK/r0c0").unwrap();
        assert!(!known);
        // Repeats are answered the same while it runs and after it ended.
        assert_eq!(
            submit("sim7/stellar/WORK/r0c0").unwrap(),
            (first.clone(), true)
        );
        grid.advance(SimDuration::from_minutes(45.0));
        assert_eq!(
            submit("sim7/stellar/WORK/r0c0").unwrap(),
            (first.clone(), true)
        );
        let (other, known) = submit("sim70/stellar/WORK/r0c0").unwrap();
        assert!(!known && other != first);
        assert_eq!(grid.site("kraken").unwrap().scheduler.jobs().count(), 2);

        // "submit" records count jobs created; a "resubmit" says which.
        let actions = |action: &str| {
            let audit = grid.audit();
            let of_action = audit.records().iter().filter(|r| r.action == action);
            of_action.map(|r| r.detail.clone()).collect::<Vec<_>>()
        };
        assert_eq!(actions("submit").len(), 2);
        let repeat = format!("sim7/stellar/WORK/r0c0 -> {first}");
        assert_eq!(actions("resubmit"), vec![repeat.clone(), repeat]);

        // A prefix lists a simulation's ids and no other's.
        let held = grid.gram_submissions("kraken", &proxy, "sim7/").unwrap();
        assert_eq!(held.len(), 1);
        assert_eq!(
            (held[0].id.as_str(), &held[0].handle, held[0].cores),
            ("sim7/stellar/WORK/r0c0", &first, 128)
        );
        assert_eq!(
            grid.gram_submissions("kraken", &proxy, "sim")
                .unwrap()
                .len(),
            2
        );
        assert!(grid
            .gram_submissions("kraken", &proxy, "sim8/")
            .unwrap()
            .is_empty());

        // A released id is free again.
        grid.gram_release("kraken", &proxy, "sim7/stellar/WORK/r0c0")
            .unwrap();
        let (fresh, known) = submit("sim7/stellar/WORK/r0c0").unwrap();
        assert!(!known && fresh != first);
    }

    #[test]
    fn a_lost_reply_leaves_the_job_and_a_repeat_finds_it() {
        let (mut grid, _cred, proxy) = setup();
        grid.faults
            .add_lost_replies("kraken", SimTime(0), SimTime(600));
        let spec = GramJobSpec {
            submission_id: Some("sim1/stellar/PREJOB/r-1c0".into()),
            ..sleep_spec("pre", 5.0, GramService::Fork)
        };
        let lost = grid
            .gram_submit("kraken", &proxy, spec.clone())
            .unwrap_err();
        assert!(lost.is_transient());
        assert_eq!(grid.site("kraken").unwrap().scheduler.jobs().count(), 1);
        assert_eq!(grid.audit().records()[0].action, "submit");
        // The reply to a repeat is lost like any other, and creates nothing.
        assert!(grid.gram_submit("kraken", &proxy, spec.clone()).is_err());
        grid.advance(SimDuration::from_secs(700));
        let (handle, known) = grid.gram_submit_known("kraken", &proxy, spec).unwrap();
        assert!(known);
        assert_eq!(grid.site("kraken").unwrap().scheduler.jobs().count(), 1);
        assert_eq!(
            grid.gram_status("kraken", &proxy, &handle).unwrap(),
            GramState::Done
        );
    }

    #[test]
    fn expired_or_foreign_proxy_rejected() {
        let (grid, cred, _) = setup();
        let short = cred.issue_proxy("astro1", SimTime(0), SimDuration::from_secs(10));
        grid.advance(SimDuration::from_secs(60));
        assert!(matches!(
            grid.gram_submit("kraken", &short, sleep_spec("a", 5.0, GramService::Batch)),
            Err(GridError::CredentialExpired { .. })
        ));
        let mallory = CommunityCredential::new("/CN=mallory");
        let fake = mallory.issue_proxy("astro1", grid.now(), SimDuration::from_hours(1.0));
        assert!(matches!(
            grid.gram_submit("kraken", &fake, sleep_spec("a", 5.0, GramService::Batch)),
            Err(GridError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn unauthorized_site_rejected() {
        let (mut grid, cred, proxy) = setup();
        grid.add_site(lonestar());
        grid.install_app("lonestar", "sleep", Arc::new(SleepApp));
        // community account not yet enabled on lonestar
        assert!(matches!(
            grid.gram_submit("lonestar", &proxy, sleep_spec("a", 5.0, GramService::Batch)),
            Err(GridError::NotAuthorized { .. })
        ));
        grid.authorize("lonestar", &cred);
        assert!(grid
            .gram_submit("lonestar", &proxy, sleep_spec("a", 5.0, GramService::Batch))
            .is_ok());
    }

    #[test]
    fn audit_attributes_every_call() {
        let (grid, cred, proxy) = setup();
        let proxy2 = cred.issue_proxy("astro2", grid.now(), SimDuration::from_hours(10.0));
        grid.gram_submit("kraken", &proxy, sleep_spec("a", 5.0, GramService::Batch))
            .unwrap();
        grid.ftp_put("kraken", &proxy2, "f", vec![0]).unwrap();
        assert!(grid.audit().fully_attributed());
        assert_eq!(grid.audit().by_user("astro1").count(), 1);
        assert_eq!(grid.audit().by_user("astro2").count(), 1);
    }

    #[test]
    fn dependencies_via_handles() {
        let (grid, _cred, proxy) = setup();
        let a = grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 10.0, GramService::Batch))
            .unwrap();
        let mut chained = sleep_spec("b", 10.0, GramService::Batch);
        chained.depends_on = vec![a.clone()];
        let b = grid.gram_submit("kraken", &proxy, chained).unwrap();
        // b pends until a completes even though cores are free
        assert_eq!(
            grid.gram_status("kraken", &proxy, &b).unwrap(),
            GramState::Pending
        );
        grid.advance(SimDuration::from_minutes(25.0));
        assert_eq!(
            grid.gram_status("kraken", &proxy, &b).unwrap(),
            GramState::Done
        );
        let ta = grid.job_times("kraken", &a).unwrap();
        let tb = grid.job_times("kraken", &b).unwrap();
        assert!(tb.started_at.unwrap() >= ta.ended_at.unwrap());
    }

    #[test]
    fn cross_site_dependency_rejected() {
        let (mut grid, cred, proxy) = setup();
        grid.add_site(lonestar());
        grid.authorize("lonestar", &cred);
        grid.install_app("lonestar", "sleep", Arc::new(SleepApp));
        let a = grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 5.0, GramService::Batch))
            .unwrap();
        let mut b = sleep_spec("b", 5.0, GramService::Batch);
        b.depends_on = vec![a];
        assert!(matches!(
            grid.gram_submit("lonestar", &proxy, b),
            Err(GridError::BadDependency(_))
        ));
    }

    #[test]
    fn background_load_creates_queue_wait() {
        let mut grid = Grid::new();
        let mut profile = lonestar();
        profile.background_utilization = 0.9;
        grid.add_site_with_background(profile, 2);
        grid.install_app("lonestar", "sleep", Arc::new(SleepApp));
        let cred = CommunityCredential::new("/CN=amp");
        grid.authorize("lonestar", &cred);
        let proxy = cred.issue_proxy("astro1", grid.now(), SimDuration::from_hours(10_000.0));
        // let the machine fill up
        grid.advance(SimDuration::from_hours(48.0));
        let util = grid.site("lonestar").unwrap().scheduler.utilization();
        assert!(util > 0.5, "utilization {util}");
        let mut spec = sleep_spec("ga", 60.0, GramService::Batch);
        spec.cores = 2048;
        let h = grid.gram_submit("lonestar", &proxy, spec).unwrap();
        grid.advance(SimDuration::from_hours(72.0));
        let times = grid.job_times("lonestar", &h).unwrap();
        assert_eq!(times.state, GramState::Done);
        assert!(
            times.wait().unwrap() > SimDuration::ZERO,
            "expected queue wait on an oversubscribed machine"
        );
    }

    #[test]
    fn submit_unknown_executable_rejected() {
        let (grid, _cred, proxy) = setup();
        let mut spec = sleep_spec("a", 5.0, GramService::Batch);
        spec.executable = "missing".into();
        assert!(matches!(
            grid.gram_submit("kraken", &proxy, spec),
            Err(GridError::NoSuchApplication { .. })
        ));
    }

    #[test]
    fn cancel_via_gram() {
        let (grid, _cred, proxy) = setup();
        let h = grid
            .gram_submit("kraken", &proxy, sleep_spec("a", 30.0, GramService::Batch))
            .unwrap();
        grid.advance(SimDuration::from_minutes(5.0));
        grid.gram_cancel("kraken", &proxy, &h).unwrap();
        assert!(matches!(
            grid.gram_status("kraken", &proxy, &h).unwrap(),
            GramState::Failed(_)
        ));
    }

    #[test]
    fn clock_advances_even_with_no_events() {
        let grid = Grid::new();
        grid.advance(SimDuration::from_hours(5.0));
        assert_eq!(grid.now().as_hours(), 5.0);
    }
}
