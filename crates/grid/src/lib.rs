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
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, recovering from poison: the protected state is plain
/// simulator data, and a panicking worker thread must not wedge every
/// other worker (or the test harness that observes the failure).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Simulated GridFTP throughput (bytes per simulated second) and per-call
/// latency — only used for transfer accounting; calls complete inline.
const FTP_BANDWIDTH_BPS: u64 = 50 * 1024 * 1024;
const FTP_LATENCY_SECS: u64 = 2;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    JobFinish { site: String, job: u64 },
    BgArrival { site: String },
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

/// The virtual clock and event queue, one lock domain. Everything that
/// orders the simulation globally lives here: `seq` makes event ordering
/// at equal timestamps deterministic per insertion.
struct ClockState {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
}

/// A locked view of one [`Site`].
///
/// Concurrency model (the shards of a daemon tick share one `Grid`, on
/// threads when more than one has work):
///
/// * every site sits behind its own mutex — the sharding unit;
/// * the clock (now + event queue) is a second, independent lock;
/// * the audit log is a third.
///
/// Lock order: a thread may hold at most one site lock, and must release
/// it before touching the clock or audit locks (client calls collect
/// their new events and audit records while holding the site, then apply
/// them after dropping it). The clock lock is never held while acquiring
/// a site lock — `advance_to` pops each due event, releases the clock,
/// and only then dispatches into the event's site.
pub struct SiteGuard<'a>(MutexGuard<'a, Site>);

impl Deref for SiteGuard<'_> {
    type Target = Site;
    fn deref(&self) -> &Site {
        &self.0
    }
}

impl DerefMut for SiteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Site {
        &mut self.0
    }
}

/// A locked view of the attribution log.
pub struct AuditGuard<'a>(MutexGuard<'a, AuditLog>);

impl Deref for AuditGuard<'_> {
    type Target = AuditLog;
    fn deref(&self) -> &AuditLog {
        &self.0
    }
}

/// The simulation: virtual clock, event queue, and all sites.
///
/// Client calls (`gram_*`, `ftp_*`, `job_times`, `advance`) take `&self`
/// and synchronize internally (see [`SiteGuard`] for the lock order), so
/// a `Grid` can be shared across daemon worker threads. The site map
/// itself is fixed after setup: `add_site` / `install_app` / `authorize`
/// keep `&mut self`, which statically excludes concurrent clients.
pub struct Grid {
    clock: Mutex<ClockState>,
    sites: BTreeMap<String, Mutex<Site>>,
    pub faults: FaultPlan,
    audit: Mutex<AuditLog>,
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

impl Grid {
    pub fn new() -> Self {
        Grid {
            clock: Mutex::new(ClockState {
                now: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
            }),
            sites: BTreeMap::new(),
            faults: FaultPlan::none(),
            audit: Mutex::new(AuditLog::default()),
        }
    }

    pub fn now(&self) -> SimTime {
        lock(&self.clock).now
    }

    pub fn audit(&self) -> AuditGuard<'_> {
        AuditGuard(lock(&self.audit))
    }

    pub fn site(&self, name: &str) -> Option<SiteGuard<'_>> {
        self.sites.get(name).map(|m| SiteGuard(lock(m)))
    }

    /// Locked mutable access to a site (same lock as [`Grid::site`]; the
    /// `_mut` name is kept for the pre-refactor call sites).
    pub fn site_mut(&self, name: &str) -> Option<SiteGuard<'_>> {
        self.site(name)
    }

    /// Register a quiet site (no competing load).
    pub fn add_site(&mut self, profile: SystemProfile) {
        let name = profile.name.clone();
        let fs = SiteFs::new(&name, profile.scratch_quota_bytes);
        let scheduler = Scheduler::new(profile.clone());
        self.sites.insert(
            name,
            Mutex::new(Site {
                profile,
                scheduler,
                fs,
                apps: AppRegistry::new(),
                background: None,
                authorized: BTreeSet::new(),
                trust: BTreeMap::new(),
                submissions: BTreeMap::new(),
            }),
        );
    }

    /// Register a site with synthetic background load (queue contention).
    pub fn add_site_with_background(&mut self, profile: SystemProfile, seed: u64) {
        let name = profile.name.clone();
        self.add_site(profile);
        let site = self
            .sites
            .get_mut(&name)
            .expect("just added")
            .get_mut()
            .unwrap_or_else(|p| p.into_inner());
        let mut generator = BackgroundLoad::new(&site.profile, seed);
        let (delay, next_request) = generator.next_arrival();
        site.background = Some(BackgroundState {
            generator,
            next_request,
        });
        let at = self.now() + delay;
        self.push_event(at, EventKind::BgArrival { site: name });
    }

    pub fn install_app(&mut self, site: &str, executable: &str, app: Arc<dyn Application>) {
        if let Some(s) = self.sites.get_mut(site) {
            s.get_mut()
                .unwrap_or_else(|p| p.into_inner())
                .apps
                .install(executable, app);
        }
    }

    /// Enable a community credential on a site (the "community account has
    /// been authorized" step, §4.3).
    pub fn authorize(&mut self, site: &str, cred: &CommunityCredential) {
        if let Some(s) = self.sites.get_mut(site) {
            let s = s.get_mut().unwrap_or_else(|p| p.into_inner());
            s.authorized.insert(cred.subject.clone());
            s.trust.insert(cred.subject.clone(), cred.clone());
        }
    }

    fn push_event(&self, at: SimTime, kind: EventKind) {
        let mut clock = lock(&self.clock);
        let seq = clock.seq;
        clock.seq += 1;
        clock.events.push(Reverse(Event { at, seq, kind }));
    }

    /// Queue the JobFinish events produced by a scheduler pass.
    fn queue_job_events(&self, site: &str, new_events: Vec<(SimTime, u64)>) {
        if new_events.is_empty() {
            return;
        }
        let mut clock = lock(&self.clock);
        for (at, id) in new_events {
            let seq = clock.seq;
            clock.seq += 1;
            clock.events.push(Reverse(Event {
                at,
                seq,
                kind: EventKind::JobFinish {
                    site: site.to_string(),
                    job: id,
                },
            }));
        }
    }

    /// Advance the clock by `dur`, processing all events in order.
    pub fn advance(&self, dur: SimDuration) {
        let target = self.now() + dur;
        self.advance_to(target);
    }

    /// Advance the clock to `target`, processing all events in order.
    ///
    /// Takes `&self`, but is meant to be called from a single driving
    /// thread between daemon ticks; worker threads only issue client
    /// calls, which never move the clock.
    pub fn advance_to(&self, target: SimTime) {
        loop {
            // Pop one due event under the clock lock, release, dispatch.
            let (at, kind) = {
                let mut clock = lock(&self.clock);
                match clock.events.peek() {
                    Some(Reverse(ev)) if ev.at <= target => {
                        let Reverse(ev) = clock.events.pop().expect("peeked");
                        clock.now = ev.at;
                        (ev.at, ev.kind)
                    }
                    _ => {
                        if target > clock.now {
                            clock.now = target;
                        }
                        return;
                    }
                }
            };
            self.dispatch(at, kind);
        }
    }

    fn dispatch(&self, now: SimTime, kind: EventKind) {
        match kind {
            EventKind::JobFinish { site, job } => {
                let mut new_events = Vec::new();
                if let Some(m) = self.sites.get(&site) {
                    let mut guard = lock(m);
                    let s = &mut *guard;
                    s.scheduler.finish_job(job, now, &mut s.fs);
                    new_events = s.scheduler.schedule_pass(now, &mut s.fs, &s.apps);
                }
                self.queue_job_events(&site, new_events);
            }
            EventKind::BgArrival { site } => {
                let mut new_events = Vec::new();
                let mut next: Option<SimTime> = None;
                if let Some(m) = self.sites.get(&site) {
                    let mut guard = lock(m);
                    let s = &mut *guard;
                    if let Some(bg) = s.background.as_mut() {
                        let req = bg.next_request.clone();
                        let (delay, upcoming) = bg.generator.next_arrival();
                        bg.next_request = upcoming;
                        next = Some(now + delay);
                        // Background load submits outside the GRAM surface.
                        let _ = s.scheduler.submit(req, now, true);
                        new_events = s.scheduler.schedule_pass(now, &mut s.fs, &s.apps);
                    }
                }
                self.queue_job_events(&site, new_events);
                if let Some(at) = next {
                    self.push_event(at, EventKind::BgArrival { site });
                }
            }
        }
    }

    /// Outage + credential + authorization gate shared by every client
    /// call. Returns the locked site on success.
    fn check_access(
        &self,
        site: &str,
        service: Service,
        proxy: &ProxyCertificate,
        now: SimTime,
    ) -> Result<MutexGuard<'_, Site>, GridError> {
        let service_name = match service {
            Service::Gram => "GRAM",
            Service::GridFtp => "GridFTP",
            Service::Both => "grid",
        };
        let m = self
            .sites
            .get(site)
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
        let s = lock(m);
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
        Ok(s)
    }

    fn record_audit(
        &self,
        now: SimTime,
        site: &str,
        service: &'static str,
        proxy: &ProxyCertificate,
        action: &str,
        detail: String,
    ) {
        lock(&self.audit).record(AuditRecord {
            time: now,
            site: site.to_string(),
            service: service.to_string(),
            subject: proxy.issuer.clone(),
            saml_user: proxy.saml_user.clone(),
            action: action.to_string(),
            detail,
        });
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
        let now = self.now();
        let (handle, known, detail, new_events) = {
            let mut guard = self.check_access(site, Service::Gram, proxy, now)?;
            let s = &mut *guard;
            let held = spec.submission_id.as_ref().and_then(|id| {
                let &(service, job, _cores) = s.submissions.get(id)?;
                Some((id, GramJobHandle::new(site, service, job)))
            });
            if let Some((id, handle)) = held {
                let detail = format!("{id} -> {handle}");
                (handle, true, detail, Vec::new())
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
                let new_events = s.scheduler.schedule_pass(now, &mut s.fs, &s.apps);
                (handle, false, detail, new_events)
            }
        };
        self.queue_job_events(site, new_events);
        let action = if known { "resubmit" } else { "submit" };
        self.record_audit(now, site, "GRAM", proxy, action, detail);
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
        let s = self.check_access(site, Service::Gram, proxy, self.now())?;
        let from = (Bound::Included(prefix), Bound::Unbounded);
        let under = s.submissions.range::<str, _>(from);
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
        let now = self.now();
        let mut s = self.check_access(site, Service::Gram, proxy, now)?;
        s.submissions.remove(id);
        drop(s);
        self.record_audit(now, site, "GRAM", proxy, "release", id.to_string());
        Ok(())
    }

    /// Poll a job's GRAM status (`globus-job-status`-equivalent).
    pub fn gram_status(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        handle: &GramJobHandle,
    ) -> Result<GramState, GridError> {
        let now = self.now();
        let s = self.check_access(site, Service::Gram, proxy, now)?;
        let (_, id) = handle
            .parse()
            .ok_or_else(|| GridError::NoSuchJob(handle.to_string()))?;
        let job = s
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
        let now = self.now();
        let new_events = {
            let mut guard = self.check_access(site, Service::Gram, proxy, now)?;
            let s = &mut *guard;
            s.scheduler.cancel(id, "cancelled via GRAM")?;
            s.scheduler.schedule_pass(now, &mut s.fs, &s.apps)
        };
        self.queue_job_events(site, new_events);
        self.record_audit(now, site, "GRAM", proxy, "cancel", handle.to_string());
        Ok(())
    }

    /// Submit/start/end record for the Gantt tool (§6) — introspection,
    /// not a grid client call.
    pub fn job_times(&self, site: &str, handle: &GramJobHandle) -> Option<JobTimes> {
        let s = SiteGuard(lock(self.sites.get(site)?));
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
        let now = self.now();
        let bytes = data.len() as u64;
        {
            let mut s = self.check_access(site, Service::GridFtp, proxy, now)?;
            s.fs.write(path, data)?;
        }
        let stats = TransferStats {
            bytes,
            duration: SimDuration::from_secs(FTP_LATENCY_SECS + bytes / FTP_BANDWIDTH_BPS),
        };
        self.record_audit(
            now,
            site,
            "GridFTP",
            proxy,
            "put",
            format!("{path} ({bytes} B)"),
        );
        Ok(stats)
    }

    /// List remote files under a prefix (`uberftp ls`-equivalent) — used
    /// for troubleshooting staged trees.
    pub fn ftp_list(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        prefix: &str,
    ) -> Result<Vec<String>, GridError> {
        let now = self.now();
        let s = self.check_access(site, Service::GridFtp, proxy, now)?;
        Ok(s.fs.list_tree(prefix))
    }

    /// Fetch a file from a site (`globus-url-copy` get).
    pub fn ftp_get(
        &self,
        site: &str,
        proxy: &ProxyCertificate,
        path: &str,
    ) -> Result<(Vec<u8>, TransferStats), GridError> {
        let now = self.now();
        let data = {
            let s = self.check_access(site, Service::GridFtp, proxy, now)?;
            s.fs.read(path)?.to_vec()
        };
        let bytes = data.len() as u64;
        let stats = TransferStats {
            bytes,
            duration: SimDuration::from_secs(FTP_LATENCY_SECS + bytes / FTP_BANDWIDTH_BPS),
        };
        self.record_audit(
            now,
            site,
            "GridFTP",
            proxy,
            "get",
            format!("{path} ({bytes} B)"),
        );
        Ok((data, stats))
    }
}

/// The whole point of the per-site sharding: a `Grid` can be shared by
/// reference across daemon worker threads.
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
