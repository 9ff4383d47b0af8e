//! Per-system batch scheduler: FCFS queue with EASY backfill, walltime
//! enforcement, job dependencies, and synthetic background load.
//!
//! This is the queue AMP jobs wait in (§6 studies exactly that wait), with
//! the job-chaining/dependency support many TeraGrid schedulers offered.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::app::{AppRegistry, AppRun};
use crate::error::GridError;
use crate::fs::SiteFs;
use crate::systems::SystemProfile;
use crate::time::{SimDuration, SimTime};

/// How a finished job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    Success,
    /// The application exited non-zero.
    AppFailure(String),
    /// Killed at the walltime limit; only checkpoint outputs survive.
    WalltimeExceeded,
}

/// Lifecycle state of a batch job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// In the queue (possibly blocked on dependencies).
    Waiting,
    Running {
        started_at: SimTime,
        ends_at: SimTime,
    },
    Done {
        started_at: SimTime,
        ended_at: SimTime,
        outcome: JobOutcome,
    },
    Cancelled {
        reason: String,
    },
}

/// What a job runs.
#[derive(Debug, Clone)]
pub enum Payload {
    /// An installed application (GRAM batch/fork job).
    App {
        executable: String,
        args: Vec<String>,
        workdir: String,
    },
    /// Synthetic competing load from other TeraGrid users.
    Background { duration: SimDuration },
}

/// A job submission request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    pub name: String,
    pub cores: u32,
    pub walltime: SimDuration,
    /// Job ids that must complete successfully first (job chaining, §6).
    pub deps: Vec<u64>,
    pub payload: Payload,
}

/// A scheduled job.
#[derive(Debug, Clone)]
pub struct BatchJob {
    pub id: u64,
    pub name: String,
    pub cores: u32,
    pub walltime: SimDuration,
    pub deps: Vec<u64>,
    pub submitted_at: SimTime,
    pub payload: Payload,
    pub state: JobState,
    /// Staged application results applied at completion time.
    pending: Option<PendingRun>,
    /// True for synthetic load (excluded from user-facing stats).
    pub background: bool,
}

#[derive(Debug, Clone)]
struct PendingRun {
    run: AppRun,
    overran: bool,
}

impl BatchJob {
    /// Queue wait so far / total (for the §6 Gantt tool).
    pub fn wait_time(&self, now: SimTime) -> SimDuration {
        match &self.state {
            JobState::Waiting => now - self.submitted_at,
            JobState::Running { started_at, .. } => *started_at - self.submitted_at,
            JobState::Done { started_at, .. } => *started_at - self.submitted_at,
            JobState::Cancelled { .. } => SimDuration::ZERO,
        }
    }
}

/// Synthetic background workload generator: Poisson arrivals sized so the
/// long-run utilization from other users approximates the profile's
/// `background_utilization`.
#[derive(Debug, Clone)]
pub struct BackgroundLoad {
    rng: ChaCha8Rng,
    utilization: f64,
    cores_total: u32,
}

impl BackgroundLoad {
    pub fn new(profile: &SystemProfile, seed: u64) -> Self {
        BackgroundLoad {
            rng: ChaCha8Rng::seed_from_u64(seed),
            utilization: profile.background_utilization,
            cores_total: profile.cores,
        }
    }

    /// Mean interarrival time given the mean bg-job footprint.
    fn mean_interarrival_secs(&self) -> f64 {
        // jobs average ~6.5% of the machine for ~4.5 hours
        let mean_cores = 0.065 * self.cores_total as f64;
        let mean_dur_secs = 4.5 * 3600.0;
        (mean_cores * mean_dur_secs) / (self.utilization.max(1e-3) * self.cores_total as f64)
    }

    /// Draw (delay until next arrival, request). Deterministic per seed.
    pub fn next_arrival(&mut self) -> (SimDuration, JobRequest) {
        let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let delay = -u.ln() * self.mean_interarrival_secs();
        let frac: f64 = self.rng.random_range(0.01..0.12);
        let cores = ((self.cores_total as f64 * frac) as u32).max(1);
        let hours: f64 = self.rng.random_range(1.0..8.0);
        let duration = SimDuration::from_hours(hours);
        (
            SimDuration::from_secs(delay.max(1.0) as u64),
            JobRequest {
                name: "bg".into(),
                cores,
                walltime: duration + SimDuration::from_minutes(10.0),
                deps: Vec::new(),
                payload: Payload::Background { duration },
            },
        )
    }
}

/// The per-site scheduler.
pub struct Scheduler {
    profile: SystemProfile,
    jobs: std::collections::BTreeMap<u64, BatchJob>,
    /// Waiting job ids in submission (FCFS) order.
    queue: Vec<u64>,
    free_cores: u32,
    next_id: u64,
}

impl Scheduler {
    pub fn new(profile: SystemProfile) -> Self {
        let free = profile.cores;
        Scheduler {
            profile,
            jobs: Default::default(),
            queue: Vec::new(),
            free_cores: free,
            next_id: 1,
        }
    }

    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    pub fn job(&self, id: u64) -> Option<&BatchJob> {
        self.jobs.get(&id)
    }

    pub fn jobs(&self) -> impl Iterator<Item = &BatchJob> {
        self.jobs.values()
    }

    pub fn free_cores(&self) -> u32 {
        self.free_cores
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Validate and enqueue. Returns the job id. Jobs do not start here —
    /// call [`Scheduler::schedule_pass`] afterwards.
    pub fn submit(
        &mut self,
        req: JobRequest,
        now: SimTime,
        mark_background: bool,
    ) -> Result<u64, GridError> {
        if req.cores > self.profile.cores {
            return Err(GridError::BadJobSpec(format!(
                "{} cores requested, machine has {}",
                req.cores, self.profile.cores
            )));
        }
        if req.walltime > self.profile.walltime_limit() {
            return Err(GridError::BadJobSpec(format!(
                "walltime {} exceeds limit {}",
                req.walltime,
                self.profile.walltime_limit()
            )));
        }
        if !req.deps.is_empty() && !self.profile.supports_job_chaining {
            return Err(GridError::BadDependency(format!(
                "{} does not support job chaining",
                self.profile.name
            )));
        }
        for d in &req.deps {
            match self.jobs.get(d) {
                None => return Err(GridError::BadDependency(format!("no job {d}"))),
                Some(j) => {
                    if matches!(
                        j.state,
                        JobState::Cancelled { .. }
                            | JobState::Done {
                                outcome: JobOutcome::AppFailure(_) | JobOutcome::WalltimeExceeded,
                                ..
                            }
                    ) {
                        return Err(GridError::BadDependency(format!("job {d} already failed")));
                    }
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            BatchJob {
                id,
                name: req.name,
                cores: req.cores,
                walltime: req.walltime,
                deps: req.deps,
                submitted_at: now,
                payload: req.payload,
                state: JobState::Waiting,
                pending: None,
                background: mark_background,
            },
        );
        self.queue.push(id);
        Ok(id)
    }

    pub fn cancel(&mut self, id: u64, reason: &str) -> Result<(), GridError> {
        let job = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| GridError::NoSuchJob(id.to_string()))?;
        match &job.state {
            JobState::Waiting => {
                job.state = JobState::Cancelled {
                    reason: reason.to_string(),
                };
                self.queue.retain(|&q| q != id);
                Ok(())
            }
            JobState::Running { .. } => {
                // Running jobs are killed: cores freed, outputs dropped.
                let cores = job.cores;
                job.state = JobState::Cancelled {
                    reason: reason.to_string(),
                };
                job.pending = None;
                self.free_cores += cores;
                Ok(())
            }
            s => Err(GridError::InvalidState {
                job: id.to_string(),
                state: format!("{s:?}"),
            }),
        }
    }

    /// Dependency status of a queued job: Ok(true) = runnable now,
    /// Ok(false) = still waiting, Err(dep) = a dependency failed.
    fn deps_status(&self, job: &BatchJob) -> Result<bool, u64> {
        for d in &job.deps {
            match self.jobs.get(d).map(|j| &j.state) {
                Some(JobState::Done {
                    outcome: JobOutcome::Success,
                    ..
                }) => {}
                Some(JobState::Done { .. }) | Some(JobState::Cancelled { .. }) | None => {
                    return Err(*d)
                }
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Start a job now: execute its payload against the filesystem snapshot
    /// and compute its end time. Returns the finish time.
    fn start_job(&mut self, id: u64, now: SimTime, fs: &SiteFs, apps: &AppRegistry) -> SimTime {
        let job = self.jobs.get_mut(&id).expect("job exists");
        debug_assert!(matches!(job.state, JobState::Waiting));
        let (duration, pending) = match &job.payload {
            Payload::Background { duration } => ((*duration).min(job.walltime), None),
            Payload::App {
                executable,
                args,
                workdir,
            } => match apps.get(executable) {
                None => (
                    SimDuration::ZERO,
                    Some(PendingRun {
                        run: AppRun::failed(0.0, &format!("{executable}: not found")),
                        overran: false,
                    }),
                ),
                Some(app) => {
                    let ctx = crate::app::AppContext {
                        workdir: workdir.clone(),
                        args: args.clone(),
                        profile: &self.profile,
                        cores: job.cores,
                        wall_minutes: job.walltime.as_minutes(),
                        started_at: now,
                        fs,
                    };
                    let run = app.run(&ctx);
                    let cost = SimDuration::from_minutes(run.cost_minutes);
                    let overran = cost > job.walltime;
                    (cost.min(job.walltime), Some(PendingRun { run, overran }))
                }
            },
        };
        let ends_at = now + duration;
        job.state = JobState::Running {
            started_at: now,
            ends_at,
        };
        job.pending = pending;
        self.free_cores -= job.cores;
        ends_at
    }

    /// FCFS + EASY-backfill scheduling pass. Returns (finish_time, job_id)
    /// pairs for newly started jobs; the caller schedules those events.
    pub fn schedule_pass(
        &mut self,
        now: SimTime,
        fs: &mut SiteFs,
        apps: &AppRegistry,
    ) -> Vec<(SimTime, u64)> {
        let mut started = Vec::new();
        // Cancel queued jobs whose dependencies failed.
        let queue_snapshot = self.queue.clone();
        for id in queue_snapshot {
            let job = &self.jobs[&id];
            if let Err(dep) = self.deps_status(job) {
                let _ = self.cancel(id, &format!("dependency {dep} failed"));
            }
        }

        // Phase 1: start eligible jobs FCFS until the head doesn't fit.
        let mut head_blocked: Option<u64> = None;
        loop {
            let candidate = self
                .queue
                .iter()
                .copied()
                .find(|id| self.deps_status(&self.jobs[id]) == Ok(true));
            let Some(id) = candidate else { break };
            let cores = self.jobs[&id].cores;
            if cores <= self.free_cores {
                self.queue.retain(|&q| q != id);
                let ends = self.start_job(id, now, fs, apps);
                started.push((ends, id));
            } else {
                head_blocked = Some(id);
                break;
            }
        }

        // Phase 2: EASY backfill behind the blocked head.
        if let Some(head) = head_blocked {
            let head_cores = self.jobs[&head].cores;
            // When will enough cores be free for the head?
            let mut releases: Vec<(SimTime, u32)> = self
                .jobs
                .values()
                .filter_map(|j| match j.state {
                    JobState::Running { ends_at, .. } => Some((ends_at, j.cores)),
                    _ => None,
                })
                .collect();
            releases.sort();
            let mut avail = self.free_cores;
            let mut shadow = now;
            let mut reserve_extra = 0u32;
            for (t, c) in releases {
                avail += c;
                if avail >= head_cores {
                    shadow = t;
                    reserve_extra = avail - head_cores;
                    break;
                }
            }
            // Backfill candidates: eligible, fit now, and either finish by
            // the shadow time or use only cores the head won't need.
            let candidates: Vec<u64> = self
                .queue
                .iter()
                .copied()
                .filter(|&id| id != head)
                .collect();
            for id in candidates {
                let job = &self.jobs[&id];
                if self.deps_status(job) != Ok(true) {
                    continue;
                }
                let fits_now = job.cores <= self.free_cores;
                let by_shadow = now + job.walltime <= shadow;
                let spare = job.cores <= reserve_extra.min(self.free_cores);
                if fits_now && (by_shadow || spare) {
                    if spare && !by_shadow {
                        reserve_extra -= job.cores;
                    }
                    self.queue.retain(|&q| q != id);
                    let ends = self.start_job(id, now, fs, apps);
                    started.push((ends, id));
                }
            }
        }
        started
    }

    /// Complete a running job whose end time has arrived: apply outputs,
    /// free cores. Does *not* run a scheduling pass (callers do, so events
    /// from the pass can be scheduled).
    pub fn finish_job(&mut self, id: u64, now: SimTime, fs: &mut SiteFs) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let JobState::Running {
            started_at,
            ends_at,
        } = job.state
        else {
            return; // cancelled while running: nothing to do
        };
        debug_assert!(ends_at <= now);
        let outcome = match job.pending.take() {
            None => JobOutcome::Success, // background job
            Some(PendingRun { run, overran }) => {
                let workdir = match &job.payload {
                    Payload::App { workdir, .. } => workdir.clone(),
                    _ => String::new(),
                };
                let mut write_err = None;
                // checkpoint outputs always land (staged as the app went)
                for (name, data) in &run.checkpoint_outputs {
                    if let Err(e) = fs.write(&format!("{workdir}/{name}"), data.clone()) {
                        write_err = Some(e.to_string());
                    }
                }
                if overran {
                    JobOutcome::WalltimeExceeded
                } else {
                    for (name, data) in &run.outputs {
                        if let Err(e) = fs.write(&format!("{workdir}/{name}"), data.clone()) {
                            write_err = Some(e.to_string());
                        }
                    }
                    match (run.failure, write_err) {
                        (Some(f), _) => JobOutcome::AppFailure(f),
                        (None, Some(w)) => JobOutcome::AppFailure(format!("output write: {w}")),
                        (None, None) => JobOutcome::Success,
                    }
                }
            }
        };
        let cores = job.cores;
        job.state = JobState::Done {
            started_at,
            ended_at: now,
            outcome,
        };
        self.free_cores += cores;
    }

    /// Whole-machine utilization snapshot (cores busy / total).
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_cores as f64 / self.profile.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SleepApp;
    use crate::systems::SystemProfile;
    use std::sync::Arc;

    fn tiny_profile(cores: u32) -> SystemProfile {
        SystemProfile {
            name: "tiny".into(),
            provider: "TEST".into(),
            cores,
            model_benchmark_minutes: 10.0,
            su_per_cpuh: 1.0,
            walltime_limit_hours: 6.0,
            has_ws_gram: true,
            scratch_quota_bytes: 1 << 20,
            supports_job_chaining: true,
            background_utilization: 0.5,
        }
    }

    fn setup(cores: u32) -> (Scheduler, SiteFs, AppRegistry) {
        let mut apps = AppRegistry::new();
        apps.install("sleep", Arc::new(SleepApp));
        (
            Scheduler::new(tiny_profile(cores)),
            SiteFs::new("tiny", 1 << 20),
            apps,
        )
    }

    fn sleep_req(name: &str, cores: u32, minutes: f64, deps: Vec<u64>) -> JobRequest {
        JobRequest {
            name: name.into(),
            cores,
            walltime: SimDuration::from_minutes(minutes + 5.0),
            deps,
            payload: Payload::App {
                executable: "sleep".into(),
                args: vec![minutes.to_string()],
                workdir: format!("scratch/{name}"),
            },
        }
    }

    /// Drive the scheduler to completion, processing finish events in
    /// order. Returns the final simulated time.
    fn drain(s: &mut Scheduler, fs: &mut SiteFs, apps: &AppRegistry, start: SimTime) -> SimTime {
        let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>> =
            Default::default();
        let mut now = start;
        for e in s.schedule_pass(now, fs, apps) {
            events.push(std::cmp::Reverse(e));
        }
        while let Some(std::cmp::Reverse((t, id))) = events.pop() {
            now = t;
            s.finish_job(id, now, fs);
            for e in s.schedule_pass(now, fs, apps) {
                events.push(std::cmp::Reverse(e));
            }
        }
        now
    }

    #[test]
    fn fcfs_execution_and_outputs() {
        let (mut s, mut fs, apps) = setup(4);
        let a = s
            .submit(sleep_req("a", 4, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        let b = s
            .submit(sleep_req("b", 4, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        let end = drain(&mut s, &mut fs, &apps, SimTime(0));
        // b waits for a: total 20 min + margin
        assert_eq!(end.as_minutes(), 20.0);
        for id in [a, b] {
            match &s.job(id).unwrap().state {
                JobState::Done { outcome, .. } => assert_eq!(*outcome, JobOutcome::Success),
                st => panic!("{st:?}"),
            }
        }
        assert!(fs.exists("scratch/a/done.txt"));
        assert!(fs.exists("scratch/b/done.txt"));
        assert_eq!(s.job(b).unwrap().wait_time(end).as_minutes(), 10.0);
    }

    #[test]
    fn parallel_when_cores_fit() {
        let (mut s, mut fs, apps) = setup(8);
        s.submit(sleep_req("a", 4, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        s.submit(sleep_req("b", 4, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        let end = drain(&mut s, &mut fs, &apps, SimTime(0));
        assert_eq!(end.as_minutes(), 10.0);
    }

    #[test]
    fn backfill_fills_hole_without_delaying_head() {
        let (mut s, mut fs, apps) = setup(8);
        // long job takes 6 cores; head needs 8 (blocked); small 2-core job
        // can backfill into the 2 spare cores if it fits before the shadow.
        s.submit(sleep_req("long", 6, 60.0, vec![]), SimTime(0), false)
            .unwrap();
        let head = s
            .submit(sleep_req("head", 8, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        let bf = s
            .submit(sleep_req("bf", 2, 20.0, vec![]), SimTime(0), false)
            .unwrap();
        drain(&mut s, &mut fs, &apps, SimTime(0));
        let bf_job = s.job(bf).unwrap();
        let head_job = s.job(head).unwrap();
        let (JobState::Done { started_at: bs, .. }, JobState::Done { started_at: hs, .. }) =
            (&bf_job.state, &head_job.state)
        else {
            panic!()
        };
        assert_eq!(bs.as_minutes(), 0.0, "backfill started immediately");
        // head starts when the long job releases cores
        assert_eq!(hs.as_minutes(), 60.0);
    }

    #[test]
    fn backfill_never_delays_head() {
        let (mut s, mut fs, apps) = setup(8);
        s.submit(sleep_req("long", 6, 30.0, vec![]), SimTime(0), false)
            .unwrap();
        let head = s
            .submit(sleep_req("head", 8, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        // this wants 4 cores for 60 min: would delay head past its shadow
        // (30 min) and needs more than the 2 spare cores -> must not backfill
        let greedy = s
            .submit(sleep_req("greedy", 4, 60.0, vec![]), SimTime(0), false)
            .unwrap();
        drain(&mut s, &mut fs, &apps, SimTime(0));
        let (JobState::Done { started_at: hs, .. }, JobState::Done { started_at: gs, .. }) =
            (&s.job(head).unwrap().state, &s.job(greedy).unwrap().state)
        else {
            panic!()
        };
        assert_eq!(hs.as_minutes(), 30.0, "head undelayed");
        assert!(gs.as_minutes() >= 40.0, "greedy ran after head");
    }

    #[test]
    fn dependencies_gate_and_cascade_on_failure() {
        let (mut s, mut fs, apps) = setup(8);
        let a = s
            .submit(sleep_req("a", 2, 10.0, vec![]), SimTime(0), false)
            .unwrap();
        let b = s
            .submit(sleep_req("b", 2, 10.0, vec![a]), SimTime(0), false)
            .unwrap();
        // c depends on a failing job
        let mut fail_req = sleep_req("f", 2, 5.0, vec![]);
        if let Payload::App { args, .. } = &mut fail_req.payload {
            args.push("fail".into());
        }
        let f = s.submit(fail_req, SimTime(0), false).unwrap();
        let c = s
            .submit(sleep_req("c", 2, 5.0, vec![f]), SimTime(0), false)
            .unwrap();
        let end = drain(&mut s, &mut fs, &apps, SimTime(0));
        // b ran strictly after a
        let (JobState::Done { ended_at: ae, .. }, JobState::Done { started_at: bs, .. }) =
            (&s.job(a).unwrap().state, &s.job(b).unwrap().state)
        else {
            panic!()
        };
        assert!(bs >= ae);
        // c cancelled because f failed
        assert!(matches!(
            s.job(c).unwrap().state,
            JobState::Cancelled { .. }
        ));
        assert!(matches!(
            s.job(f).unwrap().state,
            JobState::Done {
                outcome: JobOutcome::AppFailure(_),
                ..
            }
        ));
        assert!(end.as_minutes() >= 20.0);
    }

    #[test]
    fn dependency_validation_at_submit() {
        let (mut s, _fs, _apps) = setup(8);
        assert!(matches!(
            s.submit(sleep_req("x", 2, 5.0, vec![99]), SimTime(0), false),
            Err(GridError::BadDependency(_))
        ));
        let mut p = tiny_profile(8);
        p.supports_job_chaining = false;
        let mut s2 = Scheduler::new(p);
        let a = s2
            .submit(sleep_req("a", 2, 5.0, vec![]), SimTime(0), false)
            .unwrap();
        assert!(matches!(
            s2.submit(sleep_req("b", 2, 5.0, vec![a]), SimTime(0), false),
            Err(GridError::BadDependency(_))
        ));
    }

    #[test]
    fn walltime_kill_preserves_only_checkpoints() {
        let (mut s, mut fs, apps) = setup(4);
        let mut req = sleep_req("w", 4, 600.0, vec![]);
        req.walltime = SimDuration::from_minutes(30.0);
        if let Payload::App { args, .. } = &mut req.payload {
            args.push("overrun".into());
        }
        let id = s.submit(req, SimTime(0), false).unwrap();
        let end = drain(&mut s, &mut fs, &apps, SimTime(0));
        assert_eq!(end.as_minutes(), 30.0);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Done {
                outcome: JobOutcome::WalltimeExceeded,
                ..
            }
        ));
        assert!(!fs.exists("scratch/w/done.txt"), "full output dropped");
        assert!(fs.exists("scratch/w/progress.txt"), "checkpoint kept");
    }

    #[test]
    fn submit_validation() {
        let (mut s, _fs, _apps) = setup(4);
        assert!(matches!(
            s.submit(sleep_req("big", 5, 5.0, vec![]), SimTime(0), false),
            Err(GridError::BadJobSpec(_))
        ));
        let mut req = sleep_req("longwall", 2, 5.0, vec![]);
        req.walltime = SimDuration::from_hours(7.0);
        assert!(matches!(
            s.submit(req, SimTime(0), false),
            Err(GridError::BadJobSpec(_))
        ));
    }

    #[test]
    fn cancel_waiting_and_running() {
        let (mut s, mut fs, apps) = setup(4);
        let a = s
            .submit(sleep_req("a", 4, 30.0, vec![]), SimTime(0), false)
            .unwrap();
        let b = s
            .submit(sleep_req("b", 4, 30.0, vec![]), SimTime(0), false)
            .unwrap();
        s.schedule_pass(SimTime(0), &mut fs, &apps);
        // a running, b waiting
        s.cancel(b, "user request").unwrap();
        assert!(matches!(
            s.job(b).unwrap().state,
            JobState::Cancelled { .. }
        ));
        s.cancel(a, "admin").unwrap();
        assert!(matches!(
            s.job(a).unwrap().state,
            JobState::Cancelled { .. }
        ));
        assert_eq!(s.free_cores(), 4);
        // double cancel is an error
        assert!(s.cancel(a, "again").is_err());
    }

    #[test]
    fn missing_executable_fails_fast() {
        let (mut s, mut fs, apps) = setup(4);
        let mut req = sleep_req("x", 1, 5.0, vec![]);
        if let Payload::App { executable, .. } = &mut req.payload {
            *executable = "nope".into();
        }
        let id = s.submit(req, SimTime(0), false).unwrap();
        drain(&mut s, &mut fs, &apps, SimTime(0));
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Done {
                outcome: JobOutcome::AppFailure(_),
                ..
            }
        ));
    }

    #[test]
    fn cancelled_dependency_cancels_children() {
        let (mut s, mut fs, apps) = setup(8);
        let a = s
            .submit(sleep_req("a", 8, 60.0, vec![]), SimTime(0), false)
            .unwrap();
        let b = s
            .submit(sleep_req("b", 2, 5.0, vec![a]), SimTime(0), false)
            .unwrap();
        let c = s
            .submit(sleep_req("c", 2, 5.0, vec![b]), SimTime(0), false)
            .unwrap();
        s.schedule_pass(SimTime(0), &mut fs, &apps);
        s.cancel(a, "admin kill").unwrap();
        // the next pass propagates the cancellation down the chain
        s.schedule_pass(SimTime(10), &mut fs, &apps);
        assert!(matches!(
            s.job(b).unwrap().state,
            JobState::Cancelled { .. }
        ));
        s.schedule_pass(SimTime(20), &mut fs, &apps);
        assert!(matches!(
            s.job(c).unwrap().state,
            JobState::Cancelled { .. }
        ));
        assert_eq!(s.free_cores(), 8);
    }

    #[test]
    fn job_exactly_filling_walltime_succeeds() {
        let (mut s, mut fs, apps) = setup(4);
        let mut req = sleep_req("edge", 4, 30.0, vec![]);
        req.walltime = SimDuration::from_minutes(30.0); // cost == walltime
        let id = s.submit(req, SimTime(0), false).unwrap();
        drain(&mut s, &mut fs, &apps, SimTime(0));
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Done {
                outcome: JobOutcome::Success,
                ..
            }
        ));
    }

    #[test]
    fn zero_core_job_never_blocks_on_capacity() {
        let (mut s, mut fs, apps) = setup(4);
        // saturate
        s.submit(sleep_req("big", 4, 60.0, vec![]), SimTime(0), false)
            .unwrap();
        let mut fork = sleep_req("fork", 0, 1.0, vec![]);
        fork.cores = 0;
        let f = s.submit(fork, SimTime(0), false).unwrap();
        s.schedule_pass(SimTime(0), &mut fs, &apps);
        assert!(matches!(s.job(f).unwrap().state, JobState::Running { .. }));
    }

    #[test]
    fn background_load_statistics() {
        let profile = tiny_profile(1000);
        let mut bg = BackgroundLoad::new(&profile, 42);
        let mut total_delay = 0u64;
        let mut total_coreh = 0.0;
        let n = 400;
        for _ in 0..n {
            let (delay, req) = bg.next_arrival();
            total_delay += delay.as_secs();
            let Payload::Background { duration } = req.payload else {
                panic!()
            };
            total_coreh += req.cores as f64 * duration.as_hours();
            assert!(req.cores >= 1 && req.cores <= 120);
        }
        // offered load ≈ utilization * capacity
        let hours = total_delay as f64 / 3600.0;
        let offered = total_coreh / (hours * 1000.0);
        assert!(
            (offered - 0.5).abs() < 0.12,
            "offered utilization {offered}"
        );
    }

    #[test]
    fn background_load_deterministic() {
        let profile = tiny_profile(1000);
        let mut a = BackgroundLoad::new(&profile, 7);
        let mut b = BackgroundLoad::new(&profile, 7);
        for _ in 0..10 {
            let (da, ra) = a.next_arrival();
            let (db, rb) = b.next_arrival();
            assert_eq!(da, db);
            assert_eq!(ra.cores, rb.cores);
        }
    }
}
