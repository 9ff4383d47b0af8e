//! Installed applications — the executables GRAM launches on a site.
//!
//! AMP's science code is installed on each resource by the science PI
//! (§3), and GRAM invokes it by path via the fork or scheduler service.
//! In the simulator an [`Application`] is a pure Rust function of its
//! input files that declares its own simulated cost. The scheduler applies
//! its outputs when the job completes; only [`AppRun::checkpoint_outputs`]
//! survive a walltime kill (the restart file ASTEC/MPIKAIA write as they
//! go).

use crate::fs::SiteFs;
use crate::systems::SystemProfile;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What an application sees when it runs.
pub struct AppContext<'a> {
    /// The job's working directory prefix inside the site scratch tree.
    pub workdir: String,
    /// Command-line arguments from the job specification.
    pub args: Vec<String>,
    /// The machine this runs on (cost scaling).
    pub profile: &'a SystemProfile,
    /// Processor cores allocated to the job.
    pub cores: u32,
    /// Walltime budget in minutes — well-behaved apps (the GA) plan their
    /// work to fit and exit cleanly before the limit.
    pub wall_minutes: f64,
    /// Simulated start time.
    pub started_at: SimTime,
    /// Read-only view of the site filesystem at start time.
    pub fs: &'a SiteFs,
}

impl AppContext<'_> {
    /// Read an input file from the job working directory.
    pub fn read_input(&self, name: &str) -> Option<Vec<u8>> {
        self.fs
            .read(&format!("{}/{}", self.workdir, name))
            .ok()
            .map(|d| d.to_vec())
    }
}

/// The result of one application execution.
#[derive(Debug, Clone, Default)]
pub struct AppRun {
    /// Simulated execution cost in minutes of *wall time on this machine*.
    pub cost_minutes: f64,
    /// Exit status. `None` detail means success.
    pub failure: Option<String>,
    /// Files written on successful completion (workdir-relative name ->
    /// contents).
    pub outputs: BTreeMap<String, Vec<u8>>,
    /// Files that exist even if the job is killed at the walltime limit
    /// (progress/restart files, partial logs).
    pub checkpoint_outputs: BTreeMap<String, Vec<u8>>,
}

impl AppRun {
    pub fn success(cost_minutes: f64) -> Self {
        AppRun {
            cost_minutes,
            ..AppRun::default()
        }
    }

    pub fn failed(cost_minutes: f64, detail: &str) -> Self {
        AppRun {
            cost_minutes,
            failure: Some(detail.to_string()),
            ..AppRun::default()
        }
    }

    pub fn with_output(mut self, name: &str, data: Vec<u8>) -> Self {
        self.outputs.insert(name.to_string(), data);
        self
    }
}

/// An executable installed on a site.
pub trait Application: Send + Sync {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun;
}

/// Site-local registry of installed executables, keyed by the path GRAM
/// job specifications name.
#[derive(Clone, Default)]
pub struct AppRegistry {
    apps: BTreeMap<String, Arc<dyn Application>>,
}

impl AppRegistry {
    pub fn new() -> Self {
        AppRegistry::default()
    }

    pub fn install(&mut self, executable: &str, app: Arc<dyn Application>) {
        self.apps.insert(executable.to_string(), app);
    }

    pub fn get(&self, executable: &str) -> Option<Arc<dyn Application>> {
        self.apps.get(executable).cloned()
    }

    pub fn installed(&self) -> Vec<&str> {
        self.apps.keys().map(|s| s.as_str()).collect()
    }
}

/// A trivial application for tests: sleeps `args[0]` minutes, then writes
/// `done.txt`. If `args[1]` is "fail" it exits non-zero; "overrun" makes it
/// ignore the walltime budget.
pub struct SleepApp;

impl Application for SleepApp {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun {
        let minutes: f64 = ctx.args.first().and_then(|a| a.parse().ok()).unwrap_or(1.0);
        let mode = ctx.args.get(1).map(|s| s.as_str()).unwrap_or("ok");
        let cost = if mode == "overrun" {
            minutes
        } else {
            minutes.min(ctx.wall_minutes)
        };
        let mut run = if mode == "fail" {
            AppRun::failed(cost, "sleep was asked to fail")
        } else {
            AppRun::success(cost).with_output("done.txt", b"ok".to_vec())
        };
        run.checkpoint_outputs
            .insert("progress.txt".into(), format!("{cost:.1}").into_bytes());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::kraken;

    fn ctx<'a>(fs: &'a SiteFs, profile: &'a SystemProfile, args: Vec<String>) -> AppContext<'a> {
        AppContext {
            workdir: "scratch/job1".into(),
            args,
            profile,
            cores: 1,
            wall_minutes: 60.0,
            started_at: SimTime(0),
            fs,
        }
    }

    #[test]
    fn registry_install_and_lookup() {
        let mut reg = AppRegistry::new();
        assert!(reg.get("/usr/local/bin/sleep").is_none());
        reg.install("/usr/local/bin/sleep", Arc::new(SleepApp));
        assert!(reg.get("/usr/local/bin/sleep").is_some());
        assert_eq!(reg.installed(), vec!["/usr/local/bin/sleep"]);
    }

    #[test]
    fn sleep_app_modes() {
        let fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        let ok = SleepApp.run(&ctx(&fs, &profile, vec!["5".into()]));
        assert_eq!(ok.cost_minutes, 5.0);
        assert!(ok.failure.is_none());
        assert!(ok.outputs.contains_key("done.txt"));
        assert!(ok.checkpoint_outputs.contains_key("progress.txt"));

        let fail = SleepApp.run(&ctx(&fs, &profile, vec!["5".into(), "fail".into()]));
        assert!(fail.failure.is_some());

        // well-behaved: clamps to budget
        let clamped = SleepApp.run(&ctx(&fs, &profile, vec!["500".into()]));
        assert_eq!(clamped.cost_minutes, 60.0);
        // misbehaving: overruns
        let overrun = SleepApp.run(&ctx(&fs, &profile, vec!["500".into(), "overrun".into()]));
        assert_eq!(overrun.cost_minutes, 500.0);
    }

    #[test]
    fn context_reads_inputs() {
        let mut fs = SiteFs::new("kraken", 1 << 20);
        fs.write("scratch/job1/input.txt", b"data".to_vec())
            .unwrap();
        let profile = kraken();
        let c = ctx(&fs, &profile, vec![]);
        assert_eq!(c.read_input("input.txt").unwrap(), b"data");
        assert!(c.read_input("missing.txt").is_none());
    }
}
