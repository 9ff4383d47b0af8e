//! The executables installed on remote systems.
//!
//! §4.3 describes four remote pieces, all invoked through GRAM: a fork
//! pre-job script building the runtime directory tree, the model itself
//! through the scheduler (staging in the input text file and staging out
//! its restart progress file), a fork post-job script consolidating output
//! with tar, and a fork cleanup script removing the environment. Plus the
//! two model executables per science application: the forward model
//! (direct/solution runs) and the GA driver. The wrappers here are
//! app-generic — all science-specific behavior is delegated through the
//! [`ScienceApp`] trait, so installing a new application is one registry
//! entry, not a new pair of executables.

use std::sync::Arc;

use amp_core::app::{self, ScienceApp};
use amp_ga::{Checkpoint, Ga, GaConfig};
use amp_grid::{AppContext, AppRun, Application, SiteFs};

use crate::problem::AppProblem;

// The stellar `final.json` artifact, re-exported from its new home so
// existing callers keep compiling.
pub use amp_core::app::stellar::GaRunResult;

/// Remote executable paths, as a real deployment would install them. The
/// stellar executables keep their pre-registry locations; other apps live
/// under `/amp/bin/<app>/{model,ga}` (see [`ScienceApp::model_path`]).
pub mod paths {
    pub const PREJOB: &str = "/amp/bin/prejob.sh";
    pub const ASTEC: &str = "/amp/bin/astec";
    pub const MPIKAIA: &str = "/amp/bin/mpikaia";
    pub const POSTJOB: &str = "/amp/bin/postjob.sh";
    pub const CLEANUP: &str = "/amp/bin/cleanup.sh";
}

/// Remote file names within a job working directory.
pub mod files {
    /// Marker proving the pre-job stage ran.
    pub const ENV_MARKER: &str = "ENVIRONMENT";
    /// Static physics tables the pre-job stage prepopulates.
    pub const STATIC_INPUT: &str = "static/opacity_tables.dat";
    /// Direct/solution run input.
    pub const PARAMS_IN: &str = "input.params";
    /// Direct/solution run output.
    pub const MODEL_OUT: &str = "output.json";
    /// GA observation input.
    pub const OBS_IN: &str = "observations.in";
    /// GA restart progress file (staged out every invocation, §4.3).
    pub const RESTART: &str = "restart.json";
    /// Per-iteration cost log (gen index, simulated minutes).
    pub const ITER_LOG: &str = "iterations.log";
    /// Best-of-run result once the GA converges.
    pub const FINAL: &str = "final.json";
    /// Consolidated output bundle from the post-job stage.
    pub const RESULTS_TAR: &str = "results.tar";
}

/// Pre-job fork script: builds the runtime tree (§4.3 "creates a new empty
/// copy of the model runtime directory structure and prepopulates the tree
/// with static input files").
pub struct PreJobScript;

impl Application for PreJobScript {
    fn run(&self, _ctx: &AppContext<'_>) -> AppRun {
        AppRun::success(0.1)
            .with_output(files::ENV_MARKER, b"amp runtime v1".to_vec())
            .with_output(
                files::STATIC_INPUT,
                b"# static opacity tables (prepopulated)".to_vec(),
            )
    }
}

/// The forward-model executable of one science application (direct runs
/// and solution evaluation). For stellar this is ASTEC.
pub struct ModelApp {
    app: Arc<dyn ScienceApp>,
}

impl ModelApp {
    pub fn new(app: Arc<dyn ScienceApp>) -> Self {
        ModelApp { app }
    }
}

impl Application for ModelApp {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun {
        let Some(input) = ctx.read_input(files::PARAMS_IN) else {
            return AppRun::failed(0.01, "missing input.params");
        };
        let text = String::from_utf8_lossy(&input);
        match self
            .app
            .run_model(&text, ctx.profile.model_benchmark_minutes)
        {
            Ok(run) => AppRun::success(run.cost_minutes)
                .with_output(files::MODEL_OUT, run.output)
                .with_output("model.log", run.log.into_bytes()),
            Err(e) => AppRun::failed(e.cost_minutes, &e.detail),
        }
    }
}

/// The GA driver executable of one science application: runs as many
/// iterations as fit in its walltime budget, staging out the restart
/// progress file either way. For stellar this is MPIKAIA.
///
/// args: `[population, generations, seed]`.
pub struct GaApp {
    app: Arc<dyn ScienceApp>,
}

impl GaApp {
    pub fn new(app: Arc<dyn ScienceApp>) -> Self {
        GaApp { app }
    }

    fn iteration_cost(app: &dyn ScienceApp, ga: &Ga<'_, AppProblem>, bench: f64) -> f64 {
        let phenotypes: Vec<Vec<f64>> = ga
            .population()
            .iter()
            .map(|ind| ind.phenotype.clone())
            .collect();
        app.generation_minutes(&phenotypes, bench)
    }
}

impl Application for GaApp {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun {
        let population: usize = match ctx.args.first().and_then(|a| a.parse().ok()) {
            Some(v) => v,
            None => return AppRun::failed(0.01, "bad population arg"),
        };
        let generations: u32 = match ctx.args.get(1).and_then(|a| a.parse().ok()) {
            Some(v) => v,
            None => return AppRun::failed(0.01, "bad generations arg"),
        };
        let seed: u64 = match ctx.args.get(2).and_then(|a| a.parse().ok()) {
            Some(v) => v,
            None => return AppRun::failed(0.01, "bad seed arg"),
        };

        let Some(obs_raw) = ctx.read_input(files::OBS_IN) else {
            return AppRun::failed(0.01, "missing observations.in");
        };
        let obs_text = String::from_utf8_lossy(&obs_raw);
        let f = match self.app.fitness_fn(&obs_text) {
            Ok(f) => f,
            Err(detail) => return AppRun::failed(0.01, &detail),
        };
        let problem = AppProblem::new(self.app.clone(), f);

        let config = GaConfig {
            population,
            generations,
            ..GaConfig::default()
        };
        let mut iter_log = ctx
            .read_input(files::ITER_LOG)
            .map(|d| String::from_utf8_lossy(&d).into_owned())
            .unwrap_or_default();

        let bench = ctx.profile.model_benchmark_minutes;
        let budget = ctx.wall_minutes * 0.97;
        let mut consumed = 0.0;

        let mut ga = match ctx.read_input(files::RESTART) {
            Some(raw) => {
                let text = String::from_utf8_lossy(&raw);
                let cp = match Checkpoint::from_text(&text) {
                    Ok(cp) => cp,
                    Err(e) => return AppRun::failed(0.01, &format!("bad restart file: {e}")),
                };
                if cp.config != config {
                    return AppRun::failed(0.01, "restart file config mismatch");
                }
                match cp.resume(&problem) {
                    Ok(ga) => ga,
                    Err(e) => return AppRun::failed(0.01, &format!("restart rejected: {e}")),
                }
            }
            None => {
                let ga = Ga::new(&problem, config, seed);
                // Generation 0: the initial random population is evaluated
                // too; its cost is the paper's "first iteration measured
                // time" yardstick.
                let c = Self::iteration_cost(self.app.as_ref(), &ga, bench);
                consumed += c;
                iter_log.push_str(&format!("0 {c:.4}\n"));
                ga
            }
        };

        let mut last_cost = consumed.max(bench);
        while !ga.finished() && consumed + last_cost <= budget {
            ga.step();
            let c = Self::iteration_cost(self.app.as_ref(), &ga, bench);
            consumed += c;
            last_cost = c;
            iter_log.push_str(&format!("{} {c:.4}\n", ga.generation()));
        }

        let cp = Checkpoint::capture(&ga);
        let mut run = AppRun::success(consumed.max(0.05));
        run.checkpoint_outputs
            .insert(files::RESTART.to_string(), cp.to_text().into_bytes());
        run.checkpoint_outputs
            .insert(files::ITER_LOG.to_string(), iter_log.into_bytes());
        if cp.converged() {
            let best = ga.best();
            run.outputs.insert(
                files::FINAL.to_string(),
                self.app
                    .final_artifact(&best.phenotype, best.fitness, ga.generation()),
            );
        }
        run
    }
}

/// Post-job fork script: tar up the simulation tree for staging out.
/// arg0 = the simulation root prefix to consolidate.
pub struct PostJobScript;

impl Application for PostJobScript {
    fn run(&self, ctx: &AppContext<'_>) -> AppRun {
        // The tar is produced at completion by listing the tree as the
        // script would; contents are gathered from the fs snapshot.
        let root = ctx
            .args
            .first()
            .cloned()
            .unwrap_or_else(|| ctx.workdir.clone());
        let paths = ctx.fs.list_tree(&root);
        if paths.is_empty() {
            return AppRun::failed(0.02, &format!("nothing to tar under {root}"));
        }
        let entries = paths
            .iter()
            .filter(|p| !p.ends_with(files::RESULTS_TAR))
            .map(|p| (p.as_str(), ctx.fs.read(p).expect("listed file")));
        AppRun::success(0.05).with_output(files::RESULTS_TAR, SiteFs::tar(entries))
    }
}

/// Cleanup fork script: reports success, and the daemon then removes the
/// simulation's tree over GridFTP (§4.3), its results committed by then.
pub struct CleanupScript;

impl Application for CleanupScript {
    fn run(&self, _ctx: &AppContext<'_>) -> AppRun {
        AppRun::success(0.02)
    }
}

/// Install the full AMP software stack on a site (what the science PI does
/// "using sudo on the remote resource personally", §3): the shared
/// pre/post/cleanup scripts plus the model and GA executables of every
/// registered science application at that application's paths.
pub fn install_amp_stack(grid: &mut amp_grid::Grid, site: &str) {
    grid.install_app(site, paths::PREJOB, Arc::new(PreJobScript));
    grid.install_app(site, paths::POSTJOB, Arc::new(PostJobScript));
    grid.install_app(site, paths::CLEANUP, Arc::new(CleanupScript));
    for a in app::builtin() {
        grid.install_app(site, &a.model_path(), Arc::new(ModelApp::new(a.clone())));
        grid.install_app(site, &a.ga_path(), Arc::new(GaApp::new(a.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::marshal;
    use amp_grid::systems::{kraken, lonestar};
    use amp_grid::SystemProfile;
    use amp_stellar::{synthesize, Domain, StellarParams};

    fn stellar_model() -> ModelApp {
        ModelApp::new(app::lookup("stellar").expect("stellar registered"))
    }

    fn stellar_ga() -> GaApp {
        GaApp::new(app::lookup("stellar").expect("stellar registered"))
    }

    fn ctx<'a>(
        fs: &'a SiteFs,
        profile: &'a SystemProfile,
        args: Vec<String>,
        wall_minutes: f64,
    ) -> AppContext<'a> {
        AppContext {
            workdir: "amp/sim1".into(),
            args,
            profile,
            cores: 128,
            wall_minutes,
            started_at: amp_grid::SimTime(0),
            fs,
        }
    }

    #[test]
    fn prejob_creates_environment() {
        let fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        let run = PreJobScript.run(&ctx(&fs, &profile, vec![], 10.0));
        assert!(run.failure.is_none());
        assert!(run.outputs.contains_key(files::ENV_MARKER));
        assert!(run.outputs.contains_key(files::STATIC_INPUT));
    }

    #[test]
    fn astec_runs_benchmark_star() {
        let mut fs = SiteFs::new("lonestar", 1 << 20);
        let profile = lonestar();
        fs.write(
            "amp/sim1/input.params",
            marshal::generate_params_file(&StellarParams::benchmark()).into_bytes(),
        )
        .unwrap();
        let run = stellar_model().run(&ctx(&fs, &profile, vec![], 60.0));
        assert!(run.failure.is_none());
        // Table 1: benchmark star on Lonestar = 15.1 simulated minutes
        assert!(
            (run.cost_minutes - 15.1).abs() < 0.01,
            "{}",
            run.cost_minutes
        );
        let out: amp_stellar::ModelOutput =
            serde_json::from_slice(&run.outputs[files::MODEL_OUT]).unwrap();
        assert!(out.frequencies.len() > 30);
    }

    #[test]
    fn astec_rejects_missing_and_bad_input() {
        let mut fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        let run = stellar_model().run(&ctx(&fs, &profile, vec![], 60.0));
        assert!(run.failure.unwrap().contains("missing"));
        fs.write("amp/sim1/input.params", b"garbage".to_vec())
            .unwrap();
        let run = stellar_model().run(&ctx(&fs, &profile, vec![], 60.0));
        assert!(run.failure.unwrap().contains("bad input"));
    }

    #[test]
    fn astec_out_of_domain_is_model_failure() {
        let mut fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        let mut p = StellarParams::benchmark();
        p.mass = 1.75;
        p.age = 0.1; // maximally hot corner: off the pulsation grid
        fs.write(
            "amp/sim1/input.params",
            marshal::generate_params_file(&p).into_bytes(),
        )
        .unwrap();
        let run = stellar_model().run(&ctx(&fs, &profile, vec![], 60.0));
        assert!(run.failure.unwrap().contains("model failure"));
    }

    fn stage_observations(fs: &mut SiteFs) {
        let obs = synthesize(
            "KIC 1",
            &StellarParams {
                mass: 1.05,
                metallicity: 0.02,
                helium: 0.27,
                alpha: 2.0,
                age: 4.0,
            },
            &Domain::default(),
            0.1,
            5,
        )
        .unwrap();
        fs.write(
            "amp/sim1/observations.in",
            marshal::generate_observation_file(&obs).into_bytes(),
        )
        .unwrap();
    }

    #[test]
    fn mpikaia_respects_walltime_and_checkpoints() {
        let mut fs = SiteFs::new("kraken", 4 << 20);
        let profile = kraken();
        stage_observations(&mut fs);
        // 6h budget on kraken (23.6 min/iter) fits ~14 iterations
        let args: Vec<String> = vec!["30".into(), "50".into(), "7".into()];
        let run = stellar_ga().run(&ctx(&fs, &profile, args, 360.0));
        assert!(run.failure.is_none());
        assert!(run.cost_minutes <= 360.0 * 0.98, "{}", run.cost_minutes);
        assert!(run.cost_minutes > 200.0, "{}", run.cost_minutes);
        let cp = Checkpoint::from_text(&String::from_utf8_lossy(
            &run.checkpoint_outputs[files::RESTART],
        ))
        .unwrap();
        assert!(cp.generation > 5 && cp.generation < 50);
        assert!(!run.outputs.contains_key(files::FINAL), "not converged yet");
        let log = String::from_utf8_lossy(&run.checkpoint_outputs[files::ITER_LOG]).into_owned();
        assert_eq!(log.lines().count(), cp.generation as usize + 1);
    }

    #[test]
    fn mpikaia_continuation_chain_reaches_convergence() {
        let mut fs = SiteFs::new("kraken", 16 << 20);
        let profile = kraken();
        stage_observations(&mut fs);
        let args: Vec<String> = vec!["20".into(), "25".into(), "3".into()];
        let mut hops = 0;
        loop {
            hops += 1;
            assert!(hops < 20, "no convergence after {hops} hops");
            let run = stellar_ga().run(&ctx(&fs, &profile, args.clone(), 240.0));
            assert!(run.failure.is_none(), "{:?}", run.failure);
            for (name, data) in run.checkpoint_outputs.iter().chain(run.outputs.iter()) {
                fs.write(&format!("amp/sim1/{name}"), data.clone()).unwrap();
            }
            if fs.exists(&format!("amp/sim1/{}", files::FINAL)) {
                break;
            }
        }
        assert!(hops >= 2, "walltime should force at least one continuation");
        let result: GaRunResult =
            serde_json::from_slice(fs.read("amp/sim1/final.json").unwrap()).unwrap();
        assert_eq!(result.generations, 25);
        assert!(result.best_fitness > 0.0);
        // iteration log covers gen 0..=25
        let log = String::from_utf8_lossy(fs.read("amp/sim1/iterations.log").unwrap()).into_owned();
        assert_eq!(log.lines().count(), 26);
    }

    #[test]
    fn mpikaia_rejects_corrupt_restart() {
        let mut fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        stage_observations(&mut fs);
        fs.write("amp/sim1/restart.json", b"{broken".to_vec())
            .unwrap();
        let args: Vec<String> = vec!["20".into(), "25".into(), "3".into()];
        let run = stellar_ga().run(&ctx(&fs, &profile, args, 240.0));
        assert!(run.failure.unwrap().contains("bad restart"));
    }

    #[test]
    fn curvefit_ga_converges_in_one_cheap_job() {
        let cf = app::lookup("curvefit").expect("curvefit registered");
        let truth = amp_core::app::curvefit::CurveParams {
            amplitude: 1.4,
            decay: 0.25,
            omega: 4.0,
            phase: 0.6,
            offset: 0.3,
        };
        let obs = amp_core::app::curvefit::synthesize_curve("CF 1", &truth, 60, 0.1, 9);
        let mut fs = SiteFs::new("kraken", 4 << 20);
        let profile = kraken();
        fs.write(
            "amp/sim1/observations.in",
            cf.observation_input(&serde_json::to_string(&obs).unwrap())
                .unwrap()
                .into_bytes(),
        )
        .unwrap();
        let args: Vec<String> = vec!["24".into(), "40".into(), "11".into()];
        let run = GaApp::new(cf.clone()).run(&ctx(&fs, &profile, args, 360.0));
        assert!(run.failure.is_none(), "{:?}", run.failure);
        // Whole 40-generation run fits one walltime: curvefit is cheap.
        let final_bytes = run
            .outputs
            .get(files::FINAL)
            .expect("curvefit converges in a single job");
        let fitness = cf.final_fitness(final_bytes).unwrap();
        assert!(fitness > 0.05, "fitness {fitness}");
        assert!(run.cost_minutes < 360.0 * 0.5, "{}", run.cost_minutes);
    }

    #[test]
    fn postjob_tars_and_cleanup_succeeds() {
        let mut fs = SiteFs::new("kraken", 1 << 20);
        let profile = kraken();
        fs.write("amp/sim1/run0/final.json", b"{}".to_vec())
            .unwrap();
        fs.write("amp/sim1/ENVIRONMENT", b"v1".to_vec()).unwrap();
        let run = PostJobScript.run(&ctx(&fs, &profile, vec!["amp/sim1".into()], 5.0));
        assert!(run.failure.is_none());
        let entries = SiteFs::untar(&run.outputs[files::RESULTS_TAR]).unwrap();
        assert_eq!(entries.len(), 2);

        let c = CleanupScript.run(&ctx(&fs, &profile, vec![], 5.0));
        assert!(c.failure.is_none());
    }

    #[test]
    fn install_stack_registers_all_apps() {
        let mut grid = amp_grid::Grid::new();
        grid.add_site(kraken());
        install_amp_stack(&mut grid, "kraken");
        let site = grid.site("kraken").unwrap();
        for p in [
            paths::PREJOB,
            paths::ASTEC,
            paths::MPIKAIA,
            paths::POSTJOB,
            paths::CLEANUP,
            "/amp/bin/curvefit/model",
            "/amp/bin/curvefit/ga",
        ] {
            assert!(site.apps.get(p).is_some(), "{p} missing");
        }
    }
}
