//! The optimization-run derived workflow — Figure 1's ensemble.
//!
//! Four independent GA runs execute in parallel, each as a chain of
//! walltime-limited jobs propagated by restart files; when all converge,
//! the best candidate gets a solution-evaluation detail run (§2). "The
//! most complex portion of the workflow is downloading and interpreting
//! partial result files" (§5) — that is [`check_work`].
//!
//! Science-specific handling is delegated to the simulation's
//! [`ScienceApp`]: observation staging, converged-artifact fitness
//! extraction, and solution-input rendering. The engine moves artifacts as
//! opaque bytes and assembles the final result by splicing them verbatim,
//! so stored results are byte-identical to what the runs produced.
//!
//! [`ScienceApp`]: amp_core::app::ScienceApp

use amp_core::app::ScienceApp;
use amp_core::status::{JobPurpose, JobStatus};
use amp_core::OptimizationSpec;
use amp_core::SimPayload;
use amp_ga::Checkpoint;
use amp_grid::{GramService, SiteFs};
use amp_stellar::ModelOutput;
use serde::{Deserialize, Serialize};

use crate::apps::{files, GaRunResult};
use crate::error::WorkflowError;
use crate::workflow::{reconcile, submit, After, Decision, Effect, View};

/// The stellar final payload shape (kept for typed access by existing
/// consumers; the engine itself assembles `result_json` by raw splice and
/// never round-trips through this struct).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationResult {
    /// Best-of-ensemble GA candidate.
    pub best: GaRunResult,
    /// Solution-evaluation detail run of that candidate.
    pub detail: ModelOutput,
    /// Every run's converged result (optimality confidence, §2).
    pub runs: Vec<GaRunResult>,
}

/// What `check_work` learned of one GA run from its remote files.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    /// A `final.json` exists.
    Converged,
    /// None yet; `progress` is the last staged-out restart file's (0 with
    /// no restart file either).
    Unfinished { progress: f64 },
}

impl RunState {
    fn progress(self) -> f64 {
        match self {
            RunState::Converged => 1.0,
            RunState::Unfinished { progress } => progress,
        }
    }
}

/// A simulation's partial results as the daemon remembers them between
/// ticks: every GA run's [`RunState`] and the job chain they were read
/// under. A run's files change only when one of its jobs ends, so while the
/// chain is the same [`check_work`] answers from here without a GridFTP
/// call. Never stored in the database.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResults {
    /// `(job id, terminal?)` of every Work job, in `jobs_of` order.
    chain: Vec<(i64, bool)>,
    /// One entry per GA run, in run order.
    runs: Vec<RunState>,
}

/// `daemon_partial_results_total{outcome=…}`, counted per GA run per
/// [`check_work`] pass: `(fetched, remembered)`.
fn partial_results_counters() -> &'static (amp_obs::Counter, amp_obs::Counter) {
    static COUNTERS: std::sync::OnceLock<(amp_obs::Counter, amp_obs::Counter)> =
        std::sync::OnceLock::new();
    let outcome = |outcome| {
        amp_obs::counter(&amp_obs::labeled(
            "daemon_partial_results_total",
            &[("outcome", outcome)],
        ))
    };
    COUNTERS.get_or_init(|| (outcome("fetched"), outcome("remembered")))
}

fn spec_of(view: &View) -> Result<(OptimizationSpec, i64), WorkflowError> {
    match view.payload()? {
        SimPayload::Optimization {
            spec,
            observation_id,
        } => Ok((spec, observation_id)),
        _ => Err(WorkflowError::Daemon(
            "optimization workflow on non-optimization simulation".into(),
        )),
    }
}

fn run_dir(view: &View, run: u32) -> String {
    format!("{}/run{run}", view.workdir())
}

/// Decide continuation `c` of GA run `r`, waiting for `after`.
fn submit_ga(
    view: &View,
    d: &mut Decision,
    app: &dyn ScienceApp,
    spec: &OptimizationSpec,
    (r, c): (u32, i64),
    after: After,
) -> Result<After, WorkflowError> {
    let args = vec![
        spec.population.to_string(),
        spec.generations.to_string(),
        (spec.seed + r as u64).to_string(),
    ];
    let (cores, dir) = (spec.cores_per_run, run_dir(view, r));
    let job = view.job(GramService::Batch, &app.ga_path(), args, cores, dir);
    submit(view, d, (JobPurpose::Work, r as i64, c), job, after)
}

/// Expected jobs per GA run when chaining (§6): total GA time over the
/// per-job walltime budget, plus one for safety.
fn chain_length(view: &View, spec: &OptimizationSpec) -> i64 {
    let bench = view.profile(|p| p.model_benchmark_minutes).unwrap_or(20.0);
    let total_minutes = bench * (spec.generations as f64 + 1.0) * 1.1;
    let budget = view.config.work_walltime_hours * 60.0 * 0.97;
    (total_minutes / budget).ceil() as i64 + 1
}

/// Stage observations and launch the ensemble (one chain per GA run). A
/// retry after a crash part of the way through submits the ones still
/// missing: [`submit`] skips a recorded key, where "some Work job exists"
/// would skip them all.
pub fn submit_work(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let app = view.app()?;
    let (spec, observation_id) = spec_of(view)?;
    let obs_rec = view.observation(observation_id)?;
    let obs_text = app
        .observation_input(&obs_rec.data_json)
        .map_err(WorkflowError::ModelFailure)?;
    // §6: with chaining, submit the whole continuation chain up-front with
    // scheduler dependencies so the queue waits overlap.
    let links = match view.config.job_chaining {
        true => chain_length(view, &spec),
        false => 1,
    };
    for r in 0..spec.ga_runs {
        let (path, content) = (
            format!("{}/{}", run_dir(view, r), files::OBS_IN),
            obs_text.clone(),
        );
        d.effects.push(Effect::StageIn { path, content });
        let mut after = After::Nothing;
        for c in 0..links {
            after = submit_ga(view, d, app.as_ref(), &spec, (r, c), after)?;
        }
    }
    Ok(true)
}

/// Interpret partial results, submit continuations, and run the solution
/// evaluation once every GA run has converged. The remote files are read
/// only when `view.remembered` is missing or was taken under another job
/// chain; what this pass knows goes into `d.learned` unless it submits a
/// continuation. A failed read fails the whole decision: nothing is
/// submitted.
pub fn check_work(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let app = view.app()?;
    let (spec, _) = spec_of(view)?;
    let work = view.jobs_of(JobPurpose::Work)?;
    if work.is_empty() {
        // Records wiped during an administrator hold-fix: resubmit.
        submit_work(view, d)?;
        return Ok(false);
    }

    let chain: Vec<(i64, bool)> = work
        .iter()
        .map(|j| (j.id.expect("selected job has id"), j.status.is_terminal()))
        .collect();
    let remembered = view
        .remembered
        .filter(|m| m.chain == chain && m.runs.len() == spec.ga_runs as usize);
    let (fetched_total, remembered_total) = partial_results_counters();
    match remembered {
        Some(_) => remembered_total.add(spec.ga_runs as u64),
        None => fetched_total.add(spec.ga_runs as u64),
    }

    let mut runs = Vec::with_capacity(spec.ga_runs as usize);
    let mut submitted = false;
    let mut all_converged = true;
    for r in 0..spec.ga_runs {
        let known = remembered.map(|m| m.runs[r as usize]);
        let run_jobs: Vec<_> = work.iter().filter(|j| j.ga_run == r as i64).collect();
        let Some(last) = run_jobs.last() else {
            all_converged = false;
            runs.push(RunState::Unfinished { progress: 0.0 });
            continue;
        };

        // Converged as soon as a final.json exists remotely.
        let dir = run_dir(view, r);
        let converged = match known {
            Some(state) => state == RunState::Converged,
            None => view.get(&format!("{dir}/{}", files::FINAL), d)?.is_some(),
        };
        if converged {
            runs.push(RunState::Converged);
            continue;
        }
        all_converged = false;

        // A job killed at the walltime limit leaves its restart file behind
        // like one that ended in time; any other failure is the model's.
        if last.status == JobStatus::Failed && !last.detail.contains("walltime") {
            return Err(WorkflowError::ModelFailure(format!(
                "GA run {r} failed: {}",
                last.detail
            )));
        }
        // Partial progress from the last *finished* continuation.
        let progress = match known {
            Some(RunState::Unfinished { progress }) => progress,
            _ => run_progress(view, d, &dir)?,
        };
        runs.push(RunState::Unfinished { progress });
        if run_jobs.iter().all(|j| j.status.is_terminal()) {
            // Chain exhausted without convergence: extend it.
            let next = (r, last.continuation + 1);
            submit_ga(view, d, app.as_ref(), &spec, next, After::Nothing)?;
            submitted = true;
        }
    }
    let progress_sum: f64 = runs.iter().map(|run| run.progress()).sum();
    d.sim.progress = (progress_sum / spec.ga_runs as f64).clamp(0.0, 0.99);

    if !submitted {
        d.learned = Some(PartialResults { chain, runs });
    }
    if !all_converged {
        return Ok(false);
    }

    // Solution evaluation (§2: "the best solution is evaluated using the
    // forward model to produce detailed output").
    let solution = view.jobs_of(JobPurpose::SolutionEvaluation)?;
    match solution.first().map(|j| j.status) {
        None => {
            let best_raw = best_of_ensemble(view, d, &spec)?;
            let input = app
                .solution_input(&best_raw)
                .map_err(WorkflowError::ModelFailure)?;
            let dir = format!("{}/solution", view.workdir());
            let (path, content) = (format!("{dir}/{}", files::PARAMS_IN), input);
            d.effects.push(Effect::StageIn { path, content });
            let cores = app.resources().model_cores;
            let job = view.job(GramService::Batch, &app.model_path(), vec![], cores, dir);
            submit(
                view,
                d,
                (JobPurpose::SolutionEvaluation, -1, 0),
                job,
                After::Nothing,
            )?;
            Ok(false)
        }
        // No later step asks for a continuation whose replies were all lost
        // until its run converged: record what the site accepted before the
        // simulation leaves its chains, so that its hours are charged. Only
        // the chains' own jobs: the post-job submission decided next reads
        // its own key, and a repeat of it is answered by the site.
        Some(JobStatus::Done) => {
            let chains = |p| matches!(p, JobPurpose::Work | JobPurpose::SolutionEvaluation);
            reconcile(view, d, chains).map(|()| true)
        }
        Some(JobStatus::Failed) => Err(WorkflowError::ModelFailure(format!(
            "solution evaluation failed: {}",
            solution[0].detail
        ))),
        Some(_) => Ok(false),
    }
}

/// Progress of one GA run from its last staged-out restart file.
fn run_progress(view: &View, d: &mut Decision, dir: &str) -> Result<f64, WorkflowError> {
    let restart_path = format!("{dir}/{}", files::RESTART);
    match view.get(&restart_path, d)? {
        None => Ok(0.0), // nothing staged out yet
        Some(raw) => {
            let text = String::from_utf8_lossy(&raw);
            let cp = Checkpoint::from_text(&text).map_err(|e| {
                WorkflowError::ModelFailure(format!("restart failed to parse: {e}"))
            })?;
            Ok(cp.progress())
        }
    }
}

/// Fetch every run's final artifact and pick the fittest (earliest run
/// wins ties, matching the original typed comparison). Returns the raw
/// artifact bytes for verbatim solution staging.
fn best_of_ensemble(
    view: &View,
    d: &mut Decision,
    spec: &OptimizationSpec,
) -> Result<Vec<u8>, WorkflowError> {
    let app = view.app()?;
    let mut best: Option<(f64, Vec<u8>)> = None;
    for r in 0..spec.ga_runs {
        let path = format!("{}/{}", run_dir(view, r), files::FINAL);
        let data = view
            .get(&path, d)?
            .ok_or_else(|| WorkflowError::ModelFailure(format!("run {r} final result vanished")))?;
        let fitness = app.final_fitness(&data).map_err(|e| {
            WorkflowError::ModelFailure(format!("run {r} result failed to parse: {e}"))
        })?;
        best = match best {
            Some((bf, braw)) if bf >= fitness => Some((bf, braw)),
            _ => Some((fitness, data)),
        };
    }
    best.map(|(_, raw)| raw)
        .ok_or_else(|| WorkflowError::Daemon("no GA runs in ensemble".into()))
}

/// Extract the ensemble's results from the consolidated tar. The final
/// `result_json` is assembled by splicing the raw artifacts verbatim into
/// `{"best":...,"detail":...,"runs":[...]}` — no re-serialization, so the
/// stored bytes match a typed round-trip of [`OptimizationResult`] exactly
/// for well-formed artifacts while staying application-agnostic.
pub fn postprocess(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let app = view.app()?;
    let (spec, _) = spec_of(view)?;
    let tar = crate::direct::results_tar(view, d)?;
    let entries = SiteFs::untar(&tar)
        .map_err(|e| WorkflowError::ModelFailure(format!("corrupt results tar: {e}")))?;
    let find = |path: &str| entries.iter().find(|(p, _)| *p == path).map(|&(_, d)| d);

    let detail_path = format!("{}/solution/{}", view.workdir(), files::MODEL_OUT);
    let detail = find(&detail_path).ok_or_else(|| {
        WorkflowError::ModelFailure(format!("mandatory output {detail_path} missing"))
    })?;
    app.check_model_output(detail)
        .map_err(|e| WorkflowError::ModelFailure(format!("solution output: {e}")))?;

    let mut runs: Vec<&[u8]> = Vec::with_capacity(spec.ga_runs as usize);
    let mut fitnesses = Vec::with_capacity(spec.ga_runs as usize);
    for r in 0..spec.ga_runs {
        let path = format!("{}/{}", run_dir(view, r), files::FINAL);
        let data = find(&path).ok_or_else(|| {
            WorkflowError::ModelFailure(format!("run {r} final missing from tar"))
        })?;
        let fitness = app
            .final_fitness(data)
            .map_err(|e| WorkflowError::ModelFailure(format!("run {r} result: {e}")))?;
        runs.push(data);
        fitnesses.push(fitness);
    }
    // max_by keeps the *last* maximal element, matching the original typed
    // reduction over the runs vector.
    let best = fitnesses
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| runs[i])
        .ok_or_else(|| WorkflowError::Daemon("empty ensemble".into()))?;

    let splice = |raw: &[u8]| String::from_utf8_lossy(raw).into_owned();
    let runs_json: Vec<String> = runs.iter().map(|r| splice(r)).collect();
    d.sim.result_json = Some(format!(
        "{{\"best\":{},\"detail\":{},\"runs\":[{}]}}",
        splice(best),
        splice(detail),
        runs_json.join(",")
    ));
    Ok(true)
}
