//! The direct-model-run derived workflow (§2: "trivial to configure and
//! execute: five floating-point parameters as input, 10–15 minutes on a
//! single processor, a few kilobytes of output").
//!
//! Per the paper's design, this module contains *only* the job-definition
//! and postprocessing code; everything else lives in the base workflow.
//! All science-specific handling (input-file rendering, artifact
//! validation) is delegated to the simulation's [`ScienceApp`], so this
//! engine is application-agnostic.
//!
//! [`ScienceApp`]: amp_core::app::ScienceApp

use amp_core::status::{JobPurpose, JobStatus};
use amp_core::SimPayload;
use amp_grid::{GramService, GridError};

use crate::apps::files;
use crate::error::WorkflowError;
use crate::workflow::{submit, After, Decision, Effect, View};

fn params_of(view: &View) -> Result<serde_json::Value, WorkflowError> {
    match view.payload()? {
        SimPayload::Direct { params } => Ok(params),
        _ => Err(WorkflowError::Daemon(
            "direct workflow on non-direct simulation".into(),
        )),
    }
}

/// Stage the parameter file and submit the model job.
pub fn submit_work(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    if !view.jobs_of(JobPurpose::Work)?.is_empty() {
        return Ok(true); // already submitted (retried transition)
    }
    let app = view.app()?;
    let input = app
        .model_input(&params_of(view)?)
        .map_err(WorkflowError::ModelFailure)?;
    let workdir = format!("{}/direct", view.workdir());
    let (path, content) = (format!("{workdir}/{}", files::PARAMS_IN), input);
    d.effects.push(Effect::StageIn { path, content });
    let cores = app.resources().model_cores;
    let spec = view.job(
        GramService::Batch,
        &app.model_path(),
        vec![],
        cores,
        workdir,
    );
    submit(view, d, (JobPurpose::Work, -1, 0), spec, After::Nothing)?;
    Ok(true)
}

/// Wait for the model job; failure is a model failure.
pub fn check_work(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let Some(job) = view.jobs_of(JobPurpose::Work)?.into_iter().next() else {
        // No job on record (e.g. an administrator deleted a failed one
        // while the simulation was held): resubmit and keep waiting.
        submit_work(view, d)?;
        return Ok(false);
    };
    match job.status {
        JobStatus::Done => {
            d.sim.progress = 1.0;
            Ok(true)
        }
        JobStatus::Failed => Err(WorkflowError::ModelFailure(job.detail)),
        JobStatus::Active => {
            d.sim.progress = 0.5;
            Ok(false)
        }
        _ => Ok(false),
    }
}

/// Pull the consolidated tar and extract the model output. The artifact is
/// stored verbatim — the engine validates it through the app but never
/// re-serializes it, so results are byte-identical to what the model wrote.
pub fn postprocess(view: &View, d: &mut Decision) -> Result<bool, WorkflowError> {
    let app = view.app()?;
    let tar = results_tar(view, d)?;
    let entries = amp_grid::SiteFs::untar(&tar)
        .map_err(|e| WorkflowError::ModelFailure(format!("corrupt results tar: {e}")))?;
    let out_path = format!("{}/direct/{}", view.workdir(), files::MODEL_OUT);
    let data = entries
        .iter()
        .find(|(p, _)| *p == out_path)
        .map(|&(_, d)| d)
        .ok_or_else(|| {
            // "the absence of a mandatory output file" is the paper's
            // canonical model failure (§4.4)
            WorkflowError::ModelFailure(format!("mandatory output {out_path} missing"))
        })?;
    app.check_model_output(data)
        .map_err(|e| WorkflowError::ModelFailure(format!("result failed to parse: {e}")))?;
    d.sim.result_json = Some(String::from_utf8_lossy(data).into_owned());
    Ok(true)
}

/// The post-job's consolidated tar, which must exist.
pub(crate) fn results_tar(view: &View, d: &mut Decision) -> Result<Vec<u8>, WorkflowError> {
    let path = format!("{}/{}", view.workdir(), files::RESULTS_TAR);
    let site = view.sim.system.clone();
    let missing = GridError::NoSuchFile {
        site,
        path: path.clone(),
    };
    view.get(&path, d)?.ok_or_else(|| missing.into())
}
