//! The `ScienceApp` abstraction: what a science application must provide
//! to ride the AMP portal/daemon/grid stack.
//!
//! The paper presents a single asteroseismology pipeline, but the portals
//! in its lineage (GRAPPA, Astrocomp) are multi-application gateways. This
//! module extracts everything application-specific out of the workflow
//! engine into one trait: parameter schema and validation, the staged
//! input-file formats, the forward model, the GA search-space coupling,
//! artifact formats, result rendering, and the job resource template. The
//! engine (direct/optimization workflows, the daemon, the portal) treats
//! artifacts as opaque bytes and dispatches through [`lookup`] over the
//! [`builtin`] applications.

pub mod curvefit;
pub mod stellar;

use std::sync::{Arc, OnceLock};

use crate::models::simulation::{OptimizationSpec, SimKind};

/// A compiled fitness function over normalized genomes in `[0,1)^n`,
/// closed over an application's parsed observation set. Boxed so the GA
/// coupling needs no dependency from `amp-core` on the GA crate.
pub type FitnessFn = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// One searchable/submittable parameter: schema for portal forms,
/// validation bounds, and the GA's search box along this axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Form field / JSON key.
    pub name: &'static str,
    /// Human label for forms and result tables.
    pub label: &'static str,
    /// Display unit ("" when dimensionless).
    pub unit: &'static str,
    pub lo: f64,
    pub hi: f64,
    /// Form default.
    pub default: f64,
}

/// A successful forward-model execution.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// The mandatory output artifact (staged out as `output.json`).
    pub output: Vec<u8>,
    /// Simulated compute cost in minutes.
    pub cost_minutes: f64,
    /// Human-readable run log.
    pub log: String,
}

/// A failed forward-model execution (cost is still charged).
#[derive(Debug, Clone)]
pub struct ModelFailure {
    pub cost_minutes: f64,
    pub detail: String,
}

/// Per-application job sizing: what the daemon requests from GRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceTemplate {
    /// Cores for a direct / solution-evaluation model job.
    pub model_cores: u32,
    /// Default ensemble shape for optimization submissions.
    pub default_spec: OptimizationSpec,
}

/// A science application pluggable into the AMP stack.
///
/// Implementors own **all** application-specific serialization — staged
/// input files, model output, converged-run artifacts — so the workflow
/// engine can move them around as opaque bytes and an application can be
/// added without touching the daemon, the grid simulator, or the portal.
pub trait ScienceApp: Send + Sync {
    /// Stable identifier threaded through simulation/job/lease rows,
    /// GRAM submit keys, metric labels, and portal routes.
    fn id(&self) -> &'static str;
    fn title(&self) -> &'static str;
    fn description(&self) -> &'static str;

    /// The parameter schema (also the GA search space, one gene per spec).
    fn params(&self) -> &[ParamSpec];

    /// Genome width for optimization runs.
    fn n_genes(&self) -> usize {
        self.params().len()
    }

    /// Validate a direct-run parameter object against the schema: every
    /// parameter present, finite, and within its bounds.
    fn validate_params(&self, params: &serde_json::Value) -> Result<(), String> {
        for spec in self.params() {
            let v = params
                .get(spec.name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{} must be a number", spec.name))?;
            if !v.is_finite() || v < spec.lo || v > spec.hi {
                return Err(format!(
                    "{} = {v} outside [{}, {}]",
                    spec.name, spec.lo, spec.hi
                ));
            }
        }
        Ok(())
    }

    /// Render the staged input file for a direct/solution model run.
    fn model_input(&self, params: &serde_json::Value) -> Result<String, String>;

    /// Execute the forward model on a staged input file. The application
    /// formats its own failure strings (they land verbatim in job detail).
    fn run_model(&self, input: &str, benchmark_minutes: f64) -> Result<ModelRun, ModelFailure>;

    /// Validate a staged-out model artifact (postprocess gate).
    fn check_model_output(&self, bytes: &[u8]) -> Result<(), String>;

    /// Render the GA's staged observation input from an observation row's
    /// `data_json`.
    fn observation_input(&self, data_json: &str) -> Result<String, String>;

    /// Compile the fitness function from a staged observation file.
    fn fitness_fn(&self, observations: &str) -> Result<FitnessFn, String>;

    /// Simulated cost of evaluating one GA generation (phenotypes are
    /// normalized genomes).
    fn generation_minutes(&self, phenotypes: &[Vec<f64>], benchmark_minutes: f64) -> f64;

    /// Serialize the converged-run artifact (`final.json`).
    fn final_artifact(&self, phenotype: &[f64], fitness: f64, generations: u32) -> Vec<u8>;

    /// Extract the fitness from a converged-run artifact.
    fn final_fitness(&self, bytes: &[u8]) -> Result<f64, String> {
        let v: serde_json::Value = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
        v.get("best_fitness")
            .and_then(|f| f.as_f64())
            .ok_or_else(|| "no best_fitness field".to_string())
    }

    /// Render the solution-evaluation input file from the winning run's
    /// converged artifact.
    fn solution_input(&self, final_bytes: &[u8]) -> Result<String, String>;

    /// Render a completed simulation's results as `(heading, rows)` for
    /// the portal. `None` means the payload is unreadable.
    fn result_summary(
        &self,
        kind: SimKind,
        result_json: &str,
    ) -> Option<(String, Vec<(String, String)>)>;

    /// Job sizing for this application.
    fn resources(&self) -> ResourceTemplate;

    /// Remote path of the installed forward-model executable.
    fn model_path(&self) -> String {
        format!("/amp/bin/{}/model", self.id())
    }

    /// Remote path of the installed GA executable.
    fn ga_path(&self) -> String {
        format!("/amp/bin/{}/ga", self.id())
    }
}

/// The built-in application registry.
pub fn builtin() -> &'static [Arc<dyn ScienceApp>] {
    static APPS: OnceLock<Vec<Arc<dyn ScienceApp>>> = OnceLock::new();
    APPS.get_or_init(|| {
        vec![
            Arc::new(stellar::StellarApp::new()),
            Arc::new(curvefit::CurveFitApp::new()),
        ]
    })
}

/// Resolve an application by id.
pub fn lookup(id: &str) -> Option<Arc<dyn ScienceApp>> {
    builtin().iter().find(|a| a.id() == id).cloned()
}

/// Build a parameter object from schema-ordered values (portal form path
/// and test fixtures). Keys are emitted in schema order, which for the
/// stellar application reproduces the legacy `StellarParams` field order.
pub fn params_json(app: &dyn ScienceApp, values: &[f64]) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    for (spec, v) in app.params().iter().zip(values) {
        map.insert(spec.name.to_string(), serde_json::json!(*v));
    }
    serde_json::Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_both_builtin_apps() {
        let ids: Vec<&str> = builtin().iter().map(|a| a.id()).collect();
        assert_eq!(ids, vec!["stellar", "curvefit"]);
        assert!(lookup("stellar").is_some());
        assert!(lookup("curvefit").is_some());
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn stellar_keeps_legacy_executable_paths() {
        let app = lookup("stellar").unwrap();
        assert_eq!(app.model_path(), "/amp/bin/astec");
        assert_eq!(app.ga_path(), "/amp/bin/mpikaia");
        let cf = lookup("curvefit").unwrap();
        assert_eq!(cf.model_path(), "/amp/bin/curvefit/model");
        assert_eq!(cf.ga_path(), "/amp/bin/curvefit/ga");
    }

    #[test]
    fn default_validation_enforces_schema_bounds() {
        for app in builtin() {
            let defaults: Vec<f64> = app.params().iter().map(|p| p.default).collect();
            let ok = params_json(app.as_ref(), &defaults);
            assert!(app.validate_params(&ok).is_ok(), "{}", app.id());

            let mut bad = defaults.clone();
            bad[0] = app.params()[0].hi + 1.0;
            let bad = params_json(app.as_ref(), &bad);
            assert!(app.validate_params(&bad).is_err(), "{}", app.id());

            let missing = serde_json::json!({});
            assert!(app.validate_params(&missing).is_err(), "{}", app.id());
        }
    }

    #[test]
    fn genes_match_schema_width() {
        for app in builtin() {
            assert_eq!(app.n_genes(), app.params().len(), "{}", app.id());
        }
    }
}
