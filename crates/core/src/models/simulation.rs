//! Simulations: the user-facing unit of work.
//!
//! AMP supports two execution modes (§2): the trivial "direct model run"
//! (five parameters, one processor, minutes) and the "optimization run"
//! (an ensemble of GA runs on 512 processors for days). Both are rows in
//! this table; their status is the top of the two-level workflow state
//! (§4.4), so the portal renders progress without inspecting grid jobs.

use super::{get_float, get_int, get_opt_ts, get_text, opt_ts};
use crate::status::SimStatus;
use amp_simdb::orm::Model;
use amp_simdb::{Column, DbError, OnDelete, TableSchema, Value, ValueType};
use amp_stellar::StellarParams;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// Which kind of simulation this row is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Direct,
    Optimization,
}

impl SimKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SimKind::Direct => "direct",
            SimKind::Optimization => "optimization",
        }
    }
}

impl FromStr for SimKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(SimKind::Direct),
            "optimization" => Ok(SimKind::Optimization),
            other => Err(format!("unknown simulation kind {other:?}")),
        }
    }
}

/// Parameters of an optimization run — the paper's Kepler configuration by
/// default: 4 independent GA runs × 126 stars × 200 iterations on 128
/// processors each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationSpec {
    pub ga_runs: u32,
    pub population: u32,
    pub generations: u32,
    pub cores_per_run: u32,
    /// Base seed; each GA run derives its own (§2: "randomly generated
    /// seed parameters").
    pub seed: u64,
}

impl Default for OptimizationSpec {
    fn default() -> Self {
        OptimizationSpec {
            ga_runs: 4,
            population: 126,
            generations: 200,
            cores_per_run: 128,
            seed: 1,
        }
    }
}

impl OptimizationSpec {
    /// Total processors the ensemble occupies (paper: 512).
    pub fn total_cores(&self) -> u32 {
        self.ga_runs * self.cores_per_run
    }
}

/// The typed payload stored in `params_json`. Direct parameters are an
/// application-defined JSON object (validated against the owning
/// [`crate::app::ScienceApp`] schema); for the stellar application the
/// object is exactly the legacy `StellarParams` serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimPayload {
    Direct {
        params: serde_json::Value,
    },
    Optimization {
        spec: OptimizationSpec,
        observation_id: i64,
    },
}

/// One simulation row.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulation {
    pub id: Option<i64>,
    pub star_id: i64,
    pub owner_id: i64,
    pub kind: SimKind,
    /// Which science application this simulation belongs to (registry id).
    pub app: String,
    pub payload_json: String,
    pub status: SimStatus,
    /// Plain-text situation note shown with the status (§4.4: transients
    /// supplement the display "with a plain-text message").
    pub status_message: String,
    /// Target system (site name).
    pub system: String,
    pub allocation_id: i64,
    pub created_at: i64,
    pub started_at: Option<i64>,
    pub completed_at: Option<i64>,
    /// Fractional progress in \[0,1] from partial-result interpretation.
    pub progress: f64,
    /// Final results (serialized model output / best parameters).
    pub result_json: Option<String>,
    /// When status is Hold: the state the workflow was in when the model
    /// failure occurred, so an administrator resume continues exactly there
    /// (§4.4: "once the problem has been resolved, the workflow resumes
    /// automatically").
    pub held_from: Option<String>,
}

impl Simulation {
    /// A direct run for an arbitrary registered application; `params` must
    /// satisfy that application's schema.
    pub fn direct_for(
        app: &str,
        star_id: i64,
        owner_id: i64,
        params: serde_json::Value,
        system: &str,
        allocation_id: i64,
        at: i64,
    ) -> Self {
        Simulation {
            id: None,
            star_id,
            owner_id,
            kind: SimKind::Direct,
            app: app.to_string(),
            payload_json: serde_json::to_string(&SimPayload::Direct { params })
                .expect("payload serializes"),
            status: SimStatus::Queued,
            status_message: String::new(),
            system: system.to_string(),
            allocation_id,
            created_at: at,
            started_at: None,
            completed_at: None,
            progress: 0.0,
            result_json: None,
            held_from: None,
        }
    }

    /// An optimization run for an arbitrary registered application.
    #[allow(clippy::too_many_arguments)]
    pub fn optimization_for(
        app: &str,
        star_id: i64,
        owner_id: i64,
        spec: OptimizationSpec,
        observation_id: i64,
        system: &str,
        allocation_id: i64,
        at: i64,
    ) -> Self {
        Simulation {
            id: None,
            star_id,
            owner_id,
            kind: SimKind::Optimization,
            app: app.to_string(),
            payload_json: serde_json::to_string(&SimPayload::Optimization {
                spec,
                observation_id,
            })
            .expect("payload serializes"),
            status: SimStatus::Queued,
            status_message: String::new(),
            system: system.to_string(),
            allocation_id,
            created_at: at,
            started_at: None,
            completed_at: None,
            progress: 0.0,
            result_json: None,
            held_from: None,
        }
    }

    /// A stellar direct run (the original single-application API).
    pub fn new_direct(
        star_id: i64,
        owner_id: i64,
        params: StellarParams,
        system: &str,
        allocation_id: i64,
        at: i64,
    ) -> Self {
        Self::direct_for(
            "stellar",
            star_id,
            owner_id,
            serde_json::to_value(&params),
            system,
            allocation_id,
            at,
        )
    }

    /// A stellar optimization run (the original single-application API).
    pub fn new_optimization(
        star_id: i64,
        owner_id: i64,
        spec: OptimizationSpec,
        observation_id: i64,
        system: &str,
        allocation_id: i64,
        at: i64,
    ) -> Self {
        Self::optimization_for(
            "stellar",
            star_id,
            owner_id,
            spec,
            observation_id,
            system,
            allocation_id,
            at,
        )
    }

    pub fn payload(&self) -> Result<SimPayload, DbError> {
        serde_json::from_str(&self.payload_json)
            .map_err(|e| DbError::Corrupt(format!("simulation payload: {e}")))
    }
}

impl Model for Simulation {
    const TABLE: &'static str = "simulation";

    fn schema() -> TableSchema {
        TableSchema::new(
            Self::TABLE,
            vec![
                Column::new("star_id", ValueType::Int)
                    .not_null()
                    .references("star", OnDelete::Restrict)
                    .indexed(),
                Column::new("owner_id", ValueType::Int)
                    .not_null()
                    .references("amp_user", OnDelete::Restrict)
                    .indexed(),
                Column::new("kind", ValueType::Text).not_null(),
                Column::new("app", ValueType::Text)
                    .not_null()
                    .default("stellar")
                    .indexed(),
                Column::new("payload_json", ValueType::Text).not_null(),
                Column::new("status", ValueType::Text).not_null().indexed(),
                Column::new("status_message", ValueType::Text)
                    .not_null()
                    .default(""),
                Column::new("system", ValueType::Text)
                    .not_null()
                    .max_length(32),
                Column::new("allocation_id", ValueType::Int)
                    .not_null()
                    .references("allocation", OnDelete::Restrict),
                Column::new("created_at", ValueType::Int).not_null(),
                Column::new("started_at", ValueType::Timestamp),
                Column::new("completed_at", ValueType::Timestamp),
                Column::new("progress", ValueType::Float)
                    .not_null()
                    .default(0.0),
                Column::new("result_json", ValueType::Text),
                Column::new("held_from", ValueType::Text).max_length(16),
            ],
        )
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Simulation {
            id: Some(id),
            star_id: get_int::<Self>(row, "star_id")?,
            owner_id: get_int::<Self>(row, "owner_id")?,
            kind: get_text::<Self>(row, "kind")?
                .parse()
                .map_err(DbError::Schema)?,
            app: get_text::<Self>(row, "app")?,
            payload_json: get_text::<Self>(row, "payload_json")?,
            status: get_text::<Self>(row, "status")?
                .parse()
                .map_err(DbError::Schema)?,
            status_message: get_text::<Self>(row, "status_message")?,
            system: get_text::<Self>(row, "system")?,
            allocation_id: get_int::<Self>(row, "allocation_id")?,
            created_at: get_int::<Self>(row, "created_at")?,
            started_at: get_opt_ts::<Self>(row, "started_at")?,
            completed_at: get_opt_ts::<Self>(row, "completed_at")?,
            progress: get_float::<Self>(row, "progress")?,
            result_json: super::get_opt_text::<Self>(row, "result_json")?,
            held_from: super::get_opt_text::<Self>(row, "held_from")?,
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("star_id", self.star_id.into()),
            ("owner_id", self.owner_id.into()),
            ("kind", self.kind.as_str().into()),
            ("app", self.app.as_str().into()),
            ("payload_json", self.payload_json.as_str().into()),
            ("status", self.status.as_str().into()),
            ("status_message", self.status_message.as_str().into()),
            ("system", self.system.as_str().into()),
            ("allocation_id", self.allocation_id.into()),
            ("created_at", self.created_at.into()),
            ("started_at", opt_ts(self.started_at)),
            ("completed_at", opt_ts(self.completed_at)),
            ("progress", self.progress.into()),
            ("result_json", self.result_json.as_deref().into()),
            ("held_from", self.held_from.as_deref().into()),
        ]
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        assert_eq!("direct".parse::<SimKind>().unwrap(), SimKind::Direct);
        assert_eq!(
            "optimization".parse::<SimKind>().unwrap(),
            SimKind::Optimization
        );
        assert!("other".parse::<SimKind>().is_err());
    }

    #[test]
    fn kepler_spec_matches_paper() {
        let spec = OptimizationSpec::default();
        assert_eq!(spec.total_cores(), 512);
        assert_eq!(spec.population, 126);
        assert_eq!(spec.generations, 200);
    }

    #[test]
    fn payload_roundtrip() {
        let sim = Simulation::new_direct(1, 1, StellarParams::benchmark(), "kraken", 1, 0);
        assert_eq!(sim.app, "stellar");
        match sim.payload().unwrap() {
            SimPayload::Direct { params } => {
                assert_eq!(params, serde_json::to_value(&StellarParams::benchmark()))
            }
            _ => panic!(),
        }
        let sim =
            Simulation::new_optimization(1, 1, OptimizationSpec::default(), 9, "kraken", 1, 0);
        match sim.payload().unwrap() {
            SimPayload::Optimization {
                spec,
                observation_id,
            } => {
                assert_eq!(spec, OptimizationSpec::default());
                assert_eq!(observation_id, 9);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn new_simulations_start_queued() {
        let sim = Simulation::new_direct(1, 1, StellarParams::benchmark(), "kraken", 1, 42);
        assert_eq!(sim.status, SimStatus::Queued);
        assert_eq!(sim.created_at, 42);
        assert_eq!(sim.progress, 0.0);
        assert!(sim.result_json.is_none());
    }
}
