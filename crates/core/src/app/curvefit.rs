//! A cheap synthetic second application: damped-sinusoid curve fitting.
//!
//! Modeled on the Astrocomp-style lightweight codes a multi-application
//! portal must host next to the heavyweight pipeline — five parameters,
//! millisecond-class forward models, JSON artifacts throughout. Its job
//! mix is what `tests/lease_failover.rs` uses to check throughput
//! isolation against stellar.

use serde::{Deserialize, Serialize};

use super::{FitnessFn, ModelFailure, ModelRun, ParamSpec, ResourceTemplate, ScienceApp};
use crate::models::simulation::{OptimizationSpec, SimKind};

/// Fraction of the site's stellar benchmark one curve evaluation costs.
/// Deliberately tiny: the whole point of this app is cheap ticks.
const COST_FRACTION: f64 = 0.08;

/// The five fit parameters of `y(t) = A·exp(−λt)·cos(ωt+φ) + c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurveParams {
    pub amplitude: f64,
    pub decay: f64,
    pub omega: f64,
    pub phase: f64,
    pub offset: f64,
}

impl CurveParams {
    /// Evaluate the model curve at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        self.amplitude * (-self.decay * t).exp() * (self.omega * t + self.phase).cos() + self.offset
    }
}

/// One observed sample with measurement uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurveSample {
    pub t: f64,
    pub y: f64,
    pub sigma: f64,
}

/// An observation set: the `data_json` payload for curvefit observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveObservation {
    pub identifier: String,
    pub samples: Vec<CurveSample>,
}

/// Direct-run artifact (`output.json` for curvefit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveModelOutput {
    pub params: CurveParams,
    /// Oscillation period 2π/ω.
    pub period: f64,
    /// Envelope half-life ln2/λ.
    pub half_life: f64,
    /// Curve value at t = 0.
    pub y0: f64,
}

/// Converged-run artifact (`final.json` for curvefit). The field name
/// `best_fitness` matches the trait's default `final_fitness` extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveFitRunResult {
    pub best_params: CurveParams,
    pub best_fitness: f64,
    pub generations: u32,
}

/// Synthesize a noisy observation set from ground-truth parameters with a
/// deterministic inline PRNG (amp-core carries no rand dependency).
pub fn synthesize_curve(
    identifier: &str,
    truth: &CurveParams,
    n_samples: usize,
    noise: f64,
    seed: u64,
) -> CurveObservation {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next_unit = move || {
        // xorshift64*: plenty for reproducible synthetic noise.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let span = 10.0;
    let samples = (0..n_samples)
        .map(|i| {
            let t = span * i as f64 / (n_samples.max(2) - 1) as f64;
            let jitter = (2.0 * next_unit() - 1.0) * noise;
            CurveSample {
                t,
                y: truth.eval(t) + jitter,
                sigma: noise.max(1e-3),
            }
        })
        .collect();
    CurveObservation {
        identifier: identifier.to_string(),
        samples,
    }
}

/// Fit a damped sinusoid to noisy time-series samples.
pub struct CurveFitApp {
    schema: Vec<ParamSpec>,
}

impl CurveFitApp {
    // 6.2832 is the phase bound as shown to users on the submit form —
    // a display-friendly rounding of 2π, deliberately not f64 TAU.
    #[allow(clippy::approx_constant)]
    pub fn new() -> Self {
        let schema = vec![
            ParamSpec {
                name: "amplitude",
                label: "Amplitude",
                unit: "",
                lo: 0.1,
                hi: 5.0,
                default: 1.0,
            },
            ParamSpec {
                name: "decay",
                label: "Decay rate λ",
                unit: "1/s",
                lo: 0.01,
                hi: 2.0,
                default: 0.1,
            },
            ParamSpec {
                name: "omega",
                label: "Angular frequency ω",
                unit: "rad/s",
                lo: 0.5,
                hi: 20.0,
                default: 3.0,
            },
            ParamSpec {
                name: "phase",
                label: "Phase φ",
                unit: "rad",
                lo: 0.0,
                hi: 6.2832,
                default: 0.0,
            },
            ParamSpec {
                name: "offset",
                label: "Offset",
                unit: "",
                lo: -2.0,
                hi: 2.0,
                default: 0.0,
            },
        ];
        CurveFitApp { schema }
    }

    /// Decode a normalized genome into physical fit parameters.
    fn decode(&self, genome: &[f64]) -> Option<CurveParams> {
        if genome.len() != self.schema.len() {
            return None;
        }
        let d: Vec<f64> = self
            .schema
            .iter()
            .zip(genome)
            .map(|(s, g)| s.lo + (s.hi - s.lo) * g.clamp(0.0, 1.0))
            .collect();
        Some(CurveParams {
            amplitude: d[0],
            decay: d[1],
            omega: d[2],
            phase: d[3],
            offset: d[4],
        })
    }

    fn in_domain(&self, p: &CurveParams) -> bool {
        let vals = [p.amplitude, p.decay, p.omega, p.phase, p.offset];
        self.schema
            .iter()
            .zip(vals)
            .all(|(s, v)| v.is_finite() && v >= s.lo && v <= s.hi)
    }

    fn summary_rows(m: &CurveModelOutput) -> Vec<(String, String)> {
        vec![
            ("A".into(), format!("{:.3}", m.params.amplitude)),
            ("λ".into(), format!("{:.3} 1/s", m.params.decay)),
            ("ω".into(), format!("{:.3} rad/s", m.params.omega)),
            ("φ".into(), format!("{:.3} rad", m.params.phase)),
            ("c".into(), format!("{:.3}", m.params.offset)),
            ("period".into(), format!("{:.3} s", m.period)),
            ("half-life".into(), format!("{:.3} s", m.half_life)),
            ("y(0)".into(), format!("{:.3}", m.y0)),
        ]
    }
}

impl Default for CurveFitApp {
    fn default() -> Self {
        Self::new()
    }
}

/// Mean chi-squared of the model curve against an observation set.
fn chi2_per_sample(p: &CurveParams, obs: &CurveObservation) -> f64 {
    if obs.samples.is_empty() {
        return f64::INFINITY;
    }
    let total: f64 = obs
        .samples
        .iter()
        .map(|s| {
            let r = (p.eval(s.t) - s.y) / s.sigma.max(1e-9);
            r * r
        })
        .sum();
    total / obs.samples.len() as f64
}

impl ScienceApp for CurveFitApp {
    fn id(&self) -> &'static str {
        "curvefit"
    }

    fn title(&self) -> &'static str {
        "Damped Oscillator Fitting"
    }

    fn description(&self) -> &'static str {
        "Fit a damped sinusoid to noisy time-series samples: a lightweight \
         synthetic workload exercising the same submit/optimize/results \
         machinery as the stellar pipeline at a fraction of the cost."
    }

    fn params(&self) -> &[ParamSpec] {
        &self.schema
    }

    fn model_input(&self, params: &serde_json::Value) -> Result<String, String> {
        let typed: CurveParams =
            serde_json::from_value(params.clone()).map_err(|e| e.to_string())?;
        Ok(serde_json::to_string(&typed).expect("params serialize"))
    }

    fn run_model(&self, input: &str, benchmark_minutes: f64) -> Result<ModelRun, ModelFailure> {
        let params: CurveParams = serde_json::from_str(input).map_err(|e| ModelFailure {
            cost_minutes: 0.01,
            detail: format!("bad input: {e}"),
        })?;
        let cost = benchmark_minutes * COST_FRACTION;
        if !self.in_domain(&params) {
            return Err(ModelFailure {
                cost_minutes: cost * 0.3,
                detail: "model failure: parameters out of domain".to_string(),
            });
        }
        let output = CurveModelOutput {
            params,
            period: 2.0 * std::f64::consts::PI / params.omega,
            half_life: std::f64::consts::LN_2 / params.decay,
            y0: params.eval(0.0),
        };
        Ok(ModelRun {
            output: serde_json::to_vec(&output).expect("model output serializes"),
            cost_minutes: cost,
            log: format!("curve evaluated; cost {cost:.2} min"),
        })
    }

    fn check_model_output(&self, bytes: &[u8]) -> Result<(), String> {
        serde_json::from_slice::<CurveModelOutput>(bytes)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn observation_input(&self, data_json: &str) -> Result<String, String> {
        let obs: CurveObservation = serde_json::from_str(data_json).map_err(|e| e.to_string())?;
        Ok(serde_json::to_string(&obs).expect("observation serializes"))
    }

    fn fitness_fn(&self, observations: &str) -> Result<FitnessFn, String> {
        let obs: CurveObservation =
            serde_json::from_str(observations).map_err(|e| format!("bad observations: {e}"))?;
        let schema = self.schema.clone();
        Ok(Box::new(move |phenotype: &[f64]| {
            if phenotype.len() != schema.len() {
                return 0.0;
            }
            let d: Vec<f64> = schema
                .iter()
                .zip(phenotype)
                .map(|(s, g)| s.lo + (s.hi - s.lo) * g.clamp(0.0, 1.0))
                .collect();
            let p = CurveParams {
                amplitude: d[0],
                decay: d[1],
                omega: d[2],
                phase: d[3],
                offset: d[4],
            };
            1.0 / (1.0 + chi2_per_sample(&p, &obs))
        }))
    }

    fn generation_minutes(&self, phenotypes: &[Vec<f64>], benchmark_minutes: f64) -> f64 {
        // All curve evaluations cost the same; one parallel generation is
        // bounded by a single evaluation.
        if phenotypes.is_empty() {
            0.0
        } else {
            benchmark_minutes * COST_FRACTION
        }
    }

    fn final_artifact(&self, phenotype: &[f64], fitness: f64, generations: u32) -> Vec<u8> {
        let result = CurveFitRunResult {
            best_params: self.decode(phenotype).expect("5-gene phenotype"),
            best_fitness: fitness,
            generations,
        };
        serde_json::to_vec(&result).expect("result serializes")
    }

    fn solution_input(&self, final_bytes: &[u8]) -> Result<String, String> {
        let result: CurveFitRunResult =
            serde_json::from_slice(final_bytes).map_err(|e| e.to_string())?;
        Ok(serde_json::to_string(&result.best_params).expect("params serialize"))
    }

    fn result_summary(
        &self,
        kind: SimKind,
        result_json: &str,
    ) -> Option<(String, Vec<(String, String)>)> {
        match kind {
            SimKind::Direct => {
                let m: CurveModelOutput = serde_json::from_str(result_json).ok()?;
                Some(("Fitted curve".to_string(), Self::summary_rows(&m)))
            }
            SimKind::Optimization => {
                let v: serde_json::Value = serde_json::from_str(result_json).ok()?;
                let detail: CurveModelOutput =
                    serde_json::from_value(v.get("detail")?.clone()).ok()?;
                let fitness = v
                    .get("best")
                    .and_then(|b| b.get("best_fitness"))
                    .and_then(|f| f.as_f64())
                    .unwrap_or(0.0);
                let n_runs = v
                    .get("runs")
                    .and_then(|r| r.as_array())
                    .map(|a| a.len())
                    .unwrap_or(0);
                Some((
                    format!("Optimal fit (fitness {fitness:.4}, best of {n_runs} GA runs)"),
                    Self::summary_rows(&detail),
                ))
            }
        }
    }

    fn resources(&self) -> ResourceTemplate {
        ResourceTemplate {
            model_cores: 1,
            default_spec: OptimizationSpec {
                ga_runs: 2,
                population: 24,
                generations: 40,
                cores_per_run: 16,
                seed: 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> CurveParams {
        CurveParams {
            amplitude: 1.4,
            decay: 0.25,
            omega: 4.0,
            phase: 0.6,
            offset: 0.3,
        }
    }

    #[test]
    fn synthesize_is_deterministic() {
        let a = synthesize_curve("t-1", &truth(), 40, 0.05, 7);
        let b = synthesize_curve("t-1", &truth(), 40, 0.05, 7);
        assert_eq!(a, b);
        let c = synthesize_curve("t-1", &truth(), 40, 0.05, 8);
        assert_ne!(a, c);
        assert_eq!(a.samples.len(), 40);
    }

    #[test]
    fn model_round_trip_and_failure_strings() {
        let app = CurveFitApp::new();
        let params = serde_json::json!({
            "amplitude": 1.4, "decay": 0.25, "omega": 4.0, "phase": 0.6, "offset": 0.3
        });
        let input = app.model_input(&params).unwrap();
        let run = app.run_model(&input, 20.0).unwrap();
        assert!(app.check_model_output(&run.output).is_ok());
        assert!(run.cost_minutes < 2.0, "curvefit must be cheap");

        let err = app.run_model("garbage", 20.0).unwrap_err();
        assert!(err.detail.starts_with("bad input:"), "{}", err.detail);

        let oob = serde_json::json!({
            "amplitude": 99.0, "decay": 0.25, "omega": 4.0, "phase": 0.6, "offset": 0.3
        });
        let input = app.model_input(&oob).unwrap();
        let err = app.run_model(&input, 20.0).unwrap_err();
        assert!(err.detail.starts_with("model failure:"), "{}", err.detail);
    }

    #[test]
    fn truth_scores_best_fitness() {
        let app = CurveFitApp::new();
        let obs = synthesize_curve("t-2", &truth(), 60, 0.02, 3);
        let staged = app
            .observation_input(&serde_json::to_string(&obs).unwrap())
            .unwrap();
        let f = app.fitness_fn(&staged).unwrap();

        // Encode the truth back to a normalized genome.
        let vals = [1.4, 0.25, 4.0, 0.6, 0.3];
        let genome: Vec<f64> = app
            .params()
            .iter()
            .zip(vals)
            .map(|(s, v)| (v - s.lo) / (s.hi - s.lo))
            .collect();
        let truth_score = f(&genome);
        let wrong_score = f(&[0.9, 0.9, 0.9, 0.9, 0.9]);
        assert!(truth_score > 0.4, "truth fitness {truth_score}");
        assert!(truth_score > wrong_score);
    }

    #[test]
    fn final_artifact_round_trips() {
        let app = CurveFitApp::new();
        let bytes = app.final_artifact(&[0.5; 5], 0.8, 12);
        assert_eq!(app.final_fitness(&bytes).unwrap(), 0.8);
        let staged = app.solution_input(&bytes).unwrap();
        let run = app.run_model(&staged, 20.0).unwrap();
        assert!(app.check_model_output(&run.output).is_ok());
    }
}
