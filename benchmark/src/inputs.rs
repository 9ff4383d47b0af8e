//! The simulations a workload submits: which of the four kinds, on which
//! star, with which parameters. All of it is drawn from the benchmark's
//! generator; the same request can be rendered as a portal form or as a
//! simulation row, so the portal path and the direct path submit the
//! same work.

use amp_core::models::Simulation;
use amp_core::OptimizationSpec;

use crate::rng::{exact_mix, Rng};
use crate::stack::{Catalog, SITE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CurvefitDirect,
    StellarDirect,
    CurvefitOpt,
    StellarOpt,
}

impl Kind {
    pub fn app(self) -> &'static str {
        match self {
            Kind::CurvefitDirect | Kind::CurvefitOpt => "curvefit",
            Kind::StellarDirect | Kind::StellarOpt => "stellar",
        }
    }

    pub fn is_opt(self) -> bool {
        matches!(self, Kind::CurvefitOpt | Kind::StellarOpt)
    }

    /// Ensemble shape: GA runs x generations (population and cores are
    /// the application's defaults, as the portal form leaves them).
    fn ensemble(self) -> (u32, u32) {
        match self {
            Kind::StellarOpt => (2, 30),
            _ => (2, 40),
        }
    }
}

pub struct SimRequest {
    pub kind: Kind,
    pub star: i64,
    pub observation: i64,
    /// Direct-run parameters in schema order (empty for optimizations).
    pub params: Vec<(&'static str, f64)>,
    pub ga_seed: u64,
}

/// `n` requests holding each kind in exactly its share, in seeded order.
pub fn requests(rng: &mut Rng, catalog: &Catalog, shares: &[(Kind, f64)], n: usize) -> Vec<SimRequest> {
    exact_mix(rng, shares, n)
        .into_iter()
        .map(|kind| {
            let app = amp_core::app::lookup(kind.app()).expect("built-in application");
            let target = &catalog.targets[rng.below(catalog.targets.len())];
            // The middle of each parameter's range: every model converges
            // there, so no operation fails by construction of the input.
            let params = if kind.is_opt() {
                Vec::new()
            } else {
                app.params().iter().map(|s| (s.name, s.lo + (s.hi - s.lo) * rng.range(0.3, 0.7))).collect()
            };
            SimRequest {
                kind,
                star: if kind.is_opt() { target.star } else { catalog.stars[rng.below(catalog.stars.len())].id },
                observation: if kind.app() == "stellar" { target.stellar_obs } else { target.curvefit_obs },
                params,
                ga_seed: rng.next_u64() >> 16,
            }
        })
        .collect()
}

impl SimRequest {
    /// The portal route and urlencoded form that submit this request.
    pub fn as_form(&self, allocation: i64) -> (String, String) {
        let mode = if self.kind.is_opt() { "optimization" } else { "direct" };
        let path = format!("/submit/{}/{mode}/{}", self.kind.app(), self.star);
        let mut form = format!("allocation={allocation}");
        if self.kind.is_opt() {
            let (runs, generations) = self.kind.ensemble();
            form.push_str(&format!("&observation={}&ga_runs={runs}&generations={generations}", self.observation));
        }
        for (name, value) in &self.params {
            form.push_str(&format!("&{name}={value}"));
        }
        (path, form)
    }

    /// The row the portal would have written for this request.
    pub fn as_row(&self, owner: i64, allocation: i64) -> Simulation {
        let app = amp_core::app::lookup(self.kind.app()).expect("built-in application");
        if self.kind.is_opt() {
            let (ga_runs, generations) = self.kind.ensemble();
            let spec = OptimizationSpec { ga_runs, generations, seed: self.ga_seed, ..app.resources().default_spec };
            Simulation::optimization_for(app.id(), self.star, owner, spec, self.observation, SITE, allocation, 0)
        } else {
            let mut values = serde_json::Map::new();
            for (name, value) in &self.params {
                values.insert(name.to_string(), serde_json::json!(*value));
            }
            Simulation::direct_for(app.id(), self.star, owner, serde_json::Value::Object(values), SITE, allocation, 0)
        }
    }
}
