//! # amp-stellar — the forward asteroseismic model
//!
//! ASTEC stand-in for the AMP gateway reproduction (Woitaszek et al.,
//! GCE 2009): a deterministic synthetic stellar model mapping five physical
//! parameters (mass, metallicity Z, helium Y, mixing-length α, age) to
//! observables — T_eff, luminosity, radius, the p-mode pulsation spectrum —
//! plus the plot data AMP shows (HR-diagram track, Echelle diagram), the
//! observation/χ²-fitness layer the genetic algorithm optimizes, the
//! per-star execution-cost model behind the paper's 160×–180× iteration
//! convergence claim, and star catalogs for the portal.
//!
//! ```
//! use amp_stellar::{evolve, Domain, StellarParams};
//!
//! let sun = evolve(&StellarParams::sun(), &Domain::default()).unwrap();
//! assert!((sun.teff - 5772.0).abs() < 400.0);
//! assert!(sun.frequencies.len() > 30);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod cost;
pub mod freqs;
pub mod model;
pub mod observe;
pub mod params;
pub mod plots;

pub use catalog::{famous_stars, synthetic_sky, CatalogStar};
pub use cost::{cost_minutes, iteration_minutes, relative_cost};
pub use freqs::{echelle, EchellePoint, Mode};
pub use model::{evolution_track, evolve, ModelOutput, TrackPoint};
pub use observe::{chi_squared, fitness, synthesize, Constraint, ObservedMode, ObservedStar};
pub use params::{Bound, Domain, StellarParams};
pub use plots::{render_echelle_ascii, render_hr_ascii};

use std::fmt;

/// Failures of the forward model. These become AMP "model failures" (the
/// daemon's hold-state class) as opposed to grid transients.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Parameters outside the supported search domain.
    OutOfDomain(StellarParams),
    /// Genome of the wrong arity handed to the decoder.
    BadGenome(usize),
    /// Parameters inside the domain but outside the modelable grid
    /// (e.g. evolved far past the main-sequence turn-off).
    Unmodelable {
        params: StellarParams,
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::OutOfDomain(p) => write!(f, "parameters out of domain: {p:?}"),
            ModelError::BadGenome(n) => write!(f, "genome has {n} genes, expected 5"),
            ModelError::Unmodelable { params, detail } => {
                write!(f, "unmodelable parameters {params:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {}
