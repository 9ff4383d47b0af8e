//! Stellar model input parameters and their validity domain.
//!
//! The paper (§2): ASTEC "takes as input five floating-point physical
//! parameters (mass, metallicity, helium mass fraction, and convective
//! efficiency) and constructs a model of the star's evolution through a
//! specified age". The five inputs here are exactly those, with domain
//! bounds matching the Sun-like stars AMP targets.

use serde::{Deserialize, Serialize};

use crate::ModelError;

/// The five ASTEC input parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StellarParams {
    /// Stellar mass in solar masses.
    pub mass: f64,
    /// Heavy-element mass fraction Z.
    pub metallicity: f64,
    /// Helium mass fraction Y.
    pub helium: f64,
    /// Convective mixing-length efficiency alpha.
    pub alpha: f64,
    /// Age in Gyr at which the evolution stops.
    pub age: f64,
}

/// Inclusive lower/upper bound for one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lo: f64,
    pub hi: f64,
}

impl Bound {
    pub fn contains(&self, v: f64) -> bool {
        v.is_finite() && v >= self.lo && v <= self.hi
    }

    /// Map a normalized coordinate in \[0,1] into the bound.
    pub fn denormalize(&self, t: f64) -> f64 {
        self.lo + (self.hi - self.lo) * t.clamp(0.0, 1.0)
    }

    /// Map a value in the bound to \[0,1].
    pub fn normalize(&self, v: f64) -> f64 {
        if self.hi == self.lo {
            0.0
        } else {
            ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
        }
    }
}

/// The search domain used by the AMP optimization pipeline (Sun-like stars
/// observable by Kepler).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    pub mass: Bound,
    pub metallicity: Bound,
    pub helium: Bound,
    pub alpha: Bound,
    pub age: Bound,
}

impl Default for Domain {
    fn default() -> Self {
        Domain {
            mass: Bound { lo: 0.75, hi: 1.75 },
            metallicity: Bound {
                lo: 0.002,
                hi: 0.050,
            },
            helium: Bound { lo: 0.22, hi: 0.32 },
            alpha: Bound { lo: 1.0, hi: 3.0 },
            age: Bound { lo: 0.1, hi: 13.0 },
        }
    }
}

impl Domain {
    /// Number of model parameters (genome length for the GA).
    pub const N_PARAMS: usize = 5;

    pub fn contains(&self, p: &StellarParams) -> bool {
        self.mass.contains(p.mass)
            && self.metallicity.contains(p.metallicity)
            && self.helium.contains(p.helium)
            && self.alpha.contains(p.alpha)
            && self.age.contains(p.age)
    }

    /// Validate, returning a model-failure error (the kind AMP's daemon
    /// escalates to a hold state) for out-of-domain input.
    pub fn check(&self, p: &StellarParams) -> Result<(), ModelError> {
        if self.contains(p) {
            Ok(())
        } else {
            Err(ModelError::OutOfDomain(*p))
        }
    }

    /// Decode a normalized GA genome (\[0,1]^5) into physical parameters.
    pub fn decode(&self, genome: &[f64]) -> Result<StellarParams, ModelError> {
        if genome.len() != Self::N_PARAMS {
            return Err(ModelError::BadGenome(genome.len()));
        }
        Ok(StellarParams {
            mass: self.mass.denormalize(genome[0]),
            metallicity: self.metallicity.denormalize(genome[1]),
            helium: self.helium.denormalize(genome[2]),
            alpha: self.alpha.denormalize(genome[3]),
            age: self.age.denormalize(genome[4]),
        })
    }

    /// Encode physical parameters as a normalized genome.
    pub fn encode(&self, p: &StellarParams) -> [f64; Self::N_PARAMS] {
        [
            self.mass.normalize(p.mass),
            self.metallicity.normalize(p.metallicity),
            self.helium.normalize(p.helium),
            self.alpha.normalize(p.alpha),
            self.age.normalize(p.age),
        ]
    }
}

impl StellarParams {
    /// The calibration star for benchmarks: an *evolved* solar analogue
    /// (1.0 M_sun at 9.5 Gyr, at the cost model's saturation point) whose
    /// run time defines each system's Table 1 benchmark (relative cost
    /// exactly 1.0). The paper benchmarked with a near-worst-case model
    /// run — typical Kepler targets evolve to younger ages and run ~20%
    /// faster, which is exactly how 200 iterations fit in ~160x the
    /// benchmark time.
    pub fn benchmark() -> Self {
        StellarParams {
            mass: 1.0,
            metallicity: 0.018,
            helium: 0.27,
            alpha: 1.9,
            age: 9.5,
        }
    }

    /// The Sun, for reference outputs.
    pub fn sun() -> Self {
        StellarParams {
            mass: 1.0,
            metallicity: 0.018,
            helium: 0.27,
            alpha: 1.9,
            age: 4.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_domain_contains_benchmark() {
        let d = Domain::default();
        assert!(d.contains(&StellarParams::benchmark()));
        assert!(d.check(&StellarParams::benchmark()).is_ok());
    }

    #[test]
    fn out_of_domain_rejected() {
        let d = Domain::default();
        let mut p = StellarParams::benchmark();
        p.mass = 5.0;
        assert!(!d.contains(&p));
        assert!(matches!(d.check(&p), Err(ModelError::OutOfDomain(_))));
        p.mass = f64::NAN;
        assert!(!d.contains(&p));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = Domain::default();
        let p = StellarParams {
            mass: 1.3,
            metallicity: 0.02,
            helium: 0.25,
            alpha: 2.2,
            age: 6.0,
        };
        let g = d.encode(&p);
        let p2 = d.decode(&g).unwrap();
        assert!((p.mass - p2.mass).abs() < 1e-12);
        assert!((p.age - p2.age).abs() < 1e-12);
    }

    #[test]
    fn decode_clamps_and_checks_arity() {
        let d = Domain::default();
        let p = d.decode(&[2.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        assert_eq!(p.mass, d.mass.hi);
        assert_eq!(p.metallicity, d.metallicity.lo);
        assert!(matches!(
            d.decode(&[0.5, 0.5]),
            Err(ModelError::BadGenome(2))
        ));
    }

    #[test]
    fn bound_normalize_degenerate() {
        let b = Bound { lo: 1.0, hi: 1.0 };
        assert_eq!(b.normalize(1.0), 0.0);
    }
}
