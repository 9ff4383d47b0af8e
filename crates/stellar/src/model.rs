//! The forward stellar model — our ASTEC stand-in.
//!
//! ASTEC itself is a Fortran stellar-evolution code; AMP treats it as a
//! black box mapping five parameters to observables plus plot data (paper
//! §2). This module implements a smooth, deterministic synthetic model
//! built from homology scaling relations: physically *shaped* (radius grows
//! with age, luminosity rises steeply with mass, Δν follows the mean-density
//! scaling), so the GA faces a realistic correlated, non-separable
//! optimization landscape, while remaining fast enough to run hundreds of
//! thousands of times inside the simulator.

use serde::{Deserialize, Serialize};

use crate::freqs::{self, Mode};
use crate::params::{Domain, StellarParams};
use crate::ModelError;

/// Solar calibration constants.
pub const TEFF_SUN_K: f64 = 5772.0;
pub const DELTA_NU_SUN_UHZ: f64 = 135.1;
pub const NU_MAX_SUN_UHZ: f64 = 3090.0;

/// Scalar observables produced by one forward-model evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOutput {
    pub params: StellarParams,
    /// Effective temperature \[K].
    pub teff: f64,
    /// Luminosity \[L_sun].
    pub luminosity: f64,
    /// Radius \[R_sun].
    pub radius: f64,
    /// Surface gravity log g [cgs dex].
    pub log_g: f64,
    /// Large frequency separation \[µHz].
    pub delta_nu: f64,
    /// Frequency of maximum oscillation power \[µHz].
    pub nu_max: f64,
    /// Mean small separation d02 \[µHz].
    pub small_separation: f64,
    /// Individual p-mode frequencies.
    pub frequencies: Vec<Mode>,
}

/// A point on the evolution track (for the Hertzsprung–Russell diagram the
/// portal plots, §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    pub age_gyr: f64,
    pub teff: f64,
    pub luminosity: f64,
}

/// Radius in solar units at a given age: slow main-sequence expansion,
/// accelerating toward the subgiant turn-off for higher masses.
fn radius(p: &StellarParams) -> f64 {
    // Main-sequence lifetime shortens steeply with mass.
    let t_ms = 10.0 * p.mass.powf(-2.8); // Gyr
    let x = (p.age / t_ms).min(1.6); // fractional MS age, capped post-turnoff
    let zams = p.mass.powf(0.89) * (1.0 + 0.15 * (p.metallicity / 0.018 - 1.0).tanh() * 0.2);
    // Convective efficiency: higher alpha -> slightly more compact envelope.
    let alpha_term = 1.0 - 0.04 * (p.alpha - 1.9) / 1.9;
    zams * alpha_term * (1.0 + 0.35 * x.powf(1.6) + 0.55 * (x - 1.0).max(0.0).powi(2))
}

/// Luminosity in solar units.
fn luminosity(p: &StellarParams) -> f64 {
    let t_ms = 10.0 * p.mass.powf(-2.8);
    let x = (p.age / t_ms).min(1.6);
    let zams =
        p.mass.powf(4.3) * (p.metallicity / 0.018).powf(-0.12) * (1.0 + 1.8 * (p.helium - 0.27));
    zams * (1.0 + 0.9 * x.powf(1.4))
}

/// Run the forward model at the requested age.
///
/// Fails with [`ModelError::OutOfDomain`] outside the supported parameter
/// space — the "model failure" class that AMP's daemon escalates (§4.4).
pub fn evolve(p: &StellarParams, domain: &Domain) -> Result<ModelOutput, ModelError> {
    domain.check(p)?;
    let r = radius(p);
    let l = luminosity(p);
    let teff = TEFF_SUN_K * (l / (r * r)).powf(0.25);
    if !teff.is_finite() || !(4000.0..=8000.0).contains(&teff) {
        // Evolved off the grid the (synthetic) pulsation tables cover.
        return Err(ModelError::Unmodelable {
            params: *p,
            detail: format!("Teff {teff:.0} K outside pulsation grid"),
        });
    }
    let log_g = 4.438 + (p.mass / (r * r)).log10();
    let delta_nu = DELTA_NU_SUN_UHZ * (p.mass / r.powi(3)).sqrt();
    let nu_max = NU_MAX_SUN_UHZ * p.mass / (r * r * (teff / TEFF_SUN_K).sqrt());
    let frequencies = freqs::mode_frequencies(p, delta_nu, nu_max);
    let small_separation = freqs::mean_small_separation(&frequencies);
    Ok(ModelOutput {
        params: *p,
        teff,
        luminosity: l,
        radius: r,
        log_g,
        delta_nu,
        nu_max,
        small_separation,
        frequencies,
    })
}

/// Evolution track from ZAMS to the requested age (HR-diagram plot data).
pub fn evolution_track(
    p: &StellarParams,
    domain: &Domain,
    points: usize,
) -> Result<Vec<TrackPoint>, ModelError> {
    domain.check(p)?;
    let points = points.max(2);
    let mut out = Vec::with_capacity(points);
    for i in 0..points {
        let age = domain.age.lo + (p.age - domain.age.lo) * i as f64 / (points - 1) as f64;
        let q = StellarParams { age, ..*p };
        let r = radius(&q);
        let l = luminosity(&q);
        out.push(TrackPoint {
            age_gyr: age,
            teff: TEFF_SUN_K * (l / (r * r)).powf(0.25),
            luminosity: l,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sun() -> ModelOutput {
        evolve(&StellarParams::sun(), &Domain::default()).unwrap()
    }

    #[test]
    fn sun_is_roughly_solar() {
        let s = sun();
        assert!((s.radius - 1.0).abs() < 0.25, "R = {}", s.radius);
        assert!((s.luminosity - 1.0).abs() < 0.5, "L = {}", s.luminosity);
        assert!((s.teff - TEFF_SUN_K).abs() < 400.0, "Teff = {}", s.teff);
        assert!((s.delta_nu - DELTA_NU_SUN_UHZ).abs() < 30.0);
        assert!(s.nu_max > 2000.0 && s.nu_max < 4500.0);
        assert!((s.log_g - 4.44).abs() < 0.2);
    }

    #[test]
    fn luminosity_increases_with_mass() {
        let d = Domain::default();
        let mut prev = 0.0;
        for m in [0.8, 1.0, 1.2, 1.4] {
            let p = StellarParams {
                mass: m,
                ..StellarParams::benchmark()
            };
            let out = evolve(&p, &d).unwrap();
            assert!(out.luminosity > prev);
            prev = out.luminosity;
        }
    }

    #[test]
    fn radius_grows_with_age() {
        let d = Domain::default();
        let young = evolve(
            &StellarParams {
                age: 1.0,
                ..StellarParams::benchmark()
            },
            &d,
        )
        .unwrap();
        let old = evolve(
            &StellarParams {
                age: 9.0,
                ..StellarParams::benchmark()
            },
            &d,
        )
        .unwrap();
        assert!(old.radius > young.radius);
        // larger radius at fixed mass -> lower mean density -> smaller delta_nu
        assert!(old.delta_nu < young.delta_nu);
    }

    #[test]
    fn deterministic() {
        let a = sun();
        let b = sun();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_domain_is_error() {
        let d = Domain::default();
        let p = StellarParams {
            mass: 3.0,
            ..StellarParams::benchmark()
        };
        assert!(evolve(&p, &d).is_err());
    }

    #[test]
    fn hot_evolved_star_unmodelable() {
        let d = Domain::default();
        // massive + very old -> far past turn-off -> off the grid
        let p = StellarParams {
            mass: 1.75,
            age: 13.0,
            ..StellarParams::benchmark()
        };
        match evolve(&p, &d) {
            Err(ModelError::Unmodelable { .. }) | Ok(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn track_is_monotone_in_age_and_ends_at_target() {
        let d = Domain::default();
        let p = StellarParams::benchmark();
        let track = evolution_track(&p, &d, 20).unwrap();
        assert_eq!(track.len(), 20);
        assert!((track.last().unwrap().age_gyr - p.age).abs() < 1e-9);
        for w in track.windows(2) {
            assert!(w[1].age_gyr > w[0].age_gyr);
            assert!(w[1].luminosity >= w[0].luminosity);
        }
    }

    #[test]
    fn frequencies_are_generated() {
        let s = sun();
        assert!(s.frequencies.len() > 30);
        assert!(s.small_separation > 0.0 && s.small_separation < 25.0);
    }
}
