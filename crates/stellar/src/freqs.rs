//! P-mode pulsation frequencies and the Echelle representation.
//!
//! Frequencies follow the asymptotic relation
//! `ν(n,l) ≈ Δν (n + l/2 + ε) − l(l+1) D0 + curvature`, the standard
//! description of solar-like oscillations that the MPIKAIA pipeline fits.

use serde::{Deserialize, Serialize};

use crate::params::StellarParams;

/// One oscillation mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mode {
    /// Spherical degree (0, 1, 2).
    pub l: u8,
    /// Radial order.
    pub n: u32,
    /// Frequency \[µHz].
    pub frequency: f64,
}

/// Degrees observed photometrically by Kepler.
pub const DEGREES: [u8; 3] = [0, 1, 2];

/// Radial orders spanned around `nu_max` on each side.
pub const ORDERS_EACH_SIDE: u32 = 8;

/// Phase offset ε of the asymptotic relation; weak functions of the model
/// parameters so the GA cannot fit frequencies from Δν alone.
fn epsilon(p: &StellarParams) -> f64 {
    1.25 + 0.3 * (p.alpha - 1.9) / 1.9 + 0.8 * (p.metallicity - 0.018)
}

/// Small-separation scale D0 [µHz]: sensitive to core structure, hence to
/// age and helium — the parameters asteroseismology actually constrains.
fn d0(p: &StellarParams) -> f64 {
    let base = 1.5 * (1.0 - 0.06 * (p.age - 4.6)) * (1.0 + 1.2 * (p.helium - 0.27));
    base.max(0.05)
}

/// Generate the mode set around `nu_max`.
pub fn mode_frequencies(p: &StellarParams, delta_nu: f64, nu_max: f64) -> Vec<Mode> {
    let eps = epsilon(p);
    let d0 = d0(p);
    let n_max = (nu_max / delta_nu - eps).round().max(2.0) as i64;
    let lo = (n_max - ORDERS_EACH_SIDE as i64).max(1) as u32;
    let hi = n_max as u32 + ORDERS_EACH_SIDE;
    let mut out = Vec::with_capacity(DEGREES.len() * (hi - lo + 1) as usize);
    for l in DEGREES {
        for n in lo..=hi {
            // Second-order curvature term bends the ridge slightly, as real
            // Echelle diagrams do.
            let curvature = 0.07 * delta_nu * ((n as f64 - n_max as f64) / 10.0).powi(2);
            let nu = delta_nu * (n as f64 + l as f64 / 2.0 + eps)
                - (l as f64) * (l as f64 + 1.0) * d0
                + curvature;
            out.push(Mode {
                l,
                n,
                frequency: nu,
            });
        }
    }
    out.sort_by(|a, b| a.frequency.total_cmp(&b.frequency));
    out
}

/// Mean d02 small separation ⟨ν(n,0) − ν(n−1,2)⟩.
pub fn mean_small_separation(modes: &[Mode]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for m0 in modes.iter().filter(|m| m.l == 0) {
        if let Some(m2) = modes.iter().find(|m| m.l == 2 && m.n + 1 == m0.n) {
            sum += m0.frequency - m2.frequency;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// A point in the Echelle diagram: frequency modulo Δν vs frequency (§2:
/// "an Echelle plot summarizing the star's oscillation frequencies").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EchellePoint {
    pub l: u8,
    pub frequency: f64,
    pub modulo: f64,
}

/// Fold the mode set for the Echelle plot.
pub fn echelle(modes: &[Mode], delta_nu: f64) -> Vec<EchellePoint> {
    modes
        .iter()
        .map(|m| EchellePoint {
            l: m.l,
            frequency: m.frequency,
            modulo: m.frequency.rem_euclid(delta_nu),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StellarParams;

    fn modes() -> Vec<Mode> {
        mode_frequencies(&StellarParams::benchmark(), 135.1, 3090.0)
    }

    #[test]
    fn mode_count_and_sorted() {
        let m = modes();
        assert_eq!(m.len(), 3 * (2 * ORDERS_EACH_SIDE as usize + 1));
        assert!(m.windows(2).all(|w| w[0].frequency <= w[1].frequency));
    }

    #[test]
    fn consecutive_radial_orders_separated_by_delta_nu() {
        let m = modes();
        let radial: Vec<&Mode> = m.iter().filter(|x| x.l == 0).collect();
        for w in radial.windows(2) {
            let sep = w[1].frequency - w[0].frequency;
            assert!(
                (sep - 135.1).abs() < 135.1 * 0.08,
                "separation {sep} far from delta_nu"
            );
        }
    }

    #[test]
    fn small_separation_positive_for_ms_star() {
        let m = modes();
        let d02 = mean_small_separation(&m);
        assert!(d02 > 0.0 && d02 < 30.0, "d02 = {d02}");
    }

    #[test]
    fn small_separation_decreases_with_age() {
        let young = mode_frequencies(
            &StellarParams {
                age: 1.0,
                ..StellarParams::benchmark()
            },
            135.1,
            3090.0,
        );
        let old = mode_frequencies(
            &StellarParams {
                age: 9.0,
                ..StellarParams::benchmark()
            },
            135.1,
            3090.0,
        );
        assert!(mean_small_separation(&old) < mean_small_separation(&young));
    }

    #[test]
    fn echelle_modulo_in_range() {
        let m = modes();
        for pt in echelle(&m, 135.1) {
            assert!(pt.modulo >= 0.0 && pt.modulo < 135.1);
        }
    }

    #[test]
    fn empty_modes_zero_small_separation() {
        assert_eq!(mean_small_separation(&[]), 0.0);
    }
}
