//! Star catalogs: the portal's local catalog entries and the synthetic
//! external ("SIMBAD-like") universe used for search fall-through.
//!
//! §4.2: AMP lets users "browse and search star catalogs"; unknown targets
//! are fetched from SIMBAD and imported. We have no SIMBAD, so we generate
//! a deterministic synthetic sky plus a handful of real, well-known stars
//! (the CAPTCHA answers among them).

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::params::{Domain, StellarParams};

/// One catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogStar {
    /// Common name, if any ("Alpha Centauri A").
    pub name: Option<String>,
    /// Henry Draper catalog number.
    pub hd_number: Option<u32>,
    /// Kepler Input Catalog number.
    pub kic_number: Option<u32>,
    /// Right ascension \[deg].
    pub ra: f64,
    /// Declination \[deg].
    pub dec: f64,
    /// Apparent V magnitude.
    pub vmag: f64,
    /// Whether Kepler observed this target (§4.2's search highlights stars
    /// "in the Kepler catalog").
    pub in_kepler_field: bool,
    /// Ground-truth parameters of the synthetic star (used to synthesize
    /// observations); None for the hand-curated famous stars.
    pub truth: Option<StellarParams>,
}

impl CatalogStar {
    /// Identifier string the portal displays and searches by.
    pub fn identifier(&self) -> String {
        if let Some(hd) = self.hd_number {
            format!("HD {hd}")
        } else if let Some(kic) = self.kic_number {
            format!("KIC {kic}")
        } else {
            self.name.clone().unwrap_or_else(|| "UNKNOWN".to_string())
        }
    }

    /// All searchable aliases.
    pub fn aliases(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(n) = &self.name {
            out.push(n.clone());
        }
        if let Some(hd) = self.hd_number {
            out.push(format!("HD {hd}"));
            out.push(format!("HD{hd}"));
        }
        if let Some(kic) = self.kic_number {
            out.push(format!("KIC {kic}"));
            out.push(format!("KIC{kic}"));
        }
        out
    }
}

/// Famous stars with their real HD numbers — these back the accessibility
/// CAPTCHA ("What is the HD number for Alpha Centauri?", §4.2).
pub fn famous_stars() -> Vec<CatalogStar> {
    let named = [
        ("Alpha Centauri", 128620u32, 219.9, -60.8, -0.27),
        ("Sirius", 48915, 101.3, -16.7, -1.46),
        ("Procyon", 61421, 114.8, 5.2, 0.34),
        ("Tau Ceti", 10700, 26.0, -15.9, 3.50),
        ("Beta Hydri", 2151, 6.4, -77.3, 2.80),
        ("Eta Bootis", 121370, 208.7, 18.4, 2.68),
        ("16 Cygni A", 186408, 295.5, 50.5, 5.96),
        ("Alpha CMi", 61421, 114.8, 5.2, 0.34),
    ];
    named
        .iter()
        .map(|&(name, hd, ra, dec, vmag)| CatalogStar {
            name: Some(name.to_string()),
            hd_number: Some(hd),
            kic_number: None,
            ra,
            dec,
            vmag,
            in_kepler_field: false,
            truth: None,
        })
        .collect()
}

/// Generate a deterministic synthetic sky of `n` Sun-like stars, a fraction
/// of them inside the Kepler field with KIC numbers.
pub fn synthetic_sky(n: usize, seed: u64) -> Vec<CatalogStar> {
    let domain = Domain::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let truth = StellarParams {
            mass: rng.random_range(domain.mass.lo..domain.mass.hi),
            metallicity: rng.random_range(domain.metallicity.lo..domain.metallicity.hi),
            helium: rng.random_range(domain.helium.lo..domain.helium.hi),
            alpha: rng.random_range(domain.alpha.lo..domain.alpha.hi),
            // keep synthetic targets on the main sequence where the model
            // is well behaved
            age: rng.random_range(1.0..9.0),
        };
        let in_kepler = rng.random_range(0.0..1.0) < 0.4;
        // Kepler's field sits around RA 291, Dec +44.5.
        let (ra, dec) = if in_kepler {
            (rng.random_range(280.0..302.0), rng.random_range(36.5..52.5))
        } else {
            (rng.random_range(0.0..360.0), rng.random_range(-90.0..90.0))
        };
        out.push(CatalogStar {
            name: None,
            hd_number: Some(200_000 + i as u32),
            kic_number: if in_kepler {
                Some(8_000_000 + i as u32)
            } else {
                None
            },
            ra,
            dec,
            vmag: rng.random_range(5.0..12.0),
            in_kepler_field: in_kepler,
            truth: Some(truth),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn famous_stars_include_captcha_answer() {
        let stars = famous_stars();
        let alpha_cen = stars
            .iter()
            .find(|s| s.name.as_deref() == Some("Alpha Centauri"))
            .unwrap();
        assert_eq!(alpha_cen.hd_number, Some(128620));
    }

    #[test]
    fn synthetic_sky_is_deterministic() {
        let a = synthetic_sky(50, 3);
        let b = synthetic_sky(50, 3);
        assert_eq!(a, b);
        let c = synthetic_sky(50, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_truths_are_in_domain() {
        let d = Domain::default();
        for s in synthetic_sky(200, 1) {
            let t = s.truth.unwrap();
            assert!(d.contains(&t), "{t:?}");
        }
    }

    #[test]
    fn kepler_targets_have_kic_and_field_coords() {
        let sky = synthetic_sky(300, 2);
        let in_field: Vec<_> = sky.iter().filter(|s| s.in_kepler_field).collect();
        assert!(in_field.len() > 60, "only {}", in_field.len());
        for s in &in_field {
            assert!(s.kic_number.is_some());
            assert!((280.0..302.0).contains(&s.ra));
        }
        assert!(sky.iter().any(|s| !s.in_kepler_field));
    }

    #[test]
    fn identifier_and_aliases() {
        let sky = synthetic_sky(3, 9);
        let s = &sky[0];
        assert!(s.identifier().starts_with("HD "));
        assert!(s.aliases().iter().any(|a| a.starts_with("HD")));
        let famous = famous_stars();
        assert_eq!(famous[0].aliases()[0], "Alpha Centauri");
    }
}
