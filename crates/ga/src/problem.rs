//! The optimization problem interface and test problems.

/// A fitness landscape over normalized parameters in [0,1)^n. Implementors
/// must be `Sync`: the engine evaluates a population through rayon's
/// `par_iter_mut` (MPIKAIA spread its population over 128 processors). In
/// this workspace that call runs sequentially (`compat/rayon`).
pub trait Problem: Sync {
    /// Number of normalized parameters.
    fn n_genes(&self) -> usize;

    /// Fitness of a phenotype; larger is better. Must be pure (the engine
    /// re-evaluates freely and in parallel).
    fn fitness(&self, phenotype: &[f64]) -> f64;

    /// Science-application label attributed to this problem's work in the
    /// engine's metrics (`ga_evals_total{app=...}` and friends).
    fn app_label(&self) -> &'static str {
        "default"
    }
}

/// Sphere test function: maximum 1.0 at `target`.
pub struct Sphere {
    pub target: Vec<f64>,
}

impl Problem for Sphere {
    fn n_genes(&self) -> usize {
        self.target.len()
    }

    fn fitness(&self, x: &[f64]) -> f64 {
        let d2: f64 = x
            .iter()
            .zip(self.target.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        1.0 / (1.0 + 50.0 * d2)
    }
}

/// A multimodal ripple landscape (Rastrigin-flavoured): global maximum at
/// `target`, many local optima — exercises the GA's ability to escape
/// local minima via its random seeding and mutation (paper §2).
pub struct Ripple {
    pub target: Vec<f64>,
}

impl Problem for Ripple {
    fn n_genes(&self) -> usize {
        self.target.len()
    }

    fn fitness(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(self.target.iter()) {
            let d = a - b;
            acc += d * d * 40.0 + 0.3 * (1.0 - (12.0 * std::f64::consts::PI * d).cos());
        }
        1.0 / (1.0 + acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_peaks_at_target() {
        let p = Sphere {
            target: vec![0.3, 0.7],
        };
        assert!((p.fitness(&[0.3, 0.7]) - 1.0).abs() < 1e-12);
        assert!(p.fitness(&[0.3, 0.7]) > p.fitness(&[0.4, 0.7]));
        assert!(p.fitness(&[0.4, 0.7]) > p.fitness(&[0.9, 0.1]));
    }

    #[test]
    fn ripple_has_local_structure_but_global_at_target() {
        let p = Ripple { target: vec![0.5] };
        let at = p.fitness(&[0.5]);
        for x in [0.1, 0.35, 0.62, 0.9] {
            assert!(at > p.fitness(&[x]));
        }
        // a local ripple: fitness is non-monotone on the way out
        let samples: Vec<f64> = (1..=20)
            .map(|i| p.fitness(&[0.5 + i as f64 * 0.01]))
            .collect();
        let monotone_down = samples.windows(2).all(|w| w[1] <= w[0]);
        assert!(!monotone_down, "expected ripples, got monotone decay");
        assert!((p.fitness(&[0.5]) - 1.0).abs() < 1e-12);
    }
}
