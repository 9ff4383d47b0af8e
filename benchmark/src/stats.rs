//! Order statistics over the samples a run collects.

/// The `q`-quantile (0..=1) of `sorted`, by linear interpolation.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// `None` when there are no samples: the metric is then not applicable.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| quantile_sorted(&sorted(samples.to_vec()), q))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// `selfcheck` judges spread exactly as the acceptance rule does.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed: with a clamped `j` Python extrapolates past the ends.
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 2.25));
    }
}
