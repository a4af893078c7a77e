//! Basic statistics used by the modeling pipeline: means, variance, Pearson
//! correlation (the paper's correlation screening), and relative-error
//! summaries.

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Relative error `|actual - predicted| / actual` as a percentage; infinity
/// when actual is 0 but predicted isn't.
pub fn relative_error_pct(actual: f64, predicted: f64) -> f64 {
    if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((actual - predicted) / actual).abs() * 100.0
    }
}

/// Accuracy summary over (actual, predicted) pairs: the Table 13/14 row —
/// fraction of predictions within 50/25/10/5 percent, plus the mean error.
#[derive(Debug, Clone, Default)]
pub struct AccuracySummary {
    /// Fraction of predictions within 50% of actual.
    pub within_50: f64,
    /// Fraction of predictions within 25% of actual.
    pub within_25: f64,
    /// Fraction of predictions within 10% of actual.
    pub within_10: f64,
    /// Fraction of predictions within 5% of actual.
    pub within_5: f64,
    /// Mean absolute relative error, in percent.
    pub mean_error_pct: f64,
    /// Number of (actual, predicted) pairs summarized.
    pub n: usize,
}

impl AccuracySummary {
    /// Summarize a set of (actual, predicted) pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> AccuracySummary {
        let n = pairs.len();
        if n == 0 {
            return AccuracySummary::default();
        }
        let errs: Vec<f64> = pairs.iter().map(|&(a, p)| relative_error_pct(a, p)).collect();
        let frac = |limit: f64| errs.iter().filter(|&&e| e <= limit).count() as f64 / n as f64;
        AccuracySummary {
            within_50: frac(50.0) * 100.0,
            within_25: frac(25.0) * 100.0,
            within_10: frac(10.0) * 100.0,
            within_5: frac(5.0) * 100.0,
            mean_error_pct: mean(
                &errs.iter().copied().filter(|e| e.is_finite()).collect::<Vec<_>>(),
            ),
            n,
        }
    }
}

/// Fixed-bin histogram over `[lo, hi]`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    let mut h = vec![0usize; bins];
    if hi <= lo || bins == 0 {
        return h;
    }
    for &x in xs {
        let t = ((x - lo) / (hi - lo) * bins as f64) as isize;
        let b = t.clamp(0, bins as isize - 1) as usize;
        h[b] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn accuracy_summary_counts() {
        // errors: 0%, 20%, 40%, 100%
        let pairs = [(1.0, 1.0), (1.0, 0.8), (1.0, 1.4), (1.0, 2.0)];
        let s = AccuracySummary::from_pairs(&pairs);
        assert_eq!(s.n, 4);
        assert!((s.within_50 - 75.0).abs() < 1e-9);
        assert!((s.within_25 - 50.0).abs() < 1e-9);
        assert!((s.within_10 - 25.0).abs() < 1e-9);
        assert!((s.within_5 - 25.0).abs() < 1e-9);
        assert!((s.mean_error_pct - 40.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins() {
        let h = histogram(&[0.0, 0.1, 0.5, 0.9, 1.0], 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 3]); // 0.5 falls in the upper bin
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert!(relative_error_pct(0.0, 1.0).is_infinite());
        assert!((relative_error_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
    }
}
