//! Order statistics over run samples. Every reported timing is a median or a
//! percentile of these; nothing in the benchmark reports a mean of times.

/// `samples` sorted ascending; NaNs (which no clock produces) sort last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between the two
/// closest ranks; 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method: rank `q * (n + 1)`, clamped to the
/// data), so a spread computed here equals the one the driver computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Interquartile distance as a share of the median: the run-to-run spread a
/// metric's bound is compared against. 0 when the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert!((percentile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
