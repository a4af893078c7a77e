//! Multiple linear regression by normal equations.
//!
//! The paper fits its model coefficients with multiple linear regression in
//! R; we solve `(X^T X) b = X^T y` directly with Gaussian elimination and
//! report the same diagnostics: multiple R², residual standard deviation,
//! and the coefficients themselves (whose signs the paper uses as a validity
//! check — rendering work cannot have negative marginal cost).
//!
//! # Numerical scheme
//!
//! Feature magnitudes span many orders (pixel counts ~1e6 against intercept
//! columns of 1.0), and sliding refit windows routinely hold *exactly*
//! collinear columns (a constant data size makes `AP*CS` and `AP*SPR`
//! proportional). Raw normal equations with an absolute pivot tolerance are
//! unstable there, so the solve proceeds in three guarded steps:
//!
//! 1. **Column scaling.** Every feature column is divided by its max-abs
//!    value, so the scaled normal matrix has diagonal entries of comparable
//!    size and pivot comparisons are meaningful. All-zero columns are dropped
//!    outright (their coefficient is the prior's: exactly 0.0 for `fit`).
//! 2. **Relative pivot tolerance.** Rank is judged against the largest
//!    diagonal of the *scaled* normal matrix rather than an absolute 1e-12,
//!    so collinearity is detected regardless of feature magnitude. The count
//!    of accepted pivots is reported as [`LinearRegression::effective_rank`].
//! 3. **Ridge fallback.** When the scaled system is rank-deficient, it is
//!    re-solved with a small ridge term `lambda * I` (lambda relative to the
//!    mean diagonal), which splits the weight of collinear columns
//!    deterministically instead of amplifying cancellation noise into huge
//!    opposite-signed coefficient pairs. The fallback is surfaced as
//!    [`LinearRegression::condition_warning`] so refit loops and repro
//!    tables can report it. [`LinearRegression::fit_toward`] pulls the same
//!    ridge toward a prior model instead of toward zero, so a refit over a
//!    window that determines only some directions keeps the prior in the
//!    others.
//!
//! Coefficients are unscaled back to the original feature units, so
//! prediction is unchanged: `y = b . x` on raw features.

use crate::stats::mean;

/// Pivot threshold relative to the largest diagonal of the scaled normal
/// matrix. Scaled diagonals are O(n); exact collinearity leaves cancellation
/// noise around machine epsilon times that, so 1e-10 separates the two
/// regimes with orders of magnitude to spare on either side.
const REL_PIVOT_TOL: f64 = 1e-10;

/// Ridge term relative to the mean diagonal of the scaled normal matrix.
/// Large enough to dominate cancellation noise (~1e-16 relative), small
/// enough not to bias well-determined directions measurably.
const REL_RIDGE: f64 = 1e-8;

/// Ridge term of [`LinearRegression::fit_toward`], relative to the mean
/// diagonal. A ridge toward the model in force may be far stronger than one
/// toward zero. A refit window of near-repeated rows (render inputs that
/// drift in their fifth digit) leaves directions carrying ~1e-10 of the
/// scaled variance; at `REL_RIDGE` the solve still fits timing noise along
/// them (on `examples/adaptive_insitu.rs` the VR window gave slopes of
/// −1.2e-7 and −1.6e-8 and an intercept of 0.62 s, and was rejected). At
/// 1e-4 those directions keep the anchor, and a direction the window does
/// determine (a share of order one) is biased by ~1e-4 of its correction.
const REL_ANCHOR_RIDGE: f64 = 1e-4;

/// A fitted least-squares linear model `y = b . x`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    /// Coefficients, one per feature column (include a 1.0 column for an
    /// intercept).
    pub coeffs: Vec<f64>,
    /// Multiple R-squared.
    pub r_squared: f64,
    /// Residual standard deviation.
    pub residual_std: f64,
    /// Number of observations fitted.
    pub n: usize,
    /// True when the feature matrix was rank-deficient and the solve fell
    /// back to ridge regularization: individual coefficients of collinear
    /// columns are then a stable but arbitrary split, even though
    /// predictions inside the observed subspace remain accurate.
    pub condition_warning: bool,
    /// Number of linearly independent feature columns the solver found
    /// (equals `coeffs.len()` for a healthy fit).
    pub effective_rank: usize,
}

impl LinearRegression {
    /// Build a fit from known parts, assuming a well-conditioned solve
    /// (no warning, full rank). Handy for tests and hand-built model sets.
    pub fn with_stats(coeffs: Vec<f64>, r_squared: f64, residual_std: f64, n: usize) -> Self {
        let effective_rank = coeffs.len();
        LinearRegression {
            coeffs,
            r_squared,
            residual_std,
            n,
            condition_warning: false,
            effective_rank,
        }
    }

    /// Fit on rows of features against targets. Panics if shapes disagree or
    /// there are fewer rows than features.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> LinearRegression {
        let k = xs.first().map_or(0, Vec::len);
        LinearRegression::fit_ridged(xs, ys, &vec![0.0; k], REL_RIDGE)
    }

    /// [`LinearRegression::fit`] anchored at `prior` (one coefficient per
    /// feature column): a full-rank window gets the OLS answer, and a
    /// rank-deficient one solves the generalised ridge
    /// `min ‖Xβ − y‖² + λ‖S(β − prior)‖²` (`S` the column scaling, `λ` at
    /// `REL_ANCHOR_RIDGE`) instead of the ridge toward zero, so the window
    /// corrects `prior` only in the directions it determines. A column the
    /// window never exercises keeps its prior coefficient bit for bit.
    pub fn fit_toward(xs: &[Vec<f64>], ys: &[f64], prior: &[f64]) -> LinearRegression {
        LinearRegression::fit_ridged(xs, ys, prior, REL_ANCHOR_RIDGE)
    }

    /// The one solve: OLS, or on a rank-deficient window the ridge of
    /// relative weight `rel_ridge` toward `prior`.
    #[allow(clippy::needless_range_loop, reason = "triangular fills read clearest indexed")]
    fn fit_ridged(xs: &[Vec<f64>], ys: &[f64], prior: &[f64], rel_ridge: f64) -> LinearRegression {
        assert_eq!(xs.len(), ys.len(), "row count mismatch");
        let n = xs.len();
        assert!(n > 0, "no observations");
        let k = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == k), "ragged feature rows");
        assert!(n >= k, "need at least as many observations as features");
        assert_eq!(prior.len(), k, "one prior coefficient per feature column");

        // Column scales (max-abs); all-zero columns are dropped predictors.
        let mut scale = vec![0.0f64; k];
        for row in xs {
            for j in 0..k {
                scale[j] = scale[j].max(row[j].abs());
            }
        }
        let active: Vec<usize> = (0..k).filter(|&j| scale[j] > 0.0).collect();
        let m = active.len();

        // Scaled normal equations over the active columns:
        // A = S X^T X S (m x m), b = S X^T y, with S = diag(1/scale).
        let mut a = vec![vec![0.0f64; m]; m];
        let mut b = vec![0.0f64; m];
        for (row, &y) in xs.iter().zip(ys.iter()) {
            for (ii, &i) in active.iter().enumerate() {
                let xi = row[i] / scale[i];
                b[ii] += xi * y;
                for (jj, &j) in active.iter().enumerate().skip(ii) {
                    a[ii][jj] += xi * row[j] / scale[j];
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                a[i][j] = a[j][i];
            }
        }

        let (solution, effective_rank) = solve(a.clone(), b.clone());
        let condition_warning = effective_rank < m;
        let solution = if condition_warning {
            // Rank-deficient window: re-solve with a ridge term toward the
            // prior's scaled coefficients, which keeps collinear splits
            // bounded and deterministic and leaves the prior standing in the
            // directions the window does not determine.
            let mean_diag = (0..m).map(|i| a[i][i]).sum::<f64>() / m.max(1) as f64;
            let lambda = rel_ridge * mean_diag.max(f64::MIN_POSITIVE);
            for (ii, &i) in active.iter().enumerate() {
                a[ii][ii] += lambda;
                if prior[i] != 0.0 {
                    b[ii] += lambda * prior[i] * scale[i];
                }
            }
            solve(a, b).0
        } else {
            solution
        };

        // Unscale back to raw-feature coefficients; a dropped column keeps
        // its prior.
        let mut coeffs = prior.to_vec();
        for (ii, &i) in active.iter().enumerate() {
            coeffs[i] = solution[ii] / scale[i];
        }

        // Diagnostics.
        let ym = mean(ys);
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        let mut ss_y = 0.0;
        for (row, &y) in xs.iter().zip(ys.iter()) {
            let pred: f64 = row.iter().zip(coeffs.iter()).map(|(x, c)| x * c).sum();
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - ym) * (y - ym);
            ss_y += y * y;
        }
        // Constant targets (ss_tot == 0) explain nothing: R² is 1 only if the
        // fit actually reproduces them, not merely because there is no
        // variance to explain.
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else if ss_res <= 1e-24 * ss_y.max(f64::MIN_POSITIVE) {
            1.0
        } else {
            0.0
        };
        let dof = (n as f64 - k as f64).max(1.0);
        LinearRegression {
            coeffs,
            r_squared,
            residual_std: (ss_res / dof).sqrt(),
            n,
            condition_warning,
            effective_rank,
        }
    }

    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        row.iter().zip(self.coeffs.iter()).map(|(x, c)| x * c).sum()
    }

    /// True if every coefficient is non-negative (the paper's plausibility
    /// check for rendering-cost models).
    pub fn all_coeffs_nonnegative(&self) -> bool {
        self.coeffs.iter().all(|&c| c >= 0.0)
    }
}

/// Solve a small dense SPD-ish system with Gaussian elimination + partial
/// pivoting and a pivot tolerance relative to the largest diagonal. Returns
/// the solution and the number of accepted pivots (the effective rank);
/// degenerate columns get zero coefficients.
#[allow(clippy::needless_range_loop, reason = "index form mirrors the linear algebra")]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> (Vec<f64>, usize) {
    let k = b.len();
    let max_diag = (0..k).fold(0.0f64, |acc, i| acc.max(a[i][i].abs()));
    let tol = REL_PIVOT_TOL * max_diag.max(f64::MIN_POSITIVE);
    let mut rank = 0usize;
    for col in 0..k {
        // Pivot.
        let mut piv = col;
        for r in col + 1..k {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        if a[piv][col].abs() < tol {
            // Degenerate column: zero it out (coefficient becomes 0).
            for r in 0..k {
                a[r][col] = 0.0;
            }
            a[col][col] = 1.0;
            b[col] = 0.0;
            continue;
        }
        rank += 1;
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        for v in a[col].iter_mut() {
            *v /= d;
        }
        b[col] /= d;
        for r in 0..k {
            if r != col {
                let f = a[r][col];
                if f != 0.0 {
                    for c in 0..k {
                        a[r][c] -= f * a[col][c];
                    }
                    b[r] -= f * b[col];
                }
            }
        }
    }
    (b, rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_coefficients() {
        // y = 2*x0 + 0.5*x1 + 3 (intercept via constant column).
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..50 {
            let x0 = i as f64;
            let x1 = (i * i % 17) as f64;
            xs.push(vec![x0, x1, 1.0]);
            ys.push(2.0 * x0 + 0.5 * x1 + 3.0);
        }
        let fit = LinearRegression::fit(&xs, &ys);
        assert!((fit.coeffs[0] - 2.0).abs() < 1e-8, "{:?}", fit.coeffs);
        assert!((fit.coeffs[1] - 0.5).abs() < 1e-8);
        assert!((fit.coeffs[2] - 3.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999999);
        assert!(fit.residual_std < 1e-6);
        assert!(fit.all_coeffs_nonnegative());
        assert!(!fit.condition_warning);
        assert_eq!(fit.effective_rank, 3);
    }

    #[test]
    fn noisy_fit_has_sane_r2() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        // Deterministic pseudo-noise.
        for i in 0..200 {
            let x = i as f64;
            let noise = ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5) * 10.0;
            xs.push(vec![x, 1.0]);
            ys.push(5.0 * x + noise);
        }
        let fit = LinearRegression::fit(&xs, &ys);
        assert!((fit.coeffs[0] - 5.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
        assert!(fit.residual_std > 0.0);
    }

    #[test]
    fn degenerate_column_dropped() {
        // Second feature is all zeros.
        let xs = vec![vec![1.0, 0.0, 1.0], vec![2.0, 0.0, 1.0], vec![3.0, 0.0, 1.0]];
        let ys = vec![2.0, 4.0, 6.0];
        let fit = LinearRegression::fit(&xs, &ys);
        assert!((fit.coeffs[0] - 2.0).abs() < 1e-9);
        assert_eq!(fit.coeffs[1], 0.0);
        // An absent predictor is not an ill-conditioned one.
        assert!(!fit.condition_warning);
        assert_eq!(fit.effective_rank, 2);
    }

    #[test]
    fn predict_matches_fit() {
        let xs = vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![3.0, 1.0]];
        let ys = vec![3.0, 5.0, 7.0];
        let fit = LinearRegression::fit(&xs, &ys);
        assert!((fit.predict(&[10.0, 1.0]) - 21.0).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn shape_mismatch_panics() {
        LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0]);
    }

    /// Constant targets the features cannot reproduce must report R² = 0,
    /// not the vacuous 1.0 the seed solver produced when `ss_tot == 0`.
    #[test]
    fn constant_target_with_residuals_reports_zero_r2() {
        // One varying feature, no intercept: y = 5 everywhere is unfittable.
        let xs: Vec<Vec<f64>> = (1..=8).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 8];
        let fit = LinearRegression::fit(&xs, &ys);
        assert!(fit.residual_std > 0.0, "fit cannot be exact");
        assert_eq!(fit.r_squared, 0.0, "constant target with residuals must not claim R²=1");

        // With an intercept the constant *is* reproduced exactly: R² = 1.
        let xs2: Vec<Vec<f64>> = (1..=8).map(|i| vec![i as f64, 1.0]).collect();
        let fit2 = LinearRegression::fit(&xs2, &ys);
        assert_eq!(fit2.r_squared, 1.0, "exactly fitted constant keeps R²=1");
    }

    /// The ROADMAP ill-conditioning caveat, reproduced at the regression
    /// layer: exactly collinear columns at large magnitude. The seed's
    /// absolute 1e-12 pivot let cancellation noise (~1e-1 here) pass as a
    /// pivot, splitting the pair into huge opposite-signed coefficients. The
    /// scaled ridge solve must keep the split bounded, non-negative, and
    /// flagged — while in-subspace predictions stay accurate.
    #[test]
    fn collinear_large_magnitude_columns_are_stable() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 1..=20 {
            let ap = 1e5 * i as f64;
            // Constant per-window data size: column1 = 140 * ap, column2 =
            // 310 * ap — exactly proportional, at ~1e7..1e8 magnitude.
            xs.push(vec![ap * 140.0, ap * 310.0, 1.0]);
            ys.push(2e-10 * ap * 140.0 + 1e-9 * ap * 310.0 + 1e-2);
        }
        let fit = LinearRegression::fit(&xs, &ys);
        assert!(fit.condition_warning, "collinear window must be flagged");
        assert_eq!(fit.effective_rank, 2, "one of three directions is redundant");
        for (j, &c) in fit.coeffs.iter().take(2).enumerate() {
            assert!(c.is_finite() && c.abs() < 1e-6, "coeff {j} exploded: {c:e}");
        }
        assert!((fit.coeffs[2] - 1e-2).abs() < 1e-4, "intercept drifted: {:e}", fit.coeffs[2]);
        assert!(fit.all_coeffs_nonnegative(), "{:?}", fit.coeffs);
        // Predictions inside the observed subspace stay accurate.
        for (row, &y) in xs.iter().zip(ys.iter()) {
            let p = fit.predict(row);
            assert!((p - y).abs() / y < 1e-4, "pred {p} vs {y}");
        }
        // And the split is deterministic: refitting reproduces it bit-exactly.
        let again = LinearRegression::fit(&xs, &ys);
        for (a, b) in fit.coeffs.iter().zip(again.coeffs.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Wildly mismatched column magnitudes (the pixel-count vs intercept
    /// situation) must not degrade recovery: scaling makes the normal
    /// equations well-conditioned.
    #[test]
    fn mixed_magnitude_columns_recover_exactly() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 1..=30 {
            let big = 1e9 * (i as f64 + (i * i % 7) as f64);
            let small = 1e-6 * ((i * 3) % 11 + 1) as f64;
            xs.push(vec![big, small, 1.0]);
            ys.push(3e-12 * big + 2e4 * small + 0.5);
        }
        let fit = LinearRegression::fit(&xs, &ys);
        assert!(!fit.condition_warning);
        assert_eq!(fit.effective_rank, 3);
        assert!((fit.coeffs[0] - 3e-12).abs() / 3e-12 < 1e-6, "{:?}", fit.coeffs);
        assert!((fit.coeffs[1] - 2e4).abs() / 2e4 < 1e-6);
        assert!((fit.coeffs[2] - 0.5).abs() < 1e-6);
    }

    /// A window of one repeated row determines one direction. The fit
    /// anchored at a prior moves the prediction at that row to the window's
    /// mean and keeps the prior's prediction, bit for bit, at a row
    /// S-orthogonal to it (for non-negative features: a row on the columns
    /// the window never exercises).
    #[test]
    fn anchored_fit_corrects_the_prior_only_where_the_window_speaks() {
        let prior = vec![2e-7, 3e-7, 5e-3, 1e-2];
        let row = vec![4.0e4, 1.2e5, 0.0, 1.0];
        let xs = vec![row.clone(); 4];
        let ys = [0.05, 0.07, 0.06, 0.062];
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let fit = LinearRegression::fit_toward(&xs, &ys, &prior);
        assert!(fit.condition_warning && fit.effective_rank == 1, "{fit:?}");
        assert!((fit.predict(&row) - mean).abs() / mean < 1e-4, "{fit:?}");
        let orthogonal = [0.0, 0.0, 7.5, 0.0];
        let unmoved = LinearRegression::with_stats(prior.clone(), 0.0, 0.0, 0);
        assert_eq!(fit.predict(&orthogonal).to_bits(), unmoved.predict(&orthogonal).to_bits());
        // The correction lies along the scaled row: each scaled coefficient
        // moves by the same amount.
        let moved: Vec<f64> = [0, 1, 3].map(|i| (fit.coeffs[i] - prior[i]) * row[i]).to_vec();
        assert!(moved.iter().all(|m| (m - moved[0]).abs() <= 1e-6 * moved[0].abs()), "{moved:?}");
        // The plain fit drops the unexercised column to zero instead.
        assert_eq!(LinearRegression::fit(&xs, &ys).coeffs[2], 0.0);
    }

    /// On a full-rank window the anchored fit is the OLS fit, bit for bit.
    #[test]
    fn anchored_fit_of_a_full_rank_window_is_ols() {
        let xs: Vec<Vec<f64>> =
            (0..12).map(|i| vec![i as f64, ((i * i) % 7) as f64, 1.0]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|x| 2.0 * x[0] + 0.5 * x[1] + 3.0 + 1e-3 * x[1] * x[1]).collect();
        let ols = LinearRegression::fit(&xs, &ys);
        let anchored = LinearRegression::fit_toward(&xs, &ys, &[9.0, 9.0, 9.0]);
        assert!(!anchored.condition_warning);
        assert_eq!(anchored.coeffs, ols.coeffs);
    }
}
