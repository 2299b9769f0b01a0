//! Ordinary least squares and log–log scaling fits.
//!
//! The Theorem 3 and Theorem 18 experiments check *scaling shapes*:
//! flooding time against `L/R + S/v` and against `L/(v n^{1/3})`. A log–log
//! OLS fit extracts the empirical scaling exponent, which is what we compare
//! to the paper (rather than unoptimized constants).

use crate::StatsError;
use std::fmt;

/// A fitted line `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinearFit {
    /// Intercept `a` of `y = a + b·x`.
    pub intercept: f64,
    /// Slope `b` of `y = a + b·x`.
    pub slope: f64,
    /// Coefficient of determination `R²` (1 when all points lie on the
    /// line; 1 by convention when `y` is constant and the fit is exact).
    pub r_squared: f64,
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.6} + {:.6}·x (R² = {:.4})",
            self.intercept, self.slope, self.r_squared
        )
    }
}

/// Least-squares fit of `y = a + b·x`.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] — `xs` and `ys` differ in length;
/// * [`StatsError::EmptyData`] — fewer than two points;
/// * [`StatsError::NotFinite`] — NaN/infinite input;
/// * [`StatsError::BadParameter`] — all `x` identical (vertical line).
///
/// # Examples
///
/// ```
/// use fastflood_stats::regression::linear_fit;
///
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0])?;
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(StatsError::EmptyData);
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(StatsError::NotFinite);
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    if sxx == 0.0 {
        return Err(StatsError::BadParameter("all x values identical"));
    }
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let r = y - (intercept + slope * x);
            r * r
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(LinearFit {
        intercept,
        slope,
        r_squared,
    })
}

/// Fits `y = c · x^e` by OLS on `ln y = ln c + e · ln x`.
///
/// Returns the fit in log space: `slope` is the scaling exponent `e` and
/// `exp(intercept)` the prefactor `c`.
///
/// # Errors
///
/// As [`linear_fit`]; additionally [`StatsError::BadParameter`] when any
/// input is not strictly positive (logs would be undefined).
///
/// # Examples
///
/// ```
/// use fastflood_stats::regression::loglog_fit;
///
/// // y = 3 x²
/// let xs = [1.0, 2.0, 4.0, 8.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
/// let fit = loglog_fit(&xs, &ys)?;
/// assert!((fit.slope - 2.0).abs() < 1e-10);       // exponent
/// assert!((fit.intercept.exp() - 3.0).abs() < 1e-9); // prefactor
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
pub fn loglog_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, StatsError> {
    if xs.iter().chain(ys.iter()).any(|&v| v.is_nan() || v <= 0.0) {
        return Err(StatsError::BadParameter(
            "log-log fit requires positive data",
        ));
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    linear_fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
        assert!(loglog_fit(&[0.0, 1.0], &[1.0, 1.0]).is_err());
        assert!(loglog_fit(&[1.0, 2.0], &[-1.0, 1.0]).is_err());
    }

    #[test]
    fn exact_line() {
        let fit = linear_fit(&[1.0, 2.0, 3.0, 4.0], &[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!(fit.intercept.abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_y_has_r2_one() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.1, 3.9, 6.2, 7.8, 10.1];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.1);
        assert!(fit.r_squared > 0.99 && fit.r_squared < 1.0);
    }

    #[test]
    fn loglog_recovers_exponents() {
        for (c, e) in [(1.0, 0.5), (2.0, 1.0), (0.1, 3.0)] {
            let xs = [1.0, 2.0, 5.0, 10.0, 100.0];
            let ys: Vec<f64> = xs.iter().map(|x: &f64| c * x.powf(e)).collect();
            let fit = loglog_fit(&xs, &ys).unwrap();
            assert!((fit.slope - e).abs() < 1e-9, "exponent {e}");
            assert!((fit.intercept.exp() - c).abs() < 1e-9, "prefactor {c}");
        }
    }

    #[test]
    fn display() {
        let fit = linear_fit(&[0.0, 1.0], &[0.0, 2.0]).unwrap();
        assert!(fit.to_string().contains("R²"));
    }
}
