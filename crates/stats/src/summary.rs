//! Descriptive statistics of a finite sample.

use crate::StatsError;
use std::fmt;

/// Descriptive statistics of a sample of `f64` values.
///
/// Computed once at construction; all accessors are free. The variance is
/// the *sample* variance (Bessel-corrected, `n − 1` denominator) and the 95%
/// confidence interval uses the normal approximation
/// `mean ± 1.96 · sem`, which is what the experiment tables report.
///
/// # Examples
///
/// ```
/// use fastflood_stats::Summary;
///
/// let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])?;
/// assert_eq!(s.len(), 8);
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.std_dev() - 2.138089935).abs() < 1e-6);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Summary {
    n: usize,
    mean: f64,
    var: f64,
    min: f64,
    max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Computes the summary of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyData`] for an empty slice and
    /// [`StatsError::NotFinite`] if any value is NaN or infinite.
    pub fn from_slice(data: &[f64]) -> Result<Summary, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyData);
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NotFinite);
        }
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        Ok(Summary {
            n,
            mean,
            var,
            min: sorted[0],
            max: sorted[n - 1],
            sorted,
        })
    }

    /// Computes the summary of an iterator of values.
    ///
    /// # Errors
    ///
    /// Same as [`Summary::from_slice`].
    // not the FromIterator trait: summaries of empty/non-finite data
    // must be able to fail, so this returns Result
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Result<Summary, StatsError> {
        let data: Vec<f64> = iter.into_iter().collect();
        Summary::from_slice(&data)
    }

    /// Sample size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sample is empty (never true: construction rejects it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (`n − 1` denominator; `0` for singleton samples).
    #[inline]
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Sample standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Standard error of the mean (`std_dev / √n`).
    #[inline]
    pub fn sem(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// 95% confidence interval for the mean, normal approximation.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.959963984540054 * self.sem();
        (self.mean - half, self.mean + half)
    }

    /// Minimum value.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolated quantile, `q ∈ [0, 1]` (clamped).
    ///
    /// Uses the common `(n − 1)·q` interpolation rule, so `quantile(0.0)`
    /// is the minimum and `quantile(1.0)` the maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.n == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.ci95();
        write!(
            f,
            "n={} mean={:.4} sd={:.4} ci95=[{:.4}, {:.4}] min={:.4} med={:.4} max={:.4}",
            self.n,
            self.mean,
            self.std_dev(),
            lo,
            hi,
            self.min,
            self.median(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Summary::from_slice(&[]), Err(StatsError::EmptyData));
        assert_eq!(
            Summary::from_slice(&[1.0, f64::NAN]),
            Err(StatsError::NotFinite)
        );
        assert_eq!(
            Summary::from_slice(&[f64::INFINITY]),
            Err(StatsError::NotFinite)
        );
    }

    #[test]
    fn singleton() {
        let s = Summary::from_slice(&[42.0]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sem(), 0.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.quantile(0.25), 42.0);
        assert_eq!(s.ci95(), (42.0, 42.0));
    }

    #[test]
    fn known_statistics() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_slice(&[0.0, 10.0]).unwrap();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(0.25), 2.5);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(1.0), 10.0);
        // clamping
        assert_eq!(s.quantile(-1.0), 0.0);
        assert_eq!(s.quantile(2.0), 10.0);
    }

    #[test]
    fn median_even_odd() {
        let even = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(even.median(), 2.5);
        let odd = Summary::from_slice(&[4.0, 1.0, 3.0]).unwrap();
        assert_eq!(odd.median(), 3.0);
    }

    #[test]
    fn ci95_shrinks_with_n() {
        let narrow: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let wide: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sn = Summary::from_slice(&narrow).unwrap();
        let sw = Summary::from_slice(&wide).unwrap();
        let wn = sn.ci95().1 - sn.ci95().0;
        let ww = sw.ci95().1 - sw.ci95().0;
        assert!(wn < ww);
        let (lo, hi) = sn.ci95();
        assert!(lo <= sn.mean() && sn.mean() <= hi);
    }

    #[test]
    fn from_iter_matches_from_slice() {
        let a = Summary::from_iter((0..100).map(|i| i as f64)).unwrap();
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = Summary::from_slice(&v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_mentions_mean() {
        let s = Summary::from_slice(&[1.0, 2.0]).unwrap();
        assert!(s.to_string().contains("mean=1.5"));
    }
}
