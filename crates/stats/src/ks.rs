//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! Experiment E3 validates the stationary marginal distribution of
//! Theorem 1 with a one-sample KS test.

use crate::StatsError;

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D` (supremum distance between CDFs).
    pub statistic: f64,
    /// Asymptotic p-value (probability of a `D` at least this large under
    /// the null hypothesis).
    pub p_value: f64,
}

impl KsResult {
    /// Whether the null hypothesis is *not* rejected at level `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// One-sample KS test of `sample` against the continuous CDF `cdf`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyData`] for an empty sample and
/// [`StatsError::NotFinite`] if the sample contains NaN/infinite values.
///
/// # Examples
///
/// ```
/// use fastflood_stats::ks::ks_one_sample;
///
/// // uniform data vs uniform CDF: should comfortably pass
/// let sample: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
/// let r = ks_one_sample(&sample, |x| x.clamp(0.0, 1.0))?;
/// assert!(r.accepts(0.01));
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
pub fn ks_one_sample<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> Result<KsResult, StatsError> {
    if sample.is_empty() {
        return Err(StatsError::EmptyData);
    }
    if sample.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NotFinite);
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let ecdf_hi = (i as f64 + 1.0) / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
    }
    let p = kolmogorov_survival((n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d);
    Ok(KsResult {
        statistic: d,
        p_value: p,
    })
}

/// Kolmogorov distribution survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²)`.
///
/// Returns values clamped to `[0, 1]`; `Q(0) = 1`.
pub fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(ks_one_sample(&[], |x| x).is_err());
        assert!(ks_one_sample(&[f64::NAN], |x| x).is_err());
    }

    #[test]
    fn survival_function_shape() {
        assert_eq!(kolmogorov_survival(0.0), 1.0);
        assert_eq!(kolmogorov_survival(-1.0), 1.0);
        assert!(kolmogorov_survival(0.5) > kolmogorov_survival(1.0));
        assert!(kolmogorov_survival(1.0) > kolmogorov_survival(2.0));
        // reference: Q(1.36) ≈ 0.049 (the classic 5% critical value)
        let q = kolmogorov_survival(1.36);
        assert!((q - 0.049).abs() < 0.003, "Q(1.36) = {q}");
    }

    #[test]
    fn uniform_sample_accepts_uniform_cdf() {
        let sample: Vec<f64> = (0..2000).map(|i| (i as f64 + 0.5) / 2000.0).collect();
        let r = ks_one_sample(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(r.statistic < 0.01);
        assert!(r.accepts(0.05));
    }

    #[test]
    fn shifted_sample_rejects() {
        // uniform on [0.2, 1.2] vs uniform on [0, 1]
        let sample: Vec<f64> = (0..2000).map(|i| 0.2 + (i as f64 + 0.5) / 2000.0).collect();
        let r = ks_one_sample(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(r.statistic > 0.15);
        assert!(!r.accepts(0.01));
    }

    #[test]
    fn quadratic_sample_rejects_uniform() {
        // X = U² has CDF √x, far from uniform
        let sample: Vec<f64> = (0..1000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 1000.0;
                u * u
            })
            .collect();
        let r = ks_one_sample(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(!r.accepts(0.01));
        // but accepts its true CDF
        let r2 = ks_one_sample(&sample, |x: f64| x.clamp(0.0, 1.0).sqrt()).unwrap();
        assert!(r2.accepts(0.05));
    }
}
