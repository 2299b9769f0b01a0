//! Special functions: log-gamma and the regularized incomplete gamma.
//!
//! These back the chi-square p-values in [`crate::chi2`]. Implementations
//! follow the classic *Numerical Recipes* formulations: a Lanczos
//! approximation for `ln Γ`, the power series for the lower regularized
//! incomplete gamma `P(a, x)` when `x < a + 1`, and the continued fraction
//! for the upper `Q(a, x)` otherwise.

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation with `g = 5`, accurate to roughly 1e-13 over the
/// range used by the test statistics here.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection formula is intentionally out of
/// scope: every caller in this crate uses positive arguments).
///
/// # Examples
///
/// ```
/// use fastflood_stats::special::ln_gamma;
///
/// assert!((ln_gamma(1.0)).abs() < 1e-12);          // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10); // Γ(5) = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const COEFFS: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for c in COEFFS {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// This is the survival function of a Gamma(a, 1) variable; `Q(k/2, x/2)`
/// is the chi-square p-value with `k` degrees of freedom.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, converges quickly for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    (sum * (-x + a * x.ln() - gln).exp()).clamp(0.0, 1.0)
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz),
/// converges quickly for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    ((-x + a * x.ln() - gln).exp() * h).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        let facts: [(f64, f64); 6] = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 6.0),
            (6.0, 120.0),
            (11.0, 3628800.0),
        ];
        for (x, fact) in facts {
            assert!(
                (ln_gamma(x) - fact.ln()).abs() < 1e-9,
                "ln_gamma({x}) != ln({fact})"
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        // Γ(3/2) = √π / 2
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_q_is_exponential_survival_for_a1() {
        for x in [0.0f64, 0.5, 1.0, 3.0, 10.0] {
            assert!((gamma_q(1.0, x) - (-x).exp()).abs() < 1e-10);
        }
    }

    #[test]
    fn gamma_q_monotone_in_x() {
        // crosses the series / continued-fraction switch at x = a + 1
        let mut prev = 2.0;
        for i in 0..100 {
            let x = i as f64 * 0.3;
            let q = gamma_q(3.7, x);
            assert!(q <= prev && (0.0..=1.0).contains(&q));
            prev = q;
        }
    }

    #[test]
    fn chi2_survival_reference_values() {
        // Q(k/2, x/2) checked against standard chi-square tables.
        // chi2 with 1 dof at x = 3.841 -> p ≈ 0.05
        assert!((gamma_q(0.5, 3.841 / 2.0) - 0.05).abs() < 1e-3);
        // chi2 with 5 dof at x = 11.070 -> p ≈ 0.05
        assert!((gamma_q(2.5, 11.070 / 2.0) - 0.05).abs() < 1e-3);
        // chi2 with 10 dof at x = 18.307 -> p ≈ 0.05
        assert!((gamma_q(5.0, 18.307 / 2.0) - 0.05).abs() < 1e-3);
    }
}
