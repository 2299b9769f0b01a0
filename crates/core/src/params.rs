//! Network parameters and every derived quantity the paper defines.

use crate::CoreError;
use fastflood_geom::CellGrid;
use std::fmt;

/// The golden-ratio-flavored constant `1 + √5` from the paper's cell-side
/// band (Ineq. 6).
const ONE_PLUS_SQRT5: f64 = 3.23606797749979;
/// `√5`, the other end of the band.
const SQRT5: f64 = 2.23606797749979;

/// The MANET parameters `(n, L, R, v)` of the paper, with all the derived
/// quantities of §4.
///
/// * `n` — number of agents;
/// * `L` (`side`) — side length of the square region (the paper's
///   "standard" case is `L = √n`, see [`SimParams::standard`]);
/// * `R` (`radius`) — transmission radius;
/// * `v` (`speed`) — distance an agent travels per time step.
///
/// Logarithms are **natural logs** throughout: the paper's `log n` appears
/// only inside `Θ(·)`/thresholds where the base is a constant factor, and
/// the authors explicitly do not optimize constants.
///
/// # Examples
///
/// ```
/// use fastflood_core::SimParams;
///
/// let p = SimParams::standard(10_000, 10.0, 1.0)?; // L = √n = 100
/// assert_eq!(p.side(), 100.0);
/// // the paper's cell band (Ineq. 6) brackets the chosen cell side
/// let (lo, hi) = p.cell_side_band();
/// let grid = p.cell_grid()?;
/// assert!(lo <= grid.cell_len() && grid.cell_len() <= hi);
/// # Ok::<(), fastflood_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimParams {
    n: usize,
    side: f64,
    radius: f64,
    speed: f64,
}

impl SimParams {
    /// Creates parameters with explicit side length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] when `n == 0`, `side <= 0`,
    /// `radius <= 0`, `speed < 0`, or any value is not finite.
    pub fn new(n: usize, side: f64, radius: f64, speed: f64) -> Result<SimParams, CoreError> {
        if n == 0 {
            return Err(CoreError::BadParameter("n must be at least 1"));
        }
        if side <= 0.0 || !side.is_finite() {
            return Err(CoreError::BadParameter("side must be positive and finite"));
        }
        if radius <= 0.0 || !radius.is_finite() {
            return Err(CoreError::BadParameter(
                "radius must be positive and finite",
            ));
        }
        if speed < 0.0 || !speed.is_finite() {
            return Err(CoreError::BadParameter(
                "speed must be nonnegative and finite",
            ));
        }
        Ok(SimParams {
            n,
            side,
            radius,
            speed,
        })
    }

    /// Creates parameters in the paper's standard setting `L = √n`.
    ///
    /// # Errors
    ///
    /// As [`SimParams::new`].
    pub fn standard(n: usize, radius: f64, speed: f64) -> Result<SimParams, CoreError> {
        SimParams::new(n, (n as f64).sqrt(), radius, speed)
    }

    /// Number of agents `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Region side `L`.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Transmission radius `R`.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Agent speed `v`.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Returns a copy with a different radius.
    ///
    /// # Errors
    ///
    /// As [`SimParams::new`].
    pub fn with_radius(&self, radius: f64) -> Result<SimParams, CoreError> {
        SimParams::new(self.n, self.side, radius, self.speed)
    }

    /// `ln n` (natural log; at least `ln 2` so thresholds stay positive
    /// for the degenerate `n = 1`).
    pub fn ln_n(&self) -> f64 {
        (self.n.max(2) as f64).ln()
    }

    /// The Ineq. 6 band for the cell side:
    /// `R/(1+√5) ≤ ℓ ≤ R/√5`.
    pub fn cell_side_band(&self) -> (f64, f64) {
        (self.radius / ONE_PLUS_SQRT5, self.radius / SQRT5)
    }

    /// Cells per axis: the largest `m` with `L/m` inside the Ineq. 6 band
    /// (`m = ⌊L(1+√5)/R⌋`, clamped to at least 1).
    ///
    /// When `L/R ≥ 1` the resulting cell side provably lies in the band;
    /// for larger radii (`R > L`, the trivially-fast regime) the band can
    /// be empty of integers and the single-cell grid is returned.
    pub fn cells_per_axis(&self) -> usize {
        ((self.side * ONE_PLUS_SQRT5 / self.radius).floor() as usize).max(1)
    }

    /// The cell grid used by the Central-Zone analysis.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation (cannot fail for validated params).
    pub fn cell_grid(&self) -> Result<CellGrid, CoreError> {
        Ok(CellGrid::new(self.side, self.cells_per_axis())?)
    }

    /// The Definition 4 Central-Zone threshold `(3/8)·ln n / n`: cells
    /// with at least this much stationary mass are Central Zone.
    pub fn central_zone_threshold(&self) -> f64 {
        0.375 * self.ln_n() / self.n as f64
    }

    /// The paper's Ineq. 7 minimum radius `200·L·√(ln n / n)`.
    ///
    /// This constant is intentionally huge (the authors do not optimize
    /// constants); experiments treat `c₁·L·√(ln n/n)` with small `c₁` as
    /// the practically relevant scale. See [`SimParams::radius_scale`].
    pub fn paper_min_radius(&self) -> f64 {
        200.0 * self.side * (self.ln_n() / self.n as f64).sqrt()
    }

    /// The natural radius unit `L·√(ln n / n)` (the connectivity scale of
    /// uniform-density MANETs); `radius = c₁ ·` this.
    pub fn radius_scale(&self) -> f64 {
        self.side * (self.ln_n() / self.n as f64).sqrt()
    }

    /// The paper's Ineq. 8 maximum speed `R / (3(1+√5))` — the slow-mobility
    /// assumption guaranteeing an agent in a cell core stays in its cell
    /// for one step.
    pub fn paper_max_speed(&self) -> f64 {
        self.radius / (3.0 * ONE_PLUS_SQRT5)
    }

    /// Whether the Theorem 3 assumptions hold with the *paper's* loose
    /// constants (Ineq. 7 and Ineq. 8).
    pub fn satisfies_paper_assumptions(&self) -> bool {
        self.radius >= self.paper_min_radius() && self.speed <= self.paper_max_speed()
    }

    /// The Corollary 12 large-radius threshold
    /// `(1+√5)/2 · L · (3·ln n / n)^{1/3}`: above it every cell is Central
    /// Zone (empty Suburb) and flooding completes within `18L/R`.
    pub fn large_radius_threshold(&self) -> f64 {
        0.5 * ONE_PLUS_SQRT5 * self.side * (3.0 * self.ln_n() / self.n as f64).cbrt()
    }

    /// The Suburb diameter bound `S = 3·L³·ln n / (2·ℓ²·n)` (Lemma 15),
    /// with `ℓ` the actual cell side of [`SimParams::cell_grid`].
    pub fn suburb_diameter_bound(&self) -> f64 {
        let ell = self.side / self.cells_per_axis() as f64;
        1.5 * self.side.powi(3) * self.ln_n() / (ell * ell * self.n as f64)
    }

    /// The Theorem 3 upper-bound shape `L/R + S/v` with unit constants
    /// (infinite when `v = 0` and the Suburb term is needed).
    ///
    /// Experiments compare measured flooding times against multiples of
    /// this quantity; the paper guarantees `O(L/R + S/v)`.
    pub fn flooding_time_bound(&self) -> f64 {
        let traverse = self.side / self.radius;
        if self.radius >= self.large_radius_threshold() {
            // empty Suburb: the bound is the Central-Zone term alone
            return traverse;
        }
        if self.speed == 0.0 {
            return f64::INFINITY;
        }
        traverse + self.suburb_diameter_bound() / self.speed
    }

    /// The Theorem 10 / Corollary 12 Central-Zone completion bound
    /// `18·L/R` steps.
    pub fn central_zone_time_bound(&self) -> f64 {
        18.0 * self.side / self.radius
    }

    /// The Theorem 18 lower-bound shape `L/(v·n^{1/3})` (infinite when
    /// `v = 0`), valid when `R = O(L/n^{1/3})`.
    pub fn theorem18_lower_bound(&self) -> f64 {
        if self.speed == 0.0 {
            return f64::INFINITY;
        }
        self.side / (self.speed * (self.n as f64).cbrt())
    }

    /// Whether `R` is in the Theorem 18 regime `R ≤ L/n^{1/3}`.
    pub fn in_theorem18_regime(&self) -> bool {
        self.radius <= self.side / (self.n as f64).cbrt()
    }
}

impl fmt::Display for SimParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} L={} R={} v={}",
            self.n, self.side, self.radius, self.speed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimParams {
        SimParams::standard(10_000, 10.0, 1.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(SimParams::new(0, 10.0, 1.0, 1.0).is_err());
        assert!(SimParams::new(10, 0.0, 1.0, 1.0).is_err());
        assert!(SimParams::new(10, 10.0, 0.0, 1.0).is_err());
        assert!(SimParams::new(10, 10.0, -1.0, 1.0).is_err());
        assert!(SimParams::new(10, 10.0, 1.0, -1.0).is_err());
        assert!(SimParams::new(10, f64::NAN, 1.0, 1.0).is_err());
        assert!(SimParams::new(10, 10.0, 1.0, 0.0).is_ok());
    }

    #[test]
    fn standard_uses_sqrt_n() {
        let p = SimParams::standard(400, 2.0, 0.1).unwrap();
        assert_eq!(p.side(), 20.0);
        assert_eq!(p.n(), 400);
    }

    #[test]
    fn cell_side_in_band() {
        // whenever L/R >= 1 the chosen cell side must satisfy Ineq. 6
        for (n, r) in [(10_000usize, 2.0), (10_000, 10.0), (400, 1.0), (400, 5.0)] {
            let p = SimParams::standard(n, r, 0.1).unwrap();
            let (lo, hi) = p.cell_side_band();
            let ell = p.side() / p.cells_per_axis() as f64;
            assert!(
                lo <= ell + 1e-12 && ell <= hi + 1e-12,
                "ℓ = {ell} outside [{lo}, {hi}] for n={n} R={r}"
            );
        }
    }

    #[test]
    fn huge_radius_collapses_to_one_cell() {
        let p = SimParams::standard(100, 1000.0, 1.0).unwrap();
        assert_eq!(p.cells_per_axis(), 1);
        assert!(p.cell_grid().is_ok());
    }

    #[test]
    fn thresholds_positive_and_ordered() {
        let p = params();
        assert!(p.central_zone_threshold() > 0.0);
        assert!(p.paper_min_radius() > p.radius_scale());
        assert!(p.paper_max_speed() > 0.0);
        assert!(p.large_radius_threshold() > 0.0);
        // paper's loose constants: R = 10 is below 200·scale for n = 10^4
        assert!(!p.satisfies_paper_assumptions());
        // but a generous radius and tiny speed satisfies them
        let loose = SimParams::standard(10_000, 200.0 * p.radius_scale(), 1e-6).unwrap();
        assert!(loose.satisfies_paper_assumptions());
    }

    #[test]
    fn suburb_bound_decreases_with_radius() {
        let p1 = SimParams::standard(10_000, 5.0, 1.0).unwrap();
        let p2 = SimParams::standard(10_000, 10.0, 1.0).unwrap();
        assert!(
            p2.suburb_diameter_bound() < p1.suburb_diameter_bound(),
            "larger R ⇒ larger cells ⇒ smaller S"
        );
    }

    #[test]
    fn flooding_bound_shapes() {
        let p = params();
        let b = p.flooding_time_bound();
        assert!(b > p.side() / p.radius());
        assert!(b.is_finite());
        // v = 0 with non-empty suburb: infinite
        let frozen = SimParams::standard(10_000, 10.0, 0.0).unwrap();
        assert!(frozen.flooding_time_bound().is_infinite());
        // large R: only the traverse term, even at v = 0
        let big = SimParams::standard(10_000, 80.0, 0.0).unwrap();
        assert!(big.radius() >= big.large_radius_threshold());
        assert_eq!(big.flooding_time_bound(), big.side() / big.radius());
    }

    #[test]
    fn bounds_decrease_in_r_and_v() {
        // Theorem 3's bound is a decreasing function of R and v (abstract)
        let base = SimParams::standard(10_000, 6.0, 0.5).unwrap();
        let faster = SimParams::standard(10_000, 6.0, 1.0).unwrap();
        let wider = SimParams::standard(10_000, 9.0, 0.5).unwrap();
        assert!(faster.flooding_time_bound() < base.flooding_time_bound());
        assert!(wider.flooding_time_bound() < base.flooding_time_bound());
    }

    #[test]
    fn theorem18_regime() {
        // L = 100, n^{1/3} ≈ 21.5 ⇒ regime needs R ≤ 4.64
        let p = SimParams::standard(10_000, 4.0, 1.0).unwrap();
        assert!(p.in_theorem18_regime());
        assert!(p.theorem18_lower_bound() > 0.0);
        let q = SimParams::standard(10_000, 10.0, 1.0).unwrap();
        assert!(!q.in_theorem18_regime());
        let frozen = SimParams::standard(10_000, 4.0, 0.0).unwrap();
        assert!(frozen.theorem18_lower_bound().is_infinite());
    }

    #[test]
    fn with_radius_and_display() {
        let p = params();
        let q = p.with_radius(20.0).unwrap();
        assert_eq!(q.radius(), 20.0);
        assert_eq!(q.n(), p.n());
        assert!(p.to_string().contains("n=10000"));
    }

    #[test]
    fn ln_n_floor_at_two() {
        let p = SimParams::new(1, 10.0, 1.0, 1.0).unwrap();
        assert!(p.ln_n() > 0.0);
    }
}
