//! Binned empirical distributions in one and two dimensions.

use crate::StatsError;
use std::fmt;

/// A one-dimensional histogram over `[lo, hi)` with equal-width bins.
///
/// Out-of-range observations are tallied separately (`below` / `above`) and
/// excluded from the in-range mass, so range mistakes are visible instead of
/// silently distorting the distribution. Values exactly at `hi` fall in the
/// last bin (the paper's region is the *closed* square).
///
/// # Examples
///
/// ```
/// use fastflood_stats::Histogram1d;
///
/// let mut h = Histogram1d::new(0.0, 10.0, 5)?;
/// for x in [0.5, 1.0, 2.5, 9.99, 10.0, -3.0] {
///     h.add(x);
/// }
/// assert_eq!(h.count(0), 2);     // 0.5 and 1.0 fall in [0, 2)
/// assert_eq!(h.count(4), 2);     // 9.99 and the closed right edge 10.0
/// assert_eq!(h.below(), 1);      // -3.0
/// assert_eq!(h.total_in_range(), 5);
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram1d {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram1d {
    /// Creates an empty histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadBins`] when `bins == 0`, when the range is
    /// empty or inverted, or when a bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Histogram1d, StatsError> {
        if bins == 0 || hi <= lo || !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::BadBins);
        }
        Ok(Histogram1d {
            lo,
            hi,
            counts: vec![0; bins],
            below: 0,
            above: 0,
        })
    }

    /// Adds an observation.
    ///
    /// NaN observations count as `above` (they compare false with both
    /// bounds and must go somewhere visible).
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x > self.hi || x.is_nan() {
            self.above += 1;
        } else {
            let idx = self.bin_of(x);
            self.counts[idx] += 1;
        }
    }

    /// Adds every value from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }

    /// The bin index an in-range value falls into (`hi` maps to the last
    /// bin).
    pub fn bin_of(&self, x: f64) -> usize {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (((x - self.lo) / w).floor().max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Number of bins.
    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower bound of the range.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of one bin.
    #[inline]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// The `[lo, hi)` interval covered by bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = self.bin_width();
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the range.
    #[inline]
    pub fn below(&self) -> u64 {
        self.below
    }

    /// Observations above the range (including NaN).
    #[inline]
    pub fn above(&self) -> u64 {
        self.above
    }

    /// Total in-range observations.
    pub fn total_in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Empirical probability mass of bin `i` (relative to in-range total).
    ///
    /// Returns 0 when the histogram is empty.
    pub fn mass(&self, i: usize) -> f64 {
        let total = self.total_in_range();
        if total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / total as f64
        }
    }

    /// Empirical density at bin `i` (mass divided by bin width).
    pub fn density(&self, i: usize) -> f64 {
        self.mass(i) / self.bin_width()
    }

    /// Total-variation distance to the probability masses `expected`
    /// (one entry per bin; must sum to approximately 1).
    ///
    /// `TV = (1/2) Σ |empirical_mass(i) − expected(i)|`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] when `expected` has a
    /// different number of entries than the histogram has bins.
    pub fn tv_distance(&self, expected: &[f64]) -> Result<f64, StatsError> {
        if expected.len() != self.counts.len() {
            return Err(StatsError::LengthMismatch {
                left: self.counts.len(),
                right: expected.len(),
            });
        }
        let tv = (0..self.counts.len())
            .map(|i| (self.mass(i) - expected[i]).abs())
            .sum::<f64>()
            / 2.0;
        Ok(tv)
    }

    /// Merges another histogram with identical binning into this one.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadParameter`] when the ranges or bin counts
    /// differ.
    pub fn merge(&mut self, other: &Histogram1d) -> Result<(), StatsError> {
        if self.lo != other.lo || self.hi != other.hi || self.counts.len() != other.counts.len() {
            return Err(StatsError::BadParameter("histogram binning mismatch"));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.below += other.below;
        self.above += other.above;
        Ok(())
    }
}

impl fmt::Display for Histogram1d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hist[{}, {}) bins={} n={} (below={}, above={})",
            self.lo,
            self.hi,
            self.counts.len(),
            self.total_in_range(),
            self.below,
            self.above
        )
    }
}

/// A two-dimensional histogram over `[x_lo, x_hi) × [y_lo, y_hi)`.
///
/// Used to validate the stationary spatial density of Theorem 1 against the
/// empirical agent positions (experiment E1, Figure 1).
///
/// # Examples
///
/// ```
/// use fastflood_stats::Histogram2d;
///
/// let mut h = Histogram2d::new((0.0, 4.0), (0.0, 4.0), 2, 2)?;
/// h.add(1.0, 1.0);
/// h.add(3.0, 3.5);
/// h.add(3.0, 1.0);
/// assert_eq!(h.count(0, 0), 1);
/// assert_eq!(h.count(1, 1), 1);
/// assert_eq!(h.count(0, 1), 1); // row 0 (low y), col 1 (high x)
/// assert_eq!(h.total_in_range(), 3);
/// # Ok::<(), fastflood_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram2d {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    cols: usize,
    rows: usize,
    counts: Vec<u64>,
    outside: u64,
}

impl Histogram2d {
    /// Creates an empty 2-D histogram with `cols × rows` bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadBins`] for empty ranges or zero bins.
    pub fn new(
        x_range: (f64, f64),
        y_range: (f64, f64),
        cols: usize,
        rows: usize,
    ) -> Result<Histogram2d, StatsError> {
        let (x_lo, x_hi) = x_range;
        let (y_lo, y_hi) = y_range;
        if cols == 0
            || rows == 0
            || x_hi <= x_lo
            || y_hi <= y_lo
            || !x_lo.is_finite()
            || !x_hi.is_finite()
            || !y_lo.is_finite()
            || !y_hi.is_finite()
        {
            return Err(StatsError::BadBins);
        }
        Ok(Histogram2d {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            cols,
            rows,
            counts: vec![0; cols * rows],
            outside: 0,
        })
    }

    /// Adds an observation at `(x, y)`.
    ///
    /// The closed upper edges map into the last row/column; anything outside
    /// the rectangle (or NaN) is counted in `outside`.
    pub fn add(&mut self, x: f64, y: f64) {
        if !(x >= self.x_lo && x <= self.x_hi && y >= self.y_lo && y <= self.y_hi) {
            self.outside += 1;
            return;
        }
        let wx = (self.x_hi - self.x_lo) / self.cols as f64;
        let wy = (self.y_hi - self.y_lo) / self.rows as f64;
        let col = (((x - self.x_lo) / wx).floor().max(0.0) as usize).min(self.cols - 1);
        let row = (((y - self.y_lo) / wy).floor().max(0.0) as usize).min(self.rows - 1);
        self.counts[row * self.cols + col] += 1;
    }

    /// Number of columns (x bins).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (y bins).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Count in bin `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn count(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.rows && col < self.cols, "bin out of range");
        self.counts[row * self.cols + col]
    }

    /// Observations outside the rectangle.
    #[inline]
    pub fn outside(&self) -> u64 {
        self.outside
    }

    /// Total in-range observations.
    pub fn total_in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Empirical probability mass of bin `(row, col)`.
    pub fn mass(&self, row: usize, col: usize) -> f64 {
        let total = self.total_in_range();
        if total == 0 {
            0.0
        } else {
            self.count(row, col) as f64 / total as f64
        }
    }

    /// The `(x, y)` ranges covered by bin `(row, col)`.
    pub fn bin_rect(&self, row: usize, col: usize) -> ((f64, f64), (f64, f64)) {
        assert!(row < self.rows && col < self.cols, "bin out of range");
        let wx = (self.x_hi - self.x_lo) / self.cols as f64;
        let wy = (self.y_hi - self.y_lo) / self.rows as f64;
        (
            (
                self.x_lo + col as f64 * wx,
                self.x_lo + (col + 1) as f64 * wx,
            ),
            (
                self.y_lo + row as f64 * wy,
                self.y_lo + (row + 1) as f64 * wy,
            ),
        )
    }

    /// Total-variation distance to per-bin expected masses in row-major
    /// order (row 0 first).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] when `expected` does not have
    /// `rows × cols` entries.
    pub fn tv_distance(&self, expected: &[f64]) -> Result<f64, StatsError> {
        if expected.len() != self.counts.len() {
            return Err(StatsError::LengthMismatch {
                left: self.counts.len(),
                right: expected.len(),
            });
        }
        let total = self.total_in_range();
        if total == 0 {
            return Err(StatsError::EmptyData);
        }
        let tv = self
            .counts
            .iter()
            .zip(expected)
            .map(|(&c, &e)| (c as f64 / total as f64 - e).abs())
            .sum::<f64>()
            / 2.0;
        Ok(tv)
    }

    /// All counts, row-major.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl fmt::Display for Histogram2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hist2d {}x{} over [{}, {}]x[{}, {}] n={}",
            self.cols,
            self.rows,
            self.x_lo,
            self.x_hi,
            self.y_lo,
            self.y_hi,
            self.total_in_range()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram1d::new(0.0, 0.0, 4).is_err());
        assert!(Histogram1d::new(1.0, 0.0, 4).is_err());
        assert!(Histogram1d::new(0.0, 1.0, 0).is_err());
        assert!(Histogram1d::new(0.0, f64::NAN, 4).is_err());
        assert!(Histogram2d::new((0.0, 1.0), (0.0, 0.0), 2, 2).is_err());
        assert!(Histogram2d::new((0.0, 1.0), (0.0, 1.0), 0, 2).is_err());
    }

    #[test]
    fn binning_edges() {
        let mut h = Histogram1d::new(0.0, 1.0, 4).unwrap();
        h.add(0.0);
        h.add(0.25); // boundary goes to upper bin
        h.add(0.999);
        h.add(1.0); // closed right edge -> last bin
        assert_eq!(h.counts(), &[1, 1, 0, 2]);
        assert_eq!(h.total_in_range(), 4);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram1d::new(0.0, 1.0, 2).unwrap();
        h.add(-0.1);
        h.add(1.1);
        h.add(f64::NAN);
        assert_eq!(h.below(), 1);
        assert_eq!(h.above(), 2);
        assert_eq!(h.total_in_range(), 0);
        assert_eq!(h.mass(0), 0.0);
    }

    #[test]
    fn mass_and_density() {
        let mut h = Histogram1d::new(0.0, 2.0, 2).unwrap();
        h.extend([0.1, 0.2, 0.3, 1.5]);
        assert_eq!(h.mass(0), 0.75);
        assert_eq!(h.mass(1), 0.25);
        assert_eq!(h.density(0), 0.75); // bin width 1.0
        let masses: f64 = (0..h.bins()).map(|i| h.mass(i)).sum();
        assert!((masses - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tv_distance_basics() {
        let mut h = Histogram1d::new(0.0, 1.0, 2).unwrap();
        h.extend([0.1, 0.6]);
        // perfectly matching expectation: TV = 0
        assert_eq!(h.tv_distance(&[0.5, 0.5]).unwrap(), 0.0);
        // half the mass misplaced: TV = (|0.5-1| + |0.5-0|)/2 = 0.5
        assert_eq!(h.tv_distance(&[1.0, 0.0]).unwrap(), 0.5);
        assert!(h.tv_distance(&[1.0]).is_err());
    }

    #[test]
    fn merge_requires_same_binning() {
        let mut a = Histogram1d::new(0.0, 1.0, 2).unwrap();
        let mut b = Histogram1d::new(0.0, 1.0, 2).unwrap();
        a.add(0.1);
        b.add(0.9);
        b.add(-1.0);
        a.merge(&b).unwrap();
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.below(), 1);
        let c = Histogram1d::new(0.0, 2.0, 2).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn hist2d_binning() {
        let mut h = Histogram2d::new((0.0, 2.0), (0.0, 2.0), 2, 2).unwrap();
        h.add(0.5, 0.5);
        h.add(1.5, 0.5);
        h.add(0.5, 1.5);
        h.add(2.0, 2.0); // closed corner -> last bin
        h.add(-1.0, 0.5); // outside
        assert_eq!(h.count(0, 0), 1);
        assert_eq!(h.count(0, 1), 1);
        assert_eq!(h.count(1, 0), 1);
        assert_eq!(h.count(1, 1), 1);
        assert_eq!(h.outside(), 1);
        assert_eq!(h.total_in_range(), 4);
        assert_eq!(h.mass(0, 0), 0.25);
    }

    #[test]
    fn hist2d_bin_rect() {
        let h = Histogram2d::new((0.0, 4.0), (0.0, 2.0), 4, 2).unwrap();
        let ((x0, x1), (y0, y1)) = h.bin_rect(1, 2);
        assert_eq!((x0, x1), (2.0, 3.0));
        assert_eq!((y0, y1), (1.0, 2.0));
    }

    #[test]
    fn hist2d_tv() {
        let mut h = Histogram2d::new((0.0, 1.0), (0.0, 1.0), 2, 1).unwrap();
        h.add(0.25, 0.5);
        h.add(0.75, 0.5);
        assert_eq!(h.tv_distance(&[0.5, 0.5]).unwrap(), 0.0);
        assert!(h.tv_distance(&[0.5]).is_err());
        let empty = Histogram2d::new((0.0, 1.0), (0.0, 1.0), 2, 1).unwrap();
        assert!(empty.tv_distance(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn displays() {
        let h = Histogram1d::new(0.0, 1.0, 2).unwrap();
        assert!(h.to_string().contains("bins=2"));
        let h2 = Histogram2d::new((0.0, 1.0), (0.0, 1.0), 2, 3).unwrap();
        assert!(h2.to_string().contains("2x3"));
    }
}
