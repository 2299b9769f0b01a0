//! Points and vectors in the plane with the three metrics used by the paper.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane.
///
/// `Point` is a passive, C-style data structure with public fields. It
/// implements the arithmetic needed for mobility updates (`Point + Vec2`,
/// `Point - Point -> Vec2`) and the three metrics relevant to the Manhattan
/// Random Way-Point analysis.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Vec2};
///
/// let a = Point::new(1.0, 2.0);
/// let b = Point::new(4.0, 6.0);
/// assert_eq!(a.euclid(b), 5.0);
/// assert_eq!(a.manhattan(b), 7.0);
/// assert_eq!(a.chebyshev(b), 4.0);
/// assert_eq!(a + Vec2::new(3.0, 4.0), b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement (vector) in the plane.
///
/// # Examples
///
/// ```
/// use fastflood_geom::Vec2;
///
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!((v * 2.0).norm(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean (L2) distance to `other`.
    ///
    /// This is the metric of the transmission disk: two agents exchange data
    /// iff their Euclidean distance is at most the radius `R`.
    #[inline]
    pub fn euclid(self, other: Point) -> f64 {
        self.euclid_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root in hot
    /// radius comparisons).
    #[inline]
    pub fn euclid_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// This is the length of both feasible MRWP paths between the points.
    #[inline]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Chebyshev (L∞) distance to `other`.
    #[inline]
    pub fn chebyshev(self, other: Point) -> f64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// The displacement from `self` to `other` (`other - self`).
    #[inline]
    pub fn to(self, other: Point) -> Vec2 {
        other - self
    }

    /// Whether both coordinates are finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// L1 norm (`|x| + |y|`).
    #[inline]
    pub fn norm_l1(self) -> f64 {
        self.x.abs() + self.y.abs()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vec2> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.euclid(b), 5.0);
        assert_eq!(a.euclid_sq(b), 25.0);
        assert_eq!(a.manhattan(b), 7.0);
        assert_eq!(a.chebyshev(b), 4.0);
        // metrics are symmetric
        assert_eq!(a.euclid(b), b.euclid(a));
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.chebyshev(b), b.chebyshev(a));
        // identity of indiscernibles
        assert_eq!(a.euclid(a), 0.0);
        assert_eq!(b.manhattan(b), 0.0);
    }

    #[test]
    fn metric_ordering_linf_le_l2_le_l1() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(1.25, -3.0);
        assert!(a.chebyshev(b) <= a.euclid(b) + 1e-12);
        assert!(a.euclid(b) <= a.manhattan(b) + 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.0, 3.0));
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 2.0);
        let v = Vec2::new(0.5, -1.0);
        assert_eq!(p + v, Point::new(1.5, 1.0));
        assert_eq!((p + v) - v, p);
        assert_eq!(p.to(p + v), v);
        let mut q = p;
        q += v;
        q -= v;
        assert_eq!(q, p);
    }

    #[test]
    fn vec_ops_and_norms() {
        let v = Vec2::new(3.0, -4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(-v, Vec2::new(-3.0, 4.0));
        assert_eq!(v * 2.0, Vec2::new(6.0, -8.0));
        assert_eq!(2.0 * v, v * 2.0);
        assert_eq!(v / 2.0, Vec2::new(1.5, -2.0));
    }

    #[test]
    fn conversions_and_display() {
        let p: Point = (1.0, 2.0).into();
        let (x, y): (f64, f64) = p.into();
        assert_eq!((x, y), (1.0, 2.0));
        let v: Vec2 = (3.0, 4.0).into();
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(p.to_string(), "(1, 2)");
        assert_eq!(v.to_string(), "<3, 4>");
    }

    #[test]
    fn finiteness_and_min_max() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(b), Point::new(1.0, 3.0));
        assert_eq!(a.max(b), Point::new(2.0, 5.0));
    }
}
