//! Manhattan L-paths: the two-leg routes of the MRWP model.

use crate::{Axis, Point};
use std::fmt;

/// A Manhattan shortest path from `start` to `dest` made of at most two
/// axis-parallel legs.
///
/// The MRWP model (paper §2) gives an agent at `(x0, y0)` heading to `(x, y)`
/// a fair-coin choice between
///
/// * `P1 = ((x0,y0) -> (x0,y) -> (x,y))` — vertical first
///   ([`Axis::Y`] as `first_axis`), and
/// * `P2 = ((x0,y0) -> (x,y0) -> (x,y))` — horizontal first
///   ([`Axis::X`] as `first_axis`).
///
/// Both have length `‖dest − start‖₁`. When start and destination share a
/// coordinate the path degenerates to a single segment (or a point), and the
/// two choices coincide.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Axis, LPath, Point};
///
/// let p1 = LPath::new(Point::new(1.0, 1.0), Point::new(4.0, 3.0), Axis::Y);
/// assert_eq!(p1.corner(), Point::new(1.0, 3.0));
/// assert_eq!(p1.len(), 5.0);
///
/// let p2 = LPath::new(Point::new(1.0, 1.0), Point::new(4.0, 3.0), Axis::X);
/// assert_eq!(p2.corner(), Point::new(4.0, 1.0));
/// assert_eq!(p2.len(), p1.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LPath {
    start: Point,
    dest: Point,
    first_axis: Axis,
    // Trip-invariant geometry, cached at construction: an agent samples
    // its path millions of times (`point_at`/`remaining` every step of
    // every trip), so corner/leg lengths must not be recomputed per call.
    corner: Point,
    leg1: f64,
    leg2: f64,
    len: f64,
}

impl LPath {
    /// Creates the L-path from `start` to `dest` traveling along
    /// `first_axis` first.
    pub fn new(start: Point, dest: Point, first_axis: Axis) -> LPath {
        let corner = match first_axis {
            // travel along y first: x stays at start.x until the corner
            Axis::Y => Point::new(start.x, dest.y),
            Axis::X => Point::new(dest.x, start.y),
        };
        LPath {
            start,
            dest,
            first_axis,
            corner,
            leg1: start.manhattan(corner),
            leg2: corner.manhattan(dest),
            len: start.manhattan(dest),
        }
    }

    /// Start point.
    #[inline]
    pub fn start(&self) -> Point {
        self.start
    }

    /// Destination point.
    #[inline]
    pub fn dest(&self) -> Point {
        self.dest
    }

    /// The axis traveled first.
    #[inline]
    pub fn first_axis(&self) -> Axis {
        self.first_axis
    }

    /// Total path length (the Manhattan distance between endpoints).
    #[inline]
    pub fn len(&self) -> f64 {
        self.len
    }

    /// Whether the path has zero length (start equals destination).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.dest
    }

    /// The corner (turn point) of the path.
    ///
    /// For degenerate paths (single leg or single point) the corner
    /// coincides with an endpoint.
    #[inline]
    pub fn corner(&self) -> Point {
        self.corner
    }

    /// Length of the first leg (start to corner).
    #[inline]
    pub fn leg1_len(&self) -> f64 {
        self.leg1
    }

    /// Length of the second leg (corner to destination).
    #[inline]
    pub fn leg2_len(&self) -> f64 {
        self.leg2
    }

    /// Whether the path actually turns (both legs have positive length).
    #[inline]
    pub fn has_turn(&self) -> bool {
        self.leg1 > 0.0 && self.leg2 > 0.0
    }

    /// Arc-length position of the turn, or `None` when the path does not
    /// turn.
    #[inline]
    pub fn turn_at(&self) -> Option<f64> {
        if self.has_turn() {
            Some(self.leg1)
        } else {
            None
        }
    }

    /// The point at arc-length `s` from the start.
    ///
    /// `s` is clamped to `[0, len]`, so `point_at(0.0) == start()` and
    /// `point_at(len) == dest()`.
    #[inline]
    pub fn point_at(&self, s: f64) -> Point {
        let s = s.clamp(0.0, self.len);
        if s <= self.leg1 {
            if self.leg1 == 0.0 {
                return self.start;
            }
            self.start.lerp(self.corner, s / self.leg1)
        } else {
            // s > leg1 implies a positive second leg
            self.corner.lerp(self.dest, (s - self.leg1) / self.leg2)
        }
    }

    /// Remaining distance from arc-length `s` to the destination.
    #[inline]
    pub fn remaining(&self, s: f64) -> f64 {
        (self.len - s.clamp(0.0, self.len)).max(0.0)
    }

    /// The opposite-corner path between the same endpoints (the other of
    /// the paper's `{P1, P2}` pair).
    pub fn alternate(&self) -> LPath {
        LPath::new(self.start, self.dest, self.first_axis.other())
    }
}

impl fmt::Display for LPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} -> {}", self.start, self.corner(), self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn corners_match_paper_definition() {
        // P1 = ((x0,y0) -> (x0,y) -> (x,y)): vertical first
        let p1 = LPath::new(p(1.0, 2.0), p(5.0, 7.0), Axis::Y);
        assert_eq!(p1.corner(), p(1.0, 7.0));
        // P2 = ((x0,y0) -> (x,y0) -> (x,y)): horizontal first
        let p2 = LPath::new(p(1.0, 2.0), p(5.0, 7.0), Axis::X);
        assert_eq!(p2.corner(), p(5.0, 2.0));
    }

    #[test]
    fn lengths_sum_to_manhattan() {
        for axis in Axis::ALL {
            let path = LPath::new(p(1.0, 2.0), p(-3.0, 9.0), axis);
            assert_eq!(path.len(), 11.0);
            assert_eq!(path.leg1_len() + path.leg2_len(), path.len());
        }
    }

    #[test]
    fn point_at_endpoints_and_corner() {
        let path = LPath::new(p(0.0, 0.0), p(3.0, 4.0), Axis::Y);
        assert_eq!(path.point_at(0.0), p(0.0, 0.0));
        assert_eq!(path.point_at(4.0), p(0.0, 4.0)); // corner (leg1 = 4 up)
        assert!(path.has_turn());
        assert_eq!(path.turn_at(), Some(4.0));
        assert_eq!(path.point_at(5.5), p(1.5, 4.0));
        assert_eq!(path.point_at(7.0), p(3.0, 4.0));
        // clamped
        assert_eq!(path.point_at(-2.0), path.start());
        assert_eq!(path.point_at(100.0), path.dest());
    }

    #[test]
    fn degenerate_single_leg() {
        // destination straight east: no turn regardless of axis choice
        let path = LPath::new(p(0.0, 1.0), p(5.0, 1.0), Axis::Y);
        assert!(!path.has_turn());
        assert_eq!(path.turn_at(), None);
        assert_eq!(path.len(), 5.0);
        assert_eq!(path.point_at(2.0), p(2.0, 1.0));
    }

    #[test]
    fn degenerate_point_path() {
        let path = LPath::new(p(2.0, 2.0), p(2.0, 2.0), Axis::X);
        assert!(path.is_empty());
        assert_eq!(path.len(), 0.0);
        assert!(!path.has_turn());
        assert_eq!(path.point_at(0.0), p(2.0, 2.0));
    }

    #[test]
    fn remaining_decreases() {
        let path = LPath::new(p(0.0, 0.0), p(3.0, 4.0), Axis::X);
        assert_eq!(path.remaining(0.0), 7.0);
        assert_eq!(path.remaining(3.0), 4.0);
        assert_eq!(path.remaining(7.0), 0.0);
        assert_eq!(path.remaining(42.0), 0.0);
    }

    #[test]
    fn alternate_swaps_axis_but_keeps_endpoints() {
        let path = LPath::new(p(0.0, 0.0), p(3.0, 4.0), Axis::X);
        let alt = path.alternate();
        assert_eq!(alt.start(), path.start());
        assert_eq!(alt.dest(), path.dest());
        assert_eq!(alt.first_axis(), Axis::Y);
        assert_eq!(alt.len(), path.len());
        assert_ne!(alt.corner(), path.corner());
        assert_eq!(alt.alternate(), path);
    }

    #[test]
    fn display() {
        let path = LPath::new(p(0.0, 0.0), p(1.0, 2.0), Axis::Y);
        assert_eq!(path.to_string(), "(0, 0) -> (0, 2) -> (1, 2)");
    }
}
