//! Coordinate axes and the four cardinal directions.

use crate::Vec2;
use std::fmt;

/// One of the two coordinate axes.
///
/// The MRWP model chooses, with a fair coin, which axis an agent travels
/// *first*: the paper's path `P1 = ((x0,y0) -> (x0,y) -> (x,y))` moves along
/// [`Axis::Y`] first, `P2` along [`Axis::X`] first.
///
/// # Examples
///
/// ```
/// use fastflood_geom::Axis;
///
/// assert_eq!(Axis::X.other(), Axis::Y);
/// assert_eq!(Axis::Y.other(), Axis::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Axis {
    /// Horizontal axis.
    X,
    /// Vertical axis.
    Y,
}

impl Axis {
    /// Both axes, in `[X, Y]` order.
    pub const ALL: [Axis; 2] = [Axis::X, Axis::Y];

    /// The other axis.
    #[inline]
    pub fn other(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }

    /// Extracts this axis' coordinate from an `(x, y)` pair.
    #[inline]
    pub fn of(self, x: f64, y: f64) -> f64 {
        match self {
            Axis::X => x,
            Axis::Y => y,
        }
    }

    /// Unit vector along this axis (positive direction).
    #[inline]
    pub fn unit(self) -> Vec2 {
        match self {
            Axis::X => Vec2::new(1.0, 0.0),
            Axis::Y => Vec2::new(0.0, 1.0),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
        }
    }
}

/// One of the four cardinal directions.
///
/// Used by the destination-distribution analysis (Theorem 2): conditioned on
/// its position, an MRWP agent's destination lies on one of the four
/// axis-parallel segments (the "cross") with probability 1/2 total, split
/// among the directions according to the `φ` formulas (Eqs. 4–5).
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Cardinal, Axis};
///
/// assert_eq!(Cardinal::North.axis(), Axis::Y);
/// assert_eq!(Cardinal::West.sign(), -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Cardinal {
    /// Positive `y`.
    North,
    /// Negative `y`.
    South,
    /// Positive `x`.
    East,
    /// Negative `x`.
    West,
}

impl Cardinal {
    /// All four directions, in `[North, South, East, West]` order.
    pub const ALL: [Cardinal; 4] = [
        Cardinal::North,
        Cardinal::South,
        Cardinal::East,
        Cardinal::West,
    ];

    /// The axis this direction moves along.
    #[inline]
    pub fn axis(self) -> Axis {
        match self {
            Cardinal::North | Cardinal::South => Axis::Y,
            Cardinal::East | Cardinal::West => Axis::X,
        }
    }

    /// `+1.0` for North/East, `-1.0` for South/West.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Cardinal::North | Cardinal::East => 1.0,
            Cardinal::South | Cardinal::West => -1.0,
        }
    }

    /// Unit vector pointing in this direction.
    #[inline]
    pub fn unit(self) -> Vec2 {
        self.axis().unit() * self.sign()
    }
}

impl fmt::Display for Cardinal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinal::North => write!(f, "N"),
            Cardinal::South => write!(f, "S"),
            Cardinal::East => write!(f, "E"),
            Cardinal::West => write!(f, "W"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_other_is_involution() {
        for a in Axis::ALL {
            assert_eq!(a.other().other(), a);
        }
    }

    #[test]
    fn axis_of_extracts_coordinate() {
        assert_eq!(Axis::X.of(3.0, 7.0), 3.0);
        assert_eq!(Axis::Y.of(3.0, 7.0), 7.0);
    }

    #[test]
    fn axis_units_are_orthonormal() {
        let (x, y) = (Axis::X.unit(), Axis::Y.unit());
        assert_eq!(x.x * y.x + x.y * y.y, 0.0);
        assert_eq!(Axis::X.unit().norm(), 1.0);
        assert_eq!(Axis::Y.unit().norm(), 1.0);
    }

    #[test]
    fn cardinal_units_match_sign_and_axis() {
        for c in Cardinal::ALL {
            let u = c.unit();
            assert_eq!(u.norm(), 1.0);
            assert_eq!(c.axis().of(u.x, u.y), c.sign());
        }
    }

    #[test]
    fn displays() {
        assert_eq!(Axis::X.to_string(), "x");
        assert_eq!(Cardinal::North.to_string(), "N");
        assert_eq!(Cardinal::West.to_string(), "W");
    }
}
