//! Planar geometry substrate for the `fastflood` MANET simulator.
//!
//! This crate provides the geometric vocabulary used by every other crate in
//! the workspace: [`Point`]s and [`Vec2`]s in the plane, the three distance
//! metrics relevant to the Manhattan Random Way-Point model
//! ([`Point::euclid`], [`Point::manhattan`], [`Point::chebyshev`]),
//! [`Axis`] and [`Cardinal`] directions, axis-aligned [`Rect`]angles,
//! the square [`CellGrid`] partition used by the paper's Central-Zone
//! analysis, and the Manhattan [`LPath`] (the two-leg shortest path an
//! MRWP agent follows between way-points).
//!
//! Everything is plain `f64` geometry with no external dependencies.
//!
//! # Examples
//!
//! ```
//! use fastflood_geom::{Point, LPath, Axis};
//!
//! // An agent at (0, 0) travels to (3, 4) moving vertically first
//! // (the paper's path P1: (x0,y0) -> (x0,y) -> (x,y)).
//! let path = LPath::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0), Axis::Y);
//! assert_eq!(path.len(), 7.0); // Manhattan length
//! assert_eq!(path.point_at(4.0), Point::new(0.0, 4.0)); // the turn corner
//! assert_eq!(path.point_at(6.0), Point::new(2.0, 4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod grid;
mod lpath;
mod point;
mod rect;

pub use axis::{Axis, Cardinal};
pub use grid::{Cell, CellGrid, CellIter};
pub use lpath::LPath;
pub use point::{Point, Vec2};
pub use rect::Rect;

use std::error::Error;
use std::fmt;

/// Error produced when constructing a geometric object from invalid inputs.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{CellGrid, GeomError};
///
/// let err = CellGrid::new(-1.0, 4).unwrap_err();
/// assert!(matches!(err, GeomError::NonPositiveLength(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GeomError {
    /// A length parameter (side, radius, ...) must be strictly positive.
    NonPositiveLength(f64),
    /// A subdivision count must be at least one.
    ZeroSubdivision,
    /// A rectangle was given corners with `min > max` on some axis.
    InvertedRect {
        /// Requested minimum corner.
        min: Point,
        /// Requested maximum corner.
        max: Point,
    },
    /// A coordinate was not finite (NaN or infinite).
    NotFinite(f64),
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::NonPositiveLength(v) => {
                write!(f, "length must be strictly positive, got {v}")
            }
            GeomError::ZeroSubdivision => write!(f, "subdivision count must be at least 1"),
            GeomError::InvertedRect { min, max } => {
                write!(f, "rectangle corners inverted: min {min} exceeds max {max}")
            }
            GeomError::NotFinite(v) => write!(f, "coordinate must be finite, got {v}"),
        }
    }
}

impl Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            GeomError::NonPositiveLength(-2.0),
            GeomError::ZeroSubdivision,
            GeomError::InvertedRect {
                min: Point::new(1.0, 1.0),
                max: Point::new(0.0, 0.0),
            },
            GeomError::NotFinite(f64::NAN),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<GeomError>();
    }
}
