//! Statistics toolkit for the `fastflood` experiments.
//!
//! Every experiment in the reproduction of *Fast Flooding over Manhattan*
//! needs the same small set of statistical tools, implemented here with no
//! external dependencies:
//!
//! * [`Summary`] — descriptive statistics with confidence intervals;
//! * [`Histogram1d`] / [`Histogram2d`] — binned empirical distributions and
//!   total-variation distances against analytic densities;
//! * [`ks`] — Kolmogorov–Smirnov goodness-of-fit tests (used to validate the
//!   stationary spatial distribution of Theorem 1);
//! * [`chi2`] — chi-square goodness-of-fit with p-values from the
//!   regularized incomplete gamma function in [`special`];
//! * [`regression`] — ordinary least squares and log–log scaling-exponent
//!   fits (used for the Theorem 3 / Theorem 18 scaling experiments);
//! * [`seeds`] — deterministic seed derivation so every experiment table
//!   is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use fastflood_stats::Summary;
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0])?;
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.median(), 2.5);
//! # Ok::<(), fastflood_stats::StatsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi2;
mod histogram;
pub mod ks;
pub mod regression;
pub mod seeds;
pub mod special;
mod summary;

pub use histogram::{Histogram1d, Histogram2d};
pub use summary::Summary;

use std::error::Error;
use std::fmt;

/// Error produced by statistical routines on invalid input.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input sample was empty.
    EmptyData,
    /// Two paired inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A histogram was requested with an invalid range or zero bins.
    BadBins,
    /// An input value was NaN or infinite where a finite value is required.
    NotFinite,
    /// A probability/expected-count argument was out of its valid range.
    BadParameter(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyData => write!(f, "input sample is empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired inputs differ in length: {left} vs {right}")
            }
            StatsError::BadBins => {
                write!(f, "histogram needs a positive range and at least one bin")
            }
            StatsError::NotFinite => write!(f, "input value must be finite"),
            StatsError::BadParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            StatsError::EmptyData,
            StatsError::LengthMismatch { left: 1, right: 2 },
            StatsError::BadBins,
            StatsError::NotFinite,
            StatsError::BadParameter("alpha"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<StatsError>();
    }
}
