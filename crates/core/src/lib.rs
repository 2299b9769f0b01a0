//! Flooding-time simulation core for *Fast Flooding over Manhattan*.
//!
//! This crate assembles the substrates (geometry, mobility, spatial index,
//! graph analytics) into the paper's experimental apparatus:
//!
//! * [`SimParams`] — the network parameters `(n, L, R, v)` together with
//!   every derived quantity the paper defines: the cell-side band of
//!   Ineq. 6, the radius/speed assumptions of Ineqs. 7–8, the Central-Zone
//!   threshold of Definition 4, the Corollary 12 large-`R` threshold, the
//!   Suburb diameter bound `S`, and the Theorem 3 / Theorem 10 /
//!   Theorem 18 time bounds;
//! * [`ZoneMap`] — the `m × m` cell partition with exact Theorem 1 cell
//!   masses, Central Zone / Suburb classification, boundary computation
//!   (`∂B`) and the Lemma 9 expansion predicate, plus the Suburb-extent
//!   measurements of Lemma 15;
//! * [`FloodingSim`] — the synchronous move-then-transmit flooding engine,
//!   generic over any [`Mobility`](fastflood_mobility::Mobility) model,
//!   with protocol variants (full flooding, parsimonious, k-push gossip),
//!   zone-resolved completion times and spread curves;
//! * [`DensityMonitor`] — the Lemma 7 density-condition tracker;
//! * [`run_trials`] — a deterministic multi-threaded trial runner.
//!
//! # Examples
//!
//! ```
//! use fastflood_core::{FloodingSim, SimConfig, SimParams};
//! use fastflood_mobility::Mrwp;
//!
//! let params = SimParams::standard(400, 8.0, 0.8)?; // n=400, L=√n, R=8, v=0.8
//! let model = Mrwp::new(params.side(), params.speed())?;
//! let mut sim = FloodingSim::new(model, SimConfig::new(params.n(), params.radius()).seed(7))?;
//! let report = sim.run(10_000);
//! assert!(report.completed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
pub mod checkpoint;
mod density;
mod flooding;
mod params;
mod trials;
mod zones;

pub use cancel::CancelToken;
pub use checkpoint::{CheckpointError, Snapshot};
pub use density::DensityMonitor;
pub use flooding::{
    EngineMode, FloodingReport, FloodingSim, InitMode, Parallelism, Protocol, SimConfig, SimRng,
    SourcePlacement, StepPhases,
};
pub use params::SimParams;
pub use trials::run_trials;
pub use zones::{Zone, ZoneMap};

use std::error::Error;
use std::fmt;

/// Error produced by the simulation core on invalid configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A parameter failed validation; the message names it.
    BadParameter(&'static str),
    /// A mobility-model construction failed.
    Mobility(fastflood_mobility::MobilityError),
    /// The underlying geometry rejected the configuration.
    Geometry(fastflood_geom::GeomError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadParameter(what) => write!(f, "invalid parameter: {what}"),
            CoreError::Mobility(e) => write!(f, "mobility model: {e}"),
            CoreError::Geometry(e) => write!(f, "geometry: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::BadParameter(_) => None,
            CoreError::Mobility(e) => Some(e),
            CoreError::Geometry(e) => Some(e),
        }
    }
}

impl From<fastflood_mobility::MobilityError> for CoreError {
    fn from(e: fastflood_mobility::MobilityError) -> Self {
        CoreError::Mobility(e)
    }
}

impl From<fastflood_geom::GeomError> for CoreError {
    fn from(e: fastflood_geom::GeomError) -> Self {
        CoreError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = CoreError::BadParameter("n");
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_none());
        let m = CoreError::from(fastflood_mobility::MobilityError::BadSide(0.0));
        assert!(m.source().is_some());
        let g = CoreError::from(fastflood_geom::GeomError::ZeroSubdivision);
        assert!(g.source().is_some());
        assert!(!format!("{m} {g}").is_empty());
    }
}
