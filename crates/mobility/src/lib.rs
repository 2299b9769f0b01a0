//! Mobility models for the `fastflood` MANET simulator.
//!
//! The centerpiece is the **Manhattan Random Way-Point** model ([`Mrwp`],
//! paper §2): each agent repeatedly picks a destination uniformly at random
//! in the square `[0, L]²`, flips a fair coin between the two Manhattan
//! shortest paths (vertical-first `P1` or horizontal-first `P2`), and
//! travels at constant speed `v`. The crate provides:
//!
//! * exact **perfect simulation** of the stationary phase
//!   ([`Mrwp::init_stationary`]) via length-biased trip sampling, so
//!   experiments start in stationarity instead of waiting out a warm-up;
//! * the paper's **closed-form stationary distributions** in
//!   [`distributions`]: the spatial density of Theorem 1, the destination
//!   distribution of Theorem 2 (quadrant densities and the `φ` cross
//!   probabilities of Eqs. 4–5), exact cell masses (Observation 5), and an
//!   exact sampler for the Theorem 1 density;
//! * baseline models for the comparison experiments: classical
//!   [`Rwp`] (straight-line paths), the disk-based random walk
//!   [`DiskWalk`] of the authors' earlier papers, and a [`Static`]
//!   (immobile) model;
//! * [`TurnRecorder`] instrumentation for the Lemma 13 turn-count bound.
//!
//! All models implement the [`Mobility`] trait, which the flooding engine
//! in `fastflood-core` is generic over. The engine's move pass steps the
//! whole population through [`Mobility::step_batch`] — one pass over a
//! model-chosen [`Mobility::Batch`] layout (for [`Mrwp`], the hot/cold
//! split [`MrwpBatch`]) that also *measures* the step's maximum
//! displacement, the drift bound behind the spatial layer's deferred
//! re-binning.
//!
//! # Examples
//!
//! ```
//! use fastflood_mobility::{Mobility, Mrwp};
//! use rand::SeedableRng;
//!
//! let model = Mrwp::new(1000.0, 1.0)?; // L = 1000, v = 1
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut state = model.init_stationary(&mut rng);
//! let before = model.position(&state);
//! model.step(&mut state, &mut rng);
//! let after = model.position(&state);
//! // one step moves exactly v along the Manhattan path
//! assert!((before.manhattan(after) - 1.0).abs() < 1e-9);
//! # Ok::<(), fastflood_mobility::MobilityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk_walk;
pub mod distributions;
mod mixture;
mod model;
mod mrwp;
mod rwp;
pub mod snapshot;
mod statik;
mod street_grid;
mod turns;

pub use disk_walk::{DiskWalk, DiskWalkState};
pub use mixture::{Mixture, MixtureState};
pub use model::{
    drain_chunks, move_chunk_count, step_batch_aos, BlockRng, ChunkCtx, Mobility, StepEvents,
    MOVE_CHUNK, RNG_BLOCK,
};
pub use mrwp::{Mrwp, MrwpBatch, MrwpState};
pub use rwp::{Rwp, RwpState};
pub use snapshot::{ByteReader, ByteWriter, SnapshotState};
pub use statik::{Placement, Static, StaticState};
pub use street_grid::{StreetMrwp, StreetMrwpState};
pub use turns::TurnRecorder;

use std::error::Error;
use std::fmt;

/// Error produced when constructing a mobility model from invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MobilityError {
    /// The region side `L` must be strictly positive and finite.
    BadSide(f64),
    /// The speed `v` must be nonnegative and finite.
    BadSpeed(f64),
    /// A model-specific length parameter (e.g. the disk-walk radius) must
    /// be strictly positive and finite.
    BadRadius(f64),
    /// A street grid needs at least one city block per side.
    BadBlocks(usize),
    /// A [`Mixture`] weight must be strictly positive and finite; holds
    /// the first offending weight.
    BadWeight(f64),
    /// A [`Mixture`] needs at least one component model and exactly one
    /// weight per model.
    MixtureShape {
        /// Number of component models given.
        models: usize,
        /// Number of weights given.
        weights: usize,
    },
}

impl fmt::Display for MobilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityError::BadSide(v) => {
                write!(f, "region side must be positive and finite, got {v}")
            }
            MobilityError::BadSpeed(v) => {
                write!(f, "speed must be nonnegative and finite, got {v}")
            }
            MobilityError::BadRadius(v) => write!(f, "radius must be positive and finite, got {v}"),
            MobilityError::BadBlocks(b) => write!(f, "block count must be at least 1, got {b}"),
            MobilityError::BadWeight(w) => {
                write!(f, "mixture weight must be positive and finite, got {w}")
            }
            MobilityError::MixtureShape { models, weights } => write!(
                f,
                "a mixture needs one weight per model and at least one model, \
                 got {models} models and {weights} weights"
            ),
        }
    }
}

impl Error for MobilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            MobilityError::BadSide(0.0),
            MobilityError::BadSpeed(-1.0),
            MobilityError::BadRadius(f64::NAN),
            MobilityError::BadBlocks(0),
            MobilityError::BadWeight(0.0),
            MobilityError::MixtureShape {
                models: 1,
                weights: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
