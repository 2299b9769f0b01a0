//! # fastflood
//!
//! A production-quality Rust reproduction of **“Fast Flooding over
//! Manhattan”** (Clementi, Monti, Silvestri — PODC 2010; arXiv:1002.3757):
//! the flooding time of a MANET whose `n` agents move over the square
//! `[0, L]²` under the **Manhattan Random Way-Point** (MRWP) model and
//! exchange data within transmission radius `R`.
//!
//! The paper proves that flooding completes w.h.p. in
//! `O(L/R + (L/v)·(L²/R²)·(log n)/n)` steps — the time to traverse the
//! square at "speed" `R` plus the time to traverse the sparse **Suburb**
//! (the four corner regions) at speed `v` — even when `R` is exponentially
//! below the connectivity threshold. This workspace rebuilds the entire
//! apparatus: the mobility models with exact stationary sampling, the
//! closed-form stationary distributions (Theorems 1–2), the cell/zone
//! machinery of §4, the flooding engine, disk-graph connectivity
//! thresholds, a statistics toolkit, and the `exp_all` runner regenerating
//! every figure and theorem-level claim (see `crates/bench/src/experiments/`).
//!
//! This crate is the umbrella: it re-exports the public APIs of all
//! member crates so applications can depend on `fastflood` alone. It
//! has no binary; the command line is `fastflood-bench`'s `scenarios`
//! (floods of library scenarios or scenario files, and `scenarios
//! bounds` for the paper's derived quantities) beside `exp_all`.
//!
//! ## Quickstart
//!
//! ```
//! use fastflood::core::{FloodingSim, SimConfig, SimParams, SourcePlacement};
//! use fastflood::mobility::Mrwp;
//!
//! // n = 400 agents on the standard square L = √n, radius 6, speed 0.6
//! let params = SimParams::standard(400, 6.0, 0.6)?;
//! let model = Mrwp::new(params.side(), params.speed())?;
//! let mut sim = FloodingSim::new(
//!     model,
//!     SimConfig::new(params.n(), params.radius())
//!         .seed(42)
//!         .source(SourcePlacement::Center),
//! )?;
//! let report = sim.run(10_000);
//! assert!(report.completed);
//! println!(
//!     "flooded in {} steps (Theorem 3 shape: {:.1})",
//!     report.flooding_time.unwrap(),
//!     params.flooding_time_bound()
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Planar geometry: points, metrics, rectangles, grids, Manhattan L-paths.
pub mod geom {
    pub use fastflood_geom::*;
}

/// Statistics: summaries, histograms, KS/chi² tests, regression, seeds.
pub mod stats {
    pub use fastflood_stats::*;
}

/// Spatial indexing: one bucket grid for radius queries and the bucket
/// join, plus a brute-force oracle; and the disk-graph connectivity of
/// a snapshot (giant-component fraction, connectivity thresholds).
pub mod spatial {
    pub use fastflood_spatial::*;
}

/// Mobility models: MRWP (+ exact stationary distributions), RWP,
/// disk-walk, static.
pub mod mobility {
    pub use fastflood_mobility::*;
}

/// The simulation core: parameters, zones, the flooding engine, trials.
pub mod core {
    pub use fastflood_core::*;
}

// The most-used types, re-exported at the crate root for convenience.
pub use fastflood_core::{
    FloodingReport, FloodingSim, SimConfig, SimParams, SourcePlacement, Zone, ZoneMap,
};
pub use fastflood_geom::Point;
pub use fastflood_mobility::{Mobility, Mrwp};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile_and_agree() {
        // the root re-exports are the same items as the module paths
        fn same_type<T>(_: T, _: T) {}
        let a = crate::SimParams::standard(100, 2.0, 0.1).unwrap();
        let b = crate::core::SimParams::standard(100, 2.0, 0.1).unwrap();
        same_type(a, b);
    }
}
