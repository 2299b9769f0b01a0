//! Disk-graph connectivity of MANET snapshots.
//!
//! At every time step `t` the MANET snapshot induces the symmetric disk
//! graph `G_t`: agents are vertices, and two agents share an edge iff their
//! Euclidean distance is at most the transmission radius `R`. The paper's
//! introduction contrasts the connectivity threshold of the MRWP stationary
//! snapshot (a *root of n*, per \[13\]) with the `Θ(√log n)` threshold of
//! uniform-like models — experiment E11 reproduces that contrast with the
//! tools in this crate:
//!
//! * [`disk_giant_fraction`] — the giant-component fraction of a
//!   snapshot, from the grid index's pair sweep without building the
//!   graph;
//! * [`UnionFind`] — near-constant-time connected components;
//! * [`connectivity_threshold`] — bisection for the critical radius of a
//!   point cloud, configured by [`ThresholdSearch`].
//!
//! # Examples
//!
//! ```
//! use fastflood_geom::{Point, Rect};
//! use fastflood_graph::disk_giant_fraction;
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(5.0, 5.0),
//! ];
//! let region = Rect::square(10.0)?;
//! // two components: the giant holds two of the three agents
//! assert_eq!(disk_giant_fraction(region, 1.5, &pts)?, 2.0 / 3.0);
//! // at R = 6.5 the snapshot is connected
//! assert_eq!(disk_giant_fraction(region, 6.5, &pts)?, 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk_graph;
mod threshold;
mod union_find;

pub use disk_graph::disk_giant_fraction;
pub use threshold::{connectivity_threshold, ThresholdSearch};
pub use union_find::UnionFind;
