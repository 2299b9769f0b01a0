//! Disk-graph snapshot analytics for MANET connectivity studies.
//!
//! At every time step `t` the MANET snapshot induces the symmetric disk
//! graph `G_t`: agents are vertices, and two agents share an edge iff their
//! Euclidean distance is at most the transmission radius `R`. The paper's
//! introduction contrasts the connectivity threshold of the MRWP stationary
//! snapshot (a *root of n*, per \[13\]) with the `Θ(√log n)` threshold of
//! uniform-like models — experiment E11 reproduces that contrast with the
//! tools in this crate:
//!
//! * [`DiskGraph`] — adjacency built from positions via the grid index;
//! * [`disk_giant_fraction`] — the giant-component fraction of a
//!   snapshot, straight from the grid index without building the graph;
//! * [`UnionFind`] — near-constant-time connected components;
//! * [`Components`] — component census (count, sizes, giant fraction,
//!   isolated vertices);
//! * [`bfs_hops`] — multi-source BFS hop distances;
//! * [`connectivity_threshold`] — bisection for the critical radius of a
//!   point cloud.
//!
//! # Examples
//!
//! ```
//! use fastflood_geom::{Point, Rect};
//! use fastflood_graph::DiskGraph;
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(5.0, 5.0),
//! ];
//! let g = DiskGraph::build(Rect::square(10.0)?, 1.5, &pts)?;
//! assert_eq!(g.degree(0), 1);
//! let comps = g.components();
//! assert_eq!(comps.count(), 2);
//! assert!(!comps.is_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod components;
mod disk_graph;
mod metrics;
mod threshold;
mod union_find;

pub use components::Components;
pub use disk_graph::{bfs_hops, disk_giant_fraction, DiskGraph};
pub use metrics::{eccentricity, hop_diameter_estimate, hop_diameter_exact};
pub use threshold::{connectivity_threshold, ThresholdSearch};
pub use union_find::UnionFind;
