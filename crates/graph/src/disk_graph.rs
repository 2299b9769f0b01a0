//! The symmetric disk graph of a MANET snapshot.

use crate::{Components, UnionFind};
use fastflood_geom::{Point, Rect};
use fastflood_spatial::{GridIndex, SpatialError};
use std::collections::VecDeque;
use std::fmt;

/// The disk graph `G_t` of a snapshot: vertices are agents, edges connect
/// pairs at Euclidean distance at most the radius `R`.
///
/// Stored as a CSR adjacency structure; construction uses the grid index,
/// so building is `O(n + |E|)` rather than `O(n²)`.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Rect};
/// use fastflood_graph::DiskGraph;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let g = DiskGraph::build(Rect::square(10.0)?, 1.0, &pts)?;
/// assert_eq!(g.num_edges(), 2);       // a chain: 0-1, 1-2
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.components().is_connected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiskGraph {
    radius: f64,
    num_edges: usize,
    /// CSR: neighbors of `v` are `adj[starts[v]..starts[v+1]]`.
    starts: Vec<u32>,
    adj: Vec<u32>,
}

impl DiskGraph {
    /// Builds the disk graph of `positions` with transmission radius
    /// `radius` over `region`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpatialError`] from the underlying index (non-positive
    /// radius, non-finite positions).
    pub fn build(
        region: Rect,
        radius: f64,
        positions: &[Point],
    ) -> Result<DiskGraph, SpatialError> {
        let index = GridIndex::for_radius(region, radius, positions)?;
        let n = positions.len();
        let mut degree = vec![0u32; n + 1];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        index.for_each_pair_within(radius, |i, j| {
            pairs.push((i as u32, j as u32));
            degree[i + 1] += 1;
            degree[j + 1] += 1;
        });
        for v in 1..=n {
            degree[v] += degree[v - 1];
        }
        let starts = degree.clone();
        let mut cursor = degree;
        let mut adj = vec![0u32; pairs.len() * 2];
        for &(i, j) in &pairs {
            adj[cursor[i as usize] as usize] = j;
            cursor[i as usize] += 1;
            adj[cursor[j as usize] as usize] = i;
            cursor[j as usize] += 1;
        }
        // sort each adjacency list for deterministic iteration order
        for v in 0..n {
            let lo = starts[v] as usize;
            let hi = starts[v + 1] as usize;
            adj[lo..hi].sort_unstable();
        }
        Ok(DiskGraph {
            radius,
            num_edges: pairs.len(),
            starts,
            adj,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The radius the graph was built with.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let lo = self.starts[v] as usize;
        let hi = self.starts[v + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Average degree (0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// Connected components of the snapshot.
    pub fn components(&self) -> Components {
        let mut uf = UnionFind::new(self.num_vertices());
        for v in 0..self.num_vertices() {
            for &u in self.neighbors(v) {
                uf.union(v, u as usize);
            }
        }
        Components::from_union_find(&mut uf)
    }
}

/// The fraction of `positions` in the largest connected component of
/// their disk graph with radius `radius` over `region` (0 when empty):
/// the value of `DiskGraph::build(..)?.components().giant_fraction()`,
/// computed without building the graph. Each pair within `radius` goes
/// straight from the grid index into a [`UnionFind`], so there is no
/// pair list, no adjacency and no per-vertex sort.
///
/// # Errors
///
/// Propagates [`SpatialError`] from the underlying index (non-positive
/// radius, non-finite positions).
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Rect};
/// use fastflood_graph::disk_giant_fraction;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(5.0, 5.0)];
/// assert_eq!(disk_giant_fraction(Rect::square(10.0)?, 1.5, &pts)?, 2.0 / 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn disk_giant_fraction(
    region: Rect,
    radius: f64,
    positions: &[Point],
) -> Result<f64, SpatialError> {
    let index = GridIndex::for_radius(region, radius, positions)?;
    if positions.is_empty() {
        return Ok(0.0);
    }
    let mut uf = UnionFind::new(positions.len());
    index.for_each_pair_within(radius, |i, j| {
        uf.union(i, j);
    });
    Ok(uf.largest_set() as f64 / positions.len() as f64)
}

impl fmt::Display for DiskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disk graph: {} vertices, {} edges, R = {}",
            self.num_vertices(),
            self.num_edges,
            self.radius
        )
    }
}

/// Multi-source BFS hop distances.
///
/// Returns, for every vertex, the minimum number of hops to any of the
/// `sources` (`None` when unreachable). Hop distance on the snapshot graph
/// lower-bounds flooding progress in a *static* network and is used by the
/// static-baseline experiments.
///
/// # Panics
///
/// Panics if a source index is out of range.
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Rect};
/// use fastflood_graph::{bfs_hops, DiskGraph};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let g = DiskGraph::build(Rect::square(10.0)?, 1.0, &pts)?;
/// let hops = bfs_hops(&g, &[0]);
/// assert_eq!(hops, vec![Some(0), Some(1), Some(2)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bfs_hops(graph: &DiskGraph, sources: &[usize]) -> Vec<Option<u32>> {
    let n = graph.num_vertices();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s < n, "source {s} out of range");
        if dist[s].is_none() {
            dist[s] = Some(0);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v].expect("queued vertices have distances");
        for &u in graph.neighbors(v) {
            let u = u as usize;
            if dist[u].is_none() {
                dist[u] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Rect {
        Rect::square(100.0).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = DiskGraph::build(square(), 1.0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert!(g.components().is_connected());
    }

    #[test]
    fn chain_adjacency() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = DiskGraph::build(square(), 1.0, &pts).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.degree(4), 1);
        assert!((g.mean_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn radius_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let g = DiskGraph::build(square(), 2.0, &pts).unwrap();
        assert_eq!(g.num_edges(), 1);
        let g2 = DiskGraph::build(square(), 1.999, &pts).unwrap();
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn clique_when_all_close() {
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(50.0 + 0.01 * i as f64, 50.0))
            .collect();
        let g = DiskGraph::build(square(), 1.0, &pts).unwrap();
        assert_eq!(g.num_edges(), 15); // C(6,2)
        for v in 0..6 {
            assert_eq!(g.degree(v), 5);
        }
        assert!(g.components().is_connected());
    }

    #[test]
    fn components_split() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(50.5, 50.0),
            Point::new(99.0, 99.0),
        ];
        let g = DiskGraph::build(square(), 1.0, &pts).unwrap();
        let c = g.components();
        assert_eq!(c.count(), 3);
        assert_eq!(c.isolated(), 1);
        assert!(c.same_component(0, 1));
        assert!(c.same_component(2, 3));
        assert!(!c.same_component(0, 2));
    }

    #[test]
    fn bfs_multi_source() {
        // two chains: 0-1-2 and 3-4; sources 0 and 3
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(51.0, 50.0),
        ];
        let g = DiskGraph::build(square(), 1.0, &pts).unwrap();
        let hops = bfs_hops(&g, &[0, 3]);
        assert_eq!(hops, vec![Some(0), Some(1), Some(2), Some(0), Some(1)]);
        // single source leaves the other chain unreachable
        let hops = bfs_hops(&g, &[0]);
        assert_eq!(hops[3], None);
        assert_eq!(hops[4], None);
        // duplicate sources are fine
        let hops = bfs_hops(&g, &[0, 0]);
        assert_eq!(hops[0], Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        let g = DiskGraph::build(square(), 1.0, &[Point::new(0.0, 0.0)]).unwrap();
        bfs_hops(&g, &[5]);
    }

    #[test]
    fn display() {
        let g = DiskGraph::build(square(), 2.5, &[Point::new(1.0, 1.0)]).unwrap();
        assert!(g.to_string().contains("1 vertices"));
    }

    #[test]
    fn giant_fraction_matches_the_built_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for (n, radius) in [(0, 1.0), (1, 1.0), (300, 2.0), (2_000, 1.5), (2_000, 4.0)] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let built = DiskGraph::build(square(), radius, &pts)
                .unwrap()
                .components()
                .giant_fraction();
            let direct = disk_giant_fraction(square(), radius, &pts).unwrap();
            assert_eq!(direct.to_bits(), built.to_bits(), "n = {n}, R = {radius}");
        }
        assert!(disk_giant_fraction(square(), 0.0, &[]).is_err());
    }
}
