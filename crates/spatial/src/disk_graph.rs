//! The symmetric disk graph of a MANET snapshot, seen through its giant
//! component.

use crate::union_find::UnionFind;
use crate::{GridIndexBuffer, SpatialError};
use fastflood_geom::{Point, Rect};

/// The fraction of `positions` in the largest connected component of
/// their disk graph with radius `radius` over `region` (0 when empty).
///
/// The disk graph joins two agents iff their Euclidean distance is at
/// most `radius`. It is never built: each pair within `radius` goes
/// straight from [`GridIndexBuffer::for_each_pair_within`] into a
/// union-find forest, so there is no pair list and no adjacency.
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
/// use fastflood_spatial::disk_giant_fraction;
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
    let mut grid = GridIndexBuffer::new();
    grid.rebuild(region, radius, positions)?;
    if positions.is_empty() {
        return Ok(0.0);
    }
    let mut uf = UnionFind::new(positions.len());
    grid.for_each_pair_within(radius, |i, j| {
        uf.union(i, j);
    });
    Ok(uf.largest_set() as f64 / positions.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForceIndex;

    fn square() -> Rect {
        Rect::square(100.0).unwrap()
    }

    #[test]
    fn empty_graph() {
        assert_eq!(disk_giant_fraction(square(), 1.0, &[]).unwrap(), 0.0);
        assert!(disk_giant_fraction(square(), 0.0, &[]).is_err());
    }

    #[test]
    fn chain_adjacency() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(disk_giant_fraction(square(), 1.0, &pts).unwrap(), 1.0);
        assert_eq!(disk_giant_fraction(square(), 0.5, &pts).unwrap(), 0.2);
    }

    #[test]
    fn radius_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        assert_eq!(disk_giant_fraction(square(), 2.0, &pts).unwrap(), 1.0);
        assert_eq!(disk_giant_fraction(square(), 1.999, &pts).unwrap(), 0.5);
    }

    #[test]
    fn clique_when_all_close() {
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(50.0 + 0.01 * i as f64, 50.0))
            .collect();
        assert_eq!(disk_giant_fraction(square(), 1.0, &pts).unwrap(), 1.0);
    }

    #[test]
    fn components_split() {
        // components {0, 1}, {2, 3, 5} and the isolated {4}
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(50.5, 50.0),
            Point::new(99.0, 99.0),
            Point::new(51.0, 50.5),
        ];
        assert_eq!(disk_giant_fraction(square(), 1.0, &pts).unwrap(), 0.5);
    }

    #[test]
    fn non_square_region_finds_pairs_across_short_rows() {
        // regression: a grid sized by the longer side had rows 0.625 tall
        // here, and the half-neighborhood sweep missed this 5.5-apart pair
        let strip = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 10.0)).unwrap();
        let pts = [Point::new(1.0, 1.0), Point::new(1.0, 6.5)];
        assert_eq!(disk_giant_fraction(strip, 6.0, &pts).unwrap(), 1.0);
    }

    #[test]
    fn giant_fraction_matches_the_built_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for (n, radius) in [(0, 1.0), (1, 1.0), (300, 2.0), (2_000, 1.5), (2_000, 4.0)] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let mut uf = UnionFind::new(n);
            for (i, j) in BruteForceIndex::build(&pts).pairs_within(radius) {
                uf.union(i, j);
            }
            let built = if n == 0 {
                0.0
            } else {
                uf.largest_set() as f64 / n as f64
            };
            let direct = disk_giant_fraction(square(), radius, &pts).unwrap();
            assert_eq!(direct.to_bits(), built.to_bits(), "n = {n}, R = {radius}");
        }
    }
}
