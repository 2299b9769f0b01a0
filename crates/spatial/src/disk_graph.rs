//! The symmetric disk graph of a MANET snapshot, seen through its giant
//! component.

use crate::union_find::UnionFind;
use crate::SpatialError;
use fastflood_geom::{Point, Rect};
use std::f64::consts::FRAC_1_SQRT_2;

/// Cells the counting-sort table may hold per position (plus a constant
/// floor): radii whose clique cells would need more get wider cells.
const CELLS_PER_POINT: usize = 4;

/// Relative slack on cell geometry. Binning rounds a position's cell
/// coordinate by a few ulps of the table's width, which this dwarfs.
const SLACK: f64 = 1e-6;

/// Cell offsets within one cell of the scanned one, half of them, so
/// that every two such cells meet once: E, NW, N and NE.
const NEAR: [(isize, usize); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];

/// Half of the cell offsets exactly two cells away (Chebyshev): the
/// rest of the 5×5 block that cells narrower than `R` can reach into.
const FAR: [(isize, usize); 8] = [
    (2, 0),
    (-2, 1),
    (2, 1),
    (-2, 2),
    (-1, 2),
    (0, 2),
    (1, 2),
    (2, 2),
];

/// The fraction of `positions` in the largest connected component of
/// their disk graph with radius `radius` over `region` (0 when empty).
///
/// The disk graph joins two agents iff their Euclidean distance is at
/// most `radius`. It is never built. The positions are counting-sorted
/// into square cells of side just under `R/√2`, over `region` grown to
/// cover any position outside it. Two agents in one such cell are
/// within `R` of each other, so each cell is one element of a
/// union-find forest, weighing its count, with no distance test. Cells
/// then meet their half-neighbourhood in two passes, the 4 adjacent
/// offsets and then the 8 offsets two cells away. A cell pair already
/// in one component is skipped, and a pair scan stops at its first pair
/// within `R`.
///
/// A radius so small that such cells would need more than four table
/// cells per position gets wider cells, sized to that budget. Their
/// agents are the union-find's elements, and every pair in reach,
/// in-cell pairs included, is distance-tested. Either way the largest
/// component is exact, with the pair test `dx² + dy² <= R²` of
/// [`BruteForceIndex::pairs_within`].
///
/// [`BruteForceIndex::pairs_within`]: crate::BruteForceIndex::pairs_within
///
/// # Errors
///
/// * [`SpatialError::BadBucketSize`] — a non-positive or non-finite
///   radius;
/// * [`SpatialError::NotFinite`] — the first position with a NaN or
///   infinite coordinate.
///
/// # Panics
///
/// Panics with more than `u32::MAX` positions.
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
    if radius <= 0.0 || !radius.is_finite() {
        return Err(SpatialError::BadBucketSize(radius));
    }
    let (mut lo, mut hi) = (region.min(), region.max());
    for (index, p) in positions.iter().enumerate() {
        if !p.is_finite() {
            return Err(SpatialError::NotFinite { index });
        }
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    let n = positions.len();
    if n == 0 {
        return Ok(0.0);
    }
    assert!(u32::try_from(n).is_ok(), "more than 2^32 - 1 positions");

    let (w, h) = (hi.x - lo.x, hi.y - lo.y);
    let (side, cliques) = cell_side(w, h, radius, n);
    let (mx, my) = (cells_along(w, side) as usize, cells_along(h, side) as usize);
    let cells = mx * my;

    // counting sort into cell order: `first[c]..first[c + 1]` are the
    // slots of cell `c`
    let inv = 1.0 / side;
    let cell_of = |p: &Point| -> usize {
        let x = (((p.x - lo.x) * inv) as usize).min(mx - 1);
        let y = (((p.y - lo.y) * inv) as usize).min(my - 1);
        y * mx + x
    };
    let mut first = vec![0u32; cells + 1];
    for p in positions {
        first[cell_of(p)] += 1;
    }
    for c in 1..=cells {
        first[c] += first[c - 1];
    }
    let mut pts = vec![(0.0, 0.0); n];
    for p in positions.iter().rev() {
        let c = cell_of(p);
        first[c] -= 1;
        pts[first[c] as usize] = (p.x, p.y);
    }

    let r2 = radius * radius;
    let close = |a: usize, b: usize| {
        let ((x, y), (u, v)) = (pts[a], pts[b]);
        let (dx, dy) = (x - u, y - v);
        dx * dx + dy * dy <= r2
    };
    // clique cells are the union-find's elements, weighing their counts;
    // wider cells leave the slots as elements and test in-cell pairs
    let mut uf = if cliques {
        UnionFind::with_sizes((0..cells).map(|c| first[c + 1] - first[c]).collect())
    } else {
        let mut uf = UnionFind::new(n);
        for c in 0..cells {
            for a in first[c] as usize..first[c + 1] as usize {
                for b in first[c] as usize..a {
                    if close(b, a) {
                        uf.union(b, a);
                    }
                }
            }
        }
        uf
    };
    // cells two apart hold pairs within R only if a cell is no wider
    // (up to rounding)
    let far: &[(isize, usize)] = if side * (1.0 - SLACK) <= radius {
        &FAR
    } else {
        &[]
    };
    for offsets in [&NEAR[..], far] {
        for c in 0..cells {
            let (a0, a1) = (first[c] as usize, first[c + 1] as usize);
            if a0 == a1 {
                continue;
            }
            let (x, y) = ((c % mx) as isize, c / mx);
            let mut root = if cliques { uf.find(c) } else { 0 };
            for &(dx, dy) in offsets {
                let (nx, ny) = (x + dx, y + dy);
                if nx < 0 || nx >= mx as isize || ny >= my {
                    continue;
                }
                let nc = ny * mx + nx as usize;
                let (b0, b1) = (first[nc] as usize, first[nc + 1] as usize);
                if b0 == b1 {
                    continue;
                }
                if cliques {
                    // one close pair merges both cells
                    if root != uf.find(nc) && (a0..a1).any(|a| (b0..b1).any(|b| close(a, b))) {
                        uf.union(c, nc);
                        root = uf.find(c);
                    }
                } else {
                    for a in a0..a1 {
                        for b in b0..b1 {
                            if close(a, b) {
                                uf.union(a, b);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(uf.largest_set() as f64 / n as f64)
}

/// The cell side for `n` points over a `w × h` frame, and whether its
/// cells are cliques of the radius-`radius` disk graph.
///
/// Clique cells have side just under `R/√2`: the [`SLACK`] margin dwarfs
/// the rounding of the binning and of the pair test, so every in-cell
/// pair passes `dx² + dy² <= R²`. When they would need more than the table
/// budget, the side grows until `w·h / side²` and each axis's count fit
/// it (the table then holds at most about three budgets).
fn cell_side(w: f64, h: f64, radius: f64, n: usize) -> (f64, bool) {
    let budget = (CELLS_PER_POINT * n + 64) as f64;
    let clique_side = radius * FRAC_1_SQRT_2 * (1.0 - SLACK);
    if cells_along(w, clique_side) * cells_along(h, clique_side) <= budget {
        return (clique_side, true);
    }
    let side = (w * h / budget).sqrt().max(w.max(h) / budget);
    (side.max(clique_side), false)
}

/// Cells of side `side` that cover `len`, at least one.
fn cells_along(len: f64, side: f64) -> f64 {
    (len / side).ceil().max(1.0)
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

    /// Union-find over every brute-force pair.
    fn built_fraction(pts: &[Point], radius: f64) -> f64 {
        let mut uf = UnionFind::new(pts.len());
        for (i, j) in BruteForceIndex::build(pts).pairs_within(radius) {
            uf.union(i, j);
        }
        if pts.is_empty() {
            0.0
        } else {
            uf.largest_set() as f64 / pts.len() as f64
        }
    }

    #[test]
    fn giant_fraction_matches_the_built_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // clique cells at R = 1.5 and 4, widened cells at 0.2 and 0.7
        for (n, radius) in [
            (0, 1.0),
            (1, 1.0),
            (300, 2.0),
            (2_000, 1.5),
            (2_000, 4.0),
            (2_000, 0.7),
            (2_000, 0.2),
        ] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let direct = disk_giant_fraction(square(), radius, &pts).unwrap();
            let built = built_fraction(&pts, radius);
            assert_eq!(direct.to_bits(), built.to_bits(), "n = {n}, R = {radius}");
        }
        // a 10×10 lattice 7.3 by 6.1 apart: rows join at R = 6.1, and R = 8
        // also joins the columns but no diagonal
        let lattice: Vec<Point> = (0..100)
            .map(|k| Point::new((k / 10) as f64 * 7.3 + 1.0, (k % 10) as f64 * 6.1 + 2.0))
            .collect();
        for radius in [6.0, 6.1, 7.3, 8.0, 9.5] {
            let direct = disk_giant_fraction(square(), radius, &lattice).unwrap();
            let built = built_fraction(&lattice, radius);
            assert_eq!(direct.to_bits(), built.to_bits(), "lattice R = {radius}");
        }
    }

    #[test]
    fn cells_are_cliques_until_the_table_budget() {
        // 2,000 points on 100 × 100, a budget of 8,064 cells: R = 2 needs
        // 71² clique cells; R = 0.7 would need 203² and gets wider cells,
        // still no more than three budgets
        let budget = 8_064.0;
        let (side, cliques) = cell_side(100.0, 100.0, 2.0, 2_000);
        assert!(cliques && side < 2.0 / 2f64.sqrt() && side > 1.414);
        let (side, cliques) = cell_side(100.0, 100.0, 0.7, 2_000);
        assert!(!cliques && side > 0.7 / 2f64.sqrt());
        assert!(cells_along(100.0, side).powi(2) <= 3.0 * budget + 1.0);
        // a thin strip keeps each axis within the budget too
        let (side, cliques) = cell_side(1e6, 1e-3, 1e-3, 10);
        assert!(!cliques && cells_along(1e6, side) <= 105.0);
        // absurd extents still give a one-cell table
        let (side, _) = cell_side(f64::INFINITY, 1.0, 1.0, 10);
        assert_eq!(cells_along(f64::INFINITY, side), 1.0);
    }
}
