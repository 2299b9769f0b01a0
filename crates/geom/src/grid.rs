//! The `m × m` square cell partition used by the Central-Zone analysis.

use crate::{GeomError, Point, Rect};
use std::fmt;

/// A cell of a [`CellGrid`], addressed by `(row, col)`.
///
/// `col` indexes the `x` direction and `row` the `y` direction; both count
/// from the south-west corner of the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Cell {
    /// Row index (`y` direction), `0` at the south edge.
    pub row: usize,
    /// Column index (`x` direction), `0` at the west edge.
    pub col: usize,
}

impl Cell {
    /// Creates a cell id from row and column indices.
    pub const fn new(row: usize, col: usize) -> Cell {
        Cell { row, col }
    }

    /// Grid (Chebyshev) distance to another cell.
    pub fn chebyshev(self, other: Cell) -> usize {
        let dr = self.row.abs_diff(other.row);
        let dc = self.col.abs_diff(other.col);
        dr.max(dc)
    }

    /// Whether `other` is one of this cell's 4 edge-adjacent neighbors.
    pub fn is_adjacent4(self, other: Cell) -> bool {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col) == 1
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(r{}, c{})", self.row, self.col)
    }
}

/// A partition of the square `[0, side]²` into `m × m` equal cells.
///
/// This is the paper's cell structure (§4): the square is split into cells
/// of side `ℓ = side/m` with `R/(1+√5) ≤ ℓ ≤ R/√5`, which guarantees that an
/// agent anywhere in a cell can transmit to any agent in the four adjacent
/// cells. Each cell has a *core*: the concentric subsquare of side `ℓ/3`
/// (an agent in the core cannot leave the cell in one step when
/// `v ≤ R/(3(1+√5))`, the paper's Ineq. 8).
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Cell, CellGrid, Point};
///
/// let grid = CellGrid::new(10.0, 5)?; // cells of side 2
/// let c = grid.cell_of(Point::new(3.2, 9.9));
/// assert_eq!(c, Cell::new(4, 1));
/// assert_eq!(grid.rect_of(c).min(), Point::new(2.0, 8.0));
/// assert_eq!(grid.neighbors4(c).count(), 3); // top edge cell
/// # Ok::<(), fastflood_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CellGrid {
    side: f64,
    m: usize,
    cell_len: f64,
}

impl CellGrid {
    /// Creates a grid over `[0, side]²` with `m` cells per axis.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NonPositiveLength`] if `side` is not strictly
    /// positive and finite, and [`GeomError::ZeroSubdivision`] if `m == 0`.
    pub fn new(side: f64, m: usize) -> Result<CellGrid, GeomError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(GeomError::NonPositiveLength(side));
        }
        if m == 0 {
            return Err(GeomError::ZeroSubdivision);
        }
        Ok(CellGrid {
            side,
            m,
            cell_len: side / m as f64,
        })
    }

    /// Side length of the covered square region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of cells per axis.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Side length `ℓ` of one cell.
    #[inline]
    pub fn cell_len(&self) -> f64 {
        self.cell_len
    }

    /// Total number of cells (`m²`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.m * self.m
    }

    /// The covered region `[0, side]²`.
    pub fn region(&self) -> Rect {
        Rect::square(self.side).expect("side validated at construction")
    }

    /// The cell containing `p`.
    ///
    /// Points outside the region are clamped to the nearest cell, and points
    /// exactly on the north/east border belong to the last row/column, so
    /// every point maps to a valid cell.
    pub fn cell_of(&self, p: Point) -> Cell {
        let last = self.m - 1;
        let col = ((p.x / self.cell_len).floor().max(0.0) as usize).min(last);
        let row = ((p.y / self.cell_len).floor().max(0.0) as usize).min(last);
        Cell { row, col }
    }

    /// Flat index of `cell` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[inline]
    pub fn index_of(&self, cell: Cell) -> usize {
        assert!(
            cell.row < self.m && cell.col < self.m,
            "cell {cell} out of range for m = {}",
            self.m
        );
        cell.row * self.m + cell.col
    }

    /// The closed rectangle covered by `cell`.
    pub fn rect_of(&self, cell: Cell) -> Rect {
        let min = Point::new(
            cell.col as f64 * self.cell_len,
            cell.row as f64 * self.cell_len,
        );
        let max = Point::new(min.x + self.cell_len, min.y + self.cell_len);
        Rect::new(min, max).expect("cell rect is well-formed")
    }

    /// The core of `cell`: the concentric subsquare of side `ℓ/3`.
    pub fn core_of(&self, cell: Cell) -> Rect {
        self.rect_of(cell)
            .shrink(self.cell_len / 3.0)
            .expect("ℓ/3 margin always fits inside the cell")
    }

    /// Whether `cell` is valid for this grid.
    #[inline]
    pub fn contains_cell(&self, cell: Cell) -> bool {
        cell.row < self.m && cell.col < self.m
    }

    /// The 4 edge-adjacent neighbors of `cell` that exist in the grid.
    pub fn neighbors4(&self, cell: Cell) -> impl Iterator<Item = Cell> + '_ {
        let deltas: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];
        self.offset_neighbors(cell, deltas)
    }

    /// The 8 edge- or corner-adjacent neighbors of `cell` that exist.
    pub fn neighbors8(&self, cell: Cell) -> impl Iterator<Item = Cell> + '_ {
        let deltas: [(isize, isize); 8] = [
            (-1, -1),
            (-1, 0),
            (-1, 1),
            (0, -1),
            (0, 1),
            (1, -1),
            (1, 0),
            (1, 1),
        ];
        self.offset_neighbors(cell, deltas)
    }

    fn offset_neighbors<const K: usize>(
        &self,
        cell: Cell,
        deltas: [(isize, isize); K],
    ) -> impl Iterator<Item = Cell> + '_ {
        let m = self.m as isize;
        deltas.into_iter().filter_map(move |(dr, dc)| {
            let r = cell.row as isize + dr;
            let c = cell.col as isize + dc;
            if r >= 0 && r < m && c >= 0 && c < m {
                Some(Cell::new(r as usize, c as usize))
            } else {
                None
            }
        })
    }

    /// Iterates over all cells in row-major order.
    pub fn cells(&self) -> CellIter {
        CellIter {
            m: self.m,
            next: 0,
            total: self.num_cells(),
        }
    }
}

impl fmt::Display for CellGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid over [0, {}]^2 (cell side {})",
            self.m, self.m, self.side, self.cell_len
        )
    }
}

/// Iterator over the cells of a [`CellGrid`] in row-major order.
///
/// Produced by [`CellGrid::cells`].
#[derive(Debug, Clone)]
pub struct CellIter {
    m: usize,
    next: usize,
    total: usize,
}

impl Iterator for CellIter {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        if self.next >= self.total {
            return None;
        }
        let cell = Cell::new(self.next / self.m, self.next % self.m);
        self.next += 1;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CellIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(CellGrid::new(0.0, 3).is_err());
        assert!(CellGrid::new(-1.0, 3).is_err());
        assert!(CellGrid::new(f64::NAN, 3).is_err());
        assert!(CellGrid::new(10.0, 0).is_err());
        let g = CellGrid::new(10.0, 4).unwrap();
        assert_eq!(g.cell_len(), 2.5);
        assert_eq!(g.num_cells(), 16);
    }

    #[test]
    fn cell_of_interior_and_borders() {
        let g = CellGrid::new(10.0, 5).unwrap();
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), Cell::new(0, 0));
        assert_eq!(g.cell_of(Point::new(1.99, 0.0)), Cell::new(0, 0));
        assert_eq!(g.cell_of(Point::new(2.0, 0.0)), Cell::new(0, 1));
        // north/east border points belong to the last row/column
        assert_eq!(g.cell_of(Point::new(10.0, 10.0)), Cell::new(4, 4));
        // out-of-region points clamp
        assert_eq!(g.cell_of(Point::new(-3.0, 42.0)), Cell::new(4, 0));
    }

    #[test]
    fn index_roundtrip() {
        let g = CellGrid::new(7.0, 3).unwrap();
        // `cells()` walks the flat index order
        for (i, cell) in g.cells().enumerate() {
            assert_eq!(g.index_of(cell), i);
        }
        assert_eq!(g.cells().count(), g.num_cells());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_of_panics_out_of_range() {
        let g = CellGrid::new(7.0, 3).unwrap();
        g.index_of(Cell::new(3, 0));
    }

    #[test]
    fn rect_of_tiles_region() {
        let g = CellGrid::new(9.0, 3).unwrap();
        let total_area: f64 = g.cells().map(|c| g.rect_of(c).area()).sum();
        assert!((total_area - 81.0).abs() < 1e-9);
        // a cell rect contains all points mapping to the cell
        let c = Cell::new(1, 2);
        let r = g.rect_of(c);
        assert_eq!(r.min(), Point::new(6.0, 3.0));
        assert_eq!(r.max(), Point::new(9.0, 6.0));
        assert_eq!(g.cell_of(r.center()), c);
    }

    #[test]
    fn core_is_centered_third() {
        let g = CellGrid::new(9.0, 3).unwrap();
        let c = Cell::new(0, 0);
        let core = g.core_of(c);
        assert!((core.width() - 1.0).abs() < 1e-12);
        assert_eq!(core.center(), g.rect_of(c).center());
        assert!(g.rect_of(c).contains_rect(&core));
    }

    #[test]
    fn neighbors_counts() {
        let g = CellGrid::new(10.0, 4).unwrap();
        // corner
        assert_eq!(g.neighbors4(Cell::new(0, 0)).count(), 2);
        assert_eq!(g.neighbors8(Cell::new(0, 0)).count(), 3);
        // edge
        assert_eq!(g.neighbors4(Cell::new(0, 1)).count(), 3);
        assert_eq!(g.neighbors8(Cell::new(0, 1)).count(), 5);
        // interior
        assert_eq!(g.neighbors4(Cell::new(1, 1)).count(), 4);
        assert_eq!(g.neighbors8(Cell::new(1, 1)).count(), 8);
        // 1x1 grid has no neighbors
        let g1 = CellGrid::new(1.0, 1).unwrap();
        assert_eq!(g1.neighbors8(Cell::new(0, 0)).count(), 0);
    }

    #[test]
    fn neighbors_are_adjacent_and_valid() {
        let g = CellGrid::new(10.0, 4).unwrap();
        for cell in g.cells() {
            for n in g.neighbors4(cell) {
                assert!(g.contains_cell(n));
                assert!(cell.is_adjacent4(n));
            }
            for n in g.neighbors8(cell) {
                assert!(g.contains_cell(n));
                assert_eq!(cell.chebyshev(n), 1);
            }
        }
    }

    #[test]
    fn cells_iter_is_exact() {
        let g = CellGrid::new(5.0, 3).unwrap();
        let cells: Vec<Cell> = g.cells().collect();
        assert_eq!(cells.len(), 9);
        assert_eq!(g.cells().len(), 9);
        assert_eq!(cells[0], Cell::new(0, 0));
        assert_eq!(cells[8], Cell::new(2, 2));
        // row-major: second element is (0, 1)
        assert_eq!(cells[1], Cell::new(0, 1));
    }

    #[test]
    fn cell_metrics() {
        assert_eq!(Cell::new(0, 0).chebyshev(Cell::new(2, 3)), 3);
        assert!(Cell::new(1, 1).is_adjacent4(Cell::new(1, 2)));
        assert!(!Cell::new(1, 1).is_adjacent4(Cell::new(2, 2)));
        assert!(!Cell::new(1, 1).is_adjacent4(Cell::new(1, 1)));
    }

    #[test]
    fn display() {
        let g = CellGrid::new(10.0, 4).unwrap();
        assert_eq!(g.to_string(), "4x4 grid over [0, 10]^2 (cell side 2.5)");
        assert_eq!(Cell::new(1, 2).to_string(), "(r1, c2)");
    }
}
