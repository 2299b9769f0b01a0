//! Property-based tests for the geometry substrate.

use fastflood_geom::{Axis, CellGrid, LPath, Point, Rect, Vec2};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6
}

fn point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn axis() -> impl Strategy<Value = Axis> {
    prop_oneof![Just(Axis::X), Just(Axis::Y)]
}

proptest! {
    // ---- metrics ----

    #[test]
    fn metrics_nonnegative_symmetric(a in point(), b in point()) {
        for d in [a.euclid(b), a.manhattan(b), a.chebyshev(b)] {
            prop_assert!(d >= 0.0);
        }
        prop_assert_eq!(a.euclid(b), b.euclid(a));
        prop_assert_eq!(a.manhattan(b), b.manhattan(a));
        prop_assert_eq!(a.chebyshev(b), b.chebyshev(a));
    }

    #[test]
    fn metric_norm_ordering(a in point(), b in point()) {
        // L∞ ≤ L2 ≤ L1 ≤ 2·L∞ and L2² = euclid_sq
        let linf = a.chebyshev(b);
        let l2 = a.euclid(b);
        let l1 = a.manhattan(b);
        prop_assert!(linf <= l2 * (1.0 + 1e-12) + 1e-12);
        prop_assert!(l2 <= l1 * (1.0 + 1e-12) + 1e-12);
        prop_assert!(l1 <= 2.0 * linf * (1.0 + 1e-12) + 1e-12);
        prop_assert!((a.euclid_sq(b).sqrt() - l2).abs() <= 1e-9 * (1.0 + l2));
    }

    #[test]
    fn triangle_inequality(a in point(), b in point(), c in point()) {
        let slack = 1e-6;
        prop_assert!(a.euclid(c) <= a.euclid(b) + b.euclid(c) + slack);
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c) + slack);
        prop_assert!(a.chebyshev(c) <= a.chebyshev(b) + b.chebyshev(c) + slack);
    }

    #[test]
    fn vector_roundtrip(p in point(), q in point()) {
        let v: Vec2 = q - p;
        let back = p + v;
        prop_assert!((back.x - q.x).abs() < 1e-9);
        prop_assert!((back.y - q.y).abs() < 1e-9);
        prop_assert!((v.norm() - p.euclid(q)).abs() < 1e-9 * (1.0 + v.norm()));
        prop_assert!((v.norm_l1() - p.manhattan(q)).abs() < 1e-9 * (1.0 + v.norm_l1()));
    }

    // ---- rects ----

    #[test]
    fn rect_clamp_is_inside_and_idempotent(a in point(), b in point(), p in point()) {
        let rect = Rect::spanning(a, b).unwrap();
        let c = rect.clamp(p);
        prop_assert!(rect.contains(c));
        prop_assert_eq!(rect.clamp(c), c);
        if rect.contains(p) {
            prop_assert_eq!(c, p);
        }
    }

    #[test]
    fn rect_distance_zero_iff_contained(a in point(), b in point(), p in point()) {
        let rect = Rect::spanning(a, b).unwrap();
        let d = rect.distance(p);
        prop_assert_eq!(d == 0.0, rect.contains(p));
        prop_assert!(rect.manhattan_distance(p) >= d - 1e-12);
    }

    #[test]
    fn rect_intersection_is_contained(
        a in point(), b in point(), c in point(), d in point()
    ) {
        let r1 = Rect::spanning(a, b).unwrap();
        let r2 = Rect::spanning(c, d).unwrap();
        if let Some(i) = r1.intersection(&r2) {
            prop_assert!(r1.contains_rect(&i));
            prop_assert!(r2.contains_rect(&i));
            prop_assert!(i.area() <= r1.area().min(r2.area()) + 1e-9);
        }
    }

    // ---- L-paths ----

    #[test]
    fn lpath_point_at_stays_on_path(
        s in point(), d in point(), ax in axis(), t in 0.0f64..1.0
    ) {
        let path = LPath::new(s, d, ax);
        let len = path.len();
        let p = path.point_at(t * len);
        // point lies within the bounding box of the two endpoints
        let bbox = Rect::spanning(s, d).unwrap();
        prop_assert!(bbox.contains(bbox.clamp(p)));
        prop_assert!(bbox.distance(p) < 1e-9 * (1.0 + len));
        // arc-length additivity: distance from start along Manhattan metric
        let d_start = s.manhattan(p);
        let d_end = p.manhattan(d);
        prop_assert!((d_start + d_end - len).abs() < 1e-6 * (1.0 + len));
    }

    #[test]
    fn lpath_endpoints(s in point(), d in point(), ax in axis()) {
        let path = LPath::new(s, d, ax);
        prop_assert_eq!(path.point_at(0.0), s);
        let end = path.point_at(path.len());
        prop_assert!((end.x - d.x).abs() < 1e-9 * (1.0 + d.x.abs()));
        prop_assert!((end.y - d.y).abs() < 1e-9 * (1.0 + d.y.abs()));
    }

    #[test]
    fn lpath_alternate_same_geometry(s in point(), d in point(), ax in axis()) {
        let path = LPath::new(s, d, ax);
        let alt = path.alternate();
        prop_assert_eq!(path.len(), alt.len());
        prop_assert_eq!(path.leg1_len(), alt.leg2_len());
        prop_assert_eq!(path.leg2_len(), alt.leg1_len());
    }

    #[test]
    fn lpath_legs_are_axis_aligned(s in point(), d in point(), ax in axis()) {
        let path = LPath::new(s, d, ax);
        let (c, d) = (path.corner(), path.dest());
        // the first leg moves only along `ax`, the second only along the other
        match ax {
            Axis::X => prop_assert!(s.y == c.y && c.x == d.x),
            Axis::Y => prop_assert!(s.x == c.x && c.y == d.y),
        }
    }

    #[test]
    fn lpath_monotone_progress(
        s in point(), d in point(), ax in axis(), t1 in 0.0f64..1.0, t2 in 0.0f64..1.0
    ) {
        let path = LPath::new(s, d, ax);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let p_lo = path.point_at(lo * path.len());
        let p_hi = path.point_at(hi * path.len());
        // traveling further along the path moves further from start in L1
        prop_assert!(s.manhattan(p_lo) <= s.manhattan(p_hi) + 1e-6 * (1.0 + path.len()));
        // and the L1 gap between the two equals the arc-length gap
        let gap = (hi - lo) * path.len();
        prop_assert!((p_lo.manhattan(p_hi) - gap).abs() < 1e-6 * (1.0 + path.len()));
    }

    // ---- grids ----

    #[test]
    fn grid_cell_of_matches_rect(side in 1.0f64..1e4, m in 1usize..64, tx in 0.0f64..1.0, ty in 0.0f64..1.0) {
        let g = CellGrid::new(side, m).unwrap();
        // sample a point strictly inside the region
        let p = Point::new(tx * side * 0.999999, ty * side * 0.999999);
        let cell = g.cell_of(p);
        prop_assert!(g.contains_cell(cell));
        let rect = g.rect_of(cell);
        prop_assert!(rect.contains(p), "cell rect {rect} must contain {p}");
    }

    #[test]
    fn grid_cores_are_disjoint_from_neighbor_rects_shrunk(side in 1.0f64..1e3, m in 2usize..32) {
        let g = CellGrid::new(side, m).unwrap();
        let c = g.cell_of(Point::new(side / 2.0, side / 2.0));
        let core = g.core_of(c);
        for n in g.neighbors8(c) {
            prop_assert!(core.intersection(&g.core_of(n)).is_none());
        }
    }

    #[test]
    fn grid_index_bijection(side in 1.0f64..1e4, m in 1usize..64) {
        let g = CellGrid::new(side, m).unwrap();
        let mut seen = vec![false; g.num_cells()];
        for cell in g.cells() {
            let i = g.index_of(cell);
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }
}
