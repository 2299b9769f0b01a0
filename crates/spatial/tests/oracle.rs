//! Property tests: the grid index must agree with the brute-force oracle.

use fastflood_geom::{Point, Rect};
use fastflood_spatial::{disk_giant_fraction, BruteForceIndex, GridIndexBuffer, SpatialError};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SIDE: f64 = 200.0;

fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0..SIDE, 0.0..SIDE), 0..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radius_queries_match_oracle(
        pts in points(120),
        qx in 0.0..SIDE,
        qy in 0.0..SIDE,
        r in 0.0..SIDE,
        bucket in 0.5..SIDE,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let mut grid = GridIndexBuffer::new();
        grid.rebuild(region, bucket, &pts).unwrap();
        let oracle = BruteForceIndex::build(&pts);
        let q = Point::new(qx, qy);
        let mut got = Vec::new();
        grid.for_each_within(q, r, |i| got.push(i));
        got.sort();
        let mut expected = oracle.indices_within(q, r);
        expected.sort();
        prop_assert_eq!(grid.any_within(q, r), !expected.is_empty());
        prop_assert_eq!(got, expected);
    }

    /// The giant fraction of the cell union equals, bit for bit, the one
    /// of a union-find over every brute-force pair: clique cells and
    /// widened (distance-tested) cells, on non-square regions off the
    /// origin, with clustered, coincident, edge, lattice and stray
    /// points.
    #[test]
    fn giant_fraction_matches_union_find_over_brute_force_pairs(
        n in prop_oneof![0usize..24, 0usize..2001],
        width in 5.0..SIDE,
        height in 5.0..SIDE,
        origin in (-1000.0..1000.0, -1000.0..1000.0),
        r in 0.05..8.0,
        layout in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let min = Point::new(origin.0, origin.1);
        let region = Rect::new(min, Point::new(min.x + width, min.y + height)).unwrap();
        let pts = layout_points(region, r, n, layout, seed);
        let got = disk_giant_fraction(region, r, &pts).unwrap();
        let want = brute_force_giant_fraction(&pts, r);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "n {} r {} layout {}", n, r, layout);
    }

    /// The flooding transmit question — "which uninformed agents are
    /// within `r` of an informed one?" — answered by the bucket join
    /// must match the [`BruteForceIndex`] answer exactly, for random
    /// dense and sparse populations, with crash patterns carving agents
    /// out of both sides.
    #[test]
    fn bucket_join_transmit_matches_brute_force(
        pts in points(300),
        r in 0.1..40.0,
        informed_mod in 2usize..6,
        crash_mod in 0usize..5,
    ) {
        let region = Rect::square(SIDE).unwrap();
        // split the population: crashed agents (when crash_mod > 0) are
        // excluded from both sides, the rest are informed or uninformed
        let mut informed: Vec<u32> = Vec::new();
        let mut uninformed: Vec<u32> = Vec::new();
        for i in 0..pts.len() {
            if crash_mod > 0 && i % (crash_mod + 2) == 1 {
                continue; // crashed: neither transmits nor receives
            }
            if i % informed_mod == 0 {
                informed.push(i as u32);
            } else {
                uninformed.push(i as u32);
            }
        }
        let mut un_grid = GridIndexBuffer::new();
        let mut tx_grid = GridIndexBuffer::new();
        un_grid
            .rebuild_subset_shared(region, r, &pts, &uninformed, pts.len())
            .unwrap();
        tx_grid
            .rebuild_subset_shared(region, r, &pts, &informed, pts.len())
            .unwrap();
        let mut got = Vec::new();
        un_grid.join_covered_by(&tx_grid, r, |id| got.push(id));
        got.sort_unstable();
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "each id at most once");

        let tx_positions: Vec<Point> =
            informed.iter().map(|&t| pts[t as usize]).collect();
        let oracle = BruteForceIndex::build(&tx_positions);
        let expected: Vec<usize> = uninformed
            .iter()
            .map(|&u| u as usize)
            .filter(|&u| oracle.count_within(pts[u], r) > 0)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// An incrementally maintained buffer must hold the **identical
    /// entry set** to a fresh shared-geometry rebuild after arbitrarily
    /// long sequences of small moves, teleports, membership removals
    /// (informs/crashes) and insertions — whether the round ends with a
    /// re-filing rebuild or leaves the moved entries stale — and keep
    /// answering the transmit join exactly like the brute-force oracle
    /// over the coordinates each entry was filed under.
    #[test]
    fn incremental_update_equals_fresh_rebuild_under_churn(
        seed in 0u64..500,
        n in 20usize..160,
        rounds in 1usize..25,
        bucket in 2.0f64..25.0,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
            .collect();
        let mut members: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.7).collect();
        let mut inc = GridIndexBuffer::new();
        // announce the non-members as expected arrivals, exercising the
        // headroom machinery alongside plain slack
        let expected: Vec<u32> = (0..n as u32).filter(|id| !members.contains(id)).collect();
        inc.rebuild_incremental(region, bucket, &pts, &members, n, &expected)
            .unwrap();
        // where each entry was last filed: the reference a fresh
        // rebuild must reproduce
        let mut filed = pts.clone();
        let mut fresh = GridIndexBuffer::new();
        for round in 0..rounds {
            // moves: mostly small drift (a fraction of a bucket), with
            // occasional teleports and excursions past the region border
            for p in &mut pts {
                *p = if rng.gen::<f64>() < 0.05 {
                    Point::new(rng.gen_range(-10.0..SIDE + 10.0), rng.gen_range(-10.0..SIDE + 10.0))
                } else {
                    Point::new(
                        p.x + rng.gen_range(-bucket / 3.0..bucket / 3.0),
                        p.y + rng.gen_range(-bucket / 3.0..bucket / 3.0),
                    )
                };
            }
            // membership churn: remove up to a quarter of the members,
            // insert a few non-members
            let mut removed = Vec::new();
            let mut keep = Vec::new();
            for &id in &members {
                if removed.len() * 4 < members.len() && rng.gen::<f64>() < 0.2 {
                    removed.push(id);
                } else {
                    keep.push(id);
                }
            }
            members = keep;
            let inserted: Vec<u32> = (0..n as u32)
                .filter(|id| !members.contains(id) && !removed.contains(id))
                .filter(|_| rng.gen::<f64>() < 0.1)
                .collect();
            members.extend(&inserted);
            inc.update_membership(&pts, &removed, &inserted).unwrap();
            for &id in &inserted {
                filed[id as usize] = pts[id as usize];
            }
            let refile = rng.gen::<bool>();
            if refile {
                let others: Vec<u32> =
                    (0..n as u32).filter(|id| !members.contains(id)).collect();
                inc.rebuild_incremental(region, bucket, &pts, &members, n, &others)
                    .unwrap();
                filed.clone_from(&pts);
            }
            prop_assert_eq!(inc.len(), members.len());
            prop_assert!(inc.is_incremental());

            fresh
                .rebuild_subset_shared(region, bucket, &filed, &members, n)
                .unwrap();
            prop_assert!(inc.shares_geometry_with(&fresh), "geometry survives updates");
            prop_assert_eq!(
                entries(&inc),
                entries(&fresh),
                "round {} (refiled {}, relayouts {})",
                round,
                refile,
                inc.relayouts()
            );
            prop_assert_eq!(inc.occupied_buckets(), fresh.occupied_buckets());

            // the join through the incremental side answers the transmit
            // question exactly like brute force, over the filed positions
            // (the exact join reads cached coordinates)
            let others: Vec<u32> = (0..n as u32).filter(|id| !members.contains(id)).collect();
            let mut tx = GridIndexBuffer::new();
            tx.rebuild_subset_shared(region, bucket, &filed, &others, n).unwrap();
            let r = bucket.min(SIDE / 4.0);
            let mut got = Vec::new();
            inc.join_covered_by(&tx, r, |id| got.push(id));
            got.sort_unstable();
            let r2 = r * r;
            let expected: Vec<usize> = members
                .iter()
                .filter(|&&u| {
                    others.iter().any(|&t| filed[u as usize].euclid_sq(filed[t as usize]) <= r2)
                })
                .map(|&u| u as usize)
                .collect();
            let mut expected = expected;
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "join after round {}", round);
        }
    }

    /// Deferred-move maintenance: membership churns via
    /// `update_membership` while every point drifts (binning left
    /// stale); the stale-tolerant join must stay **exact** against
    /// brute force on the true positions for as long as the drift
    /// stays within the announced slop — including directly after
    /// `rebuild_incremental` refreshes (slop back to 0).
    #[test]
    fn stale_join_with_deferred_moves_matches_brute_force(
        seed in 0u64..500,
        n in 30usize..150,
        rounds in 1usize..20,
        r in 1.0f64..12.0,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let bucket = 4.0 * r;
        // staleness budget from the slice guarantee: r + 2·slop ≤ bucket
        let slop_budget = 0.5 * (bucket - r) / 2.0;
        let step = slop_budget / 4.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
            .collect();
        let mut members: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.6).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
        let mut stale = 0.0f64;
        for round in 0..rounds {
            // drift everyone by at most `step` (pythagorean bound)
            for p in &mut pts {
                let dx = rng.gen_range(-step / 1.5..step / 1.5);
                let dy = rng.gen_range(-step / 1.5..step / 1.5);
                *p = Point::new(p.x + dx, p.y + dy);
            }
            if stale + step > slop_budget {
                inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
                stale = 0.0;
            } else {
                stale += step;
                // membership churn without re-binning
                let removed: Vec<u32> =
                    members.iter().copied().filter(|_| rng.gen::<f64>() < 0.15).collect();
                members.retain(|id| !removed.contains(id));
                let inserted: Vec<u32> = (0..n as u32)
                    .filter(|id| !members.contains(id) && !removed.contains(id))
                    .filter(|_| rng.gen::<f64>() < 0.1)
                    .collect();
                members.extend(&inserted);
                inc.update_membership(&pts, &removed, &inserted).unwrap();
            }
            prop_assert_eq!(inc.len(), members.len());

            // the transmitter side: a fresh tight shared-geometry grid
            // (staleness 0 ≤ slop), as the engine's parsimonious path
            let others: Vec<u32> = (0..n as u32).filter(|id| !members.contains(id)).collect();
            let mut tx = GridIndexBuffer::new();
            tx.rebuild_subset_shared(region, bucket, &pts, &others, n).unwrap();
            let mut got = Vec::new();
            inc.join_covered_by_stale(&tx, r, stale, stale, &pts, |id| got.push(id));
            got.sort_unstable();
            let r2 = r * r;
            let mut expected: Vec<usize> = members
                .iter()
                .filter(|&&u| {
                    others.iter().any(|&t| pts[u as usize].euclid_sq(pts[t as usize]) <= r2)
                })
                .map(|&u| u as usize)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "round {} stale {}", round, stale);
        }
    }

    /// The frontier-band iteration of the stale join engages only when
    /// the facing side occupies fewer buckets; whichever way the
    /// asymmetry goes — a tiny clustered transmitter side against a
    /// spread-out marked side (band path) or the reverse (plain path) —
    /// the reported set must match brute force on the true positions.
    #[test]
    fn stale_join_band_regimes_match_brute_force(
        seed in 0u64..500,
        n in 40usize..160,
        cluster in 2usize..20,
        r in 1.0f64..10.0,
        flip_bit in 0usize..2,
    ) {
        let flip = flip_bit == 1;
        let region = Rect::square(SIDE).unwrap();
        let bucket = 4.0 * r;
        let slop = 0.25 * (bucket - r);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
            .collect();
        // the clustered side huddles in one corner so it occupies very
        // few buckets; `flip` swaps which side is clustered
        for p in pts.iter_mut().take(cluster) {
            *p = Point::new(rng.gen_range(0.0..2.0 * r), rng.gen_range(0.0..2.0 * r));
        }
        let (members, others): (Vec<u32>, Vec<u32>) = if flip {
            ((cluster as u32..n as u32).collect(), (0..cluster as u32).collect())
        } else {
            ((0..cluster as u32).collect(), (cluster as u32..n as u32).collect())
        };
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
        // drift everyone within the announced slop, binning left stale
        for p in &mut pts {
            let dx = rng.gen_range(-slop / 1.5..slop / 1.5);
            let dy = rng.gen_range(-slop / 1.5..slop / 1.5);
            *p = Point::new(p.x + dx, p.y + dy);
        }
        let mut tx = GridIndexBuffer::new();
        tx.rebuild_subset_shared(region, bucket, &pts, &others, n).unwrap();
        let mut got = Vec::new();
        inc.join_covered_by_stale(&tx, r, slop, slop, &pts, |id| got.push(id));
        got.sort_unstable();
        let r2 = r * r;
        let mut expected: Vec<usize> = members
            .iter()
            .filter(|&&u| {
                others.iter().any(|&t| pts[u as usize].euclid_sq(pts[t as usize]) <= r2)
            })
            .map(|&u| u as usize)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "cluster {} flip {}", cluster, flip);
    }

    /// Clustered drift, re-filed by a rebuild of the warm buffer, packs
    /// the rows around a cluster center; clustered arrivals then
    /// overflow whole runs of those rows at once, so parked entries
    /// borrow slots through chains of full rows, leftward and rightward
    /// (and fall back to a re-layout when a cluster outgrows every
    /// lender in reach). After every round the entry set must equal a
    /// fresh `rebuild_incremental` over the coordinates each entry was
    /// last filed under, and the stale join must match brute force on
    /// the true positions.
    #[test]
    fn borrow_chains_under_clustered_drift_match_fresh_rebuild(
        seed in 0u64..500,
        n in 60usize..240,
        rounds in 2usize..16,
        r in 2.0f64..8.0,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let bucket = 4.0 * r;
        // the stale join's own limit, r + 2·slop ≤ bucket, less a
        // rounding guard: covers any budget an engine carves from it
        let slop_budget = 0.5 * (bucket - r) * (1.0 - 1e-9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
            .collect();
        let mut members: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.5).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
        // where each entry was last filed: the reference a fresh
        // rebuild must reproduce
        let mut filed = pts.clone();
        let mut stale = 0.0f64;
        let mut center = Point::new(SIDE / 2.0, SIDE / 2.0);
        for round in 0..rounds {
            let removed: Vec<u32> =
                members.iter().copied().filter(|_| rng.gen::<f64>() < 0.1).collect();
            members.retain(|id| !removed.contains(id));
            if round % 2 == 0 {
                // refresh round: half of everyone is pulled most of the
                // way toward a new cluster center
                center = Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE));
                let pull = rng.gen_range(0.5..0.95);
                for p in &mut pts {
                    if rng.gen::<f64>() < 0.5 {
                        *p = Point::new(
                            p.x + (center.x - p.x) * pull + rng.gen_range(-r..r),
                            p.y + (center.y - p.y) * pull + rng.gen_range(-r..r),
                        );
                    }
                }
                // the refresh re-files everyone where they are now, so
                // the rows around the center fill with pulled members
                inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
                filed.clone_from(&pts);
                stale = 0.0;
                // then the non-members nearest to it arrive, overflow
                // those rows and borrow through runs of full ones
                let inserted = near_non_members(&pts, &members, &removed, center, bucket);
                members.extend(&inserted);
                inc.update_membership(&pts, &[], &inserted).unwrap();
            } else {
                // deferred round: drift within the budget, binning left
                // stale, while the last cluster's non-members arrive
                let step = slop_budget - stale;
                for p in &mut pts {
                    *p = Point::new(
                        p.x + rng.gen_range(-step / 1.5..step / 1.5),
                        p.y + rng.gen_range(-step / 1.5..step / 1.5),
                    );
                }
                stale += step;
                let inserted = near_non_members(&pts, &members, &removed, center, 2.0 * bucket);
                members.extend(&inserted);
                inc.update_membership(&pts, &removed, &inserted).unwrap();
                for &id in &inserted {
                    filed[id as usize] = pts[id as usize];
                }
            }
            prop_assert_eq!(inc.len(), members.len());

            let mut fresh = GridIndexBuffer::new();
            fresh.rebuild_incremental(region, bucket, &filed, &members, n, &[]).unwrap();
            prop_assert_eq!(entries(&inc), entries(&fresh), "round {}", round);
            prop_assert_eq!(inc.occupied_buckets(), fresh.occupied_buckets());

            let others: Vec<u32> = (0..n as u32).filter(|id| !members.contains(id)).collect();
            let mut tx = GridIndexBuffer::new();
            tx.rebuild_subset_shared(region, bucket, &pts, &others, n).unwrap();
            let mut got = Vec::new();
            inc.join_covered_by_stale(&tx, r, stale, stale, &pts, |id| got.push(id));
            got.sort_unstable();
            let r2 = r * r;
            let mut expected: Vec<usize> = members
                .iter()
                .filter(|&&u| {
                    others.iter().any(|&t| pts[u as usize].euclid_sq(pts[t as usize]) <= r2)
                })
                .map(|&u| u as usize)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "round {} stale {}", round, stale);
        }
    }

    /// The two sides of the stale join drift independently: this side
    /// by up to `slop_self`, the facing side by up to `slop_other`, with
    /// `slop_self + slop_other ≤ bucket − r` and either one possibly 0.
    /// Drift lengths sit near each side's own bound, so a prune padded
    /// by the wrong side's slop drops in-range pairs.
    #[test]
    fn asymmetric_stale_join_matches_brute_force(
        seed in 0u64..500,
        n in 40usize..240,
        r in 1.0f64..10.0,
        budget_share in 0.0f64..=1.0,
        split in 0usize..4,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let bucket = 4.0 * r;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let total = budget_share * (bucket - r) * (1.0 - 1e-9);
        let slop_self = match split {
            0 => 0.0,
            1 => total,
            _ => rng.gen_range(0.0..=total),
        };
        let slop_other = total - slop_self;
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
            .collect();
        let members: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<bool>()).collect();
        let others: Vec<u32> = (0..n as u32).filter(|id| !members.contains(id)).collect();
        let mut inc = GridIndexBuffer::new();
        inc.rebuild_incremental(region, bucket, &pts, &members, n, &[]).unwrap();
        let mut tx = GridIndexBuffer::new();
        tx.rebuild_subset_shared(region, bucket, &pts, &others, n).unwrap();
        // both grids left stale: each point moves 90–100 % of its own
        // side's bound in a random direction
        for (id, p) in pts.iter_mut().enumerate() {
            let bound = if members.contains(&(id as u32)) { slop_self } else { slop_other };
            let len = bound * rng.gen_range(0.9..=1.0);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            *p = Point::new(p.x + len * angle.cos(), p.y + len * angle.sin());
        }
        let mut got = Vec::new();
        inc.join_covered_by_stale(&tx, r, slop_self, slop_other, &pts, |id| got.push(id));
        got.sort_unstable();
        let r2 = r * r;
        let expected: Vec<usize> = members
            .iter()
            .filter(|&&u| {
                others.iter().any(|&t| pts[u as usize].euclid_sq(pts[t as usize]) <= r2)
            })
            .map(|&u| u as usize)
            .collect();
        prop_assert_eq!(got, expected, "slops {} {}", slop_self, slop_other);
    }

    #[test]
    fn any_within_consistent_with_count(
        pts in points(60),
        qx in 0.0..SIDE,
        qy in 0.0..SIDE,
        r in 0.0..60.0,
    ) {
        let region = Rect::square(SIDE).unwrap();
        let mut grid = GridIndexBuffer::new();
        grid.rebuild(region, 10.0, &pts).unwrap();
        let q = Point::new(qx, qy);
        let mut count = 0;
        grid.for_each_within(q, r, |_| count += 1);
        prop_assert_eq!(grid.any_within(q, r), count > 0);
    }
}

#[test]
fn dense_random_cloud_matches_oracle_exactly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let pts: Vec<Point> = (0..2000)
        .map(|_| Point::new(rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE)))
        .collect();
    let region = Rect::square(SIDE).unwrap();
    let r = 6.5;
    let mut grid = GridIndexBuffer::new();
    grid.rebuild(region, r, &pts).unwrap();
    let oracle = BruteForceIndex::build(&pts);

    // giant fractions agree, below, at and above the grid's radius
    for radius in [0.5, 2.0, r, 9.0] {
        assert_eq!(
            disk_giant_fraction(region, radius, &pts).unwrap().to_bits(),
            brute_force_giant_fraction(&pts, radius).to_bits(),
            "R = {radius}"
        );
    }

    // spot-check point queries across the region
    for k in 0..50 {
        let q = Point::new((k * 41 % 200) as f64, (k * 73 % 200) as f64);
        let mut a = Vec::new();
        grid.for_each_within(q, r, |i| a.push(i));
        a.sort();
        let mut b = oracle.indices_within(q, r);
        b.sort();
        assert_eq!(a, b, "query at {q}");
    }
}

/// `n` points of `region` in one of six layouts: uniform, a few tight
/// clusters, draws from a handful of coincident points, points snapped
/// onto the region's edges (max edges included), a lattice whose
/// spacing is a multiple of `r`, and a cloud reaching past the region.
fn layout_points(region: Rect, r: f64, n: usize, layout: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (min, max) = (region.min(), region.max());
    let (w, h) = (region.width(), region.height());
    let centers: Vec<Point> = (0..rng.gen_range(1..8))
        .map(|_| Point::new(rng.gen_range(min.x..max.x), rng.gen_range(min.y..max.y)))
        .collect();
    let spacing = r * [0.5, std::f64::consts::FRAC_1_SQRT_2, 1.0, 2.0][rng.gen_range(0..4usize)];
    let cols = ((w / spacing) as usize).max(1);
    (0..n)
        .map(|i| match layout {
            0 => Point::new(rng.gen_range(min.x..max.x), rng.gen_range(min.y..max.y)),
            1 => {
                let c = centers[rng.gen_range(0..centers.len())];
                region.clamp(Point::new(
                    c.x + rng.gen_range(-2.0 * r..2.0 * r),
                    c.y + rng.gen_range(-2.0 * r..2.0 * r),
                ))
            }
            2 => centers[rng.gen_range(0..centers.len())],
            3 => {
                let x = [min.x, max.x, rng.gen_range(min.x..max.x)][rng.gen_range(0..3usize)];
                let y = [min.y, max.y, rng.gen_range(min.y..max.y)][rng.gen_range(0..3usize)];
                Point::new(x, y)
            }
            4 => region.clamp(Point::new(
                min.x + (i % cols) as f64 * spacing,
                min.y + (i / cols) as f64 * spacing,
            )),
            _ => Point::new(
                rng.gen_range(min.x - 0.2 * w..max.x + 0.2 * w),
                rng.gen_range(min.y - 0.2 * h..max.y + 0.2 * h),
            ),
        })
        .collect()
}

/// Largest-component fraction of a union-find over every pair that
/// [`BruteForceIndex::pairs_within`] reports (0 for no points).
fn brute_force_giant_fraction(pts: &[Point], r: f64) -> f64 {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..pts.len()).collect();
    for (i, j) in BruteForceIndex::build(pts).pairs_within(r) {
        let (a, b) = (root(&mut parent, i), root(&mut parent, j));
        parent[a] = b;
    }
    let mut size = vec![0usize; pts.len()];
    for i in 0..pts.len() {
        size[root(&mut parent, i)] += 1;
    }
    size.iter()
        .max()
        .map_or(0.0, |&m| m as f64 / pts.len() as f64)
}

#[test]
fn giant_fraction_rejects_bad_radii_and_non_finite_points() {
    let region = Rect::new(Point::new(-3.0, 2.0), Point::new(40.0, 9.0)).unwrap();
    let pts = [Point::new(0.0, 3.0), Point::new(1.0, 4.0)];
    for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(disk_giant_fraction(region, r, &pts), Err(SpatialError::BadBucketSize(v)) if v.to_bits() == r.to_bits()),
            "R = {r}"
        );
        // the radius is checked before the (empty) positions
        assert!(disk_giant_fraction(region, r, &[]).is_err());
    }
    // the first non-finite position is named, whatever follows it
    let bad = [
        Point::new(0.0, 3.0),
        Point::new(f64::NAN, 4.0),
        Point::new(1.0, f64::INFINITY),
    ];
    assert_eq!(
        disk_giant_fraction(region, 1.0, &bad),
        Err(SpatialError::NotFinite { index: 1 })
    );
    assert_eq!(
        disk_giant_fraction(region, 1.0, &bad[2..]),
        Err(SpatialError::NotFinite { index: 0 })
    );
}

/// Ids that are neither members nor removed this round and lie within
/// `reach` of `center`: the clustered arrivals of the borrow-chain
/// property.
fn near_non_members(
    pts: &[Point],
    members: &[u32],
    removed: &[u32],
    center: Point,
    reach: f64,
) -> Vec<u32> {
    (0..pts.len() as u32)
        .filter(|id| !members.contains(id) && !removed.contains(id))
        .filter(|&id| pts[id as usize].euclid_sq(center) <= reach * reach)
        .collect()
}

/// Sorted `(bucket, id, x bits, y bits)` snapshot of a buffer's live
/// entries.
fn entries(buf: &GridIndexBuffer) -> Vec<(usize, usize, u64, u64)> {
    let mut v = Vec::new();
    buf.for_each_entry(|b, id, p| v.push((b, id, p.x.to_bits(), p.y.to_bits())));
    v.sort_unstable();
    v
}
