//! Street-grid MRWP: the urban variant with travel constrained to a
//! Manhattan street grid.
//!
//! The MRWP model is motivated by "agents traveling over an urban zone"
//! (§1, citing \[13\], which studies *Manhattan-path-based* random
//! way-point models on street grids). This model makes the streets
//! explicit: the square is divided into `blocks × blocks` city blocks,
//! way-points are street **intersections**, and every trip follows one of
//! the two Manhattan L-paths between intersections — whose legs, by
//! construction, run along streets. As `blocks → ∞` the model converges
//! to the continuous [`Mrwp`](crate::Mrwp).

use crate::distributions::sample_trip_length_biased;
use crate::model::{step_batch_aos, ChunkCtx};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Axis, LPath, Point, Rect};
use fastflood_parallel::WorkerPool;
use rand::Rng;

/// MRWP constrained to a street grid: way-points are the intersections of
/// a `(blocks+1) × (blocks+1)` street grid over `[0, side]²`.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{Mobility, StreetMrwp};
/// use rand::SeedableRng;
///
/// let city = StreetMrwp::new(100.0, 1.0, 10)?; // 10 blocks per side
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let mut st = city.init_stationary(&mut rng);
/// for _ in 0..50 {
///     city.step(&mut st, &mut rng);
///     let p = city.position(&st);
///     // the agent is always on a street (x or y on the grid)
///     assert!(city.on_street(p, 1e-9));
/// }
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StreetMrwp {
    side: f64,
    speed: f64,
    blocks: usize,
    /// Whole time steps spent paused at each intersection way-point
    /// (0 = free-flowing traffic).
    pause: u32,
}

/// Trajectory state of a street-grid agent (an L-path between
/// intersections plus arc progress).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StreetMrwpState {
    path: LPath,
    s: f64,
    /// Remaining pause steps at the current way-point (0 = traveling).
    pause_left: u32,
}

impl StreetMrwpState {
    /// The destination intersection of the current trip.
    pub fn dest(&self) -> Point {
        self.path.dest()
    }

    /// Whether the agent is currently paused at an intersection.
    pub fn is_paused(&self) -> bool {
        self.pause_left > 0
    }
}

impl SnapshotState for StreetMrwpState {
    const STATE_TAG: u32 = u32::from_le_bytes(*b"STRT");

    /// Layout: path (start, dest, first_axis), `s`, `pause_left`; the
    /// L-path's derived geometry is rebuilt exactly on read.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_point(self.path.start());
        w.put_point(self.path.dest());
        w.put_axis(self.path.first_axis());
        w.put_f64(self.s);
        w.put_u32(self.pause_left);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<StreetMrwpState> {
        let start = r.get_finite_point()?;
        let dest = r.get_finite_point()?;
        let axis = r.get_axis()?;
        Some(StreetMrwpState {
            path: LPath::new(start, dest, axis),
            s: r.get_finite_f64()?,
            pause_left: r.get_u32()?,
        })
    }
}

impl StreetMrwp {
    /// Creates the model with `blocks` city blocks per side (so streets
    /// have spacing `side/blocks`).
    ///
    /// # Errors
    ///
    /// * [`MobilityError::BadSide`] / [`MobilityError::BadSpeed`] as for
    ///   [`crate::Mrwp::new`];
    /// * [`MobilityError::BadBlocks`] when `blocks == 0` (no streets).
    pub fn new(side: f64, speed: f64, blocks: usize) -> Result<StreetMrwp, MobilityError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(MobilityError::BadSide(side));
        }
        if speed < 0.0 || !speed.is_finite() {
            return Err(MobilityError::BadSpeed(speed));
        }
        if blocks == 0 {
            return Err(MobilityError::BadBlocks(blocks));
        }
        Ok(StreetMrwp {
            side,
            speed,
            blocks,
            pause: 0,
        })
    }

    /// Returns a copy that pauses `steps` whole time steps at every
    /// way-point intersection before choosing the next trip (the urban
    /// red-light/stop-sign analogue of [`crate::Mrwp::with_pause`];
    /// `steps = 0` restores the free-flowing default). During a pause the
    /// agent does not move or turn; leftover budget in the arrival step
    /// is forfeited.
    pub fn with_pause(mut self, steps: u32) -> StreetMrwp {
        self.pause = steps;
        self
    }

    /// Pause duration at each way-point intersection, in whole steps.
    #[inline]
    pub fn pause(&self) -> u32 {
        self.pause
    }

    /// Side length `L` of the region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of city blocks per side.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Street spacing (block edge length).
    #[inline]
    pub fn block_len(&self) -> f64 {
        self.side / self.blocks as f64
    }

    /// Snaps a point to the nearest street intersection.
    pub fn snap_to_intersection(&self, p: Point) -> Point {
        let g = self.block_len();
        let ix = (p.x / g).round().clamp(0.0, self.blocks as f64);
        let iy = (p.y / g).round().clamp(0.0, self.blocks as f64);
        Point::new(ix * g, iy * g)
    }

    /// Whether `p` lies on a street (either coordinate within `tol` of a
    /// multiple of the street spacing).
    pub fn on_street(&self, p: Point, tol: f64) -> bool {
        let g = self.block_len();
        let near = |v: f64| {
            let frac = (v / g).round() * g;
            (v - frac).abs() <= tol
        };
        near(p.x) || near(p.y)
    }

    fn fresh_trip<R: Rng + ?Sized>(&self, from: Point, rng: &mut R) -> LPath {
        let k = self.blocks + 1;
        let g = self.block_len();
        let dest = Point::new(
            rng.gen_range(0..k) as f64 * g,
            rng.gen_range(0..k) as f64 * g,
        );
        let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
        LPath::new(from, dest, axis)
    }
}

impl Mobility for StreetMrwp {
    type State = StreetMrwpState;
    /// AoS batch: the street-grid variant is an experiment-scale model,
    /// stepped through the fused scalar path.
    type Batch = Vec<StreetMrwpState>;

    fn region(&self) -> Rect {
        Rect::square(self.side).expect("validated side")
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> StreetMrwpState {
        if self.pause == 0 || self.speed == 0.0 {
            // Length-biased intersection pairs: draw a continuous
            // length-biased pair (the limit distribution) and snap both
            // endpoints; reject degenerate snaps. Exact in the blocks → ∞
            // limit and an excellent approximation at city scale
            // (validated statistically in tests).
            loop {
                let (w, d) = sample_trip_length_biased(self.side, rng);
                let w = self.snap_to_intersection(w);
                let d = self.snap_to_intersection(d);
                if w == d {
                    continue;
                }
                let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
                let path = LPath::new(w, d, axis);
                let s = rng.gen::<f64>() * path.len();
                return StreetMrwpState {
                    path,
                    s,
                    pause_left: 0,
                };
            }
        }
        // With pauses, a renewal cycle lasts len/v + pause steps; sample
        // snapped intersection pairs duration-biased, then place the agent
        // uniformly in time within the cycle (traveling or paused at the
        // destination) — the street-grid analogue of Mrwp's pause sampler.
        let l = self.side;
        let max_duration = 2.0 * l / self.speed + self.pause as f64;
        loop {
            let w =
                self.snap_to_intersection(Point::new(l * rng.gen::<f64>(), l * rng.gen::<f64>()));
            let d =
                self.snap_to_intersection(Point::new(l * rng.gen::<f64>(), l * rng.gen::<f64>()));
            if w == d {
                continue;
            }
            let len = w.manhattan(d);
            let duration = len / self.speed + self.pause as f64;
            if rng.gen::<f64>() * max_duration >= duration {
                continue;
            }
            if rng.gen::<f64>() * duration < self.pause as f64 {
                // paused at the destination, uniformly into the pause
                return StreetMrwpState {
                    path: LPath::new(d, d, Axis::X),
                    s: 0.0,
                    pause_left: rng.gen_range(1..=self.pause),
                };
            }
            let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
            let path = LPath::new(w, d, axis);
            let s = rng.gen::<f64>() * path.len();
            return StreetMrwpState {
                path,
                s,
                pause_left: 0,
            };
        }
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> StreetMrwpState {
        assert!(
            self.region().contains(pos),
            "initial position {pos} outside the region"
        );
        let from = self.snap_to_intersection(pos);
        StreetMrwpState {
            path: self.fresh_trip(from, rng),
            s: 0.0,
            pause_left: 0,
        }
    }

    fn position(&self, state: &StreetMrwpState) -> Point {
        state.path.point_at(state.s)
    }

    fn step<R: Rng + ?Sized>(&self, state: &mut StreetMrwpState, rng: &mut R) -> StepEvents {
        if state.pause_left > 0 {
            state.pause_left -= 1;
            if state.pause_left == 0 {
                // the pause ends at this step's boundary; travel resumes
                // next step on a fresh trip
                let from = state.path.dest();
                state.path = self.fresh_trip(from, rng);
                state.s = 0.0;
            }
            return StepEvents::default();
        }
        let mut budget = self.speed;
        let mut events = StepEvents::default();
        let mut guard = 0;
        loop {
            let remaining = state.path.remaining(state.s);
            if budget < remaining {
                let before = state.s;
                state.s += budget;
                if let Some(t) = state.path.turn_at() {
                    if before < t && state.s >= t {
                        events.turns += 1;
                    }
                }
                break;
            }
            if let Some(t) = state.path.turn_at() {
                if state.s < t {
                    events.turns += 1;
                }
            }
            budget -= remaining;
            events.arrivals += 1;
            let from = state.path.dest();
            if self.pause > 0 {
                // hold position at the intersection for `pause` whole
                // steps; leftover budget in the arrival step is forfeited
                state.path = LPath::new(from, from, Axis::X);
                state.s = 0.0;
                state.pause_left = self.pause;
                break;
            }
            state.path = self.fresh_trip(from, rng);
            state.s = 0.0;
            guard += 1;
            if guard > 10_000 {
                break;
            }
        }
        events
    }

    fn batch_from_states(&self, states: Vec<StreetMrwpState>) -> Self::Batch {
        states
    }

    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> StreetMrwpState {
        batch[agent].clone()
    }

    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: StreetMrwpState) {
        batch[agent] = state;
    }

    fn step_batch<R: Rng + Send, F: FnMut(usize, StepEvents)>(
        &self,
        batch: &mut Self::Batch,
        positions: &mut [Point],
        chunk_len: usize,
        chunks: &mut [ChunkCtx<R>],
        pool: &WorkerPool,
        on_events: F,
    ) -> f64 {
        step_batch_aos(self, batch, positions, chunk_len, chunks, pool, on_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const L: f64 = 100.0;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates() {
        assert!(StreetMrwp::new(0.0, 1.0, 10).is_err());
        assert!(StreetMrwp::new(L, -1.0, 10).is_err());
        let err = StreetMrwp::new(L, 1.0, 0).unwrap_err();
        assert_eq!(err, MobilityError::BadBlocks(0));
        assert!(err.to_string().contains("block count"), "{err}");
        let m = StreetMrwp::new(L, 1.0, 20).unwrap();
        assert_eq!(m.block_len(), 5.0);
        assert_eq!(m.blocks(), 20);
    }

    #[test]
    fn snapping_hits_grid() {
        let m = StreetMrwp::new(L, 1.0, 10).unwrap();
        assert_eq!(
            m.snap_to_intersection(Point::new(12.0, 38.0)),
            Point::new(10.0, 40.0)
        );
        assert_eq!(
            m.snap_to_intersection(Point::new(0.0, 0.0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            m.snap_to_intersection(Point::new(99.9, 99.9)),
            Point::new(100.0, 100.0)
        );
        // snapping is idempotent
        let p = m.snap_to_intersection(Point::new(33.3, 77.7));
        assert_eq!(m.snap_to_intersection(p), p);
    }

    #[test]
    fn agents_stay_on_streets_forever() {
        let m = StreetMrwp::new(L, 3.0, 8).unwrap();
        let mut r = rng(1);
        let mut st = m.init_stationary(&mut r);
        for _ in 0..500 {
            m.step(&mut st, &mut r);
            let p = m.position(&st);
            assert!(m.region().contains(p));
            assert!(m.on_street(p, 1e-9), "agent left the streets at {p}");
        }
    }

    #[test]
    fn waypoints_are_intersections() {
        let m = StreetMrwp::new(L, 2.0, 5).unwrap();
        let g = m.block_len();
        let mut r = rng(2);
        let mut st = m.init_stationary(&mut r);
        for _ in 0..300 {
            m.step(&mut st, &mut r);
            let d = st.dest();
            assert!((d.x / g).fract().abs() < 1e-9);
            assert!((d.y / g).fract().abs() < 1e-9);
        }
    }

    #[test]
    fn speed_exact_between_arrivals() {
        let m = StreetMrwp::new(L, 1.5, 10).unwrap();
        let mut r = rng(3);
        let mut st = m.init_stationary(&mut r);
        for _ in 0..200 {
            let before = m.position(&st);
            let ev = m.step(&mut st, &mut r);
            let after = m.position(&st);
            if ev.arrivals == 0 {
                assert!((before.manhattan(after) - 1.5).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distribution_is_center_heavy_like_mrwp() {
        // the street model inherits the Fig. 1 shape: corners sparse
        let m = StreetMrwp::new(L, 1.0, 20).unwrap();
        let mut r = rng(4);
        let n = 20_000;
        let mut corner = 0usize;
        let mut center = 0usize;
        for _ in 0..n {
            let p = m.position(&m.init_stationary(&mut r));
            if p.x < L / 4.0 && p.y < L / 4.0 {
                corner += 1;
            }
            if (p.x - L / 2.0).abs() < L / 8.0 && (p.y - L / 2.0).abs() < L / 8.0 {
                center += 1;
            }
        }
        // equal-area regions: center box must clearly dominate the corner
        assert!(
            center as f64 > 1.5 * corner as f64,
            "center {center} vs corner {corner}"
        );
    }

    #[test]
    fn init_at_snaps_and_validates() {
        let m = StreetMrwp::new(L, 1.0, 10).unwrap();
        let mut r = rng(5);
        let st = m.init_at(Point::new(12.0, 47.0), &mut r);
        assert_eq!(m.position(&st), Point::new(10.0, 50.0));
    }

    #[test]
    #[should_panic(expected = "outside the region")]
    fn init_at_rejects_outside() {
        let m = StreetMrwp::new(L, 1.0, 10).unwrap();
        let mut r = rng(6);
        m.init_at(Point::new(-1.0, 0.0), &mut r);
    }

    #[test]
    fn pauses_hold_position_at_intersections() {
        let m = StreetMrwp::new(L, 8.0, 5).unwrap().with_pause(3);
        assert_eq!(m.pause(), 3);
        let mut r = rng(8);
        let mut st = m.init_at(Point::new(40.0, 40.0), &mut r);
        let mut pause_runs = 0usize;
        let mut held_steps = 0usize;
        for _ in 0..400 {
            let before = m.position(&st);
            let was_paused = st.is_paused();
            let ev = m.step(&mut st, &mut r);
            let after = m.position(&st);
            assert!(m.on_street(after, 1e-9));
            if was_paused {
                assert_eq!(before, after, "paused agent moved");
                assert_eq!(ev, StepEvents::default());
                held_steps += 1;
            }
            if st.is_paused() && !was_paused {
                // just arrived: the agent is parked exactly on an
                // intersection with the full pause ahead of it
                assert_eq!(m.snap_to_intersection(after), after);
                assert!(ev.arrivals >= 1);
                pause_runs += 1;
            }
        }
        assert!(pause_runs >= 5, "only {pause_runs} pauses in 400 steps");
        // every completed pause holds for the full 3 steps (the last run
        // may be cut off by the end of the loop)
        assert!(held_steps >= 3 * (pause_runs - 1) && held_steps <= 3 * pause_runs);
    }

    #[test]
    fn paused_stationary_init_resumes_travel() {
        let m = StreetMrwp::new(L, 2.0, 10).unwrap().with_pause(50);
        let mut r = rng(9);
        // with a 50-step pause most cycle time is spent paused
        let mut paused = 0usize;
        for _ in 0..500 {
            let st = m.init_stationary(&mut r);
            if st.is_paused() {
                assert_eq!(m.snap_to_intersection(m.position(&st)), m.position(&st));
                paused += 1;
            }
        }
        assert!(paused > 250, "only {paused}/500 init draws paused");
        // a paused agent eventually travels again
        let mut st = loop {
            let st = m.init_stationary(&mut r);
            if st.is_paused() {
                break st;
            }
        };
        let start = m.position(&st);
        for _ in 0..60 {
            m.step(&mut st, &mut r);
        }
        assert_ne!(m.position(&st), start, "agent never resumed travel");
    }

    #[test]
    fn coarse_grid_still_works() {
        // a 1-block city: all trips run along the border streets
        let m = StreetMrwp::new(L, 5.0, 1).unwrap();
        let mut r = rng(7);
        let mut st = m.init_stationary(&mut r);
        for _ in 0..100 {
            m.step(&mut st, &mut r);
            let p = m.position(&st);
            let on_border = p.x.abs() < 1e-9
                || (p.x - L).abs() < 1e-9
                || p.y.abs() < 1e-9
                || (p.y - L).abs() < 1e-9;
            assert!(on_border, "agent at {p} left the single block's border");
        }
    }
}
