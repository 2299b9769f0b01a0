//! The disk-based random-walk model of the authors' earlier papers
//! \[10, 11\], used as the "uniform stationary distribution" baseline.

use crate::model::{step_batch_aos, ChunkCtx};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Point, Rect};
use fastflood_parallel::WorkerPool;
use rand::Rng;

/// Random-walk mobility: each trip's destination is drawn uniformly from
/// the *disk* of radius `walk_radius` around the current position
/// (intersected with the square), traveled in a straight line.
///
/// This is the mobility family analyzed in the authors' previous works
/// \[10, 11\] ("agents perform a sort of independent random walks over a
/// square"), whose stationary spatial distribution is *almost uniform* —
/// the key contrast with MRWP's center-heavy density. `init_stationary`
/// places agents uniformly (the model's stationary distribution up to
/// `O(walk_radius/L)` border effects).
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{DiskWalk, Mobility};
/// use rand::SeedableRng;
///
/// let model = DiskWalk::new(100.0, 1.0, 10.0)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut st = model.init_stationary(&mut rng);
/// model.step(&mut st, &mut rng);
/// assert!(model.region().contains(model.position(&st)));
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiskWalk {
    side: f64,
    speed: f64,
    walk_radius: f64,
}

/// Trajectory state of one disk-walk agent.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiskWalkState {
    start: Point,
    dest: Point,
    s: f64,
}

impl DiskWalkState {
    /// The current trip destination.
    pub fn dest(&self) -> Point {
        self.dest
    }
}

impl SnapshotState for DiskWalkState {
    const STATE_TAG: u32 = u32::from_le_bytes(*b"DISK");

    /// Layout: segment endpoints then progress — the whole state.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_point(self.start);
        w.put_point(self.dest);
        w.put_f64(self.s);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<DiskWalkState> {
        Some(DiskWalkState {
            start: r.get_finite_point()?,
            dest: r.get_finite_point()?,
            s: r.get_finite_f64()?,
        })
    }
}

impl DiskWalk {
    /// Creates the model over `[0, side]²`, speed `speed`, move radius
    /// `walk_radius`.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::BadSide`] / [`MobilityError::BadSpeed`] as usual;
    /// * [`MobilityError::BadRadius`] — `walk_radius` not strictly
    ///   positive/finite.
    pub fn new(side: f64, speed: f64, walk_radius: f64) -> Result<DiskWalk, MobilityError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(MobilityError::BadSide(side));
        }
        if speed < 0.0 || !speed.is_finite() {
            return Err(MobilityError::BadSpeed(speed));
        }
        if walk_radius <= 0.0 || !walk_radius.is_finite() {
            return Err(MobilityError::BadRadius(walk_radius));
        }
        Ok(DiskWalk {
            side,
            speed,
            walk_radius,
        })
    }

    /// Side length `L` of the region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The per-trip move radius `ρ`.
    #[inline]
    pub fn walk_radius(&self) -> f64 {
        self.walk_radius
    }

    /// Uniform point in (disk of `walk_radius` around `c`) ∩ region, by
    /// rejection from the disk; the intersection is nonempty since `c` is
    /// inside the region.
    fn disk_dest<R: Rng + ?Sized>(&self, c: Point, rng: &mut R) -> Point {
        let region = self.region();
        loop {
            // uniform in the disk: rejection from the bounding square
            let dx = (2.0 * rng.gen::<f64>() - 1.0) * self.walk_radius;
            let dy = (2.0 * rng.gen::<f64>() - 1.0) * self.walk_radius;
            if dx * dx + dy * dy > self.walk_radius * self.walk_radius {
                continue;
            }
            let p = Point::new(c.x + dx, c.y + dy);
            if region.contains(p) {
                return p;
            }
        }
    }
}

impl Mobility for DiskWalk {
    type State = DiskWalkState;
    /// AoS batch: straight-line trips touch the whole state every step,
    /// so there is no hot/cold split to exploit.
    type Batch = Vec<DiskWalkState>;

    fn region(&self) -> Rect {
        Rect::square(self.side).expect("validated side")
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> DiskWalkState {
        // The stationary distribution of this walk is uniform up to border
        // effects of order walk_radius/side; uniform
        // placement is the standard approximation used in [10, 11].
        let pos = Point::new(self.side * rng.gen::<f64>(), self.side * rng.gen::<f64>());
        self.init_at(pos, rng)
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> DiskWalkState {
        assert!(
            self.region().contains(pos),
            "initial position {pos} outside the region"
        );
        DiskWalkState {
            start: pos,
            dest: self.disk_dest(pos, rng),
            s: 0.0,
        }
    }

    fn position(&self, state: &DiskWalkState) -> Point {
        let len = state.start.euclid(state.dest);
        if len == 0.0 {
            return state.start;
        }
        state
            .start
            .lerp(state.dest, (state.s / len).clamp(0.0, 1.0))
    }

    fn step<R: Rng + ?Sized>(&self, state: &mut DiskWalkState, rng: &mut R) -> StepEvents {
        let mut budget = self.speed;
        let mut events = StepEvents::default();
        let mut guard = 0;
        loop {
            let len = state.start.euclid(state.dest);
            let remaining = (len - state.s).max(0.0);
            if budget < remaining {
                state.s += budget;
                break;
            }
            budget -= remaining;
            events.arrivals += 1;
            let from = state.dest;
            *state = DiskWalkState {
                start: from,
                dest: self.disk_dest(from, rng),
                s: 0.0,
            };
            guard += 1;
            if guard > 10_000 {
                break;
            }
        }
        events
    }

    fn batch_from_states<I: IntoIterator<Item = DiskWalkState>>(&self, states: I) -> Self::Batch {
        states.into_iter().collect()
    }

    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> DiskWalkState {
        batch[agent].clone()
    }

    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: DiskWalkState) {
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
        assert!(DiskWalk::new(0.0, 1.0, 5.0).is_err());
        assert!(DiskWalk::new(L, -1.0, 5.0).is_err());
        assert!(DiskWalk::new(L, 1.0, 0.0).is_err());
        assert!(DiskWalk::new(L, 1.0, f64::NAN).is_err());
        let m = DiskWalk::new(L, 1.0, 5.0).unwrap();
        assert_eq!(m.walk_radius(), 5.0);
    }

    #[test]
    fn trips_stay_within_walk_radius() {
        let model = DiskWalk::new(L, 1.0, 8.0).unwrap();
        let mut r = rng(1);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..100 {
            let from = st.start;
            assert!(from.euclid(st.dest) <= 8.0 + 1e-9);
            model.step(&mut st, &mut r);
            assert!(model.region().contains(model.position(&st)));
        }
    }

    #[test]
    fn stationary_is_roughly_uniform() {
        // quarter-counts should be near n/4 each (no center concentration)
        let model = DiskWalk::new(L, 1.0, 10.0).unwrap();
        let mut r = rng(2);
        let n = 40_000;
        let mut q = [0usize; 4];
        for _ in 0..n {
            let p = model.position(&model.init_stationary(&mut r));
            let i = (p.x > L / 2.0) as usize + 2 * ((p.y > L / 2.0) as usize);
            q[i] += 1;
        }
        for c in q {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.01, "quadrant fraction {frac}");
        }
    }

    #[test]
    fn corner_agent_keeps_moving() {
        // destinations from a corner still exist (disk ∩ region nonempty)
        let model = DiskWalk::new(L, 2.0, 5.0).unwrap();
        let mut r = rng(3);
        let mut st = model.init_at(Point::new(0.0, 0.0), &mut r);
        let mut moved = false;
        for _ in 0..20 {
            let before = model.position(&st);
            model.step(&mut st, &mut r);
            if model.position(&st) != before {
                moved = true;
            }
            assert!(model.region().contains(model.position(&st)));
        }
        assert!(moved);
    }

    #[test]
    fn displacement_per_step_bounded_by_speed() {
        let model = DiskWalk::new(L, 3.0, 10.0).unwrap();
        let mut r = rng(4);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..200 {
            let before = model.position(&st);
            model.step(&mut st, &mut r);
            assert!(before.euclid(model.position(&st)) <= 3.0 + 1e-9);
        }
    }
}
