//! The classical Random Way-Point model (straight-line trips), used as a
//! baseline against MRWP.

use crate::model::{step_batch_aos, ChunkCtx};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Point, Rect};
use fastflood_parallel::WorkerPool;
use rand::Rng;

/// Classical Random Way-Point: uniform destinations, *straight-line*
/// travel at constant speed, no pause time.
///
/// The model-comparison experiment (E13) contrasts MRWP with this model:
/// both have center-heavy stationary distributions, but RWP's density
/// vanishes only near the border (not in large corner regions), so it has
/// no Suburb in the paper's sense.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{Mobility, Rwp};
/// use rand::SeedableRng;
///
/// let model = Rwp::new(100.0, 1.5)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut st = model.init_stationary(&mut rng);
/// let before = model.position(&st);
/// model.step(&mut st, &mut rng);
/// // straight-line motion: Euclidean displacement == speed (no arrival)
/// let moved = before.euclid(model.position(&st));
/// assert!(moved <= 1.5 + 1e-9);
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rwp {
    side: f64,
    speed: f64,
}

/// Trajectory state of one RWP agent: current straight segment and
/// progress along it.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RwpState {
    start: Point,
    dest: Point,
    /// Euclidean distance traveled along the segment.
    s: f64,
}

impl RwpState {
    /// The current trip destination.
    pub fn dest(&self) -> Point {
        self.dest
    }

    /// Distance traveled along the current segment.
    pub fn progress(&self) -> f64 {
        self.s
    }
}

impl SnapshotState for RwpState {
    const STATE_TAG: u32 = u32::from_le_bytes(*b"RWP ");

    /// Layout: segment endpoints then progress — the whole state.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_point(self.start);
        w.put_point(self.dest);
        w.put_f64(self.s);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<RwpState> {
        Some(RwpState {
            start: r.get_finite_point()?,
            dest: r.get_finite_point()?,
            s: r.get_finite_f64()?,
        })
    }
}

impl Rwp {
    /// Creates the model over `[0, side]²` with per-step travel distance
    /// `speed`.
    ///
    /// # Errors
    ///
    /// As [`crate::Mrwp::new`].
    pub fn new(side: f64, speed: f64) -> Result<Rwp, MobilityError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(MobilityError::BadSide(side));
        }
        if speed < 0.0 || !speed.is_finite() {
            return Err(MobilityError::BadSpeed(speed));
        }
        Ok(Rwp { side, speed })
    }

    /// Side length `L` of the region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    fn uniform_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        Point::new(self.side * rng.gen::<f64>(), self.side * rng.gen::<f64>())
    }

    fn position_of(&self, state: &RwpState) -> Point {
        let len = state.start.euclid(state.dest);
        if len == 0.0 {
            return state.start;
        }
        state
            .start
            .lerp(state.dest, (state.s / len).clamp(0.0, 1.0))
    }
}

impl Mobility for Rwp {
    type State = RwpState;
    /// AoS batch: straight-line trips touch the whole state every step,
    /// so there is no hot/cold split to exploit.
    type Batch = Vec<RwpState>;

    fn region(&self) -> Rect {
        Rect::square(self.side).expect("validated side")
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> RwpState {
        // Length-biased segment sampling (Palm construction): accept a
        // uniform pair w.p. ‖w−d‖₂ / (√2·L), then place the agent uniformly
        // along the segment.
        let diag = std::f64::consts::SQRT_2 * self.side;
        loop {
            let w = self.uniform_point(rng);
            let d = self.uniform_point(rng);
            let len = w.euclid(d);
            if rng.gen::<f64>() * diag < len {
                return RwpState {
                    start: w,
                    dest: d,
                    s: rng.gen::<f64>() * len,
                };
            }
        }
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> RwpState {
        assert!(
            self.region().contains(pos),
            "initial position {pos} outside the region"
        );
        RwpState {
            start: pos,
            dest: self.uniform_point(rng),
            s: 0.0,
        }
    }

    fn position(&self, state: &RwpState) -> Point {
        self.position_of(state)
    }

    fn step<R: Rng + ?Sized>(&self, state: &mut RwpState, rng: &mut R) -> StepEvents {
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
            *state = RwpState {
                start: from,
                dest: self.uniform_point(rng),
                s: 0.0,
            };
            guard += 1;
            if guard > 10_000 {
                break;
            }
        }
        events
    }

    fn batch_from_states(&self, states: Vec<RwpState>) -> Self::Batch {
        states
    }

    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> RwpState {
        batch[agent].clone()
    }

    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: RwpState) {
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
        assert!(Rwp::new(0.0, 1.0).is_err());
        assert!(Rwp::new(10.0, -1.0).is_err());
        assert!(Rwp::new(10.0, 0.0).is_ok());
        assert_eq!(Rwp::new(10.0, 1.0).unwrap().side(), 10.0);
    }

    #[test]
    fn straight_line_displacement_equals_speed() {
        let model = Rwp::new(L, 2.5).unwrap();
        let mut r = rng(1);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..300 {
            let before = model.position(&st);
            let ev = model.step(&mut st, &mut r);
            let after = model.position(&st);
            if ev.arrivals == 0 {
                assert!((before.euclid(after) - 2.5).abs() < 1e-9);
            } else {
                assert!(before.euclid(after) <= 2.5 + 1e-9);
            }
            assert!(model.region().contains(after));
        }
    }

    #[test]
    fn rwp_never_turns_mid_trip() {
        let model = Rwp::new(L, 2.0).unwrap();
        let mut r = rng(2);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..200 {
            let ev = model.step(&mut st, &mut r);
            assert_eq!(ev.turns, 0, "straight-line trips have no corners");
        }
    }

    #[test]
    fn stationary_marginal_is_center_heavy_but_not_mrwp() {
        // RWP stationary density is higher at the center than the border,
        // but unlike MRWP it keeps noticeable corner mass relative to a
        // left/right band comparison; we just verify the center-heavy shape
        let model = Rwp::new(L, 1.0).unwrap();
        let mut r = rng(3);
        let n = 30_000;
        let mut center = 0usize;
        let mut border = 0usize;
        for _ in 0..n {
            let p = model.position(&model.init_stationary(&mut r));
            assert!(model.region().contains(p));
            let band = L / 4.0;
            if (p.x - L / 2.0).abs() < band / 2.0 && (p.y - L / 2.0).abs() < band / 2.0 {
                center += 1;
            }
            if p.x < band / 2.0 || p.x > L - band / 2.0 {
                border += 1;
            }
        }
        // center box (area 1/16 of the square) holds far more than 1/16
        assert!(center as f64 / n as f64 > 1.3 / 16.0);
        assert!(border > 0);
    }

    #[test]
    fn init_at_validates() {
        let model = Rwp::new(L, 1.0).unwrap();
        let mut r = rng(4);
        let st = model.init_at(Point::new(5.0, 5.0), &mut r);
        assert_eq!(model.position(&st), Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "outside the region")]
    fn init_at_rejects_outside() {
        let model = Rwp::new(L, 1.0).unwrap();
        let mut r = rng(5);
        model.init_at(Point::new(L + 1.0, 5.0), &mut r);
    }

    #[test]
    fn zero_speed_is_static() {
        let model = Rwp::new(L, 0.0).unwrap();
        let mut r = rng(6);
        let mut st = model.init_stationary(&mut r);
        let p = model.position(&st);
        for _ in 0..20 {
            model.step(&mut st, &mut r);
            assert_eq!(model.position(&st), p);
        }
    }
}
