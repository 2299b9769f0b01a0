//! The static (immobile) model: the paper's `v = 0` degenerate case.

use crate::distributions::sample_spatial;
use crate::model::ChunkCtx;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Point, Rect};
use fastflood_parallel::WorkerPool;
use rand::Rng;

/// How a [`Static`] model places its agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Placement {
    /// Uniform over the square.
    #[default]
    Uniform,
    /// The MRWP stationary spatial density of Theorem 1 (center-heavy) —
    /// a *frozen* MRWP snapshot.
    MrwpStationary,
}

/// Immobile agents.
///
/// The paper observes (§5) that with `v = 0` flooding never terminates
/// whenever the Suburb is non-empty: information cannot jump across a
/// disconnected snapshot that never changes. The static model makes that
/// degenerate case directly testable, and doubles as the "snapshot" source
/// for pure connectivity studies.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{Mobility, Placement, Static};
/// use rand::SeedableRng;
///
/// let model = Static::new(50.0, Placement::MrwpStationary)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let mut st = model.init_stationary(&mut rng);
/// let p = model.position(&st);
/// model.step(&mut st, &mut rng);
/// assert_eq!(model.position(&st), p); // never moves
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Static {
    side: f64,
    placement: Placement,
}

/// State of a static agent: just its position.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StaticState(Point);

impl SnapshotState for StaticState {
    const STATE_TAG: u32 = u32::from_le_bytes(*b"STAT");

    /// Layout: the position — the whole state.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_point(self.0);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<StaticState> {
        r.get_finite_point().map(StaticState)
    }
}

impl Static {
    /// Creates the model over `[0, side]²`.
    ///
    /// # Errors
    ///
    /// [`MobilityError::BadSide`] when `side` is not strictly positive and
    /// finite.
    pub fn new(side: f64, placement: Placement) -> Result<Static, MobilityError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(MobilityError::BadSide(side));
        }
        Ok(Static { side, placement })
    }

    /// Side length `L` of the region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The placement distribution.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }
}

impl Mobility for Static {
    type State = StaticState;
    /// AoS batch (the state is just a point; nothing is ever hot).
    type Batch = Vec<StaticState>;

    fn region(&self) -> Rect {
        Rect::square(self.side).expect("validated side")
    }

    fn speed(&self) -> f64 {
        0.0
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> StaticState {
        let p = match self.placement {
            Placement::Uniform => {
                Point::new(self.side * rng.gen::<f64>(), self.side * rng.gen::<f64>())
            }
            Placement::MrwpStationary => sample_spatial(self.side, rng),
        };
        StaticState(p)
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, _rng: &mut R) -> StaticState {
        assert!(
            self.region().contains(pos),
            "initial position {pos} outside the region"
        );
        StaticState(pos)
    }

    fn position(&self, state: &StaticState) -> Point {
        state.0
    }

    fn step<R: Rng + ?Sized>(&self, _state: &mut StaticState, _rng: &mut R) -> StepEvents {
        StepEvents::default()
    }

    fn batch_from_states<I: IntoIterator<Item = StaticState>>(&self, states: I) -> Self::Batch {
        states.into_iter().collect()
    }

    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> StaticState {
        batch[agent]
    }

    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: StaticState) {
        batch[agent] = state;
    }

    /// Static agents never move, draw no randomness, and emit no events:
    /// the batch step is a no-op with measured drift exactly zero.
    fn step_batch<R: Rng + Send, F: FnMut(usize, StepEvents)>(
        &self,
        batch: &mut Self::Batch,
        positions: &mut [Point],
        chunk_len: usize,
        chunks: &mut [ChunkCtx<R>],
        _pool: &WorkerPool,
        _on_events: F,
    ) -> f64 {
        assert_eq!(
            batch.len(),
            positions.len(),
            "batch and position array must agree on the population size"
        );
        assert_eq!(
            chunks.len(),
            positions.len().div_ceil(chunk_len).max(1),
            "one context per move chunk"
        );
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(Static::new(0.0, Placement::Uniform).is_err());
        assert!(Static::new(-1.0, Placement::Uniform).is_err());
        let m = Static::new(10.0, Placement::MrwpStationary).unwrap();
        assert_eq!(m.placement(), Placement::MrwpStationary);
        assert_eq!(m.speed(), 0.0);
    }

    #[test]
    fn never_moves() {
        let m = Static::new(10.0, Placement::Uniform).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut st = m.init_stationary(&mut rng);
        let p = m.position(&st);
        for _ in 0..10 {
            assert_eq!(m.step(&mut st, &mut rng), StepEvents::default());
            assert_eq!(m.position(&st), p);
        }
    }

    #[test]
    fn placements_differ_in_shape() {
        let side = 60.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 30_000;
        let center_count = |placement: Placement, rng: &mut rand::rngs::StdRng| {
            let m = Static::new(side, placement).unwrap();
            (0..n)
                .filter(|_| {
                    let p = m.position(&m.init_stationary(rng));
                    (p.x - side / 2.0).abs() < side / 8.0 && (p.y - side / 2.0).abs() < side / 8.0
                })
                .count()
        };
        let uniform = center_count(Placement::Uniform, &mut rng);
        let mrwp = center_count(Placement::MrwpStationary, &mut rng);
        assert!(
            mrwp as f64 > uniform as f64 * 1.15,
            "MRWP placement should be center-heavy ({mrwp} vs {uniform})"
        );
    }

    #[test]
    fn init_at_fixed_point() {
        let m = Static::new(10.0, Placement::Uniform).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let st = m.init_at(Point::new(1.0, 2.0), &mut rng);
        assert_eq!(m.position(&st), Point::new(1.0, 2.0));
    }
}
