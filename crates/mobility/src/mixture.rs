//! Speed-class mixtures: heterogeneous populations built from several
//! copies of one mobility model.
//!
//! Urban evacuation workloads ("Efficiently Evacuating Lower Manhattan")
//! mix pedestrians, cyclists, and vehicles — same movement law, different
//! speeds. [`Mixture`] models that directly: each agent is assigned a
//! *class* (one of the component models, drawn once at init time from
//! fixed weights) and then moves under that component forever. With all
//! components sharing the region, the stationary distribution of the
//! mixture is the weighted mixture of the components' stationary
//! distributions, so perfect simulation carries over componentwise.

use crate::model::{step_batch_aos, ChunkCtx};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Point, Rect};
use fastflood_parallel::WorkerPool;
use rand::Rng;

/// A fixed-weight mixture of same-family mobility models (speed classes).
///
/// Construction validates that every component covers the same region and
/// that the weights are positive and finite; weights are normalized
/// internally. The mixture's [`Mobility::speed`] is the *maximum*
/// component speed, so per-step drift bounds stay sound for every agent.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{Mixture, Mobility, Mrwp};
/// use rand::SeedableRng;
///
/// // 70% pedestrians (v = 0.1), 30% vehicles (v = 0.8)
/// let mix = Mixture::new(
///     vec![Mrwp::new(100.0, 0.1)?, Mrwp::new(100.0, 0.8)?],
///     vec![0.7, 0.3],
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let st = mix.init_stationary(&mut rng);
/// assert!(mix.class_of(&st) < 2);
/// assert_eq!(mix.speed(), 0.8);
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mixture<M> {
    models: Vec<M>,
    /// Cumulative normalized weights; `cumulative.last() == 1.0`.
    cumulative: Vec<f64>,
}

/// Per-agent state of a [`Mixture`]: the assigned class index plus the
/// component model's own state.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureState<S> {
    class: u32,
    inner: S,
}

impl<S: SnapshotState> SnapshotState for MixtureState<S> {
    /// The component tag mixed with a mixture marker, so a mixture
    /// snapshot is never confused with a bare component snapshot (their
    /// per-agent layouts differ by the class prefix).
    const STATE_TAG: u32 = S::STATE_TAG ^ u32::from_le_bytes(*b"MIX!");

    /// Layout: the assigned class, then the component state.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.class);
        self.inner.write_state(w);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<MixtureState<S>> {
        Some(MixtureState {
            class: r.get_u32()?,
            inner: S::read_state(r)?,
        })
    }
}

impl<M: Mobility> Mixture<M> {
    /// Builds a mixture from component models and matching weights.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::MixtureShape`] when `models` is empty or
    ///   `models` and `weights` differ in length;
    /// * [`MobilityError::BadWeight`] naming the first weight that is
    ///   non-positive or non-finite;
    /// * [`MobilityError::BadSide`] when the components disagree on the
    ///   region.
    pub fn new(models: Vec<M>, weights: Vec<f64>) -> Result<Mixture<M>, MobilityError> {
        if models.is_empty() || models.len() != weights.len() {
            return Err(MobilityError::MixtureShape {
                models: models.len(),
                weights: weights.len(),
            });
        }
        if let Some(&w) = weights.iter().find(|&&w| !(w.is_finite() && w > 0.0)) {
            return Err(MobilityError::BadWeight(w));
        }
        let region = models[0].region();
        if models.iter().any(|m| m.region() != region) {
            return Err(MobilityError::BadSide(region.width()));
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // guard against rounding: the last bin must catch every draw
        *cumulative.last_mut().expect("nonempty") = 1.0;
        Ok(Mixture { models, cumulative })
    }

    /// The component models, in class order.
    pub fn models(&self) -> &[M] {
        &self.models
    }

    /// Number of speed classes.
    pub fn classes(&self) -> usize {
        self.models.len()
    }

    /// The class (component index) a state was assigned at init time.
    pub fn class_of(&self, state: &MixtureState<M::State>) -> usize {
        state.class as usize
    }

    fn draw_class<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u = rng.gen::<f64>();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.models.len() - 1) as u32
    }
}

impl<M: Mobility + Sync> Mobility for Mixture<M> {
    type State = MixtureState<M::State>;
    /// AoS batch: mixtures are experiment-scale models, stepped through
    /// the fused scalar path.
    type Batch = Vec<MixtureState<M::State>>;

    fn region(&self) -> Rect {
        self.models[0].region()
    }

    /// Maximum component speed — the sound per-step drift bound for the
    /// whole population.
    fn speed(&self) -> f64 {
        self.models.iter().map(|m| m.speed()).fold(0.0, f64::max)
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::State {
        let class = self.draw_class(rng);
        let inner = self.models[class as usize].init_stationary(rng);
        MixtureState { class, inner }
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Self::State {
        let class = self.draw_class(rng);
        let inner = self.models[class as usize].init_at(pos, rng);
        MixtureState { class, inner }
    }

    fn position(&self, state: &Self::State) -> Point {
        self.models[state.class as usize].position(&state.inner)
    }

    fn valid_state(&self, state: &Self::State) -> bool {
        self.models
            .get(state.class as usize)
            .is_some_and(|m| m.valid_state(&state.inner))
    }

    fn step<R: Rng + ?Sized>(&self, state: &mut Self::State, rng: &mut R) -> StepEvents {
        self.models[state.class as usize].step(&mut state.inner, rng)
    }

    fn step_from<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        current: Point,
        rng: &mut R,
    ) -> (Point, StepEvents) {
        self.models[state.class as usize].step_from(&mut state.inner, current, rng)
    }

    fn batch_from_states<I: IntoIterator<Item = Self::State>>(&self, states: I) -> Self::Batch {
        states.into_iter().collect()
    }

    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> Self::State {
        batch[agent].clone()
    }

    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: Self::State) {
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
    use crate::Mrwp;
    use rand::SeedableRng;

    const L: f64 = 100.0;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn two_class() -> Mixture<Mrwp> {
        Mixture::new(
            vec![Mrwp::new(L, 0.2).unwrap(), Mrwp::new(L, 1.6).unwrap()],
            vec![0.75, 0.25],
        )
        .unwrap()
    }

    #[test]
    fn only_states_of_a_listed_class_are_valid() {
        let mix = two_class();
        let mut st = mix.init_stationary(&mut rng(9));
        assert!(mix.valid_state(&st));
        st.class = 2;
        assert!(!mix.valid_state(&st));
    }

    #[test]
    fn construction_validates() {
        assert!(Mixture::<Mrwp>::new(vec![], vec![]).is_err());
        assert!(Mixture::new(vec![Mrwp::new(L, 1.0).unwrap()], vec![1.0, 2.0]).is_err());
        assert!(Mixture::new(vec![Mrwp::new(L, 1.0).unwrap()], vec![-1.0]).is_err());
        assert!(Mixture::new(vec![Mrwp::new(L, 1.0).unwrap()], vec![f64::NAN]).is_err());
        assert!(Mixture::new(
            vec![Mrwp::new(L, 1.0).unwrap(), Mrwp::new(2.0 * L, 1.0).unwrap()],
            vec![1.0, 1.0],
        )
        .is_err());
        assert_eq!(two_class().classes(), 2);
    }

    #[test]
    fn mismatched_lengths_name_both_counts() {
        let one = || vec![Mrwp::new(L, 1.0).unwrap()];
        assert_eq!(
            Mixture::new(one(), vec![1.0, 2.0]).unwrap_err(),
            MobilityError::MixtureShape {
                models: 1,
                weights: 2
            }
        );
        let err = Mixture::<Mrwp>::new(vec![], vec![]).unwrap_err();
        assert_eq!(
            err,
            MobilityError::MixtureShape {
                models: 0,
                weights: 0
            }
        );
        assert!(err.to_string().contains("0 models and 0 weights"), "{err}");
    }

    #[test]
    fn bad_weight_is_named() {
        let two = || vec![Mrwp::new(L, 1.0).unwrap(), Mrwp::new(L, 2.0).unwrap()];
        for (weights, bad) in [
            (vec![1.0, 0.0], 0.0),
            (vec![-2.0, 1.0], -2.0),
            (vec![1.0, f64::INFINITY], f64::INFINITY),
        ] {
            let err = Mixture::new(two(), weights).unwrap_err();
            assert_eq!(err, MobilityError::BadWeight(bad));
            assert!(err.to_string().contains("weight"), "{err}");
        }
        match Mixture::new(two(), vec![f64::NAN, 1.0]).unwrap_err() {
            MobilityError::BadWeight(w) => assert!(w.is_nan()),
            other => panic!("expected BadWeight, got {other:?}"),
        }
    }

    #[test]
    fn speed_is_max_component_speed() {
        assert_eq!(two_class().speed(), 1.6);
    }

    #[test]
    fn class_frequencies_match_weights() {
        let mix = two_class();
        let mut r = rng(1);
        let n = 20_000;
        let slow = (0..n)
            .filter(|_| mix.class_of(&mix.init_stationary(&mut r)) == 0)
            .count();
        let frac = slow as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "slow fraction {frac}");
    }

    #[test]
    fn agents_move_at_their_class_speed() {
        let mix = two_class();
        let mut r = rng(2);
        for _ in 0..200 {
            let mut st = mix.init_stationary(&mut r);
            let v = mix.models()[mix.class_of(&st)].speed();
            let before = mix.position(&st);
            let ev = mix.step(&mut st, &mut r);
            let after = mix.position(&st);
            if ev.arrivals == 0 {
                assert!(
                    (before.manhattan(after) - v).abs() < 1e-9,
                    "class speed violated: moved {} at v={v}",
                    before.manhattan(after)
                );
            }
            assert!(before.manhattan(after) <= mix.speed() + 1e-9);
        }
    }

    #[test]
    fn step_from_delegates_to_component() {
        let mix = two_class();
        let mut ra = rng(3);
        let mut st = mix.init_stationary(&mut ra);
        let class = mix.class_of(&st);
        // drive the bare component with a cloned rng stream: the mixture
        // must be a pure pass-through (same positions, same draws)
        let mut rb = ra.clone();
        let mut inner = st.inner.clone();
        for _ in 0..100 {
            let cur = mix.position(&st);
            let (pa, eva) = mix.step_from(&mut st, cur, &mut ra);
            let (pb, evb) = mix.models()[class].step_from(&mut inner, cur, &mut rb);
            assert_eq!(pa, pb);
            assert_eq!(eva, evb);
        }
        assert_eq!(mix.class_of(&st), class, "class never changes");
    }
}
