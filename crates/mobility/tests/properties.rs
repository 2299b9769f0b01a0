//! Property tests for the mobility models.

use fastflood_geom::Point;
use fastflood_mobility::{
    distributions, move_chunk_count, BlockRng, ChunkCtx, DiskWalk, Mobility, Mrwp, Placement, Rwp,
    Static, MOVE_CHUNK,
};
use fastflood_parallel::WorkerPool;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mrwp_agents_confined_and_speed_exact(
        side in 10.0f64..500.0,
        speed_frac in 0.0f64..0.2,
        seed in 0u64..1000,
        steps in 1usize..60,
    ) {
        let speed = speed_frac * side;
        let model = Mrwp::new(side, speed).unwrap();
        let mut r = rng(seed);
        let mut st = model.init_stationary(&mut r);
        let region = model.region();
        for _ in 0..steps {
            let before = model.position(&st);
            let ev = model.step(&mut st, &mut r);
            let after = model.position(&st);
            prop_assert!(region.contains(after), "escaped region: {after}");
            // L1 displacement never exceeds the speed budget
            prop_assert!(before.manhattan(after) <= speed + 1e-9);
            if ev.arrivals == 0 && speed > 0.0 {
                prop_assert!((before.manhattan(after) - speed).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mrwp_turn_count_at_most_one_per_trip(
        side in 20.0f64..200.0,
        seed in 0u64..500,
    ) {
        let model = Mrwp::new(side, side / 10.0).unwrap();
        let mut r = rng(seed);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..50 {
            let ev = model.step(&mut st, &mut r);
            // turns <= arrivals + 1 (each trip has at most one corner, and
            // at most one unfinished trip is in flight)
            prop_assert!(ev.turns <= ev.arrivals + 1, "{ev:?}");
        }
    }

    #[test]
    fn rwp_euclid_displacement_bounded(
        side in 10.0f64..300.0,
        speed_frac in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let speed = speed_frac * side;
        let model = Rwp::new(side, speed).unwrap();
        let mut r = rng(seed);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..30 {
            let before = model.position(&st);
            model.step(&mut st, &mut r);
            let after = model.position(&st);
            prop_assert!(model.region().contains(after));
            prop_assert!(before.euclid(after) <= speed + 1e-9);
        }
    }

    #[test]
    fn disk_walk_trips_bounded_by_walk_radius(
        side in 50.0f64..300.0,
        rho_frac in 0.01f64..0.3,
        seed in 0u64..500,
    ) {
        let rho = rho_frac * side;
        let model = DiskWalk::new(side, rho / 5.0, rho).unwrap();
        let mut r = rng(seed);
        let mut st = model.init_stationary(&mut r);
        let mut prev = model.position(&st);
        for _ in 0..30 {
            model.step(&mut st, &mut r);
            let cur = model.position(&st);
            prop_assert!(model.region().contains(cur));
            // between consecutive steps the agent cannot outrun its speed
            prop_assert!(prev.euclid(cur) <= rho / 5.0 + 1e-9);
            prev = cur;
        }
    }

    #[test]
    fn static_agents_never_move(side in 1.0f64..100.0, seed in 0u64..100) {
        let model = Static::new(side, Placement::Uniform).unwrap();
        let mut r = rng(seed);
        let mut st = model.init_stationary(&mut r);
        let p = model.position(&st);
        for _ in 0..5 {
            model.step(&mut st, &mut r);
            prop_assert_eq!(model.position(&st), p);
        }
    }

    #[test]
    fn spatial_density_nonnegative_inside(
        side in 1.0f64..1000.0,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let d = distributions::spatial_density(side, fx * side, fy * side);
        prop_assert!(d >= -1e-15);
        prop_assert!(d <= distributions::spatial_max_density(side) + 1e-15);
    }

    #[test]
    fn marginal_cdf_monotone(side in 1.0f64..500.0, a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = distributions::spatial_marginal_cdf(side, lo * side);
        let c_hi = distributions::spatial_marginal_cdf(side, hi * side);
        prop_assert!(c_lo <= c_hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&c_lo));
    }

    #[test]
    fn destination_masses_always_total_one(
        side in 1.0f64..100.0,
        fx in 0.001f64..0.999,
        fy in 0.001f64..0.999,
    ) {
        let pos = Point::new(fx * side, fy * side);
        let quadrants: f64 = distributions::Quadrant::ALL
            .iter()
            .map(|&q| distributions::quadrant_probability(side, pos, q))
            .sum();
        let cross = distributions::cross_probability(side, pos);
        prop_assert!((quadrants + cross - 1.0).abs() < 1e-9);
        prop_assert!((cross - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rect_mass_monotone_under_inclusion(
        side in 1.0f64..100.0,
        x0 in 0.0f64..0.4,
        y0 in 0.0f64..0.4,
        w in 0.05f64..0.3,
        h in 0.05f64..0.3,
    ) {
        use fastflood_geom::Rect;
        let inner = Rect::new(
            Point::new(x0 * side, y0 * side),
            Point::new((x0 + w) * side, (y0 + h) * side),
        )
        .unwrap();
        let outer = Rect::new(
            Point::new(0.0, 0.0),
            Point::new((x0 + w + 0.1) * side, (y0 + h + 0.1) * side),
        )
        .unwrap();
        let mi = distributions::rect_mass(side, &inner);
        let mo = distributions::rect_mass(side, &outer);
        prop_assert!(mi >= -1e-12);
        prop_assert!(mo + 1e-12 >= mi, "inclusion violated: {mi} > {mo}");
        prop_assert!(mo <= 1.0 + 1e-12);
    }
}

/// Batched stepping must be indistinguishable from the scalar
/// `step_from` loop it replaces: same trajectories (bitwise), same
/// events, same RNG stream, and a measured drift that soundly bounds
/// every agent's displacement while never exceeding the model speed.
fn assert_batch_lockstep<M>(model: &M, n: usize, steps: usize, seed: u64)
where
    M: Mobility,
    M::State: PartialEq,
{
    let mut init_rng = rng(seed);
    let states: Vec<M::State> = (0..n)
        .map(|_| model.init_stationary(&mut init_rng))
        .collect();
    let mut scalar_states = states.clone();
    let mut scalar_positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
    let mut positions = scalar_positions.clone();
    let mut batch = model.batch_from_states(states);
    let mut batch_rng = rng(seed ^ 0x9e37_79b9);
    let mut scalar_rng = rng(seed ^ 0x9e37_79b9);
    // the sequential engine's shape: one chunk of all n agents, inline
    let mut one = [ChunkCtx::new(&mut batch_rng, n)];
    let pool = WorkerPool::new(1);
    for step in 0..steps {
        let mut batch_events = Vec::new();
        let drift = model.step_batch(&mut batch, &mut positions, n, &mut one, &pool, |i, ev| {
            batch_events.push((i, ev))
        });
        let mut scalar_events = Vec::new();
        let mut max_disp = 0.0f64;
        for (i, state) in scalar_states.iter_mut().enumerate() {
            let before = scalar_positions[i];
            let (p, ev) = model.step_from(state, before, &mut scalar_rng);
            scalar_positions[i] = p;
            max_disp = max_disp.max(before.euclid(p));
            if ev.turns | ev.arrivals != 0 {
                scalar_events.push((i, ev));
            }
        }
        for i in 0..n {
            assert_eq!(
                (positions[i].x.to_bits(), positions[i].y.to_bits()),
                (
                    scalar_positions[i].x.to_bits(),
                    scalar_positions[i].y.to_bits()
                ),
                "step {step}: agent {i} position diverged from the scalar loop"
            );
            assert!(
                model.batch_state(&batch, i) == scalar_states[i],
                "step {step}: agent {i} state diverged from the scalar loop"
            );
        }
        assert_eq!(batch_events, scalar_events, "step {step}: events diverged");
        assert!(
            drift + 1e-12 >= max_disp,
            "step {step}: measured drift {drift} under-counts displacement {max_disp}"
        );
        assert!(
            drift <= model.speed() + 1e-9,
            "step {step}: measured drift {drift} exceeds the speed bound {}",
            model.speed()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mrwp_step_batch_matches_scalar_loop(
        seed in 0u64..1000,
        n in 1usize..40,
        speed_frac in 0.001f64..0.3,
        pause in 0u32..4,
    ) {
        let side = 60.0;
        let model = Mrwp::new(side, speed_frac * side).unwrap().with_pause(pause);
        assert_batch_lockstep(&model, n, 40, seed);
    }

    #[test]
    fn rwp_step_batch_matches_scalar_loop(seed in 0u64..1000, n in 1usize..40) {
        let model = Rwp::new(80.0, 2.5).unwrap();
        assert_batch_lockstep(&model, n, 30, seed);
    }

    #[test]
    fn disk_walk_step_batch_matches_scalar_loop(seed in 0u64..1000, n in 1usize..40) {
        let model = DiskWalk::new(80.0, 2.0, 9.0).unwrap();
        assert_batch_lockstep(&model, n, 30, seed);
    }

    #[test]
    fn street_mrwp_step_batch_matches_scalar_loop(seed in 0u64..1000, n in 1usize..30) {
        let model = fastflood_mobility::StreetMrwp::new(80.0, 1.5, 8).unwrap();
        assert_batch_lockstep(&model, n, 30, seed);
    }

    /// Pause-heavy regime: large pauses and a fast speed push most
    /// agents through the boundary pass (pause countdowns, trip
    /// resampling) every few steps — the advance kernel's flag routing
    /// and the boundary pass's RNG draw order both get maximal traffic.
    #[test]
    fn mrwp_pause_heavy_step_batch_matches_scalar_loop(
        seed in 0u64..1000,
        n in 1usize..40,
        pause in 4u32..12,
    ) {
        let side = 60.0;
        let model = Mrwp::new(side, 0.3 * side).unwrap().with_pause(pause);
        assert_batch_lockstep(&model, n, 40, seed);
    }

    /// Street-grid analogue of the pause-heavy MRWP property: large
    /// red-light pauses plus a fast speed maximize arrival/pause traffic
    /// through the AoS batch path.
    #[test]
    fn street_mrwp_pause_heavy_step_batch_matches_scalar_loop(
        seed in 0u64..1000,
        n in 1usize..30,
        pause in 4u32..12,
    ) {
        let side = 80.0;
        let model = fastflood_mobility::StreetMrwp::new(side, 0.3 * side, 8)
            .unwrap()
            .with_pause(pause);
        assert_batch_lockstep(&model, n, 40, seed);
    }

    /// Speed-class mixtures route every agent through its component
    /// model; the AoS batch path must stay bitwise-faithful to the
    /// scalar loop across classes (including paused ones).
    #[test]
    fn mixture_step_batch_matches_scalar_loop(
        seed in 0u64..1000,
        n in 1usize..30,
        pause in 0u32..6,
    ) {
        let side = 60.0;
        let mix = fastflood_mobility::Mixture::new(
            vec![
                Mrwp::new(side, 0.02 * side).unwrap(),
                Mrwp::new(side, 0.25 * side).unwrap().with_pause(pause),
            ],
            vec![0.6, 0.4],
        )
        .unwrap();
        assert_batch_lockstep(&mix, n, 30, seed);
    }

    /// The word-buffered [`BlockRng`] must serve exactly the inner
    /// stream's draws in order, across every distribution the move pass
    /// uses and any interleaving — the invariant that makes wrapping
    /// the chunk streams trajectory-preserving.
    #[test]
    fn block_rng_matches_direct_draws(seed in 0u64..10_000, picks in proptest::collection::vec(0u8..4, 1..200)) {
        let mut direct = rng(seed);
        let mut blocked = BlockRng::new(rng(seed));
        for pick in picks {
            match pick {
                0 => prop_assert_eq!(direct.gen::<f64>().to_bits(), blocked.gen::<f64>().to_bits()),
                1 => prop_assert_eq!(direct.gen_bool(0.37), blocked.gen_bool(0.37)),
                2 => prop_assert_eq!(direct.gen_range(0..97u32), blocked.gen_range(0..97u32)),
                _ => prop_assert_eq!(direct.next_u64(), blocked.next_u64()),
            }
        }
    }

    #[test]
    fn static_step_batch_is_motionless_with_zero_drift(seed in 0u64..1000, n in 1usize..40) {
        let model = Static::new(50.0, Placement::Uniform).unwrap();
        let mut r = rng(seed);
        let states: Vec<_> = (0..n).map(|_| model.init_stationary(&mut r)).collect();
        let mut positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
        let before = positions.clone();
        let mut batch = model.batch_from_states(states);
        let mut one = [ChunkCtx::new(&mut r, n)];
        let pool = WorkerPool::new(1);
        for _ in 0..10 {
            let drift = model.step_batch(&mut batch, &mut positions, n, &mut one, &pool, |_, _| {
                panic!("static agents emit no events")
            });
            prop_assert_eq!(drift, 0.0);
        }
        prop_assert_eq!(positions, before);
    }
}

/// Forwards every required `Mobility` method (including the fused
/// `step_from`) to the wrapped model but deliberately does **not**
/// override `step_batch` — so calling it resolves to the trait's
/// state-copying reference default. The chunked-lockstep tests compare
/// real overrides against this oracle.
#[derive(Clone, Debug)]
struct RefModel<M>(M);

impl<M: Mobility> Mobility for RefModel<M> {
    type State = M::State;
    type Batch = M::Batch;

    fn region(&self) -> fastflood_geom::Rect {
        self.0.region()
    }
    fn speed(&self) -> f64 {
        self.0.speed()
    }
    fn init_stationary<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Self::State {
        self.0.init_stationary(rng)
    }
    fn init_at<R: rand::Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Self::State {
        self.0.init_at(pos, rng)
    }
    fn position(&self, state: &Self::State) -> Point {
        self.0.position(state)
    }
    fn step<R: rand::Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        rng: &mut R,
    ) -> fastflood_mobility::StepEvents {
        self.0.step(state, rng)
    }
    fn step_from<R: rand::Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        current: Point,
        rng: &mut R,
    ) -> (Point, fastflood_mobility::StepEvents) {
        self.0.step_from(state, current, rng)
    }
    fn batch_from_states(&self, states: Vec<Self::State>) -> Self::Batch {
        self.0.batch_from_states(states)
    }
    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> Self::State {
        self.0.batch_state(batch, agent)
    }
    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: Self::State) {
        self.0.batch_set_state(batch, agent, state)
    }
}

type StepLog = Vec<(
    Vec<(u64, u64)>,
    Vec<(usize, fastflood_mobility::StepEvents)>,
    u64,
)>;

/// Runs `steps` chunked moves on `pool` and logs per-step `(position
/// bits, events, drift bits)` — the canonical trace the chunked
/// lockstep tests compare bitwise.
fn chunked_trace<M: Mobility>(
    model: &M,
    states: &[M::State],
    n: usize,
    steps: usize,
    seed: u64,
    pool: &WorkerPool,
) -> StepLog {
    let mut positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
    let mut batch = model.batch_from_states(states.to_vec());
    let mut chunks: Vec<ChunkCtx<rand::rngs::StdRng>> = (0..move_chunk_count(n))
        .map(|c| {
            let len = MOVE_CHUNK.min(n.saturating_sub(c * MOVE_CHUNK));
            ChunkCtx::new(rng(seed ^ ((c as u64 + 1) << 32)), len)
        })
        .collect();
    let mut log = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut events = Vec::new();
        let drift = model.step_batch(
            &mut batch,
            &mut positions,
            MOVE_CHUNK,
            &mut chunks,
            pool,
            |i, ev| {
                events.push((i, ev));
            },
        );
        let bits: Vec<(u64, u64)> = positions
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        log.push((bits, events, drift.to_bits()));
    }
    log
}

/// The chunked move pass must be a pure function of `(states, chunk
/// streams)`: bitwise-identical trajectories, events, and drift across
/// thread counts {1, 2, 8}, and trajectories/events identical to the
/// trait's sequential reference default (drift may be a different —
/// equally sound — bound, so it is only compared across thread counts).
fn assert_chunked_lockstep<M>(model: &M, n: usize, steps: usize, seed: u64)
where
    M: Mobility + Clone + Sync,
{
    let mut init_rng = rng(seed);
    let states: Vec<M::State> = (0..n)
        .map(|_| model.init_stationary(&mut init_rng))
        .collect();
    let reference = {
        let shim = RefModel(model.clone());
        chunked_trace(&shim, &states, n, steps, seed, &WorkerPool::new(1))
    };
    let mut across_threads: Vec<StepLog> = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = WorkerPool::new(threads);
        let trace = chunked_trace(model, &states, n, steps, seed, &pool);
        for (t, (step, ref_step)) in trace.iter().zip(&reference).enumerate() {
            assert_eq!(
                step.0, ref_step.0,
                "step {t}, {threads} threads: positions diverged from the reference default"
            );
            assert_eq!(
                step.1, ref_step.1,
                "step {t}, {threads} threads: events diverged from the reference default"
            );
        }
        across_threads.push(trace);
    }
    for trace in &across_threads[1..] {
        assert_eq!(
            trace, &across_threads[0],
            "chunked trace must be bitwise identical across thread counts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mrwp_chunked_matches_reference_and_thread_counts(
        seed in 0u64..500,
        n in 1usize..40,
        pause in 0u32..3,
    ) {
        let model = Mrwp::new(50.0, 1.2).unwrap().with_pause(pause);
        assert_chunked_lockstep(&model, n, 25, seed);
    }

    #[test]
    fn rwp_chunked_matches_reference_and_thread_counts(seed in 0u64..500, n in 1usize..40) {
        let model = Rwp::new(80.0, 2.5).unwrap();
        assert_chunked_lockstep(&model, n, 20, seed);
    }

    #[test]
    fn street_mrwp_chunked_matches_reference_and_thread_counts(seed in 0u64..500, n in 1usize..25) {
        let model = fastflood_mobility::StreetMrwp::new(80.0, 1.5, 8).unwrap();
        assert_chunked_lockstep(&model, n, 20, seed);
    }

    /// Pause-heavy chunked lockstep for the street grid, mirroring the
    /// MRWP one: the AoS path (`step_batch_aos`) must
    /// stay a pure function of `(states, chunk streams)` while pauses
    /// dominate the step mix.
    #[test]
    fn street_mrwp_pause_heavy_chunked_matches_reference_and_thread_counts(
        seed in 0u64..500,
        n in 1usize..25,
        pause in 4u32..12,
    ) {
        let side = 80.0;
        let model = fastflood_mobility::StreetMrwp::new(side, 0.3 * side, 8)
            .unwrap()
            .with_pause(pause);
        assert_chunked_lockstep(&model, n, 20, seed);
    }

    #[test]
    fn mixture_chunked_matches_reference_and_thread_counts(seed in 0u64..500, n in 1usize..25) {
        let side = 50.0;
        let mix = fastflood_mobility::Mixture::new(
            vec![
                Mrwp::new(side, 0.4).unwrap(),
                Mrwp::new(side, 2.4).unwrap().with_pause(2),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        assert_chunked_lockstep(&mix, n, 20, seed);
    }
}

/// The split advance-kernel/boundary-pass `step_batch` as one chunk of
/// `n` agents at sizes around the `MOVE_CHUNK` geometry: below one
/// chunk, exactly one chunk, and a ragged multi-chunk tail.
#[test]
fn mrwp_batch_lockstep_at_chunk_tail_sizes() {
    for (i, n) in [MOVE_CHUNK - 1, MOVE_CHUNK, MOVE_CHUNK + 613]
        .into_iter()
        .enumerate()
    {
        let model = Mrwp::new(60.0, 0.8).unwrap();
        assert_batch_lockstep(&model, n, 6, 1000 + i as u64);
        let paused = Mrwp::new(60.0, 6.0).unwrap().with_pause(3);
        assert_batch_lockstep(&paused, n, 6, 2000 + i as u64);
    }
}

/// Multi-chunk population (several `MOVE_CHUNK` chunks): the property
/// above at a size where chunk boundaries, per-chunk streams, and real
/// cross-thread distribution are all exercised.
#[test]
fn mrwp_chunked_lockstep_across_many_chunks() {
    let n = 2 * MOVE_CHUNK + 613; // three chunks, ragged tail
    let model = Mrwp::new(60.0, 0.8).unwrap();
    assert_chunked_lockstep(&model, n, 12, 42);
    let paused = Mrwp::new(60.0, 0.8).unwrap().with_pause(2);
    assert_chunked_lockstep(&paused, n, 12, 43);
}

/// The chunked pass measures drift per chunk and reduces by max; the
/// result must still soundly bound every agent's displacement and never
/// exceed the model speed.
#[test]
fn mrwp_chunked_drift_is_sound() {
    let n = MOVE_CHUNK + 71;
    let model = Mrwp::new(40.0, 1.5).unwrap().with_pause(3);
    let mut init_rng = rng(7);
    let states: Vec<_> = (0..n)
        .map(|_| model.init_stationary(&mut init_rng))
        .collect();
    let mut positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
    let mut batch = model.batch_from_states(states);
    let mut chunks: Vec<ChunkCtx<rand::rngs::StdRng>> = (0..move_chunk_count(n))
        .map(|c| ChunkCtx::new(rng(100 + c as u64), MOVE_CHUNK))
        .collect();
    let pool = WorkerPool::new(4);
    for step in 0..200 {
        let before = positions.clone();
        let drift = model.step_batch(
            &mut batch,
            &mut positions,
            MOVE_CHUNK,
            &mut chunks,
            &pool,
            |_, _| {},
        );
        assert!(drift <= model.speed() + 1e-9, "step {step}: drift {drift}");
        let max_disp = before
            .iter()
            .zip(&positions)
            .map(|(a, b)| a.euclid(*b))
            .fold(0.0f64, f64::max);
        assert!(
            drift + 1e-12 >= max_disp,
            "step {step}: drift {drift} under-counts displacement {max_disp}"
        );
    }
}

/// With way-point pauses, steps where *every* agent happens to pause
/// must report a measured drift strictly below the speed bound — the
/// slack the engine's deferred re-binning window gains over the
/// worst-case `speed()` accrual.
#[test]
fn mrwp_paused_steps_measure_drift_below_speed() {
    let model = Mrwp::new(30.0, 2.0).unwrap().with_pause(8);
    let mut r = rng(11);
    let n = 3;
    let states: Vec<_> = (0..n).map(|_| model.init_stationary(&mut r)).collect();
    let mut positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
    let mut batch = model.batch_from_states(states);
    let mut one = [ChunkCtx::new(&mut r, n)];
    let pool = WorkerPool::new(1);
    let mut below = 0u32;
    let mut exact = 0u32;
    for _ in 0..400 {
        let drift = model.step_batch(&mut batch, &mut positions, n, &mut one, &pool, |_, _| {});
        assert!(drift <= model.speed() + 1e-9);
        if drift < model.speed() - 1e-9 {
            below += 1;
        } else {
            exact += 1;
        }
    }
    assert!(
        below > 0,
        "some all-paused steps must measure drift < speed"
    );
    assert!(exact > 0, "traveling steps still measure full-speed drift");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Static agents through the same batch lockstep check as the moving
    /// models, so every in-tree model is held to the displacement
    /// contract (measured drift within `speed()`, here 0).
    #[test]
    fn static_step_batch_matches_scalar_loop(seed in 0u64..1000, n in 1usize..40) {
        let model = Static::new(50.0, Placement::MrwpStationary).unwrap();
        assert_batch_lockstep(&model, n, 10, seed);
    }
}
