//! The Manhattan Random Way-Point mobility model (paper §2).

use crate::distributions::{sample_spatial, sample_trip_length_biased};
use crate::model::{drain_chunks, ChunkCtx};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotState};
use crate::{Mobility, MobilityError, StepEvents};
use fastflood_geom::{Axis, LPath, Point, Rect};
use fastflood_parallel::{run_chunks6, WorkerPool};
use rand::Rng;
use std::time::Instant;

/// The Manhattan Random Way-Point model.
///
/// Each agent repeatedly:
///
/// 1. selects a destination uniformly at random in the square `[0, L]²`;
/// 2. flips a fair coin between the two Manhattan shortest paths
///    (`P1` vertical-first, `P2` horizontal-first);
/// 3. travels the chosen L-path at constant speed `v`;
/// 4. on arrival, repeats.
///
/// [`Mrwp::init_stationary`] performs *perfect simulation*: it draws the
/// agent state directly from the stationary regime via length-biased trip
/// sampling, so experiments need no warm-up phase. The resulting spatial
/// marginal is the Theorem 1 density (validated statistically in the test
/// suite and experiment E1/E3).
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{Mobility, Mrwp};
/// use rand::SeedableRng;
///
/// let model = Mrwp::new(100.0, 2.0)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut st = model.init_stationary(&mut rng);
/// for _ in 0..50 {
///     model.step(&mut st, &mut rng);
///     let p = model.position(&st);
///     assert!(model.region().contains(p));
/// }
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Mrwp {
    side: f64,
    speed: f64,
    /// Whole time steps spent paused at each way-point (0 in the paper).
    pause: u32,
}

/// Trajectory state of one MRWP agent: the current L-path and the
/// arc-length progress along it.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MrwpState {
    path: LPath,
    /// Arc-length position along `path`, in `[0, path.len()]`.
    s: f64,
    /// Remaining pause steps at the current way-point (0 = traveling).
    pause_left: u32,
    /// Leg cache for the fused [`Mobility::step_from`] fast path: while
    /// `s + speed < leg_end` a step is `position += (vx, vy)`. Negative
    /// when invalid (fresh state, pause, or leg boundary ahead), which
    /// routes the next step through the full logic that refreshes it.
    leg_end: f64,
    /// Per-step displacement on the current leg (`±speed` on one axis).
    vx: f64,
    vy: f64,
}

/// Equality over the observable trajectory only — the `step_from` leg
/// cache is an implementation detail whose warm/cold status depends on
/// which stepping entry point was used last.
impl PartialEq for MrwpState {
    fn eq(&self, other: &MrwpState) -> bool {
        self.path == other.path && self.s == other.s && self.pause_left == other.pause_left
    }
}

impl MrwpState {
    fn new(path: LPath, s: f64, pause_left: u32) -> MrwpState {
        MrwpState {
            path,
            s,
            pause_left,
            leg_end: -1.0,
            vx: 0.0,
            vy: 0.0,
        }
    }
}

impl MrwpState {
    /// The current trip's L-path.
    pub fn path(&self) -> &LPath {
        &self.path
    }

    /// Arc-length progress along the current path.
    pub fn progress(&self) -> f64 {
        self.s
    }

    /// The current trip destination.
    pub fn dest(&self) -> Point {
        self.path.dest()
    }

    /// Whether the agent is on the second leg of its path (traveling
    /// straight toward a destination on its own axis line — the situation
    /// whose stationary probability is the paper's "cross mass 1/2").
    pub fn on_second_leg(&self) -> bool {
        match self.path.turn_at() {
            Some(t) => self.s >= t,
            // single-leg paths count as second leg: destination dead ahead
            None => true,
        }
    }

    /// Whether the agent is currently pausing at a way-point.
    pub fn is_paused(&self) -> bool {
        self.pause_left > 0
    }
}

impl SnapshotState for MrwpState {
    const STATE_TAG: u32 = u32::from_le_bytes(*b"MRWP");

    /// Layout: path (start, dest, first_axis), `s`, `pause_left`, then
    /// the `step_from` leg cache (`leg_end`, `vx`, `vy`). The cache is
    /// serialized — not recomputed — because its warm/cold status
    /// determines which stepping branch the next step takes, and a
    /// bitwise resume must take the identical branch.
    fn write_state(&self, w: &mut ByteWriter) {
        w.put_point(self.path.start());
        w.put_point(self.path.dest());
        w.put_axis(self.path.first_axis());
        w.put_f64(self.s);
        w.put_u32(self.pause_left);
        w.put_f64(self.leg_end);
        w.put_f64(self.vx);
        w.put_f64(self.vy);
    }

    fn read_state(r: &mut ByteReader<'_>) -> Option<MrwpState> {
        let start = r.get_finite_point()?;
        let dest = r.get_finite_point()?;
        let axis = r.get_axis()?;
        // corner/leg lengths are a pure function of the endpoints: rebuilt
        let path = LPath::new(start, dest, axis);
        Some(MrwpState {
            path,
            s: r.get_finite_f64()?,
            pause_left: r.get_u32()?,
            leg_end: r.get_finite_f64()?,
            vx: r.get_finite_f64()?,
            vy: r.get_finite_f64()?,
        })
    }
}

/// Axis-aligned unit step directions of an L-path leg, indexed by the
/// hot `dir` lane of [`MrwpBatch`]; entry 4 is the degenerate
/// zero-length leg. The advance kernel and the scalar state views
/// decode through this table.
const DIR_STEPS: [(f64, f64); 5] = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)];

/// Encodes a leg-cache step vector (each component `±speed` or `0.0`)
/// as a [`DIR_STEPS`] index.
fn dir_code(vx: f64, vy: f64) -> u32 {
    if vx > 0.0 {
        0
    } else if vx < 0.0 {
        1
    } else if vy > 0.0 {
        2
    } else if vy < 0.0 {
        3
    } else {
        4
    }
}

/// Cold per-agent state: the trip's defining data and the pause
/// counter, touched only at leg boundaries, way-point rollovers, and
/// pauses — a few agents per step in the MRWP speed regime.
///
/// Only the fields that define the trip are kept (40 bytes), the same
/// ones a snapshot stores: [`MrwpCold::path`] rebuilds the corner and
/// leg lengths an [`LPath`] caches, bit for bit.
#[derive(Debug, Clone, Copy)]
struct MrwpCold {
    start: Point,
    dest: Point,
    /// Remaining pause steps at the current way-point (0 = traveling).
    pause_left: u32,
    first_axis: Axis,
}

impl MrwpCold {
    fn new(path: &LPath, pause_left: u32) -> MrwpCold {
        MrwpCold {
            start: path.start(),
            dest: path.dest(),
            pause_left,
            first_axis: path.first_axis(),
        }
    }

    /// The trip's L-path, rebuilt from its defining fields.
    fn path(&self) -> LPath {
        LPath::new(self.start, self.dest, self.first_axis)
    }
}

/// The whole MRWP population in the batched hot/cold split-layout form
/// of [`Mobility::step_batch`] (built by [`Mobility::batch_from_states`]).
///
/// The hot/cold split of PR 4/5 (24 bytes of per-step-touched state per
/// agent, cold trip geometry in a side array) is here taken to full
/// structure-of-arrays form: three dense hot **lanes** (`s`, `leg_end`,
/// `dir` — progress, fused leg-cache guard, direction code) plus a
/// per-step boundary-index scratch lane, and the cold side array read
/// only when an agent hits a leg boundary. The common full-leg step
/// therefore streams flat `f64`/`u32` lanes instead of the 120-byte
/// [`MrwpState`], which is what makes the dense-regime move pass
/// cache-bound rather than stride-bound — and, since PR 6, lets the
/// advance kernel stream the hot lanes in one flat pass that compacts
/// all leg-boundary work out into an index list for the scalar boundary
/// pass (see `docs/ARCHITECTURE.md`, "Move pass & state layout").
///
/// The cold record keeps only the trip's endpoints, first axis and pause
/// counter (40 bytes per agent). The boundary pass and
/// [`Mobility::batch_state`] rebuild the trip's [`LPath`] from them with
/// [`LPath::new`], a pure function of those fields, so the derived
/// corner and leg lengths cost no memory and every bit is unchanged.
/// A batched agent is 68 bytes: 24 hot, 4 scratch and 40 cold.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::{ChunkCtx, Mobility, Mrwp};
/// use fastflood_geom::Point;
/// use fastflood_parallel::WorkerPool;
/// use rand::SeedableRng;
///
/// let model = Mrwp::new(50.0, 0.5)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// // stream each state into the batch as it is drawn: no Vec of states
/// let mut positions = Vec::new();
/// let mut batch = model.batch_from_states((0..4).map(|_| {
///     let st = model.init_stationary(&mut rng);
///     positions.push(model.position(&st));
///     st
/// }));
/// // one chunk of all four agents on one stream, run inline
/// let mut chunks = [ChunkCtx::new(&mut rng, 4)];
/// let pool = WorkerPool::new(1);
/// let drift = model.step_batch(&mut batch, &mut positions, 4, &mut chunks, &pool, |_, _| {});
/// // the measured drift bounds every agent's step displacement
/// assert!(drift <= 0.5 + 1e-12);
/// # Ok::<(), fastflood_mobility::MobilityError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MrwpBatch {
    /// Hot lane: arc-length progress along the current path.
    s: Vec<f64>,
    /// Hot lane, fast-path guard: while `s + speed < leg_end` a step is
    /// `position += DIR_STEPS[dir] · speed`. Negative when invalid
    /// (pause or leg boundary ahead), routing the agent through the
    /// boundary pass.
    leg_end: Vec<f64>,
    /// Hot lane: direction code of the current leg ([`DIR_STEPS`] index).
    dir: Vec<u32>,
    /// Per-step scratch written by the advance kernel: the (ascending,
    /// slice-local) indices of the agents that hit their leg end (or
    /// were already invalid) and must be finished by the scalar
    /// boundary pass, compacted into the prefix `flagged[..count]`.
    /// The pass therefore touches only flagged agents instead of
    /// re-scanning the whole population. Never read across steps.
    flagged: Vec<u32>,
    cold: Vec<MrwpCold>,
    /// Whether steps record the kernel/boundary time split below.
    timing: bool,
    /// Nanoseconds the last step spent in the advance kernel (summed
    /// over chunks in chunked mode; 0 unless `timing`).
    kernel_ns: u64,
    /// Nanoseconds the last step spent in the boundary pass.
    boundary_ns: u64,
}

impl MrwpBatch {
    /// Number of agents in the batch.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Whether the batch holds no agents.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }
}

impl Mrwp {
    /// Creates the model over `[0, side]²` with per-step travel distance
    /// `speed`.
    ///
    /// # Errors
    ///
    /// * [`MobilityError::BadSide`] — `side` not strictly positive/finite;
    /// * [`MobilityError::BadSpeed`] — `speed` negative or not finite.
    pub fn new(side: f64, speed: f64) -> Result<Mrwp, MobilityError> {
        if side <= 0.0 || !side.is_finite() {
            return Err(MobilityError::BadSide(side));
        }
        if speed < 0.0 || !speed.is_finite() {
            return Err(MobilityError::BadSpeed(speed));
        }
        Ok(Mrwp {
            side,
            speed,
            pause: 0,
        })
    }

    /// Returns a copy that pauses `steps` whole time steps at every
    /// way-point (the classic RWP "think time"; the paper's model has
    /// none). During a pause the agent does not move or turn; leftover
    /// travel budget in the arrival step is forfeited.
    pub fn with_pause(mut self, steps: u32) -> Mrwp {
        self.pause = steps;
        self
    }

    /// Side length `L` of the region.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Pause duration at way-points, in steps.
    #[inline]
    pub fn pause(&self) -> u32 {
        self.pause
    }

    /// Draws a position from the exact Theorem 1 stationary spatial
    /// density without constructing trajectory state (useful for
    /// snapshot-only studies such as the connectivity experiments).
    pub fn sample_stationary_position<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        sample_spatial(self.side, rng)
    }

    fn fresh_trip<R: Rng + ?Sized>(&self, from: Point, rng: &mut R) -> LPath {
        let dest = Point::new(self.side * rng.gen::<f64>(), self.side * rng.gen::<f64>());
        let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
        LPath::new(from, dest, axis)
    }
}

impl Mobility for Mrwp {
    type State = MrwpState;
    /// Hot/cold split batch: see [`MrwpBatch`].
    type Batch = MrwpBatch;

    fn region(&self) -> Rect {
        Rect::square(self.side).expect("validated side")
    }

    fn speed(&self) -> f64 {
        self.speed
    }

    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> MrwpState {
        if self.pause == 0 || self.speed == 0.0 {
            let (w, d) = sample_trip_length_biased(self.side, rng);
            let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
            let path = LPath::new(w, d, axis);
            let s = rng.gen::<f64>() * path.len();
            return MrwpState::new(path, s, 0);
        }
        // With pauses, a renewal cycle lasts len/v + pause steps; sample
        // cycles duration-biased, then place the agent uniformly in time
        // within the cycle (traveling or paused at the destination).
        let l = self.side;
        let max_duration = 2.0 * l / self.speed + self.pause as f64;
        loop {
            let w = Point::new(l * rng.gen::<f64>(), l * rng.gen::<f64>());
            let d = Point::new(l * rng.gen::<f64>(), l * rng.gen::<f64>());
            let len = w.manhattan(d);
            let duration = len / self.speed + self.pause as f64;
            if rng.gen::<f64>() * max_duration >= duration {
                continue;
            }
            if rng.gen::<f64>() * duration < self.pause as f64 {
                // paused at the destination, uniformly into the pause
                return MrwpState::new(
                    LPath::new(d, d, Axis::X),
                    0.0,
                    rng.gen_range(1..=self.pause),
                );
            }
            let axis = if rng.gen_bool(0.5) { Axis::Y } else { Axis::X };
            let path = LPath::new(w, d, axis);
            let s = rng.gen::<f64>() * path.len();
            return MrwpState::new(path, s, 0);
        }
    }

    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> MrwpState {
        assert!(
            self.region().contains(pos),
            "initial position {pos} outside the region"
        );
        MrwpState::new(self.fresh_trip(pos, rng), 0.0, 0)
    }

    fn position(&self, state: &MrwpState) -> Point {
        state.path.point_at(state.s)
    }

    fn step<R: Rng + ?Sized>(&self, state: &mut MrwpState, rng: &mut R) -> StepEvents {
        // a direct step() bypasses the fused fast path; invalidate its
        // cache so a later step_from cannot move along stale geometry
        state.leg_end = -1.0;
        self.step_core(&mut state.path, &mut state.s, &mut state.pause_left, rng)
    }

    #[inline]
    fn step_from<R: Rng + ?Sized>(
        &self,
        state: &mut MrwpState,
        current: Point,
        rng: &mut R,
    ) -> (Point, StepEvents) {
        // Fast path for the overwhelmingly common step: traveling, and
        // the whole step stays strictly inside the current leg. Motion is
        // then a single precomputed vector add — no corner, no arrival,
        // no arc-length-to-point conversion. `leg_end < 0` (fresh state
        // or pause) fails the guard and takes the full path below.
        let s_new = state.s + self.speed;
        if s_new < state.leg_end {
            state.s = s_new;
            return (
                Point::new(current.x + state.vx, current.y + state.vy),
                StepEvents::default(),
            );
        }
        // corner, arrival, pause, or degenerate cases: full step logic,
        // then refresh the leg cache for the steps that follow
        let ev = self.step(state, rng);
        self.refresh_leg_cache(state);
        (self.position(state), ev)
    }

    fn batch_from_states<I: IntoIterator<Item = MrwpState>>(&self, states: I) -> MrwpBatch {
        let states = states.into_iter();
        // reserve the upper bound when there is one: a fallible decode
        // (`map_while`) reports no lower bound, yet nearly always yields
        // every agent, and growing the lanes by doubling would cost the
        // transient this streaming build exists to avoid
        let (lo, hi) = states.size_hint();
        let cap = hi.unwrap_or(lo);
        let mut batch = MrwpBatch {
            s: Vec::with_capacity(cap),
            leg_end: Vec::with_capacity(cap),
            dir: Vec::with_capacity(cap),
            flagged: Vec::new(),
            cold: Vec::with_capacity(cap),
            timing: false,
            kernel_ns: 0,
            boundary_ns: 0,
        };
        for st in states {
            batch.s.push(st.s);
            batch.leg_end.push(st.leg_end);
            batch.dir.push(dir_code(st.vx, st.vy));
            batch.cold.push(MrwpCold::new(&st.path, st.pause_left));
        }
        batch.flagged = vec![0; batch.s.len()];
        batch
    }

    fn batch_state(&self, batch: &MrwpBatch, agent: usize) -> MrwpState {
        let c = batch.cold[agent];
        let (ux, uy) = DIR_STEPS[batch.dir[agent] as usize];
        MrwpState {
            path: c.path(),
            s: batch.s[agent],
            pause_left: c.pause_left,
            leg_end: batch.leg_end[agent],
            vx: ux * self.speed,
            vy: uy * self.speed,
        }
    }

    fn batch_set_state(&self, batch: &mut MrwpBatch, agent: usize, state: MrwpState) {
        batch.s[agent] = state.s;
        batch.leg_end[agent] = state.leg_end;
        batch.dir[agent] = dir_code(state.vx, state.vy);
        batch.cold[agent] = MrwpCold::new(&state.path, state.pause_left);
    }

    fn enable_move_timing(&self, batch: &mut MrwpBatch, on: bool) {
        batch.timing = on;
        if !on {
            batch.kernel_ns = 0;
            batch.boundary_ns = 0;
        }
    }

    fn move_split_nanos(&self, batch: &MrwpBatch) -> Option<(u64, u64)> {
        batch.timing.then_some((batch.kernel_ns, batch.boundary_ns))
    }

    fn step_batch<R: Rng + Send, F: FnMut(usize, StepEvents)>(
        &self,
        batch: &mut MrwpBatch,
        positions: &mut [Point],
        chunk_len: usize,
        chunks: &mut [ChunkCtx<R>],
        pool: &WorkerPool,
        on_events: F,
    ) -> f64 {
        assert_eq!(
            batch.s.len(),
            positions.len(),
            "batch and position array must agree on the population size"
        );
        debug_assert_eq!(batch.s.len(), batch.cold.len());
        let MrwpBatch {
            s,
            leg_end,
            dir,
            flagged,
            cold,
            timing,
            kernel_ns,
            boundary_ns,
        } = batch;
        let timing = *timing;
        run_chunks6(
            pool,
            chunk_len,
            s,
            leg_end,
            dir,
            flagged,
            cold,
            positions,
            chunks,
            |ci, s_part, le_part, dir_part, fl_part, cold_part, pos_part, ctx| {
                ctx.begin();
                let base = ci * chunk_len;
                let ChunkCtx {
                    rng,
                    drift,
                    events,
                    kernel_ns,
                    boundary_ns,
                } = ctx;
                let (d, k_ns, b_ns) = self.step_batch_slices(
                    s_part,
                    le_part,
                    dir_part,
                    fl_part,
                    cold_part,
                    pos_part,
                    base,
                    timing,
                    rng,
                    |i, ev| {
                        events.push((i as u32, ev));
                    },
                );
                *drift = d;
                *kernel_ns = k_ns;
                *boundary_ns = b_ns;
            },
        );
        *kernel_ns = chunks.iter().map(|c| c.kernel_ns).sum();
        *boundary_ns = chunks.iter().map(|c| c.boundary_ns).sum();
        drain_chunks(chunks, on_events)
    }
}

/// The advance kernel over one slice of the hot lanes: integrates every
/// agent whose whole step stays strictly inside its current leg,
/// compacts the (ascending, slice-local) indices of the rest into the
/// prefix of `flagged`, and returns how many it flagged. This is the
/// entire move pass for in-leg agents — no RNG, no cold state, a flat
/// streaming pass over the lanes — and the index compaction means the
/// boundary pass that follows never re-scans the population.
///
/// One well-predicted branch per agent (in the MRWP speed regime ≥97%
/// of agents take it the same way) with the [`DIR_STEPS`] table decode
/// — this beats every branch-free formulation we measured, including
/// an explicit-wide masked block form at every size, because the
/// predictor makes the common case free while selects/masks pay their
/// full latency on every lane.
fn advance_kernel(
    speed: f64,
    s: &mut [f64],
    leg_end: &[f64],
    dir: &[u32],
    flagged: &mut [u32],
    positions: &mut [Point],
) -> usize {
    let n = s.len();
    assert!(
        leg_end.len() == n && dir.len() == n && flagged.len() == n && positions.len() == n,
        "hot lanes must agree on length"
    );
    let mut boundary = 0usize;
    for i in 0..n {
        let s_new = s[i] + speed;
        if s_new < leg_end[i] {
            s[i] = s_new;
            let (ux, uy) = DIR_STEPS[dir[i] as usize];
            positions[i].x += ux * speed;
            positions[i].y += uy * speed;
        } else {
            flagged[boundary] = i as u32;
            boundary += 1;
        }
    }
    boundary
}

impl Mrwp {
    /// The batched move pass over one chunk of the hot-lane/cold/
    /// position arrays: the per-chunk task of [`Mobility::step_batch`],
    /// with `base` the chunk's first agent (`chunk · chunk_len`; 0 for
    /// the sequential engine's one chunk of the whole population).
    ///
    /// Two sub-passes: the flat [`advance_kernel`] integrates every
    /// in-leg agent and compacts the indices of the rest into
    /// `flagged[..count]`, then the scalar **boundary pass** walks that
    /// prefix and runs the full step logic (RNG draws, leg-cache
    /// refill, arc-length-to-point conversion) for flagged agents only
    /// — it never re-scans the population. Because flagged agents'
    /// lanes are left meaningfully untouched by the kernel and the
    /// compacted indices are in ascending order, the RNG draw sequence
    /// — and hence every trajectory and event — is bitwise-identical to
    /// the old interleaved per-agent loop and to a scalar `step_from`
    /// loop.
    /// Records events through `record` with **global** agent indices;
    /// returns `(measured drift, kernel_ns, boundary_ns)` (the timings
    /// are 0 unless `timing`).
    #[allow(clippy::too_many_arguments)]
    fn step_batch_slices<R: Rng + ?Sized>(
        &self,
        s: &mut [f64],
        leg_end: &mut [f64],
        dir: &mut [u32],
        flagged: &mut [u32],
        cold: &mut [MrwpCold],
        positions: &mut [Point],
        base: usize,
        timing: bool,
        rng: &mut R,
        mut record: impl FnMut(usize, StepEvents),
    ) -> (f64, u64, u64) {
        let speed = self.speed;
        let t0 = timing.then(Instant::now);
        let count = advance_kernel(speed, s, leg_end, dir, flagged, positions);
        let kernel_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Measured drift, split by sub-pass: a fused leg step displaces
        // by exactly `speed` (one axis, |v| = speed), so the kernel only
        // needs the "any in-leg agent" bit; boundary-pass displacements
        // (corner/arrival carryover, pauses) are measured individually
        // and can only be shorter in L2 than the L1 budget.
        let any_leg_step = count < s.len();
        let mut slow_max2 = 0.0f64;
        let t1 = timing.then(Instant::now);
        for &iu in flagged[..count].iter() {
            let i = iu as usize;
            // identical to the scalar `step_from` fallback — full
            // step logic on the cold state, leg-cache refill,
            // arc-length-to-point conversion
            let c = &mut cold[i];
            let mut path = c.path();
            let ev = self.step_core(&mut path, &mut s[i], &mut c.pause_left, rng);
            let (le, vx, vy) = self.leg_cache(&path, s[i], c.pause_left);
            *c = MrwpCold::new(&path, c.pause_left);
            leg_end[i] = le;
            dir[i] = dir_code(vx, vy);
            let before = positions[i];
            let p = path.point_at(s[i]);
            positions[i] = p;
            let dx = p.x - before.x;
            let dy = p.y - before.y;
            let d2 = dx * dx + dy * dy;
            if d2 > slow_max2 {
                slow_max2 = d2;
            }
            if ev.turns | ev.arrivals != 0 {
                record(base + i, ev);
            }
        }
        let boundary_ns = t1.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let slow = slow_max2.sqrt();
        let drift = if any_leg_step && speed > slow {
            speed
        } else {
            slow
        };
        (drift, kernel_ns, boundary_ns)
    }

    /// The authoritative one-step logic over the `(path, s, pause_left)`
    /// parts of an agent's state, shared verbatim by the scalar
    /// [`Mobility::step`]/[`Mobility::step_from`] entry points and the
    /// slow path of the batched [`Mobility::step_batch`] — one body, so
    /// the three paths can never drift apart in semantics or RNG draws.
    fn step_core<R: Rng + ?Sized>(
        &self,
        path: &mut LPath,
        s: &mut f64,
        pause_left: &mut u32,
        rng: &mut R,
    ) -> StepEvents {
        if *pause_left > 0 {
            *pause_left -= 1;
            if *pause_left == 0 {
                // the pause ends at this step's boundary; travel resumes
                // next step on a fresh trip
                let from = path.dest();
                *path = self.fresh_trip(from, rng);
                *s = 0.0;
            }
            return StepEvents::default();
        }
        let mut budget = self.speed;
        let mut events = StepEvents::default();
        // Carry leftover budget across corners and arrivals so the agent
        // travels exactly `speed` per step (continuous trajectory sampled
        // at integer times). The loop is bounded: every iteration but the
        // last consumes a full trip, and a fresh trip has positive length
        // with probability one (a zero-length trip is resampled, counted,
        // and capped to keep the step total).
        let mut guard = 0;
        loop {
            let remaining = path.remaining(*s);
            if budget < remaining {
                let before = *s;
                *s += budget;
                if let Some(t) = path.turn_at() {
                    if before < t && *s >= t {
                        events.turns += 1;
                    }
                }
                break;
            }
            // the step finishes this trip: account for a corner still ahead
            if let Some(t) = path.turn_at() {
                if *s < t {
                    events.turns += 1;
                }
            }
            budget -= remaining;
            events.arrivals += 1;
            let from = path.dest();
            if self.pause > 0 {
                // hold position for `pause` whole steps; leftover budget
                // in the arrival step is forfeited
                *path = LPath::new(from, from, Axis::X);
                *s = 0.0;
                *pause_left = self.pause;
                break;
            }
            *path = self.fresh_trip(from, rng);
            *s = 0.0;
            guard += 1;
            if guard > 10_000 {
                // astronomically unlikely (requires thousands of
                // zero-length trips or speed >> L); stop at the waypoint
                break;
            }
        }
        events
    }

    /// Computes the fused fast-path cache `(leg_end, vx, vy)` from the
    /// authoritative `(path, s, pause_left)` parts: while
    /// `s + speed < leg_end` a step is `position += (vx, vy)`. Shared by
    /// the scalar cache refresh and the batched hot-array refill.
    fn leg_cache(&self, path: &LPath, s: f64, pause_left: u32) -> (f64, f64, f64) {
        if pause_left > 0 || self.speed == 0.0 {
            return (-1.0, 0.0, 0.0);
        }
        let (from, to, end) = if s < path.leg1_len() {
            (path.start(), path.corner(), path.leg1_len())
        } else {
            (path.corner(), path.dest(), path.len())
        };
        let mut vx = (to.x - from.x).signum() * self.speed;
        let mut vy = (to.y - from.y).signum() * self.speed;
        // axis-aligned legs move along exactly one axis
        if to.x == from.x {
            vx = 0.0;
        }
        if to.y == from.y {
            vy = 0.0;
        }
        (end, vx, vy)
    }

    /// Recomputes the [`Mobility::step_from`] fast-path cache from the
    /// authoritative `(path, s, pause_left)` state.
    fn refresh_leg_cache(&self, state: &mut MrwpState) {
        let (leg_end, vx, vy) = self.leg_cache(&state.path, state.s, state.pause_left);
        state.leg_end = leg_end;
        state.vx = vx;
        state.vy = vy;
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
    fn interleaving_step_and_step_from_stays_consistent() {
        // regression: a direct step() must invalidate the step_from leg
        // cache, or the next fused step moves along stale geometry
        let model = Mrwp::new(20.0, 1.5).unwrap();
        let mut r = rng(77);
        let mut st = model.init_stationary(&mut r);
        let mut pos = model.position(&st);
        for i in 0..500 {
            if i % 7 == 3 {
                model.step(&mut st, &mut r);
                pos = model.position(&st);
            } else {
                let (p, _) = model.step_from(&mut st, pos, &mut r);
                pos = p;
            }
            let truth = model.position(&st);
            assert!(
                (pos.x - truth.x).abs() < 1e-9 && (pos.y - truth.y).abs() < 1e-9,
                "step {i}: fused position {pos} diverged from {truth}"
            );
        }
    }

    #[test]
    fn construction_validates() {
        assert!(Mrwp::new(0.0, 1.0).is_err());
        assert!(Mrwp::new(-5.0, 1.0).is_err());
        assert!(Mrwp::new(f64::INFINITY, 1.0).is_err());
        assert!(Mrwp::new(10.0, -0.5).is_err());
        assert!(Mrwp::new(10.0, f64::NAN).is_err());
        assert!(
            Mrwp::new(10.0, 0.0).is_ok(),
            "zero speed is legal (static agents)"
        );
    }

    #[test]
    fn step_moves_exactly_speed_in_l1() {
        let model = Mrwp::new(L, 3.0).unwrap();
        let mut r = rng(1);
        let mut st = model.init_stationary(&mut r);
        for _ in 0..500 {
            let before = model.position(&st);
            let ev = model.step(&mut st, &mut r);
            let after = model.position(&st);
            // unless a trip completed mid-step, L1 displacement == speed
            if ev.arrivals == 0 {
                assert!(
                    (before.manhattan(after) - 3.0).abs() < 1e-9,
                    "displacement {}",
                    before.manhattan(after)
                );
            } else {
                // with carryover the displacement can only be shorter in L1
                assert!(before.manhattan(after) <= 3.0 + 1e-9);
            }
        }
    }

    #[test]
    fn agents_stay_in_region() {
        let model = Mrwp::new(L, 7.0).unwrap();
        let region = model.region();
        let mut r = rng(2);
        for seed_state in 0..20 {
            let mut st = if seed_state % 2 == 0 {
                model.init_stationary(&mut r)
            } else {
                model.init_at(Point::new(0.0, 0.0), &mut r)
            };
            for _ in 0..200 {
                model.step(&mut st, &mut r);
                assert!(region.contains(model.position(&st)));
            }
        }
    }

    #[test]
    fn zero_speed_never_moves() {
        let model = Mrwp::new(L, 0.0).unwrap();
        let mut r = rng(3);
        let mut st = model.init_stationary(&mut r);
        let p0 = model.position(&st);
        for _ in 0..50 {
            let ev = model.step(&mut st, &mut r);
            assert_eq!(model.position(&st), p0);
            assert_eq!(ev, StepEvents::default());
        }
    }

    #[test]
    fn init_at_starts_at_position() {
        let model = Mrwp::new(L, 1.0).unwrap();
        let mut r = rng(4);
        let p = Point::new(12.0, 34.0);
        let st = model.init_at(p, &mut r);
        assert_eq!(model.position(&st), p);
        assert_eq!(st.progress(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the region")]
    fn init_at_rejects_outside() {
        let model = Mrwp::new(L, 1.0).unwrap();
        let mut r = rng(5);
        model.init_at(Point::new(-1.0, 0.0), &mut r);
    }

    #[test]
    fn turns_are_counted_once_per_corner() {
        let model = Mrwp::new(L, 5.0).unwrap();
        let mut r = rng(6);
        let mut total_turns = 0u32;
        let mut total_arrivals = 0u32;
        let mut st = model.init_stationary(&mut r);
        let steps = 2000;
        for _ in 0..steps {
            let ev = model.step(&mut st, &mut r);
            total_turns += ev.turns;
            total_arrivals += ev.arrivals;
        }
        // each trip contributes at most one corner turn and exactly one
        // arrival; trips average 2L/3 in length -> about v·steps/(2L/3) trips
        let expected_trips = 5.0 * steps as f64 / (2.0 * L / 3.0);
        assert!(
            (total_arrivals as f64) > expected_trips * 0.8
                && (total_arrivals as f64) < expected_trips * 1.2,
            "arrivals {total_arrivals}, expected ≈ {expected_trips}"
        );
        assert!(
            total_turns <= total_arrivals + 1,
            "at most one corner per trip"
        );
        // most uniformly-chosen trips do turn
        assert!(total_turns as f64 > 0.8 * total_arrivals as f64);
    }

    #[test]
    fn stationary_positions_match_theorem1_marginal() {
        // KS test of the x-marginal against the Theorem 1 marginal CDF
        let model = Mrwp::new(L, 1.0).unwrap();
        let mut r = rng(7);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| model.position(&model.init_stationary(&mut r)).x)
            .collect();
        let res = fastflood_stats::ks::ks_one_sample(&xs, |t| {
            crate::distributions::spatial_marginal_cdf(L, t)
        })
        .unwrap();
        assert!(
            res.accepts(0.001),
            "stationary x-marginal rejected: D = {}, p = {}",
            res.statistic,
            res.p_value
        );
        // and it must NOT look uniform (the distribution is center-heavy)
        let uni = fastflood_stats::ks::ks_one_sample(&xs, |t| (t / L).clamp(0.0, 1.0)).unwrap();
        assert!(!uni.accepts(0.001), "marginal should differ from uniform");
    }

    #[test]
    fn stationarity_is_preserved_by_stepping() {
        // start stationary, run 300 steps, the marginal must still match
        let model = Mrwp::new(L, 2.0).unwrap();
        let mut r = rng(8);
        let mut xs = Vec::new();
        for _ in 0..4000 {
            let mut st = model.init_stationary(&mut r);
            for _ in 0..25 {
                model.step(&mut st, &mut r);
            }
            xs.push(model.position(&st).x);
        }
        let res = fastflood_stats::ks::ks_one_sample(&xs, |t| {
            crate::distributions::spatial_marginal_cdf(L, t)
        })
        .unwrap();
        assert!(
            res.accepts(0.001),
            "marginal after stepping rejected: D = {}, p = {}",
            res.statistic,
            res.p_value
        );
    }

    #[test]
    fn second_leg_probability_is_half() {
        // the stationary probability of being on the second leg equals the
        // cross mass of Theorem 2: exactly 1/2
        let model = Mrwp::new(L, 1.0).unwrap();
        let mut r = rng(9);
        let n = 100_000;
        let on_second = (0..n)
            .filter(|_| model.init_stationary(&mut r).on_second_leg())
            .count();
        let frac = on_second as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "second-leg fraction {frac}");
    }

    #[test]
    fn sample_stationary_position_in_region() {
        let model = Mrwp::new(L, 1.0).unwrap();
        let mut r = rng(10);
        for _ in 0..1000 {
            assert!(model
                .region()
                .contains(model.sample_stationary_position(&mut r)));
        }
    }

    #[test]
    fn pause_freezes_agent_at_waypoints() {
        let model = Mrwp::new(20.0, 5.0).unwrap().with_pause(3);
        assert_eq!(model.pause(), 3);
        let mut r = rng(20);
        let mut st = model.init_at(Point::new(10.0, 10.0), &mut r);
        let mut paused_streaks = Vec::new();
        let mut current = 0u32;
        for _ in 0..400 {
            let before = model.position(&st);
            model.step(&mut st, &mut r);
            let after = model.position(&st);
            if before == after {
                current += 1;
            } else if current > 0 {
                paused_streaks.push(current);
                current = 0;
            }
        }
        assert!(!paused_streaks.is_empty(), "agent must have paused");
        // every completed pause lasts exactly 3 steps
        for &streak in &paused_streaks {
            assert_eq!(streak, 3, "pause streaks must last exactly 3 steps");
        }
    }

    #[test]
    fn paused_fraction_matches_renewal_theory() {
        // stationary fraction of paused agents = pause / (E[len]/v + pause)
        // with E[len] = 2L/3
        let l = 60.0;
        let v = 2.0;
        let pause = 10u32;
        let model = Mrwp::new(l, v).unwrap().with_pause(pause);
        let mut r = rng(21);
        let n = 40_000;
        let paused = (0..n)
            .filter(|_| model.init_stationary(&mut r).is_paused())
            .count();
        let expected = pause as f64 / ((2.0 * l / 3.0) / v + pause as f64);
        let got = paused as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.01,
            "paused fraction {got} vs renewal theory {expected}"
        );
    }

    #[test]
    fn pause_zero_matches_original_model() {
        let a = Mrwp::new(50.0, 1.0).unwrap();
        let b = Mrwp::new(50.0, 1.0).unwrap().with_pause(0);
        let mut r1 = rng(22);
        let mut r2 = rng(22);
        let mut s1 = a.init_stationary(&mut r1);
        let mut s2 = b.init_stationary(&mut r2);
        for _ in 0..100 {
            a.step(&mut s1, &mut r1);
            b.step(&mut s2, &mut r2);
            assert_eq!(a.position(&s1), b.position(&s2));
        }
    }

    /// Every bit of a state, the rebuilt path's derived geometry and the
    /// leg cache included.
    fn state_bits(st: &MrwpState) -> Vec<u64> {
        let p = &st.path;
        let mut bits = Vec::new();
        for q in [p.start(), p.dest(), p.corner()] {
            bits.extend([q.x.to_bits(), q.y.to_bits()]);
        }
        bits.extend([p.leg1_len(), p.leg2_len(), p.len()].map(f64::to_bits));
        bits.extend([st.s, st.leg_end, st.vx, st.vy].map(f64::to_bits));
        bits.push((p.first_axis() == Axis::X) as u64);
        bits.push(st.pause_left as u64);
        bits
    }

    #[test]
    fn cold_record_holds_only_the_trip_definition() {
        assert_eq!(std::mem::size_of::<MrwpCold>(), 40);
    }

    #[test]
    fn batch_round_trip_is_bitwise() {
        // the cold record drops the path's corner and leg lengths; the
        // rebuilt `LPath` must reproduce them, and the whole state, bit
        // for bit
        let model = Mrwp::new(L, 1.5).unwrap().with_pause(4);
        let mut r = rng(30);
        let point = |r: &mut rand::rngs::StdRng| Point::new(L * r.gen::<f64>(), L * r.gen::<f64>());
        let mut states = Vec::new();
        for k in 0..400u32 {
            let (a, b) = (point(&mut r), point(&mut r));
            let axis = if r.gen_bool(0.5) { Axis::X } else { Axis::Y };
            let (start, dest) = match k % 4 {
                0 => (a, b),                    // random L-path
                1 => (a, a),                    // start == dest
                2 => (a, Point::new(a.x, b.y)), // one leg, along y
                _ => (a, Point::new(b.x, a.y)), // one leg, along x
            };
            let path = LPath::new(start, dest, axis);
            let s = r.gen::<f64>() * path.len();
            // paused at a way-point, or traveling
            let pause_left = if k.is_multiple_of(3) {
                r.gen_range(1..=4)
            } else {
                0
            };
            let mut st = MrwpState::new(path, s, pause_left);
            if k.is_multiple_of(2) {
                // a warm leg cache as well as a cold one
                model.refresh_leg_cache(&mut st);
            }
            states.push(st);
        }
        // and states the model itself produced, mid-trip and paused
        for _ in 0..200 {
            let mut st = model.init_stationary(&mut r);
            let p = model.position(&st);
            model.step_from(&mut st, p, &mut r);
            states.push(st);
        }
        let mut batch = model.batch_from_states(states.iter().cloned());
        for (i, st) in states.iter().enumerate() {
            assert_eq!(
                state_bits(&model.batch_state(&batch, i)),
                state_bits(st),
                "agent {i}"
            );
            model.batch_set_state(&mut batch, 0, st.clone());
            assert_eq!(
                state_bits(&model.batch_state(&batch, 0)),
                state_bits(st),
                "agent {i}"
            );
        }
    }

    #[test]
    fn large_speed_carries_over_many_trips() {
        // speed larger than the region: several trips complete per step
        let model = Mrwp::new(10.0, 100.0).unwrap();
        let mut r = rng(11);
        let mut st = model.init_stationary(&mut r);
        let ev = model.step(&mut st, &mut r);
        assert!(ev.arrivals >= 2, "expected multiple arrivals, got {:?}", ev);
        assert!(model.region().contains(model.position(&st)));
    }
}
