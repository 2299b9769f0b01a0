//! The mobility-model abstraction the flooding engine is generic over.

use fastflood_geom::{Point, Rect};
use fastflood_parallel::{run_chunks2, WorkerPool};
use rand::{Rng, RngCore};

/// What happened to one agent during one time step.
///
/// The Lemma 13 experiment needs the number of direction changes per step;
/// models report them here so the engine can forward them to a
/// [`TurnRecorder`](crate::TurnRecorder) without re-deriving geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepEvents {
    /// Direction changes at L-path corners crossed during the step.
    pub turns: u32,
    /// Way-point arrivals (trip completions) during the step.
    pub arrivals: u32,
}

impl StepEvents {
    /// Total direction changes: corners plus arrivals.
    ///
    /// Lemma 13 counts every point where the agent changes direction along
    /// its journey; both corner turns and way-point arrivals qualify.
    pub fn direction_changes(&self) -> u32 {
        self.turns + self.arrivals
    }
}

/// Agents per chunk of the deterministic parallel move pass.
///
/// The chunk layout is a **pure function of the population size** —
/// agent `i` belongs to chunk `i / MOVE_CHUNK`, never re-balanced by
/// thread count — because each chunk owns a private RNG stream: the
/// layout is part of the parallel trajectory definition, so it must be
/// identical whatever the pool size or scheduling. 4096 agents keep
/// per-chunk overhead (one atomic claim, a cold read of the chunk's
/// stream + context, the event-scratch drain) below ~1% of the chunk's
/// memory traffic — measured: 1024-agent chunks cost the 1-thread
/// parallel path ~8% at n = 100k, 4096 cuts that to ~2% — while still
/// giving a wide pool tens of chunks to balance at the benchmark
/// sizes. Changing this constant changes chunked-class trajectories
/// (never their statistics); the sequential class moves as one chunk
/// of all `n` agents and does not read it.
pub const MOVE_CHUNK: usize = 4096;

/// Number of move-pass chunks for a population of `n` agents (at least
/// one, so an empty population still has a well-formed layout).
pub fn move_chunk_count(n: usize) -> usize {
    n.div_ceil(MOVE_CHUNK).max(1)
}

/// 64-bit words fetched per refill of a [`BlockRng`] buffer.
pub const RNG_BLOCK: usize = 8;

/// A word-buffering adapter over an inner generator: pulls
/// [`RNG_BLOCK`] 64-bit words from the inner stream at a time and
/// serves them **in draw order**, so the sequence of words a consumer
/// sees is bitwise-identical to calling the inner generator directly —
/// only the *timing* of the underlying state advances changes (eight
/// back-to-back xoshiro steps amortize better than interleaving one
/// step into every boundary-pass agent).
///
/// Every distribution the move pass draws (`gen::<f64>`, `gen_bool`,
/// integer `gen_range`) bottoms out in `next_u64`, and `next_u32` here
/// takes the high half of a buffered word exactly like
/// [`SmallRng`](rand::rngs::SmallRng) does over its own state, so
/// wrapping a stream in `BlockRng` never changes any sampled value.
/// The buffer is a fixed inline array: no heap allocation, ever.
///
/// The chunked engine wraps every salted per-chunk stream in one of
/// these, which is how block-batched RNG reaches both the native MRWP
/// move and the AoS one without either knowing about it. Unconsumed
/// words simply carry over to the next step of the same chunk; chunk
/// streams feed nothing but the move pass, so carryover is
/// unobservable. The sequential engine's main stream is never wrapped:
/// it feeds later draws outside the move pass, whose values a prefetch
/// would shift.
#[derive(Debug, Clone)]
pub struct BlockRng<R> {
    inner: R,
    buf: [u64; RNG_BLOCK],
    /// Next unserved slot; `RNG_BLOCK` means the buffer is exhausted.
    pos: usize,
}

impl<R> BlockRng<R> {
    /// Wraps `inner`, starting with an empty buffer (the first draw
    /// triggers a refill, so a fresh wrapper replays the inner stream
    /// from its current position).
    pub fn new(inner: R) -> BlockRng<R> {
        BlockRng {
            inner,
            buf: [0; RNG_BLOCK],
            pos: RNG_BLOCK,
        }
    }

    /// Decomposes the wrapper into `(inner, buffer, position)` for
    /// checkpointing. Unconsumed buffered words are part of the stream
    /// state: a snapshot taken mid-block must resume serving the same
    /// words, so the buffer and cursor travel with the inner generator.
    pub fn snapshot_parts(&self) -> (&R, &[u64; RNG_BLOCK], usize) {
        (&self.inner, &self.buf, self.pos)
    }

    /// Rebuilds a wrapper from [`BlockRng::snapshot_parts`] output,
    /// continuing the word stream bitwise-identically. Returns `None`
    /// when `pos` is out of range (`> RNG_BLOCK`).
    pub fn from_snapshot_parts(inner: R, buf: [u64; RNG_BLOCK], pos: usize) -> Option<BlockRng<R>> {
        if pos > RNG_BLOCK {
            return None;
        }
        Some(BlockRng { inner, buf, pos })
    }
}

impl<R: RngCore> RngCore for BlockRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == RNG_BLOCK {
            for w in &mut self.buf {
                *w = self.inner.next_u64();
            }
            self.pos = 0;
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Per-chunk context of the move pass: the chunk's random stream plus
/// the scratch its task writes (measured drift and deferred step
/// events), merged by [`drain_chunks`] in canonical chunk order after
/// the pass.
///
/// The stream is held exactly as the caller passes it: the sequential
/// engine's one chunk holds the sim's main stream, which later draws
/// (protocol coins, gossip sampling, placement) continue, so it must
/// not prefetch; the chunked engine wraps each salted chunk stream in a
/// [`BlockRng`] itself.
///
/// The driver retains one `ChunkCtx` per chunk across steps (streams
/// must continue where they left off; the scratch keeps its capacity so
/// steady-state steps stay allocation-free).
#[derive(Debug, Clone)]
pub struct ChunkCtx<R> {
    /// The chunk's random stream, advanced only by this chunk's agents
    /// during a move pass.
    pub(crate) rng: R,
    /// Measured maximum displacement of this chunk's agents this step.
    pub(crate) drift: f64,
    /// Events recorded this step, in agent order within the chunk.
    pub(crate) events: Vec<(u32, StepEvents)>,
    /// Nanoseconds this chunk spent in the advance kernel this step
    /// (written only by models with a split move pass, under timing).
    pub(crate) kernel_ns: u64,
    /// Nanoseconds this chunk spent in the boundary pass this step.
    pub(crate) boundary_ns: u64,
}

impl<R> ChunkCtx<R> {
    /// Creates the context for one chunk of up to `chunk_len` agents
    /// drawing from `rng`; the event scratch is fully reserved so steps
    /// never grow it.
    pub fn new(rng: R, chunk_len: usize) -> ChunkCtx<R> {
        ChunkCtx {
            rng,
            drift: 0.0,
            events: Vec::with_capacity(chunk_len),
            kernel_ns: 0,
            boundary_ns: 0,
        }
    }

    /// Resets the per-step scratch (drift, events, phase timings); the
    /// stream keeps its position.
    pub fn begin(&mut self) {
        self.drift = 0.0;
        self.events.clear();
        self.kernel_ns = 0;
        self.boundary_ns = 0;
    }

    /// Records an event for `agent` (a global index).
    pub fn record(&mut self, agent: usize, ev: StepEvents) {
        self.events.push((agent as u32, ev));
    }

    /// Sets the chunk's measured drift for this step.
    pub fn set_drift(&mut self, drift: f64) {
        self.drift = drift;
    }

    /// The chunk's measured drift for this step.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// The chunk's stream, for checkpointing.
    pub fn stream(&self) -> &R {
        &self.rng
    }

    /// The chunk's stream, for draws outside the move pass and for
    /// restore.
    pub fn stream_mut(&mut self) -> &mut R {
        &mut self.rng
    }
}

/// Merges per-chunk results after a parallel move pass: forwards every
/// recorded event in canonical (chunk, then agent) order — which is
/// global agent order, since chunks partition the index space
/// contiguously — and returns the maximum drift over all chunks.
pub fn drain_chunks<R, F: FnMut(usize, StepEvents)>(
    chunks: &mut [ChunkCtx<R>],
    mut on_events: F,
) -> f64 {
    let mut max_drift = 0.0f64;
    for c in chunks.iter_mut() {
        if c.drift > max_drift {
            max_drift = c.drift;
        }
        for &(i, ev) in &c.events {
            on_events(i as usize, ev);
        }
    }
    max_drift
}

/// A mobility model over a square region with synchronous unit time steps.
///
/// One [`Mobility::step`] advances an agent by exactly one time unit:
/// the agent travels distance `speed` along its (model-specific) route,
/// carrying leftover travel budget across corners and way-point arrivals,
/// so the discrete simulation samples the continuous-time trajectory at
/// integer times.
///
/// Implementations must keep agents inside [`Mobility::region`] forever.
///
/// # Batched stepping
///
/// A driver that advances *every* agent each step (the flooding engine's
/// move pass) holds the population as one [`Mobility::Batch`] and calls
/// [`Mobility::step_batch`], which advances all agents in one pass and
/// returns the **measured** maximum displacement of the step — a
/// per-step drift bound that is never looser than [`Mobility::speed`]
/// and often much tighter (paused or slow agents). The pass is split
/// into fixed chunks of `chunk_len` agents, each drawing from its own
/// stream and run as one pool task. The engine's two determinism
/// classes are the two ways to call it: Sequential is one chunk of `n`
/// agents on the main stream (a one-task dispatch runs inline), Chunked
/// is [`MOVE_CHUNK`] chunks on salted per-chunk streams.
///
/// Models with a natural AoS state set `type Batch = Vec<Self::State>`
/// and delegate to [`step_batch_aos`]; models with a hot/cold state
/// split (e.g. [`Mrwp`](crate::Mrwp)) pack the per-step-touched fields
/// into cache-dense parallel arrays instead. Whatever the layout, each
/// chunk must advance its agents in index order and draw exactly the
/// random numbers the equivalent [`Mobility::step_from`] loop would on
/// its stream, so batched and scalar drivers stay in RNG lockstep.
pub trait Mobility {
    /// Per-agent trajectory state.
    type State: Clone + std::fmt::Debug + Send;

    /// The whole population's trajectory state in the layout the model
    /// steps fastest: `Vec<Self::State>` for AoS models, hot/cold
    /// parallel arrays for models that split per-step-touched fields
    /// from cold trip geometry.
    type Batch: Clone + std::fmt::Debug + Send;

    /// The square region agents live in.
    fn region(&self) -> Rect;

    /// Distance traveled per time step.
    ///
    /// # Displacement contract
    ///
    /// `speed()` bounds every agent's Euclidean displacement over one
    /// step, whatever its route, pauses or class: the measured drift
    /// [`Mobility::step_batch`] returns never exceeds it. The flooding
    /// engine relies on this to put agents far from the other side of a
    /// flood to sleep for a whole epoch, so a model that could outrun
    /// its `speed()` would make the engine miss transmissions. The
    /// batch lockstep properties check it for every in-tree model.
    fn speed(&self) -> f64;

    /// Draws an agent state from the model's stationary distribution
    /// (perfect simulation — no warm-up needed).
    fn init_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::State;

    /// Creates an agent at position `pos` beginning a fresh trip
    /// (a "cold start"; *not* stationary in general).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `pos` lies outside the region.
    fn init_at<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> Self::State;

    /// The agent's current position.
    fn position(&self, state: &Self::State) -> Point;

    /// Advances the agent by one time unit, returning the step's events.
    fn step<R: Rng + ?Sized>(&self, state: &mut Self::State, rng: &mut R) -> StepEvents;

    /// Advances the agent by one time unit given its `current` position,
    /// returning the new position and the step's events.
    ///
    /// Semantically identical to [`Mobility::step`] followed by
    /// [`Mobility::position`] (the default implementation is exactly
    /// that), but models can override it with a fused fast path: for
    /// axis-aligned travel the common no-corner-crossed step is a single
    /// coordinate increment, skipping the full arc-length-to-point
    /// conversion. The flooding engine's move loop calls this.
    #[inline]
    fn step_from<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        current: Point,
        rng: &mut R,
    ) -> (Point, StepEvents) {
        let _ = current;
        let ev = self.step(state, rng);
        (self.position(state), ev)
    }

    /// Builds the model's batch layout from per-agent states (agent `i`
    /// of the batch is the `i`-th state yielded). The inverse views are
    /// [`Mobility::batch_state`] / [`Mobility::batch_set_state`].
    ///
    /// The batch is built from an iterator, not a slice, so a caller
    /// that draws or decodes states one at a time (the engine's
    /// construction and restore) streams each one straight into the
    /// batch and never holds the population in a second, whole-`Vec`
    /// representation. A `Vec<Self::State>` still works as the argument.
    /// AoS models simply `collect()`.
    fn batch_from_states<I: IntoIterator<Item = Self::State>>(&self, states: I) -> Self::Batch;

    /// Reconstructs agent `agent`'s scalar state from the batch.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `agent` is out of range.
    fn batch_state(&self, batch: &Self::Batch, agent: usize) -> Self::State;

    /// Overwrites agent `agent`'s state inside the batch (used by tests
    /// and scenario builders that pin individual agents).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `agent` is out of range.
    fn batch_set_state(&self, batch: &mut Self::Batch, agent: usize, state: Self::State);

    /// Turns per-step move-phase split timing on or off for `batch`.
    ///
    /// Models whose move pass has an internal phase structure (e.g. the
    /// MRWP advance-kernel / boundary-pass split) record per-phase
    /// nanoseconds into the batch while enabled, readable through
    /// [`Mobility::move_split_nanos`]. The default is a no-op: models
    /// with a monolithic move pass have nothing to split.
    fn enable_move_timing(&self, batch: &mut Self::Batch, on: bool) {
        let _ = (batch, on);
    }

    /// The last step's move-phase split as `(kernel_ns, boundary_ns)`,
    /// or `None` when the model has no split or timing is disabled (the
    /// default).
    fn move_split_nanos(&self, batch: &Self::Batch) -> Option<(u64, u64)> {
        let _ = batch;
        None
    }

    /// Advances every agent in the batch by one time unit, updating
    /// `positions` in place (`positions[i]` must hold agent `i`'s
    /// current position on entry, and holds the post-step position on
    /// return).
    ///
    /// The population is split into chunks of `chunk_len` agents
    /// (the last may be short): chunk `c` covers agents
    /// `c·chunk_len ..`, steps them **in index order** using only
    /// `chunks[c]`'s stream, and runs as one task on `pool`. The result
    /// is therefore a pure function of `(batch, positions, chunk_len,
    /// chunk streams)` — bitwise identical whatever the pool's thread
    /// count or scheduling — and each chunk's trajectories, events and
    /// draws are exactly those of a [`Mobility::step_from`] loop over
    /// its agents on its stream.
    ///
    /// Returns the **measured drift** of the step: an upper bound on
    /// every agent's Euclidean displacement between the two step
    /// boundaries, computed from what actually happened rather than the
    /// worst-case [`Mobility::speed`]. The flooding engine accrues its
    /// spatial-index staleness budget from this value, so a step where
    /// all agents pause (or move slowly) widens the deferred re-binning
    /// window. The bound must be sound: no agent's actual displacement
    /// may exceed it.
    ///
    /// `on_events` is invoked after all chunks complete, in global
    /// agent order (see [`drain_chunks`]), for every agent whose step
    /// produced nonzero [`StepEvents`] (turns or arrivals).
    ///
    /// The default implementation is the **reference**: it steps each
    /// chunk in order through the scalar state views
    /// ([`Mobility::batch_state`] / [`Mobility::batch_set_state`]) —
    /// correct, stream-identical to any conforming override, and the
    /// oracle the property tests compare real implementations against,
    /// but state-copying and single-threaded. Models override it:
    /// AoS models via [`step_batch_aos`], [`Mrwp`](crate::Mrwp) with a
    /// chunk-split of its hot/cold arrays.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `positions` and the batch
    /// disagree on the population size, `chunk_len` is zero, or
    /// `chunks` does not hold exactly `n.div_ceil(chunk_len).max(1)`
    /// contexts.
    fn step_batch<R: Rng + Send, F: FnMut(usize, StepEvents)>(
        &self,
        batch: &mut Self::Batch,
        positions: &mut [Point],
        chunk_len: usize,
        chunks: &mut [ChunkCtx<R>],
        pool: &WorkerPool,
        on_events: F,
    ) -> f64 {
        let _ = pool;
        let n = positions.len();
        assert!(chunk_len > 0, "chunk length must be positive");
        assert_eq!(
            chunks.len(),
            n.div_ceil(chunk_len).max(1),
            "one context per move chunk"
        );
        for (ci, ctx) in chunks.iter_mut().enumerate() {
            ctx.begin();
            let lo = ci * chunk_len;
            let hi = ((ci + 1) * chunk_len).min(n);
            let mut max_d2 = 0.0f64;
            for (k, pos) in positions[lo..hi].iter_mut().enumerate() {
                let i = lo + k;
                let mut st = self.batch_state(batch, i);
                let before = *pos;
                let (p, ev) = self.step_from(&mut st, before, &mut ctx.rng);
                self.batch_set_state(batch, i, st);
                *pos = p;
                let dx = p.x - before.x;
                let dy = p.y - before.y;
                let d2 = dx * dx + dy * dy;
                if d2 > max_d2 {
                    max_d2 = d2;
                }
                if ev.turns | ev.arrivals != 0 {
                    ctx.record(i, ev);
                }
            }
            ctx.set_drift(max_d2.sqrt());
        }
        drain_chunks(chunks, on_events)
    }
}

/// The [`Mobility::step_batch`] implementation for models whose batch
/// layout is a plain `Vec<State>`: chunks of the state and position
/// arrays run as disjoint pool tasks, each stepping its agents in index
/// order through [`Mobility::step_from`] on the chunk's stream.
///
/// [`Rwp`](crate::Rwp), [`DiskWalk`](crate::DiskWalk),
/// [`StreetMrwp`](crate::StreetMrwp) and [`Mixture`](crate::Mixture)
/// delegate to this. Results are bitwise identical to the trait's
/// reference default whatever the pool's thread count.
pub fn step_batch_aos<M, R, F>(
    model: &M,
    states: &mut [M::State],
    positions: &mut [Point],
    chunk_len: usize,
    chunks: &mut [ChunkCtx<R>],
    pool: &WorkerPool,
    on_events: F,
) -> f64
where
    M: Mobility + Sync,
    R: Rng + Send,
    F: FnMut(usize, StepEvents),
{
    assert_eq!(
        states.len(),
        positions.len(),
        "batch and position array must agree on the population size"
    );
    run_chunks2(
        pool,
        chunk_len,
        states,
        positions,
        chunks,
        |ci, st_part, pos_part, ctx| {
            ctx.begin();
            let base = ci * chunk_len;
            let ChunkCtx {
                rng, drift, events, ..
            } = ctx;
            let mut max_d2 = 0.0f64;
            for (k, (st, pos)) in st_part.iter_mut().zip(pos_part.iter_mut()).enumerate() {
                let before = *pos;
                let (p, ev) = model.step_from(st, before, rng);
                *pos = p;
                let dx = p.x - before.x;
                let dy = p.y - before.y;
                let d2 = dx * dx + dy * dy;
                if d2 > max_d2 {
                    max_d2 = d2;
                }
                if ev.turns | ev.arrivals != 0 {
                    events.push(((base + k) as u32, ev));
                }
            }
            *drift = max_d2.sqrt();
        },
    );
    drain_chunks(chunks, on_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_events_total() {
        let e = StepEvents {
            turns: 2,
            arrivals: 1,
        };
        assert_eq!(e.direction_changes(), 3);
        assert_eq!(StepEvents::default().direction_changes(), 0);
    }
}
