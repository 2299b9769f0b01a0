//! The flooding protocol engine over a mobile MANET.
//!
//! # The adaptive transmit engine
//!
//! Every experiment in this reproduction runs thousands of flooding
//! trials, so one [`FloodingSim::step`] is the hottest loop in the
//! workspace. The engine keeps it allocation-free and output-sensitive:
//!
//! * **Flags plus a live count.** The flooding state is the per-agent
//!   informed and crashed flags; the simulator keeps only the number of
//!   live (non-crashed) uninformed agents beside them, so completion is
//!   an `O(1)` test against zero and every crash, revival or out-of-band
//!   inform is `O(1)` plus the transmit roster's swap. The join reads
//!   the sleep epoch's awake lists, never a list of all uninformed
//!   agents.
//! * **One transmit path: the bucket join.** Full flooding needs
//!   "which uninformed agents are within `R` of a transmitter?".
//!   Per-agent probing is bound by scattered bucket lookups, so the
//!   engine instead bins *both* sides into two [`GridIndexBuffer`]s
//!   sharing one coarse grid geometry and joins them
//!   bucket-against-bucket ([`GridIndexBuffer::join_covered_by`]): each
//!   occupied uninformed bucket resolves its ≤ 3×3 facing transmitter
//!   CSR slices once (AABB-pruned) and streams dense slice-×-slice
//!   distance loops, so the receivers are consumed in spatially sorted
//!   memory order. The join runs on every flooding and parsimonious
//!   step, from the first transmitter to the last uninformed agent.
//! * **Temporally-coherent incremental re-binning.** In the MRWP speed
//!   regime agents move `v ≪ bucket` per step, so a binning stays
//!   *valid up to a known staleness bound* for many steps. The join's
//!   two grids are therefore *maintained* rather than rebuilt:
//!   slack-capacity layouts ([`GridIndexBuffer::rebuild_incremental`],
//!   with every uninformed agent announced as an expected future
//!   transmitter so roster rows are pre-sized for the whole flood). On
//!   most steps the engine **defers re-binning entirely** — `O(churn)`
//!   membership surgery ([`GridIndexBuffer::update_membership`]: the
//!   newly informed leave the uninformed grid and join the transmitter
//!   grid) and a stale-tolerant join
//!   ([`GridIndexBuffer::join_covered_by_stale`]) that reads exact
//!   coordinates and inflates its prunes by each grid's accumulated
//!   drift bound. When the two bounds together would outgrow the
//!   budget carved from the bucket margin, one `rebuild_incremental` of
//!   one grid re-files it and resets its bound — the grid that frees
//!   the most staleness per entry re-filed, or both grids when neither
//!   alone is enough. Rebuilds of both grids remain as fallbacks:
//!   membership-churn spikes (an informed-set jump above 1/8 of the
//!   live population) and crashes (roster surgery invalidates the diff
//!   bookkeeping).
//! * **Sleep epochs.** After the front passes, the informed interior
//!   can never matter again, and the far suburb cannot be reached for
//!   many steps. Every [`SLEEP_EPOCH`] steps (and after any event that
//!   changes a side) one streaming pass classifies every live agent
//!   from exact positions: an agent that cannot take part in a
//!   transmission before the next classification sleeps — it keeps
//!   moving but is in neither join grid. The bounds follow from
//!   move-then-transmit order and the [`Mobility::speed`] displacement
//!   contract ([`sleep_reach`]), so sleeping never changes a result.
//! * **Batched SoA move pass with measured drift.** The move phase is
//!   one [`Mobility::step_batch`] call over the model's batched state
//!   layout — for MRWP a hot/cold split (`MrwpBatch`) whose 32-byte hot
//!   entries hold exactly what the fused leg step touches, with the
//!   cold trip geometry in a side array read only at leg boundaries.
//!   The pass also returns the step's **measured** maximum
//!   displacement, and the staleness bound above grows by that value
//!   instead of the worst-case [`Mobility::speed`] — so steps where
//!   agents pause or only bend around corners spend less of the
//!   deferral budget. Trajectories, events, and RNG draws are identical
//!   to the scalar [`Mobility::step_from`] loop (property-tested).
//! * **Zero steady-state allocations.** All scratch (the spatial index,
//!   awake lists, candidate buffers, the newly-informed list) is retained
//!   across steps; after warm-up a full-flooding step performs no heap
//!   allocation (asserted by the `alloc_steady_state` test).
//! * **One fast RNG.** Every stream of a `FloodingSim` (the main
//!   stream and the per-chunk move streams) is a [`SimRng`]
//!   (xoshiro256++), so mobility stepping pays no ChaCha prices.
//!   Trials are seeded via [`run_trials`](crate::run_trials)/
//!   `derive_seed`, so reports stay deterministic per
//!   `(master_seed, trials)` whatever the thread count.
//!
//! Parsimonious flooding and push gossip ride the same machinery:
//! gossip's candidate set is the live uninformed agents read from the
//! flags in ascending order, and its per-transmitter neighbor sampling
//! runs on shared scratch with canonically sorted candidate lists so
//! every [`EngineMode`] draws identical random streams.
//!
//! Complexity per step, with `T` awake transmitters and `U` awake
//! uninformed agents: moving is `O(n)` (every agent moves, one fused
//! increment each via [`Mobility::step_batch`]); full-flooding transmit
//! is `O(churn + pairs)` amortized (membership surgery plus the
//! occupied-bucket-pair join, whose scan work is the number of close
//! bucket pairs; about every `⌊0.9·(bucket−R)/2v⌋`-th step pays an
//! `O(U)` or `O(T)` re-filing pass over one grid, or `O(U + T)` over
//! both). Only awake agents enter that cost: the classification is one
//! `O(n + m²)` pass every 16 steps (`m` join buckets per axis), plus
//! rebuilds of the two grids over the awake sets. On
//! `sparse-flood-300k` about 11 % of agent-steps are awake. The seed
//! implementation instead paid a fresh heap index build plus two full
//! `O(n)` agent scans every step.
//! The repository benchmark (`perfbench/`) measures whole floods end to
//! end and, traced, each of these layers per step; see
//! `docs/BENCHMARKING.md`.

use crate::cancel::CancelToken;
use crate::checkpoint::{
    CheckpointError, Snapshot, TAG_AGNT, TAG_CRNG, TAG_FLOD, TAG_META, TAG_MRNG, TAG_POSN, TAG_TURN,
};
use crate::{CoreError, Zone, ZoneMap};
use fastflood_geom::{Point, Rect};
use fastflood_mobility::{
    move_chunk_count, BlockRng, ByteReader, ByteWriter, ChunkCtx, Mobility, SnapshotState,
    TurnRecorder, MOVE_CHUNK, RNG_BLOCK,
};
use fastflood_parallel::{default_threads, shared_pool, WorkerPool};
use fastflood_spatial::GridIndexBuffer;
use fastflood_stats::seeds::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng, SnapshotRng};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The default simulation generator: a small fast PRNG (xoshiro256++).
///
/// The paper's experiments burn billions of draws on mobility stepping;
/// a cryptographic generator (ChaCha12 [`rand::rngs::StdRng`]) is wasted
/// there.
pub type SimRng = SmallRng;

/// Where the initially informed source agent is placed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SourcePlacement {
    /// A uniformly random agent.
    Random,
    /// The agent closest to the region center (deep Central Zone).
    Center,
    /// The agent closest to the SW corner `(0, 0)` (deep Suburb).
    SwCorner,
    /// The agent closest to the given point.
    Nearest(Point),
    /// A specific agent index.
    Agent(usize),
}

/// How agents are initialized at time 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum InitMode {
    /// Perfect simulation: draw each agent from the model's stationary
    /// distribution (the paper analyzes flooding *in the stationary
    /// phase*).
    #[default]
    Stationary,
    /// Cold start: positions uniform, fresh trips (used by the
    /// convergence experiment E12).
    ColdUniform,
}

/// The information-propagation rule applied each step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Protocol {
    /// The paper's flooding: every informed agent transmits every step;
    /// any non-informed agent within distance `R` of an informed agent
    /// becomes informed.
    #[default]
    Flooding,
    /// Parsimonious flooding (cf. Baumann–Crescenzi–Fraigniaud \[3\]):
    /// each informed agent transmits each step independently with
    /// probability `p`.
    Parsimonious {
        /// Per-step transmission probability in `(0, 1]`.
        p: f64,
    },
    /// Push gossip: each informed agent pushes to at most `k` uniformly
    /// chosen neighbors within `R` per step.
    Gossip {
        /// Fan-out per informed agent per step.
        k: usize,
    },
}

/// Which transmit implementation a [`FloodingSim`] runs.
///
/// All modes implement identical protocol semantics; they differ in cost
/// and in what they exist to prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EngineMode {
    /// The production engine: the shared-geometry bucket join of the
    /// transmitter and uninformed sides, whose grids are
    /// **incrementally maintained** across steps (deferred and diff
    /// re-bins exploiting temporal coherence, full slack rebuilds on
    /// churn spikes and crashes). Gossip instead gathers per-transmitter
    /// candidates from a fine grid over the uninformed mass. Zero
    /// steady-state allocations.
    #[default]
    Adaptive,
    /// The adaptive algorithm with every spatial query replaced by a
    /// brute-force scan — the correctness oracle. Draws the exact same
    /// random stream as [`EngineMode::Adaptive`], so runs must match
    /// step for step (property-tested across protocols and crashes).
    Oracle,
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    /// Parses the engine names the CLIs and floodd accept:
    /// `adaptive`, `oracle`.
    ///
    /// ```
    /// use fastflood_core::EngineMode;
    ///
    /// assert_eq!("oracle".parse(), Ok(EngineMode::Oracle));
    /// assert!("rebuild".parse::<EngineMode>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<EngineMode, String> {
        match s {
            "adaptive" => Ok(EngineMode::Adaptive),
            "oracle" => Ok(EngineMode::Oracle),
            other => Err(format!("unknown engine {other:?} (adaptive|oracle)")),
        }
    }
}

/// Intra-step parallelism of a [`FloodingSim`].
///
/// Both classes run the one chunked move kernel,
/// [`Mobility::step_batch`]; they differ in the chunk layout and its
/// streams. The default, [`Parallelism::Sequential`], is the
/// single-stream engine: the move pass is one chunk of all `n` agents
/// on the sim's main stream, run inline, so every random draw comes
/// from one generator and trajectories are **bitwise identical to
/// releases before the worker pool existed**.
///
/// [`Parallelism::Chunked`] runs the step's embarrassingly parallel
/// phases on a retained [`WorkerPool`]: the move pass in the fixed
/// [`MOVE_CHUNK`] chunk geometry with **one counter-derived RNG stream
/// per chunk** (seeded from `(seed, chunk_index)`), and the flooding
/// join partitioned by occupied bucket
/// ([`GridIndexBuffer::join_covered_by_stale_par`]); grid
/// synchronization stays sequential. Chunked trajectories *differ*
/// from Sequential ones (the move draws come from the chunk streams,
/// not the main stream) but are the same stochastic process, and they
/// are **deterministic for a fixed `(seed, n, chunk layout)` whatever
/// the thread count or scheduling** — `threads` affects wall-clock
/// only. See
/// `docs/ARCHITECTURE.md` ("Determinism & parallelism contract").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Parallelism {
    /// Single-stream engine; bitwise-identical to the pre-pool engine.
    #[default]
    Sequential,
    /// Deterministic chunked parallel step on a retained worker pool.
    Chunked {
        /// Worker threads (pool executors). `0` resolves to
        /// [`default_threads`] (the `FASTFLOOD_THREADS` environment
        /// variable, else available parallelism). The resolved count
        /// never changes results, only speed.
        threads: usize,
    },
}

impl std::str::FromStr for Parallelism {
    type Err = String;

    /// Parses the parallelism names the CLIs and floodd accept: `seq`
    /// (or `sequential`) and `chunked`, the latter with
    /// `threads: 0` (resolved by [`default_threads`]).
    ///
    /// ```
    /// use fastflood_core::Parallelism;
    ///
    /// assert_eq!("seq".parse(), Ok(Parallelism::Sequential));
    /// assert_eq!("chunked".parse(), Ok(Parallelism::Chunked { threads: 0 }));
    /// ```
    fn from_str(s: &str) -> Result<Parallelism, String> {
        match s {
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            "chunked" => Ok(Parallelism::Chunked { threads: 0 }),
            other => Err(format!("unknown parallelism {other:?} (seq|chunked)")),
        }
    }
}

/// Configuration of a [`FloodingSim`].
///
/// # Examples
///
/// ```
/// use fastflood_core::{SimConfig, SourcePlacement};
///
/// let cfg = SimConfig::new(1000, 5.0)
///     .seed(42)
///     .source(SourcePlacement::SwCorner)
///     .record_turns(true);
/// assert_eq!(cfg.n, 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of agents.
    pub n: usize,
    /// Transmission radius `R`.
    pub radius: f64,
    /// Source placement (default: [`SourcePlacement::Random`]).
    pub source: SourcePlacement,
    /// Initialization mode (default: stationary).
    pub init: InitMode,
    /// Propagation protocol (default: full flooding).
    pub protocol: Protocol,
    /// RNG seed for everything in the simulation.
    pub seed: u64,
    /// Track direction changes in a [`TurnRecorder`] (Lemma 13).
    pub turns: bool,
    /// Transmit engine implementation (default: [`EngineMode::Adaptive`]).
    pub engine: EngineMode,
    /// Intra-step parallelism (default: [`Parallelism::Sequential`]).
    pub parallelism: Parallelism,
}

impl SimConfig {
    /// Creates a config with `n` agents and radius `radius`; everything
    /// else defaulted.
    pub fn new(n: usize, radius: f64) -> SimConfig {
        SimConfig {
            n,
            radius,
            source: SourcePlacement::Random,
            init: InitMode::Stationary,
            protocol: Protocol::Flooding,
            seed: 0,
            turns: false,
            engine: EngineMode::Adaptive,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the source placement.
    pub fn source(mut self, source: SourcePlacement) -> SimConfig {
        self.source = source;
        self
    }

    /// Sets the initialization mode.
    pub fn init(mut self, init: InitMode) -> SimConfig {
        self.init = init;
        self
    }

    /// Sets the propagation protocol.
    pub fn protocol(mut self, protocol: Protocol) -> SimConfig {
        self.protocol = protocol;
        self
    }

    /// Enables or disables turn recording.
    pub fn record_turns(mut self, on: bool) -> SimConfig {
        self.turns = on;
        self
    }

    /// Selects the transmit engine implementation.
    pub fn engine(mut self, engine: EngineMode) -> SimConfig {
        self.engine = engine;
        self
    }

    /// Selects the intra-step parallelism (see [`Parallelism`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> SimConfig {
        self.parallelism = parallelism;
        self
    }

    /// Checks every field for validity without building a simulator:
    /// `n ≥ 1`, radius positive and finite (NaN and infinities are
    /// rejected here instead of propagating into the grid geometry),
    /// protocol parameters in range, and a fixed source index in bounds.
    /// [`FloodingSim::new`] calls this first, so an invalid config
    /// never half-constructs a simulator.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n == 0 {
            return Err(CoreError::BadParameter("n must be at least 1"));
        }
        if self.radius <= 0.0 || !self.radius.is_finite() {
            return Err(CoreError::BadParameter(
                "radius must be positive and finite",
            ));
        }
        match self.protocol {
            Protocol::Parsimonious { p } if !(p > 0.0 && p <= 1.0) => {
                return Err(CoreError::BadParameter("parsimonious p must be in (0, 1]"));
            }
            Protocol::Gossip { k: 0 } => {
                return Err(CoreError::BadParameter("gossip k must be at least 1"));
            }
            _ => {}
        }
        if let SourcePlacement::Agent(i) = self.source {
            if i >= self.n {
                return Err(CoreError::BadParameter("source agent index out of range"));
            }
        }
        if let SourcePlacement::Nearest(p) = self.source {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(CoreError::BadParameter(
                    "source anchor point must be finite",
                ));
            }
        }
        Ok(())
    }
}

/// Outcome of a flooding run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FloodingReport {
    /// Total number of agents in the simulation.
    pub n: u32,
    /// Live (non-crashed) agents at report time. When this is 0 the
    /// population is extinct and `completed` is `false` even though no
    /// live agent is uninformed — an all-crashed run is a well-defined
    /// non-termination outcome, not a vacuous success.
    pub live: u32,
    /// Whether every live agent was informed within the step budget
    /// **and** at least one agent is still live.
    pub completed: bool,
    /// Steps at which the last agent was informed (when completed).
    pub flooding_time: Option<u32>,
    /// Total steps executed.
    pub steps_run: u32,
    /// Informed count after each step; `spread[0]` is the count at t=0
    /// (always 1: the source).
    pub spread: Vec<u32>,
    /// First step at which every agent located in the Central Zone was
    /// informed (when zone tracking was enabled and it happened).
    pub central_zone_time: Option<u32>,
    /// First step at which every agent located in the Suburb was informed.
    pub suburb_time: Option<u32>,
}

impl FloodingReport {
    /// Steps needed to inform a fraction `q` of **all** `n` agents, or
    /// `None` when the run never reached that fraction.
    ///
    /// The fraction is taken against the total population, so on an
    /// incomplete run `time_to_fraction(1.0)` is `None` rather than the
    /// time the spread curve happened to peak.
    pub fn time_to_fraction(&self, q: f64) -> Option<u32> {
        let target = (q.clamp(0.0, 1.0) * self.n as f64).ceil().max(1.0) as u32;
        self.spread
            .iter()
            .position(|&c| c >= target)
            .map(|t| t as u32)
    }
}

impl fmt::Display for FloodingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.flooding_time {
            Some(t) => write!(f, "flooded in {t} steps"),
            None => write!(f, "incomplete after {} steps", self.steps_run),
        }
    }
}

/// The synchronous move-then-transmit flooding simulator.
///
/// Each [`FloodingSim::step`]:
///
/// 1. advances every agent by one time unit under the mobility model;
/// 2. applies the protocol on the post-move snapshot: with full flooding,
///    a non-informed agent becomes informed iff some informed agent lies
///    within Euclidean distance `R` — exactly the paper's rule;
/// 3. updates the spread curve, per-agent inform times, and (if a
///    [`ZoneMap`] is attached) the zone completion times.
///
/// Newly informed agents transmit from the *next* step (information
/// travels one hop per time step, the paper's synchronous model).
///
/// # Examples
///
/// ```
/// use fastflood_core::{FloodingSim, SimConfig};
/// use fastflood_mobility::Mrwp;
///
/// let model = Mrwp::new(20.0, 0.5)?;
/// let mut sim = FloodingSim::new(model, SimConfig::new(200, 3.0).seed(1))?;
/// let report = sim.run(5_000);
/// assert!(report.completed);
/// assert_eq!(*report.spread.last().unwrap() as usize, 200);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FloodingSim<M: Mobility> {
    model: M,
    radius: f64,
    protocol: Protocol,
    engine: EngineMode,
    /// The config seed everything was derived from; snapshots record it
    /// so a restore into a differently-seeded run is rejected rather
    /// than silently mixing two random universes.
    seed: u64,
    /// The main stream (placement, coins, gossip sampling, source
    /// moves) in a move-chunk context: the sequential class moves all
    /// `n` agents as this one chunk, so its move draws interleave with
    /// the others on one stream. Its event scratch is reserved only in
    /// that class.
    main: ChunkCtx<SimRng>,
    /// The population's trajectory state in the model's batched layout
    /// (hot/cold SoA for MRWP): the move pass is one
    /// [`Mobility::step_batch`] call over it.
    batch: M::Batch,
    positions: Vec<Point>,
    informed: Vec<bool>,
    /// Fail-stop agents: radios dead both ways, but still moving bodies.
    crashed: Vec<bool>,
    inform_time: Vec<u32>,
    informed_count: usize,
    time: u32,
    spread: Vec<u32>,
    zones: Option<ZoneMap>,
    central_zone_time: Option<u32>,
    suburb_time: Option<u32>,
    turns: Option<TurnRecorder>,
    source: usize,
    // ---- adaptive engine state (all retained across steps) ----
    /// Number of live (non-crashed) uninformed agents: the flags'
    /// count, kept by every call that flips a flag.
    uninformed_live: usize,
    /// Live informed agents in inform order (the transmit roster).
    transmitters: Vec<u32>,
    /// `rank[a]` = position of agent `a` in `transmitters`, `u32::MAX`
    /// otherwise.
    rank: Vec<u32>,
    /// The uninformed side of the bucket join; gossip re-bins it with
    /// fine buckets every step instead.
    grid: GridIndexBuffer,
    /// Second retained index: the transmitter side of the bucket join,
    /// rebuilt with the same grid geometry as `grid`.
    tx_grid: GridIndexBuffer,
    /// Diagnostic: steps whose transmit ran the bucket join.
    join_steps: u32,
    /// Cross-step synchronization state of the incremental re-bin path.
    inc: IncrementalSync,
    /// The sleep epoch: which live agents the join grids index, and the
    /// scratch of the classification that decides it.
    sleep: SleepEpoch,
    /// Agents informed during the current step (sorted before applying).
    newly: Vec<u32>,
    /// Gossip: `stamp[a] == time` marks agent `a` as chosen this step
    /// (O(1) clear: the step counter only moves forward). Empty for
    /// every other protocol.
    stamp: Vec<u32>,
    /// Parsimonious: transmitters whose coin came up heads this step.
    /// Adaptive gossip: the live uninformed agents its grid indexes.
    /// Unallocated for flooding.
    tx_scratch: Vec<u32>,
    /// Gossip: one transmitter's candidate neighbors (bounded by the
    /// population, so gossip keeps the zero-allocation budget).
    /// Unallocated for every other protocol.
    cand: Vec<u32>,
    /// Whether [`FloodingSim::step`] accumulates per-phase wall-clock
    /// times into `phases` (off by default: two `Instant` reads per step
    /// are noise at benchmark sizes but not free).
    phase_timing: bool,
    /// Cumulative per-phase times (see [`StepPhases`]).
    phases: StepPhases,
    /// The pool the move pass and the parallel stale join run on:
    /// `shared_pool(threads)` in the chunked class, a workerless
    /// one-thread pool in the sequential one. Shared so sim clones
    /// reuse the threads (dispatches serialize; concurrent use from
    /// clones degrades to inline execution, never to different
    /// results).
    pool: Arc<WorkerPool>,
    /// The chunked class's move contexts, one per [`MOVE_CHUNK`] chunk
    /// of the population, each on its counter-derived stream (`None`
    /// in the sequential default). Streams continue across steps;
    /// scratch keeps its capacity.
    chunks: Option<Vec<ChunkCtx<BlockRng<SimRng>>>>,
    /// Cooperative cancellation checked by [`FloodingSim::run`] between
    /// steps (`None` = never cancelled). Not part of simulation state:
    /// snapshots ignore it and clones share the same token.
    cancel: Option<CancelToken>,
}

/// Domain-separation salt of the per-chunk move streams: chunk `c` of a
/// sim seeded `s` draws from `seed_from_u64(derive_seed(s ^ SALT, c))`,
/// decorrelated from the main stream (`seed_from_u64(s)`) and from
/// `run_trials`'s per-trial derivation (`derive_seed(s, trial)`).
const CHUNK_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cumulative wall-clock time of [`FloodingSim::step`]'s phases, in
/// nanoseconds, collected when
/// [`FloodingSim::enable_phase_timing`] is on — the measurement behind
/// the repository benchmark's traced `mobility.move_ms_per_step`,
/// `mobility.boundary_ms_per_step`, `spatial.refresh_ms_per_step` and
/// `spatial.join_apply_ms_per_step` (`transmit_ns − refresh_ns`).
///
/// `transmit_ns` covers the whole post-move half of the step (protocol
/// transmit plus applying the newly-informed set); `refresh_ns` is the
/// subset of it spent synchronizing the incremental join grids (the
/// sleep-epoch classification, full rebuilds, membership surgery,
/// single-grid refresh rebuilds), so
/// `refresh_ns ≤ transmit_ns` and pure join/scan cost is their
/// difference. Analogously, `boundary_ns` is the time spent in the
/// scalar leg-boundary pass of a split move kernel (models without a
/// split report 0), so kernel streaming cost is `move_ns − boundary_ns`
/// up to dispatch overhead. Caveat: in chunked-parallel mode
/// `boundary_ns` is **CPU time summed over chunks**, so on a machine
/// where chunks genuinely overlap it can exceed the wall-clock
/// `move_ns`; compare the two only in sequential mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepPhases {
    /// Move pass: the batched mobility step over all agents.
    pub move_ns: u64,
    /// Scalar leg-boundary sub-pass inside the move pass (RNG draws,
    /// trip resampling); 0 for models without a split move kernel.
    pub boundary_ns: u64,
    /// Transmit pass, inclusive of `refresh_ns`.
    pub transmit_ns: u64,
    /// Incremental-grid synchronization inside the transmit pass,
    /// including the sleep-epoch classification.
    pub refresh_ns: u64,
}

impl<M: Mobility> FloodingSim<M> {
    /// Builds the simulator: initializes agents, places the source, and
    /// marks it informed at `t = 0`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] when `n == 0`, the radius is not
    /// positive/finite, a protocol parameter is out of range, or a fixed
    /// source index is out of bounds.
    pub fn new(model: M, config: SimConfig) -> Result<FloodingSim<M>, CoreError> {
        config.validate()?;
        let mut rng = SimRng::seed_from_u64(config.seed);
        let region = model.region();
        // each state goes straight from the main stream into the batch
        // and its position: the population is never held as a Vec of
        // states (positions are pure, so the draws are those of
        // drawing every state first)
        let mut positions = Vec::with_capacity(config.n);
        let batch = model.batch_from_states((0..config.n).map(|_| {
            let st = match config.init {
                InitMode::Stationary => model.init_stationary(&mut rng),
                InitMode::ColdUniform => {
                    let p = Point::new(
                        region.min().x + region.width() * rng.gen::<f64>(),
                        region.min().y + region.height() * rng.gen::<f64>(),
                    );
                    model.init_at(p, &mut rng)
                }
            };
            positions.push(model.position(&st));
            st
        }));

        let source = match config.source {
            SourcePlacement::Random => rng.gen_range(0..config.n),
            // in bounds: validate() checked it
            SourcePlacement::Agent(i) => i,
            SourcePlacement::Center => nearest_to(&positions, region.center()),
            SourcePlacement::SwCorner => nearest_to(&positions, region.min()),
            SourcePlacement::Nearest(p) => nearest_to(&positions, p),
        };

        let mut informed = vec![false; config.n];
        informed[source] = true;
        let mut inform_time = vec![u32::MAX; config.n];
        inform_time[source] = 0;

        // everyone but the source is live and uninformed; the source is
        // the sole transmitter
        let mut rank = vec![u32::MAX; config.n];
        rank[source] = 0;

        // process-shared per thread count: many concurrent sims (a job
        // runtime, repeated constructions in a server) reuse one set of
        // worker threads; a busy pool runs late dispatches inline, so
        // sharing never changes results
        let (pool, chunks) = match config.parallelism {
            Parallelism::Sequential => (shared_pool(1), None),
            Parallelism::Chunked { threads } => {
                let threads = if threads == 0 {
                    default_threads()
                } else {
                    threads
                };
                let chunks = (0..move_chunk_count(config.n))
                    .map(|c| {
                        let len = MOVE_CHUNK.min(config.n - c * MOVE_CHUNK);
                        let seed = derive_seed(config.seed ^ CHUNK_STREAM_SALT, c as u64);
                        ChunkCtx::new(BlockRng::new(SimRng::seed_from_u64(seed)), len)
                    })
                    .collect();
                (shared_pool(threads), Some(chunks))
            }
        };
        let main_events = if chunks.is_some() { 0 } else { config.n };

        let gossip = matches!(config.protocol, Protocol::Gossip { .. });
        let parsimonious = matches!(config.protocol, Protocol::Parsimonious { .. });
        // only the Adaptive join of flooding and parsimonious sleeps;
        // every other sim keeps empty classification scratch
        let sleeps = config.engine == EngineMode::Adaptive && !gossip;
        let sleep = SleepEpoch::new(
            region,
            config.radius,
            model.speed(),
            if sleeps { config.n } else { 0 },
        );
        Ok(FloodingSim {
            batch,
            model,
            radius: config.radius,
            protocol: config.protocol,
            engine: config.engine,
            seed: config.seed,
            main: ChunkCtx::new(rng, main_events),
            positions,
            informed,
            crashed: vec![false; config.n],
            inform_time,
            informed_count: 1,
            time: 0,
            spread: vec![1],
            zones: None,
            central_zone_time: None,
            suburb_time: None,
            turns: if config.turns {
                Some(TurnRecorder::new(config.n))
            } else {
                None
            },
            source,
            uninformed_live: config.n - 1,
            transmitters: {
                let mut t = Vec::with_capacity(config.n);
                t.push(source as u32);
                t
            },
            rank,
            grid: {
                // worst-case rebuild is all n agents: reserving up front
                // makes every later rebuild allocation-free
                let mut g = GridIndexBuffer::new();
                g.reserve(config.n);
                if chunks.is_some() {
                    g.reserve_parallel(config.n);
                }
                g
            },
            tx_grid: {
                let mut g = GridIndexBuffer::new();
                g.reserve(config.n);
                if chunks.is_some() {
                    g.reserve_parallel(config.n);
                }
                g
            },
            join_steps: 0,
            inc: IncrementalSync::default(),
            sleep,
            newly: Vec::with_capacity(config.n),
            // only gossip's sampling marks agents chosen
            stamp: if gossip {
                vec![u32::MAX; config.n]
            } else {
                Vec::new()
            },
            // only parsimonious coins and gossip's grid fill it
            tx_scratch: Vec::with_capacity(if gossip || parsimonious { config.n } else { 0 }),
            // only gossip gathers candidates
            cand: Vec::with_capacity(if gossip { config.n } else { 0 }),
            phase_timing: false,
            phases: StepPhases::default(),
            pool,
            chunks,
            cancel: None,
        })
    }

    /// Attaches a [`ZoneMap`] so zone completion times are tracked.
    pub fn with_zones(mut self, zones: ZoneMap) -> FloodingSim<M> {
        self.zones = Some(zones);
        self.update_zone_completion();
        self
    }

    /// The mobility model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Current simulation time (steps executed).
    #[inline]
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Number of agents.
    #[inline]
    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// Number of informed agents.
    #[inline]
    pub fn informed_count(&self) -> usize {
        self.informed_count
    }

    /// Whether every *live* (non-crashed) agent is informed.
    ///
    /// Crashed agents (see [`FloodingSim::crash_agent`]) cannot receive,
    /// so completion is defined over the survivors — the standard
    /// fail-stop broadcast criterion. Vacuously `true` when *no* live
    /// agent remains; [`FloodingReport::completed`] additionally
    /// requires a nonempty live population, so extinction is never
    /// reported as success. `O(1)`: the count of live uninformed agents
    /// is kept beside the flags.
    #[inline]
    pub fn all_informed(&self) -> bool {
        self.uninformed_live == 0
    }

    /// Crashes `agent`, fail-stop: its radio goes silent both ways (it
    /// neither transmits nor receives from now on), though it keeps
    /// moving. A crashed source still counts as informed. No-op when
    /// `agent` is already crashed. `O(1)`: an uninformed agent leaves the
    /// live-uninformed count, an informed one is swap-removed from the
    /// transmit roster. A fault event that crashes many agents calls this
    /// once per agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn crash_agent(&mut self, agent: usize) {
        if !self.crashed[agent] {
            self.set_crashed(agent, true);
        }
    }

    /// Revives a crashed agent: its radio comes back up with whatever
    /// knowledge it had when it crashed (an informed agent rejoins the
    /// end of the transmit roster; an uninformed one can be informed
    /// again). The heal half of a scenario partition window, and the
    /// recovery half of churn bursts. No-op when `agent` is not crashed.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_core::{FloodingSim, SimConfig, SourcePlacement};
    /// use fastflood_mobility::Mrwp;
    ///
    /// let model = Mrwp::new(20.0, 0.5)?;
    /// let config = SimConfig::new(50, 3.0).seed(1).source(SourcePlacement::Agent(0));
    /// let mut sim = FloodingSim::new(model, config)?;
    /// sim.crash_agent(7);
    /// sim.revive_agent(7);
    /// assert!(!sim.is_crashed(7));
    /// let report = sim.run(5_000);
    /// assert!(report.completed && report.live == 50);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn revive_agent(&mut self, agent: usize) {
        if self.crashed[agent] {
            self.set_crashed(agent, false);
        }
    }

    /// Flips `agent`'s crash flag and keeps the rest of the state in
    /// step: an uninformed agent leaves (or rejoins) the live-uninformed
    /// count, an informed one is swap-removed from the transmit roster
    /// (or pushed onto its end).
    fn set_crashed(&mut self, agent: usize, crashed: bool) {
        debug_assert_ne!(self.crashed[agent], crashed);
        self.crashed[agent] = crashed;
        // the live population (grid geometry) and the roster both change,
        // outside the join's membership diff: resync the incremental
        // grids with full rebuilds on the next join step
        self.inc.ready = false;
        if !self.informed[agent] {
            if crashed {
                self.uninformed_live -= 1;
            } else {
                self.uninformed_live += 1;
            }
            return;
        }
        if crashed {
            let rk = self.rank[agent] as usize;
            self.transmitters.swap_remove(rk);
            if rk < self.transmitters.len() {
                self.rank[self.transmitters[rk] as usize] = rk as u32;
            }
            self.rank[agent] = u32::MAX;
        } else {
            self.rank[agent] = self.transmitters.len() as u32;
            self.transmitters.push(agent as u32);
        }
    }

    /// Marks a live uninformed agent informed at the **current** time,
    /// as an extra broadcast source: it transmits from the next step.
    /// Scenario exit nodes (evacuation workloads seed the order at every
    /// exit) are built from this. No-op when `agent` is already
    /// informed.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range or crashed.
    pub fn inform_agent(&mut self, agent: usize) {
        if self.informed[agent] {
            return;
        }
        assert!(
            !self.crashed[agent],
            "crashed agents cannot be informed (agent {agent})"
        );
        self.uninformed_live -= 1;
        self.informed[agent] = true;
        self.inform_time[agent] = self.time;
        self.rank[agent] = self.transmitters.len() as u32;
        self.transmitters.push(agent as u32);
        self.informed_count += 1;
        // keep the spread curve consistent: the current sample reflects
        // the out-of-band inform
        *self.spread.last_mut().expect("spread is never empty") = self.informed_count as u32;
        // roster surgery outside the join's membership diff: resync
        self.inc.ready = false;
        self.update_zone_completion();
    }

    /// Moves an agent to an explicit position before the run starts
    /// (time 0 only) — the primitive behind zoned/clustered scenario
    /// placement. The agent's trajectory state is re-initialized at
    /// `pos` via [`Mobility::init_at`], drawing its fresh trip from the
    /// simulation stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] when called after the first step,
    /// when `agent` is out of range, or when `pos` lies outside the
    /// model's region.
    pub fn place_agent_at(&mut self, agent: usize, pos: Point) -> Result<(), CoreError> {
        if self.time != 0 {
            return Err(CoreError::BadParameter(
                "agents can only be re-placed at time 0",
            ));
        }
        if agent >= self.n() {
            return Err(CoreError::BadParameter("agent index out of range"));
        }
        if !self.model.region().contains(pos) {
            return Err(CoreError::BadParameter(
                "position lies outside the model's region",
            ));
        }
        let st = self.model.init_at(pos, self.main.stream_mut());
        self.positions[agent] = self.model.position(&st);
        self.model.batch_set_state(&mut self.batch, agent, st);
        self.inc.ready = false;
        self.update_zone_completion();
        Ok(())
    }

    /// Re-selects the source on a pristine simulation (time 0, nothing
    /// crashed, nobody informed but the current source) — so scenario
    /// builders can apply [`FloodingSim::place_agent_at`] layouts first
    /// and then resolve a position-dependent placement such as
    /// [`SourcePlacement::Center`] against the *final* positions.
    /// [`SourcePlacement::Random`] draws from the simulation stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadParameter`] when called after the first step,
    /// after a crash, after extra agents were informed, or with an
    /// out-of-range [`SourcePlacement::Agent`].
    pub fn reset_source(&mut self, placement: SourcePlacement) -> Result<(), CoreError> {
        if self.time != 0 {
            return Err(CoreError::BadParameter(
                "the source can only be reset at time 0",
            ));
        }
        if self.informed_count != 1 || self.crashed_count() != 0 {
            return Err(CoreError::BadParameter(
                "the source can only be reset on a pristine simulation",
            ));
        }
        let region = self.model.region();
        let new = match placement {
            SourcePlacement::Random => {
                let n = self.n();
                self.main.stream_mut().gen_range(0..n)
            }
            SourcePlacement::Agent(i) => {
                if i >= self.n() {
                    return Err(CoreError::BadParameter("source agent index out of range"));
                }
                i
            }
            SourcePlacement::Center => nearest_to(&self.positions, region.center()),
            SourcePlacement::SwCorner => nearest_to(&self.positions, region.min()),
            SourcePlacement::Nearest(p) => nearest_to(&self.positions, p),
        };
        if new != self.source {
            let old = self.source;
            // demote the old source and promote the new one: the live
            // uninformed count is unchanged
            self.informed[old] = false;
            self.inform_time[old] = u32::MAX;
            self.rank[old] = u32::MAX;
            self.transmitters.clear();
            self.informed[new] = true;
            self.inform_time[new] = 0;
            self.rank[new] = 0;
            self.transmitters.push(new as u32);
            self.source = new;
            self.inc.ready = false;
            self.update_zone_completion();
        }
        Ok(())
    }

    /// Whether `agent` has crashed.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn is_crashed(&self, agent: usize) -> bool {
        self.crashed[agent]
    }

    /// Number of crashed agents.
    pub fn crashed_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// The source agent index.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// Current agent positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Per-agent informed flags.
    pub fn informed(&self) -> &[bool] {
        &self.informed
    }

    /// Per-agent inform times (`None` when not yet informed).
    pub fn inform_time(&self, agent: usize) -> Option<u32> {
        let t = self.inform_time[agent];
        (t != u32::MAX).then_some(t)
    }

    /// The turn recorder (when enabled).
    pub fn turn_recorder(&self) -> Option<&TurnRecorder> {
        self.turns.as_ref()
    }

    /// Diagnostic: steps whose transmit ran the bucket join — every
    /// [`EngineMode::Adaptive`] flooding or parsimonious step with at
    /// least one transmitter and one live uninformed agent. Used by
    /// tests and the benchmark's per-layer counters.
    #[inline]
    pub fn bucket_join_steps(&self) -> u32 {
        self.join_steps
    }

    /// Diagnostic: join steps that resynchronized the two grids via the
    /// incremental diff path (membership surgery, plus a refresh
    /// rebuild of one grid once its staleness budget runs out) instead
    /// of rebuilding both.
    /// Tests assert the production policy actually amortizes re-binning;
    /// see also [`FloodingSim::incremental_full_rebuilds`].
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_core::{EngineMode, FloodingSim, SimConfig};
    /// use fastflood_mobility::Mrwp;
    ///
    /// // sparse regime: the flood advances a few agents per step, so
    /// // the membership diff stays far below the churn-spike threshold
    /// let model = Mrwp::new(40.0, 0.4)?;
    /// let config = SimConfig::new(400, 1.8).seed(9).engine(EngineMode::Adaptive);
    /// let mut sim = FloodingSim::new(model, config)?;
    /// sim.run(5_000);
    /// // the incremental join re-bins by diff nearly every step
    /// assert!(sim.incremental_diff_steps() > sim.incremental_full_rebuilds());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[inline]
    pub fn incremental_diff_steps(&self) -> u32 {
        self.inc.diff_steps
    }

    /// Diagnostic: join steps that resynchronized the incremental grids
    /// with **full** slack rebuilds — the cold start plus every
    /// churn-spike/crash fallback since.
    #[inline]
    pub fn incremental_full_rebuilds(&self) -> u32 {
        self.inc.full_rebuilds
    }

    /// Diagnostic: join steps that rebuilt both grids over freshly
    /// classified awake sets because a sleep epoch ended while the
    /// maintenance chain was intact. A classification after an event
    /// rides on the resync [`FloodingSim::incremental_full_rebuilds`]
    /// counts, so every join step is exactly one of a full rebuild, an
    /// epoch rebuild or a diff step.
    #[inline]
    pub fn incremental_epoch_rebuilds(&self) -> u32 {
        self.inc.epoch_rebuilds
    }

    /// Diagnostic: cumulative slack-overflow re-layouts taken by the two
    /// incremental grids (see [`GridIndexBuffer::relayouts`]) — the
    /// amortized-fallback cost knob to watch when tuning slack and
    /// headroom. A full row borrows a slot from a row nearby before it
    /// re-layouts, so a flood in the paper's regime takes few or none.
    #[inline]
    pub fn incremental_relayouts(&self) -> u64 {
        self.grid.relayouts() + self.tx_grid.relayouts()
    }

    /// Diagnostic: the subset of [`FloodingSim::incremental_diff_steps`]
    /// that **deferred re-binning entirely** — `O(churn)` membership
    /// surgery plus the stale-tolerant join, no per-agent pass at all.
    /// In the MRWP speed regime (`v ≪ bucket`) most join steps land
    /// here; the remainder are the periodic refresh steps that re-file
    /// one grid (or both) and reset its staleness bound.
    #[inline]
    pub fn incremental_deferred_steps(&self) -> u32 {
        self.inc.deferred_steps
    }

    /// Diagnostic: the subset of
    /// [`FloodingSim::incremental_full_rebuilds`] forced by a
    /// **membership-churn spike** — one step informing more than
    /// `live/8` agents while the maintenance chain was otherwise intact
    /// (dense-flood ignition, mass-revival bursts). Cold starts and
    /// crash resyncs do not count: this isolates the DEFER → REFRESH →
    /// FULL state machine's spike transition so adversarial scenario
    /// tests can assert the fallback path is actually taken.
    #[inline]
    pub fn incremental_spike_rebuilds(&self) -> u32 {
        self.inc.spike_rebuilds
    }

    /// Diagnostic: the incremental join's current accumulated staleness
    /// bound — an upper bound on how far any indexed agent has drifted
    /// from the coordinates it was last filed under, accrued from the
    /// **measured** per-step drift of the batched move pass. Each join
    /// grid keeps its own bound, reset when that grid is re-filed; this
    /// value resets only when **both** grids are fresh at once (a
    /// rebuild, or a step re-filing both), so it bounds the drift of
    /// every agent in either grid. The soundness invariant the
    /// measured-drift property tests assert: every agent's true
    /// displacement since this value last read zero is at most this
    /// value.
    #[inline]
    pub fn incremental_staleness(&self) -> f64 {
        self.inc.stale_sync
    }

    /// Diagnostic: entries that were already indexed and were filed
    /// again by the incremental join's refresh steps (one
    /// [`GridIndexBuffer::rebuild_incremental`] of one grid), summed
    /// over the run — the linear cost of keeping the grids' binning
    /// fresh. Agents joining the roster on a refresh step are filed,
    /// not re-filed, and do not count. A refresh step rebuilds only the
    /// grid it re-files, so the count shows how much of that cost the
    /// per-grid staleness budget avoids. Deterministic per seed and
    /// thread count.
    #[inline]
    pub fn incremental_refiled_entries(&self) -> u64 {
        self.inc.refiled_entries
    }

    /// Diagnostic: awake agents summed over join steps. At the start of
    /// each sleep epoch (every 16 steps, and after any event that
    /// changes the sides) the engine keeps in its two join grids only
    /// the live agents that can take part in a transmission before the
    /// next epoch; the others sleep. Comparing this count with
    /// `n · steps` shows the share of agent-steps the grids still
    /// maintain. Counted since construction or the last
    /// [`FloodingSim::restore`], like the other incremental diagnostics.
    /// Deterministic per seed and thread count.
    #[inline]
    pub fn awake_agent_steps(&self) -> u64 {
        self.sleep.awake_agent_steps
    }

    /// Worker threads of the chunked-parallel step, or 0 when the sim
    /// runs the sequential engine — the resolved value of
    /// [`SimConfig::parallelism`] (a `Chunked { threads: 0 }` config
    /// reports what [`default_threads`] resolved to at construction).
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_core::{FloodingSim, Parallelism, SimConfig};
    /// use fastflood_mobility::Mrwp;
    ///
    /// let model = Mrwp::new(20.0, 0.5)?;
    /// let seq = FloodingSim::new(model.clone(), SimConfig::new(100, 2.0))?;
    /// assert_eq!(seq.parallel_threads(), 0);
    /// let config = SimConfig::new(100, 2.0)
    ///     .parallelism(Parallelism::Chunked { threads: 2 });
    /// let par = FloodingSim::new(model, config)?;
    /// assert_eq!(par.parallel_threads(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[inline]
    pub fn parallel_threads(&self) -> usize {
        if self.chunks.is_some() {
            self.pool.threads()
        } else {
            0
        }
    }

    /// Turns per-phase wall-clock accounting on or off (see
    /// [`StepPhases`]); off by default. Enabling does not reset
    /// already-accumulated times. Also enables the model's move-phase
    /// split timing, so `boundary_ns` accrues for models with a split
    /// move kernel.
    pub fn enable_phase_timing(&mut self, on: bool) {
        self.phase_timing = on;
        self.model.enable_move_timing(&mut self.batch, on);
    }

    /// Cumulative per-phase times collected while
    /// [`FloodingSim::enable_phase_timing`] was on.
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflood_core::{FloodingSim, SimConfig};
    /// use fastflood_mobility::Mrwp;
    ///
    /// let model = Mrwp::new(20.0, 0.5)?;
    /// let mut sim = FloodingSim::new(model, SimConfig::new(300, 2.0).seed(3))?;
    /// sim.enable_phase_timing(true);
    /// sim.run(50);
    /// let phases = sim.phase_times();
    /// assert!(phases.move_ns > 0 && phases.transmit_ns > 0);
    /// assert!(phases.refresh_ns <= phases.transmit_ns);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn phase_times(&self) -> StepPhases {
        self.phases
    }

    /// Executes one move-then-transmit step; returns the number of newly
    /// informed agents.
    pub fn step(&mut self) -> usize {
        self.time += 1;
        let move_started = self.phase_timing.then(Instant::now);
        // 1. move: one batched pass over the model's hot state layout.
        // The events callback fires only for the (few) agents whose step
        // produced events, so the recorder check costs nothing per quiet
        // agent. The pass returns the step's measured maximum
        // displacement: the staleness increment of the incremental join
        // (never looser than `speed()`, tighter whenever every agent
        // pauses or bends around a corner).
        let drift = {
            let turns = &mut self.turns;
            let time = self.time;
            let on_events = |i: usize, ev: fastflood_mobility::StepEvents| {
                if let Some(rec) = turns.as_mut() {
                    let changes = ev.direction_changes();
                    if changes > 0 {
                        rec.record(i, time, changes);
                    }
                }
            };
            // one move kernel, two chunk layouts (the stream types
            // differ): Chunked runs MOVE_CHUNK chunks on their salted
            // streams, Sequential one chunk of all n agents on the main
            // stream, which a one-task dispatch runs inline. Events are
            // merged in canonical chunk order, so the recorder sees
            // agent order either way.
            let n = self.positions.len();
            let (batch, positions, pool) = (&mut self.batch, &mut self.positions, &self.pool);
            match self.chunks.as_mut() {
                Some(chunks) => self
                    .model
                    .step_batch(batch, positions, MOVE_CHUNK, chunks, pool, on_events),
                None => {
                    let main = std::slice::from_mut(&mut self.main);
                    self.model
                        .step_batch(batch, positions, n, main, pool, on_events)
                }
            }
        };
        // the sleep epoch's reach bounds trust `speed()` to bound every
        // agent's displacement (the `Mobility::speed` contract)
        debug_assert!(
            drift <= self.model.speed() * (1.0 + 1e-9),
            "measured drift {drift} exceeds the model speed {}",
            self.model.speed()
        );
        let transmit_started = if let Some(t0) = move_started {
            self.phases.move_ns += t0.elapsed().as_nanos() as u64;
            if let Some((_, b_ns)) = self.model.move_split_nanos(&self.batch) {
                self.phases.boundary_ns += b_ns;
            }
            Some(Instant::now())
        } else {
            None
        };
        // 2. transmit on the post-move snapshot, into the `newly` scratch
        self.newly.clear();
        match self.protocol {
            Protocol::Flooding => self.transmit_flooding(None, drift),
            Protocol::Parsimonious { p } => self.transmit_flooding(Some(p), drift),
            Protocol::Gossip { k } => self.transmit_gossip(k),
        }
        // canonical order: collection order differs between index sides,
        // so sort before mutating any state the next step depends on
        self.newly.sort_unstable();
        for idx in 0..self.newly.len() {
            let a = self.newly[idx] as usize;
            self.informed[a] = true;
            self.inform_time[a] = self.time;
            self.rank[a] = self.transmitters.len() as u32;
            self.transmitters.push(a as u32);
        }
        if !self.newly.is_empty() && self.inc.ready {
            // the join informed awake receivers only: they stay awake as
            // transmitters, which is the roster suffix the next join's
            // membership diff reads
            self.sleep.tx.extend_from_slice(&self.newly);
            let informed = &self.informed;
            self.sleep.rx.retain(|&u| !informed[u as usize]);
        }
        self.uninformed_live -= self.newly.len();
        self.informed_count += self.newly.len();
        self.spread.push(self.informed_count as u32);
        if let Some(t1) = transmit_started {
            self.phases.transmit_ns += t1.elapsed().as_nanos() as u64;
        }
        // 3. zone completion
        self.update_zone_completion();
        self.newly.len()
    }

    /// Runs until everyone is informed, `max_steps` have been executed
    /// (counting from the current time), or an attached
    /// [`CancelToken`] is cancelled, returning the report.
    ///
    /// Cancellation is cooperative and step-aligned: the flag is
    /// checked between steps, so the sim is always left at a
    /// consistent step boundary (snapshot-safe, resumable). Callers
    /// distinguish "cancelled" from "ran out of steps" by asking the
    /// token, not the report.
    pub fn run(&mut self, max_steps: u32) -> FloodingReport {
        let deadline = self.time.saturating_add(max_steps);
        while !self.all_informed() && self.time < deadline && !self.cancel_requested() {
            self.step();
        }
        self.report()
    }

    /// Attaches a [`CancelToken`] observed by [`FloodingSim::run`]
    /// between steps; replaces any previous token. The token is runtime
    /// plumbing, not simulation state: snapshots do not record it and
    /// restore does not clear it.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether an attached [`CancelToken`] has been cancelled (`false`
    /// when no token is attached).
    pub fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Pre-reserves the spread curve for `steps` further steps, so a
    /// measurement loop (or the zero-allocation test) sees no growth
    /// reallocations.
    pub fn reserve_steps(&mut self, steps: usize) {
        self.spread.reserve(steps);
    }

    /// The report for the steps executed so far.
    pub fn report(&self) -> FloodingReport {
        let live = (self.n() - self.crashed_count()) as u32;
        // no live uninformed agent and zero survivors is extinction, not
        // completion: nobody is left to have been informed
        let completed = self.all_informed() && live > 0;
        FloodingReport {
            n: self.n() as u32,
            live,
            completed,
            // crashed agents never receive (inform_time stays u32::MAX);
            // completion over survivors measures the last *live* receipt
            flooding_time: completed.then(|| {
                self.inform_time
                    .iter()
                    .copied()
                    .filter(|&t| t != u32::MAX)
                    .max()
                    .unwrap_or(0)
            }),
            steps_run: self.time,
            spread: self.spread.clone(),
            central_zone_time: self.central_zone_time,
            suburb_time: self.suburb_time,
        }
    }

    /// Full flooding (or parsimonious when `forward_probability` is set).
    ///
    /// Draws the transmit roster, then runs the incrementally
    /// maintained bucket join (the brute-force scan under
    /// [`EngineMode::Oracle`]). Appends to `self.newly` (unsorted).
    ///
    /// `max_move` is this step's **measured** displacement bound from
    /// the batched move pass, the incremental path's staleness
    /// increment. Agents moved this step whether or not a transmit
    /// runs, so the skip paths below must still accrue drift: a later
    /// deferred join trusting an under-counted bound could prune a
    /// slice hiding an in-range transmitter. Accrual is harmless when
    /// the chain is down (every resync resets it).
    fn transmit_flooding(&mut self, forward_probability: Option<f64>, max_move: f64) {
        if self.uninformed_live == 0 {
            self.inc.accrue(max_move, forward_probability.is_none());
            return;
        }
        // The transmit roster: all live informed agents, or the
        // coin-passing subset for parsimonious. Coins are drawn over the
        // full roster in roster order in every engine mode, so the
        // random stream is mode-independent.
        if let Some(p) = forward_probability {
            self.tx_scratch.clear();
            for &t in &self.transmitters {
                if self.main.stream_mut().gen::<f64>() < p {
                    self.tx_scratch.push(t);
                }
            }
        }
        let roster = forward_probability.is_none();
        if (roster && self.transmitters.is_empty()) || (!roster && self.tx_scratch.is_empty()) {
            // an all-tails parsimonious step: everyone still moved
            self.inc.accrue(max_move, false);
            return;
        }
        let radius = self.radius;
        let r2 = radius * radius;
        let region = self.model.region();
        match self.engine {
            EngineMode::Adaptive => {
                self.join_steps += 1;
                let mut refresh_ns = 0;
                // agents informed since the last sync, read before a
                // classification replaces the awake roster
                let churn = self.sleep.tx.len().saturating_sub(self.inc.synced_tx);
                let epoch_due = self.inc.ready && self.time >= self.sleep.epoch_end;
                if !self.inc.ready || epoch_due {
                    // a new epoch: re-decide who is awake from the
                    // exact post-move positions; the join then rebuilds
                    // both grids over the awake sets
                    let started = self.phase_timing.then(Instant::now);
                    self.sleep
                        .classify(&self.positions, &self.informed, &self.crashed, self.time);
                    refresh_ns += started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                }
                self.sleep.awake_agent_steps += (self.sleep.rx.len() + self.sleep.tx.len()) as u64;
                let sleep = &self.sleep;
                let tx: &[u32] = if roster { &sleep.tx } else { &self.tx_scratch };
                refresh_ns += join_covered_incremental(
                    &mut self.grid,
                    &mut self.tx_grid,
                    &mut self.inc,
                    region,
                    radius,
                    max_move,
                    &self.positions,
                    &sleep.rx,
                    &sleep.tx,
                    self.uninformed_live + self.transmitters.len(),
                    churn,
                    epoch_due,
                    tx,
                    roster,
                    &mut self.newly,
                    self.phase_timing,
                    self.chunks.is_some().then(|| &*self.pool),
                );
                self.phases.refresh_ns += refresh_ns;
            }
            EngineMode::Oracle => {
                // brute force: same visitation semantics, no index
                let tx: &[u32] = if roster {
                    &self.transmitters
                } else {
                    &self.tx_scratch
                };
                for u in live_uninformed(&self.informed, &self.crashed) {
                    let p = self.positions[u as usize];
                    if tx
                        .iter()
                        .any(|&t| self.positions[t as usize].euclid_sq(p) <= r2)
                    {
                        self.newly.push(u);
                    }
                }
            }
        }
    }

    /// Push gossip: each live informed agent pushes to at most `k`
    /// uniformly chosen live uninformed neighbors.
    ///
    /// Candidate lists are sorted ascending before any sampling, and
    /// rosters are visited in inform order, so all engine modes draw
    /// identical random streams and inform identical sets.
    fn transmit_gossip(&mut self, k: usize) {
        if self.uninformed_live == 0 || self.transmitters.is_empty() {
            return;
        }
        let radius = self.radius;
        let r2 = radius * radius;
        let region = self.model.region();
        match self.engine {
            EngineMode::Adaptive => {
                // Index the uninformed mass, gather candidates per
                // transmitter. The bucket join cannot serve gossip:
                // bucketing hits per transmitter needs an
                // O(candidate-pairs) side list, which is unbounded in
                // dense regimes and would break the
                // zero-steady-state-allocation budget.
                self.inc.ready = false;
                self.tx_scratch.clear();
                self.tx_scratch
                    .extend(live_uninformed(&self.informed, &self.crashed));
                self.grid
                    .rebuild_subset(region, radius, &self.positions, &self.tx_scratch)
                    .expect("positions finite, radius validated");
                for i in 0..self.transmitters.len() {
                    let t = self.transmitters[i];
                    self.cand.clear();
                    {
                        let cand = &mut self.cand;
                        self.grid
                            .for_each_within(self.positions[t as usize], radius, |u| {
                                cand.push(u as u32);
                            });
                    }
                    self.cand.sort_unstable();
                    self.sample_and_mark(k);
                }
            }
            EngineMode::Oracle => {
                // brute-force oracle: scan the live uninformed agents per
                // transmitter
                for i in 0..self.transmitters.len() {
                    let t = self.transmitters[i];
                    let p = self.positions[t as usize];
                    self.cand.clear();
                    {
                        let cand = &mut self.cand;
                        for u in live_uninformed(&self.informed, &self.crashed) {
                            if self.positions[u as usize].euclid_sq(p) <= r2 {
                                cand.push(u);
                            }
                        }
                    }
                    self.cand.sort_unstable();
                    self.sample_and_mark(k);
                }
            }
        }
    }

    /// Chooses at most `k` of the candidates in `self.cand` (uniformly,
    /// via partial Fisher–Yates over the sorted list) and appends the
    /// not-yet-chosen ones to `newly`, stamping them chosen.
    ///
    /// The candidate list must be in a canonical (sorted) order whenever
    /// sampling occurs so that every engine mode draws the same stream.
    fn sample_and_mark(&mut self, k: usize) {
        let take = if self.cand.len() > k {
            debug_assert!(self.cand.windows(2).all(|w| w[0] < w[1]));
            for i in 0..k {
                let j = self.main.stream_mut().gen_range(i..self.cand.len());
                self.cand.swap(i, j);
            }
            k
        } else {
            self.cand.len()
        };
        for idx in 0..take {
            let u = self.cand[idx];
            if self.stamp[u as usize] != self.time {
                self.stamp[u as usize] = self.time;
                self.newly.push(u);
            }
        }
    }

    /// Records the first times at which all agents currently located in
    /// the Central Zone (resp. Suburb) are informed.
    ///
    /// Only live uninformed agents are tested, and only while a zone
    /// time is unset: informed or crashed agents satisfy the zone
    /// criterion vacuously.
    fn update_zone_completion(&mut self) {
        let Some(zones) = &self.zones else {
            return;
        };
        let in_zone = |zone| {
            live_uninformed(&self.informed, &self.crashed)
                .any(|u| zones.zone_of(self.positions[u as usize]) == zone)
        };
        if self.central_zone_time.is_none() && !in_zone(Zone::Central) {
            self.central_zone_time = Some(self.time);
        }
        if self.suburb_time.is_none() && !in_zone(Zone::Suburb) {
            self.suburb_time = Some(self.time);
        }
    }
}

/// Bucket side of the join grids, as a multiple of the transmit radius.
///
/// The join only needs `bucket ≥ R` for its 3×3 neighborhood guarantee;
/// larger buckets shrink the bucket tables quadratically (fitting them
/// in close cache) and raise occupancy, so the per-bucket slice
/// resolution amortizes over more agents and the inner loops stream
/// longer dense runs. Measured at n = 100k the mid-flood transmit
/// bottoms near 4× (1× ≈ 2.9 ms, 2× ≈ 2.0 ms, 4× ≈ 1.8 ms, 6× ≈
/// 1.8 ms) — the AABB/cell-rect prunes keep wide neighborhoods cheap,
/// so the curve is flat past the knee and the exact value is shallow.
const JOIN_BUCKET_FACTOR: f64 = 4.0;

/// Share of the bucket margin `bucket − R` that the two join grids'
/// staleness bounds may spend **together** before a grid is re-filed.
/// The stale join is exact while `R + stale_rx + stale_tx ≤ bucket`;
/// at 0.9 the join reaches 3.7R against the 4R bucket, and the rest is
/// a guard band against rounding. A larger share defers longer (fewer
/// re-filing passes) but widens the join's inflated prunes.
const STALENESS_BUDGET_FACTOR: f64 = 0.9;
const _: () = assert!(STALENESS_BUDGET_FACTOR > 0.0 && STALENESS_BUDGET_FACTOR < 1.0);

// ---- checkpoint / restore ----------------------------------------------

/// [`EngineMode`] encoded for the snapshot META section. Recorded for
/// provenance only; restore does not enforce it — the divergence
/// bisector deliberately restores one engine's checkpoints into runs of
/// another engine, which is sound because every mode draws the same
/// random stream. Codes 1, 3 and 4 belonged to three retired engine
/// modes; only version-1 files, which no longer decode, carry them, so
/// restore rejects them as `Corrupt` like any other unknown code.
fn engine_code(e: EngineMode) -> u8 {
    match e {
        EngineMode::Adaptive => 0,
        EngineMode::Oracle => 2,
    }
}

fn put_opt_u32(w: &mut ByteWriter, v: Option<u32>) {
    w.put_u8(v.is_some() as u8);
    w.put_u32(v.unwrap_or(0));
}

fn get_opt_u32(r: &mut ByteReader<'_>) -> Option<Option<u32>> {
    let flag = r.get_u8()?;
    let v = r.get_u32()?;
    match flag {
        0 => Some(None),
        1 => Some(Some(v)),
        _ => None,
    }
}

/// Shorthand constructor for section-level corruption errors.
fn corrupt(section: [u8; 4], what: &'static str) -> CheckpointError {
    CheckpointError::Corrupt { section, what }
}

impl<M> FloodingSim<M>
where
    M: Mobility,
    M::State: SnapshotState,
{
    /// Freezes the complete resumable state of the simulation into a
    /// [`Snapshot`].
    ///
    /// Everything a **bitwise-identical** continuation needs is
    /// serialized: the main RNG stream (mid-buffer, exact draw cursor),
    /// the per-chunk move streams in the chunked-parallelism class
    /// (inner generator plus block buffer and position), every agent's
    /// trajectory state and position, the informed/crashed/inform-time
    /// lanes, the transmitter roster — verbatim, because crash
    /// compaction (`swap_remove`) makes its order state rather than
    /// something derivable from inform times — the spread curve, zone
    /// completion times, and turn-recorder timestamps.
    ///
    /// Positions accumulate incrementally in the move kernel, so
    /// recomputing them from trip geometry would differ in the last
    /// bits. POSN therefore stores each coordinate as the difference of
    /// its IEEE-754 bits from those of `model.position(state)`, a pure
    /// function of the restored state, as a zigzag varint: a few bytes
    /// an agent instead of sixteen, and exact.
    ///
    /// Derived data is deliberately *not* serialized: the live
    /// uninformed set (the flags give it), the spatial grids, the
    /// incremental-sync ledger, and all per-step scratch are re-derived or invalidated by
    /// [`FloodingSim::restore`], and every transmit path rebuilds them
    /// from a cold cache without consuming random draws. See
    /// `docs/ARCHITECTURE.md` ("Checkpoint & recovery contract") for
    /// the full section table and the serialize-vs-rebuild split.
    pub fn snapshot(&self) -> Snapshot {
        let n = self.n();
        let mut snap = Snapshot::new();

        let mut meta = ByteWriter::with_capacity(128);
        meta.put_u64(n as u64);
        meta.put_u64(self.seed);
        meta.put_f64(self.radius);
        meta.put_u32(self.time);
        meta.put_u64(self.source as u64);
        meta.put_u64(self.informed_count as u64);
        meta.put_u32(self.join_steps);
        match self.protocol {
            Protocol::Flooding => {
                meta.put_u8(0);
                meta.put_f64(0.0);
            }
            Protocol::Parsimonious { p } => {
                meta.put_u8(1);
                meta.put_f64(p);
            }
            Protocol::Gossip { k } => {
                meta.put_u8(2);
                meta.put_f64(k as f64);
            }
        }
        meta.put_u8(engine_code(self.engine));
        // parallelism *class*, not exact mode: the thread count never
        // changes the trace, so a snapshot moves freely between pools
        meta.put_u8(self.chunks.is_some() as u8);
        meta.put_u32(self.chunks.as_ref().map_or(0, Vec::len) as u32);
        // model fingerprint: per-agent layout tag + region + speed
        meta.put_u32(<M::State as SnapshotState>::STATE_TAG);
        let region = self.model.region();
        meta.put_point(region.min());
        meta.put_f64(region.width());
        meta.put_f64(region.height());
        meta.put_f64(self.model.speed());
        put_opt_u32(&mut meta, self.central_zone_time);
        put_opt_u32(&mut meta, self.suburb_time);
        meta.put_u8(self.turns.is_some() as u8);
        snap.push(TAG_META, meta.into_bytes());

        let mut mrng = ByteWriter::new();
        mrng.put_block(&self.main.stream().state_bytes());
        snap.push(TAG_MRNG, mrng.into_bytes());

        if let Some(chunks) = &self.chunks {
            let mut w = ByteWriter::new();
            for ctx in chunks {
                let (inner, buf, pos) = ctx.stream().snapshot_parts();
                w.put_block(&inner.state_bytes());
                for &b in buf {
                    w.put_u64(b);
                }
                w.put_u64(pos as u64);
            }
            snap.push(TAG_CRNG, w.into_bytes());
        }

        let mut ag = ByteWriter::new();
        // a delta is 1–3 bytes a coordinate on real runs
        let mut po = ByteWriter::with_capacity(n * 4);
        for a in 0..n {
            let st = self.model.batch_state(&self.batch, a);
            st.write_state(&mut ag);
            ag.put_u8(self.informed[a] as u8 | (self.crashed[a] as u8) << 1);
            ag.put_u32(self.inform_time[a]);
            if a == 0 {
                // per-agent records are model-sized (50 B for MRWP, 54
                // for the mixture): size the buffer from the first one
                // so it is allocated once rather than regrown
                ag.reserve(ag.len() * (n - 1));
            }
            put_position(&mut po, self.positions[a], self.model.position(&st));
        }
        snap.push(TAG_AGNT, ag.into_bytes());
        snap.push(TAG_POSN, po.into_bytes());

        debug_assert_eq!(
            live_uninformed(&self.informed, &self.crashed).count(),
            self.uninformed_live
        );
        let mut fl = ByteWriter::new();
        fl.put_u32_list(&self.spread);
        fl.put_u32_list(&self.transmitters);
        snap.push(TAG_FLOD, fl.into_bytes());

        if let Some(turns) = &self.turns {
            let mut w = ByteWriter::new();
            for a in 0..n {
                w.put_u32_list(turns.agent_timestamps(a));
            }
            snap.push(TAG_TURN, w.into_bytes());
        }

        snap
    }

    /// Restores the simulation to the exact state a
    /// [`FloodingSim::snapshot`] captured.
    ///
    /// The contract this subsystem is property-tested against: after
    /// `restore(snapshot_at_step_k)`, every subsequent step is
    /// **bitwise-identical** to the uninterrupted run — positions,
    /// rosters, spread curve, reports, random draws — for every engine
    /// mode, parallelism mode within the snapshot's determinism class,
    /// and thread count.
    ///
    /// Validation happens in two stages before any field is mutated:
    /// *compatibility* (same `n`, seed, radius bits, protocol, model
    /// fingerprint, parallelism class, chunk layout, and turn-recording
    /// flag as this simulation — [`CheckpointError::Incompatible`]) and
    /// *internal consistency* (RNG state bytes decode, varints are
    /// canonical, positions are finite and inside the region, the
    /// transmitter roster is exactly the live informed agents, indices
    /// are in range, the spread curve matches the step count, never
    /// falls and ends at the informed count —
    /// [`CheckpointError::Corrupt`]). On any error the simulation is
    /// left untouched.
    ///
    /// Derived state is reconciled rather than read: `rank` is rebuilt
    /// from the transmitter roster, the spatial grids and the
    /// incremental-sync ledger reset to cold (the next transmit
    /// rebuilds them without consuming draws), and scratch buffers
    /// clear.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`], [`CheckpointError::Corrupt`],
    /// or [`CheckpointError::Incompatible`], each naming precisely what
    /// was wrong.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        let n = self.n();
        let incompat = |what: String| CheckpointError::Incompatible { what };

        // ---- META: identity and shape --------------------------------
        let mut r = ByteReader::new(snap.require(TAG_META)?);
        let meta_err = || corrupt(TAG_META, "truncated metadata");
        let snap_n = r.get_u64().ok_or_else(meta_err)?;
        if snap_n != n as u64 {
            return Err(incompat(format!("n: snapshot {snap_n}, sim {n}")));
        }
        let snap_seed = r.get_u64().ok_or_else(meta_err)?;
        if snap_seed != self.seed {
            return Err(incompat(format!(
                "seed: snapshot {snap_seed}, sim {}",
                self.seed
            )));
        }
        let snap_radius = r.get_f64().ok_or_else(meta_err)?;
        if snap_radius.to_bits() != self.radius.to_bits() {
            return Err(incompat(format!(
                "radius: snapshot {snap_radius}, sim {}",
                self.radius
            )));
        }
        let time = r.get_u32().ok_or_else(meta_err)?;
        let source = usize::try_from(r.get_u64().ok_or_else(meta_err)?)
            .map_err(|_| corrupt(TAG_META, "source index overflows"))?;
        if source >= n {
            return Err(corrupt(TAG_META, "source index out of range"));
        }
        let informed_count = usize::try_from(r.get_u64().ok_or_else(meta_err)?)
            .map_err(|_| corrupt(TAG_META, "informed count overflows"))?;
        let join_steps = r.get_u32().ok_or_else(meta_err)?;
        let proto_tag = r.get_u8().ok_or_else(meta_err)?;
        let proto_param = r.get_f64().ok_or_else(meta_err)?;
        let proto_matches = match (proto_tag, self.protocol) {
            (0, Protocol::Flooding) => true,
            (1, Protocol::Parsimonious { p }) => proto_param.to_bits() == p.to_bits(),
            (2, Protocol::Gossip { k }) => proto_param == k as f64,
            _ => false,
        };
        if proto_tag > 2 {
            return Err(corrupt(TAG_META, "unknown protocol tag"));
        }
        if !proto_matches {
            return Err(incompat(format!(
                "protocol: snapshot tag {proto_tag}, sim {:?}",
                self.protocol
            )));
        }
        let snap_engine = r.get_u8().ok_or_else(meta_err)?;
        if ![EngineMode::Adaptive, EngineMode::Oracle]
            .into_iter()
            .any(|e| engine_code(e) == snap_engine)
        {
            return Err(corrupt(TAG_META, "unknown engine code"));
        }
        // engine deliberately not enforced (see `engine_code`)
        let snap_class = r.get_u8().ok_or_else(meta_err)?;
        let sim_class = self.chunks.is_some() as u8;
        if snap_class > 1 {
            return Err(corrupt(TAG_META, "unknown parallelism class"));
        }
        if snap_class != sim_class {
            return Err(incompat(format!(
                "parallelism class: snapshot {}, sim {}",
                class_name(snap_class),
                class_name(sim_class)
            )));
        }
        let snap_chunks = r.get_u32().ok_or_else(meta_err)? as usize;
        let sim_chunks = self.chunks.as_ref().map_or(0, Vec::len);
        if snap_chunks != sim_chunks {
            return Err(incompat(format!(
                "move chunk count: snapshot {snap_chunks}, sim {sim_chunks}"
            )));
        }
        let snap_tag = r.get_u32().ok_or_else(meta_err)?;
        if snap_tag != <M::State as SnapshotState>::STATE_TAG {
            return Err(incompat(format!(
                "mobility model: snapshot state tag {snap_tag:#010x}, sim {:#010x}",
                <M::State as SnapshotState>::STATE_TAG
            )));
        }
        let region = self.model.region();
        let snap_min = r.get_point().ok_or_else(meta_err)?;
        let snap_w = r.get_f64().ok_or_else(meta_err)?;
        let snap_h = r.get_f64().ok_or_else(meta_err)?;
        let snap_speed = r.get_f64().ok_or_else(meta_err)?;
        if snap_min.x.to_bits() != region.min().x.to_bits()
            || snap_min.y.to_bits() != region.min().y.to_bits()
            || snap_w.to_bits() != region.width().to_bits()
            || snap_h.to_bits() != region.height().to_bits()
            || snap_speed.to_bits() != self.model.speed().to_bits()
        {
            return Err(incompat(
                "mobility model: region or speed differs from the snapshot's".into(),
            ));
        }
        let central_zone_time =
            get_opt_u32(&mut r).ok_or(corrupt(TAG_META, "malformed zone completion time"))?;
        let suburb_time =
            get_opt_u32(&mut r).ok_or(corrupt(TAG_META, "malformed zone completion time"))?;
        let snap_turns = r.get_u8().ok_or_else(meta_err)?;
        if snap_turns > 1 {
            return Err(corrupt(TAG_META, "malformed turn-recording flag"));
        }
        if (snap_turns == 1) != self.turns.is_some() {
            return Err(incompat(format!(
                "turn recording: snapshot {}, sim {}",
                snap_turns == 1,
                self.turns.is_some()
            )));
        }
        if !r.is_empty() {
            return Err(corrupt(TAG_META, "trailing bytes"));
        }

        // ---- MRNG / CRNG: the random streams --------------------------
        let mut r = ByteReader::new(snap.require(TAG_MRNG)?);
        let rng = SimRng::from_state_bytes(r.get_block().ok_or(corrupt(TAG_MRNG, "truncated"))?)
            .ok_or(corrupt(TAG_MRNG, "invalid generator state"))?;
        if !r.is_empty() {
            return Err(corrupt(TAG_MRNG, "trailing bytes"));
        }

        let chunk_streams = if self.chunks.is_some() {
            let mut r = ByteReader::new(snap.require(TAG_CRNG)?);
            let mut streams = Vec::with_capacity(sim_chunks);
            for _ in 0..sim_chunks {
                let inner =
                    SimRng::from_state_bytes(r.get_block().ok_or(corrupt(TAG_CRNG, "truncated"))?)
                        .ok_or(corrupt(TAG_CRNG, "invalid chunk generator state"))?;
                let mut buf = [0u64; RNG_BLOCK];
                for b in &mut buf {
                    *b = r.get_u64().ok_or(corrupt(TAG_CRNG, "truncated"))?;
                }
                let pos = r.get_u64().ok_or(corrupt(TAG_CRNG, "truncated"))?;
                let pos = usize::try_from(pos)
                    .map_err(|_| corrupt(TAG_CRNG, "block position overflows"))?;
                streams.push(
                    BlockRng::from_snapshot_parts(inner, buf, pos)
                        .ok_or(corrupt(TAG_CRNG, "block position out of range"))?,
                );
            }
            if !r.is_empty() {
                return Err(corrupt(TAG_CRNG, "trailing bytes"));
            }
            streams
        } else {
            if snap.section(TAG_CRNG).is_some() {
                return Err(corrupt(TAG_CRNG, "present in a sequential snapshot"));
            }
            Vec::new()
        };

        // ---- AGNT / POSN: the population ------------------------------
        let mut r = ByteReader::new(snap.require(TAG_AGNT)?);
        let mut informed = Vec::with_capacity(n);
        let mut crashed = Vec::with_capacity(n);
        let mut inform_time = Vec::with_capacity(n);
        // each state's trajectory point, the base POSN's deltas apply to
        let mut positions = Vec::with_capacity(n);
        let mut agnt_err = None;
        // each record decodes straight into the new batch; the first
        // bad one ends the stream and is reported below
        let model = &self.model;
        let batch =
            model.batch_from_states((0..n).map_while(|_| match read_agent::<M::State>(&mut r) {
                Ok((st, ..)) if !model.valid_state(&st) => {
                    agnt_err = Some(corrupt(TAG_AGNT, "trajectory state outside the model"));
                    None
                }
                Ok((st, inf, cra, t)) => {
                    informed.push(inf);
                    crashed.push(cra);
                    inform_time.push(t);
                    positions.push(model.position(&st));
                    Some(st)
                }
                Err(e) => {
                    agnt_err = Some(e);
                    None
                }
            }));
        if let Some(e) = agnt_err {
            return Err(e);
        }
        if !r.is_empty() {
            return Err(corrupt(TAG_AGNT, "trailing bytes"));
        }
        if informed.iter().filter(|&&b| b).count() != informed_count {
            return Err(corrupt(TAG_AGNT, "informed count disagrees with flags"));
        }
        if !informed[source] {
            return Err(corrupt(TAG_AGNT, "source is not informed"));
        }

        let mut r = ByteReader::new(snap.require(TAG_POSN)?);
        let region = self.model.region();
        let slack = REGION_SLACK * (region.width() + region.height());
        for p in &mut positions {
            *p = get_position(&mut r, *p)
                .ok_or(corrupt(TAG_POSN, "truncated or overlong varint"))?;
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(corrupt(TAG_POSN, "non-finite position"));
            }
            if region.distance(*p) > slack {
                return Err(corrupt(TAG_POSN, "position outside the region"));
            }
        }
        if !r.is_empty() {
            return Err(corrupt(TAG_POSN, "trailing bytes"));
        }

        // ---- FLOD: spread curve and roster -----------------------------
        let mut r = ByteReader::new(snap.require(TAG_FLOD)?);
        let flod_err = || corrupt(TAG_FLOD, "truncated roster");
        let spread = r.get_u32_list().ok_or_else(flod_err)?;
        let transmitters = r.get_u32_list().ok_or_else(flod_err)?;
        if !r.is_empty() {
            return Err(corrupt(TAG_FLOD, "trailing bytes"));
        }
        if spread.len() != time as usize + 1 {
            return Err(corrupt(TAG_FLOD, "spread curve length disagrees with time"));
        }
        // informed agents stay informed, and the newest sample is the
        // current count
        if spread.windows(2).any(|w| w[0] > w[1])
            || spread.last().map(|&c| c as usize) != Some(informed_count)
        {
            return Err(corrupt(TAG_FLOD, "spread curve disagrees with the flags"));
        }
        // the transmitter roster is order-sensitive state (crash
        // compaction), so only set membership is checked
        let mut seen = vec![false; n];
        for &t in &transmitters {
            let t = t as usize;
            if t >= n || !informed[t] || crashed[t] || seen[t] {
                return Err(corrupt(TAG_FLOD, "transmitter roster mismatch"));
            }
            seen[t] = true;
        }
        if transmitters.len() != (0..n).filter(|&a| informed[a] && !crashed[a]).count() {
            return Err(corrupt(TAG_FLOD, "transmitter roster mismatch"));
        }

        // ---- TURN: recorder timestamps ---------------------------------
        let turns = if self.turns.is_some() {
            let mut r = ByteReader::new(snap.require(TAG_TURN)?);
            let mut lists = Vec::with_capacity(n);
            for _ in 0..n {
                let ts = r.get_u32_list().ok_or(corrupt(TAG_TURN, "truncated"))?;
                // the next step records at `time`; a later stamp would
                // trip the recorder's nondecreasing assertion
                if ts.last().is_some_and(|&t| t > time) {
                    return Err(corrupt(TAG_TURN, "timestamp after the snapshot time"));
                }
                lists.push(ts);
            }
            if !r.is_empty() {
                return Err(corrupt(TAG_TURN, "trailing bytes"));
            }
            Some(
                TurnRecorder::from_timestamps(lists)
                    .ok_or(corrupt(TAG_TURN, "timestamps not nondecreasing"))?,
            )
        } else {
            if snap.section(TAG_TURN).is_some() {
                return Err(corrupt(TAG_TURN, "present but recording is off"));
            }
            None
        };

        // ---- commit: everything validated, nothing can fail below ------
        *self.main.stream_mut() = rng;
        if let Some(chunks) = &mut self.chunks {
            for (ctx, stream) in chunks.iter_mut().zip(chunk_streams) {
                *ctx.stream_mut() = stream;
            }
        }
        self.batch = batch;
        self.positions = positions;
        self.informed = informed;
        self.crashed = crashed;
        self.inform_time = inform_time;
        self.informed_count = informed_count;
        self.time = time;
        self.spread = spread;
        self.central_zone_time = central_zone_time;
        self.suburb_time = suburb_time;
        self.turns = turns;
        self.source = source;
        self.join_steps = join_steps;
        self.uninformed_live = live_uninformed(&self.informed, &self.crashed).count();
        // into the retained, population-sized roster, so that revivals
        // (and steps) after a restore grow it without allocating
        self.transmitters.clear();
        self.transmitters.extend_from_slice(&transmitters);
        // derived state: rank from the roster; caches cold; scratch clear
        self.rank.iter_mut().for_each(|v| *v = u32::MAX);
        for (i, &t) in self.transmitters.iter().enumerate() {
            self.rank[t as usize] = i as u32;
        }
        self.inc = IncrementalSync::default();
        self.sleep.restart();
        self.newly.clear();
        self.tx_scratch.clear();
        self.cand.clear();
        self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
        Ok(())
    }
}

/// Decodes one AGNT record: the trajectory state, one flags byte
/// (bit 0 informed, bit 1 crashed), and the inform time.
fn read_agent<S: SnapshotState>(
    r: &mut ByteReader<'_>,
) -> Result<(S, bool, bool, u32), CheckpointError> {
    let st = S::read_state(r).ok_or(corrupt(TAG_AGNT, "invalid trajectory state"))?;
    let flags = r.get_u8().ok_or(corrupt(TAG_AGNT, "truncated"))?;
    if flags > 0b11 {
        return Err(corrupt(TAG_AGNT, "malformed informed/crashed flags"));
    }
    let t = r.get_u32().ok_or(corrupt(TAG_AGNT, "truncated"))?;
    Ok((st, flags & 1 != 0, flags & 2 != 0, t))
}

/// How far past the region a restored position may lie, relative to
/// the region's width plus height. Positions drift from their
/// trajectory point only by accumulated rounding, orders of magnitude
/// below this.
const REGION_SLACK: f64 = 1e-9;

/// Writes POSN's record of `p`: per coordinate, the difference of its
/// IEEE-754 bits from those of `base` as a zigzag varint (one byte when
/// they are equal).
fn put_position(w: &mut ByteWriter, p: Point, base: Point) {
    let delta = |v: f64, b: f64| (v.to_bits() as i64).wrapping_sub(b.to_bits() as i64);
    w.put_var_i64(delta(p.x, base.x));
    w.put_var_i64(delta(p.y, base.y));
}

/// Reads a [`put_position`] record back against the same `base`;
/// `None` on a truncated or overlong varint.
fn get_position(r: &mut ByteReader<'_>, base: Point) -> Option<Point> {
    let mut coord = |b: f64| {
        let bits = (b.to_bits() as i64).wrapping_add(r.get_var_i64()?);
        Some(f64::from_bits(bits as u64))
    };
    let x = coord(base.x)?;
    let y = coord(base.y)?;
    Some(Point::new(x, y))
}

/// Human name of a parallelism determinism class in error messages.
fn class_name(class: u8) -> &'static str {
    if class == 0 {
        "sequential"
    } else {
        "chunked"
    }
}

/// Cross-step synchronization state of the incremental re-bin path.
///
/// The two join grids are *maintained* across steps instead of rebuilt;
/// this records whether that maintenance chain is intact and where the
/// grids stand relative to the transmit roster.
#[derive(Debug, Clone, Copy, Default)]
struct IncrementalSync {
    /// The grids hold valid slack layouts for the current geometry and
    /// the membership-diff bookkeeping is intact. Cleared at
    /// construction and by every event that breaks the chain: crashes
    /// (roster surgery + live-population change), revivals, out-of-band
    /// informs, re-placements, source resets, restores, and gossip
    /// (which clobbers `grid` with a fine-bucket layout). While it is
    /// clear the awake sets are stale too: the next join reclassifies
    /// them first.
    ready: bool,
    /// Prefix of the awake roster the grids are synced to. The suffix —
    /// agents informed since the last sync — is the next step's
    /// membership diff: they leave the uninformed grid and join the
    /// transmitter grid.
    synced_tx: usize,
    /// Upper bound on how far any agent in the uninformed grid has
    /// drifted from the coordinates it was last filed under: grows by
    /// the move pass's **measured** per-step drift on every step (join
    /// or skip), reset when that grid is re-filed or rebuilt.
    stale_rx: f64,
    /// The same bound for the transmitter grid. Stays 0 when the
    /// transmitter side is a per-step coin subset (parsimonious), whose
    /// grid is rebuilt fresh each step. The stale join stays exact
    /// while `stale_rx + stale_tx` fits the budget carved from the
    /// bucket margin ([`STALENESS_BUDGET_FACTOR`]).
    stale_tx: f64,
    /// Drift accrued since both grids were last fresh at once: at least
    /// `stale_rx` and `stale_tx`, reset only when both are.
    stale_sync: f64,
    /// Already-indexed entries filed again by refresh steps, summed
    /// over the run.
    refiled_entries: u64,
    /// Join steps resynced with full slack rebuilds (cold start, and
    /// every churn-spike/crash fallback since).
    full_rebuilds: u32,
    /// Join steps that rebuilt both grids over new awake sets because a
    /// sleep epoch ended while the chain was intact.
    epoch_rebuilds: u32,
    /// Join steps resynced via a diff (deferred membership-only or a
    /// single-grid refresh) rather than full rebuilds.
    diff_steps: u32,
    /// The subset of `diff_steps` that deferred re-binning entirely:
    /// `O(churn)` membership surgery on both grids, stale-tolerant join,
    /// no per-agent pass at all.
    deferred_steps: u32,
    /// The subset of `full_rebuilds` taken while the chain was *intact*
    /// because one step's membership churn crossed the spike threshold
    /// (`churn·CHURN_SPIKE_DIVISOR > live`) — the fallback the
    /// adversarial churn-burst scenarios exist to exercise.
    spike_rebuilds: u32,
}

impl IncrementalSync {
    /// Accrues one step's measured drift to the staleness bounds; the
    /// transmitter grid's only when it is maintained (`tx_is_roster`).
    fn accrue(&mut self, max_move: f64, tx_is_roster: bool) {
        self.stale_rx += max_move;
        if tx_is_roster {
            self.stale_tx += max_move;
        }
        self.stale_sync += max_move;
    }
}

/// Steps one sleep classification covers. At the start of an epoch
/// every live agent is classified from exact positions; an agent that
/// provably cannot take part in a transmission during the next
/// `SLEEP_EPOCH` steps sleeps — it keeps moving but leaves both join
/// grids — until the next classification. Measured on the seed-1
/// `sparse-flood-300k` flood (2-CPU VM, seven interleaved floods
/// each): 8, 16 and 32 steps took the same wall time within noise,
/// keeping 6.5 %, 11.4 % and 21 % of agent-steps awake. One
/// classification pass costs about 2.9 ms at n = 300k, 0.18 ms per
/// step at 16.
const SLEEP_EPOCH: u32 = 16;
const _: () = assert!(SLEEP_EPOCH >= 2);

/// Reach of each side over one sleep epoch: how far an agent may be
/// from every agent of the other side at classification time and still
/// take part in a transmission before the next classification. Index 0
/// is an uninformed agent, 1 a transmitter (the side is the informed
/// flag); `speed` bounds each agent's displacement per step.
///
/// Both bounds follow from move-then-transmit order. The decision at
/// step `s` sees the exact post-move positions and the roster `T(s−1)`,
/// and covers the transmit phases of steps `s .. s+K−1` (`K` =
/// [`SLEEP_EPOCH`]). Between classifications only the flood itself
/// changes the sides; every fault event ends the epoch early.
///
/// * **Uninformed.** Let `d` be the distance to the nearest transmitter
///   at step `s`. A transmitter informed at step `s+i` was within `R`
///   of an older one, so the informed set reaches at most `R` further
///   per hop, and each move closes at most `2v` between two agents:
///   at step `s+j` the distance is at least `d − j·(R + 2v)`. Reception
///   needs `≤ R` for some `j ≤ K−1`: `d ≤ R + (K−1)·(R + 2v)`.
/// * **Transmitter.** The uninformed set only shrinks, so the nearest
///   uninformed agent closes only by motion: `d − 2v·j ≤ R` for some
///   `j ≤ K−1`: `d ≤ R + 2v·(K−1)`.
fn sleep_reach(radius: f64, speed: f64) -> [f64; 2] {
    let hops = f64::from(SLEEP_EPOCH - 1);
    [
        radius + hops * (radius + 2.0 * speed),
        radius + hops * 2.0 * speed,
    ]
}

/// Which live agents the join grids index during the current sleep
/// epoch, and the retained scratch of the classification that decides
/// it (see [`sleep_reach`] for the bounds and `docs/ARCHITECTURE.md`,
/// "Sleep epochs", for why the epoch is global).
///
/// The classification streams `positions` once in id order, binning
/// every live agent into its side's occupancy table on a grid of
/// cells at least a join bucket wide; runs a two-pass Chebyshev distance transform per
/// side; and streams the agents again, keeping an agent awake iff the
/// lower bound `(D − 1)·cell` on its distance to the other side is
/// within its side's reach, where `D` is the cell distance from its
/// cell to the nearest cell the other side occupies. Tables are indexed
/// by side, so neither pass branches on the informed flag.
#[derive(Debug, Clone)]
struct SleepEpoch {
    /// Awake live uninformed agents, ascending.
    rx: Vec<u32>,
    /// Awake live transmitters: ascending at classification, then the
    /// agents the join informs since, appended in inform order.
    tx: Vec<u32>,
    /// First step whose transmit phase needs a new classification.
    epoch_end: u32,
    /// Awake agents (both sides) summed over join steps.
    awake_agent_steps: u64,
    /// Cells per axis of the classification grid.
    m: usize,
    /// Region origin and reciprocal cell sides of the binning formula.
    origin: Point,
    inv_x: f64,
    inv_y: f64,
    /// Per side, the largest cell distance `D` to the other side at
    /// which an agent stays awake: `(D − 1)·cell ≤ reach`.
    max_cells: [u32; 2],
    /// Per-agent cell, written by the binning pass.
    cell: Vec<u32>,
    /// Per side (`side·m² ..`), the Chebyshev cell distance to the
    /// nearest cell the side occupies, `u32::MAX` when it occupies none.
    dist: Vec<u32>,
}

impl SleepEpoch {
    /// Preallocates every table for `n` agents, so classification never
    /// allocates (`n` = 0 for a sim that never classifies). Cells are at
    /// least `JOIN_BUCKET_FACTOR·R` wide, and at most about `2√n` per
    /// axis so the tables stay `O(n)`. Any cell size gives a sound
    /// `(D − 1)·cell` bound; finer cells sleep a few more agents but
    /// cost more per pass (see "Sleep epochs" in `docs/ARCHITECTURE.md`).
    fn new(region: Rect, radius: f64, speed: f64, n: usize) -> SleepEpoch {
        let side = region.width().min(region.height());
        let cap = (2.0 * (n.max(1) as f64).sqrt()).ceil() as usize + 1;
        let m = ((side / (JOIN_BUCKET_FACTOR * radius)).floor() as usize).clamp(1, cap);
        let cell = side / m as f64;
        // the relative guard absorbs rounding in the binning formula
        let reach = sleep_reach(radius, speed);
        let max_cells = reach.map(|r| (r * (1.0 + 1e-9) / cell).floor() as u32 + 1);
        SleepEpoch {
            rx: Vec::with_capacity(n),
            tx: Vec::with_capacity(n),
            epoch_end: 0,
            awake_agent_steps: 0,
            m,
            origin: region.min(),
            inv_x: m as f64 / region.width(),
            inv_y: m as f64 / region.height(),
            max_cells,
            cell: vec![0; n],
            dist: vec![u32::MAX; 2 * m * m],
        }
    }

    /// Forgets the epoch and the awake count, as after construction; the
    /// next join classifies afresh.
    fn restart(&mut self) {
        self.rx.clear();
        self.tx.clear();
        self.epoch_end = 0;
        self.awake_agent_steps = 0;
    }

    /// Re-decides the awake sets from the exact positions at step
    /// `time`, starting an epoch that lasts [`SLEEP_EPOCH`] steps.
    fn classify(&mut self, positions: &[Point], informed: &[bool], crashed: &[bool], time: u32) {
        debug_assert_eq!(self.cell.len(), positions.len(), "scratch sized for n");
        let (m, mm) = (self.m, self.m * self.m);
        self.dist.fill(u32::MAX);
        // bin every agent; a live one marks its side's cell occupied (a
        // crashed one ANDs with all ones and leaves it as it was)
        let agents = positions.iter().zip(informed).zip(crashed);
        for (cell, ((p, &inf), &cr)) in self.cell.iter_mut().zip(agents) {
            let cx = (((p.x - self.origin.x) * self.inv_x) as usize).min(m - 1);
            let cy = (((p.y - self.origin.y) * self.inv_y) as usize).min(m - 1);
            let c = cy * m + cx;
            *cell = c as u32;
            self.dist[usize::from(inf) * mm + c] &= u32::from(cr).wrapping_neg();
        }
        for table in self.dist.chunks_exact_mut(mm) {
            chebyshev_transform(table, m);
        }
        // keep the live agents within reach of the other side; every
        // agent is written and only the kept ones advance their cursor
        let n = positions.len();
        self.rx.resize(n, 0);
        self.tx.resize(n, 0);
        let mut kept = [0usize; 2];
        {
            let out = [&mut self.rx, &mut self.tx];
            let agents = self.cell.iter().zip(informed).zip(crashed);
            for (a, ((&c, &inf), &cr)) in agents.enumerate() {
                let side = usize::from(inf);
                let d = self.dist[(1 - side) * mm + c as usize];
                out[side][kept[side]] = a as u32;
                kept[side] += usize::from(d <= self.max_cells[side] && !cr);
            }
        }
        self.rx.truncate(kept[0]);
        self.tx.truncate(kept[1]);
        self.epoch_end = time.saturating_add(SLEEP_EPOCH);
    }
}

/// In-place Chebyshev (chessboard) distance transform of an `m × m`
/// row-major table whose occupied cells hold 0 and the rest
/// `u32::MAX`: a forward raster pass over the four causal neighbours
/// and a backward pass over the other four, which is exact for the
/// chessboard metric.
fn chebyshev_transform(d: &mut [u32], m: usize) {
    for y in 0..m {
        for x in 0..m {
            let mut v = d[y * m + x];
            if x > 0 {
                v = v.min(d[y * m + x - 1].saturating_add(1));
            }
            if y > 0 {
                let row = (y - 1) * m;
                for k in x.saturating_sub(1)..=(x + 1).min(m - 1) {
                    v = v.min(d[row + k].saturating_add(1));
                }
            }
            d[y * m + x] = v;
        }
    }
    for y in (0..m).rev() {
        for x in (0..m).rev() {
            let mut v = d[y * m + x];
            if x + 1 < m {
                v = v.min(d[y * m + x + 1].saturating_add(1));
            }
            if y + 1 < m {
                let row = (y + 1) * m;
                for k in x.saturating_sub(1)..=(x + 1).min(m - 1) {
                    v = v.min(d[row + k].saturating_add(1));
                }
            }
            d[y * m + x] = v;
        }
    }
}

/// Membership-churn spike threshold of the incremental join: when one
/// step informs more than `live/CHURN_SPIKE_DIVISOR` agents, the diff
/// update's membership surgery (and the slack-overflow borrows and
/// re-layouts it provokes on the transmitter side) approaches
/// full-rebuild cost, so the engine resyncs with full slack rebuilds
/// instead. Spikes that large occur at dense-flood ignition and after
/// mass crash recovery; mid-flood steps sit orders of magnitude below
/// the threshold.
const CHURN_SPIKE_DIVISOR: usize = 8;

/// The incrementally-maintained bucket-join transmit kernel of
/// [`EngineMode::Adaptive`] flooding and parsimonious flooding.
///
/// Exploits temporal coherence three ways, falling back a level
/// whenever a budget runs out or the chain breaks:
///
/// * **deferred steps (the common case)** — agents move at most
///   `max_move` per step, so for several steps the existing binning is
///   still valid up to a known staleness bound. The step then costs
///   only `O(churn)` membership surgery
///   ([`GridIndexBuffer::update_membership`]: newly informed agents
///   leave the uninformed grid and join the transmitter grid) plus the
///   stale-tolerant join ([`GridIndexBuffer::join_covered_by_stale`]),
///   which reads exact coordinates through `positions` and inflates
///   its prunes by the bound — no per-agent pass at all.
/// * **refresh steps** — each grid keeps its own staleness bound, and
///   the join needs `R + stale_rx + stale_tx ≤ bucket`. When the two
///   bounds would together exceed the budget
///   (`STALENESS_BUDGET_FACTOR·(bucket − R)`), the grid that frees the
///   most staleness per entry re-filed is rebuilt by the same
///   [`GridIndexBuffer::rebuild_incremental`] call a full rebuild
///   makes — over that grid's members only, its bound back to zero —
///   while the other gets membership surgery only. Both are re-filed
///   only when neither alone brings the pair back within the budget. In the long sparse tail the few stragglers' grid is thus
///   re-filed often and cheaply, and the large transmitter grid stays
///   stale for longer. The rule reads only the bounds and grid sizes,
///   so it is deterministic and independent of the thread count.
/// * **full rebuilds** — cold start, membership-churn spikes
///   (`churn·CHURN_SPIKE_DIVISOR > live`) and crashes resync from
///   scratch via [`GridIndexBuffer::rebuild_incremental`], announcing
///   every uninformed agent as an expected future transmitter so the
///   roster grid's rows are pre-sized for the whole flood. An
///   `epoch_due` step (a sleep epoch ended with the chain intact; the
///   caller has just reclassified the awake sets) rebuilds the same
///   way but counts as an epoch rebuild, not a full one.
///
/// Both grids share one geometry sized by the *live population*
/// (stable while no one crashes), so shared-geometry joins survive
/// arbitrarily many diff steps. For parsimonious flooding
/// (`tx_is_roster == false`) the transmitter side is a fresh coin
/// subset every step, so only the uninformed grid is maintained
/// incrementally; the coin side gets a tight shared-geometry rebuild
/// (cheap: the subset is small and changes wholesale), which is always
/// staleness-zero, so the uninformed grid gets the whole budget.
///
/// `uninformed` and `transmitters` are the **awake** agents of the two
/// sides (see [`SleepEpoch`]): the grids index only them, and the
/// roster suffix `transmitters[synced..]` is still the membership diff,
/// because the newly informed are appended to the awake roster. `live`
/// is the full live population, so the geometry and the spike threshold
/// do not move as agents fall asleep or wake. `churn` is the number of
/// agents informed since the last sync, which the caller reads before a
/// classification replaces the awake roster.
///
/// A free function over split borrows so callers can keep `tx` borrowed
/// from the sim while the grids are updated.
///
/// `max_move` is the step's measured drift from the batched move pass —
/// accrued into both staleness bounds, so the deferral budget is spent
/// on drift that actually happened rather than the worst-case model
/// speed.
///
/// With `pool` set (the chunked-parallel engine), the join partitions
/// its occupied buckets with per-worker output merged in canonical
/// shard order ([`GridIndexBuffer::join_covered_by_stale_par`]) — the
/// reported sequence is identical to the sequential kernel whatever the
/// thread count, so `newly` (sorted by the caller anyway) cannot depend
/// on scheduling. Grid synchronization (surgery, refresh, rebuilds)
/// stays sequential: a row-sharded refresh measured slower on 2 cores.
///
/// Returns the wall-clock nanoseconds of the grid-synchronization
/// section (the `refresh` phase of [`StepPhases`]) when `timing` is on,
/// 0 otherwise.
#[allow(clippy::too_many_arguments)]
fn join_covered_incremental(
    grid: &mut GridIndexBuffer,
    tx_grid: &mut GridIndexBuffer,
    inc: &mut IncrementalSync,
    region: Rect,
    radius: f64,
    max_move: f64,
    positions: &[Point],
    uninformed: &[u32],
    transmitters: &[u32],
    live: usize,
    churn: usize,
    epoch_due: bool,
    tx: &[u32],
    tx_is_roster: bool,
    newly: &mut Vec<u32>,
    timing: bool,
    pool: Option<&WorkerPool>,
) -> u64 {
    let sync_started = timing.then(Instant::now);
    let bucket = JOIN_BUCKET_FACTOR * radius;
    // staleness budget of the two grids together: the stale join needs
    // R + stale_rx + stale_tx to fit the bucket side
    let budget = STALENESS_BUDGET_FACTOR * (bucket - radius);
    // churn is only meaningful when the chain is intact (a crash
    // shrinks the roster and clears `ready`, so the caller's saturating
    // difference is never misread)
    let resync = !inc.ready;
    let spike = inc.ready && churn * CHURN_SPIKE_DIVISOR > live;
    // re-files one grid from scratch: the uninformed grid over its awake
    // members with no hints; the roster grid over the transmitters with
    // every awake uninformed agent announced as a future transmitter,
    // which pre-sizes its rows by local density, so frontier arrivals
    // land in reserved headroom instead of overflowing slack (which
    // would re-layout every step)
    let refile = |g: &mut GridIndexBuffer, roster: bool| {
        let (members, hints) = if roster {
            (transmitters, uninformed)
        } else {
            (uninformed, &[][..])
        };
        g.rebuild_incremental(region, bucket, positions, members, live, hints)
            .expect("positions finite, radius validated");
    };
    if resync || spike || epoch_due {
        if spike {
            // the chain was intact: this rebuild is the churn-spike
            // fallback, not a cold start, crash resync or epoch start
            inc.spike_rebuilds += 1;
        }
        refile(grid, false);
        if tx_is_roster {
            refile(tx_grid, true);
        }
        inc.ready = true;
        inc.stale_rx = 0.0;
        inc.stale_tx = 0.0;
        inc.stale_sync = 0.0;
        if resync || spike {
            inc.full_rebuilds += 1;
        } else {
            inc.epoch_rebuilds += 1;
        }
    } else {
        let diff = &transmitters[inc.synced_tx..];
        debug_assert_eq!(diff.len(), churn);
        inc.accrue(max_move, tx_is_roster);
        let (rx, tx) = (inc.stale_rx, inc.stale_tx);
        let (refile_rx, refile_tx) = if rx + tx <= budget {
            // deferred: membership surgery only, binning left stale
            inc.deferred_steps += 1;
            (false, false)
        } else {
            // over budget: re-file the one grid that alone brings the
            // pair back within it, preferring the one that frees more
            // staleness per entry re-filed; both if neither suffices
            let rx_alone = tx <= budget;
            let tx_alone = tx_is_roster && rx <= budget;
            match (rx_alone, tx_alone) {
                (true, true) => {
                    let rx_first = rx * (tx_grid.len() + 1) as f64 >= tx * (grid.len() + 1) as f64;
                    (rx_first, !rx_first)
                }
                (true, false) => (true, false),
                (false, true) => (false, true),
                (false, false) => (true, true),
            }
        };
        if refile_rx {
            // the diff has already left the awake uninformed set
            refile(grid, false);
            inc.refiled_entries += uninformed.len() as u64;
            inc.stale_rx = 0.0;
        } else {
            grid.update_membership(positions, diff, &[])
                .expect("positions finite, diff names indexed agents");
        }
        if refile_tx {
            // the diff is filed, not re-filed
            refile(tx_grid, true);
            inc.refiled_entries += (transmitters.len() - diff.len()) as u64;
            inc.stale_tx = 0.0;
        } else if tx_is_roster {
            tx_grid
                .update_membership(positions, &[], diff)
                .expect("positions finite, diff names new agents");
        }
        if inc.stale_rx == 0.0 && inc.stale_tx == 0.0 {
            inc.stale_sync = 0.0;
        }
        inc.diff_steps += 1;
    }
    inc.synced_tx = transmitters.len();
    if !tx_is_roster {
        // the per-step coin-subset rebuild is grid synchronization too,
        // so it belongs inside the refresh-phase window
        tx_grid
            .rebuild_subset_shared(region, bucket, positions, tx, live)
            .expect("positions finite, radius validated");
    }
    let refresh_ns = sync_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let (stale_rx, stale_tx) = (inc.stale_rx, inc.stale_tx);
    if let Some(pl) = pool {
        // the parallel kernel reads exact positions either way, so a
        // zero-slop (just-refreshed) step is simply an exact join
        grid.join_covered_by_stale_par(tx_grid, radius, stale_rx, stale_tx, positions, pl, newly);
    } else if stale_rx > 0.0 || stale_tx > 0.0 {
        grid.join_covered_by_stale(tx_grid, radius, stale_rx, stale_tx, positions, |u| {
            newly.push(u as u32)
        });
    } else {
        grid.join_covered_by(tx_grid, radius, |u| newly.push(u as u32));
    }
    refresh_ns
}

/// The live (non-crashed) uninformed agents, ascending, read from the
/// flags.
fn live_uninformed<'a>(
    informed: &'a [bool],
    crashed: &'a [bool],
) -> impl Iterator<Item = u32> + 'a {
    (0..informed.len() as u32).filter(|&a| !informed[a as usize] && !crashed[a as usize])
}

fn nearest_to(positions: &[Point], target: Point) -> usize {
    positions
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.euclid_sq(target)
                .partial_cmp(&b.euclid_sq(target))
                .expect("finite positions")
        })
        .map(|(i, _)| i)
        .expect("at least one agent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimParams;
    use fastflood_mobility::{Mrwp, Placement, Static};
    use rand::rngs::StdRng;

    fn mrwp_sim(n: usize, side: f64, r: f64, v: f64, seed: u64) -> FloodingSim<Mrwp> {
        let model = Mrwp::new(side, v).unwrap();
        FloodingSim::new(model, SimConfig::new(n, r).seed(seed)).unwrap()
    }

    #[test]
    fn config_validation() {
        let model = Mrwp::new(10.0, 1.0).unwrap();
        assert!(FloodingSim::new(model.clone(), SimConfig::new(0, 1.0)).is_err());
        assert!(FloodingSim::new(model.clone(), SimConfig::new(5, 0.0)).is_err());
        assert!(FloodingSim::new(model.clone(), SimConfig::new(5, f64::NAN)).is_err());
        assert!(FloodingSim::new(
            model.clone(),
            SimConfig::new(5, 1.0).protocol(Protocol::Parsimonious { p: 0.0 })
        )
        .is_err());
        assert!(FloodingSim::new(
            model.clone(),
            SimConfig::new(5, 1.0).protocol(Protocol::Gossip { k: 0 })
        )
        .is_err());
        assert!(FloodingSim::new(
            model,
            SimConfig::new(5, 1.0).source(SourcePlacement::Agent(5))
        )
        .is_err());
    }

    #[test]
    fn name_tables_round_trip_and_reject_retired_names() {
        for (name, mode) in [
            ("adaptive", EngineMode::Adaptive),
            ("oracle", EngineMode::Oracle),
        ] {
            assert_eq!(name.parse::<EngineMode>(), Ok(mode));
        }
        for name in ["rebuild", "bucket-join", "incremental"] {
            assert_eq!(
                name.parse::<EngineMode>(),
                Err(format!("unknown engine {name:?} (adaptive|oracle)"))
            );
        }
        assert_eq!("sequential".parse(), Ok(Parallelism::Sequential));
        assert_eq!(
            "sharded:2".parse::<Parallelism>(),
            Err("unknown parallelism \"sharded:2\" (seq|chunked)".to_string())
        );
    }

    #[test]
    fn starts_with_one_informed_source() {
        let sim = mrwp_sim(50, 20.0, 2.0, 0.5, 1);
        assert_eq!(sim.informed_count(), 1);
        assert_eq!(sim.time(), 0);
        assert!(sim.informed()[sim.source()]);
        assert_eq!(sim.inform_time(sim.source()), Some(0));
        assert_eq!(sim.spread, vec![1]);
    }

    #[test]
    fn source_placements() {
        let model = Mrwp::new(100.0, 1.0).unwrap();
        let center = FloodingSim::new(
            model.clone(),
            SimConfig::new(300, 3.0)
                .seed(2)
                .source(SourcePlacement::Center),
        )
        .unwrap();
        let p = center.positions()[center.source()];
        assert!(p.euclid(Point::new(50.0, 50.0)) < 20.0);

        let corner = FloodingSim::new(
            model.clone(),
            SimConfig::new(300, 3.0)
                .seed(2)
                .source(SourcePlacement::SwCorner),
        )
        .unwrap();
        let q = corner.positions()[corner.source()];
        assert!(q.euclid(Point::new(0.0, 0.0)) < 40.0);

        let fixed = FloodingSim::new(
            model,
            SimConfig::new(300, 3.0)
                .seed(2)
                .source(SourcePlacement::Agent(7)),
        )
        .unwrap();
        assert_eq!(fixed.source(), 7);
    }

    #[test]
    fn flooding_completes_on_small_dense_network() {
        let mut sim = mrwp_sim(200, 20.0, 4.0, 0.5, 3);
        let report = sim.run(2_000);
        assert!(report.completed, "{report}");
        let t = report.flooding_time.unwrap();
        assert!(t >= 1);
        assert_eq!(*report.spread.last().unwrap(), 200);
        // spread is nondecreasing
        for w in report.spread.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = mrwp_sim(100, 20.0, 3.0, 0.5, 42).run(1_000);
        let r2 = mrwp_sim(100, 20.0, 3.0, 0.5, 42).run(1_000);
        assert_eq!(r1, r2);
        let r3 = mrwp_sim(100, 20.0, 3.0, 0.5, 43).run(1_000);
        assert_ne!(r1.spread, r3.spread, "different seed should differ");
    }

    #[test]
    fn one_hop_per_step() {
        // a static chain: 0 -- 1 -- 2 -- 3, spacing exactly R; information
        // must take one step per hop
        let model = Static::new(10.0, Placement::Uniform).unwrap();
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(4, 1.0)
                .source(SourcePlacement::Agent(0))
                .seed(5),
        )
        .unwrap();
        // overwrite positions deterministically via init_at states
        // (re-initialize states by hand: Static state is just the point)
        let mut rng = StdRng::seed_from_u64(9);
        for (i, x) in [0.0, 1.0, 2.0, 3.0].iter().enumerate() {
            let st = sim.model.init_at(Point::new(*x, 5.0), &mut rng);
            sim.model.batch_set_state(&mut sim.batch, i, st);
            sim.positions[i] = Point::new(*x, 5.0);
        }
        let report = sim.run(10);
        assert!(report.completed);
        assert_eq!(report.flooding_time, Some(3));
        assert_eq!(sim.inform_time(1), Some(1));
        assert_eq!(sim.inform_time(2), Some(2));
        assert_eq!(sim.inform_time(3), Some(3));
    }

    #[test]
    fn static_disconnected_never_completes() {
        // two far-apart static agents: flooding can never finish (v = 0
        // degenerate case from §5)
        let model = Static::new(100.0, Placement::Uniform).unwrap();
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(2, 1.0)
                .source(SourcePlacement::Agent(0))
                .seed(1),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let st0 = sim.model.init_at(Point::new(0.0, 0.0), &mut rng);
        let st1 = sim.model.init_at(Point::new(90.0, 90.0), &mut rng);
        sim.model.batch_set_state(&mut sim.batch, 0, st0);
        sim.model.batch_set_state(&mut sim.batch, 1, st1);
        sim.positions[0] = Point::new(0.0, 0.0);
        sim.positions[1] = Point::new(90.0, 90.0);
        let report = sim.run(200);
        assert!(!report.completed);
        assert_eq!(report.flooding_time, None);
        assert_eq!(sim.informed_count(), 1);
        assert_eq!(report.steps_run, 200);
    }

    #[test]
    fn mobility_rescues_disconnected_network() {
        // same sparse radius, but moving agents eventually meet (Thm 3's
        // whole point): tiny n, tiny R, nonzero v
        let mut sim = mrwp_sim(8, 10.0, 1.0, 0.5, 7);
        let report = sim.run(50_000);
        assert!(report.completed, "mobile agents must eventually flood");
    }

    #[test]
    fn parsimonious_is_no_faster_than_flooding() {
        let model = Mrwp::new(20.0, 0.5).unwrap();
        let full = FloodingSim::new(model.clone(), SimConfig::new(150, 3.0).seed(11))
            .unwrap()
            .run(5_000);
        let sparse = FloodingSim::new(
            model,
            SimConfig::new(150, 3.0)
                .seed(11)
                .protocol(Protocol::Parsimonious { p: 0.2 }),
        )
        .unwrap()
        .run(5_000);
        assert!(full.completed && sparse.completed);
        assert!(sparse.flooding_time.unwrap() >= full.flooding_time.unwrap());
    }

    #[test]
    fn gossip_with_large_k_matches_flooding_speed() {
        let model = Mrwp::new(20.0, 0.5).unwrap();
        let full = FloodingSim::new(model.clone(), SimConfig::new(100, 4.0).seed(13))
            .unwrap()
            .run(5_000);
        let gossip = FloodingSim::new(
            model,
            SimConfig::new(100, 4.0)
                .seed(13)
                .protocol(Protocol::Gossip { k: 1_000 }),
        )
        .unwrap()
        .run(5_000);
        assert!(gossip.completed);
        // k >= n gossip informs exactly the same set as flooding each step
        assert_eq!(gossip.flooding_time, full.flooding_time);
    }

    #[test]
    fn zone_tracking_reports_completion() {
        let params = SimParams::standard(400, 4.0, 0.4).unwrap();
        let zones = ZoneMap::new(&params).unwrap();
        let model = Mrwp::new(params.side(), params.speed()).unwrap();
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(params.n(), params.radius())
                .seed(17)
                .source(SourcePlacement::Center),
        )
        .unwrap()
        .with_zones(zones);
        let report = sim.run(20_000);
        assert!(report.completed);
        let cz = report.central_zone_time.expect("CZ completion tracked");
        let sub = report.suburb_time.expect("suburb completion tracked");
        let total = report.flooding_time.unwrap();
        assert!(cz <= total);
        assert!(sub <= total);
    }

    #[test]
    fn turn_recorder_collects() {
        let model = Mrwp::new(20.0, 2.0).unwrap();
        let mut sim =
            FloodingSim::new(model, SimConfig::new(10, 2.0).seed(19).record_turns(true)).unwrap();
        for _ in 0..200 {
            sim.step();
        }
        let rec = sim.turn_recorder().unwrap();
        let total: usize = (0..10).map(|i| rec.total(i)).sum();
        assert!(total > 0, "agents must have changed direction");
    }

    #[test]
    fn report_time_to_fraction() {
        let mut sim = mrwp_sim(100, 15.0, 3.0, 0.5, 23);
        let report = sim.run(5_000);
        assert!(report.completed);
        let half = report.time_to_fraction(0.5).unwrap();
        let full = report.time_to_fraction(1.0).unwrap();
        assert!(half <= full);
        assert_eq!(Some(full), report.flooding_time);
        assert_eq!(report.time_to_fraction(0.0), Some(0));
    }

    #[test]
    fn time_to_fraction_measures_against_total_population() {
        // regression: the fraction target must come from n, not from the
        // peak of the spread curve, or incomplete runs claim full
        // coverage of whatever they happened to reach
        let report = FloodingReport {
            n: 100,
            live: 100,
            completed: false,
            flooding_time: None,
            steps_run: 4,
            spread: vec![1, 10, 40, 60, 60],
            central_zone_time: None,
            suburb_time: None,
        };
        assert_eq!(report.time_to_fraction(0.1), Some(1));
        assert_eq!(
            report.time_to_fraction(0.5),
            Some(3),
            "50 of n=100, not 50% of 60"
        );
        assert_eq!(report.time_to_fraction(0.6), Some(3));
        assert_eq!(
            report.time_to_fraction(0.61),
            None,
            "never reached 61 agents"
        );
        assert_eq!(
            report.time_to_fraction(1.0),
            None,
            "incomplete run has no full time"
        );
        // an actually incomplete sim reports the same way
        let mut sim = mrwp_sim(400, 200.0, 1.0, 0.1, 29);
        let r = sim.run(3);
        assert!(!r.completed);
        assert_eq!(r.n, 400);
        assert_eq!(r.time_to_fraction(1.0), None);
    }

    #[test]
    fn crashed_agents_do_not_relay_or_receive() {
        // static chain 0-1-2-3; crash agent 1: the message cannot cross
        let model = Static::new(10.0, Placement::Uniform).unwrap();
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(4, 1.0)
                .source(SourcePlacement::Agent(0))
                .seed(31),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        for (i, x) in [0.0, 1.0, 2.0, 3.0].iter().enumerate() {
            let st = sim.model.init_at(Point::new(*x, 5.0), &mut rng);
            sim.model.batch_set_state(&mut sim.batch, i, st);
            sim.positions[i] = Point::new(*x, 5.0);
        }
        sim.crash_agent(1);
        assert!(sim.is_crashed(1));
        assert_eq!(sim.crashed_count(), 1);
        let report = sim.run(20);
        // completion over survivors is impossible: 2 and 3 are cut off
        assert!(!report.completed);
        assert_eq!(sim.inform_time(1), None, "crashed agents never receive");
        assert_eq!(sim.inform_time(2), None);
    }

    #[test]
    fn flooding_completes_over_survivors() {
        // mobile network, crash a third of the agents: the survivors
        // still get informed and the run reports completion
        let mut sim = mrwp_sim(90, 20.0, 3.0, 1.0, 33);
        for i in 0..30 {
            if i != sim.source() {
                sim.crash_agent(i);
            }
        }
        let report = sim.run(50_000);
        assert!(report.completed, "survivors must be reachable via mobility");
        // regression: flooding_time must be the last *live* receipt, not
        // the u32::MAX sentinel of never-informed crashed agents
        let t = report.flooding_time.expect("completed over survivors");
        assert!(t <= report.steps_run, "flooding_time {t} is a real step");
        for i in 0..90 {
            if sim.is_crashed(i) {
                assert_eq!(sim.inform_time(i), None);
            } else {
                assert!(sim.inform_time(i).is_some());
            }
        }
    }

    #[test]
    fn crashing_everyone_but_source_completes_immediately() {
        let mut sim = mrwp_sim(10, 20.0, 3.0, 1.0, 34);
        let src = sim.source();
        for i in 0..10 {
            if i != src {
                sim.crash_agent(i);
            }
        }
        assert!(sim.all_informed(), "only the source is live and informed");
        let report = sim.run(5);
        assert!(report.completed);
        assert_eq!(report.live, 1);
    }

    #[test]
    fn crashing_everyone_reports_extinction_not_completion() {
        // regression: with zero survivors no live agent is uninformed, which
        // used to read as `completed = true` with a flooding time — an
        // all-crashed-at-step-0 scenario must be a well-defined
        // non-termination outcome instead
        let mut sim = mrwp_sim(10, 20.0, 3.0, 1.0, 35);
        for i in 0..10 {
            sim.crash_agent(i);
        }
        assert!(sim.all_informed(), "vacuously: no live uninformed agents");
        let report = sim.run(5);
        assert_eq!(report.steps_run, 0, "run terminates immediately");
        assert_eq!(report.live, 0);
        assert!(!report.completed, "a dead population never completes");
        assert_eq!(report.flooding_time, None);
    }

    #[test]
    fn revive_restores_roster_and_worklist_membership() {
        let mut sim = mrwp_sim(30, 10.0, 4.0, 0.5, 36);
        let src = sim.source();
        sim.run(2); // let a few agents get informed
        let informed_victim = (0..30)
            .find(|&i| i != src && sim.informed()[i])
            .expect("dense sim informs someone in 2 steps");
        let uninformed_victim = (0..30)
            .find(|&i| !sim.informed()[i])
            .expect("sparse enough to leave someone uninformed");
        sim.crash_agent(informed_victim);
        sim.crash_agent(uninformed_victim);
        sim.revive_agent(informed_victim);
        sim.revive_agent(uninformed_victim);
        sim.revive_agent(uninformed_victim); // idempotent
        assert_eq!(sim.crashed_count(), 0);
        let report = sim.run(5_000);
        assert!(report.completed);
        assert_eq!(report.live, 30);
        // the revived uninformed agent was eventually informed normally
        assert!(sim.inform_time(uninformed_victim).is_some());
    }

    #[test]
    fn inform_agent_adds_an_extra_source() {
        let mut sim = mrwp_sim(40, 30.0, 2.0, 0.5, 37);
        let extra = (0..40)
            .find(|&i| !sim.informed()[i])
            .expect("n > 1 leaves uninformed agents");
        sim.run(3);
        let t = sim.time();
        let before = sim.informed_count();
        sim.inform_agent(extra);
        if sim.informed_count() > before {
            assert_eq!(sim.inform_time(extra), Some(t));
        }
        sim.inform_agent(extra); // idempotent
        let report = sim.run(10_000);
        assert!(report.completed);
        // spread stays consistent with the inform count
        assert_eq!(*report.spread.last().unwrap(), 40);
    }

    #[test]
    fn place_agent_at_and_reset_source_rebuild_the_layout() {
        let mut sim = mrwp_sim(20, 50.0, 5.0, 1.0, 38);
        // park everyone in the SW corner except agent 0
        for i in 1..20 {
            sim.place_agent_at(i, Point::new(1.0, 1.0)).unwrap();
        }
        sim.place_agent_at(0, Point::new(49.0, 49.0)).unwrap();
        assert!(sim
            .place_agent_at(0, Point::new(-3.0, 0.0))
            .is_err_and(|e| e.to_string().contains("region")));
        assert!(sim.place_agent_at(99, Point::new(1.0, 1.0)).is_err());
        // a position-dependent placement resolves against the new layout
        sim.reset_source(SourcePlacement::Nearest(Point::new(50.0, 50.0)))
            .unwrap();
        assert_eq!(sim.source(), 0);
        assert_eq!(sim.inform_time(0), Some(0));
        assert_eq!(sim.informed_count(), 1);
        // resetting to the same source is a no-op
        sim.reset_source(SourcePlacement::Agent(0)).unwrap();
        assert_eq!(sim.source(), 0);
        sim.step();
        // both primitives are construction-time only
        assert!(sim.place_agent_at(0, Point::new(1.0, 1.0)).is_err());
        assert!(sim.reset_source(SourcePlacement::Agent(1)).is_err());
    }

    #[test]
    fn run_respects_step_budget() {
        let mut sim = mrwp_sim(500, 200.0, 1.0, 0.1, 29);
        let report = sim.run(5);
        assert_eq!(report.steps_run, 5);
        assert!(!report.completed);
        // continuing resumes from where it stopped
        let report2 = sim.run(5);
        assert_eq!(report2.steps_run, 10);
    }

    /// Each join grid's cached coordinates stay within that grid's own
    /// staleness bound, and the two bounds fit the shared budget after
    /// every join — for flooding (both grids maintained, and some steps
    /// re-file one grid alone) and parsimonious flooding (the coin side
    /// fresh every step, its bound pinned at 0).
    #[test]
    fn each_join_grid_stays_within_its_own_staleness_bound() {
        let n = 2_000;
        let scale = SimParams::standard(n, 1.0, 0.0).unwrap().radius_scale();
        let radius = 0.4 * scale;
        let params = SimParams::standard(n, radius, 0.2 * radius).unwrap();
        let budget = STALENESS_BUDGET_FACTOR * (JOIN_BUCKET_FACTOR - 1.0) * radius;
        for protocol in [Protocol::Flooding, Protocol::Parsimonious { p: 0.5 }] {
            let model = Mrwp::new(params.side(), params.speed()).unwrap();
            let config = SimConfig::new(n, radius)
                .seed(3)
                .source(SourcePlacement::Center)
                .protocol(protocol);
            let mut sim = FloodingSim::new(model, config).unwrap();
            let mut single_refiles = 0;
            while !sim.all_informed() {
                let before = sim.inc;
                sim.step();
                let inc = sim.inc;
                for (grid, bound) in [(&sim.grid, inc.stale_rx), (&sim.tx_grid, inc.stale_tx)] {
                    grid.for_each_entry(|_, id, filed| {
                        let drift = sim.positions[id].euclid(filed);
                        assert!(drift <= bound + 1e-9, "{protocol:?}: {drift} > {bound}");
                    });
                }
                // an all-tails parsimonious step accrues drift without
                // a join; the budget is enforced by the next join
                let joined =
                    inc.diff_steps + inc.full_rebuilds > before.diff_steps + before.full_rebuilds;
                if joined {
                    assert!(
                        inc.stale_rx + inc.stale_tx <= budget,
                        "{protocol:?}: {inc:?}"
                    );
                }
                assert!(inc.stale_sync >= inc.stale_rx.max(inc.stale_tx));
                if matches!(protocol, Protocol::Parsimonious { .. }) {
                    assert_eq!(inc.stale_tx, 0.0);
                }
                let refiled = inc.refiled_entries - before.refiled_entries;
                if inc.diff_steps > before.diff_steps
                    && inc.deferred_steps == before.deferred_steps
                    && (inc.stale_rx > 0.0 || inc.stale_tx > 0.0)
                {
                    single_refiles += 1;
                    assert!(refiled > 0 && refiled < n as u64, "{refiled}");
                }
            }
            if protocol == Protocol::Flooding {
                assert!(single_refiles > 0, "no single-grid re-file");
            }
        }
    }
    /// The epoch reach against a literal worst case: a relay chain that
    /// hops `R` toward the agent every step while the two close at `2v`
    /// (uninformed side), or motion alone (transmitter side). An agent
    /// exactly at the reach can take part within the epoch, and one any
    /// further out cannot, so the bound is neither loose nor short by a
    /// step. Dyadic inputs keep the arithmetic exact.
    #[test]
    fn sleep_reach_is_the_worst_case_contact_distance() {
        // first step j of the epoch at which an agent `d` away could
        // take part in a transmission
        let first_contact = |d: f64, radius: f64, speed: f64, hops: bool| -> u32 {
            let mut gap = d;
            for j in 0..4 * SLEEP_EPOCH {
                if gap <= radius {
                    return j;
                }
                if hops {
                    gap -= radius;
                }
                gap -= 2.0 * speed;
            }
            u32::MAX
        };
        for (radius, speed) in [(1.0, 0.0), (1.0, 0.25), (2.0, 0.75), (0.5, 1.5)] {
            let reach = sleep_reach(radius, speed);
            for (side, hops) in [(0, true), (1, false)] {
                let at = first_contact(reach[side], radius, speed, hops);
                assert!(at < SLEEP_EPOCH, "R={radius} v={speed} side {side}: {at}");
                if speed > 0.0 || hops {
                    assert_eq!(at, SLEEP_EPOCH - 1, "R={radius} v={speed} side {side}");
                }
                let beyond = first_contact(reach[side] + radius / 1024.0, radius, speed, hops);
                assert!(beyond >= SLEEP_EPOCH, "R={radius} v={speed} side {side}");
            }
        }
    }

    /// The two-pass transform is the exact chessboard distance.
    #[test]
    fn chebyshev_transform_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        for m in [1, 2, 7, 16] {
            for density in [0.0, 0.02, 0.3] {
                let occupied: Vec<bool> = (0..m * m).map(|_| rng.gen::<f64>() < density).collect();
                let mut d: Vec<u32> = occupied
                    .iter()
                    .map(|&o| if o { 0 } else { u32::MAX })
                    .collect();
                chebyshev_transform(&mut d, m);
                for (c, &got) in d.iter().enumerate() {
                    let expect = (0..m * m)
                        .filter(|&o| occupied[o])
                        .map(|o| {
                            let dx = (c % m).abs_diff(o % m);
                            let dy = (c / m).abs_diff(o / m);
                            dx.max(dy) as u32
                        })
                        .min()
                        .unwrap_or(u32::MAX);
                    assert_eq!(got, expect, "m={m} cell {c}");
                }
            }
        }
    }

    /// Classification only sleeps agents farther than their reach from
    /// every live agent of the other side, lists each side's awake live
    /// agents in ascending id order, and does sleep most of a layout
    /// with a handful of transmitters.
    #[test]
    fn classification_sleeps_only_agents_beyond_reach() {
        let region = Rect::square(200.0).unwrap();
        let (radius, speed, n) = (1.0, 0.3, 3_000);
        let reach = sleep_reach(radius, speed);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sleep = SleepEpoch::new(region, radius, speed, n);
        for informed_share in [0.001, 0.05, 0.5, 0.97] {
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(200.0 * rng.gen::<f64>(), 200.0 * rng.gen::<f64>()))
                .collect();
            let informed: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < informed_share).collect();
            let crashed: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.1).collect();
            sleep.classify(&positions, &informed, &crashed, 7);
            assert_eq!(sleep.epoch_end, 7 + SLEEP_EPOCH);
            for (side, awake) in [(0, &sleep.rx), (1, &sleep.tx)] {
                assert!(awake.windows(2).all(|w| w[0] < w[1]));
                for a in 0..n {
                    if crashed[a] || informed[a] as usize != side {
                        assert!(awake.binary_search(&(a as u32)).is_err());
                        continue;
                    }
                    let nearest = (0..n)
                        .filter(|&b| !crashed[b] && informed[b] as usize != side)
                        .map(|b| positions[a].euclid(positions[b]))
                        .fold(f64::INFINITY, f64::min);
                    if awake.binary_search(&(a as u32)).is_err() {
                        assert!(nearest > reach[side], "agent {a}: {nearest}");
                    }
                }
            }
            if informed_share < 0.01 {
                // a handful of transmitters: most receivers are far away
                let awake = sleep.rx.len() + sleep.tx.len();
                assert!(awake < n / 2, "{awake} awake");
            }
        }
    }

    /// Epoch rebuilds are counted apart from the fallback rebuilds, so
    /// `incremental_full_rebuilds` still shows only the cold start and
    /// the resyncs that events force: a crash adds exactly one, an
    /// epoch none. Every join step is one of the three kinds.
    #[test]
    fn epoch_rebuilds_stay_out_of_the_fallback_count() {
        // side 100R: 25 join buckets across, so epochs sleep agents
        let mut sim = mrwp_sim(1_200, 100.0, 1.0, 0.5, 4);
        sim.run(120);
        let accounted = |s: &FloodingSim<Mrwp>| {
            s.incremental_full_rebuilds()
                + s.incremental_epoch_rebuilds()
                + s.incremental_diff_steps()
        };
        assert_eq!(accounted(&sim), sim.bucket_join_steps());
        assert!(sim.incremental_epoch_rebuilds() >= 2);
        assert!(sim.awake_agent_steps() < 1_200 * u64::from(sim.bucket_join_steps()));
        let full = sim.incremental_full_rebuilds();
        assert_eq!(full, 1 + sim.incremental_spike_rebuilds());
        let victim = sim.informed().iter().position(|&i| !i).unwrap();
        sim.crash_agent(victim);
        let epochs = sim.incremental_epoch_rebuilds();
        sim.step();
        assert_eq!(sim.incremental_full_rebuilds(), full + 1);
        assert_eq!(sim.incremental_epoch_rebuilds(), epochs);
        assert_eq!(accounted(&sim), sim.bucket_join_steps());
    }

    /// `restore` restarts the epoch and the awake count, so a sim that
    /// had already stepped resumes exactly like a fresh one restored
    /// from the same snapshot.
    #[test]
    fn restore_restarts_the_sleep_epoch() {
        let mut donor = mrwp_sim(1_200, 100.0, 1.0, 0.5, 6);
        donor.run(40);
        let snap = donor.snapshot();
        let mut stepped = mrwp_sim(1_200, 100.0, 1.0, 0.5, 6);
        stepped.run(57);
        assert!(stepped.awake_agent_steps() > 0);
        stepped.restore(&snap).unwrap();
        assert_eq!(stepped.awake_agent_steps(), 0);
        assert_eq!(stepped.sleep.epoch_end, 0);
        let mut fresh = mrwp_sim(1_200, 100.0, 1.0, 0.5, 6);
        fresh.restore(&snap).unwrap();
        stepped.run(30);
        fresh.run(30);
        assert!(fresh.awake_agent_steps() > 0);
        assert_eq!(stepped.awake_agent_steps(), fresh.awake_agent_steps());
        assert_eq!(stepped.sleep.epoch_end, fresh.sleep.epoch_end);
    }

    /// Format version 2 keeps an MRWP flood's checkpoint at about 55
    /// B/agent (it was 95–107 in version 1): a 45-byte trajectory
    /// record, a flags byte, the inform time, a few bytes of position
    /// delta and four per transmitter.
    #[test]
    fn mrwp_flood_snapshots_stay_under_sixty_bytes_per_agent() {
        let n = 20_000;
        let mut sim = FloodingSim::new(
            Mrwp::new((n as f64).sqrt(), 0.4).unwrap(),
            SimConfig::new(n, 2.0)
                .seed(3)
                .source(SourcePlacement::Center),
        )
        .unwrap();
        let mut checked = 0;
        while !sim.all_informed() && sim.time() < 400 {
            sim.step();
            if sim.time().is_multiple_of(25) {
                let bytes = sim.snapshot().encode().len();
                let per_agent = bytes as f64 / n as f64;
                assert!(per_agent <= 60.0, "t = {}: {per_agent} B/agent", sim.time());
                checked += 1;
            }
        }
        assert!(checked >= 4, "only {checked} snapshots checked");
    }

    /// FLOD (spread curve, then transmitter roster) must agree with the
    /// flags: restore names FLOD for any roster or curve that does not.
    #[test]
    fn restore_rejects_a_flood_section_that_disagrees_with_the_flags() {
        let mut sim = mrwp_sim(300, 20.0, 2.0, 0.5, 8);
        sim.run(6);
        let snap = sim.snapshot();
        let flod = snap.section(TAG_FLOD).unwrap();
        let word = |at: usize| u32::from_le_bytes(flod[at..at + 4].try_into().unwrap());
        let spread_len = u64::from_le_bytes(flod[..8].try_into().unwrap()) as usize;
        let spread_at = |i: usize| 8 + 4 * i;
        let last = spread_len - 1;
        let roster_at = spread_at(spread_len);
        let roster_len =
            u64::from_le_bytes(flod[roster_at..roster_at + 8].try_into().unwrap()) as usize;
        assert!(roster_len >= 2 && word(spread_at(last)) > word(spread_at(0)));
        let first = roster_at + 8;
        let edit = |at: usize, v: u32| {
            let mut p = flod.to_vec();
            p[at..at + 4].copy_from_slice(&v.to_le_bytes());
            p
        };
        let dropped = {
            let mut p = flod.to_vec();
            p[roster_at..roster_at + 8].copy_from_slice(&(roster_len as u64 - 1).to_le_bytes());
            p.truncate(p.len() - 4);
            p
        };
        let cases = [
            ("an out-of-range transmitter", edit(first, u32::MAX)),
            ("a repeated transmitter", edit(first + 4, word(first))),
            ("a missing transmitter", dropped),
            // above every later sample, and below the real final count
            (
                "a falling spread curve",
                edit(spread_at(0), word(spread_at(last)) + 1),
            ),
            ("a final count off the flags", edit(spread_at(last), 1)),
        ];
        for (what, payload) in cases {
            let mut bad = Snapshot::new();
            for t in snap.tags() {
                let p = if t == TAG_FLOD {
                    payload.clone()
                } else {
                    snap.section(t).unwrap().to_vec()
                };
                bad.push(t, p);
            }
            let mut fresh = mrwp_sim(300, 20.0, 2.0, 0.5, 8);
            match fresh.restore(&bad) {
                Err(CheckpointError::Corrupt { section, .. }) => {
                    assert_eq!(section, TAG_FLOD, "{what}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    /// A mixture state whose class the model does not have is `Corrupt`
    /// at restore, before anything indexes the model's classes with it.
    #[test]
    fn restore_rejects_a_mixture_class_out_of_range() {
        let mix = || {
            let models = vec![Mrwp::new(20.0, 0.2).unwrap(), Mrwp::new(20.0, 0.9).unwrap()];
            fastflood_mobility::Mixture::new(models, vec![0.5, 0.5]).unwrap()
        };
        let mut sim = FloodingSim::new(mix(), SimConfig::new(200, 2.0).seed(4)).unwrap();
        sim.run(3);
        let snap = sim.snapshot();
        let mut bad = Snapshot::new();
        for t in snap.tags() {
            let mut p = snap.section(t).unwrap().to_vec();
            if t == TAG_AGNT {
                // the record opens with the class, a u32
                p[..4].copy_from_slice(&2u32.to_le_bytes());
            }
            bad.push(t, p);
        }
        let mut fresh = FloodingSim::new(mix(), SimConfig::new(200, 2.0).seed(4)).unwrap();
        match fresh.restore(&bad) {
            Err(CheckpointError::Corrupt { section, what }) => {
                assert_eq!(
                    (section, what),
                    (TAG_AGNT, "trajectory state outside the model")
                )
            }
            other => panic!("{other:?}"),
        }
        fresh.restore(&snap).unwrap();
    }

    /// `tx_scratch` holds parsimonious coins and gossip's indexed
    /// agents, `cand` gossip's candidates: no other sim allocates them.
    #[test]
    fn only_the_protocols_that_read_them_allocate_the_scratch_lists() {
        for protocol in [
            Protocol::Flooding,
            Protocol::Parsimonious { p: 0.5 },
            Protocol::Gossip { k: 2 },
        ] {
            for engine in [EngineMode::Adaptive, EngineMode::Oracle] {
                let model = Mrwp::new(100.0, 0.5).unwrap();
                let config = SimConfig::new(500, 1.0).protocol(protocol).engine(engine);
                let sim = FloodingSim::new(model, config).unwrap();
                let gossip = matches!(protocol, Protocol::Gossip { .. });
                let coins = matches!(protocol, Protocol::Parsimonious { .. });
                let what = format!("{protocol:?} {engine:?}");
                assert_eq!(sim.cand.capacity() >= 500, gossip, "{what}");
                assert_eq!(sim.cand.capacity() == 0, !gossip, "{what}");
                assert_eq!(sim.tx_scratch.capacity() >= 500, gossip || coins, "{what}");
                assert_eq!(sim.tx_scratch.capacity() == 0, !(gossip || coins), "{what}");
            }
        }
    }

    #[test]
    fn only_gossip_sims_allocate_the_chosen_stamps() {
        for protocol in [
            Protocol::Flooding,
            Protocol::Parsimonious { p: 0.5 },
            Protocol::Gossip { k: 2 },
        ] {
            for engine in [EngineMode::Adaptive, EngineMode::Oracle] {
                let model = Mrwp::new(100.0, 0.5).unwrap();
                let config = SimConfig::new(500, 1.0).protocol(protocol).engine(engine);
                let sim = FloodingSim::new(model, config).unwrap();
                let gossip = matches!(protocol, Protocol::Gossip { .. });
                assert_eq!(sim.stamp.len(), if gossip { 500 } else { 0 });
            }
        }
    }

    /// Only the sims that classify allocate the classification scratch.
    #[test]
    fn only_sleeping_sims_allocate_the_sleep_scratch() {
        let cases = [
            (Protocol::Flooding, EngineMode::Adaptive, true),
            (
                Protocol::Parsimonious { p: 0.5 },
                EngineMode::Adaptive,
                true,
            ),
            (Protocol::Gossip { k: 2 }, EngineMode::Adaptive, false),
            (Protocol::Flooding, EngineMode::Oracle, false),
        ];
        for (protocol, engine, sleeps) in cases {
            let model = Mrwp::new(100.0, 0.5).unwrap();
            let config = SimConfig::new(500, 1.0).protocol(protocol).engine(engine);
            let sim = FloodingSim::new(model, config).unwrap();
            assert_eq!(sim.sleep.cell.len(), if sleeps { 500 } else { 0 });
            assert_eq!(
                sim.sleep.rx.capacity() >= 500,
                sleeps,
                "{protocol:?} {engine:?}"
            );
        }
    }
}
