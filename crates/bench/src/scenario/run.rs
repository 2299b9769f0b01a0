//! Compiling a [`Scenario`] into a [`FloodingSim`] and driving it:
//! cluster layout, source/exit placement, fault injection, trace capture.
//!
//! Fault selection and cluster placement draw from **dedicated** RNG
//! streams derived off the trial seed (`derive_seed` with fixed salts),
//! never from the simulation stream mid-run. Every engine mode therefore
//! sees byte-identical layouts and fault schedules within a parallelism
//! class, and the engine's cross-mode RNG lockstep survives injection.
//!
//! The run loop lives in [`Driver`], a resumable scenario executor: the
//! canonical loop is `loop { /* checkpoint point */ if d.pump() { break }
//! d.step() }`, and [`Driver::snapshot`] / [`Driver::restore`] freeze and
//! thaw the *whole* run — engine state via `FloodingSim::snapshot` plus
//! the scenario layer (fault-stream RNG, event cursor, partition slots,
//! fault records) in extension sections — so a restored run replays the
//! remaining schedule **bitwise-identically**.

use super::{
    CountSpec, FaultKind, FracRect, InitSpec, ModelSpec, ProtocolSpec, Scenario, ScenarioError,
    SourceSpec,
};
use fastflood_core::checkpoint::{CheckpointError, Snapshot, TAG_CRNG, TAG_META};
use fastflood_core::{
    CancelToken, CoreError, EngineMode, FloodingReport, FloodingSim, InitMode, Parallelism,
    Protocol, SimConfig, SimRng, SourcePlacement,
};
use fastflood_geom::Point;
use fastflood_mobility::{
    ByteReader, ByteWriter, DiskWalk, Mixture, Mobility, Mrwp, Placement, Rwp, SnapshotState,
    Static, StreetMrwp,
};
use fastflood_spatial::disk_giant_fraction;
use fastflood_stats::seeds::derive_seed;
use rand::{Rng, SeedableRng, SnapshotRng};

/// Salt for the cluster-placement stream (`derive_seed(seed, PLACE_SALT)`).
const PLACE_SALT: u64 = 0x706c_6163_656d_656e;
/// Salt for the fault-selection stream (`derive_seed(seed, FAULT_SALT)`).
const FAULT_SALT: u64 = 0x6661_756c_7473_2121;

// ---- scenario-layer snapshot sections (stacked on the engine's set) ----

/// Scenario identity: name, step budget, fingerprint, event cursor,
/// initial giant fraction.
pub const TAG_SCNE: [u8; 4] = *b"SCNE";
/// The fault-selection RNG stream.
pub const TAG_SCFR: [u8; 4] = *b"SCFR";
/// Partition slots (agents silenced by each open partition window).
pub const TAG_SCPT: [u8; 4] = *b"SCPT";
/// Fault records applied so far (the trace's fault log).
pub const TAG_SCRC: [u8; 4] = *b"SCRC";

/// Fault-record kind labels, indexed by their snapshot code.
const FAULT_KINDS: [&str; 4] = ["crash", "partition", "heal", "revive"];

/// How one scenario trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every live agent was informed at `time` (and at least one agent
    /// was live).
    Flooded {
        /// The flooding / evacuation-notice time in steps.
        time: u32,
    },
    /// The step budget ran out with live uninformed agents remaining.
    Timeout,
    /// The whole population was crashed at the end of the run — a
    /// well-defined non-termination outcome, not a vacuous success.
    Extinct,
}

impl Outcome {
    /// The label used in JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Flooded { .. } => "flooded",
            Outcome::Timeout => "timeout",
            Outcome::Extinct => "extinct",
        }
    }
}

/// Engine fallback counters after a run (all zero for the `Oracle`
/// engine, which runs no join).
///
/// These are observability counters, not simulation state: a run resumed
/// from a checkpoint re-counts from the resume point, so they are
/// deliberately **outside** the bitwise resume-identity contract (the
/// same exclusion the cross-mode agreement harness makes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackStats {
    /// Steps served by the join path.
    pub join_steps: u32,
    /// Full rebuilds of the incremental join's index (any cause).
    pub full_rebuilds: u32,
    /// Full rebuilds forced by a churn spike while the incremental index
    /// was otherwise ready — the DEFER → REFRESH → FULL fallback being
    /// *taken*, not just available.
    pub spike_rebuilds: u32,
    /// Steps served by the incremental diff path.
    pub diff_steps: u32,
    /// Diff steps that deferred the refresh entirely (membership surgery
    /// only).
    pub deferred_steps: u32,
}

/// What one fault application actually did, for the event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Step at which the fault fired.
    pub step: u32,
    /// `"crash"`, `"partition"`, `"heal"`, or `"revive"`.
    pub kind: &'static str,
    /// The affected agent ids, ascending.
    pub agents: Vec<u32>,
}

/// The bitwise event trace of a run — the unit of cross-mode agreement.
///
/// Two runs in the same determinism class (same parallelism flavor) must
/// produce `==` traces under every engine mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The resolved source agent.
    pub source: u32,
    /// Per-agent inform step; `u32::MAX` for never informed.
    pub inform_time: Vec<u32>,
    /// Informed count after each step (`spread[0]` is the t = 0 count).
    pub spread: Vec<u32>,
    /// Every fault application, in firing order.
    pub faults: Vec<FaultRecord>,
    /// Final agent positions as raw f64 bit patterns `(x, y)` — bitwise,
    /// not approximate, agreement.
    pub position_bits: Vec<(u64, u64)>,
}

/// A stable 64-bit FNV-1a digest of a [`Trace`] — the one-line summary
/// the crash-recovery harness prints so an interrupted-then-resumed run
/// can be compared against its uninterrupted reference across process
/// boundaries.
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&trace.source.to_le_bytes());
    eat(&(trace.inform_time.len() as u64).to_le_bytes());
    for &t in &trace.inform_time {
        eat(&t.to_le_bytes());
    }
    eat(&(trace.spread.len() as u64).to_le_bytes());
    for &c in &trace.spread {
        eat(&c.to_le_bytes());
    }
    eat(&(trace.faults.len() as u64).to_le_bytes());
    for f in &trace.faults {
        eat(&f.step.to_le_bytes());
        eat(f.kind.as_bytes());
        eat(&(f.agents.len() as u64).to_le_bytes());
        for &a in &f.agents {
            eat(&a.to_le_bytes());
        }
    }
    for &(x, y) in &trace.position_bits {
        eat(&x.to_le_bytes());
        eat(&y.to_le_bytes());
    }
    h
}

/// Everything [`run_scenario`] observes about one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// How the trial ended.
    pub outcome: Outcome,
    /// The engine's own report.
    pub report: FloodingReport,
    /// Engine fallback counters.
    pub fallback: FallbackStats,
    /// The bitwise event trace.
    pub trace: Trace,
    /// Giant-component fraction of the communication graph on the
    /// initial (post-layout) snapshot — how connected the workload
    /// starts out.
    pub initial_giant_fraction: f64,
}

fn invalid(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
}

fn core_err(e: CoreError) -> ScenarioError {
    invalid(e.to_string())
}

/// Generic consumer of a compiled mobility model — the one place the
/// [`ModelSpec`]-to-model mapping is dispatched. Every in-tree model
/// snapshots and clones, so visitors may rely on both.
pub(crate) trait ModelVisitor {
    /// What the visit produces.
    type Out;

    /// Runs with the compiled model.
    fn visit<M>(self, model: M) -> Result<Self::Out, ScenarioError>
    where
        M: Mobility + Clone,
        M::State: SnapshotState;
}

/// Compiles `spec` into its mobility model and hands it to `v`.
pub(crate) fn with_model<V: ModelVisitor>(spec: &ModelSpec, v: V) -> Result<V::Out, ScenarioError> {
    let model_err = |e: fastflood_mobility::MobilityError| invalid(e.to_string());
    match spec {
        ModelSpec::Mrwp { side, speed, pause } => v.visit(
            Mrwp::new(*side, *speed)
                .map_err(model_err)?
                .with_pause(*pause),
        ),
        ModelSpec::Street {
            side,
            speed,
            blocks,
            pause,
        } => v.visit(
            StreetMrwp::new(*side, *speed, *blocks)
                .map_err(model_err)?
                .with_pause(*pause),
        ),
        ModelSpec::Rwp { side, speed } => v.visit(Rwp::new(*side, *speed).map_err(model_err)?),
        ModelSpec::Disk {
            side,
            speed,
            walk_radius,
        } => v.visit(DiskWalk::new(*side, *speed, *walk_radius).map_err(model_err)?),
        ModelSpec::Static { side } => {
            v.visit(Static::new(*side, Placement::Uniform).map_err(model_err)?)
        }
        ModelSpec::MrwpMix {
            side,
            speeds,
            weights,
        } => {
            let models = speeds
                .iter()
                .map(|&sp| Mrwp::new(*side, sp))
                .collect::<Result<Vec<_>, _>>()
                .map_err(model_err)?;
            v.visit(Mixture::new(models, weights.clone()).map_err(model_err)?)
        }
    }
}

/// Runs one trial of a scenario under the given engine mode and
/// parallelism flavor.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] when the scenario cannot be compiled into
/// a simulation (bad model parameters, ill-formed layout).
///
/// # Examples
///
/// ```
/// use fastflood_bench::scenario::{run_scenario, scenario_by_name};
/// use fastflood_core::{EngineMode, Parallelism};
///
/// let sc = scenario_by_name("uniform-baseline").unwrap().scaled(120);
/// let run = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 3)?;
/// assert_eq!(run.trace.inform_time.len(), 120);
/// # Ok::<(), fastflood_bench::scenario::ScenarioError>(())
/// ```
pub fn run_scenario(
    sc: &Scenario,
    engine: EngineMode,
    parallelism: Parallelism,
    seed: u64,
) -> Result<ScenarioRun, ScenarioError> {
    sc.validate()?;
    struct Run<'a> {
        sc: &'a Scenario,
        engine: EngineMode,
        parallelism: Parallelism,
        seed: u64,
    }
    impl ModelVisitor for Run<'_> {
        type Out = ScenarioRun;
        fn visit<M>(self, model: M) -> Result<ScenarioRun, ScenarioError>
        where
            M: Mobility + Clone,
            M::State: SnapshotState,
        {
            let mut d = Driver::new(self.sc, model, self.engine, self.parallelism, self.seed)?;
            while !d.pump() {
                d.step();
            }
            Ok(d.finish())
        }
    }
    with_model(
        &sc.model,
        Run {
            sc,
            engine,
            parallelism,
            seed,
        },
    )
}

/// Runs `trials` independent trials (seeds derived from `master_seed`)
/// across `threads` workers, preserving trial order.
///
/// # Errors
///
/// The first [`ScenarioError`] any trial produced.
pub fn run_scenario_trials(
    sc: &Scenario,
    engine: EngineMode,
    parallelism: Parallelism,
    threads: usize,
    trials: usize,
    master_seed: u64,
) -> Result<Vec<ScenarioRun>, ScenarioError> {
    fastflood_core::run_trials(trials, threads, master_seed, |_, seed| {
        run_scenario(sc, engine, parallelism, seed)
    })
    .into_iter()
    .collect()
}

/// One expanded fault-schedule event. Partitions expand into a
/// silence/heal pair sharing a slot; churn expands into per-step
/// crash + revive pairs.
enum Event {
    Crash {
        count: CountSpec,
        region: Option<FracRect>,
    },
    Silence {
        region: FracRect,
        slot: usize,
    },
    Heal {
        slot: usize,
    },
    Revive {
        count: usize,
    },
}

fn expand_faults(sc: &Scenario) -> (Vec<(u32, Event)>, usize) {
    let mut events = Vec::new();
    let mut slots = 0usize;
    for fault in &sc.faults {
        match &fault.kind {
            FaultKind::Crash { count, region } => {
                events.push((
                    fault.at,
                    Event::Crash {
                        count: *count,
                        region: *region,
                    },
                ));
            }
            FaultKind::Partition { duration, region } => {
                let slot = slots;
                slots += 1;
                events.push((
                    fault.at,
                    Event::Silence {
                        region: *region,
                        slot,
                    },
                ));
                events.push((fault.at.saturating_add(*duration), Event::Heal { slot }));
            }
            FaultKind::Churn { duration, rate } => {
                for t in fault.at..fault.at.saturating_add(*duration) {
                    events.push((
                        t,
                        Event::Crash {
                            count: CountSpec::Abs(*rate),
                            region: None,
                        },
                    ));
                    events.push((t, Event::Revive { count: *rate }));
                }
            }
            FaultKind::Revive { count } => {
                events.push((fault.at, Event::Revive { count: *count }));
            }
        }
    }
    // stable: same-step events keep declaration order
    events.sort_by_key(|&(at, _)| at);
    (events, slots)
}

/// Draws `count` distinct items from `eligible` with a partial
/// Fisher–Yates shuffle, returning them ascending.
fn sample(eligible: &mut [u32], count: usize, rng: &mut SimRng) -> Vec<u32> {
    let count = count.min(eligible.len());
    for i in 0..count {
        let j = rng.gen_range(i..eligible.len());
        eligible.swap(i, j);
    }
    let mut picked: Vec<u32> = eligible[..count].to_vec();
    picked.sort_unstable();
    picked
}

fn nearest_agent(positions: &[Point], p: Point) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, q) in positions.iter().enumerate() {
        let d = q.manhattan(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// A resumable scenario executor: one compiled scenario trial, stepped
/// explicitly by the caller.
///
/// The canonical loop — exactly what [`run_scenario`] does — is:
///
/// ```text
/// let mut d = Driver::new(&sc, model, engine, parallelism, seed)?;
/// loop {
///     // <- checkpoint point: d.snapshot() freezes the run here
///     if d.pump() { break; }
///     d.step();
/// }
/// let run = d.finish();
/// ```
///
/// [`Driver::pump`] applies the fault events scheduled for the current
/// step and reports whether the run is over; [`Driver::step`] advances
/// the simulation one step. Snapshots are taken at the **top** of the
/// loop, *before* `pump` applies that step's events: the fault stream is
/// frozen pre-application, so a restored run re-applies the same events
/// with identical random picks and the continuation is bitwise-identical
/// to the uninterrupted run.
pub struct Driver<M: Mobility> {
    sim: FloodingSim<M>,
    sc: Scenario,
    side: f64,
    events: Vec<(u32, Event)>,
    partition_slots: Vec<Vec<u32>>,
    fault_rng: SimRng,
    records: Vec<FaultRecord>,
    next_event: usize,
    initial_giant_fraction: f64,
}

impl<M: Mobility> Driver<M> {
    /// Compiles `sc` into a ready-to-run simulation: config + engine,
    /// cluster layout (placement stream), source re-resolution, exit
    /// seeding, initial-connectivity measurement, fault-schedule
    /// expansion.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] when the scenario cannot be compiled
    /// (bad model parameters, ill-formed layout, engine rejection).
    pub fn new(
        sc: &Scenario,
        model: M,
        engine: EngineMode,
        parallelism: Parallelism,
        seed: u64,
    ) -> Result<Driver<M>, ScenarioError> {
        let init = match sc.init {
            InitSpec::Stationary => InitMode::Stationary,
            InitSpec::Uniform => InitMode::ColdUniform,
        };
        let protocol = match sc.protocol {
            ProtocolSpec::Flooding => Protocol::Flooding,
            ProtocolSpec::Parsimonious { p } => Protocol::Parsimonious { p },
            ProtocolSpec::Gossip { k } => Protocol::Gossip { k },
        };
        let config = SimConfig::new(sc.n, sc.radius)
            .seed(seed)
            .source(SourcePlacement::Agent(0))
            .init(init)
            .protocol(protocol)
            .engine(engine)
            .parallelism(parallelism);
        let mut sim = FloodingSim::new(model, config).map_err(core_err)?;
        let side = sc.model.side();

        // Cluster layout: the lowest agent indices are re-placed uniformly
        // inside their cluster's rectangle, from the dedicated placement
        // stream (the in-rect point) + the simulation stream (the fresh
        // trajectory init_at draws — identical across engine modes).
        let mut place_rng = SimRng::seed_from_u64(derive_seed(seed, PLACE_SALT));
        let mut next = 0usize;
        for cluster in &sc.clusters {
            let count = ((cluster.frac * sc.n as f64).ceil() as usize).min(sc.n - next);
            for _ in 0..count {
                let x = (cluster.rect.x0
                    + place_rng.gen::<f64>() * (cluster.rect.x1 - cluster.rect.x0))
                    * side;
                let y = (cluster.rect.y0
                    + place_rng.gen::<f64>() * (cluster.rect.y1 - cluster.rect.y0))
                    * side;
                sim.place_agent_at(next, Point::new(x, y))
                    .map_err(core_err)?;
                next += 1;
            }
        }

        let placement = match sc.source {
            SourceSpec::Random => SourcePlacement::Random,
            SourceSpec::Center => SourcePlacement::Center,
            SourceSpec::SwCorner => SourcePlacement::SwCorner,
            SourceSpec::Agent(i) => SourcePlacement::Agent(i),
            SourceSpec::Nearest(fx, fy) => {
                SourcePlacement::Nearest(Point::new(fx * side, fy * side))
            }
        };
        sim.reset_source(placement).map_err(core_err)?;

        // Exit nodes: the agent nearest each exit is informed at t = 0 (an
        // evacuation order propagating inward from the exits).
        for &(fx, fy) in &sc.exits {
            let exit = Point::new(fx * side, fy * side);
            let agent = nearest_agent(sim.positions(), exit);
            sim.inform_agent(agent);
        }

        let initial_giant_fraction =
            disk_giant_fraction(sim.model().region(), sc.radius, sim.positions())
                .map_err(|e| invalid(e.to_string()))?;

        let (events, slots) = expand_faults(sc);
        Ok(Driver {
            sim,
            sc: sc.clone(),
            side,
            events,
            partition_slots: vec![Vec::new(); slots],
            fault_rng: SimRng::seed_from_u64(derive_seed(seed, FAULT_SALT)),
            records: Vec::new(),
            next_event: 0,
            initial_giant_fraction,
        })
    }

    /// The simulation's current step counter.
    pub fn time(&self) -> u32 {
        self.sim.time()
    }

    /// Attaches a cooperative [`CancelToken`] to the underlying sim, so
    /// code driving the sim through [`FloodingSim::run`]-style loops —
    /// and callers polling [`Driver::cancel_requested`] between
    /// [`Driver::pump`]/[`Driver::step`] iterations, as
    /// [`run_scenario_checkpointed`](super::run_scenario_checkpointed)
    /// does — observes cancellation at step boundaries. The token is
    /// runtime plumbing, not simulation state: snapshots ignore it.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.sim.set_cancel_token(token);
    }

    /// Whether an attached [`CancelToken`] has been cancelled.
    pub fn cancel_requested(&self) -> bool {
        self.sim.cancel_requested()
    }

    /// Applies every fault event scheduled for the current step, then
    /// reports whether the run is over: the step budget is spent, or
    /// every live agent is informed with no fault events left that could
    /// revive an uninformed agent.
    pub fn pump(&mut self) -> bool {
        let t = self.sim.time();
        while self.next_event < self.events.len() && self.events[self.next_event].0 == t {
            let (kind, agents) = apply_event(
                &mut self.sim,
                &self.events[self.next_event].1,
                self.side,
                &mut self.partition_slots,
                &mut self.fault_rng,
            );
            self.records.push(FaultRecord {
                step: t,
                kind,
                agents,
            });
            self.next_event += 1;
        }
        t >= self.sc.steps || (self.sim.all_informed() && self.next_event >= self.events.len())
    }

    /// Advances the simulation one step (move + transmit).
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Collects the run's outcome, report, fallback counters, and
    /// bitwise trace.
    pub fn finish(&self) -> ScenarioRun {
        let report = self.sim.report();
        let outcome = if report.live == 0 {
            Outcome::Extinct
        } else if report.completed {
            Outcome::Flooded {
                time: report
                    .flooding_time
                    .expect("completed runs have a flooding time"),
            }
        } else {
            Outcome::Timeout
        };
        let fallback = FallbackStats {
            join_steps: self.sim.bucket_join_steps(),
            full_rebuilds: self.sim.incremental_full_rebuilds(),
            spike_rebuilds: self.sim.incremental_spike_rebuilds(),
            diff_steps: self.sim.incremental_diff_steps(),
            deferred_steps: self.sim.incremental_deferred_steps(),
        };
        let trace = Trace {
            source: self.sim.source() as u32,
            inform_time: (0..self.sc.n)
                .map(|i| self.sim.inform_time(i).unwrap_or(u32::MAX))
                .collect(),
            spread: report.spread.clone(),
            faults: self.records.clone(),
            position_bits: self
                .sim
                .positions()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect(),
        };
        ScenarioRun {
            outcome,
            report,
            fallback,
            trace,
            initial_giant_fraction: self.initial_giant_fraction,
        }
    }
}

/// Shorthand for scenario-section corruption errors.
fn scorrupt(section: [u8; 4], what: &'static str) -> CheckpointError {
    CheckpointError::Corrupt { section, what }
}

/// A stable fingerprint of everything in a [`Scenario`] that shapes the
/// replay — model, layout, schedule — so a checkpoint taken under one
/// scenario definition is rejected by a same-named but edited one
/// instead of silently replaying a different fault schedule.
fn scenario_fingerprint(sc: &Scenario) -> u64 {
    let mut w = ByteWriter::with_capacity(256);
    w.put_bytes(sc.model.label().as_bytes());
    w.put_f64(sc.model.side());
    w.put_u64(sc.n as u64);
    w.put_f64(sc.radius);
    w.put_u8(matches!(sc.init, InitSpec::Uniform) as u8);
    match sc.protocol {
        ProtocolSpec::Flooding => {
            w.put_u8(0);
            w.put_f64(0.0);
        }
        ProtocolSpec::Parsimonious { p } => {
            w.put_u8(1);
            w.put_f64(p);
        }
        ProtocolSpec::Gossip { k } => {
            w.put_u8(2);
            w.put_f64(k as f64);
        }
    }
    for c in &sc.clusters {
        w.put_f64(c.frac);
        w.put_f64(c.rect.x0);
        w.put_f64(c.rect.y0);
        w.put_f64(c.rect.x1);
        w.put_f64(c.rect.y1);
    }
    match sc.source {
        SourceSpec::Random => w.put_u8(0),
        SourceSpec::Center => w.put_u8(1),
        SourceSpec::SwCorner => w.put_u8(2),
        SourceSpec::Agent(i) => {
            w.put_u8(3);
            w.put_u64(i as u64);
        }
        SourceSpec::Nearest(x, y) => {
            w.put_u8(4);
            w.put_f64(x);
            w.put_f64(y);
        }
    }
    for &(x, y) in &sc.exits {
        w.put_f64(x);
        w.put_f64(y);
    }
    for f in &sc.faults {
        w.put_u32(f.at);
        match &f.kind {
            FaultKind::Crash { count, region } => {
                w.put_u8(0);
                match count {
                    CountSpec::Frac(q) => {
                        w.put_u8(0);
                        w.put_f64(*q);
                    }
                    CountSpec::Abs(c) => {
                        w.put_u8(1);
                        w.put_u64(*c as u64);
                    }
                }
                if let Some(r) = region {
                    w.put_f64(r.x0);
                    w.put_f64(r.y0);
                    w.put_f64(r.x1);
                    w.put_f64(r.y1);
                }
            }
            FaultKind::Partition { duration, region } => {
                w.put_u8(1);
                w.put_u32(*duration);
                w.put_f64(region.x0);
                w.put_f64(region.y0);
                w.put_f64(region.x1);
                w.put_f64(region.y1);
            }
            FaultKind::Churn { duration, rate } => {
                w.put_u8(2);
                w.put_u32(*duration);
                w.put_u64(*rate as u64);
            }
            FaultKind::Revive { count } => {
                w.put_u8(3);
                w.put_u64(*count as u64);
            }
        }
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in w.as_slice() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl<M> Driver<M>
where
    M: Mobility,
    M::State: SnapshotState,
{
    /// Freezes the whole run: the engine's sections
    /// (`FloodingSim::snapshot`) plus the scenario layer — identity
    /// ([`TAG_SCNE`]), the fault-selection stream ([`TAG_SCFR`]), open
    /// partition slots ([`TAG_SCPT`]), and the fault records applied so
    /// far ([`TAG_SCRC`]).
    ///
    /// Take snapshots at the **top** of the run loop, before
    /// [`Driver::pump`] applies the current step's events (see the type
    /// docs): the fault stream is then frozen pre-application and the
    /// restored run re-draws identical picks.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.sim.snapshot();

        let mut w = ByteWriter::with_capacity(64 + self.sc.name.len());
        w.put_block(self.sc.name.as_bytes());
        w.put_u32(self.sc.steps);
        w.put_u64(scenario_fingerprint(&self.sc));
        w.put_u64(self.next_event as u64);
        w.put_f64(self.initial_giant_fraction);
        snap.push(TAG_SCNE, w.into_bytes());

        let mut w = ByteWriter::with_capacity(40);
        w.put_block(&self.fault_rng.state_bytes());
        snap.push(TAG_SCFR, w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u64(self.partition_slots.len() as u64);
        for slot in &self.partition_slots {
            w.put_u32_list(slot);
        }
        snap.push(TAG_SCPT, w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_u64(self.records.len() as u64);
        for rec in &self.records {
            w.put_u32(rec.step);
            let code = FAULT_KINDS
                .iter()
                .position(|&k| k == rec.kind)
                .expect("fault records use the canonical kind labels");
            w.put_u8(code as u8);
            w.put_u32_list(&rec.agents);
        }
        snap.push(TAG_SCRC, w.into_bytes());

        snap
    }

    /// Thaws a snapshot taken by [`Driver::snapshot`] into this driver,
    /// validating everything before touching any state: on error the
    /// driver is untouched and still runs its own trial.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incompatible`] when the snapshot came from a
    /// different scenario (name, step budget, or definition
    /// fingerprint), plus everything `FloodingSim::restore` rejects;
    /// [`CheckpointError::Corrupt`] / [`CheckpointError::MissingSection`]
    /// for structurally invalid scenario sections.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        // -- validate the scenario layer into temporaries --
        let mut r = ByteReader::new(snap.require(TAG_SCNE)?);
        let name = r
            .get_block()
            .ok_or_else(|| scorrupt(TAG_SCNE, "truncated scenario name"))?;
        if name != self.sc.name.as_bytes() {
            return Err(CheckpointError::Incompatible {
                what: format!(
                    "scenario name: snapshot {:?}, run {:?}",
                    String::from_utf8_lossy(name),
                    self.sc.name
                ),
            });
        }
        let steps = r
            .get_u32()
            .ok_or_else(|| scorrupt(TAG_SCNE, "truncated step budget"))?;
        if steps != self.sc.steps {
            return Err(CheckpointError::Incompatible {
                what: format!("step budget: snapshot {steps}, run {}", self.sc.steps),
            });
        }
        let fingerprint = r
            .get_u64()
            .ok_or_else(|| scorrupt(TAG_SCNE, "truncated fingerprint"))?;
        if fingerprint != scenario_fingerprint(&self.sc) {
            return Err(CheckpointError::Incompatible {
                what: format!(
                    "scenario definition changed since the snapshot (same name {:?}, \
                     different model/layout/schedule fingerprint)",
                    self.sc.name
                ),
            });
        }
        let next_event = usize::try_from(
            r.get_u64()
                .ok_or_else(|| scorrupt(TAG_SCNE, "truncated event cursor"))?,
        )
        .map_err(|_| scorrupt(TAG_SCNE, "event cursor out of range"))?;
        if next_event > self.events.len() {
            return Err(scorrupt(TAG_SCNE, "event cursor past the schedule end"));
        }
        let giant = r
            .get_f64()
            .ok_or_else(|| scorrupt(TAG_SCNE, "truncated giant fraction"))?;
        if !r.is_empty() {
            return Err(scorrupt(TAG_SCNE, "trailing bytes"));
        }

        let mut r = ByteReader::new(snap.require(TAG_SCFR)?);
        let rng_bytes = r
            .get_block()
            .ok_or_else(|| scorrupt(TAG_SCFR, "truncated rng state"))?;
        let fault_rng = SimRng::from_state_bytes(rng_bytes)
            .ok_or_else(|| scorrupt(TAG_SCFR, "invalid fault rng state"))?;
        if !r.is_empty() {
            return Err(scorrupt(TAG_SCFR, "trailing bytes"));
        }

        let n32 = self.sim.n() as u32;
        let mut r = ByteReader::new(snap.require(TAG_SCPT)?);
        let slot_count = r
            .get_u64()
            .ok_or_else(|| scorrupt(TAG_SCPT, "truncated slot count"))?;
        if slot_count != self.partition_slots.len() as u64 {
            return Err(scorrupt(TAG_SCPT, "partition slot count mismatch"));
        }
        let mut slots = Vec::with_capacity(self.partition_slots.len());
        for _ in 0..slot_count {
            let slot = r
                .get_u32_list()
                .ok_or_else(|| scorrupt(TAG_SCPT, "truncated slot list"))?;
            if slot.iter().any(|&a| a >= n32) {
                return Err(scorrupt(TAG_SCPT, "agent id out of range"));
            }
            slots.push(slot);
        }
        if !r.is_empty() {
            return Err(scorrupt(TAG_SCPT, "trailing bytes"));
        }

        let mut r = ByteReader::new(snap.require(TAG_SCRC)?);
        let rec_count = r
            .get_u64()
            .ok_or_else(|| scorrupt(TAG_SCRC, "truncated record count"))?;
        if rec_count > r.remaining() as u64 {
            return Err(scorrupt(TAG_SCRC, "record count past the payload"));
        }
        let mut records = Vec::with_capacity(rec_count as usize);
        for _ in 0..rec_count {
            let step = r
                .get_u32()
                .ok_or_else(|| scorrupt(TAG_SCRC, "truncated record step"))?;
            let code = r
                .get_u8()
                .ok_or_else(|| scorrupt(TAG_SCRC, "truncated record kind"))?;
            let kind = *FAULT_KINDS
                .get(code as usize)
                .ok_or_else(|| scorrupt(TAG_SCRC, "unknown fault kind code"))?;
            let agents = r
                .get_u32_list()
                .ok_or_else(|| scorrupt(TAG_SCRC, "truncated agent list"))?;
            if agents.iter().any(|&a| a >= n32) {
                return Err(scorrupt(TAG_SCRC, "agent id out of range"));
            }
            records.push(FaultRecord { step, kind, agents });
        }
        if !r.is_empty() {
            return Err(scorrupt(TAG_SCRC, "trailing bytes"));
        }

        // -- the engine validates its own sections and commits --
        self.sim.restore(snap)?;

        // -- commit the scenario layer --
        self.fault_rng = fault_rng;
        self.partition_slots = slots;
        self.records = records;
        self.next_event = next_event;
        self.initial_giant_fraction = giant;
        Ok(())
    }

    /// A 64-bit digest of the run's state, skipping the engine's META
    /// section (recorded engine configuration) and the per-chunk stream
    /// cache (CRNG, structurally absent in sequential runs) — so two
    /// runs that differ only in engine mode or parallelism flavor
    /// compare their *observable* simulation state. A divergence that
    /// starts in the chunk streams surfaces here one step later, through
    /// the positions it perturbs. This is the per-step probe the
    /// divergence bisector walks.
    pub fn digest(&self) -> u64 {
        self.snapshot().digest(&[TAG_META, TAG_CRNG])
    }
}

/// Applies one fault event, crashing or reviving its agents one by one in
/// list order (ascending: `sample` sorts its draw, and the other lists
/// are filtered from agents in index order), which fixes the transmit
/// roster's order.
fn apply_event<M: Mobility>(
    sim: &mut FloodingSim<M>,
    event: &Event,
    side: f64,
    partition_slots: &mut [Vec<u32>],
    fault_rng: &mut SimRng,
) -> (&'static str, Vec<u32>) {
    match event {
        Event::Crash { count, region } => {
            let mut eligible: Vec<u32> = (0..sim.n() as u32)
                .filter(|&i| !sim.is_crashed(i as usize))
                .filter(|&i| {
                    region.is_none_or(|r| {
                        let p = sim.positions()[i as usize];
                        r.contains(side, p.x, p.y)
                    })
                })
                .collect();
            let wanted = match count {
                CountSpec::Frac(q) => (q * eligible.len() as f64).round() as usize,
                CountSpec::Abs(c) => *c,
            };
            let picked = sample(&mut eligible, wanted, fault_rng);
            picked.iter().for_each(|&a| sim.crash_agent(a as usize));
            ("crash", picked)
        }
        Event::Silence { region, slot } => {
            let picked: Vec<u32> = (0..sim.n() as u32)
                .filter(|&i| !sim.is_crashed(i as usize))
                .filter(|&i| {
                    let p = sim.positions()[i as usize];
                    region.contains(side, p.x, p.y)
                })
                .collect();
            picked.iter().for_each(|&a| sim.crash_agent(a as usize));
            partition_slots[*slot] = picked.clone();
            ("partition", picked)
        }
        Event::Heal { slot } => {
            let healed: Vec<u32> = std::mem::take(&mut partition_slots[*slot])
                .into_iter()
                .filter(|&i| sim.is_crashed(i as usize))
                .collect();
            healed.iter().for_each(|&a| sim.revive_agent(a as usize));
            ("heal", healed)
        }
        Event::Revive { count } => {
            let mut eligible: Vec<u32> = (0..sim.n() as u32)
                .filter(|&i| sim.is_crashed(i as usize))
                .collect();
            let wanted = if *count == 0 { eligible.len() } else { *count };
            let picked = sample(&mut eligible, wanted, fault_rng);
            picked.iter().for_each(|&a| sim.revive_agent(a as usize));
            ("revive", picked)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Cluster, Fault, MetricSpec};
    use super::*;

    fn base(n: usize) -> Scenario {
        Scenario {
            name: "unit".to_string(),
            seed: 1,
            steps: 400,
            trials: 2,
            metric: MetricSpec::Flooding,
            model: ModelSpec::Mrwp {
                side: 12.0,
                speed: 0.5,
                pause: 0,
            },
            n,
            radius: 2.5,
            init: InitSpec::Stationary,
            protocol: ProtocolSpec::Flooding,
            clusters: Vec::new(),
            source: SourceSpec::SwCorner,
            exits: Vec::new(),
            faults: Vec::new(),
        }
    }

    #[test]
    fn dense_uniform_scenario_floods() {
        let run =
            run_scenario(&base(80), EngineMode::Adaptive, Parallelism::Sequential, 5).unwrap();
        assert!(matches!(run.outcome, Outcome::Flooded { time } if time > 0));
        assert_eq!(run.trace.inform_time.len(), 80);
        assert!(run.trace.inform_time.iter().all(|&t| t != u32::MAX));
        assert!(run.initial_giant_fraction > 0.5);
    }

    #[test]
    fn same_seed_same_trace() {
        let sc = base(60);
        let a = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 9).unwrap();
        let b = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 9).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report, b.report);
        assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
    }

    #[test]
    fn crash_all_at_zero_is_extinct() {
        let mut sc = base(40);
        sc.faults = vec![Fault {
            at: 0,
            kind: FaultKind::Crash {
                count: CountSpec::Frac(1.0),
                region: None,
            },
        }];
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 2).unwrap();
        assert_eq!(run.outcome, Outcome::Extinct);
        assert_eq!(run.report.live, 0);
        assert!(!run.report.completed);
        assert_eq!(run.report.steps_run, 0, "dead population stops immediately");
        assert_eq!(run.trace.faults.len(), 1);
        assert_eq!(run.trace.faults[0].agents.len(), 40);
    }

    #[test]
    fn partition_heals_exactly_the_silenced_agents() {
        let mut sc = base(70);
        sc.steps = 120;
        sc.faults = vec![Fault {
            at: 5,
            kind: FaultKind::Partition {
                duration: 20,
                region: FracRect {
                    x0: 0.0,
                    y0: 0.0,
                    x1: 0.5,
                    y1: 1.0,
                },
            },
        }];
        let run = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 4).unwrap();
        let silence = run
            .trace
            .faults
            .iter()
            .find(|f| f.kind == "partition")
            .expect("partition fired");
        let heal = run
            .trace
            .faults
            .iter()
            .find(|f| f.kind == "heal")
            .expect("heal fired");
        assert_eq!(silence.step, 5);
        assert_eq!(heal.step, 25);
        assert!(!silence.agents.is_empty(), "west half holds someone");
        assert_eq!(silence.agents, heal.agents);
    }

    #[test]
    fn clusters_place_the_prefix_inside_their_rect() {
        let mut sc = base(50);
        sc.clusters = vec![Cluster {
            frac: 0.4,
            rect: FracRect {
                x0: 0.4,
                y0: 0.4,
                x1: 0.6,
                y1: 0.6,
            },
        }];
        // Static model: placements stay where we put them.
        sc.model = ModelSpec::Static { side: 12.0 };
        sc.steps = 1;
        let run = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 3).unwrap();
        for &(xb, yb) in &run.trace.position_bits[..20] {
            let (x, y) = (f64::from_bits(xb), f64::from_bits(yb));
            assert!(
                (4.8..=7.2).contains(&x) && (4.8..=7.2).contains(&y),
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn exits_are_extra_sources_at_time_zero() {
        let mut sc = base(60);
        sc.exits = vec![(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)];
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 8).unwrap();
        let seeded = run.trace.inform_time.iter().filter(|&&t| t == 0).count();
        assert!(seeded >= 3, "source + distinct exit agents, got {seeded}");
        assert!(u32::try_from(seeded).unwrap() == run.trace.spread[0]);
    }

    #[test]
    fn trials_are_ordered_and_seed_derived() {
        let sc = base(40);
        let runs =
            run_scenario_trials(&sc, EngineMode::Adaptive, Parallelism::Sequential, 2, 3, 11)
                .unwrap();
        assert_eq!(runs.len(), 3);
        let again =
            run_scenario_trials(&sc, EngineMode::Adaptive, Parallelism::Sequential, 1, 3, 11)
                .unwrap();
        assert_eq!(runs, again, "trial seeds derive from master, not threads");
    }

    /// Faulted scenario used by the driver snapshot tests: a crash storm
    /// straddled by the snapshot point plus a later revive.
    fn faulted(n: usize) -> Scenario {
        let mut sc = base(n);
        sc.steps = 60;
        sc.faults = vec![
            Fault {
                at: 4,
                kind: FaultKind::Crash {
                    count: CountSpec::Abs(5),
                    region: None,
                },
            },
            Fault {
                at: 9,
                kind: FaultKind::Revive { count: 2 },
            },
            Fault {
                at: 13,
                kind: FaultKind::Crash {
                    count: CountSpec::Frac(0.1),
                    region: Some(FracRect {
                        x0: 0.0,
                        y0: 0.0,
                        x1: 0.6,
                        y1: 1.0,
                    }),
                },
            },
        ];
        sc
    }

    fn run_driver<M>(mut d: Driver<M>) -> ScenarioRun
    where
        M: Mobility,
    {
        while !d.pump() {
            d.step();
        }
        d.finish()
    }

    #[test]
    fn driver_snapshot_resume_replays_the_fault_schedule_bitwise() {
        let sc = faulted(90);
        let model = Mrwp::new(12.0, 0.5).unwrap();
        for snap_at in [0u32, 4, 7, 13] {
            let reference =
                run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 21).unwrap();

            let mut d = Driver::new(
                &sc,
                model.clone(),
                EngineMode::Adaptive,
                Parallelism::Sequential,
                21,
            )
            .unwrap();
            let mut snap = None;
            loop {
                if d.time() == snap_at {
                    snap = Some(d.snapshot());
                }
                if d.pump() {
                    break;
                }
                d.step();
            }
            let snap = snap.expect("snapshot step reached");

            // restore into a FRESH driver, built with a different seed so
            // nothing can match by accident
            let mut resumed = Driver::new(
                &sc,
                model.clone(),
                EngineMode::Adaptive,
                Parallelism::Sequential,
                21,
            )
            .unwrap();
            resumed
                .restore(&Snapshot::decode(&snap.encode()).unwrap())
                .unwrap();
            assert_eq!(resumed.time(), snap_at);
            let resumed_run = run_driver(resumed);
            assert_eq!(resumed_run.trace, reference.trace, "snap at {snap_at}");
            assert_eq!(resumed_run.report, reference.report);
            assert_eq!(resumed_run.outcome, reference.outcome);
            assert_eq!(
                resumed_run.initial_giant_fraction.to_bits(),
                reference.initial_giant_fraction.to_bits()
            );
        }
    }

    #[test]
    fn driver_restore_rejects_other_scenarios_and_edits() {
        let sc = faulted(70);
        let model = Mrwp::new(12.0, 0.5).unwrap();
        let mut d = Driver::new(
            &sc,
            model.clone(),
            EngineMode::Oracle,
            Parallelism::Sequential,
            5,
        )
        .unwrap();
        for _ in 0..6 {
            d.pump();
            d.step();
        }
        let snap = d.snapshot();

        // different name
        let mut other = sc.clone();
        other.name = "renamed".into();
        let mut fresh = Driver::new(
            &other,
            model.clone(),
            EngineMode::Oracle,
            Parallelism::Sequential,
            5,
        )
        .unwrap();
        let err = fresh.restore(&snap).unwrap_err();
        assert!(matches!(err, CheckpointError::Incompatible { .. }), "{err}");
        assert_eq!(fresh.time(), 0, "rejected restore leaves driver untouched");

        // same name, edited fault schedule -> fingerprint mismatch
        let mut edited = sc.clone();
        edited.faults[0].at = 5;
        let mut fresh = Driver::new(
            &edited,
            model.clone(),
            EngineMode::Oracle,
            Parallelism::Sequential,
            5,
        )
        .unwrap();
        let err = fresh.restore(&snap).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "schedule edits must be caught: {err}"
        );

        // a clean restore still works afterwards
        let mut fresh =
            Driver::new(&sc, model, EngineMode::Oracle, Parallelism::Sequential, 5).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.time(), 6);
    }

    #[test]
    fn driver_digest_tracks_state_not_engine() {
        let sc = base(50);
        let model = Mrwp::new(12.0, 0.5).unwrap();
        let mut a = Driver::new(
            &sc,
            model.clone(),
            EngineMode::Adaptive,
            Parallelism::Sequential,
            3,
        )
        .unwrap();
        let mut b =
            Driver::new(&sc, model, EngineMode::Oracle, Parallelism::Sequential, 3).unwrap();
        for _ in 0..5 {
            assert_eq!(
                a.digest(),
                b.digest(),
                "same class, different engines, same state digest"
            );
            a.pump();
            b.pump();
            a.step();
            b.step();
        }
        let before = a.digest();
        a.step();
        assert_ne!(before, a.digest(), "stepping changes the digest");
    }
}
