//! Declarative scenario subsystem: workloads as data, not code.
//!
//! A [`Scenario`] fully describes one flooding workload — mobility model
//! and parameters, population layout (including zoned/clustered
//! placement and speed heterogeneity via
//! [`Mixture`](fastflood_mobility::Mixture)), source/exit placement, and
//! a **fault schedule** of crash storms, partition windows, and churn
//! bursts keyed by step. Scenarios are parsed from a small TOML-like
//! config format ([`parse_scenario`]), compiled into a
//! [`FloodingSim`](fastflood_core::FloodingSim) setup, and run by
//! [`run_scenario`], which reports a per-trial [`Outcome`]
//! (flooded/timeout/extinct), the engine's fallback counters, and a
//! bitwise event [`Trace`].
//!
//! The in-tree scenario [`library`] (uniform baseline, dense core,
//! street-grid evacuation, crash storm, partition-then-heal, churn
//! spike, heterogeneous speeds) doubles as a permanent lockstep
//! regression suite: the cross-mode agreement harness
//! (`tests/scenario_agreement.rs`) runs every scenario under every
//! engine mode × parallelism class and asserts bitwise trace agreement
//! within each determinism class.
//!
//! Runs are resumable: [`Driver`] exposes the compile/pump/step loop
//! explicitly, [`run_scenario_checkpointed`] wraps it with atomic
//! snapshot writes and a corruption fallback ladder on resume, and
//! [`bisect_divergence`] replays two runs that should agree from their
//! last agreeing checkpoint pair to isolate the first divergent step
//! (see `docs/ARCHITECTURE.md`, "Checkpoint & recovery contract").
//!
//! # Determinism contract
//!
//! Everything a scenario adds on top of the engine draws from dedicated
//! streams derived off the trial seed (placement and fault selection
//! each get their own [`derive_seed`](fastflood_stats::seeds::derive_seed)
//! stream), never from the simulation stream mid-run — so fault
//! injection preserves the engine's cross-mode RNG lockstep, and two
//! engine modes in the same parallelism class replay byte-identical
//! fault schedules.
//!
//! # Examples
//!
//! ```
//! use fastflood_bench::scenario::{run_scenario, scenario_by_name, Outcome};
//! use fastflood_core::{EngineMode, Parallelism};
//!
//! let sc = scenario_by_name("uniform-baseline").unwrap().scaled(150);
//! let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7)?;
//! assert!(matches!(run.outcome, Outcome::Flooded { .. }));
//! # Ok::<(), fastflood_bench::scenario::ScenarioError>(())
//! ```

mod checkpoint;
mod config;
mod library;
mod run;

pub use checkpoint::{
    bisect_divergence, run_scenario_checkpointed, BisectReport, BisectSide, Cadence,
    CheckpointOpts, CheckpointSummary, COST_FACTOR, KEEP_CHECKPOINTS,
};
pub use config::parse_scenario;
pub use library::{library, scenario_by_name, SCENARIO_SOURCES};
pub use run::{
    run_scenario, run_scenario_trials, trace_digest, Driver, FallbackStats, FaultRecord, Outcome,
    ScenarioRun, Trace, TAG_SCFR, TAG_SCNE, TAG_SCPT, TAG_SCRC,
};

use std::error::Error;
use std::fmt;

/// Error produced when parsing, validating, or running a scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The config text failed to parse (line number + message).
    Parse {
        /// 1-based line of the offending config text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The parsed scenario is semantically invalid, or compiling it into
    /// a simulation failed.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } => write!(f, "scenario parse (line {line}): {msg}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl Error for ScenarioError {}

/// An axis-aligned rectangle in **fractions of the region side** (all
/// coordinates in `[0, 1]`), so a scenario's zones survive rescaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FracRect {
    /// West edge (fraction of side).
    pub x0: f64,
    /// South edge.
    pub y0: f64,
    /// East edge.
    pub x1: f64,
    /// North edge.
    pub y1: f64,
}

impl FracRect {
    /// Whether the absolute point `(x, y)` lies inside this rectangle
    /// scaled to a region of side `side`.
    pub fn contains(&self, side: f64, x: f64, y: f64) -> bool {
        x >= self.x0 * side && x <= self.x1 * side && y >= self.y0 * side && y <= self.y1 * side
    }

    fn validate(&self, what: &str) -> Result<(), ScenarioError> {
        let ok = |v: f64| (0.0..=1.0).contains(&v);
        if !(ok(self.x0) && ok(self.y0) && ok(self.x1) && ok(self.y1))
            || self.x0 >= self.x1
            || self.y0 >= self.y1
        {
            return Err(ScenarioError::Invalid(format!(
                "{what} rect must satisfy 0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1"
            )));
        }
        Ok(())
    }
}

/// Mobility model selection + parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Continuous Manhattan random way-point (the paper's model), with
    /// optional way-point pauses.
    Mrwp {
        /// Region side `L`.
        side: f64,
        /// Speed `v`.
        speed: f64,
        /// Whole steps paused at each way-point.
        pause: u32,
    },
    /// Street-grid MRWP (urban variant), with optional red-light pauses.
    Street {
        /// Region side `L`.
        side: f64,
        /// Speed `v`.
        speed: f64,
        /// City blocks per side.
        blocks: usize,
        /// Whole steps paused at each intersection way-point.
        pause: u32,
    },
    /// Classical random way-point (straight-line trips).
    Rwp {
        /// Region side `L`.
        side: f64,
        /// Speed `v`.
        speed: f64,
    },
    /// Disk-based random walk.
    Disk {
        /// Region side `L`.
        side: f64,
        /// Speed `v`.
        speed: f64,
        /// Walk disk radius.
        walk_radius: f64,
    },
    /// Immobile agents (uniform placement).
    Static {
        /// Region side `L`.
        side: f64,
    },
    /// Heterogeneous-speed MRWP mixture: each agent draws a speed class
    /// once at init time.
    MrwpMix {
        /// Region side `L`.
        side: f64,
        /// Class speeds.
        speeds: Vec<f64>,
        /// Class weights (positive; normalized internally).
        weights: Vec<f64>,
    },
}

impl ModelSpec {
    /// The region side `L`.
    pub fn side(&self) -> f64 {
        match self {
            ModelSpec::Mrwp { side, .. }
            | ModelSpec::Street { side, .. }
            | ModelSpec::Rwp { side, .. }
            | ModelSpec::Disk { side, .. }
            | ModelSpec::Static { side }
            | ModelSpec::MrwpMix { side, .. } => *side,
        }
    }

    /// A short label for output ("mrwp", "street", …).
    pub fn label(&self) -> &'static str {
        match self {
            ModelSpec::Mrwp { .. } => "mrwp",
            ModelSpec::Street { .. } => "street",
            ModelSpec::Rwp { .. } => "rwp",
            ModelSpec::Disk { .. } => "disk",
            ModelSpec::Static { .. } => "static",
            ModelSpec::MrwpMix { .. } => "mrwp-mix",
        }
    }

    /// Region scaled by `k`: the side (and trip-extent parameters that
    /// live in region units, like the disk walk radius) scale; speeds
    /// do **not** — they are calibrated against the transmission
    /// radius, which rescaling keeps fixed.
    fn scaled(&self, k: f64) -> ModelSpec {
        let mut out = self.clone();
        match &mut out {
            ModelSpec::Mrwp { side, .. }
            | ModelSpec::Street { side, .. }
            | ModelSpec::Rwp { side, .. }
            | ModelSpec::Static { side }
            | ModelSpec::MrwpMix { side, .. } => *side *= k,
            ModelSpec::Disk {
                side, walk_radius, ..
            } => {
                *side *= k;
                *walk_radius *= k;
            }
        }
        out
    }
}

/// Initial trajectory distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitSpec {
    /// Perfect stationary sampling (the default).
    Stationary,
    /// Cold uniform start.
    Uniform,
}

/// Transmission protocol selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// Full flooding (the paper's rule; the default).
    Flooding,
    /// Parsimonious flooding: transmit with probability `p` per step.
    Parsimonious {
        /// Forward probability in `(0, 1]`.
        p: f64,
    },
    /// Gossip to `k` random in-range neighbors.
    Gossip {
        /// Fanout (≥ 1).
        k: usize,
    },
}

/// What the scenario's completion time measures — labeling only; both
/// are the step at which the last live agent received the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSpec {
    /// Broadcast completion (flooding time).
    Flooding,
    /// Evacuation-**notice** completion (config spelling
    /// `metric = "evacuation-notice"`): the message is an evacuation
    /// order seeded at the exits, and the reported time is when the
    /// last live agent *learned of* the order — not when anyone reached
    /// an exit. (The previous name, `Evacuation`, read as an
    /// arrival-time metric it never was; configs spelling the legacy
    /// `metric = "evacuation"` are rejected with a pointer to the
    /// rename.)
    EvacuationNotice,
}

impl MetricSpec {
    /// The label used in JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            MetricSpec::Flooding => "flooding",
            MetricSpec::EvacuationNotice => "evacuation-notice",
        }
    }
}

/// A density cluster: the first `frac·n` unassigned agents are placed
/// uniformly inside `rect` instead of their stationary position.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Fraction of the population placed in this cluster.
    pub frac: f64,
    /// Where they go (fractions of side).
    pub rect: FracRect,
}

/// Source placement, resolved after cluster layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceSpec {
    /// A uniformly random agent.
    Random,
    /// The agent nearest the region center.
    Center,
    /// The agent nearest the south-west corner.
    SwCorner,
    /// A fixed agent index.
    Agent(usize),
    /// The agent nearest the given point (fractions of side).
    Nearest(f64, f64),
}

/// How many agents a fault touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountSpec {
    /// A fraction of the eligible set (rounded, clamped to it).
    Frac(f64),
    /// An absolute count (clamped to the eligible set).
    Abs(usize),
}

/// One entry of the fault schedule, applied at the start of step `at`
/// (before that step's move).
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Step at which the fault fires.
    pub at: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// Fault flavors. See `docs/SCENARIOS.md` for the exact semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Crash storm: fail-stop `count` random eligible (live, optionally
    /// region-filtered) agents.
    Crash {
        /// How many crash.
        count: CountSpec,
        /// Restrict eligibility to this zone (fractions of side).
        region: Option<FracRect>,
    },
    /// Partition window: every live agent inside `region` goes silent at
    /// `at` and exactly those agents heal at `at + duration` (one-sided
    /// silence — the rest of the world keeps flooding).
    Partition {
        /// Window length in steps.
        duration: u32,
        /// The partitioned zone (fractions of side).
        region: FracRect,
    },
    /// Churn burst: for `duration` steps starting at `at`, `rate` random
    /// live agents crash *and* `rate` random crashed agents revive every
    /// step.
    Churn {
        /// Window length in steps.
        duration: u32,
        /// Agents crashed + revived per step.
        rate: usize,
    },
    /// Revive `count` random crashed agents (`count = 0` revives all).
    Revive {
        /// How many revive (0 = all crashed).
        count: usize,
    },
}

/// A fully declarative flooding workload. Parse one with
/// [`parse_scenario`], pick one from the [`library`], or build one in
/// code; run it with [`run_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name (JSON key, test label).
    pub name: String,
    /// Default seed for single runs.
    pub seed: u64,
    /// Step budget per trial.
    pub steps: u32,
    /// Default trial count for the `scenarios` binary.
    pub trials: usize,
    /// What the completion time is called.
    pub metric: MetricSpec,
    /// Mobility model + parameters.
    pub model: ModelSpec,
    /// Population size.
    pub n: usize,
    /// Transmission radius `R`.
    pub radius: f64,
    /// Initial trajectory distribution.
    pub init: InitSpec,
    /// Transmission protocol.
    pub protocol: ProtocolSpec,
    /// Density clusters, applied in order to the lowest agent indices.
    pub clusters: Vec<Cluster>,
    /// Source placement (resolved after cluster layout).
    pub source: SourceSpec,
    /// Exit nodes (fractions of side): the agent nearest each exit is
    /// informed at t = 0 as an extra source.
    pub exits: Vec<(f64, f64)>,
    /// The fault schedule, in declaration order.
    pub faults: Vec<Fault>,
}

impl Scenario {
    /// Semantic validation beyond what parsing enforces. Called by
    /// [`parse_scenario`]; call it yourself on hand-built scenarios.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] with a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let inv = |msg: &str| Err(ScenarioError::Invalid(msg.to_string()));
        if self.name.is_empty() {
            return inv("scenario name must be nonempty");
        }
        if self.n == 0 {
            return inv("population n must be at least 1");
        }
        if self.steps == 0 {
            return inv("step budget must be at least 1");
        }
        if !(self.radius > 0.0 && self.radius.is_finite()) {
            return inv("radius must be positive and finite");
        }
        if let ModelSpec::MrwpMix {
            speeds, weights, ..
        } = &self.model
        {
            if speeds.is_empty() || speeds.len() != weights.len() {
                return inv("mrwp-mix needs matching nonempty speeds and weights");
            }
            if weights.iter().any(|w| !(w.is_finite() && *w > 0.0)) {
                return Err(ScenarioError::Invalid(format!(
                    "mrwp-mix weights must be positive and finite, got {weights:?}"
                )));
            }
        }
        let total: f64 = self.clusters.iter().map(|c| c.frac).sum();
        if total > 1.0 + 1e-9 {
            return inv("cluster fractions must sum to at most 1");
        }
        for c in &self.clusters {
            if !(c.frac > 0.0 && c.frac <= 1.0) {
                return inv("cluster frac must be in (0, 1]");
            }
            c.rect.validate("cluster")?;
        }
        if let SourceSpec::Agent(i) = self.source {
            if i >= self.n {
                return inv("source agent index out of range");
            }
        }
        for &(x, y) in &self.exits {
            if !((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y)) {
                return inv("exit coordinates must be fractions in [0, 1]");
            }
        }
        for f in &self.faults {
            match &f.kind {
                FaultKind::Crash { count, region } => {
                    if let CountSpec::Frac(q) = count {
                        if !(*q > 0.0 && *q <= 1.0) {
                            return inv("crash frac must be in (0, 1]");
                        }
                    }
                    if let Some(r) = region {
                        r.validate("crash")?;
                    }
                }
                FaultKind::Partition { duration, region } => {
                    if *duration == 0 {
                        return inv("partition duration must be at least 1");
                    }
                    region.validate("partition")?;
                }
                FaultKind::Churn { duration, rate } => {
                    if *duration == 0 || *rate == 0 {
                        return inv("churn needs duration >= 1 and rate >= 1");
                    }
                }
                FaultKind::Revive { .. } => {}
            }
        }
        Ok(())
    }

    /// A density-preserving rescale to population `n`: the region side
    /// (and other region-unit trip extents) scales by
    /// `sqrt(n / self.n)` while the transmission radius and speeds stay
    /// fixed, so the agents-per-communication-disk density — the
    /// paper's regime knob — and the `v / R` ratio are both unchanged.
    /// Fraction-based layout (clusters, exits, regions) is scale-free;
    /// absolute fault counts and churn rates scale proportionally (at
    /// least 1). Fault *steps* are kept as-is: they are workload phase
    /// marks, not geometry.
    ///
    /// This is how the agreement harness and smoke tests run the library
    /// at tiny n in seconds.
    pub fn scaled(&self, n: usize) -> Scenario {
        let k = (n as f64 / self.n as f64).sqrt();
        let scale_count =
            |c: usize| (((c as f64) * n as f64 / self.n as f64).round() as usize).max(1);
        let mut out = self.clone();
        out.model = self.model.scaled(k);
        out.n = n;
        if let SourceSpec::Agent(i) = &mut out.source {
            *i = (*i).min(n - 1);
        }
        for f in &mut out.faults {
            match &mut f.kind {
                FaultKind::Crash {
                    count: CountSpec::Abs(c),
                    ..
                } => *c = scale_count(*c),
                FaultKind::Churn { rate, .. } => *rate = scale_count(*rate),
                FaultKind::Revive { count } if *count > 0 => *count = scale_count(*count),
                _ => {}
            }
        }
        out
    }
}
