//! The job runtime: a bounded worker set running scenario jobs under
//! supervision.
//!
//! Every failure mode is a policy decision instead of a run-ender:
//!
//! * **deadlines** — a watchdog thread ticks every
//!   [`SupervisorConfig::watchdog_tick_ms`] and cancels the
//!   [`CancelToken`] of any job past its deadline; the job's driver
//!   loop observes the token at the next step boundary, flushes a final
//!   checkpoint, and the job settles as
//!   [`JobPhase::DeadlineExceeded`] — never hung;
//! * **panic isolation + checkpoint-backed restart** — each job
//!   attempt runs under `catch_unwind` (riding the `WorkerPool`'s
//!   panic-payload propagation, so a panic on any pool worker surfaces
//!   on the job's thread with its original payload); a panicked
//!   attempt backs off exponentially (capped) and the next attempt
//!   **resumes from the newest valid checkpoint** via the corruption
//!   fallback ladder, with a retry budget whose exhaustion surfaces
//!   the last panic message as [`JobPhase::Failed`]. By the
//!   bitwise-resume contract a restarted job's final trace digest
//!   equals an uninterrupted run's;
//! * **admission control** — jobs past the estimated-memory budget
//!   ([`estimate_snapshot_bytes`]) are rejected `overloaded`; jobs
//!   past the queue bound **degrade gracefully** to an explicitly
//!   labeled quick answer on the rescaled scenario
//!   (`Scenario::scaled`) instead of queueing unboundedly;
//! * **graceful drain** — [`Supervisor::drain`] stops admission,
//!   cancels every non-terminal job (in-flight runs flush a final
//!   checkpoint), waits for the workers to settle, and reports each
//!   job's resumable step.
//!
//! Concurrency note: all jobs' sims resolve their worker pools through
//! `fastflood_parallel::shared_pool`, so a supervisor running many
//! chunked jobs shares **one** pool per thread count instead of
//! spawning pools per job; pool contention degrades to inline
//! execution, never to different results.

use crate::json::Json;
use fastflood_bench::scenario::{
    run_scenario, run_scenario_checkpointed, trace_digest, Cadence, CheckpointOpts, Scenario,
};
use fastflood_core::{CancelToken, EngineMode, Parallelism};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimated resident footprint of one job, in bytes, as a function of
/// its population size.
///
/// The model is the size of a full engine+scenario checkpoint, with
/// the live sim state taken to be the same order. The scenario library
/// writes up to 67 bytes/agent (`churn-spike` at n = 20 000; it was
/// 107 before checkpoint format 2) behind a small fixed header, so
/// `64 KiB + 128·n` rounds that up with room to spare; the
/// `supervisor` test suite checks every library checkpoint against it.
/// The budget is a backpressure lever, not an allocator accounting.
pub fn estimate_snapshot_bytes(n: usize) -> u64 {
    64 * 1024 + 128 * n as u64
}

/// Tuning of the [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Concurrent job slots (worker threads).
    pub workers: usize,
    /// Queue bound past which new jobs degrade instead of queueing.
    pub queue_limit: usize,
    /// Reject admission when the summed [`estimate_snapshot_bytes`] of
    /// queued + running jobs would exceed this.
    pub memory_budget_bytes: u64,
    /// Root directory for per-job checkpoint subdirectories.
    pub checkpoint_root: PathBuf,
    /// When a job writes checkpoints. The default, [`Cadence::Cost`],
    /// keeps their share of a job at or below 1/11 (`K` =
    /// [`COST_FACTOR`](fastflood_bench::scenario::COST_FACTOR) = 10), so
    /// a short job may write none; `Cadence::Steps(n)` writes every `n`
    /// steps, and `Steps(0)` disables checkpointing, which also disables
    /// restart-from-checkpoint: retries start fresh.
    pub checkpoint_cadence: Cadence,
    /// Retry budget: a job may panic this many times *after* its first
    /// attempt before it is failed (so `max_retries = 2` allows three
    /// attempts total).
    pub max_retries: u32,
    /// First backoff delay after a panicked attempt, in ms.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in ms (capped exponential: `base << (attempt-1)`
    /// clamped here).
    pub backoff_cap_ms: u64,
    /// Watchdog scan period for deadline enforcement, in ms.
    pub watchdog_tick_ms: u64,
    /// Population the degraded answer rescales to
    /// (`Scenario::scaled`) when the queue is saturated.
    pub degrade_n: usize,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: 2,
            queue_limit: 16,
            memory_budget_bytes: 512 * 1024 * 1024,
            checkpoint_root: std::env::temp_dir().join("floodd-checkpoints"),
            checkpoint_cadence: Cadence::Cost,
            max_retries: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            watchdog_tick_ms: 10,
            degrade_n: 220,
        }
    }
}

/// Chaos hook carried by a job: simulate a worker dying mid-flood by
/// panicking the driver loop at a step (the `panic_at_step` checkpoint
/// hook). A test/ops knob — `None` in real traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Chaos {
    /// No injected failure.
    #[default]
    None,
    /// Panic at the step on the **first** attempt only; the restart
    /// must recover and complete (the supervisor's happy crash path).
    PanicOnce {
        /// Step at which the first attempt panics.
        at: u32,
    },
    /// Panic at the step on **every** attempt that reaches it; with a
    /// checkpoint cadence that can't pass the step this exhausts the
    /// retry budget (the supervisor's failure path).
    PanicAlways {
        /// Step at which every attempt panics.
        at: u32,
    },
}

/// One unit of work: a scenario trial plus its supervision policy.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The scenario to run (already validated at admission).
    pub scenario: Scenario,
    /// Engine mode for the run.
    pub engine: EngineMode,
    /// Parallelism class for the run (part of the determinism class —
    /// and of the checkpoint identity, so a resubmitted job only
    /// resumes checkpoints from the same class).
    pub parallelism: Parallelism,
    /// Trial seed.
    pub seed: u64,
    /// Wall-clock budget from admission; `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Injected failure, if any.
    pub chaos: Chaos,
    /// Test knob threaded to [`CheckpointOpts::step_delay_ms`]: slows
    /// the driver loop so kill/cancel windows are wide. `0` in real
    /// runs.
    pub step_delay_ms: u64,
}

impl JobSpec {
    /// A plain job: no deadline, no chaos, no delay.
    pub fn new(
        scenario: Scenario,
        engine: EngineMode,
        parallelism: Parallelism,
        seed: u64,
    ) -> JobSpec {
        JobSpec {
            scenario,
            engine,
            parallelism,
            seed,
            deadline_ms: None,
            chaos: Chaos::None,
            step_delay_ms: 0,
        }
    }
}

/// Job identifier, dense from 0 in submission order.
pub type JobId = u64;

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued ──▶ Running ──▶ Done
///    │          │ ▲─────┐
///    │          │ │ Backoff (panic, retries left)
///    │          ▼ │
///    │       Failed (budget exhausted / invalid scenario)
///    ├──────▶ DeadlineExceeded (watchdog cancelled)
///    └──────▶ Cancelled (drain / user)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JobPhase {
    /// Waiting for a worker slot.
    Queued,
    /// A worker is executing the given attempt (0-based).
    Running {
        /// Current attempt, 0-based.
        attempt: u32,
    },
    /// The previous attempt panicked; waiting out the backoff delay.
    Backoff {
        /// Attempts made so far.
        attempt: u32,
        /// The delay being waited, in ms.
        delay_ms: u64,
    },
    /// Completed. The digest is the bitwise trace fingerprint
    /// (`trace_digest`), comparable across runs, resumes, and
    /// processes. The job's checkpoint directory is removed once no
    /// live job shares it.
    Done {
        /// `{:016x}` of the trace digest.
        digest: String,
        /// Outcome label: `flooded`, `timeout`, or `extinct`.
        outcome: String,
        /// Flooding time in steps when flooded.
        flooding_time: Option<u32>,
        /// Total attempts consumed (1 = no restarts).
        attempts: u32,
    },
    /// Gave up: invalid scenario, or the retry budget is exhausted (the
    /// error is the **last** attempt's panic message).
    Failed {
        /// The last error or panic message.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The watchdog cancelled the job past its deadline; the partial
    /// state up to `at_step` is checkpointed and resumable.
    DeadlineExceeded {
        /// Step the run had reached when it observed cancellation.
        at_step: u32,
    },
    /// Cancelled by drain or by request; `resumable_step` is the
    /// checkpointed step a resubmission will resume from (`None` when
    /// the job never ran or checkpointing is off).
    Cancelled {
        /// Newest checkpointed step, when one exists.
        resumable_step: Option<u32>,
    },
}

impl JobPhase {
    /// Whether the phase is terminal (the job will not change again).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done { .. }
                | JobPhase::Failed { .. }
                | JobPhase::DeadlineExceeded { .. }
                | JobPhase::Cancelled { .. }
        )
    }

    /// Stable label used in the wire protocol.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running { .. } => "running",
            JobPhase::Backoff { .. } => "backoff",
            JobPhase::Done { .. } => "done",
            JobPhase::Failed { .. } => "failed",
            JobPhase::DeadlineExceeded { .. } => "deadline_exceeded",
            JobPhase::Cancelled { .. } => "cancelled",
        }
    }
}

/// Why a job's token was cancelled — recorded by the canceller so the
/// settling worker can classify the interruption (the token itself
/// carries no reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CancelCause {
    Deadline,
    Drain,
    User,
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Scenario name.
    pub scenario: String,
    /// Trial seed.
    pub seed: u64,
    /// Current phase.
    pub phase: JobPhase,
    /// Attempts started so far.
    pub attempts: u32,
}

impl JobStatus {
    /// The wire encoding of this status.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("job", Json::num(self.id)),
            ("scenario", Json::str(&self.scenario)),
            ("seed", Json::num(self.seed)),
            ("state", Json::str(self.phase.label())),
            ("attempts", Json::num(self.attempts as u64)),
        ];
        match &self.phase {
            JobPhase::Done {
                digest,
                outcome,
                flooding_time,
                ..
            } => {
                pairs.push(("digest", Json::str(digest)));
                pairs.push(("outcome", Json::str(outcome)));
                pairs.push((
                    "flooding_time",
                    flooding_time.map_or(Json::Null, |t| Json::num(t as u64)),
                ));
            }
            JobPhase::Failed { error, .. } => pairs.push(("error", Json::str(error))),
            JobPhase::DeadlineExceeded { at_step } => {
                pairs.push(("at_step", Json::num(*at_step as u64)));
            }
            JobPhase::Cancelled { resumable_step } => pairs.push((
                "resumable_step",
                resumable_step.map_or(Json::Null, |t| Json::num(t as u64)),
            )),
            JobPhase::Backoff { delay_ms, .. } => {
                pairs.push(("backoff_ms", Json::num(*delay_ms)));
            }
            _ => {}
        }
        Json::obj(pairs)
    }
}

/// The explicitly-labeled degraded answer returned when the queue is
/// saturated: the scenario rescaled to [`SupervisorConfig::degrade_n`]
/// agents (density-preserving) and run inline, sequentially. It is an
/// *approximation from a different population* — callers must treat it
/// as such, which is why it arrives marked `degraded` instead of
/// pretending to be the job they asked for.
#[derive(Debug, Clone)]
pub struct DegradedAnswer {
    /// The rescaled population actually run.
    pub n: usize,
    /// Outcome label of the rescaled run.
    pub outcome: String,
    /// Flooding time of the rescaled run, when flooded.
    pub flooding_time: Option<u32>,
    /// Trace digest of the rescaled run.
    pub digest: String,
}

/// What [`Supervisor::submit`] decided.
#[derive(Debug, Clone)]
pub enum Submission {
    /// Admitted; track it by id.
    Accepted {
        /// The new job's id.
        id: JobId,
    },
    /// Queue saturated: here is the degraded answer instead.
    Degraded(DegradedAnswer),
    /// Not admitted (over memory budget, draining, or invalid).
    Rejected {
        /// Why.
        reason: String,
    },
}

/// Aggregate counters for the `stats` op.
#[derive(Debug, Clone)]
pub struct SupervisorStats {
    /// Worker slots.
    pub workers: usize,
    /// Jobs waiting for a slot.
    pub queue_len: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Whether drain has begun.
    pub draining: bool,
    /// Summed footprint estimates of admitted, unsettled jobs.
    pub memory_in_use: u64,
    /// The configured budget.
    pub memory_budget: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Degraded answers served.
    pub degraded: u64,
    /// Submissions rejected.
    pub rejected: u64,
}

struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    token: CancelToken,
    cause: Option<CancelCause>,
    deadline: Option<Instant>,
    attempts: u32,
    mem_estimate: u64,
}

struct State {
    jobs: Vec<JobRecord>,
    queue: VecDeque<usize>,
    running: usize,
    draining: bool,
    shutdown: bool,
    mem_in_use: u64,
    /// Unsettled jobs per checkpoint directory: a `Done` job removes
    /// its directory only when it was the last of them.
    live_per_dir: HashMap<PathBuf, usize>,
    accepted: u64,
    degraded: u64,
    rejected: u64,
}

struct Shared {
    cfg: SupervisorConfig,
    state: Mutex<State>,
    /// Workers wait here for queue items.
    work: Condvar,
    /// `wait`/`drain` callers wait here for jobs to settle.
    settled: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The supervised job runtime. Construction spawns the worker set and
/// the watchdog; drop drains nothing but joins the threads (call
/// [`Supervisor::drain`] first for a graceful stop).
pub struct Supervisor {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("workers", &self.shared.cfg.workers)
            .finish()
    }
}

impl Supervisor {
    /// Starts the runtime: `cfg.workers` job threads plus the deadline
    /// watchdog.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                running: 0,
                draining: false,
                shutdown: false,
                mem_in_use: 0,
                live_per_dir: HashMap::new(),
                accepted: 0,
                degraded: 0,
                rejected: 0,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
            cfg,
        });
        let mut threads = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("floodd-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn job worker"),
            );
        }
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("floodd-watchdog".to_string())
                .spawn(move || watchdog_loop(&sh))
                .expect("spawn watchdog"),
        );
        Supervisor { shared, threads }
    }

    /// Admission control: validate, budget-check, and either queue the
    /// job, serve a degraded answer, or reject.
    pub fn submit(&self, spec: JobSpec) -> Submission {
        if let Err(e) = spec.scenario.validate() {
            let mut st = lock(&self.shared);
            st.rejected += 1;
            return Submission::Rejected {
                reason: format!("invalid scenario: {e}"),
            };
        }
        let est = estimate_snapshot_bytes(spec.scenario.n);
        let degrade = {
            let mut st = lock(&self.shared);
            if st.draining || st.shutdown {
                st.rejected += 1;
                return Submission::Rejected {
                    reason: "draining: not admitting new jobs".to_string(),
                };
            }
            if st.mem_in_use.saturating_add(est) > self.shared.cfg.memory_budget_bytes {
                st.rejected += 1;
                return Submission::Rejected {
                    reason: format!(
                        "overloaded: estimated {est} B would exceed the {} B memory budget",
                        self.shared.cfg.memory_budget_bytes
                    ),
                };
            }
            if st.queue.len() >= self.shared.cfg.queue_limit {
                st.degraded += 1;
                true
            } else {
                let idx = st.jobs.len();
                let deadline = spec
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                *st.live_per_dir
                    .entry(job_dir(&self.shared.cfg, &spec))
                    .or_default() += 1;
                st.jobs.push(JobRecord {
                    token: CancelToken::new(),
                    phase: JobPhase::Queued,
                    cause: None,
                    deadline,
                    attempts: 0,
                    mem_estimate: est,
                    spec,
                });
                st.queue.push_back(idx);
                st.mem_in_use += est;
                st.accepted += 1;
                self.shared.work.notify_one();
                return Submission::Accepted { id: idx as JobId };
            }
        };
        debug_assert!(degrade);
        // saturated: answer inline with the density-preserving rescale.
        // Sequential on the submitting thread — the whole point is to
        // not touch the saturated worker set.
        let sc = spec.scenario.scaled(self.shared.cfg.degrade_n);
        match run_scenario(&sc, spec.engine, Parallelism::Sequential, spec.seed) {
            Ok(run) => Submission::Degraded(DegradedAnswer {
                n: sc.n,
                outcome: run.outcome.label().to_string(),
                flooding_time: run.report.flooding_time,
                digest: format!("{:016x}", trace_digest(&run.trace)),
            }),
            Err(e) => Submission::Rejected {
                reason: format!("degraded run failed: {e}"),
            },
        }
    }

    /// Point-in-time status of a job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = lock(&self.shared);
        st.jobs.get(id as usize).map(|r| snapshot_status(id, r))
    }

    /// All jobs, in submission order.
    pub fn list(&self) -> Vec<JobStatus> {
        let st = lock(&self.shared);
        st.jobs
            .iter()
            .enumerate()
            .map(|(i, r)| snapshot_status(i as JobId, r))
            .collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SupervisorStats {
        let st = lock(&self.shared);
        SupervisorStats {
            workers: self.shared.cfg.workers.max(1),
            queue_len: st.queue.len(),
            running: st.running,
            draining: st.draining,
            memory_in_use: st.mem_in_use,
            memory_budget: self.shared.cfg.memory_budget_bytes,
            accepted: st.accepted,
            degraded: st.degraded,
            rejected: st.rejected,
        }
    }

    /// Blocks until the job settles (terminal phase) or the timeout
    /// elapses; returns the final status on settle, `Err(last status)`
    /// on timeout, `Err(None)` for an unknown id.
    #[allow(clippy::result_large_err)]
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<JobStatus, Option<JobStatus>> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared);
        loop {
            match st.jobs.get(id as usize) {
                None => return Err(None),
                Some(r) if r.phase.is_terminal() => return Ok(snapshot_status(id, r)),
                Some(r) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Some(snapshot_status(id, r)));
                    }
                    let (guard, _) = self
                        .shared
                        .settled
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
    }

    /// Requests cancellation of a job (user-initiated). Returns whether
    /// the job existed and was still cancellable.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = lock(&self.shared);
        match st.jobs.get_mut(id as usize) {
            Some(r) if !r.phase.is_terminal() => {
                if r.cause.is_none() {
                    r.cause = Some(CancelCause::User);
                }
                r.token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Graceful drain: stop admitting, cancel every non-terminal job
    /// (running jobs flush a final checkpoint at their current step),
    /// wait for all of them to settle, and report the final state of
    /// every job — the resumable set a restarted service picks back up.
    pub fn drain(&self) -> Vec<JobStatus> {
        {
            let mut st = lock(&self.shared);
            st.draining = true;
            for r in st.jobs.iter_mut().filter(|r| !r.phase.is_terminal()) {
                if r.cause.is_none() {
                    r.cause = Some(CancelCause::Drain);
                }
                r.token.cancel();
            }
            // wake idle workers so they consume (and settle) queued jobs
            self.shared.work.notify_all();
        }
        let mut st = lock(&self.shared);
        while st.jobs.iter().any(|r| !r.phase.is_terminal()) {
            st = self
                .shared
                .settled
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.jobs
            .iter()
            .enumerate()
            .map(|(i, r)| snapshot_status(i as JobId, r))
            .collect()
    }

    /// The checkpoint directory a job spec maps to — deterministic in
    /// the job's identity `(scenario, engine, parallelism class,
    /// seed)`, so a restarted service resumes a resubmitted job from
    /// the snapshots its previous incarnation wrote. The parallelism
    /// class is part of the key because it is part of the determinism
    /// class: resuming a `Sequential` checkpoint into a `Chunked` run
    /// would splice two different random universes. A job that ends
    /// `Done` removes the directory (unless a live job shares it), so
    /// resubmitting it runs afresh; the other terminal phases keep it.
    pub fn job_dir(&self, spec: &JobSpec) -> PathBuf {
        job_dir(&self.shared.cfg, spec)
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
            // unblock anything still running so workers can exit
            for r in st.jobs.iter_mut().filter(|r| !r.phase.is_terminal()) {
                r.token.cancel();
            }
            self.shared.work.notify_all();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

fn snapshot_status(id: JobId, r: &JobRecord) -> JobStatus {
    JobStatus {
        id,
        scenario: r.spec.scenario.name.clone(),
        seed: r.spec.seed,
        phase: r.phase.clone(),
        attempts: r.attempts,
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn par_label(p: Parallelism) -> &'static str {
    match p {
        Parallelism::Sequential => "seq",
        Parallelism::Chunked { .. } => "chunked",
    }
}

fn job_dir(cfg: &SupervisorConfig, spec: &JobSpec) -> PathBuf {
    cfg.checkpoint_root.join(format!(
        "{}-{:?}-{}-{:016x}",
        sanitize(&spec.scenario.name),
        spec.engine,
        par_label(spec.parallelism),
        spec.seed
    ))
}

fn watchdog_loop(shared: &Shared) {
    let tick = Duration::from_millis(shared.cfg.watchdog_tick_ms.max(1));
    loop {
        {
            let mut st = lock(shared);
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            for r in st.jobs.iter_mut().filter(|r| !r.phase.is_terminal()) {
                if r.cause.is_none() && r.deadline.is_some_and(|d| now >= d) {
                    r.cause = Some(CancelCause::Deadline);
                    r.token.cancel();
                }
            }
        }
        std::thread::sleep(tick);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let idx = {
            let mut st = lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(idx) = st.queue.pop_front() {
                    st.running += 1;
                    break idx;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, idx);
        let mut st = lock(shared);
        st.running -= 1;
        let est = st.jobs[idx].mem_estimate;
        st.mem_in_use -= est;
        shared.settled.notify_all();
    }
}

/// Executes one job to a terminal phase: attempt → (panic → backoff →
/// resume) … → Done/Failed/DeadlineExceeded/Cancelled.
fn run_job(shared: &Shared, idx: usize) {
    let (spec, token) = {
        let mut st = lock(shared);
        let r = &mut st.jobs[idx];
        r.phase = JobPhase::Running {
            attempt: r.attempts,
        };
        (r.spec.clone(), r.token.clone())
    };
    let dir = job_dir(&shared.cfg, &spec);
    loop {
        let attempt = {
            let mut st = lock(shared);
            let r = &mut st.jobs[idx];
            r.phase = JobPhase::Running {
                attempt: r.attempts,
            };
            r.attempts += 1;
            r.attempts - 1
        };
        let opts = CheckpointOpts {
            dir: dir.clone(),
            cadence: shared.cfg.checkpoint_cadence,
            resume: true,
            label: "job".to_string(),
            step_delay_ms: spec.step_delay_ms,
            cancel: Some(token.clone()),
            panic_at_step: match spec.chaos {
                Chaos::None => None,
                Chaos::PanicOnce { at } => (attempt == 0).then_some(at),
                Chaos::PanicAlways { at } => Some(at),
            },
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenario_checkpointed(
                &spec.scenario,
                spec.engine,
                spec.parallelism,
                spec.seed,
                &opts,
            )
        }));
        let phase = match result {
            Ok(Ok((run, summary))) => {
                if summary.interrupted {
                    let at_step = run.report.steps_run;
                    let cause = lock(shared).jobs[idx].cause;
                    match cause {
                        Some(CancelCause::Deadline) => JobPhase::DeadlineExceeded { at_step },
                        // the interrupted run flushed a checkpoint at
                        // its stop step, unless it writes none or
                        // stopped at step 0
                        _ => JobPhase::Cancelled {
                            resumable_step: summary.newest_written_step(),
                        },
                    }
                } else {
                    JobPhase::Done {
                        digest: format!("{:016x}", trace_digest(&run.trace)),
                        outcome: run.outcome.label().to_string(),
                        flooding_time: run.report.flooding_time,
                        attempts: attempt + 1,
                    }
                }
            }
            Ok(Err(e)) => JobPhase::Failed {
                error: e.to_string(),
                attempts: attempt + 1,
            },
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                if attempt >= shared.cfg.max_retries {
                    JobPhase::Failed {
                        error: msg,
                        attempts: attempt + 1,
                    }
                } else {
                    // capped exponential backoff, then loop back into a
                    // resume-from-newest-checkpoint attempt. The sleep
                    // is sliced so cancellation (deadline, drain) cuts
                    // it short; the next attempt then settles the job
                    // with an accurate resumable step instead of
                    // sleeping through the drain.
                    let delay = shared.cfg.backoff_cap_ms.min(
                        shared
                            .cfg
                            .backoff_base_ms
                            .saturating_mul(1 << attempt.min(20)),
                    );
                    {
                        let mut st = lock(shared);
                        st.jobs[idx].phase = JobPhase::Backoff {
                            attempt: attempt + 1,
                            delay_ms: delay,
                        };
                    }
                    let until = Instant::now() + Duration::from_millis(delay);
                    while Instant::now() < until && !token.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    continue;
                }
            }
        };
        let done = matches!(phase, JobPhase::Done { .. });
        let mut st = lock(shared);
        st.jobs[idx].phase = phase;
        shared.settled.notify_all();
        let live = st
            .live_per_dir
            .get_mut(&dir)
            .expect("admission counted the job");
        *live -= 1;
        let last = *live == 0;
        if last {
            st.live_per_dir.remove(&dir);
        }
        // A finished job never resumes, so its snapshots would only
        // hold disk; the other terminal phases keep theirs, resumable.
        // A live job with the same identity shares the directory and
        // may resume from it, so it stays until the last one is done.
        // Removing under the lock keeps such a job from starting to
        // write here meanwhile.
        if done && last {
            // a directory left behind costs disk only, never a result
            let _ = fs::remove_dir_all(&dir);
        }
        return;
    }
}
