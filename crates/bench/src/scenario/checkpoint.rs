//! Checkpointed scenario execution and divergence bisection.
//!
//! [`run_scenario_checkpointed`] wraps the [`Driver`] loop with atomic
//! snapshot writes — on a step stride or by measured cost
//! ([`Cadence`]) — and a **corruption fallback ladder** on
//! resume: checkpoint files are tried newest-first, every rejection
//! (truncated, bit-flipped, wrong version, incompatible scenario) is
//! recorded with its precise reason, and when nothing in the directory
//! survives the run simply starts fresh — a missing or hostile
//! checkpoint directory can delay a run but never wedge or corrupt it.
//!
//! [`bisect_divergence`] turns a determinism-class violation into a
//! one-step report: it replays two runs that should agree, checkpoints
//! at a stride, and when their state digests split it restores both from
//! the last agreeing pair and single-steps to the first divergent step,
//! naming the snapshot sections that differ.

use super::run::{with_model, Driver, ModelVisitor};
use super::{Scenario, ScenarioError, ScenarioRun};
use fastflood_core::checkpoint::{
    checkpoint_files_newest_first, CheckpointError, Snapshot, CKPT_EXTENSION, TAG_META,
};
use fastflood_core::{CancelToken, EngineMode, Parallelism};
use fastflood_mobility::{Mobility, SnapshotState};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The factor `K` of the cost cadence: under [`Cadence::Cost`] a run
/// writes once the wall time since its last checkpoint ended is at
/// least `K` times what that checkpoint cost. Checkpoints then take at
/// most 1/(K + 1) = 1/11 of the loop's wall time, and a crash loses at
/// most about `K` × the cost of one checkpoint, plus one step, of work.
pub const COST_FACTOR: u32 = 10;

/// When a checkpointed run writes a snapshot (at the top of the driver
/// loop, never at step 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Every `n` steps, at the steps divisible by `n`: deterministic,
    /// so tests and tools can count files. `Steps(0)` writes nothing
    /// (resume-only runs).
    Steps(u32),
    /// By measured cost, the first-order rule of Young ("A first order
    /// approximation to the optimum checkpoint interval", CACM 1974)
    /// and Daly (FGCS 2006): write once the wall time since the last
    /// checkpoint ended reaches [`COST_FACTOR`] times that checkpoint's
    /// cost (snapshot, atomic write, stat and prune). Before the first
    /// write the prior cost is the attempt's set-up time — building the
    /// [`Driver`] plus the resume ladder, which like a snapshot is an
    /// O(n) pass over the population. Wall time counts everything the
    /// loop does, the `step_delay_ms` sleeps included, so a slowed run
    /// still writes.
    Cost,
}

impl Cadence {
    /// Whether this cadence writes at all: every cadence but `Steps(0)`.
    fn writes(self) -> bool {
        self != Cadence::Steps(0)
    }

    /// Whether a checkpoint is due at the top of step `t`, `since_last`
    /// after the previous checkpoint (or the set-up) ended, which took
    /// `last_cost`.
    fn due(self, t: u32, since_last: Duration, last_cost: Duration) -> bool {
        t > 0
            && match self {
                // `Steps(0)`: no `t > 0` is a multiple of 0
                Cadence::Steps(every) => t.is_multiple_of(every),
                Cadence::Cost => since_last >= last_cost * COST_FACTOR,
            }
    }
}

/// How a checkpointed run writes and resumes snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Directory holding this run's `*.ckpt` files.
    pub dir: PathBuf,
    /// When to write a checkpoint; `Cadence::Steps(0)` disables
    /// writing (resume-only runs).
    pub cadence: Cadence,
    /// Scan `dir` for the newest valid checkpoint before starting, and
    /// resume from it when one survives the fallback ladder.
    pub resume: bool,
    /// File-name prefix; files are `{label}-step{t:08}.ckpt`, so
    /// lexicographic order is step order.
    pub label: String,
    /// Test hook: sleep this long after every step, widening the window
    /// in which the crash-recovery harness can kill the process between
    /// checkpoints. `0` (the default) in real runs.
    pub step_delay_ms: u64,
    /// Cooperative cancellation observed between steps (`None` = never
    /// cancelled). On cancellation the run writes one final checkpoint
    /// (when the cadence writes) so the partial state is resumable, then
    /// returns early with [`CheckpointSummary::interrupted`] set; by
    /// the bitwise-resume contract a later resumed run completes
    /// identically to one that was never interrupted.
    pub cancel: Option<CancelToken>,
    /// Chaos hook (like `step_delay_ms`, a test knob): panic before
    /// executing the step at exactly this time, simulating a worker
    /// dying mid-flood. The panic unwinds out of the driver loop —
    /// supervision layers catch it, resume from the newest checkpoint,
    /// and decide whether the hook applies again on the retry.
    pub panic_at_step: Option<u32>,
}

impl CheckpointOpts {
    /// Checkpoints under `dir` every `every` steps
    /// ([`Cadence::Steps`]) with a default label and no resume.
    pub fn new(dir: impl Into<PathBuf>, every: u32) -> CheckpointOpts {
        CheckpointOpts {
            dir: dir.into(),
            cadence: Cadence::Steps(every),
            resume: false,
            label: "run".to_string(),
            step_delay_ms: 0,
            cancel: None,
            panic_at_step: None,
        }
    }
}

/// What a checkpointed run did with its snapshot files.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSummary {
    /// The file the run resumed from and the step it restored to, when
    /// resume found a usable checkpoint.
    pub resumed_from: Option<(PathBuf, u32)>,
    /// Candidates rejected during resume, newest first, each with the
    /// precise reason (decode failure or restore incompatibility).
    pub rejected: Vec<(PathBuf, String)>,
    /// Checkpoint files written by this run, in write order. Only the
    /// newest [`KEEP_CHECKPOINTS`] of the label's files stay on disk.
    pub written: Vec<PathBuf>,
    /// Size in bytes of the largest checkpoint file this run wrote,
    /// taken right after its write (0 when none was written).
    pub largest_bytes: u64,
    /// The run stopped early because its [`CheckpointOpts::cancel`]
    /// token was cancelled; the returned [`ScenarioRun`] is partial and
    /// (when the cadence writes) the last entry of `written` restores it.
    pub interrupted: bool,
}

impl CheckpointSummary {
    /// The step of the newest checkpoint this run wrote — for an
    /// interrupted run, the step its final flush made resumable.
    pub fn newest_written_step(&self) -> Option<u32> {
        let name = self.written.last()?.file_stem()?.to_str()?;
        name.rsplit_once("-step")?.1.parse().ok()
    }
}

/// Checkpoint files a run keeps on disk: the newest, and one fallback
/// rung for a resume that finds the newest unreadable.
pub const KEEP_CHECKPOINTS: usize = 2;

fn ckpt_err(e: CheckpointError) -> ScenarioError {
    ScenarioError::Invalid(format!("checkpoint: {e}"))
}

fn io_err(what: &str, path: &Path, e: &io::Error) -> ScenarioError {
    ScenarioError::Invalid(format!("checkpoint {what} {}: {e}", path.display()))
}

/// Deletes `label`'s checkpoint files in `dir` beyond the newest
/// [`KEEP_CHECKPOINTS`], earlier attempts' included (a file already
/// gone is no error).
fn prune_checkpoints(dir: &Path, label: &str) -> Result<(), ScenarioError> {
    let prefix = format!("{label}-step");
    let files = checkpoint_files_newest_first(dir).map_err(|e| io_err("dir", dir, &e))?;
    let ours = files.iter().filter(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix))
    });
    for old in ours.skip(KEEP_CHECKPOINTS) {
        match fs::remove_file(old) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                return Err(io_err("prune", old, &e));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Runs one scenario trial like
/// [`run_scenario`](super::run_scenario), but checkpointed: a snapshot
/// of the whole run (engine + scenario layer) is written atomically
/// whenever `opts.cadence` says so, and with `opts.resume` the run first walks
/// the directory's fallback ladder and continues from the newest
/// checkpoint that decodes *and* restores. By the bitwise-resume
/// contract the result is identical to the uninterrupted run, whether
/// the run resumed or not. After each write the label's files older
/// than the newest [`KEEP_CHECKPOINTS`] are deleted.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] when the scenario cannot be compiled, the
/// checkpoint directory cannot be created, or a checkpoint write or
/// prune fails.
/// Resume failures are **not** errors: they land in
/// [`CheckpointSummary::rejected`] and the run starts fresh.
pub fn run_scenario_checkpointed(
    sc: &Scenario,
    engine: EngineMode,
    parallelism: Parallelism,
    seed: u64,
    opts: &CheckpointOpts,
) -> Result<(ScenarioRun, CheckpointSummary), ScenarioError> {
    sc.validate()?;
    struct Ckpt<'a> {
        sc: &'a Scenario,
        engine: EngineMode,
        parallelism: Parallelism,
        seed: u64,
        opts: &'a CheckpointOpts,
    }
    impl ModelVisitor for Ckpt<'_> {
        type Out = (ScenarioRun, CheckpointSummary);
        fn visit<M>(self, model: M) -> Result<Self::Out, ScenarioError>
        where
            M: Mobility + Clone,
            M::State: SnapshotState,
        {
            let set_up = Instant::now();
            let mut d = Driver::new(self.sc, model, self.engine, self.parallelism, self.seed)?;
            let mut summary = CheckpointSummary::default();
            if self.opts.resume {
                // an unreadable directory is an empty ladder, not an
                // error: resume must never be worse than starting fresh
                let ladder = checkpoint_files_newest_first(&self.opts.dir).unwrap_or_default();
                for path in ladder {
                    let outcome = Snapshot::read_file(&path).and_then(|snap| d.restore(&snap));
                    match outcome {
                        Ok(()) => {
                            summary.resumed_from = Some((path, d.time()));
                            break;
                        }
                        Err(e) => summary.rejected.push((path, e.to_string())),
                    }
                }
            }
            let cadence = self.opts.cadence;
            if cadence.writes() {
                fs::create_dir_all(&self.opts.dir).map_err(|e| {
                    ScenarioError::Invalid(format!(
                        "checkpoint dir {}: {e}",
                        self.opts.dir.display()
                    ))
                })?;
            }
            // the cost cadence's prior: this attempt's own set-up
            let mut last_cost = set_up.elapsed();
            let mut last_end = Instant::now();
            loop {
                let t = d.time();
                let cancelled = self
                    .opts
                    .cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled);
                // a cancelled run flushes one final (off-cadence)
                // checkpoint so its partial progress is resumable
                if cadence.writes()
                    && t > 0
                    && (cancelled || cadence.due(t, last_end.elapsed(), last_cost))
                {
                    let started = Instant::now();
                    let path = self.opts.dir.join(format!(
                        "{}-step{:08}.{}",
                        self.opts.label, t, CKPT_EXTENSION
                    ));
                    d.snapshot().write_atomic(&path).map_err(ckpt_err)?;
                    let bytes = fs::metadata(&path)
                        .map_err(|e| io_err("stat", &path, &e))?
                        .len();
                    summary.largest_bytes = summary.largest_bytes.max(bytes);
                    summary.written.push(path);
                    prune_checkpoints(&self.opts.dir, &self.opts.label)?;
                    last_end = Instant::now();
                    last_cost = last_end - started;
                }
                if cancelled {
                    summary.interrupted = true;
                    break;
                }
                if self.opts.panic_at_step == Some(t) {
                    panic!("chaos hook: panic_at_step reached step {t}");
                }
                if d.pump() {
                    break;
                }
                d.step();
                if self.opts.step_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(self.opts.step_delay_ms));
                }
            }
            Ok((d.finish(), summary))
        }
    }
    with_model(
        &sc.model,
        Ckpt {
            sc,
            engine,
            parallelism,
            seed,
            opts,
        },
    )
}

/// One side of a bisection: which engine mode and parallelism flavor a
/// run uses.
#[derive(Debug, Clone, Copy)]
pub struct BisectSide {
    /// The engine mode.
    pub engine: EngineMode,
    /// The parallelism flavor.
    pub parallelism: Parallelism,
}

/// What [`bisect_divergence`] found.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// The first step at which the two runs' state digests differ
    /// (after that step's fault events were applied); `None` when the
    /// runs agree end-to-end.
    pub first_divergent: Option<u32>,
    /// The step of the last agreeing checkpoint pair the fine replay
    /// restored from.
    pub replay_from: u32,
    /// Names of the snapshot sections whose payloads differ at the
    /// first divergent step (META excluded; `termination` when one run
    /// ended while the other kept going).
    pub differing_sections: Vec<String>,
    /// Steps the first run had executed when the coarse scan stopped.
    pub steps_a: u32,
    /// Steps the second run had executed when the coarse scan stopped.
    pub steps_b: u32,
}

/// Section tags (as printable names) whose payloads differ between two
/// snapshots, META excluded.
fn differing_sections(a: &Snapshot, b: &Snapshot) -> Vec<String> {
    let mut tags: Vec<[u8; 4]> = a.tags().chain(b.tags()).collect();
    tags.sort_unstable();
    tags.dedup();
    tags.iter()
        .filter(|&&t| t != TAG_META)
        .filter(|&&t| a.section(t) != b.section(t))
        .map(|t| String::from_utf8_lossy(t).into_owned())
        .collect()
}

/// Replays one scenario trial under two engine/parallelism combinations
/// that *should* agree and isolates the first divergent step — the
/// first step at which their state digests split.
///
/// Phase 1 runs both sides in lockstep, comparing digests every `every`
/// steps and keeping the last agreeing snapshot pair. Phase 2 restores
/// two fresh runs from that pair and single-steps with a digest probe
/// after every step, so the report names the exact step — and the exact
/// snapshot sections — where the runs part ways. Runs from different
/// determinism classes (sequential vs chunked-flavor) genuinely diverge
/// at their first move step; the bisector reports that honestly rather
/// than treating it as an error.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] when the scenario cannot be compiled or a
/// phase-2 restore fails (which the bitwise contract rules out for
/// snapshots this function itself just took).
pub fn bisect_divergence(
    sc: &Scenario,
    a: BisectSide,
    b: BisectSide,
    seed: u64,
    every: u32,
) -> Result<BisectReport, ScenarioError> {
    sc.validate()?;
    struct Bisect<'a> {
        sc: &'a Scenario,
        a: BisectSide,
        b: BisectSide,
        seed: u64,
        every: u32,
    }
    impl ModelVisitor for Bisect<'_> {
        type Out = BisectReport;
        fn visit<M>(self, model: M) -> Result<BisectReport, ScenarioError>
        where
            M: Mobility + Clone,
            M::State: SnapshotState,
        {
            let every = self.every.max(1);
            let new_pair = |side_a: BisectSide, side_b: BisectSide| {
                Ok::<_, ScenarioError>((
                    Driver::new(
                        self.sc,
                        model.clone(),
                        side_a.engine,
                        side_a.parallelism,
                        self.seed,
                    )?,
                    Driver::new(
                        self.sc,
                        model.clone(),
                        side_b.engine,
                        side_b.parallelism,
                        self.seed,
                    )?,
                ))
            };

            // -- phase 1: coarse lockstep scan at the checkpoint stride --
            let (mut da, mut db) = new_pair(self.a, self.b)?;
            let mut last_agree: Option<(u32, Snapshot, Snapshot)> = None;
            let mut start_diverged: Option<(Snapshot, Snapshot)> = None;
            loop {
                let t = da.time();
                if t % every == 0 {
                    let (sa, sb) = (da.snapshot(), db.snapshot());
                    if da.digest() == db.digest() {
                        last_agree = Some((t, sa, sb));
                    } else if last_agree.is_none() {
                        // diverged at the very first probe (t = 0): no
                        // agreeing pair exists, report directly
                        start_diverged = Some((sa, sb));
                        break;
                    } else {
                        break;
                    }
                }
                let done_a = da.pump();
                let done_b = db.pump();
                if done_a != done_b {
                    break;
                }
                if done_a {
                    if da.digest() != db.digest() {
                        break; // diverged inside the final partial stride
                    }
                    let (t0, ..) = last_agree.expect("t = 0 probe ran");
                    return Ok(BisectReport {
                        first_divergent: None,
                        replay_from: t0,
                        differing_sections: Vec::new(),
                        steps_a: da.time(),
                        steps_b: db.time(),
                    });
                }
                da.step();
                db.step();
            }
            let (steps_a, steps_b) = (da.time(), db.time());

            if let Some((sa, sb)) = start_diverged {
                return Ok(BisectReport {
                    first_divergent: Some(0),
                    replay_from: 0,
                    differing_sections: differing_sections(&sa, &sb),
                    steps_a,
                    steps_b,
                });
            }

            // -- phase 2: fine replay from the last agreeing pair --
            let (t0, sa, sb) = last_agree.expect("divergence past an agreeing probe");
            let (mut da, mut db) = new_pair(self.a, self.b)?;
            da.restore(&sa).map_err(ckpt_err)?;
            db.restore(&sb).map_err(ckpt_err)?;
            let (mut first_divergent, mut sections) = (None, Vec::new());
            loop {
                let done_a = da.pump();
                let done_b = db.pump();
                let t = da.time();
                if done_a != done_b {
                    first_divergent = Some(t);
                    sections = vec!["termination".to_string()];
                    break;
                }
                let (sa, sb) = (da.snapshot(), db.snapshot());
                if da.digest() != db.digest() {
                    first_divergent = Some(t);
                    sections = differing_sections(&sa, &sb);
                    break;
                }
                if done_a {
                    break; // defensive: the coarse divergence did not replay
                }
                da.step();
                db.step();
            }
            Ok(BisectReport {
                first_divergent,
                replay_from: t0,
                differing_sections: sections,
                steps_a,
                steps_b,
            })
        }
    }
    with_model(
        &sc.model,
        Bisect {
            sc,
            a,
            b,
            seed,
            every,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::{run_scenario, trace_digest};
    use super::super::{CountSpec, Fault, FaultKind, InitSpec, MetricSpec, ModelSpec};
    use super::super::{ProtocolSpec, SourceSpec};
    use super::*;

    fn faulted(n: usize) -> Scenario {
        Scenario {
            name: "ckpt-unit".to_string(),
            seed: 1,
            steps: 60,
            trials: 1,
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
            faults: vec![
                Fault {
                    at: 4,
                    kind: FaultKind::Crash {
                        count: CountSpec::Abs(4),
                        region: None,
                    },
                },
                Fault {
                    at: 11,
                    kind: FaultKind::Revive { count: 0 },
                },
            ],
        }
    }

    /// Resume-identity comparison: everything except [`FallbackStats`],
    /// which re-count from the resume point by design.
    fn assert_same_run(a: &ScenarioRun, b: &ScenarioRun) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report, b.report);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.initial_giant_fraction.to_bits(),
            b.initial_giant_fraction.to_bits()
        );
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fastflood-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_and_resumes_from_newest() {
        let sc = faulted(80);
        let dir = tmp_dir("roundtrip");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7).unwrap();

        let mut opts = CheckpointOpts::new(&dir, 5);
        let (run, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7, &opts)
                .unwrap();
        assert_eq!(run, reference, "checkpoint writes must not perturb the run");
        assert!(summary.resumed_from.is_none());
        assert!(summary.written.len() >= 2, "{:?}", summary.written);
        // the newest files stay on disk, every older one is pruned
        let (pruned, kept) = summary
            .written
            .split_at(summary.written.len() - KEEP_CHECKPOINTS);
        assert!(kept.iter().all(|p| p.exists()));
        assert!(pruned.iter().all(|p| !p.exists()));
        let mut on_disk = checkpoint_files_newest_first(&dir).unwrap();
        on_disk.reverse();
        assert_eq!(on_disk, kept);

        opts.resume = true;
        let (resumed, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7, &opts)
                .unwrap();
        let (path, step) = summary.resumed_from.expect("a valid checkpoint exists");
        assert_eq!(step % 5, 0);
        assert!(step > 0);
        assert_eq!(
            path.file_name(),
            checkpoint_files_newest_first(&dir).unwrap()[0].file_name()
        );
        assert!(summary.rejected.is_empty());
        assert_same_run(&resumed, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_prune_the_labels_older_checkpoints() {
        let sc = faulted(80);
        let dir = tmp_dir("prune");
        // another label's file and a file of an earlier attempt
        fs::write(
            dir.join(format!("other-step00000001.{CKPT_EXTENSION}")),
            b"x",
        )
        .unwrap();
        fs::write(dir.join(format!("run-step00000001.{CKPT_EXTENSION}")), b"x").unwrap();
        let opts = CheckpointOpts::new(&dir, 2);
        let (_, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7, &opts)
                .unwrap();
        assert!(
            summary.written.len() > KEEP_CHECKPOINTS,
            "{:?}",
            summary.written
        );
        let kept = &summary.written[summary.written.len() - KEEP_CHECKPOINTS..];
        let mut want: Vec<PathBuf> = kept.to_vec();
        want.push(dir.join(format!("other-step00000001.{CKPT_EXTENSION}")));
        want.sort();
        want.reverse();
        assert_eq!(checkpoint_files_newest_first(&dir).unwrap(), want);
        let largest = kept.iter().map(|p| fs::metadata(p).unwrap().len()).max();
        assert!(summary.largest_bytes >= largest.unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The due-rule as a pure function: a stride counts steps, the cost
    /// cadence compares the time since the last write with `K` times
    /// that write's cost (the set-up time before the first write), and
    /// no cadence writes at step 0.
    #[test]
    fn cadence_due_rule() {
        let ms = Duration::from_millis;
        // Steps(0) never writes, whatever the clock says
        assert!(!Cadence::Steps(0).writes());
        assert!(!Cadence::Steps(0).due(25, ms(1_000), ms(0)));
        // a stride is due at its multiples only, and never at step 0
        assert!(Cadence::Steps(25).writes());
        assert!(Cadence::Steps(25).due(50, ms(0), ms(1_000)));
        assert!(!Cadence::Steps(25).due(51, ms(1_000), ms(0)));
        assert!(!Cadence::Steps(25).due(0, ms(0), ms(0)));
        // the K boundary: due at exactly K times the cost, not before
        let cost = ms(3);
        assert!(Cadence::Cost.writes());
        assert!(Cadence::Cost.due(7, cost * COST_FACTOR, cost));
        let just_short = cost * COST_FACTOR - Duration::from_nanos(1);
        assert!(!Cadence::Cost.due(7, just_short, cost));
        assert!(!Cadence::Cost.due(0, cost * COST_FACTOR * 100, cost));
        // the prior: a 5 ms set-up puts the first write at 50 ms
        let set_up = ms(5);
        assert!(!Cadence::Cost.due(1, ms(49), set_up));
        assert!(Cadence::Cost.due(1, ms(50), set_up));
        // a measured cost replaces the prior; the step count is moot
        assert!(Cadence::Cost.due(9, ms(20), ms(2)));
        assert!(!Cadence::Cost.due(u32::MAX, ms(19), ms(2)));
    }

    /// The cost cadence never perturbs a run; a slowed run writes
    /// checkpoints by it, and its newest one resumes bitwise.
    #[test]
    fn cost_cadence_writes_for_a_slowed_run_and_resumes_identically() {
        // 60 steps of 5 ms: the set-up of 80 agents is far below the
        // 30 ms that would defer the first write past the end
        let mut sc = slow(80);
        sc.steps = 60;
        let dir = tmp_dir("cost");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 19).unwrap();
        let mut opts = CheckpointOpts::new(&dir, 0);
        opts.cadence = Cadence::Cost;
        opts.step_delay_ms = 5;
        let (run, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            19,
            &opts,
        )
        .unwrap();
        assert_eq!(run, reference, "checkpoint writes must not perturb the run");
        assert!(!summary.written.is_empty(), "the delays count as work");
        let newest = summary.newest_written_step().expect("a step in the name");
        assert!(newest > 0 && newest <= run.report.steps_run);

        let mut opts = CheckpointOpts::new(&dir, 0);
        opts.resume = true;
        let (resumed, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            19,
            &opts,
        )
        .unwrap();
        assert_eq!(summary.resumed_from.as_ref().map(|r| r.1), Some(newest));
        assert_same_run(&resumed, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ladder_falls_past_bitflip_and_truncation() {
        let sc = faulted(80);
        let dir = tmp_dir("ladder");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 9).unwrap();
        let mut opts = CheckpointOpts::new(&dir, 4);
        run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 9, &opts)
            .unwrap();

        // the run keeps two rungs; a copy of the older one named one
        // step later becomes the middle rung (truncated below)
        let kept = checkpoint_files_newest_first(&dir).unwrap();
        assert_eq!(kept.len(), KEEP_CHECKPOINTS, "{kept:?}");
        let older: u32 = kept[1].file_stem().unwrap().to_str().unwrap()["run-step".len()..]
            .parse()
            .unwrap();
        let middle = dir.join(format!("run-step{:08}.{CKPT_EXTENSION}", older + 1));
        fs::copy(&kept[1], middle).unwrap();
        let files = checkpoint_files_newest_first(&dir).unwrap();
        assert!(files.len() >= 3, "need a ladder: {files:?}");
        // bit-flip the newest, truncate the second newest
        let mut bytes = fs::read(&files[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&files[0], &bytes).unwrap();
        let bytes = fs::read(&files[1]).unwrap();
        fs::write(&files[1], &bytes[..bytes.len() / 3]).unwrap();

        opts.resume = true;
        opts.cadence = Cadence::Steps(0); // resume-only: don't overwrite the corrupted files
        let (resumed, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 9, &opts)
                .unwrap();
        assert_eq!(summary.rejected.len(), 2, "{:?}", summary.rejected);
        let (path, _) = summary.resumed_from.expect("third-newest survives");
        assert_eq!(path, files[2]);
        assert_same_run(&resumed, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_nothing_valid_starts_fresh() {
        let sc = faulted(70);
        let dir = tmp_dir("fresh");
        let reference = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 3).unwrap();
        fs::write(dir.join("bogus-step00000008.ckpt"), b"not a checkpoint").unwrap();
        // a checkpoint from a *different* scenario decodes but must be
        // rejected as incompatible
        let other = faulted(50);
        let mut opts = CheckpointOpts::new(&dir, 6);
        opts.label = "other".to_string();
        run_scenario_checkpointed(
            &other,
            EngineMode::Oracle,
            Parallelism::Sequential,
            3,
            &opts,
        )
        .unwrap();

        let mut opts = CheckpointOpts::new(&dir, 0);
        opts.resume = true;
        let (run, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Oracle, Parallelism::Sequential, 3, &opts)
                .unwrap();
        assert!(summary.resumed_from.is_none());
        assert!(summary.rejected.len() >= 2, "{:?}", summary.rejected);
        assert_eq!(run, reference, "fresh start after total ladder failure");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint in the previous format (version 1) is not decoded:
    /// the ladder records why and passes over it, and with nothing else
    /// to resume from the run starts fresh and ends as an uninterrupted
    /// one.
    #[test]
    fn resume_skips_a_version_one_file_and_starts_fresh() {
        let sc = faulted(70);
        let dir = tmp_dir("v1");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 13).unwrap();
        let opts = CheckpointOpts::new(&dir, 6);
        run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            13,
            &opts,
        )
        .unwrap();
        let files = checkpoint_files_newest_first(&dir).unwrap();
        // rewrite the newest as version 1 and drop the rest
        let mut bytes = fs::read(&files[0]).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&files[0], bytes).unwrap();
        for older in &files[1..] {
            fs::remove_file(older).unwrap();
        }

        let mut opts = CheckpointOpts::new(&dir, 0);
        opts.resume = true;
        let (run, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            13,
            &opts,
        )
        .unwrap();
        assert!(summary.resumed_from.is_none());
        assert_eq!(summary.rejected.len(), 1, "{:?}", summary.rejected);
        let (path, why) = &summary.rejected[0];
        assert_eq!(path, &files[0]);
        assert!(why.contains("unsupported snapshot version 1"), "{why}");
        assert_same_run(&run, &reference);
        assert_eq!(trace_digest(&run.trace), trace_digest(&reference.trace));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_missing_directory_is_a_fresh_start() {
        let sc = faulted(60);
        let mut opts = CheckpointOpts::new("/nonexistent/fastflood-ckpt", 0);
        opts.resume = true;
        let (run, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 5, &opts)
                .unwrap();
        assert!(summary.resumed_from.is_none());
        assert!(summary.rejected.is_empty());
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 5).unwrap();
        assert_eq!(run, reference);
    }

    /// A scenario too slow to flood on its own within the test window,
    /// so a watcher thread always gets to cancel mid-run.
    fn slow(n: usize) -> Scenario {
        let mut sc = faulted(n);
        sc.steps = 10_000;
        sc.radius = 0.6;
        sc
    }

    #[test]
    fn pre_cancelled_run_returns_immediately_as_interrupted() {
        let sc = faulted(80);
        let dir = tmp_dir("precancel");
        let mut opts = CheckpointOpts::new(&dir, 5);
        let token = CancelToken::new();
        token.cancel();
        opts.cancel = Some(token);
        let (run, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 7, &opts)
                .unwrap();
        assert!(summary.interrupted);
        assert!(summary.written.is_empty(), "nothing to persist at t = 0");
        assert_eq!(run.report.steps_run, 0, "no step may run past the flag");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_run_flushes_a_final_checkpoint_and_resumes_identically() {
        let sc = slow(70);
        let dir = tmp_dir("cancel");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 21).unwrap();

        let mut opts = CheckpointOpts::new(&dir, 5);
        opts.step_delay_ms = 2;
        let token = CancelToken::new();
        opts.cancel = Some(token.clone());
        let watcher = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                // cancel as soon as the run has persisted something, so
                // the interruption always lands mid-run
                while checkpoint_files_newest_first(&dir)
                    .unwrap_or_default()
                    .is_empty()
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                token.cancel();
            })
        };
        let (partial, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            21,
            &opts,
        )
        .unwrap();
        watcher.join().unwrap();
        assert!(summary.interrupted, "the watcher must have cancelled");
        assert!(!summary.written.is_empty());
        let stopped_at = partial.report.steps_run;
        assert!(
            stopped_at > 0 && stopped_at < sc.steps,
            "cancellation must land mid-run, stopped at {stopped_at}"
        );
        // the final flush makes the exact stop step resumable
        let newest = &checkpoint_files_newest_first(&dir).unwrap()[0];
        assert!(newest
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains(&format!("step{stopped_at:08}")));

        let mut opts = CheckpointOpts::new(&dir, 0);
        opts.resume = true;
        let (resumed, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            21,
            &opts,
        )
        .unwrap();
        assert_eq!(summary.resumed_from.as_ref().unwrap().1, stopped_at);
        assert!(!summary.interrupted);
        assert_same_run(&resumed, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_at_step_unwinds_and_the_checkpoint_ladder_recovers() {
        let sc = faulted(80);
        let dir = tmp_dir("chaos");
        let reference =
            run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 17).unwrap();

        let mut opts = CheckpointOpts::new(&dir, 5);
        opts.panic_at_step = Some(12);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_scenario_checkpointed(
                &sc,
                EngineMode::Adaptive,
                Parallelism::Sequential,
                17,
                &opts,
            )
        }));
        let payload = crashed.expect_err("the chaos hook must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries its message");
        assert!(msg.contains("panic_at_step"), "{msg}");
        assert!(
            !checkpoint_files_newest_first(&dir).unwrap().is_empty(),
            "checkpoints from before the crash must survive"
        );

        // restart like a supervisor would: resume, no chaos hook
        let mut opts = CheckpointOpts::new(&dir, 5);
        opts.resume = true;
        let (resumed, summary) = run_scenario_checkpointed(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            17,
            &opts,
        )
        .unwrap();
        let (_, step) = summary.resumed_from.expect("a pre-crash checkpoint");
        assert!(step > 0 && step < 12, "resumed below the crash step");
        assert_same_run(&resumed, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bisect_agreeing_runs_reports_no_divergence() {
        let sc = faulted(70);
        let report = bisect_divergence(
            &sc,
            BisectSide {
                engine: EngineMode::Adaptive,
                parallelism: Parallelism::Sequential,
            },
            BisectSide {
                engine: EngineMode::Oracle,
                parallelism: Parallelism::Sequential,
            },
            11,
            8,
        )
        .unwrap();
        assert_eq!(report.first_divergent, None, "{report:?}");
        assert!(report.differing_sections.is_empty());
        assert_eq!(report.steps_a, report.steps_b);
    }

    #[test]
    fn bisect_cross_class_isolates_the_first_move_step() {
        let sc = faulted(70);
        let report = bisect_divergence(
            &sc,
            BisectSide {
                engine: EngineMode::Adaptive,
                parallelism: Parallelism::Sequential,
            },
            BisectSide {
                engine: EngineMode::Adaptive,
                parallelism: Parallelism::Chunked { threads: 1 },
            },
            11,
            8,
        )
        .unwrap();
        // different determinism classes: identical at t = 0, split on the
        // first move step — the fine replay must pin exactly that
        assert_eq!(report.first_divergent, Some(1), "{report:?}");
        assert_eq!(report.replay_from, 0);
        // at step 1 every agent takes the boundary pass, so both sides'
        // positions equal their trajectory points and POSN's deltas are
        // all zero: the trajectories themselves differ
        assert!(
            report.differing_sections.iter().any(|s| s == "AGNT"),
            "trajectories are where cross-class runs visibly part ways: {report:?}"
        );
    }
}
