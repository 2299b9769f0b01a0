//! Supervisor failure-path coverage: deadline-exceeded jobs are
//! cancelled and reported (not hung), retry budget exhaustion surfaces
//! the last error, a panicked job restarts from its newest checkpoint
//! with a final digest equal to the uninterrupted reference, admission
//! control degrades/rejects under saturation, and drain settles every
//! job with its resumable state — which a fresh supervisor on the same
//! checkpoint root then actually resumes. The admission memory model
//! bounds every checkpoint the scenario library writes at floodd's job
//! size.

use fastflood_bench::scenario::{
    library, run_scenario, run_scenario_checkpointed, trace_digest, Cadence, CheckpointOpts,
    InitSpec, MetricSpec, ModelSpec, ProtocolSpec, Scenario, SourceSpec,
};
use fastflood_core::{EngineMode, Parallelism};
use fastflood_service::{
    estimate_snapshot_bytes, Chaos, JobPhase, JobSpec, Submission, Supervisor, SupervisorConfig,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A small scenario that floods quickly.
fn quick(name: &str) -> Scenario {
    Scenario {
        name: name.to_string(),
        seed: 1,
        steps: 600,
        trials: 1,
        metric: MetricSpec::Flooding,
        model: ModelSpec::Mrwp {
            side: 12.0,
            speed: 0.5,
            pause: 0,
        },
        n: 60,
        radius: 2.5,
        init: InitSpec::Stationary,
        protocol: ProtocolSpec::Flooding,
        clusters: Vec::new(),
        source: SourceSpec::SwCorner,
        exits: Vec::new(),
        faults: Vec::new(),
    }
}

/// A sparse scenario with a huge step budget — slow enough (with a
/// step delay) that deadlines, drains, and kills always land mid-run.
fn slow(name: &str) -> Scenario {
    let mut sc = quick(name);
    sc.steps = 10_000;
    sc.radius = 0.6;
    sc.n = 70;
    sc
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("floodd-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(root: PathBuf) -> SupervisorConfig {
    SupervisorConfig {
        workers: 1,
        queue_limit: 16,
        memory_budget_bytes: 512 * 1024 * 1024,
        checkpoint_root: root,
        checkpoint_cadence: Cadence::Steps(5),
        max_retries: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 10,
        watchdog_tick_ms: 5,
        degrade_n: 50,
    }
}

fn submit_ok(sup: &Supervisor, spec: JobSpec) -> u64 {
    match sup.submit(spec) {
        Submission::Accepted { id } => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn deadline_exceeded_is_reported_and_the_service_keeps_serving() {
    let sup = Supervisor::new(cfg(tmp_root("deadline")));
    let mut spec = JobSpec::new(
        slow("deadline-victim"),
        EngineMode::Adaptive,
        Parallelism::Sequential,
        11,
    );
    spec.deadline_ms = Some(40);
    spec.step_delay_ms = 5;
    let submitted = Instant::now();
    let id = submit_ok(&sup, spec);

    let status = sup.wait(id, WAIT).expect("job must settle, not hang");
    let JobPhase::DeadlineExceeded { .. } = status.phase else {
        panic!("expected deadline_exceeded, got {:?}", status.phase);
    };
    // the watchdog ticks every 5 ms and the driver observes the token
    // at the next (delayed) step boundary: settling must be prompt,
    // nothing close to the scenario's natural runtime
    assert!(
        submitted.elapsed() < Duration::from_secs(30),
        "deadline enforcement took {:?}",
        submitted.elapsed()
    );

    // the service is still accepting and completing jobs afterwards
    let id = submit_ok(
        &sup,
        JobSpec::new(
            quick("after-deadline"),
            EngineMode::Adaptive,
            Parallelism::Sequential,
            12,
        ),
    );
    let status = sup.wait(id, WAIT).expect("follow-up job settles");
    assert!(
        matches!(status.phase, JobPhase::Done { .. }),
        "follow-up job must complete: {:?}",
        status.phase
    );
}

#[test]
fn retry_budget_exhaustion_surfaces_the_last_error() {
    let root = tmp_root("budget");
    let mut c = cfg(root);
    c.max_retries = 2;
    c.checkpoint_cadence = Cadence::Steps(0); // fresh attempts: the chaos step is always reached
    let sup = Supervisor::new(c);

    let mut spec = JobSpec::new(
        quick("always-crashes"),
        EngineMode::Adaptive,
        Parallelism::Sequential,
        21,
    );
    spec.chaos = Chaos::PanicAlways { at: 3 };
    let id = submit_ok(&sup, spec);

    let status = sup.wait(id, WAIT).expect("exhaustion must settle");
    let JobPhase::Failed { error, attempts } = &status.phase else {
        panic!("expected failure, got {:?}", status.phase);
    };
    assert_eq!(*attempts, 3, "max_retries = 2 means three attempts");
    assert!(
        error.contains("panic_at_step") && error.contains("step 3"),
        "the last attempt's own panic message must survive: {error:?}"
    );
}

#[test]
fn panicked_job_restarts_from_checkpoint_and_matches_the_reference() {
    let root = tmp_root("restart");
    let mut c = cfg(root);
    c.checkpoint_cadence = Cadence::Steps(1);
    let sup = Supervisor::new(c);
    let sc = quick("crashes-once");
    let reference = {
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 5).unwrap();
        format!("{:016x}", trace_digest(&run.trace))
    };

    let mut spec = JobSpec::new(sc, EngineMode::Adaptive, Parallelism::Sequential, 5);
    // step 2 is always reached: flooding the 12×12 torus at radius 2.5
    // needs at least four hops from the corner source
    spec.chaos = Chaos::PanicOnce { at: 2 };
    let dir = sup.job_dir(&spec);
    let id = submit_ok(&sup, spec);

    let status = sup.wait(id, WAIT).expect("restarted job settles");
    let JobPhase::Done {
        digest, attempts, ..
    } = &status.phase
    else {
        panic!("expected completion, got {:?}", status.phase);
    };
    assert_eq!(*attempts, 2, "one crash, one successful restart");
    assert_eq!(
        digest, &reference,
        "the restarted run must be bitwise-identical to the uninterrupted one"
    );
    assert!(!dir.exists(), "a done job removes its checkpoints");
}

/// The default cadence is by cost: a slowed job that panics once, past
/// its first checkpoint, restarts from a checkpoint and still matches
/// the uninterrupted reference.
#[test]
fn default_cost_cadence_restarts_a_panicked_job_from_a_checkpoint() {
    // the default config, with a backoff long enough for the test to
    // see what the first attempt left on disk before the restart
    let sup = Supervisor::new(SupervisorConfig {
        checkpoint_root: tmp_root("cost-restart"),
        backoff_base_ms: 300,
        ..SupervisorConfig::default()
    });
    assert_eq!(
        SupervisorConfig::default().checkpoint_cadence,
        Cadence::Cost
    );
    let mut sc = slow("cost-crashes-once");
    sc.steps = 60;
    let reference = {
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 71).unwrap();
        format!("{:016x}", trace_digest(&run.trace))
    };
    let mut spec = JobSpec::new(sc, EngineMode::Adaptive, Parallelism::Sequential, 71);
    // 30 steps of 5 ms before the panic: setting up 70 agents takes far
    // less than the 15 ms that would put the first write past them
    spec.step_delay_ms = 5;
    spec.chaos = Chaos::PanicOnce { at: 30 };
    let dir = sup.job_dir(&spec);
    let id = submit_ok(&sup, spec);

    let t0 = Instant::now();
    loop {
        let phase = sup.status(id).unwrap().phase;
        if matches!(phase, JobPhase::Backoff { .. }) {
            break;
        }
        assert!(
            !phase.is_terminal(),
            "the first attempt must panic: {phase:?}"
        );
        assert!(t0.elapsed() < WAIT, "the job never backed off");
        std::thread::sleep(Duration::from_millis(1));
    }
    // the first attempt's checkpoints, which the restart resumes from
    let steps: Vec<u32> = std::fs::read_dir(&dir)
        .expect("the first attempt wrote checkpoints")
        .map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let stem = name.strip_suffix(".ckpt").expect("only checkpoint files");
            stem.rsplit_once("-step").unwrap().1.parse().unwrap()
        })
        .collect();
    assert!(
        !steps.is_empty() && steps.iter().all(|&t| t > 0 && t <= 30),
        "{steps:?}"
    );

    let status = sup.wait(id, WAIT).expect("restarted job settles");
    let JobPhase::Done {
        digest, attempts, ..
    } = &status.phase
    else {
        panic!("expected completion, got {:?}", status.phase);
    };
    assert_eq!(*attempts, 2, "one crash, one successful restart");
    assert_eq!(digest, &reference);
    assert!(!dir.exists(), "a done job removes its checkpoints");
}

/// A `Done` job's checkpoints are removed; those of a job that can
/// still resume (failed, cancelled, past its deadline) stay, and so do
/// those of a finished job while a queued job with the same identity
/// may resume from them.
#[test]
fn done_jobs_remove_their_checkpoints_and_resumable_ones_keep_them() {
    let sup = Supervisor::new(cfg(tmp_root("cleanup")));
    let files = |dir: &PathBuf| std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
    let spec =
        |sc: Scenario, seed| JobSpec::new(sc, EngineMode::Adaptive, Parallelism::Sequential, seed);
    let running = |id| {
        let t0 = Instant::now();
        while !matches!(sup.status(id).unwrap().phase, JobPhase::Running { .. }) {
            assert!(t0.elapsed() < WAIT, "job {id} never started");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // failed after checkpointing steps 5 and 10
    let mut failing = spec(slow("cleanup-fails"), 61);
    failing.chaos = Chaos::PanicAlways { at: 12 };
    let failing_dir = sup.job_dir(&failing);
    let id = submit_ok(&sup, failing);
    let status = sup.wait(id, WAIT).expect("settles");
    assert!(
        matches!(status.phase, JobPhase::Failed { .. }),
        "{status:?}"
    );
    assert!(
        files(&failing_dir) > 0,
        "a failed job keeps its checkpoints"
    );

    // past its deadline, and cancelled
    let mut late = spec(slow("cleanup-late"), 62);
    late.deadline_ms = Some(200);
    // about 8 steps before the deadline, of the 36 this flood needs
    late.step_delay_ms = 25;
    let late_dir = sup.job_dir(&late);
    let id = submit_ok(&sup, late);
    let status = sup.wait(id, WAIT).expect("settles");
    assert!(
        matches!(status.phase, JobPhase::DeadlineExceeded { at_step } if at_step > 0),
        "{status:?}"
    );
    assert!(
        files(&late_dir) > 0,
        "a job past its deadline keeps its checkpoints"
    );
    let mut cancelled = spec(slow("cleanup-cancelled"), 63);
    cancelled.step_delay_ms = 25;
    let cancelled_dir = sup.job_dir(&cancelled);
    let id = submit_ok(&sup, cancelled);
    running(id);
    while files(&cancelled_dir) == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(sup.cancel(id));
    let status = sup.wait(id, WAIT).expect("settles");
    assert!(
        matches!(
            status.phase,
            JobPhase::Cancelled {
                resumable_step: Some(_)
            }
        ),
        "{status:?}"
    );
    assert!(
        files(&cancelled_dir) > 0,
        "a cancelled job keeps its checkpoints"
    );

    // done: the one worker runs `first`, then a slow hog, while a
    // second job with `first`'s identity waits in the queue
    let sc = quick("cleanup-done");
    let reference = {
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 64).unwrap();
        format!("{:016x}", trace_digest(&run.trace))
    };
    let first = spec(sc.clone(), 64);
    let done_dir = sup.job_dir(&first);
    let first = submit_ok(&sup, first);
    let mut hog = spec(slow("cleanup-hog"), 65);
    hog.step_delay_ms = 5;
    let hog = submit_ok(&sup, hog);
    let twin = submit_ok(&sup, spec(sc, 64));
    let status = sup.wait(first, WAIT).expect("settles");
    assert!(matches!(status.phase, JobPhase::Done { .. }), "{status:?}");
    assert!(
        files(&done_dir) > 0,
        "a queued job with the same identity keeps the finished job's checkpoints"
    );
    assert!(sup.cancel(hog));
    let status = sup.wait(twin, WAIT).expect("settles");
    let JobPhase::Done { digest, .. } = &status.phase else {
        panic!("the twin must complete: {:?}", status.phase);
    };
    assert_eq!(digest, &reference);
    assert!(
        !done_dir.exists(),
        "the last done job removes the checkpoints"
    );
}

#[test]
fn admission_degrades_when_saturated_and_rejects_past_the_memory_budget() {
    let root = tmp_root("admission");
    let mut c = cfg(root);
    c.queue_limit = 1;
    let sup = Supervisor::new(c);

    // occupy the single worker with a slow job
    let mut hog = JobSpec::new(
        slow("hog"),
        EngineMode::Adaptive,
        Parallelism::Sequential,
        31,
    );
    hog.step_delay_ms = 5;
    let hog_id = submit_ok(&sup, hog);
    let t0 = Instant::now();
    while !matches!(sup.status(hog_id).unwrap().phase, JobPhase::Running { .. }) {
        assert!(t0.elapsed() < WAIT, "hog never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // fill the queue to its bound…
    let queued_id = submit_ok(
        &sup,
        JobSpec::new(
            quick("queued"),
            EngineMode::Adaptive,
            Parallelism::Sequential,
            32,
        ),
    );
    // …so the next submission gets the explicitly-labeled degraded
    // answer (the quick rescale), not an unbounded queue slot
    let spec = JobSpec::new(
        quick("degrade-me"),
        EngineMode::Adaptive,
        Parallelism::Sequential,
        33,
    );
    let reference = {
        let sc = spec.scenario.scaled(50);
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 33).unwrap();
        format!("{:016x}", trace_digest(&run.trace))
    };
    let Submission::Degraded(answer) = sup.submit(spec) else {
        panic!("expected a degraded answer past the queue bound");
    };
    assert_eq!(
        answer.n, 50,
        "the degraded run uses the rescaled population"
    );
    assert_eq!(
        answer.digest, reference,
        "the degraded answer is itself deterministic"
    );
    assert_eq!(sup.stats().degraded, 1);

    // free the worker, let the queued job finish
    assert!(sup.cancel(hog_id), "hog is cancellable");
    let hog_final = sup.wait(hog_id, WAIT).expect("cancelled hog settles");
    assert!(
        matches!(hog_final.phase, JobPhase::Cancelled { .. }),
        "user cancel reports as cancelled: {:?}",
        hog_final.phase
    );
    let queued_final = sup.wait(queued_id, WAIT).expect("queued job settles");
    assert!(
        matches!(queued_final.phase, JobPhase::Done { .. }),
        "{:?}",
        queued_final.phase
    );

    // a separate supervisor with a tiny memory budget rejects big jobs
    // outright (estimate model: 64 KiB + 128 B/agent)
    let mut c = cfg(tmp_root("memory"));
    c.memory_budget_bytes = 1024 * 1024;
    let sup = Supervisor::new(c);
    let mut big = quick("too-big");
    big.n = 20_000;
    match sup.submit(JobSpec::new(
        big,
        EngineMode::Adaptive,
        Parallelism::Sequential,
        41,
    )) {
        Submission::Rejected { reason } => {
            assert!(reason.contains("overloaded"), "{reason:?}")
        }
        other => panic!("expected overload rejection, got {other:?}"),
    }
    assert_eq!(sup.stats().rejected, 1);
}

#[test]
fn drain_reports_resumable_state_and_a_fresh_supervisor_resumes_it() {
    let root = tmp_root("drain");
    let sc = slow("drain-victim");
    let reference = {
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 51).unwrap();
        format!("{:016x}", trace_digest(&run.trace))
    };

    let resumable_step = {
        let mut c = cfg(root.clone());
        c.checkpoint_cadence = Cadence::Steps(3);
        let sup = Supervisor::new(c);
        let mut spec = JobSpec::new(
            sc.clone(),
            EngineMode::Adaptive,
            Parallelism::Sequential,
            51,
        );
        spec.step_delay_ms = 5;
        let id = submit_ok(&sup, spec);
        // let it run long enough to have checkpointed real progress
        let t0 = Instant::now();
        while !matches!(sup.status(id).unwrap().phase, JobPhase::Running { .. }) {
            assert!(t0.elapsed() < WAIT, "job never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(100));

        let drained = sup.drain();
        let victim = drained.iter().find(|s| s.id == id).expect("job reported");
        let JobPhase::Cancelled { resumable_step } = victim.phase else {
            panic!("drain must cancel the running job: {:?}", victim.phase);
        };
        let step = resumable_step.expect("progress was checkpointed");
        assert!(step > 0);

        // draining supervisors admit nothing
        match sup.submit(JobSpec::new(
            quick("late"),
            EngineMode::Adaptive,
            Parallelism::Sequential,
            52,
        )) {
            Submission::Rejected { reason } => assert!(reason.contains("draining"), "{reason:?}"),
            other => panic!("expected drain rejection, got {other:?}"),
        }
        step
    };

    // a fresh supervisor on the same checkpoint root picks the job
    // back up from the drained state and converges to the reference
    let mut c = cfg(root);
    c.checkpoint_cadence = Cadence::Steps(50);
    let sup = Supervisor::new(c);
    let spec = JobSpec::new(sc, EngineMode::Adaptive, Parallelism::Sequential, 51);
    let id = submit_ok(&sup, spec);
    let status = sup.wait(id, WAIT).expect("resumed job settles");
    let JobPhase::Done { digest, .. } = &status.phase else {
        panic!("resumed job must complete: {:?}", status.phase);
    };
    assert_eq!(
        digest, &reference,
        "resume from the drained checkpoint (step {resumable_step}) must be bitwise-identical"
    );
}

/// Admission charges each job [`estimate_snapshot_bytes`]; the estimate
/// must not under-count a real checkpoint. Checked at n = 20 000, the
/// `floodd-jobs` job size: much below 10k the fixed 64 KiB header hides
/// a per-agent overshoot.
#[test]
fn snapshot_estimate_bounds_every_library_checkpoint() {
    const N: usize = 20_000;
    let bound = estimate_snapshot_bytes(N);
    for sc in library() {
        let sc = sc.scaled(N);
        let dir = tmp_root(&format!("estimate-{}", sc.name));
        let opts = CheckpointOpts::new(&dir, 10);
        let (_, summary) =
            run_scenario_checkpointed(&sc, EngineMode::Adaptive, Parallelism::Sequential, 1, &opts)
                .unwrap();
        assert!(
            !summary.written.is_empty(),
            "{} wrote no checkpoint",
            sc.name
        );
        // every file is sized as it is written: older ones are pruned
        assert!(
            summary.largest_bytes <= bound,
            "{}: a checkpoint is {} B, over the {bound} B estimate",
            sc.name,
            summary.largest_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
