//! `floodd-jobs`: a real `floodd --workers 2` on a fresh checkpoint root
//! (default stride of 25 steps), under a closed loop of two client
//! connections. Each client submits the next job, then `wait`s for it.
//! Jobs cycle through the library scenarios at n = 20 000, each with a
//! seed no other job of the run uses, so no job resumes from another
//! job's checkpoints.
//!
//! The traced run spends the first half of its time untraced and the
//! second half pinging after every job and sampling the daemon's CPU
//! time. Then, in-process, it replays one job per scenario with the
//! daemon's checkpoint stride and times each checkpoint call.

use crate::{median, quantile, ratio, sys, Args, Outcome};
use fastflood_bench::scenario::{
    library, run_scenario, run_scenario_checkpointed, trace_digest, CheckpointOpts, Driver,
    FaultKind, ModelSpec, Outcome as RunOutcome, Scenario,
};
use fastflood_core::{EngineMode, Parallelism, Snapshot};
use fastflood_mobility::{
    DiskWalk, Mixture, Mobility, Mrwp, Placement, Rwp, SnapshotState, Static, StreetMrwp,
};
use fastflood_service::Json;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, and the daemon's worker count.
const CLIENTS: usize = 2;
/// `floodd`'s default `--checkpoint-every`.
const STRIDE: u32 = 25;
/// Daemon start-ups timed per run for `setup_s`; the last one serves.
const SPAWNS: usize = 5;
/// How long one request may take before the run gives up.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One newline-delimited JSON connection to the daemon.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, request: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("floodd closed the connection".into()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("reply {line:?}: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `floodd`. Dropping it kills the daemon if it is still up
/// and waits for it to end.
struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stdout after the listening line, so the drain
    /// report never blocks on a full pipe.
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon on `root`; returns it with its set-up time: spawn
    /// to the `{"listening"}` line plus the first `ping` answered.
    fn spawn(floodd: &Path, root: &Path) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(floodd)
            .args(["--addr", "127.0.0.1:0", "--workers", &CLIENTS.to_string()])
            .arg("--checkpoint-root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", floodd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: None,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("floodd stdout: {e}"))?;
        daemon.addr = Json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("listening").and_then(Json::as_str).map(String::from))
            .ok_or_else(|| format!("floodd did not announce its address: {line:?}"))?;
        daemon.stdout = Some(std::thread::spawn(move || {
            let _ = stdout.read_to_end(&mut Vec::new());
        }));
        let pong = Conn::open(&daemon.addr)?.call(r#"{"op":"ping"}"#)?;
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err(format!("unexpected ping reply {pong}"));
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let reply = Conn::open(&self.addr)?.call(r#"{"op":"shutdown"}"#)?;
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("floodd exited with {status}")),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err(format!("floodd did not exit after shutdown ({reply})")),
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// The run's private directory; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(base: &Path, workload: &str) -> Result<Scratch, String> {
        let dir = base.join(format!("{workload}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // the shared base too, once no other run uses it
        if let Some(base) = self.0.parent() {
            let _ = fs::remove_dir(base);
        }
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One job as the client saw it.
struct Job {
    idx: u64,
    scenario: usize,
    seed: u64,
    /// Submit line sent → acknowledgement received.
    submit_ms: f64,
    /// Submit line sent → `wait` reply received.
    latency_ms: f64,
    /// Acknowledgement → `wait` reply: the job's flood as the client
    /// sees it once admitted.
    run_s: f64,
    ping_ms: Option<f64>,
    /// The final status; `None` when the job was not admitted.
    status: Option<Json>,
    error: Option<String>,
}

impl Job {
    fn done(&self) -> bool {
        self.error.is_none()
            && self
                .status
                .as_ref()
                .and_then(|s| s.get("state").and_then(Json::as_str))
                == Some("done")
    }

    fn field(&self, key: &str) -> Option<&Json> {
        self.status.as_ref().and_then(|s| s.get(key))
    }
}

/// A seed unique to job `idx` of the run seeded `seed` (below 2^53, so it
/// survives the JSON number round trip).
fn job_seed(seed: u64, idx: u64) -> u64 {
    ((seed % (1 << 24)) << 24) | (idx + 1)
}

/// The closed loop of one client: submit, wait, repeat until `deadline`.
fn client(
    addr: &str,
    scenarios: &[Scenario],
    n: usize,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    ping: bool,
) -> Result<Vec<Job>, String> {
    let mut conn = Conn::open(addr)?;
    let mut jobs = Vec::new();
    while Instant::now() < deadline {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let scenario = idx as usize % scenarios.len();
        let seed = job_seed(seed, idx);
        let submit = format!(
            r#"{{"op":"submit","scenario":"{}","n":{n},"seed":{seed},"engine":"adaptive","parallelism":"seq"}}"#,
            scenarios[scenario].name
        );
        let t0 = Instant::now();
        let ack = conn.call(&submit)?;
        let t1 = Instant::now();
        let mut job = Job {
            idx,
            scenario,
            seed,
            submit_ms: (t1 - t0).as_secs_f64() * 1e3,
            latency_ms: 0.0,
            run_s: 0.0,
            ping_ms: None,
            status: None,
            error: None,
        };
        match ack.get("job").and_then(Json::as_u64) {
            Some(id) if ack.get("degraded").is_none() => {
                let status = conn.call(&format!(
                    r#"{{"op":"wait","job":{id},"timeout_ms":120000}}"#
                ))?;
                let t2 = Instant::now();
                job.latency_ms = (t2 - t0).as_secs_f64() * 1e3;
                job.run_s = (t2 - t1).as_secs_f64();
                job.status = Some(status);
            }
            _ => job.error = Some(format!("not admitted: {ack}")),
        }
        if ping {
            let p = Instant::now();
            conn.call(r#"{"op":"ping"}"#)?;
            job.ping_ms = Some(p.elapsed().as_secs_f64() * 1e3);
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// Runs the closed loop on `CLIENTS` connections until `deadline`.
/// Returns the jobs in submission order and the loop's wall time.
fn load(
    addr: &str,
    scenarios: &[Scenario],
    n: usize,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    ping: bool,
) -> Result<(Vec<Job>, f64), String> {
    let started = Instant::now();
    let per_client: Vec<Result<Vec<Job>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(addr, scenarios, n, seed, next, deadline, ping)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for r in per_client {
        jobs.extend(r?);
    }
    jobs.sort_by_key(|j| j.idx);
    Ok((jobs, wall))
}

/// The steps a finished scenario run took: the driver loop ends at the
/// step budget, or once every live agent is informed and the last fault
/// event has fired.
fn run_steps(sc: &Scenario, outcome: &str, flooding_time: Option<u32>) -> u32 {
    let last_event = sc
        .faults
        .iter()
        .map(|f| match f.kind {
            FaultKind::Partition { duration, .. } => f.at.saturating_add(duration),
            FaultKind::Churn { duration, .. } => f.at.saturating_add(duration - 1),
            _ => f.at,
        })
        .max()
        .unwrap_or(0);
    let steps = match (outcome, flooding_time) {
        ("flooded", Some(t)) => t.max(last_event),
        ("extinct", _) => last_event,
        _ => sc.steps,
    };
    steps.clamp(1, sc.steps)
}

/// An in-process `run_scenario` of one job's spec, computed outside the
/// timed window, and what the daemon's answer must match.
struct Reference {
    scenario: usize,
    seed: u64,
    digest: String,
    outcome: &'static str,
    flooding_time: Option<u32>,
    steps: u32,
    wall_s: f64,
}

fn reference(sc: &Scenario, scenario: usize, seed: u64) -> Result<Reference, String> {
    let t0 = Instant::now();
    let run = run_scenario(sc, EngineMode::Adaptive, Parallelism::Sequential, seed)
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Reference {
        scenario,
        seed,
        digest: format!("{:016x}", trace_digest(&run.trace)),
        outcome: run.outcome.label(),
        flooding_time: match run.outcome {
            RunOutcome::Flooded { time } => Some(time),
            _ => None,
        },
        steps: run.report.spread.len() as u32 - 1,
        wall_s,
    })
}

/// Checks every job: admitted, ended `done`, and — for the first job of
/// each scenario — the same digest, outcome, flooding time and step count
/// as an in-process run of its spec. Returns the references.
fn check_jobs(
    out: &mut Outcome,
    jobs: &[Job],
    scenarios: &[Scenario],
) -> Result<Vec<Reference>, String> {
    let mut refs: Vec<Reference> = Vec::new();
    for job in jobs {
        let mut ok = job.done();
        if !ok {
            let why = job.error.clone().unwrap_or_else(|| {
                job.status
                    .as_ref()
                    .map_or("no status".into(), |s| s.to_string())
            });
            out.error(format!("job {} did not end done: {why}", job.idx));
        } else if !refs.iter().any(|r| r.scenario == job.scenario) {
            let r = reference(&scenarios[job.scenario], job.scenario, job.seed)?;
            let digest = job.field("digest").and_then(Json::as_str);
            let outcome = job.field("outcome").and_then(Json::as_str);
            let time = job
                .field("flooding_time")
                .and_then(Json::as_u64)
                .map(|t| t as u32);
            let steps = run_steps(&scenarios[job.scenario], r.outcome, r.flooding_time);
            if digest != Some(r.digest.as_str())
                || outcome != Some(r.outcome)
                || time != r.flooding_time
            {
                ok = false;
                out.error(format!(
                    "job {} ({} seed {}): daemon answered digest {digest:?} outcome {outcome:?} \
                     time {time:?}, in-process run gives {} {} {:?}",
                    job.idx,
                    scenarios[job.scenario].name,
                    job.seed,
                    r.digest,
                    r.outcome,
                    r.flooding_time
                ));
            }
            if steps != r.steps {
                ok = false;
                out.error(format!(
                    "job {}: step count {steps} derived from the answer, {} in-process",
                    job.idx, r.steps
                ));
            }
            refs.push(r);
        }
        out.count(ok);
    }
    if refs.len() < scenarios.len() {
        out.error(format!(
            "only {} of {} scenarios finished a job",
            refs.len(),
            scenarios.len()
        ));
    }
    Ok(refs)
}

/// Admitted-to-done time of each finished job, in seconds.
fn run_times(jobs: &[Job]) -> Vec<f64> {
    jobs.iter().filter(|j| j.done()).map(|j| j.run_s).collect()
}

/// Each finished job's admitted-to-done time over its step count, in ms.
fn step_ms(jobs: &[Job], scenarios: &[Scenario]) -> Vec<f64> {
    jobs.iter()
        .filter(|j| j.done())
        .map(|j| {
            let outcome = j.field("outcome").and_then(Json::as_str).unwrap_or("");
            let time = j
                .field("flooding_time")
                .and_then(Json::as_u64)
                .map(|t| t as u32);
            let steps = run_steps(&scenarios[j.scenario], outcome, time);
            j.run_s * 1e3 / f64::from(steps)
        })
        .collect()
}

fn service_e2e(
    out: &mut Outcome,
    jobs: &[Job],
    wall: f64,
    setups: &[f64],
    rss_mb: f64,
    scenarios: &[Scenario],
) {
    let done: Vec<&Job> = jobs.iter().filter(|j| j.done()).collect();
    let latency: Vec<f64> = done.iter().map(|j| j.latency_ms).collect();
    let p90 = quantile(&latency, 0.9);
    let m = &mut out.metrics;
    m.put("flood_wall_s", median(&run_times(jobs)), "s");
    m.put("setup_s", median(setups), "s");
    m.put("job_latency_ms.p50", median(&latency), "ms");
    m.put("jobs_per_s", ratio(done.len() as f64, wall), "1/s");
    m.put("peak_rss_mb", rss_mb, "MiB");
    out.note(format!(
        "samples jobs={} done={} beyond_p90={} daemon_spawns={}",
        jobs.len(),
        done.len(),
        latency.iter().filter(|&&l| l > p90).count(),
        setups.len()
    ));
    for (k, sc) in scenarios.iter().enumerate() {
        let of: Vec<&&Job> = done.iter().filter(|j| j.scenario == k).collect();
        let lat: Vec<f64> = of.iter().map(|j| j.latency_ms).collect();
        out.note(format!(
            "scenario {} jobs={} latency_ms.p50={:.1} latency_ms.max={:.1}",
            sc.name,
            of.len(),
            median(&lat),
            quantile(&lat, 1.0)
        ));
    }
}

/// Summed checkpoint-call times of one replayed job.
#[derive(Default)]
struct CkptCalls {
    snapshot_ms: f64,
    write_ms: f64,
    read_ms: f64,
    restore_ms: f64,
    bytes: u64,
    writes: u64,
    digest: String,
}

/// Hands a compiled mobility model to a generic consumer.
trait Visit {
    type Out;
    fn visit<M>(self, model: M) -> Result<Self::Out, String>
    where
        M: Mobility + Clone,
        M::State: SnapshotState;
}

/// Compiles `spec` into its mobility model, as the scenario runner does.
fn with_model<V: Visit>(spec: &ModelSpec, v: V) -> Result<V::Out, String> {
    let e = |e: fastflood_mobility::MobilityError| e.to_string();
    match spec {
        ModelSpec::Mrwp { side, speed, pause } => {
            v.visit(Mrwp::new(*side, *speed).map_err(e)?.with_pause(*pause))
        }
        ModelSpec::Street {
            side,
            speed,
            blocks,
            pause,
        } => v.visit(
            StreetMrwp::new(*side, *speed, *blocks)
                .map_err(e)?
                .with_pause(*pause),
        ),
        ModelSpec::Rwp { side, speed } => v.visit(Rwp::new(*side, *speed).map_err(e)?),
        ModelSpec::Disk {
            side,
            speed,
            walk_radius,
        } => v.visit(DiskWalk::new(*side, *speed, *walk_radius).map_err(e)?),
        ModelSpec::Static { side } => v.visit(Static::new(*side, Placement::Uniform).map_err(e)?),
        ModelSpec::MrwpMix {
            side,
            speeds,
            weights,
        } => {
            let models = speeds
                .iter()
                .map(|&sp| Mrwp::new(*side, sp))
                .collect::<Result<Vec<_>, _>>()
                .map_err(e)?;
            v.visit(Mixture::new(models, weights.clone()).map_err(e)?)
        }
    }
}

/// Replays one job in-process, checkpointing where the daemon does (the
/// top of the loop, every `STRIDE` steps) and timing each call:
/// `Driver::snapshot`, `Snapshot::write_atomic`, `Snapshot::read_file`
/// and `Driver::restore` of what was just read.
struct Replay<'a> {
    sc: &'a Scenario,
    seed: u64,
    path: &'a Path,
}

impl Visit for Replay<'_> {
    type Out = CkptCalls;
    fn visit<M>(self, model: M) -> Result<CkptCalls, String>
    where
        M: Mobility + Clone,
        M::State: SnapshotState,
    {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let mut d = Driver::new(
            self.sc,
            model,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            self.seed,
        )
        .map_err(|e| err(&e))?;
        let mut calls = CkptCalls::default();
        loop {
            let t = d.time();
            if t > 0 && t % STRIDE == 0 {
                let t0 = Instant::now();
                let snap = d.snapshot();
                calls.snapshot_ms += ms(t0);
                let t0 = Instant::now();
                snap.write_atomic(self.path).map_err(|e| err(&e))?;
                calls.write_ms += ms(t0);
                calls.bytes += fs::metadata(self.path).map_err(|e| err(&e))?.len();
                let t0 = Instant::now();
                let back = Snapshot::read_file(self.path).map_err(|e| err(&e))?;
                calls.read_ms += ms(t0);
                let t0 = Instant::now();
                d.restore(&back).map_err(|e| err(&e))?;
                calls.restore_ms += ms(t0);
                calls.writes += 1;
            }
            if d.pump() {
                break;
            }
            d.step();
        }
        calls.digest = format!("{:016x}", trace_digest(&d.finish().trace));
        Ok(calls)
    }
}

/// The checkpoint layer, from one replayed job per scenario, and its
/// share of a job: `run_scenario_checkpointed` at the daemon's stride
/// against the plain `run_scenario` timed by the reference.
fn checkpoint_layer(
    out: &mut Outcome,
    refs: &[Reference],
    scenarios: &[Scenario],
    dir: &Path,
) -> Result<(), String> {
    let mut total = CkptCalls::default();
    let (mut plain_s, mut checkpointed_s) = (0.0, 0.0);
    for r in refs {
        let sc = &scenarios[r.scenario];
        let path = dir.join(format!("replay-{}.ckpt", sc.name));
        let calls = with_model(
            &sc.model,
            Replay {
                sc,
                seed: r.seed,
                path: &path,
            },
        )?;
        if calls.digest != r.digest {
            out.error(format!(
                "{} seed {}: checkpoint replay digest {} differs from {}",
                sc.name, r.seed, calls.digest, r.digest
            ));
        }
        total.snapshot_ms += calls.snapshot_ms;
        total.write_ms += calls.write_ms;
        total.read_ms += calls.read_ms;
        total.restore_ms += calls.restore_ms;
        total.bytes += calls.bytes;
        total.writes += calls.writes;

        let opts = CheckpointOpts::new(dir.join(format!("run-{}", sc.name)), STRIDE);
        let t0 = Instant::now();
        let (run, _) = run_scenario_checkpointed(
            sc,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            r.seed,
            &opts,
        )
        .map_err(|e| e.to_string())?;
        checkpointed_s += t0.elapsed().as_secs_f64();
        plain_s += r.wall_s;
        if format!("{:016x}", trace_digest(&run.trace)) != r.digest {
            out.error(format!("{}: checkpointed run digest differs", sc.name));
        }
    }
    let writes = total.writes as f64;
    let m = &mut out.metrics;
    m.put(
        "checkpoint.snapshot_ms",
        ratio(total.snapshot_ms, writes),
        "ms",
    );
    m.put("checkpoint.write_ms", ratio(total.write_ms, writes), "ms");
    m.put("checkpoint.read_ms", ratio(total.read_ms, writes), "ms");
    m.put(
        "checkpoint.restore_ms",
        ratio(total.restore_ms, writes),
        "ms",
    );
    m.put("checkpoint.bytes", ratio(total.bytes as f64, writes), "B");
    m.put(
        "checkpoint.writes_per_job",
        ratio(writes, refs.len() as f64),
        "count",
    );
    m.put(
        "checkpoint.share_of_job",
        ratio(checkpointed_s - plain_s, checkpointed_s),
        "ratio",
    );
    Ok(())
}

/// The `floodd-jobs` workload.
pub fn jobs(args: &Args) -> Result<Outcome, String> {
    let n = if args.tiny { 400 } else { 20_000 };
    let scenarios: Vec<Scenario> = library().iter().map(|sc| sc.scaled(n)).collect();
    let scratch = Scratch::new(&args.scratch, &args.workload)?;
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SPAWNS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, setup_s) = Daemon::spawn(&args.floodd, &scratch.0.join(format!("root-{k}")))?;
        setups.push(setup_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one spawn");
    let root = scratch.0.join(format!("root-{}", SPAWNS - 1));
    let next = AtomicU64::new(0);
    let start = Instant::now();

    if !args.trace {
        let deadline = args.deadline(start);
        let (jobs, wall) = load(
            &daemon.addr,
            &scenarios,
            n,
            args.seed,
            &next,
            deadline,
            false,
        )?;
        let rss = sys::peak_rss_mb(&daemon.pid());
        out.note(format!("checkpoint_root_bytes {}", dir_bytes(&root)));
        daemon.stop()?;
        service_e2e(&mut out, &jobs, wall, &setups, rss, &scenarios);
        check_jobs(&mut out, &jobs, &scenarios)?;
    } else {
        let half = start + (args.deadline(start) - start) / 2;
        let (untraced, _) = load(&daemon.addr, &scenarios, n, args.seed, &next, half, false)?;
        let cpu_before = sys::cpu_seconds(&daemon.pid());
        let deadline = args.deadline(start);
        let (traced, wall) = load(
            &daemon.addr,
            &scenarios,
            n,
            args.seed,
            &next,
            deadline,
            true,
        )?;
        let cpu_s = sys::cpu_seconds(&daemon.pid()) - cpu_before;
        let disk = dir_bytes(&root);
        daemon.stop()?;

        let mut all = untraced;
        let untraced_wall = median(&run_times(&all));
        let untraced_step_ms = step_ms(&all, &scenarios);
        let untraced_latency: Vec<f64> = all
            .iter()
            .filter(|j| j.done())
            .map(|j| j.latency_ms)
            .collect();
        let traced_wall = median(&run_times(&traced));
        let submit: Vec<f64> = traced.iter().map(|j| j.submit_ms).collect();
        let ping: Vec<f64> = traced.iter().filter_map(|j| j.ping_ms).collect();
        all.extend(traced);
        let done = all.iter().filter(|j| j.done()).count();
        let m = &mut out.metrics;
        m.put("step_ms.p50", quantile(&untraced_step_ms, 0.5), "ms");
        m.put("step_ms.p95", quantile(&untraced_step_ms, 0.95), "ms");
        m.put("job_latency_ms.p90", quantile(&untraced_latency, 0.9), "ms");
        m.put("service.submit_rtt_ms.p50", median(&submit), "ms");
        m.put("service.ping_rtt_ms.p50", median(&ping), "ms");
        m.put("service.cpu_util", ratio(cpu_s, wall), "ratio");
        m.put(
            "checkpoint.disk_bytes_per_job",
            ratio(disk as f64, done as f64),
            "B",
        );
        m.put(
            "trace.overhead",
            ratio(traced_wall, untraced_wall) - 1.0,
            "ratio",
        );
        out.note(format!(
            "samples jobs={} traced_jobs={} pings={}",
            all.len(),
            submit.len(),
            ping.len()
        ));
        let refs = check_jobs(&mut out, &all, &scenarios)?;
        checkpoint_layer(&mut out, &refs, &scenarios, &scratch.0)?;
    }
    Ok(out)
}
