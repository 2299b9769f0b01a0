//! End-to-end chaos tests against a real `floodd` child process over
//! TCP: chaos-panic restart with digest equality, impossible deadlines
//! reported while the service keeps serving, SIGKILL of the whole
//! daemon followed by a checkpoint resume in a fresh daemon, and
//! SIGTERM graceful drain with the resumable-state report on stdout.
#![cfg(unix)]

use fastflood_bench::scenario::{parse_scenario, run_scenario, trace_digest};
use fastflood_core::{EngineMode, Parallelism};
use fastflood_service::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A quick-flooding scenario, parsed identically on both sides of the
/// wire so the in-process reference digest is comparable.
const QUICK_TOML: &str = r#"
[scenario]
name = "e2e-quick"
steps = 600
trials = 1

[mobility]
model = "mrwp"
side = 12.0
speed = 0.5

[population]
n = 60
radius = 2.5
"#;

/// Sparse enough to never flood inside the step budget: with a step
/// delay it runs "forever", which is what kill/drain tests need.
const SLOW_TOML: &str = r#"
[scenario]
name = "e2e-slow"
steps = 10000
trials = 1

[mobility]
model = "mrwp"
side = 12.0
speed = 0.5

[population]
n = 70
radius = 0.6
"#;

const WAIT: Duration = Duration::from_secs(120);

fn reference_digest(toml: &str, seed: u64) -> String {
    let sc = parse_scenario(toml).expect("reference scenario parses");
    let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, seed).unwrap();
    format!("{:016x}", trace_digest(&run.trace))
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("floodd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `floodd` child. Killed on drop so a failing assertion never
/// leaves an orphan daemon holding the checkpoint root.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(root: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_floodd"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--checkpoint-root")
            .arg(root)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn floodd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listen line");
        let addr = Json::parse(&line)
            .expect("listen line is JSON")
            .get("listening")
            .and_then(Json::as_str)
            .expect("listening address")
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// One request/response round trip on a fresh connection.
    fn request(&self, req: &Json) -> Json {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        writeln!(stream, "{req}").expect("send request");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read response");
        Json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn submit(&self, fields: Vec<(&str, Json)>) -> Json {
        let mut pairs = vec![("op", Json::str("submit"))];
        pairs.extend(fields);
        self.request(&Json::obj(pairs))
    }

    fn wait_done(&self, job: u64) -> Json {
        self.request(&Json::obj(vec![
            ("op", Json::str("wait")),
            ("job", Json::num(job)),
            ("timeout_ms", Json::num(WAIT.as_millis() as u64)),
        ]))
    }

    /// Reads stdout until the drain report line appears, returning it.
    fn read_drain_report(&mut self) -> Json {
        let deadline = Instant::now() + WAIT;
        let mut line = String::new();
        loop {
            assert!(Instant::now() < deadline, "no drain report before timeout");
            line.clear();
            let n = self.stdout.read_line(&mut line).expect("read stdout");
            assert!(n > 0, "floodd exited without a drain report");
            if line.contains("\"drained\"") {
                return Json::parse(&line).expect("drain report is JSON");
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn state_of(resp: &Json) -> &str {
    resp.get("state").and_then(Json::as_str).unwrap_or("?")
}

fn job_of(resp: &Json) -> u64 {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    resp.get("job").and_then(Json::as_u64).expect("job id")
}

#[test]
fn chaos_restart_and_deadline_over_the_wire() {
    let root = tmp_root("wire");
    let mut daemon = Daemon::spawn(
        &root,
        &[
            "--checkpoint-every",
            "1",
            "--watchdog-tick-ms",
            "5",
            "--backoff-base-ms",
            "1",
            "--backoff-cap-ms",
            "10",
        ],
    );

    let pong = daemon.request(&Json::obj(vec![("op", Json::str("ping"))]));
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // a job that panics at step 2 on its first attempt must be
    // restarted from the checkpoint and still produce the exact digest
    // of an uninterrupted in-process run
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(QUICK_TOML)),
        ("seed", Json::num(7)),
        ("chaos_panic_at", Json::num(2)),
    ]));
    let done = daemon.wait_done(id);
    assert_eq!(state_of(&done), "done", "{done}");
    assert_eq!(done.get("attempts").and_then(Json::as_u64), Some(2));
    assert_eq!(
        done.get("digest").and_then(Json::as_str),
        Some(reference_digest(QUICK_TOML, 7).as_str()),
        "restarted run must match the uninterrupted reference"
    );

    // an impossible deadline is cancelled and reported, not hung…
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(SLOW_TOML)),
        ("seed", Json::num(8)),
        ("step_delay_ms", Json::num(5)),
        ("deadline_ms", Json::num(30)),
    ]));
    let dead = daemon.wait_done(id);
    assert_eq!(state_of(&dead), "deadline_exceeded", "{dead}");

    // …and the service is still alive and serving afterwards
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(QUICK_TOML)),
        ("seed", Json::num(9)),
    ]));
    let done = daemon.wait_done(id);
    assert_eq!(state_of(&done), "done", "{done}");

    let stats = daemon.request(&Json::obj(vec![("op", Json::str("stats"))]));
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(3));

    // clean shutdown via the wire prints the drain report
    let stopping = daemon.request(&Json::obj(vec![("op", Json::str("shutdown"))]));
    assert_eq!(stopping.get("stopping").and_then(Json::as_bool), Some(true));
    let report = daemon.read_drain_report();
    assert!(matches!(report.get("drained"), Some(Json::Arr(_))));
    assert!(daemon.child.wait().expect("floodd exits").success());
}

/// Counts checkpoint files anywhere under the root.
fn ckpt_count(root: &Path) -> usize {
    fn walk(dir: &Path, acc: &mut usize) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, acc);
                } else if p.extension().is_some_and(|x| x == "ckpt") {
                    *acc += 1;
                }
            }
        }
    }
    let mut n = 0;
    walk(root, &mut n);
    n
}

#[test]
fn sigkilled_daemon_job_resumes_in_a_fresh_daemon_with_equal_digest() {
    let root = tmp_root("sigkill");
    let reference = reference_digest(SLOW_TOML, 99);

    // daemon #1: the job crawls (20 ms per step) and checkpoints every
    // 2 steps; SIGKILL it once real progress is durably on disk
    {
        let daemon = Daemon::spawn(&root, &["--checkpoint-every", "2"]);
        job_of(&daemon.submit(vec![
            ("scenario_toml", Json::str(SLOW_TOML)),
            ("seed", Json::num(99)),
            ("step_delay_ms", Json::num(20)),
        ]));
        let deadline = Instant::now() + WAIT;
        while ckpt_count(&root) < 2 {
            assert!(Instant::now() < deadline, "no checkpoints written");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills with SIGKILL: no drain, no final checkpoint —
        // whatever write_atomic already published is all that survives
    }

    // daemon #2 on the same root: the resubmitted job must resume from
    // the newest valid snapshot and converge to the reference digest
    let daemon = Daemon::spawn(&root, &["--checkpoint-every", "50"]);
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(SLOW_TOML)),
        ("seed", Json::num(99)),
    ]));
    let done = daemon.wait_done(id);
    assert_eq!(state_of(&done), "done", "{done}");
    assert_eq!(
        done.get("digest").and_then(Json::as_str),
        Some(reference.as_str()),
        "resume after SIGKILL must be bitwise-identical to the uninterrupted run"
    );
}

/// The same kill and resume on daemons started without
/// `--checkpoint-every`, so jobs checkpoint by measured cost: a slowed
/// job still writes checkpoints, and a fresh daemon resumes it bitwise.
#[test]
fn sigkilled_default_cadence_job_resumes_in_a_fresh_daemon_with_equal_digest() {
    let root = tmp_root("sigkill-cost");
    let reference = reference_digest(SLOW_TOML, 98);
    {
        let daemon = Daemon::spawn(&root, &[]);
        job_of(&daemon.submit(vec![
            ("scenario_toml", Json::str(SLOW_TOML)),
            ("seed", Json::num(98)),
            ("step_delay_ms", Json::num(20)),
        ]));
        let deadline = Instant::now() + WAIT;
        while ckpt_count(&root) < 2 {
            assert!(Instant::now() < deadline, "no checkpoints written");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let daemon = Daemon::spawn(&root, &[]);
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(SLOW_TOML)),
        ("seed", Json::num(98)),
    ]));
    let done = daemon.wait_done(id);
    assert_eq!(state_of(&done), "done", "{done}");
    assert_eq!(
        done.get("digest").and_then(Json::as_str),
        Some(reference.as_str()),
        "resume after SIGKILL must be bitwise-identical to the uninterrupted run"
    );
}

#[test]
fn sigterm_drains_gracefully_and_reports_resumable_state() {
    let root = tmp_root("sigterm");
    let mut daemon = Daemon::spawn(&root, &["--checkpoint-every", "2", "--workers", "1"]);
    let id = job_of(&daemon.submit(vec![
        ("scenario_toml", Json::str(SLOW_TOML)),
        ("seed", Json::num(123)),
        ("step_delay_ms", Json::num(10)),
    ]));

    // wait until the job is actually running so the drain interrupts
    // real work rather than an empty queue
    let deadline = Instant::now() + WAIT;
    loop {
        assert!(Instant::now() < deadline, "job never started running");
        let st = daemon.request(&Json::obj(vec![
            ("op", Json::str("status")),
            ("job", Json::num(id)),
        ]));
        if state_of(&st) == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());

    let report = daemon.read_drain_report();
    let Some(Json::Arr(jobs)) = report.get("drained") else {
        panic!("drain report has no jobs array: {report}");
    };
    let victim = jobs
        .iter()
        .find(|j| j.get("job").and_then(Json::as_u64) == Some(id))
        .expect("the in-flight job appears in the drain report");
    assert_eq!(state_of(victim), "cancelled", "{victim}");
    assert!(
        victim
            .get("resumable_step")
            .and_then(Json::as_u64)
            .is_some_and(|s| s > 0),
        "the drained job must carry a resumable checkpoint step: {victim}"
    );
    assert!(daemon.child.wait().expect("floodd exits").success());
}

#[test]
fn sigterm_exits_promptly_with_an_idle_client_connected() {
    let root = tmp_root("idle");
    let mut daemon = Daemon::spawn(&root, &[]);

    // one round trip proves the connection was accepted and its thread
    // is now parked reading the next line, which never comes
    let mut idle = TcpStream::connect(&daemon.addr).expect("connect");
    writeln!(idle, "{}", Json::obj(vec![("op", Json::str("ping"))])).expect("send ping");
    let mut line = String::new();
    BufReader::new(idle.try_clone().expect("clone stream"))
        .read_line(&mut line)
        .expect("read pong");
    assert!(line.contains("\"pong\""), "{line}");

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());

    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("poll floodd") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "floodd still running 5 s after SIGTERM with an idle client"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success());
    let report = daemon.read_drain_report();
    assert!(matches!(report.get("drained"), Some(Json::Arr(_))));
    drop(idle);
}

#[test]
fn fifty_sequential_pings_on_one_connection_finish_within_a_second() {
    let root = tmp_root("pings");
    let daemon = Daemon::spawn(&root, &[]);
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_read_timeout(Some(WAIT)).expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let ping = format!("{}\n", Json::obj(vec![("op", Json::str("ping"))]));
    let mut line = String::new();
    let started = Instant::now();
    for i in 0..50 {
        writer.write_all(ping.as_bytes()).expect("send ping");
        line.clear();
        reader.read_line(&mut line).expect("read pong");
        assert!(line.contains("\"pong\""), "ping {i}: {line}");
    }
    // each reply is one write on a TCP_NODELAY socket, so no round trip
    // waits for the client's delayed ACK (~40 ms each otherwise)
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 pings took {elapsed:?}"
    );
}

#[test]
fn over_long_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    let root = tmp_root("longline");
    let daemon = Daemon::spawn(&root, &[]);
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_read_timeout(Some(WAIT)).expect("read timeout");
    // 2 MiB with no newline; the daemon stops reading at its 1 MiB cap,
    // so the tail is sent from a thread, where it may block until the
    // daemon closes the connection and then fail
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read the error reply");
    let reply = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "{reply}"
    );
    sender.join().expect("sender thread");

    let pong = daemon.request(&Json::obj(vec![("op", Json::str("ping"))]));
    assert_eq!(
        pong.get("pong").and_then(Json::as_bool),
        Some(true),
        "{pong}"
    );
}

#[test]
fn deeply_nested_request_gets_an_error_and_the_daemon_keeps_serving() {
    let root = tmp_root("nesting");
    let daemon = Daemon::spawn(&root, &[]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_read_timeout(Some(WAIT)).expect("read timeout");
    // half a megabyte of `[` fits under the line cap; parsed without a
    // depth cap it would overflow the connection thread's stack and
    // abort the whole daemon
    let mut hostile = "[".repeat(500_000);
    hostile.push('\n');
    stream
        .write_all(hostile.as_bytes())
        .expect("send hostile line");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read the error reply");
    let reply = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("nesting")),
        "{reply}"
    );

    let pong = daemon.request(&Json::obj(vec![("op", Json::str("ping"))]));
    assert_eq!(
        pong.get("pong").and_then(Json::as_bool),
        Some(true),
        "{pong}"
    );
}

#[test]
fn connections_beyond_the_cap_are_refused_until_one_closes() {
    let root = tmp_root("conncap");
    let daemon = Daemon::spawn(&root, &[]);
    let ping = format!("{}\n", Json::obj(vec![("op", Json::str("ping"))]));
    // one line from a fresh connection, after sending `send` if given
    let exchange = |send: Option<&str>| -> std::io::Result<(TcpStream, String)> {
        let mut stream = TcpStream::connect(&daemon.addr)?;
        stream.set_read_timeout(Some(WAIT))?;
        if let Some(req) = send {
            stream.write_all(req.as_bytes())?;
        }
        let mut line = String::new();
        BufReader::new(stream.try_clone()?).read_line(&mut line)?;
        Ok((stream, line))
    };

    // 64 idle connections, each proven served by one round trip
    let mut idle = Vec::new();
    for i in 0..64 {
        let (stream, line) = exchange(Some(&ping)).expect("ping under the cap");
        assert!(line.contains("\"pong\""), "connection {i}: {line}");
        idle.push(stream);
    }

    // one more is refused with one error line, then EOF
    let (refused, line) = exchange(None).expect("read the refusal");
    let reply = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("too many connections"),
        "{reply}"
    );
    let mut rest = String::new();
    let mut reader = BufReader::new(refused);
    assert_eq!(reader.read_line(&mut rest).expect("read EOF"), 0, "{rest}");

    // closing one frees its slot once its thread has seen the EOF, so
    // a fresh connection is served within moments
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match exchange(Some(&ping)) {
            Ok((_, line)) if line.contains("\"pong\"") => break,
            Ok((_, line)) => assert!(line.contains("too many connections"), "{line}"),
            // a refusal may reset the connection before the ping is read
            Err(_) => {}
        }
        assert!(
            Instant::now() < deadline,
            "no slot freed 10 s after a connection closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);
}

#[test]
fn idle_connections_time_out_and_free_their_slots() {
    let root = tmp_root("idle");
    let daemon = Daemon::spawn(&root, &[]);
    let ping = format!("{}\n", Json::obj(vec![("op", Json::str("ping"))]));
    // fill every slot with a client that sends one ping, then goes idle
    let mut idle = Vec::new();
    for i in 0..64 {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream.set_read_timeout(Some(WAIT)).expect("read timeout");
        stream.write_all(ping.as_bytes()).expect("send ping");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read pong");
        assert!(line.contains("\"pong\""), "connection {i}: {line}");
        idle.push(reader);
    }

    // the daemon ends each idle connection itself: one error line, EOF
    for (i, reader) in idle.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read the idle reply");
        let reply = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("idle timeout"),
            "connection {i}: {reply}"
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0, "{line}");
    }

    // the slots are free again: a fresh client is served, after at
    // most the moments it takes the timed-out threads to finish
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = daemon.request(&Json::obj(vec![("op", Json::str("ping"))]));
        if reply.get("pong").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("too many connections"),
            "{reply}"
        );
        assert!(
            Instant::now() < deadline,
            "no slot freed 10 s after the idle connections closed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
