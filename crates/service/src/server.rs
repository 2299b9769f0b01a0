//! The `floodd` wire protocol: newline-delimited JSON over TCP.
//!
//! One request object per line, one response object per line, std-only
//! (no async runtime — a thread per connection; the supervisor behind
//! it is the bounded resource, not the socket count). Every response
//! carries `"ok": true|false`; errors carry `"error"`.
//!
//! Ops (see `docs/SERVICE.md` for the full reference):
//!
//! | op | request fields | response |
//! |---|---|---|
//! | `ping` | — | `{"ok":true,"pong":true}` |
//! | `submit` | `scenario` (library name) or `scenario_toml`, `seed`, `engine`, `parallelism`, `n`, `steps`, `deadline_ms`, `step_delay_ms`, `chaos_panic_at`, `chaos_every_attempt` | accepted `{"ok":true,"job":id}`, degraded `{"ok":true,"degraded":true,…}`, or rejection |
//! | `status` | `job` | the job's status object |
//! | `wait` | `job`, `timeout_ms` | final status, or `{"ok":false,"error":"timeout",…}` |
//! | `list` | — | `{"ok":true,"jobs":[…]}` |
//! | `stats` | — | queue/memory/counter snapshot |
//! | `cancel` | `job` | `{"ok":true,"cancelled":bool}` |
//! | `drain` | — | stop admitting, settle everything, report resumable state |
//! | `shutdown` | — | respond, then drain and exit the accept loop |

use crate::json::Json;
use crate::supervisor::{Chaos, JobSpec, JobStatus, Submission, Supervisor};
use fastflood_bench::scenario::{parse_scenario, scenario_by_name, Scenario};
use fastflood_core::{EngineMode, Parallelism};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs the accept loop until `stop` is raised (by the `shutdown` op or
/// by the caller's signal handler), then drains the supervisor and
/// returns the final state of every job — the resumable set. The
/// listener is switched to non-blocking so the stop flag is observed
/// within ~20 ms even with no traffic.
///
/// # Errors
///
/// `std::io::Error` when the listener cannot be configured; per-
/// connection errors are logged to stderr and never fatal.
pub fn serve(
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<JobStatus>> {
    listener.set_nonblocking(true)?;
    // each connection thread with a clone of its stream, kept so the
    // drain can unblock threads parked in a read on an idle client
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let peer = match stream.try_clone() {
                    Ok(peer) => peer,
                    Err(e) => {
                        eprintln!("floodd: connection error: {e}");
                        continue;
                    }
                };
                let sup = Arc::clone(&supervisor);
                let stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || {
                    if let Err(e) = handle_connection(stream, &sup, &stop) {
                        eprintln!("floodd: connection error: {e}");
                    }
                });
                conns.push((handle, peer));
                conns.retain(|(h, _)| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("floodd: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let drained = supervisor.drain();
    // end every connection's read side, so a thread blocked on an idle
    // client sees EOF, then join them so in-flight responses flush
    for (_, peer) in &conns {
        let _ = peer.shutdown(Shutdown::Read);
    }
    for (h, _) in conns {
        let _ = h.join();
    }
    Ok(drained)
}

fn handle_connection(
    stream: TcpStream,
    sup: &Supervisor,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            // a dying peer is normal connection teardown
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_request(&line, sup, stop);
        writeln!(writer, "{response}")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

fn ok(mut pairs: Vec<(&str, Json)>) -> Json {
    pairs.insert(0, ("ok", Json::Bool(true)));
    Json::obj(pairs)
}

fn fail(error: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(error.into())),
    ])
}

/// Dispatches one request line; always returns a response object.
pub fn handle_request(line: &str, sup: &Supervisor, stop: &AtomicBool) -> Json {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return fail(format!("bad request: {e}")),
    };
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return fail("missing op");
    };
    match op {
        "ping" => ok(vec![("pong", Json::Bool(true))]),
        "submit" => match build_spec(&req) {
            Ok(spec) => match sup.submit(spec) {
                Submission::Accepted { id } => {
                    ok(vec![("job", Json::num(id)), ("state", Json::str("queued"))])
                }
                Submission::Degraded(a) => ok(vec![
                    ("degraded", Json::Bool(true)),
                    ("n", Json::num(a.n as u64)),
                    ("outcome", Json::str(&a.outcome)),
                    (
                        "flooding_time",
                        a.flooding_time.map_or(Json::Null, |t| Json::num(t as u64)),
                    ),
                    ("digest", Json::str(&a.digest)),
                ]),
                Submission::Rejected { reason } => fail(reason),
            },
            Err(e) => fail(e),
        },
        "status" => match job_id(&req) {
            Ok(id) => match sup.status(id) {
                Some(s) => with_ok(s.to_json()),
                None => fail(format!("unknown job {id}")),
            },
            Err(e) => fail(e),
        },
        "wait" => match job_id(&req) {
            Ok(id) => {
                let timeout = req
                    .get("timeout_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(60_000);
                match sup.wait(id, Duration::from_millis(timeout)) {
                    Ok(s) => with_ok(s.to_json()),
                    Err(Some(s)) => {
                        let mut obj = fail("timeout");
                        if let (Json::Obj(pairs), Json::Obj(extra)) = (&mut obj, s.to_json()) {
                            pairs.push(("status".to_string(), Json::Obj(extra)));
                        }
                        obj
                    }
                    Err(None) => fail(format!("unknown job {id}")),
                }
            }
            Err(e) => fail(e),
        },
        "list" => ok(vec![(
            "jobs",
            Json::Arr(sup.list().iter().map(JobStatus::to_json).collect()),
        )]),
        "stats" => {
            let s = sup.stats();
            ok(vec![
                ("workers", Json::num(s.workers as u64)),
                ("queue_len", Json::num(s.queue_len as u64)),
                ("running", Json::num(s.running as u64)),
                ("draining", Json::Bool(s.draining)),
                ("memory_in_use", Json::num(s.memory_in_use)),
                ("memory_budget", Json::num(s.memory_budget)),
                ("accepted", Json::num(s.accepted)),
                ("degraded", Json::num(s.degraded)),
                ("rejected", Json::num(s.rejected)),
            ])
        }
        "cancel" => match job_id(&req) {
            Ok(id) => ok(vec![("cancelled", Json::Bool(sup.cancel(id)))]),
            Err(e) => fail(e),
        },
        "drain" => ok(vec![(
            "drained",
            Json::Arr(sup.drain().iter().map(JobStatus::to_json).collect()),
        )]),
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            ok(vec![("stopping", Json::Bool(true))])
        }
        other => fail(format!("unknown op {other:?}")),
    }
}

/// Prepends `"ok": true` to a status object.
fn with_ok(status: Json) -> Json {
    match status {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

fn job_id(req: &Json) -> Result<u64, String> {
    req.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing job id".to_string())
}

fn build_spec(req: &Json) -> Result<JobSpec, String> {
    let mut sc: Scenario = match (
        req.get("scenario").and_then(Json::as_str),
        req.get("scenario_toml").and_then(Json::as_str),
    ) {
        (Some(name), _) => {
            scenario_by_name(name).ok_or_else(|| format!("unknown scenario {name:?}"))?
        }
        (None, Some(text)) => parse_scenario(text).map_err(|e| format!("scenario_toml: {e}"))?,
        (None, None) => return Err("missing scenario or scenario_toml".to_string()),
    };
    if let Some(n) = req.get("n").and_then(Json::as_u64) {
        // density-preserving rescale, same as the CLI's --quick
        sc = sc.scaled(n as usize);
    }
    if let Some(steps) = req.get("steps").and_then(Json::as_u64) {
        sc.steps = steps as u32;
    }
    let engine = match req.get("engine").and_then(Json::as_str) {
        None => EngineMode::Adaptive,
        Some(name) => name.parse()?,
    };
    let parallelism = match req.get("parallelism").and_then(Json::as_str) {
        None => Parallelism::Sequential,
        Some(name) => name.parse()?,
    };
    let chaos = match req.get("chaos_panic_at").and_then(Json::as_u64) {
        None => Chaos::None,
        Some(at) => {
            let every = req
                .get("chaos_every_attempt")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if every {
                Chaos::PanicAlways { at: at as u32 }
            } else {
                Chaos::PanicOnce { at: at as u32 }
            }
        }
    };
    Ok(JobSpec {
        scenario: sc,
        engine,
        parallelism,
        seed: req.get("seed").and_then(Json::as_u64).unwrap_or(0),
        deadline_ms: req.get("deadline_ms").and_then(Json::as_u64),
        chaos,
        step_delay_ms: req.get("step_delay_ms").and_then(Json::as_u64).unwrap_or(0),
    })
}
