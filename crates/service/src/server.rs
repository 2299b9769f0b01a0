//! The `floodd` wire protocol: newline-delimited JSON over TCP.
//!
//! One request object per line, one response object per line, std-only
//! (no async runtime — a thread per connection, at most
//! `MAX_CONNECTIONS` of them, each closed after `IDLE_TIMEOUT` without
//! a request; the supervisor behind them bounds the work). Every
//! response carries `"ok": true|false`; errors carry `"error"`.
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
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line the daemon buffers, in bytes, newline
/// excluded. A longer line gets one error reply and the connection is
/// closed, so one client cannot grow a connection's buffer without
/// bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Most client connections served at once. Each holds one OS thread,
/// so a connection beyond the cap gets one error line and is closed.
const MAX_CONNECTIONS: usize = 64;

/// How long a connection may wait for the client's next request, or
/// for the client to take a reply, before it gets one error line and is
/// closed — so idle or stalled clients cannot hold the
/// `MAX_CONNECTIONS` slots for good. A request being served (a long
/// `wait` included) is not idle time.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the stop watcher in [`serve`] checks the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);

/// Runs the accept loop until `stop` is raised (by the `shutdown` op or
/// by the caller's signal handler), then drains the supervisor and
/// returns the final state of every job — the resumable set. The loop
/// blocks in `accept`; a watcher thread turns a raised `stop` into one
/// loopback connect to the listener, which wakes the loop within
/// ~20 ms even with no traffic. At most 64 connections are served at
/// once; one more is answered `{"ok":false,"error":"too many
/// connections"}` and closed. A connection idle for 10 s is answered
/// `{"ok":false,"error":"idle timeout"}` and closed, freeing its slot.
///
/// # Errors
///
/// `std::io::Error` when the listener's address cannot be read;
/// per-connection errors are logged to stderr and never fatal.
pub fn serve(
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<JobStatus>> {
    let mut wake_addr = listener.local_addr()?;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let waker = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(STOP_POLL);
            }
            let _ = TcpStream::connect(wake_addr);
        })
    };
    // each connection thread with a clone of its stream, kept so the
    // drain can unblock threads parked in a read on an idle client
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match accepted {
            Ok((stream, _addr)) => stream,
            Err(e) => {
                eprintln!("floodd: accept error: {e}");
                std::thread::sleep(STOP_POLL);
                continue;
            }
        };
        conns.retain(|(h, _)| !h.is_finished());
        if conns.len() >= MAX_CONNECTIONS {
            // the reply fits any socket buffer, so this cannot block
            // the accept loop; FIN follows it, as for an over-long line
            let _ = send(&mut stream, &fail("too many connections"))
                .and_then(|()| stream.shutdown(Shutdown::Write));
            continue;
        }
        // replies are single writes, so with Nagle's algorithm off no
        // reply waits for the client's delayed ACK
        let peer = match stream.set_nodelay(true).and_then(|()| stream.try_clone()) {
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
    }
    drop(listener);
    let _ = waker.join();
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
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(IDLE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                send(&mut writer, &fail(e.to_string()))?;
                // FIN right behind the reply, so the client reads it
                // before the close resets the unread request bytes
                writer.shutdown(Shutdown::Write)?;
                break;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                send(&mut writer, &fail("idle timeout"))?;
                writer.shutdown(Shutdown::Write)?;
                break;
            }
            // a dying peer is normal connection teardown
            Err(_) => break,
        }
        // a non-UTF-8 line ends the connection, as a dying peer does
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        if text.trim().is_empty() {
            continue;
        }
        send(&mut writer, &handle_request(text, sup, stop))?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Writes `response` and its newline in one `write_all`.
fn send(writer: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut out = response.to_string();
    out.push('\n');
    writer.write_all(out.as_bytes())
}

/// Reads one `\n`-terminated line into `buf` without the terminator
/// (or a `\r` before it). Returns `Ok(false)` at end of stream with
/// nothing read; a final unterminated line counts as a line. A line
/// longer than `cap` bytes is an [`ErrorKind::InvalidData`] error, with
/// at most `cap` bytes buffered.
fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<bool> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > cap {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("request line exceeds {cap} bytes"),
            ));
        }
        buf.extend_from_slice(&chunk[..take]);
        if newline.is_some() {
            reader.consume(take + 1);
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(true);
        }
        reader.consume(take);
    }
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
    if let Some(n) = uint_field(req, "n", 1, u32::MAX.into())? {
        // density-preserving rescale, same as the CLI's --quick
        sc = sc.scaled(n as usize);
    }
    if let Some(steps) = uint_field(req, "steps", 0, u32::MAX.into())? {
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
    let chaos = match uint_field(req, "chaos_panic_at", 0, u32::MAX.into())? {
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
        seed: uint_field(req, "seed", 0, MAX_EXACT)?.unwrap_or(0),
        deadline_ms: uint_field(req, "deadline_ms", 0, MAX_EXACT)?,
        chaos,
        step_delay_ms: uint_field(req, "step_delay_ms", 0, MAX_EXACT)?.unwrap_or(0),
    })
}

/// The largest integer a JSON number (an `f64`) holds exactly, 2^53.
const MAX_EXACT: u64 = 1 << 53;

/// The integer field `key` of a request: `None` when it is absent or
/// `null`, and an error naming the field when it is anything but an
/// integer in `min..=max`.
fn uint_field(req: &Json, key: &str, min: u64, max: u64) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(x) if (min..=max).contains(&x) => Ok(Some(x)),
            _ => Err(format!(
                "{key} must be an integer in {min}..={max}, got {v}"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(fields: &str) -> Result<JobSpec, String> {
        let req = format!(r#"{{"op":"submit","scenario":"uniform-baseline"{fields}}}"#);
        build_spec(&Json::parse(&req).unwrap())
    }

    fn rejected(fields: &str, field: &str) {
        let e = spec(fields).expect_err(fields);
        assert!(e.starts_with(&format!("{field} must be an integer")), "{e}");
    }

    #[test]
    fn in_range_integers_are_taken_and_absent_ones_default() {
        let s = spec(
            r#","n":60,"steps":4294967295,"seed":9007199254740992,"deadline_ms":250,"step_delay_ms":3,"chaos_panic_at":4294967295"#,
        )
        .unwrap();
        assert_eq!(s.scenario.n, 60);
        assert_eq!(s.scenario.steps, u32::MAX);
        assert_eq!(s.seed, 1 << 53);
        assert_eq!(s.deadline_ms, Some(250));
        assert_eq!(s.step_delay_ms, 3);
        assert_eq!(s.chaos, Chaos::PanicOnce { at: u32::MAX });

        let library = scenario_by_name("uniform-baseline").unwrap();
        for fields in ["", r#","seed":null,"deadline_ms":null,"steps":null"#] {
            let s = spec(fields).unwrap();
            assert_eq!((s.scenario.n, s.scenario.steps), (library.n, library.steps));
            assert_eq!((s.seed, s.deadline_ms, s.step_delay_ms), (0, None, 0));
            assert_eq!(s.chaos, Chaos::None);
        }
    }

    #[test]
    fn steps_past_u32_are_rejected_not_narrowed() {
        // 2^32 + 5 once ran a 5-step job
        rejected(r#","steps":4294967301"#, "steps");
        rejected(r#","steps":4294967296"#, "steps");
    }

    #[test]
    fn chaos_step_past_u32_is_rejected_not_narrowed() {
        rejected(r#","chaos_panic_at":4294967298"#, "chaos_panic_at");
    }

    #[test]
    fn negative_numbers_are_rejected() {
        for field in ["n", "steps", "seed", "deadline_ms", "step_delay_ms"] {
            rejected(&format!(r#","{field}":-1"#), field);
        }
    }

    #[test]
    fn fractional_numbers_are_rejected() {
        for field in ["n", "steps", "seed", "deadline_ms", "step_delay_ms"] {
            rejected(&format!(r#","{field}":2.5"#), field);
        }
    }

    #[test]
    fn non_numbers_are_rejected() {
        for field in ["n", "steps", "seed", "deadline_ms", "step_delay_ms"] {
            for value in [r#""10""#, "true", "[1]", "{}"] {
                rejected(&format!(r#","{field}":{value}"#), field);
            }
        }
    }

    #[test]
    fn integers_past_two_to_the_53_are_rejected() {
        // an f64 cannot tell 2^53 + 1 from 2^53
        for field in ["seed", "deadline_ms", "step_delay_ms"] {
            rejected(&format!(r#","{field}":9007199254740994"#), field);
        }
    }

    #[test]
    fn an_empty_population_is_rejected() {
        rejected(r#","n":0"#, "n");
        rejected(r#","n":4294967296"#, "n");
    }
}
