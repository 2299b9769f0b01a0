//! `floodd` — the flooding service daemon.
//!
//! Listens on TCP, accepts newline-delimited JSON scenario jobs, and
//! runs them under the [`Supervisor`]'s policies (deadlines,
//! checkpoint-backed restarts with capped backoff, admission control
//! with graceful degradation). On SIGTERM (or the `shutdown` op) it
//! drains gracefully: stops admitting, checkpoints in-flight jobs, and
//! prints every job's resumable state before exiting.
//!
//! ```text
//! floodd [--addr 127.0.0.1:0] [--workers N] [--queue-limit N]
//!        [--memory-budget-mb MB] [--checkpoint-root DIR]
//!        [--checkpoint-every STEPS] [--retries N]
//!        [--backoff-base-ms MS] [--backoff-cap-ms MS]
//!        [--watchdog-tick-ms MS] [--degrade-n N]
//! ```
//!
//! The first stdout line is `{"listening":"ADDR"}` (the resolved
//! address — bind port 0 to let the OS pick), which is how scripts and
//! tests find the port.
//!
//! Without `--checkpoint-every`, jobs checkpoint by measured cost
//! (`Cadence::Cost`): a job writes once the time since its last
//! checkpoint is at least `K` = 10 times what that checkpoint cost (its
//! set-up time before the first), so checkpoints take at most 1/11 of
//! a job and a crash loses at most about ten checkpoints' cost of work.
//! A short job may write none. `--checkpoint-every N` writes every `N`
//! steps instead, and `0` turns checkpoints off.

use fastflood_bench::scenario::Cadence;
use fastflood_service::server::serve;
use fastflood_service::{Json, Supervisor, SupervisorConfig};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Raised by the SIGTERM handler; a bridge thread copies it into the
/// server's stop flag.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // async-signal-safe: a single atomic store
    TERM.store(true, Ordering::SeqCst);
}

/// Registers the SIGTERM handler through libc's `signal` (std links
/// libc on unix; the vendored dependency set has no `libc` crate, so
/// the declaration is inlined). This is the binary's only `unsafe`.
#[cfg(unix)]
fn install_sigterm() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is the C standard library's handler
    // registration; the handler only performs an atomic store, which
    // is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

fn parse_args(mut it: impl Iterator<Item = String>) -> (String, SupervisorConfig) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut cfg = SupervisorConfig::default();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} takes a value"));
        match arg.as_str() {
            "--addr" => addr = val("--addr"),
            "--workers" => cfg.workers = val("--workers").parse().expect("--workers N"),
            "--queue-limit" => {
                cfg.queue_limit = val("--queue-limit").parse().expect("--queue-limit N")
            }
            "--memory-budget-mb" => {
                let mb: u64 = val("--memory-budget-mb")
                    .parse()
                    .expect("--memory-budget-mb MB");
                cfg.memory_budget_bytes = mb * 1024 * 1024;
            }
            "--checkpoint-root" => cfg.checkpoint_root = val("--checkpoint-root").into(),
            "--checkpoint-every" => {
                let every = val("--checkpoint-every")
                    .parse()
                    .expect("--checkpoint-every STEPS");
                cfg.checkpoint_cadence = Cadence::Steps(every);
            }
            "--retries" => cfg.max_retries = val("--retries").parse().expect("--retries N"),
            "--backoff-base-ms" => {
                cfg.backoff_base_ms = val("--backoff-base-ms")
                    .parse()
                    .expect("--backoff-base-ms MS")
            }
            "--backoff-cap-ms" => {
                cfg.backoff_cap_ms = val("--backoff-cap-ms")
                    .parse()
                    .expect("--backoff-cap-ms MS")
            }
            "--watchdog-tick-ms" => {
                cfg.watchdog_tick_ms = val("--watchdog-tick-ms")
                    .parse()
                    .expect("--watchdog-tick-ms MS")
            }
            "--degrade-n" => cfg.degrade_n = val("--degrade-n").parse().expect("--degrade-n N"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    (addr, cfg)
}

fn main() {
    let (addr, cfg) = parse_args(std::env::args().skip(1));
    install_sigterm();
    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| panic!("floodd: cannot bind {addr}: {e}"));
    let local = listener.local_addr().expect("resolved listen address");
    println!(
        "{}",
        Json::obj(vec![("listening", Json::str(local.to_string()))])
    );
    // unbuffered enough for pipes: tests read this line to find the port
    use std::io::Write;
    std::io::stdout().flush().expect("flush listen line");

    let supervisor = Arc::new(Supervisor::new(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    // bridge the signal flag into the server's stop flag
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if TERM.load(Ordering::SeqCst) {
                stop.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
    }
    let drained = serve(listener, Arc::clone(&supervisor), stop).expect("serve");
    // the drain report: one line per job, resumable state included
    println!(
        "{}",
        Json::obj(vec![(
            "drained",
            Json::Arr(drained.iter().map(|s| s.to_json()).collect()),
        )])
    );
}
