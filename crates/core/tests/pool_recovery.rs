//! Panic-recovery coverage for the shared `WorkerPool` under
//! `Parallelism::Chunked` — the supervisor's survival story at the
//! engine layer:
//!
//! * a task panic on the pool a chunked sim is about to use (or is in
//!   the middle of using) leaves the pool fully reusable, and
//! * the sim's trajectory stays **bitwise identical** to a one-thread
//!   `Chunked` reference — the thread count never changes results, so
//!   any scheduling fallout from the panic (dead workers, inline
//!   fallbacks at the wrong moment) would show up as a fingerprint
//!   mismatch here.
//!
//! The pool under test is obtained through `shared_pool(threads)` —
//! the same registry `FloodingSim` construction resolves through — so
//! these tests exercise the actual sharing seam the job runtime in
//! `crates/service` rides, not a private look-alike pool.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SourcePlacement};
use fastflood_mobility::Mrwp;
use fastflood_parallel::shared_pool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn sim(n: usize, seed: u64, parallelism: Parallelism) -> FloodingSim<Mrwp> {
    let model = Mrwp::new(30.0, 0.5).unwrap();
    FloodingSim::new(
        model,
        SimConfig::new(n, 2.0)
            .seed(seed)
            .source(SourcePlacement::Agent(0))
            .engine(EngineMode::Adaptive)
            .parallelism(parallelism),
    )
    .unwrap()
}

/// Bitwise trajectory fingerprint: position bits, inform times, spread.
#[allow(clippy::type_complexity)]
fn fingerprint(sim: &FloodingSim<Mrwp>) -> (Vec<(u64, u64)>, Vec<Option<u32>>, Vec<u32>) {
    (
        sim.positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        (0..sim.n()).map(|a| sim.inform_time(a)).collect(),
        sim.report().spread,
    )
}

/// A panicking dispatch before and another mid-run must leave the
/// shared pool serving the chunked sim with unchanged results.
#[test]
fn chunked_run_is_bitwise_correct_after_pool_task_panics() {
    // the reference runs the same chunk streams on one thread
    let reference = {
        let mut s = sim(700, 77, Parallelism::Chunked { threads: 1 });
        let report = s.run(5_000);
        assert!(report.completed, "reference flood must complete");
        fingerprint(&s)
    };

    // hold the shared pool the chunked sim will resolve to, and prove
    // the sim actually shares it (construction bumps the Arc count)
    let pool = shared_pool(2);
    let before = Arc::strong_count(&pool);

    // wound the pool before the sim exists: a task panic mid-dispatch
    let hurt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(64, &|i| {
            if i == 13 {
                panic!("pre-run task panic");
            }
        });
    }));
    assert!(hurt.is_err(), "the panic must reach the dispatcher");

    let mut s = sim(700, 77, Parallelism::Chunked { threads: 2 });
    assert!(
        Arc::strong_count(&pool) > before,
        "the chunked sim must share the registry pool, not build its own"
    );

    // run half the flood, panic another dispatch on the *same* pool
    // (mid-transmit from the sim's point of view: its next
    // step dispatches on a pool that just unwound), then finish
    for _ in 0..40 {
        if s.all_informed() {
            break;
        }
        s.step();
    }
    let hurt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(32, &|i| {
            if i == 7 {
                panic!("mid-run task panic");
            }
        });
    }));
    assert!(hurt.is_err(), "the mid-run panic must reach the dispatcher");

    let report = s.run(5_000);
    assert!(report.completed, "chunked flood must complete");
    assert_eq!(
        fingerprint(&s),
        reference,
        "panics on the shared pool must not change the trajectory"
    );
}

/// Panicking dispatches hammering the shared pool *concurrently* from
/// another thread (the sim's dispatches fall back to inline execution
/// whenever the pool is busy) must not perturb the trajectory either.
#[test]
fn chunked_run_survives_concurrent_panicking_dispatches() {
    let reference = {
        let mut s = sim(500, 910, Parallelism::Chunked { threads: 1 });
        let report = s.run(5_000);
        assert!(report.completed, "reference flood must complete");
        fingerprint(&s)
    };

    // a distinct thread count from the other test so the two tests
    // never contend for one registry entry
    let pool = shared_pool(3);
    let stop = Arc::new(AtomicBool::new(false));
    let chaos = {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut panics = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.run(16, &|i| {
                        if i == 3 {
                            panic!("chaos dispatch");
                        }
                    });
                }));
                if r.is_err() {
                    panics += 1;
                }
                std::thread::yield_now();
            }
            panics
        })
    };

    let mut s = sim(500, 910, Parallelism::Chunked { threads: 3 });
    let report = s.run(5_000);
    stop.store(true, Ordering::Relaxed);
    let panics = chaos.join().expect("chaos thread must not die");
    assert!(panics > 0, "the chaos loop must actually have panicked");
    assert!(report.completed, "chunked flood must complete");
    assert_eq!(
        fingerprint(&s),
        reference,
        "concurrent pool panics must not change the trajectory"
    );
}
