//! The deterministic-parallelism contract of the chunked engine
//! (`Parallelism::Chunked`), end to end:
//!
//! * **thread-count invariance** — for a fixed `(seed, n)` the whole
//!   trajectory (positions, spread curve, inform times) is bitwise
//!   identical across pool sizes {1, 2, 8} *and* the environment
//!   default (`threads: 0`), so `FASTFLOOD_THREADS` can only change
//!   wall-clock, never results;
//! * **engine lockstep under parallelism** — the adaptive engine's
//!   parallel paths (partitioned stale join, sequential grid sync)
//!   inform exactly the oracle's sets, for every protocol, including
//!   mid-run crashes;
//! * **sequential default** — `SimConfig` still defaults to the
//!   single-stream engine, whose path reads none of the chunk
//!   machinery (the mobility-level lockstep suites pin it bitwise to
//!   the scalar loop).
//!
//! `scripts/tier1.sh` re-runs this suite (and the measured-drift one)
//! with `FASTFLOOD_THREADS=2`, which the `threads: 0` cases pick up.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, Protocol, SimConfig, SourcePlacement};
use fastflood_mobility::{Mrwp, MOVE_CHUNK};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn sim(
    n: usize,
    side: f64,
    radius: f64,
    speed: f64,
    seed: u64,
    protocol: Protocol,
    engine: EngineMode,
    parallelism: Parallelism,
    crash_stride: usize,
) -> FloodingSim<Mrwp> {
    let model = Mrwp::new(side, speed).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(n, radius)
            .seed(seed)
            .source(SourcePlacement::Agent(0))
            .protocol(protocol)
            .engine(engine)
            .parallelism(parallelism),
    )
    .unwrap();
    if crash_stride > 0 {
        for a in (1..n).step_by(crash_stride) {
            sim.crash_agent(a);
        }
    }
    sim
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

/// The headline determinism property: a multi-chunk flood (several
/// `MOVE_CHUNK` chunks, the adaptive engine's parallel incremental
/// join with refreshes and deferrals) is bitwise identical
/// across thread counts and the environment default.
#[test]
fn chunked_trajectories_bitwise_identical_across_thread_counts() {
    let n = 2 * MOVE_CHUNK + 700; // three chunks, ragged tail
    let run = |parallelism: Parallelism| {
        let mut s = sim(
            n,
            (n as f64).sqrt(),
            2.6,
            0.5,
            2010,
            Protocol::Flooding,
            EngineMode::Adaptive,
            parallelism,
            0,
        );
        let report = s.run(4_000);
        assert!(report.completed, "flood must complete");
        assert!(
            s.bucket_join_steps() > 0 && s.incremental_diff_steps() > 0,
            "the run must exercise the parallel join machinery"
        );
        fingerprint(&s)
    };
    let reference = run(Parallelism::Chunked { threads: 1 });
    for parallelism in [
        Parallelism::Chunked { threads: 2 },
        Parallelism::Chunked { threads: 8 },
        Parallelism::Chunked { threads: 0 }, // FASTFLOOD_THREADS / available
    ] {
        assert_eq!(
            run(parallelism),
            reference,
            "{parallelism:?}: trajectory diverged from 1 thread"
        );
    }
}

/// Same invariance through fail-stop churn: crashes force full grid
/// resyncs mid-run, and the crash surgery must not perturb chunk
/// streams or merge order.
#[test]
fn chunked_invariance_survives_mid_run_crashes() {
    let n = MOVE_CHUNK + 811; // two chunks
    let run = |threads: usize| {
        let mut s = sim(
            n,
            40.0,
            1.8,
            0.4,
            77,
            Protocol::Flooding,
            EngineMode::Adaptive,
            Parallelism::Chunked { threads },
            0,
        );
        for t in 1..=600u32 {
            if t % 50 == 0 {
                for a in (t as usize % 5 + 1..n).step_by(131) {
                    s.crash_agent(a);
                }
            }
            s.step();
            if s.all_informed() {
                break;
            }
        }
        fingerprint(&s)
    };
    let one = run(1);
    assert_eq!(run(2), one, "2 threads diverged");
    assert_eq!(run(8), one, "8 threads diverged");
}

/// The parallel engine is a *different* stochastic sample than the
/// sequential single-stream engine (per-chunk streams), while the
/// sequential default stays the default — both facts the docs promise.
#[test]
fn sequential_default_and_stream_split() {
    assert_eq!(SimConfig::new(10, 1.0).parallelism, Parallelism::Sequential);
    let seq = {
        let mut s = sim(
            400,
            20.0,
            2.0,
            0.5,
            5,
            Protocol::Flooding,
            EngineMode::Adaptive,
            Parallelism::Sequential,
            0,
        );
        assert_eq!(s.parallel_threads(), 0);
        s.run(4_000)
    };
    let par = {
        let mut s = sim(
            400,
            20.0,
            2.0,
            0.5,
            5,
            Protocol::Flooding,
            EngineMode::Adaptive,
            Parallelism::Chunked { threads: 2 },
            0,
        );
        assert_eq!(s.parallel_threads(), 2);
        s.run(4_000)
    };
    assert!(seq.completed && par.completed);
    // same process, different sample: the move draws come from chunk
    // streams, so the spread curves (essentially surely) differ
    assert_ne!(
        seq.spread, par.spread,
        "chunked mode must draw from per-chunk streams, not the main stream"
    );
}

/// `Chunked {{ threads: 0 }}` resolves through the shared
/// `default_threads()` (FASTFLOOD_THREADS, else available parallelism).
#[test]
fn env_default_thread_resolution() {
    let s = sim(
        50,
        10.0,
        1.0,
        0.3,
        1,
        Protocol::Flooding,
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 0 },
        0,
    );
    assert_eq!(s.parallel_threads(), fastflood_parallel::default_threads());
}

fn lockstep_parallel(
    n: usize,
    seed: u64,
    protocol: Protocol,
    parallelism: Parallelism,
    crash_stride: usize,
    steps: u32,
) {
    let build = |engine| {
        sim(
            n,
            18.0,
            2.5,
            0.6,
            seed,
            protocol,
            engine,
            parallelism,
            crash_stride,
        )
    };
    let mut tested = build(EngineMode::Adaptive);
    let mut oracle = build(EngineMode::Oracle);
    for t in 1..=steps {
        let a = tested.step();
        let b = oracle.step();
        prop_assert_eq!(
            a,
            b,
            "step {} newly-informed counts diverged (n={}, seed={}, {:?})",
            t,
            n,
            seed,
            protocol
        );
        prop_assert_eq!(
            tested.informed(),
            oracle.informed(),
            "step {} informed sets diverged (n={}, seed={}, {:?})",
            t,
            n,
            seed,
            protocol
        );
        if tested.all_informed() {
            break;
        }
    }
    prop_assert_eq!(tested.report(), oracle.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Parallel Adaptive == parallel Oracle: both sims share chunk
    /// streams (identical moves), so any divergence is a bug in the
    /// partitioned join, not noise.
    #[test]
    fn parallel_flooding_matches_oracle(
        seed in 0u64..1000,
        n in 40usize..160,
        stride in 0usize..6,
    ) {
        lockstep_parallel(
            n, seed, Protocol::Flooding,
            Parallelism::Chunked { threads: 2 }, stride, 400,
        );
    }

    /// The environment-default pool (tier-1 re-runs this suite under
    /// FASTFLOOD_THREADS=2) through the same lockstep.
    #[test]
    fn parallel_env_default_matches_oracle(seed in 0u64..500, n in 40usize..120) {
        lockstep_parallel(
            n, seed, Protocol::Flooding,
            Parallelism::Chunked { threads: 0 }, 3, 400,
        );
    }

    #[test]
    fn parallel_parsimonious_matches_oracle(
        seed in 0u64..1000,
        n in 40usize..140,
        p in 0.05f64..0.95,
    ) {
        // the coin subset rides the main stream; only the uninformed
        // grid is maintained incrementally
        lockstep_parallel(
            n, seed, Protocol::Parsimonious { p },
            Parallelism::Chunked { threads: 2 }, 0, 400,
        );
    }

    #[test]
    fn parallel_gossip_matches_oracle(seed in 0u64..500, n in 40usize..140, k in 1usize..6) {
        // gossip transmit stays sequential (the fine-grid gather); the
        // parallel move pass must leave its sampling stream untouched
        lockstep_parallel(
            n, seed, Protocol::Gossip { k },
            Parallelism::Chunked { threads: 2 }, 3, 400,
        );
    }
}

/// Dense regime at real size: the incrementally maintained join with
/// the partitioned parallel kernel runs on every step and stays
/// lockstep-identical to the brute-force oracle — including refresh
/// steps and deferred stale joins.
#[test]
fn parallel_adaptive_engages_join_in_dense_regime_and_matches_oracle() {
    let n = 4_096;
    let parallelism = Parallelism::Chunked { threads: 2 };
    let build = |engine| {
        sim(
            n,
            (n as f64).sqrt(),
            3.2,
            0.8,
            2010,
            Protocol::Flooding,
            engine,
            parallelism,
            0,
        )
    };
    let mut adaptive = build(EngineMode::Adaptive);
    let mut oracle = build(EngineMode::Oracle);
    for _ in 0..600 {
        adaptive.step();
        oracle.step();
        assert_eq!(
            adaptive.informed(),
            oracle.informed(),
            "parallel join diverged from the oracle"
        );
        if adaptive.all_informed() {
            break;
        }
    }
    assert!(adaptive.all_informed(), "dense flood must complete");
    assert_eq!(
        adaptive.bucket_join_steps(),
        adaptive.time(),
        "every step must run the bucket join"
    );
    assert!(
        adaptive.incremental_deferred_steps() > 0,
        "some steps must defer re-binning entirely (stale parallel join)"
    );
    assert!(
        adaptive.incremental_diff_steps() > adaptive.incremental_deferred_steps(),
        "some diff steps must be refresh passes"
    );
    assert_eq!(adaptive.report(), oracle.report());
}

/// Mid-run crashes under the parallel engine: resyncs via full rebuilds
/// without diverging from the oracle — the parallel analogue of the
/// sequential crash-resync test.
#[test]
fn parallel_incremental_survives_mid_run_crashes_and_resyncs() {
    let n = 300;
    let parallelism = Parallelism::Chunked { threads: 2 };
    let build = |engine| {
        let model = Mrwp::new(50.0, 0.3).unwrap();
        FloodingSim::new(
            model,
            SimConfig::new(n, 1.5)
                .seed(77)
                .source(SourcePlacement::Agent(0))
                .engine(engine)
                .parallelism(parallelism),
        )
        .unwrap()
    };
    let mut inc = build(EngineMode::Adaptive);
    let mut oracle = build(EngineMode::Oracle);
    for t in 1..=3000u32 {
        if t % 40 == 0 {
            for a in (t as usize % 7 + 1..n).step_by(97) {
                inc.crash_agent(a);
                oracle.crash_agent(a);
            }
        }
        inc.step();
        oracle.step();
        assert_eq!(
            inc.informed(),
            oracle.informed(),
            "step {t}: parallel join diverged after mid-run crashes"
        );
        if inc.all_informed() {
            break;
        }
    }
    assert_eq!(inc.report(), oracle.report());
    assert!(
        inc.incremental_full_rebuilds() >= 2,
        "each crash batch must force a fresh resync"
    );
    assert!(
        inc.incremental_deferred_steps() > 0,
        "between crashes the engine must defer with stale parallel joins"
    );
}

/// Cloned sims (the bench harness's warm-state pattern) share the pool
/// and continue their chunk streams independently and identically.
#[test]
fn cloned_parallel_sims_replay_identically() {
    let mut warm = sim(
        800,
        100.0,
        1.5,
        0.2,
        9,
        Protocol::Flooding,
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 2 },
        0,
    );
    for _ in 0..100 {
        warm.step();
    }
    assert!(!warm.all_informed(), "warm state must be mid-flood");
    let mut a = warm.clone();
    let mut b = warm.clone();
    for _ in 0..150 {
        a.step();
        b.step();
    }
    assert_eq!(fingerprint(&a), fingerprint(&b), "clones diverged");
}

/// Sleep epochs under the chunked engine: on a wide region (side 100R,
/// where agents sleep between classifications) a flood spanning
/// several move chunks is bitwise identical at 1 and 2 threads, awake
/// agent-steps included, and informs exactly the chunked oracle's
/// agents at the same times.
#[test]
fn wide_region_sleeping_is_thread_invariant_and_matches_oracle() {
    let n = MOVE_CHUNK + 1_500; // two chunks
    let run = |engine: EngineMode, threads: usize| {
        let mut s = sim(
            n,
            100.0,
            1.0,
            0.9,
            23,
            Protocol::Flooding,
            engine,
            Parallelism::Chunked { threads },
            0,
        );
        let report = s.run(5_000);
        assert!(report.completed, "{engine:?}: flood must complete");
        (
            fingerprint(&s),
            s.awake_agent_steps(),
            s.bucket_join_steps(),
        )
    };
    let (one, awake, joins) = run(EngineMode::Adaptive, 1);
    assert!(
        awake < n as u64 * u64::from(joins),
        "no agent ever slept ({awake} awake agent-steps over {joins} joins)"
    );
    assert_eq!(
        run(EngineMode::Adaptive, 2),
        (one.clone(), awake, joins),
        "2 threads diverged"
    );
    assert_eq!(
        run(EngineMode::Oracle, 2).0,
        one,
        "diverged from the oracle"
    );
}
