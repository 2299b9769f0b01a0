//! Measured-drift staleness: the incremental join's accumulated
//! staleness bound is fed by the *measured* per-step drift of the
//! batched move pass rather than the worst-case model speed. These
//! tests pin the two halves of that contract:
//!
//! * **soundness** — at every step, every agent's true displacement
//!   since the last grid synchronization is at most the accumulated
//!   bound (else a deferred join could prune a slice hiding an in-range
//!   transmitter);
//! * **exactness under long deferrals** — transmit sets stay
//!   lockstep-identical to the brute-force oracle across long deferred
//!   sequences, including pause-heavy runs where the measured bound
//!   grows much slower than `speed()` and the DEFER window stretches
//!   accordingly.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SourcePlacement};
use fastflood_geom::Point;
use fastflood_mobility::Mrwp;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Accumulated measured drift upper-bounds every agent's true
    /// displacement since the last refresh — through pause steps,
    /// way-point rollovers, deferred membership churn, and the skip
    /// paths that accrue drift without joining.
    #[test]
    fn accumulated_staleness_bounds_true_displacement(
        seed in 0u64..500,
        n in 20usize..80,
        pause in 0u32..5,
        speed_centi in 5u32..60,
    ) {
        let speed = speed_centi as f64 / 100.0;
        let model = Mrwp::new(24.0, speed).unwrap().with_pause(pause);
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(n, 2.0)
                .seed(seed)
                .source(SourcePlacement::Agent(0))
                .engine(EngineMode::Adaptive),
        )
        .unwrap();
        // positions the grids were last synchronized at (every sync
        // re-files agents at their current coordinates and zeroes the
        // bound)
        let mut filed: Vec<Point> = sim.positions().to_vec();
        for t in 1..=600u32 {
            sim.step();
            let stale = sim.incremental_staleness();
            if stale == 0.0 {
                filed.copy_from_slice(sim.positions());
            } else {
                for (i, p) in sim.positions().iter().enumerate() {
                    let moved = filed[i].euclid(*p);
                    prop_assert!(
                        moved <= stale + 1e-9,
                        "step {}: agent {} drifted {} > bound {}",
                        t, i, moved, stale
                    );
                }
            }
        }
        prop_assert!(
            sim.incremental_deferred_steps() > 0,
            "the run must exercise deferred (stale) joins"
        );
    }

    /// Long deferred sequences with pauses: the stale join's transmit
    /// sets must stay lockstep-identical to the brute-force oracle even
    /// when the measured bound lets the engine defer far longer than the
    /// worst-case `speed()` accrual would.
    #[test]
    fn stale_join_lockstep_with_oracle_under_pauses(
        seed in 0u64..500,
        n in 30usize..100,
        pause in 1u32..6,
    ) {
        let config = |engine: EngineMode| {
            SimConfig::new(n, 2.2)
                .seed(seed)
                .source(SourcePlacement::Agent(0))
                .engine(engine)
        };
        let model = Mrwp::new(20.0, 0.25).unwrap().with_pause(pause);
        let mut inc = FloodingSim::new(model.clone(), config(EngineMode::Adaptive)).unwrap();
        let mut oracle = FloodingSim::new(model, config(EngineMode::Oracle)).unwrap();
        for t in 1..=800u32 {
            let a = inc.step();
            let b = oracle.step();
            prop_assert_eq!(a, b, "step {}: newly-informed counts diverged", t);
            prop_assert_eq!(
                inc.informed(),
                oracle.informed(),
                "step {}: informed sets diverged under deferred joins",
                t
            );
            if inc.all_informed() {
                break;
            }
        }
        prop_assert_eq!(inc.report(), oracle.report());
        prop_assert!(inc.incremental_deferred_steps() > 0);
    }
}

/// The soundness invariant under the chunked-parallel engine: the
/// per-chunk measured drifts reduce (max, canonical order) to a bound
/// that still covers every agent's true displacement since the last
/// grid synchronization. Runs with `threads: 0`, so `scripts/tier1.sh`
/// re-exercises it under `FASTFLOOD_THREADS=2`.
#[test]
fn parallel_accumulated_staleness_bounds_true_displacement() {
    for pause in [0u32, 3] {
        let model = Mrwp::new(24.0, 0.4).unwrap().with_pause(pause);
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(60, 2.0)
                .seed(11 + pause as u64)
                .source(SourcePlacement::Agent(0))
                .engine(EngineMode::Adaptive)
                .parallelism(Parallelism::Chunked { threads: 0 }),
        )
        .unwrap();
        let mut filed: Vec<Point> = sim.positions().to_vec();
        for t in 1..=600u32 {
            sim.step();
            let stale = sim.incremental_staleness();
            if stale == 0.0 {
                filed.copy_from_slice(sim.positions());
            } else {
                for (i, p) in sim.positions().iter().enumerate() {
                    let moved = filed[i].euclid(*p);
                    assert!(
                        moved <= stale + 1e-9,
                        "pause {pause}, step {t}: agent {i} drifted {moved} > bound {stale}"
                    );
                }
            }
        }
        assert!(
            sim.incremental_deferred_steps() > 0,
            "the parallel run must exercise deferred (stale) joins"
        );
    }
}

/// Long pause-heavy deferrals under the chunked-parallel engine: the
/// partitioned stale join must stay lockstep-identical to a brute-force
/// oracle sharing the same chunk streams.
#[test]
fn parallel_stale_join_lockstep_with_oracle_under_pauses() {
    let parallelism = Parallelism::Chunked { threads: 0 };
    let config = |engine: EngineMode| {
        SimConfig::new(80, 2.2)
            .seed(31)
            .source(SourcePlacement::Agent(0))
            .engine(engine)
            .parallelism(parallelism)
    };
    let model = Mrwp::new(20.0, 0.25).unwrap().with_pause(3);
    let mut inc = FloodingSim::new(model.clone(), config(EngineMode::Adaptive)).unwrap();
    let mut oracle = FloodingSim::new(model, config(EngineMode::Oracle)).unwrap();
    for t in 1..=800u32 {
        let a = inc.step();
        let b = oracle.step();
        assert_eq!(a, b, "step {t}: newly-informed counts diverged");
        assert_eq!(
            inc.informed(),
            oracle.informed(),
            "step {t}: informed sets diverged under parallel deferred joins"
        );
        if inc.all_informed() {
            break;
        }
    }
    assert_eq!(inc.report(), oracle.report());
    assert!(inc.incremental_deferred_steps() > 0);
}

/// The measured bound is strictly tighter than the worst case when
/// motion stalls: an all-paused population accrues (near-)zero
/// staleness, so the engine keeps deferring where the `speed()` bound
/// would long since have forced refresh passes.
#[test]
fn paused_population_stretches_the_defer_window() {
    // a tiny population with heavy pauses: whole steps pass with every
    // agent sitting at a way-point, and only those steps accrue nothing
    let model = Mrwp::new(18.0, 0.5).unwrap().with_pause(40);
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(4, 2.0)
            .seed(9)
            .source(SourcePlacement::Agent(0))
            .engine(EngineMode::Adaptive),
    )
    .unwrap();
    let mut zero_drift_steps = 0u32;
    let mut moving_steps = 0u32;
    for _ in 0..600 {
        let stale_before = sim.incremental_staleness();
        sim.step();
        let stale_after = sim.incremental_staleness();
        // a step whose measured drift was ~0 leaves the bound unchanged
        // (the skip paths after completion keep accruing, so the count
        // works across the whole run)
        if stale_after > 0.0 {
            if (stale_after - stale_before).abs() < 1e-12 {
                zero_drift_steps += 1;
            } else {
                moving_steps += 1;
            }
        }
    }
    assert!(
        zero_drift_steps > 0,
        "all-paused steps must accrue no staleness (got {} deferred steps, {} refreshes)",
        sim.incremental_deferred_steps(),
        sim.incremental_full_rebuilds(),
    );
    assert!(
        moving_steps > 0,
        "steps with a traveling agent must still accrue measured drift"
    );
}
