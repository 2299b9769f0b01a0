//! The production transmit engine (adaptive: the incrementally
//! maintained bucket join, and the fine-grid gossip gather) must inform
//! *exactly* the same agent set per step as the brute-force oracle, for
//! every protocol, with and without crashes.
//!
//! Engine modes are constructed so they consume identical random
//! streams; any divergence in informed sets, inform times, or spread
//! curves is an engine bug, not noise.

use fastflood_core::{EngineMode, FloodingSim, Protocol, SimConfig, SourcePlacement};
use fastflood_geom::Point;
use fastflood_mobility::Mrwp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sim(
    n: usize,
    seed: u64,
    protocol: Protocol,
    engine: EngineMode,
    crash_stride: usize,
) -> FloodingSim<Mrwp> {
    let model = Mrwp::new(18.0, 0.6).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(n, 2.5)
            .seed(seed)
            .source(SourcePlacement::Agent(0))
            .protocol(protocol)
            .engine(engine),
    )
    .unwrap();
    if crash_stride > 0 {
        // deterministic crash pattern, never the source
        for a in (1..n).step_by(crash_stride) {
            sim.crash_agent(a);
        }
    }
    sim
}

/// Steps the adaptive engine and the oracle in lockstep, comparing the
/// newly informed counts and informed sets after every step.
fn lockstep_compare(n: usize, seed: u64, protocol: Protocol, crash_stride: usize, steps: u32) {
    let mut tested = sim(n, seed, protocol, EngineMode::Adaptive, crash_stride);
    let mut oracle = sim(n, seed, protocol, EngineMode::Oracle, crash_stride);
    for t in 1..=steps {
        let a = tested.step();
        let b = oracle.step();
        prop_assert_eq!(
            a,
            b,
            "step {} newly-informed counts diverged (n={}, seed={}, {:?}, stride {})",
            t,
            n,
            seed,
            protocol,
            crash_stride
        );
        prop_assert_eq!(
            tested.informed(),
            oracle.informed(),
            "step {} informed sets diverged (n={}, seed={}, {:?}, stride {})",
            t,
            n,
            seed,
            protocol,
            crash_stride
        );
        if tested.all_informed() {
            break;
        }
    }
    prop_assert_eq!(tested.report(), oracle.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flooding_matches_oracle(seed in 0u64..1000, n in 40usize..160, stride in 0usize..6) {
        // stride 1 crashes every non-source agent — a completion edge case
        lockstep_compare(n, seed, Protocol::Flooding, stride, 400);
    }

    #[test]
    fn parsimonious_matches_oracle(seed in 0u64..1000, n in 40usize..140, p in 0.05f64..0.95) {
        lockstep_compare(n, seed, Protocol::Parsimonious { p }, 0, 400);
    }

    #[test]
    fn parsimonious_with_crashes_matches_oracle(seed in 0u64..500, n in 40usize..120) {
        lockstep_compare(n, seed, Protocol::Parsimonious { p: 0.4 }, 4, 400);
    }

    #[test]
    fn gossip_matches_oracle(seed in 0u64..1000, n in 40usize..140, k in 1usize..6) {
        lockstep_compare(n, seed, Protocol::Gossip { k }, 0, 400);
    }

    #[test]
    fn gossip_with_crashes_matches_oracle(seed in 0u64..500, n in 40usize..120, k in 1usize..4) {
        lockstep_compare(n, seed, Protocol::Gossip { k }, 5, 400);
    }

    #[test]
    fn gossip_with_dense_crashes_matches_oracle(seed in 0u64..500, n in 40usize..140, k in 1usize..6) {
        lockstep_compare(n, seed, Protocol::Gossip { k }, 3, 400);
    }
}

/// Gossip with `k >= n` can never need to sample, so it must inform the
/// same agents as full flooding — not just finish at the same time, but
/// match step for step.
#[test]
fn gossip_with_k_at_least_n_matches_flooding_step_for_step() {
    for seed in [3u64, 17, 99] {
        let n = 120;
        let mut flood = sim(n, seed, Protocol::Flooding, EngineMode::Adaptive, 0);
        let mut gossip = sim(n, seed, Protocol::Gossip { k: n }, EngineMode::Adaptive, 0);
        for _ in 0..2_000 {
            flood.step();
            gossip.step();
            assert_eq!(
                flood.informed(),
                gossip.informed(),
                "seed {seed}: gossip k=n diverged from flooding"
            );
            if flood.all_informed() {
                break;
            }
        }
        assert!(flood.all_informed(), "seed {seed}: flood must complete");
        assert_eq!(flood.report(), gossip.report());
    }
}

/// The same lockstep checks on a couple of fixed configurations, kept as
/// plain tests so a failure names the exact scenario.
#[test]
fn fixed_scenarios_match_oracle() {
    lockstep_compare(100, 42, Protocol::Flooding, 3, 600);
    lockstep_compare(100, 42, Protocol::Gossip { k: 2 }, 3, 600);
    lockstep_compare(100, 42, Protocol::Parsimonious { p: 0.3 }, 3, 600);
}

/// Crashing agents *mid-run* — after the incremental grids are warm and
/// diff-synced — must invalidate the maintenance chain and resync via
/// full rebuilds without ever diverging from the oracle. This is the
/// only test that exercises the crash fallback while diffs are in
/// flight (the proptests crash before the first step).
#[test]
fn incremental_survives_mid_run_crashes_and_resyncs() {
    let n = 300;
    let model = Mrwp::new(50.0, 0.3).unwrap();
    let config = |engine: EngineMode| {
        SimConfig::new(n, 1.5)
            .seed(77)
            .source(SourcePlacement::Agent(0))
            .engine(engine)
    };
    let mut inc = FloodingSim::new(model.clone(), config(EngineMode::Adaptive)).unwrap();
    let mut oracle = FloodingSim::new(model, config(EngineMode::Oracle)).unwrap();
    for t in 1..=3000u32 {
        if t % 40 == 0 {
            // crash a deterministic batch in both sims: informed and
            // uninformed agents alike leave their grids
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
            "step {t}: incremental diverged after mid-run crashes"
        );
        if inc.all_informed() {
            break;
        }
    }
    assert_eq!(inc.report(), oracle.report());
    assert!(
        inc.incremental_full_rebuilds() >= 2,
        "each crash batch must force a fresh resync (got {})",
        inc.incremental_full_rebuilds()
    );
    assert!(
        inc.incremental_diff_steps() > inc.incremental_full_rebuilds(),
        "between crashes the engine must re-bin by diff"
    );
    assert!(
        inc.incremental_deferred_steps() > 0,
        "some diff steps must have deferred re-binning entirely"
    );
}

/// The adaptive engine runs the bucket join on every flooding step of
/// a dense large-`n` flood — there is no other indexed transmit path —
/// and stays lockstep-identical to the brute-force oracle.
#[test]
fn adaptive_engages_bucket_join_in_dense_regime_and_matches_oracle() {
    let n = 4_096;
    let model = Mrwp::new((n as f64).sqrt(), 0.8).unwrap();
    let config = |engine: EngineMode| {
        SimConfig::new(n, 3.2)
            .seed(2010)
            .source(SourcePlacement::Agent(0))
            .engine(engine)
    };
    let mut adaptive = FloodingSim::new(model.clone(), config(EngineMode::Adaptive)).unwrap();
    let mut oracle = FloodingSim::new(model, config(EngineMode::Oracle)).unwrap();
    for _ in 0..600 {
        adaptive.step();
        oracle.step();
        assert_eq!(
            adaptive.informed(),
            oracle.informed(),
            "auto-engaged join diverged from the oracle"
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
        adaptive.incremental_diff_steps() > 0,
        "the join must re-bin incrementally, not from scratch"
    );
    assert!(
        adaptive.incremental_deferred_steps() > 0,
        "v ≪ bucket here, so some steps must defer re-binning entirely"
    );
    assert_eq!(adaptive.report(), oracle.report());
}

/// Side of the wide-region cases, in units of the radius R = 1: the
/// square is 25 join buckets across, so the sleep epochs engage.
const WIDE_SIDE: f64 = 100.0;

/// Agents per wide-region flood.
const WIDE_N: usize = 2_000;

/// How a wide-region flood starts.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Stationary MRWP positions, the source at the center.
    Uniform,
    /// Four fifths of the agents packed into a dense strip 4R high
    /// across the square, the source at its west end. The front runs
    /// along the strip by relay hops of up to R per step, so it reaches
    /// uninformed agents ahead of it far sooner than motion alone could.
    Strip,
}

fn wide_sim(
    speed: f64,
    seed: u64,
    layout: Layout,
    protocol: Protocol,
    engine: EngineMode,
) -> FloodingSim<Mrwp> {
    let model = Mrwp::new(WIDE_SIDE, speed).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(WIDE_N, 1.0)
            .seed(seed)
            .source(SourcePlacement::Center)
            .protocol(protocol)
            .engine(engine),
    )
    .unwrap();
    if let Layout::Strip = layout {
        let mut rng = StdRng::seed_from_u64(seed);
        let mid = WIDE_SIDE / 2.0;
        for a in 0..WIDE_N * 4 / 5 {
            let p = Point::new(
                WIDE_SIDE * rng.gen::<f64>(),
                mid - 2.0 + 4.0 * rng.gen::<f64>(),
            );
            sim.place_agent_at(a, p).unwrap();
        }
        sim.reset_source(SourcePlacement::Nearest(Point::new(0.0, mid)))
            .unwrap();
    }
    sim
}

fn inform_times(sim: &FloodingSim<Mrwp>) -> Vec<Option<u32>> {
    (0..sim.n()).map(|a| sim.inform_time(a)).collect()
}

/// Floods the adaptive engine and the oracle side by side from the same
/// seed, applying `events` to both before each step, and asserts that
/// the whole inform-time vectors and the reports agree, and that some
/// agents slept.
fn wide_flood_matches_oracle(
    speed: f64,
    seed: u64,
    layout: Layout,
    protocol: Protocol,
    mut events: impl FnMut(u32, &mut FloodingSim<Mrwp>),
) {
    let mut adaptive = wide_sim(speed, seed, layout, protocol, EngineMode::Adaptive);
    let mut oracle = wide_sim(speed, seed, layout, protocol, EngineMode::Oracle);
    for t in 0..5_000u32 {
        if adaptive.all_informed() {
            break;
        }
        events(t, &mut adaptive);
        events(t, &mut oracle);
        adaptive.step();
        oracle.step();
    }
    let label = format!("v={speed} seed={seed} {layout:?} {protocol:?}");
    assert!(adaptive.all_informed(), "{label}: flood must complete");
    assert_eq!(
        inform_times(&adaptive),
        inform_times(&oracle),
        "{label}: inform times diverged"
    );
    assert_eq!(adaptive.report(), oracle.report(), "{label}");
    let indexed = WIDE_N as u64 * u64::from(adaptive.bucket_join_steps());
    assert!(
        adaptive.awake_agent_steps() < indexed,
        "{label}: no agent ever slept"
    );
}

/// Sleeping is exact: on a region 100R wide, at speeds 0.5R and 0.9R,
/// the adaptive engine reproduces the oracle's inform time of every
/// agent over 12 floods, half of them along a dense relay strip where
/// the front outruns motion.
#[test]
fn wide_region_floods_match_oracle_with_sleeping_agents() {
    for speed in [0.5, 0.9] {
        for seed in 0..6 {
            let layout = if seed % 2 == 0 {
                Layout::Uniform
            } else {
                Layout::Strip
            };
            wide_flood_matches_oracle(speed, seed, layout, Protocol::Flooding, |_, _| {});
        }
    }
}

/// Parsimonious flooding sleeps only the uninformed side: coins are
/// drawn over the whole roster and every coin-passing transmitter is
/// joined, so the flood must still match the oracle exactly.
#[test]
fn wide_region_parsimonious_matches_oracle() {
    for (seed, layout) in [(1, Layout::Uniform), (2, Layout::Strip)] {
        let protocol = Protocol::Parsimonious { p: 0.5 };
        wide_flood_matches_oracle(0.9, seed, layout, protocol, |_, _| {});
    }
}

/// Events end a sleep epoch early: an out-of-band inform, crashes and
/// revivals mid-flood each change a side, so the next join must
/// reclassify rather than trust the sleeping sets.
#[test]
fn wide_region_events_mid_epoch_match_oracle() {
    for (seed, layout) in [(3, Layout::Uniform), (4, Layout::Strip)] {
        wide_flood_matches_oracle(
            0.9,
            seed,
            layout,
            Protocol::Flooding,
            |t, sim: &mut FloodingSim<Mrwp>| {
                let n = sim.n();
                match t {
                    // a second source, the highest-numbered uninformed
                    // agent, mid-epoch
                    21 => {
                        if let Some(a) = (0..n).rev().find(|&a| !sim.informed()[a]) {
                            sim.inform_agent(a);
                        }
                    }
                    // crash a spread-out batch, informed or not, and
                    // revive it a few steps later
                    37 => (1..n).step_by(53).for_each(|a| sim.crash_agent(a)),
                    42 => (1..n).step_by(53).for_each(|a| sim.revive_agent(a)),
                    _ => {}
                }
            },
        );
    }
}
