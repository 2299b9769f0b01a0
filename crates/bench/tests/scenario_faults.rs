//! Fault-schedule stress tests: adversarial scenarios must drive the
//! adaptive engine's incremental join through its whole DEFER →
//! REFRESH → FULL fallback ladder (and actually *take* each rung, per
//! the exposed counters), and pathological schedules must produce
//! well-defined outcomes instead of vacuous successes.

use fastflood_bench::scenario::{
    parse_scenario, run_scenario, run_scenario_trials, scenario_by_name, Outcome,
};
use fastflood_core::{EngineMode, Parallelism};
use proptest::prelude::*;

/// Dense regime with a wide partition window: the east side saturates
/// while the west 60% is silent, then the healed crowd is mass-informed
/// by the standing flood front. That walks every rung of the ladder:
/// quiet steps DEFER, drift forces REFRESH, the heal forces a cold FULL
/// resync, and the re-ignition wave informs more than `live/8` agents
/// per step with the chain intact — the churn-spike FULL fallback.
/// The speed (0.75 R per step) is what makes REFRESH reachable: the
/// quiet stretches between full rebuilds are only a few diff steps
/// long, and at this speed the second diff step after a rebuild already
/// overspends the joint staleness budget of the two join grids (0.9 of
/// the bucket margin), where at 0.5 R per step it would take a third.
const DENSE_PARTITION: &str = r#"
[scenario]
name = "dense-partition-ladder"
steps = 200

[mobility]
model = "mrwp"
side = 16.0
speed = 1.5

[population]
n = 500
radius = 2.0

[source]
place = "nearest"
at = [0.9, 0.5]

[[fault]]
kind = "partition"
at = 4
duration = 30
region = [0.0, 0.0, 0.75, 1.0]

[[fault]]
kind = "partition"
at = 60
duration = 30
region = [0.25, 0.0, 1.0, 1.0]
"#;

fn run_ladder(seed: u64) -> fastflood_bench::scenario::ScenarioRun {
    let sc = parse_scenario(DENSE_PARTITION).unwrap();
    let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, seed).unwrap();
    let fb = run.fallback;
    // the rungs every seed reaches: quiet post-rebuild steps DEFER, the
    // heal forces a cold FULL resync, and the healed crowd re-ignites
    // en masse — more than live/8 newly informed with the chain intact,
    // the churn-spike FULL fallback being *taken*
    assert!(
        fb.deferred_steps > 0,
        "seed {seed}: no DEFER taken ({fb:?})"
    );
    assert!(
        fb.full_rebuilds >= 2,
        "seed {seed}: expected cold start + fault resync FULL rebuilds ({fb:?})"
    );
    assert!(
        fb.spike_rebuilds >= 1,
        "seed {seed}: re-ignition after heal never tripped the churn-spike \
         fallback ({fb:?})"
    );
    assert!(
        matches!(run.outcome, Outcome::Flooded { .. }),
        "seed {seed}: dense run must still complete, got {:?}",
        run.outcome
    );
    run
}

#[test]
fn partition_heal_walks_the_whole_fallback_ladder() {
    // calibrated seeds that walk every rung, including the middle one:
    // at least one diff step refreshes the binning instead of deferring
    for seed in [1, 3, 4] {
        let run = run_ladder(seed);
        let fb = run.fallback;
        assert!(
            fb.diff_steps > fb.deferred_steps,
            "seed {seed}: every diff step deferred — REFRESH never taken ({fb:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ladder's DEFER / FULL / spike rungs are not a lucky seed:
    /// any trial seed takes them.
    #[test]
    fn fallback_ladder_is_seed_independent(seed in 0u64..10_000) {
        run_ladder(seed);
    }

    /// A churn burst forces the incremental chain down per-step: every
    /// burst step breaks `ready`, so full rebuilds scale with the burst
    /// length instead of staying at the cold-start handful.
    #[test]
    fn churn_bursts_force_repeated_full_rebuilds(seed in 0u64..10_000) {
        let sc = scenario_by_name("churn-spike").unwrap().scaled(500);
        let quiet = {
            let mut q = sc.clone();
            q.faults.clear();
            q
        };
        let faulted = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, seed)
            .unwrap();
        let baseline = run_scenario(&quiet, EngineMode::Adaptive, Parallelism::Sequential, seed)
            .unwrap();
        prop_assert!(
            faulted.fallback.full_rebuilds >= baseline.fallback.full_rebuilds + 3
                && faulted.fallback.full_rebuilds >= 8,
            "churn burst across the flood only moved rebuilds {} -> {}",
            baseline.fallback.full_rebuilds,
            faulted.fallback.full_rebuilds
        );
    }
}

#[test]
fn crash_storm_resyncs_but_still_floods() {
    let sc = scenario_by_name("crash-storm").unwrap().scaled(240);
    let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, 5).unwrap();
    assert!(run.fallback.full_rebuilds >= 2, "{:?}", run.fallback);
    assert!(matches!(run.outcome, Outcome::Flooded { .. }));
    let crashed = run
        .trace
        .faults
        .iter()
        .map(|f| f.agents.len())
        .sum::<usize>();
    assert_eq!(crashed, 72, "30% of 240 crash");
    assert_eq!(run.report.live, 240 - 72);
}

/// Satellite regression: a schedule that crashes everyone at step 0 is
/// a well-defined non-termination outcome on every trial — extinct, not
/// completed, no flooding time — and the driver stops immediately.
#[test]
fn all_crashed_at_step_zero_reports_extinction() {
    let sc = parse_scenario(
        r#"
        [scenario]
        name = "dead-on-arrival"
        steps = 200

        [mobility]
        model = "mrwp"
        side = 12.0
        speed = 0.3

        [population]
        n = 60
        radius = 2.0

        [[fault]]
        kind = "crash"
        at = 0
        frac = 1.0
        "#,
    )
    .unwrap();
    for engine in [EngineMode::Adaptive, EngineMode::Oracle] {
        let runs = run_scenario_trials(&sc, engine, Parallelism::Sequential, 2, 3, 99).unwrap();
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert_eq!(run.outcome, Outcome::Extinct, "{engine:?}");
            assert!(!run.report.completed);
            assert_eq!(run.report.flooding_time, None);
            assert_eq!(run.report.live, 0);
            assert_eq!(run.report.steps_run, 0, "dead population must not spin");
        }
    }
}

/// Healed agents that were never informed re-open the flood: the
/// partition scenario's spread curve is not monotone in the informed
/// *fraction of live agents* — completion waits for the returnees.
#[test]
fn heal_reopens_the_worklist() {
    let sc = parse_scenario(DENSE_PARTITION).unwrap();
    let run = run_scenario(&sc, EngineMode::Oracle, Parallelism::Sequential, 3).unwrap();
    let heal = run
        .trace
        .faults
        .iter()
        .find(|f| f.kind == "heal")
        .expect("heal fired");
    assert_eq!(heal.step, 34);
    let time = match run.outcome {
        Outcome::Flooded { time } => time,
        other => panic!("expected completion, got {other:?}"),
    };
    assert!(
        time > 34,
        "completion at {time} must wait for the step-34 returnees"
    );
    assert!(
        !heal.agents.is_empty(),
        "west 60% of a dense population holds someone"
    );
}

/// 64-bit FNV-1a over per-agent inform times (`u32::MAX` = never), the
/// digest the repository benchmark checks its floods against.
fn inform_digest(times: &[u32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for t in times {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Flooding time and inform digest of `churn-spike` at 3k agents, seed 1,
/// adaptive engine on a 2-thread chunked pool.
const PINNED_TIME: u32 = 36;
const PINNED_DIGEST: u64 = 0x64ac_38f1_5ef5_9dfd;

/// Pins the churn burst's outcome, so a change to fault surgery (the
/// crash and revive calls and the transmit roster order they leave) that
/// moves any agent's inform time fails here.
#[test]
fn churn_spike_digest_is_pinned() {
    let sc = scenario_by_name("churn-spike").unwrap().scaled(3_000);
    let run = run_scenario(
        &sc,
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 2 },
        1,
    )
    .unwrap();
    let touched: usize = run.trace.faults.iter().map(|f| f.agents.len()).sum();
    assert_eq!(
        touched,
        2 * 10 * 450,
        "ten steps of 450 crashes and 450 revivals"
    );
    assert_eq!(run.outcome, Outcome::Flooded { time: PINNED_TIME });
    assert_eq!(
        inform_digest(&run.trace.inform_time),
        PINNED_DIGEST,
        "churn-spike at 3k, seed 1: inform digest moved"
    );
}
