//! Cross-mode agreement harness: every in-tree scenario runs under
//! every engine mode × parallelism flavor, and the bitwise event traces
//! must agree **within each determinism class**:
//!
//! * class 1 — `Sequential`: both engine modes draw the identical
//!   RNG stream, so traces (inform times, spread curve, fault records,
//!   raw position bits) must be `==`;
//! * class 2 — `Chunked { .. }`: a different (block-batched) sample
//!   than Sequential, but identical across engine modes *and* across
//!   thread counts.
//!
//! Fault injection and cluster layout draw from dedicated derived
//! streams, so this harness is exactly the lockstep invariant test under
//! adversarial workloads — any engine shortcut that drops or reorders a
//! draw shows up as a trace mismatch on some scenario.

use fastflood_bench::scenario::{library, run_scenario, Scenario, ScenarioRun};
use fastflood_core::{EngineMode, Parallelism};
use proptest::prelude::*;

const MODES: [EngineMode; 2] = [EngineMode::Adaptive, EngineMode::Oracle];

/// Library rescaled to a test-sized population (density preserved).
fn scaled_library() -> Vec<Scenario> {
    library().into_iter().map(|sc| sc.scaled(240)).collect()
}

fn run(sc: &Scenario, mode: EngineMode, par: Parallelism, seed: u64) -> ScenarioRun {
    run_scenario(sc, mode, par, seed)
        .unwrap_or_else(|e| panic!("{} under {mode:?}/{par:?} failed: {e}", sc.name))
}

/// Asserts both engine modes produce the reference's exact trace
/// and report under the given parallelism flavor.
fn assert_modes_agree(sc: &Scenario, par: Parallelism, seed: u64) -> ScenarioRun {
    let reference = run(sc, MODES[0], par, seed);
    for &mode in &MODES[1..] {
        let other = run(sc, mode, par, seed);
        assert_eq!(
            reference.trace, other.trace,
            "{}: {mode:?} trace diverged from {:?} under {par:?} (seed {seed})",
            sc.name, MODES[0]
        );
        assert_eq!(
            reference.report, other.report,
            "{}: {mode:?} report diverged under {par:?} (seed {seed})",
            sc.name
        );
        assert_eq!(reference.outcome, other.outcome);
    }
    reference
}

#[test]
fn every_scenario_agrees_across_modes_sequentially() {
    for sc in scaled_library() {
        let reference = assert_modes_agree(&sc, Parallelism::Sequential, 11);
        assert!(
            reference.report.steps_run > 0,
            "{}: scenario never stepped",
            sc.name
        );
    }
}

#[test]
fn every_scenario_agrees_across_modes_chunked() {
    for sc in scaled_library() {
        assert_modes_agree(&sc, Parallelism::Chunked { threads: 2 }, 11);
    }
}

#[test]
fn chunked_traces_are_thread_count_invariant() {
    for sc in scaled_library() {
        let two = run(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Chunked { threads: 2 },
            17,
        );
        let one = run(
            &sc,
            EngineMode::Adaptive,
            Parallelism::Chunked { threads: 1 },
            17,
        );
        assert_eq!(
            two.trace, one.trace,
            "{}: chunked trace depends on thread count",
            sc.name
        );
        assert_eq!(two.report, one.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mode agreement holds for arbitrary trial seeds, not just the
    /// fixed smoke seed — one adversarial scenario (faults + layout)
    /// and one plain one, both classes.
    #[test]
    fn agreement_is_seed_independent(seed in 0u64..100_000, idx in 0usize..7) {
        let sc = scaled_library().swap_remove(idx);
        assert_modes_agree(&sc, Parallelism::Sequential, seed);
        assert_modes_agree(&sc, Parallelism::Chunked { threads: 2 }, seed);
    }
}
