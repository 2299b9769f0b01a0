//! Timing-free regression gate on the incremental join: one fixed
//! sparse flood must reproduce its flooding time and the exact
//! DEFER/REFRESH/FULL/EPOCH decision, re-layout, re-filed entry and awake
//! agent-step counts. The counters are deterministic per seed, so a
//! change to the staleness budget, the re-file rule, the slack layout,
//! the overflow path or the sleep epochs shows up here as an exact
//! mismatch, with no timing noise.

use fastflood::core::{
    EngineMode, FloodingSim, Parallelism, SimConfig, SimParams, SourcePlacement,
};
use fastflood::mobility::Mrwp;

#[derive(Debug, PartialEq, Eq)]
struct Counters {
    flooding_time: Option<u32>,
    diff_steps: u32,
    deferred_steps: u32,
    full_rebuilds: u32,
    epoch_rebuilds: u32,
    relayouts: u64,
    refiled_entries: u64,
    awake_agent_steps: u64,
}

/// MRWP below the connectivity threshold (R = 0.4 of the radius scale,
/// v = 0.2·R), n = 10 000, seed 1, source at the center, flooded to
/// completion under the adaptive engine.
fn sparse_flood(parallelism: Parallelism) -> Counters {
    let n = 10_000;
    let scale = SimParams::standard(n, 1.0, 0.0).unwrap().radius_scale();
    let radius = 0.4 * scale;
    let params = SimParams::standard(n, radius, 0.2 * radius).unwrap();
    let model = Mrwp::new(params.side(), params.speed()).unwrap();
    let config = SimConfig::new(n, params.radius())
        .seed(1)
        .source(SourcePlacement::Center)
        .engine(EngineMode::Adaptive)
        .parallelism(parallelism);
    let mut sim = FloodingSim::new(model, config).unwrap();
    let report = sim.run(100_000);
    Counters {
        flooding_time: report.flooding_time,
        diff_steps: sim.incremental_diff_steps(),
        deferred_steps: sim.incremental_deferred_steps(),
        full_rebuilds: sim.incremental_full_rebuilds(),
        epoch_rebuilds: sim.incremental_epoch_rebuilds(),
        relayouts: sim.incremental_relayouts(),
        refiled_entries: sim.incremental_refiled_entries(),
        awake_agent_steps: sim.awake_agent_steps(),
    }
}

/// The exact counters of `sparse_flood`, and the share of join steps
/// that deferred re-binning.
fn assert_counters(counters: Counters, expected: Counters) {
    assert_eq!(counters, expected);
    // the staleness budget defers re-binning on most join steps
    assert!(
        counters.deferred_steps as f64 >= 0.7 * counters.diff_steps as f64,
        "{counters:?}"
    );
}

#[test]
fn sequential_sparse_flood_work_counters_are_exact() {
    assert_counters(
        sparse_flood(Parallelism::Sequential),
        Counters {
            flooding_time: Some(155),
            diff_steps: 145,
            deferred_steps: 113,
            full_rebuilds: 1,
            epoch_rebuilds: 9,
            relayouts: 0,
            refiled_entries: 46_800,
            awake_agent_steps: 704_880,
        },
    );
}

#[test]
fn chunked_sparse_flood_work_counters_are_exact_for_any_thread_count() {
    // Chunked moves draw from per-chunk streams, so its flood differs
    // from the sequential one; within the class the chunk layout fixes
    // the trajectory, and grid synchronization is sequential, so the
    // thread count changes none of the counters
    let counters = sparse_flood(Parallelism::Chunked { threads: 2 });
    assert_eq!(sparse_flood(Parallelism::Chunked { threads: 1 }), counters);
    assert_counters(
        counters,
        Counters {
            flooding_time: Some(150),
            diff_steps: 140,
            deferred_steps: 109,
            full_rebuilds: 1,
            epoch_rebuilds: 9,
            relayouts: 0,
            refiled_entries: 47_865,
            awake_agent_steps: 717_170,
        },
    );
}
