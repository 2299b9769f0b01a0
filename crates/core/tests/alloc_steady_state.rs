//! Zero-allocation steady state: once the engine's scratch is warm, a
//! full-flooding step must not touch the heap.
//!
//! A counting global allocator wraps the system allocator; the test runs
//! a sim mid-flood (some agents uninformed), warms the engine, then asserts
//! that further steps allocate nothing. The lib crate forbids unsafe
//! code; the `GlobalAlloc` shim lives here in the test crate.
//!
//! Every test below also covers the batched SoA move pass implicitly —
//! `FloodingSim::step` moves all agents through `Mobility::step_batch`
//! over the hot/cold `MrwpBatch` arrays, which are sized once at
//! construction and must never grow (way-point rollovers replace cold
//! entries in place; the drift measurement is pure arithmetic). The
//! pause-model test exercises the batch's slow path (pauses, rollovers,
//! leg-cache refills) explicitly.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, Protocol, SimConfig, SourcePlacement};
use fastflood_mobility::Mrwp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The allocation counter is process-global; the harness runs tests on
/// parallel threads, so every measured window must hold this lock or a
/// co-scheduled allocating test fails the zero assertions spuriously.
static MEASURE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn warm_sparse_sim(protocol: Protocol) -> FloodingSim<Mrwp> {
    // sparse regime: radius far below connectivity, slow agents, so the
    // flood stays incomplete for thousands of steps
    let model = Mrwp::new(100.0, 0.2).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(800, 1.5)
            .seed(7)
            .source(SourcePlacement::Center)
            .protocol(protocol)
            .engine(EngineMode::Adaptive),
    )
    .unwrap();
    // warm up every scratch buffer (both index sides get exercised as
    // the informed set grows) and pre-reserve the spread curve
    sim.reserve_steps(4_096);
    for _ in 0..300 {
        sim.step();
    }
    assert!(
        !sim.all_informed() && sim.informed_count() > 1,
        "test needs a mid-flood state: {} informed",
        sim.informed_count()
    );
    sim
}

#[test]
fn full_flooding_steps_do_not_allocate() {
    let _window = MEASURE.lock().unwrap();
    // the join's two slack-layout grids are maintained by diff; the
    // measured window must cover diff steps as well as deferred ones,
    // all out of retained storage
    let mut sim = warm_sparse_sim(Protocol::Flooding);
    let diff_before = sim.incremental_diff_steps();
    let before = allocations();
    for _ in 0..200 {
        sim.step();
    }
    let after = allocations();
    assert!(
        !sim.all_informed(),
        "flood completed mid-measurement; slow the parameters down"
    );
    assert!(
        sim.incremental_diff_steps() > diff_before,
        "the measured window must contain incremental diff re-bins"
    );
    assert_eq!(
        after - before,
        0,
        "full-flooding steady state must not allocate"
    );
}

#[test]
fn adaptive_incremental_join_does_not_allocate_in_dense_regime() {
    let _window = MEASURE.lock().unwrap();
    // a mid-flood state with a large transmitter roster, sparse enough
    // that the flood outlasts the window
    let model = Mrwp::new(100.0, 0.2).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(2_000, 1.2)
            .seed(11)
            .source(SourcePlacement::Center)
            .engine(EngineMode::Adaptive),
    )
    .unwrap();
    sim.reserve_steps(1 << 15);
    let mut guard = 0u32;
    while 2 * sim.informed_count() < sim.n() && guard < 20_000 {
        sim.step();
        guard += 1;
    }
    assert!(
        !sim.all_informed() && sim.bucket_join_steps() > 0,
        "warm state must be mid-flood with the join engaged ({} informed)",
        sim.informed_count()
    );
    let diff_before = sim.incremental_diff_steps();
    let before = allocations();
    for _ in 0..200 {
        sim.step();
    }
    let after = allocations();
    assert!(!sim.all_informed(), "flood completed mid-measurement");
    assert!(
        sim.incremental_diff_steps() > diff_before,
        "the join must re-bin by diff in the window"
    );
    assert_eq!(
        after - before,
        0,
        "adaptive incremental join steady state must not allocate"
    );
}

#[test]
fn parsimonious_and_gossip_steps_do_not_allocate() {
    let _window = MEASURE.lock().unwrap();
    for protocol in [Protocol::Parsimonious { p: 0.5 }, Protocol::Gossip { k: 2 }] {
        let mut sim = warm_sparse_sim(protocol);
        let diff_before = sim.incremental_diff_steps();
        let before = allocations();
        for _ in 0..200 {
            sim.step();
        }
        let after = allocations();
        // parsimonious rides the incremental join (gossip does not)
        if matches!(protocol, Protocol::Parsimonious { .. }) {
            assert!(!sim.all_informed(), "flood completed mid-measurement");
            assert!(
                sim.incremental_diff_steps() > diff_before,
                "the measured window must contain incremental diff re-bins"
            );
        }
        assert_eq!(
            after - before,
            0,
            "{protocol:?} steady state must not allocate"
        );
    }
}

#[test]
fn batched_move_pass_with_pauses_does_not_allocate() {
    let _window = MEASURE.lock().unwrap();
    // pause-heavy population: the batch's slow path (pause countdowns,
    // way-point rollovers into fresh trips, leg-cache refills) and the
    // measured-drift staleness accrual must run without heap traffic
    let model = Mrwp::new(100.0, 0.2).unwrap().with_pause(3);
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(800, 1.5)
            .seed(7)
            .source(SourcePlacement::Center)
            .engine(EngineMode::Adaptive),
    )
    .unwrap();
    sim.reserve_steps(4_096);
    for _ in 0..300 {
        sim.step();
    }
    assert!(
        !sim.all_informed() && sim.informed_count() > 1,
        "test needs a mid-flood state: {} informed",
        sim.informed_count()
    );
    let before = allocations();
    for _ in 0..200 {
        sim.step();
    }
    let after = allocations();
    assert!(!sim.all_informed(), "flood completed mid-measurement");
    assert_eq!(
        after - before,
        0,
        "batched move pass with pauses must not allocate"
    );
}

#[test]
fn parallel_chunked_steps_do_not_allocate() {
    let _window = MEASURE.lock().unwrap();
    // the chunked-parallel engine: pool dispatches, per-chunk event
    // scratch, block-RNG refill buffers (fixed inline arrays inside
    // each chunk context — refills must never touch the heap),
    // and partitioned stale joins (per-shard output regions) must all
    // run out of retained storage once the pool and scratch are warm,
    // with phase timing (and thus the kernel/boundary split counters)
    // live
    let model = Mrwp::new(100.0, 0.2).unwrap();
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(800, 1.5)
            .seed(7)
            .source(SourcePlacement::Center)
            .engine(EngineMode::Adaptive)
            .parallelism(Parallelism::Chunked { threads: 2 }),
    )
    .unwrap();
    sim.enable_phase_timing(true);
    sim.reserve_steps(4_096);
    for _ in 0..300 {
        sim.step();
    }
    assert!(
        !sim.all_informed() && sim.informed_count() > 1,
        "test needs a mid-flood state: {} informed",
        sim.informed_count()
    );
    let diff_before = sim.incremental_diff_steps();
    let before = allocations();
    for _ in 0..200 {
        sim.step();
    }
    let after = allocations();
    assert!(!sim.all_informed(), "flood completed mid-measurement");
    assert!(
        sim.incremental_diff_steps() > diff_before,
        "the measured window must contain parallel diff re-bins"
    );
    assert_eq!(
        after - before,
        0,
        "chunked-parallel steady state must not allocate"
    );
    // single chunk at n = 800, so summed chunk CPU time is
    // comparable against the wall-clock move phase
    let phases = sim.phase_times();
    assert!(
        phases.boundary_ns <= phases.move_ns,
        "boundary pass is a subset of the move pass"
    );
}

#[test]
fn batch_crash_and_revive_do_not_allocate() {
    let _window = MEASURE.lock().unwrap();
    // fault surgery flips flags and edits the transmit roster in place:
    // a revival pushes back into the capacity the roster was built with,
    // which a restore keeps
    let mut sim = warm_sparse_sim(Protocol::Flooding);
    let n = sim.n() as u32;
    let batches: Vec<Vec<u32>> = (0..4u32)
        .map(|k| (k..n).step_by(3 + k as usize).collect())
        .collect();
    let informed = |b: &[u32]| {
        b.iter()
            .filter(|&&a| sim.inform_time(a as usize).is_some())
            .count()
    };
    assert!(
        batches
            .iter()
            .all(|b| informed(b) > 0 && informed(b) < b.len()),
        "every batch must mix informed and uninformed agents"
    );
    for restored in [false, true] {
        let before = allocations();
        for b in &batches {
            b.iter().for_each(|&a| sim.crash_agent(a as usize));
        }
        let mut spent = allocations() - before;
        if restored {
            // the returnees must rejoin the restored roster
            let snap = sim.snapshot();
            sim.restore(&snap).unwrap();
        }
        let before = allocations();
        for b in batches.iter().rev() {
            b.iter().for_each(|&a| sim.revive_agent(a as usize));
        }
        spent += allocations() - before;
        assert!((0..n as usize).all(|a| !sim.is_crashed(a)));
        assert_eq!(
            spent, 0,
            "crash_agent/revive_agent must not allocate (restored = {restored})"
        );
    }
}

#[test]
fn allocation_counter_sees_engine_allocations() {
    let _window = MEASURE.lock().unwrap();
    // positive control for every zero assertion above: the counter must
    // see heap traffic made inside the engine crate. `report()` clones
    // the spread curve, so each call allocates at least once.
    let mut sim = warm_sparse_sim(Protocol::Flooding);
    let before = allocations();
    for _ in 0..50 {
        sim.step();
        std::hint::black_box(sim.report());
    }
    assert!(
        allocations() - before >= 50,
        "one report per step should allocate at least once per step"
    );
}
