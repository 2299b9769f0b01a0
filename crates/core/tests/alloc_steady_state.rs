//! Zero-allocation steady state: once the engine's scratch is warm, a
//! full-flooding step must not touch the heap; and building a sim must
//! not hold the population twice.
//!
//! A counting global allocator wraps the system allocator; the tests run
//! a sim mid-flood (some agents uninformed), warm the engine, then assert
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
//!
//! The counters are process-global and count every thread, pool workers
//! included. So this binary runs without the libtest harness (`harness =
//! false` in `Cargo.toml`): `main` runs the cases one after another on
//! the main thread, and no harness thread can allocate inside a measured
//! window. It prints libtest's `test <name> ... ok` lines and honours
//! `--list`, name filters, `--exact` and `--skip`.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, Protocol, SimConfig, SourcePlacement};
use fastflood_mobility::Mrwp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

struct CountingAlloc;

/// Allocation calls (`alloc` and `realloc`).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes freed, counting a realloc's old block.
static FREED: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    FREED.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `realloc` contract, passed on unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // a realloc may copy, so both blocks count at its peak
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn freed_bytes() -> usize {
    FREED.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes live now.
fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
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

fn full_flooding_steps_do_not_allocate() {
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

fn adaptive_incremental_join_does_not_allocate_in_dense_regime() {
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

fn parsimonious_and_gossip_steps_do_not_allocate() {
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

fn batched_move_pass_with_pauses_does_not_allocate() {
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

fn parallel_chunked_steps_do_not_allocate() {
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

fn batch_crash_and_revive_do_not_allocate() {
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

fn allocation_counter_sees_engine_allocations() {
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

/// Bytes per agent that building a sim may hold beyond what the sim
/// keeps: well under one more word per agent, so a whole-population
/// copy of the states (120 B/agent for MRWP) cannot hide in it.
const TRANSIENT_BYTES_PER_AGENT: usize = 8;

fn construction_holds_no_second_population() {
    // MRWP at unit density, R below the connectivity threshold, sequential and on
    // the chunked class's 2-thread pool
    let n = 100_000;
    let model = Mrwp::new((n as f64).sqrt(), 0.2).unwrap();
    let config = |parallelism| {
        SimConfig::new(n, 0.5)
            .seed(1)
            .source(SourcePlacement::Center)
            .engine(EngineMode::Adaptive)
            .parallelism(parallelism)
    };
    // positive control: the high-water mark and the freed count see a
    // dropped buffer
    reset_peak();
    let (base, freed) = (live_bytes(), freed_bytes());
    drop(std::hint::black_box(vec![1u8; 64 * n]));
    assert!(PEAK.load(Ordering::Relaxed) - base >= 64 * n);
    assert!(freed_bytes() - freed >= 64 * n);
    for parallelism in [Parallelism::Sequential, Parallelism::Chunked { threads: 2 }] {
        // the process-shared pool's threads outlive any sim: start them
        // before the window
        drop(FloodingSim::new(model.clone(), config(parallelism)).unwrap());
        reset_peak();
        let (base, freed) = (live_bytes(), freed_bytes());
        let sim = FloodingSim::new(model.clone(), config(parallelism)).unwrap();
        let retained = live_bytes() - base;
        let transient = PEAK.load(Ordering::Relaxed) - base - retained;
        // Capacity the sim reserves after a transient buffer is freed
        // can lift the final live bytes above the earlier peak, hiding
        // that buffer from `transient`; the bytes freed inside the window
        // bound the transient whatever the order.
        let freed = freed_bytes() - freed;
        let per_agent = |b: usize| b as f64 / n as f64;
        println!(
            "construction at n = {n}, {parallelism:?}: retained {:.1} B/agent, \
             peak - retained {:.2} B/agent, freed {:.2} B/agent",
            per_agent(retained),
            per_agent(transient),
            per_agent(freed)
        );
        // the batch and the positions alone are 84 B/agent
        assert!(retained >= 84 * n, "the counter must see the sim's arrays");
        for (what, bytes) in [("peak - retained", transient), ("freed", freed)] {
            assert!(
                bytes < TRANSIENT_BYTES_PER_AGENT * n,
                "{parallelism:?}: building the sim held {bytes} bytes ({what}) beyond what \
                 it keeps ({:.1} B/agent)",
                per_agent(bytes)
            );
        }
        drop(sim);
    }
}

/// Every case, by the name libtest would print.
const CASES: &[(&str, fn())] = &[
    (
        "adaptive_incremental_join_does_not_allocate_in_dense_regime",
        adaptive_incremental_join_does_not_allocate_in_dense_regime,
    ),
    (
        "allocation_counter_sees_engine_allocations",
        allocation_counter_sees_engine_allocations,
    ),
    (
        "batch_crash_and_revive_do_not_allocate",
        batch_crash_and_revive_do_not_allocate,
    ),
    (
        "batched_move_pass_with_pauses_does_not_allocate",
        batched_move_pass_with_pauses_does_not_allocate,
    ),
    (
        "construction_holds_no_second_population",
        construction_holds_no_second_population,
    ),
    (
        "full_flooding_steps_do_not_allocate",
        full_flooding_steps_do_not_allocate,
    ),
    (
        "parallel_chunked_steps_do_not_allocate",
        parallel_chunked_steps_do_not_allocate,
    ),
    (
        "parsimonious_and_gossip_steps_do_not_allocate",
        parsimonious_and_gossip_steps_do_not_allocate,
    ),
];

/// Runs the selected cases in sequence and reports them the way libtest
/// does; exits with 101 when one fails, as libtest does.
fn main() -> ExitCode {
    let mut filters = Vec::new();
    let mut skips = Vec::new();
    let (mut list, mut exact, mut ignored_only) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--exact" => exact = true,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(args.next()),
            // libtest options that take a value: the value is no filter
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" | "--shuffle-seed" => {
                args.next();
            }
            a if a.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let hit = |name: &str, pat: &String| {
        if exact {
            name == pat
        } else {
            name.contains(pat.as_str())
        }
    };
    let selected: Vec<_> = CASES
        .iter()
        .filter(|(name, _)| {
            !ignored_only
                && (filters.is_empty() || filters.iter().any(|f| hit(name, f)))
                && !skips.iter().any(|s| hit(name, s))
        })
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }
    println!("\nrunning {} tests", selected.len());
    let start = Instant::now();
    let mut failed = Vec::new();
    for &&(name, case) in &selected {
        let ok = std::panic::catch_unwind(case).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        CASES.len() - selected.len(),
        start.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(101)
    }
}
