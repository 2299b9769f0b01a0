//! Criterion bench: full flooding runs end to end, plus engine step
//! throughput.
//!
//! `full_flood` times a complete flood (init, run until everyone is
//! informed) at two small network sizes and in both the dense (fast) and
//! sparse (suburb-bound) regimes — the unit of work every table in
//! EXPERIMENTS.md repeats.
//!
//! `engine_step` times one move-then-transmit step of the adaptive
//! zero-allocation engine at n ∈ {1k, 10k, 100k} — plus
//! n = 300k when `FASTFLOOD_BENCH_LARGE` is set (the full measurement
//! run; the tier-1 smoke skips it to stay fast) — mid-flood in the
//! sparse regime (the regime the Theorem 3 / Theorem 18 sweeps live
//! in). `scripts/bench_engine.sh` records this group to
//! `BENCH_engine.json`; `docs/BENCHMARKING.md` documents the protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SimParams, SourcePlacement};
use fastflood_mobility::Mrwp;
use std::hint::black_box;

fn full_flood(params: &SimParams, seed: u64) -> u32 {
    let model = Mrwp::new(params.side(), params.speed()).expect("valid");
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(params.n(), params.radius())
            .seed(seed)
            .source(SourcePlacement::Center),
    )
    .expect("valid config");
    sim.run(1_000_000).flooding_time.expect("completes")
}

fn flood_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flood");
    group.sample_size(10);
    for &(n, c1, label) in &[
        (500usize, 6.0, "dense"),
        (500, 2.0, "sparse"),
        (2_000, 6.0, "dense"),
        (2_000, 2.0, "sparse"),
    ] {
        let scale = SimParams::standard(n, 1.0, 0.0)
            .expect("valid")
            .radius_scale();
        let radius = c1 * scale;
        let params = SimParams::standard(n, radius, 0.3 * radius).expect("valid");
        group.bench_with_input(BenchmarkId::new(label, n), &params, |b, p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(full_flood(p, seed))
            });
        });
    }
    group.finish();
}

/// Step throughput of the adaptive zero-allocation engine.
///
/// Each iteration clones a warmed mid-flood state (~25% informed,
/// sparse regime) and runs a fixed batch of steps from it, so every
/// measured step does frontier transmit work — a time-sized loop on one
/// sim would let the flood complete and degrade into measuring
/// post-completion steps. `batch_steps` asserts the flood is still
/// incomplete after every measured batch, so miscalibrated parameters
/// fail loudly instead of silently benching mobility-only steps. The
/// per-iteration state clone is included in the measurement (identical
/// for every engine). Throughput is agent-steps per second (`n × batch`
/// elements per iteration).
fn engine_step(c: &mut Criterion) {
    fn warm(params: &SimParams) -> FloodingSim<Mrwp> {
        let model = Mrwp::new(params.side(), params.speed()).expect("valid");
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(params.n(), params.radius())
                .seed(1)
                .source(SourcePlacement::Center)
                .engine(EngineMode::Adaptive),
        )
        .expect("valid config");
        sim.reserve_steps(1 << 16);
        // warm up to a mid-flood frontier
        while 4 * sim.informed_count() < sim.n() && !sim.all_informed() {
            sim.step();
        }
        sim
    }

    fn batch_steps(warm: &FloodingSim<Mrwp>, batch: u32) -> u32 {
        let mut sim = warm.clone();
        let mut newly = 0;
        for _ in 0..batch {
            newly += black_box(sim.step()) as u32;
        }
        assert!(
            !sim.all_informed(),
            "flood completed inside the measured batch; shrink the batch"
        );
        newly
    }

    let mut group = c.benchmark_group("engine_step");
    let mut sizes = vec![(1_000usize, 32u32), (10_000, 32), (100_000, 32)];
    if bench_large() {
        sizes.push((300_000, 16));
    }
    for &(n, batch) in &sizes {
        let scale = SimParams::standard(n, 1.0, 0.0)
            .expect("valid")
            .radius_scale();
        let radius = 0.4 * scale;
        let params = SimParams::standard(n, radius, 0.2 * radius).expect("valid");
        group.throughput(Throughput::Elements(n as u64 * batch as u64));
        group.bench_with_input(BenchmarkId::new("adaptive", n), &params, |b, p| {
            let sim = warm(p);
            assert!(!sim.all_informed(), "warm state must be mid-flood");
            b.iter(|| black_box(batch_steps(&sim, batch)));
        });
    }
    group.finish();
}

/// Whether the expensive large-`n` (300k) rows run: enabled by
/// `FASTFLOOD_BENCH_LARGE=1` (set by `scripts/bench_engine.sh`), skipped
/// in the tier-1 bench smoke where warming a 300k flood would dominate
/// the whole verification flow.
fn bench_large() -> bool {
    std::env::var_os("FASTFLOOD_BENCH_LARGE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Sustained step throughput: a time-sized `step()` loop from a
/// ~50%-informed state — the measurement protocol the seed's own step
/// bench used, kept so current numbers stay comparable with the
/// seed-implementation baseline recorded in `BENCH_engine.json` at the
/// start of the engine rework. The loop runs through completion into
/// cheap post-completion steps, so it reflects a whole-run mix rather
/// than pure frontier work (use `engine_step` for that). `adaptive`
/// rows run the sequential production engine; `adaptive_par_tT` rows
/// run the chunked-parallel engine on a `T`-thread pool (the PR 5 threads
/// sweep; deterministic per thread count, different trajectories than
/// the sequential rows — see `docs/BENCHMARKING.md`).
fn engine_step_sustained(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_sustained");
    let mut sizes = vec![1_000usize, 10_000, 100_000];
    if bench_large() {
        sizes.push(300_000);
    }
    let mut variants: Vec<(String, EngineMode, Parallelism)> = vec![(
        "adaptive".into(),
        EngineMode::Adaptive,
        Parallelism::Sequential,
    )];
    for threads in [1usize, 2, 4] {
        variants.push((
            format!("adaptive_par_t{threads}"),
            EngineMode::Adaptive,
            Parallelism::Chunked { threads },
        ));
    }
    for &n in &sizes {
        let scale = SimParams::standard(n, 1.0, 0.0)
            .expect("valid")
            .radius_scale();
        let radius = 0.4 * scale;
        let params = SimParams::standard(n, radius, 0.2 * radius).expect("valid");
        group.throughput(Throughput::Elements(n as u64));
        for (label, engine, parallelism) in &variants {
            group.bench_with_input(BenchmarkId::new(label.clone(), n), &params, |b, p| {
                let model = Mrwp::new(p.side(), p.speed()).expect("valid");
                let mut sim = FloodingSim::new(
                    model,
                    SimConfig::new(p.n(), p.radius())
                        .seed(1)
                        .source(SourcePlacement::Center)
                        .engine(*engine)
                        .parallelism(*parallelism),
                )
                .expect("valid config");
                sim.reserve_steps(1 << 22);
                let mut guard = 0u32;
                while 2 * sim.informed_count() < sim.n() && guard < 20_000 {
                    sim.step();
                    guard += 1;
                }
                b.iter(|| black_box(sim.step()));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    flood_end_to_end,
    engine_step,
    engine_step_sustained
);
criterion_main!(benches);
