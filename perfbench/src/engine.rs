//! The two engine workloads: whole floods from t = 0, on a bare
//! `FloodingSim` (`sparse-flood-300k`) and through the scenario `Driver`
//! (`churn-150k-t2`).
//!
//! The untraced run times `FloodingSim::new` / `Driver::new` (set-up) and
//! each whole flood, back to back, one derived seed per flood. The traced
//! run floods the run's own seed, alternating floods with phase timing off
//! and on, and reads the engine's counters after each flood. `Driver` keeps its simulation private, so the churn workload's
//! traced run replays the Driver's recorded fault log on a bare
//! `FloodingSim` built from the same scenario, and checks that the replay
//! floods identically before using its phase times.

use crate::{
    expected_for, inform_digest, median, quantile, ratio, sys, Args, Outcome, DEFAULT_SEED,
};
use fastflood_bench::scenario::{
    scenario_by_name, Driver, FaultRecord, InitSpec, ModelSpec, Outcome as RunOutcome,
    ProtocolSpec, Scenario, SourceSpec,
};
use fastflood_core::{
    EngineMode, FloodingSim, InitMode, Parallelism, Protocol, SimConfig, SimParams, SourcePlacement,
};
use fastflood_mobility::{Mobility, Mrwp};
use std::time::Instant;

/// Steps after which a sparse flood that has not completed counts as
/// failed (a flood at 300k completes in about 600).
const STEP_GUARD: u32 = 50_000;

/// Informed-fraction bins of the per-stage step cost: 0–10 %, …, 90–100 %.
const STAGES: usize = 10;

/// One whole flood as the untraced loop sees it.
struct Flood {
    setup_s: f64,
    wall_s: f64,
}

/// Per-layer accumulators of the traced floods of one run.
#[derive(Default)]
struct Layers {
    floods: u64,
    steps: u64,
    span_ms: f64,
    move_ns: u64,
    boundary_ns: u64,
    transmit_ns: u64,
    refresh_ns: u64,
    stage_ms: [f64; STAGES],
    stage_steps: [u64; STAGES],
    cpu_s: f64,
    wall_s: f64,
    // exact counters of the last traced flood (identical for every flood
    // of one seed)
    join_steps: u32,
    diff_steps: u32,
    deferred_steps: u32,
    full_rebuilds: u32,
    spike_rebuilds: u32,
    relayouts: u64,
    threads: usize,
}

/// Steps `sim` until the flood is over, applying `faults` at their steps
/// as `Driver::pump` applies them, and ending where `Driver::pump` ends a
/// run: at the step budget, or once every live agent is informed and no
/// fault is left. Pushes each `step()` call's latency in ms; with
/// `stages`, also bins it by the informed fraction before the step.
/// Returns the flood's wall time in seconds.
fn flood_sim<M: Mobility>(
    sim: &mut FloodingSim<M>,
    faults: &[FaultRecord],
    budget: u32,
    step_ms: &mut Vec<f64>,
    mut stages: Option<&mut Layers>,
) -> f64 {
    let n = sim.n() as f64;
    let mut next = 0;
    let started = Instant::now();
    loop {
        let t = sim.time();
        while let Some(fault) = faults.get(next).filter(|f| f.step == t) {
            for &agent in &fault.agents {
                match fault.kind {
                    "crash" | "partition" => sim.crash_agent(agent as usize),
                    _ => sim.revive_agent(agent as usize),
                }
            }
            next += 1;
        }
        if t >= budget || (sim.all_informed() && next >= faults.len()) {
            break;
        }
        let informed = sim.informed_count() as f64 / n;
        let s = Instant::now();
        sim.step();
        let ms = s.elapsed().as_secs_f64() * 1e3;
        step_ms.push(ms);
        if let Some(layers) = stages.as_deref_mut() {
            let bin = ((informed * STAGES as f64) as usize).min(STAGES - 1);
            layers.stage_ms[bin] += ms;
            layers.stage_steps[bin] += 1;
        }
    }
    started.elapsed().as_secs_f64()
}

/// [`flood_sim`] with phase timing on, accumulating the layer times and
/// reading the counters after the flood.
fn traced_flood<M: Mobility>(
    sim: &mut FloodingSim<M>,
    faults: &[FaultRecord],
    budget: u32,
    layers: &mut Layers,
) -> f64 {
    sim.enable_phase_timing(true);
    let before = sim.phase_times();
    let cpu_before = sys::cpu_seconds("self");
    let mut spans = Vec::new();
    let wall = flood_sim(sim, faults, budget, &mut spans, Some(layers));
    layers.cpu_s += sys::cpu_seconds("self") - cpu_before;
    layers.wall_s += wall;
    let after = sim.phase_times();
    layers.move_ns += after.move_ns - before.move_ns;
    layers.boundary_ns += after.boundary_ns - before.boundary_ns;
    layers.transmit_ns += after.transmit_ns - before.transmit_ns;
    layers.refresh_ns += after.refresh_ns - before.refresh_ns;
    layers.floods += 1;
    layers.steps += spans.len() as u64;
    layers.span_ms += spans.iter().sum::<f64>();
    layers.join_steps = sim.bucket_join_steps();
    layers.diff_steps = sim.incremental_diff_steps();
    layers.deferred_steps = sim.incremental_deferred_steps();
    layers.full_rebuilds = sim.incremental_full_rebuilds();
    layers.spike_rebuilds = sim.incremental_spike_rebuilds();
    layers.relayouts = sim.incremental_relayouts();
    layers.threads = sim.parallel_threads();
    wall
}

/// The flooding time (if complete) and inform-time digest of a finished
/// sim.
fn sim_result<M: Mobility>(sim: &FloodingSim<M>) -> (Option<u32>, u64) {
    let report = sim.report();
    let time = report.completed.then_some(report.flooding_time).flatten();
    let digest = inform_digest((0..sim.n()).map(|i| sim.inform_time(i).unwrap_or(u32::MAX)));
    (time, digest)
}

/// The seed of flood `i` of an untraced run seeded `seed`. Floods 0 and 1
/// repeat the run's own seed; every later flood gets a seed of its own,
/// so a run's medians cover as many inputs as its time allows.
fn flood_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i.saturating_sub(1) as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// Checks each flood: it completed, and its flooding time and digest
/// equal those of the run's first flood of the same seed and, for the
/// default seed, the expected values.
struct Checker {
    what: &'static str,
    seen: Vec<(u64, Option<u32>, u64)>,
    expected: Option<(u32, u64)>,
}

impl Checker {
    fn new(args: &Args, what: &'static str) -> Result<Checker, String> {
        Ok(Checker {
            what,
            seen: Vec::new(),
            expected: expected_for(args)?,
        })
    }

    fn check(&mut self, out: &mut Outcome, seed: u64, label: &str, time: Option<u32>, digest: u64) {
        let mut ok = true;
        let mut fail = |msg: String| {
            ok = false;
            out.error(format!("{} {label} (seed {seed}): {msg}", self.what));
        };
        if time.is_none() {
            fail("the flood did not complete".into());
        }
        match self.seen.iter().find(|s| s.0 == seed) {
            None => self.seen.push((seed, time, digest)),
            Some(&(_, t, d)) if (t, d) != (time, digest) => fail(format!(
                "flooding time {time:?} / digest {digest:016x} differ from the first \
                 flood's {t:?} / {d:016x}"
            )),
            Some(_) => {}
        }
        if let (DEFAULT_SEED, Some((t, d))) = (seed, self.expected) {
            if time != Some(t) || digest != d {
                fail(format!(
                    "flooding time {time:?} / digest {digest:016x} differ from the \
                     expected {t} / {d:016x}"
                ));
            }
        }
        out.count(ok);
    }

    fn note(&self, out: &mut Outcome) {
        for &(seed, time, digest) in &self.seen {
            let time = time.map_or("incomplete".into(), |t| t.to_string());
            out.note(format!(
                "seed {seed} flooding_time={time} digest={digest:016x}"
            ));
        }
    }
}

/// The end-to-end metrics of an engine workload. A job is one whole
/// flood: set-up plus the flood.
fn engine_e2e(out: &mut Outcome, floods: &[Flood], step_ms: &[f64]) {
    let setup: Vec<f64> = floods.iter().map(|f| f.setup_s).collect();
    let wall: Vec<f64> = floods.iter().map(|f| f.wall_s).collect();
    let job_ms: Vec<f64> = floods
        .iter()
        .map(|f| (f.setup_s + f.wall_s) * 1e3)
        .collect();
    let busy: f64 = floods.iter().map(|f| f.setup_s + f.wall_s).sum();
    let m = &mut out.metrics;
    m.put("flood_wall_s", median(&wall), "s");
    m.put("setup_s", median(&setup), "s");
    m.put("job_latency_ms.p50", median(&job_ms), "ms");
    m.put("jobs_per_s", ratio(floods.len() as f64, busy), "1/s");
    m.put("peak_rss_mb", sys::peak_rss_mb("self"), "MiB");
    out.note(format!(
        "samples floods={} steps={}",
        floods.len(),
        step_ms.len()
    ));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", quantile(step_ms, d as f64 / 10.0)))
        .collect();
    out.note(format!("step_ms deciles {}", deciles.join(" ")));
}

/// The per-layer metrics the engine exposes, from the traced floods.
///
/// The `untraced_*` samples come from the traced run's floods with phase
/// timing off: the tracing overhead compares against their wall times,
/// and the step- and job-latency tails are taken over them.
fn engine_layers(
    out: &mut Outcome,
    l: &Layers,
    untraced_wall: &[f64],
    untraced_step_ms: &[f64],
    untraced_job_ms: &[f64],
    traced_wall: &[f64],
) {
    let steps = l.steps as f64;
    let floods = l.floods as f64;
    let per_step = |ns: u64| ratio(ns as f64 / 1e6, steps);
    let move_ms = per_step(l.move_ns);
    let transmit_ms = per_step(l.transmit_ns);
    let span_ms = ratio(l.span_ms, steps);
    let steps_per_flood = ratio(steps, floods);
    let m = &mut out.metrics;
    m.put("mobility.move_ms_per_step", move_ms, "ms");
    m.put(
        "mobility.boundary_ms_per_step",
        per_step(l.boundary_ns),
        "ms",
    );
    m.put("spatial.refresh_ms_per_step", per_step(l.refresh_ns), "ms");
    m.put(
        "spatial.join_apply_ms_per_step",
        per_step(l.transmit_ns - l.refresh_ns),
        "ms",
    );
    m.put("step_ms.p50", quantile(untraced_step_ms, 0.5), "ms");
    m.put("step_ms.p95", quantile(untraced_step_ms, 0.95), "ms");
    m.put("job_latency_ms.p90", quantile(untraced_job_ms, 0.9), "ms");
    m.put("core.step_ms_per_step", span_ms, "ms");
    m.put(
        "core.step_other_ms_per_step",
        span_ms - move_ms - transmit_ms,
        "ms",
    );
    m.put("core.steps", steps_per_flood, "count");
    m.put("core.join_steps", f64::from(l.join_steps), "count");
    m.put(
        "core.mark_steps",
        steps_per_flood - f64::from(l.join_steps),
        "count",
    );
    m.put("spatial.diff_steps", f64::from(l.diff_steps), "count");
    m.put(
        "spatial.deferred_steps",
        f64::from(l.deferred_steps),
        "count",
    );
    m.put(
        "spatial.refresh_steps",
        f64::from(l.diff_steps - l.deferred_steps),
        "count",
    );
    m.put("spatial.full_rebuilds", f64::from(l.full_rebuilds), "count");
    m.put(
        "spatial.spike_rebuilds",
        f64::from(l.spike_rebuilds),
        "count",
    );
    m.put("spatial.relayouts", l.relayouts as f64, "count");
    m.put(
        "spatial.defer_ratio",
        ratio(f64::from(l.deferred_steps), f64::from(l.diff_steps)),
        "ratio",
    );
    for b in 0..STAGES {
        let name = format!("stage.f{:02}", b * 10);
        m.put(
            format!("{name}.ms_per_step"),
            ratio(l.stage_ms[b], l.stage_steps[b] as f64),
            "ms",
        );
        m.put(
            format!("{name}.steps"),
            ratio(l.stage_steps[b] as f64, floods),
            "count",
        );
    }
    m.put("parallel.threads", l.threads as f64, "count");
    m.put("parallel.cpu_util", ratio(l.cpu_s, l.wall_s), "ratio");
    m.put(
        "trace.overhead",
        ratio(median(traced_wall), median(untraced_wall)) - 1.0,
        "ratio",
    );
    out.note(format!(
        "samples traced_floods={} traced_steps={} untraced_floods={}",
        l.floods,
        l.steps,
        untraced_wall.len()
    ));
}

/// `sparse-flood-300k`: MRWP in the paper's sparse regime (R = 0.4 of the
/// connectivity scale, v = 0.2 R), source at the center, adaptive engine,
/// sequential.
pub fn sparse(args: &Args) -> Result<Outcome, String> {
    let n = if args.tiny { 3_000 } else { 300_000 };
    let bad = |e: &dyn std::fmt::Display| e.to_string();
    let scale = SimParams::standard(n, 1.0, 0.0)
        .map_err(|e| bad(&e))?
        .radius_scale();
    let radius = 0.4 * scale;
    let params = SimParams::standard(n, radius, 0.2 * radius).map_err(|e| bad(&e))?;
    let model = Mrwp::new(params.side(), params.speed()).map_err(|e| bad(&e))?;
    let config = SimConfig::new(n, params.radius())
        .seed(args.seed)
        .source(SourcePlacement::Center)
        .engine(EngineMode::Adaptive)
        .parallelism(Parallelism::Sequential);
    let new_sim = |seed: u64| -> Result<(FloodingSim<Mrwp>, f64), String> {
        let t0 = Instant::now();
        let sim =
            FloodingSim::new(model.clone(), config.clone().seed(seed)).map_err(|e| bad(&e))?;
        Ok((sim, t0.elapsed().as_secs_f64()))
    };

    let mut out = Outcome::default();
    let mut checker = Checker::new(args, "sparse flood")?;
    let deadline = args.deadline(Instant::now());
    if !args.trace {
        let mut floods = Vec::new();
        let mut step_ms = Vec::new();
        while floods.len() < 2 || Instant::now() < deadline {
            let seed = flood_seed(args.seed, floods.len());
            let (mut sim, setup_s) = new_sim(seed)?;
            let wall_s = flood_sim(&mut sim, &[], STEP_GUARD, &mut step_ms, None);
            let (flooding_time, digest) = sim_result(&sim);
            let label = format!("#{}", floods.len());
            checker.check(&mut out, seed, &label, flooding_time, digest);
            floods.push(Flood { setup_s, wall_s });
        }
        engine_e2e(&mut out, &floods, &step_ms);
    } else {
        // The first flood of a process runs measurably slower (fresh
        // pages); an untimed warm-up flood keeps it out of the overhead.
        let (mut sim, _) = new_sim(args.seed)?;
        flood_sim(&mut sim, &[], STEP_GUARD, &mut Vec::new(), None);
        let (time, digest) = sim_result(&sim);
        checker.check(&mut out, args.seed, "warm-up", time, digest);
        drop(sim);
        let mut layers = Layers::default();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let (mut step_ms, mut job_ms) = (Vec::new(), Vec::new());
        let mut pair = 0;
        while traced.is_empty() || Instant::now() < deadline {
            // alternate which flood of a pair runs first, so neither side
            // always starts on the memory the other just freed
            for is_traced in [pair % 2 == 1, pair % 2 == 0] {
                let (mut sim, setup_s) = new_sim(args.seed)?;
                let label = if is_traced {
                    traced.push(traced_flood(&mut sim, &[], STEP_GUARD, &mut layers));
                    "traced"
                } else {
                    let wall_s = flood_sim(&mut sim, &[], STEP_GUARD, &mut step_ms, None);
                    untraced.push(wall_s);
                    job_ms.push((setup_s + wall_s) * 1e3);
                    "untraced"
                };
                let (time, digest) = sim_result(&sim);
                checker.check(&mut out, args.seed, label, time, digest);
            }
            pair += 1;
        }
        engine_layers(&mut out, &layers, &untraced, &step_ms, &job_ms, &traced);
    }
    checker.note(&mut out);
    Ok(out)
}

/// The library `churn-spike` scenario, density-preserving rescaled to `n`,
/// and its MRWP model.
fn churn_scenario(n: usize) -> Result<(Scenario, Mrwp), String> {
    let sc = scenario_by_name("churn-spike")
        .ok_or("the scenario library has no churn-spike")?
        .scaled(n);
    let ModelSpec::Mrwp { side, speed, pause } = sc.model else {
        return Err("churn-spike is expected to use the mrwp model".into());
    };
    let model = Mrwp::new(side, speed)
        .map_err(|e| e.to_string())?
        .with_pause(pause);
    Ok((sc, model))
}

/// Runs `d` to the end of its scenario, timing each `pump()` and `step()`
/// call. Returns the wall time in seconds and the summed pump time in ms.
fn flood_driver<M: Mobility>(d: &mut Driver<M>, step_ms: &mut Vec<f64>) -> (f64, f64) {
    let mut pump_ms = 0.0;
    let started = Instant::now();
    loop {
        let p = Instant::now();
        let done = d.pump();
        pump_ms += p.elapsed().as_secs_f64() * 1e3;
        if done {
            break;
        }
        let s = Instant::now();
        d.step();
        step_ms.push(s.elapsed().as_secs_f64() * 1e3);
    }
    (started.elapsed().as_secs_f64(), pump_ms)
}

/// A bare `FloodingSim` configured exactly as `Driver::new` configures
/// one for `sc` (which must have no clusters, exits or nearest-point
/// source — churn-spike has none).
fn replay_sim(
    sc: &Scenario,
    model: Mrwp,
    parallelism: Parallelism,
    seed: u64,
) -> Result<FloodingSim<Mrwp>, String> {
    if !sc.clusters.is_empty() || !sc.exits.is_empty() {
        return Err("the replay supports scenarios without clusters or exits".into());
    }
    let init = match sc.init {
        InitSpec::Stationary => InitMode::Stationary,
        InitSpec::Uniform => InitMode::ColdUniform,
    };
    let protocol = match sc.protocol {
        ProtocolSpec::Flooding => Protocol::Flooding,
        ProtocolSpec::Parsimonious { p } => Protocol::Parsimonious { p },
        ProtocolSpec::Gossip { k } => Protocol::Gossip { k },
    };
    let placement = match sc.source {
        SourceSpec::Random => SourcePlacement::Random,
        SourceSpec::Center => SourcePlacement::Center,
        SourceSpec::SwCorner => SourcePlacement::SwCorner,
        SourceSpec::Agent(i) => SourcePlacement::Agent(i),
        SourceSpec::Nearest(..) => return Err("the replay does not support nearest sources".into()),
    };
    let config = SimConfig::new(sc.n, sc.radius)
        .seed(seed)
        .source(SourcePlacement::Agent(0))
        .init(init)
        .protocol(protocol)
        .engine(EngineMode::Adaptive)
        .parallelism(parallelism);
    let mut sim = FloodingSim::new(model, config).map_err(|e| e.to_string())?;
    sim.reset_source(placement).map_err(|e| e.to_string())?;
    Ok(sim)
}

/// `churn-150k-t2`: churn-spike at 150k agents (22 500 crash and 22 500
/// revive per step during steps 2–11), adaptive engine, chunked on a
/// 2-thread pool, driven through `Driver::new/pump/step/finish`.
pub fn churn(args: &Args) -> Result<Outcome, String> {
    let n = if args.tiny { 3_000 } else { 150_000 };
    let (sc, model) = churn_scenario(n)?;
    let parallelism = Parallelism::Chunked { threads: 2 };
    let new_driver = |seed: u64| -> Result<(Driver<Mrwp>, f64), String> {
        let t0 = Instant::now();
        let d = Driver::new(&sc, model.clone(), EngineMode::Adaptive, parallelism, seed)
            .map_err(|e| e.to_string())?;
        Ok((d, t0.elapsed().as_secs_f64()))
    };
    let result = |d: &Driver<Mrwp>| {
        let run = d.finish();
        let time = match run.outcome {
            RunOutcome::Flooded { time } => Some(time),
            RunOutcome::Timeout | RunOutcome::Extinct => None,
        };
        (
            time,
            inform_digest(run.trace.inform_time.iter().copied()),
            run.trace.faults,
        )
    };

    let mut out = Outcome::default();
    let mut checker = Checker::new(args, "churn flood")?;
    let deadline = args.deadline(Instant::now());
    if !args.trace {
        let mut floods = Vec::new();
        let mut step_ms = Vec::new();
        while floods.len() < 2 || Instant::now() < deadline {
            let seed = flood_seed(args.seed, floods.len());
            let (mut d, setup_s) = new_driver(seed)?;
            let (wall_s, _) = flood_driver(&mut d, &mut step_ms);
            let (flooding_time, digest, _) = result(&d);
            let label = format!("#{}", floods.len());
            checker.check(&mut out, seed, &label, flooding_time, digest);
            floods.push(Flood { setup_s, wall_s });
        }
        engine_e2e(&mut out, &floods, &step_ms);
    } else {
        let mut layers = Layers::default();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let (mut step_ms, mut job_ms) = (Vec::new(), Vec::new());
        let (mut pump_ms, mut touched) = (0.0, 0usize);
        while traced.is_empty() || Instant::now() < deadline {
            let (mut d, setup_s) = new_driver(args.seed)?;
            let (wall_s, pumped) = flood_driver(&mut d, &mut step_ms);
            job_ms.push((setup_s + wall_s) * 1e3);
            let (time, digest, faults) = result(&d);
            checker.check(&mut out, args.seed, "driver", time, digest);
            pump_ms += pumped;
            touched += faults.iter().map(|f| f.agents.len()).sum::<usize>();
            drop(d);

            let mut sim = replay_sim(&sc, model.clone(), parallelism, args.seed)?;
            untraced.push(flood_sim(
                &mut sim,
                &faults,
                sc.steps,
                &mut Vec::new(),
                None,
            ));
            let (time, digest) = sim_result(&sim);
            checker.check(&mut out, args.seed, "untraced replay", time, digest);
            drop(sim);

            let mut sim = replay_sim(&sc, model.clone(), parallelism, args.seed)?;
            traced.push(traced_flood(&mut sim, &faults, sc.steps, &mut layers));
            let (time, digest) = sim_result(&sim);
            checker.check(&mut out, args.seed, "traced replay", time, digest);
        }
        engine_layers(&mut out, &layers, &untraced, &step_ms, &job_ms, &traced);
        let runs = traced.len() as f64;
        let m = &mut out.metrics;
        m.put("scenario.pump_ms_total", pump_ms / runs, "ms");
        m.put("scenario.agents_touched", touched as f64 / runs, "count");
        m.put(
            "scenario.pump_us_per_agent",
            ratio(pump_ms * 1e3, touched as f64),
            "us",
        );
    }
    checker.note(&mut out);
    Ok(out)
}
