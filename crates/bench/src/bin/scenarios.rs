//! Runs the in-tree scenario library (or one scenario) and emits
//! per-scenario flooding/evacuation-time JSON to stdout.
//!
//! Usage:
//! `cargo run --release -p fastflood-bench --bin scenarios -- \
//!   [--quick] [--scenario NAME|FILE.toml] [--engine MODE] [--parallelism P] \
//!   [--seed N] [--trials N] [--threads N] [--n N] \
//!   [--checkpoint-every N] [--checkpoint-dir DIR] [--resume DIR]`
//!
//! `--scenario` takes a library name, or else the path of a scenario
//! file in the format of `docs/SCENARIOS.md`. `--quick` rescales every
//! scenario to a tiny population (density preserved) and runs 2 trials
//! — the tier-1 smoke configuration.
//!
//! `--parallelism` selects the intra-step engine per trial: `seq`
//! (default) or `chunked`; `chunked` resolves its worker count from
//! `FASTFLOOD_THREADS` / available parallelism. `--threads` stays
//! trial-level (how many trials run concurrently) and defaults to the
//! same count.
//!
//! # Checkpointing
//!
//! `--checkpoint-every N` writes an atomic whole-run snapshot every `N`
//! steps under `--checkpoint-dir DIR` (per scenario and trial:
//! `DIR/<scenario>/trial<k>/run-step<t>.ckpt`). `--resume DIR` scans
//! that layout before each trial and continues from the newest
//! checkpoint that decodes and restores, falling file-by-file past
//! corrupted or incompatible snapshots (and starting fresh when nothing
//! survives). By the bitwise-resume contract a resumed trial emits the
//! same trace digest as an uninterrupted one. Checkpointed trials run
//! sequentially and the JSON output switches to one row per trial,
//! including `trace_digest`. `--step-delay-ms N` (a test hook) sleeps
//! after every step so the crash-recovery harness can kill the process
//! inside a checkpoint window.
//!
//! # Bisection
//!
//! `scenarios bisect --scenario NAME|FILE.toml --engine-a A --parallelism-a PA \
//! --engine-b B --parallelism-b PB [--seed N] [--every N] [--n N|--quick]`
//! replays one trial under both configurations and isolates the first
//! step at which their state digests diverge (see
//! [`bisect_divergence`]), printing a one-step JSON report.
//!
//! # Paper quantities
//!
//! `scenarios bounds [--n 4000] [--c1 3.0] [--vfrac 0.3]` prints the
//! Central Zone / Suburb census and every derived quantity of the paper
//! (thresholds, Ineqs. 7–8, the Theorem 3, 10 and 18 bounds) for the
//! standard square `L = √n`, `R = c1·L·√(ln n / n)` and `v = vfrac·R`.

use fastflood_bench::scenario::{
    bisect_divergence, library, parse_scenario, run_scenario_checkpointed, run_scenario_trials,
    scenario_by_name, trace_digest, BisectSide, Cadence, CheckpointOpts, Outcome, Scenario,
    ScenarioRun,
};
use fastflood_core::{EngineMode, Parallelism, SimParams, ZoneMap};
use fastflood_stats::seeds::derive_seed;
use std::path::PathBuf;

struct Args {
    quick: bool,
    scenario: Option<String>,
    engine: EngineMode,
    parallelism: Parallelism,
    seed: u64,
    trials: Option<usize>,
    threads: usize,
    n: Option<usize>,
    checkpoint_every: u32,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    step_delay_ms: u64,
    // bisect-only
    engine_b: EngineMode,
    parallelism_b: Parallelism,
    bisect_every: u32,
}

fn parse_engine(v: &str) -> EngineMode {
    v.parse().unwrap_or_else(|e: String| panic!("{e}"))
}

fn parse_parallelism(v: &str) -> Parallelism {
    v.parse().unwrap_or_else(|e: String| panic!("{e}"))
}

fn parse_args(it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        quick: false,
        scenario: None,
        engine: EngineMode::Adaptive,
        parallelism: Parallelism::Sequential,
        seed: 0,
        trials: None,
        threads: fastflood_parallel::default_threads(),
        n: None,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: false,
        step_delay_ms: 0,
        engine_b: EngineMode::Adaptive,
        parallelism_b: Parallelism::Sequential,
        bisect_every: 16,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--scenario" => args.scenario = Some(value("--scenario")),
            "--engine" | "--engine-a" => args.engine = parse_engine(&value(&flag)),
            "--engine-b" => args.engine_b = parse_engine(&value("--engine-b")),
            "--parallelism" | "--parallelism-a" => {
                args.parallelism = parse_parallelism(&value(&flag));
            }
            "--parallelism-b" => args.parallelism_b = parse_parallelism(&value("--parallelism-b")),
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes a u64"),
            "--trials" => {
                args.trials = Some(value("--trials").parse().expect("--trials takes a count"))
            }
            "--threads" => {
                args.threads = value("--threads").parse().expect("--threads takes a count")
            }
            "--n" => args.n = Some(value("--n").parse().expect("--n takes a count")),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .expect("--checkpoint-every takes a step count");
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir").into()),
            "--resume" => {
                args.resume = true;
                let dir: PathBuf = value("--resume").into();
                args.checkpoint_dir.get_or_insert(dir);
            }
            "--step-delay-ms" => {
                args.step_delay_ms = value("--step-delay-ms")
                    .parse()
                    .expect("--step-delay-ms takes milliseconds");
            }
            "--every" => {
                args.bisect_every = value("--every")
                    .parse()
                    .expect("--every takes a step count");
            }
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    if args.checkpoint_every > 0 && args.checkpoint_dir.is_none() {
        panic!("--checkpoint-every requires --checkpoint-dir (or --resume DIR)");
    }
    args
}

/// Tiny but still-connected population for `--quick` smoke runs.
const QUICK_N: usize = 220;

/// Resolves a `--scenario` value: a library name selects that
/// scenario, anything else is read as the path of a scenario file.
fn resolve_scenario(value: &str) -> Scenario {
    if let Some(sc) = scenario_by_name(value) {
        return sc;
    }
    let text = std::fs::read_to_string(value).unwrap_or_else(|e| {
        panic!("{value:?} is neither a library scenario nor a readable scenario file: {e}")
    });
    parse_scenario(&text).unwrap_or_else(|e| panic!("{value}: {e}"))
}

/// `--n` rescales to that population, `--quick` to [`QUICK_N`].
fn rescaled(args: &Args, sc: Scenario) -> Scenario {
    match (args.n, args.quick) {
        (Some(n), _) => sc.scaled(n),
        (None, true) => sc.scaled(QUICK_N),
        (None, false) => sc,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn scenario_json(sc: &Scenario, engine: EngineMode, runs: &[ScenarioRun]) -> String {
    let mut flooded = 0usize;
    let mut timeout = 0usize;
    let mut extinct = 0usize;
    let mut times: Vec<f64> = Vec::new();
    let mut giant = 0.0f64;
    let mut rebuilds = 0u32;
    let mut spikes = 0u32;
    for run in runs {
        match run.outcome {
            Outcome::Flooded { time } => {
                flooded += 1;
                times.push(time as f64);
            }
            Outcome::Timeout => timeout += 1,
            Outcome::Extinct => extinct += 1,
        }
        giant += run.initial_giant_fraction;
        rebuilds += run.fallback.full_rebuilds;
        spikes += run.fallback.spike_rebuilds;
    }
    giant /= runs.len().max(1) as f64;
    let time_json = if times.is_empty() {
        "null".to_string()
    } else {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        format!("{{\"mean\": {mean:.1}, \"min\": {min}, \"max\": {max}}}")
    };
    format!(
        concat!(
            "  {{\"scenario\": {}, \"model\": {}, \"metric\": {}, \"engine\": {:?}, ",
            "\"n\": {}, \"radius\": {:.3}, \"trials\": {}, ",
            "\"outcomes\": {{\"flooded\": {}, \"timeout\": {}, \"extinct\": {}}}, ",
            "\"time\": {}, \"initial_giant_fraction\": {:.3}, ",
            "\"full_rebuilds\": {}, \"spike_rebuilds\": {}}}"
        ),
        json_str(&sc.name),
        json_str(sc.model.label()),
        json_str(sc.metric.label()),
        format!("{engine:?}").to_lowercase(),
        sc.n,
        sc.radius,
        runs.len(),
        flooded,
        timeout,
        extinct,
        time_json,
        giant,
        rebuilds,
        spikes,
    )
}

/// Checkpointed trials run sequentially (each owns a snapshot
/// directory) and report one JSON row per trial, digest included, so a
/// resumed process can be compared against an uninterrupted reference
/// across process boundaries.
fn run_checkpointed(args: &Args, sc: &Scenario, trials: usize, rows: &mut Vec<String>) {
    let base = args
        .checkpoint_dir
        .as_ref()
        .expect("checkpointed runs carry a directory");
    for trial in 0..trials {
        let opts = CheckpointOpts {
            dir: base.join(&sc.name).join(format!("trial{trial:02}")),
            cadence: Cadence::Steps(args.checkpoint_every),
            resume: args.resume,
            label: "run".to_string(),
            step_delay_ms: args.step_delay_ms,
            cancel: None,
            panic_at_step: None,
        };
        let seed = derive_seed(args.seed ^ sc.seed, trial as u64);
        let (run, summary) =
            run_scenario_checkpointed(sc, args.engine, args.parallelism, seed, &opts)
                .unwrap_or_else(|e| panic!("scenario {:?} trial {trial} failed: {e}", sc.name));
        for (path, why) in &summary.rejected {
            eprintln!("  [trial {trial}] rejected {}: {why}", path.display());
        }
        let resumed = match &summary.resumed_from {
            Some((path, step)) => {
                eprintln!(
                    "  [trial {trial}] resumed from {} (step {step})",
                    path.display()
                );
                step.to_string()
            }
            None => "null".to_string(),
        };
        eprintln!(
            "{:<26} n={:<5} trial={} -> {}",
            sc.name,
            sc.n,
            trial,
            run.outcome.label()
        );
        rows.push(format!(
            concat!(
                "  {{\"scenario\": {}, \"trial\": {}, \"outcome\": {}, ",
                "\"trace_digest\": \"{:016x}\", \"resumed_from_step\": {}, ",
                "\"rejected\": {}, \"written\": {}}}"
            ),
            json_str(&sc.name),
            trial,
            json_str(run.outcome.label()),
            trace_digest(&run.trace),
            resumed,
            summary.rejected.len(),
            summary.written.len(),
        ));
    }
}

fn main_bisect(args: &Args) {
    let name = args
        .scenario
        .as_deref()
        .expect("bisect requires --scenario NAME|FILE.toml");
    let sc = rescaled(args, resolve_scenario(name));
    let seed = derive_seed(args.seed ^ sc.seed, 0);
    let report = bisect_divergence(
        &sc,
        BisectSide {
            engine: args.engine,
            parallelism: args.parallelism,
        },
        BisectSide {
            engine: args.engine_b,
            parallelism: args.parallelism_b,
        },
        seed,
        args.bisect_every,
    )
    .unwrap_or_else(|e| panic!("bisect of {name:?} failed: {e}"));
    let first = report
        .first_divergent
        .map_or("null".to_string(), |t| t.to_string());
    let sections = report
        .differing_sections
        .iter()
        .map(|s| json_str(s))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        concat!(
            "{{\"scenario\": {}, \"first_divergent\": {}, \"replay_from\": {}, ",
            "\"differing_sections\": [{}], \"steps_a\": {}, \"steps_b\": {}}}"
        ),
        json_str(&sc.name),
        first,
        report.replay_from,
        sections,
        report.steps_a,
        report.steps_b,
    );
    match report.first_divergent {
        Some(t) => eprintln!(
            "[bisect] first divergent step {t} (replayed from {}), sections: {:?}",
            report.replay_from, report.differing_sections
        ),
        None => eprintln!("[bisect] runs agree end-to-end"),
    }
}

fn main_bounds(mut it: impl Iterator<Item = String>) {
    let (mut n, mut c1, mut vfrac) = (4_000usize, 3.0f64, 0.3f64);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| panic!("{flag} requires a value"));
        match flag.as_str() {
            "--n" => n = value.parse().expect("--n takes a count"),
            "--c1" => c1 = value.parse().expect("--c1 takes a number"),
            "--vfrac" => vfrac = value.parse().expect("--vfrac takes a number"),
            other => panic!("unknown bounds flag {other:?} (--n, --c1, --vfrac)"),
        }
    }
    let params = SimParams::standard(n, 1.0, 0.0)
        .and_then(|unit| {
            let radius = c1 * unit.radius_scale();
            SimParams::standard(n, radius, vfrac * radius)
        })
        .unwrap_or_else(|e| panic!("bounds: {e}"));
    let zones = ZoneMap::new(&params).unwrap_or_else(|e| panic!("bounds: {e}"));
    println!("{params}");
    println!("{zones}");
    println!("  cell side ℓ        : {:.4}", zones.grid().cell_len());
    println!("  Def. 4 threshold   : {:.3e}", zones.threshold());
    println!("  central mass       : {:.4}", zones.central_mass());
    println!("  suburb mass        : {:.4}", zones.suburb_mass());
    println!(
        "  central rows (L6)  : {} of {} (bound m/√2 = {:.1})",
        zones.central_rows(),
        zones.grid().m(),
        zones.grid().m() as f64 / std::f64::consts::SQRT_2
    );
    println!(
        "  SW suburb extent   : {:.3} (Lemma 15 bound S = {:.3})",
        zones.suburb_extent_sw(),
        params.suburb_diameter_bound()
    );
    println!(
        "  radius scale L·√(ln n/n)     : {:.4}",
        params.radius_scale()
    );
    println!(
        "  paper min radius (Ineq. 7)   : {:.4}",
        params.paper_min_radius()
    );
    println!(
        "  paper max speed (Ineq. 8)    : {:.4}",
        params.paper_max_speed()
    );
    println!(
        "  assumptions satisfied        : {}",
        params.satisfies_paper_assumptions()
    );
    println!(
        "  Def. 4 CZ threshold          : {:.3e}",
        params.central_zone_threshold()
    );
    println!(
        "  Cor. 12 large-R threshold    : {:.4}",
        params.large_radius_threshold()
    );
    println!(
        "  suburb diameter bound S      : {:.4}",
        params.suburb_diameter_bound()
    );
    println!(
        "  Thm 3 bound shape L/R + S/v  : {:.4}",
        params.flooding_time_bound()
    );
    println!(
        "  Thm 10 CZ bound 18·L/R       : {:.4}",
        params.central_zone_time_bound()
    );
    println!(
        "  Thm 18 regime (R ≤ L/n^(1/3)): {}",
        params.in_theorem18_regime()
    );
    println!(
        "  Thm 18 lower bound L/(v·n^(1/3)): {:.4}",
        params.theorem18_lower_bound()
    );
}

fn main() {
    let mut cli = std::env::args().skip(1).peekable();
    match cli.peek().map(String::as_str) {
        Some("bisect") => {
            cli.next();
            main_bisect(&parse_args(cli));
            return;
        }
        Some("bounds") => {
            cli.next();
            main_bounds(cli);
            return;
        }
        _ => {}
    }
    let args = parse_args(cli);
    let scenarios = match &args.scenario {
        Some(value) => vec![resolve_scenario(value)],
        None => library(),
    };

    let checkpointed = args.checkpoint_every > 0 || args.resume;
    let started = std::time::Instant::now();
    let mut rows = Vec::new();
    for sc in scenarios {
        let sc = rescaled(&args, sc);
        let trials = args
            .trials
            .unwrap_or(if args.quick { 2 } else { sc.trials });
        if checkpointed {
            run_checkpointed(&args, &sc, trials, &mut rows);
            continue;
        }
        let runs = run_scenario_trials(
            &sc,
            args.engine,
            args.parallelism,
            args.threads,
            trials,
            args.seed ^ sc.seed,
        )
        .unwrap_or_else(|e| panic!("scenario {:?} failed: {e}", sc.name));
        eprintln!(
            "{:<26} n={:<5} trials={} -> {}",
            sc.name,
            sc.n,
            trials,
            runs.iter()
                .map(|r| r.outcome.label())
                .collect::<Vec<_>>()
                .join(",")
        );
        rows.push(scenario_json(&sc, args.engine, &runs));
    }
    println!("[\n{}\n]", rows.join(",\n"));
    eprintln!("[scenarios finished in {:.1?}]", started.elapsed());
}
