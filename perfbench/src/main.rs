//! The repository benchmark: whole floods, fault churn and `floodd` jobs.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--floodd PATH] [--scratch DIR] [--expected FILE] [--tiny]
//! ```
//!
//! Workloads (see `README.md` beside this crate):
//!
//! * `sparse-flood-300k` — one `FloodingSim` flood from t = 0 to
//!   completion in the paper's sparse regime, sequential engine;
//! * `churn-150k-t2` — the library `churn-spike` scenario at 150k agents
//!   on a 2-thread chunked pool, driven through the scenario `Driver`;
//! * `floodd-jobs` — a real `floodd --workers 2` under a closed loop of
//!   two client connections submitting library scenarios at n = 20 000.
//!
//! With `--trace 0` the run reports the end-to-end metrics, measured with
//! the engine's phase timing off. With `--trace 1` it reports the
//! per-layer metrics, from floods run with phase timing on, and the
//! tracing overhead. Every run checks the program's outputs; the last
//! stdout line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`.

mod engine;
mod service;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seed whose flooding times and digests are recorded in the expected
/// file.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-check sizes: every workload shrunk to run in about a second.
    pub tiny: bool,
    pub floodd: PathBuf,
    pub scratch: PathBuf,
    pub expected: Option<PathBuf>,
}

impl Args {
    /// When the measured loop stops starting new floods or jobs.
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        floodd: PathBuf::from(".bench_build/release/floodd"),
        scratch: PathBuf::from(".perfbench_scratch"),
        expected: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--floodd" => args.floodd = value()?.into(),
            "--scratch" => args.scratch = value()?.into(),
            "--expected" => args.expected = Some(value()?.into()),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Metric values by name, each with its unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Floods or jobs attempted, and how many of them failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Check failures, one line each.
    pub errors: Vec<String>,
    /// Sample counts and other context, printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one flood or job and whether it passed its checks.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records why a check failed.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over per-agent inform times (`u32::MAX` = never).
pub fn inform_digest(times: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for t in times {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The flooding time and inform-time digest recorded for the default
/// seed, if the expected file has a line for this workload.
pub fn expected_for(args: &Args) -> Result<Option<(u32, u64)>, String> {
    let Some(path) = &args.expected else {
        return Ok(None);
    };
    if args.tiny || args.seed != DEFAULT_SEED {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.first() != Some(&args.workload.as_str()) {
            continue;
        }
        let [_, time, digest] = fields[..] else {
            return Err(format!("malformed expected line {line:?}"));
        };
        let time = time.parse().map_err(|e| format!("expected time: {e}"))?;
        let digest =
            u64::from_str_radix(digest, 16).map_err(|e| format!("expected digest: {e}"))?;
        return Ok(Some((time, digest)));
    }
    Ok(None)
}

/// Per-layer metrics that only some workloads exercise; the traced run of
/// any other workload reports them as 0. The engine layers are invisible
/// from outside `floodd`, the scenario layer runs only under `Driver`, and
/// only `floodd-jobs` checkpoints or serves.
fn unexercised_layers() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("mobility.move_ms_per_step", "ms"),
        ("mobility.boundary_ms_per_step", "ms"),
        ("spatial.refresh_ms_per_step", "ms"),
        ("spatial.join_apply_ms_per_step", "ms"),
        ("core.step_ms_per_step", "ms"),
        ("core.step_other_ms_per_step", "ms"),
        ("core.steps", "count"),
        ("core.join_steps", "count"),
        ("core.mark_steps", "count"),
        ("spatial.diff_steps", "count"),
        ("spatial.deferred_steps", "count"),
        ("spatial.refresh_steps", "count"),
        ("spatial.full_rebuilds", "count"),
        ("spatial.spike_rebuilds", "count"),
        ("spatial.relayouts", "count"),
        ("spatial.defer_ratio", "ratio"),
        ("parallel.threads", "count"),
        ("parallel.cpu_util", "ratio"),
        ("scenario.pump_ms_total", "ms"),
        ("scenario.agents_touched", "count"),
        ("scenario.pump_us_per_agent", "us"),
        ("checkpoint.snapshot_ms", "ms"),
        ("checkpoint.write_ms", "ms"),
        ("checkpoint.read_ms", "ms"),
        ("checkpoint.restore_ms", "ms"),
        ("checkpoint.bytes", "B"),
        ("checkpoint.writes_per_job", "count"),
        ("checkpoint.share_of_job", "ratio"),
        ("checkpoint.disk_bytes_per_job", "B"),
        ("service.submit_rtt_ms.p50", "ms"),
        ("service.ping_rtt_ms.p50", "ms"),
        ("service.cpu_util", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect();
    for b in 0..10 {
        names.push((format!("stage.f{:02}.ms_per_step", b * 10), "ms"));
        names.push((format!("stage.f{:02}.steps", b * 10), "count"));
    }
    names
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = sys::machine();
    let ticks_before = sys::cpu_ticks();
    let result = match args.workload.as_str() {
        "sparse-flood-300k" => engine::sparse(&args),
        "churn-150k-t2" => engine::churn(&args),
        "floodd-jobs" => service::jobs(&args),
        other => Err(format!(
            "unknown workload {other:?} (sparse-flood-300k | churn-150k-t2 | floodd-jobs)"
        )),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        for (name, unit) in unexercised_layers() {
            out.metrics.0.entry(name).or_insert((0.0, unit));
        }
    }
    let ticks_after = sys::cpu_ticks();
    let steal = ratio(
        (ticks_after.0 - ticks_before.0) as f64,
        (ticks_after.1 - ticks_before.1) as f64,
    );
    println!("machine {machine} steal_during_run={:.1}%", steal * 100.0);
    for note in &out.notes {
        println!("note {note}");
    }
    for e in &out.errors {
        println!("check-failed {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "failed_frac {} ({} of {})",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let mut fields = Vec::new();
    for (name, &(value, unit)) in &out.metrics.0 {
        println!("metric {name} {value} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
