//! Crash-recovery harness: hard-kill a checkpointing `scenarios` child
//! mid-flood, resume it from its latest snapshot, and prove the resumed
//! trace is identical to an uninterrupted run — then walk the corruption
//! fallback ladder (bit-flip + truncation) across process boundaries.
//!
//! The child runs with `--step-delay-ms` (the binary's test hook) so the
//! kill reliably lands between checkpoints; the comparison is the
//! per-trial `trace_digest` the binary prints, checked against the same
//! digest computed in-process from an uninterrupted reference run.

use fastflood_bench::scenario::{run_scenario, scenario_by_name, trace_digest, KEEP_CHECKPOINTS};
use fastflood_core::{EngineMode, Parallelism};
use fastflood_stats::seeds::derive_seed;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Matches the binary's `--quick` population.
const QUICK_N: usize = 220;
const SCENARIO: &str = "crash-storm";

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn ckpt_files_newest_first(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ckpt"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files.reverse();
    files
}

/// Pulls `"key": "value"` or `"key": value` out of the binary's one-row
/// JSON output (one trial -> exactly one row).
fn json_field<'a>(stdout: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = stdout
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key:?} in output:\n{stdout}"))
        + pat.len();
    let rest = &stdout[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key:?} in output:\n{stdout}"));
    rest[..end].trim_matches('"')
}

fn resume(dir: &Path) -> (String, String, usize) {
    let out = scenarios_bin()
        .args([
            "--quick",
            "--scenario",
            SCENARIO,
            "--trials",
            "1",
            "--resume",
        ])
        .arg(dir)
        .output()
        .expect("resume run spawns");
    assert!(
        out.status.success(),
        "resume run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        json_field(&stdout, "trace_digest").to_string(),
        json_field(&stdout, "resumed_from_step").to_string(),
        json_field(&stdout, "rejected").parse().expect("a count"),
    )
}

#[test]
fn killed_run_resumes_bitwise_and_falls_past_corruption() {
    let base = std::env::temp_dir().join(format!("fastflood-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let trial_dir = base.join(SCENARIO).join("trial00");

    // The digest an uninterrupted run must produce: same scenario scale
    // and per-trial seed derivation as the binary (`--quick --trials 1`,
    // default `--seed 0`).
    let sc = scenario_by_name(SCENARIO)
        .expect("library scenario")
        .scaled(QUICK_N);
    let reference = run_scenario(
        &sc,
        EngineMode::Adaptive,
        Parallelism::Sequential,
        derive_seed(sc.seed, 0),
    )
    .expect("reference run");
    let want = format!("{:016x}", trace_digest(&reference.trace));

    // -- phase 1: start a slow checkpointing child and hard-kill it --
    let mut child = scenarios_bin()
        .args([
            "--quick",
            "--scenario",
            SCENARIO,
            "--trials",
            "1",
            "--checkpoint-every",
            "2",
            "--step-delay-ms",
            "40",
            "--checkpoint-dir",
        ])
        .arg(&base)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("checkpointing child spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    while ckpt_files_newest_first(&trial_dir).len() < KEEP_CHECKPOINTS {
        assert!(
            Instant::now() < deadline,
            "child never wrote {KEEP_CHECKPOINTS} checkpoints under {}",
            trial_dir.display()
        );
        if child.try_wait().expect("child pollable").is_some() {
            break; // flooded before the kill landed; resume still must agree
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");
    let files = ckpt_files_newest_first(&trial_dir);
    assert!(
        files.len() >= KEEP_CHECKPOINTS,
        "kill left a checkpoint ladder: {files:?}"
    );

    // -- phase 2: resume finishes with the uninterrupted digest --
    let (digest, resumed_from, rejected) = resume(&base);
    assert_ne!(resumed_from, "null", "a checkpoint was picked up");
    assert_eq!(rejected, 0);
    assert_eq!(digest, want, "resumed trace != uninterrupted trace");

    // -- phase 3: bit-flip the newest, truncate the second-newest; the
    // ladder falls back to the third and still agrees. The run keeps
    // two files, so a copy of the older one named one step later is the
    // second-newest (the copy is the rung that gets truncated) --
    let kept = ckpt_files_newest_first(&trial_dir);
    let older: u32 = kept[1].file_stem().unwrap().to_str().unwrap()["run-step".len()..]
        .parse()
        .expect("a step number");
    let middle = trial_dir.join(format!("run-step{:08}.ckpt", older + 1));
    std::fs::copy(&kept[1], middle).expect("middle rung copied");
    let files = ckpt_files_newest_first(&trial_dir);
    assert!(files.len() >= 3, "a three-rung ladder: {files:?}");
    let mut bytes = std::fs::read(&files[0]).expect("newest checkpoint readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&files[0], &bytes).expect("bit-flip written");
    let bytes = std::fs::read(&files[1]).expect("second checkpoint readable");
    std::fs::write(&files[1], &bytes[..bytes.len() / 3]).expect("truncation written");

    let (digest, resumed_from, rejected) = resume(&base);
    assert_eq!(rejected, 2, "both corrupted snapshots rejected");
    assert_ne!(resumed_from, "null");
    assert_eq!(digest, want, "fallback resume != uninterrupted trace");

    // -- phase 4: nothing valid left -> fresh start, same digest --
    for f in ckpt_files_newest_first(&trial_dir) {
        std::fs::write(&f, b"FFCP").expect("stub written");
    }
    let (digest, resumed_from, rejected) = resume(&base);
    assert_eq!(resumed_from, "null", "no valid checkpoint to resume from");
    assert!(rejected >= 3);
    assert_eq!(digest, want, "fresh fallback run != uninterrupted trace");

    let _ = std::fs::remove_dir_all(&base);
}
