//! `exp_all`, the one experiment entry point: `--only` selects by module
//! name, a bad name fails before anything runs, and the experiment table
//! covers every experiment module exactly once.

use fastflood_bench::experiments::{lemma15_suburb, EXPERIMENTS};
use std::process::{Command, Output};

fn exp_all(args: &[&str]) -> Output {
    let exe = env!("CARGO_BIN_EXE_exp_all");
    Command::new(exe)
        .args(args)
        .output()
        .expect("exp_all starts")
}

#[test]
fn only_prints_that_experiments_table() {
    let out = exp_all(&["--only", "lemma15_suburb", "--quick"]);
    assert!(out.status.success());
    // everything but the banner and the `[… finished in …]` timing lines
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let kept: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("==") && !l.contains(" finished in "))
        .collect();
    let expected = lemma15_suburb::run(&lemma15_suburb::Config::quick()).to_string();
    assert_eq!(kept.join("\n").trim_end(), expected.trim_end());
}

#[test]
fn unknown_name_fails_before_anything_runs() {
    // the valid first name must not run: every name is checked up front
    let out = exp_all(&["--only", "lemma15_suburb", "--only", "nope", "--quick"]);
    assert!(!out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"nope\""), "{stderr}");
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.name), "{} not listed in {stderr}", e.name);
    }
}

#[test]
fn table_names_every_experiment_module_once() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
    let mut modules: Vec<String> = std::fs::read_dir(dir)
        .expect("experiments dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .filter(|m| m != "mod" && m != "support")
        .collect();
    modules.sort();
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.sort_unstable();
    assert_eq!(names, modules);
    let mut numbers: Vec<&str> = EXPERIMENTS.iter().map(|e| e.number).collect();
    numbers.sort_unstable();
    numbers.dedup();
    assert_eq!(numbers.len(), EXPERIMENTS.len(), "E-numbers must be unique");
}
