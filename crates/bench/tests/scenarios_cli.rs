//! `scenarios`, the one flood CLI: `--scenario` takes a library name or
//! a scenario file, and `bounds` prints the paper's derived quantities.

use fastflood_core::SimParams;
use std::process::{Command, Output};

fn scenarios(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("scenarios starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_scenario_file_runs_like_its_library_name() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/uniform-baseline.toml"
    );
    let common = ["--quick", "--seed", "3", "--threads", "1", "--scenario"];
    let by_path = scenarios(&[&common[..], &[path]].concat());
    let by_name = scenarios(&[&common[..], &["uniform-baseline"]].concat());
    assert!(by_path.status.success(), "{}", stderr(&by_path));
    assert!(by_name.status.success(), "{}", stderr(&by_name));
    assert!(!by_name.stdout.is_empty());
    assert_eq!(by_path.stdout, by_name.stdout);
}

#[test]
fn an_unknown_scenario_fails_and_names_the_value() {
    let out = scenarios(&["--quick", "--scenario", "no-such-scenario"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(
        stderr(&out).contains("\"no-such-scenario\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_malformed_scenario_file_fails_with_the_parser_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed.toml");
    std::fs::write(&path, "[scenario]\nname = \"broken\"\n[bogus]\n").expect("write temp file");
    let out = scenarios(&["--quick", "--scenario", path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("scenario parse (line 3): unknown section [bogus]"),
        "{err}"
    );
}

#[test]
fn bounds_prints_the_theorem_3_bound() {
    for (n, c1, vfrac) in [(4_000usize, 3.0f64, 0.3f64), (4_000, 1.2, 0.1)] {
        let (n_arg, c1_arg, vfrac_arg) = (n.to_string(), c1.to_string(), vfrac.to_string());
        let out = scenarios(&[
            "bounds", "--n", &n_arg, "--c1", &c1_arg, "--vfrac", &vfrac_arg,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let radius = c1 * SimParams::standard(n, 1.0, 0.0).unwrap().radius_scale();
        let params = SimParams::standard(n, radius, vfrac * radius).unwrap();
        let thm3 = stdout
            .lines()
            .find(|l| l.contains("Thm 3 bound"))
            .unwrap_or_else(|| panic!("no Theorem 3 line in {stdout}"));
        let expected = format!("{:.4}", params.flooding_time_bound());
        assert!(thm3.ends_with(&expected), "{thm3:?} vs {expected}");
        assert_eq!(stdout.lines().next(), Some(params.to_string().as_str()));
    }
    // the defaults are n = 4000, c1 = 3, vfrac = 0.3
    assert_eq!(
        scenarios(&["bounds"]).stdout,
        scenarios(&["bounds", "--n", "4000"]).stdout
    );
}
