//! Tiny command-line parsing for `exp_all`, the experiment runner.

use crate::experiments::{self, Experiment, EXPERIMENTS};

/// The arguments of `exp_all`:
///
/// * `--only <name>` — run the named experiment (repeatable; default:
///   all of [`EXPERIMENTS`]). Unknown names panic, listing the valid ones;
/// * `--quick` — run a reduced configuration (used by smoke tests);
/// * `--seed <u64>` — master seed (default 2010, the paper's year);
/// * `--trials <usize>` — trials per configuration (experiment-specific
///   default; only the experiments with a trial count take it);
/// * `--threads <usize>` — worker threads (default: the
///   `FASTFLOOD_THREADS` environment variable, else available
///   parallelism — see [`fastflood_parallel::default_threads`]).
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// The experiments to run: each `--only`, in order, else all of
    /// [`EXPERIMENTS`].
    pub experiments: Vec<&'static Experiment>,
    /// Reduced configuration for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Trials override (None = experiment default).
    pub trials: Option<usize>,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            experiments: EXPERIMENTS.iter().collect(),
            quick: false,
            seed: 2010,
            trials: None,
            threads: fastflood_parallel::default_threads(),
        }
    }
}

impl ExpArgs {
    /// Parses the process arguments, panicking with a usage message on
    /// unknown flags (these are internal tools; failing fast is a
    /// feature).
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments.
    pub fn parse() -> ExpArgs {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable form of
    /// [`ExpArgs::parse`]).
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments.
    // not the FromIterator trait: this parses and panics, it does not
    // collect — the name mirrors clap's conventional constructor
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(args: I) -> ExpArgs
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = ExpArgs::default();
        let mut only = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_ref() {
                "--only" => {
                    let v = it.next().expect("--only requires a value");
                    only.push(experiments::find(v.as_ref()));
                }
                "--quick" => out.quick = true,
                "--seed" => {
                    let v = it.next().expect("--seed requires a value");
                    out.seed = v.as_ref().parse().expect("--seed must be a u64");
                }
                "--trials" => {
                    let v = it.next().expect("--trials requires a value");
                    out.trials = Some(v.as_ref().parse().expect("--trials must be a usize"));
                }
                "--threads" => {
                    let v = it.next().expect("--threads requires a value");
                    out.threads = v.as_ref().parse().expect("--threads must be a usize");
                    assert!(out.threads > 0, "--threads must be positive");
                }
                other => panic!(
                    "unknown argument {other:?}; supported: --only <name> --quick --seed <u64> --trials <n> --threads <n>"
                ),
            }
        }
        if !only.is_empty() {
            out.experiments = only;
        }
        out
    }

    /// The trial count to use given an experiment default.
    pub fn trials_or(&self, default: usize) -> usize {
        self.trials.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = ExpArgs::from_iter(Vec::<String>::new());
        assert!(!a.quick);
        assert_eq!(a.seed, 2010);
        assert_eq!(a.trials, None);
        assert!(a.threads >= 1);
        assert_eq!(a.trials_or(7), 7);
        assert_eq!(a.experiments.len(), EXPERIMENTS.len());
    }

    #[test]
    fn parses_all_flags() {
        let a = ExpArgs::from_iter(["--quick", "--seed", "9", "--trials", "3", "--threads", "2"]);
        assert!(a.quick);
        assert_eq!(a.seed, 9);
        assert_eq!(a.trials, Some(3));
        assert_eq!(a.threads, 2);
        assert_eq!(a.trials_or(7), 3);
        let a = ExpArgs::from_iter(["--only", "protocols", "--only", "fig1_density"]);
        let names: Vec<&str> = a.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["protocols", "fig1_density"]);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown() {
        ExpArgs::from_iter(["--nope"]);
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn rejects_missing_value() {
        ExpArgs::from_iter(["--seed"]);
    }
}
