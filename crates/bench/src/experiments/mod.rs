//! One module per reproduced figure/claim. Each module's docs name the
//! claim, its E-number and what the table shows; [`EXPERIMENTS`] lists
//! them all, and `exp_all --only <name>` runs one.

use crate::cli::ExpArgs;

pub mod connectivity;
pub mod convergence;
pub mod fig1_density;
pub mod fig1_destination;
pub mod lemma13_turns;
pub mod lemma14_segments;
pub mod lemma15_suburb;
pub mod lemma16_meeting;
pub mod lemma7_density;
pub mod lemma9_expansion;
pub mod model_comparison;
pub mod protocols;
pub mod suburb_vs_center;
pub mod support;
pub mod thm10_cor12;
pub mod thm18_lower;
pub mod thm1_marginals;
pub mod thm3_sweep;

/// One row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The name `--only` selects it by: its module's name.
    pub name: &'static str,
    /// Its E-number from the module docs, printed in the banner.
    pub number: &'static str,
    /// Builds the module's `Config` with its `from_args`, runs it, and
    /// renders its table.
    pub run: fn(&ExpArgs) -> String,
}

/// Declares [`EXPERIMENTS`] and each module's `Config::from_args` from
/// one row per experiment: its module, its E-number, and how the
/// arguments `a` set the fields of its config `c`.
macro_rules! experiments {
    ($($module:ident $number:literal |$c:ident, $a:ident| $set:expr;)*) => {
        /// Every experiment, in the order `exp_all` runs them when no
        /// `--only` is given.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($module),
            number: $number,
            run: |a| $module::run(&$module::Config::from_args(a)).to_string(),
        }),*];

        $(impl $module::Config {
            /// `quick()` under `--quick`, else `default()`, with the
            /// experiment's row in [`EXPERIMENTS`] applied.
            #[allow(unused_mut, clippy::no_effect)] // lemma15_suburb sets nothing
            pub fn from_args($a: &ExpArgs) -> Self {
                let mut $c = if $a.quick { Self::quick() } else { Self::default() };
                $set;
                $c
            }
        })*
    };
}

// `--trials` sets the trial count of the seven experiments that have one;
// `lemma15_suburb` is analytic and takes only `--quick`.
experiments! {
    fig1_density "E1" |c, a| c.seed = a.seed;
    fig1_destination "E2" |c, a| c.seed = a.seed;
    thm1_marginals "E3" |c, a| c.seed = a.seed;
    thm3_sweep "E4" |c, a|
        (c.seed, c.threads, c.trials) = (a.seed, a.threads, a.trials_or(c.trials));
    suburb_vs_center "E5" |c, a|
        (c.seed, c.threads, c.trials) = (a.seed, a.threads, a.trials_or(c.trials));
    thm10_cor12 "E6" |c, a|
        (c.seed, c.threads, c.trials) = (a.seed, a.threads, a.trials_or(c.trials));
    lemma7_density "E7" |c, a| c.seed = a.seed;
    lemma13_turns "E8" |c, a| c.seed = a.seed;
    lemma15_suburb "E9" |c, a| ();
    thm18_lower "E10" |c, a|
        (c.seed, c.threads, c.flood_trials) = (a.seed, a.threads, a.trials_or(c.flood_trials));
    connectivity "E11" |c, a|
        (c.seed, c.trials_per_radius) = (a.seed, a.trials_or(c.trials_per_radius));
    convergence "E12" |c, a| c.seed = a.seed;
    model_comparison "E13" |c, a|
        (c.seed, c.threads, c.trials) = (a.seed, a.threads, a.trials_or(c.trials));
    lemma9_expansion "E14" |c, a| c.seed = a.seed;
    protocols "E15" |c, a|
        (c.seed, c.threads, c.trials) = (a.seed, a.threads, a.trials_or(c.trials));
    lemma14_segments "E17" |c, a| c.seed = a.seed;
    lemma16_meeting "E16" |c, a| c.seed = a.seed;
}

/// The experiment named `name`.
///
/// # Panics
///
/// Panics on an unknown name, listing the valid ones.
pub fn find(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            panic!("unknown experiment {name:?}; valid: {}", names.join(" "))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_reaches_every_config_with_a_trial_count() {
        let a = ExpArgs::from_iter(["--quick", "--trials", "5", "--seed", "9", "--threads", "2"]);
        let c = thm3_sweep::Config::from_args(&a);
        assert_eq!((c.trials, c.seed, c.threads), (5, 9, 2));
        let c = suburb_vs_center::Config::from_args(&a);
        assert_eq!((c.trials, c.seed, c.threads), (5, 9, 2));
        let c = thm10_cor12::Config::from_args(&a);
        assert_eq!((c.trials, c.seed, c.threads), (5, 9, 2));
        let c = model_comparison::Config::from_args(&a);
        assert_eq!((c.trials, c.seed, c.threads), (5, 9, 2));
        let c = protocols::Config::from_args(&a);
        assert_eq!((c.trials, c.seed, c.threads), (5, 9, 2));
        let c = thm18_lower::Config::from_args(&a);
        assert_eq!((c.flood_trials, c.seed, c.threads), (5, 9, 2));
        let c = connectivity::Config::from_args(&a);
        assert_eq!((c.trials_per_radius, c.seed), (5, 9));
    }
}
