//! **E11 — Connectivity thresholds: MRWP vs uniform.**
//!
//! The introduction (citing \[13\]) notes that the stationary MRWP disk
//! graph connects only at a radius that is a *root of n* when `L = √n` —
//! exponentially above the `Θ(√log n)` threshold of uniform clouds. The
//! experiment bisects the empirical connectivity threshold for both
//! samplers across a sweep of `n` and fits the growth exponents.

use crate::table::{fmt_f64, Table};
use fastflood_geom::{Point, Rect};
use fastflood_mobility::distributions::sample_spatial;
use fastflood_spatial::{connectivity_threshold, ThresholdSearch};
use fastflood_stats::regression::loglog_fit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One `n` point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Agents.
    pub n: usize,
    /// Region side `L = √n`.
    pub side: f64,
    /// Empirical threshold for the MRWP stationary cloud.
    pub r_mrwp: f64,
    /// Empirical threshold for the uniform cloud.
    pub r_uniform: f64,
    /// `r_uniform / √(ln n)` (theory: roughly constant).
    pub uniform_normalized: f64,
    /// `r_mrwp / √(ln n)` (theory: grows with `n`).
    pub mrwp_normalized: f64,
}

/// Configuration for the connectivity-threshold experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Values of `n`.
    pub ns: Vec<usize>,
    /// Snapshots per probed radius.
    pub trials_per_radius: usize,
    /// Bisection relative tolerance.
    pub tolerance: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![500, 2_000, 8_000, 32_000],
            trials_per_radius: 9,
            // relative to the bracket's upper end, which ends near the
            // threshold: thresholds near 3 resolve to about 0.006
            tolerance: 0.002,
            seed: 2010,
        }
    }
}

impl Config {
    /// A reduced configuration for smoke tests.
    pub fn quick() -> Config {
        Config {
            ns: vec![1_000, 8_000],
            trials_per_radius: 7,
            tolerance: 0.004,
            ..Config::default()
        }
    }
}

/// The experiment results.
#[derive(Debug, Clone)]
pub struct Output {
    /// The configuration used.
    pub config: Config,
    /// One row per `n`.
    pub rows: Vec<Row>,
    /// Log–log exponent of the MRWP threshold vs `n`.
    pub mrwp_exponent: Option<f64>,
    /// Log–log exponent of the uniform threshold vs `n`.
    pub uniform_exponent: Option<f64>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Output {
    let mut rows = Vec::new();
    for (i, &n) in config.ns.iter().enumerate() {
        let side = (n as f64).sqrt();
        let region = Rect::square(side).expect("valid");
        let search = ThresholdSearch {
            trials_per_radius: config.trials_per_radius,
            relative_tolerance: config.tolerance,
            target_probability: 0.5,
        };
        let mut rng_m = StdRng::seed_from_u64(config.seed.wrapping_add((i as u64) << 33));
        let r_mrwp = connectivity_threshold(region, search, || {
            (0..n).map(|_| sample_spatial(side, &mut rng_m)).collect()
        });
        let mut rng_u = StdRng::seed_from_u64(config.seed.wrapping_add((i as u64) << 33 | 1));
        let r_uniform = connectivity_threshold(region, search, || {
            (0..n)
                .map(|_| Point::new(side * rng_u.gen::<f64>(), side * rng_u.gen::<f64>()))
                .collect()
        });
        let sqrt_ln = (n as f64).ln().sqrt();
        rows.push(Row {
            n,
            side,
            r_mrwp,
            r_uniform,
            uniform_normalized: r_uniform / sqrt_ln,
            mrwp_normalized: r_mrwp / sqrt_ln,
        });
    }
    let xs: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
    let fit = |ys: Vec<f64>| loglog_fit(&xs, &ys).ok().map(|f| f.slope);
    let mrwp_exponent = fit(rows.iter().map(|r| r.r_mrwp).collect());
    let uniform_exponent = fit(rows.iter().map(|r| r.r_uniform).collect());
    Output {
        config: config.clone(),
        rows,
        mrwp_exponent,
        uniform_exponent,
    }
}

impl Output {
    /// Whether the MRWP threshold exceeds the uniform threshold by at
    /// least `factor` at the *largest* `n` (the separation opens as `n`
    /// grows; at small `n` the corner effect hasn't kicked in yet).
    pub fn mrwp_above_uniform(&self, factor: f64) -> bool {
        self.rows
            .last()
            .is_some_and(|r| r.r_mrwp >= factor * r.r_uniform)
    }

    /// Whether the *normalized* MRWP threshold (over `√ln n`) grows from
    /// the first to the last `n` while the uniform one stays within
    /// `band` of constant.
    pub fn separation_grows(&self, band: f64) -> bool {
        if self.rows.len() < 2 {
            return false;
        }
        let first = &self.rows[0];
        let last = &self.rows[self.rows.len() - 1];
        let mrwp_grows = last.mrwp_normalized > first.mrwp_normalized;
        let uniform_flat = last.uniform_normalized <= first.uniform_normalized * band
            && first.uniform_normalized <= last.uniform_normalized * band;
        mrwp_grows && uniform_flat
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 / connectivity thresholds (L = √n): MRWP stationary vs uniform, P(connected) = 1/2"
        )?;
        let mut t = Table::new([
            "n",
            "L",
            "R* MRWP",
            "R* uniform",
            "ratio",
            "MRWP / √ln n",
            "uniform / √ln n",
        ]);
        for r in &self.rows {
            t.row([
                r.n.to_string(),
                fmt_f64(r.side),
                fmt_f64(r.r_mrwp),
                fmt_f64(r.r_uniform),
                fmt_f64(r.r_mrwp / r.r_uniform),
                fmt_f64(r.mrwp_normalized),
                fmt_f64(r.uniform_normalized),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "growth exponents vs n: MRWP {} (a root of n), uniform {} (≈ 0, i.e. polylog)",
            self.mrwp_exponent
                .map(fmt_f64)
                .unwrap_or_else(|| "-".into()),
            self.uniform_exponent
                .map(fmt_f64)
                .unwrap_or_else(|| "-".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mrwp_threshold_dominates_uniform() {
        let out = run(&Config::quick());
        assert_eq!(out.rows.len(), 2);
        assert!(out.mrwp_above_uniform(1.5), "{out}");
        assert!(out.separation_grows(2.0), "{out}");
        // the MRWP exponent is clearly positive (a root of n)
        let e = out.mrwp_exponent.unwrap();
        assert!(e > 0.1, "MRWP threshold exponent {e} should be a root of n");
        assert!(!out.to_string().is_empty());
    }
}
