//! **E16 — Lemma 16: Suburb agents meet couriers from the Central Zone.**
//!
//! Lemma 16 is the engine of the Suburb analysis: for any agent `a` in the
//! Extended Suburb at time `t ≥ S/v`, w.h.p. there is an agent `b` that
//! (1) was in the Central Zone at time `t − S/v` and *meets* `a` (comes
//! within `(3/4)·R`) by time `t + τ` with `τ = 590·S/v`, and (2) is back
//! in the Central Zone within another `3·S/v` steps. This is why
//! information keeps flowing outward: a continuous stream of informed
//! couriers washes over the Suburb.
//!
//! The experiment tags every agent's zone at time 0, advances to
//! `t = S/v`, and then, for each agent in the Extended Suburb, measures
//! the delay until its first meeting with a time-0-Central-Zone agent, in
//! units of `S/v` — the paper's constant is 590; the measured constant is
//! far smaller (the authors flag their constants as unoptimized).

use crate::table::{fmt_f64, Table};
use fastflood_core::{SimParams, Zone, ZoneMap};
use fastflood_geom::Point;
use fastflood_mobility::{Mobility, Mrwp};
use fastflood_spatial::GridIndexBuffer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration for the meeting experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Agents (side is `√n`).
    pub n: usize,
    /// Radius multiplier over the natural scale.
    pub c1: f64,
    /// Speed as a fraction of `R`.
    pub v_frac: f64,
    /// Meeting-delay budget in multiples of `S/v` (the paper's τ is
    /// `590·S/v`; the measured delays sit far below).
    pub budget_multiple: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // c1 = 2 keeps the Suburb sizable (sparse corners) while the
            // Central Zone stays well-defined
            n: 10_000,
            c1: 2.0,
            v_frac: 0.3,
            budget_multiple: 60.0,
            seed: 2010,
        }
    }
}

impl Config {
    /// A reduced configuration for smoke tests.
    pub fn quick() -> Config {
        Config {
            n: 2_500,
            budget_multiple: 40.0,
            ..Config::default()
        }
    }
}

/// The measured meeting behaviour.
#[derive(Debug, Clone)]
pub struct Output {
    /// The configuration used.
    pub config: Config,
    /// Resolved parameters.
    pub params: SimParams,
    /// `S/v` in steps (the delay unit).
    pub s_over_v: f64,
    /// Agents found in the Suburb zone at `t = S/v`.
    pub suburb_agents: usize,
    /// Of those, how many met a time-0 Central-Zone agent within budget.
    pub met: usize,
    /// Mean meeting delay in multiples of `S/v`.
    pub mean_delay_multiple: f64,
    /// Max meeting delay in multiples of `S/v` (paper bound: 590).
    pub max_delay_multiple: f64,
    /// Property 2: fraction of meeting partners `b` that returned to the
    /// Central Zone within `3·S/v` of the meeting.
    pub courier_return_fraction: f64,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Output {
    let scale = SimParams::standard(config.n, 1.0, 0.0)
        .expect("valid")
        .radius_scale();
    let radius = config.c1 * scale;
    let params = SimParams::standard(config.n, radius, config.v_frac * radius).expect("valid");
    let zones = ZoneMap::new(&params).expect("valid");
    let s = params.suburb_diameter_bound();
    let s_over_v = s / params.speed();
    let model = Mrwp::new(params.side(), params.speed()).expect("valid");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n;

    // t = 0: stationary snapshot; remember who is Central Zone.
    let mut states: Vec<_> = (0..n).map(|_| model.init_stationary(&mut rng)).collect();
    let from_cz: Vec<bool> = states
        .iter()
        .map(|st| zones.zone_of(model.position(st)) == Zone::Central)
        .collect();

    // advance to t = S/v (Lemma 16's `t`).
    let t0 = s_over_v.ceil() as u32;
    for _ in 0..t0 {
        for st in &mut states {
            model.step(st, &mut rng);
        }
    }
    // Watch the agents actually sitting in Suburb cells. (The proof's
    // Extended Suburb — Manhattan distance ≤ 2S of the Suburb — often
    // covers the whole square at laptop scale, since S is only a little
    // below L; the Suburb zone itself is the sharp test set.)
    let positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
    let watched: Vec<usize> = (0..n)
        .filter(|&i| zones.zone_of(positions[i]) == Zone::Suburb)
        .collect();

    // march forward, matching suburb agents against CZ-origin couriers.
    let meet_radius = 0.75 * params.radius();
    let budget = (config.budget_multiple * s_over_v).ceil() as u32;
    let couriers: Vec<u32> = (0..n as u32).filter(|&i| from_cz[i as usize]).collect();
    let mut index = GridIndexBuffer::new();
    let mut meeting: Vec<Option<(u32, usize)>> = vec![None; watched.len()]; // (delay, courier)
    let mut met = 0usize;
    let mut courier_deadline: Vec<(usize, u32)> = Vec::new(); // (courier, deadline)
    let return_window = (3.0 * s_over_v).ceil() as u32;
    let mut courier_returned = 0usize;
    let mut couriers_tracked = 0usize;

    for dt in 1..=budget {
        for st in &mut states {
            model.step(st, &mut rng);
        }
        let positions: Vec<Point> = states.iter().map(|s| model.position(s)).collect();
        if met < watched.len() {
            index
                .rebuild_subset(model.region(), meet_radius, &positions, &couriers)
                .expect("finite positions");
            for (w, &agent) in watched.iter().enumerate() {
                if meeting[w].is_some() {
                    continue;
                }
                let mut partner = None;
                index.visit_within(positions[agent], meet_radius, |b| {
                    if b != agent {
                        partner = Some(b);
                        false
                    } else {
                        true
                    }
                });
                if let Some(b) = partner {
                    meeting[w] = Some((dt, b));
                    met += 1;
                    courier_deadline.push((b, dt + return_window));
                    couriers_tracked += 1;
                }
            }
        }
        // property 2: couriers return to the Central Zone
        courier_deadline.retain(|&(b, deadline)| {
            if zones.zone_of(positions[b]) == Zone::Central {
                courier_returned += 1;
                false
            } else {
                dt < deadline
            }
        });
        if met == watched.len() && courier_deadline.is_empty() {
            break;
        }
    }

    let delays: Vec<f64> = meeting
        .iter()
        .flatten()
        .map(|&(d, _)| d as f64 / s_over_v)
        .collect();
    let (mean_delay, max_delay) = if delays.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            delays.iter().sum::<f64>() / delays.len() as f64,
            delays.iter().copied().fold(0.0, f64::max),
        )
    };

    Output {
        config: config.clone(),
        params,
        s_over_v,
        suburb_agents: watched.len(),
        met,
        mean_delay_multiple: mean_delay,
        max_delay_multiple: max_delay,
        courier_return_fraction: if couriers_tracked == 0 {
            f64::NAN
        } else {
            courier_returned as f64 / couriers_tracked as f64
        },
    }
}

impl Output {
    /// Fraction of watched suburb agents that met a courier in budget.
    pub fn meet_fraction(&self) -> f64 {
        if self.suburb_agents == 0 {
            f64::NAN
        } else {
            self.met as f64 / self.suburb_agents as f64
        }
    }

    /// The Lemma 16 shape: everyone meets a courier well within the
    /// paper's `590·S/v`, and most couriers return to the Central Zone.
    pub fn lemma16_shape_holds(&self) -> bool {
        self.suburb_agents > 0
            && self.meet_fraction() >= 0.99
            && self.max_delay_multiple <= 590.0
            && self.courier_return_fraction >= 0.8
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 / Lemma 16: suburb agents meeting Central-Zone couriers ({}; S/v = {:.1} steps)",
            self.params, self.s_over_v
        )?;
        let mut t = Table::new(["quantity", "measured", "paper"]);
        t.row([
            "agents in the Suburb at t=S/v".to_string(),
            self.suburb_agents.to_string(),
            "-".into(),
        ]);
        t.row([
            "fraction meeting a courier".to_string(),
            fmt_f64(self.meet_fraction()),
            "→ 1 w.h.p.".into(),
        ]);
        t.row([
            "mean meeting delay (×S/v)".to_string(),
            fmt_f64(self.mean_delay_multiple),
            "≤ 590 (loose)".into(),
        ]);
        t.row([
            "max meeting delay (×S/v)".to_string(),
            fmt_f64(self.max_delay_multiple),
            "≤ 590 (loose)".into(),
        ]);
        t.row([
            "couriers back in CZ within 3·S/v".to_string(),
            fmt_f64(self.courier_return_fraction),
            "→ 1 (property 2)".into(),
        ]);
        write!(f, "{t}")?;
        writeln!(f, "Lemma 16 shape holds: {}", self.lemma16_shape_holds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_couriers_reach_the_suburb() {
        let out = run(&Config::quick());
        assert!(out.suburb_agents > 0, "need suburb agents to watch");
        assert!(out.lemma16_shape_holds(), "{out}");
        // the real constant is far below the paper's 590
        assert!(out.max_delay_multiple < 60.0, "{out}");
        assert!(!out.to_string().is_empty());
    }
}
