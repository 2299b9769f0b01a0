//! The batch fault calls against the one-agent calls: applying an
//! ascending agent list through `crash_agents`/`revive_agents` must leave
//! the simulation byte-identical (by its snapshot) to applying the same
//! list one agent at a time, in list order, through
//! `crash_agent`/`revive_agent`: same flags, same worklist, same
//! transmit roster order — and so the same flood afterwards.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SourcePlacement};
use fastflood_mobility::Mrwp;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const N: usize = 300;

fn sim(engine: EngineMode, par: Parallelism, seed: u64) -> FloodingSim<Mrwp> {
    let model = Mrwp::new(30.0, 0.5).expect("valid model");
    let config = SimConfig::new(N, 2.5)
        .seed(seed)
        .source(SourcePlacement::Agent(0))
        .engine(engine)
        .parallelism(par);
    FloodingSim::new(model, config).expect("valid config")
}

/// An ascending, duplicate-free batch: empty, every agent, or a random
/// subset of one of three densities. Random subsets mix informed and
/// uninformed agents, and crashed and live ones, whatever the batch's
/// direction.
fn batch(rng: &mut rand::rngs::StdRng) -> Vec<u32> {
    match rng.gen_range(0..5u32) {
        0 => Vec::new(),
        1 => (0..N as u32).collect(),
        k => {
            let p = [0.03, 0.3, 0.9][k as usize - 2];
            (0..N as u32).filter(|_| rng.gen::<f64>() < p).collect()
        }
    }
}

fn assert_twins(batched: &FloodingSim<Mrwp>, looped: &FloodingSim<Mrwp>, what: &str) {
    assert!(
        batched.snapshot().encode() == looped.snapshot().encode(),
        "{what}: batch and one-at-a-time snapshots differ"
    );
}

fn check(engine: EngineMode, par: Parallelism, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut batched = sim(engine, par, seed);
    let mut looped = sim(engine, par, seed);
    for round in 0..10 {
        let agents = batch(&mut rng);
        let crash = rng.gen_bool(0.5);
        if crash {
            batched.crash_agents(&agents);
            for &a in &agents {
                looped.crash_agent(a as usize);
            }
        } else {
            batched.revive_agents(&agents);
            for &a in &agents {
                looped.revive_agent(a as usize);
            }
        }
        let what = format!(
            "{engine:?}/{par:?} seed {seed} round {round} ({} of {} agents, crash = {crash})",
            agents.len(),
            N
        );
        assert_twins(&batched, &looped, &what);
        for _ in 0..rng.gen_range(1..5) {
            batched.step();
            looped.step();
        }
        assert_twins(&batched, &looped, &what);
    }
    // bring everyone back so the flood can finish, then flood it out
    let everyone: Vec<u32> = (0..N as u32).collect();
    batched.revive_agents(&everyone);
    for a in 0..N {
        looped.revive_agent(a);
    }
    let (done_b, done_l) = (batched.run(20_000), looped.run(20_000));
    assert_eq!(done_b.completed, done_l.completed);
    assert!(
        done_b.completed,
        "{engine:?}/{par:?} seed {seed}: flood did not finish"
    );
    assert_twins(&batched, &looped, "after flooding to completion");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_fault_calls_match_the_one_agent_calls(seed in 0u64..1_000_000) {
        for engine in [EngineMode::Adaptive, EngineMode::Oracle] {
            for par in [Parallelism::Sequential, Parallelism::Chunked { threads: 2 }] {
                check(engine, par, seed);
            }
        }
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn unsorted_batches_are_rejected() {
    sim(EngineMode::Adaptive, Parallelism::Sequential, 1).crash_agents(&[5, 3]);
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn duplicate_revivals_are_rejected() {
    let mut s = sim(EngineMode::Adaptive, Parallelism::Sequential, 1);
    s.crash_agents(&[4, 9]);
    s.revive_agents(&[4, 4, 9]);
}
