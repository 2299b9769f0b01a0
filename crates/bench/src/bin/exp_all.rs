//! Runs the paper's experiments (E1–E17) and prints their tables: all of
//! them, in the order of `fastflood_bench::experiments::EXPERIMENTS`, or
//! only those named by `--only`.
//!
//! Usage: `cargo run --release -p fastflood-bench --bin exp_all -- [--only <name>]... [--quick] [--seed N] [--threads N] [--trials N]`
//!
//! `<name>` is an experiment module's name (`thm3_sweep`, …); every name
//! is checked before anything runs. `--trials` sets the trial count of
//! the seven experiments that have one, as listed at that table.

use fastflood_bench::cli::ExpArgs;
use std::time::Instant;

fn main() {
    let args = ExpArgs::parse();
    let started = Instant::now();
    for exp in &args.experiments {
        let title = format!("{} {}", exp.number, exp.name);
        println!("==================================================================");
        println!("== {title}");
        println!("==================================================================");
        let t = Instant::now();
        println!("{}", (exp.run)(&args));
        println!("[{title} finished in {:.1?}]\n", t.elapsed());
    }
    println!("[all finished in {:.1?}]", started.elapsed());
}
