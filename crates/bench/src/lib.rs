//! Experiment harness for the *Fast Flooding over Manhattan* reproduction.
//!
//! Each module under [`experiments`] reproduces one figure or
//! theorem-level claim of the paper; its module docs name the claim and
//! what its table shows. Every experiment exposes a `Config` (with a
//! `Default` sized for a laptop run and a `quick()` variant for smoke
//! tests) and a `run` function returning a structured, `Display`able
//! result. [`experiments::EXPERIMENTS`] lists them all, and one binary,
//! `exp_all`, runs them (or those named by `--only`) with [`cli::ExpArgs`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod scenario;
pub mod table;
