//! # tps-bench
//!
//! The benchmark and experiment harness.
//!
//! The paper has no empirical evaluation section, so every theorem-level
//! claim is treated as an experiment (see `DESIGN.md` §3 and
//! `EXPERIMENTS.md`). The [`experiments`] module implements each experiment
//! as a pure function returning structured rows so that
//!
//! * the `report` binary (`cargo run --release -p tps-bench --bin report`)
//!   can print the full table that `EXPERIMENTS.md` records,
//! * the `experiments_smoke` integration test can assert the *shape* of each
//!   result at a reduced scale, and
//! * the Criterion benches can focus on wall-clock measurements (update
//!   time, sample latency) without duplicating workload-generation logic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
