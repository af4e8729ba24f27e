//! # gmh-exp
//!
//! The experiment harness: one runner per table and figure of the paper's
//! evaluation, built on [`gmh_core::GpuSim`] and the calibrated workload
//! catalog in [`gmh_workloads`].
//!
//! Each artifact is a row of [`experiments::ARTIFACTS`]; the one binary
//! prints any of them (`cargo run --release -p gmh-exp -- fig8 fig9`) as
//! the rows/series the paper reports, with the paper's numbers alongside
//! where it gives them. Those numbers live in one table,
//! [`scorecard::ROWS`]; `gmh-exp scorecard` prints each beside the measured
//! value and its error. `gmh-exp all` is the complete
//! EXPERIMENTS.md-style report, `gmh-exp list` names the artifacts and the
//! diagnostics (`probe`, `latency`, `profile`, `sweep`, `tune`,
//! `scorecard`, `trace`, `record`, `replay`); [`tune`] is the design-space
//! autotuner behind `tune` and the daemon's `"tune"` job.
//!
//! Heavy sweeps run jobs in parallel across `GMH_THREADS` threads
//! (default: available parallelism).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod candidate;
mod chrome;
pub mod cli;
pub mod experiments;
pub mod export;
pub mod prof_export;
pub mod runner;
pub mod scorecard;
pub mod trace_export;
pub mod tune;

pub use cache::{job_key, run_cached, CachedRun, DiskCache};
pub use candidate::{Candidate, Evaluator};
pub use export::{report_json, write_report};
pub use prof_export::{host_trace_json, phase_rows, utilization_table};
pub use runner::Runs;
pub use trace_export::{chrome_trace_json, latency_table};
