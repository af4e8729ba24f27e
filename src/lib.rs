//! # gmh — GPU Memory Hierarchy bandwidth-bottleneck simulator
//!
//! A from-scratch Rust reproduction of *"Evaluating and Mitigating
//! Bandwidth Bottlenecks Across the Memory Hierarchy in GPUs"* (Saumay
//! Dublish, Vijay Nagarajan, Nigel Topham — ISPASS 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`] | addresses, memory fetches, clock domains, bounded queues |
//! | [`cache`] | set-associative caches, MSHRs, stall taxonomies |
//! | [`icnt`]  | flit-based crossbar (request + reply networks) |
//! | [`dram`]  | GDDR5 channels with FR-FCFS scheduling |
//! | [`simt`]  | SIMT cores: warps, GTO scheduling, hazard classification |
//! | [`workloads`] | the 19 calibrated benchmark models of Table II |
//! | [`core`]  | the full-system simulator, config presets, area model |
//! | [`exp`]   | experiment harness regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```no_run
//! use gmh::core::{GpuConfig, GpuSim};
//! use gmh::workloads::catalog;
//!
//! // Simulate matrix multiplication on the baseline GTX 480...
//! let mm = catalog::by_name("mm").unwrap();
//! let base = GpuSim::new(GpuConfig::gtx480_baseline(), &mm).run();
//! // ...and on a machine with 4x L2 bandwidth (Table III).
//! let scaled = GpuSim::new(GpuConfig::gtx480_baseline().scale_l2(4), &mm).run();
//! println!("L2 scaling speedup: {:.2}x", scaled.speedup_over(&base));
//! ```
//!
//! See `examples/` for runnable scenarios and `gmh-exp list`
//! ([`exp::experiments::ARTIFACTS`]) for the per-figure experiment runners.

#![forbid(unsafe_code)]

pub use gmh_cache as cache;
pub use gmh_core as core;
pub use gmh_dram as dram;
pub use gmh_exp as exp;
pub use gmh_icnt as icnt;
pub use gmh_simt as simt;
pub use gmh_types as types;
pub use gmh_workloads as workloads;
