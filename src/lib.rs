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
//! Runnable scenarios are `gmh-exp` commands: `gmh-exp list` names the
//! per-figure artifacts ([`exp::experiments::ARTIFACTS`]) and the
//! diagnostics (`probe`, `latency`, `profile`, `sweep`, ...).
//!
//! ## Time is a type
//!
//! Simulated time is [`types::Picos`], which adds to and compares with
//! picoseconds only. Mixing it with a cycle count does not build:
//!
//! ```compile_fail,E0308
//! use gmh::types::Picos;
//! let now_ps = Picos(1_000);
//! let _ = now_ps + 5u64; // cycles are not picoseconds
//! ```
//!
//! ```compile_fail,E0308
//! use gmh::types::Picos;
//! let (now_ps, cycles) = (Picos(1_000), 5u64);
//! let _ = now_ps < cycles;
//! ```
//!
//! ```compile_fail,E0308
//! use gmh::types::Picos;
//! let cyc = 5u64;
//! let t: Picos = cyc;
//! ```
//!
//! The same sum goes through the clock domain's converter:
//!
//! ```
//! use gmh::types::{ClockDomains, DomainId, Picos};
//!
//! let clocks = ClockDomains::new(1400, 700, 924);
//! let now_ps = Picos(1_000);
//! let later = now_ps + clocks.domain(DomainId::Core).span(5);
//! assert_eq!(later, Picos(1_000 + 5 * 714));
//! ```

#![forbid(unsafe_code)]

pub use gmh_cache as cache;
pub use gmh_core as core;
pub use gmh_dram as dram;
pub use gmh_exp as exp;
pub use gmh_icnt as icnt;
pub use gmh_simt as simt;
pub use gmh_types as types;
pub use gmh_workloads as workloads;
