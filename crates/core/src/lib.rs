//! # gmh-core
//!
//! The full-system GPU memory-hierarchy simulator reproducing *"Evaluating
//! and Mitigating Bandwidth Bottlenecks Across the Memory Hierarchy in
//! GPUs"* (Dublish, Nagarajan, Topham — ISPASS 2017).
//!
//! [`GpuSim`] wires together the substrates from the sibling crates into
//! the paper's simulated GTX 480 (Table I):
//!
//! * 15 [`gmh_simt::SimtCore`]s at 1.4 GHz, each with a private L1D/L1I,
//! * a flit-based [`gmh_icnt::Crossbar`] and 12 shared L2 banks at 700 MHz,
//! * 6 GDDR5 [`gmh_dram::DramChannel`]s at 924 MHz command clock,
//!
//! advanced together by a three-domain clock. [`GpuConfig`] presets express
//! the paper's entire design space (Table III): the 4× scaled L1 / L2 /
//! DRAM configurations of Fig. 10, the cost-effective asymmetric-crossbar
//! configurations of Fig. 12, the HBM-class DRAM, and the ideal-memory
//! models behind Table II (P∞, P_DRAM) and Fig. 3 (fixed L1 miss latency).
//!
//! ## Example
//!
//! ```no_run
//! use gmh_core::{GpuConfig, GpuSim};
//! use gmh_workloads::catalog;
//!
//! let spec = catalog::by_name("nn").unwrap();
//! let mut sim = GpuSim::new(GpuConfig::gtx480_baseline(), &spec);
//! let stats = sim.run();
//! println!("{}: IPC {:.3}, stall {:.0}%", spec.name, stats.ipc, 100.0 * stats.stall_fraction);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod area;
pub mod config;
pub mod l2bank;
mod machine;
mod sched;
pub mod sim;
pub mod stats;

pub use area::{AreaReport, A_STORAGE_MM2_PER_KB, BASELINE_DIE_MM2};
pub use config::{GpuConfig, MemoryModel};
pub use l2bank::L2Bank;
pub use sim::{FastForwardStats, GpuSim};
pub use stats::SimStats;
