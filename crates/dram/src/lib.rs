//! # gmh-dram
//!
//! A cycle-level GDDR5 DRAM channel model with First-Ready First-Come-
//! First-Serve (FR-FCFS) scheduling, used as the off-chip memory of the
//! `gmh` GPU simulator.
//!
//! One [`DramChannel`] models one memory partition of the GTX 480 (Table I:
//! 6 partitions, 2×32-bit chips per partition operated in lockstep, 16
//! banks, 924 MHz command clock). The model tracks per-bank row-buffer
//! state and the full set of timing constraints from Table I (tCCD, tRRD,
//! tRCD, tRAS, tRP, tRC, CL, WL, tCDLR, tWR), a shared command bus (one
//! command per cycle) and a shared data bus. *Bandwidth efficiency* — the
//! fraction of pending-work time the data bus actually transfers data,
//! reported as 41% on average in the paper (§IV-B.1) — falls out of the
//! same accounting.
//!
//! ## Example
//!
//! ```
//! use gmh_dram::{DramChannel, DramConfig};
//! use gmh_types::{AccessKind, LineAddr, MemFetch};
//!
//! let mut ch = DramChannel::new(DramConfig::gtx480(), 0);
//! let f = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(0), 0);
//! ch.push(f, 0).unwrap();
//! let mut now = 0;
//! let resp = loop {
//!     ch.cycle(now);
//!     if let Some(r) = ch.pop_response() { break r; }
//!     now += 1;
//!     assert!(now < 10_000, "request must complete");
//! };
//! assert_eq!(resp.line, LineAddr::new(0));
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod timing;

pub use bank::BankState;
pub use channel::{DramChannel, DramConfig, DramStats, SchedPolicy};
pub use timing::DramTiming;
