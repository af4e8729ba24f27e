//! # gmh-simt
//!
//! The SIMT core model of the `gmh` GPU simulator: warps, a
//! greedy-then-oldest (GTO) scheduler, a simplified scoreboard, instruction
//! fetch through a small L1 instruction cache, and a load-store unit with a
//! finite *memory pipeline* feeding the private L1 data cache.
//!
//! The core's defining measurement is the per-cycle classification of
//! *issue stalls* into the paper's five categories (Fig. 7):
//!
//! * `data-MEM` — every issuable warp waits on a pending load,
//! * `data-ALU` — every issuable warp waits on a pending ALU result,
//! * `str-MEM` — a dependence-free warp exists but the memory pipeline /
//!   L1 cannot accept its access (structural hazard),
//! * `str-ALU` — a dependence-free ALU instruction is blocked by busy
//!   arithmetic units,
//! * `fetch` — warps starve because their instruction buffers drained
//!   behind an outstanding I-cache miss.
//!
//! The classification follows §IV-A.5 verbatim: a stall cycle is structural
//! if at least one warp without data dependences is blocked by resource
//! contention; it is a data hazard only if no such warp exists.
//!
//! Instructions come from an [`InstSource`] — the `gmh-workloads` crate
//! supplies one per benchmark — so the core is workload-agnostic.

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod core;
pub mod inst;
pub mod lsu;
pub mod scheduler;
pub mod stall;
pub mod warp;

pub use crate::core::{CoreConfig, CoreStats, SimtCore};
pub use inst::{Inst, InstKind, InstSource};
pub use lsu::LoadStoreUnit;
pub use stall::{IssueStallCounters, IssueStallKind};
pub use warp::Warp;
