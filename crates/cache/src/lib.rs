//! # gmh-cache
//!
//! Cache models for the `gmh` GPU memory hierarchy simulator: a
//! set-associative [`TagArray`] with LRU replacement and *allocate-on-miss*
//! line reservation (the Fermi policy the paper's §IV-A.2 relies on), a
//! [`Mshr`] file with request merging, and the composed [`Cache`] that the
//! SIMT cores use as a private L1 and the memory partitions use as shared L2
//! banks.
//!
//! The distinguishing feature versus a functional cache model is that every
//! resource is *finite* and acquisition can fail: a miss needs an MSHR entry
//! (or merge slot), a miss-queue slot, and a replaceable (non-reserved)
//! line. Each failure mode is reported as a [`BlockReason`], which the
//! owning component maps onto the paper's stall taxonomy (Figs. 8 and 9) via
//! [`stall::L1StallKind`] / [`stall::L2StallKind`].
//!
//! ## Example
//!
//! ```
//! use gmh_cache::{Cache, CacheConfig, AccessResult};
//! use gmh_types::{AccessKind, LineAddr, MemFetch};
//!
//! let mut l1 = Cache::new(CacheConfig::fermi_l1());
//! let load = |id| MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(0), 0);
//! // Cold miss: a fetch is queued for the lower level.
//! let (r, _) = l1.access_read(load(0), 0);
//! assert_eq!(r, AccessResult::MissIssued);
//! // Same line again while outstanding: merged into the existing MSHR.
//! let (r, _) = l1.access_read(load(1), 1);
//! assert_eq!(r, AccessResult::MissMerged);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod cache;
pub mod mshr;
pub mod port;
pub mod stall;
pub mod tag;

pub use cache::{
    AccessResult, Admission, BlockReason, Cache, CacheConfig, CacheStats, WriteOutcome, WritePolicy,
};
pub use mshr::Mshr;
pub use port::DataPort;
pub use stall::{L1StallCounters, L1StallKind, L2StallCounters, L2StallKind};
pub use tag::{LineState, TagArray};
