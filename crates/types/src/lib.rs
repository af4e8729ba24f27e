//! # gmh-types
//!
//! Common model types shared by every component of the `gmh` GPU memory
//! hierarchy simulator: byte/line addresses, the [`MemFetch`] request object
//! that flows through the hierarchy, multi-frequency clock domains, bounded
//! queues with occupancy tracking (the measurement substrate behind the
//! paper's Figs. 4 and 5), deterministic random number generation, and small
//! statistics helpers.
//!
//! The crate is dependency-free and `#![forbid(unsafe_code)]`; everything in
//! the simulator is deterministic given a seed, which the property-based
//! tests across the workspace rely on.
//!
//! ## Example
//!
//! ```
//! use gmh_types::{Address, LINE_SIZE};
//!
//! let a = Address::new(0x1234);
//! let line = a.line();
//! assert_eq!(line.base().raw(), 0x1234 / LINE_SIZE as u64 * LINE_SIZE as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod fetch;
pub mod hash;
pub mod json;
pub mod prof;
pub mod queue;
pub mod rng;
pub mod scratch;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use addr::{Address, LineAddr, LINE_SIZE};
pub use clock::{
    ClockDomain, ClockDomains, Component, DomainId, EventBound, Picos, Tick, TickCounts, TickSet,
};
pub use fetch::{AccessKind, FetchId, MemFetch, Timestamps};
pub use hash::{stable_hash_str, StableHasher};
pub use prof::{HostPhase, HostProfiler, HostReport, SpanEvent};
pub use queue::{BoundedQueue, OccupancyHistogram};
pub use rng::Xoshiro256;
pub use scratch::Scratch;
pub use stats::{Counter, Histogram, LatencyHistogram, MeanAccumulator, RatioStat};
pub use telemetry::{AuditSummary, FetchAudit, Telemetry, TelemetrySnapshot};
pub use trace::{
    decomposition_of, spans_of, Level, LevelLatency, Span, StallCause, TraceData, TraceEvent,
    TraceEventKind, TraceSink,
};

/// A cycle count within a single clock domain.
pub type Cycle = u64;
