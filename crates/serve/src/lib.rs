//! # gmh-serve
//!
//! Simulation-as-a-service: a dependency-free TCP daemon that executes
//! [`gmh_core::GpuSim`] runs on behalf of clients, with the three
//! disciplines a shared simulator needs:
//!
//! * **Bounded admission** — a job runs on the connection thread that read
//!   it, at most [`ServerConfig::workers`] at once, and waits its turn in a
//!   [`gmh_types::BoundedQueue`]; when the queue fills the server sheds
//!   load with an explicit `BUSY{retry_after_ms}` instead of buffering
//!   unboundedly. This is the
//!   paper's own lesson (back-pressure from bounded queues governs
//!   sustained throughput — Dublish et al., ISPASS 2017) applied to the
//!   service layer.
//! * **Content-addressed result cache** — completed runs are stored by a
//!   stable hash of the canonical job description
//!   ([`gmh_exp::cache`]); repeats are served instantly and
//!   byte-identically, and the figure/diagnostic binaries read through the
//!   same cache.
//! * **Observability** — a `METRICS` request returns Prometheus-style
//!   counters (accepted/shed/completed/errored/timed-out, cache hits,
//!   simulated cycles, wall time) satisfying
//!   `accepted = completed + shed + errored + timed_out` at quiescence.
//!
//! Protocol grammar, admission policy, and cache-key derivation are
//! documented in DESIGN.md §8. Quickstart:
//!
//! ```text
//! cargo run --release -p gmh-serve                      # the daemon
//! cargo run --release -p gmh-serve --bin gmh-client -- \
//!     --addr 127.0.0.1:7700 submit mm --seed 1          # a client
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::Client;
/// The strict JSON parser the wire protocol reads requests with (it lives
/// in `gmh-types`, where the tools that only parse JSON find it too).
pub use gmh_types::json;
pub use metrics::Metrics;
pub use protocol::{JobRequest, Reply, Request, MAX_LINE_BYTES};
pub use server::{spawn, ServerConfig, ServerHandle};
