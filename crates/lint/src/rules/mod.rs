//! The invariant rules. Each `check` pushes [`crate::Finding`]s
//! *unfiltered*; suppression (inline directives and `lint.toml` entries)
//! is applied centrally in [`crate::run`] so the audit can see what every
//! allowlist entry actually covers. The one exception is R5, which honors
//! inline directives while collecting stall mentions (a suppressed
//! mention must not count toward its cross-file checks).

pub mod alloc;
pub mod determinism;
pub mod panics;
pub mod queues;
pub mod stalls;
pub mod units;

/// Every rule id: what an inline directive may name, and what the clean-run
/// summary counts.
pub const IDS: &[&str] = &["R1", "R2", "R4", "R5", "R6", "R8"];
