//! The design-space autotuner: `gmh-exp tune` and the daemon's `"tune"` job.
//!
//! Turns the paper's Table III from a transcription into a search: a typed
//! knob space over [`gmh_core::GpuConfig`] (crossbar request/reply flit
//! widths, MSHR counts, miss/access/response queue depths, L1 front-end and
//! L2 banking), a seeded successive-halving search engine with an optional
//! evolutionary refinement stage, and a Pareto-frontier extractor that
//! scores speedup-vs-baseline against the area model
//! ([`gmh_core::area`]) and answers constrained queries like *"best config
//! under 2% area overhead"*.
//!
//! Every candidate is evaluated through the shared content-addressed result
//! cache ([`crate::cache`]) via the common [`crate::candidate`] layer,
//! so repeated and resumed searches are nearly free, and a search shares
//! entries with any grid sweep that visited the same point.
//!
//! ## Determinism
//!
//! A search is a pure function of `(knob space, TuneParams)`:
//!
//! * the candidate pool is drawn by a seeded [`gmh_types::rng::Xoshiro256`]
//!   shuffle of the exhaustively enumerated valid genomes;
//! * every simulation is a pure function of `(config, workload seed)`, and
//!   batch evaluation returns results in job order regardless of
//!   `GMH_THREADS`;
//! * the budget counts evaluations *attempted* — cache hits included — so a
//!   warm cache replays the identical trajectory instead of searching
//!   further;
//! * scores, survivor selection and the frontier all break ties on the
//!   candidate label, never on arrival order.
//!
//! Two runs with the same seed therefore produce byte-identical frontier
//! reports, with the second performing zero fresh simulations.

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub mod pareto;
pub mod report;
pub mod search;
pub mod space;

pub use pareto::{best_under, pareto_frontier, FrontierPoint};
pub use report::{frontier_csv, frontier_json};
pub use search::{run_search, run_search_until, StageSummary, TuneOutcome, TuneParams};
pub use space::{Genome, KnobSpace, N_AXES};
