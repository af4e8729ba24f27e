//! R2 — bounded-queue discipline: all model-crate buffering goes through
//! `gmh_types::queue::BoundedQueue`, so every queue exerts back-pressure
//! and feeds the occupancy telemetry behind the paper's Figs. 4-5. A raw
//! `VecDeque` is an unbounded buffer the bandwidth model cannot see.

use crate::config::LintConfig;
use crate::source::{contains_token, SourceFile};
use crate::Finding;

pub const RULE: &str = "R2";

pub fn check(cfg: &LintConfig, f: &SourceFile, out: &mut Vec<Finding>) {
    if !crate::in_model_crate(cfg, &f.path) {
        return;
    }
    // The BoundedQueue implementation itself is the one sanctioned home
    // for a raw VecDeque.
    if cfg.queue_impl.iter().any(|q| f.path.ends_with(q)) {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        if contains_token(code, "VecDeque") {
            out.push(Finding {
                rule: RULE,
                path: f.path.clone(),
                line: i + 1,
                message: "raw `VecDeque` in a model crate bypasses back-pressure".to_string(),
                hint: "buffer through gmh_types::queue::BoundedQueue so occupancy telemetry \
                       and back-pressure apply"
                    .to_string(),
            });
        }
        // An mpsc channel is an unbounded queue the bandwidth model cannot
        // see. Cross-thread boundary queues (the service layer's reply
        // channels) must carry a written argument for why their occupancy
        // is bounded by protocol.
        if contains_token(code, "mpsc") {
            out.push(Finding {
                rule: RULE,
                path: f.path.clone(),
                line: i + 1,
                message: "`mpsc` channel in a model crate is an unbounded queue".to_string(),
                hint: "bound the occupancy by protocol and record the argument in lint.toml \
                       (or buffer through BoundedQueue); unbounded boundary queues hide \
                       back-pressure"
                    .to_string(),
            });
        }
    }
}
