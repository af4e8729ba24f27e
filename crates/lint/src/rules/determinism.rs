//! R1 — determinism: model crates may not reach for nondeterministic
//! collections, wall-clock time, unseeded randomness, or anything that
//! shares state between threads. A simulation run must be a pure function
//! of (config, seed); `HashMap` iteration order and `Instant::now` both
//! break byte-identical replay (the property the determinism regression
//! test pins down), and so does any interleaving the OS scheduler picks.

use crate::config::LintConfig;
use crate::source::{contains_token, SourceFile};
use crate::Finding;

pub const RULE: &str = "R1";

/// `(token, hint, rng_class)`; `rng_class` tokens are legitimate inside
/// the one sanctioned RNG module (`gmh_types::rng`).
const BANNED: &[(&str, &str, bool)] = &[
    (
        "HashMap",
        "use std::collections::BTreeMap — HashMap iteration order varies per process and \
         makes runs irreproducible",
        false,
    ),
    (
        "HashSet",
        "use std::collections::BTreeSet — HashSet iteration order varies per process and \
         makes runs irreproducible",
        false,
    ),
    (
        "Instant",
        "model time must come from the simulation clock (gmh_types::clock), never wall time",
        false,
    ),
    (
        "SystemTime",
        "model time must come from the simulation clock (gmh_types::clock), never wall time",
        false,
    ),
    (
        "thread_rng",
        "draw randomness from the seeded generator in gmh_types::rng",
        true,
    ),
    (
        "from_entropy",
        "seed explicitly from the config; entropy-seeded RNGs make runs irreproducible",
        true,
    ),
    (
        "RandomState",
        "hasher randomization is per-process nondeterminism; use BTreeMap or a fixed hasher",
        false,
    ),
    // A simulation never spawns and never shares: it runs on the one
    // thread that owns its `GpuSim`, and parallelism lives a level up,
    // across simulations (`gmh_exp::Evaluator::eval_batch`). A lock, a spawned
    // thread or a mutable static in model code means two threads can
    // observe the same state under an OS-scheduled interleaving — exactly
    // the nondeterminism R1 exists to keep out of the cycle accounting.
    (
        "Mutex",
        "a simulation is owned by one thread and shares nothing: keep the state in the \
         owning struct; lock-protected state admits scheduler-dependent interleavings",
        false,
    ),
    (
        "RwLock",
        "a simulation is owned by one thread and shares nothing: keep the state in the \
         owning struct; lock-protected state admits scheduler-dependent interleavings",
        false,
    ),
    (
        "Condvar",
        "a simulation runs on one thread and has nobody to wait for; run whole \
         simulations side by side (gmh_exp::Evaluator::eval_batch) instead",
        false,
    ),
    (
        "thread::spawn",
        "a simulation runs on one thread; parallelism is across simulations \
         (gmh_exp::Evaluator::eval_batch, the gmh-serve worker pool), never inside one",
        false,
    ),
    (
        "static mut",
        "a mutable static is shared state by definition; thread the state through the \
         owning struct",
        false,
    ),
];

pub fn check(cfg: &LintConfig, f: &SourceFile, out: &mut Vec<Finding>) {
    if !crate::in_model_crate(cfg, &f.path) {
        return;
    }
    let is_rng_home = f.path.ends_with("types/src/rng.rs");
    for (i, code) in f.code.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        for (tok, hint, rng_class) in BANNED {
            if *rng_class && is_rng_home {
                continue;
            }
            if contains_token(code, tok) {
                out.push(Finding {
                    rule: RULE,
                    path: f.path.clone(),
                    line: i + 1,
                    message: format!("nondeterminism hazard: `{tok}` in a model crate"),
                    hint: (*hint).to_string(),
                });
            }
        }
    }
}
