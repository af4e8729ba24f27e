//! R6 — zero-allocation hot loops: the per-cycle functions (`cycle`,
//! `cycle_traced`, `icnt_tick`, `dram_tick`, `core_tick`, the
//! `Component::tick` impls, the generic `sweep`/`wake`, the wake drain and
//! the wake column's `schedule`/`cancel`) and the crossbar's per-packet
//! `inject`/`pop_eject` in model crates may not allocate. A `vec![..]` or
//! `.collect()` inside a function that
//! runs hundreds of millions of times dominates the simulator's wall time
//! (the run-loop overhaul found exactly such allocations behind ~40% of
//! the cycle path); scratch buffers belong on the owning struct, hoisted
//! out of the loop and reused.

use crate::config::LintConfig;
use crate::source::SourceFile;
use crate::Finding;

pub const RULE: &str = "R6";

/// Function names forming the per-cycle hot path. A line is in scope when
/// its *innermost* enclosing `fn` carries one of these names.
const HOT_FNS: &[&str] = &[
    "cycle",
    "cycle_traced",
    "icnt_tick",
    "dram_tick",
    "core_tick",
    "tick",
    "sweep",
    "wake",
    "drain_wakes",
    "schedule",
    "cancel",
    "inject",
    "pop_eject",
];

/// `(needle, what)` — allocation tokens. Matched left-boundary-aware
/// against the masked code view, so `invec!` or prose in comments never
/// trigger.
const ALLOCATING: &[(&str, &str)] = &[
    ("Vec::new", "`Vec::new()`"),
    ("vec!", "a `vec![..]` literal"),
    ("Box::new", "`Box::new()`"),
    (".collect(", "`.collect()`"),
];

pub fn check(cfg: &LintConfig, f: &SourceFile, out: &mut Vec<Finding>) {
    if !crate::in_model_crate(cfg, &f.path) {
        return;
    }
    for (i, code) in f.code.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        let Some(name) = f.enclosing_fn(i) else {
            continue;
        };
        if !HOT_FNS.contains(&name) {
            continue;
        }
        for (needle, what) in ALLOCATING {
            if contains_left_bounded(code, needle) {
                out.push(Finding {
                    rule: RULE,
                    path: f.path.clone(),
                    line: i + 1,
                    message: format!("{what} allocates inside hot-loop fn `{name}`"),
                    hint: "per-cycle functions must not allocate: hoist the buffer into a \
                           scratch field on the owning struct and reuse it (clear, don't \
                           reallocate)"
                        .to_string(),
                });
            }
        }
    }
}

/// Whether `hay` contains `needle` with no identifier character
/// immediately before it (the needle's own tail — `!`, `(`, `new` — fixes
/// the right boundary).
fn contains_left_bounded(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let abs = from + pos;
        let left_ok = abs == 0
            || !hay[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok {
            return true;
        }
        from = abs + needle.len().max(1);
    }
    false
}
