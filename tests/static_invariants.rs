//! The static invariants' configuration is in place (DESIGN.md §7).
//!
//! Clippy enforces the model crates' determinism, bounded-queue and panic
//! rules, but only where a crate root switches the lints on and only for
//! the paths `clippy.toml` lists. Both are plain text a refactor can drop
//! without any build failing, so this test reads them back: removing a
//! model crate from the rules, or a type from the lists, fails here.

use std::path::Path;

/// Determinism: nondeterministic iteration, wall-clock time and shared
/// state between threads.
const DETERMINISM_TYPES: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
    "std::time::Instant",
    "std::time::SystemTime",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
];

/// Bounded queues: unbounded buffers and channels.
const QUEUE_TYPES: &[&str] = &[
    "std::collections::VecDeque",
    "std::sync::mpsc::Sender",
    "std::sync::mpsc::SyncSender",
    "std::sync::mpsc::Receiver",
];

const METHODS: &[&str] = &[
    "std::thread::spawn",
    "std::sync::mpsc::channel",
    "std::sync::mpsc::sync_channel",
];

/// The model crates' library roots.
const MODEL_LIBS: &[&str] = &[
    "crates/types/src/lib.rs",
    "crates/cache/src/lib.rs",
    "crates/simt/src/lib.rs",
    "crates/icnt/src/lib.rs",
    "crates/dram/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/exp/src/tune/mod.rs",
];

/// The model crates' binary roots.
const MODEL_BINS: &[&str] = &[
    "crates/serve/src/main.rs",
    "crates/serve/src/bin/gmh_client.rs",
];

const WARN_LINE: &str = "#![warn(clippy::disallowed_types,clippy::disallowed_methods,\
                         clippy::unwrap_used,clippy::expect_used)]";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `text` with all whitespace removed, so rustfmt's line breaks do not
/// matter.
fn squeezed(text: &str) -> String {
    text.split_whitespace().collect()
}

/// The `path = ".."` entries of the array `key = [ .. ]` in `toml`.
fn listed_paths<'a>(toml: &'a str, key: &str) -> Vec<&'a str> {
    let start = toml
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` list"));
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("the list is closed")];
    body.split("path = \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("the path is quoted")])
        .collect()
}

#[test]
fn clippy_config_binds_every_model_crate_root() {
    let toml = read("clippy.toml");
    let types = listed_paths(&toml, "disallowed-types");
    for path in DETERMINISM_TYPES.iter().chain(QUEUE_TYPES) {
        assert!(
            types.contains(path),
            "clippy.toml's disallowed-types lacks {path}"
        );
    }
    let methods = listed_paths(&toml, "disallowed-methods");
    for path in METHODS {
        assert!(
            methods.contains(path),
            "clippy.toml's disallowed-methods lacks {path}"
        );
    }
    for key in [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
    ] {
        assert!(toml.contains(key), "clippy.toml lacks `{key}`");
    }

    for root in MODEL_LIBS.iter().chain(MODEL_BINS) {
        assert!(
            squeezed(&read(root)).contains(WARN_LINE),
            "{root} does not switch on the model lints (`{WARN_LINE}`)"
        );
    }
    for root in MODEL_LIBS {
        assert!(
            read(root).contains("#![forbid(unsafe_code)]"),
            "{root} does not forbid unsafe code"
        );
    }

    // Every suppression is an `#[expect]` with a reason, workspace-wide.
    let manifest = read("Cargo.toml");
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        assert!(
            manifest.contains(&format!("\n{lint} = \"warn\"")),
            "[workspace.lints.clippy] does not warn on {lint}"
        );
    }
}
