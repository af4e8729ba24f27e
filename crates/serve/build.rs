//! Embeds the git revision at build time for the `gmh_build_info` metric
//! and the PING reply. Operational metadata only — simulation results never
//! depend on it. Falls back to "unknown" outside a git checkout.

use std::process::Command;

fn main() {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=GMH_GIT_SHA={sha}");
    // Rebuild when HEAD moves so the exposed sha stays honest. Outside a
    // git checkout the file does not exist, and cargo treats a missing
    // path as always changed — every build would recompile this crate and
    // everything above it — so watch only this script there.
    let head = "../../.git/HEAD";
    if std::path::Path::new(head).exists() {
        println!("cargo:rerun-if-changed={head}");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
