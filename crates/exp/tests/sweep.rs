//! `gmh-exp sweep` against a fresh result cache: each machine runs once,
//! and every label prints a row from its machine's run.

use std::process::Command;

/// Runs `gmh-exp sweep solo` over `cache`; returns its stdout.
fn sweep(cache: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gmh-exp"))
        .args(["sweep", "solo"])
        .env("GMH_CACHE_DIR", cache)
        .output()
        .expect("gmh-exp runs");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn sweep_runs_each_machine_once() {
    let cache = std::env::temp_dir().join(format!("gmh-exp-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cold = sweep(&cache);
    let warm = sweep(&cache);
    std::fs::remove_dir_all(&cache).unwrap();

    // Eleven labels; Fig. 12's HBM is Fig. 10's DRAM 4×, so ten machines.
    let rows: Vec<&str> = cold.lines().skip(2).take(11).collect();
    let row = |label: &str| {
        let mut cells = rows
            .iter()
            .map(|r| r.split_whitespace().collect::<Vec<_>>());
        cells.find(|c| c[0] == label).expect(label)[1..].join(" ")
    };
    assert_eq!(row("DRAM"), row("HBM"), "{cold}");
    let footer = cold.lines().last().expect("footer");
    assert!(footer.starts_with("[10 sims, 0 hits from "), "{cold}");
    let footer = warm.lines().last().expect("footer");
    assert!(footer.starts_with("[0 sims, 10 hits from "), "{warm}");
    let cached = warm.lines().filter(|l| l.ends_with("  (cached)")).count();
    assert_eq!(cached, 11, "every row reads a stored run:\n{warm}");
}
