//! Tuner determinism at the workspace boundary: a search is a pure
//! function of its parameters.
//!
//! Two pins:
//!   1. Re-running the same search against the same cache directory yields
//!      byte-identical frontier JSON — and the second run performs zero
//!      fresh simulations (pure cache replay).
//!   2. The CSV rendering is equally stable.

use gmh::exp::cache::DiskCache;
use gmh::exp::tune::{frontier_csv, frontier_json, run_search, TuneParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gmh-exp-tune-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn fresh_cache(tag: &str) -> (DiskCache, PathBuf) {
    let dir = temp_cache_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).expect("open scratch cache");
    (cache, dir)
}

fn params() -> TuneParams {
    let mut p = TuneParams::smoke();
    p.seed = 1234;
    p
}

#[test]
fn repeat_search_is_byte_identical_and_simulation_free() {
    let (cache, dir) = fresh_cache("repeat");
    let p = params();
    let cold = run_search(&cache, &p).expect("cold search");
    assert!(cold.fresh_sims > 0, "a cold search must simulate");
    assert!(cold.complete, "the smoke budget covers the smoke search");
    let warm = run_search(&cache, &p).expect("warm search");
    assert_eq!(warm.fresh_sims, 0, "a warm search must not simulate");
    assert_eq!(
        warm.evals, cold.evals,
        "the budget counts attempts, so warm and cold replay the same trajectory"
    );
    assert_eq!(
        frontier_json(&p, &cold),
        frontier_json(&p, &warm),
        "frontier JSON must be byte-identical across runs"
    );
    assert_eq!(frontier_csv(&p, &cold), frontier_csv(&p, &warm));
    let _ = std::fs::remove_dir_all(&dir);
}
