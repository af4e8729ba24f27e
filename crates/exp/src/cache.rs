//! Content-addressed on-disk cache of completed simulation runs.
//!
//! A full-model baseline run costs millions of simulated cycles; the same
//! `(config, workload, seed)` triple is requested over and over — by the
//! figure binaries, by the design-space diagnostics, and by every client of
//! the `gmh-serve` daemon. This module stores the *exact*
//! [`crate::report_json`] bytes of a completed run under a stable
//! content-derived key, so repeats are served instantly and byte-identically
//! (the determinism tests pin the latter property down).
//!
//! ## Key derivation
//!
//! The key is a 64-bit FNV-1a hash ([`gmh_types::hash`]) of a canonical JSON
//! document describing the job:
//!
//! ```json
//! {"config_label":"base","config":"<GpuConfig debug>","workload":"<WorkloadSpec debug>"}
//! ```
//!
//! The `Debug` representations are exhaustive over every field (derived,
//! declaration-ordered), so any change to any knob — including the workload's
//! seed — changes the key. The presentation label participates because the
//! cached value embeds it (`report_json` writes `"config":"<label>"`); two
//! requests that differ only in label would otherwise collide on a value
//! whose bytes disagree with one of them.
//!
//! ## On-disk layout
//!
//! One file per entry, `<dir>/<016x key>.json`: the one-line report and a
//! closing newline, written via a temp file and atomic rename so a crashed
//! writer can never leave a torn entry. Each write has a temp file of its
//! own, so racing writers of one key never truncate each other's file: a
//! reader sees a whole entry or none. A file cut short some other way (a
//! full disk, a copy) lacks the closing newline and reads as a miss; bytes
//! changed in place are not detected. A
//! human-readable `index.tsv` (`key \t workload \t label \t seed`, ascending
//! by key) is brought up to date by [`DiskCache::flush_index`], which merges
//! this handle's in-memory ledger into the rows earlier processes left; the
//! daemon flushes it on graceful shutdown.

use crate::export::report_json;
use gmh_core::{GpuConfig, GpuSim, SimStats, Stopped};
use gmh_types::hash::StableHasher;
use gmh_workloads::WorkloadSpec;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Stable cache key for one simulation job.
///
/// See the module docs for the canonical document this hashes. The config
/// is canonicalized first: knobs that only choose *how* the run executes —
/// run-loop selection (`force_naive_loop`), host profiling
/// (`profile_host`) and the vestigial `sim_threads` (0 and 1 mean the same
/// thing) — are zeroed before hashing, because every such combination
/// produces byte-identical reports (the determinism and event-core suites
/// pin this). Hashing them would fragment the cache into copies of the
/// same bytes and turn a warm hit into a cold re-simulation.
pub fn job_key(config_label: &str, cfg: &GpuConfig, wl: &WorkloadSpec) -> u64 {
    let cfg = canonical_cfg(cfg);
    let mut h = StableHasher::new();
    // The surrounding structure (quoted, comma-separated named fields)
    // keeps field boundaries unambiguous; Debug text never contains
    // unescaped quotes for these plain-data types.
    h.write_str("{\"config_label\":\"");
    h.write_str(config_label);
    h.write_str("\",\"config\":\"");
    h.write_str(&format!("{cfg:?}"));
    h.write_str("\",\"workload\":\"");
    h.write_str(&format!("{wl:?}"));
    h.write_str("\"}");
    h.finish()
}

/// Strips execution-only knobs (run-loop choice, profiling) down to their
/// defaults so every equivalent execution strategy maps to one cache key.
fn canonical_cfg(cfg: &GpuConfig) -> GpuConfig {
    let mut c = cfg.clone();
    c.force_naive_loop = false;
    c.profile_host = false;
    c.sim_threads = 0;
    c
}

/// A content-addressed result cache rooted at one directory.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    /// `(key, index row)` of every entry stored through this handle.
    ledger: Mutex<Vec<(u64, String)>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            ledger: Mutex::new(Vec::new()),
        })
    }

    /// The default shared cache location: `$GMH_CACHE_DIR` if set, else
    /// `target/gmh-result-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("GMH_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new("target").join("gmh-result-cache"))
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Fetches the stored report bytes for `key`: `None` when the entry is
    /// absent, unreadable or cut short (it lacks the newline [`Self::put`]
    /// closes it with), so that the caller recomputes it and overwrites it.
    /// The check is one byte, not a parse, so a hit costs one file read.
    pub fn get(&self, key: u64) -> Option<String> {
        let mut json = std::fs::read_to_string(self.entry_path(key)).ok()?;
        (json.pop()? == '\n').then_some(json)
    }

    /// Stores `json` under `key` (atomically: temp file + rename), closed
    /// by a newline, and remembers the entry for the index. `json` holds no
    /// newline of its own (`report_json` writes one line), so only a whole
    /// entry ends in one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write or rename.
    pub fn put(&self, key: u64, wl: &WorkloadSpec, label: &str, json: &str) -> io::Result<()> {
        self.write_atomic(&self.entry_path(key), &format!("{json}\n"))?;
        let row = format!("{key:016x}\t{}\t{label}\t{:#x}", wl.name, wl.seed);
        // INVARIANT: the ledger mutex is only held for push/extend/len and
        // no panic can occur while it is held, so it is never poisoned.
        self.ledger.lock().expect("ledger lock").push((key, row));
        Ok(())
    }

    /// Merges the entries stored through this handle into `index.tsv` (one
    /// `key \t workload \t label \t seed` row per entry, ascending by key):
    /// the rows already on disk — other processes share the directory — are
    /// kept, except malformed ones. A row is read on its own, so one that is
    /// not UTF-8 drops alone. Called by the daemon on graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error from writing the index.
    pub fn flush_index(&self) -> io::Result<()> {
        let path = self.dir.join("index.tsv");
        let mut rows: BTreeMap<u64, String> = std::fs::read(&path)
            .unwrap_or_default()
            .split(|&b| b == b'\n')
            .filter_map(|row| {
                let row = std::str::from_utf8(row).ok()?;
                Some((parse_index_row(row)?, row.to_string()))
            })
            .collect();
        // INVARIANT: see `put` — the ledger mutex cannot be poisoned.
        rows.extend(self.ledger.lock().expect("ledger lock").iter().cloned());
        let mut out = String::from("key\tworkload\tlabel\tseed\n");
        for row in rows.values() {
            out.push_str(row);
            out.push('\n');
        }
        self.write_atomic(&path, &out)
    }

    /// Writes `path` through a temp file no other write shares, then
    /// renames it into place.
    fn write_atomic(&self, path: &Path, bytes: &str) -> io::Result<()> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp-{}-{n}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(tmp, path)
    }
}

/// The key of a well-formed `index.tsv` row: four tab-separated fields, a
/// 16-digit hex key first and a `0x` hex seed last. The header, and anything
/// a crashed or foreign writer left, is `None`.
fn parse_index_row(row: &str) -> Option<u64> {
    let fields: Vec<&str> = row.split('\t').collect();
    let [key, _workload, _label, seed] = fields[..] else {
        return None;
    };
    u64::from_str_radix(seed.strip_prefix("0x")?, 16).ok()?;
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(key, 16).ok()
}

/// The result of a cache-aware run: the report JSON always, the in-memory
/// stats only when the simulation actually executed (a cold miss).
#[derive(Clone, Debug)]
pub struct CachedRun {
    /// The exact `report_json` bytes (from disk on a hit, freshly computed
    /// on a miss — byte-identical either way).
    pub json: String,
    /// Full stats, present only on a miss (they are not reconstructible
    /// from the report).
    pub stats: Option<SimStats>,
    /// Whether the run was served from the cache.
    pub hit: bool,
}

impl CachedRun {
    /// Extracts a scalar `"name":<number>` field from the report JSON by a
    /// flat scan (see [`metric_in_json`]), which lets a warm-cache consumer
    /// print its table without ever deserializing a full `SimStats`.
    ///
    /// Most field names occur once in a report, but not all: `cache` and
    /// `mshr` are causes under both `l1_stalls` and `l2_stalls`. A name that
    /// occurs more than once is `None`, not whichever comes first.
    pub fn metric(&self, name: &str) -> Option<f64> {
        metric_in_json(&self.json, name)
    }
}

/// Scans report JSON for `"name":` and parses the number that follows;
/// `None` when the name is missing, occurs more than once, or is followed
/// by something other than a number.
pub fn metric_in_json(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok().filter(|_| !rest.contains(&needle))
}

/// Runs `(label, cfg, wl)` through `cache`: returns the stored report on a
/// hit, otherwise simulates, stores, and returns the fresh report. The
/// simulation polls `stop` ([`GpuSim::run_until`]), and so does a miss
/// before it builds the simulator; a stopped run stores nothing.
///
/// # Errors
///
/// Propagates filesystem errors from storing a fresh entry (an existing
/// entry that is cut short or unreadable is treated as a miss, then
/// overwritten); a run `stop` ended is an error carrying [`Stopped`].
pub fn run_cached(
    cache: &DiskCache,
    label: &str,
    cfg: &GpuConfig,
    wl: &WorkloadSpec,
    mut stop: impl FnMut() -> bool,
) -> io::Result<CachedRun> {
    let key = job_key(label, cfg, wl);
    if let Some(json) = cache.get(key) {
        return Ok(CachedRun {
            json,
            stats: None,
            hit: true,
        });
    }
    if stop() {
        return Err(io::Error::other(Stopped));
    }
    let stats = GpuSim::new(cfg.clone(), wl)
        .run_until(stop)
        .map_err(io::Error::other)?;
    let json = report_json(label, wl.name, &stats);
    cache.put(key, wl, label, &json)?;
    Ok(CachedRun {
        json,
        stats: Some(stats),
        hit: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_workloads::catalog;

    fn tiny() -> (GpuConfig, WorkloadSpec) {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.n_cores = 1;
        cfg.max_core_cycles = 30_000;
        cfg.telemetry_window = 64;
        let mut wl = catalog::by_name("nn").unwrap();
        wl.warps_per_core = 2;
        wl.insts_per_warp = 40;
        (cfg, wl)
    }

    fn tmp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!("gmh_cache_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DiskCache::open(dir).unwrap()
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let (cfg, wl) = tiny();
        assert_eq!(job_key("base", &cfg, &wl), job_key("base", &cfg, &wl));
        let mut wl2 = wl.clone();
        wl2.seed ^= 1;
        assert_ne!(job_key("base", &cfg, &wl), job_key("base", &cfg, &wl2));
        let mut cfg2 = cfg.clone();
        cfg2.l2_access_queue += 1;
        assert_ne!(job_key("base", &cfg, &wl), job_key("base", &cfg2, &wl));
        assert_ne!(job_key("base", &cfg, &wl), job_key("l2x4", &cfg, &wl));
    }

    #[test]
    fn key_ignores_execution_only_knobs() {
        // Run-loop selection and profiling change how a run executes, not
        // what it produces — all combinations must share one cache entry.
        let (cfg, wl) = tiny();
        let base = job_key("base", &cfg, &wl);
        let mut c = cfg.clone();
        c.force_naive_loop = true;
        assert_eq!(base, job_key("base", &c, &wl));
        let mut c = cfg.clone();
        c.profile_host = true;
        assert_eq!(base, job_key("base", &c, &wl));
        // `sim_threads` 0 and 1 both mean one thread.
        let mut c = cfg.clone();
        c.sim_threads = 1;
        assert_eq!(base, job_key("base", &c, &wl));
    }

    #[test]
    fn miss_then_hit_is_byte_identical() {
        let cache = tmp_cache("roundtrip");
        let (cfg, wl) = tiny();
        let cold = run_cached(&cache, "base", &cfg, &wl, || false).unwrap();
        assert!(!cold.hit);
        assert!(cold.stats.is_some());
        let warm = run_cached(&cache, "base", &cfg, &wl, || false).unwrap();
        assert!(warm.hit);
        assert!(warm.stats.is_none());
        assert_eq!(cold.json, warm.json, "cache hit must be byte-identical");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn metric_extraction_matches_stats() {
        let cache = tmp_cache("metric");
        let (cfg, wl) = tiny();
        let cold = run_cached(&cache, "base", &cfg, &wl, || false).unwrap();
        let stats = cold.stats.as_ref().unwrap();
        // `json_num` renders 6 decimal places, so compare at that precision.
        let ipc = cold.metric("ipc").unwrap();
        assert!((ipc - stats.ipc).abs() < 1e-6, "{ipc} vs {}", stats.ipc);
        let cycles = cold.metric("core_cycles").unwrap();
        assert!((cycles - stats.core_cycles as f64).abs() < 0.5);
        assert!(cold.metric("l2_access_full_fraction").is_some());
        assert!(cold.metric("no_such_field").is_none());
        // Causes of both cache levels: ambiguous, so neither level's share.
        for name in ["cache", "mshr"] {
            assert_eq!(cold.metric(name), None, "{name}");
        }
        // What outside readers (the benchmark's report checks) take.
        for name in [
            "ipc",
            "core_cycles",
            "insts",
            "emitted",
            "returned",
            "absorbed",
            "in_flight",
        ] {
            assert!(cold.metric(name).is_some(), "{name}");
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn index_flush_lists_entries() {
        let cache = tmp_cache("index");
        let (cfg, wl) = tiny();
        run_cached(&cache, "base", &cfg, &wl, || false).unwrap();
        cache.flush_index().unwrap();
        let idx = std::fs::read_to_string(cache.dir().join("index.tsv")).unwrap();
        assert!(idx.contains("nn\tbase"), "index:\n{idx}");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn index_flush_keeps_what_other_handles_wrote() {
        // Two processes sharing one directory (`fig10` then `fig12`, or a
        // restarted daemon): the second flush must not forget the first.
        let first = tmp_cache("index_merge");
        let second = DiskCache::open(first.dir()).unwrap();
        let (cfg, wl) = tiny();
        run_cached(&first, "base", &cfg, &wl, || false).unwrap();
        first.flush_index().unwrap();
        run_cached(&second, "l2x4", &cfg, &wl, || false).unwrap();
        let index = first.dir().join("index.tsv");
        let torn = std::fs::read_to_string(&index).unwrap() + "not-a-key\tnn\tx\t0x1\ngarbage\n";
        std::fs::write(&index, torn).unwrap();
        second.flush_index().unwrap();
        // Re-flushing the first handle's (already listed) entry adds nothing.
        first.flush_index().unwrap();
        let idx = std::fs::read_to_string(&index).unwrap();
        let mut keys = [job_key("base", &cfg, &wl), job_key("l2x4", &cfg, &wl)];
        keys.sort_unstable();
        let rows: Vec<&str> = idx.lines().collect();
        assert_eq!(rows.len(), 3, "header + one row per entry:\n{idx}");
        assert_eq!(rows[0], "key\tworkload\tlabel\tseed");
        for (row, key) in rows[1..].iter().zip(keys) {
            assert!(row.starts_with(&format!("{key:016x}\tnn\t")), "{idx}");
        }
        std::fs::remove_dir_all(first.dir()).ok();
    }

    #[test]
    fn index_flush_keeps_exactly_the_well_formed_rows() {
        // Index files a crashed or foreign writer could leave: real rows
        // mixed with truncated, bit-flipped and extra-tab ones. The flush
        // keeps what `parse_index_row` accepts (a later row of one key
        // wins), adds this handle's ledger, and sorts by key under the
        // header.
        let dir = tmp_cache("index_fuzz").dir().to_path_buf();
        let index = dir.join("index.tsv");
        let (_, wl) = tiny();
        gmh_types::rng::cases("index_rows", 256, |rng| {
            let mut lines = vec![b"key\tworkload\tlabel\tseed".to_vec()];
            for _ in 0..rng.range(0..12) {
                let (key, seed) = (rng.next_u64(), rng.next_u64());
                let mut row = format!("{key:016x}\tnn\tbase\t{seed:#x}").into_bytes();
                let at = rng.range(0..row.len());
                match rng.range(0..4) {
                    0 => row.truncate(at),
                    1 => row[at] ^= 1 << rng.range(0..8),
                    2 => row.insert(at, b'\t'),
                    _ => {}
                }
                lines.push(row);
            }
            std::fs::write(&index, lines.join(&b'\n')).unwrap();
            let mut want = BTreeMap::new();
            for line in &lines {
                if let Ok(row) = std::str::from_utf8(line) {
                    if let Some(key) = parse_index_row(row) {
                        want.insert(key, row.to_string());
                    }
                }
            }
            let cache = DiskCache::open(&dir).unwrap();
            for _ in 0..rng.range(0..3) {
                let key = rng.next_u64();
                cache.put(key, &wl, "l2x4", "{}").unwrap();
                let row = format!("{key:016x}\tnn\tl2x4\t{:#x}", wl.seed);
                want.insert(key, row);
            }
            cache.flush_index().unwrap();
            let got = std::fs::read_to_string(&index).unwrap();
            let mut rows = got.lines();
            assert_eq!(rows.next(), Some("key\tworkload\tlabel\tseed"));
            let keys: Vec<u64> = rows.clone().map(|r| parse_index_row(r).unwrap()).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{got}");
            assert!(rows.eq(want.values().map(String::as_str)), "{got}");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_writers_of_one_key_leave_whole_entries() {
        // Two identical daemon requests, or two searches sharing a
        // candidate, store one key at once. Each put must succeed and a
        // concurrent read must see no entry or a whole one, never a
        // half-written temp file renamed into place.
        let cache = tmp_cache("race");
        let (_, wl) = tiny();
        let payload = "x".repeat(64 << 10);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        cache.put(7, &wl, "base", &payload).unwrap();
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..2000 {
                    if let Some(read) = cache.get(7) {
                        assert!(read == payload, "a torn entry of {} bytes", read.len());
                    }
                }
            });
        });
        assert_eq!(cache.get(7).as_deref(), Some(payload.as_str()));
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn cut_entries_are_misses_that_a_recompute_mends() {
        let cache = tmp_cache("torn");
        let (cfg, wl) = tiny();
        let fresh = run_cached(&cache, "base", &cfg, &wl, || false)
            .unwrap()
            .json;
        let path = cache.entry_path(job_key("base", &cfg, &wl));
        let whole = std::fs::read(&path).unwrap();
        assert_eq!(whole, format!("{fresh}\n").into_bytes());
        gmh_types::rng::cases("cut_cache_entries", 64, |rng| {
            std::fs::write(&path, &whole[..rng.range(0..whole.len())]).unwrap();
            let run = run_cached(&cache, "base", &cfg, &wl, || false).unwrap();
            assert!(!run.hit, "a cut entry was served");
            assert_eq!(run.json, fresh);
            assert_eq!(std::fs::read(&path).unwrap(), whole);
        });
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn metric_in_json_parses_negatives_and_exponents() {
        assert_eq!(metric_in_json("{\"x\":-1.5e-3}", "x"), Some(-1.5e-3));
        assert_eq!(metric_in_json("{\"x\":12}", "x"), Some(12.0));
        assert_eq!(metric_in_json("{\"x\":\"str\"}", "x"), None);
    }
}
