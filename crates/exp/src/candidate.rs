//! Shared candidate/evaluator layer for design-space exploration.
//!
//! A [`Candidate`] is one labeled configuration point; an [`Evaluator`]
//! runs candidates through the content-addressed result cache
//! ([`crate::cache`]). The `gmh-exp sweep` table and the `gmh-tune` search
//! engine both evaluate through this one path, so a tuner search and a hand-written sweep that
//! visit the same `(label, config, workload)` point share one cache entry,
//! byte-identically — and a warm rerun of either performs zero
//! simulations.

use crate::cache::{run_cached, CachedRun, DiskCache};
use crate::runner::par_map;
use gmh_core::GpuConfig;
use gmh_workloads::WorkloadSpec;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One labeled point of the design space.
///
/// The label is presentation *and* identity: it participates in the cache
/// key (see [`crate::cache::job_key`]) and is embedded in the cached
/// report, so two candidates that differ only in label are distinct cache
/// entries. Grid sweeps use the established figure labels ("base", "L2",
/// "16+48", ...) to stay key-compatible with existing entries; the tuner
/// derives stable labels from its knob settings.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Configuration label ("base", "16+48", "tune:…").
    pub label: String,
    /// The full GPU configuration this point evaluates.
    pub config: GpuConfig,
}

impl Candidate {
    /// Creates a labeled candidate.
    pub fn new(label: impl Into<String>, config: GpuConfig) -> Self {
        Candidate {
            label: label.into(),
            config,
        }
    }
}

/// Cache-backed candidate evaluation with fresh-vs-cached accounting.
///
/// The counters are totals across all `eval`/`eval_batch` calls on this
/// evaluator; batch evaluation distributes jobs across `GMH_THREADS`
/// workers but returns results in job order, so consumers stay
/// deterministic regardless of thread count.
#[derive(Debug)]
pub struct Evaluator<'a> {
    cache: &'a DiskCache,
    sims: AtomicUsize,
    hits: AtomicUsize,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `cache`.
    pub fn new(cache: &'a DiskCache) -> Self {
        Evaluator {
            cache,
            sims: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// The underlying result cache.
    pub fn cache(&self) -> &'a DiskCache {
        self.cache
    }

    /// Simulations actually executed (cache misses) so far.
    pub fn sims(&self) -> usize {
        self.sims.load(Ordering::Relaxed)
    }

    /// Evaluations served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    fn account(&self, run: &CachedRun) {
        if run.hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.sims.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evaluates one candidate on one workload through the cache.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from storing a fresh cache entry.
    pub fn eval(&self, cand: &Candidate, wl: &WorkloadSpec) -> io::Result<CachedRun> {
        let run = run_cached(self.cache, &cand.label, &cand.config, wl)?;
        self.account(&run);
        Ok(run)
    }

    /// Evaluates a batch of `(candidate, workload)` jobs across worker
    /// threads; results come back in job order (deterministic at any
    /// `GMH_THREADS`).
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error in job order, after all workers
    /// have drained.
    pub fn eval_batch(&self, jobs: &[(&Candidate, &WorkloadSpec)]) -> io::Result<Vec<CachedRun>> {
        // Collecting stops at the first error in job order; by then every
        // worker has drained.
        let runs = par_map(jobs.to_vec(), |(cand, wl)| self.eval(cand, wl));
        runs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_workloads::catalog;

    fn tiny() -> (GpuConfig, WorkloadSpec) {
        let mut cfg = GpuConfig::gtx480_baseline();
        cfg.n_cores = 1;
        cfg.max_core_cycles = 20_000;
        cfg.telemetry_window = 64;
        let mut wl = catalog::by_name("bfs").unwrap();
        wl.warps_per_core = 2;
        wl.insts_per_warp = 40;
        (cfg, wl)
    }

    fn tmp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!("gmh_cand_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DiskCache::open(dir).unwrap()
    }

    #[test]
    fn eval_counts_sims_then_hits() {
        let cache = tmp_cache("counts");
        let (cfg, wl) = tiny();
        let ev = Evaluator::new(&cache);
        let cand = Candidate::new("base", cfg);
        let cold = ev.eval(&cand, &wl).unwrap();
        assert!(!cold.hit);
        assert_eq!((ev.sims(), ev.hits()), (1, 0));
        let warm = ev.eval(&cand, &wl).unwrap();
        assert!(warm.hit);
        assert_eq!((ev.sims(), ev.hits()), (1, 1));
        assert_eq!(cold.json, warm.json);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn eval_batch_preserves_job_order_and_reuses_cache() {
        let cache = tmp_cache("batch");
        let (cfg, wl) = tiny();
        let mut cfg2 = cfg.clone();
        cfg2.l2_access_queue *= 2;
        let a = Candidate::new("a", cfg);
        let b = Candidate::new("b", cfg2);
        let ev = Evaluator::new(&cache);
        let jobs: Vec<(&Candidate, &WorkloadSpec)> = vec![(&a, &wl), (&b, &wl)];
        let first = ev.eval_batch(&jobs).unwrap();
        assert_eq!(ev.sims(), 2);
        // Warm rerun: same results, zero fresh simulations.
        let again = ev.eval_batch(&jobs).unwrap();
        assert_eq!(ev.sims(), 2, "warm batch must perform 0 sims");
        assert_eq!(first[0].json, again[0].json);
        assert_eq!(first[1].json, again[1].json);
        assert_ne!(first[0].json, first[1].json, "labels key distinct entries");
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
