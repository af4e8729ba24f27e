//! Parallel simulation-job execution.

use gmh_core::{GpuConfig, GpuSim, SimStats};
use gmh_workloads::{catalog, WorkloadSpec};
use std::sync::{mpsc, Mutex, OnceLock};

/// Worker-thread count: `GMH_THREADS` or the machine's parallelism.
///
/// The environment is read (and parsed) once per process; every subsequent
/// call returns the cached value. Sweeps call this on hot dispatch paths,
/// and re-parsing the environment per call was measurable noise.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| threads_from(std::env::var("GMH_THREADS").ok().as_deref()))
}

/// Resolves a thread count from an optional `GMH_THREADS` value: a positive
/// integer wins, anything else falls back to the machine's parallelism.
/// Split out (and tested) separately because [`threads`] caches per process.
fn threads_from(var: Option<&str>) -> usize {
    var.and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Maps `f` over `items` on up to [`threads`] scoped workers; results come
/// back in item order.
///
/// Work distribution is dynamic (a shared item iterator), and completions
/// flow back over a per-worker channel sender instead of a shared results
/// mutex, so finishing an item never contends with other workers.
pub(crate) fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads().min(n) {
            let (tx, queue, f) = (tx.clone(), &queue, &f);
            s.spawn(move || loop {
                // INVARIANT: no worker panics while holding the lock
                // (next() on an enumerate iterator is total).
                let Some((idx, item)) = queue.lock().expect("queue lock").next() else {
                    break;
                };
                tx.send((idx, f(item))).expect("receiver outlives workers");
            });
        }
        drop(tx); // workers hold the remaining senders
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (idx, r) in rx {
            results[idx] = Some(r);
        }
        // INVARIANT: every index was sent exactly once above.
        let ran = |r: Option<R>| r.expect("every item ran");
        results.into_iter().map(ran).collect()
    })
}

/// Cached baseline runs of all 19 workloads — shared by Figs. 1, 4, 5, 7,
/// 8 and 9, which all measure the baseline configuration.
#[derive(Clone, Debug)]
pub struct Baselines {
    entries: Vec<(WorkloadSpec, SimStats)>,
}

impl Baselines {
    /// Builds a cache from precomputed entries (used by unit tests to
    /// exercise report formatting without running simulations).
    pub fn from_entries(entries: Vec<(WorkloadSpec, SimStats)>) -> Self {
        Baselines { entries }
    }

    /// Runs the 19 baselines (in parallel).
    pub fn collect() -> Self {
        let entries = par_map(catalog::all(), |w| {
            let stats = GpuSim::new(GpuConfig::gtx480_baseline(), &w).run();
            (w, stats)
        });
        Baselines { entries }
    }

    /// Iterates `(workload, baseline stats)` in Table II order.
    pub fn iter(&self) -> impl Iterator<Item = &(WorkloadSpec, SimStats)> {
        self.entries.iter()
    }

    /// Baseline stats for one workload.
    pub fn get(&self, name: &str) -> Option<&SimStats> {
        self.entries
            .iter()
            .find(|(w, _)| w.name == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_override() {
        // Not set in tests normally; just ensure the default is sane.
        assert!(threads() >= 1);
    }

    #[test]
    fn threads_from_covers_override_path() {
        // A positive integer wins verbatim.
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some("1")), 1);
        // Zero, garbage, and absence all fall back to machine parallelism.
        assert!(threads_from(Some("0")) >= 1);
        assert!(threads_from(Some("not-a-number")) >= 1);
        assert!(threads_from(None) >= 1);
        assert_eq!(threads_from(Some("0")), threads_from(None));
    }
}
