//! Parallel simulation-job execution, and the store of finished runs the
//! artifacts share.

use crate::cache::job_key;
use gmh_core::{GpuConfig, GpuSim, SimStats};
use gmh_workloads::WorkloadSpec;
use std::collections::{HashMap, HashSet};
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

/// The finished runs of this process, each keyed by [`job_key`] with an
/// empty label: every artifact asks it for a grid of runs, and a run one
/// artifact made is not simulated again for the next (Fig. 12's HBM is
/// Fig. 10's DRAM 4×, and Fig. 11's 1.4 GHz column is the baseline). Runs
/// are kept until the store is dropped.
#[derive(Debug, Default)]
pub struct Runs {
    done: HashMap<u64, SimStats>,
    sims: usize,
}

impl Runs {
    /// The stats of every workload under every config, `grid[w][c]` being
    /// workload `w` under config `c`; the pairs the store lacks are
    /// simulated first, each once, in one parallel batch.
    pub fn grid(
        &mut self,
        workloads: &[WorkloadSpec],
        configs: &[GpuConfig],
    ) -> Vec<Vec<&SimStats>> {
        let keys: Vec<Vec<u64>> = workloads
            .iter()
            .map(|w| configs.iter().map(|cfg| job_key("", cfg, w)).collect())
            .collect();
        let mut queued = HashSet::new();
        let mut missing = Vec::new();
        for (w, row) in workloads.iter().zip(&keys) {
            for (cfg, &key) in configs.iter().zip(row) {
                if !self.done.contains_key(&key) && queued.insert(key) {
                    missing.push((key, cfg, w));
                }
            }
        }
        self.sims += missing.len();
        let ran = par_map(missing, |(key, cfg, w)| {
            (key, GpuSim::new(cfg.clone(), w).run())
        });
        self.done.extend(ran);
        let stats = |key| &self.done[key];
        keys.iter()
            .map(|row| row.iter().map(stats).collect())
            .collect()
    }

    /// How many runs this store has simulated.
    pub fn sims(&self) -> usize {
        self.sims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig10_configs, fig12_configs};
    use gmh_workloads::catalog;

    impl Runs {
        /// Stores `stats` as the run of `wl` under `cfg`, so tests exercise
        /// the report formatting without running simulations.
        pub(crate) fn insert(&mut self, cfg: &GpuConfig, wl: &WorkloadSpec, stats: SimStats) {
            self.done.insert(job_key("", cfg, wl), stats);
        }
    }

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

    fn small(name: &str) -> WorkloadSpec {
        let mut w = catalog::by_name(name).unwrap();
        w.warps_per_core = 2;
        w.insts_per_warp = 40;
        w
    }

    fn cores(n: usize) -> GpuConfig {
        let mut c = GpuConfig::gtx480_baseline();
        c.n_cores = n;
        c.max_core_cycles = 20_000;
        c
    }

    #[test]
    fn grid_is_rows_of_workloads_by_columns_of_configs() {
        let mut runs = Runs::default();
        let workloads = [small("leukocyte"), small("mm"), small("mm")];
        let configs = [cores(1), cores(2)];
        let key = |st: &SimStats| (st.insts, st.core_cycles);
        let out: Vec<Vec<_>> = runs
            .grid(&workloads, &configs)
            .iter()
            .map(|row| row.iter().map(|st| key(st)).collect())
            .collect();
        assert_eq!(runs.sims(), 4, "the second mm asks for runs the first made");
        assert_eq!(out.len(), workloads.len());
        for (w, row) in workloads.iter().zip(&out) {
            assert_eq!(row.len(), configs.len());
            // Cell [w][c] is workload w under config c, whatever order ran.
            for (cfg, st) in configs.iter().zip(row) {
                let direct = GpuSim::new(cfg.clone(), w).run();
                assert_eq!(*st, key(&direct), "{} on {} cores", w.name, cfg.n_cores);
            }
        }
        // The cells differ along both axes, so a transposed or shifted grid
        // would have failed above; identical jobs give identical stats.
        assert_ne!(out[0][0], out[0][1]);
        assert_ne!(out[0][0], out[1][0]);
        assert_eq!(out[1], out[2]);

        // A second grid runs only the pair the store lacks, and hands back
        // the stored runs unchanged.
        let next = runs.grid(&[small("mm"), small("bfs")], &[cores(2)]);
        let next: Vec<_> = next.iter().map(|row| key(row[0])).collect();
        assert_eq!(next[0], out[1][1]);
        assert_eq!(next[1], key(&GpuSim::new(cores(2), &small("bfs")).run()));
        assert_eq!(runs.sims(), 5);

        // Fig. 12's HBM is Fig. 10's DRAM 4× and Fig. 11's 1.4 GHz column
        // is the baseline: one key each, so one run per process.
        let mm = small("mm");
        let named = |configs: Vec<(&str, GpuConfig)>, label| {
            let (_, cfg) = configs.into_iter().find(|(l, _)| *l == label).unwrap();
            job_key("", &cfg, &mm)
        };
        assert_eq!(
            named(fig10_configs(), "DRAM"),
            named(fig12_configs(), "HBM")
        );
        let base = GpuConfig::gtx480_baseline();
        let at_1400 = base.clone().with_core_mhz(1400);
        assert_eq!(job_key("", &at_1400, &mm), job_key("", &base, &mm));
    }
}
