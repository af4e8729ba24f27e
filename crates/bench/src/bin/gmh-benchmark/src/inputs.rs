//! Everything the program is fed, derived from `--seed`.
//!
//! The program never sees the seed itself: it receives workload specs,
//! `(candidate, workload)` jobs and request lines. The seed is XOR-ed into
//! every `WorkloadSpec::seed` (so seed 0 is the catalog as committed) and
//! draws the daemon's job seeds and their order.

use gmh_core::GpuConfig;
use gmh_exp::experiments::fig12_configs;
use gmh_exp::Candidate;
use gmh_types::Xoshiro256;
use gmh_workloads::{catalog, WorkloadSpec};

/// The paper's memory-saturated trio (`sim-bench`'s batch).
pub const SATURATED: [&str; 3] = ["mm", "lbm", "bfs"];
/// The quiet-phase synthetic trio (`catalog::extras`).
pub const BURSTY: [&str; 3] = ["burst", "lull", "solo"];

/// Kernel-slice divisors. Full-length slices do not fit the run-time cap
/// the benchmark is held to (a saturated pass is 3.2 s, a cold sweep 22 s,
/// and set-up repeats both), so the instruction count per warp is divided;
/// warps, footprints and mixes are untouched, so the steady-state per-tick
/// work is the full-length workload's. The traced `sweep` run also
/// regenerates Fig. 12 at full length, for the accuracy figures.
pub const SATURATED_DIV: u64 = 4;
pub const BURSTY_DIV: u64 = 1;
pub const SWEEP_DIV: u64 = 8;

/// How much of each workload one run uses; `--smoke` shrinks all of it.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Kernels per simulation pass (of the trio).
    pub sim_kernels: usize,
    /// Jobs per sweep pass (of the 95).
    pub sweep_jobs: usize,
    /// Distinct cold requests prepared (19 workloads × 80 seeds; a run
    /// gets through about 600, so a daemon twice as fast still has work).
    pub serve_jobs: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        sim_kernels: 3,
        sweep_jobs: 95,
        serve_jobs: 1520,
    };
    pub const SMOKE: Sizes = Sizes {
        sim_kernels: 1,
        sweep_jobs: 5,
        serve_jobs: 38,
    };
}

/// A catalog workload with the benchmark seed mixed in and its slice
/// shortened by `div`.
pub fn spec(name: &str, seed: u64, div: u64) -> WorkloadSpec {
    let mut w = catalog::by_name(name).expect("benchmark workloads are catalog entries");
    w.seed ^= seed;
    w.insts_per_warp = (w.insts_per_warp / div).max(1);
    w
}

/// The baseline machine on one simulator thread.
pub fn sim_config() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480_baseline();
    cfg.sim_threads = 1;
    cfg
}

/// Fig. 12 as users regenerate it: `base` plus the four cost-effective
/// configurations, each over the 19 Table II workloads, workload-major.
pub struct Sweep {
    pub candidates: Vec<Candidate>,
    pub specs: Vec<WorkloadSpec>,
}

impl Sweep {
    pub fn new(seed: u64, div: u64) -> Self {
        let mut candidates = vec![Candidate::new("base", GpuConfig::gtx480_baseline())];
        candidates.extend(
            fig12_configs()
                .into_iter()
                .map(|(label, cfg)| Candidate::new(label, cfg)),
        );
        let specs = catalog::names()
            .into_iter()
            .map(|n| spec(n, seed, div))
            .collect();
        Sweep { candidates, specs }
    }

    /// The first `limit` jobs in `(workload, candidate)` order.
    pub fn jobs(&self, limit: usize) -> Vec<(&Candidate, &WorkloadSpec)> {
        self.specs
            .iter()
            .flat_map(|w| self.candidates.iter().map(move |c| (c, w)))
            .take(limit)
            .collect()
    }
}

/// One daemon job: what `Client::submit` is given.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeJob {
    pub workload: &'static str,
    pub seed: u64,
}

/// `serve-bench`'s overrides: a 2-core, 8-warp, 5,000-instruction job.
pub fn serve_overrides() -> Vec<(String, u64)> {
    [
        ("n_cores", 2),
        ("max_core_cycles", 500_000),
        ("telemetry_window", 1024),
        ("warps_per_core", 8),
        ("insts_per_warp", 5_000),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// `count` distinct daemon jobs: the catalog cycled with fresh job seeds,
/// in an order drawn from `seed`, so any prefix is a balanced mix.
pub fn serve_jobs(seed: u64, count: usize) -> Vec<ServeJob> {
    let names = catalog::names();
    let mut rng = Xoshiro256::seeded(seed ^ 0x7365_7276_655f_6a6f);
    let mut jobs: Vec<ServeJob> = Vec::with_capacity(count);
    for round in 0..count.div_ceil(names.len()) {
        let mut batch: Vec<ServeJob> = names
            .iter()
            .map(|&workload| ServeJob {
                workload,
                // Distinct within a run whatever the draw: the round is
                // folded into the top bits.
                seed: (rng.next_u64() >> 16) | ((round as u64) << 48),
            })
            .collect();
        // Fisher–Yates within the round keeps every prefix balanced.
        for i in (1..batch.len()).rev() {
            let j = usize::try_from(rng.below(i as u64 + 1)).expect("index fits usize");
            batch.swap(i, j);
        }
        jobs.extend(batch);
    }
    jobs.truncate(count);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_exp::job_key;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(serve_jobs(5, 100), serve_jobs(5, 100));
        assert_ne!(serve_jobs(5, 100), serve_jobs(6, 100));
        let keys = |seed: u64| -> Vec<u64> {
            let s = Sweep::new(seed, SWEEP_DIV);
            s.jobs(usize::MAX)
                .iter()
                .map(|(c, w)| job_key(&c.label, &c.config, w))
                .collect()
        };
        assert_eq!(keys(3), keys(3));
        assert_ne!(keys(3), keys(4));
        assert_eq!(keys(3).len(), 95);
    }

    #[test]
    fn seed_zero_is_the_catalog_and_jobs_are_distinct() {
        let mm = catalog::by_name("mm").expect("mm");
        assert_eq!(spec("mm", 0, 1).seed, mm.seed);
        assert_eq!(
            spec("mm", 0, SATURATED_DIV).insts_per_warp,
            mm.insts_per_warp / 4
        );
        let jobs = serve_jobs(0, 760);
        assert_eq!(jobs.len(), 760);
        let mut seen: Vec<(&str, u64)> = jobs.iter().map(|j| (j.workload, j.seed)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            760,
            "every cold request is a distinct cache key"
        );
        // Any 19-aligned prefix holds every workload once.
        let mut first: Vec<&str> = jobs[..19].iter().map(|j| j.workload).collect();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 19);
    }
}
