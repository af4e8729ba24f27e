//! The seeded successive-halving search engine.
//!
//! A search draws a candidate pool from the knob space with a seeded
//! shuffle, screens it at a short cycle budget, promotes the best half to
//! a 4× longer budget, and repeats until candidates run at full length.
//! An optional evolutionary refinement stage then perturbs the full-length
//! leaders one knob at a time. Every evaluation goes through
//! [`gmh_exp::Evaluator`] and therefore the shared result cache.
//!
//! The token that makes a warm rerun byte-identical to a cold one: the
//! budget counts evaluations *attempted*, cache hits included, so the
//! trajectory never depends on what happens to be cached.

use crate::pareto::{best_under, pareto_frontier, FrontierPoint};
use crate::space::{Genome, KnobSpace, N_AXES};
use gmh_core::{area, GpuConfig};
use gmh_exp::cache::DiskCache;
use gmh_exp::{Candidate, Evaluator};
use gmh_types::rng::Xoshiro256;
use gmh_workloads::{catalog, WorkloadSpec};
use std::collections::BTreeSet;
use std::io;

/// Search parameters. A search is a pure function of these plus the knob
/// space; see the crate docs for the determinism argument.
#[derive(Clone, Debug)]
pub struct TuneParams {
    /// Workload mix (catalog names); scores are geometric means across it.
    pub workloads: Vec<String>,
    /// Seed for pool sampling and refinement mutation draws.
    pub seed: u64,
    /// Maximum evaluations *attempted* (cache hits count): the budget is
    /// counted against intent, not against luck, so warm and cold caches
    /// replay the same trajectory.
    pub budget: usize,
    /// Initial candidate pool size (drawn by seeded shuffle).
    pub pool: usize,
    /// Minimum survivor count per halving stage; also the number of
    /// leaders mutated per refinement round.
    pub survivors: usize,
    /// Cycle budget for the first (screening) stage.
    pub screen_cycles: u64,
    /// Cycle budget for full-length runs; stage budgets grow 4× per stage
    /// and cap here. Frontier points are scored only at this length.
    pub full_cycles: u64,
    /// Evolutionary refinement rounds after the halving schedule.
    pub refine: usize,
    /// Area constraint (percent of die) for the reported `best` point.
    pub max_area_pct: f64,
    /// Shrink workloads (fewer warps, shorter kernels) for smoke tests.
    pub shrink: bool,
}

impl TuneParams {
    /// The paper-scale search: the saturated trio at full-length runs.
    pub fn paper() -> Self {
        TuneParams {
            workloads: vec!["mm".into(), "lbm".into(), "bfs".into()],
            seed: 7,
            budget: 240,
            pool: 24,
            survivors: 4,
            screen_cycles: 150_000,
            full_cycles: 1_500_000,
            refine: 2,
            max_area_pct: 2.0,
            shrink: false,
        }
    }

    /// A seconds-scale search for CI and tests: tiny workloads, short
    /// runs, a small pool.
    pub fn smoke() -> Self {
        TuneParams {
            workloads: vec!["mm".into()],
            seed: 7,
            budget: 24,
            pool: 4,
            survivors: 2,
            screen_cycles: 8_000,
            full_cycles: 16_000,
            refine: 1,
            max_area_pct: 2.0,
            shrink: true,
        }
    }

    /// Validates the parameters against the workload catalog.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() {
            return Err("workloads must be non-empty".into());
        }
        for name in &self.workloads {
            if catalog::by_name(name).is_none() {
                return Err(format!("unknown workload {name:?}"));
            }
        }
        if self.budget == 0 || self.pool == 0 || self.survivors == 0 {
            return Err("budget, pool and survivors must be positive".into());
        }
        if self.screen_cycles == 0 || self.full_cycles < self.screen_cycles {
            return Err("need 0 < screen_cycles <= full_cycles".into());
        }
        if !self.max_area_pct.is_finite() {
            return Err("max_area_pct must be finite".into());
        }
        Ok(())
    }

    /// The workload mix, shrunk when `shrink` is set.
    fn mix(&self) -> Vec<WorkloadSpec> {
        self.workloads
            .iter()
            .map(|name| {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: validate() checked every name against the catalog."
                )]
                let mut wl = catalog::by_name(name).expect("validated workload name");
                if self.shrink {
                    wl.warps_per_core = wl.warps_per_core.min(4);
                    wl.insts_per_warp = wl.insts_per_warp.min(120);
                }
                wl
            })
            .collect()
    }
}

/// One stage of the halving schedule, as reported in the outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage label ("screen", "halve-2", "full", "refine-1", ...).
    pub name: String,
    /// Cycle budget candidates ran at.
    pub cycles: u64,
    /// Candidates evaluated this stage.
    pub candidates: usize,
    /// Evaluations attempted this stage (candidates × workloads, plus any
    /// baseline runs at a new cycle budget).
    pub evals: usize,
}

/// The result of a search.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Total genomes in the knob space (valid points).
    pub space_size: usize,
    /// Halving/refinement stages in execution order.
    pub stages: Vec<StageSummary>,
    /// Pareto frontier over (area overhead, speedup), baseline included.
    pub frontier: Vec<FrontierPoint>,
    /// Best frontier point under `max_area_pct`, if any.
    pub best: Option<FrontierPoint>,
    /// Evaluations attempted (cache hits included).
    pub evals: usize,
    /// Whether the search ran to completion (false = budget exhausted;
    /// the frontier covers only the stages that finished).
    pub complete: bool,
    /// Simulations actually executed (not part of the frontier report:
    /// differs between cold and warm runs).
    pub fresh_sims: usize,
    /// Evaluations served from the cache (not part of the frontier report).
    pub cache_hits: usize,
}

/// A candidate scored at some cycle budget.
struct Scored {
    genome: Genome,
    label: String,
    /// Geomean IPC ratio vs. baseline at the same cycle budget.
    score: f64,
    /// Per-workload IPC ratios, in mix order.
    per_wl: Vec<f64>,
}

/// Drops execution knobs onto a geometry config for one run length.
fn runnable(mut cfg: GpuConfig, run_cycles: u64) -> GpuConfig {
    cfg.max_core_cycles = run_cycles;
    cfg
}

/// Geometric mean of per-workload ratios.
fn geomean(ratios: &[f64]) -> f64 {
    let sum: f64 = ratios.iter().map(|r| r.max(f64::MIN_POSITIVE).ln()).sum();
    (sum / ratios.len() as f64).exp()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle(items: &mut [Genome], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: below(i+1) < i+1, which is a valid index and fits usize because \
                it came from one."
        )]
        let j = usize::try_from(rng.below(i as u64 + 1)).expect("index fits usize");
        items.swap(i, j);
    }
}

/// The search engine. See the module docs for the schedule and the crate
/// docs for the determinism argument.
///
/// # Errors
///
/// Propagates evaluation I/O errors (cache writes) and parameter
/// validation failures as `io::ErrorKind::InvalidInput`.
pub fn run_search(cache: &DiskCache, p: &TuneParams) -> io::Result<TuneOutcome> {
    p.validate().map_err(io::Error::other)?;
    let space = KnobSpace::table3();
    let mix = p.mix();
    let baseline_geom = GpuConfig::gtx480_baseline();
    let ev = Evaluator::new(cache);
    let mut rng = Xoshiro256::seeded(p.seed);

    // Seeded pool draw over the exhaustive valid enumeration.
    let mut genomes = space.enumerate_valid();
    let space_size = genomes.len();
    shuffle(&mut genomes, &mut rng);
    genomes.truncate(p.pool);

    let mut evals = 0usize;
    let mut complete = true;
    let mut stages: Vec<StageSummary> = Vec::new();
    // Baseline per-workload IPCs, memoized per cycle budget.
    let mut baseline_ipc: std::collections::BTreeMap<u64, Vec<f64>> =
        std::collections::BTreeMap::new();
    // Every label ever evaluated (refinement must not revisit).
    let mut seen: BTreeSet<String> = genomes.iter().map(|g| space.label(g)).collect();
    // Full-length scores, accumulated across the final stage and
    // refinement rounds; only these enter the frontier.
    let mut full_scored: Vec<Scored> = Vec::new();

    // One stage: evaluate `cohort` at `run_cycles`, return scores sorted
    // best-first (ties on label). Charges the budget before running and
    // truncates the cohort to what the remaining budget affords.
    let mut run_stage = |cohort: &[Genome],
                         run_cycles: u64,
                         name: &str,
                         evals: &mut usize,
                         complete: &mut bool,
                         baseline_ipc: &mut std::collections::BTreeMap<u64, Vec<f64>>|
     -> io::Result<Vec<Scored>> {
        let mut stage_evals = 0usize;
        // Baseline first (once per distinct cycle budget).
        if let std::collections::btree_map::Entry::Vacant(slot) = baseline_ipc.entry(run_cycles) {
            let need = mix.len();
            if evals.saturating_add(need) > p.budget {
                *complete = false;
                return Ok(Vec::new());
            }
            *evals += need;
            stage_evals += need;
            let base = Candidate::new("base", runnable(baseline_geom.clone(), run_cycles));
            let jobs: Vec<(&Candidate, &WorkloadSpec)> = mix.iter().map(|wl| (&base, wl)).collect();
            let runs = ev.eval_batch(&jobs)?;
            slot.insert(
                runs.iter()
                    .map(|r| r.metric("ipc").unwrap_or(0.0))
                    .collect(),
            );
        }
        // Truncate the cohort to the affordable prefix.
        let affordable = (p.budget - *evals) / mix.len();
        let cohort = if cohort.len() > affordable {
            *complete = false;
            &cohort[..affordable]
        } else {
            cohort
        };
        let cands: Vec<Candidate> = cohort
            .iter()
            .map(|g| Candidate::new(space.label(g), runnable(space.config(g), run_cycles)))
            .collect();
        let jobs: Vec<(&Candidate, &WorkloadSpec)> = cands
            .iter()
            .flat_map(|c| mix.iter().map(move |wl| (c, wl)))
            .collect();
        *evals += jobs.len();
        stage_evals += jobs.len();
        let runs = ev.eval_batch(&jobs)?;
        // INVARIANT: inserted above before any early return from this arm.
        let base_ipc = &baseline_ipc[&run_cycles];
        let mut scored: Vec<Scored> = cohort
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let per_wl: Vec<f64> = (0..mix.len())
                    .map(|w| {
                        let ipc = runs[i * mix.len() + w].metric("ipc").unwrap_or(0.0);
                        if base_ipc[w] > 0.0 {
                            ipc / base_ipc[w]
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Scored {
                    genome: *g,
                    label: cands[i].label.clone(),
                    score: geomean(&per_wl),
                    per_wl,
                }
            })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.label.cmp(&b.label)));
        stages.push(StageSummary {
            name: name.into(),
            cycles: run_cycles,
            candidates: cohort.len(),
            evals: stage_evals,
        });
        Ok(scored)
    };

    // Successive halving: 4× the cycle budget per stage, half the cohort,
    // floored at `survivors`, capped at `full_cycles`.
    let mut cohort = genomes;
    let mut run_cycles = p.screen_cycles.min(p.full_cycles);
    let mut stage_no = 0usize;
    loop {
        stage_no += 1;
        let name = if run_cycles == p.full_cycles {
            "full".to_string()
        } else if stage_no == 1 {
            "screen".to_string()
        } else {
            format!("halve-{stage_no}")
        };
        let scored = run_stage(
            &cohort,
            run_cycles,
            &name,
            &mut evals,
            &mut complete,
            &mut baseline_ipc,
        )?;
        if run_cycles == p.full_cycles {
            full_scored.extend(scored);
            break;
        }
        if scored.is_empty() {
            break; // budget exhausted before this stage could run
        }
        let keep = (scored.len().div_ceil(2))
            .max(p.survivors)
            .min(scored.len());
        cohort = scored[..keep].iter().map(|s| s.genome).collect();
        run_cycles = run_cycles.saturating_mul(4).min(p.full_cycles);
    }

    // Evolutionary refinement: perturb the full-length leaders one knob
    // at a time; every mutation draw comes from the same seeded stream.
    for round in 1..=p.refine {
        if !complete || full_scored.is_empty() {
            break;
        }
        full_scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.label.cmp(&b.label)));
        let leaders: Vec<Genome> = full_scored
            .iter()
            .take(p.survivors)
            .map(|s| s.genome)
            .collect();
        let mut children: Vec<Genome> = Vec::new();
        for g in &leaders {
            // A few tries per leader: draw an axis and a direction, keep
            // the first never-seen valid neighbor.
            for _ in 0..2 * N_AXES {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: below(N_AXES) < N_AXES == 7, fits usize."
                )]
                let axis = usize::try_from(rng.below(N_AXES as u64)).expect("axis fits usize");
                let up = rng.chance(0.5);
                if let Some(m) = space.step(g, axis, up) {
                    if seen.insert(space.label(&m)) {
                        children.push(m);
                        break;
                    }
                }
            }
        }
        if children.is_empty() {
            break;
        }
        let scored = run_stage(
            &children,
            p.full_cycles,
            &format!("refine-{round}"),
            &mut evals,
            &mut complete,
            &mut baseline_ipc,
        )?;
        full_scored.extend(scored);
    }

    // Frontier assembly: baseline + every full-length score, through the
    // area model.
    let mut points: Vec<FrontierPoint> = vec![FrontierPoint {
        label: "base".into(),
        speedup: 1.0,
        area_pct: 0.0,
        area_mm2: 0.0,
        per_workload: p.workloads.iter().map(|w| (w.clone(), 1.0)).collect(),
    }];
    for s in &full_scored {
        let report = area::overhead(&baseline_geom, &space.config(&s.genome));
        points.push(FrontierPoint {
            label: s.label.clone(),
            speedup: s.score,
            area_pct: report.percent_of_die(),
            area_mm2: report.total_mm2(),
            per_workload: p
                .workloads
                .iter()
                .cloned()
                .zip(s.per_wl.iter().copied())
                .collect(),
        });
    }
    let frontier = pareto_frontier(&points);
    let best = best_under(&frontier, p.max_area_pct).cloned();
    cache.flush_index()?;

    Ok(TuneOutcome {
        space_size,
        stages,
        frontier,
        best,
        evals,
        complete,
        fresh_sims: ev.sims(),
        cache_hits: ev.hits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> DiskCache {
        let dir = std::env::temp_dir().join(format!("gmh_tune_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        DiskCache::open(dir).unwrap()
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = TuneParams::smoke();
        p.workloads = vec!["nope".into()];
        assert!(p.validate().is_err());
        let mut p = TuneParams::smoke();
        p.budget = 0;
        assert!(p.validate().is_err());
        let mut p = TuneParams::smoke();
        p.full_cycles = p.screen_cycles - 1;
        assert!(p.validate().is_err());
        assert!(TuneParams::smoke().validate().is_ok());
        assert!(TuneParams::paper().validate().is_ok());
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let space = KnobSpace::table3();
        let mut a: Vec<Genome> = (0..20).map(|i| space.genome_at(i)).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Xoshiro256::seeded(7));
        shuffle(&mut b, &mut Xoshiro256::seeded(7));
        assert_eq!(a, b);
        let mut c: Vec<Genome> = (0..20).map(|i| space.genome_at(i)).collect();
        shuffle(&mut c, &mut Xoshiro256::seeded(8));
        assert_ne!(a, c, "different seeds draw different pools");
    }

    #[test]
    fn smoke_search_finds_a_valid_frontier() {
        let cache = tmp_cache("smoke");
        let p = TuneParams::smoke();
        let out = run_search(&cache, &p).unwrap();
        assert!(out.complete, "smoke budget must cover the schedule");
        assert!(!out.frontier.is_empty());
        assert!(out.frontier.iter().any(|f| f.label == "base"));
        assert!(out.evals <= p.budget);
        assert_eq!(out.evals, out.fresh_sims + out.cache_hits);
        assert!(out.best.is_some(), "baseline satisfies any >=0 constraint");
        // Warm rerun: identical outcome, zero fresh simulations.
        let warm = run_search(&cache, &p).unwrap();
        assert_eq!(warm.fresh_sims, 0, "second search must hit the cache");
        assert_eq!(warm.evals, out.evals);
        assert_eq!(warm.frontier, out.frontier);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn budget_exhaustion_reports_partial_result() {
        let cache = tmp_cache("budget");
        let mut p = TuneParams::smoke();
        p.budget = 3; // baseline (1 workload) + two candidates at screen
        let out = run_search(&cache, &p).unwrap();
        assert!(!out.complete);
        assert!(out.evals <= 3);
        // The baseline point is always reportable.
        assert!(out.frontier.iter().any(|f| f.label == "base"));
        std::fs::remove_dir_all(cache.dir()).ok();
    }
}
