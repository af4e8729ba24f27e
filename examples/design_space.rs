//! Design-space exploration on a single benchmark: the paper's Fig. 10
//! story in miniature.
//!
//! Runs one workload under the baseline, the three independent 4× scalings
//! of Table III, their synergistic combinations, and the cost-effective
//! asymmetric-crossbar configuration — then prints normalized IPC and where
//! the stalls went.
//!
//! Every run goes through the tuner's candidate/evaluator layer and the
//! content-addressed result cache shared with `gmh-serve`, `gmh-exp sweep`
//! and `gmh-tune`: a warm cache re-prints the whole table without
//! running a single simulation.
//!
//! ```text
//! cargo run --release --example design_space [workload]
//! ```

use gmh::core::GpuConfig;
use gmh::exp::cache::DiskCache;
use gmh::exp::{Candidate, Evaluator};
use gmh::workloads::catalog;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mm".into());
    let wl = catalog::by_name(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown workload {name:?}; available: {:?}",
            catalog::names()
        );
        std::process::exit(1);
    });

    let b = GpuConfig::gtx480_baseline;
    // Labels follow the serve/Fig. 10 naming so the cache entries are the
    // ones a `gmh-serve` daemon or the figure binaries already produced.
    let candidates: Vec<Candidate> = vec![
        ("base", b()),
        ("L1", b().scale_l1(4)),
        ("L2", b().scale_l2(4)),
        ("DRAM", b().scale_dram(4)),
        ("L1+L2", b().scale_l1(4).scale_l2(4)),
        ("L2+DRAM", b().scale_l2(4).scale_dram(4)),
        ("All", b().scale_l1(4).scale_l2(4).scale_dram(4)),
        ("16+48", GpuConfig::cost_effective_16_48()),
    ]
    .into_iter()
    .map(|(label, cfg)| Candidate::new(label, cfg))
    .collect();

    let cache = DiskCache::open(DiskCache::default_dir()).unwrap_or_else(|e| {
        eprintln!("cannot open result cache: {e}");
        std::process::exit(1);
    });
    let ev = Evaluator::new(&cache);

    println!(
        "design-space exploration for {} ({} cores, Fig. 10 style)\n",
        wl.name,
        b().n_cores
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "config", "IPC", "speedup", "stall%", "AML", "L2q-full"
    );
    let jobs: Vec<_> = candidates.iter().map(|c| (c, &wl)).collect();
    let runs = ev.eval_batch(&jobs).unwrap_or_else(|e| {
        eprintln!("evaluation failed: {e}");
        std::process::exit(1);
    });
    let base_ipc = runs[0].metric("ipc").unwrap_or(f64::NAN);
    for (cand, run) in candidates.iter().zip(&runs) {
        let metric = |m: &str| run.metric(m).unwrap_or(f64::NAN);
        let ipc = metric("ipc");
        println!(
            "{:<22} {:>8.3} {:>7.2}x {:>7.1}% {:>8.0} {:>7.0}%  {}",
            cand.label,
            ipc,
            ipc / base_ipc,
            100.0 * metric("stall_fraction"),
            metric("aml_core_cycles"),
            100.0 * metric("l2_access_full_fraction"),
            if run.hit { "(cached)" } else { "" }
        );
    }
    if let Err(e) = cache.flush_index() {
        eprintln!("cache index flush failed: {e}");
    }
    println!(
        "\n{} simulation(s) run, {} served from {}",
        ev.sims(),
        ev.hits(),
        cache.dir().display()
    );
    println!(
        "The paper's lesson: scaling one level alone can even hurt (the L1 row\n\
         for mm/ii), while synergistic L1+L2 scaling beats an HBM-class DRAM."
    );
}
