//! The 19 calibrated benchmark models (Table II of the paper).
//!
//! Parameter intent per benchmark is documented in DESIGN.md §4. The
//! constants here are calibrated so the *shape* of the paper's results
//! holds on this simulator (who is bandwidth-bound where, which benchmarks
//! thrash the L2 when L1 bandwidth scales, who benefits from HBM), not to
//! match absolute numbers from the authors' GTX 480 testbed.

use crate::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

/// All 19 workloads in Table II order (sorted by paper P∞, descending).
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        // Mars matrix multiplication: tiled GEMM with a large per-core tile
        // working set resident in (its share of) L2 — enormous cache
        // bandwidth demand, low DRAM demand. The per-core sets collectively
        // slightly oversubscribe the L2, making it thrash when L1 scaling
        // increases cross-core interleaving.
        WorkloadSpec {
            name: "mm",
            suite: Suite::Mars,
            full_name: "Matrix Multiplication",
            warps_per_core: 48,
            insts_per_warp: 1200,
            code_lines: 8,
            mem_fraction: 0.8,
            write_fraction: 0.04,
            ilp: 2,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.08, 0.86, 0.06),
            hot_lines: 280,
            shared_lines: 2000,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x6d6d,
        },
        // Parboil Lattice-Boltzmann: a streaming grid sweep with heavy
        // writes and high row locality — classic DRAM-bandwidth-bound.
        WorkloadSpec {
            name: "lbm",
            suite: Suite::Parboil,
            full_name: "Lattice-Boltzman Method",
            warps_per_core: 48,
            insts_per_warp: 1100,
            code_lines: 16,
            mem_fraction: 0.18,
            write_fraction: 0.30,
            ilp: 4,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.90, 0.05, 0.05),
            hot_lines: 64,
            shared_lines: 1024,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x6c626d,
        },
        // Mars similarity score: dense vector comparisons against an
        // L2-resident corpus — like mm, cache-bandwidth bound.
        WorkloadSpec {
            name: "ss",
            suite: Suite::Mars,
            full_name: "Similarity Score",
            warps_per_core: 48,
            insts_per_warp: 1200,
            code_lines: 8,
            mem_fraction: 0.32,
            write_fraction: 0.05,
            ilp: 2,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.14, 0.76, 0.10),
            hot_lines: 320,
            shared_lines: 3000,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x7373,
        },
        // Rodinia nearest neighbour: massive TLP streaming through a large
        // record array — DRAM-sensitive with good latency tolerance.
        WorkloadSpec {
            name: "nn",
            suite: Suite::Rodinia,
            full_name: "Nearest Neighbour",
            warps_per_core: 48,
            insts_per_warp: 1200,
            code_lines: 8,
            mem_fraction: 0.21,
            write_fraction: 0.02,
            ilp: 6,
            alu_latency: 6,
            alu_dep_fraction: 0.05,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.95, 0.03, 0.02),
            hot_lines: 64,
            shared_lines: 512,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x6e6e,
        },
        // Rodinia hybrid sort: bucket scatter + merge passes — mixed
        // streaming and reuse with a high write fraction.
        WorkloadSpec {
            name: "hybridsort",
            suite: Suite::Rodinia,
            full_name: "Hybrid Sort",
            warps_per_core: 48,
            insts_per_warp: 1100,
            code_lines: 16,
            mem_fraction: 0.115,
            write_fraction: 0.35,
            ilp: 4,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 2,
            mix: AddressMix::new(0.20, 0.65, 0.15),
            hot_lines: 380,
            shared_lines: 2048,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x6879,
        },
        // Rodinia computational fluid dynamics: irregular mesh gathers
        // (4-wide) against a mid-size working set — L1-MSHR-hungry.
        WorkloadSpec {
            name: "cfd",
            suite: Suite::Rodinia,
            full_name: "Computational Fluid",
            warps_per_core: 48,
            insts_per_warp: 1000,
            code_lines: 24,
            mem_fraction: 0.05,
            write_fraction: 0.10,
            ilp: 3,
            alu_latency: 10,
            alu_dep_fraction: 0.15,
            accesses_per_mem: 4,
            mix: AddressMix::new(0.15, 0.65, 0.20),
            hot_lines: 350,
            shared_lines: 2048,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x636664,
        },
        // Mars page-view rank: hash-bucket scatter over an L2-resident
        // table shared by all cores — reply-bandwidth bound.
        WorkloadSpec {
            name: "pvr",
            suite: Suite::Mars,
            full_name: "Page View Rank",
            warps_per_core: 48,
            insts_per_warp: 1100,
            code_lines: 12,
            mem_fraction: 0.09,
            write_fraction: 0.10,
            ilp: 3,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 2,
            mix: AddressMix::new(0.20, 0.20, 0.60),
            hot_lines: 128,
            shared_lines: 3500,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x707672,
        },
        // Rodinia breadth-first search: frontier-driven irregular accesses
        // over a graph larger than L2 — latency-bound with poor locality.
        WorkloadSpec {
            name: "bfs",
            suite: Suite::Rodinia,
            full_name: "Breadth-First Search",
            warps_per_core: 48,
            insts_per_warp: 1000,
            code_lines: 12,
            mem_fraction: 0.065,
            write_fraction: 0.08,
            ilp: 2,
            alu_latency: 6,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 3,
            mix: AddressMix::new(0.15, 0.20, 0.65),
            hot_lines: 128,
            shared_lines: 5000,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x626673,
        },
        // Rodinia lavaMD: n-body in cutoff boxes — compute-heavy with
        // bursty 6-wide gathers from a per-core box neighbourhood.
        WorkloadSpec {
            name: "lavaMD",
            suite: Suite::Rodinia,
            full_name: "Particle Potential",
            warps_per_core: 48,
            insts_per_warp: 1000,
            code_lines: 24,
            mem_fraction: 0.03,
            write_fraction: 0.05,
            ilp: 2,
            alu_latency: 12,
            alu_dep_fraction: 0.2,
            accesses_per_mem: 6,
            mix: AddressMix::new(0.20, 0.60, 0.20),
            hot_lines: 200,
            shared_lines: 1000,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x6c76,
        },
        // Rodinia stream cluster: distance kernels over an L1-resident
        // candidate set plus streaming points — starved for L1 MSHRs.
        WorkloadSpec {
            name: "sc",
            suite: Suite::Rodinia,
            full_name: "Stream Cluster",
            warps_per_core: 48,
            insts_per_warp: 1100,
            code_lines: 8,
            mem_fraction: 0.26,
            write_fraction: 0.12,
            ilp: 4,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.10, 0.85, 0.05),
            hot_lines: 192,
            shared_lines: 512,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x7363,
        },
        // Parboil BFS: queue-based traversal, more regular than Rodinia's.
        WorkloadSpec {
            name: "bfs'",
            suite: Suite::Parboil,
            full_name: "Breadth-First Search",
            warps_per_core: 48,
            insts_per_warp: 1000,
            code_lines: 12,
            mem_fraction: 0.06,
            write_fraction: 0.08,
            ilp: 4,
            alu_latency: 6,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 2,
            mix: AddressMix::new(0.20, 0.25, 0.55),
            hot_lines: 160,
            shared_lines: 5000,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x626632,
        },
        // Mars inverted index: per-core posting-list fragments that fill the
        // L2 exactly — the canonical victim of interleaving-induced
        // thrashing when L1 bandwidth scales alone.
        WorkloadSpec {
            name: "ii",
            suite: Suite::Mars,
            full_name: "Inverted Index",
            warps_per_core: 48,
            insts_per_warp: 1000,
            code_lines: 12,
            mem_fraction: 0.16,
            write_fraction: 0.10,
            ilp: 3,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.15, 0.75, 0.10),
            hot_lines: 300,
            shared_lines: 1500,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x6969,
        },
        // Rodinia speckle-reducing anisotropic diffusion, kernel 1.
        WorkloadSpec {
            name: "sradv1",
            suite: Suite::Rodinia,
            full_name: "Speckle Reduction",
            warps_per_core: 48,
            insts_per_warp: 900,
            code_lines: 16,
            mem_fraction: 0.1,
            write_fraction: 0.15,
            ilp: 8,
            alu_latency: 10,
            alu_dep_fraction: 0.15,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.30, 0.55, 0.15),
            hot_lines: 300,
            shared_lines: 1024,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x737231,
        },
        // Speckle reduction, kernel 2: slightly more write traffic.
        WorkloadSpec {
            name: "sradv2",
            suite: Suite::Rodinia,
            full_name: "Speckle Reduction",
            warps_per_core: 48,
            insts_per_warp: 900,
            code_lines: 16,
            mem_fraction: 0.1,
            write_fraction: 0.22,
            ilp: 8,
            alu_latency: 10,
            alu_dep_fraction: 0.15,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.30, 0.55, 0.15),
            hot_lines: 300,
            shared_lines: 1024,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x737232,
        },
        // Rodinia Needleman-Wunsch: diagonal wavefront dependencies limit
        // TLP to a fraction of the machine.
        WorkloadSpec {
            name: "nw",
            suite: Suite::Rodinia,
            full_name: "Needleman-Wunsch",
            warps_per_core: 16,
            insts_per_warp: 1400,
            code_lines: 12,
            mem_fraction: 0.04,
            write_fraction: 0.15,
            ilp: 6,
            alu_latency: 8,
            alu_dep_fraction: 0.2,
            accesses_per_mem: 2,
            mix: AddressMix::new(0.25, 0.55, 0.20),
            hot_lines: 220,
            shared_lines: 1024,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x6e77,
        },
        // Parboil 7-point stencil: perfectly coherent streaming — the
        // highest DRAM bandwidth efficiency in the paper (65%).
        WorkloadSpec {
            name: "stencil",
            suite: Suite::Parboil,
            full_name: "PDE Solver",
            warps_per_core: 48,
            insts_per_warp: 900,
            code_lines: 8,
            mem_fraction: 0.05,
            write_fraction: 0.25,
            ilp: 8,
            alu_latency: 8,
            alu_dep_fraction: 0.1,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.90, 0.08, 0.02),
            hot_lines: 96,
            shared_lines: 256,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x7374,
        },
        // Rodinia 2-D discrete wavelet transform: short low-TLP kernels,
        // sensitive to even modest latency increases (Fig. 3).
        WorkloadSpec {
            name: "dwt2d",
            suite: Suite::Rodinia,
            full_name: "Wavelet Transform",
            warps_per_core: 10,
            insts_per_warp: 1000,
            code_lines: 16,
            mem_fraction: 0.065,
            write_fraction: 0.20,
            ilp: 2,
            alu_latency: 14,
            alu_dep_fraction: 0.2,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.30, 0.55, 0.15),
            hot_lines: 128,
            shared_lines: 512,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x647774,
        },
        // Parboil sum of absolute differences: compute-dominated with
        // ample ILP; memory is a modest side channel.
        WorkloadSpec {
            name: "sad",
            suite: Suite::Parboil,
            full_name: "Sum of Absolute Differences",
            warps_per_core: 40,
            insts_per_warp: 1000,
            code_lines: 16,
            mem_fraction: 0.08,
            write_fraction: 0.10,
            ilp: 8,
            alu_latency: 10,
            alu_dep_fraction: 0.15,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.25, 0.60, 0.15),
            hot_lines: 256,
            shared_lines: 512,
            coherent_stream: true,
            phases: PhaseSpec::STEADY,
            seed: 0x736164,
        },
        // Rodinia leukocyte tracking: compute-bound with a small resident
        // footprint but a large kernel body (instruction-fetch pressure),
        // and too little TLP to hide what misses remain.
        WorkloadSpec {
            name: "leukocyte",
            suite: Suite::Rodinia,
            full_name: "Tracking Microscopy",
            warps_per_core: 24,
            insts_per_warp: 1000,
            code_lines: 48,
            mem_fraction: 0.06,
            write_fraction: 0.05,
            ilp: 10,
            alu_latency: 12,
            alu_dep_fraction: 0.3,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.20, 0.70, 0.10),
            hot_lines: 96,
            shared_lines: 256,
            coherent_stream: false,
            phases: PhaseSpec::STEADY,
            seed: 0x6c6575,
        },
    ]
}

/// Synthetic stress scenarios beyond Table II: bursty and idle-heavy
/// phase structures that exercise the event-driven run loop. Kept out of
/// [`all`] so the paper's 19-benchmark tables stay exactly Table II.
pub fn extras() -> Vec<WorkloadSpec> {
    vec![
        // Alternating compute and memory-storm phases: every warp issues a
        // 24-instruction storm then runs dependency-chained arithmetic for
        // the rest of each 240-instruction period, so the memory hierarchy
        // drains and refills repeatedly (warp-level phase behaviour per
        // Ausavarungnirun et al.). Low TLP and long chained ALU latencies
        // keep the cores issue-stalled through most of each lull.
        WorkloadSpec {
            name: "burst",
            suite: Suite::Rodinia,
            full_name: "Synthetic Burst Phases",
            warps_per_core: 1,
            insts_per_warp: 4000,
            code_lines: 12,
            mem_fraction: 0.5,
            write_fraction: 0.10,
            ilp: 4,
            alu_latency: 96,
            alu_dep_fraction: 0.95,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.70, 0.20, 0.10),
            hot_lines: 128,
            shared_lines: 1024,
            coherent_stream: false,
            phases: PhaseSpec {
                period_insts: 240,
                storm_insts: 24,
                active_cores: 0,
            },
            seed: 0x6275_7273,
        },
        // Idle-heavy: long serial-compute lulls punctuated by short storms.
        // A single warp per core in fully chained 96-cycle ALU dependences
        // leaves every core provably quiet for almost all of each lull, and
        // the drained banks, channels and crossbars let the event core
        // jump whole machine-wide windows at once.
        WorkloadSpec {
            name: "lull",
            suite: Suite::Rodinia,
            full_name: "Synthetic Idle Lulls",
            warps_per_core: 1,
            insts_per_warp: 6000,
            code_lines: 8,
            mem_fraction: 0.6,
            write_fraction: 0.05,
            ilp: 8,
            alu_latency: 96,
            alu_dep_fraction: 1.0,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.80, 0.15, 0.05),
            hot_lines: 96,
            shared_lines: 512,
            coherent_stream: false,
            phases: PhaseSpec {
                period_insts: 600,
                storm_insts: 16,
                active_cores: 0,
            },
            seed: 0x6c75_6c6c,
        },
        // Low occupancy: one active cluster runs bursty, dependency-limited
        // work while the other fourteen cores never issue — the
        // machine-idle extreme the event core should fast-path.
        WorkloadSpec {
            name: "solo",
            suite: Suite::Mars,
            full_name: "Synthetic Single Cluster",
            warps_per_core: 2,
            insts_per_warp: 8000,
            code_lines: 8,
            mem_fraction: 0.35,
            write_fraction: 0.05,
            ilp: 4,
            alu_latency: 64,
            alu_dep_fraction: 0.9,
            accesses_per_mem: 1,
            mix: AddressMix::new(0.60, 0.30, 0.10),
            hot_lines: 160,
            shared_lines: 1024,
            coherent_stream: false,
            phases: PhaseSpec {
                period_insts: 320,
                storm_insts: 32,
                active_cores: 1,
            },
            seed: 0x736f_6c6f,
        },
    ]
}

/// Looks up a workload by its paper abbreviation (Table II entries first,
/// then the synthetic [`extras`]).
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().chain(extras()).find(|w| w.name == name)
}

/// The names of all 19 workloads in Table II order.
pub fn names() -> Vec<&'static str> {
    all().iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_workloads() {
        assert_eq!(all().len(), 19);
    }

    #[test]
    fn all_specs_validate() {
        for w in all() {
            w.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut n = names();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), 19);
    }

    #[test]
    fn by_name_round_trips() {
        for name in names() {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("xyzzy").is_none());
    }

    #[test]
    fn address_mix_is_realized_by_generator() {
        // For every workload, the generated address stream's region mix
        // must track the spec's (within sampling noise) — this pins the
        // calibration against generator regressions.
        use gmh_simt::inst::{InstKind, InstSource};
        for w in all() {
            let mut src = w.source_for_core(0);
            let (mut stream, mut hot, mut total) = (0u64, 0u64, 0u64);
            for warp in 0..w.warps_per_core.min(8) {
                while let Some(i) = src.next_inst(warp) {
                    if let InstKind::Load { lines } | InstKind::Store { lines } = i.kind {
                        for l in lines {
                            total += 1;
                            match l.index() {
                                x if x < (1 << 34) => stream += 1,
                                x if x < (1 << 36) => hot += 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
            if total < 200 {
                continue; // not enough samples for a stable estimate
            }
            let t = total as f64;
            assert!(
                (stream as f64 / t - w.mix.stream).abs() < 0.12,
                "{}: stream fraction {} vs spec {}",
                w.name,
                stream as f64 / t,
                w.mix.stream
            );
            assert!(
                (hot as f64 / t - w.mix.hot).abs() < 0.12,
                "{}: hot fraction {} vs spec {}",
                w.name,
                hot as f64 / t,
                w.mix.hot
            );
        }
    }

    #[test]
    fn kernel_sizes_are_simulation_friendly() {
        // Guard rails on run time: bound the raw instruction volume so
        // full-GPU baseline runs stay within the cycle cap.
        for w in all() {
            let total = w.total_insts(15);
            assert!(
                total <= 1_200_000,
                "{}: {} instructions would make baseline runs too slow",
                w.name,
                total
            );
            assert!(total >= 50_000, "{}: too small to congest the GPU", w.name);
        }
    }

    #[test]
    fn extras_validate_and_resolve_by_name() {
        for w in extras() {
            w.validate().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert_eq!(extras().len(), 3);
        assert!(!names().contains(&"burst"), "extras stay out of Table II");
    }

    #[test]
    fn phased_stream_confines_memory_to_storms() {
        use gmh_simt::inst::{InstKind, InstSource};
        let w = by_name("lull").unwrap();
        let phases = w.phases;
        let mut src = w.source_for_core(0);
        let mut idx = 0u64;
        let mut mem_in_storm = 0u64;
        while let Some(i) = src.next_inst(0) {
            if matches!(i.kind, InstKind::Load { .. } | InstKind::Store { .. }) {
                assert!(phases.in_storm(idx), "memory op outside storm at {idx}");
                mem_in_storm += 1;
            }
            idx += 1;
        }
        assert!(mem_in_storm > 0, "storms must issue memory");
    }

    #[test]
    fn solo_leaves_other_cores_empty() {
        use gmh_simt::inst::InstSource;
        let w = by_name("solo").unwrap();
        assert!(w.source_for_core(0).next_inst(0).is_some());
        assert!(w.source_for_core(1).next_inst(0).is_none());
        assert!(w.source_for_core(14).next_inst(0).is_none());
    }

    #[test]
    fn suites_match_table2() {
        assert_eq!(by_name("mm").unwrap().suite, Suite::Mars);
        assert_eq!(by_name("lbm").unwrap().suite, Suite::Parboil);
        assert_eq!(by_name("nn").unwrap().suite, Suite::Rodinia);
        assert_eq!(by_name("bfs'").unwrap().suite, Suite::Parboil);
    }
}
