//! Workload specification: the tunable memory-behaviour signature.

use crate::gen::SyntheticSource;

/// Benchmark suite of origin (Table II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Rodinia v3.0.
    Rodinia,
    /// Parboil.
    Parboil,
    /// Mars (MapReduce on GPUs).
    Mars,
}

/// Where a memory instruction's accesses point.
///
/// The three regions model the three kinds of locality that matter to the
/// memory hierarchy:
///
/// * `stream` — a private sequential walk (no reuse, high DRAM row
///   locality),
/// * `hot` — a per-core hot working set (intra-core reuse; hits in L1 if it
///   fits there, else in the core's share of L2),
/// * `shared` — a GPU-wide region touched by all cores (inter-core reuse at
///   the shared L2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AddressMix {
    /// Probability an access streams.
    pub stream: f64,
    /// Probability an access goes to the per-core hot set.
    pub hot: f64,
    /// Probability an access goes to the shared region (the remainder:
    /// `1 - stream - hot`; stored for clarity and validated).
    pub shared: f64,
}

impl AddressMix {
    /// Creates a mix; the three probabilities must sum to 1 (±1e-9).
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are negative or do not sum to one.
    pub fn new(stream: f64, hot: f64, shared: f64) -> Self {
        assert!(
            stream >= 0.0 && hot >= 0.0 && shared >= 0.0,
            "negative probability"
        );
        assert!(
            ((stream + hot + shared) - 1.0).abs() < 1e-9,
            "mix must sum to 1, got {}",
            stream + hot + shared
        );
        AddressMix {
            stream,
            hot,
            shared,
        }
    }
}

/// Phase structure of the instruction stream: alternating compute-only
/// and memory-storm windows, plus an optional occupancy cap.
///
/// [`PhaseSpec::STEADY`] (all zeros) reproduces the classic steady-state
/// generator bit-for-bit: every instruction window is "in storm", so the
/// memory-fraction draw happens on exactly the same RNG schedule as
/// before phases existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Length of one phase period in per-warp instructions (0 = no
    /// phasing: the stream is one endless storm).
    pub period_insts: u64,
    /// Leading instructions of each period that may issue memory
    /// operations; the rest of the period is compute-only.
    pub storm_insts: u64,
    /// Cores that issue work at all (0 = every core). Cores at or beyond
    /// this index produce an empty stream — the low-occupancy
    /// single-cluster scenario where most of the machine sits idle.
    pub active_cores: usize,
}

impl PhaseSpec {
    /// Steady state: no phasing, full occupancy.
    pub const STEADY: PhaseSpec = PhaseSpec {
        period_insts: 0,
        storm_insts: 0,
        active_cores: 0,
    };

    /// Whether the 0-based instruction index `idx` falls in a memory-storm
    /// window.
    pub fn in_storm(&self, idx: u64) -> bool {
        self.period_insts == 0 || idx % self.period_insts < self.storm_insts
    }

    /// Whether `core` issues any instructions under the occupancy cap.
    pub fn core_active(&self, core: usize) -> bool {
        self.active_cores == 0 || core < self.active_cores
    }
}

/// The complete synthetic signature of one benchmark.
///
/// Calibrated per benchmark in [`crate::catalog`]; see the table in
/// DESIGN.md §4 for the intent behind each setting.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Abbreviation used throughout the paper's figures ("mm", "lbm", ...).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Full benchmark name (Table II).
    pub full_name: &'static str,
    /// Concurrent warps per core (thread-level parallelism), ≤ 48.
    pub warps_per_core: usize,
    /// Kernel-slice length: instructions each warp issues.
    pub insts_per_warp: u64,
    /// Kernel code footprint in 128 B lines (drives the L1I).
    pub code_lines: u64,
    /// Fraction of instructions that are memory operations.
    pub mem_fraction: f64,
    /// Fraction of memory operations that are stores.
    pub write_fraction: f64,
    /// Independent instructions between a load and its first consumer
    /// (instruction-level latency tolerance).
    pub ilp: u32,
    /// ALU latency in core cycles.
    pub alu_latency: u32,
    /// Fraction of ALU consumers that also wait on a prior ALU result
    /// (produces data-ALU stalls).
    pub alu_dep_fraction: f64,
    /// Coalesced line accesses per memory instruction (1 = fully coalesced,
    /// >1 = divergent gather/scatter).
    pub accesses_per_mem: u32,
    /// Where accesses point.
    pub mix: AddressMix,
    /// Per-core hot working set in lines.
    pub hot_lines: u64,
    /// GPU-wide shared region in lines.
    pub shared_lines: u64,
    /// Whether all warps of a core advance one shared stream cursor
    /// (coherent streaming, maximal DRAM row locality — e.g. `stencil`)
    /// instead of walking private streams.
    pub coherent_stream: bool,
    /// Phase structure (bursty storms, occupancy cap);
    /// [`PhaseSpec::STEADY`] for the classic steady-state stream.
    pub phases: PhaseSpec,
    /// Base RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.warps_per_core == 0 || self.warps_per_core > 48 {
            return Err(format!("{}: warps_per_core out of range", self.name));
        }
        if self.insts_per_warp == 0 {
            return Err(format!("{}: empty kernel", self.name));
        }
        if !(0.0..=1.0).contains(&self.mem_fraction)
            || !(0.0..=1.0).contains(&self.write_fraction)
            || !(0.0..=1.0).contains(&self.alu_dep_fraction)
        {
            return Err(format!("{}: fraction out of range", self.name));
        }
        if self.accesses_per_mem == 0 || self.accesses_per_mem > 32 {
            return Err(format!("{}: accesses_per_mem out of range", self.name));
        }
        if self.hot_lines == 0 || self.shared_lines == 0 {
            return Err(format!("{}: regions must be non-empty", self.name));
        }
        if self.code_lines == 0 {
            return Err(format!("{}: code footprint must be non-zero", self.name));
        }
        if self.phases.period_insts > 0 && self.phases.storm_insts > self.phases.period_insts {
            return Err(format!("{}: storm longer than its period", self.name));
        }
        Ok(())
    }

    /// Builds the deterministic instruction source for `core`.
    pub fn source_for_core(&self, core: usize) -> SyntheticSource {
        SyntheticSource::new(self.clone(), core)
    }

    /// Total warp instructions the workload will issue on `n_cores` cores.
    pub fn total_insts(&self, n_cores: usize) -> u64 {
        self.insts_per_warp * self.warps_per_core as u64 * n_cores as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_must_sum_to_one() {
        let m = AddressMix::new(0.5, 0.3, 0.2);
        assert_eq!(m.stream, 0.5);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_panics() {
        let _ = AddressMix::new(0.5, 0.3, 0.3);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_mix_panics() {
        let _ = AddressMix::new(-0.1, 0.6, 0.5);
    }
}
