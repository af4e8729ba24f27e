//! Full-GPU configuration and the paper's design-space presets (Table III).

use gmh_cache::{CacheConfig, WritePolicy};
use gmh_dram::DramConfig;
use gmh_icnt::IcntConfig;
use gmh_simt::CoreConfig;
use gmh_types::{bits, ClockDomain, Picos};

/// How the memory system below the L1 behaves.
#[derive(Clone, Debug, PartialEq)]
pub enum MemoryModel {
    /// The full hierarchy: crossbar + banked L2 + GDDR5 channels.
    Full,
    /// Every L1 miss returns after a fixed number of core cycles, with no
    /// bandwidth limits anywhere (the Fig. 3 latency-sweep apparatus).
    FixedL1MissLatency(u64),
    /// Infinite-bandwidth memory system (Table II's P∞): L1 misses return
    /// in `l2_hit` core cycles when a functional L2 would hit, `dram` when
    /// it would miss. No congestion anywhere.
    InfiniteBw {
        /// Uncongested L2 round trip in core cycles (the paper uses 120).
        l2_hit: u64,
        /// Uncongested DRAM round trip in core cycles (the paper uses 220).
        dram: u64,
    },
    /// Real cache hierarchy and interconnect, but DRAM replaced by an
    /// infinite-bandwidth pipe with a fixed latency in core cycles
    /// (Table II's P_DRAM; the paper uses 100).
    InfiniteDram {
        /// DRAM access latency in core cycles.
        latency: u64,
    },
}

/// Complete configuration of the simulated GPU.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of SIMT cores (SMs).
    pub n_cores: usize,
    /// Core clock in MHz.
    pub core_mhz: u32,
    /// Crossbar + L2 clock in MHz.
    pub icnt_mhz: u32,
    /// DRAM command clock in MHz.
    pub dram_mhz: u32,
    /// Per-core configuration (L1 caches, memory pipeline, warps).
    pub core: CoreConfig,
    /// Crossbar configuration.
    pub icnt: IcntConfig,
    /// Number of L2 banks (each with an independent crossbar port).
    pub n_l2_banks: usize,
    /// Per-bank L2 configuration; `size_bytes` is per bank and
    /// `miss_queue_len` is the paper's "L2 miss queue".
    pub l2_bank: CacheConfig,
    /// L2 access-queue depth per bank (requests buffered from the
    /// crossbar; the queue Fig. 4 measures).
    pub l2_access_queue: usize,
    /// L2 response-queue depth per bank (replies buffered toward the
    /// crossbar).
    pub l2_response_queue: usize,
    /// L2 data-port width in bytes per L2 cycle.
    pub l2_data_port_bytes: u32,
    /// L2 lookup pipeline latency in L2 (icnt-domain) cycles.
    pub l2_latency: u64,
    /// Number of DRAM channels (memory partitions).
    pub n_channels: usize,
    /// Per-channel DRAM configuration.
    pub dram: DramConfig,
    /// Memory model (full hierarchy or an ideal variant).
    pub memory_model: MemoryModel,
    /// Safety cap on simulated core cycles.
    pub max_core_cycles: u64,
    /// Telemetry aggregation window in interconnect cycles: queue
    /// occupancies, stall causes and flit rates are averaged over windows
    /// of this width and exported as time series in
    /// [`crate::SimStats::telemetry`].
    pub telemetry_window: u64,
    /// Per-fetch lifecycle tracing: sample 1-in-N core-emitted fetches
    /// into [`crate::SimStats::trace`] (0 disables tracing entirely; the
    /// disabled path costs one branch per event site). Sampling decisions
    /// are seeded from the workload seed, so traces are deterministic.
    pub trace_sample: u64,
    /// Hard cap on recorded trace events (bounds trace memory; events past
    /// the cap are counted as dropped). Must be non-zero when
    /// `trace_sample` is.
    pub trace_event_cap: u64,
    /// Disables the idle-phase fast-forward scheduler: every clock edge is
    /// stepped naively. The fast-forward path is bit-identical by
    /// construction; this switch exists so equivalence tests (and
    /// benchmark overhead measurements) can run the reference loop.
    pub force_naive_loop: bool,
    /// Host-side span profiler: counts the spans of every run-loop phase
    /// and times those of one loop iteration in
    /// [`gmh_types::prof::TIMED_STRIDE`] into a
    /// [`gmh_types::prof::HostReport`] (fetch it with
    /// `GpuSim::take_host_report` after the run), whose per-phase totals
    /// are estimates scaled from the timed spans. Strictly observational —
    /// simulation results are byte-identical with this on or off, which the
    /// determinism suite pins. Off by default; the cache key ignores it.
    pub profile_host: bool,
    /// Retained only because the frozen `gmh-benchmark` package assigns
    /// it: a simulation always runs on one thread, and `0` and `1` both
    /// say so. [`GpuConfig::validate`] refuses any other value. Run many
    /// simulations at once instead (`gmh_exp::Evaluator::eval_batch`,
    /// `GMH_THREADS`).
    pub sim_threads: usize,
}

impl GpuConfig {
    /// The longest queue [`GpuConfig::validate`] admits, for each queue
    /// length it checks. The simulator allocates every queue whole when it
    /// is built, and a failed allocation aborts the process, so a length
    /// read from a job line or a flag is bounded here. It is 32× the
    /// longest any preset, figure, ablation or tuner axis uses (128).
    pub const MAX_QUEUE_LEN: usize = 4096;

    /// The baseline simulated GTX 480 (Table I).
    pub fn gtx480_baseline() -> Self {
        GpuConfig {
            n_cores: 15,
            core_mhz: 1400,
            icnt_mhz: 700,
            dram_mhz: 924,
            core: CoreConfig::gtx480(),
            icnt: IcntConfig::baseline_32_32(),
            n_l2_banks: 12,
            l2_bank: CacheConfig::fermi_l2_bank(),
            l2_access_queue: 8,
            l2_response_queue: 8,
            l2_data_port_bytes: 32,
            l2_latency: 40,
            n_channels: 6,
            dram: DramConfig::gtx480(),
            memory_model: MemoryModel::Full,
            max_core_cycles: 3_000_000,
            telemetry_window: 512,
            trace_sample: 0,
            trace_event_cap: 65_536,
            force_naive_loop: false,
            profile_host: false,
            sim_threads: 0,
        }
    }

    /// Validates cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("need at least one core".into());
        }
        if self.n_l2_banks == 0 || !self.n_l2_banks.is_multiple_of(self.n_channels) {
            return Err(format!(
                "L2 banks ({}) must be a positive multiple of channels ({})",
                self.n_l2_banks, self.n_channels
            ));
        }
        for (field, ports) in [("n_cores", self.n_cores), ("n_l2_banks", self.n_l2_banks)] {
            if ports > bits::CAP {
                return Err(format!(
                    "{field} = {ports}: a crossbar side has at most {} ports",
                    bits::CAP
                ));
            }
        }
        if !(1..=bits::CAP).contains(&self.core.max_warps) {
            return Err(format!(
                "core.max_warps = {}: a core holds 1 to {} warps",
                self.core.max_warps,
                bits::CAP
            ));
        }
        for (field, slots) in [
            ("core.mem_pipeline_width", self.core.mem_pipeline_width),
            ("core.ibuffer_size", self.core.ibuffer_size),
            ("core.response_fifo", self.core.response_fifo),
            ("l2_access_queue", self.l2_access_queue),
            ("l2_response_queue", self.l2_response_queue),
        ] {
            if !(1..=Self::MAX_QUEUE_LEN).contains(&slots) {
                return Err(format!(
                    "{field} = {slots}: a queue holds 1 to {} slots",
                    Self::MAX_QUEUE_LEN
                ));
            }
        }
        if self.dram.n_channels != self.n_channels {
            return Err("dram.n_channels must match n_channels".into());
        }
        if self.l2_bank.set_stride != self.n_l2_banks {
            return Err("l2_bank.set_stride must equal n_l2_banks".into());
        }
        // A read miss that evicts a dirty line queues the write-back and the
        // fill request together; a shorter miss queue never admits it.
        if self.l2_bank.write_policy == WritePolicy::WriteBack && self.l2_bank.miss_queue_len < 2 {
            return Err(format!(
                "l2_bank.miss_queue_len = {}: a write-back L2 needs at least 2 \
                 miss-queue slots (a dirty eviction queues the write-back and \
                 the fill request together)",
                self.l2_bank.miss_queue_len
            ));
        }
        for (field, mhz) in [
            ("core_mhz", self.core_mhz),
            ("icnt_mhz", self.icnt_mhz),
            ("dram_mhz", self.dram_mhz),
        ] {
            if !(1..=ClockDomain::MAX_MHZ).contains(&mhz) {
                return Err(format!(
                    "{field} = {mhz}: a clock runs at 1 to {} MHz, so that its \
                     period is a whole, non-zero number of picoseconds",
                    ClockDomain::MAX_MHZ
                ));
            }
        }
        // The run loop bounds a jump one picosecond past the last core tick.
        if ClockDomain::new(self.core_mhz).tick_instant(self.max_core_cycles) == Picos::MAX {
            return Err(format!(
                "max_core_cycles = {}: the last core tick at {} MHz falls past \
                 the last representable picosecond",
                self.max_core_cycles, self.core_mhz
            ));
        }
        if self.telemetry_window == 0 {
            return Err("telemetry_window must be non-zero".into());
        }
        if self.trace_sample > 0 && self.trace_event_cap == 0 {
            return Err("trace_event_cap must be non-zero when trace_sample is set".into());
        }
        if self.sim_threads > 1 {
            return Err(format!(
                "sim_threads = {}: a simulation runs on one thread (0 or 1); \
                 parallelism is across simulations — run jobs side by side \
                 (gmh_exp::Evaluator::eval_batch, GMH_THREADS workers)",
                self.sim_threads
            ));
        }
        self.dram.timing.validate()
    }

    // ---- Table III design-space knobs (4x scaled column) -------------------

    /// Scales the L1 Type '='/'+' parameters by `f` (Table III group c):
    /// L1 miss queue, L1D MSHRs, memory pipeline width.
    pub fn scale_l1(mut self, f: usize) -> Self {
        self.core.l1d.miss_queue_len *= f;
        self.core.l1d.mshr_entries *= f;
        self.core.l1d.mshr_merge *= f;
        self.core.mem_pipeline_width *= f;
        self
    }

    /// Scales the L2 parameters by `f` (Table III group b): miss queue,
    /// response queue, MSHRs, access queue, data port, crossbar flit sizes
    /// and bank count (total L2 capacity unchanged).
    pub fn scale_l2(mut self, f: usize) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: scale factors come from the experiment grid (small powers of \
                two), far below u32::MAX."
        )]
        let fw = u32::try_from(f).expect("scale factor fits u32");
        self.l2_bank.miss_queue_len *= f;
        self.l2_response_queue *= f;
        self.l2_bank.mshr_entries *= f;
        self.l2_bank.mshr_merge *= f;
        self.l2_access_queue *= f;
        self.l2_data_port_bytes *= fw;
        self.icnt.req_flit_bytes *= fw;
        self.icnt.rep_flit_bytes *= fw;
        // More banks, same total capacity: per-bank size shrinks.
        self.l2_bank.size_bytes /= f as u64;
        self.n_l2_banks *= f;
        self.l2_bank.set_stride = self.n_l2_banks;
        self
    }

    /// Scales the DRAM parameters by `f` (Table III group a): scheduler
    /// queue, banks per chip (capacity constant) and bus width. At `f = 4`
    /// this matches the bandwidth of an HBM stack, which the paper uses as
    /// its HBM stand-in.
    pub fn scale_dram(mut self, f: usize) -> Self {
        self.dram.sched_queue *= f;
        self.dram.response_queue *= f;
        self.dram.n_banks *= f;
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: scale factors come from the experiment grid (small powers of \
                two), far below u32::MAX."
        )]
        let fw = u32::try_from(f).expect("scale factor fits u32");
        self.dram.bus_bytes_per_cycle *= fw;
        self
    }

    /// The paper's HBM-class memory: baseline cache hierarchy with 4×
    /// DRAM bandwidth (Fig. 10 "DRAM", Fig. 12 "HBM").
    pub fn hbm() -> Self {
        Self::gtx480_baseline().scale_dram(4)
    }

    // ---- cost-effective configurations (Table III last column) -------------

    /// Shared non-crossbar part of the cost-effective configuration:
    /// 32-entry L1/L2 miss queues, 48 L1 MSHRs, 32-entry L2 access and
    /// response queues, 40-wide memory pipeline. DRAM and L2 data port stay
    /// at baseline.
    fn cost_effective_base() -> Self {
        let mut c = Self::gtx480_baseline();
        c.core.l1d.miss_queue_len = 32;
        c.core.l1d.mshr_entries = 48;
        c.core.mem_pipeline_width = 40;
        c.l2_bank.miss_queue_len = 32;
        c.l2_response_queue = 32;
        c.l2_access_queue = 32;
        c
    }

    /// Cost-effective `16+48`: asymmetric crossbar with the same total
    /// wire count as the baseline `32+32` (zero wire-area overhead).
    pub fn cost_effective_16_48() -> Self {
        let mut c = Self::cost_effective_base();
        c.icnt = IcntConfig::asymmetric(16, 48);
        c
    }

    /// Cost-effective `16+68`: 20 extra reply bytes of point-to-point width.
    pub fn cost_effective_16_68() -> Self {
        let mut c = Self::cost_effective_base();
        c.icnt = IcntConfig::asymmetric(16, 68);
        c
    }

    /// Cost-effective `32+52`: 20 extra reply bytes, wider request network.
    pub fn cost_effective_32_52() -> Self {
        let mut c = Self::cost_effective_base();
        c.icnt = IcntConfig::asymmetric(32, 52);
        c
    }

    // ---- ideal-memory models ------------------------------------------------

    /// Table II's P∞ apparatus: infinite-bandwidth memory system with the
    /// paper's uncongested latencies (120 cycles to L2, 220 to DRAM).
    pub fn infinite_bw() -> Self {
        let mut c = Self::gtx480_baseline();
        c.memory_model = MemoryModel::InfiniteBw {
            l2_hit: 120,
            dram: 220,
        };
        c
    }

    /// Table II's P_DRAM apparatus: baseline cache hierarchy with an
    /// infinite-bandwidth, 100-cycle DRAM.
    pub fn infinite_dram() -> Self {
        let mut c = Self::gtx480_baseline();
        c.memory_model = MemoryModel::InfiniteDram { latency: 100 };
        c
    }

    /// Fig. 3's apparatus: every L1 miss returns after exactly `latency`
    /// core cycles.
    pub fn fixed_l1_miss_latency(latency: u64) -> Self {
        let mut c = Self::gtx480_baseline();
        c.memory_model = MemoryModel::FixedL1MissLatency(latency);
        c
    }

    /// Fig. 11's apparatus: the baseline with a different core clock.
    /// Raising the core clock raises the L1 request rate against a fixed
    /// L2/DRAM bandwidth, mimicking the real-chip overclocking experiment.
    pub fn with_core_mhz(mut self, mhz: u32) -> Self {
        self.core_mhz = mhz;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_frequencies_without_a_whole_picosecond_period_are_refused() {
        for field in ["core_mhz", "icnt_mhz", "dram_mhz"] {
            for (mhz, ok) in [(0, false), (1, true), (1_000_000, true), (1_000_001, false)] {
                let mut c = GpuConfig::gtx480_baseline();
                *match field {
                    "core_mhz" => &mut c.core_mhz,
                    "icnt_mhz" => &mut c.icnt_mhz,
                    _ => &mut c.dram_mhz,
                } = mhz;
                match c.validate() {
                    Ok(()) => assert!(ok, "{field} = {mhz} accepted"),
                    Err(e) => {
                        assert!(!ok, "{field} = {mhz} refused: {e}");
                        assert!(e.starts_with(&format!("{field} = {mhz}:")), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_cycle_cap_past_the_last_picosecond_is_refused() {
        let mut c = GpuConfig::gtx480_baseline();
        // Core tick N fires at (N - 1) * 714 ps.
        let last_ok = u64::MAX / 714;
        for (max, ok) in [(last_ok, true), (last_ok + 2, false), (u64::MAX, false)] {
            c.max_core_cycles = max;
            match c.validate() {
                Ok(()) => assert!(ok, "max_core_cycles = {max} accepted"),
                Err(e) => {
                    assert!(!ok, "max_core_cycles = {max} refused: {e}");
                    assert!(e.starts_with(&format!("max_core_cycles = {max}:")), "{e}");
                }
            }
        }
    }

    #[test]
    fn baseline_matches_table1() {
        let c = GpuConfig::gtx480_baseline();
        assert_eq!(c.n_cores, 15);
        assert_eq!(c.core_mhz, 1400);
        assert_eq!(c.icnt_mhz, 700);
        assert_eq!(c.dram_mhz, 924);
        assert_eq!(c.n_l2_banks, 12);
        assert_eq!(c.n_channels, 6);
        assert_eq!(c.l2_bank.size_bytes * c.n_l2_banks as u64, 768 * 1024);
        assert_eq!(c.core.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.core.l1d.mshr_entries, 32);
        assert_eq!(c.core.l1d.miss_queue_len, 8);
        assert_eq!(c.icnt.req_flit_bytes, 32);
        assert_eq!(c.dram.sched_queue, 16);
        assert_eq!(c.dram.n_banks, 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scale_l1_matches_table3() {
        let c = GpuConfig::gtx480_baseline().scale_l1(4);
        assert_eq!(c.core.l1d.miss_queue_len, 32);
        assert_eq!(c.core.l1d.mshr_entries, 128);
        assert_eq!(c.core.mem_pipeline_width, 40);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scale_l2_matches_table3() {
        let c = GpuConfig::gtx480_baseline().scale_l2(4);
        assert_eq!(c.l2_bank.miss_queue_len, 32);
        assert_eq!(c.l2_response_queue, 32);
        assert_eq!(c.l2_bank.mshr_entries, 128);
        assert_eq!(c.l2_access_queue, 32);
        assert_eq!(c.l2_data_port_bytes, 128);
        assert_eq!(c.icnt.req_flit_bytes, 128);
        assert_eq!(c.icnt.rep_flit_bytes, 128);
        assert_eq!(c.n_l2_banks, 48);
        // Total L2 capacity unchanged.
        assert_eq!(c.l2_bank.size_bytes * c.n_l2_banks as u64, 768 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scale_dram_matches_table3() {
        let c = GpuConfig::gtx480_baseline().scale_dram(4);
        assert_eq!(c.dram.sched_queue, 64);
        assert_eq!(c.dram.n_banks, 64);
        assert_eq!(c.dram.bus_bytes_per_cycle, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cost_effective_matches_table3() {
        let c = GpuConfig::cost_effective_16_48();
        assert_eq!(c.dram.sched_queue, 16, "DRAM stays at baseline");
        assert_eq!(c.l2_bank.miss_queue_len, 32);
        assert_eq!(c.l2_response_queue, 32);
        assert_eq!(c.l2_bank.mshr_entries, 32, "L2 MSHRs stay at baseline");
        assert_eq!(c.l2_access_queue, 32);
        assert_eq!(c.l2_data_port_bytes, 32, "L2 port stays at baseline");
        assert_eq!((c.icnt.req_flit_bytes, c.icnt.rep_flit_bytes), (16, 48));
        assert_eq!(c.n_l2_banks, 12, "L2 banks stay at baseline");
        assert_eq!(c.core.l1d.miss_queue_len, 32);
        assert_eq!(c.core.l1d.mshr_entries, 48);
        assert_eq!(c.core.mem_pipeline_width, 40);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn other_crossbar_variants() {
        assert_eq!(
            (
                GpuConfig::cost_effective_16_68().icnt.req_flit_bytes,
                GpuConfig::cost_effective_16_68().icnt.rep_flit_bytes
            ),
            (16, 68)
        );
        assert_eq!(
            (
                GpuConfig::cost_effective_32_52().icnt.req_flit_bytes,
                GpuConfig::cost_effective_32_52().icnt.rep_flit_bytes
            ),
            (32, 52)
        );
    }

    #[test]
    fn synergistic_combos_compose() {
        let c = GpuConfig::gtx480_baseline().scale_l1(4).scale_l2(4);
        assert_eq!(c.core.l1d.mshr_entries, 128);
        assert_eq!(c.n_l2_banks, 48);
        assert!(c.validate().is_ok());
        let c = GpuConfig::gtx480_baseline().scale_l2(4).scale_dram(4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ideal_models() {
        assert!(matches!(
            GpuConfig::infinite_bw().memory_model,
            MemoryModel::InfiniteBw {
                l2_hit: 120,
                dram: 220
            }
        ));
        assert!(matches!(
            GpuConfig::infinite_dram().memory_model,
            MemoryModel::InfiniteDram { latency: 100 }
        ));
        assert!(matches!(
            GpuConfig::fixed_l1_miss_latency(400).memory_model,
            MemoryModel::FixedL1MissLatency(400)
        ));
    }

    #[test]
    fn validation_rejects_bank_channel_mismatch() {
        let mut c = GpuConfig::gtx480_baseline();
        c.n_l2_banks = 7;
        c.l2_bank.set_stride = 7;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_more_ports_than_the_crossbar_holds() {
        let mut c = GpuConfig::gtx480_baseline();
        c.n_cores = bits::CAP;
        assert!(c.validate().is_ok());
        c.n_cores = bits::CAP + 1;
        let err = c.validate().expect_err("65 cores exceed a crossbar side");
        assert!(
            err.contains("n_cores = 65") && err.contains("64 ports"),
            "{err}"
        );
        // 66 banks is a multiple of the 6 channels, so only the port limit refuses it.
        let mut c = GpuConfig::gtx480_baseline();
        c.n_l2_banks = 66;
        c.l2_bank.set_stride = 66;
        let err = c.validate().expect_err("66 banks exceed a crossbar side");
        assert!(
            err.contains("n_l2_banks = 66") && err.contains("64 ports"),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_shapes_the_simulator_cannot_build() {
        type Set = fn(&mut GpuConfig, usize);
        let max = GpuConfig::MAX_QUEUE_LEN;
        #[rustfmt::skip]
        let table: [(&str, Set, usize, usize); 12] = [
            ("core.max_warps = 0", |c, v| c.core.max_warps = v, 0, 1),
            ("core.max_warps = 65", |c, v| c.core.max_warps = v, 65, 64),
            ("core.mem_pipeline_width = 0", |c, v| c.core.mem_pipeline_width = v, 0, 1),
            ("core.ibuffer_size = 0", |c, v| c.core.ibuffer_size = v, 0, 1),
            ("core.response_fifo = 0", |c, v| c.core.response_fifo = v, 0, 1),
            ("l2_access_queue = 0", |c, v| c.l2_access_queue = v, 0, 1),
            ("l2_response_queue = 0", |c, v| c.l2_response_queue = v, 0, 1),
            // A queue is allocated whole: a length past the bound never
            // reaches the allocator.
            ("core.mem_pipeline_width = 4097", |c, v| c.core.mem_pipeline_width = v, max + 1, max),
            ("core.ibuffer_size = 4097", |c, v| c.core.ibuffer_size = v, max + 1, max),
            ("core.response_fifo = 4097", |c, v| c.core.response_fifo = v, max + 1, max),
            ("l2_access_queue = 4097", |c, v| c.l2_access_queue = v, max + 1, max),
            ("l2_response_queue = 4097", |c, v| c.l2_response_queue = v, max + 1, max),
        ];
        for (want, set, bad, edge) in table {
            let mut c = GpuConfig::gtx480_baseline();
            set(&mut c, edge);
            assert!(
                c.validate().is_ok(),
                "{want}: the edge value {edge} is valid"
            );
            set(&mut c, bad);
            let err = c.validate().expect_err(want);
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_write_back_l2_with_one_miss_queue_slot() {
        let mut c = GpuConfig::gtx480_baseline();
        c.l2_bank.miss_queue_len = 2;
        assert!(c.validate().is_ok());
        c.l2_bank.miss_queue_len = 1;
        let err = c.validate().expect_err("a dirty eviction needs two slots");
        assert!(
            err.contains("l2_bank.miss_queue_len = 1") && err.contains("at least 2"),
            "{err}"
        );
        // A write-evict L2 never queues a write-back beside its fill.
        c.l2_bank.write_policy = WritePolicy::WriteEvict;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn core_mhz_override() {
        let c = GpuConfig::gtx480_baseline().with_core_mhz(1600);
        assert_eq!(c.core_mhz, 1600);
    }

    #[test]
    fn tracing_defaults_off_and_validates_cap() {
        let c = GpuConfig::gtx480_baseline();
        assert_eq!(c.trace_sample, 0, "tracing is opt-in");
        assert!(c.trace_event_cap > 0);
        let mut c = GpuConfig::gtx480_baseline();
        c.trace_sample = 16;
        assert!(c.validate().is_ok());
        c.trace_event_cap = 0;
        assert!(c.validate().is_err(), "sampling needs a non-zero cap");
    }

    #[test]
    fn sim_threads_accepts_only_zero_and_one() {
        let mut c = GpuConfig::gtx480_baseline();
        for ok in [0, 1] {
            c.sim_threads = ok;
            assert!(c.validate().is_ok(), "sim_threads = {ok}");
        }
        c.sim_threads = 2;
        let err = c.validate().expect_err("intra-simulation threads are gone");
        assert!(err.contains("sim_threads = 2"), "{err}");
        assert!(err.contains("across simulations"), "{err}");
    }
}
