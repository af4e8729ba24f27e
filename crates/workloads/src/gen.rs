//! The synthetic instruction/address stream generator.

use crate::spec::WorkloadSpec;
use gmh_simt::inst::{Inst, InstSource};
use gmh_types::{LineAddr, Xoshiro256};

/// Line-index base of per-(core, warp) streaming regions.
const STREAM_BASE: u64 = 0;
/// Lines reserved per streaming cursor (1 GiB of address space each).
const STREAM_REGION: u64 = 1 << 23;
/// Line-index base of per-core hot regions.
const HOT_BASE: u64 = 1 << 34;
/// Lines reserved per core's hot region.
const HOT_REGION: u64 = 1 << 20;
/// Line-index base of the GPU-wide shared region.
const SHARED_BASE: u64 = 1 << 36;

#[derive(Clone, Debug)]
struct WarpGen {
    rng: Xoshiro256,
    issued: u64,
    stream_cursor: u64,
    /// Instructions remaining until the pending load's consumer; `None`
    /// when no consumer is owed.
    consumer_in: Option<u32>,
    done: bool,
}

/// Deterministic per-core instruction source realizing a [`WorkloadSpec`].
///
/// Implements [`InstSource`] for feeding [`gmh_simt::SimtCore`]s.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    spec: WorkloadSpec,
    core: usize,
    warps: Vec<WarpGen>,
    /// Core-wide stream cursor for `coherent_stream` workloads.
    shared_cursor: u64,
}

impl SyntheticSource {
    /// Creates the stream for `core`.
    pub fn new(spec: WorkloadSpec, core: usize) -> Self {
        spec.validate().expect("valid workload spec");
        let warps = (0..spec.warps_per_core)
            .map(|w| WarpGen {
                rng: Xoshiro256::seeded(
                    spec.seed ^ (core as u64).wrapping_mul(0x9E37_79B9) ^ (w as u64) << 32,
                ),
                issued: 0,
                stream_cursor: 0,
                consumer_in: None,
                done: false,
            })
            .collect();
        SyntheticSource {
            spec,
            core,
            warps,
            shared_cursor: 0,
        }
    }

    /// The workload this source realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn stream_line(&mut self, warp: usize) -> LineAddr {
        let spec = &self.spec;
        let cursor = if spec.coherent_stream {
            let c = self.shared_cursor;
            self.shared_cursor += 1;
            // One coherent walk per core; cores stride disjoint regions.
            STREAM_BASE + (self.core as u64) * STREAM_REGION + c
        } else {
            let g = &mut self.warps[warp];
            let c = g.stream_cursor;
            g.stream_cursor += 1;
            let slot = (self.core * 48 + warp) as u64;
            STREAM_BASE + slot * STREAM_REGION + c
        };
        LineAddr::new(cursor)
    }

    fn hot_line(&mut self, warp: usize) -> LineAddr {
        let lines = self.spec.hot_lines;
        let g = &mut self.warps[warp];
        LineAddr::new(HOT_BASE + (self.core as u64) * HOT_REGION + g.rng.below(lines))
    }

    fn shared_line(&mut self, warp: usize) -> LineAddr {
        let lines = self.spec.shared_lines;
        let g = &mut self.warps[warp];
        LineAddr::new(SHARED_BASE + g.rng.below(lines))
    }

    fn gen_lines(&mut self, warp: usize) -> Vec<LineAddr> {
        let n = self.spec.accesses_per_mem as usize;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let (stream_p, hot_p) = (self.spec.mix.stream, self.spec.mix.hot);
            let draw = self.warps[warp].rng.unit_f64();
            let line = if draw < stream_p {
                self.stream_line(warp)
            } else if draw < stream_p + hot_p {
                self.hot_line(warp)
            } else {
                self.shared_line(warp)
            };
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        lines
    }
}

impl InstSource for SyntheticSource {
    fn next_inst(&mut self, warp: usize) -> Option<Inst> {
        if warp >= self.warps.len() {
            return None; // warps beyond the workload's TLP never run
        }
        if !self.spec.phases.core_active(self.core) {
            return None; // occupancy-capped core: empty stream
        }
        if self.warps[warp].done || self.warps[warp].issued >= self.spec.insts_per_warp {
            self.warps[warp].done = true;
            return None;
        }
        self.warps[warp].issued += 1;

        // A consumer owed from a previous load takes priority: it models
        // the RAW dependence at the configured ILP distance.
        let consumer_due = match self.warps[warp].consumer_in {
            Some(0) => {
                self.warps[warp].consumer_in = None;
                true
            }
            Some(n) => {
                self.warps[warp].consumer_in = Some(n - 1);
                false
            }
            None => false,
        };
        if consumer_due {
            let alu_dep = {
                let f = self.spec.alu_dep_fraction;
                self.warps[warp].rng.chance(f)
            };
            let mut inst = Inst::alu(self.spec.alu_latency).after_load();
            if alu_dep {
                inst = inst.after_alu();
            }
            return Some(inst);
        }

        // Phase gate first, then the RNG draw: the short-circuit means a
        // steady-state spec (always in storm) consumes exactly the same
        // RNG sequence as the pre-phase generator, keeping every catalog
        // workload bit-identical.
        let in_storm = self.spec.phases.in_storm(self.warps[warp].issued - 1);
        let is_mem = in_storm && {
            let f = self.spec.mem_fraction;
            self.warps[warp].rng.chance(f)
        };
        if !is_mem {
            let mut inst = Inst::alu(self.spec.alu_latency);
            // Out-of-storm compute forms RAW chains at the spec's ALU
            // dependence rate: the lull phases of a bursty workload are
            // serial arithmetic, not an endless supply of independent
            // work. Gated on `!in_storm`, so a steady-state spec (always
            // in storm) draws exactly the classic RNG sequence and every
            // Table II stream stays bit-identical.
            if !in_storm && {
                let f = self.spec.alu_dep_fraction;
                self.warps[warp].rng.chance(f)
            } {
                inst = inst.after_alu();
            }
            return Some(inst);
        }
        let is_store = {
            let f = self.spec.write_fraction;
            self.warps[warp].rng.chance(f)
        };
        let lines = self.gen_lines(warp);
        if is_store {
            Some(Inst::store(lines))
        } else {
            // Schedule the consumer ILP instructions later (if none owed).
            if self.warps[warp].consumer_in.is_none() {
                self.warps[warp].consumer_in = Some(self.spec.ilp);
            }
            Some(Inst::load(lines))
        }
    }

    fn code_lines(&self) -> u64 {
        self.spec.code_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use gmh_simt::inst::InstKind;

    fn take_all(src: &mut SyntheticSource, warp: usize) -> Vec<Inst> {
        let mut v = Vec::new();
        while let Some(i) = src.next_inst(warp) {
            v.push(i);
        }
        v
    }

    #[test]
    fn stream_is_deterministic() {
        let spec = catalog::by_name("mm").unwrap();
        let mut a = spec.source_for_core(3);
        let mut b = spec.source_for_core(3);
        for w in 0..spec.warps_per_core.min(4) {
            assert_eq!(take_all(&mut a, w), take_all(&mut b, w));
        }
    }

    #[test]
    fn different_cores_differ() {
        let spec = catalog::by_name("mm").unwrap();
        let mut a = spec.source_for_core(0);
        let mut b = spec.source_for_core(1);
        assert_ne!(take_all(&mut a, 0), take_all(&mut b, 0));
    }

    #[test]
    fn stream_length_matches_spec() {
        let spec = catalog::by_name("nn").unwrap();
        let mut s = spec.source_for_core(0);
        assert_eq!(take_all(&mut s, 0).len() as u64, spec.insts_per_warp);
        assert!(s.next_inst(0).is_none(), "stream stays exhausted");
    }

    #[test]
    fn out_of_range_warp_is_empty() {
        let spec = catalog::by_name("nw").unwrap();
        let mut s = spec.source_for_core(0);
        assert!(s.next_inst(spec.warps_per_core).is_none());
    }

    #[test]
    fn mem_fraction_is_respected() {
        let spec = catalog::by_name("mm").unwrap();
        let mut s = spec.source_for_core(0);
        let insts = take_all(&mut s, 0);
        let mem = insts.iter().filter(|i| i.kind.is_mem()).count();
        let frac = mem as f64 / insts.len() as f64;
        // Consumers dilute the raw mem fraction; allow a wide band.
        assert!(
            frac > spec.mem_fraction * 0.4 && frac < spec.mem_fraction * 1.3,
            "mem fraction {frac} vs spec {}",
            spec.mem_fraction
        );
    }

    #[test]
    fn loads_get_consumers_at_ilp_distance() {
        let spec = catalog::by_name("lbm").unwrap();
        let mut s = spec.source_for_core(0);
        let insts = take_all(&mut s, 0);
        let first_load = insts
            .iter()
            .position(|i| matches!(i.kind, InstKind::Load { .. }));
        let first_consumer = insts.iter().position(|i| i.wait_mem);
        let (Some(l), Some(c)) = (first_load, first_consumer) else {
            panic!("stream must contain a load and a consumer");
        };
        assert!(c > l, "consumer after load");
        assert!(
            c - l >= spec.ilp as usize,
            "consumer at distance {} < ilp {}",
            c - l,
            spec.ilp
        );
    }

    #[test]
    fn coherent_stream_shares_cursor() {
        let spec = catalog::by_name("stencil").unwrap();
        assert!(spec.coherent_stream);
        let mut s = spec.source_for_core(0);
        let mut stream_lines = Vec::new();
        for w in 0..2 {
            for _ in 0..200 {
                if let Some(Inst {
                    kind: InstKind::Load { lines } | InstKind::Store { lines },
                    ..
                }) = s.next_inst(w)
                {
                    stream_lines.extend(lines.iter().filter(|l| l.index() < HOT_BASE).copied());
                }
            }
        }
        // A coherent walk yields strictly increasing cursor values.
        let mut sorted = stream_lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            stream_lines.len(),
            "no duplicate stream lines"
        );
    }

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "the region layout is a set of constants; the test pins it"
    )]
    fn regions_do_not_overlap() {
        // Largest possible indices of each region stay below the next base.
        let max_stream = STREAM_BASE + (15 * 48) as u64 * STREAM_REGION;
        assert!(max_stream < HOT_BASE);
        let max_hot = HOT_BASE + 15 * HOT_REGION;
        assert!(max_hot < SHARED_BASE);
        assert!(SHARED_BASE + (1 << 20) < gmh_simt::core::CODE_SEGMENT_BASE);
    }

    #[test]
    fn store_fraction_nonzero_for_write_heavy() {
        let spec = catalog::by_name("hybridsort").unwrap();
        let mut s = spec.source_for_core(0);
        let insts = take_all(&mut s, 0);
        let stores = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Store { .. }))
            .count();
        assert!(stores > 0, "write-heavy workload must store");
    }
}
