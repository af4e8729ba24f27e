//! The typed knob space: Table III's design dimensions as discrete axes.
//!
//! A point in the space is a [`Genome`] — one choice index per axis. The
//! space builds a full [`GpuConfig`] (and a stable presentation label) for
//! any genome; invalid combinations are rejected by
//! [`KnobSpace::is_valid`], which delegates to [`GpuConfig::validate`].
//!
//! The default space ([`KnobSpace::table3`]) spans the paper's mitigation
//! family: symmetric and asymmetric crossbar flit widths (§VII-B), the
//! deeper L1 front-end and L2 queue/MSHR settings of the cost-effective
//! column, and a capacity-preserving L2 re-banking axis. The paper's own
//! `16+48` cost-effective configuration is one of its points, so a search
//! can rediscover it.

use gmh_core::GpuConfig;
use gmh_icnt::IcntConfig;

/// Number of axes in the knob space.
pub const N_AXES: usize = 7;

/// One point in the knob space: a choice index per axis, in axis order
/// (icnt, l1 front-end, L2 MSHRs, L2 miss queue, L2 access queue, L2
/// response queue, L2 banking).
pub type Genome = [usize; N_AXES];

/// L1 front-end setting: (miss-queue length, MSHR entries, memory-pipeline
/// width) — Table III scales these together.
type L1Setting = (usize, usize, usize);

/// The discrete design space.
#[derive(Clone, Debug)]
pub struct KnobSpace {
    /// Crossbar (request, reply) flit widths in bytes.
    icnt: Vec<(u32, u32)>,
    /// L1 front-end settings (miss queue, MSHRs, memory pipeline).
    l1: Vec<L1Setting>,
    /// L2 MSHR entries per bank.
    l2_mshr: Vec<usize>,
    /// L2 miss-queue length per bank.
    l2_missq: Vec<usize>,
    /// L2 access-queue depth per bank.
    l2_accessq: Vec<usize>,
    /// L2 response-queue depth per bank.
    l2_respq: Vec<usize>,
    /// L2 bank count (capacity-preserving re-banking).
    l2_banks: Vec<usize>,
}

impl KnobSpace {
    /// The Table III family: the paper's baseline, scaled and
    /// cost-effective settings per dimension, plus the asymmetric crossbar
    /// presets of §VII-B.
    pub fn table3() -> Self {
        KnobSpace {
            icnt: vec![(32, 32), (16, 48), (16, 68), (32, 52), (48, 48), (64, 64)],
            l1: vec![(8, 32, 10), (32, 48, 40)],
            l2_mshr: vec![32, 64, 128],
            l2_missq: vec![8, 32],
            l2_accessq: vec![8, 16, 32],
            l2_respq: vec![8, 16, 32],
            l2_banks: vec![12, 24],
        }
    }

    /// Choices along axis `axis`.
    pub fn axis_len(&self, axis: usize) -> usize {
        match axis {
            0 => self.icnt.len(),
            1 => self.l1.len(),
            2 => self.l2_mshr.len(),
            3 => self.l2_missq.len(),
            4 => self.l2_accessq.len(),
            5 => self.l2_respq.len(),
            _ => self.l2_banks.len(),
        }
    }

    /// Total number of genomes (valid or not).
    pub fn size(&self) -> usize {
        (0..N_AXES).map(|a| self.axis_len(a)).product()
    }

    /// Decodes a flat index into a genome (mixed-radix, axis 0 slowest).
    pub fn genome_at(&self, mut idx: usize) -> Genome {
        let mut g = [0usize; N_AXES];
        for axis in (0..N_AXES).rev() {
            let len = self.axis_len(axis);
            g[axis] = idx % len;
            idx /= len;
        }
        g
    }

    /// The genome of the paper's cost-effective `16+48` configuration
    /// (asymmetric crossbar + deeper queues), if present in this space.
    pub fn cost_effective_16_48(&self) -> Option<Genome> {
        let g = [
            self.icnt.iter().position(|&p| p == (16, 48))?,
            self.l1.iter().position(|&s| s == (32, 48, 40))?,
            self.l2_mshr.iter().position(|&v| v == 32)?,
            self.l2_missq.iter().position(|&v| v == 32)?,
            self.l2_accessq.iter().position(|&v| v == 32)?,
            self.l2_respq.iter().position(|&v| v == 32)?,
            self.l2_banks.iter().position(|&v| v == 12)?,
        ];
        Some(g)
    }

    /// A stable presentation label for a genome. Participates in the cache
    /// key, so it must be a pure function of the knob *values* (not the
    /// indices), surviving any reordering of an axis' choice list.
    pub fn label(&self, g: &Genome) -> String {
        let (req, rep) = self.icnt[g[0]];
        let (l1q, l1m, pipe) = self.l1[g[1]];
        format!(
            "tune:{req}+{rep}:l1q{l1q}m{l1m}p{pipe}:m{}:q{}:a{}:r{}:b{}",
            self.l2_mshr[g[2]],
            self.l2_missq[g[3]],
            self.l2_accessq[g[4]],
            self.l2_respq[g[5]],
            self.l2_banks[g[6]],
        )
    }

    /// Builds the full configuration for a genome (baseline + knobs).
    pub fn config(&self, g: &Genome) -> GpuConfig {
        let mut c = GpuConfig::gtx480_baseline();
        let (req, rep) = self.icnt[g[0]];
        c.icnt = IcntConfig::asymmetric(req, rep);
        let (l1q, l1m, pipe) = self.l1[g[1]];
        c.core.l1d.miss_queue_len = l1q;
        c.core.l1d.mshr_entries = l1m;
        c.core.mem_pipeline_width = pipe;
        c.l2_bank.mshr_entries = self.l2_mshr[g[2]];
        c.l2_bank.miss_queue_len = self.l2_missq[g[3]];
        c.l2_access_queue = self.l2_accessq[g[4]];
        c.l2_response_queue = self.l2_respq[g[5]];
        let banks = self.l2_banks[g[6]];
        if banks != c.n_l2_banks {
            // Capacity-preserving re-banking (the scale_l2 banking move):
            // total L2 bytes stay fixed while bank-level parallelism grows.
            c.l2_bank.size_bytes = c.l2_bank.size_bytes * c.n_l2_banks as u64 / banks as u64;
            c.n_l2_banks = banks;
            c.l2_bank.set_stride = banks;
        }
        c
    }

    /// Whether the genome builds a configuration the simulator accepts.
    pub fn is_valid(&self, g: &Genome) -> bool {
        self.config(g).validate().is_ok()
    }

    /// All valid genomes, in canonical (flat-index) order.
    pub fn enumerate_valid(&self) -> Vec<Genome> {
        (0..self.size())
            .map(|i| self.genome_at(i))
            .filter(|g| self.is_valid(g))
            .collect()
    }

    /// Mutates `g` one step along `axis` (+1 or −1 in choice order),
    /// clamped to the axis bounds. Returns `None` when the step leaves the
    /// genome unchanged or invalid.
    pub fn step(&self, g: &Genome, axis: usize, up: bool) -> Option<Genome> {
        let len = self.axis_len(axis);
        let cur = g[axis];
        let next = if up {
            (cur + 1).min(len - 1)
        } else {
            cur.saturating_sub(1)
        };
        if next == cur {
            return None;
        }
        let mut m = *g;
        m[axis] = next;
        self.is_valid(&m).then_some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn space_enumerates_and_decodes_consistently() {
        let s = KnobSpace::table3();
        assert_eq!(s.size(), 6 * 2 * 3 * 2 * 3 * 3 * 2);
        assert_eq!(s.genome_at(0), [0; N_AXES]);
        let last = s.genome_at(s.size() - 1);
        for (a, &choice) in last.iter().enumerate() {
            assert_eq!(choice, s.axis_len(a) - 1);
        }
    }

    #[test]
    fn all_table3_genomes_are_valid_with_unique_labels() {
        let s = KnobSpace::table3();
        let valid = s.enumerate_valid();
        assert_eq!(valid.len(), s.size(), "the Table III space is fully valid");
        let labels: BTreeSet<String> = valid.iter().map(|g| s.label(g)).collect();
        assert_eq!(labels.len(), valid.len(), "labels must be unique");
    }

    #[test]
    fn cost_effective_point_is_in_the_space() {
        let s = KnobSpace::table3();
        let g = s.cost_effective_16_48().expect("16+48 present");
        let cfg = s.config(&g);
        let reference = GpuConfig::cost_effective_16_48();
        assert_eq!(format!("{cfg:?}"), format!("{reference:?}"));
    }

    #[test]
    fn rebanking_preserves_capacity() {
        let s = KnobSpace::table3();
        let mut g = [0; N_AXES];
        g[6] = 1; // 24 banks
        let cfg = s.config(&g);
        let base = GpuConfig::gtx480_baseline();
        assert_eq!(cfg.n_l2_banks, 24);
        assert_eq!(
            cfg.l2_bank.size_bytes * cfg.n_l2_banks as u64,
            base.l2_bank.size_bytes * base.n_l2_banks as u64
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn step_respects_bounds() {
        let s = KnobSpace::table3();
        let g = [0; N_AXES];
        assert!(s.step(&g, 0, false).is_none(), "already at the low edge");
        let up = s.step(&g, 0, true).expect("room to move up");
        assert_eq!(up[0], 1);
        let top = s.genome_at(s.size() - 1);
        assert!(s.step(&top, 0, true).is_none(), "already at the high edge");
    }
}
