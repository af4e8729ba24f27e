//! The ideal memories that separate bandwidth from latency: Fig. 3's fixed
//! L1-miss latency and Table II's P∞ (infinite bandwidth) and P_DRAM (ideal
//! DRAM). Each answers a fetch after a constant latency through an
//! [`IdealPipe`], with no back-pressure of its own.

use crate::config::{GpuConfig, MemoryModel};
use gmh_cache::TagArray;
use gmh_types::bits::{self, Bits};
use gmh_types::{ClockDomain, MemFetch, Picos};

/// An ideal-memory in-flight FIFO: unbounded, unlike every other buffer in
/// the model.
#[expect(
    clippy::disallowed_types,
    reason = "the ideal-memory reference models (Sec. 6 'ideal' configs) have infinite buffering \
        by construction — no back-pressure exists to model, and their occupancy is exported via \
        the ideal.in_flight telemetry series instead"
)]
type IdealFifo<T> = std::collections::VecDeque<T>;

/// Fetches in flight through an ideal memory, each with the instant it is
/// due, in FIFO order. One pipe has one latency, so ready times never
/// decrease from front to back.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdealPipe(IdealFifo<(Picos, MemFetch)>);

impl IdealPipe {
    /// Queues `f`, due at `ready`.
    pub(crate) fn push(&mut self, ready: Picos, f: MemFetch) {
        self.0.push_back((ready, f));
    }

    /// Fetches in flight.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// When the front fetch is due (`None`: the pipe is empty).
    pub(crate) fn next_ready(&self) -> Option<Picos> {
        self.0.front().map(|&(ready, _)| ready)
    }

    /// Hands every fetch due at `now` to `offer`, in FIFO order. A fetch
    /// `offer` refuses (handing it back) blocks the later fetches bound for
    /// the same destination, `dest(f)` below `n_dests` (at most
    /// [`bits::CAP`]), and they keep their order; fetches for other
    /// destinations pass it. The scan stops at the first fetch not yet due,
    /// or once every destination is blocked.
    pub(crate) fn deliver(
        &mut self,
        now: Picos,
        n_dests: usize,
        dest: impl Fn(&MemFetch) -> usize,
        mut offer: impl FnMut(MemFetch) -> Result<(), MemFetch>,
    ) {
        let (all, mut blocked): (Bits, Bits) = (bits::below(n_dests), 0);
        // `..kept` holds the refused fetches in order, `kept..i` the
        // delivered ones' stale slots.
        let (mut kept, mut i) = (0, 0);
        while blocked != all {
            let Some((_, f)) = self.0.get_mut(i).filter(|(ready, _)| *ready <= now) else {
                break;
            };
            let d = dest(f);
            if !bits::contains(blocked, d) {
                let Err(back) = offer(f.clone()) else {
                    i += 1;
                    continue;
                };
                *f = back;
                bits::put(&mut blocked, d, true);
            }
            self.0.swap(kept, i);
            (kept, i) = (kept + 1, i + 1);
        }
        if i > kept {
            self.0.drain(kept..i);
        }
    }
}

/// The ideal memory a [`MemoryModel`] puts in place of part of the
/// hierarchy: none under [`MemoryModel::Full`].
#[derive(Debug, Default)]
pub(crate) struct IdealMemory {
    /// Answers every L1 miss ([`MemoryModel::FixedL1MissLatency`],
    /// [`MemoryModel::InfiniteBw`]); the crossbar, L2 and DRAM sit idle.
    pub(crate) l1: Option<IdealL1>,
    /// Answers every L2 miss ([`MemoryModel::InfiniteDram`]).
    pub(crate) dram: Option<IdealDram>,
}

/// The L1 side: a fetch the L2 would hit is due `lat[0]` core cycles
/// after it leaves its L1, one it would miss `lat[1]`.
#[derive(Debug, Default)]
pub(crate) struct IdealL1 {
    /// The hit and the miss pipe.
    pub(crate) pipes: [IdealPipe; 2],
    lat: [u64; 2],
    /// P∞'s functional whole-L2 tag array; without one (the fixed-latency
    /// model) every fetch hits.
    l2: Option<TagArray>,
}

/// The DRAM side: a fill is due `latency` core cycles after its miss
/// leaves the L2 bank.
#[derive(Debug)]
pub(crate) struct IdealDram {
    /// One pipe per L2 bank, so a bank with a full response queue never
    /// holds back fills for the others.
    pub(crate) banks: Vec<IdealPipe>,
    pub(crate) latency: u64,
}

impl IdealMemory {
    /// Decodes `cfg.memory_model`; an ideal DRAM has no L1 side.
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        let (lat, l2, dram) = match cfg.memory_model {
            MemoryModel::Full => return Self::default(),
            MemoryModel::FixedL1MissLatency(lat) => ([lat; 2], None, None),
            MemoryModel::InfiniteBw { l2_hit, dram } => {
                // One functional tag array covering the whole shared L2.
                let total = cfg.l2_bank.size_bytes * cfg.n_l2_banks as u64;
                let tags = TagArray::new(total, cfg.l2_bank.assoc);
                ([l2_hit, dram], Some(tags), None)
            }
            MemoryModel::InfiniteDram { latency } => ([0; 2], None, Some(latency)),
        };
        Self {
            l1: dram.is_none().then(|| IdealL1 {
                lat,
                l2,
                ..IdealL1::default()
            }),
            dram: dram.map(|latency| IdealDram {
                banks: vec![IdealPipe::default(); cfg.n_l2_banks],
                latency,
            }),
        }
    }

    fn pipes(&self) -> impl Iterator<Item = &IdealPipe> {
        let l1 = self.l1.iter().flat_map(|s| &s.pipes);
        l1.chain(self.dram.iter().flat_map(|d| &d.banks))
    }

    /// Fetches in flight through every pipe.
    pub(crate) fn in_flight(&self) -> usize {
        self.pipes().map(IdealPipe::len).sum()
    }

    /// When the earliest front fetch is due (`None`: nothing in flight).
    pub(crate) fn next_ready(&self) -> Option<Picos> {
        self.pipes().filter_map(IdealPipe::next_ready).min()
    }
}

impl IdealL1 {
    /// Takes `f` from its L1 at core cycle `cyc` of `core`: it touches the
    /// functional L2 and queues on the pipe that answers it, or comes back
    /// when it wants no answer (a store, which the ideal memory absorbs).
    pub(crate) fn take(&mut self, f: MemFetch, core: &ClockDomain, cyc: u64) -> Option<MemFetch> {
        let l2_miss = self
            .l2
            .as_mut()
            .is_some_and(|t| !t.access_functional(f.line, f.kind.is_write()));
        if !f.kind.wants_response() {
            return Some(f);
        }
        let k = usize::from(l2_miss);
        self.pipes[k].push(core.tick_instant(cyc + self.lat[k]), f);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::{AccessKind, LineAddr};

    /// A pipe holding `(ready, fetch id, core)` entries in that order.
    fn pipe(entries: &[(u64, u64, usize)]) -> IdealPipe {
        let mut p = IdealPipe::default();
        for &(ready, id, core) in entries {
            let f = MemFetch::new(id, core, 0, AccessKind::Load, LineAddr::new(id), 0);
            p.push(Picos(ready), f);
        }
        p
    }

    /// What one `deliver` did: the ids offered, how many fetches it
    /// scanned (`dest` calls) and the ids left, each in order.
    type Run = (Vec<u64>, usize, Vec<u64>);

    /// Delivers at `now` to `n` cores of which `full` refuse everything.
    fn run(p: &mut IdealPipe, now: u64, n: usize, full: &[usize]) -> Run {
        let (mut offered, scanned) = (Vec::new(), std::cell::Cell::new(0));
        let dest = |f: &MemFetch| {
            scanned.set(scanned.get() + 1);
            f.core_id
        };
        p.deliver(Picos(now), n, dest, |f| {
            offered.push(f.id);
            match full.contains(&f.core_id) {
                true => Err(f),
                false => Ok(()),
            }
        });
        let left = p.0.iter().map(|(_, f)| f.id).collect();
        (offered, scanned.get(), left)
    }

    #[test]
    fn an_idle_core_is_served_past_a_blocked_one_in_order() {
        // Core 0 refuses its first fetch, so its second is not offered;
        // core 1's pass both, each core's keep their order, and the fetch
        // not yet due stays behind them.
        let mut p = pipe(&[(0, 1, 0), (0, 2, 1), (0, 3, 0), (5, 4, 1), (9, 5, 1)]);
        assert_eq!(run(&mut p, 5, 2, &[0]), (vec![1, 2, 4], 4, vec![1, 3, 5]));
        assert_eq!(p.next_ready(), Some(Picos(0)));
    }

    #[test]
    fn the_scan_stops_once_every_destination_is_blocked() {
        let mut p = pipe(&[(0, 1, 0), (0, 2, 1), (0, 3, 0), (0, 4, 1)]);
        assert_eq!(
            run(&mut p, 0, 2, &[0, 1]),
            (vec![1, 2], 2, vec![1, 2, 3, 4])
        );
        // One destination (an L2 bank's pipe): the first refusal ends it.
        let mut p = pipe(&[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        assert_eq!(run(&mut p, 0, 1, &[0]), (vec![1], 1, vec![1, 2, 3]));
    }

    #[test]
    fn a_front_not_yet_due_stays() {
        let mut p = pipe(&[(7, 1, 0), (8, 2, 1)]);
        assert_eq!(run(&mut p, 6, 2, &[]), (vec![], 0, vec![1, 2]));
        assert_eq!(run(&mut p, 7, 2, &[]), (vec![1], 1, vec![2]));
        assert_eq!((p.len(), p.next_ready()), (1, Some(Picos(8))));
    }
}
