//! The memory-fetch request object.
//!
//! A [`MemFetch`] is created when a memory access leaves a SIMT core's
//! load-store unit (or instruction fetch unit) and misses in the L1. It then
//! flows through the crossbar, L2 and DRAM, eventually returning to the core
//! as a fill response. The same object type also models L2 write-backs to
//! DRAM.
//!
//! Timestamps recorded along the way feed the paper's latency metrics:
//! *AML* (average memory latency, Fig. 1) and *L2-AHL* (average hit latency
//! to L2, Fig. 1).

use crate::addr::LineAddr;
use crate::clock::Picos;
use crate::scratch::Scratch;

/// Unique identity of a fetch, assigned by the issuing core.
pub type FetchId = u64;

/// What kind of memory access a [`MemFetch`] represents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load that missed in L1 (needs a response).
    Load,
    /// A data store leaving the L1 (write-through; no response modeled).
    Store,
    /// An instruction fetch that missed in the L1 instruction cache.
    InstFetch,
    /// A dirty line evicted from the write-back L2, headed to DRAM.
    L2WriteBack,
}

impl AccessKind {
    /// Whether this access writes memory (occupies DRAM write bandwidth).
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::L2WriteBack)
    }

    /// Whether the requesting core expects a response packet.
    pub fn wants_response(self) -> bool {
        matches!(self, AccessKind::Load | AccessKind::InstFetch)
    }
}

/// Where a fetch was ultimately serviced, recorded when the data is found.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ServicedBy {
    /// Not yet serviced.
    #[default]
    Pending,
    /// Hit in the shared L2.
    L2,
    /// Missed in L2 and was serviced by DRAM.
    Dram,
    /// Serviced by an ideal (infinite-bandwidth) memory model.
    Ideal,
}

/// Picosecond timestamps recorded as a fetch traverses the hierarchy.
///
/// A zero value means "not reached yet" (time zero events are indistinguish-
/// able, which is harmless for statistics: at most one fetch per core is
/// created at t=0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timestamps {
    /// The L1 miss occurred and the fetch was created.
    pub created: Picos,
    /// Entered the crossbar request network injection port.
    pub icnt_inject: Picos,
    /// Arrived at the L2 bank access queue.
    pub l2_arrive: Picos,
    /// L2 lookup completed (hit served or miss forwarded).
    pub l2_done: Picos,
    /// Entered the DRAM scheduler queue.
    pub dram_arrive: Picos,
    /// DRAM burst finished.
    pub dram_done: Picos,
    /// Response arrived back at the core (fill).
    pub returned: Picos,
}

/// A memory request flowing through the simulated hierarchy.
///
/// # Example
///
/// ```
/// use gmh_types::{AccessKind, LineAddr, MemFetch};
///
/// let f = MemFetch::new(1, 0, 3, AccessKind::Load, LineAddr::new(0x40), 0);
/// assert!(f.kind.wants_response());
/// assert_eq!(f.line.index(), 0x40);
/// ```
#[derive(Clone, Debug)]
pub struct MemFetch {
    /// Unique id (unique per core; pair with `core_id` for global identity).
    pub id: FetchId,
    /// Issuing SIMT core.
    pub core_id: usize,
    /// Issuing warp within the core; `usize::MAX` for non-warp traffic
    /// (write-backs).
    pub warp_id: usize,
    /// Access kind.
    pub kind: AccessKind,
    /// Line address accessed.
    pub line: LineAddr,
    /// Timestamps for latency accounting.
    pub time: Timestamps,
    /// Where the fetch was serviced (L2 hit vs DRAM), for L2-AHL vs AML
    /// classification.
    pub serviced_by: ServicedBy,
    /// The trace sampler's verdict, left here by
    /// [`crate::trace::TraceSink::issued`] so that no record site has to
    /// ask for it again. Observation only: it is a pure function of
    /// `(seed, core, id)` and the event cap, nothing in the model reads it,
    /// and [`Scratch`] keeps it out of `Debug`, so state dumps of a traced
    /// and an untraced run stay equal.
    pub traced: Scratch<bool>,
}

impl MemFetch {
    /// Creates a fetch stamped with its creation time.
    pub fn new(
        id: FetchId,
        core_id: usize,
        warp_id: usize,
        kind: AccessKind,
        line: LineAddr,
        now: Picos,
    ) -> Self {
        MemFetch {
            id,
            core_id,
            warp_id,
            kind,
            line,
            time: Timestamps {
                created: now,
                ..Timestamps::default()
            },
            serviced_by: ServicedBy::Pending,
            traced: Scratch(false),
        }
    }

    /// Creates an L2 write-back (no originating warp, no response expected).
    pub fn write_back(line: LineAddr, now: Picos) -> Self {
        MemFetch::new(
            u64::MAX,
            usize::MAX,
            usize::MAX,
            AccessKind::L2WriteBack,
            line,
            now,
        )
    }

    /// Size in bytes of this fetch's *request* packet on the crossbar.
    ///
    /// Loads and instruction fetches send an 8-byte command; stores carry
    /// their data (a full line after coalescing, per the paper's §VII-B
    /// discussion of write traffic).
    pub fn request_bytes(&self) -> u32 {
        match self.kind {
            AccessKind::Load | AccessKind::InstFetch => 8,
            AccessKind::Store | AccessKind::L2WriteBack => 8 + crate::addr::LINE_SIZE,
        }
    }

    /// Size in bytes of the *response* packet — exactly one cache line of
    /// data (control/header bits travel on the narrow sideband and are not
    /// charged against data-flit bandwidth, matching GPGPU-Sim's
    /// accounting). 0 if no response is sent.
    pub fn response_bytes(&self) -> u32 {
        if self.kind.wants_response() {
            crate::addr::LINE_SIZE
        } else {
            0
        }
    }

    /// Round-trip latency in picoseconds, once `returned` is stamped.
    pub fn round_trip_ps(&self) -> Picos {
        self.time.returned.saturating_sub(self.time.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Store.is_write());
        assert!(AccessKind::L2WriteBack.is_write());
        assert!(AccessKind::Load.wants_response());
        assert!(AccessKind::InstFetch.wants_response());
        assert!(!AccessKind::Store.wants_response());
        assert!(!AccessKind::L2WriteBack.wants_response());
    }

    #[test]
    fn request_sizes() {
        let load = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(1), 0);
        assert_eq!(load.request_bytes(), 8);
        assert_eq!(load.response_bytes(), 128);
        let store = MemFetch::new(0, 0, 0, AccessKind::Store, LineAddr::new(1), 0);
        assert_eq!(store.request_bytes(), 136);
        assert_eq!(store.response_bytes(), 0);
    }

    #[test]
    fn round_trip_computes() {
        let mut f = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(1), 100);
        f.time.returned = 600;
        assert_eq!(f.round_trip_ps(), 500);
    }

    #[test]
    fn round_trip_saturates_if_unreturned() {
        let f = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(1), 100);
        assert_eq!(f.round_trip_ps(), 0);
    }

    /// The sampler's verdict fits the padding after `kind` /
    /// `serviced_by`: a fetch is copied at every hop, so it must not grow.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn fetch_stays_96_bytes_and_hides_the_verdict_from_debug() {
        assert_eq!(std::mem::size_of::<MemFetch>(), 96);
        let plain = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(1), 0);
        let mut traced = plain.clone();
        traced.traced = Scratch(true);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        assert!(!MemFetch::write_back(LineAddr::new(9), 5).traced.0);
    }

    #[test]
    fn write_back_constructor() {
        let wb = MemFetch::write_back(LineAddr::new(9), 42);
        assert_eq!(wb.kind, AccessKind::L2WriteBack);
        assert_eq!(wb.core_id, usize::MAX);
        assert_eq!(wb.time.created, 42);
    }
}
