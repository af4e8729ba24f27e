//! The composed cache: tags + MSHRs + miss queue.
//!
//! [`Cache`] is used both as the per-core L1 data cache (16 KB, 4-way,
//! write-evict, 32 MSHRs, 8-entry miss queue) and as an L2 bank (64 KB
//! slice of the 768 KB shared L2, 8-way, write-back). The same type also
//! models the small L1 instruction cache.
//!
//! All resource-acquisition failures surface as [`BlockReason`] so the
//! owning pipeline can attribute the stall. An access is two steps —
//! [`Cache::admit_read`]/[`Cache::admit_write`] decide from the line alone,
//! [`Cache::commit_read`]/[`Cache::commit_write`] take the fetch — so an
//! owner whose fetch waits at the head of a queue pops it only once the
//! access is admitted. A refusal stands until the cache next changes: the
//! cache keeps it as a *standing block* and a repeated attempt replays it
//! in O(1) instead of walking the tags and MSHRs again.

use crate::mshr::{Mshr, MshrReject};
use crate::tag::{LineState, TagArray};
use gmh_types::{BoundedQueue, LineAddr, MemFetch, Picos, Scratch};

/// Write-handling policy (Table I: L1 is write-evict, L2 is write-back).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WritePolicy {
    /// Writes evict the line (if present) and pass through to the next
    /// level; the cache never holds dirty data. Fermi's L1 policy.
    WriteEvict,
    /// Writes allocate and dirty the line; dirty victims are written back
    /// on eviction. Fermi's L2 policy.
    WriteBack,
}

/// Static configuration of a [`Cache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Number of MSHR entries.
    pub mshr_entries: usize,
    /// Maximum requests recorded per MSHR entry (first miss + merges).
    pub mshr_merge: usize,
    /// Miss queue depth (requests buffered toward the next level).
    pub miss_queue_len: usize,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Set-index stride (see [`TagArray::with_stride`]); 1 for private
    /// caches, the bank count for banks of an interleaved shared cache.
    pub set_stride: usize,
}

impl CacheConfig {
    /// The GTX 480 L1 data cache (Table I): 16 KB, 128 B lines, 4-way, LRU,
    /// write-evict, 32 MSHR entries, 8-entry miss queue.
    pub fn fermi_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            assoc: 4,
            mshr_entries: 32,
            mshr_merge: 8,
            miss_queue_len: 8,
            write_policy: WritePolicy::WriteEvict,
            set_stride: 1,
        }
    }

    /// One bank of the GTX 480 L2 (Table I): 768 KB / 12 banks = 64 KB,
    /// 8-way, LRU, write-back, 32 MSHR entries, 8-entry miss queue.
    pub fn fermi_l2_bank() -> Self {
        CacheConfig {
            size_bytes: 768 * 1024 / 12,
            assoc: 8,
            mshr_entries: 32,
            mshr_merge: 8,
            miss_queue_len: 8,
            write_policy: WritePolicy::WriteBack,
            set_stride: 12,
        }
    }

    /// The L1 instruction cache (8 KB, 4-way), sharing the L1 machinery.
    pub fn fermi_l1i() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            assoc: 4,
            mshr_entries: 8,
            mshr_merge: 8,
            miss_queue_len: 4,
            write_policy: WritePolicy::WriteEvict,
            set_stride: 1,
        }
    }
}

/// Why a cache access could not be serviced this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockReason {
    /// No free MSHR entry.
    MshrFull,
    /// MSHR entry exists but its merge list is at capacity.
    MshrMergeFull,
    /// The miss queue has no room for the required downstream request(s).
    MissQueueFull,
    /// Every way of the target set is reserved by outstanding misses.
    NoReplaceableLine,
}

/// Outcome of a read access.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessResult {
    /// The line is resident; the fetch is handed back for the response path.
    Hit,
    /// Merged into an outstanding miss; the fetch is parked in the MSHR and
    /// will be returned by [`Cache::fill`].
    MissMerged,
    /// New miss: the fetch was placed in the miss queue and now travels to
    /// the next level.
    MissIssued,
    /// Resource exhaustion; the access must retry. The fetch is handed back.
    Blocked(BlockReason),
}

/// Outcome of a write access.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOutcome {
    /// Write absorbed by this cache (write-back hit or write-validate
    /// allocation). The fetch is consumed.
    Absorbed,
    /// Write passed through toward the next level (write-evict policy).
    Forwarded,
    /// Resource exhaustion; retry next cycle. The fetch is handed back.
    Blocked(BlockReason),
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Read accesses that completed a lookup (hit, merge or new miss).
    pub reads: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Reads merged into outstanding misses.
    pub read_merges: u64,
    /// Write accesses that completed a lookup.
    pub writes: u64,
    /// Write hits (write-back policy only).
    pub write_hits: u64,
    /// Write-backs generated by dirty evictions.
    pub writebacks: u64,
    /// Accesses rejected with a [`BlockReason`].
    pub blocked: u64,
}

impl CacheStats {
    /// Read miss rate counting merges as misses, in `[0, 1]`.
    pub fn read_miss_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            1.0 - self.read_hits as f64 / self.reads as f64
        }
    }

    /// Misses that became downstream traffic (excludes merges).
    pub fn demand_misses(&self) -> u64 {
        self.reads - self.read_hits - self.read_merges
    }
}

/// What an admitted access will do to the cache.
#[derive(Clone, Copy, Debug)]
enum Plan {
    /// The line is resident in `way`.
    Hit { way: usize },
    /// The line is reserved by an outstanding miss: a read merges into its
    /// MSHR entry, a write is absorbed by the inbound fill.
    Inbound,
    /// `way` is evicted for the line, writing `dirty_victim` back first.
    Allocate {
        way: usize,
        dirty_victim: Option<LineAddr>,
    },
    /// Write-evict: the write goes downstream and any resident copy goes.
    Forward,
}

/// An access the cache has agreed to perform: the proof
/// [`Cache::commit_read`]/[`Cache::commit_write`] take that the access
/// cannot block. It must be committed (or dropped) before anything else
/// changes the cache.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    line: LineAddr,
    set: usize,
    write: bool,
    plan: Plan,
}

impl Admission {
    /// Whether the line is resident, so committing completes the access in
    /// this cache (a read hands its fetch back as [`AccessResult::Hit`]).
    pub fn is_hit(&self) -> bool {
        matches!(self.plan, Plan::Hit { .. })
    }
}

/// A cycle-level cache with finite MSHRs and miss queue.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    tags: TagArray,
    mshr: Mshr<MemFetch>,
    miss_queue: BoundedQueue<MemFetch>,
    stats: CacheStats,
    /// The last refusal, `(line, is_write, reason)`. A refusal is a pure
    /// function of the tags, MSHRs and miss queue, so it stands until one
    /// of them changes: every mutating method drops it.
    standing: Scratch<Option<(LineAddr, bool, BlockReason)>>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`TagArray::new`]).
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            tags: TagArray::with_stride(cfg.size_bytes, cfg.assoc, cfg.set_stride),
            mshr: Mshr::new(cfg.mshr_entries, cfg.mshr_merge),
            miss_queue: BoundedQueue::new(cfg.miss_queue_len),
            cfg,
            stats: CacheStats::default(),
            standing: Scratch(None),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The tag array (read-only), for diagnostics.
    pub fn tags(&self) -> &TagArray {
        &self.tags
    }

    /// Current MSHR entries in use.
    pub fn mshr_used(&self) -> usize {
        self.mshr.used()
    }

    /// Merged waiters parked on `line`'s MSHR entry (0 if untracked).
    /// A fill for `line` will return this many fetches.
    pub fn mshr_waiters(&self, line: LineAddr) -> usize {
        self.mshr.waiters_len(line)
    }

    /// Number of requests waiting in the miss queue.
    pub fn miss_queue_len(&self) -> usize {
        self.miss_queue.len()
    }

    /// The refusal an access to `line` is known to still meet, without
    /// touching the tags, MSHRs or miss queue: `Some` if the same access
    /// was refused and the cache has not changed since.
    pub fn standing_block(&self, line: LineAddr, write: bool) -> Option<BlockReason> {
        match self.standing.0 {
            Some((l, w, reason)) if l == line && w == write => Some(reason),
            _ => None,
        }
    }

    /// Drops the standing block, so the next attempt recomputes its verdict.
    /// Results never depend on it; the fork-and-compare suites call it
    /// before every cycle of one copy to prove that.
    #[doc(hidden)]
    pub fn forget_standing_block(&mut self) {
        self.standing.0 = None;
    }

    /// Counts `n` more attempts refused by the standing block: what `n`
    /// replays through `admit_*` would add. An owner that slept through
    /// `n` cycles of a refused head settles them with it.
    #[doc(hidden)]
    pub fn count_refusals(&mut self, n: u64) {
        debug_assert!(self.standing.0.is_some(), "no standing block to replay");
        self.stats.blocked += n;
    }

    /// Counts a refused attempt and keeps the refusal standing.
    fn refuse(&mut self, line: LineAddr, write: bool, reason: BlockReason) -> BlockReason {
        self.stats.blocked += 1;
        self.standing.0 = Some((line, write, reason));
        reason
    }

    /// Decides a read (load or instruction fetch) of `line`. `Err` is a
    /// counted, refused attempt that left the cache as it was; `Ok` is
    /// handed to [`Cache::commit_read`] with the fetch.
    pub fn admit_read(&mut self, line: LineAddr) -> Result<Admission, BlockReason> {
        if let Some(reason) = self.standing_block(line, false) {
            return Err(self.refuse(line, false, reason));
        }
        let set = self.tags.set_of(line);
        let plan = match self.tags.way_in(set, line) {
            Some(way) if self.tags.state_at(set, way) != LineState::Reserved => Plan::Hit { way },
            Some(_) => {
                // An outstanding miss to the same line: merge.
                match self.mshr.can_accept(line) {
                    Ok(()) => Plan::Inbound,
                    Err(MshrReject::MergeFull) => {
                        return Err(self.refuse(line, false, BlockReason::MshrMergeFull))
                    }
                    Err(MshrReject::Full) => unreachable!("a reserved line has an MSHR entry"),
                }
            }
            None => {
                // New miss. Resource checks in attribution order: MSHR,
                // replaceable line, miss-queue space.
                if self.mshr.is_full() {
                    return Err(self.refuse(line, false, BlockReason::MshrFull));
                }
                let Some((way, dirty_victim)) = self.tags.victim_in(set) else {
                    return Err(self.refuse(line, false, BlockReason::NoReplaceableLine));
                };
                if self.miss_queue.free() < 1 + usize::from(dirty_victim.is_some()) {
                    return Err(self.refuse(line, false, BlockReason::MissQueueFull));
                }
                Plan::Allocate { way, dirty_victim }
            }
        };
        Ok(Admission {
            line,
            set,
            write: false,
            plan,
        })
    }

    /// Performs the read `admitted` for `fetch`: never `Blocked`.
    ///
    /// On [`AccessResult::Hit`] the fetch is returned in the second tuple
    /// slot; on `MissMerged`/`MissIssued` it is retained by the cache
    /// (parked in the MSHR or traveling via the miss queue).
    pub fn commit_read(
        &mut self,
        admitted: Admission,
        fetch: MemFetch,
        _now: Picos,
    ) -> (AccessResult, Option<MemFetch>) {
        debug_assert!(!admitted.write && admitted.line == fetch.line);
        self.standing.0 = None;
        self.stats.reads += 1;
        match admitted.plan {
            Plan::Hit { way } => {
                self.tags.touch_at(admitted.set, way, false);
                self.stats.read_hits += 1;
                (AccessResult::Hit, Some(fetch))
            }
            Plan::Inbound => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: admit_read confirmed merge capacity."
                )]
                self.mshr
                    .merge(fetch.line, fetch)
                    .expect("admission verified merge capacity");
                self.stats.read_merges += 1;
                (AccessResult::MissMerged, None)
            }
            Plan::Allocate { way, dirty_victim } => {
                self.tags.reserve_at(admitted.set, way, fetch.line);
                if let Some(victim) = dirty_victim {
                    self.stats.writebacks += 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: admit_read counted a slot for the victim."
                    )]
                    self.miss_queue
                        .push(MemFetch::write_back(victim, fetch.time.created))
                        .expect("slot count verified");
                }
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: admit_read checked mshr.is_full()."
                )]
                self.mshr.allocate(fetch.line).expect("fullness checked");
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: admit_read counted a slot for the fetch."
                )]
                self.miss_queue.push(fetch).expect("slot count verified");
                (AccessResult::MissIssued, None)
            }
            Plan::Forward => unreachable!("reads are never forwarded"),
        }
    }

    /// Performs a read (load or instruction fetch) lookup for a fetch the
    /// caller already holds: [`Cache::admit_read`] then
    /// [`Cache::commit_read`].
    ///
    /// On [`AccessResult::Hit`] and `Blocked` the fetch is returned in the
    /// second tuple slot; on `MissMerged`/`MissIssued` it is retained by the
    /// cache (parked in the MSHR or traveling via the miss queue).
    pub fn access_read(
        &mut self,
        fetch: MemFetch,
        now: impl Into<Picos>,
    ) -> (AccessResult, Option<MemFetch>) {
        match self.admit_read(fetch.line) {
            Ok(admitted) => self.commit_read(admitted, fetch, now.into()),
            Err(reason) => (AccessResult::Blocked(reason), Some(fetch)),
        }
    }

    /// Decides a write of `line`; see [`Cache::admit_read`].
    pub fn admit_write(&mut self, line: LineAddr) -> Result<Admission, BlockReason> {
        if let Some(reason) = self.standing_block(line, true) {
            return Err(self.refuse(line, true, reason));
        }
        if self.cfg.write_policy == WritePolicy::WriteEvict && self.miss_queue.is_full() {
            return Err(self.refuse(line, true, BlockReason::MissQueueFull));
        }
        let set = self.tags.set_of(line);
        let plan = match self.cfg.write_policy {
            WritePolicy::WriteEvict => Plan::Forward,
            WritePolicy::WriteBack => match self.tags.way_in(set, line) {
                Some(way) if self.tags.state_at(set, way) != LineState::Reserved => {
                    Plan::Hit { way }
                }
                // The line is inbound; the write is conceptually merged
                // into the arriving fill. Data values are not modeled.
                Some(_) => Plan::Inbound,
                None => {
                    let Some((way, dirty_victim)) = self.tags.victim_in(set) else {
                        return Err(self.refuse(line, true, BlockReason::NoReplaceableLine));
                    };
                    if dirty_victim.is_some() && self.miss_queue.is_full() {
                        return Err(self.refuse(line, true, BlockReason::MissQueueFull));
                    }
                    Plan::Allocate { way, dirty_victim }
                }
            },
        };
        Ok(Admission {
            line,
            set,
            write: true,
            plan,
        })
    }

    /// Performs the write `admitted` for `fetch`: never `Blocked`.
    ///
    /// Write-evict caches forward the write downstream (consuming a miss
    /// queue slot) and invalidate any resident copy. Write-back caches
    /// absorb the write, allocating on a miss without fetching
    /// (write-validate) and emitting a write-back if a dirty victim is
    /// evicted.
    pub fn commit_write(
        &mut self,
        admitted: Admission,
        fetch: MemFetch,
        now: Picos,
    ) -> WriteOutcome {
        debug_assert!(admitted.write && admitted.line == fetch.line);
        self.standing.0 = None;
        self.stats.writes += 1;
        match admitted.plan {
            Plan::Forward => {
                self.tags.invalidate_in(admitted.set, fetch.line);
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: admit_write checked miss_queue.is_full()."
                )]
                self.miss_queue.push(fetch).expect("fullness checked");
                return WriteOutcome::Forwarded;
            }
            Plan::Hit { way } => {
                self.tags.touch_at(admitted.set, way, true);
                self.stats.write_hits += 1;
            }
            Plan::Inbound => self.stats.write_hits += 1,
            Plan::Allocate { way, dirty_victim } => {
                self.tags.reserve_at(admitted.set, way, fetch.line);
                if let Some(victim) = dirty_victim {
                    self.stats.writebacks += 1;
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: admit_write checked is_full() for the dirty-victim \
                            case."
                    )]
                    self.miss_queue
                        .push(MemFetch::write_back(victim, now))
                        .expect("fullness checked");
                }
                // Write-validate: the whole line is written, so no fetch
                // from below is needed; complete the allocation dirty.
                self.tags.fill_at(admitted.set, way, true);
            }
        }
        WriteOutcome::Absorbed
    }

    /// Performs a write lookup for a fetch the caller already holds:
    /// [`Cache::admit_write`] then [`Cache::commit_write`]. On `Blocked` the
    /// fetch is handed back.
    pub fn access_write(
        &mut self,
        fetch: MemFetch,
        now: Picos,
    ) -> (WriteOutcome, Option<MemFetch>) {
        match self.admit_write(fetch.line) {
            Ok(admitted) => (self.commit_write(admitted, fetch, now), None),
            Err(reason) => (WriteOutcome::Blocked(reason), Some(fetch)),
        }
    }

    /// Delivers a fill for `line` (its miss response arrived): the reserved
    /// line becomes valid and all merged waiters are returned for response
    /// routing.
    pub fn fill(&mut self, line: LineAddr, _now: impl Into<Picos>) -> Vec<MemFetch> {
        self.standing.0 = None;
        self.tags.fill(line, false, 0);
        self.mshr.release(line)
    }

    /// Borrows the head of the miss queue (the next downstream request).
    pub fn miss_queue_front(&self) -> Option<&MemFetch> {
        self.miss_queue.front()
    }

    /// Removes the head of the miss queue, once downstream accepted it.
    pub fn pop_miss(&mut self) -> Option<MemFetch> {
        let popped = self.miss_queue.pop();
        if popped.is_some() {
            self.standing.0 = None;
        }
        popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::AccessKind;

    fn load(id: u64, line: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(line), 0)
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Store, LineAddr::new(line), 0)
    }

    fn tiny(policy: WritePolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4 * 128, // 2 sets x 2 ways
            assoc: 2,
            mshr_entries: 2,
            mshr_merge: 2,
            miss_queue_len: 2,
            write_policy: policy,
            set_stride: 1,
        })
    }

    #[test]
    fn cold_read_issues_miss() {
        let mut c = tiny(WritePolicy::WriteEvict);
        let (r, kept) = c.access_read(load(0, 0), 0);
        assert_eq!(r, AccessResult::MissIssued);
        assert!(kept.is_none());
        assert_eq!(c.miss_queue_len(), 1);
        assert_eq!(c.mshr_used(), 1);
    }

    #[test]
    fn second_read_same_line_merges() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        let (r, _) = c.access_read(load(1, 0), 0);
        assert_eq!(r, AccessResult::MissMerged);
        assert_eq!(c.miss_queue_len(), 1, "merge generates no traffic");
    }

    #[test]
    fn merge_limit_blocks() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0); // request 1 (travels)
        c.access_read(load(1, 0), 0); // request 2 (merge)
        let (r, kept) = c.access_read(load(2, 0), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MshrMergeFull));
        assert!(kept.is_some());
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 1), 0);
        let (r, _) = c.access_read(load(2, 2), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MshrFull));
    }

    #[test]
    fn miss_queue_exhaustion_blocks() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 128,
            assoc: 2,
            mshr_entries: 8,
            mshr_merge: 8,
            miss_queue_len: 2,
            write_policy: WritePolicy::WriteEvict,
            set_stride: 1,
        });
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 1), 0);
        let (r, _) = c.access_read(load(2, 2), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MissQueueFull));
    }

    #[test]
    fn all_reserved_set_blocks() {
        // 2 ways per set; two outstanding misses to set 0, third miss to the
        // same set cannot reserve a line.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 128,
            assoc: 2,
            mshr_entries: 8,
            mshr_merge: 8,
            miss_queue_len: 8,
            write_policy: WritePolicy::WriteEvict,
            set_stride: 1,
        });
        c.access_read(load(0, 0), 0); // set 0
        c.access_read(load(1, 2), 0); // set 0 (2 sets: line % 2)
        let (r, _) = c.access_read(load(2, 4), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::NoReplaceableLine));
    }

    #[test]
    fn fill_returns_waiters_and_enables_hit() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 0), 0);
        let waiters = c.fill(LineAddr::new(0), 10);
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].id, 1);
        let (r, _) = c.access_read(load(2, 0), 20);
        assert_eq!(r, AccessResult::Hit);
    }

    #[test]
    fn write_evict_forwards_and_invalidates() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.fill(LineAddr::new(0), 0);
        let (w, _) = c.access_write(store(1, 0), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Forwarded);
        assert_eq!(c.miss_queue_len(), 2, "read miss + write-through");
        // Line was evicted by the write: next read misses again.
        let (r, _) = c.access_read(load(2, 0), 0);
        assert_ne!(r, AccessResult::Hit);
    }

    #[test]
    fn write_evict_blocked_when_queue_full() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_write(store(0, 0), Picos::ZERO);
        c.access_write(store(1, 1), Picos::ZERO);
        let (w, kept) = c.access_write(store(2, 2), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Blocked(BlockReason::MissQueueFull));
        assert!(kept.is_some());
    }

    #[test]
    fn write_back_absorbs_hit() {
        let mut c = tiny(WritePolicy::WriteBack);
        let (w, _) = c.access_write(store(0, 0), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Absorbed, "write-validate allocation");
        assert_eq!(c.miss_queue_len(), 0, "no downstream traffic");
        let (w, _) = c.access_write(store(1, 0), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Absorbed);
        assert_eq!(c.stats().write_hits, 1);
    }

    #[test]
    fn write_back_dirty_eviction_emits_writeback() {
        let mut c = tiny(WritePolicy::WriteBack);
        // Dirty two lines in set 0 (2 sets: even lines map to set 0).
        c.access_write(store(0, 0), Picos::ZERO);
        c.access_write(store(1, 2), Picos::ZERO);
        // A read miss to set 0 must evict a dirty line -> writeback queued
        // alongside the read.
        let (r, _) = c.access_read(load(2, 4), 0);
        assert_eq!(r, AccessResult::MissIssued);
        assert_eq!(c.miss_queue_len(), 2);
        assert_eq!(c.stats().writebacks, 1);
        let wb = c.miss_queue_front().unwrap();
        assert_eq!(wb.kind, AccessKind::L2WriteBack);
    }

    #[test]
    fn write_back_needs_queue_slot_for_dirty_victim() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 128,
            assoc: 2,
            mshr_entries: 8,
            mshr_merge: 8,
            miss_queue_len: 1,
            write_policy: WritePolicy::WriteBack,
            set_stride: 1,
        });
        c.access_write(store(0, 0), Picos::ZERO);
        c.access_write(store(1, 2), Picos::ZERO);
        // Fill the single-slot miss queue via a read miss to the other set.
        let (r, _) = c.access_read(load(2, 1), 0);
        assert_eq!(r, AccessResult::MissIssued);
        // Write miss to set 0 needs to evict dirty victim but queue is full.
        let (w, _) = c.access_write(store(3, 4), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Blocked(BlockReason::MissQueueFull));
    }

    #[test]
    fn read_miss_rate_counts_merges_as_misses() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0); // miss
        c.access_read(load(1, 0), 0); // merge
        c.fill(LineAddr::new(0), 0);
        c.access_read(load(2, 0), 0); // hit
        let s = c.stats();
        assert_eq!(s.reads, 3);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_merges, 1);
        assert!((s.read_miss_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.demand_misses(), 1);
    }

    #[test]
    fn blocked_access_leaves_state_unchanged() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 1), 0);
        let before_mshr = c.mshr_used();
        let before_q = c.miss_queue_len();
        let (r, kept) = c.access_read(load(2, 2), 0);
        assert!(matches!(r, AccessResult::Blocked(_)));
        assert_eq!(c.mshr_used(), before_mshr);
        assert_eq!(c.miss_queue_len(), before_q);
        assert_eq!(kept.unwrap().id, 2);
    }

    /// A cache with both MSHRs taken (lines 0 and 1 outstanding), so a
    /// read of line 2 is refused, attempted `n` more times.
    fn refused_read_of_line_2(n: u64) -> Cache {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 1), 0);
        for id in 0..=n {
            let (r, _) = c.access_read(load(2 + id, 2), 0);
            assert_eq!(r, AccessResult::Blocked(BlockReason::MshrFull));
        }
        c
    }

    #[test]
    fn standing_block_survives_retries_and_counts_each() {
        let c = refused_read_of_line_2(9);
        let line = LineAddr::new(2);
        assert_eq!(c.standing_block(line, false), Some(BlockReason::MshrFull));
        assert_eq!(c.stats().blocked, 10, "one first refusal + nine replays");
        assert_eq!(c.stats().reads, 2, "a refusal is not a lookup");
    }

    #[test]
    fn standing_block_is_keyed_on_line_and_direction() {
        let mut c = refused_read_of_line_2(0);
        assert_eq!(c.standing_block(LineAddr::new(3), false), None);
        assert_eq!(c.standing_block(LineAddr::new(2), true), None);
        // A different refused access replaces it.
        let (r, _) = c.access_read(load(9, 3), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MshrFull));
        assert_eq!(c.standing_block(LineAddr::new(2), false), None);
        assert!(c.standing_block(LineAddr::new(3), false).is_some());
    }

    #[test]
    fn fill_drops_the_standing_block() {
        let mut c = refused_read_of_line_2(0);
        c.fill(LineAddr::new(0), 0);
        assert_eq!(c.standing_block(LineAddr::new(2), false), None);
        // Recomputed: an MSHR is free now, the two-entry miss queue is not.
        let (r, _) = c.access_read(load(9, 2), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MissQueueFull));
    }

    #[test]
    fn pop_miss_drops_the_standing_block() {
        // Full miss queue: a third miss is refused until the head leaves.
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_write(store(0, 0), Picos::ZERO);
        c.access_write(store(1, 1), Picos::ZERO);
        let (w, _) = c.access_write(store(2, 2), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Blocked(BlockReason::MissQueueFull));
        assert!(c.standing_block(LineAddr::new(2), true).is_some());
        c.pop_miss();
        assert_eq!(c.standing_block(LineAddr::new(2), true), None);
        let (w, _) = c.access_write(store(3, 2), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Forwarded);
    }

    #[test]
    fn a_hit_drops_the_standing_block() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 4), 0);
        c.fill(LineAddr::new(4), 0); // line 4 resident
        c.access_read(load(1, 0), 0);
        c.access_read(load(2, 1), 0);
        c.access_read(load(3, 2), 0); // refused: both MSHRs taken
        assert!(c.standing_block(LineAddr::new(2), false).is_some());
        let (r, _) = c.access_read(load(4, 4), 0);
        assert_eq!(r, AccessResult::Hit);
        assert_eq!(c.standing_block(LineAddr::new(2), false), None);
    }

    #[test]
    fn a_merged_miss_drops_the_standing_block() {
        let mut c = refused_read_of_line_2(0);
        let (r, _) = c.access_read(load(9, 0), 0);
        assert_eq!(r, AccessResult::MissMerged);
        assert_eq!(c.standing_block(LineAddr::new(2), false), None);
    }

    #[test]
    fn an_issued_miss_drops_the_standing_block() {
        // Set 0 fully reserved refuses a third miss to it; a miss to set 1
        // then takes the last MSHR, and the same access is now refused for
        // the MSHRs, which rank first — a refusal left standing would have
        // charged the wrong cause.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 128,
            assoc: 2,
            mshr_entries: 3,
            mshr_merge: 2,
            miss_queue_len: 4,
            write_policy: WritePolicy::WriteEvict,
            set_stride: 1,
        });
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 2), 0);
        let (r, _) = c.access_read(load(2, 4), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::NoReplaceableLine));
        let (r, _) = c.access_read(load(3, 1), 0);
        assert_eq!(r, AccessResult::MissIssued);
        assert_eq!(c.standing_block(LineAddr::new(4), false), None);
        let (r, _) = c.access_read(load(4, 4), 0);
        assert_eq!(r, AccessResult::Blocked(BlockReason::MshrFull));
    }

    #[test]
    fn an_absorbed_write_drops_the_standing_block() {
        // Write-back: set 0 fully reserved refuses a write miss to it; a
        // write to set 1 is absorbed.
        let mut c = tiny(WritePolicy::WriteBack);
        c.access_read(load(0, 0), 0);
        c.access_read(load(1, 2), 0);
        let (w, _) = c.access_write(store(2, 4), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Blocked(BlockReason::NoReplaceableLine));
        assert!(c.standing_block(LineAddr::new(4), true).is_some());
        let (w, _) = c.access_write(store(3, 1), Picos::ZERO);
        assert_eq!(w, WriteOutcome::Absorbed);
        assert_eq!(c.standing_block(LineAddr::new(4), true), None);
    }

    #[test]
    fn an_admission_left_uncommitted_changes_nothing() {
        // The L2 drops a hit's admission when its data port is busy.
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(0, 0), 0);
        c.fill(LineAddr::new(0), 0);
        let before = format!("{c:?}");
        assert!(c.admit_read(LineAddr::new(0)).unwrap().is_hit());
        assert_eq!(format!("{c:?}"), before);
    }

    #[test]
    fn pop_miss_drains_fifo() {
        let mut c = tiny(WritePolicy::WriteEvict);
        c.access_read(load(7, 0), 0);
        c.access_read(load(8, 1), 0);
        assert_eq!(c.pop_miss().unwrap().id, 7);
        assert_eq!(c.pop_miss().unwrap().id, 8);
        assert!(c.pop_miss().is_none());
    }
}
