//! Set-associative tag array with LRU replacement and line reservation.
//!
//! Lines can be *reserved* by outstanding misses (allocate-on-miss): the
//! victim is chosen when the miss is sent downstream and the line is
//! unusable until the fill returns. A set whose lines are all reserved
//! cannot accept a new miss — the paper's "lack of replaceable cache lines"
//! structural hazard.

use gmh_types::LineAddr;

/// State of one cache line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LineState {
    /// Holds no data.
    #[default]
    Invalid,
    /// Holds clean data.
    Valid,
    /// Holds data that must be written back on eviction (write-back caches).
    Dirty,
    /// Allocated to an outstanding miss; unusable until the fill arrives.
    Reserved,
}

#[derive(Clone, Debug, Default)]
struct Line {
    tag: u64,
    state: LineState,
    last_use: u64,
}

/// Outcome of probing the tag array for a read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeResult {
    /// The line is present (Valid or Dirty).
    Hit,
    /// The line is currently reserved by an outstanding miss to the same
    /// address (the requester should merge in the MSHR instead).
    HitReserved,
    /// Not present; a victim way is available for reservation.
    MissReplaceable,
    /// Not present and every way in the set is reserved: structural hazard.
    MissNoVictim,
}

/// A set-associative tag array.
///
/// # Example
///
/// ```
/// use gmh_cache::tag::{TagArray, ProbeResult};
/// use gmh_types::LineAddr;
///
/// let mut tags = TagArray::new(16 * 1024, 4); // 16 KB, 4-way (Fermi L1)
/// assert_eq!(tags.probe(LineAddr::new(0)), ProbeResult::MissReplaceable);
/// tags.reserve(LineAddr::new(0)).unwrap(); // allocate-on-miss
/// tags.fill(LineAddr::new(0), false, 0);   // miss response arrives
/// assert_eq!(tags.probe(LineAddr::new(0)), ProbeResult::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct TagArray {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    set_stride: u64,
    use_clock: u64,
}

impl TagArray {
    /// Creates a tag array of `size_bytes` capacity and `assoc` ways, with
    /// the crate-wide 128 B line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is zero-sized.
    pub fn new(size_bytes: u64, assoc: usize) -> Self {
        Self::with_stride(size_bytes, assoc, 1)
    }

    /// Like [`TagArray::new`], but set indexing divides the line index by
    /// `set_stride` first: `set = (line / set_stride) % n_sets`.
    ///
    /// A bank of an interleaved shared cache only ever sees every n-th line
    /// (`line % n_banks == bank`); passing `set_stride = n_banks` makes those
    /// lines spread over all sets instead of camping on a fraction of them.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly, is zero-sized, or
    /// `set_stride` is zero.
    pub fn with_stride(size_bytes: u64, assoc: usize, set_stride: usize) -> Self {
        assert!(assoc > 0, "associativity must be non-zero");
        assert!(set_stride > 0, "set stride must be non-zero");
        let lines = size_bytes / gmh_types::LINE_SIZE as u64;
        assert!(lines > 0, "cache must hold at least one line");
        assert_eq!(
            lines % assoc as u64,
            0,
            "capacity must divide evenly into sets"
        );
        // INVARIANT: set count derives from the configured cache size,
        // which the u64 arithmetic above cannot push past usize::MAX.
        let n_sets = usize::try_from(lines / assoc as u64).expect("set count fits usize");
        TagArray {
            sets: vec![vec![Line::default(); assoc]; n_sets],
            assoc,
            set_stride: set_stride as u64,
            use_clock: 0,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set `line` maps to. The cache computes it once per access and
    /// hands it to the `*_at`/`*_in` methods below.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn set_of(&self, line: LineAddr) -> usize {
        // The modulus bounds the value below sets.len().
        ((line.index() / self.set_stride) % self.sets.len() as u64) as usize
    }

    /// The way of `set` holding `line` (Valid, Dirty or Reserved), if any.
    pub(crate) fn way_in(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|l| l.state != LineState::Invalid && l.tag == line.index())
    }

    /// State of one way.
    pub(crate) fn state_at(&self, set: usize, way: usize) -> LineState {
        self.sets[set][way].state
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let s = self.set_of(line);
        self.way_in(s, line).map(|w| (s, w))
    }

    /// Probes for `line` without modifying replacement state.
    pub fn probe(&self, line: LineAddr) -> ProbeResult {
        let s = self.set_of(line);
        match self.way_in(s, line) {
            Some(w) if self.sets[s][w].state == LineState::Reserved => ProbeResult::HitReserved,
            Some(_) => ProbeResult::Hit,
            None if self.sets[s].iter().any(|l| l.state != LineState::Reserved) => {
                ProbeResult::MissReplaceable
            }
            None => ProbeResult::MissNoVictim,
        }
    }

    /// Records a use of a present line (hit path): updates LRU and, for
    /// writes in a write-back cache, marks it dirty. Returns `false` if the
    /// line is not present.
    pub fn touch(&mut self, line: LineAddr, mark_dirty: bool) -> bool {
        match self.find(line) {
            Some((s, w)) if self.sets[s][w].state != LineState::Reserved => {
                self.touch_at(s, w, mark_dirty);
                true
            }
            _ => {
                self.use_clock += 1;
                false
            }
        }
    }

    /// [`TagArray::touch`] for a way already known to hold a present
    /// (non-reserved) line.
    pub(crate) fn touch_at(&mut self, set: usize, way: usize, mark_dirty: bool) {
        self.use_clock += 1;
        let l = &mut self.sets[set][way];
        debug_assert!(matches!(l.state, LineState::Valid | LineState::Dirty));
        l.last_use = self.use_clock;
        if mark_dirty {
            l.state = LineState::Dirty;
        }
    }

    /// The way a reservation in `set` would evict — the LRU non-reserved
    /// way, invalid ways first — with the line to write back if it is
    /// dirty; `None` if every way is reserved.
    pub(crate) fn victim_in(&self, set: usize) -> Option<(usize, Option<LineAddr>)> {
        self.sets[set]
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state != LineState::Reserved)
            .min_by_key(|(_, l)| (l.state != LineState::Invalid, l.last_use))
            // Tags store the full line index, so the victim's address is
            // exact.
            .map(|(w, l)| {
                (
                    w,
                    (l.state == LineState::Dirty).then(|| LineAddr::new(l.tag)),
                )
            })
    }

    /// Previews the eviction a [`TagArray::reserve`] for `line` would
    /// perform: `Some(Some(victim_line))` if a dirty line would be written
    /// back, `Some(None)` if the eviction is clean, `None` if every way is
    /// reserved.
    pub fn peek_victim(&self, line: LineAddr) -> Option<Option<LineAddr>> {
        self.victim_in(self.set_of(line)).map(|(_, dirty)| dirty)
    }

    /// Reserves a victim way for an outstanding miss to `line`
    /// (allocate-on-miss). The LRU non-reserved way is evicted.
    ///
    /// Returns `Ok(evicted_dirty_line)` — `Some` if a dirty line had to be
    /// evicted (the caller must generate a write-back) — or `Err(())` if
    /// every way is reserved.
    #[allow(clippy::result_unit_err)]
    pub fn reserve(&mut self, line: LineAddr) -> Result<Option<LineAddr>, ()> {
        let s = self.set_of(line);
        match self.victim_in(s) {
            Some((w, evicted)) => {
                self.reserve_at(s, w, line);
                Ok(evicted)
            }
            None => {
                self.use_clock += 1;
                Err(())
            }
        }
    }

    /// Reserves `way` of `set` — the way [`TagArray::victim_in`] just chose
    /// — for an outstanding miss to `line`.
    pub(crate) fn reserve_at(&mut self, set: usize, way: usize, line: LineAddr) {
        debug_assert_eq!(set, self.set_of(line));
        self.use_clock += 1;
        let l = &mut self.sets[set][way];
        debug_assert_ne!(l.state, LineState::Reserved);
        l.tag = line.index();
        l.state = LineState::Reserved;
        l.last_use = self.use_clock;
    }

    /// Completes the fill for a previously reserved `line`, making it Valid
    /// (or Dirty if `dirty`). Also handles fills into unreserved sets (used
    /// by write-validate allocations). Returns `true` if a reservation was
    /// satisfied.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, _now: u64) -> bool {
        match self.find(line) {
            Some((s, w)) => self.fill_at(s, w, dirty),
            None => {
                self.use_clock += 1;
                false
            }
        }
    }

    /// [`TagArray::fill`] for a way already known to hold the line.
    pub(crate) fn fill_at(&mut self, set: usize, way: usize, dirty: bool) -> bool {
        self.use_clock += 1;
        let l = &mut self.sets[set][way];
        let was_reserved = l.state == LineState::Reserved;
        l.state = if dirty {
            LineState::Dirty
        } else {
            LineState::Valid
        };
        l.last_use = self.use_clock;
        was_reserved
    }

    /// Invalidates `line` if present (L1 write-evict policy). Returns whether
    /// it was present and valid.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let s = self.set_of(line);
        self.invalidate_in(s, line)
    }

    /// [`TagArray::invalidate`] with the set already computed.
    pub(crate) fn invalidate_in(&mut self, set: usize, line: LineAddr) -> bool {
        match self.way_in(set, line) {
            Some(w) if self.sets[set][w].state != LineState::Reserved => {
                self.sets[set][w].state = LineState::Invalid;
                true
            }
            _ => false,
        }
    }

    /// Number of reserved lines in the set containing `line` (diagnostics).
    pub fn reserved_in_set(&self, line: LineAddr) -> usize {
        let s = self.set_of(line);
        self.sets[s]
            .iter()
            .filter(|l| l.state == LineState::Reserved)
            .count()
    }

    /// Functional access used by the ideal-memory models: returns `true` on
    /// hit; on miss, installs the line immediately (no reservation).
    pub fn access_functional(&mut self, line: LineAddr, write: bool) -> bool {
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some((s, w)) = self.find(line) {
            let l = &mut self.sets[s][w];
            l.last_use = clock;
            if write {
                l.state = LineState::Dirty;
            }
            return true;
        }
        // Install over LRU victim (reservations never exist on this path).
        let s = self.set_of(line);
        // INVARIANT: sets are non-empty (associativity is validated > 0).
        let w = self.sets[s]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.state != LineState::Invalid, l.last_use))
            .map(|(w, _)| w)
            .expect("non-zero associativity");
        let l = &mut self.sets[s][w];
        l.tag = line.index();
        l.state = if write {
            LineState::Dirty
        } else {
            LineState::Valid
        };
        l.last_use = clock;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray {
        // 2 sets x 2 ways.
        TagArray::new(4 * 128, 2)
    }

    fn addr_in_set(set: u64, k: u64, n_sets: u64) -> LineAddr {
        LineAddr::new(set + k * n_sets)
    }

    #[test]
    fn geometry() {
        let t = TagArray::new(16 * 1024, 4);
        assert_eq!(t.n_sets(), 32);
        assert_eq!(t.assoc(), 4);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let _ = TagArray::new(3 * 128, 2);
    }

    #[test]
    fn cold_probe_is_replaceable_miss() {
        let t = small();
        assert_eq!(t.probe(LineAddr::new(0)), ProbeResult::MissReplaceable);
    }

    #[test]
    fn fill_then_hit() {
        let mut t = small();
        t.reserve(LineAddr::new(0)).unwrap();
        assert_eq!(t.probe(LineAddr::new(0)), ProbeResult::HitReserved);
        assert!(t.fill(LineAddr::new(0), false, 0));
        assert_eq!(t.probe(LineAddr::new(0)), ProbeResult::Hit);
    }

    #[test]
    fn all_ways_reserved_blocks() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let b = addr_in_set(0, 1, 2);
        let c = addr_in_set(0, 2, 2);
        t.reserve(a).unwrap();
        t.reserve(b).unwrap();
        assert_eq!(t.probe(c), ProbeResult::MissNoVictim);
        assert!(t.reserve(c).is_err());
        assert_eq!(t.reserved_in_set(c), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let b = addr_in_set(0, 1, 2);
        let c = addr_in_set(0, 2, 2);
        t.reserve(a).unwrap();
        t.fill(a, false, 0);
        t.reserve(b).unwrap();
        t.fill(b, false, 0);
        t.touch(a, false); // a is now MRU
        t.reserve(c).unwrap(); // must evict b
        assert_eq!(t.probe(a), ProbeResult::Hit);
        // b was evicted; the set now holds valid a + reserved c, so b misses
        // but could still replace a.
        assert_eq!(t.probe(b), ProbeResult::MissReplaceable);
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let b = addr_in_set(0, 1, 2);
        let c = addr_in_set(0, 2, 2);
        for &x in &[a, b] {
            t.reserve(x).unwrap();
            t.fill(x, false, 0);
        }
        t.touch(a, true); // dirty a, and make it MRU
        t.touch(b, false); // b clean, MRU now b... a older but dirty
        let evicted = t.reserve(c).unwrap();
        assert_eq!(evicted, Some(a), "LRU dirty victim must be written back");
    }

    #[test]
    fn clean_eviction_reports_none() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let c = addr_in_set(0, 2, 2);
        t.reserve(a).unwrap();
        t.fill(a, false, 0);
        assert_eq!(t.reserve(c).unwrap(), None);
    }

    #[test]
    fn invalid_ways_preferred_over_valid() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let c = addr_in_set(0, 2, 2);
        t.reserve(a).unwrap();
        t.fill(a, false, 0);
        // One way valid (a), one invalid: reserving c must take the invalid
        // way, keeping a resident.
        t.reserve(c).unwrap();
        assert_eq!(t.probe(a), ProbeResult::Hit);
    }

    #[test]
    fn touch_miss_returns_false() {
        let mut t = small();
        assert!(!t.touch(LineAddr::new(5), false));
    }

    #[test]
    fn touch_reserved_returns_false() {
        let mut t = small();
        t.reserve(LineAddr::new(0)).unwrap();
        assert!(!t.touch(LineAddr::new(0), false));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = small();
        t.reserve(LineAddr::new(0)).unwrap();
        t.fill(LineAddr::new(0), false, 0);
        assert!(t.invalidate(LineAddr::new(0)));
        assert_eq!(t.probe(LineAddr::new(0)), ProbeResult::MissReplaceable);
        assert!(!t.invalidate(LineAddr::new(0)));
    }

    #[test]
    fn invalidate_reserved_refused() {
        let mut t = small();
        t.reserve(LineAddr::new(0)).unwrap();
        assert!(!t.invalidate(LineAddr::new(0)));
        assert_eq!(t.probe(LineAddr::new(0)), ProbeResult::HitReserved);
    }

    #[test]
    fn functional_access_installs() {
        let mut t = small();
        assert!(!t.access_functional(LineAddr::new(0), false));
        assert!(t.access_functional(LineAddr::new(0), false));
    }

    #[test]
    fn functional_access_lru() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let b = addr_in_set(0, 1, 2);
        let c = addr_in_set(0, 2, 2);
        t.access_functional(a, false);
        t.access_functional(b, false);
        t.access_functional(a, false); // a MRU
        t.access_functional(c, false); // evict b
        assert!(t.access_functional(a, false));
        assert!(!t.access_functional(b, false));
    }

    #[test]
    fn peek_victim_matches_reserve() {
        let mut t = small();
        let a = addr_in_set(0, 0, 2);
        let b = addr_in_set(0, 1, 2);
        let c = addr_in_set(0, 2, 2);
        for &x in &[a, b] {
            t.reserve(x).unwrap();
            t.fill(x, false, 0);
        }
        t.touch(a, true); // a dirty + LRU after b touch
        t.touch(b, false);
        assert_eq!(t.peek_victim(c), Some(Some(a)));
        assert_eq!(t.reserve(c).unwrap(), Some(a));
    }

    #[test]
    fn peek_victim_none_when_all_reserved() {
        let mut t = small();
        t.reserve(addr_in_set(0, 0, 2)).unwrap();
        t.reserve(addr_in_set(0, 1, 2)).unwrap();
        assert_eq!(t.peek_victim(addr_in_set(0, 2, 2)), None);
    }

    #[test]
    fn fill_unknown_line_returns_false() {
        let mut t = small();
        assert!(!t.fill(LineAddr::new(77), false, 0));
    }
}
