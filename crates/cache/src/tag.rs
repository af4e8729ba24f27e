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

/// A set-associative tag array.
///
/// [`crate::Cache`] drives it by `(set, way)`: it computes the set once per
/// access, then looks up, picks a victim, reserves, touches and fills ways
/// of it.
///
/// # Example
///
/// ```
/// use gmh_cache::tag::TagArray;
/// use gmh_types::LineAddr;
///
/// let mut tags = TagArray::new(16 * 1024, 4); // 16 KB, 4-way (Fermi L1)
/// assert!(!tags.access_functional(LineAddr::new(0), false)); // cold miss installs
/// assert!(tags.access_functional(LineAddr::new(0), false)); // then hits
/// ```
#[derive(Clone, Debug)]
pub struct TagArray {
    /// Every way of every set, way `w` of set `s` at `s * assoc + w`.
    lines: Vec<Line>,
    assoc: usize,
    n_sets: u64,
    /// `n_sets - 1` when `n_sets` is a power of two (every Table I and
    /// Table III geometry), so the set index is a mask, not a division.
    set_mask: Option<u64>,
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
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: set count derives from the configured cache size, which the u64 \
                arithmetic above cannot push past usize::MAX."
        )]
        let n_sets = usize::try_from(lines / assoc as u64).expect("set count fits usize");
        TagArray {
            lines: vec![Line::default(); n_sets * assoc],
            assoc,
            n_sets: n_sets as u64,
            set_mask: n_sets.is_power_of_two().then(|| n_sets as u64 - 1),
            set_stride: set_stride as u64,
            use_clock: 0,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.lines.len() / self.assoc
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set `line` maps to. The cache computes it once per access and
    /// hands it to the `*_at`/`*_in` methods below.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the mask or modulus bounds the value below n_sets, a usize"
    )]
    pub(crate) fn set_of(&self, line: LineAddr) -> usize {
        let i = line.index() / self.set_stride;
        (match self.set_mask {
            Some(mask) => i & mask,
            None => i % self.n_sets,
        }) as usize
    }

    /// The ways of `set`.
    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Way `way` of `set`.
    fn line_mut(&mut self, set: usize, way: usize) -> &mut Line {
        &mut self.lines[set * self.assoc + way]
    }

    /// The way of `set` holding `line` (Valid, Dirty or Reserved), if any.
    pub(crate) fn way_in(&self, set: usize, line: LineAddr) -> Option<usize> {
        self.set(set)
            .iter()
            .position(|l| l.state != LineState::Invalid && l.tag == line.index())
    }

    /// State of one way.
    pub(crate) fn state_at(&self, set: usize, way: usize) -> LineState {
        self.lines[set * self.assoc + way].state
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let s = self.set_of(line);
        self.way_in(s, line).map(|w| (s, w))
    }

    /// Records a use of the present (non-reserved) line in `way` of `set`
    /// (hit path): updates LRU and, for writes in a write-back cache, marks
    /// it dirty.
    pub(crate) fn touch_at(&mut self, set: usize, way: usize, mark_dirty: bool) {
        self.use_clock += 1;
        let clock = self.use_clock;
        let l = self.line_mut(set, way);
        debug_assert!(matches!(l.state, LineState::Valid | LineState::Dirty));
        l.last_use = clock;
        if mark_dirty {
            l.state = LineState::Dirty;
        }
    }

    /// The way a reservation in `set` would evict — the LRU non-reserved
    /// way, invalid ways first — with the line to write back if it is
    /// dirty; `None` if every way is reserved.
    pub(crate) fn victim_in(&self, set: usize) -> Option<(usize, Option<LineAddr>)> {
        self.set(set)
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

    /// Reserves `way` of `set` — the way [`TagArray::victim_in`] just chose
    /// — for an outstanding miss to `line` (allocate-on-miss).
    pub(crate) fn reserve_at(&mut self, set: usize, way: usize, line: LineAddr) {
        debug_assert_eq!(set, self.set_of(line));
        self.use_clock += 1;
        let clock = self.use_clock;
        let l = self.line_mut(set, way);
        debug_assert_ne!(l.state, LineState::Reserved);
        l.tag = line.index();
        l.state = LineState::Reserved;
        l.last_use = clock;
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
        let clock = self.use_clock;
        let l = self.line_mut(set, way);
        let was_reserved = l.state == LineState::Reserved;
        l.state = if dirty {
            LineState::Dirty
        } else {
            LineState::Valid
        };
        l.last_use = clock;
        was_reserved
    }

    /// Invalidates `line` in `set` if present and not reserved (L1
    /// write-evict policy). Returns whether it was.
    pub(crate) fn invalidate_in(&mut self, set: usize, line: LineAddr) -> bool {
        match self.way_in(set, line) {
            Some(w) if self.state_at(set, w) != LineState::Reserved => {
                self.line_mut(set, w).state = LineState::Invalid;
                true
            }
            _ => false,
        }
    }

    /// Number of reserved lines in the set containing `line` (diagnostics).
    pub fn reserved_in_set(&self, line: LineAddr) -> usize {
        self.set(self.set_of(line))
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
            let l = self.line_mut(s, w);
            l.last_use = clock;
            if write {
                l.state = LineState::Dirty;
            }
            return true;
        }
        // Install over LRU victim (reservations never exist on this path).
        let s = self.set_of(line);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: sets are non-empty (associativity is validated > 0)."
        )]
        let w = self
            .set(s)
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.state != LineState::Invalid, l.last_use))
            .map(|(w, _)| w)
            .expect("non-zero associativity");
        let l = self.line_mut(s, w);
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

    /// The `k`-th line mapping to set 0 of [`small`].
    fn line(k: u64) -> LineAddr {
        LineAddr::new(2 * k)
    }

    /// Allocate-on-miss as `Cache` does it: pick the victim of `line`'s set
    /// and reserve it. Returns the dirty line to write back, or `None` when
    /// every way is reserved.
    fn reserve(t: &mut TagArray, line: LineAddr) -> Option<Option<LineAddr>> {
        let set = t.set_of(line);
        let (way, dirty) = t.victim_in(set)?;
        t.reserve_at(set, way, line);
        Some(dirty)
    }

    fn state(t: &TagArray, line: LineAddr) -> Option<LineState> {
        let set = t.set_of(line);
        t.way_in(set, line).map(|way| t.state_at(set, way))
    }

    fn touch(t: &mut TagArray, line: LineAddr, dirty: bool) {
        let set = t.set_of(line);
        let way = t.way_in(set, line).expect("line is present");
        t.touch_at(set, way, dirty);
    }

    /// Reserves then fills each line, clean.
    fn install(t: &mut TagArray, lines: &[LineAddr]) {
        for &l in lines {
            reserve(t, l).expect("a way is free");
            assert!(t.fill(l, false, 0));
        }
    }

    #[test]
    fn geometry() {
        let t = TagArray::new(16 * 1024, 4);
        assert_eq!(t.n_sets(), 32);
        assert_eq!(t.assoc(), 4);
    }

    #[test]
    fn set_index_is_the_strided_line_modulo_the_sets() {
        // Power-of-two set counts take the mask, the others the modulus.
        for (size, assoc, stride) in [(16 * 1024, 4, 1), (64 * 1024, 8, 12), (6 * 128, 2, 1)] {
            let t = TagArray::with_stride(size, assoc, stride);
            for i in (0..5000).chain([u64::MAX / 3, u64::MAX]) {
                let want = (i / stride as u64) % t.n_sets() as u64;
                assert_eq!(
                    t.set_of(LineAddr::new(i)) as u64,
                    want,
                    "line {i} of {size} B"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let _ = TagArray::new(3 * 128, 2);
    }

    #[test]
    fn fill_satisfies_a_reservation() {
        let mut t = small();
        assert_eq!(reserve(&mut t, line(0)), Some(None));
        assert_eq!(state(&t, line(0)), Some(LineState::Reserved));
        assert!(t.fill(line(0), false, 0));
        assert_eq!(state(&t, line(0)), Some(LineState::Valid));
        // A second fill of the now-valid line satisfies nothing.
        let way = t.way_in(0, line(0)).unwrap();
        assert!(!t.fill_at(0, way, true));
        assert_eq!(state(&t, line(0)), Some(LineState::Dirty));
    }

    #[test]
    fn fill_unknown_line_returns_false() {
        let mut t = small();
        assert!(!t.fill(LineAddr::new(77), false, 0));
    }

    #[test]
    fn all_ways_reserved_refuses_a_victim() {
        let mut t = small();
        reserve(&mut t, line(0)).unwrap();
        reserve(&mut t, line(1)).unwrap();
        assert_eq!(t.victim_in(0), None);
        assert_eq!(reserve(&mut t, line(2)), None);
        assert_eq!(t.reserved_in_set(line(2)), 2);
        // The other set is untouched.
        assert_eq!(t.victim_in(1), Some((0, None)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = small();
        install(&mut t, &[line(0), line(1)]);
        touch(&mut t, line(0), false); // line 0 is now MRU
        reserve(&mut t, line(2)).unwrap(); // must evict line 1
        assert_eq!(state(&t, line(0)), Some(LineState::Valid));
        assert_eq!(state(&t, line(1)), None);
        assert_eq!(state(&t, line(2)), Some(LineState::Reserved));
    }

    #[test]
    fn invalid_ways_are_chosen_before_valid_ones() {
        let mut t = small();
        install(&mut t, &[line(0)]);
        // One way valid (line 0), one invalid: the invalid one is the
        // victim even though line 0 was used longer ago.
        assert_eq!(t.victim_in(0), Some((1, None)));
        reserve(&mut t, line(2)).unwrap();
        assert_eq!(state(&t, line(0)), Some(LineState::Valid));
    }

    #[test]
    fn a_dirty_victim_is_reported_and_a_clean_one_is_not() {
        let mut t = small();
        install(&mut t, &[line(0), line(1)]);
        touch(&mut t, line(0), true); // dirty line 0 ...
        touch(&mut t, line(1), false); // ... then make line 1 MRU
        assert_eq!(reserve(&mut t, line(2)), Some(Some(line(0))));
        // Line 1 is clean: evicting it reports nothing to write back.
        let mut t = small();
        install(&mut t, &[line(0), line(1)]);
        assert_eq!(reserve(&mut t, line(2)), Some(None));
    }

    #[test]
    fn invalidate_removes_a_present_line_and_refuses_a_reserved_one() {
        let mut t = small();
        install(&mut t, &[line(0)]);
        assert!(t.invalidate_in(0, line(0)));
        assert_eq!(state(&t, line(0)), None);
        assert!(!t.invalidate_in(0, line(0)));
        reserve(&mut t, line(1)).unwrap();
        assert!(!t.invalidate_in(0, line(1)));
        assert_eq!(state(&t, line(1)), Some(LineState::Reserved));
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
        t.access_functional(line(0), false);
        t.access_functional(line(1), false);
        t.access_functional(line(0), false); // line 0 MRU
        t.access_functional(line(2), false); // evicts line 1
        assert!(t.access_functional(line(0), false));
        assert!(!t.access_functional(line(1), false));
    }
}
