//! Bounded queues with occupancy-lifetime tracking.
//!
//! Every buffer in the simulated memory system (L1/L2 miss queues, L2 access
//! and response queues, the DRAM scheduler queue, crossbar injection ports)
//! is a [`BoundedQueue`]. Bounded capacity is what creates back-pressure —
//! the central mechanism the paper studies — and the attached
//! [`OccupancyHistogram`] reproduces the measurement behind Figs. 4 and 5:
//! the distribution of occupancy levels over the queue's *usage lifetime*
//! (cycles during which it holds at least one entry).
//!
//! This module is the one home of a raw `VecDeque` in the model crates
//! (`clippy.toml` bans it everywhere else).

#![expect(
    clippy::disallowed_types,
    reason = "the bounded-queue implementation every other buffer goes through"
)]

use std::collections::VecDeque;

/// Occupancy buckets used by the paper's Figs. 4 and 5:
/// `(0–25%) [25–50%) [50–75%) [75–100%) 100%`.
pub const OCCUPANCY_BUCKETS: usize = 5;

/// Histogram of queue occupancy over the queue's usage lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    buckets: [u64; OCCUPANCY_BUCKETS],
}

impl OccupancyHistogram {
    /// The bucket a sample of `len` of `cap` entries falls in; `None`
    /// outside the usage lifetime (`len == 0`).
    fn bucket(len: usize, cap: usize) -> Option<usize> {
        if len == 0 || cap == 0 {
            None
        } else if len >= cap {
            Some(4)
        } else {
            // Strictly-below-capacity entries fall in quartile buckets.
            Some(((4 * len) / cap).min(3))
        }
    }

    /// Records one cycle with `len` of `cap` entries occupied.
    /// Cycles with `len == 0` are outside the usage lifetime and ignored.
    pub fn record(&mut self, len: usize, cap: usize) {
        self.record_n(len, cap, 1);
    }

    /// Records `count` cycles with the same `len` of `cap` entries
    /// occupied — the bulk form of [`OccupancyHistogram::record`].
    pub fn record_n(&mut self, len: usize, cap: usize, count: u64) {
        if let Some(idx) = Self::bucket(len, cap) {
            self.buckets[idx] += count;
        }
    }

    /// Raw cycle counts per bucket.
    pub fn buckets(&self) -> [u64; OCCUPANCY_BUCKETS] {
        self.buckets
    }

    /// Total cycles in the usage lifetime.
    pub fn lifetime(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of usage lifetime per bucket; all zeros if never used.
    pub fn fractions(&self) -> [f64; OCCUPANCY_BUCKETS] {
        let total = self.lifetime();
        if total == 0 {
            return [0.0; OCCUPANCY_BUCKETS];
        }
        let mut out = [0.0; OCCUPANCY_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = *b as f64 / total as f64;
        }
        out
    }

    /// Fraction of the usage lifetime at 100% occupancy — the paper's
    /// headline congestion number ("access queues to L2 are full for 46% of
    /// their usage lifetime").
    pub fn full_fraction(&self) -> f64 {
        self.fractions()[4]
    }

    /// Accumulates another histogram into this one (used to aggregate the
    /// per-bank queues into the figure's per-benchmark bar).
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// A FIFO with fixed capacity and occupancy statistics.
///
/// `push` fails (returning the rejected value) when the queue is full; the
/// caller models that as back-pressure.
///
/// # Example
///
/// ```
/// use gmh_types::BoundedQueue;
///
/// let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3)); // full: back-pressure
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Smallest length falling in occupancy buckets 1..=4, fixed at
    /// construction so the per-cycle sample compares instead of dividing.
    bucket_floor: [usize; OCCUPANCY_BUCKETS - 1],
    hist: OccupancyHistogram,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            bucket_floor: [1, 2, 3, 4].map(|k| (k * capacity).div_ceil(4)),
            hist: OccupancyHistogram::default(),
        }
    }

    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity (pushes will fail).
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Appends an item, or returns it back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Borrows the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutably borrows the oldest item.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Iterates over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes and returns the item at `idx` (0 = oldest). Used by the
    /// FR-FCFS DRAM scheduler, which services out of order.
    pub fn remove(&mut self, idx: usize) -> Option<T> {
        self.items.remove(idx)
    }

    /// Records this cycle's occupancy into the histogram. Call once per
    /// cycle of the owning clock domain.
    pub fn sample_occupancy(&mut self) {
        self.sample_occupancy_n(1);
    }

    /// Records `count` cycles of the current (frozen) occupancy at once;
    /// the fast-forward counterpart of [`BoundedQueue::sample_occupancy`].
    pub fn sample_occupancy_n(&mut self, count: u64) {
        let len = self.items.len();
        if len > 0 {
            let idx = self.bucket_floor.iter().filter(|&&f| len >= f).count();
            self.hist.buckets[idx] += count;
        }
    }

    /// The accumulated occupancy histogram.
    pub fn occupancy(&self) -> &OccupancyHistogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut q = BoundedQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_full_returns_item() {
        let mut q = BoundedQueue::new(1);
        q.push("a").unwrap();
        assert_eq!(q.push("b"), Err("b"));
        assert!(q.is_full());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn free_tracks_remaining() {
        let mut q = BoundedQueue::new(4);
        assert_eq!(q.free(), 4);
        q.push(0).unwrap();
        assert_eq!(q.free(), 3);
    }

    #[test]
    fn remove_by_index() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.remove(2), Some(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn occupancy_ignores_empty_cycles() {
        let mut q: BoundedQueue<u8> = BoundedQueue::new(4);
        q.sample_occupancy();
        assert_eq!(q.occupancy().lifetime(), 0);
    }

    #[test]
    fn occupancy_buckets_quartiles() {
        let mut h = OccupancyHistogram::default();
        h.record(1, 8); // 12.5% -> bucket 0
        h.record(2, 8); // 25%   -> bucket 1
        h.record(4, 8); // 50%   -> bucket 2
        h.record(6, 8); // 75%   -> bucket 3
        h.record(8, 8); // 100%  -> bucket 4
        assert_eq!(h.buckets(), [1, 1, 1, 1, 1]);
        assert!((h.full_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn queue_samples_match_the_dividing_histogram() {
        for cap in 1..=40usize {
            let mut q = BoundedQueue::new(cap);
            let mut want = OccupancyHistogram::default();
            for len in 0..=cap {
                q.sample_occupancy();
                q.sample_occupancy_n(3);
                want.record_n(len, cap, 4);
                let _ = q.push(0u8);
            }
            assert_eq!(q.occupancy(), &want, "capacity {cap}");
        }
    }

    #[test]
    fn occupancy_full_bucket_only_at_capacity() {
        let mut h = OccupancyHistogram::default();
        h.record(7, 8); // 87.5% -> bucket 3, not "full"
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[4], 0);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = OccupancyHistogram::default();
        let mut b = OccupancyHistogram::default();
        a.record(8, 8);
        b.record(8, 8);
        b.record(1, 8);
        a.merge(&b);
        assert_eq!(a.buckets()[4], 2);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.lifetime(), 3);
    }

    #[test]
    fn fractions_sum_to_one_when_used() {
        let mut h = OccupancyHistogram::default();
        for i in 1..=8 {
            h.record(i, 8);
        }
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_one_queue_is_full_when_occupied() {
        let mut q = BoundedQueue::new(1);
        q.push(1u8).unwrap();
        q.sample_occupancy();
        assert_eq!(q.occupancy().buckets()[4], 1);
    }
}
