//! The load-store unit's memory pipeline.
//!
//! Issued memory instructions deposit their coalesced accesses here; one
//! access per core cycle attempts the L1. The pipeline depth is Table III's
//! *memory pipeline width* (10 baseline, 40 scaled): when it is full, no
//! memory instruction can issue — a structural hazard (str-MEM) — and when
//! its head is blocked by the L1 (MSHR/line/miss-queue contention), the
//! whole unit stalls behind it, serializing even later cache hits (the
//! Fig. 6 effect).

use gmh_types::{BoundedQueue, MemFetch};

/// The memory pipeline between issue and the L1 data cache.
#[derive(Clone, Debug)]
pub struct LoadStoreUnit {
    queue: BoundedQueue<MemFetch>,
}

impl LoadStoreUnit {
    /// Creates a pipeline `width` accesses deep.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        LoadStoreUnit {
            queue: BoundedQueue::new(width),
        }
    }

    /// Whether `n` more accesses fit (a warp memory instruction needs all
    /// of its coalesced accesses to fit at once).
    pub fn can_accept(&self, n: usize) -> bool {
        self.queue.free() >= n
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Deposits one access.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is full — callers must check
    /// [`LoadStoreUnit::can_accept`] at issue.
    pub fn push(&mut self, fetch: MemFetch) {
        self.queue
            .push(fetch)
            .unwrap_or_else(|_| panic!("LSU overflow: issue checked can_accept"));
    }

    /// The access that will try the L1 next.
    pub fn head(&self) -> Option<&MemFetch> {
        self.queue.front()
    }

    /// Removes the head access (it was accepted by the L1).
    pub fn pop(&mut self) -> Option<MemFetch> {
        self.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::{AccessKind, LineAddr};

    fn access(id: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(id), 0)
    }

    #[test]
    fn capacity_gates_acceptance() {
        let mut l = LoadStoreUnit::new(3);
        assert!(l.can_accept(3));
        assert!(!l.can_accept(4));
        l.push(access(0));
        assert!(l.can_accept(2));
        assert!(!l.can_accept(3));
    }

    #[test]
    fn fifo_order() {
        let mut l = LoadStoreUnit::new(4);
        l.push(access(1));
        l.push(access(2));
        assert_eq!(l.head().unwrap().id, 1);
        assert_eq!(l.pop().unwrap().id, 1);
        assert_eq!(l.pop().unwrap().id, 2);
        assert!(l.pop().is_none());
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "LSU overflow")]
    fn overflow_panics() {
        let mut l = LoadStoreUnit::new(1);
        l.push(access(0));
        l.push(access(1));
    }
}
