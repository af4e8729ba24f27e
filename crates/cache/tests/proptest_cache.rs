//! Property-based tests of the cache: resource conservation, MSHR
//! model-equivalence and allocate-on-miss invariants under arbitrary
//! access/fill interleavings.

use gmh_cache::{AccessResult, Cache, CacheConfig, Mshr, WriteOutcome, WritePolicy};
use gmh_types::rng::cases;
use gmh_types::{AccessKind, LineAddr, MemFetch, Picos, Xoshiro256};
use std::collections::{HashMap, HashSet, VecDeque};

fn fetch(kind: AccessKind, id: u64, line: u64) -> MemFetch {
    MemFetch::new(id, 0, (id % 48) as usize, kind, LineAddr::new(line), 0)
}

fn load(id: u64, line: u64) -> MemFetch {
    fetch(AccessKind::Load, id, line)
}

fn store(id: u64, line: u64) -> MemFetch {
    fetch(AccessKind::Store, id, line)
}

fn small_cfg(policy: WritePolicy) -> CacheConfig {
    CacheConfig {
        size_bytes: 8 * 128,
        assoc: 2,
        mshr_entries: 4,
        mshr_merge: 4,
        miss_queue_len: 4,
        write_policy: policy,
        set_stride: 1,
    }
}

/// An operation against the cache: access a line or deliver an outstanding
/// fill.
#[derive(Clone, Debug)]
enum Op {
    Read(u64),
    Write(u64),
    Fill,
    Drain,
}

fn arb_op(rng: &mut Xoshiro256) -> Op {
    match rng.below(4) {
        0 => Op::Read(rng.below(24)),
        1 => Op::Write(rng.below(24)),
        2 => Op::Fill,
        _ => Op::Drain,
    }
}

/// Conservation: every load is either a hit, a merge, a new miss or a
/// rejection; fills release exactly the merged waiters; the cache never
/// leaks or duplicates fetches.
#[test]
fn cache_conserves_fetches() {
    cases("cache_conserves_fetches", 64, |rng| {
        let mut cache = Cache::new(small_cfg(WritePolicy::WriteEvict));
        // Lines with outstanding (traveling) misses, FIFO of unfilled ones.
        let mut outstanding: VecDeque<LineAddr> = VecDeque::new();
        // Expected waiters per line.
        let mut waiters: HashMap<LineAddr, u64> = HashMap::new();
        let mut id = 0u64;
        let mut hits = 0u64;
        let mut returned_waiters = 0u64;
        let mut merged = 0u64;

        for _ in 0..rng.range(1..300) {
            match arb_op(rng) {
                Op::Read(l) => {
                    id += 1;
                    let line = LineAddr::new(l);
                    match cache.access_read(load(id, l), 0) {
                        (AccessResult::Hit, Some(_)) => hits += 1,
                        (AccessResult::MissIssued, None) => {
                            assert!(!outstanding.contains(&line));
                        }
                        (AccessResult::MissMerged, None) => {
                            merged += 1;
                            *waiters.entry(line).or_insert(0) += 1;
                        }
                        (AccessResult::Blocked(_), Some(_)) => {}
                        other => panic!("impossible outcome {other:?}"),
                    }
                }
                Op::Write(l) => {
                    id += 1;
                    match cache.access_write(store(id, l), Picos::ZERO) {
                        (WriteOutcome::Forwarded, None) => {}
                        (WriteOutcome::Blocked(_), Some(_)) => {}
                        other => panic!("write-evict gave {other:?}"),
                    }
                }
                Op::Drain => {
                    if let Some(f) = cache.pop_miss() {
                        if f.kind == AccessKind::Load {
                            outstanding.push_back(f.line);
                        }
                    }
                }
                Op::Fill => {
                    if let Some(line) = outstanding.pop_front() {
                        let got = cache.fill(line, 0);
                        let expect = waiters.remove(&line).unwrap_or(0);
                        assert_eq!(
                            got.len() as u64,
                            expect,
                            "fill must return exactly the merged waiters"
                        );
                        returned_waiters += got.len() as u64;
                        for w in got {
                            assert_eq!(w.line, line);
                        }
                    }
                }
            }
        }
        // Whatever was merged is either already returned or still parked
        // behind an unfilled outstanding miss.
        let parked: u64 = waiters.values().sum();
        assert_eq!(merged, returned_waiters + parked);
        assert_eq!(cache.stats().read_hits, hits);
    });
}

/// The MSHR behaves exactly like a bounded multimap model.
#[test]
fn mshr_matches_model() {
    cases("mshr_matches_model", 64, |rng| {
        let capacity = 3;
        let merge_cap = 3;
        let mut mshr: Mshr<u64> = Mshr::new(capacity, merge_cap);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new(); // line -> waiters
        let mut next = 0u64;
        for _ in 0..rng.range(1..200) {
            let (op, line) = (rng.below(3), rng.below(12));
            let la = LineAddr::new(line);
            match op {
                0 => {
                    // allocate
                    if model.contains_key(&line) {
                        continue; // allocate on tracked line is a caller bug
                    }
                    let r = mshr.allocate(la);
                    if model.len() < capacity {
                        assert!(r.is_ok());
                        model.insert(line, vec![]);
                    } else {
                        assert!(r.is_err());
                    }
                }
                1 => {
                    // merge
                    next += 1;
                    let r = mshr.merge(la, next);
                    match model.get_mut(&line) {
                        Some(w) if w.len() + 1 < merge_cap => {
                            assert!(r.is_ok());
                            w.push(next);
                        }
                        _ => assert!(r.is_err()),
                    }
                }
                _ => {
                    // release
                    let got = mshr.release(la);
                    let expect = model.remove(&line).unwrap_or_default();
                    assert_eq!(got, expect);
                }
            }
            assert_eq!(mshr.used(), model.len());
            for l in model.keys() {
                assert!(mshr.contains(LineAddr::new(*l)));
            }
        }
    });
}

/// Allocate-on-miss: the number of reserved lines in any set never
/// exceeds the associativity, and a blocked access leaves all counters
/// unchanged.
#[test]
fn reservations_bounded_by_assoc() {
    cases("reservations_bounded_by_assoc", 64, |rng| {
        let cfg = small_cfg(WritePolicy::WriteEvict);
        let assoc = cfg.assoc;
        let mut cache = Cache::new(cfg);
        let mut id = 0;
        for _ in 0..rng.range(1..120) {
            let l = rng.below(16);
            id += 1;
            let before = (cache.mshr_used(), cache.miss_queue_len());
            let (r, _) = cache.access_read(load(id, l), 0);
            if matches!(r, AccessResult::Blocked(_)) {
                assert_eq!((cache.mshr_used(), cache.miss_queue_len()), before);
            }
            assert!(cache.tags().reserved_in_set(LineAddr::new(l)) <= assoc);
            // Randomly drain to keep things moving.
            if id % 3 == 0 {
                cache.pop_miss();
            }
        }
    });
}

/// Write-back caches absorb every write they accept and only emit
/// write-back traffic for dirty victims (never for clean ones).
#[test]
fn writeback_traffic_only_from_dirty_victims() {
    cases("writeback_traffic_only_from_dirty_victims", 64, |rng| {
        let mut cache = Cache::new(small_cfg(WritePolicy::WriteBack));
        let mut dirtied: HashSet<u64> = HashSet::new();
        let mut id = 0;
        for _ in 0..rng.range(1..200) {
            let (is_write, l) = (rng.chance(0.5), rng.below(32));
            id += 1;
            if is_write {
                if let (WriteOutcome::Absorbed, None) =
                    cache.access_write(store(id, l), Picos::ZERO)
                {
                    dirtied.insert(l);
                }
            } else {
                let _ = cache.access_read(load(id, l), 0);
            }
            while let Some(f) = cache.pop_miss() {
                if f.kind == AccessKind::L2WriteBack {
                    assert!(
                        dirtied.contains(&f.line.index()),
                        "write-back of a never-dirtied line {:?}",
                        f.line
                    );
                } else if f.kind == AccessKind::Load {
                    // Fill immediately to keep the cache making progress.
                    cache.fill(f.line, 0);
                }
            }
        }
    });
}
