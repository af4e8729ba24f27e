//! Property-based tests of the GDDR5 channel: liveness (every read
//! responds), latency floors from the timing constraints, and conservation
//! under arbitrary request streams.

use gmh_dram::{DramChannel, DramConfig, DramTiming};
use gmh_types::rng::cases;
use gmh_types::{AccessKind, LineAddr, MemFetch};

fn cfg() -> DramConfig {
    DramConfig {
        fixed_latency: 0,
        ..DramConfig::gtx480()
    }
}

fn load(id: u64, line: u64) -> MemFetch {
    MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(line), 0)
}

fn store(id: u64, line: u64) -> MemFetch {
    MemFetch::new(id, 0, 0, AccessKind::Store, LineAddr::new(line), 0)
}

/// Liveness + conservation: every accepted read eventually responds,
/// exactly once, regardless of the request mix. FR-FCFS must not
/// starve row-conflict requests into the liveness bound.
#[test]
fn every_read_responds_exactly_once() {
    cases("every_read_responds_exactly_once", 64, |rng| {
        let mut ch = DramChannel::new(cfg(), 0);
        let mut expected = Vec::new();
        let mut now = 0u64;
        let mut got = Vec::new();
        for i in 0..rng.range(1..60) {
            // Route to channel 0; make room if the queue is full.
            let line = rng.below(1 << 14) * 6;
            while !ch.can_accept() {
                ch.cycle(now);
                now += 1;
                if let Some(r) = ch.pop_response() {
                    got.push(r.id);
                }
                assert!(now < 1_000_000, "queue never drained");
            }
            if rng.chance(0.5) {
                ch.push(store(i, line), now).unwrap();
            } else {
                ch.push(load(i, line), now).unwrap();
                expected.push(i);
            }
        }
        let deadline = now + 200_000;
        while !ch.is_idle() {
            ch.cycle(now);
            now += 1;
            if let Some(r) = ch.pop_response() {
                got.push(r.id);
            }
            assert!(now < deadline, "channel failed to drain");
        }
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// Latency floor: no read completes faster than tRCD + CL + burst
/// (the physically minimal activate → data path).
#[test]
fn read_latency_floor() {
    cases("read_latency_floor", 64, |rng| {
        let t = DramTiming::gtx480();
        let floor = t.rcd + t.cl + 4; // 4 = 128B burst at 32B/clock
        let mut ch = DramChannel::new(cfg(), 0);
        let mut now = 0u64;
        let mut submit: std::collections::HashMap<u64, u64> = Default::default();
        for i in 0..rng.range(1..20) {
            while !ch.can_accept() {
                ch.cycle(now);
                now += 1;
                ch.pop_response();
            }
            submit.insert(i, now);
            ch.push(load(i, rng.below(1 << 12) * 6), now).unwrap();
        }
        let mut served = 0;
        while served < submit.len() && now < 500_000 {
            ch.cycle(now);
            now += 1;
            if let Some(r) = ch.pop_response() {
                served += 1;
                let t0 = submit[&r.id];
                // A row may already be open (saving tRCD), so the hard
                // floor is CL + burst.
                let (lat, cas_floor) = (now - t0, t.cl + 4);
                assert!(
                    lat >= cas_floor,
                    "response after {lat} cycles, CAS floor is {cas_floor}"
                );
                // And a cold bank can never beat ACT+CAS+burst.
                if served == 1 {
                    assert!(
                        lat >= floor,
                        "first response after {lat} cycles, floor {floor}"
                    );
                }
            }
        }
        assert_eq!(served, submit.len());
    });
}

/// Bandwidth-efficiency accounting never exceeds 1 and the stats stay
/// internally consistent (ACTs ≤ CAS count + queued, etc.).
#[test]
fn stats_are_consistent() {
    cases("stats_are_consistent", 64, |rng| {
        let n = rng.range(1..50);
        let mut ch = DramChannel::new(cfg(), 0);
        let mut now = 0u64;
        for i in 0..n {
            while !ch.can_accept() {
                ch.cycle(now);
                now += 1;
                ch.pop_response();
            }
            ch.push(load(i, rng.below(1 << 10) * 6), now).unwrap();
        }
        while !ch.is_idle() && now < 500_000 {
            ch.cycle(now);
            now += 1;
            ch.pop_response();
        }
        let s = ch.stats();
        assert!(s.efficiency.ratio() <= 1.0);
        assert_eq!(s.reads, n);
        assert!(s.row_hit_rate() >= 0.0 && s.row_hit_rate() <= 1.0);
        // Every ACT needs a reason: at most one per serviced request.
        assert!(s.activates <= s.reads + s.writes);
    });
}
