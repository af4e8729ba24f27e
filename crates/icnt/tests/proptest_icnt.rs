//! Property-based tests of the crossbar: packet conservation, per-flow
//! FIFO ordering and flit accounting under arbitrary traffic.

use gmh_icnt::Network;
use gmh_types::rng::cases;
use gmh_types::{AccessKind, LineAddr, MemFetch};
use std::collections::HashMap;

fn packet(id: u64) -> MemFetch {
    MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(id), 0)
}

/// Conservation: after draining, every injected packet is ejected at
/// its destination, exactly once.
#[test]
fn packets_are_conserved() {
    cases("packets_are_conserved", 64, |rng| {
        let traffic: Vec<(usize, usize, u32)> = (0..rng.range(1..80))
            .map(|_| (rng.range(0..4), rng.range(0..3), rng.range(8..200)))
            .collect();
        let mut net = Network::new(4, 3, 32, 16, 4, 0);
        let mut sent: HashMap<usize, Vec<u64>> = HashMap::new();
        let mut received: HashMap<usize, Vec<u64>> = HashMap::new();
        let mut id = 0u64;
        let mut pending = traffic.into_iter();
        let mut next = pending.next();
        let mut idle_cycles = 0;
        while next.is_some() || !net.is_idle() {
            if let Some((src, dst, bytes)) = next {
                if net.can_inject(src, bytes) {
                    net.inject(src, dst, packet(id), bytes).unwrap();
                    sent.entry(dst).or_default().push(id);
                    id += 1;
                    next = pending.next();
                }
            }
            net.cycle();
            let mut moved = false;
            for d in 0..3 {
                while let Some(f) = net.pop_eject(d) {
                    received.entry(d).or_default().push(f.id);
                    moved = true;
                }
            }
            idle_cycles = if moved { 0 } else { idle_cycles + 1 };
            assert!(idle_cycles < 10_000, "network deadlocked");
        }
        for d in 0..3 {
            let s = sent.get(&d).cloned().unwrap_or_default();
            let r = received.get(&d).cloned().unwrap_or_default();
            let mut ss = s.clone();
            let mut rr = r.clone();
            ss.sort_unstable();
            rr.sort_unstable();
            assert_eq!(ss, rr, "destination {} lost/duplicated packets", d);
        }
    });
}

/// Per-flow FIFO: packets from the same source to the same destination
/// arrive in injection order.
#[test]
fn same_flow_preserves_order() {
    cases("same_flow_preserves_order", 64, |rng| {
        let n = rng.range(1usize..20);
        let flit = [16u32, 32, 48][rng.range(0..3)];
        let mut net = Network::new(2, 2, flit, 32, 8, 0);
        let mut injected = 0u64;
        let mut got = Vec::new();
        let mut stall = 0;
        while got.len() < n {
            #[allow(clippy::cast_possible_truncation)]
            if (injected as usize) < n && net.can_inject(0, 136) {
                net.inject(0, 1, packet(injected), 136).unwrap();
                injected += 1;
            }
            net.cycle();
            while let Some(f) = net.pop_eject(1) {
                got.push(f.id);
            }
            stall += 1;
            assert!(stall < 100_000);
        }
        let sorted: Vec<u64> = (0..n as u64).collect();
        assert_eq!(got, sorted);
    });
}

/// Flit accounting: total flits moved equals the per-packet flit count
/// summed over delivered packets.
#[test]
fn flit_accounting() {
    cases("flit_accounting", 64, |rng| {
        let sizes: Vec<u32> = (0..rng.range(1..40)).map(|_| rng.range(1..300)).collect();
        let mut net = Network::new(1, 1, 32, 64, 8, 0);
        let mut expected_flits = 0u64;
        let mut queue = sizes.into_iter();
        let mut next = queue.next();
        let mut id = 0;
        let mut guard = 0;
        while next.is_some() || !net.is_idle() {
            if let Some(bytes) = next {
                if net.can_inject(0, bytes) {
                    expected_flits += net.flits_for(bytes) as u64;
                    net.inject(0, 0, packet(id), bytes).unwrap();
                    id += 1;
                    next = queue.next();
                }
            }
            net.cycle();
            net.pop_eject(0);
            guard += 1;
            assert!(guard < 100_000);
        }
        assert_eq!(net.stats().flits.get(), expected_flits);
        assert_eq!(net.stats().packets.get(), id);
    });
}
