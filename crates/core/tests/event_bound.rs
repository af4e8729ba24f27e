//! Conservativeness property tests for every [`Component`] implementor.
//!
//! The contract ([`gmh_types::EventBound`]): a component answering
//! `QuietUntil { bound }` is *inert* on every own-domain tick strictly
//! below `bound` — apart from the constant per-cycle bookkeeping its bulk
//! skip hook reproduces. These tests drive each component with random
//! traffic, and whenever a probe promises a quiet window they fork the
//! component: one copy lives through the window tick by tick, the other
//! takes the `skip_cycles` shortcut. The two must end in equal observable
//! state (`Debug` covers every field on the derived impls), which is
//! exactly the property that makes the event-driven run loop bit-identical
//! to the one-tick oracle.

use gmh_cache::CacheConfig;
use gmh_core::L2Bank;
use gmh_dram::{DramChannel, DramConfig};
use gmh_icnt::Network;
use gmh_simt::inst::{Inst, InstSource};
use gmh_simt::{CoreConfig, SimtCore};
use gmh_types::rng::cases;
use gmh_types::trace::TraceSink;
use gmh_types::{AccessKind, ClockDomain, Component, EventBound, LineAddr, MemFetch, Tick};
use std::fmt::Debug;

fn load(id: u64, line: u64) -> MemFetch {
    MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(line), 0)
}

/// Own-domain tick `cyc` (1-based) of a component clocked at 1 GHz.
fn tick<C: Component>(c: &mut C, cyc: u64) {
    let (now_ps, trace) = (
        ClockDomain::new(1000).tick_instant(cyc),
        &mut TraceSink::disabled(),
    );
    c.tick(&mut Tick { now_ps, cyc, trace });
}

/// The fork-and-compare step, for two copies of one component in the same
/// state after `done` ticks (clones of it, or — a core owns a boxed
/// instruction source and is not `Clone` — twins driven in lock-step).
/// When the probe promises a window, `lived` ticks through the widest skip
/// it licenses (ticks `done + 1 ..= bound - 1`), `skipped` takes it in one
/// `skip_cycles`, and the two must be indistinguishable after it, and
/// again after the real tick at `bound`. Returns the ticks both advanced.
fn assert_skip_matches_cycling<C: Component + Debug>(
    lived: &mut C,
    skipped: &mut C,
    done: u64,
) -> u64 {
    let probe = lived.next_event_bound();
    assert_eq!(probe, skipped.next_event_bound(), "twins agree");
    let EventBound::QuietUntil { bound } = probe else {
        return 0;
    };
    // Waiting on external input alone licenses a window of any width.
    let bound = bound.unwrap_or(done + 6);
    if bound <= done + 1 {
        return 0;
    }
    for cyc in done + 1..bound {
        tick(lived, cyc);
    }
    skipped.skip_cycles(bound - 1 - done);
    assert_eq!(format!("{lived:?}"), format!("{skipped:?}"));
    // The wake tick: both copies must act identically on it.
    tick(lived, bound);
    tick(skipped, bound);
    assert_eq!(format!("{lived:?}"), format!("{skipped:?}"));
    bound - done
}

/// Crossbar: skipping a promised-quiet window is indistinguishable
/// from living through it. Windows open while injected packets sit
/// out their router latency. Shapes: a small switch and the shipped
/// request (15 cores -> 12 banks) and reply (12 -> 15) networks.
#[test]
fn network_quiet_window_matches_cycling() {
    cases("network_quiet_window_matches_cycling", 64, |rng| {
        let (n_src, n_dst) = [(4, 3), (15, 12), (12, 15)][rng.range(0..3)];
        let speedup = rng.range(1..3);
        let pre = rng.below(4);
        let latency = rng.range(2..30);
        let mut net = Network::with_speedup(n_src, n_dst, 32, 64, 8, latency, speedup);
        let mut now = 0u64;
        for i in 0..rng.range(1..24) {
            let (src, dst) = (rng.range(0..15) % n_src, rng.range(0..15) % n_dst);
            let _ = net.inject(src, dst, load(i, i), rng.range(1..256));
            for _ in 0..pre {
                now += 1;
                tick(&mut net, now);
            }
            assert_skip_matches_cycling(&mut net.clone(), &mut net.clone(), now);
            // Drain the ejection side so buffers keep turning over.
            for d in 0..n_dst {
                let _ = net.pop_eject(d);
            }
        }
    });
}

/// DRAM channel: quiet windows open while queued requests wait out
/// their visibility latency and bursts fly through the banks.
#[test]
fn dram_quiet_window_matches_cycling() {
    cases("dram_quiet_window_matches_cycling", 64, |rng| {
        let pre = rng.below(6);
        let mut ch = DramChannel::new(DramConfig::gtx480(), 0);
        let mut now = 0u64;
        for i in 0..rng.range(1..20) {
            let kind = [AccessKind::Load, AccessKind::Store][rng.range(0..2)];
            let line = rng.below(1 << 12) * 6; // route to channel 0
            let f = MemFetch::new(i, 0, 0, kind, LineAddr::new(line), 0);
            if ch.can_accept() {
                ch.push(f, now).unwrap();
            }
            for _ in 0..pre {
                now += 1;
                tick(&mut ch, now);
                let _ = ch.pop_response();
            }
            assert_skip_matches_cycling(&mut ch.clone(), &mut ch.clone(), now);
        }
    });
}

/// L2 bank: quiet windows open while a parked response waits for its
/// pipeline-release cycle, and while the bank waits for input. An ideal
/// DRAM fills every miss at once, so repeated lines hit.
#[test]
fn l2bank_quiet_window_matches_cycling() {
    cases("l2bank_quiet_window_matches_cycling", 64, |rng| {
        let lat = rng.range(1..12);
        let pre = rng.below(3);
        let mut bank = L2Bank::new(CacheConfig::fermi_l2_bank(), 8, 8, 128, lat);
        let mut now = 0u64;
        for i in 0..rng.range(1..12) {
            let _ = bank.push_access(load(i, rng.below(64)));
            for _ in 0..(pre + 1) {
                now += 1;
                tick(&mut bank, now);
            }
            while let Some(line) = bank.miss_queue_front().map(|f| f.line) {
                if bank.response_free() < bank.fill_response_needs(line) {
                    break;
                }
                let f = bank.pop_miss().expect("peeked");
                bank.deliver_fill(f, now * 1000);
            }
            assert_skip_matches_cycling(&mut bank.clone(), &mut bank.clone(), now);
            let _ = bank.pop_response();
        }
    });
}

/// A deterministic pure-ALU stream: chained dependences at `latency`, so
/// the issue stage stalls on data-ALU hazards and the probe opens bounded
/// quiet windows (`bound = alu_ready_at`).
struct ChainSource {
    per_warp: u64,
    latency: u32,
}

impl InstSource for ChainSource {
    fn next_inst(&mut self, _warp: usize) -> Option<Inst> {
        if self.per_warp == 0 {
            return None;
        }
        self.per_warp -= 1;
        Some(Inst::alu(self.latency).after_alu())
    }

    fn code_lines(&self) -> u64 {
        1
    }
}

/// Zero-latency instruction memory: every I-miss is served the moment it
/// would inject into the interconnect. Applied identically to both the
/// lived-through and the post-skip core, so divergence can only come from
/// the skip hook itself.
fn serve_imisses(core: &mut SimtCore) {
    while let Some(f) = core.pop_outgoing() {
        core.push_response(f).expect("response fifo has room");
    }
}

/// SIMT core: living through an ALU-dependence window equals skipping
/// it — clock, issue counts, and the per-cycle stall attribution all
/// match (the skip hook replays the window's own stall class).
#[test]
fn core_quiet_window_matches_cycling() {
    cases("core_quiet_window_matches_cycling", 64, |rng| {
        let latency = rng.range(2..120);
        let insts = rng.range(2..12);
        let drive = rng.range(1..5);
        let cfg = CoreConfig {
            max_warps: 2,
            ..CoreConfig::gtx480()
        };
        let mk = || {
            SimtCore::new(
                0,
                cfg.clone(),
                Box::new(ChainSource {
                    per_warp: insts,
                    latency,
                }),
            )
        };
        let mut lived = mk();
        let mut skipped = mk();
        let mut now = 0u64;
        for _ in 0..200 {
            if lived.done() {
                break;
            }
            for _ in 0..drive {
                now += 1;
                tick(&mut lived, now);
                tick(&mut skipped, now);
                serve_imisses(&mut lived);
                serve_imisses(&mut skipped);
            }
            now += assert_skip_matches_cycling(&mut lived, &mut skipped, now);
            assert_eq!(
                format!("{:?}", lived.stats()),
                format!("{:?}", skipped.stats())
            );
            serve_imisses(&mut lived);
            serve_imisses(&mut skipped);
        }
    });
}
