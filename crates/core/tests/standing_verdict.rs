//! Fork-and-compare property tests for the standing verdicts (DESIGN.md §6, "Standing verdicts").
//!
//! A blocked head of line replays the verdict of its last attempt instead
//! of retrying: the L1s and the L2 slice keep their last refusal as a
//! standing block, the DRAM channel keeps the earliest cycle at which a
//! command could issue. Both are derived scratch — a pure function of the
//! state beside them — so a component that forgets its verdict before every
//! cycle (and recomputes it from scratch) must stay indistinguishable from
//! one that replays it: equal `Debug` state (the derived impls cover every
//! architectural field and leave the scratch out), equal stats, equal
//! trace events, after every cycle of random traffic.

use gmh_cache::{CacheConfig, WritePolicy};
use gmh_core::L2Bank;
use gmh_dram::{DramChannel, DramConfig, SchedPolicy};
use gmh_simt::inst::{Inst, ScriptedSource};
use gmh_simt::{CoreConfig, SimtCore};
use gmh_types::rng::cases;
use gmh_types::{AccessKind, LineAddr, MemFetch, TraceSink};

/// A sink that samples every fetch, so replayed `StalledAt` events are
/// compared too.
fn sink() -> TraceSink {
    TraceSink::new(1, 1 << 16, 7)
}

/// DRAM channel, both policies: pushes and response pops interleaved at
/// random with cycles. Two banks of three rows keep every kind of wait
/// in play at once (tCCD, tRCD, tRAS/tRP, tRRD, bus, write-to-read), a
/// two-entry response queue keeps reads waiting for a slot, and a short
/// off-chip latency hides entries while bank timers still run.
#[test]
fn dram_forgetting_the_verdict_changes_nothing() {
    cases("dram_forgetting_the_verdict_changes_nothing", 64, |rng| {
        let cfg = DramConfig {
            policy: [SchedPolicy::Fcfs, SchedPolicy::FrFcfs][rng.range(0..2)],
            response_queue: 2,
            fixed_latency: rng.below(8),
            ..DramConfig::gtx480()
        };
        let mut replay = DramChannel::new(cfg, 0);
        let mut forget = replay.clone();
        for now in 0..rng.range(1..600) {
            let op = rng.below(8);
            let kind = [AccessKind::Load, AccessKind::Store][rng.range(0..2)];
            let (col, bank, row) = (rng.below(4), rng.below(2), rng.below(3));
            if op < 5 && replay.can_accept() {
                // Channel 0 of 6; 32 lines per row, 16 banks.
                let line = LineAddr::new((col + 32 * bank + 512 * row) * 6);
                let f = MemFetch::new(now, 0, 0, kind, line, 0);
                replay.push(f.clone(), now).unwrap();
                forget.push(f, now).unwrap();
            }
            if op == 5 {
                let popped = replay.pop_response().map(|f| f.id);
                assert_eq!(popped, forget.pop_response().map(|f| f.id));
            }
            forget.forget_standing_verdict();
            replay.cycle(now);
            forget.cycle(now);
            assert_eq!(format!("{replay:?}"), format!("{forget:?}"));
        }
    });
}

/// L2 bank: a two-set slice with two MSHRs and a two-entry miss queue
/// blocks on every `BlockReason`; the miss queue drains, fills arrive
/// and the reply credit flips at random.
#[test]
fn l2bank_forgetting_the_block_changes_nothing() {
    cases("l2bank_forgetting_the_block_changes_nothing", 64, |rng| {
        let steps = rng.range(50u64..400);
        let cfg = CacheConfig {
            size_bytes: 4 * 128,
            assoc: 2,
            mshr_entries: 2,
            mshr_merge: 2,
            miss_queue_len: 2,
            write_policy: WritePolicy::WriteBack,
            set_stride: 12,
        };
        let mut replay = L2Bank::new(cfg, 4, 3, 64, 2);
        let mut forget = replay.clone();
        let (mut replay_trace, mut forget_trace) = (sink(), sink());
        let mut at_dram: Vec<MemFetch> = Vec::new();
        for now in 0..steps {
            if rng.below(2) == 0 && replay.can_accept() {
                let kind = if rng.below(4) == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                // Eight lines of bank 0, four per set.
                let mut f = MemFetch::new(now, 0, 0, kind, LineAddr::new(rng.below(8) * 12), 0);
                replay_trace.issued(&mut f, now);
                forget_trace.issued(&mut f, now);
                replay.push_access(f.clone()).unwrap();
                forget.push_access(f).unwrap();
            }
            if rng.below(3) == 0 {
                let miss = replay.pop_miss();
                assert_eq!(miss.as_ref().map(|f| f.id), forget.pop_miss().map(|f| f.id));
                at_dram.extend(miss.filter(|f| f.kind.wants_response()));
            }
            if rng.below(3) == 0 {
                if let Some(f) = at_dram.first() {
                    if replay.response_free() >= replay.fill_response_needs(f.line) {
                        let f = at_dram.remove(0);
                        replay.deliver_fill(f.clone(), now);
                        forget.deliver_fill(f, now);
                    }
                }
            }
            if rng.below(3) == 0 {
                let popped = replay.pop_response().map(|f| f.id);
                assert_eq!(popped, forget.pop_response().map(|f| f.id));
            }
            let credit = rng.below(4) != 0;
            replay.set_reply_credit(credit);
            forget.set_reply_credit(credit);
            forget.forget_standing_block();
            replay.cycle_traced(now, &mut replay_trace);
            forget.cycle_traced(now, &mut forget_trace);
            assert_eq!(format!("{replay:?}"), format!("{forget:?}"));
        }
        assert_eq!(replay_trace.events(), forget_trace.events());
        assert!(
            replay.cache().stats().blocked > 0 || steps < 100,
            "the traffic is meant to block"
        );
    });
}

/// SIMT core, LSU and I-fetch: cores are not `Clone`, so two
/// identically built cores run in lock-step against the same memory.
/// Scarce L1D MSHRs and miss-queue slots block the LSU head; a code
/// footprint far beyond an L1I with one MSHR of two requests blocks
/// instruction fetch; the memory accepts requests only now and then, so
/// the blocks last.
#[test]
fn core_forgetting_the_blocks_changes_nothing() {
    cases("core_forgetting_the_blocks_changes_nothing", 64, |rng| {
        let latency = rng.range(1..60);
        let alu_latency = rng.range(1..8);
        let programs: Vec<Vec<Inst>> = (0..6)
            .map(|_| {
                (0..24)
                    .map(|_| match rng.below(4) {
                        0 => Inst::alu(alu_latency),
                        1 => Inst::store(vec![LineAddr::new(rng.below(24))]),
                        _ => Inst::load(vec![LineAddr::new(rng.below(24))]),
                    })
                    .collect()
            })
            .collect();
        let mut cfg = CoreConfig {
            max_warps: 6,
            mem_pipeline_width: 4,
            ..CoreConfig::gtx480()
        };
        cfg.l1d.mshr_entries = 2;
        cfg.l1d.mshr_merge = 2;
        cfg.l1d.miss_queue_len = 2;
        cfg.l1d.size_bytes = 4 * 128;
        cfg.l1d.assoc = 2;
        cfg.l1i.mshr_entries = 1;
        cfg.l1i.mshr_merge = 2;
        cfg.l1i.miss_queue_len = 1;
        let mk = || {
            let source = ScriptedSource::new(programs.clone()).with_code_lines(4096);
            SimtCore::new(0, cfg.clone(), Box::new(source))
        };
        let (mut replay, mut forget) = (mk(), mk());
        let (mut replay_trace, mut forget_trace) = (sink(), sink());
        let mut in_memory: Vec<(u64, MemFetch)> = Vec::new();
        let mut now = 0u64;
        while !replay.done() {
            now += 1;
            assert!(now < 200_000, "core did not drain");
            forget.forget_standing_blocks();
            replay.cycle_traced(now * 714, &mut replay_trace);
            forget.cycle_traced(now * 714, &mut forget_trace);
            if rng.below(3) == 0 {
                let out = replay.pop_outgoing();
                assert_eq!(
                    out.as_ref().map(|f| f.id),
                    forget.pop_outgoing().map(|f| f.id)
                );
                in_memory.extend(
                    out.filter(|f| f.kind.wants_response())
                        .map(|f| (now + latency, f)),
                );
            }
            if let Some(i) = in_memory.iter().position(|(due, _)| *due <= now) {
                if replay.can_accept_response() {
                    let (_, f) = in_memory.remove(i);
                    replay.push_response(f.clone()).unwrap();
                    forget.push_response(f).unwrap();
                }
            }
            assert_eq!(format!("{replay:?}"), format!("{forget:?}"));
            assert_eq!(
                format!("{:?}", replay.stats()),
                format!("{:?}", forget.stats())
            );
            assert_eq!(format!("{:?}", replay.l1d()), format!("{:?}", forget.l1d()));
            assert_eq!(format!("{:?}", replay.l1i()), format!("{:?}", forget.l1i()));
        }
        assert!(forget.done());
        assert_eq!(replay_trace.events(), forget_trace.events());
        assert!(
            replay.stats().l1_stalls.total() > 0,
            "the LSU head never blocked"
        );
        assert!(
            replay.l1i().stats().blocked > 0,
            "instruction fetch never blocked"
        );
    });
}
