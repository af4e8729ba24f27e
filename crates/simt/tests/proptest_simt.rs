//! Property-based tests of the SIMT core: arbitrary scripted programs
//! drain against an ideal memory, issue exactly once, classify every
//! stall cycle, and the issue stage's bit-word scan agrees with the
//! warp-by-warp reference walk.

use gmh_simt::inst::{Inst, ScriptedSource};
use gmh_simt::scheduler::WarpSchedPolicy;
use gmh_simt::{CoreConfig, SimtCore};
use gmh_types::bits;
use gmh_types::rng::cases;
use gmh_types::{LineAddr, MemFetch, Xoshiro256};
use std::ops::Range;

fn arb_inst(rng: &mut Xoshiro256) -> Inst {
    match rng.below(3) {
        0 => Inst::alu(rng.range(1..16)),
        1 => {
            let load = Inst::load(vec![LineAddr::new(rng.below(64))]);
            if rng.chance(0.5) {
                load.after_load()
            } else {
                load
            }
        }
        _ => Inst::store(vec![LineAddr::new(rng.below(64))]),
    }
}

/// A count drawn from `warps` of programs, each of a length drawn from `len`.
fn arb_programs(rng: &mut Xoshiro256, warps: Range<usize>, len: Range<usize>) -> Vec<Vec<Inst>> {
    (0..rng.range(warps))
        .map(|_| (0..rng.range(len.clone())).map(|_| arb_inst(rng)).collect())
        .collect()
}

/// Drives the core against a fixed-latency ideal memory until drained.
fn drive(core: &mut SimtCore, latency: u64, max: u64) -> bool {
    let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
    let mut t = 0u64;
    while !core.done() {
        t += 1;
        if t >= max {
            return false;
        }
        core.cycle(t * 1000);
        while let Some(f) = core.pop_outgoing() {
            if f.kind.wants_response() {
                inflight.push((t + latency, f));
            }
        }
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].0 <= t && core.can_accept_response() {
                let (_, f) = inflight.remove(i);
                core.push_response(f).expect("space checked");
            } else {
                i += 1;
            }
        }
    }
    true
}

/// Any program on any number of warps drains, and the issued count is
/// exactly the sum of program lengths.
#[test]
fn programs_drain_and_issue_exactly_once() {
    cases("programs_drain_and_issue_exactly_once", 48, |rng| {
        let programs = arb_programs(rng, 1..6, 0..40);
        let latency = rng.range(1..300);
        let total: u64 = programs.iter().map(|p| p.len() as u64).sum();
        let mut cfg = CoreConfig::gtx480();
        cfg.max_warps = programs.len().max(1);
        let src = ScriptedSource::new(programs).with_code_lines(2);
        let mut core = SimtCore::new(0, cfg, Box::new(src));
        assert!(drive(&mut core, latency, 2_000_000), "core did not drain");
        assert_eq!(core.stats().insts_issued, total);
    });
}

/// Runs `progs` to completion against an 80-cycle memory and checks the
/// accounting identity issued + stalls + idle == total cycles; returns the
/// number of instructions issued.
fn check_cycle_accounting(programs: Vec<Vec<Inst>>) -> u64 {
    let mut cfg = CoreConfig::gtx480();
    cfg.max_warps = programs.len();
    let src = ScriptedSource::new(programs).with_code_lines(2);
    let mut core = SimtCore::new(0, cfg, Box::new(src));
    assert!(drive(&mut core, 80, 2_000_000), "core did not drain");
    let s = core.stats();
    assert_eq!(
        s.issue.issued_cycles.get() + s.issue.total_stalls() + s.issue.idle.get(),
        s.cycles
    );
    s.insts_issued
}

/// Accounting identity: issued + stalls + idle == total cycles.
#[test]
fn cycle_accounting_is_complete() {
    cases("cycle_accounting_is_complete", 48, |rng| {
        check_cycle_accounting(arb_programs(rng, 1..4, 1..30));
    });
}

/// The one recorded failure of `cycle_accounting_is_complete`: a single
/// warp of six independent 1-cycle ALU instructions.
#[test]
fn six_one_cycle_alus_on_one_warp_drain_and_account() {
    assert_eq!(check_cycle_accounting(vec![vec![Inst::alu(1); 6]]), 6);
}

/// Smaller MSHR files never finish sooner than larger ones for the
/// same program (structural hazards only ever hurt).
#[test]
fn mshrs_monotonically_help() {
    cases("mshrs_monotonically_help", 48, |rng| {
        let prog: Vec<Inst> = (0..rng.range(2..16))
            .map(|_| Inst::load(vec![LineAddr::new(rng.below(32))]))
            .collect();
        let latency = rng.range(20..150);
        let mut time = Vec::new();
        for mshrs in [1usize, 32] {
            let mut cfg = CoreConfig::gtx480();
            cfg.max_warps = 1;
            cfg.l1d.mshr_entries = mshrs;
            let src = ScriptedSource::new(vec![prog.clone()]).with_code_lines(1);
            let mut core = SimtCore::new(0, cfg, Box::new(src));
            assert!(drive(&mut core, latency, 2_000_000));
            time.push(core.cycles());
        }
        assert!(
            time[0] >= time[1],
            "1 MSHR ({}) finished before 32 ({})",
            time[0],
            time[1]
        );
    });
}

/// A load or store of up to `max_accesses` distinct lines (rarely more than
/// `usual`), or an ALU op, each possibly reading an earlier load's or ALU
/// op's result.
fn arb_dependent_inst(rng: &mut Xoshiro256, usual: usize, max_accesses: usize) -> Inst {
    let lines = |rng: &mut Xoshiro256| {
        let n = if rng.chance(0.05) {
            max_accesses
        } else {
            usual
        };
        let base = rng.below(1 << 12);
        (0..rng.range(1..n + 1))
            .map(|i| LineAddr::new(base + 97 * i as u64))
            .collect()
    };
    let mut inst = match rng.below(3) {
        0 => Inst::alu(rng.range(1..40)),
        1 => Inst::load(lines(rng)),
        _ => Inst::store(lines(rng)),
    };
    inst.wait_mem = rng.chance(0.4);
    inst.wait_alu = rng.chance(0.4);
    inst
}

/// On random programs over 1-64 warps, under both policies, with memory
/// instructions up to three accesses wider than the memory pipeline and a
/// random latency per response, the issue decision read off the warp words
/// (the greedy fast path, then the word scan and `pick`) equals the
/// reference walk's on every cycle: the same issuing warp, or the same
/// stall class and earliest ALU release. The decision is compared for the
/// next cycle and for a later one, so ALU results both pending and ready
/// are covered. (In a debug build the issue stage also checks its own
/// decision against the walk on every cycle it scans.)
#[test]
fn issue_words_match_the_reference_walk() {
    cases("issue_words_match_the_reference_walk", 48, |rng| {
        let mut cfg = CoreConfig::gtx480();
        cfg.max_warps = rng.range(1..bits::CAP + 1);
        cfg.mem_pipeline_width = rng.range(1..12);
        cfg.sched_policy = [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr][rng.range(0..2usize)];
        // One case in four may hold an instruction wider than the whole
        // pipeline, which pins its warp on str-MEM for good.
        let usual = cfg.mem_pipeline_width.min(4);
        let max_accesses = if rng.chance(0.25) {
            cfg.mem_pipeline_width + 3
        } else {
            usual
        };
        let programs: Vec<Vec<Inst>> = (0..rng.range(1..cfg.max_warps + 1))
            .map(|_| {
                (0..rng.range(1..24))
                    .map(|_| arb_dependent_inst(rng, usual, max_accesses))
                    .collect()
            })
            .collect();
        let max_latency = rng.range(2..200);
        let label = format!(
            "{} warps, {:?}, pipeline width {}",
            cfg.max_warps, cfg.sched_policy, cfg.mem_pipeline_width
        );
        let src = ScriptedSource::new(programs).with_code_lines(rng.range(1..6));
        let mut core = SimtCore::new(0, cfg, Box::new(src));
        let mut inflight: Vec<(u64, MemFetch)> = Vec::new();
        for t in 1..1_500u64 {
            for at in [t, t + rng.range(1..64)] {
                assert_eq!(
                    core.issue_verdict(at),
                    core.issue_verdict_by_scan(at),
                    "{label}: decision for cycle {at}, before cycle {t}"
                );
            }
            core.cycle(t * 1000);
            while let Some(f) = core.pop_outgoing() {
                if f.kind.wants_response() {
                    inflight.push((t + rng.range(1..max_latency), f));
                }
            }
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0 <= t && core.can_accept_response() {
                    let (_, f) = inflight.remove(i);
                    core.push_response(f).expect("space checked");
                } else {
                    i += 1;
                }
            }
            if core.done() {
                break;
            }
        }
    });
}
