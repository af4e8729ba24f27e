//! Property-based tests of the SIMT core: arbitrary scripted programs
//! drain against an ideal memory, issue exactly once, and classify every
//! stall cycle.

use gmh_simt::inst::{Inst, ScriptedSource};
use gmh_simt::{CoreConfig, SimtCore};
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
