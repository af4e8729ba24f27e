//! Isolated layer drivers: each model crate driven alone through its public
//! API at a fixed operating point, in the style of `benches/components.rs`,
//! reporting nanoseconds per call. They are independent of the workload, so
//! every traced run reports them; each gets an equal slice of the time the
//! run sets aside, and the figure includes the driver's own feed/drain code
//! around the call (the same code for every commit).

use crate::inputs::{serve_overrides, spec};
use crate::metrics::Metrics;
use crate::run::Ctx;
use gmh_cache::{Cache, CacheConfig, Mshr};
use gmh_core::{GpuConfig, GpuSim, L2Bank, SimStats};
use gmh_dram::{DramChannel, DramConfig};
use gmh_exp::cache::metric_in_json;
use gmh_exp::{job_key, report_json, DiskCache};
use gmh_icnt::{Crossbar, IcntConfig};
use gmh_serve::protocol::{job_line, parse_request, Reply};
use gmh_simt::{CoreConfig, InstSource, SimtCore};
use gmh_types::{AccessKind, BoundedQueue, LineAddr, MemFetch, Xoshiro256};
use gmh_workloads::{TraceBundle, WorkloadSpec};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed drivers in `run_all`, which share the time set aside equally.
const DRIVERS: u32 = 27;

/// Calls `call` in batches until `slice` has passed; nanoseconds per call.
fn ns_per_call(slice: Duration, mut call: impl FnMut()) -> f64 {
    const BATCH: u64 = 64;
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..BATCH {
            call();
        }
        calls += BATCH;
        let elapsed = started.elapsed();
        if elapsed >= slice {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

fn load(id: u64, core: usize, line: u64) -> MemFetch {
    MemFetch::new(id, core, 0, AccessKind::Load, LineAddr::new(line), 0)
}

fn below(rng: &mut Xoshiro256, bound: usize) -> usize {
    usize::try_from(rng.below(bound as u64)).expect("below a usize bound")
}

/// One SIMT core running the endless `mm` stream against a responder that
/// answers instruction fetches always and loads after `load_latency` cycles
/// (`None`: never — the core fills its MSHRs and stalls on memory).
struct CoreRig {
    core: SimtCore,
    pending: VecDeque<(u64, MemFetch)>,
    load_latency: Option<u64>,
    t: u64,
}

impl CoreRig {
    fn new(seed: u64, load_latency: Option<u64>) -> Self {
        let mut mm = spec("mm", seed, 1);
        mm.insts_per_warp = u64::MAX / 2;
        CoreRig {
            core: SimtCore::new(0, CoreConfig::gtx480(), Box::new(mm.source_for_core(0))),
            pending: VecDeque::new(),
            load_latency,
            t: 0,
        }
    }

    fn tick(&mut self) {
        self.t += 1;
        while let Some((due, _)) = self.pending.front() {
            if *due > self.t || !self.core.can_accept_response() {
                break;
            }
            let (_, f) = self.pending.pop_front().expect("front exists");
            self.core.push_response(f).expect("space was checked");
        }
        black_box(self.core.cycle(self.t * 714));
        while let Some(f) = self.core.pop_outgoing() {
            match (f.kind, self.load_latency) {
                (AccessKind::InstFetch, _) => self.pending.push_back((self.t + 1, f)),
                (AccessKind::Load, Some(lat)) => self.pending.push_back((self.t + lat, f)),
                _ => {}
            }
        }
    }
}

/// The 15×12 crossbar with every port offering traffic every tick: cores
/// inject 8-byte read requests, banks inject 128-byte replies, every
/// ejection port is drained.
struct XbarRig {
    xbar: Crossbar,
    rng: Xoshiro256,
    id: u64,
}

impl XbarRig {
    const CORES: usize = 15;
    const BANKS: usize = 12;

    fn new(cfg: IcntConfig, seed: u64) -> Self {
        XbarRig {
            xbar: Crossbar::new(cfg, Self::CORES, Self::BANKS),
            rng: Xoshiro256::seeded(seed ^ 0x7862_6172),
            id: 0,
        }
    }

    fn tick(&mut self) {
        for c in 0..Self::CORES {
            if self.xbar.request().can_inject(c, 8) {
                let dst = below(&mut self.rng, Self::BANKS);
                self.id += 1;
                let _ = self
                    .xbar
                    .request_mut()
                    .inject(c, dst, load(self.id, c, self.id), 8);
            }
        }
        for b in 0..Self::BANKS {
            if self.xbar.reply().can_inject(b, 128) {
                let dst = below(&mut self.rng, Self::CORES);
                self.id += 1;
                let _ = self
                    .xbar
                    .reply_mut()
                    .inject(b, dst, load(self.id, dst, self.id), 128);
            }
        }
        self.xbar.cycle();
        for b in 0..Self::BANKS {
            black_box(self.xbar.request_mut().pop_eject(b));
        }
        for c in 0..Self::CORES {
            black_box(self.xbar.reply_mut().pop_eject(c));
        }
    }

    fn flits(&self) -> u64 {
        self.xbar.request().stats().flits.get() + self.xbar.reply().stats().flits.get()
    }
}

/// One L2 bank fed a read per tick over twice its capacity (about half the
/// accesses miss), with misses filled after a fixed delay.
struct BankRig {
    bank: L2Bank,
    rng: Xoshiro256,
    fills: VecDeque<(u64, MemFetch)>,
    lines: u64,
    id: u64,
    t: u64,
}

impl BankRig {
    const FILL_DELAY: u64 = 100;

    fn new(seed: u64) -> Self {
        let cfg = GpuConfig::gtx480_baseline();
        let lines = 2 * cfg.l2_bank.size_bytes / gmh_types::LINE_SIZE as u64;
        BankRig {
            bank: L2Bank::new(
                cfg.l2_bank,
                cfg.l2_access_queue,
                cfg.l2_response_queue,
                cfg.l2_data_port_bytes,
                cfg.l2_latency,
            ),
            rng: Xoshiro256::seeded(seed ^ 0x6c32_626b),
            fills: VecDeque::new(),
            lines,
            id: 0,
            t: 0,
        }
    }

    fn tick(&mut self, feed: bool) {
        self.t += 1;
        let now_ps = self.t * 1428;
        if feed && self.bank.can_accept() {
            self.id += 1;
            let line = self.rng.below(self.lines);
            let _ = self.bank.push_access(load(self.id, 0, line));
        }
        if let Some((due, f)) = self.fills.front() {
            if *due <= self.t && self.bank.response_free() >= self.bank.fill_response_needs(f.line)
            {
                let (_, f) = self.fills.pop_front().expect("front exists");
                self.bank.deliver_fill(f, now_ps);
            }
        }
        self.bank.cycle(now_ps);
        if let Some(f) = self.bank.pop_miss() {
            if f.kind.wants_response() {
                self.fills.push_back((self.t + Self::FILL_DELAY, f));
            }
        }
        black_box(self.bank.pop_response());
    }
}

struct DramRig {
    ch: DramChannel,
    rng: Xoshiro256,
    now: u64,
    id: u64,
}

impl DramRig {
    fn new(seed: u64) -> Self {
        DramRig {
            ch: DramChannel::new(DramConfig::gtx480(), 0),
            rng: Xoshiro256::seeded(seed ^ 0x6472_616d),
            now: 0,
            id: 0,
        }
    }

    /// `random`: rows drawn at random (row misses) instead of a stream.
    fn tick(&mut self, feed: bool, random: bool) {
        if feed && self.ch.can_accept() {
            let line = if random {
                self.rng.below(1 << 16) * 6
            } else {
                self.id * 6
            };
            let _ = self.ch.push(load(self.id, 0, line), self.now);
            self.id += 1;
        }
        self.ch.cycle(self.now);
        self.now += 1;
        black_box(self.ch.pop_response());
    }
}

/// A finished small simulation (a daemon-sized job) for the drivers that
/// need a real report.
fn sample_report(seed: u64) -> (GpuConfig, WorkloadSpec, SimStats, String) {
    let mut cfg = GpuConfig::gtx480_baseline();
    cfg.n_cores = 2;
    cfg.telemetry_window = 1024;
    let mut wl = spec("nn", seed, 1);
    wl.warps_per_core = 8;
    wl.insts_per_warp = 5_000;
    let stats = GpuSim::new(cfg.clone(), &wl).run();
    let json = report_json("base", wl.name, &stats);
    (cfg, wl, stats, json)
}

/// Runs every driver for an equal share of `budget` and stores its figure.
pub fn run_all(ctx: &Ctx, budget: Duration, m: &mut Metrics) {
    let slice = budget / DRIVERS;
    let seed = ctx.seed;
    let time = |m: &mut Metrics, name: &str, call: &mut dyn FnMut()| {
        m.set(name, ns_per_call(slice, call));
    };

    // simt
    let mut busy = CoreRig::new(seed, Some(200));
    time(m, "simt.tick_ns.busy", &mut || busy.tick());
    let mut stalled = CoreRig::new(seed, None);
    for _ in 0..20_000 {
        stalled.tick();
    }
    time(m, "simt.tick_ns.memstall", &mut || stalled.tick());
    time(m, "simt.probe_ns", &mut || {
        black_box(stalled.core.next_event_bound());
    });

    // workloads
    let mut mm = spec("mm", seed, 1);
    mm.insts_per_warp = u64::MAX / 2;
    let mut source = mm.source_for_core(0);
    let mut warp = 0usize;
    time(m, "workloads.next_inst_ns", &mut || {
        warp = (warp + 1) % 48;
        black_box(source.next_inst(warp));
    });
    let mm_short = spec("mm", seed, 1);
    let started = Instant::now();
    let bundle = TraceBundle::record(&mm_short, 2);
    m.set(
        "workloads.trace_record_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    let mut text = Vec::new();
    bundle
        .write(&mut text)
        .expect("writing to a Vec cannot fail");
    let started = Instant::now();
    let parsed = TraceBundle::parse(text.as_slice()).expect("a recorded trace parses");
    m.set(
        "workloads.trace_parse_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    assert_eq!(parsed.total_insts(), bundle.total_insts());

    // cache
    let mut cache = Cache::new(CacheConfig::fermi_l1());
    cache.access_read(load(0, 0, 7), 0);
    cache.fill(LineAddr::new(7), 0);
    let mut id = 1u64;
    time(m, "cache.hit_ns", &mut || {
        id += 1;
        black_box(cache.access_read(load(id, 0, 7), 0));
    });
    let mut cache = Cache::new(CacheConfig::fermi_l1());
    let mut rng = Xoshiro256::seeded(seed ^ 0x6361_6368);
    time(m, "cache.miss_fill_ns", &mut || {
        id += 1;
        let line = rng.below(1 << 20);
        black_box(cache.access_read(load(id, 0, line), 0));
        cache.pop_miss();
        black_box(cache.fill(LineAddr::new(line), 0));
    });
    let mut mshr: Mshr<u64> = Mshr::new(32, 8);
    let mut i = 0u64;
    time(m, "cache.mshr_ns", &mut || {
        let line = LineAddr::new(i % 31);
        i += 1;
        mshr.allocate(line).expect("released below");
        black_box(mshr.release(line));
    });

    // icnt: a fixed number of loaded ticks first, for the exact flit count.
    const FLIT_TICKS: u64 = 20_000;
    let mut loaded = XbarRig::new(IcntConfig::baseline_32_32(), seed);
    for _ in 0..FLIT_TICKS {
        loaded.tick();
    }
    m.set(
        "icnt.flits_per_tick",
        loaded.flits() as f64 / FLIT_TICKS as f64,
    );
    time(m, "icnt.tick_ns.loaded", &mut || loaded.tick());
    time(m, "icnt.probe_ns", &mut || {
        black_box(loaded.xbar.request().next_event_bound());
        black_box(loaded.xbar.reply().next_event_bound());
    });
    let mut asym = XbarRig::new(IcntConfig::asymmetric(16, 68), seed);
    time(m, "icnt.tick_ns.asym", &mut || asym.tick());
    let mut idle = Crossbar::new(IcntConfig::baseline_32_32(), XbarRig::CORES, XbarRig::BANKS);
    time(m, "icnt.tick_ns.idle", &mut || idle.cycle());

    // core: one L2 bank
    let mut bank = BankRig::new(seed);
    time(m, "core.l2bank_tick_ns.loaded", &mut || bank.tick(true));
    time(m, "core.l2bank_probe_ns", &mut || {
        black_box(bank.bank.next_event_bound());
    });
    let mut bank = BankRig::new(seed);
    time(m, "core.l2bank_tick_ns.idle", &mut || bank.tick(false));

    // dram
    let mut stream = DramRig::new(seed);
    time(m, "dram.tick_ns.stream", &mut || stream.tick(true, false));
    time(m, "dram.probe_ns", &mut || {
        black_box(stream.ch.next_event_bound(stream.now));
    });
    let mut random = DramRig::new(seed);
    time(m, "dram.tick_ns.random", &mut || random.tick(true, true));
    let mut idle = DramRig::new(seed);
    time(m, "dram.tick_ns.idle", &mut || idle.tick(false, false));

    // types
    let mut q: BoundedQueue<u64> = BoundedQueue::new(8);
    let mut v = 0u64;
    time(m, "types.queue_op_ns", &mut || {
        v += 1;
        q.push(v).expect("popped below");
        black_box(q.pop());
    });

    // exp and serve: the request path around one daemon-sized report
    let (cfg, wl, stats, json) = sample_report(seed);
    time(m, "exp.job_key_ns", &mut || {
        black_box(job_key("base", &cfg, &wl));
    });
    time(m, "exp.report_json_us", &mut || {
        black_box(report_json("base", wl.name, &stats));
    });
    time(m, "exp.metric_scan_ns", &mut || {
        black_box(metric_in_json(&json, "ipc"));
    });
    let cache = DiskCache::open(ctx.fresh_dir("driver-cache", 0)).expect("scratch cache opens");
    let mut key = 0u64;
    time(m, "exp.cache_put_us", &mut || {
        key = (key + 1) % 64;
        cache
            .put(key, &wl, "base", &json)
            .expect("scratch cache is writable");
    });
    time(m, "exp.cache_get_us", &mut || {
        key = (key + 1) % 64;
        black_box(cache.get(key));
    });
    let line = job_line(
        wl.name,
        Some("base"),
        Some(wl.seed),
        &serve_overrides(),
        false,
    );
    time(m, "serve.parse_us", &mut || {
        black_box(parse_request(&line).expect("a well-formed job line"));
    });
    let reply = Reply::Ok(json.clone());
    time(m, "serve.render_us", &mut || {
        black_box(Reply::parse(&reply.render()).expect("a rendered reply parses"));
    });
    time(m, "serve.json_parse_mb_per_s", &mut || {
        black_box(gmh_serve::json::parse(&json).expect("a report is valid JSON"));
    });
    for name in [
        "exp.report_json_us",
        "exp.cache_put_us",
        "exp.cache_get_us",
        "serve.parse_us",
        "serve.render_us",
    ] {
        m.set(name, m.get(name) / 1e3);
    }
    // bytes per nanosecond × 1000 = MB/s
    m.set(
        "serve.json_parse_mb_per_s",
        json.len() as f64 / m.get("serve.json_parse_mb_per_s") * 1e3,
    );
}

/// Share of a `saturated` pass each model layer's ticks would take at its
/// loaded driver cost: tick count (core cycles × the 1400 / 700 / 924 MHz
/// clock ratios × instances) × ns per tick ÷ the pass's wall time (the
/// three kernels' medians; `GpuSim::run` is all but 0.1 % of it). A core
/// tick is priced as the mix of busy and memory-stalled ticks
/// the run's own stall fraction gives. Their sum is `core.ledger_coverage`:
/// how much of the run the four per-tick costs explain (above 1 when the
/// drivers, which run every port at full load, overprice the run's ticks).
pub fn store_shares(m: &mut Metrics) {
    let cfg = GpuConfig::gtx480_baseline();
    let cycles = m.get("core.sim_cycles");
    let run_ns = (m.get("core.run_s.mm") + m.get("core.run_s.lbm") + m.get("core.run_s.bfs")) * 1e9;
    let core_ticks = cycles * cfg.n_cores as f64;
    let icnt_cycles = cycles * f64::from(cfg.icnt_mhz) / f64::from(cfg.core_mhz);
    let dram_cycles = cycles * f64::from(cfg.dram_mhz) / f64::from(cfg.core_mhz);
    let stalled = m.get("simt.stall_frac");
    let core_tick_ns =
        stalled * m.get("simt.tick_ns.memstall") + (1.0 - stalled) * m.get("simt.tick_ns.busy");
    let shares = [
        ("simt.est_share", core_ticks * core_tick_ns),
        ("icnt.est_share", icnt_cycles * m.get("icnt.tick_ns.loaded")),
        (
            "core.l2bank_est_share",
            icnt_cycles * cfg.n_l2_banks as f64 * m.get("core.l2bank_tick_ns.loaded"),
        ),
        (
            "dram.est_share",
            dram_cycles * cfg.n_channels as f64 * m.get("dram.tick_ns.stream"),
        ),
    ];
    let mut covered = 0.0;
    for (name, ns) in shares {
        m.set(name, ns / run_ns);
        covered += ns / run_ns;
    }
    m.set("core.ledger_coverage", covered);
}
