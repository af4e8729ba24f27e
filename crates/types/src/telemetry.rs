//! Simulator observability: cycle-windowed time series and the
//! fetch-conservation audit.
//!
//! [`Telemetry`] is a sink for per-cycle samples (queue occupancies, stall
//! counters, flit utilization) that aggregates them into fixed-width
//! windows, so a multi-million-cycle run exports a few hundred points per
//! series instead of one per cycle. It is a fixed table: the series are
//! named once at construction and every cycle records one value for each;
//! [`Telemetry::snapshot`] yields a [`TelemetrySnapshot`] that serializes
//! itself to JSON or CSV without any external dependency.
//!
//! [`FetchAudit`] is a conservation ledger over every [`MemFetch`] a core
//! emits: each must be *returned* (a response reached the core) or
//! *absorbed* (a store consumed by the memory system) exactly once, and its
//! per-hop timestamps must be monotone. The simulator checks the ledger at
//! the end of every run; a dropped, duplicated or time-traveling fetch is a
//! simulator bug, not a modeling choice, and fails the run loudly.

use crate::clock::Picos;
use crate::fetch::MemFetch;
pub use crate::json::{json_escape, json_num};
// BTreeSet, not HashSet (a disallowed type in model crates): the simulator
// must be a pure function of (config, seed), and hash iteration order
// varies per process.
use std::collections::BTreeSet;

#[derive(Clone, Debug)]
struct SeriesBuf {
    name: String,
    sum: f64,
    points: Vec<f64>,
}

/// Windowed time-series sink (see module docs).
#[derive(Clone, Debug)]
pub struct Telemetry {
    window: u64,
    /// Cycles recorded in the current window (every series records every
    /// cycle, so one count serves them all).
    n: u64,
    series: Vec<SeriesBuf>,
}

impl Telemetry {
    /// Creates a sink with one series per name, in order, aggregating
    /// samples over `window`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64, names: &[&str]) -> Self {
        assert!(window > 0, "telemetry window must be non-zero");
        let series = names.iter().map(|name| SeriesBuf {
            name: name.to_string(),
            sum: 0.0,
            points: Vec::new(),
        });
        Telemetry {
            window,
            n: 0,
            series: series.collect(),
        }
    }

    /// Records one cycle: `values[i]` is series `i`'s sample. At each window
    /// boundary every series flushes the mean of its samples as one point.
    pub fn record(&mut self, values: &[f64]) {
        self.record_n(values, 1);
    }

    /// Records the same cycle `count` times, flushing at every window
    /// boundary the run crosses.
    ///
    /// Used by the fast-forward scheduler to replay the samples of skipped
    /// cycles in bulk. For the integer-valued samples the simulator
    /// records, `sum += value * chunk` is exact (both are well under
    /// 2^53), so the flushed window means are bit-identical to `count`
    /// individual [`Telemetry::record`] calls.
    pub fn record_n(&mut self, values: &[f64], count: u64) {
        debug_assert_eq!(values.len(), self.series.len(), "one value per series");
        let mut left = count;
        while left > 0 {
            let chunk = left.min(self.window - self.n);
            for (s, &v) in self.series.iter_mut().zip(values) {
                s.sum += v * chunk as f64;
            }
            self.n += chunk;
            left -= chunk;
            if self.n == self.window {
                for s in &mut self.series {
                    s.points.push(s.sum / self.n as f64);
                    s.sum = 0.0;
                }
                self.n = 0;
            }
        }
    }

    /// Exports all series, including the trailing partial window when it
    /// holds any cycle.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let series = self.series.iter().map(|s| {
            let mut points = s.points.clone();
            if self.n > 0 {
                points.push(s.sum / self.n as f64);
            }
            SeriesData {
                name: s.name.clone(),
                points,
            }
        });
        TelemetrySnapshot {
            window_cycles: self.window,
            series: series.collect(),
        }
    }
}

/// One exported series: its name and one mean value per window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesData {
    /// Dotted hierarchical name, e.g. `"l2.access_queue"`.
    pub name: String,
    /// Per-window means, in time order.
    pub points: Vec<f64>,
}

/// A frozen export of a [`Telemetry`] sink, serializable without external
/// dependencies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Cycles per aggregation window.
    pub window_cycles: u64,
    /// Every series of the sink, in its order.
    pub series: Vec<SeriesData>,
}

impl TelemetrySnapshot {
    /// Serializes to a JSON object:
    /// `{"window_cycles":N,"series":[{"name":...,"points":[...]},...]}`.
    pub fn to_json(&self) -> String {
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                let pts: Vec<String> = s.points.iter().map(|&p| json_num(p)).collect();
                format!(
                    "{{\"name\":\"{}\",\"points\":[{}]}}",
                    json_escape(&s.name),
                    pts.join(",")
                )
            })
            .collect();
        format!(
            "{{\"window_cycles\":{},\"series\":[{}]}}",
            self.window_cycles,
            series.join(",")
        )
    }

    /// Serializes to CSV: a `window` index column followed by one column
    /// per series (rows are padded with empty cells where a series has
    /// fewer windows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name.replace(',', ";"));
        }
        out.push('\n');
        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for r in 0..rows {
            out.push_str(&r.to_string());
            for s in &self.series {
                out.push(',');
                if let Some(&p) = s.points.get(r) {
                    out.push_str(&json_num(p));
                }
            }
            out.push('\n');
        }
        out
    }
}

// ---- fetch-conservation audit ---------------------------------------------

/// Aggregate counts from a [`FetchAudit`], exported with run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Fetches emitted by cores (write-backs generated inside the L2 are
    /// not core traffic and are excluded).
    pub emitted: u64,
    /// Fetches whose response reached the issuing core.
    pub returned: u64,
    /// Fetches absorbed by the memory system (stores expect no response).
    pub absorbed: u64,
    /// Fetches still in flight when the ledger was read.
    pub in_flight: u64,
}

/// Ids past its base that a core's bit window can span (128 KiB of bits).
/// A core allocates ids one after another and a fetch is in flight for
/// thousands of cycles, so the ids a `SimtCore` has in flight span a few
/// thousand; anything further out is hand-built and goes to the ordered set.
const WINDOW_IDS: u64 = 1 << 20;

/// Cores that get a bit window (the rest, likewise hand-built, use the set).
const WINDOW_CORES: usize = 1 << 10;

/// One core's in-flight fetch ids as bits over `id - base`: ids are
/// allocated sequentially, so the set of them is dense and moves forward.
#[derive(Clone, Debug, Default)]
struct IdWindow {
    /// The id of bit 0 of `words[0]`; a multiple of 64.
    base: u64,
    /// Never starts with a zero word, so it is as long as the span of ids
    /// in flight (a few words), not as long as the run.
    words: Vec<u64>,
}

impl IdWindow {
    /// Word index and bit mask of `id`, if it lies in the window's span.
    fn locate(&self, id: u64) -> Option<(usize, u64)> {
        let off = id.checked_sub(self.base).filter(|&o| o < WINDOW_IDS)?;
        Some((usize::try_from(off / 64).ok()?, 1 << (off % 64)))
    }

    /// Sets `id`'s bit and returns whether it was set already; `None` when
    /// the window cannot hold `id`. An empty window re-anchors at `id`.
    fn set(&mut self, id: u64) -> Option<bool> {
        if self.words.is_empty() {
            self.base = id & !63;
        }
        let (w, mask) = self.locate(id)?;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let was_set = self.words[w] & mask != 0;
        self.words[w] |= mask;
        Some(was_set)
    }

    /// Clears `id`'s bit if it is set (and says so), then advances the
    /// base over the prefix that has fully cleared.
    fn clear(&mut self, id: u64) -> bool {
        let Some((w, mask)) = self.locate(id) else {
            return false;
        };
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => *word &= !mask,
            _ => return false,
        }
        if w == 0 && self.words[0] == 0 {
            let cleared = self.words.iter().take_while(|&&word| word == 0).count();
            self.words.drain(..cleared);
            // Wraps only once the window is empty, when the next `set`
            // re-anchors it.
            self.base = self.base.wrapping_add(cleared as u64 * 64);
        }
        true
    }

    /// The ids whose bits are set, ascending.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().zip(0u64..).flat_map(move |(&word, w)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| self.base + w * 64 + bit)
        })
    }
}

/// Conservation ledger over core-emitted fetches (see module docs).
#[derive(Clone, Debug, Default)]
pub struct FetchAudit {
    /// The in-flight fetches: one bit window per core, indexed by core id…
    windows: Vec<IdWindow>,
    /// …and an ordered set for the `(core, id)` pairs no window can hold.
    /// A pair is in one or the other, never both.
    overflow: BTreeSet<(usize, u64)>,
    in_flight: u64,
    emitted: u64,
    returned: u64,
    absorbed: u64,
    violations: Vec<String>,
}

impl FetchAudit {
    /// Whether the audit tracks `fetch` (write-backs carry
    /// `core_id == usize::MAX` and are not core-emitted traffic).
    fn tracks(fetch: &MemFetch) -> bool {
        fetch.core_id != usize::MAX
    }

    fn violate(&mut self, msg: String) {
        // Keep the report bounded; the first few violations identify the bug.
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }

    /// Puts `fetch` in flight; `false` if it already was.
    fn mark(&mut self, fetch: &MemFetch) -> bool {
        let (core, id) = (fetch.core_id, fetch.id);
        // Only a pair that fell outside its window earlier can sit here.
        if self.overflow.contains(&(core, id)) {
            return false;
        }
        if core >= self.windows.len() && core < WINDOW_CORES {
            self.windows.resize_with(core + 1, IdWindow::default);
        }
        let fresh = match self.windows.get_mut(core).and_then(|w| w.set(id)) {
            Some(was_set) => !was_set,
            None => self.overflow.insert((core, id)),
        };
        self.in_flight += u64::from(fresh);
        fresh
    }

    /// Takes `fetch` out of flight; `false` if it was not in flight.
    fn unmark(&mut self, fetch: &MemFetch) -> bool {
        let (core, id) = (fetch.core_id, fetch.id);
        let found = self.windows.get_mut(core).is_some_and(|w| w.clear(id))
            || self.overflow.remove(&(core, id));
        self.in_flight -= u64::from(found);
        found
    }

    /// The first few in-flight fetches in ascending `(core, id)` order.
    fn in_flight_sample(&self) -> Vec<(usize, u64)> {
        const SAMPLE: usize = 8;
        let windowed = self
            .windows
            .iter()
            .enumerate()
            .flat_map(|(core, w)| w.ids().map(move |id| (core, id)));
        // The smallest of the union are among the smallest of each part.
        let mut sample: Vec<(usize, u64)> = windowed
            .take(SAMPLE)
            .chain(self.overflow.iter().copied().take(SAMPLE))
            .collect();
        sample.sort_unstable();
        sample.truncate(SAMPLE);
        sample
    }

    /// Records a fetch leaving its core toward the memory system.
    pub fn emitted(&mut self, fetch: &MemFetch) {
        if !Self::tracks(fetch) {
            return;
        }
        self.emitted += 1;
        if !self.mark(fetch) {
            self.violate(format!(
                "fetch core={} id={} emitted twice",
                fetch.core_id, fetch.id
            ));
        }
    }

    /// Records a no-response fetch (store) being absorbed by the memory
    /// system — its terminal event.
    pub fn absorbed(&mut self, fetch: &MemFetch) {
        if !Self::tracks(fetch) {
            return;
        }
        self.absorbed += 1;
        if fetch.kind.wants_response() {
            self.violate(format!(
                "fetch core={} id={} ({:?}) absorbed but expects a response",
                fetch.core_id, fetch.id, fetch.kind
            ));
        }
        if !self.unmark(fetch) {
            self.violate(format!(
                "fetch core={} id={} absorbed without being emitted",
                fetch.core_id, fetch.id
            ));
        }
    }

    /// Records a response reaching its core at `now_ps` — the terminal
    /// event for loads and instruction fetches. Checks that every stamped
    /// hop timestamp is monotone (`created ≤ icnt_inject ≤ l2_arrive ≤
    /// l2_done/dram_arrive ≤ dram_done ≤ now`; unstamped hops — zero — are
    /// skipped, since ideal models bypass parts of the hierarchy).
    pub fn returned(&mut self, fetch: &MemFetch, now_ps: Picos) {
        if !Self::tracks(fetch) {
            return;
        }
        self.returned += 1;
        if !fetch.kind.wants_response() {
            self.violate(format!(
                "fetch core={} id={} ({:?}) returned but expects no response",
                fetch.core_id, fetch.id, fetch.kind
            ));
        }
        if !self.unmark(fetch) {
            self.violate(format!(
                "fetch core={} id={} returned without being emitted",
                fetch.core_id, fetch.id
            ));
        }
        let t = &fetch.time;
        let hops = [
            ("created", t.created),
            ("icnt_inject", t.icnt_inject),
            ("l2_arrive", t.l2_arrive),
            ("l2_done", t.l2_done),
            ("dram_arrive", t.dram_arrive),
            ("dram_done", t.dram_done),
            ("returned", now_ps),
        ];
        let mut prev: Option<(&str, Picos)> = None;
        for (name, ts) in hops {
            if ts == Picos::ZERO && name != "returned" {
                continue; // hop not reached (ideal models skip levels)
            }
            if let Some((pname, pts)) = prev {
                if ts < pts {
                    self.violate(format!(
                        "fetch core={} id={}: {name}={ts} before {pname}={pts}",
                        fetch.core_id, fetch.id
                    ));
                }
            }
            prev = Some((name, ts));
        }
    }

    /// Current ledger counts.
    pub fn summary(&self) -> AuditSummary {
        AuditSummary {
            emitted: self.emitted,
            returned: self.returned,
            absorbed: self.absorbed,
            in_flight: self.in_flight,
        }
    }

    /// Verifies conservation at end of run. When the run drained
    /// (`drained = true`) every emitted fetch must have terminated; a run
    /// stopped by the cycle cap may legitimately leave fetches in flight.
    ///
    /// # Errors
    ///
    /// Returns a description of every recorded violation, and of leaked
    /// fetches when `drained`.
    pub fn finish(&self, drained: bool) -> Result<AuditSummary, String> {
        let mut problems = self.violations.clone();
        if drained && self.in_flight > 0 {
            let sample: Vec<String> = self
                .in_flight_sample()
                .iter()
                .map(|(c, i)| format!("core={c} id={i}"))
                .collect();
            problems.push(format!(
                "{} fetch(es) emitted but never returned/absorbed: {}",
                self.in_flight,
                sample.join(", ")
            ));
        }
        if drained && self.emitted != self.returned + self.absorbed + self.in_flight {
            problems.push(format!(
                "ledger imbalance: emitted {} != returned {} + absorbed {}",
                self.emitted, self.returned, self.absorbed
            ));
        }
        if problems.is_empty() {
            Ok(self.summary())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::fetch::{AccessKind, Timestamps};

    fn load(core: usize, id: u64) -> MemFetch {
        MemFetch::new(id, core, 0, AccessKind::Load, LineAddr::new(id), 10)
    }

    fn store(core: usize, id: u64) -> MemFetch {
        MemFetch::new(id, core, 0, AccessKind::Store, LineAddr::new(id), 10)
    }

    #[test]
    fn windowed_means_flush_per_window() {
        let mut t = Telemetry::new(4, &["q"]);
        for v in [1.0, 2.0, 3.0, 4.0, 10.0, 10.0] {
            t.record(&[v]);
        }
        let snap = t.snapshot();
        assert_eq!(snap.series[0].points, vec![2.5, 10.0]);
    }

    #[test]
    fn bulk_replay_equals_repeated_records_across_boundaries() {
        // The fast-forward replays skipped cycles with `record_n`; it must
        // flush at the same boundaries, with the same means, as stepping.
        let (mut bulk, mut step) = (
            Telemetry::new(4, &["a", "b"]),
            Telemetry::new(4, &["a", "b"]),
        );
        for (values, k) in [
            ([1.0, 2.0], 3),
            ([5.0, 0.0], 7),
            ([3.0, 9.0], 1),
            ([2.0, 4.0], 9),
        ] {
            bulk.record_n(&values, k);
            for _ in 0..k {
                step.record(&values);
            }
            assert_eq!(bulk.snapshot(), step.snapshot());
        }
        assert_eq!(
            bulk.snapshot().series[0].points.len(),
            5,
            "four full windows and a partial"
        );
    }

    #[test]
    fn json_and_csv_shapes() {
        let mut t = Telemetry::new(1, &["a", "b"]);
        t.record(&[1.5, 2.0]);
        let snap = t.snapshot();
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"window_cycles\":1,\"series\":[{\"name\":\"a\",\"points\":[1.5]},{\"name\":\"b\",\"points\":[2]}]}"
        );
        let csv = snap.to_csv();
        assert_eq!(csv, "window,a,b\n0,1.5,2\n");
    }

    #[test]
    fn partial_window_is_exported() {
        let mut t = Telemetry::new(100, &["a"]);
        t.record(&[7.0]); // far from a boundary
        assert_eq!(t.snapshot().series[0].points, vec![7.0]);
    }

    #[test]
    fn empty_series_exports_cleanly() {
        // Regression: a series with zero windows must export as an empty
        // points array / a header-only CSV, not malformed output.
        let t = Telemetry::new(8, &["quiet"]);
        let snap = t.snapshot();
        assert_eq!(snap.series.len(), 1);
        assert!(snap.series[0].points.is_empty());
        assert_eq!(
            snap.to_json(),
            "{\"window_cycles\":8,\"series\":[{\"name\":\"quiet\",\"points\":[]}]}"
        );
        assert_eq!(snap.to_csv(), "window,quiet\n", "header only, no rows");
    }

    #[test]
    fn no_series_at_all_exports_cleanly() {
        let t = Telemetry::new(8, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.to_json(), "{\"window_cycles\":8,\"series\":[]}");
        assert_eq!(snap.to_csv(), "window\n");
    }

    #[test]
    fn audit_balanced_ledger_passes() {
        let mut a = FetchAudit::default();
        let l = load(0, 1);
        let s = store(0, 2);
        a.emitted(&l);
        a.emitted(&s);
        a.absorbed(&s);
        a.returned(&l, Picos(50));
        let sum = a.finish(true).expect("balanced ledger");
        assert_eq!(sum.emitted, 2);
        assert_eq!(sum.returned, 1);
        assert_eq!(sum.absorbed, 1);
        assert_eq!(sum.in_flight, 0);
    }

    #[test]
    fn audit_catches_dropped_fetch() {
        let mut a = FetchAudit::default();
        a.emitted(&load(3, 7));
        let err = a.finish(true).expect_err("dropped fetch must fail");
        assert!(err.contains("core=3 id=7"), "err: {err}");
        assert!(err.contains("never returned"), "err: {err}");
    }

    #[test]
    fn audit_allows_in_flight_when_capped() {
        let mut a = FetchAudit::default();
        a.emitted(&load(0, 1));
        assert!(a.finish(false).is_ok(), "cycle-capped runs may leak");
    }

    #[test]
    fn audit_catches_double_emit_and_double_return() {
        let mut a = FetchAudit::default();
        let l = load(0, 1);
        a.emitted(&l);
        a.emitted(&l);
        assert!(a.finish(false).unwrap_err().contains("emitted twice"));

        let mut a = FetchAudit::default();
        a.emitted(&l);
        a.returned(&l, Picos(20));
        a.returned(&l, Picos(30));
        assert!(a
            .finish(true)
            .unwrap_err()
            .contains("without being emitted"));
    }

    #[test]
    fn audit_catches_non_monotone_timestamps() {
        // One hop out of order per case: `l2_arrive`, then `dram_arrive` —
        // stamped as a miss leaves its L2 bank — on either side.
        for ([icnt_inject, l2_arrive, l2_done, dram_arrive, dram_done], complaint) in [
            ([100, 40, 0, 0, 0], "l2_arrive=40 before icnt_inject=100"),
            ([0, 0, 30, 25, 40], "dram_arrive=25 before l2_done=30"),
            ([0, 0, 30, 45, 40], "dram_done=40 before dram_arrive=45"),
        ] {
            let mut a = FetchAudit::default();
            let mut l = load(0, 1);
            a.emitted(&l);
            l.time = Timestamps {
                icnt_inject: Picos(icnt_inject),
                l2_arrive: Picos(l2_arrive),
                l2_done: Picos(l2_done),
                dram_arrive: Picos(dram_arrive),
                dram_done: Picos(dram_done),
                ..l.time
            };
            a.returned(&l, Picos(500));
            let err = a.finish(true).expect_err("must flag reversal");
            assert!(err.contains(complaint), "{err}");
        }
    }

    #[test]
    fn audit_skips_unstamped_hops() {
        let mut a = FetchAudit::default();
        let mut l = load(0, 1);
        a.emitted(&l);
        // Ideal model: only created and returned are stamped.
        l.time.created = Picos(10);
        a.returned(&l, Picos(500));
        assert!(a.finish(true).is_ok());
    }

    #[test]
    fn audit_holds_ids_no_core_would_produce() {
        // A hand-built id far beyond any window sits next to an ordinary
        // one; both are tracked, reported in order, and terminate cleanly.
        let mut a = FetchAudit::default();
        let (near, far) = (load(0, 3), load(0, u64::MAX - 1));
        let (far_core, top) = (load(usize::MAX - 1, 5), load(2, u64::MAX));
        for f in [&far, &near, &far_core, &top] {
            a.emitted(f);
        }
        assert_eq!(a.summary().in_flight, 4);
        a.emitted(&far);
        let err = a.finish(true).expect_err("four leaks and a duplicate");
        assert!(
            err.contains("id=18446744073709551614 emitted twice"),
            "{err}"
        );
        assert!(
            err.contains(&format!(
                "4 fetch(es) emitted but never returned/absorbed: core=0 id=3, \
                 core=0 id={}, core=2 id={}, core={} id=5",
                u64::MAX - 1,
                u64::MAX,
                usize::MAX - 1
            )),
            "{err}"
        );
        for f in [&near, &far, &far_core, &top] {
            a.returned(f, Picos(50));
        }
        assert_eq!(a.summary().in_flight, 0);
        a.returned(&far, Picos(60));
        assert!(a
            .finish(false)
            .unwrap_err()
            .ends_with("id=18446744073709551614 returned without being emitted"));
    }

    #[test]
    fn audit_window_slides_with_the_ids() {
        // Sequential ids with a bounded number in flight, as a core makes
        // them: the window's base follows, its length stays bounded.
        let mut a = FetchAudit::default();
        for id in 0..10_000u64 {
            a.emitted(&load(1, id));
            if id >= 100 {
                a.returned(&load(1, id - 100), Picos(50));
            }
        }
        assert_eq!(a.summary().in_flight, 100);
        let w = &a.windows[1];
        assert!(w.base >= 9_900 - 64 && w.words.len() <= 3, "{w:?}");
        assert!(a.overflow.is_empty());
        assert_eq!(
            w.ids().collect::<Vec<_>>(),
            (9_900..10_000).collect::<Vec<_>>()
        );
        // An id the base has passed cannot use the window any more; it is
        // still tracked, and a repeat of it is still caught.
        let late = load(1, 7);
        a.emitted(&late);
        assert_eq!(a.overflow.len(), 1);
        a.emitted(&late);
        a.returned(&late, Picos(50));
        assert_eq!(a.summary().in_flight, 100);
        let err = a.finish(false).unwrap_err();
        assert_eq!(err, "fetch core=1 id=7 emitted twice");
        // Draining the window lets it re-anchor anywhere.
        for id in 9_900..10_000u64 {
            a.returned(&load(1, id), Picos(60));
        }
        a.emitted(&load(1, 5));
        assert!(a.overflow.is_empty() && a.windows[1].base == 0);
    }

    #[test]
    fn audit_ignores_writebacks() {
        let mut a = FetchAudit::default();
        let wb = MemFetch::write_back(LineAddr::new(4), Picos::ZERO);
        a.emitted(&wb);
        a.absorbed(&wb);
        assert_eq!(a.finish(true).unwrap(), AuditSummary::default());
    }
}
