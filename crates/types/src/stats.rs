//! Small statistics accumulators used across the simulator.

/// A named event counter.
///
/// # Example
///
/// ```
/// use gmh_types::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Streaming arithmetic mean of `f64` samples.
///
/// Used for the latency statistics (AML, L2-AHL): each returning fetch
/// contributes one sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanAccumulator {
    sum: f64,
    n: u64,
}

impl MeanAccumulator {
    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        self.sum += sample;
        self.n += 1;
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// A numerator/denominator pair reported as a ratio, e.g. DRAM bandwidth
/// efficiency = busy cycles / cycles with pending requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RatioStat {
    num: u64,
    den: u64,
}

impl RatioStat {
    /// Adds to the numerator (the "interesting" event).
    pub fn hit(&mut self) {
        self.num += 1;
        self.den += 1;
    }

    /// Adds to the denominator only.
    pub fn miss(&mut self) {
        self.den += 1;
    }

    /// Adds raw amounts to both sides.
    pub fn add(&mut self, num: u64, den: u64) {
        self.num += num;
        self.den += den;
    }

    /// The numerator.
    pub fn numerator(&self) -> u64 {
        self.num
    }

    /// The denominator.
    pub fn denominator(&self) -> u64 {
        self.den
    }

    /// num / den, or 0.0 when the denominator is zero.
    pub fn ratio(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// A fixed-range linear histogram for latency distributions.
///
/// Samples are bucketed into `n_buckets` equal spans over `[0, max)`, with
/// an implicit overflow bucket; percentiles are interpolated from bucket
/// boundaries. Used for the round-trip latency distributions behind the
/// paper's AML discussion (a mean of 452 cycles hides a long tail — the
/// tail is what stalls warps).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    bucket_width: f64,
    count: u64,
}

impl LatencyHistogram {
    /// Creates a histogram covering `[0, max)` with `n_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `max <= 0` or `n_buckets == 0`.
    pub fn new(max: f64, n_buckets: usize) -> Self {
        assert!(max > 0.0, "histogram range must be positive");
        assert!(n_buckets > 0, "need at least one bucket");
        LatencyHistogram {
            buckets: vec![0; n_buckets],
            overflow: 0,
            bucket_width: max / n_buckets as f64,
            count: 0,
        }
    }

    /// Records one sample.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates, and the index is bounds-checked below"
    )]
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        // Float-to-int `as` saturates in Rust, and the index is
        // bounds-checked against the bucket array below.
        let idx = (sample / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated to bucket bounds;
    /// 0.0 with no samples. Overflow samples report the range maximum.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates, and the target is bounded by count"
    )]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Float-to-int `as` saturates, and the target is bounded by
        // count (q is clamped to [0, 1]).
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (i as f64 + 1.0) * self.bucket_width;
            }
        }
        self.buckets.len() as f64 * self.bucket_width
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "geometry mismatch");
        assert!(
            (self.bucket_width - other.bucket_width).abs() < 1e-9,
            "geometry mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

impl Default for LatencyHistogram {
    /// Covers 0–4 µs in 200 buckets of 20 ns — in picosecond units, the
    /// span from an L1 hit to a deeply congested DRAM round trip
    /// (≈ 5600 core cycles at 1.4 GHz, with ≈ 28-cycle resolution).
    fn default() -> Self {
        LatencyHistogram::new(4_000_000.0, 200)
    }
}

/// Number of buckets in a [`Histogram`]: one per possible bit length of a
/// `u64` sample (0 through 64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (durations in picoseconds,
/// queue depths, byte counts — anything non-negative with a long tail).
///
/// Bucket `i` counts samples whose bit length is `i`: bucket 0 holds the
/// value 0, and bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`. Log2 bucketing
/// gives constant relative resolution across nine orders of magnitude with
/// 65 fixed buckets and no configuration — the right shape for latency
/// distributions whose interesting structure spans L1-hit picoseconds to
/// congested-DRAM microseconds. No external dependencies.
///
/// # Example
///
/// ```
/// use gmh_types::Histogram;
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(1000);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.sum(), 1003);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }

    /// The bucket index a value falls into (its bit length).
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (`0`, then `2^i - 1`).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64.checked_shl(u32::try_from(i.min(64)).unwrap_or(64))
                .map_or(u64::MAX, |v| v - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, indexed by bit length (see type docs).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the inclusive upper bound of
    /// the bucket where the cumulative count crosses the target; 0.0 with
    /// no samples.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates, and the target is bounded by count"
    )]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Float-to-int `as` saturates, and the target is bounded by
        // count (q is clamped to [0, 1]).
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(i) as f64;
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn mean_of_no_samples_is_zero() {
        assert_eq!(MeanAccumulator::default().mean(), 0.0);
    }

    #[test]
    fn mean_computes() {
        let mut m = MeanAccumulator::default();
        m.push(1.0);
        m.push(2.0);
        m.push(3.0);
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn ratio_hit_miss() {
        let mut r = RatioStat::default();
        r.hit();
        r.hit();
        r.miss();
        assert!((r.ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(RatioStat::default().ratio(), 0.0);
    }

    #[test]
    fn ratio_add_raw() {
        let mut r = RatioStat::default();
        r.add(41, 100);
        assert!((r.ratio() - 0.41).abs() < 1e-12);
        assert_eq!(r.numerator(), 41);
        assert_eq!(r.denominator(), 100);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::new(100.0, 10);
        for v in [5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 95.0] {
            h.push(v);
        }
        assert_eq!(h.count(), 10);
        // Median falls in the 5th bucket -> upper bound 50.
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.1), 10.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn latency_histogram_overflow_reports_max() {
        let mut h = LatencyHistogram::new(100.0, 10);
        h.push(1e9);
        assert_eq!(h.quantile(0.5), 100.0);
    }

    #[test]
    fn latency_histogram_empty_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn latency_histogram_default_covers_congested_round_trips() {
        let mut h = LatencyHistogram::default();
        h.push(800.0 * 714.0); // 800 core cycles at 1.4 GHz, in ps
        assert!(h.quantile(1.0) < 4_000_000.0, "in range, not overflow");
    }

    #[test]
    fn latency_histogram_merge() {
        let mut a = LatencyHistogram::new(100.0, 10);
        let mut b = LatencyHistogram::new(100.0, 10);
        a.push(10.0);
        b.push(90.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn latency_histogram_merge_rejects_mismatch() {
        let mut a = LatencyHistogram::new(100.0, 10);
        let b = LatencyHistogram::new(200.0, 10);
        a.merge(&b);
    }

    #[test]
    fn log2_histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2: [2, 3]
        h.record(3);
        h.record(1023); // bucket 10: [512, 1023]
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[10], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1029);
        assert!((h.mean() - 1029.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn log2_histogram_bucket_bounds() {
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(10), 1023);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn log2_histogram_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        // Median at the 5th sample (16) -> bucket upper bound 31.
        assert_eq!(h.quantile(0.5), 31.0);
        assert_eq!(h.quantile(1.0), 1023.0);
        assert_eq!(Histogram::new().quantile(0.9), 0.0);
    }

    #[test]
    fn log2_histogram_merge_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(u64::MAX); // top bucket, saturating sum
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.counts()[64], 2);
        assert_eq!(a.sum(), u64::MAX, "sum saturates instead of wrapping");
    }
}
