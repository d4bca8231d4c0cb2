//! Measurement collectors for simulations.

use qic_physics::time::Duration;

use crate::time::SimTime;

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.0
    }
}

/// Running min/max/mean/variance/count over `f64` samples.
///
/// Variance uses Welford's online algorithm (a running mean and a
/// centred second moment), which stays accurate for large-magnitude
/// samples with small spread — e.g. microsecond jitter on a `1e8` µs
/// makespan — where a naive sum-of-squares accumulator would cancel
/// catastrophically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tally {
    count: u64,
    sum: f64,
    /// Running (Welford) mean.
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Tally {
    /// Same as [`Tally::new`] (the min/max accumulators start at
    /// `±∞`, not zero).
    fn default() -> Self {
        Tally::new()
    }
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            sum: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a duration sample in microseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_us_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (`None` when empty). Uses the running
    /// (Welford) mean, which shares its conditioning with
    /// [`Tally::variance`].
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance (`n-1` denominator); `None` with fewer
    /// than two samples.
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        // Welford's m2 is non-negative by construction.
        Some(self.m2 / (self.count as f64 - 1.0))
    }

    /// Sample standard deviation; `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean; `None` with fewer than two samples.
    pub fn std_err(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }

    /// Half-width of the 95% confidence interval on the mean (normal
    /// approximation, `1.96·SE`); `None` with fewer than two samples.
    pub fn ci95_half_width(&self) -> Option<f64> {
        self.std_err().map(|se| 1.96 * se)
    }

    /// Folds another tally into this one (Chan's parallel Welford
    /// merge), as if this tally had also recorded every sample `other`
    /// recorded.
    ///
    /// Count, sum, min and max combine exactly. Mean and variance
    /// combine by the pairwise update
    /// `m2 = m2_a + m2_b + δ²·n_a·n_b/n`, which matches a sequential
    /// fold of the same samples to floating-point rounding (tests pin
    /// `1e-12` relative agreement) but **not necessarily bit-for-bit**
    /// — paths that promise byte-identical reports must fold samples
    /// in a fixed order instead of merging partial tallies.
    ///
    /// Merging an empty tally (either side) is an exact identity:
    /// `a.merge(empty)` leaves `a` bitwise untouched, and
    /// `empty.merge(b)` makes `empty` a bitwise copy of `b`.
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let count = self.count + other.count;
        let delta = other.mean - self.mean;
        let n_a = self.count as f64;
        let n_b = other.count as f64;
        let n = count as f64;
        self.mean += delta * (n_b / n);
        self.m2 += other.m2 + delta * delta * (n_a * n_b / n);
        self.count = count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact p50/p95/p99 estimates over a recorded sample set.
///
/// Percentiles use the **nearest-rank** definition: the `q`-th
/// percentile of `n` sorted samples is the sample at rank
/// `⌈q·n⌉` (1-based), so every reported value is an actual sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes p50/p95/p99 of `samples` (order irrelevant); `None`
    /// when empty.
    ///
    /// Nearest-rank (see the type docs): with one sample all three
    /// percentiles are that sample; with two, `p50` is the smaller
    /// (rank `⌈0.5·2⌉ = 1`) and `p95`/`p99` the larger. Those two cases
    /// take an allocation-free fast path — single-communication runs
    /// hit this on the simulator's report path.
    pub fn from_samples(samples: &[f64]) -> Option<Percentiles> {
        match samples {
            [] => None,
            [x] => Some(Percentiles {
                p50: *x,
                p95: *x,
                p99: *x,
            }),
            [a, b] => {
                let (lo, hi) = if a.total_cmp(b).is_le() {
                    (*a, *b)
                } else {
                    (*b, *a)
                };
                Some(Percentiles {
                    p50: lo,
                    p95: hi,
                    p99: hi,
                })
            }
            _ => {
                let mut sorted = samples.to_vec();
                sorted.sort_by(f64::total_cmp);
                Some(Percentiles {
                    p50: percentile_of_sorted(&sorted, 0.50).expect("non-empty"),
                    p95: percentile_of_sorted(&sorted, 0.95).expect("non-empty"),
                    p99: percentile_of_sorted(&sorted, 0.99).expect("non-empty"),
                })
            }
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `None` when
/// empty. `q` is clamped to `[0, 1]`.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue
/// occupancy over simulated time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    value: f64,
    since: SimTime,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking a signal with initial `value` at time `start`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            value,
            since: start,
            integral: 0.0,
            start,
        }
    }

    /// Updates the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.integral += self.value * now.since(self.since).as_us_f64();
        self.value = value;
        self.since = now;
    }

    /// Adds `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current signal value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_us_f64();
        if total == 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * now.since(self.since).as_us_f64();
        integral / total
    }
}

/// Busy-fraction tracker for a pool of `capacity` servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    busy: TimeWeighted,
    capacity: f64,
}

impl Utilization {
    /// Tracks a pool of `capacity` servers, all idle at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(start: SimTime, capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Utilization {
            busy: TimeWeighted::new(start, 0.0),
            capacity: f64::from(capacity),
        }
    }

    /// Marks one more server busy.
    pub fn acquire(&mut self, now: SimTime) {
        self.busy.add(now, 1.0);
        debug_assert!(self.busy.value() <= self.capacity + 1e-9, "over-acquired");
    }

    /// Marks one server idle again.
    pub fn release(&mut self, now: SimTime) {
        self.busy.add(now, -1.0);
        debug_assert!(self.busy.value() >= -1e-9, "released more than acquired");
    }

    /// Mean utilization in `[0, 1]` over the run so far.
    pub fn mean(&self, now: SimTime) -> f64 {
        self.busy.mean(now) / self.capacity
    }

    /// Servers currently busy.
    pub fn busy_now(&self) -> f64 {
        self.busy.value()
    }
}

/// A base-2 logarithmic histogram of positive values (latencies, counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` (bucket 0 also takes
    /// everything below 1).
    buckets: Vec<u64>,
    count: u64,
}

impl LogHistogram {
    /// A histogram with `2^n`-width buckets up to `2^max_exp`.
    pub fn new(max_exp: u32) -> Self {
        LogHistogram {
            buckets: vec![0; max_exp as usize + 1],
            count: 0,
        }
    }

    /// Records a sample (values < 1 land in bucket 0; overflow lands in the
    /// last bucket).
    pub fn record(&mut self, x: f64) {
        let idx = if x < 2.0 {
            0
        } else {
            (x.log2() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket counts (`[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// An approximate quantile (bucket upper edge), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target.max(1) {
                return Some(2f64.powi(i as i32 + 1));
            }
        }
        Some(2f64.powi(self.buckets.len() as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.bump();
        c.add(4);
        assert_eq!(c.count(), 5);
    }

    #[test]
    fn tally_stats() {
        let mut t = Tally::new();
        assert_eq!(t.mean(), None);
        for x in [2.0, 4.0, 6.0] {
            t.record(x);
        }
        assert_eq!(t.mean(), Some(4.0));
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(6.0));
        assert_eq!(t.count(), 3);
        assert_eq!(t.sum(), 12.0);
        t.record_duration(Duration::from_micros(8));
        assert_eq!(t.max(), Some(8.0));
    }

    #[test]
    fn tally_variance_and_ci() {
        let mut t = Tally::new();
        assert_eq!(t.variance(), None);
        t.record(4.0);
        assert_eq!(t.variance(), None, "one sample has no variance");
        for x in [6.0, 8.0] {
            t.record(x);
        }
        // Samples 4, 6, 8: mean 6, sample variance 4, std dev 2.
        assert!((t.variance().unwrap() - 4.0).abs() < 1e-9);
        assert!((t.std_dev().unwrap() - 2.0).abs() < 1e-9);
        let se = 2.0 / 3f64.sqrt();
        assert!((t.std_err().unwrap() - se).abs() < 1e-9);
        assert!((t.ci95_half_width().unwrap() - 1.96 * se).abs() < 1e-9);
    }

    #[test]
    fn tally_zero_variance_for_constant_samples() {
        let mut t = Tally::new();
        for _ in 0..5 {
            t.record(0.1);
        }
        assert!(t.variance().unwrap() >= 0.0);
        assert!(t.variance().unwrap() < 1e-12);
    }

    #[test]
    fn tally_default_matches_new() {
        let mut t = Tally::default();
        t.record(5.0);
        assert_eq!(t.min(), Some(5.0), "no phantom 0 minimum");
        let mut neg = Tally::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), Some(-3.0));
    }

    #[test]
    fn tally_variance_survives_large_offsets() {
        // Welford regression test: µs-scale jitter on a 1e8 µs base.
        // A naive sum-of-squares accumulator cancels to garbage here.
        let mut t = Tally::new();
        for x in [1e8, 1e8 + 1.0, 1e8 + 2.0] {
            t.record(x);
        }
        assert!((t.variance().unwrap() - 1.0).abs() < 1e-6);
        assert!((t.mean().unwrap() - (1e8 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn tally_merge_of_splits_matches_whole() {
        let samples: Vec<f64> = (0..40).map(|i| 1e8 + (i as f64) * 0.25).collect();
        let mut whole = Tally::new();
        for &x in &samples {
            whole.record(x);
        }
        for split in [1, 7, 20, 39] {
            let (left, right) = samples.split_at(split);
            let mut a = Tally::new();
            let mut b = Tally::new();
            left.iter().for_each(|&x| a.record(x));
            right.iter().for_each(|&x| b.record(x));
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
            let rel = |got: f64, want: f64| ((got - want) / want).abs();
            assert!(rel(a.mean().unwrap(), whole.mean().unwrap()) < 1e-12);
            assert!(
                rel(a.variance().unwrap(), whole.variance().unwrap()) < 1e-12,
                "split at {split}: {} vs {}",
                a.variance().unwrap(),
                whole.variance().unwrap()
            );
        }
    }

    #[test]
    fn tally_merge_empty_is_bitwise_identity() {
        let mut a = Tally::new();
        a.record(3.0);
        a.record(-1.5);
        let before = a;
        a.merge(&Tally::new());
        assert_eq!(a, before, "merging an empty tally must be a no-op");
        let mut empty = Tally::new();
        empty.merge(&before);
        assert_eq!(empty, before, "empty.merge(b) must copy b exactly");
        let mut both = Tally::new();
        both.merge(&Tally::new());
        assert_eq!(both, Tally::new());
        assert_eq!(both.mean(), None);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::from_samples(&samples).unwrap();
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        // Order must not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(Percentiles::from_samples(&reversed), Some(p));
    }

    #[test]
    fn percentiles_small_sets() {
        assert_eq!(Percentiles::from_samples(&[]), None);
        let one = Percentiles::from_samples(&[7.5]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99), (7.5, 7.5, 7.5));
        let two = Percentiles::from_samples(&[10.0, 20.0]).unwrap();
        assert_eq!(two.p50, 10.0, "nearest rank: ceil(0.5*2)=1st sample");
        assert_eq!(two.p99, 20.0);
        // The two-sample fast path must order its inputs itself.
        assert_eq!(Percentiles::from_samples(&[20.0, 10.0]), Some(two));
    }

    #[test]
    fn percentiles_duplicate_heavy_sets() {
        // All-identical samples: every percentile is that value.
        let flat = Percentiles::from_samples(&[3.0; 64]).unwrap();
        assert_eq!((flat.p50, flat.p95, flat.p99), (3.0, 3.0, 3.0));
        // 99 copies of 1.0 and a single outlier: nearest rank keeps
        // p50/p95 on the duplicates and p99 lands exactly on rank 99 —
        // still a duplicate, never an interpolated value.
        let mut samples = vec![1.0; 99];
        samples.push(1000.0);
        let p = Percentiles::from_samples(&samples).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (1.0, 1.0, 1.0));
        // Two duplicate blocks: the p95/p99 ranks (ceil(.95·10)=10,
        // ceil(.99·10)=10) fall in the upper block, p50 (rank 5) in the
        // lower.
        let blocks = [2.0, 2.0, 2.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0, 9.0];
        let p = Percentiles::from_samples(&blocks).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (2.0, 9.0, 9.0));
    }

    #[test]
    fn percentile_of_sorted_edges() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile_of_sorted(&sorted, 1.0), Some(4.0));
        assert_eq!(percentile_of_sorted(&sorted, 0.5), Some(2.0));
        assert_eq!(percentile_of_sorted(&[], 0.5), None);
    }

    #[test]
    fn time_weighted_mean() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
        // 0 for 10µs, then 2 for 10µs → mean 1.
        w.set(SimTime::from_nanos(10_000), 2.0);
        let mean = w.mean(SimTime::from_nanos(20_000));
        assert!((mean - 1.0).abs() < 1e-12);
        assert_eq!(w.value(), 2.0);
    }

    #[test]
    fn time_weighted_empty_interval() {
        let w = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert_eq!(w.mean(SimTime::ZERO), 3.0);
    }

    #[test]
    fn utilization_half_busy() {
        let mut u = Utilization::new(SimTime::ZERO, 2);
        u.acquire(SimTime::ZERO);
        // One of two servers busy the whole time → 50%.
        let m = u.mean(SimTime::from_nanos(1_000));
        assert!((m - 0.5).abs() < 1e-12);
        u.release(SimTime::from_nanos(1_000));
        assert_eq!(u.busy_now(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new(10);
        for x in [0.5, 1.0, 3.0, 5.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 2); // 0.5 and 1.0
        assert_eq!(h.buckets()[1], 1); // 3.0
        assert_eq!(h.buckets()[2], 1); // 5.0
        assert_eq!(h.buckets()[6], 1); // 100.0
        assert!(h.quantile(0.5).unwrap() <= 8.0);
        assert!(h.quantile(1.0).unwrap() >= 128.0);
        assert_eq!(LogHistogram::new(3).quantile(0.5), None);
    }

    #[test]
    fn histogram_overflow_clamps() {
        let mut h = LogHistogram::new(3);
        h.record(1e30);
        assert_eq!(*h.buckets().last().unwrap(), 1);
    }
}
