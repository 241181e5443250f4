//! Fixed-bucket histograms with preallocated storage.
//!
//! A [`Histogram`] is a set of ascending finite upper bounds plus one
//! overflow bucket, a running sum/count, and observed min/max. Everything
//! is allocated at construction; [`Histogram::record`] is a binary search
//! over the bounds plus a handful of scalar updates — zero heap
//! allocations, so it is safe inside the workspace's guarded steady-state
//! loops (fleet rounds, `Detector::step`).
//!
//! Bucket semantics follow the Prometheus exposition format: bucket `i`
//! counts observations `v` with `bounds[i-1] < v <= bounds[i]` (`le`
//! boundaries), and the overflow bucket counts `v > bounds.last()`.

/// A fixed-bucket histogram. See the module docs for bucket semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending finite upper bounds (`le` boundaries).
    bounds: Box<[f64]>,
    /// One count per bound plus the trailing overflow bucket.
    counts: Box<[u64]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Builds a histogram over explicit ascending finite upper bounds.
    ///
    /// # Panics
    /// Panics on an empty, non-finite, or non-strictly-ascending bound
    /// list.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket bound");
        assert!(bounds.iter().all(|b| b.is_finite()), "bucket bounds must be finite");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        let counts = vec![0u64; bounds.len() + 1].into_boxed_slice();
        Self {
            bounds: bounds.into_boxed_slice(),
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Log-scale buckets: upper bounds `first, 2·first, 4·first, …` until
    /// `last` is covered — the latency-histogram shape (e.g.
    /// `log2(1e-6, 16.0)` spans 1 µs to 16 s in 25 buckets).
    ///
    /// # Panics
    /// Panics unless `0 < first <= last`.
    pub fn log2(first: f64, last: f64) -> Self {
        assert!(first > 0.0 && first.is_finite(), "log2 buckets need a positive first bound");
        assert!(last >= first && last.is_finite(), "last bound must be >= first");
        let mut bounds = vec![first];
        while *bounds.last().expect("non-empty") < last {
            let next = bounds.last().expect("non-empty") * 2.0;
            bounds.push(next);
        }
        Self::new(bounds)
    }

    /// Round-latency buckets in seconds: log-scale from 1 µs to 16 s at
    /// quarter-octave resolution (bounds grow by 2^¼ ≈ 19%), fine enough
    /// that the interpolated p50/p99 track exact sorted-sample
    /// percentiles.
    pub fn latency() -> Self {
        let mut bounds = vec![1e-6];
        while *bounds.last().expect("non-empty") < 16.0 {
            let next = bounds.last().expect("non-empty") * std::f64::consts::SQRT_2.sqrt();
            bounds.push(next);
        }
        Self::new(bounds)
    }

    /// `n` equal-width buckets spanning `(lo, hi]` — the bounded-domain
    /// shape (e.g. `linear(0.0, 1.0, 20)` for nonconformity scores).
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `n > 0`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "need a finite lo < hi span");
        let width = (hi - lo) / n as f64;
        // The last bound is pinned to `hi` exactly so accumulated rounding
        // cannot leak top-of-range observations into the overflow bucket.
        let bounds = (1..=n)
            .map(|i| if i == n { hi } else { lo + width * i as f64 })
            .collect();
        Self::new(bounds)
    }

    /// Records one observation. Zero-alloc. NaN observations are ignored
    /// (they order nowhere and would poison the running sum).
    #[inline]
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Index of the bucket `value` falls in (`bounds.len()` = overflow).
    pub fn bucket_for(&self, value: f64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }

    /// Smallest recorded observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The ascending upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; `counts()[bounds().len()]` is the overflow
    /// bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Quantile estimate `q ∈ [0, 1]`: locates the bucket holding the
    /// rank-`⌈q·count⌉` observation and interpolates linearly inside it,
    /// clamped to the observed `[min, max]` (so `quantile(0.5)` of a
    /// single observation is that observation, not a bucket edge).
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() { self.bounds[i] } else { self.max };
                let frac = (target - cum) as f64 / c as f64;
                let v = lower + (upper - lower) * frac;
                return v.clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Adds another histogram's buckets into this one.
    ///
    /// # Panics
    /// Panics when the bucket boundaries differ.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket boundaries"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `le` boundary semantics: a value exactly on a bound lands in
    /// that bound's bucket, the next representable value above it in the
    /// following bucket.
    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::linear(0.0, 1.0, 4); // bounds 0.25 0.5 0.75 1.0
        assert_eq!(h.bounds(), &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(h.bucket_for(0.0), 0);
        assert_eq!(h.bucket_for(0.25), 0, "on-bound lands in the le bucket");
        assert_eq!(h.bucket_for(0.25f64.next_up()), 1);
        assert_eq!(h.bucket_for(1.0), 3, "top of range is not overflow");
        assert_eq!(h.bucket_for(1.0f64.next_up()), 4, "past the end is overflow");
        assert_eq!(h.bucket_for(-3.0), 0, "below range lands in the first bucket");
    }

    #[test]
    fn log2_buckets_double_and_cover_the_range() {
        let h = Histogram::log2(1e-6, 16.0);
        let bounds = h.bounds();
        assert_eq!(bounds[0], 1e-6);
        assert!(*bounds.last().unwrap() >= 16.0);
        for w in bounds.windows(2) {
            assert_eq!(w[1], w[0] * 2.0);
        }
        assert_eq!(h.bucket_for(1e-6), 0);
        assert_eq!(h.bucket_for(1.5e-6), 1);
        assert_eq!(h.bucket_for(1e9), bounds.len(), "way past the end is overflow");
    }

    #[test]
    fn latency_buckets_grow_by_a_quarter_octave_from_1us_to_16s() {
        let h = Histogram::latency();
        let bounds = h.bounds();
        assert_eq!(bounds[0], 1e-6);
        assert!(bounds[bounds.len() - 2] < 16.0 && *bounds.last().unwrap() >= 16.0);
        for w in bounds.windows(2) {
            assert!((w[1] / w[0] - 2f64.powf(0.25)).abs() < 1e-12);
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for v in [1.0, 2.0, 9.5, 12.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 24.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 12.0);
        assert_eq!(h.counts()[10], 1, "12.0 overflows");
        assert_eq!(h.mean(), 24.5 / 4.0);
    }

    #[test]
    fn nan_observations_are_ignored() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.5);
    }

    #[test]
    fn quantiles_interpolate_and_clamp_to_observed_range() {
        let mut h = Histogram::linear(0.0, 100.0, 100);
        for i in 1..=100 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.50);
        assert!((p50 - 50.0).abs() <= 1.0, "p50 within one bucket: {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99.0).abs() <= 1.0, "p99 within one bucket: {p99}");
        assert_eq!(h.quantile(0.0), 1.0, "q=0 clamps to the observed min");
        assert_eq!(h.quantile(1.0), 100.0, "q=1 is the observed max");

        let mut single = Histogram::log2(1e-6, 1.0);
        single.record(3e-4);
        assert_eq!(single.quantile(0.5), 3e-4, "single observation is every quantile");
        assert_eq!(Histogram::linear(0.0, 1.0, 2).quantile(0.5), 0.0, "empty → 0");
    }

    #[test]
    fn merge_adds_bucketwise_and_keeps_extrema() {
        let mut a = Histogram::linear(0.0, 1.0, 4);
        let mut b = Histogram::linear(0.0, 1.0, 4);
        a.record(0.1);
        a.record(0.6);
        b.record(0.9);
        b.record(2.0);
        a.merge_from(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 0.1);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.counts().iter().sum::<u64>(), 4);
    }

    #[test]
    #[should_panic(expected = "identical bucket boundaries")]
    fn merge_with_different_bounds_panics() {
        let mut a = Histogram::linear(0.0, 1.0, 4);
        let b = Histogram::linear(0.0, 1.0, 5);
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(vec![1.0, 0.5]);
    }
}
