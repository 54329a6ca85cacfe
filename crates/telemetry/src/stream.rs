//! Streaming estimators: EWMA rates, ring-buffered sliding windows, and
//! a mergeable relative-error-guaranteed quantile sketch.
//!
//! Everything here is single-writer and allocation-free on the observe
//! path (the sketch allocates only when a value opens a new log bucket).
//! These are the building blocks of the online health monitor
//! ([`crate::monitor`]): the 64-bucket base-2 [`crate::Histogram`] is
//! fine for coarse latency attribution but far too coarse for p99 delay
//! SLOs — adjacent bucket bounds differ by 2×, so a "p99" read off it can
//! be wrong by 100%. The [`QuantileSketch`] bounds the *relative* error
//! of every quantile estimate by a configurable γ (default 1%).

use std::collections::BTreeMap;

/// An exponentially weighted moving average.
///
/// `value ← γ·x + (1−γ)·value`, seeded with the first observation (no
/// zero-bias warm-up). With observations once per sampling window this is
/// the classic windowed-EWMA rate estimator: feed it `Δcount/Δt` per
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A new EWMA with smoothing factor `alpha` in `(0, 1]` (larger =
    /// faster to react, shorter memory).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must be in (0, 1]"
        );
        Ewma { alpha, value: None }
    }

    /// Folds one observation into the average.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// The current average (`None` before the first observation).
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A fixed-capacity ring buffer with O(1) windowed mean and variance.
///
/// The running `sum`/`sumsq` are updated incrementally (add the incoming
/// value, subtract the evicted one), so long streams accumulate a little
/// floating-point drift — fine for monitoring thresholds, not for
/// certified statistics. The update sequence is deterministic, so two
/// identical streams produce bit-identical windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    next: usize,
    filled: usize,
    sum: f64,
    sumsq: f64,
}

impl SlidingWindow {
    /// A window holding the last `capacity` observations.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: vec![0.0; capacity],
            next: 0,
            filled: 0,
            sum: 0.0,
            sumsq: 0.0,
        }
    }

    /// Pushes one observation, evicting the oldest when full.
    pub fn observe(&mut self, x: f64) {
        if self.filled == self.buf.len() {
            let old = self.buf[self.next];
            self.sum -= old;
            self.sumsq -= old * old;
        } else {
            self.filled += 1;
        }
        self.buf[self.next] = x;
        self.sum += x;
        self.sumsq += x * x;
        self.next = (self.next + 1) % self.buf.len();
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether the window has no observations yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Windowed mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.sum / self.filled as f64
        }
    }

    /// Windowed population variance, clamped at 0 (incremental sums can
    /// go fractionally negative).
    pub fn variance(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        let n = self.filled as f64;
        ((self.sumsq - self.sum * self.sum / n) / n).max(0.0)
    }
}

/// Values at or below this threshold land in the sketch's "zero" bucket
/// and are reported as exactly 0. Delays and backlogs are ≥ 0; the
/// log-bucket index would diverge as the value approaches 0.
pub const SKETCH_MIN_VALUE: f64 = 1e-12;

/// A DDSketch-style log-bucketed quantile sketch with a guaranteed
/// relative error bound.
///
/// A positive value `v` lands in bucket `k = ⌈log_Γ v⌉` where
/// `Γ = (1+γ)/(1−γ)` and `γ` is the configured relative accuracy; bucket
/// `k` covers `(Γ^(k−1), Γ^k]` and is reported as its log-midpoint
/// `2·Γ^k/(Γ+1)`. For any `x` in the bucket the estimate `m` satisfies
/// `|m − x| ≤ γ·x`, so every quantile estimate is within γ *relative*
/// error of some value that genuinely occupies that rank's bucket —
/// at γ = 0.01 a p99 of 100 slots is reported in [99, 101], where the
/// base-2 [`crate::Histogram`] could report anything in (64, 128].
/// (Floating-point rounding of the logarithm can push a value lying
/// *exactly* on a bucket boundary into its neighbour, relaxing the bound
/// to `γ·(1+2γ)` in that measure-zero case.)
///
/// Buckets are held in a `BTreeMap<i32, u64>`, so two sketches with equal
/// contents are structurally identical regardless of insertion order:
/// [`merge`](QuantileSketch::merge) (pointwise count addition) is exactly
/// associative and commutative on counts and quantile estimates, and a
/// merged sketch's estimates equal the sketch of the concatenated stream
/// *exactly*, not just within γ. Values in `(0, SKETCH_MIN_VALUE]`, zero,
/// negatives, and NaN all count toward a dedicated zero bucket reported
/// as 0. The value range `[1e-12, 1e12]` spans ~2⁄γ·ln(10¹²)·… in theory;
/// concretely at γ = 0.01 it is ≤ 2764 buckets, so memory stays bounded
/// by the observed dynamic range without a collapse rule.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    gamma: f64,
    /// Bucket growth factor Γ = (1+γ)/(1−γ).
    factor: f64,
    inv_log_factor: f64,
    buckets: BTreeMap<i32, u64>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Memo of the last positive value's bucket key. Delay and backlog
    /// streams repeat exact values heavily, and an exact-match hit skips
    /// the `ln` on the observe path. Pure cache: it replays what
    /// [`key`](Self::key) returned for the same bits, so hit or miss
    /// never changes which bucket a value lands in — excluded from
    /// `PartialEq` accordingly.
    memo: Option<(f64, i32)>,
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.gamma == other.gamma
            && self.buckets == other.buckets
            && self.zero == other.zero
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl QuantileSketch {
    /// A sketch with relative accuracy `gamma` in `(0, 1)`.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "sketch relative accuracy must be in (0, 1)"
        );
        let factor = (1.0 + gamma) / (1.0 - gamma);
        QuantileSketch {
            gamma,
            factor,
            inv_log_factor: 1.0 / factor.ln(),
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            memo: None,
        }
    }

    /// The configured relative accuracy γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The bucket index of a positive value.
    fn key(&self, v: f64) -> i32 {
        (v.ln() * self.inv_log_factor).ceil() as i32
    }

    /// The representative (log-midpoint) value of bucket `k`.
    fn bucket_value(&self, k: i32) -> f64 {
        2.0 * self.factor.powi(k) / (self.factor + 1.0)
    }

    /// Records one observation. NaN, negatives, and values ≤
    /// [`SKETCH_MIN_VALUE`] count toward the zero bucket.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if v.is_nan() || v <= SKETCH_MIN_VALUE {
            self.zero += 1;
            let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            return;
        }
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let key = match self.memo {
            Some((mv, mk)) if mv == v => mk,
            _ => {
                let k = self.key(v);
                self.memo = Some((v, k));
                k
            }
        };
        *self.buckets.entry(key).or_insert(0) += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all positive observed values (zero-bucket values excluded).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of live log buckets (excluding the zero bucket).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// The `q`-quantile estimate (`q` clamped into `[0, 1]`, NaN treated
    /// as 0): the representative value of the bucket containing the
    /// nearest-rank order statistic `⌈q·n⌉` (rank 1 for q = 0). `None`
    /// when the sketch is empty; exactly 0 when the rank lands in the
    /// zero bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut cumulative = self.zero;
        for (&k, &c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                return Some(self.bucket_value(k));
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// Folds `other` into `self` by pointwise bucket-count addition.
    ///
    /// Counts and quantile estimates merge exactly (associative and
    /// commutative); the running `sum` is a float addition, so only it
    /// depends on merge order (at ulp scale).
    ///
    /// # Panics
    /// When the two sketches were built with different γ — their bucket
    /// indexes are incompatible.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.gamma == other.gamma,
            "cannot merge sketches with different relative accuracies \
             ({} vs {})",
            self.gamma,
            other.gamma
        );
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_and_smooths() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.observe(0.0);
        assert_eq!(e.value(), Some(5.0));
        e.observe(5.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        for x in [1.0, 2.0, 3.0] {
            w.observe(x);
        }
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        w.observe(10.0); // evicts the 1.0
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance of {2, 3, 10}: mean 5, var (9+4+25)/3.
        assert!((w.variance() - 38.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_constant_stream_has_zero_variance() {
        let mut w = SlidingWindow::new(8);
        for _ in 0..100 {
            w.observe(7.5);
        }
        assert!((w.mean() - 7.5).abs() < 1e-12);
        assert!(w.variance() < 1e-12);
    }

    #[test]
    fn sketch_relative_error_holds_on_a_known_stream() {
        let gamma = 0.01;
        let mut s = QuantileSketch::new(gamma);
        let values: Vec<f64> = (1..=1000).map(|k| k as f64).collect();
        for &v in &values {
            s.observe(v);
        }
        assert_eq!(s.count(), 1000);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000);
            let truth = values[rank - 1];
            assert!(
                (est - truth).abs() <= gamma * truth * 1.000_001,
                "q={q}: estimate {est} vs truth {truth}"
            );
        }
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(1000.0));
    }

    #[test]
    fn sketch_zero_and_special_values() {
        let mut s = QuantileSketch::new(0.02);
        assert_eq!(s.quantile(0.5), None, "empty sketch has no quantiles");
        for v in [0.0, -3.0, f64::NAN, 1e-15] {
            s.observe(v);
        }
        s.observe(100.0);
        assert_eq!(s.count(), 5);
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(0.5), Some(0.0));
        let top = s.quantile(1.0).unwrap();
        assert!((top - 100.0).abs() <= 0.02 * 100.0 * 1.000_001);
        assert_eq!(s.sum(), 100.0, "zero-bucket values excluded from sum");
    }

    #[test]
    fn sketch_merge_equals_concatenation_exactly() {
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
        let mut c = QuantileSketch::new(0.01);
        for k in 0..300 {
            let v = 10f64.powf((k % 19) as f64 - 9.0) * (1.0 + k as f64 / 300.0);
            if k % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            c.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), c.quantile(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "different relative accuracies")]
    fn sketch_merge_rejects_mismatched_gamma() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn sketch_bucket_count_stays_bounded_over_twelve_decades() {
        let mut s = QuantileSketch::new(0.01);
        let mut v = 1e-9;
        while v < 1e9 {
            s.observe(v);
            v *= 1.003;
        }
        assert!(
            s.bucket_len() <= 2800,
            "bucket count {} exceeds the documented bound",
            s.bucket_len()
        );
    }
}
