//! Aggregation helpers for experiment results.
//!
//! The paper aggregates SPLASH-2 results with the arithmetic mean for
//! absolute quantities (Figure 6) and the geometric mean for normalized
//! quantities (Figures 7–9); both live here, together with a simple
//! power-of-two latency histogram.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Arithmetic mean of a slice. Returns 0 for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(flexsnoop_metrics::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of a slice of positive values. Returns 0 for an empty
/// slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive: a geometric mean over
/// zero or negative ratios is meaningless and indicates an upstream bug.
///
/// # Example
///
/// ```
/// let g = flexsnoop_metrics::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean requires strictly positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Divides every element by `baseline`, producing a normalized series
/// (the paper normalizes everything to Lazy).
///
/// # Panics
///
/// Panics if `baseline` is zero.
pub fn normalize_to(xs: &[f64], baseline: f64) -> Vec<f64> {
    assert!(baseline != 0.0, "cannot normalize to a zero baseline");
    xs.iter().map(|x| x / baseline).collect()
}

/// A histogram with power-of-two buckets, used for latency distributions.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))`; bucket 0 also holds 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    /// Same as [`Histogram::new`] (a derived default would seed `min`
    /// with 0 and corrupt the first [`record`](Histogram::record)).
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// An approximate percentile (0.0–1.0) using bucket lower bounds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                let floor = if i == 0 { 0 } else { 1 << i };
                // The bucket floor can undershoot the exact tracked
                // extremes; clamp so p50 never reads below min.
                return Some(u64::clamp(floor, self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Snapshot for Histogram {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.count);
        w.put_u128(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_len(8)?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.get_u64()?);
        }
        self.buckets = buckets;
        self.count = r.get_u64()?;
        self.sum = r.get_u128()?;
        self.min = r.get_u64()?;
        self.max = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_histogram_bucket_count_is_corrupt() {
        // A re-sealed stream may claim any bucket count; restore must
        // reject one the bytes cannot hold rather than allocate for it.
        let mut w = SnapWriter::new();
        w.put_usize(1 << 40);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = Histogram::new()
            .restore_from(&mut SnapReader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize_to(&[2.0, 4.0], 2.0), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "zero baseline")]
    fn normalize_rejects_zero_baseline() {
        normalize_to(&[1.0], 0.0);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_handles_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.percentile(1.0), Some(0));
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!((256..=512).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(500));
        assert_eq!(a.min(), Some(5));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn histogram_snapshot_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 5_000, u64::MAX] {
            h.record(v);
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&h);
        let mut fresh = Histogram::new();
        flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap();
        // PartialEq covers every private field, including min/max/sum.
        assert_eq!(fresh, h);
        // Empty histograms round-trip the min=u64::MAX sentinel too.
        let empty = Histogram::new();
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&empty);
        let mut fresh = Histogram::new();
        fresh.record(9);
        flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap();
        assert_eq!(fresh, empty);
    }
}
