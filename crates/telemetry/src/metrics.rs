//! Power-of-two-bucketed histograms.
//!
//! Histograms cover the two distributions the paper's measurement section
//! cares about — steal latency and job run time — but are generic over any
//! `u64` sample. Buckets are powers of two: bucket `i` (for `i ≥ 1`)
//! counts samples in `[2^(i-1), 2^i)`, bucket 0 counts zeros. Recording is
//! one relaxed atomic increment; merging and quantile estimation happen at
//! snapshot time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: zeros + one per possible bit position.
pub const BUCKETS: usize = 65;

/// A lock-free histogram with power-of-two buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Two relaxed atomic adds.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`], mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 if empty. Power-of-two buckets make this an
    /// order-of-magnitude estimate, which is what it is for.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).wrapping_sub(1)
                };
            }
        }
        u64::MAX
    }

    /// Adds another snapshot into this one (for aggregating workers).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 100, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.sum, 1306);
        assert!((s.mean() - 1306.0 / 8.0).abs() < 1e-9);
        assert_eq!(s.quantile_upper_bound(0.0), 0);
        // Median falls in the [2,4) bucket (values 0,1,2,3 below it).
        assert_eq!(s.quantile_upper_bound(0.5), 3);
        // p99 falls in the bucket of 1000: [512, 1024).
        assert_eq!(s.quantile_upper_bound(0.99), 1023);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn merge_adds() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(7);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count(), 3);
        assert_eq!(sa.sum, 17);
    }
}
