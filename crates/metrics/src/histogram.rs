//! Percentile histograms for latency breakdowns.
//!
//! # Why three latency summaries coexist
//!
//! The workspace deliberately keeps three summary types instead of one:
//!
//! * [`Histogram`] (this module) stores **every sample** and answers
//!   *exact* nearest-rank percentiles. Experiment-scale series (the
//!   paper's tables and figures, thousands of samples) use it because
//!   the reproduction is judged against exact published numbers and the
//!   memory cost is trivial at that scale.
//! * [`QuantileSketch`](crate::QuantileSketch) is the **fleet-scale**
//!   replacement: fixed memory regardless of sample count, ≤1% relative
//!   error, and an exactly order-independent merge — the properties a
//!   10⁶-invocation fleet run and the `--jobs`-invariant `sebs report`
//!   need, which a full-sample histogram cannot offer at that scale.
//! * `sebs_telemetry::SimHistogram` is neither of these: it is the
//!   fixed-bound **cumulative-bucket export shape** of Prometheus
//!   (`_bucket`/`_sum`/`_count` series). Its buckets are chosen for
//!   dashboard legibility, not error bounds, so it backs the metrics
//!   export and nothing else.
//!
//! The cross-consistency contract between the three (sketch tracks the
//! exact histogram within `RELATIVE_ERROR`; counts and mass agree) is
//! pinned by the `sketch_consistency` integration test.

/// A collection of f64 samples with deterministic percentile queries.
///
/// Values are kept as pushed; queries sort a copy with `total_cmp`, so the
/// same samples always yield the same percentiles regardless of insertion
/// order or NaN payloads (NaNs sort last and are ignored by `percentile`).
///
/// # Example
///
/// ```
/// use sebs_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.push(v as f64);
/// }
/// assert_eq!(h.percentile(50.0), 50.0);
/// assert_eq!(h.percentile(99.0), 99.0);
/// assert_eq!(h.len(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Builds a histogram from a slice of samples.
    pub fn from_values(values: &[f64]) -> Histogram {
        Histogram {
            values: values.to_vec(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Absorbs another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `p`-th percentile (0–100) by the nearest-rank method over finite
    /// samples. Pinned edge behavior: `percentile(0.0)` is the smallest
    /// finite sample and `percentile(100.0)` the largest; out-of-range `p`
    /// clamps to `[0, 100]`; a single sample answers every `p`. Returns
    /// `NaN` when the histogram is empty, when every sample is NaN, or
    /// when `p` itself is NaN.
    pub fn percentile(&self, p: f64) -> f64 {
        let [v] = self.percentiles([p]);
        v
    }

    /// Several percentiles from one sorted copy of the samples, each
    /// exactly as [`Histogram::percentile`] answers it.
    pub fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        let mut sorted: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        // Samples equal under `total_cmp` are the same bits, so an unstable
        // sort yields the same order as a stable one.
        sorted.sort_unstable_by(f64::total_cmp);
        ps.map(|p| nearest_rank(&sorted, p))
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.sum() / self.values.len() as f64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// The nearest-rank `p`-th percentile of ascending finite samples: the
/// smallest sample whose cumulative share is at least `p`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    // A NaN `p` once collapsed to rank 0 via `(NaN).ceil() as usize` and
    // silently answered the minimum sample.
    if sorted.is_empty() || p.is_nan() {
        return f64::NAN;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let h = Histogram::from_values(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(25.0), 10.0);
        assert_eq!(h.percentile(50.0), 20.0);
        assert_eq!(h.percentile(75.0), 30.0);
        assert_eq!(h.percentile(100.0), 40.0);
        assert_eq!(h.p50(), 20.0);
    }

    #[test]
    fn order_independent() {
        let a = Histogram::from_values(&[3.0, 1.0, 2.0]);
        let b = Histogram::from_values(&[2.0, 3.0, 1.0]);
        for p in [0.0, 33.0, 50.0, 66.0, 95.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), b.percentile(p));
        }
    }

    #[test]
    fn empty_and_nan_handling() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert!(h.percentile(50.0).is_nan());
        assert!(h.mean().is_nan());
        let h = Histogram::from_values(&[f64::NAN, 5.0]);
        assert_eq!(h.percentile(50.0), 5.0, "NaNs are ignored");
        assert_eq!(h.len(), 2, "but still counted as samples");
    }

    #[test]
    fn merge_and_stats() {
        let mut a = Histogram::from_values(&[1.0, 2.0]);
        let b = Histogram::from_values(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.p99(), 4.0);
        assert_eq!(a.p95(), 4.0);
    }

    #[test]
    fn percentile_edges_are_pinned() {
        let h = Histogram::from_values(&[30.0, 10.0, 20.0]);
        assert_eq!(h.percentile(0.0), 10.0, "p0 is the minimum");
        assert_eq!(h.percentile(100.0), 30.0, "p100 is the maximum");
        assert_eq!(h.percentile(-5.0), 10.0, "negative p clamps to 0");
        assert_eq!(h.percentile(250.0), 30.0, "overlarge p clamps to 100");
    }

    #[test]
    fn all_nan_input_behaves_like_empty() {
        let h = Histogram::from_values(&[f64::NAN, f64::NAN]);
        assert_eq!(h.len(), 2, "NaNs count as samples");
        for p in [0.0, 50.0, 100.0] {
            assert!(h.percentile(p).is_nan(), "p{p} must be NaN");
        }
    }

    #[test]
    fn nan_percentile_argument_returns_nan() {
        // Regression: a NaN `p` used to collapse to rank 0 and silently
        // return the minimum sample instead of propagating the NaN.
        let h = Histogram::from_values(&[1.0, 2.0, 3.0]);
        assert!(h.percentile(f64::NAN).is_nan());
    }

    #[test]
    fn percentiles_share_one_sorted_copy() {
        let h = Histogram::from_values(&[40.0, f64::NAN, 10.0, 30.0, 20.0]);
        let [p0, p25, p50, p75, p100, nan] =
            h.percentiles([0.0, 25.0, 50.0, 75.0, 100.0, f64::NAN]);
        assert_eq!([p0, p25, p50, p75, p100], [10.0, 10.0, 20.0, 30.0, 40.0]);
        assert!(nan.is_nan());
        assert!(Histogram::new()
            .percentiles([50.0, 99.0])
            .iter()
            .all(|v| v.is_nan()));
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.push(7.5);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 7.5);
        }
        assert_eq!(h.mean(), 7.5);
    }
}
