//! Collection and canonical merging of per-platform metric chunks — the
//! same determinism contract as `TraceSink` and `ResultStore`.

use std::sync::Arc;

use crate::histogram::SimHistogram;
use crate::hub::MetricPoint;
use crate::registry::SeriesKey;

/// One drained hub: the final registry snapshot plus the sampled series,
/// tagged with its provider and (for grid experiments) its cell index.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsChunk {
    /// Provider name, e.g. `aws`.
    pub provider: String,
    /// Grid-cell index when collected inside a grid experiment; `None`
    /// for ad-hoc runs. The canonical sort key.
    pub cell: Option<u64>,
    /// Final counter values, in key order. Keys are shared with the
    /// registry that drained them.
    pub counters: Vec<(Arc<SeriesKey>, f64)>,
    /// Final gauge values, in key order.
    pub gauges: Vec<(Arc<SeriesKey>, f64)>,
    /// Final histograms, in key order.
    pub histograms: Vec<(Arc<SeriesKey>, SimHistogram)>,
    /// Sampled time series, in (tick, key) order.
    pub points: Vec<MetricPoint>,
}

impl MetricsChunk {
    /// `true` when the platform recorded no activity: no counter ever
    /// incremented, no histogram observed, no sample taken. Static gauges
    /// alone (limits, monitoring fidelity) do not count as activity —
    /// suites drop such chunks so unused providers stay out of exports.
    pub fn is_idle(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.points.is_empty()
    }
}

/// Collects [`MetricsChunk`]s and merges them in canonical cell order.
///
/// Grid experiments give every cell its own hub (no locks, no sharing);
/// the driver merges the per-cell chunks and calls
/// [`MetricsSink::sort_canonical`], mirroring `TraceSink`. The exporters
/// additionally sort flattened series globally, so exported bytes are
/// identical for every `--jobs` value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSink {
    chunks: Vec<MetricsChunk>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Adds one chunk.
    pub fn push(&mut self, chunk: MetricsChunk) {
        self.chunks.push(chunk);
    }

    /// Absorbs another sink (e.g. one worker's collection).
    pub fn merge(&mut self, other: MetricsSink) {
        self.chunks.extend(other.chunks);
    }

    /// Sorts into canonical order: chunks without a cell first, then by
    /// ascending cell index, tie-broken by provider name. Stable, so
    /// merging per-cell sinks in any order yields identical bytes.
    pub fn sort_canonical(&mut self) {
        self.chunks.sort_by(|a, b| cell_key(a).cmp(&cell_key(b)));
    }

    /// The collected chunks, in current order.
    pub fn chunks(&self) -> &[MetricsChunk] {
        &self.chunks
    }

    /// Mutable chunk access, e.g. to stamp a cell index onto freshly
    /// drained chunks.
    pub fn chunks_mut(&mut self) -> &mut [MetricsChunk] {
        &mut self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total number of sampled points across all chunks.
    pub fn point_count(&self) -> usize {
        self.chunks.iter().map(|c| c.points.len()).sum()
    }
}

impl IntoIterator for MetricsSink {
    type Item = MetricsChunk;
    type IntoIter = std::vec::IntoIter<MetricsChunk>;

    /// The chunks, in current order.
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.into_iter()
    }
}

fn cell_key(c: &MetricsChunk) -> (bool, u64, &str) {
    (c.cell.is_some(), c.cell.unwrap_or(0), c.provider.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(provider: &str, cell: Option<u64>) -> MetricsChunk {
        MetricsChunk {
            provider: provider.to_string(),
            cell,
            counters: vec![(Arc::new(SeriesKey::new("c", &[])), 1.0)],
            gauges: Vec::new(),
            histograms: Vec::new(),
            points: Vec::new(),
        }
    }

    #[test]
    fn canonical_order_is_merge_order_independent() {
        let mut a = MetricsSink::new();
        a.push(chunk("aws", Some(2)));
        a.push(chunk("gcp", Some(0)));
        let mut b = MetricsSink::new();
        b.push(chunk("aws", Some(1)));

        let mut ab = MetricsSink::new();
        ab.merge(a.clone());
        ab.merge(b.clone());
        ab.sort_canonical();

        let mut ba = MetricsSink::new();
        ba.merge(b);
        ba.merge(a);
        ba.sort_canonical();

        assert_eq!(ab, ba);
        let cells: Vec<Option<u64>> = ab.chunks().iter().map(|c| c.cell).collect();
        assert_eq!(cells, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn untagged_chunks_sort_first_by_provider() {
        let mut s = MetricsSink::new();
        s.push(chunk("gcp", None));
        s.push(chunk("aws", Some(3)));
        s.push(chunk("aws", None));
        s.sort_canonical();
        let order: Vec<(Option<u64>, &str)> = s
            .chunks()
            .iter()
            .map(|c| (c.cell, c.provider.as_str()))
            .collect();
        assert_eq!(order, vec![(None, "aws"), (None, "gcp"), (Some(3), "aws")]);
    }

    #[test]
    fn idleness_ignores_static_gauges() {
        let mut c = chunk("aws", None);
        assert!(!c.is_idle(), "a counter is activity");
        c.counters.clear();
        c.gauges
            .push((Arc::new(SeriesKey::new("limit", &[])), 1000.0));
        assert!(c.is_idle(), "gauges alone are not activity");
    }

    #[test]
    fn counts() {
        let mut s = MetricsSink::new();
        assert!(s.is_empty());
        s.push(chunk("aws", None));
        assert_eq!(s.len(), 1);
        assert_eq!(s.point_count(), 0);
    }
}
