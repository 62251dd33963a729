//! The metric registry: counters, gauges and histograms keyed by
//! `(name, sorted labels)`.
//!
//! Everything lives in `BTreeMap`s so iteration order — and therefore
//! every export — is a pure function of the recorded data, never of
//! insertion order or hashing. Each counter and gauge key is allocated
//! once, when its series is created, and shared behind an `Arc` with
//! every sampled [`crate::MetricPoint`] of that series.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::histogram::SimHistogram;

/// A metric identity: name plus label pairs sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name, e.g. `sebs_starts_total`.
    pub name: String,
    /// Label pairs, sorted by key (then value).
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a key, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// The labels extended with `extra` pairs, re-sorted — exporters use
    /// this to graft `provider`/`cell` coordinates onto a series.
    pub fn labels_with(&self, extra: &[(String, String)]) -> Vec<(String, String)> {
        let mut labels = self.labels.clone();
        labels.extend(extra.iter().cloned());
        labels.sort();
        labels
    }
}

/// The three metric families of one collection scope.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<Arc<SeriesKey>, f64>,
    gauges: BTreeMap<Arc<SeriesKey>, f64>,
    histograms: BTreeMap<SeriesKey, SimHistogram>,
    // Reusable lookup key: record calls fill it in place (keeping every
    // String's capacity) and only clone it when a series is first created,
    // so steady-state recording against existing series allocates nothing.
    scratch: SeriesKey,
}

// Equality compares recorded data only; the scratch key is an internal
// buffer whose residual contents are irrelevant.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

/// Rebuilds `scratch` as the canonical key for `(name, labels)` without
/// allocating (beyond first-use growth of the retained buffers).
fn fill_scratch(scratch: &mut SeriesKey, name: &str, labels: &[(&str, &str)]) {
    scratch.name.clear();
    scratch.name.push_str(name);
    scratch.labels.truncate(labels.len());
    while scratch.labels.len() < labels.len() {
        scratch.labels.push((String::new(), String::new()));
    }
    for ((k, v), slot) in labels.iter().zip(scratch.labels.iter_mut()) {
        slot.0.clear();
        slot.0.push_str(k);
        slot.1.clear();
        slot.1.push_str(v);
    }
    // Unstable sort gives the same canonical order as `SeriesKey::new`:
    // equal pairs are indistinguishable, so stability cannot matter.
    scratch.labels.sort_unstable();
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `v` (≥ 0) to a monotone counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        debug_assert!(v >= 0.0, "counters only grow: {name} += {v}");
        fill_scratch(&mut self.scratch, name, labels);
        match self.counters.get_mut(&self.scratch) {
            Some(slot) => *slot += v,
            None => {
                self.counters.insert(Arc::new(self.scratch.clone()), v);
            }
        }
    }

    /// Sets a counter to an absolute value — for sources that maintain
    /// their own monotone count (pool statistics, storage statistics).
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        fill_scratch(&mut self.scratch, name, labels);
        match self.counters.get_mut(&self.scratch) {
            Some(slot) => *slot = v,
            None => {
                self.counters.insert(Arc::new(self.scratch.clone()), v);
            }
        }
    }

    /// Sets a gauge to its current value.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        fill_scratch(&mut self.scratch, name, labels);
        match self.gauges.get_mut(&self.scratch) {
            Some(slot) => *slot = v,
            None => {
                self.gauges.insert(Arc::new(self.scratch.clone()), v);
            }
        }
    }

    /// Records one observation (in milliseconds of sim time) into a
    /// histogram with the default latency buckets.
    pub fn observe_ms(&mut self, name: &str, labels: &[(&str, &str)], ms: f64) {
        fill_scratch(&mut self.scratch, name, labels);
        match self.histograms.get_mut(&self.scratch) {
            Some(h) => h.observe(ms),
            None => {
                let mut h = SimHistogram::latency_ms();
                h.observe(ms);
                self.histograms.insert(self.scratch.clone(), h);
            }
        }
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.counters.iter().map(|(k, &v)| (&**k, v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (&**k, v))
    }

    /// Histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &SimHistogram)> {
        self.histograms.iter()
    }

    /// Counters, then gauges, each in key order, with their shared keys:
    /// the series the hub samples every tick.
    pub(crate) fn sampled_series(&self) -> impl Iterator<Item = (&Arc<SeriesKey>, f64)> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .map(|(k, &v)| (k, v))
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Consumes the registry into its sorted family vectors.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Vec<(SeriesKey, f64)>,
        Vec<(SeriesKey, f64)>,
        Vec<(SeriesKey, SimHistogram)>,
    ) {
        (
            self.counters
                .into_iter()
                .map(|(k, v)| (Arc::unwrap_or_clone(k), v))
                .collect(),
            self.gauges
                .into_iter()
                .map(|(k, v)| (Arc::unwrap_or_clone(k), v))
                .collect(),
            self.histograms.into_iter().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_labels_canonically() {
        let a = SeriesKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = SeriesKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.labels[0].0, "a");
    }

    #[test]
    fn labels_with_grafts_and_resorts() {
        let k = SeriesKey::new("m", &[("pool", "fn:0")]);
        let full = k.labels_with(&[
            ("cell".to_string(), "3".to_string()),
            ("provider".to_string(), "aws".to_string()),
        ]);
        let keys: Vec<&str> = full.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["cell", "pool", "provider"]);
    }

    #[test]
    fn counters_accumulate_and_set_overrides() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hits", &[], 1.0);
        r.counter_add("hits", &[], 2.0);
        assert_eq!(r.counters().next().map(|(_, v)| v), Some(3.0));
        r.counter_set("hits", &[], 10.0);
        assert_eq!(r.counters().next().map(|(_, v)| v), Some(10.0));
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("warm", &[("pool", "fn:0")], 5.0);
        r.gauge_set("warm", &[("pool", "fn:0")], 3.0);
        assert_eq!(r.gauges().next().map(|(_, v)| v), Some(3.0));
    }

    #[test]
    fn histograms_observe() {
        let mut r = MetricsRegistry::new();
        r.observe_ms("lat", &[], 4.0);
        r.observe_ms("lat", &[], 400.0);
        let (_, h) = r.histograms().next().expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 404.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_key_ordered_not_insertion_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", &[], 1.0);
        r.counter_add("a", &[], 1.0);
        let names: Vec<&str> = r.counters().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert!(!r.is_empty());
    }
}
