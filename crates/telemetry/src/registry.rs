//! The metric registry: counters, gauges and histograms keyed by
//! `(name, sorted labels)` and written through handles.
//!
//! Resolving `(name, labels)` registers the series once, in a key-ordered
//! `BTreeMap` index, and returns a typed handle ([`CounterId`],
//! [`GaugeId`], [`HistogramId`]): the series' slot in a value `Vec`, so
//! every later write is an indexed store. A registered series is
//! *dormant* — absent from samples and exports — until its first write.
//! A drain keeps the index and the handles and returns every slot to
//! dormant. Walking the index yields key order, so every export is a pure
//! function of the recorded data, never of registration order or hashing.
//! Each key is allocated once, at registration, and shared behind an
//! `Arc` with every sampled [`crate::MetricPoint`] of that series and
//! every drained [`crate::MetricsChunk`].

use std::collections::btree_map::Entry;
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

/// Handle of a registered counter: its slot in the registry that issued
/// it. Valid for that registry (or hub) only, across every drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge; see [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram; see [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// One metric family: a key-ordered index of its registered series and
/// one value slot per series, in registration order.
#[derive(Debug, Clone)]
struct Family<T> {
    index: BTreeMap<Arc<SeriesKey>, usize>,
    slots: Vec<T>,
}

impl<T> Default for Family<T> {
    fn default() -> Family<T> {
        Family {
            index: BTreeMap::new(),
            slots: Vec::new(),
        }
    }
}

impl<T> Family<T> {
    /// The slot of `(name, labels)`, registered as `dormant` on first sight.
    fn resolve(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        dormant: impl FnOnce() -> T,
    ) -> usize {
        match self.index.entry(Arc::new(SeriesKey::new(name, labels))) {
            Entry::Occupied(series) => *series.get(),
            Entry::Vacant(series) => {
                let at = self.slots.len();
                self.slots.push(dormant());
                *series.insert(at)
            }
        }
    }

    /// The written series in key order, with the value `read` finds in
    /// each slot (`None` for a dormant one).
    fn live<'a, V>(
        &'a self,
        read: impl Fn(&'a T) -> Option<V> + 'a,
    ) -> impl Iterator<Item = (&'a Arc<SeriesKey>, V)> + 'a {
        self.index
            .iter()
            .filter_map(move |(k, &at)| read(&self.slots[at]).map(|v| (k, v)))
    }

    /// Takes every written value in key order, leaving its slot dormant.
    fn drain<V>(&mut self, mut take: impl FnMut(&mut T) -> Option<V>) -> Vec<(Arc<SeriesKey>, V)> {
        let slots = &mut self.slots;
        self.index
            .iter()
            .filter_map(|(k, &at)| take(&mut slots[at]).map(|v| (Arc::clone(k), v)))
            .collect()
    }
}

/// A histogram slot is written once it holds an observation.
fn observed(h: &SimHistogram) -> Option<&SimHistogram> {
    (h.count() > 0).then_some(h)
}

/// The three metric families of one collection scope.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    // A counter or gauge slot is `None` while dormant; a histogram slot is
    // preallocated at registration and dormant while it counts nothing, so
    // no write allocates.
    counters: Family<Option<f64>>,
    gauges: Family<Option<f64>>,
    histograms: Family<SimHistogram>,
}

// Equality compares written data only: which dormant series happen to be
// registered is not recorded data.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters())
            && self.gauges().eq(other.gauges())
            && self.histograms().eq(other.histograms())
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The handle of counter `(name, labels)`, registering the series on
    /// first sight. A registered series stays out of every sample and
    /// export until its first write.
    pub(crate) fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.counters.resolve(name, labels, || None))
    }

    /// The handle of gauge `(name, labels)`; see [`MetricsRegistry::counter`].
    pub(crate) fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.gauges.resolve(name, labels, || None))
    }

    /// The handle of histogram `(name, labels)`, with the default latency
    /// buckets; see [`MetricsRegistry::counter`].
    pub(crate) fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(
            self.histograms
                .resolve(name, labels, SimHistogram::latency_ms),
        )
    }

    /// Adds `v` (≥ 0) to a monotone counter. The first write stores `v`
    /// itself.
    #[inline]
    pub(crate) fn add(&mut self, id: CounterId, v: f64) {
        debug_assert!(v >= 0.0, "counters only grow: {id:?} += {v}");
        let slot = &mut self.counters.slots[id.0];
        *slot = Some(slot.map_or(v, |c| c + v));
    }

    /// Sets a counter to an absolute value — for sources that maintain
    /// their own monotone count (pool statistics, storage statistics).
    #[inline]
    pub(crate) fn set_counter(&mut self, id: CounterId, v: f64) {
        self.counters.slots[id.0] = Some(v);
    }

    /// Sets a gauge to its current value.
    #[inline]
    pub(crate) fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges.slots[id.0] = Some(v);
    }

    /// Records one observation, in milliseconds of sim time.
    #[inline]
    pub(crate) fn observe(&mut self, id: HistogramId, ms: f64) {
        self.histograms.slots[id.0].observe(ms);
    }

    /// Adds `v` (≥ 0) to counter `(name, labels)`, registering it on
    /// first sight. Each call builds the key to resolve it; series written
    /// often are written through handles instead.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.counter(name, labels);
        self.add(id, v);
    }

    /// Sets counter `(name, labels)` to an absolute value.
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.counter(name, labels);
        self.set_counter(id, v);
    }

    /// Sets gauge `(name, labels)`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.gauge(name, labels);
        self.set_gauge(id, v);
    }

    /// Records one observation, in sim-milliseconds, into histogram
    /// `(name, labels)` with the default latency buckets.
    pub fn observe_ms(&mut self, name: &str, labels: &[(&str, &str)], ms: f64) {
        let id = self.histogram(name, labels);
        self.observe(id, ms);
    }

    /// Written counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.counters.live(|v| *v).map(|(k, v)| (&**k, v))
    }

    /// Written gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.gauges.live(|v| *v).map(|(k, v)| (&**k, v))
    }

    /// Observed histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &SimHistogram)> {
        self.histograms.live(observed).map(|(k, h)| (&**k, h))
    }

    /// Written counters, then written gauges, each in key order, with
    /// their shared keys: the series the hub samples every tick.
    pub(crate) fn sampled_series(&self) -> impl Iterator<Item = (&Arc<SeriesKey>, f64)> {
        self.counters.live(|v| *v).chain(self.gauges.live(|v| *v))
    }

    /// `true` when nothing has been written since registration or the
    /// last drain.
    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none()
            && self.gauges().next().is_none()
            && self.histograms().next().is_none()
    }

    /// Takes every written series into sorted family vectors and leaves
    /// each slot dormant: the index and every handle stay valid, and a
    /// series reappears on its next write.
    #[allow(clippy::type_complexity)]
    pub(crate) fn drain(
        &mut self,
    ) -> (
        Vec<(Arc<SeriesKey>, f64)>,
        Vec<(Arc<SeriesKey>, f64)>,
        Vec<(Arc<SeriesKey>, SimHistogram)>,
    ) {
        (
            self.counters.drain(Option::take),
            self.gauges.drain(Option::take),
            self.histograms.drain(|h| {
                observed(h)?;
                let fresh = SimHistogram::new(h.bounds());
                Some(std::mem::replace(h, fresh))
            }),
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
