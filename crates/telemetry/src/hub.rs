//! The [`MetricsHub`]: one platform's metric scope plus the sim-clock
//! sampler that turns written gauges and counters into time series.
//!
//! Owners resolve each series they write often to a handle once (at
//! deploy time, say) and write through it; the name-keyed methods resolve
//! and write in one call, for series written rarely.
//!
//! Sampling is driven entirely by the *simulator* clock: the owner asks
//! [`MetricsHub::next_due`] for the next interval boundary at or below its
//! current time, refreshes whatever gauges need recomputing for that
//! instant, and calls [`MetricsHub::sample_at`]. No wall clock and no RNG
//! stream is ever touched, so enabling a hub cannot change any simulation
//! result — the same invariant the trace layer established.

use std::sync::Arc;

use sebs_sim::{SimDuration, SimTime};

use crate::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, SeriesKey};
use crate::sink::MetricsChunk;

/// Default gauge-sampling interval: one sim-second.
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// One sampled value of one series at one sim-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// Sample instant on the simulator clock.
    pub at: SimTime,
    /// The sampled series, shared with the registry and with every other
    /// point of the same series.
    pub series: Arc<SeriesKey>,
    /// Counter or gauge value at `at`.
    pub value: f64,
}

/// A metric registry plus an interval sampler producing sim-time series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsHub {
    interval: SimDuration,
    /// Samples taken so far; the next boundary is `(ticks + 1) · interval`.
    ticks: u64,
    registry: MetricsRegistry,
    points: Vec<MetricPoint>,
}

impl MetricsHub {
    /// A hub sampling every `interval` (clamped to ≥ 1 ns).
    pub fn new(interval: SimDuration) -> MetricsHub {
        MetricsHub {
            interval: interval.max(SimDuration::from_nanos(1)),
            ticks: 0,
            registry: MetricsRegistry::new(),
            points: Vec::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The next unsampled interval boundary, when it is at or before
    /// `upto`. Boundaries start at `interval` (nothing fires at t = 0; the
    /// initial state is all-zero anyway), and one past the end of the
    /// simulator clock never comes.
    pub fn next_due(&self, upto: SimTime) -> Option<SimTime> {
        let due = SimTime::from_nanos(self.interval.as_nanos().checked_mul(self.ticks + 1)?);
        (due <= upto).then_some(due)
    }

    /// Snapshots every written counter, then every written gauge, each in
    /// key order, into the time series at `t` and advances the sampling
    /// cursor. Dormant series are skipped. Histograms are
    /// final-snapshot-only (they already aggregate over time) and are not
    /// sampled per tick.
    pub fn sample_at(&mut self, t: SimTime) {
        for (k, v) in self.registry.sampled_series() {
            self.points.push(MetricPoint {
                at: t,
                series: Arc::clone(k),
                value: v,
            });
        }
        self.ticks += 1;
    }

    /// The handle of counter `(name, labels)`, registering it on first
    /// sight; it stays out of samples and exports until written.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        self.registry.counter(name, labels)
    }

    /// The handle of gauge `(name, labels)`; see [`MetricsHub::counter`].
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        self.registry.gauge(name, labels)
    }

    /// The handle of histogram `(name, labels)`; see [`MetricsHub::counter`].
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        self.registry.histogram(name, labels)
    }

    /// Adds to a monotone counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: f64) {
        self.registry.add(id, v);
    }

    /// Sets a counter maintained by an external monotone source.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: f64) {
        self.registry.set_counter(id, v);
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.registry.set_gauge(id, v);
    }

    /// Observes a histogram value in sim-milliseconds.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, ms: f64) {
        self.registry.observe(id, ms);
    }

    /// Adds to a monotone counter, by name.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.counter_add(name, labels, v);
    }

    /// Sets a counter maintained by an external monotone source, by name.
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.counter_set(name, labels, v);
    }

    /// Sets a gauge, by name.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.registry.gauge_set(name, labels, v);
    }

    /// Observes a histogram value in sim-milliseconds, by name.
    pub fn observe_ms(&mut self, name: &str, labels: &[(&str, &str)], ms: f64) {
        self.registry.observe_ms(name, labels, ms);
    }

    /// The current registry (final snapshot values).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The sampled time series collected so far.
    pub fn points(&self) -> &[MetricPoint] {
        &self.points
    }

    /// Drains everything written so far into a chunk tagged with the
    /// owning provider (and no cell — grid drivers tag cells afterwards).
    /// The hub keeps its interval, its sampling cursor and every
    /// registered series: handles stay valid, each series is dormant until
    /// its next write, and the next sample is the next boundary after the
    /// last one taken, never a boundary already past.
    pub fn take_chunk(&mut self, provider: &str) -> MetricsChunk {
        let (counters, gauges, histograms) = self.registry.drain();
        MetricsChunk {
            provider: provider.to_string(),
            cell: None,
            counters,
            gauges,
            histograms,
            points: std::mem::take(&mut self.points),
        }
    }

    /// Consumes the hub into an exportable chunk; see
    /// [`MetricsHub::take_chunk`].
    pub fn into_chunk(mut self, provider: &str) -> MetricsChunk {
        self.take_chunk(provider)
    }
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub::new(DEFAULT_SAMPLE_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_fire_once_per_interval() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(10));
        hub.gauge_set("g", &[], 1.0);
        let upto = SimTime::from_secs(35);
        let mut fired = Vec::new();
        while let Some(t) = hub.next_due(upto) {
            hub.sample_at(t);
            fired.push(t.as_secs_f64());
        }
        assert_eq!(fired, vec![10.0, 20.0, 30.0]);
        assert_eq!(hub.points().len(), 3);
        // Nothing more is due until the clock passes 40 s.
        assert_eq!(hub.next_due(SimTime::from_secs(39)), None);
        assert_eq!(
            hub.next_due(SimTime::from_secs(40)),
            Some(SimTime::from_secs(40))
        );
    }

    #[test]
    fn samples_capture_counters_and_gauges_not_histograms() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(1));
        hub.counter_add("c", &[], 2.0);
        hub.gauge_set("g", &[], 7.0);
        hub.observe_ms("h", &[], 5.0);
        hub.sample_at(SimTime::from_secs(1));
        let names: Vec<&str> = hub
            .points()
            .iter()
            .map(|p| p.series.name.as_str())
            .collect();
        assert_eq!(names, vec!["c", "g"], "histograms are snapshot-only");
        assert_eq!(hub.points()[0].value, 2.0);
        assert_eq!(hub.points()[1].value, 7.0);
    }

    #[test]
    fn no_boundary_fires_past_the_end_of_the_clock() {
        let interval = SimDuration::from_secs(10_000_000_000);
        let mut hub = MetricsHub::new(interval);
        let due = hub.next_due(SimTime::MAX);
        assert_eq!(due, Some(SimTime::ZERO + interval));
        hub.sample_at(SimTime::ZERO + interval);
        assert_eq!(hub.next_due(SimTime::MAX), None, "2 × 10¹⁰ s overflows");
    }

    #[test]
    fn take_chunk_keeps_the_sampling_cursor() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(10));
        hub.gauge_set("g", &[], 1.0);
        while let Some(t) = hub.next_due(SimTime::from_secs(100)) {
            hub.sample_at(t);
        }
        let first = hub.take_chunk("aws");
        assert_eq!(first.points.len(), 10);
        assert_eq!(hub.points().len(), 0, "the points left with the chunk");
        assert!(
            hub.registry().is_empty(),
            "the registry left with the chunk"
        );
        assert_eq!(hub.next_due(SimTime::from_secs(101)), None);
        assert_eq!(
            hub.next_due(SimTime::from_secs(110)),
            Some(SimTime::from_secs(110))
        );
    }

    #[test]
    fn zero_interval_is_clamped() {
        let hub = MetricsHub::new(SimDuration::ZERO);
        assert!(hub.interval() >= SimDuration::from_nanos(1));
    }

    #[test]
    fn into_chunk_carries_everything() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(1));
        hub.counter_add("c", &[("f", "x")], 1.0);
        hub.gauge_set("g", &[], 3.0);
        hub.observe_ms("h", &[], 9.0);
        hub.sample_at(SimTime::from_secs(1));
        let chunk = hub.into_chunk("aws");
        assert_eq!(chunk.provider, "aws");
        assert_eq!(chunk.cell, None);
        assert_eq!(chunk.counters.len(), 1);
        assert_eq!(chunk.gauges.len(), 1);
        assert_eq!(chunk.histograms.len(), 1);
        assert_eq!(chunk.points.len(), 2);
    }
}
