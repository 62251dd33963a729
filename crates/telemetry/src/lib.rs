//! # sebs-telemetry — deterministic fleet-wide metrics in sim-time
//!
//! The fleet-level counterpart of `sebs-trace`: where traces answer "where
//! did *this invocation's* latency go", telemetry answers "how many
//! containers were warm at time *t*", "what fraction of starts were cold
//! vs. spurious-cold", "how did billed GB-seconds and storage traffic
//! evolve over the campaign" — the signals behind the paper's Figure 7
//! eviction analysis and Figure 5 cost discussion.
//!
//! ## Determinism contract
//!
//! Collection is strictly observational:
//!
//! * **Zero RNG draws.** Gauges that need the container pool's state at a
//!   sample instant use a jitter-free, read-only observation of the
//!   eviction policy; no stream is advanced.
//! * **Zero wall-clock.** Every timestamp is a [`sebs_sim::SimTime`]; the
//!   sampler fires on simulator-clock interval boundaries only.
//! * **Canonical merge.** Grid experiments collect one [`MetricsChunk`]
//!   per cell; [`MetricsSink::sort_canonical`] plus global sorting inside
//!   the exporters make the Prometheus and CSV bytes identical for every
//!   `--jobs` value.
//!
//! Enabling telemetry therefore never changes any simulation result, and
//! the exports themselves are reproducible bit-for-bit.
//!
//! ## Layout
//!
//! * [`MetricsRegistry`] — counters, gauges and sim-time-bucketed
//!   [`SimHistogram`]s keyed by `(name, sorted labels)` in a key-ordered
//!   index. Resolving a series returns a typed handle ([`CounterId`],
//!   [`GaugeId`], [`HistogramId`]) whose writes are indexed stores; a
//!   registered series is dormant, absent from every export, until its
//!   first write, and a drain returns it to dormant without invalidating
//!   its handle.
//! * [`MetricsHub`] — a registry plus the sim-clock sampler producing
//!   [`MetricPoint`] time series at a configurable interval. It writes
//!   through handles or, for rarely written series, by name.
//! * [`MetricsChunk`] / [`MetricsSink`] — drained hubs tagged with
//!   provider and cell, merged in canonical order.
//! * [`prometheus_text`] — final-snapshot Prometheus text exposition.
//! * [`csv_timeseries`] — RFC-4180 CSV of the sampled time series.

#[cfg(test)]
mod equivalence;
mod fmt;
mod histogram;
mod hub;
mod prom;
mod registry;
mod sink;

pub mod csv;

pub use histogram::{SimHistogram, DEFAULT_LATENCY_BOUNDS_MS};
pub use hub::{MetricPoint, MetricsHub, DEFAULT_SAMPLE_INTERVAL};
pub use prom::prometheus_text;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, SeriesKey};
pub use sink::{MetricsChunk, MetricsSink};

pub use csv::csv_timeseries;

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::{SimDuration, SimTime};

    /// End-to-end: hub → chunk → sink → both exporters, byte-stable.
    #[test]
    fn full_pipeline_is_deterministic() {
        let run = || {
            let mut hub = MetricsHub::new(SimDuration::from_secs(5));
            hub.counter_add("sebs_starts_total", &[("kind", "cold")], 2.0);
            hub.gauge_set("sebs_containers_warm", &[("pool", "fn:0")], 2.0);
            hub.observe_ms("sebs_invocation_latency_ms", &[], 123.0);
            let mut t = SimTime::ZERO;
            for _ in 0..4 {
                t += SimDuration::from_secs(5);
                while let Some(due) = hub.next_due(t) {
                    hub.sample_at(due);
                }
            }
            let mut sink = MetricsSink::new();
            sink.push(hub.into_chunk("aws"));
            sink.sort_canonical();
            (prometheus_text(&sink), csv_timeseries(&sink))
        };
        let (prom_a, csv_a) = run();
        let (prom_b, csv_b) = run();
        assert_eq!(prom_a, prom_b);
        assert_eq!(csv_a, csv_b);
        assert!(prom_a.contains("sebs_starts_total"));
        // 4 ticks × 2 sampled series (counter + gauge).
        assert_eq!(csv_a.lines().count(), 1 + 8);
    }
}
