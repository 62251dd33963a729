//! The handle registry against the name-keyed registry it replaced.
//!
//! Seeded random sequences of registrations, counter adds and sets, gauge
//! sets, histogram observations, samples and drains run through a
//! [`MetricsHub`] and through [`NameKeyed`], a copy of the registry as it
//! stood before handles: a series exists from its first write and a drain
//! empties every map. Both must give the same chunks, bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{SimDuration, SimTime};

use crate::{
    CounterId, GaugeId, HistogramId, MetricPoint, MetricsChunk, MetricsHub, SeriesKey, SimHistogram,
};

/// The pre-handle registry and sampler, keyed by name on every write.
#[derive(Default)]
struct NameKeyed {
    counters: BTreeMap<Arc<SeriesKey>, f64>,
    gauges: BTreeMap<Arc<SeriesKey>, f64>,
    histograms: BTreeMap<SeriesKey, SimHistogram>,
    points: Vec<MetricPoint>,
}

impl NameKeyed {
    fn counter_add(&mut self, key: &SeriesKey, v: f64) {
        match self.counters.get_mut(key) {
            Some(slot) => *slot += v,
            None => {
                self.counters.insert(Arc::new(key.clone()), v);
            }
        }
    }

    fn counter_set(&mut self, key: &SeriesKey, v: f64) {
        match self.counters.get_mut(key) {
            Some(slot) => *slot = v,
            None => {
                self.counters.insert(Arc::new(key.clone()), v);
            }
        }
    }

    fn gauge_set(&mut self, key: &SeriesKey, v: f64) {
        match self.gauges.get_mut(key) {
            Some(slot) => *slot = v,
            None => {
                self.gauges.insert(Arc::new(key.clone()), v);
            }
        }
    }

    fn observe_ms(&mut self, key: &SeriesKey, ms: f64) {
        match self.histograms.get_mut(key) {
            Some(h) => h.observe(ms),
            None => {
                let mut h = SimHistogram::latency_ms();
                h.observe(ms);
                self.histograms.insert(key.clone(), h);
            }
        }
    }

    fn sample_at(&mut self, t: SimTime) {
        for (k, &v) in self.counters.iter().chain(&self.gauges) {
            self.points.push(MetricPoint {
                at: t,
                series: Arc::clone(k),
                value: v,
            });
        }
    }

    fn take_chunk(&mut self, provider: &str) -> MetricsChunk {
        let NameKeyed {
            counters,
            gauges,
            histograms,
            points,
        } = std::mem::take(self);
        MetricsChunk {
            provider: provider.to_string(),
            cell: None,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, h)| (Arc::new(k), h))
                .collect(),
            points,
        }
    }
}

/// Metric names; the same name may serve several families.
const NAMES: [&str; 3] = ["sebs_a_total", "sebs_b", "sebs_c_ms"];

/// Label sets, including two orderings of one set (the same series).
const LABELS: [&[(&str, &str)]; 6] = [
    &[],
    &[("function", "x")],
    &[("function", "y")],
    &[("function", "x"), ("kind", "cold")],
    &[("kind", "cold"), ("function", "x")],
    &[("pool", "fn:0")],
];

/// Values a write may carry: a first write of `-0.0` must store `-0.0`.
const VALUES: [f64; 6] = [-0.0, 0.0, 1.0, 0.25, 3.5e6, 1e-9];

/// Both registries, fed the same operations, plus the handles the hub has
/// resolved so far, by series coordinates.
struct Pair {
    hub: MetricsHub,
    old: NameKeyed,
    counters: BTreeMap<(usize, usize), CounterId>,
    gauges: BTreeMap<(usize, usize), GaugeId>,
    histograms: BTreeMap<(usize, usize), HistogramId>,
}

/// A resolved handle, or the resolved handle stored first.
fn handle<Id: Copy>(
    ids: &mut BTreeMap<(usize, usize), Id>,
    at: (usize, usize),
    resolve: impl FnOnce() -> Id,
) -> Id {
    *ids.entry(at).or_insert_with(resolve)
}

impl Pair {
    fn new() -> Pair {
        Pair {
            hub: MetricsHub::default(),
            old: NameKeyed::default(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// One random operation. Writes go through a handle or by name with
    /// equal odds; registrations touch only the hub.
    fn step(&mut self, rng: &mut StreamRng, clock: &mut SimTime) {
        let at = (
            rng.gen_range(0..NAMES.len()),
            rng.gen_range(0..LABELS.len()),
        );
        let (name, labels) = (NAMES[at.0], LABELS[at.1]);
        let key = SeriesKey::new(name, labels);
        let v = VALUES[rng.gen_range(0..VALUES.len())];
        let by_name = rng.gen_bool(0.5);
        let hub = &mut self.hub;
        match rng.gen_range(0..10u32) {
            0 => {
                handle(&mut self.counters, at, || hub.counter(name, labels));
            }
            1 => {
                handle(&mut self.gauges, at, || hub.gauge(name, labels));
            }
            2 => {
                handle(&mut self.histograms, at, || hub.histogram(name, labels));
            }
            3 => {
                if by_name {
                    hub.counter_add(name, labels, v);
                } else {
                    let id = handle(&mut self.counters, at, || hub.counter(name, labels));
                    hub.add(id, v);
                }
                self.old.counter_add(&key, v);
            }
            4 => {
                if by_name {
                    hub.counter_set(name, labels, v);
                } else {
                    let id = handle(&mut self.counters, at, || hub.counter(name, labels));
                    hub.set_counter(id, v);
                }
                self.old.counter_set(&key, v);
            }
            5 => {
                let v = if rng.gen_bool(0.5) { -v } else { v };
                if by_name {
                    hub.gauge_set(name, labels, v);
                } else {
                    let id = handle(&mut self.gauges, at, || hub.gauge(name, labels));
                    hub.set_gauge(id, v);
                }
                self.old.gauge_set(&key, v);
            }
            6 => {
                let ms = v * rng.gen_range(0.0..40_000.0);
                if by_name {
                    hub.observe_ms(name, labels, ms);
                } else {
                    let id = handle(&mut self.histograms, at, || hub.histogram(name, labels));
                    hub.observe(id, ms);
                }
                self.old.observe_ms(&key, ms);
            }
            7 | 8 => {
                *clock += SimDuration::from_secs(1);
                hub.sample_at(*clock);
                self.old.sample_at(*clock);
            }
            _ => self.compare_drains(),
        }
    }

    /// Drains both sides and requires the same chunk, bit for bit.
    fn compare_drains(&mut self) {
        let new = self.hub.take_chunk("aws");
        let old = self.old.take_chunk("aws");
        assert_eq!(new, old);
        // `==` equates -0.0 with 0.0; the debug form does not.
        assert_eq!(format!("{new:?}"), format!("{old:?}"));
        assert!(
            new.points.windows(2).all(|w| w[0].at <= w[1].at),
            "points are in tick order"
        );
        assert!(
            self.hub.registry().is_empty(),
            "a drain leaves every slot dormant"
        );
    }
}

#[test]
fn handle_registry_matches_the_name_keyed_registry() {
    for seed in 0..200u64 {
        let mut rng = StreamRng::from_seed_u64(seed);
        let mut pair = Pair::new();
        // Registered on every run and never written: it must never show.
        let ghost = pair.hub.counter("sebs_ghost_total", &[("function", "x")]);
        let _ = pair.hub.gauge("sebs_ghost", &[]);
        let _ = pair.hub.histogram("sebs_ghost_ms", &[]);
        let mut clock = SimTime::ZERO;
        for _ in 0..300 {
            pair.step(&mut rng, &mut clock);
        }
        let last = pair.hub.take_chunk("aws");
        assert_eq!(
            format!("{last:?}"),
            format!("{:?}", pair.old.take_chunk("aws"))
        );
        assert_eq!(
            pair.hub.counter("sebs_ghost_total", &[("function", "x")]),
            ghost
        );
        assert!(!format!("{last:?}").contains("ghost"), "seed {seed}");
    }
}
