//! Host-time span recorder for the traced pass.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public API (name, start, end, parent, request id). On close a span's
//! *self time* — its duration minus the part its child spans cover — is
//! folded into one [`QuantileSketch`] per name plus an exact count and
//! total, so memory stays bounded however long the replay runs. The first
//! [`RAW_SPAN_CAP`] closed spans are also kept verbatim for export.
//!
//! Every clock read in the benchmark goes through [`now_ns`], the single
//! audited host-clock site; simulation results never see these readings.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use sebs_metrics::{Json, QuantileSketch};

/// Raw spans kept for `<workload>.trace.json`; later spans are only
/// aggregated.
pub const RAW_SPAN_CAP: usize = 20_000;

// audit:allow(instant-usage): the benchmark measures host time; every timing reads this one helper
// audit:allow(wall-clock): the benchmark measures host time; every timing reads this one helper
/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Aggregated timings of every span (or observation) under one name.
#[derive(Debug, Clone)]
pub struct Agg {
    /// Calls represented — a span covering a burst of `n` calls counts `n`.
    pub calls: u64,
    /// Exact sum of self time (ns).
    pub self_ns: u64,
    /// Self time per call, in microseconds.
    pub self_us: QuantileSketch,
}

impl Agg {
    fn new() -> Agg {
        Agg {
            calls: 0,
            self_ns: 0,
            self_us: QuantileSketch::new(),
        }
    }

    /// Median self time per call (ns); 0 when nothing was recorded.
    pub fn p50_ns(&self) -> f64 {
        self.percentile_ns(50.0)
    }

    /// The highest of p99 and p90 that has at least ten calls beyond it,
    /// falling back to p50 for fewer than 100 calls (ns).
    pub fn tail_ns(&self) -> f64 {
        self.percentile_ns(tail_percentile(self.calls))
    }

    fn percentile_ns(&self, p: f64) -> f64 {
        if self.self_us.is_empty() {
            0.0
        } else {
            self.self_us.percentile(p) * 1e3
        }
    }
}

/// The tail percentile reported for `calls` samples: p99 needs 1,000
/// samples and p90 needs 100 to leave ten samples beyond them.
pub fn tail_percentile(calls: u64) -> f64 {
    if calls >= 1000 {
        99.0
    } else if calls >= 100 {
        90.0
    } else {
        50.0
    }
}

/// One closed span, as exported.
struct RawSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    request: Option<u64>,
}

struct Open {
    id: u64,
    name: &'static str,
    start: u64,
    calls: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Inner {
    open: Vec<Open>,
    aggs: BTreeMap<String, Agg>,
    counts: BTreeMap<&'static str, u64>,
    raw: Vec<RawSpan>,
    next_id: u64,
    request: Option<u64>,
}

impl Inner {
    fn fold(&mut self, key: &str, calls: u64, self_ns: u64) {
        if !self.aggs.contains_key(key) {
            self.aggs.insert(key.to_string(), Agg::new());
        }
        let Some(agg) = self.aggs.get_mut(key) else {
            return;
        };
        let calls = calls.max(1);
        agg.calls += calls;
        agg.self_ns += self_ns;
        let per_call_us = self_ns as f64 / calls as f64 / 1e3;
        for _ in 0..calls {
            agg.self_us.push(per_call_us);
        }
    }
}

/// Records nested spans on one thread. Methods take `&self` so a timing
/// decorator handed to the platform as `&dyn Workload` can record too.
#[derive(Default)]
pub struct Recorder {
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Tags spans opened from now on with a request id (`None` clears it).
    pub fn set_request(&self, request: Option<u64>) {
        self.inner.borrow_mut().request = request;
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_calls(name, 1, f)
    }

    /// Times `f` as one span standing for `calls` calls (a burst); its self
    /// time is split evenly over them.
    pub fn time_calls<T>(&self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        self.open_at(name, calls, now_ns());
        let out = f();
        self.close_at(now_ns());
        out
    }

    /// Opens a span at host time `t`, as a child of the innermost open one.
    pub fn open_at(&self, name: &'static str, calls: u64, t: u64) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.push(Open {
            id,
            name,
            start: t,
            calls,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at host time `t` and returns its self
    /// time in ns. Closing with nothing open is a no-op returning 0.
    pub fn close_at(&self, t: u64) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let Some(span) = inner.open.pop() else {
            return 0;
        };
        let duration = t.saturating_sub(span.start);
        let self_ns = duration.saturating_sub(span.child_ns);
        let parent = inner.open.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        inner.fold(span.name, span.calls, self_ns);
        if inner.raw.len() < RAW_SPAN_CAP {
            let request = inner.request;
            inner.raw.push(RawSpan {
                id: span.id,
                parent,
                name: span.name,
                start_ns: span.start,
                end_ns: t,
                request,
            });
        }
        self_ns
    }

    /// Folds an extra observation (no span of its own) under `key`.
    pub fn observe(&self, key: &str, self_ns: u64) {
        self.inner.borrow_mut().fold(key, 1, self_ns);
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_insert(0) += n;
    }

    /// The aggregate under `key`, if anything was recorded.
    pub fn agg(&self, key: &str) -> Option<Agg> {
        self.inner.borrow().aggs.get(key).cloned()
    }

    /// Total self time under `key` in ms (0 when absent).
    pub fn self_ms(&self, key: &str) -> f64 {
        self.agg(key).map_or(0.0, |a| a.self_ns as f64 / 1e6)
    }

    /// The counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// The kept raw spans as a JSON array.
    pub fn raw_json(&self) -> Json {
        let inner = self.inner.borrow();
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::Array(
            inner
                .raw
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        ("parent".into(), opt(s.parent)),
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("request".into(), opt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_parent_minus_the_children_it_tiles() {
        let rec = Recorder::new();
        rec.open_at("parent", 1, 100);
        rec.open_at("child", 1, 110);
        assert_eq!(rec.close_at(140), 30);
        rec.open_at("child", 1, 150);
        rec.open_at("grandchild", 1, 155);
        assert_eq!(rec.close_at(165), 10);
        assert_eq!(rec.close_at(170), 10, "child minus its grandchild");
        assert_eq!(
            rec.close_at(200),
            100 - 30 - 20,
            "parent minus both children"
        );
        assert_eq!(
            rec.agg("child").map(|a| (a.calls, a.self_ns)),
            Some((2, 40))
        );
        assert_eq!(rec.agg("parent").map(|a| a.self_ns), Some(50));
        let json = rec.raw_json();
        let spans = json.as_array().expect("array");
        assert_eq!(spans.len(), 4);
        let parent_of = |i: usize| spans[i].get("parent").and_then(Json::as_f64);
        assert_eq!(parent_of(0), Some(0.0), "the first child closes first");
        assert!(
            parent_of(3).is_some_and(f64::is_nan),
            "the root has no parent"
        );
        assert_eq!(rec.close_at(300), 0, "nothing left open");
    }

    #[test]
    fn bursts_split_self_time_over_their_calls() {
        let rec = Recorder::new();
        rec.open_at("burst", 4, 0);
        rec.close_at(4_000);
        let agg = rec.agg("burst").expect("recorded");
        assert_eq!((agg.calls, agg.self_ns), (4, 4_000));
        assert!((agg.p50_ns() - 1_000.0).abs() <= 1_000.0 * QuantileSketch::RELATIVE_ERROR);
    }

    #[test]
    fn percentiles_stay_within_the_sketch_error() {
        let rec = Recorder::new();
        for d in 1..=2_000u64 {
            rec.observe("op", d * 100);
        }
        let agg = rec.agg("op").expect("recorded");
        let exact_p50 = 1_000.0 * 100.0;
        let exact_p99 = 1_980.0 * 100.0;
        let err = QuantileSketch::RELATIVE_ERROR;
        assert!(
            (agg.p50_ns() - exact_p50).abs() <= exact_p50 * err,
            "{}",
            agg.p50_ns()
        );
        assert!(
            (agg.tail_ns() - exact_p99).abs() <= exact_p99 * err,
            "{}",
            agg.tail_ns()
        );
        assert_eq!(agg.self_ns, 100 * 2_000 * 2_001 / 2);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        for calls in [0, 20, 99, 100, 999, 1000, 50_000] {
            let p = tail_percentile(calls);
            // Nearest rank of the percentile; the samples above it lie beyond.
            let rank = (p * calls as f64 / 100.0).ceil() as u64;
            assert!(calls < 20 || calls - rank >= 10, "{calls} calls at p{p}");
        }
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
    }

    #[test]
    fn raw_spans_stop_at_the_cap_while_aggregates_continue() {
        let rec = Recorder::new();
        let total = RAW_SPAN_CAP as u64 + 500;
        for i in 0..total {
            rec.open_at("s", 1, i * 10);
            rec.close_at(i * 10 + 5);
        }
        let kept = rec.raw_json().as_array().map(<[Json]>::len);
        assert_eq!(kept, Some(RAW_SPAN_CAP));
        assert_eq!(rec.agg("s").map(|a| a.calls), Some(total));
    }

    #[test]
    fn the_host_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        let rec = Recorder::new();
        let v = rec.time("closure", || 7);
        assert_eq!(v, 7);
        assert_eq!(rec.agg("closure").map(|a| a.calls), Some(1));
    }
}
