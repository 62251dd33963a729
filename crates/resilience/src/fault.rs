//! Declarative, seeded fault injection.
//!
//! A [`FaultPlan`] lists *what* can go wrong and how often; a
//! [`FaultInjector`] owns the plan plus one dedicated RNG stream and is
//! consulted by the platform (sandbox crashes, outage windows, cold-start
//! storms, payload corruption) and by [`FaultyStore`] (storage errors,
//! latency inflation) at fixed interception points.
//!
//! Determinism contract: the injector draws from its stream **only when
//! the consulted rate is strictly positive** (hard outages with severity
//! ≥ 1 short-circuit without a draw; time windows are pure interval
//! checks). An empty plan therefore consumes zero randomness and the
//! simulation is bit-identical to a run without any injector at all.

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{SimDuration, SimTime};
use sebs_storage::{ObjectStorage, StorageError, StorageStats};

/// A sim-time window during which the provider is (partially) down.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Probability that a request in the window is rejected with
    /// `ServiceUnavailable`: 1.0 is a hard outage, anything below is a
    /// brownout.
    pub severity: f64,
}

impl OutageWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A sim-time window of elevated cold-start probability (a deploy sweep,
/// a zone drain — anything that churns the warm pool).
#[derive(Debug, Clone, PartialEq)]
pub struct StormWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Probability that an acquisition with warm candidates available is
    /// forced cold anyway while the storm lasts.
    pub spurious_cold: f64,
}

impl StormWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A sim-time window during which each host in a cluster may crash.
///
/// Host faults are *cluster-level*: the single-box platform ignores them
/// entirely (no draws, no behaviour change). A cluster compiles every
/// window into a concrete per-host crash/recovery schedule up front — a
/// pure function of (plan, seed, host count) — so the schedule is
/// byte-identical for every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCrashWindow {
    /// When the affected hosts crash (warm pools evicted, in-flight
    /// invocations failed with a retryable `host-crash` error).
    pub start: SimTime,
    /// When the affected hosts recover (empty, all-cold).
    pub end: SimTime,
    /// Probability that any given host is hit by this window.
    pub rate: f64,
}

impl HostCrashWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// The declarative fault schedule: all rates are per-event probabilities
/// in `[0, 1]`; windows are expressed on the simulation clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that an acquired sandbox crashes mid-execution. The
    /// invocation fails with a retryable `sandbox-crash` function error
    /// and is billed like any function error.
    pub sandbox_crash_rate: f64,
    /// Probability that a storage operation (get/put/list) fails with a
    /// transient error.
    pub storage_error_rate: f64,
    /// Multiplier on every storage operation's latency (1.0 = none).
    pub storage_latency_factor: f64,
    /// Probability that a request payload is corrupted in flight; the
    /// invocation fails with a retryable `corrupt-payload` function error.
    pub corrupt_payload_rate: f64,
    /// Provider outage / brownout windows.
    pub outages: Vec<OutageWindow>,
    /// Cold-start storm windows.
    pub storms: Vec<StormWindow>,
    /// Host crash/recovery windows (cluster-level; ignored by the
    /// single-box platform).
    pub host_crashes: Vec<HostCrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// The no-fault plan: bit-identical to running without an injector.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            sandbox_crash_rate: 0.0,
            storage_error_rate: 0.0,
            storage_latency_factor: 1.0,
            corrupt_payload_rate: 0.0,
            outages: Vec::new(),
            storms: Vec::new(),
            host_crashes: Vec::new(),
        }
    }

    /// A plan with only transient sandbox crashes at `rate` — the
    /// availability experiment's default fault axis.
    pub fn transient(rate: f64) -> FaultPlan {
        FaultPlan {
            sandbox_crash_rate: rate,
            ..FaultPlan::empty()
        }
    }

    /// Whether the plan can ever inject anything.
    pub fn is_empty(&self) -> bool {
        self.sandbox_crash_rate <= 0.0
            && self.storage_error_rate <= 0.0
            && self.storage_latency_factor == 1.0
            && self.corrupt_payload_rate <= 0.0
            && self.outages.is_empty()
            && self.storms.is_empty()
            && self.host_crashes.is_empty()
    }

    /// Whether storage operations need the [`FaultyStore`] wrapper.
    pub fn has_storage_faults(&self) -> bool {
        self.storage_error_rate > 0.0 || self.storage_latency_factor != 1.0
    }

    /// Parses the CLI spec: comma-separated `key=value` entries.
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `crash` | rate | `sandbox_crash_rate` |
    /// | `storage` | rate | `storage_error_rate` |
    /// | `stall` | factor | `storage_latency_factor` |
    /// | `corrupt` | rate | `corrupt_payload_rate` |
    /// | `outage` | `from..to@severity` (seconds) | an [`OutageWindow`] |
    /// | `storm` | `from..to@prob` (seconds) | a [`StormWindow`] |
    /// | `host` | `from..to@rate` (seconds) | a [`HostCrashWindow`] |
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` is not key=value"))?;
            match key.trim() {
                "crash" => plan.sandbox_crash_rate = parse_rate(key, value)?,
                "storage" => plan.storage_error_rate = parse_rate(key, value)?,
                "corrupt" => plan.corrupt_payload_rate = parse_rate(key, value)?,
                "stall" => {
                    let f: f64 = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad stall factor `{value}`: {e}"))?;
                    if f < 1.0 {
                        return Err(format!("stall factor {f} must be >= 1"));
                    }
                    plan.storage_latency_factor = f;
                }
                "outage" => {
                    let (start, end, sev) = parse_window(key, value)?;
                    plan.outages.push(OutageWindow {
                        start,
                        end,
                        severity: sev,
                    });
                }
                "storm" => {
                    let (start, end, prob) = parse_window(key, value)?;
                    plan.storms.push(StormWindow {
                        start,
                        end,
                        spurious_cold: prob,
                    });
                }
                "host" => {
                    let (start, end, rate) = parse_window(key, value)?;
                    plan.host_crashes.push(HostCrashWindow { start, end, rate });
                }
                other => {
                    return Err(format!(
                        "unknown fault key `{other}` (valid keys: crash, storage, \
                         stall, corrupt, outage, storm, host)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let r: f64 = value
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} rate `{value}`: {e}"))?;
    if !(0.0..=1.0).contains(&r) {
        return Err(format!("{key} rate {r} outside [0, 1]"));
    }
    Ok(r)
}

/// Parses `from..to@p` (seconds, probability).
fn parse_window(key: &str, value: &str) -> Result<(SimTime, SimTime, f64), String> {
    let (range, p) = value
        .split_once('@')
        .ok_or_else(|| format!("{key} window `{value}` is not from..to@p"))?;
    let (from, to) = range
        .split_once("..")
        .ok_or_else(|| format!("{key} window `{value}` is not from..to@p"))?;
    let from: f64 = from
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} window start `{from}`: {e}"))?;
    let to: f64 = to
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} window end `{to}`: {e}"))?;
    if !(from >= 0.0 && to > from) {
        return Err(format!("{key} window {from}..{to} is empty or negative"));
    }
    // `SimDuration::from_secs_f64` maps an infinite end to zero (an empty
    // window) and saturates one past the clock, so refuse both by name.
    if to.is_infinite() || to * 1e9 >= u64::MAX as f64 {
        return Err(format!(
            "{key} window end {to} s does not fit the simulator clock (at most {} s)",
            u64::MAX / 1_000_000_000
        ));
    }
    let p = parse_rate(key, p)?;
    Ok((
        SimTime::ZERO + SimDuration::from_secs_f64(from),
        SimTime::ZERO + SimDuration::from_secs_f64(to),
        p,
    ))
}

/// How many faults of each kind the injector has fired, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Sandbox crashes injected.
    pub sandbox_crash: u64,
    /// Transient storage errors injected.
    pub storage_error: u64,
    /// Requests rejected inside an outage window.
    pub outage: u64,
    /// Payloads corrupted in flight.
    pub corrupt_payload: u64,
}

impl InjectionCounts {
    /// Stable `(kind, count)` pairs for metrics export.
    pub fn entries(&self) -> [(&'static str, u64); 4] {
        [
            ("sandbox-crash", self.sandbox_crash),
            ("storage-error", self.storage_error),
            ("outage", self.outage),
            ("corrupt-payload", self.corrupt_payload),
        ]
    }

    /// Total injected faults across kinds.
    pub fn total(&self) -> u64 {
        self.sandbox_crash + self.storage_error + self.outage + self.corrupt_payload
    }
}

/// A compiled [`FaultPlan`] bound to its dedicated RNG stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StreamRng,
    draws: u64,
    counts: InjectionCounts,
}

impl FaultInjector {
    /// Compiles a plan against the dedicated fault stream (derive it with
    /// `SimRng::new(platform_seed).stream("fault-injector")` so schedules
    /// are reproducible and independent of every other concern).
    pub fn new(plan: FaultPlan, rng: StreamRng) -> FaultInjector {
        FaultInjector {
            plan,
            rng,
            draws: 0,
            counts: InjectionCounts::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many RNG values the injector has consumed — the observability
    /// hook behind the "empty plan draws nothing" guarantee.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Injection counters so far.
    pub fn counts(&self) -> InjectionCounts {
        self.counts
    }

    fn sample(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        self.draws += 1;
        if rate >= 1.0 {
            // Still consume the draw so `rate = 1` and `rate = 0.999…`
            // schedules stay aligned, but the outcome is certain.
            self.rng.gen::<f64>();
            return true;
        }
        self.rng.gen::<f64>() < rate
    }

    /// Should this request be rejected by an outage window covering `now`?
    /// Hard outages (severity ≥ 1) short-circuit without a draw.
    pub fn sample_outage(&mut self, now: SimTime) -> bool {
        let severity = self
            .plan
            .outages
            .iter()
            .filter(|w| w.contains(now))
            .map(|w| w.severity)
            .fold(0.0f64, f64::max);
        let hit = if severity >= 1.0 {
            true
        } else {
            self.sample(severity)
        };
        if hit {
            self.counts.outage += 1;
        }
        hit
    }

    /// Should the sandbox acquired for this invocation crash?
    pub fn sample_sandbox_crash(&mut self) -> bool {
        let hit = self.sample(self.plan.sandbox_crash_rate);
        if hit {
            self.counts.sandbox_crash += 1;
        }
        hit
    }

    /// Should this request's payload arrive corrupted?
    pub fn sample_corrupt_payload(&mut self) -> bool {
        let hit = self.sample(self.plan.corrupt_payload_rate);
        if hit {
            self.counts.corrupt_payload += 1;
        }
        hit
    }

    /// Should this storage operation fail transiently?
    pub fn sample_storage_error(&mut self) -> bool {
        let hit = self.sample(self.plan.storage_error_rate);
        if hit {
            self.counts.storage_error += 1;
        }
        hit
    }

    /// The extra spurious-cold probability contributed by storm windows
    /// covering `now` — a pure interval lookup, no randomness.
    pub fn storm_boost(&self, now: SimTime) -> f64 {
        self.plan
            .storms
            .iter()
            .filter(|w| w.contains(now))
            .map(|w| w.spurious_cold)
            .fold(0.0f64, f64::max)
    }

    /// The latency multiplier for storage operations.
    pub fn storage_latency_factor(&self) -> f64 {
        self.plan.storage_latency_factor
    }
}

/// An [`ObjectStorage`] decorator that consults a [`FaultInjector`] before
/// delegating: get/put/list can fail transiently and their latencies are
/// inflated by the plan's factor. Bucket management and metadata lookups
/// are never failed — fault plans model the data path.
pub struct FaultyStore<'a> {
    inner: &'a mut dyn ObjectStorage,
    injector: &'a mut FaultInjector,
}

impl<'a> FaultyStore<'a> {
    /// Wraps a store for the duration of one invocation.
    pub fn new(inner: &'a mut dyn ObjectStorage, injector: &'a mut FaultInjector) -> Self {
        FaultyStore { inner, injector }
    }

    fn inflate(&self, latency: SimDuration) -> SimDuration {
        let f = self.injector.storage_latency_factor();
        if f == 1.0 {
            latency
        } else {
            latency.mul_f64(f)
        }
    }
}

impl ObjectStorage for FaultyStore<'_> {
    fn create_bucket(&mut self, bucket: &str) {
        self.inner.create_bucket(bucket);
    }

    fn put(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration, StorageError> {
        if self.injector.sample_storage_error() {
            return Err(StorageError::Transient { op: "put".into() });
        }
        self.inner
            .put(rng, bucket, key, data)
            .map(|l| self.inflate(l))
    }

    fn get(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
    ) -> Result<(Bytes, SimDuration), StorageError> {
        if self.injector.sample_storage_error() {
            return Err(StorageError::Transient { op: "get".into() });
        }
        self.inner
            .get(rng, bucket, key)
            .map(|(b, l)| (b, self.inflate(l)))
    }

    fn list(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
    ) -> Result<(Vec<String>, SimDuration), StorageError> {
        if self.injector.sample_storage_error() {
            return Err(StorageError::Transient { op: "list".into() });
        }
        self.inner
            .list(rng, bucket)
            .map(|(k, l)| (k, self.inflate(l)))
    }

    fn size_of(&self, bucket: &str, key: &str) -> Option<u64> {
        self.inner.size_of(bucket, key)
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, SimRng::new(7).stream("fault-injector"))
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn empty_plan_never_draws() {
        let mut inj = injector(FaultPlan::empty());
        for _ in 0..100 {
            assert!(!inj.sample_sandbox_crash());
            assert!(!inj.sample_corrupt_payload());
            assert!(!inj.sample_storage_error());
            assert!(!inj.sample_outage(at(5)));
            assert_eq!(inj.storm_boost(at(5)), 0.0);
        }
        assert_eq!(inj.draws(), 0, "an empty plan must consume no randomness");
        assert_eq!(inj.counts().total(), 0);
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn rates_converge_and_count() {
        let mut inj = injector(FaultPlan::transient(0.25));
        let hits = (0..10_000).filter(|_| inj.sample_sandbox_crash()).count();
        assert!((2200..2800).contains(&hits), "p=0.25 got {hits}");
        assert_eq!(inj.counts().sandbox_crash, hits as u64);
        assert_eq!(inj.draws(), 10_000);
    }

    #[test]
    fn schedules_are_reproducible() {
        let run = || {
            let mut inj = injector(FaultPlan::transient(0.1));
            (0..64)
                .map(|_| inj.sample_sandbox_crash())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hard_outage_is_certain_and_brownout_is_probabilistic() {
        let plan = FaultPlan {
            outages: vec![
                OutageWindow {
                    start: at(10),
                    end: at(20),
                    severity: 1.0,
                },
                OutageWindow {
                    start: at(30),
                    end: at(40),
                    severity: 0.5,
                },
            ],
            ..FaultPlan::empty()
        };
        let mut inj = injector(plan);
        assert!(!inj.sample_outage(at(5)), "outside every window");
        assert_eq!(inj.draws(), 0, "interval checks draw nothing");
        assert!(inj.sample_outage(at(10)));
        assert!(inj.sample_outage(at(19)));
        assert_eq!(inj.draws(), 0, "hard outages draw nothing");
        assert!(!inj.sample_outage(at(20)), "end is exclusive");
        let hits = (0..1000).filter(|_| inj.sample_outage(at(35))).count();
        assert!((400..600).contains(&hits), "brownout p=0.5 got {hits}");
        assert_eq!(inj.counts().outage as usize, 2 + hits);
    }

    #[test]
    fn storm_boost_is_a_pure_lookup() {
        let plan = FaultPlan {
            storms: vec![StormWindow {
                start: at(100),
                end: at(200),
                spurious_cold: 0.8,
            }],
            ..FaultPlan::empty()
        };
        let inj = injector(plan);
        assert_eq!(inj.storm_boost(at(50)), 0.0);
        assert_eq!(inj.storm_boost(at(150)), 0.8);
        assert_eq!(inj.storm_boost(at(200)), 0.0);
        assert_eq!(inj.draws(), 0);
    }

    #[test]
    fn faulty_store_injects_errors_and_inflates_latency() {
        let mut store = SimObjectStore::local_minio_model();
        store.create_bucket("b");
        let mut rng = SimRng::new(1).stream("exec");
        let mut clean = injector(FaultPlan::empty());
        let baseline = {
            let mut s = FaultyStore::new(&mut store, &mut clean);
            s.put(&mut rng, "b", "k", Bytes::from(vec![0u8; 1 << 20]))
                .unwrap()
        };
        let mut slow = injector(FaultPlan {
            storage_latency_factor: 3.0,
            ..FaultPlan::empty()
        });
        let mut rng2 = SimRng::new(1).stream("exec");
        let mut store2 = SimObjectStore::local_minio_model();
        store2.create_bucket("b");
        let inflated = {
            let mut s = FaultyStore::new(&mut store2, &mut slow);
            s.put(&mut rng2, "b", "k", Bytes::from(vec![0u8; 1 << 20]))
                .unwrap()
        };
        assert_eq!(inflated, baseline.mul_f64(3.0));

        let mut always = injector(FaultPlan {
            storage_error_rate: 1.0,
            ..FaultPlan::empty()
        });
        {
            let mut s = FaultyStore::new(&mut store, &mut always);
            let err = s.get(&mut rng, "b", "k").unwrap_err();
            assert!(matches!(err, StorageError::Transient { .. }));
            assert!(err.to_string().contains("transient"));
            // Metadata paths never fail.
            assert_eq!(s.size_of("b", "k"), Some(1 << 20));
            assert_eq!(s.stats().puts, 1);
        }
        assert_eq!(always.counts().storage_error, 1);
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "crash=0.05, storage=0.02, stall=2.5, corrupt=0.01, outage=10..20@1.0, storm=5..15@0.8",
        )
        .unwrap();
        assert_eq!(plan.sandbox_crash_rate, 0.05);
        assert_eq!(plan.storage_error_rate, 0.02);
        assert_eq!(plan.storage_latency_factor, 2.5);
        assert_eq!(plan.corrupt_payload_rate, 0.01);
        assert_eq!(plan.outages.len(), 1);
        assert_eq!(plan.outages[0].start, at(10));
        assert_eq!(plan.outages[0].severity, 1.0);
        assert_eq!(plan.storms.len(), 1);
        assert_eq!(plan.storms[0].spurious_cold, 0.8);
        assert!(plan.has_storage_faults());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_host_crash_windows() {
        let plan = FaultPlan::parse("host=30..90@0.4").unwrap();
        assert_eq!(plan.host_crashes.len(), 1);
        assert_eq!(plan.host_crashes[0].start, at(30));
        assert_eq!(plan.host_crashes[0].end, at(90));
        assert_eq!(plan.host_crashes[0].rate, 0.4);
        assert!(plan.host_crashes[0].contains(at(30)));
        assert!(!plan.host_crashes[0].contains(at(90)), "end is exclusive");
        assert!(!plan.is_empty(), "host windows make the plan non-empty");
        assert!(
            !plan.has_storage_faults(),
            "host windows do not touch storage"
        );
        assert!(FaultPlan::parse("host=10..5@0.4").is_err());
        assert!(FaultPlan::parse("host=10..20@1.5").is_err());
    }

    #[test]
    fn parse_unknown_key_lists_valid_keys() {
        let err = FaultPlan::parse("crsh=0.1").unwrap_err();
        assert!(err.contains("unknown fault key `crsh`"), "{err}");
        for key in [
            "crash", "storage", "stall", "corrupt", "outage", "storm", "host",
        ] {
            assert!(err.contains(key), "error `{err}` should list `{key}`");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash",
            "crash=lots",
            "crash=1.5",
            "stall=0.5",
            "outage=10..20",
            "outage=20..10@0.5",
            "storm=a..b@0.5",
            "frobnicate=1",
            "outage=10..inf@1.0",
            "storm=0..inf@0.5",
            "host=1e300..1e301@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
