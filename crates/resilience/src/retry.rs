//! Client-side resilience: retry policies, circuit breaking, hedging.
//!
//! [`RetryPolicy`] describes *whether and how* a client re-issues a failed
//! invocation: bounded attempts, exponential backoff with deterministic
//! jitter, a global retry budget, an optional per-invocation deadline,
//! an optional [`CircuitBreaker`], and optional latency-quantile hedging
//! via [`HedgeTracker`]. The policy is pure data — `sebs_platform`'s
//! `RetryDriver`, the one loop behind both the single box and the
//! cluster, drives it and owns the RNG stream for jitter.
//!
//! Determinism contract: [`RetryPolicy::none`] performs no retries, no
//! breaker bookkeeping, and no hedging, and `backoff_for` draws jitter
//! **only when a retry actually happens and jitter is non-zero** — so a
//! no-op policy consumes zero randomness and results are bit-identical
//! to a plain invoke.

use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{SimDuration, SimTime};

/// Circuit-breaker tuning: how many consecutive failures trip it open and
/// how long it stays open before probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that flip closed → open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open probe.
    pub cooldown: SimDuration,
}

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected locally without reaching the platform.
    Open,
    /// One probe request is admitted; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for traces and metrics.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for gauges: closed 0, open 1, half-open 2.
    pub fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// A consecutive-failure circuit breaker on the simulation clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    rejections: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            rejections: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many requests the breaker has rejected locally.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Gate a request at sim-time `now`. An open breaker transitions to
    /// half-open once the cooldown has elapsed and admits one probe.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    self.rejections += 1;
                    false
                }
            }
        }
    }

    /// Report a successful attempt: closes the breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Report a failed attempt at sim-time `now`: a half-open probe
    /// failing, or the threshold being reached, (re)opens the breaker.
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.config.failure_threshold
        {
            self.state = BreakerState::Open;
            self.opened_at = now;
            self.consecutive_failures = 0;
        }
    }
}

/// Online latency-quantile estimator for request hedging: once enough
/// successful attempts have been observed, `threshold()` yields the p-th
/// quantile (nearest rank) and the client hedges any attempt that is
/// still unanswered past it.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeTracker {
    quantile: f64,
    samples: Vec<SimDuration>,
}

/// Hedging stays disabled until this many latency samples exist.
pub const HEDGE_MIN_SAMPLES: usize = 8;

impl HedgeTracker {
    /// Tracks the `quantile`-th latency quantile (e.g. 0.95).
    pub fn new(quantile: f64) -> HedgeTracker {
        HedgeTracker {
            quantile: quantile.clamp(0.0, 1.0),
            samples: Vec::new(),
        }
    }

    /// Record a successful attempt's client latency (sorted insert).
    pub fn observe(&mut self, latency: SimDuration) {
        let at = self.samples.partition_point(|s| *s <= latency);
        self.samples.insert(at, latency);
    }

    /// Number of samples observed.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The hedge threshold: nearest-rank p-th quantile, or `None` until
    /// [`HEDGE_MIN_SAMPLES`] samples exist.
    pub fn threshold(&self) -> Option<SimDuration> {
        if self.samples.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let n = self.samples.len();
        let rank = ((self.quantile * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }
}

/// The client's recovery policy. Pure data; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// The first attempt plus its retries (1 = no retries). A hedge is
    /// an extra billed attempt and does not count here.
    pub max_attempts: u32,
    /// First backoff wait; doubles per retry.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Jitter fraction: the wait is scaled by `1 + jitter·u`, `u ∈ [0,1)`
    /// drawn from the invoker's dedicated backoff stream. 0 = no draw.
    pub jitter: f64,
    /// Global cap on retries across the policy's lifetime (`None` =
    /// unlimited). Exhausting the budget turns the policy into a
    /// single-attempt one.
    pub retry_budget: Option<u64>,
    /// Client-side deadline on the whole chain: no retry (or hedge) is
    /// launched once the accumulated client time would exceed it.
    pub deadline: Option<SimDuration>,
    /// Hedge quantile: issue a second attempt when the first is slower
    /// than this observed latency quantile (e.g. 0.95). `None` = off.
    pub hedge_after_quantile: Option<f64>,
    /// Optional circuit breaker tuning.
    pub breaker: Option<BreakerConfig>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// The no-op policy: one attempt, no breaker, no hedging, no draws.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(2),
            jitter: 0.0,
            retry_budget: None,
            deadline: None,
            hedge_after_quantile: None,
            breaker: None,
        }
    }

    /// A plain exponential-backoff policy with `attempts` total attempts
    /// (100 ms base, 2 s cap, no jitter).
    pub fn backoff(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts.max(1),
            ..RetryPolicy::none()
        }
    }

    /// Whether this policy is exactly the no-op policy (the bit-identity
    /// fast path).
    pub fn is_none(&self) -> bool {
        *self == RetryPolicy::none()
    }

    /// The wait before retry number `retry_index` (0-based: the wait
    /// before the first retry has index 0; hedges are not retries).
    /// Draws from `rng` only when `jitter > 0` and the un-jittered wait
    /// is non-zero.
    pub fn backoff_for(&self, retry_index: u32, rng: &mut StreamRng) -> SimDuration {
        let exp = retry_index.min(30);
        // Saturating: base backoffs ≳ 17 s doubled 30 times overflow u64
        // nanoseconds, and a wrapped wait would undershoot the cap.
        let doubled =
            SimDuration::from_nanos(self.base_backoff.as_nanos().saturating_mul(1u64 << exp));
        let wait = doubled.min(self.max_backoff);
        if self.jitter > 0.0 && !wait.is_zero() {
            wait.mul_f64(1.0 + self.jitter * rng.gen::<f64>())
        } else {
            wait
        }
    }

    /// Parses the CLI spec: comma-separated `key=value` entries.
    ///
    /// | key | value | meaning |
    /// |---|---|---|
    /// | `attempts` | n | `max_attempts` |
    /// | `base` | ms | `base_backoff` |
    /// | `cap` | ms | `max_backoff` |
    /// | `jitter` | fraction | `jitter` |
    /// | `budget` | n | `retry_budget` |
    /// | `deadline` | ms | `deadline` |
    /// | `hedge` | quantile | `hedge_after_quantile` |
    /// | `breaker` | `n@ms` | [`BreakerConfig`] |
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        let mut policy = RetryPolicy::none();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("retry entry `{entry}` is not key=value"))?;
            let value = value.trim();
            match key.trim() {
                "attempts" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|e| format!("bad attempts `{value}`: {e}"))?;
                    if n == 0 {
                        return Err("attempts must be >= 1".to_string());
                    }
                    policy.max_attempts = n;
                }
                "base" => policy.base_backoff = parse_ms(key, value)?,
                "cap" => policy.max_backoff = parse_ms(key, value)?,
                "jitter" => {
                    let j: f64 = value
                        .parse()
                        .map_err(|e| format!("bad jitter `{value}`: {e}"))?;
                    if !(0.0..=1.0).contains(&j) {
                        return Err(format!("jitter {j} outside [0, 1]"));
                    }
                    policy.jitter = j;
                }
                "budget" => {
                    policy.retry_budget = Some(
                        value
                            .parse()
                            .map_err(|e| format!("bad budget `{value}`: {e}"))?,
                    );
                }
                "deadline" => policy.deadline = Some(parse_ms(key, value)?),
                "hedge" => {
                    let q: f64 = value
                        .parse()
                        .map_err(|e| format!("bad hedge quantile `{value}`: {e}"))?;
                    if !(0.0..1.0).contains(&q) {
                        return Err(format!("hedge quantile {q} outside [0, 1)"));
                    }
                    policy.hedge_after_quantile = Some(q);
                }
                "breaker" => {
                    let (n, ms) = value
                        .split_once('@')
                        .ok_or_else(|| format!("breaker `{value}` is not n@cooldown_ms"))?;
                    policy.breaker = Some(BreakerConfig {
                        failure_threshold: n
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad breaker threshold `{n}`: {e}"))?,
                        cooldown: parse_ms(key, ms)?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown retry key `{other}` (valid keys: attempts, base, cap, \
                         jitter, budget, deadline, hedge, breaker)"
                    ))
                }
            }
        }
        Ok(policy)
    }
}

/// Parses a whole number of milliseconds for `key`, refusing counts the
/// simulator clock cannot hold rather than letting them wrap.
fn parse_ms(key: &str, value: &str) -> Result<SimDuration, String> {
    let ms: u64 = value
        .trim()
        .parse()
        .map_err(|e| format!("bad {key} millis `{value}`: {e}"))?;
    SimDuration::checked_from_millis(ms).ok_or_else(|| {
        format!(
            "{key} {ms} ms does not fit the simulator clock (at most {} ms)",
            u64::MAX / 1_000_000
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn backoff_doubles_and_caps_without_drawing() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(350),
            ..RetryPolicy::none()
        };
        let mut rng = SimRng::new(3).stream("retry-backoff");
        let pristine = rng.clone();
        assert_eq!(
            policy.backoff_for(0, &mut rng),
            SimDuration::from_millis(100)
        );
        assert_eq!(
            policy.backoff_for(1, &mut rng),
            SimDuration::from_millis(200)
        );
        assert_eq!(
            policy.backoff_for(2, &mut rng),
            SimDuration::from_millis(350)
        );
        assert_eq!(
            policy.backoff_for(9, &mut rng),
            SimDuration::from_millis(350)
        );
        assert_eq!(rng, pristine, "zero jitter must not consume randomness");
    }

    #[test]
    fn jitter_draws_and_stays_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            jitter: 0.5,
            ..RetryPolicy::none()
        };
        let mut rng = SimRng::new(3).stream("retry-backoff");
        let pristine = rng.clone();
        for i in 0..16 {
            let w = policy.backoff_for(i % 3, &mut rng);
            let base = policy.backoff_for(i % 3, &mut pristine.clone());
            // With jitter the wait lands in [plain, plain * 1.5].
            let plain = RetryPolicy {
                jitter: 0.0,
                ..policy.clone()
            }
            .backoff_for(i % 3, &mut pristine.clone());
            assert!(
                w >= plain && w <= plain.mul_f64(1.5),
                "wait {w} from {plain} ({base})"
            );
        }
        assert_ne!(rng, pristine, "jitter must consume the stream");
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // base 20 s doubled 2^30 times is ~2.1e19 ns > u64::MAX: the plain
        // multiply wraps to a tiny wait, undershooting the cap. The fix
        // saturates, so the wait clamps to the cap.
        let policy = RetryPolicy {
            max_attempts: 40,
            base_backoff: SimDuration::from_secs(20),
            max_backoff: SimDuration::from_secs(30),
            ..RetryPolicy::none()
        };
        let mut rng = SimRng::new(3).stream("retry-backoff");
        for retry_index in [0, 1, 29, 30, 31, 200] {
            let wait = policy.backoff_for(retry_index, &mut rng);
            assert!(
                wait <= policy.max_backoff,
                "retry {retry_index}: wait {wait} exceeds the cap"
            );
            assert!(
                wait >= policy.base_backoff.min(policy.max_backoff),
                "retry {retry_index}: wait {wait} wrapped below the base"
            );
        }
        assert_eq!(
            policy.backoff_for(30, &mut rng),
            SimDuration::from_secs(30),
            "the saturated product must clamp to max_backoff"
        );
    }

    #[test]
    fn parse_unknown_key_lists_valid_keys() {
        let err = RetryPolicy::parse("atempts=3").unwrap_err();
        assert!(err.contains("unknown retry key `atempts`"), "{err}");
        for key in [
            "attempts", "base", "cap", "jitter", "budget", "deadline", "hedge", "breaker",
        ] {
            assert!(err.contains(key), "error `{err}` should list `{key}`");
        }
    }

    #[test]
    fn none_policy_is_recognised() {
        assert!(RetryPolicy::none().is_none());
        assert!(RetryPolicy::default().is_none());
        assert!(!RetryPolicy::backoff(3).is_none());
        assert_eq!(RetryPolicy::backoff(0).max_attempts, 1);
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(10),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(at(0)));
        b.record_failure(at(0));
        b.record_failure(at(1));
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure(at(2));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(at(5)), "cooldown not elapsed");
        assert_eq!(b.rejections(), 1);
        assert!(b.allow(at(12)), "cooldown elapsed admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure(at(12));
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert!(b.allow(at(30)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Success resets the consecutive counter.
        b.record_failure(at(31));
        b.record_failure(at(32));
        b.record_success();
        b.record_failure(at(33));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_state_labels_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
        assert_eq!(BreakerState::Closed.as_gauge(), 0);
        assert_eq!(BreakerState::Open.as_gauge(), 1);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2);
    }

    #[test]
    fn hedge_tracker_needs_samples_then_reports_nearest_rank() {
        let mut h = HedgeTracker::new(0.95);
        assert!(h.is_empty());
        for ms in [10u64, 20, 30, 40, 50, 60, 70] {
            h.observe(SimDuration::from_millis(ms));
            assert_eq!(h.threshold(), None, "below the sample floor");
        }
        h.observe(SimDuration::from_millis(80));
        assert_eq!(h.len(), 8);
        // ceil(0.95 * 8) = 8 → the max.
        assert_eq!(h.threshold(), Some(SimDuration::from_millis(80)));
        let mut median = HedgeTracker::new(0.5);
        for ms in [80u64, 10, 30, 70, 20, 60, 40, 50] {
            median.observe(SimDuration::from_millis(ms));
        }
        // ceil(0.5 * 8) = 4 → the 4th smallest.
        assert_eq!(median.threshold(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn parse_full_spec() {
        let p = RetryPolicy::parse(
            "attempts=3, base=50, cap=800, jitter=0.5, budget=100, deadline=10000, hedge=0.95, breaker=5@30000",
        )
        .unwrap();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.base_backoff, SimDuration::from_millis(50));
        assert_eq!(p.max_backoff, SimDuration::from_millis(800));
        assert_eq!(p.jitter, 0.5);
        assert_eq!(p.retry_budget, Some(100));
        assert_eq!(p.deadline, Some(SimDuration::from_secs(10)));
        assert_eq!(p.hedge_after_quantile, Some(0.95));
        assert_eq!(
            p.breaker,
            Some(BreakerConfig {
                failure_threshold: 5,
                cooldown: SimDuration::from_secs(30),
            })
        );
        assert!(RetryPolicy::parse("").unwrap().is_none());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "attempts",
            "attempts=0",
            "attempts=three",
            "jitter=2",
            "hedge=1.0",
            "breaker=5",
            "breaker=x@100",
            "frobnicate=1",
        ] {
            assert!(
                RetryPolicy::parse(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn parse_rejects_durations_past_the_simulator_clock() {
        let max = u64::MAX / 1_000_000;
        let longest = SimDuration::from_millis(max);
        for (key, spec) in [
            ("base", "base={}"),
            ("cap", "cap={}"),
            ("deadline", "deadline={}"),
            ("breaker", "breaker=5@{}"),
        ] {
            let p = RetryPolicy::parse(&spec.replace("{}", &max.to_string())).unwrap();
            let parsed = match key {
                "base" => p.base_backoff,
                "cap" => p.max_backoff,
                "deadline" => p.deadline.unwrap(),
                _ => p.breaker.unwrap().cooldown,
            };
            assert_eq!(parsed, longest, "{key}");
            let err = RetryPolicy::parse(&spec.replace("{}", &(max + 1).to_string())).unwrap_err();
            assert!(
                err.starts_with(key) && err.contains("does not fit"),
                "{key}: {err}"
            );
        }
    }
}
