//! The one retry driver behind both invokers.
//!
//! [`RetryDriver`] runs a [`RetryPolicy`] over anything that can launch
//! an attempt: the single-box [`crate::FaasPlatform::invoke_with_policy`]
//! and the cluster's `invoke_resilient` both implement [`Attempt`] on a
//! small adapter and hand it to [`RetryDriver::run`]. The loop owns every
//! client-side decision — breaker gate, first-attempt hedge, retry
//! counting, backoff, budget and deadline — so the two invokers cannot
//! drift apart.
//!
//! Counting rule: `max_attempts` counts the first attempt and its
//! retries; the wait before retry *k* (1-based) is `backoff_for(k - 1)`;
//! a hedge is one extra billed attempt that uses up no retry.

use sebs_resilience::{CircuitBreaker, HedgeTracker, RetryPolicy};
use sebs_sim::{SimDuration, SimTime, StreamRng};
use sebs_telemetry::MetricsHub;

use crate::invocation::{AttemptChain, InvocationOutcome, InvocationRecord};

/// Why the driver launches an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The chain's first attempt.
    First,
    /// A retry after a failed retryable attempt and its backoff wait.
    Retry,
    /// The hedge raced against a slow first attempt, dispatched at the
    /// same instant.
    Hedge,
}

/// An invoker the [`RetryDriver`] can run a chain on.
pub trait Attempt {
    /// The invoker's clock.
    fn now(&self) -> SimTime;
    /// Lets time pass between attempts.
    fn advance(&mut self, d: SimDuration);
    /// Launches one attempt at [`Attempt::now`] and returns its record
    /// plus its *extent*: how far the attempt pushes the invoker's clock
    /// (client time on the single box; queue wait plus client time on
    /// the cluster).
    fn attempt(&mut self, kind: AttemptKind) -> (InvocationRecord, SimDuration);
    /// The metrics hub and function name the chain reports to, if any.
    fn metrics(&mut self) -> Option<(&mut MetricsHub, &str)> {
        None
    }
}

/// Where a chain's attempts sit in time, for the trace builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainTimeline {
    /// Start offset of each attempt from the chain start, aligned with
    /// [`AttemptChain::attempts`].
    pub starts: Vec<SimDuration>,
    /// The chain's full extent: every attempt (the longer of a hedged
    /// pair) plus every wait.
    pub extent: SimDuration,
}

/// Client-side retry state for one invoker: the policy, its backoff
/// stream, breaker, hedge tracker and spent retry budget.
#[derive(Debug, Clone)]
pub struct RetryDriver {
    policy: RetryPolicy,
    rng_backoff: StreamRng,
    breaker: Option<CircuitBreaker>,
    hedge: Option<HedgeTracker>,
    retries_spent: u64,
}

impl RetryDriver {
    /// A fresh driver drawing backoff jitter from `backoff`.
    pub fn new(policy: RetryPolicy, backoff: StreamRng) -> RetryDriver {
        RetryDriver {
            breaker: policy.breaker.map(CircuitBreaker::new),
            hedge: policy.hedge_after_quantile.map(HedgeTracker::new),
            rng_backoff: backoff,
            retries_spent: 0,
            policy,
        }
    }

    /// The chain of an invoker with no policy: exactly one first
    /// attempt. The no-op policy never waits, so its stream is never read.
    pub fn single(invoker: &mut impl Attempt) -> (AttemptChain, ChainTimeline) {
        RetryDriver::new(RetryPolicy::none(), StreamRng::from_seed_u64(0)).run(invoker)
    }

    /// Runs one chain under the policy. The invoker advances by each
    /// attempt's extent plus the following wait; the final attempt never
    /// advances it (the caller owns time).
    pub fn run(&mut self, invoker: &mut impl Attempt) -> (AttemptChain, ChainTimeline) {
        let mut chain = AttemptChain {
            attempts: Vec::new(),
            waits: Vec::new(),
            hedged: false,
            hedge_won: false,
            breaker_rejected: false,
            outcome: InvocationOutcome::ServiceUnavailable,
            client_time: SimDuration::ZERO,
        };
        let mut timeline = ChainTimeline {
            starts: Vec::new(),
            extent: SimDuration::ZERO,
        };

        // The breaker gates the whole chain: a rejected call launches
        // nothing and bills nothing.
        if let Some(breaker) = self.breaker.as_mut() {
            let admitted = breaker.allow(invoker.now());
            if let Some((hub, name)) = invoker.metrics() {
                let fun = [("function", name)];
                hub.gauge_set(
                    "sebs_breaker_state",
                    &fun,
                    breaker.state().as_gauge() as f64,
                );
                if breaker.rejections() > 0 {
                    hub.counter_set(
                        "sebs_breaker_rejections_total",
                        &fun,
                        breaker.rejections() as f64,
                    );
                }
            }
            if !admitted {
                chain.breaker_rejected = true;
                return (chain, timeline);
            }
        }

        // `elapsed` is the client's effective latency (a winning hedge
        // shortens it); `cursor` is the full extent on the invoker clock.
        let mut elapsed = SimDuration::ZERO;
        let mut cursor = SimDuration::ZERO;
        let mut retries: u32 = 0;
        loop {
            let kind = if retries == 0 {
                AttemptKind::First
            } else {
                AttemptKind::Retry
            };
            let (primary, primary_extent) = invoker.attempt(kind);
            if kind == AttemptKind::Retry {
                if let Some((hub, name)) = invoker.metrics() {
                    hub.counter_add("sebs_retry_attempts_total", &[("function", name)], 1.0);
                }
            }
            // Only the first attempt is hedged, against the threshold
            // learned before its own latency is observed.
            let threshold = match kind {
                AttemptKind::First => self.hedge.as_ref().and_then(HedgeTracker::threshold),
                _ => None,
            };
            if primary.outcome.is_success() {
                if let Some(h) = self.hedge.as_mut() {
                    h.observe(primary_extent);
                }
            }
            let mut outcome = primary.outcome.clone();
            let mut effective = primary_extent;
            let mut extent = primary_extent;
            timeline.starts.push(cursor);
            chain.attempts.push(primary);

            if let Some(threshold) = threshold.filter(|t| primary_extent > *t) {
                // The hedge launches at the threshold instant; whichever
                // attempt answers first wins, successes preferred.
                chain.hedged = true;
                let (hedge, hedge_extent) = invoker.attempt(AttemptKind::Hedge);
                if hedge.outcome.is_success() {
                    if let Some(h) = self.hedge.as_mut() {
                        h.observe(hedge_extent);
                    }
                }
                let hedge_total = threshold + hedge_extent;
                extent = extent.max(hedge_total);
                let hedge_wins = match (outcome.is_success(), hedge.outcome.is_success()) {
                    (true, false) => false,
                    (false, true) => true,
                    _ => hedge_total < primary_extent,
                };
                if hedge_wins {
                    chain.hedge_won = true;
                    outcome = hedge.outcome.clone();
                    effective = hedge_total;
                }
                if let Some((hub, _)) = invoker.metrics() {
                    let result = if hedge_wins { "won" } else { "lost" };
                    hub.counter_add("sebs_hedge_attempts_total", &[("result", result)], 1.0);
                }
                timeline.starts.push(cursor + threshold);
                chain.attempts.push(hedge);
            }

            if let Some(breaker) = self.breaker.as_mut() {
                if outcome.is_success() {
                    breaker.record_success();
                } else {
                    breaker.record_failure(invoker.now() + effective);
                }
                // Set before the advance below, which may sample it.
                if let Some((hub, name)) = invoker.metrics() {
                    hub.gauge_set(
                        "sebs_breaker_state",
                        &[("function", name)],
                        breaker.state().as_gauge() as f64,
                    );
                }
            }

            elapsed += effective;
            cursor += extent;
            let retryable = outcome.retryable();
            chain.outcome = outcome;
            let attempts_left = retries + 1 < self.policy.max_attempts;
            let budget_left = self
                .policy
                .retry_budget
                .is_none_or(|budget| self.retries_spent < budget);
            if !(retryable && attempts_left && budget_left) {
                break;
            }
            let wait = self.policy.backoff_for(retries, &mut self.rng_backoff);
            if self
                .policy
                .deadline
                .is_some_and(|deadline| elapsed + wait >= deadline)
            {
                break;
            }
            self.retries_spent += 1;
            retries += 1;
            chain.waits.push(wait);
            elapsed += wait;
            cursor += wait;
            // Sim time passes for the attempt and the wait, so pools,
            // outage windows and breaker cooldowns see it.
            invoker.advance(extent + wait);
        }
        chain.client_time = elapsed;
        timeline.extent = cursor;
        (chain, timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::InvocationBill;
    use crate::function::FunctionId;
    use crate::invocation::{FunctionErrorKind, StartKind};
    use sebs_sim::SimRng;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn crash() -> InvocationOutcome {
        InvocationOutcome::FunctionError {
            kind: FunctionErrorKind::SandboxCrash,
            message: String::new(),
        }
    }

    /// An invoker that replays a script of (outcome, extent) pairs and
    /// logs every launch and every advance.
    struct Scripted {
        now: SimTime,
        script: Vec<(InvocationOutcome, SimDuration)>,
        launched: Vec<(AttemptKind, SimTime)>,
        advances: Vec<SimDuration>,
    }

    impl Scripted {
        fn new(script: Vec<(InvocationOutcome, SimDuration)>) -> Scripted {
            Scripted {
                now: SimTime::ZERO,
                script: script.into_iter().rev().collect(),
                launched: Vec::new(),
                advances: Vec::new(),
            }
        }
    }

    impl Attempt for Scripted {
        fn now(&self) -> SimTime {
            self.now
        }

        fn advance(&mut self, d: SimDuration) {
            self.now += d;
            self.advances.push(d);
        }

        fn attempt(&mut self, kind: AttemptKind) -> (InvocationRecord, SimDuration) {
            self.launched.push((kind, self.now));
            let (outcome, extent) = self.script.pop().expect("script covers every attempt");
            let record = InvocationRecord {
                function: FunctionId(0),
                start: StartKind::Warm,
                outcome,
                submitted_at: self.now,
                benchmark_time: SimDuration::ZERO,
                provider_time: SimDuration::ZERO,
                client_time: extent,
                instructions: 0,
                io_time: SimDuration::ZERO,
                used_memory_mb: 0,
                configured_memory_mb: 0,
                payload_bytes: 0,
                response_bytes: 0,
                container: None,
                concurrency: 1,
                bill: InvocationBill::default(),
                t_send_client: 0.0,
                t_start_server: 0.0,
                t_recv_client: 0.0,
            };
            (record, extent)
        }
    }

    fn driver(policy: RetryPolicy) -> RetryDriver {
        RetryDriver::new(policy, SimRng::new(1).stream("retry-backoff"))
    }

    #[test]
    fn advances_by_extent_plus_wait_and_not_after_the_last_attempt() {
        let mut invoker = Scripted::new(vec![
            (crash(), ms(30)),
            (crash(), ms(40)),
            (crash(), ms(50)),
        ]);
        let (chain, timeline) = driver(RetryPolicy::backoff(3)).run(&mut invoker);
        assert_eq!(chain.billed_attempts(), 3);
        assert_eq!(chain.waits, vec![ms(100), ms(200)]);
        assert_eq!(invoker.advances, vec![ms(30 + 100), ms(40 + 200)]);
        assert_eq!(
            invoker.now,
            SimTime::ZERO + ms(370),
            "the last attempt leaves the clock"
        );
        assert_eq!(timeline.starts, vec![ms(0), ms(130), ms(370)]);
        assert_eq!(timeline.extent, ms(420));
        assert_eq!(chain.client_time, ms(420));
        let kinds: Vec<AttemptKind> = invoker.launched.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![AttemptKind::First, AttemptKind::Retry, AttemptKind::Retry]
        );
    }

    #[test]
    fn deadline_stops_the_chain_before_a_wait_that_would_reach_it() {
        // 50 ms attempts with 100/200/400 ms waits: after two attempts the
        // chain has used 200 ms, and the next wait would end at 400 ms.
        let run = |deadline_ms: u64| {
            let policy = RetryPolicy {
                deadline: Some(ms(deadline_ms)),
                ..RetryPolicy::backoff(5)
            };
            let mut invoker = Scripted::new(vec![(crash(), ms(50)); 5]);
            let (chain, _) = driver(policy).run(&mut invoker);
            (
                chain.billed_attempts(),
                chain.client_time,
                invoker.advances.len(),
            )
        };
        assert_eq!(
            run(400),
            (2, ms(200), 1),
            "a wait reaching the deadline is not taken"
        );
        assert_eq!(
            run(401),
            (3, ms(450), 2),
            "a millisecond of slack admits it"
        );
        assert_eq!(
            run(150),
            (1, ms(50), 0),
            "the first wait already reaches it"
        );
    }

    #[test]
    fn a_hedge_uses_up_no_retry_and_skips_no_backoff_step() {
        let policy = RetryPolicy {
            hedge_after_quantile: Some(0.5),
            ..RetryPolicy::backoff(3)
        };
        let mut d = driver(policy);
        // Eight fast successes teach the tracker a 10 ms threshold.
        for _ in 0..8 {
            let (chain, _) = d.run(&mut Scripted::new(vec![(
                InvocationOutcome::Success,
                ms(10),
            )]));
            assert!(!chain.hedged);
        }
        let mut invoker = Scripted::new(vec![
            (crash(), ms(60)), // first, past the threshold
            (crash(), ms(20)), // its hedge
            (crash(), ms(30)), // retry 1
            (crash(), ms(30)), // retry 2
        ]);
        let (chain, timeline) = d.run(&mut invoker);
        // Both attempts fail, so the hedge, answering first, wins.
        assert!(chain.hedged && chain.hedge_won);
        assert_eq!(chain.billed_attempts(), 4, "3 attempts plus the hedge");
        assert_eq!(chain.waits, vec![ms(100), ms(200)]);
        let (kind, at) = invoker.launched[1];
        assert_eq!(kind, AttemptKind::Hedge);
        assert_eq!(
            at,
            SimTime::ZERO,
            "the hedge is dispatched with the first attempt"
        );
        // The hedge races at the threshold offset; the pair spans 60 ms.
        assert_eq!(timeline.starts, vec![ms(0), ms(10), ms(160), ms(390)]);
        assert_eq!(invoker.advances, vec![ms(60 + 100), ms(30 + 200)]);
    }
}
