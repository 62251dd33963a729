//! Keep-alive policies: how long idle containers survive, and when to
//! pre-warm one ahead of a predicted arrival.

use sebs_platform::EvictionPolicy;
use sebs_sim::{Dist, SimDuration, SimTime};

fn idle_timeout(timeout: SimDuration) -> EvictionPolicy {
    EvictionPolicy::IdleTimeout {
        timeout,
        jitter_ms: Dist::Constant(0.0),
    }
}

/// Samples needed before the hybrid controller trusts its histogram.
pub const HYBRID_MIN_SAMPLES: usize = 8;

/// Idle-gap samples kept per function (a ring of the most recent gaps).
const HYBRID_WINDOW: usize = 256;

/// Gap regime boundary: a 5th-percentile idle gap beyond this means the
/// function sits idle for long stretches and keeping containers warm the
/// whole time is wasted memory — switch to prewarming instead.
const LONG_GAP_MS: u64 = 120_000;

/// Floor/ceiling on the keep-alive the controller will apply.
const CLAMP_LO_MS: u64 = 60_000;
const CLAMP_HI_MS: u64 = 7_200_000;

#[derive(Debug, Clone, Default)]
struct FnHistory {
    last_arrival: Option<SimTime>,
    /// Ring buffer of recent idle gaps in arrival order, milliseconds.
    gaps_ms: Vec<u64>,
    next_slot: usize,
    /// The same gaps kept ascending: each new gap replaces the one it
    /// pushes out of the ring with one removal and one insertion, so the
    /// percentiles are read off without sorting.
    sorted_ms: Vec<u64>,
    /// The keep-alive currently installed on the pools, ms (0 = none yet).
    applied_ms: u64,
}

impl FnHistory {
    fn record_gap(&mut self, gap_ms: u64) {
        if self.gaps_ms.len() < HYBRID_WINDOW {
            self.gaps_ms.push(gap_ms);
        } else {
            let evicted = std::mem::replace(&mut self.gaps_ms[self.next_slot], gap_ms);
            self.next_slot = (self.next_slot + 1) % HYBRID_WINDOW;
            // Equal gaps are interchangeable, so any copy may go.
            let at = self.sorted_ms.partition_point(|&g| g < evicted);
            self.sorted_ms.remove(at);
        }
        let at = self.sorted_ms.partition_point(|&g| g < gap_ms);
        self.sorted_ms.insert(at, gap_ms);
    }

    fn ready(&self) -> bool {
        self.gaps_ms.len() >= HYBRID_MIN_SAMPLES
    }

    /// Nearest-rank 5th-percentile gap of the window, ms.
    fn p5_ms(&self) -> u64 {
        nearest_rank(&self.sorted_ms, 0.05)
    }

    /// Nearest-rank 99th-percentile gap of the window, ms.
    fn p99_ms(&self) -> u64 {
        nearest_rank(&self.sorted_ms, 0.99)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A Serverless-in-the-Wild style hybrid-histogram controller: each
/// function's idle-gap distribution drives its keep-alive and prewarm.
/// The cluster keeps one for the `hybrid` keep-alive and consults it once
/// per *logical* request (retried attempts of the same request are not
/// new arrivals): [`wants_prewarm`] first — using only history from
/// previous arrivals — then [`observe_arrival`], which records the
/// arrival and may retune the function's pool eviction policy on every
/// host.
///
/// - **Short-gap regime** (p5 ≤ 2 min): arrivals come fast enough that
///   keeping a container resident pays — keep-alive is set to the p99
///   idle gap (clamped to [1 min, 2 h]) so ~99% of arrivals land warm.
/// - **Long-gap regime** (p5 > 2 min): holding memory across the gaps is
///   waste — keep-alive drops to the 1-minute floor and the controller
///   pre-warms instead when the current gap falls inside the predicted
///   window `[0.85·p5, 1.15·p99]`.
///
/// The prewarm is applied lazily at dispatch time on the scheduled host
/// (the arrival lands warm, paying a prewarmed-cold init off the request
/// path); occupancy sampled between the notional prewarm instant and the
/// arrival therefore under-reports the prewarmed container's memory — a
/// documented approximation that biases the Pareto frontier slightly in
/// the policy's favour.
///
/// [`wants_prewarm`]: HybridHistogram::wants_prewarm
/// [`observe_arrival`]: HybridHistogram::observe_arrival
#[derive(Debug, Clone, Default)]
pub(crate) struct HybridHistogram {
    fns: Vec<FnHistory>,
}

impl HybridHistogram {
    fn history_mut(&mut self, function: u32) -> &mut FnHistory {
        let idx = function as usize;
        if self.fns.len() <= idx {
            self.fns.resize_with(idx + 1, FnHistory::default);
        }
        &mut self.fns[idx]
    }

    /// Records an arrival of `function` at `now`; returns a new eviction
    /// policy when the controller retunes this function's keep-alive.
    pub(crate) fn observe_arrival(
        &mut self,
        function: u32,
        now: SimTime,
    ) -> Option<EvictionPolicy> {
        let h = self.history_mut(function);
        if let Some(last) = h.last_arrival {
            let gap = now - last;
            h.record_gap((gap.as_secs_f64() * 1e3).round() as u64);
        }
        h.last_arrival = Some(now);
        if !h.ready() {
            return None;
        }
        let target_ms = if h.p5_ms() <= LONG_GAP_MS {
            h.p99_ms().clamp(CLAMP_LO_MS, CLAMP_HI_MS)
        } else {
            CLAMP_LO_MS
        };
        if target_ms == h.applied_ms {
            return None;
        }
        h.applied_ms = target_ms;
        Some(idle_timeout(SimDuration::from_millis(target_ms)))
    }

    /// Whether a sandbox should be pre-warmed for this arrival (the
    /// cluster pre-warms on the chosen host just before dispatch, so the
    /// arrival lands warm — modelling a prewarm that fired earlier).
    pub(crate) fn wants_prewarm(&self, function: u32, now: SimTime) -> bool {
        let Some(h) = self.fns.get(function as usize) else {
            return false;
        };
        if !h.ready() || h.p5_ms() <= LONG_GAP_MS {
            return false;
        }
        let Some(last) = h.last_arrival else {
            return false;
        };
        let gap_ms = ((now - last).as_secs_f64() * 1e3).round() as u64;
        gap_ms >= h.p5_ms() / 100 * 85 && gap_ms <= h.p99_ms() / 100 * 115
    }
}

/// A container-retention policy for the whole cluster — the second sweep
/// axis of the cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAliveKind {
    /// The provider's own eviction model, untouched: deploys make no
    /// pool-policy calls and nothing is ever retuned or pre-warmed.
    Provider,
    /// A fixed, jitter-free idle timeout for every function, in seconds
    /// (the classic 10-minute keep-alive is `Fixed(600)`).
    Fixed(u64),
    /// The hybrid-histogram controller: per-function idle-gap histograms
    /// drive each function's keep-alive and prewarms.
    Hybrid,
}

impl KeepAliveKind {
    /// Parses a label: `provider`, `fixed-<secs>` or `hybrid`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<KeepAliveKind, String> {
        let s = s.trim();
        if s == "provider" {
            return Ok(KeepAliveKind::Provider);
        }
        if s == "hybrid" {
            return Ok(KeepAliveKind::Hybrid);
        }
        if let Some(secs) = s.strip_prefix("fixed-") {
            let secs = secs.strip_suffix('s').unwrap_or(secs);
            let secs: u64 = secs
                .parse()
                .map_err(|e| format!("bad fixed keep-alive seconds `{secs}`: {e}"))?;
            if secs == 0 {
                return Err("fixed keep-alive must be >= 1 s".to_string());
            }
            if SimDuration::checked_from_secs(secs).is_none() {
                return Err(format!(
                    "fixed keep-alive {secs} s does not fit the simulator clock (at most {} s)",
                    u64::MAX / 1_000_000_000
                ));
            }
            return Ok(KeepAliveKind::Fixed(secs));
        }
        Err(format!(
            "unknown keep-alive `{s}` (valid: provider, fixed-<secs>, hybrid)"
        ))
    }

    /// The stable label (round-trips through [`KeepAliveKind::parse`]).
    pub fn label(&self) -> String {
        match self {
            KeepAliveKind::Provider => "provider".to_string(),
            KeepAliveKind::Fixed(secs) => format!("fixed-{secs}s"),
            KeepAliveKind::Hybrid => "hybrid".to_string(),
        }
    }

    /// The pool eviction policy to install for a newly deployed function,
    /// or `None` to keep the provider's own model (the baseline: no
    /// pool-policy calls at all, bit-identical to the single box).
    pub(crate) fn initial_policy(&self) -> Option<EvictionPolicy> {
        match *self {
            KeepAliveKind::Provider => None,
            KeepAliveKind::Fixed(secs) => Some(idle_timeout(SimDuration::from_secs(secs))),
            // Until the histogram fills, run a generous fixed keep-alive.
            KeepAliveKind::Hybrid => Some(idle_timeout(SimDuration::from_millis(600_000))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, ClusterPlatform, ClusterStats};
    use sebs_platform::{FunctionConfig, ProviderKind, StartKind};
    use sebs_workloads::templating::DynamicHtml;
    use sebs_workloads::{Language, Scale};

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn initial_policy_keeps_the_provider_model_or_installs_a_timeout() {
        assert!(KeepAliveKind::Provider.initial_policy().is_none());
        for (kind, secs) in [
            (KeepAliveKind::Fixed(300), 300),
            (KeepAliveKind::Hybrid, 600),
        ] {
            assert!(
                matches!(
                    kind.initial_policy(),
                    Some(EvictionPolicy::IdleTimeout { timeout, jitter_ms: Dist::Constant(j) })
                        if timeout == SimDuration::from_secs(secs) && j == 0.0
                ),
                "{kind:?}"
            );
        }
    }

    /// Invokes one function on a one-host cluster under `kind`, with
    /// `arrivals` arrivals `gap_secs` apart; returns the start kind of
    /// each arrival and the cluster's counters.
    fn replay_gaps(
        kind: KeepAliveKind,
        arrivals: usize,
        gap_secs: u64,
    ) -> (Vec<StartKind>, ClusterStats) {
        let config = ClusterConfig::new(ProviderKind::Aws)
            .with_hosts(1)
            .with_keepalive(kind);
        let mut cluster = ClusterPlatform::new(config, 7);
        let wl = DynamicHtml::new(Language::Python);
        let id = cluster
            .deploy(FunctionConfig::new("gaps", Language::Python, 256))
            .expect("deploys");
        let payload = cluster.prepare(&wl, Scale::Test);
        let starts = (0..arrivals)
            .map(|_| {
                let start = cluster.invoke(id, &wl, &payload).start;
                cluster.advance(SimDuration::from_secs(gap_secs));
                start
            })
            .collect();
        (starts, cluster.stats())
    }

    #[test]
    fn baseline_is_inert() {
        assert!(KeepAliveKind::Provider.initial_policy().is_none());
        // Gaps of 1000 s are the hybrid controller's long-gap regime: the
        // same arrivals make it retune and prewarm.
        let (_, hybrid) = replay_gaps(KeepAliveKind::Hybrid, 16, 1000);
        assert!(hybrid.retunes > 0 && hybrid.prewarms > 0, "{hybrid:?}");
        let (_, stats) = replay_gaps(KeepAliveKind::Provider, 16, 1000);
        assert_eq!((stats.retunes, stats.prewarms), (0, 0));
    }

    #[test]
    fn fixed_installs_once_and_never_retunes() {
        let kind = KeepAliveKind::Fixed(600);
        assert_eq!(kind.label(), "fixed-600s");
        assert!(matches!(
            kind.initial_policy(),
            Some(EvictionPolicy::IdleTimeout { timeout, .. })
                if timeout == SimDuration::from_secs(600)
        ));
        // Gaps of 500 s would retune the hybrid controller down to its
        // 60 s floor; the 600 s timeout installed at deploy keeps every
        // later arrival warm.
        let (starts, stats) = replay_gaps(kind, 16, 500);
        assert_eq!((stats.retunes, stats.prewarms), (0, 0));
        assert_eq!(starts[0], StartKind::Cold);
        assert!(
            starts[1..].iter().all(|&s| s == StartKind::Warm),
            "{starts:?}"
        );
        // Past the timeout every arrival boots a new container.
        let (starts, _) = replay_gaps(kind, 4, 1000);
        assert!(starts.iter().all(|&s| s == StartKind::Cold), "{starts:?}");
    }

    #[test]
    fn hybrid_short_gaps_track_p99() {
        let mut p = HybridHistogram::default();
        // 20 arrivals, 30 s apart: p99 gap = 30 s, clamped up to 60 s.
        let mut tuned = None;
        for i in 0..20u64 {
            if let Some(policy) = p.observe_arrival(0, at(30 * i)) {
                tuned = Some(policy);
            }
        }
        match tuned {
            Some(EvictionPolicy::IdleTimeout { timeout, .. }) => {
                assert_eq!(timeout, SimDuration::from_secs(60), "clamped to the floor");
            }
            other => panic!("expected a retune, got {other:?}"),
        }
        assert!(
            !p.wants_prewarm(0, at(650)),
            "short-gap regime never prewarms"
        );
    }

    #[test]
    fn hybrid_long_gaps_switch_to_prewarm() {
        let mut p = HybridHistogram::default();
        // Gaps of 1000 s: p5 > 2 min → long-gap regime.
        let mut last_retune = None;
        for i in 0..12u64 {
            if let Some(policy) = p.observe_arrival(0, at(1000 * i)) {
                last_retune = Some(policy);
            }
        }
        match last_retune {
            Some(EvictionPolicy::IdleTimeout { timeout, .. }) => {
                assert_eq!(
                    timeout,
                    SimDuration::from_secs(60),
                    "long-gap regime drops keep-alive to the floor"
                );
            }
            other => panic!("expected a retune, got {other:?}"),
        }
        // Inside the predicted window the next arrival is prewarmed…
        assert!(p.wants_prewarm(0, at(11_000 + 1000)));
        // …but a nearly-immediate retry-scale gap is not.
        assert!(!p.wants_prewarm(0, at(11_000 + 10)));
        // …and far beyond p99 the prediction has expired.
        assert!(!p.wants_prewarm(0, at(11_000 + 100_000)));
    }

    #[test]
    fn hybrid_retunes_only_on_change() {
        let mut p = HybridHistogram::default();
        let mut retunes = 0;
        for i in 0..64u64 {
            if p.observe_arrival(0, at(30 * i)).is_some() {
                retunes += 1;
            }
        }
        assert_eq!(retunes, 1, "a stable histogram retunes once");
    }

    /// The controller as it was before the window was kept sorted: the
    /// ring is cloned and sorted after every gap.
    #[derive(Default)]
    struct SortEveryGap {
        last: Option<SimTime>,
        ring: Vec<u64>,
        next: usize,
        p5_ms: u64,
        p99_ms: u64,
        applied_ms: u64,
    }

    impl SortEveryGap {
        /// Records an arrival; returns the retuned keep-alive, ms.
        fn observe(&mut self, now: SimTime) -> Option<u64> {
            if let Some(last) = self.last {
                let gap = ((now - last).as_secs_f64() * 1e3).round() as u64;
                if self.ring.len() < HYBRID_WINDOW {
                    self.ring.push(gap);
                } else {
                    self.ring[self.next] = gap;
                    self.next = (self.next + 1) % HYBRID_WINDOW;
                }
                let mut sorted = self.ring.clone();
                sorted.sort_unstable();
                self.p5_ms = nearest_rank(&sorted, 0.05);
                self.p99_ms = nearest_rank(&sorted, 0.99);
            }
            self.last = Some(now);
            if self.ring.len() < HYBRID_MIN_SAMPLES {
                return None;
            }
            let target = if self.p5_ms <= LONG_GAP_MS {
                self.p99_ms.clamp(CLAMP_LO_MS, CLAMP_HI_MS)
            } else {
                CLAMP_LO_MS
            };
            (target != self.applied_ms).then(|| {
                self.applied_ms = target;
                target
            })
        }
    }

    #[test]
    fn sorted_window_matches_sorting_after_every_gap() {
        use sebs_sim::rng::Rng;
        // 600 gaps wrap the 256-gap ring twice. Gaps repeat (a few values,
        // drawn with replacement) and the regime moves from short gaps to
        // long ones and back, so both percentiles and the retune target
        // change many times.
        let menus: [&[u64]; 3] = [
            &[1_000, 5_000, 5_000, 30_000, 30_000, 90_000],
            &[150_000, 200_000, 200_000, 400_000, 1_000_000],
            &[5_000, 30_000, 90_000, 200_000, 1_000_000, 3_000_000],
        ];
        let mut draws = sebs_sim::SimRng::new(4).stream("gaps");
        let mut p = HybridHistogram::default();
        let mut reference = SortEveryGap::default();
        let mut now = at(0);
        let mut retunes = 0;
        for i in 0..=600 {
            if i > 0 {
                let menu = menus[(i - 1) / 200];
                now += SimDuration::from_millis(menu[draws.gen_range(0..menu.len())]);
            }
            let tuned = p.observe_arrival(0, now).map(|policy| match policy {
                EvictionPolicy::IdleTimeout { timeout, .. } => timeout.as_millis(),
                other => panic!("hybrid retunes to idle timeouts, got {other:?}"),
            });
            assert_eq!(tuned, reference.observe(now), "arrival {i}");
            let h = &p.fns[0];
            assert_eq!((h.p5_ms(), h.p99_ms()), (reference.p5_ms, reference.p99_ms));
            retunes += usize::from(tuned.is_some());
        }
        assert_eq!(p.fns[0].sorted_ms.len(), HYBRID_WINDOW);
        assert!(
            retunes >= 4,
            "the decisions were exercised: {retunes} retunes"
        );
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for label in ["provider", "fixed-600s", "hybrid"] {
            let kind = KeepAliveKind::parse(label).unwrap();
            assert_eq!(kind.label(), label);
        }
        assert_eq!(
            KeepAliveKind::parse("fixed-300").unwrap(),
            KeepAliveKind::Fixed(300)
        );
        assert!(KeepAliveKind::parse("fixed-0").is_err());
        let err = KeepAliveKind::parse("frobnicate").unwrap_err();
        assert!(err.contains("provider"), "{err}");
    }

    #[test]
    fn fixed_timeouts_past_the_simulator_clock_are_rejected() {
        let max = u64::MAX / 1_000_000_000;
        let kind = KeepAliveKind::parse(&format!("fixed-{max}")).unwrap();
        assert_eq!(kind, KeepAliveKind::Fixed(max));
        assert!(
            kind.initial_policy().is_some(),
            "the timeout fits the clock"
        );
        let err = KeepAliveKind::parse(&format!("fixed-{}", max + 1)).unwrap_err();
        assert!(
            err.contains("fixed keep-alive") && err.contains("does not fit"),
            "{err}"
        );
    }
}
