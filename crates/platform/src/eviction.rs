//! Container eviction policies (paper §6.5).
//!
//! The Eviction-Model experiment found AWS evicts **half of the existing
//! containers every 380 seconds**, independent of memory size, execution
//! time and language — [`EvictionPolicy::HalfLife`] reproduces exactly
//! that. Azure and GCP did not yield a clean model (concurrent probes
//! failed on Azure); they are modelled with jittered idle timeouts.

use sebs_sim::rng::StreamRng;
use sebs_sim::{Dist, SimDuration, SimTime};

use crate::container::Container;

/// When and which containers are evicted.
#[derive(Debug, Clone, PartialEq)]
pub enum EvictionPolicy {
    /// Every `period`, half of the currently warm containers are evicted
    /// (AWS: period = 380 s). Eviction happens at global period boundaries
    /// measured from each container's last use... more precisely, the
    /// paper's model is per-batch: a batch of `D` warm containers decays to
    /// `D · 2^−⌊ΔT/period⌋`.
    HalfLife {
        /// The halving period (380 s on AWS).
        period: SimDuration,
    },
    /// A container is evicted after sitting idle for `timeout + jitter`.
    IdleTimeout {
        /// Base idle timeout.
        timeout: SimDuration,
        /// Additional per-container jitter (ms).
        jitter_ms: Dist,
    },
    /// Containers are never evicted (an idealized baseline for ablations).
    Never,
}

impl EvictionPolicy {
    /// Filters a pool's idle containers in place, retaining the survivors
    /// at `now` in their current order.
    ///
    /// For [`EvictionPolicy::HalfLife`], a container with pool slot `s`
    /// survives `p = ⌊idle/period⌋` halvings iff `s mod 2^p == 0` — a
    /// deterministic realization of "half are evicted every period" that
    /// is agnostic to memory, runtime and language, as the paper measured.
    /// Keying on the stable slot (not the current vector index) makes
    /// repeated application idempotent: filtering at `p₂ ≥ p₁` after `p₁`
    /// selects exactly the `p₂` survivors of the original batch.
    /// [`EvictionPolicy::IdleTimeout`] draws one jitter per container, in
    /// order.
    pub fn retain_survivors(
        &self,
        containers: &mut Vec<Container>,
        now: SimTime,
        rng: &mut StreamRng,
    ) {
        match self {
            EvictionPolicy::HalfLife { .. } => containers.retain(|c| self.would_survive(c, now)),
            EvictionPolicy::IdleTimeout { timeout, jitter_ms } => containers.retain(|c| {
                let jitter = jitter_ms.sample_millis(rng);
                c.idle_for(now) < timeout.saturating_add(jitter)
            }),
            EvictionPolicy::Never => {}
        }
    }

    /// RNG-free survival check for a single idle container at `now`, used
    /// by read-only telemetry observation.
    ///
    /// For [`EvictionPolicy::HalfLife`] this is *exactly* the eviction
    /// rule (which is deterministic). For [`EvictionPolicy::IdleTimeout`]
    /// the per-container jitter cannot be consulted without advancing an
    /// RNG stream, so the check uses the jitter-free base timeout — a
    /// documented approximation that errs toward "evicted" by at most the
    /// jitter width. [`EvictionPolicy::Never`] always survives.
    pub fn would_survive(&self, c: &Container, now: SimTime) -> bool {
        match self {
            EvictionPolicy::HalfLife { period } => {
                let period_ns = period.as_nanos().max(1);
                let p = (c.idle_for(now).as_nanos() / period_ns).min(63);
                c.slot % (1u64 << p) == 0
            }
            EvictionPolicy::IdleTimeout { timeout, .. } => c.idle_for(now) < *timeout,
            EvictionPolicy::Never => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerId;
    use sebs_sim::SimRng;

    fn batch(n: u64, at: SimTime) -> Vec<Container> {
        (0..n)
            .map(|i| Container::new(ContainerId(i), i, at))
            .collect()
    }

    fn rng() -> StreamRng {
        SimRng::new(1).stream("evict")
    }

    fn survivors(
        policy: &EvictionPolicy,
        mut containers: Vec<Container>,
        now: SimTime,
        rng: &mut StreamRng,
    ) -> Vec<Container> {
        policy.retain_survivors(&mut containers, now, rng);
        containers
    }

    #[test]
    fn half_life_halves_each_period() {
        let policy = EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        };
        let t0 = SimTime::ZERO;
        for (dt, expect) in [
            (0u64, 16usize),
            (379, 16),
            (380, 8),
            (760, 4),
            (1140, 2),
            (1520, 1),
        ] {
            let survivors = survivors(
                &policy,
                batch(16, t0),
                t0 + SimDuration::from_secs(dt),
                &mut rng(),
            );
            assert_eq!(survivors.len(), expect, "ΔT = {dt}s");
        }
    }

    #[test]
    fn half_life_matches_equation_one_for_any_batch() {
        let policy = EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        };
        let t0 = SimTime::ZERO;
        for d_init in [1u64, 2, 3, 5, 8, 20] {
            for k in 0..4u64 {
                let dt = SimDuration::from_secs(380 * k + 10);
                let got = survivors(&policy, batch(d_init, t0), t0 + dt, &mut rng()).len();
                let expected = (d_init as f64 * 0.5f64.powi(k as i32)).ceil() as usize;
                assert_eq!(got, expected, "D={d_init} k={k}");
            }
        }
    }

    #[test]
    fn half_life_agnostic_to_usage() {
        // Only idle time matters; invocation counts are irrelevant.
        let policy = EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        };
        let t0 = SimTime::ZERO;
        let mut cs = batch(8, t0);
        for c in &mut cs {
            c.invocations = 1000;
        }
        let n = survivors(&policy, cs, t0 + SimDuration::from_secs(400), &mut rng()).len();
        assert_eq!(n, 4);
    }

    #[test]
    fn half_life_repeated_application_is_consistent() {
        // Advancing in two steps must equal advancing once: slots make the
        // filter idempotent across renumbering.
        let policy = EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        };
        let t0 = SimTime::ZERO;
        let step1 = survivors(
            &policy,
            batch(16, t0),
            t0 + SimDuration::from_secs(400),
            &mut rng(),
        );
        assert_eq!(step1.len(), 8);
        let step2 = survivors(&policy, step1, t0 + SimDuration::from_secs(800), &mut rng());
        let direct = survivors(
            &policy,
            batch(16, t0),
            t0 + SimDuration::from_secs(800),
            &mut rng(),
        );
        assert_eq!(step2.len(), direct.len());
        assert_eq!(step2.len(), 4);
    }

    #[test]
    fn idle_timeout_evicts_old_keeps_recent() {
        let policy = EvictionPolicy::IdleTimeout {
            timeout: SimDuration::from_secs(100),
            jitter_ms: Dist::Constant(0.0),
        };
        let mut cs = batch(2, SimTime::ZERO);
        cs[1].last_used_at = SimTime::from_secs(90);
        let survivors = survivors(&policy, cs, SimTime::from_secs(120), &mut rng());
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].id, ContainerId(1));
    }

    #[test]
    fn idle_timeout_jitter_is_stochastic() {
        let policy = EvictionPolicy::IdleTimeout {
            timeout: SimDuration::from_secs(100),
            jitter_ms: Dist::Uniform {
                lo: 0.0,
                hi: 100_000.0,
            },
        };
        // At idle = 150 s, survival depends on the per-container jitter:
        // over many containers some survive, some do not.
        let survivors = survivors(
            &policy,
            batch(200, SimTime::ZERO),
            SimTime::from_secs(150),
            &mut rng(),
        );
        assert!(!survivors.is_empty() && survivors.len() < 200);
    }

    #[test]
    fn would_survive_matches_half_life_survivors_exactly() {
        let policy = EvictionPolicy::HalfLife {
            period: SimDuration::from_secs(380),
        };
        let t0 = SimTime::ZERO;
        for dt in [0u64, 379, 380, 760, 1140, 1520] {
            let now = t0 + SimDuration::from_secs(dt);
            let via_survivors: Vec<u64> = survivors(&policy, batch(16, t0), now, &mut rng())
                .iter()
                .map(|c| c.slot)
                .collect();
            let via_observation: Vec<u64> = batch(16, t0)
                .iter()
                .filter(|c| policy.would_survive(c, now))
                .map(|c| c.slot)
                .collect();
            assert_eq!(via_survivors, via_observation, "ΔT = {dt}s");
        }
    }

    #[test]
    fn would_survive_is_jitter_free_for_idle_timeout() {
        let policy = EvictionPolicy::IdleTimeout {
            timeout: SimDuration::from_secs(100),
            jitter_ms: Dist::Uniform {
                lo: 0.0,
                hi: 100_000.0,
            },
        };
        let c = &batch(1, SimTime::ZERO)[0];
        assert!(policy.would_survive(c, SimTime::from_secs(99)));
        assert!(
            !policy.would_survive(c, SimTime::from_secs(100)),
            "base timeout, no jitter consulted"
        );
        assert!(EvictionPolicy::Never.would_survive(c, SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn never_keeps_everything() {
        let survivors = survivors(
            &EvictionPolicy::Never,
            batch(10, SimTime::ZERO),
            SimTime::from_secs(1_000_000),
            &mut rng(),
        );
        assert_eq!(survivors.len(), 10);
    }
}
