//! One machine in the region: a wrapped single-box platform plus the
//! capacity bookkeeping the cluster schedules against.

use sebs_platform::{FaasPlatform, FunctionId, PoolObservation, ProviderProfile};
use sebs_sim::{SimDuration, SimTime};

/// A host's telemetry counters, snapshotted for exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Host index in the cluster.
    pub id: u32,
    /// Invocations dispatched to (and completed on) this host.
    pub served: u64,
    /// Cold starts among them.
    pub cold_starts: u64,
    /// Warm hits among them.
    pub warm_hits: u64,
    /// Times this host crashed.
    pub crashes: u64,
    /// Invocations the host lost mid-flight to a crash.
    pub crash_failures: u64,
}

/// One machine: a single-box [`FaasPlatform`] under per-host CPU
/// capacity, a bounded admission queue, and a crash/recovery state.
pub struct Host {
    pub(crate) platform: FaasPlatform,
    id: u32,
    cpus: u32,
    queue_depth: u32,
    /// Down (crashed, not yet recovered) until this instant, exclusive.
    down_until: Option<SimTime>,
    /// Completion times (cluster clock) of admitted invocations, kept
    /// sorted ascending so pruning drains a prefix and the queue wait
    /// reads one entry.
    inflight: Vec<SimTime>,
    served: u64,
    cold_starts: u64,
    warm_hits: u64,
    crashes: u64,
    crash_failures: u64,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("inflight", &self.inflight.len())
            .field("down_until", &self.down_until)
            .finish()
    }
}

impl Host {
    /// Boots a host. Every host shares the cluster seed: hosts are
    /// statistically identical machines whose RNG streams diverge with
    /// their own invocation history.
    pub(crate) fn new(
        id: u32,
        profile: ProviderProfile,
        seed: u64,
        cpus: u32,
        queue_depth: u32,
    ) -> Host {
        Host {
            platform: FaasPlatform::new(profile, seed),
            id,
            cpus: cpus.max(1),
            queue_depth,
            down_until: None,
            inflight: Vec::new(),
            served: 0,
            cold_starts: 0,
            warm_hits: 0,
            crashes: 0,
            crash_failures: 0,
        }
    }

    /// Host index in the cluster.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// CPU slots.
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Whether the host is serving at `now` (not inside a crash window).
    pub fn is_up(&self, now: SimTime) -> bool {
        match self.down_until {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Admitted invocations still in flight at `now` (after pruning
    /// completed ones).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Invocations actually holding a CPU at `now`.
    pub fn running(&self) -> usize {
        self.inflight.len().min(self.cpus as usize)
    }

    /// Whether another invocation can be admitted. The slot count is
    /// summed in `u64`: `cpus + queue_depth` can exceed `u32::MAX`.
    pub fn has_capacity(&self) -> bool {
        (self.inflight.len() as u64) < u64::from(self.cpus) + u64::from(self.queue_depth)
    }

    /// Drops inflight entries that completed at or before `now`.
    pub(crate) fn prune_inflight(&mut self, now: SimTime) {
        let done = self.inflight.partition_point(|end| *end <= now);
        self.inflight.drain(..done);
    }

    /// How long a request admitted at `now` waits for a CPU: zero with a
    /// free slot, else until the k-th earliest completion frees one.
    pub fn queue_wait(&self, now: SimTime) -> SimDuration {
        let m = self.inflight.len();
        let cpus = self.cpus as usize;
        if m < cpus {
            return SimDuration::ZERO;
        }
        let free_at = self.inflight[m - cpus];
        if free_at > now {
            free_at - now
        } else {
            SimDuration::ZERO
        }
    }

    /// Records an admitted invocation completing at `end`.
    pub(crate) fn push_inflight(&mut self, end: SimTime) {
        let at = self.inflight.partition_point(|e| *e <= end);
        self.inflight.insert(at, end);
    }

    /// Applies a crash at `at`, recovering at `until`: the warm pool is
    /// evicted wholesale and queued work is dropped (each in-flight
    /// invocation is failed individually at dispatch time by the
    /// cluster's crash-interrupt check).
    pub(crate) fn crash(&mut self, until: SimTime) {
        self.crashes += 1;
        self.down_until = Some(match self.down_until {
            Some(existing) => existing.max(until),
            None => until,
        });
        self.platform.evict_all_containers();
        self.inflight.clear();
    }

    pub(crate) fn count_served(&mut self, cold: bool) {
        self.served += 1;
        if cold {
            self.cold_starts += 1;
        } else {
            self.warm_hits += 1;
        }
    }

    pub(crate) fn count_crash_failure(&mut self) {
        self.crash_failures += 1;
    }

    /// Read-only pool occupancy for one function at the host's current
    /// time (RNG-free).
    pub fn observe_pool(&self, id: FunctionId) -> PoolObservation {
        self.platform.observe_pool(id)
    }

    /// The wrapped single-box platform.
    pub fn platform(&self) -> &FaasPlatform {
        &self.platform
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> HostStats {
        HostStats {
            id: self.id,
            served: self.served,
            cold_starts: self.cold_starts,
            warm_hits: self.warm_hits,
            crashes: self.crashes,
            crash_failures: self.crash_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn host() -> Host {
        Host::new(0, ProviderProfile::aws(), 7, 2, 3)
    }

    #[test]
    fn queue_wait_and_capacity() {
        let mut h = host();
        assert_eq!(h.queue_wait(at(0)), SimDuration::ZERO);
        h.push_inflight(at(10));
        assert_eq!(h.queue_wait(at(0)), SimDuration::ZERO, "one free CPU left");
        h.push_inflight(at(20));
        assert_eq!(
            h.queue_wait(at(0)),
            SimDuration::from_secs(10),
            "both CPUs busy: wait for the earliest completion"
        );
        h.push_inflight(at(5));
        assert_eq!(
            h.queue_wait(at(0)),
            SimDuration::from_secs(10),
            "one request already queued: a new arrival waits for the second completion"
        );
        assert_eq!(h.running(), 2);
        assert!(h.has_capacity(), "3 in flight, capacity 2 + 3");
        h.push_inflight(at(30));
        h.push_inflight(at(40));
        assert!(!h.has_capacity(), "queue full");
        h.prune_inflight(at(25));
        assert_eq!(h.inflight(), 2);
        assert!(h.has_capacity());
    }

    /// The in-flight bookkeeping as it was before the list was kept
    /// sorted: pushes append, pruning filters, and the queue wait clones
    /// and sorts the list.
    struct CloneAndSort {
        cpus: usize,
        inflight: Vec<SimTime>,
    }

    impl CloneAndSort {
        fn queue_wait(&self, now: SimTime) -> SimDuration {
            let m = self.inflight.len();
            if m < self.cpus {
                return SimDuration::ZERO;
            }
            let mut ends = self.inflight.clone();
            ends.sort_unstable();
            let free_at = ends[m - self.cpus];
            if free_at > now {
                free_at - now
            } else {
                SimDuration::ZERO
            }
        }
    }

    #[test]
    fn sorted_inflight_matches_sorting_on_every_wait() {
        use sebs_sim::rng::Rng;
        let mut draws = sebs_sim::SimRng::new(9).stream("inflight");
        for cpus in [1, 2, 3, 4, 8] {
            let mut h = Host::new(0, ProviderProfile::aws(), 7, cpus, 16);
            let mut reference = CloneAndSort {
                cpus: cpus as usize,
                inflight: Vec::new(),
            };
            let mut now = at(0);
            for step in 0..2_000 {
                // Completion times repeat (whole seconds over a short
                // range), so equal entries are inserted and pruned too.
                match draws.gen_range(0..8) {
                    0..=3 => {
                        let end = now + SimDuration::from_secs(draws.gen_range(0..20));
                        h.push_inflight(end);
                        reference.inflight.push(end);
                    }
                    4..=5 => {
                        now += SimDuration::from_secs(draws.gen_range(0..4));
                        h.prune_inflight(now);
                        reference.inflight.retain(|end| *end > now);
                    }
                    6 => {
                        let probe = now + SimDuration::from_secs(draws.gen_range(0..6));
                        assert_eq!(
                            h.queue_wait(probe),
                            reference.queue_wait(probe),
                            "cpus {cpus}, step {step}"
                        );
                    }
                    _ => {}
                }
                assert_eq!(h.inflight(), reference.inflight.len(), "step {step}");
                assert_eq!(h.queue_wait(now), reference.queue_wait(now), "step {step}");
            }
        }
    }

    #[test]
    fn capacity_holds_when_cpus_plus_queue_passes_u32_max() {
        // 4 + (2^32 - 4) is exactly 2^32: summed in u32 it wraps to 0 and
        // every arrival would be shed.
        let mut h = Host::new(0, ProviderProfile::aws(), 7, 4, u32::MAX - 3);
        assert!(h.has_capacity());
        h.push_inflight(at(10));
        assert!(h.has_capacity());
        let h = Host::new(0, ProviderProfile::aws(), 7, u32::MAX, u32::MAX);
        assert!(h.has_capacity());
    }

    #[test]
    fn crash_takes_host_down_until_recovery() {
        let mut h = host();
        h.push_inflight(at(50));
        assert!(h.is_up(at(0)));
        h.crash(at(30));
        assert!(!h.is_up(at(10)));
        assert!(h.is_up(at(30)), "recovery boundary is inclusive");
        assert_eq!(h.inflight(), 0, "queued work is dropped");
        assert_eq!(h.stats().crashes, 1);
        // A second, longer crash extends the outage.
        h.crash(at(90));
        h.crash(at(60));
        assert!(!h.is_up(at(70)), "down_until never shrinks");
        assert!(h.is_up(at(90)));
    }
}
