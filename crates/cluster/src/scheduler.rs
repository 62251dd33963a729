//! Placement policies: which host serves the next invocation.

use sebs_sim::rng::{Rng, StreamRng};

/// What a scheduler sees about one candidate host. Views are built in
/// ascending host-id order from hosts that are alive and have admission
/// capacity left, so every policy decides on the same canonical slate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HostView {
    /// The host's index in the cluster.
    pub id: u32,
    /// Invocations currently admitted (running + queued).
    pub inflight: usize,
    /// Invocations actually holding a CPU right now.
    pub running: usize,
    /// CPU slots on the host.
    pub cpus: u32,
    /// Idle warm containers this host holds for the candidate function.
    pub warm_for_function: usize,
}

/// The largest sample size [`SchedulerKind::parse`] accepts for
/// `random-<k>`: each contested dispatch makes `k` draws.
pub const MAX_RANDOM_K: u32 = 64;

/// A placement policy — the sweep axis of the cluster experiment.
///
/// Determinism contract: the cluster resolves single-candidate slates
/// itself, so [`SchedulerKind::pick`] only runs — and may only draw from
/// its rng — when a real choice exists. Policies that never draw
/// (least-loaded, locality) keep the stream untouched regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Sends every invocation to the least-loaded host (fewest in-flight
    /// invocations, ties to the lowest id). Draws nothing.
    LeastLoaded,
    /// Power-of-k-choices: samples `k` candidates uniformly (with
    /// replacement) and takes the least loaded of the sample (ties to the
    /// lowest id). Draws exactly `k` values per decision (`k = 2` is the
    /// classic power-of-two-choices).
    RandomK(u32),
    /// Hermes-style locality: prefer the host holding the most idle warm
    /// containers for this function (ties to the lowest id); with no warm
    /// candidates, pack onto the busiest host that still has a free CPU
    /// so idle hosts can drain and be reclaimed; fall back to
    /// least-loaded when every candidate's CPUs are saturated. Draws
    /// nothing.
    Locality,
}

fn least_loaded_of(candidates: &[HostView]) -> u32 {
    let mut best = candidates[0];
    for c in &candidates[1..] {
        if (c.inflight, c.id) < (best.inflight, best.id) {
            best = *c;
        }
    }
    best.id
}

impl SchedulerKind {
    /// Parses a label: `least-loaded`, `random-<k>` (`k` from 1 to
    /// [`MAX_RANDOM_K`]) or `locality`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels, or naming the limit
    /// `k` broke.
    pub fn parse(s: &str) -> Result<SchedulerKind, String> {
        let s = s.trim();
        if s == "least-loaded" {
            return Ok(SchedulerKind::LeastLoaded);
        }
        if s == "locality" {
            return Ok(SchedulerKind::Locality);
        }
        if let Some(k) = s.strip_prefix("random-") {
            let k: u32 = k
                .parse()
                .map_err(|e| format!("bad random-k sample size `{k}`: {e}"))?;
            if k == 0 {
                return Err("random-k sample size must be >= 1".to_string());
            }
            if k > MAX_RANDOM_K {
                return Err(format!(
                    "random-k sample size {k} is above the maximum of {MAX_RANDOM_K}"
                ));
            }
            return Ok(SchedulerKind::RandomK(k));
        }
        Err(format!(
            "unknown scheduler `{s}` (valid: least-loaded, random-<k>, locality)"
        ))
    }

    /// The stable label (round-trips through [`SchedulerKind::parse`]).
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::LeastLoaded => "least-loaded".to_string(),
            SchedulerKind::RandomK(k) => format!("random-{k}"),
            SchedulerKind::Locality => "locality".to_string(),
        }
    }

    /// Chooses a host from a non-empty slate; returns one of the
    /// candidate ids.
    pub(crate) fn pick(&self, candidates: &[HostView], rng: &mut StreamRng) -> u32 {
        match *self {
            SchedulerKind::LeastLoaded => least_loaded_of(candidates),
            SchedulerKind::RandomK(k) => {
                let mut best = candidates[rng.gen_range(0..candidates.len())];
                for _ in 1..k.max(1) {
                    let c = candidates[rng.gen_range(0..candidates.len())];
                    if (c.inflight, c.id) < (best.inflight, best.id) {
                        best = c;
                    }
                }
                best.id
            }
            SchedulerKind::Locality => {
                if let Some(warm) = candidates
                    .iter()
                    .filter(|c| c.warm_for_function > 0)
                    .max_by_key(|c| (c.warm_for_function, std::cmp::Reverse(c.id)))
                {
                    return warm.id;
                }
                if let Some(pack) = candidates
                    .iter()
                    .filter(|c| c.running < c.cpus as usize)
                    .max_by_key(|c| (c.inflight, std::cmp::Reverse(c.id)))
                {
                    return pack.id;
                }
                least_loaded_of(candidates)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    fn view(id: u32, inflight: usize, running: usize, warm: usize) -> HostView {
        HostView {
            id,
            inflight,
            running,
            cpus: 4,
            warm_for_function: warm,
        }
    }

    fn rng() -> StreamRng {
        SimRng::new(11).stream("cluster-sched")
    }

    #[test]
    fn least_loaded_breaks_ties_by_id() {
        let mut r = rng();
        let pristine = r.clone();
        let slate = [view(0, 3, 3, 0), view(1, 1, 1, 0), view(2, 1, 1, 5)];
        assert_eq!(SchedulerKind::LeastLoaded.pick(&slate, &mut r), 1);
        assert_eq!(r, pristine, "least-loaded must not draw");
    }

    #[test]
    fn random_k_draws_exactly_k_and_picks_within_sample() {
        let s = SchedulerKind::RandomK(2);
        let mut r = rng();
        let slate: Vec<HostView> = (0..8).map(|i| view(i, i as usize, 0, 0)).collect();
        let picked = s.pick(&slate, &mut r);
        assert!(slate.iter().any(|c| c.id == picked));
        // Same stream state → same pick: the decision is a pure function
        // of (slate, stream position).
        let mut r2 = rng();
        assert_eq!(s.pick(&slate, &mut r2), picked);
    }

    /// The `random-<k>` pick as it was before the running minimum: the draws
    /// are collected into a sample first.
    fn collect_then_pick(k: u32, candidates: &[HostView], rng: &mut StreamRng) -> u32 {
        let mut sample: Vec<HostView> = Vec::with_capacity(k.max(1) as usize);
        for _ in 0..k.max(1) {
            let i = rng.gen_range(0..candidates.len());
            sample.push(candidates[i]);
        }
        least_loaded_of(&sample)
    }

    #[test]
    fn running_minimum_matches_collecting_the_sample() {
        let mut slates = SimRng::new(12).stream("slates");
        let (mut r, mut reference) = (rng(), rng());
        for case in 0..2_000 {
            let k = slates.gen_range(1..=8u32);
            // Loads repeat across hosts, so ties on `inflight` are common.
            let slate: Vec<HostView> = (0..slates.gen_range(1..=8u32))
                .map(|id| view(id * 2, slates.gen_range(0..4), 0, 0))
                .collect();
            let picked = SchedulerKind::RandomK(k).pick(&slate, &mut r);
            assert_eq!(
                picked,
                collect_then_pick(k, &slate, &mut reference),
                "case {case}: k {k}, slate {slate:?}"
            );
            assert_eq!(r, reference, "case {case}: same draws");
        }
    }

    #[test]
    fn locality_prefers_warm_then_packs() {
        let s = SchedulerKind::Locality;
        let mut r = rng();
        let pristine = r.clone();
        // Host 2 holds warm containers → wins despite load.
        assert_eq!(
            s.pick(
                &[view(0, 0, 0, 0), view(2, 3, 3, 2), view(3, 1, 1, 1)],
                &mut r
            ),
            2
        );
        // No warm candidates → pack the busiest host with a free CPU.
        assert_eq!(
            s.pick(
                &[view(0, 1, 1, 0), view(1, 5, 4, 0), view(2, 2, 2, 0)],
                &mut r
            ),
            2,
            "host 1 is CPU-saturated, host 2 is the busiest with room"
        );
        // Everyone saturated → least loaded.
        assert_eq!(s.pick(&[view(0, 6, 4, 0), view(1, 5, 4, 0)], &mut r), 1);
        assert_eq!(r, pristine, "locality must not draw");
    }

    #[test]
    fn kind_parses_and_round_trips() {
        for label in ["least-loaded", "random-2", "random-3", "locality"] {
            let kind = SchedulerKind::parse(label).unwrap();
            assert_eq!(kind.label(), label);
        }
        assert!(SchedulerKind::parse("random-0").is_err());
        let err = SchedulerKind::parse("frobnicate").unwrap_err();
        assert!(err.contains("least-loaded"), "{err}");
    }

    #[test]
    fn random_k_is_bounded() {
        assert_eq!(
            SchedulerKind::parse("random-64").unwrap(),
            SchedulerKind::RandomK(MAX_RANDOM_K)
        );
        for label in ["random-65", "random-4294967295"] {
            let err = SchedulerKind::parse(label).unwrap_err();
            assert!(err.contains("maximum of 64"), "{err}");
        }
    }
}
