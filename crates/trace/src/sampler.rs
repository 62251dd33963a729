//! Deterministic trace sampling for fleet-scale replays.
//!
//! Full span collection materializes one [`InvocationTrace`] tree per
//! invocation — exactly what a 10⁶-invocation fleet replay cannot afford.
//! [`TraceSampler`] bounds the kept set while preserving the traces an
//! investigation actually wants:
//!
//! * a **per-function seeded reservoir** — every function keeps a uniform
//!   random sample of its own invocations (classic Algorithm R), so even
//!   deep-tail functions surface exemplars;
//! * the **slowest-K** invocations fleet-wide — the tail the percentile
//!   sketch summarizes numerically, kept here as full span trees;
//! * the first **K error** exemplars — one concrete trace per failure
//!   investigation, never evicted by the reservoir.
//!
//! Determinism contract: the sampler draws from its **own** RNG streams
//! (`trace-reservoir`, salted per function name), never from a
//! result-affecting stream — so toggling sampling on/off or changing the
//! reservoir size is bit-invisible to simulation results. Each platform
//! (= experiment cell) owns its sampler and feeds it in invocation order,
//! which is itself deterministic, so the kept set is byte-identical for
//! every `--jobs` value. Tie-breaks use `(duration nanos, seq)` integer
//! ordering — no float comparisons.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use sebs_sim::{fnv1a, Rng, SimRng, StreamRng};

use crate::sink::InvocationTrace;

/// Sampling knobs. The defaults bound a fleet cell to roughly
/// `4·functions + 32` kept traces regardless of invocation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerSpec {
    /// Reservoir slots per function (uniform sample of its invocations).
    pub reservoir_per_fn: usize,
    /// Slowest invocations kept fleet-wide (by root-span duration).
    pub slowest_k: usize,
    /// Error exemplars kept (first-come by sequence number).
    pub error_k: usize,
}

impl SamplerSpec {
    /// The fleet-scale default: 4 reservoir slots per function, the 16
    /// slowest invocations and 16 error exemplars per cell.
    pub fn fleet_default() -> SamplerSpec {
        SamplerSpec {
            reservoir_per_fn: 4,
            slowest_k: 16,
            error_k: 16,
        }
    }

    /// The hard ceiling on traces this spec can keep for `functions`
    /// distinct function names.
    pub fn max_kept(&self, functions: usize) -> usize {
        self.reservoir_per_fn * functions + self.slowest_k + self.error_k
    }
}

/// One function's seeded reservoir (Algorithm R).
#[derive(Debug)]
struct FnReservoir {
    rng: StreamRng,
    seen: u64,
    slots: Vec<InvocationTrace>,
}

/// Bounded deterministic trace keeper. See the module docs for the
/// contract; [`TraceSampler::drain`] returns the kept traces deduplicated
/// and in sequence order.
#[derive(Debug)]
pub struct TraceSampler {
    spec: SamplerSpec,
    root: SimRng,
    reservoirs: BTreeMap<String, FnReservoir>,
    /// Slowest-K, kept sorted ascending by `(duration nanos, seq)`; the
    /// head is the first to be evicted.
    slowest: Vec<(u64, u64, InvocationTrace)>,
    errors: Vec<InvocationTrace>,
    seen: u64,
    errors_seen: u64,
}

impl TraceSampler {
    /// A sampler rooted at `seed`. The seed is typically the owning
    /// platform's seed; all draws come from dedicated `trace-reservoir`
    /// streams derived from it, so the sampler shares no randomness with
    /// the simulation.
    pub fn new(spec: SamplerSpec, seed: u64) -> TraceSampler {
        TraceSampler {
            spec,
            root: SimRng::new(seed),
            reservoirs: BTreeMap::new(),
            slowest: Vec::with_capacity(spec.slowest_k),
            errors: Vec::with_capacity(spec.error_k),
            seen: 0,
            errors_seen: 0,
        }
    }

    /// The active knobs.
    pub fn spec(&self) -> SamplerSpec {
        self.spec
    }

    /// Traces offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Error traces offered so far.
    pub fn errors_seen(&self) -> u64 {
        self.errors_seen
    }

    /// Traces currently held across all categories (before dedup).
    pub fn kept(&self) -> usize {
        self.reservoirs
            .values()
            .map(|r| r.slots.len())
            .sum::<usize>()
            + self.slowest.len()
            + self.errors.len()
    }

    /// Offers one trace; the sampler decides what to keep. `failed`
    /// marks error exemplars (the caller knows the outcome — the sampler
    /// does not parse span args).
    pub fn offer(&mut self, trace: InvocationTrace, failed: bool) {
        self.seen += 1;
        if failed {
            self.errors_seen += 1;
            if self.errors.len() < self.spec.error_k {
                self.errors.push(trace.clone());
            }
        }
        self.offer_slowest(&trace);
        self.offer_reservoir(trace);
    }

    /// Keeps the K slowest traces by `(root duration, seq)`.
    fn offer_slowest(&mut self, trace: &InvocationTrace) {
        if self.spec.slowest_k == 0 {
            return;
        }
        let key = (trace.root.duration.as_nanos(), trace.seq);
        if self.slowest.len() >= self.spec.slowest_k {
            // The head is the current minimum; a non-larger candidate
            // cannot displace anything.
            let head = (self.slowest[0].0, self.slowest[0].1);
            if key <= head {
                return;
            }
            self.slowest.remove(0);
        }
        let at = self.slowest.partition_point(|&(d, s, _)| (d, s) < key);
        self.slowest.insert(at, (key.0, key.1, trace.clone()));
    }

    /// Feeds the per-function reservoir (Algorithm R): the first
    /// `reservoir_per_fn` invocations of a function fill the slots; the
    /// `n`-th (n > k) replaces a uniform slot with probability `k / n`.
    fn offer_reservoir(&mut self, trace: InvocationTrace) {
        let k = self.spec.reservoir_per_fn;
        if k == 0 {
            return;
        }
        let salt = fnv1a(trace.benchmark.as_bytes());
        let res = match self.reservoirs.entry(trace.benchmark.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(FnReservoir {
                rng: self.root.stream_indexed("trace-reservoir", salt),
                seen: 0,
                slots: Vec::with_capacity(k),
            }),
        };
        res.seen += 1;
        if res.slots.len() < k {
            res.slots.push(trace);
            return;
        }
        let j = res.rng.gen_range(0..res.seen);
        if (j as usize) < k {
            res.slots[j as usize] = trace;
        }
    }

    /// Takes the kept traces, deduplicated by sequence number and sorted
    /// ascending by `seq` — the canonical per-platform order. Reservoir
    /// counters and RNG streams carry on, so continuing to offer after a
    /// drain stays deterministic.
    pub fn drain(&mut self) -> Vec<InvocationTrace> {
        let mut by_seq: BTreeMap<u64, InvocationTrace> = BTreeMap::new();
        for t in self.errors.drain(..) {
            by_seq.insert(t.seq, t);
        }
        for (_, _, t) in self.slowest.drain(..) {
            by_seq.insert(t.seq, t);
        }
        for r in self.reservoirs.values_mut() {
            for t in r.slots.drain(..) {
                by_seq.insert(t.seq, t);
            }
        }
        by_seq.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceSpan;
    use sebs_sim::{SimDuration, SimTime};

    fn trace(benchmark: &str, seq: u64, millis: u64) -> InvocationTrace {
        InvocationTrace {
            provider: "aws".into(),
            benchmark: benchmark.into(),
            memory_mb: 512,
            cell: None,
            seq,
            root: TraceSpan::new(
                "invocation",
                SimTime::ZERO,
                SimDuration::from_millis(millis),
            ),
        }
    }

    #[test]
    fn keeps_at_most_the_spec_bound() {
        let spec = SamplerSpec {
            reservoir_per_fn: 2,
            slowest_k: 3,
            error_k: 2,
        };
        let mut s = TraceSampler::new(spec, 42);
        for i in 0..10_000u64 {
            let name = ["alpha", "beta", "gamma"][(i % 3) as usize];
            s.offer(trace(name, i, i % 250), i % 97 == 0);
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.kept() <= spec.max_kept(3), "kept {} traces", s.kept());
        let drained = s.drain();
        assert!(!drained.is_empty());
        assert!(drained.len() <= spec.max_kept(3));
        let seqs: Vec<u64> = drained.iter().map(|t| t.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "drain is seq-sorted and deduplicated");
    }

    #[test]
    fn slowest_k_keeps_the_actual_tail() {
        let mut s = TraceSampler::new(
            SamplerSpec {
                reservoir_per_fn: 0,
                slowest_k: 3,
                error_k: 0,
            },
            1,
        );
        // Durations 0..100 ms in a scrambled order.
        for (i, ms) in [40u64, 7, 99, 55, 3, 98, 97, 12].iter().enumerate() {
            s.offer(trace("fn", i as u64, *ms), false);
        }
        let kept: Vec<u64> = s
            .drain()
            .iter()
            .map(|t| t.root.duration.as_millis())
            .collect();
        assert_eq!(kept, vec![99, 98, 97], "seq order of the three slowest");
    }

    #[test]
    fn error_exemplars_are_always_kept() {
        let mut s = TraceSampler::new(SamplerSpec::fleet_default(), 5);
        for i in 0..5000u64 {
            s.offer(trace("fn", i, 10), i == 4321);
        }
        assert_eq!(s.errors_seen(), 1);
        let drained = s.drain();
        assert!(
            drained.iter().any(|t| t.seq == 4321),
            "the lone error survives 5000 competitors"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = TraceSampler::new(SamplerSpec::fleet_default(), seed);
            for i in 0..3000u64 {
                let name = ["a", "b"][(i % 2) as usize];
                s.offer(trace(name, i, (i * 37) % 500), false);
            }
            s.drain().iter().map(|t| t.seq).collect::<Vec<u64>>()
        };
        assert_eq!(run(9), run(9), "same seed, same kept set");
        assert_ne!(run(9), run(10), "different seed, different reservoir");
    }

    #[test]
    fn reservoir_covers_tail_functions() {
        // One hot function with 10k invocations and one that ran twice:
        // the tail function must still have exemplars.
        let mut s = TraceSampler::new(SamplerSpec::fleet_default(), 3);
        for i in 0..10_000u64 {
            s.offer(trace("hot", i, 10), false);
        }
        s.offer(trace("tail", 10_000, 10), false);
        s.offer(trace("tail", 10_001, 10), false);
        let drained = s.drain();
        let tail = drained.iter().filter(|t| t.benchmark == "tail").count();
        assert_eq!(tail, 2, "both tail invocations kept");
    }

    #[test]
    fn draining_twice_is_safe_and_continuation_stays_deterministic() {
        let offer_all = |s: &mut TraceSampler, base: u64| {
            for i in 0..500u64 {
                s.offer(trace("fn", base + i, (i * 13) % 300), false);
            }
        };
        let mut a = TraceSampler::new(SamplerSpec::fleet_default(), 8);
        offer_all(&mut a, 0);
        let first = a.drain();
        assert!(a.drain().is_empty(), "second drain is empty");
        offer_all(&mut a, 1000);
        let second = a.drain();

        let mut b = TraceSampler::new(SamplerSpec::fleet_default(), 8);
        offer_all(&mut b, 0);
        let b_first = b.drain();
        offer_all(&mut b, 1000);
        assert_eq!(first, b_first);
        assert_eq!(second, b.drain(), "post-drain offers stay deterministic");
    }
}
