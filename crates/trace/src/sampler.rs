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

use std::collections::BTreeMap;

use sebs_sim::{fnv1a, Rng, SimDuration, SimRng, StreamRng};

use crate::sink::{build_trace, InvocationTrace, TraceRecord};

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

/// One function's seeded reservoir (Algorithm R). A slot holds `S`: the
/// `seq` of a kept record in [`TraceSampler`], or a whole built trace.
#[derive(Debug)]
struct FnReservoir<S = InvocationTrace> {
    rng: StreamRng,
    seen: u64,
    slots: Vec<S>,
}

/// Where [`TraceSampler::admit`] decided to keep a trace. Hand it with
/// the trace's record to [`TraceSampler::keep`] before the next admission.
#[derive(Debug)]
#[must_use = "an admitted trace must be handed to `TraceSampler::keep`"]
pub struct Admission {
    seq: u64,
    /// Joins the error exemplars.
    error: bool,
    /// Joins the slowest-K under key `(nanos, seq)`.
    slowest_nanos: Option<u64>,
    /// The function's reservoir, and the slot of it the trace fills
    /// (index == len) or replaces.
    reservoir_slot: Option<(usize, usize)>,
}

/// A kept record and how many of the three categories hold it.
#[derive(Debug)]
struct Held<T> {
    holders: u8,
    record: T,
}

/// Bounded deterministic trace keeper. See the module docs for the
/// contract; [`TraceSampler::drain`] returns the kept traces deduplicated
/// and in sequence order.
///
/// A trace is admitted from its coordinates alone ([`TraceSampler::admit`]),
/// and the sampler keeps what the caller hands it for an admitted trace
/// ([`TraceSampler::keep`]): a [`TraceRecord`], whose span tree is built
/// only if it is still kept at the drain. Each record is held once, by
/// `seq`, however many categories keep it.
#[derive(Debug)]
pub struct TraceSampler<T = InvocationTrace> {
    spec: SamplerSpec,
    root: SimRng,
    /// Each function's position in `reservoirs`.
    functions: BTreeMap<String, usize>,
    reservoirs: Vec<FnReservoir<u64>>,
    /// Slowest-K `(duration nanos, seq)`, kept sorted ascending; the head
    /// is the first to be evicted.
    slowest: Vec<(u64, u64)>,
    /// The `seq` of each error exemplar.
    errors: Vec<u64>,
    held: BTreeMap<u64, Held<T>>,
    seen: u64,
    errors_seen: u64,
}

impl<T> TraceSampler<T> {
    /// A sampler rooted at `seed`. The seed is typically the owning
    /// platform's seed; all draws come from dedicated `trace-reservoir`
    /// streams derived from it, so the sampler shares no randomness with
    /// the simulation.
    pub fn new(spec: SamplerSpec, seed: u64) -> TraceSampler<T> {
        TraceSampler {
            spec,
            root: SimRng::new(seed),
            functions: BTreeMap::new(),
            reservoirs: Vec::new(),
            slowest: Vec::with_capacity(spec.slowest_k),
            errors: Vec::with_capacity(spec.error_k),
            held: BTreeMap::new(),
            seen: 0,
            errors_seen: 0,
        }
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
        self.reservoirs.iter().map(|r| r.slots.len()).sum::<usize>()
            + self.slowest.len()
            + self.errors.len()
    }

    /// Decides whether the trace of invocation `seq` of `function`, with
    /// root-span `duration`, is kept, before anything is built. Counts it
    /// as offered and makes the reservoir draw either way, so the kept
    /// set is the same as offering every built trace. `failed` marks error
    /// exemplars (the caller knows the outcome; the sampler does not parse
    /// span args). `None` means the trace is kept nowhere and need not be
    /// recorded.
    pub fn admit(
        &mut self,
        function: &str,
        duration: SimDuration,
        seq: u64,
        failed: bool,
    ) -> Option<Admission> {
        self.seen += 1;
        if failed {
            self.errors_seen += 1;
        }
        let admission = Admission {
            seq,
            error: failed && self.errors.len() < self.spec.error_k,
            slowest_nanos: self.admit_slowest(duration.as_nanos(), seq),
            reservoir_slot: self.admit_reservoir(function),
        };
        let kept = admission.error
            || admission.slowest_nanos.is_some()
            || admission.reservoir_slot.is_some();
        kept.then_some(admission)
    }

    /// Holds `record` where [`TraceSampler::admit`] placed it, releasing
    /// whatever it evicts. `record` must be the admitted invocation's,
    /// handed over before any other admission.
    pub fn keep(&mut self, admission: Admission, record: T) {
        let seq = admission.seq;
        let holders = u8::from(admission.error)
            + u8::from(admission.slowest_nanos.is_some())
            + u8::from(admission.reservoir_slot.is_some());
        self.held.insert(seq, Held { holders, record });
        if admission.error {
            self.errors.push(seq);
        }
        if let Some(nanos) = admission.slowest_nanos {
            if self.slowest.len() >= self.spec.slowest_k {
                let (_, evicted) = self.slowest.remove(0);
                self.release(evicted);
            }
            let at = self.slowest.partition_point(|&key| key < (nanos, seq));
            self.slowest.insert(at, (nanos, seq));
        }
        if let Some((function, slot)) = admission.reservoir_slot {
            let slots = &mut self.reservoirs[function].slots;
            match slots.get_mut(slot) {
                Some(kept) => {
                    let evicted = std::mem::replace(kept, seq);
                    self.release(evicted);
                }
                None => slots.push(seq),
            }
        }
    }

    /// Drops one category's hold on the record of `seq`, and the record
    /// with the last hold.
    fn release(&mut self, seq: u64) {
        if let Some(held) = self.held.get_mut(&seq) {
            held.holders -= 1;
            if held.holders == 0 {
                self.held.remove(&seq);
            }
        }
    }

    /// Whether the `(nanos, seq)` key joins the K slowest: always while
    /// fewer than K are held, otherwise only above the head (the current
    /// minimum), which [`TraceSampler::keep`] then evicts.
    fn admit_slowest(&self, nanos: u64, seq: u64) -> Option<u64> {
        if self.spec.slowest_k == 0 {
            return None;
        }
        match self.slowest.first() {
            Some(&head) if self.slowest.len() >= self.spec.slowest_k && (nanos, seq) <= head => {
                None
            }
            _ => Some(nanos),
        }
    }

    /// Feeds the per-function reservoir (Algorithm R): the first
    /// `reservoir_per_fn` invocations of a function fill the slots; the
    /// `n`-th (n > k) replaces a uniform slot with probability `k / n`.
    /// Returns the function's reservoir and the slot the trace takes.
    fn admit_reservoir(&mut self, function: &str) -> Option<(usize, usize)> {
        let k = self.spec.reservoir_per_fn;
        if k == 0 {
            return None;
        }
        let at = match self.functions.get(function) {
            Some(&at) => at,
            None => self.add_reservoir(function),
        };
        let res = &mut self.reservoirs[at];
        res.seen += 1;
        if res.slots.len() < k {
            return Some((at, res.slots.len()));
        }
        let j = res.rng.gen_range(0..res.seen);
        ((j as usize) < k).then_some((at, j as usize))
    }

    /// Opens the reservoir of a function seen for the first time.
    // audit:allow(hot-path-allocation): a function's name and reservoir are allocated once, at its first sight
    fn add_reservoir(&mut self, function: &str) -> usize {
        let salt = fnv1a(function.as_bytes());
        let at = self.reservoirs.len();
        self.reservoirs.push(FnReservoir {
            rng: self.root.stream_indexed("trace-reservoir", salt),
            seen: 0,
            slots: Vec::with_capacity(self.spec.reservoir_per_fn),
        });
        self.functions.insert(function.to_string(), at);
        at
    }

    /// Builds the span tree of every record still kept, deduplicated and
    /// sorted ascending by `seq` — the canonical per-platform order.
    /// Reservoir counters and RNG streams carry on, so continuing to offer
    /// after a drain stays deterministic.
    pub fn drain(&mut self) -> Vec<InvocationTrace>
    where
        T: TraceRecord,
    {
        self.errors.clear();
        self.slowest.clear();
        for r in &mut self.reservoirs {
            r.slots.clear();
        }
        std::mem::take(&mut self.held)
            .into_iter()
            .map(|(seq, held)| build_trace(held.record, seq))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceSpan;
    use sebs_sim::{SimDuration, SimTime};

    /// Admits and keeps one built trace.
    fn offer(s: &mut TraceSampler, trace: InvocationTrace, failed: bool) {
        if let Some(admission) = s.admit(&trace.benchmark, trace.root.duration, trace.seq, failed) {
            s.keep(admission, trace);
        }
    }

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

    /// The eager sampler that admission replaced, copied as it was: every
    /// trace is built and offered, and the sampler clones what it keeps.
    /// `offer` also reports whether the trace was kept anywhere.
    struct EagerSampler {
        spec: SamplerSpec,
        root: SimRng,
        reservoirs: BTreeMap<String, FnReservoir>,
        slowest: Vec<(u64, u64, InvocationTrace)>,
        errors: Vec<InvocationTrace>,
        seen: u64,
        errors_seen: u64,
    }

    impl EagerSampler {
        fn new(spec: SamplerSpec, seed: u64) -> EagerSampler {
            EagerSampler {
                spec,
                root: SimRng::new(seed),
                reservoirs: BTreeMap::new(),
                slowest: Vec::new(),
                errors: Vec::new(),
                seen: 0,
                errors_seen: 0,
            }
        }

        fn offer(&mut self, trace: InvocationTrace, failed: bool) -> bool {
            self.seen += 1;
            let mut kept = false;
            if failed {
                self.errors_seen += 1;
                if self.errors.len() < self.spec.error_k {
                    self.errors.push(trace.clone());
                    kept = true;
                }
            }
            kept |= self.offer_slowest(&trace);
            kept |= self.offer_reservoir(trace);
            kept
        }

        fn offer_slowest(&mut self, trace: &InvocationTrace) -> bool {
            if self.spec.slowest_k == 0 {
                return false;
            }
            let key = (trace.root.duration.as_nanos(), trace.seq);
            if self.slowest.len() >= self.spec.slowest_k {
                let head = (self.slowest[0].0, self.slowest[0].1);
                if key <= head {
                    return false;
                }
                self.slowest.remove(0);
            }
            let at = self.slowest.partition_point(|&(d, s, _)| (d, s) < key);
            self.slowest.insert(at, (key.0, key.1, trace.clone()));
            true
        }

        fn offer_reservoir(&mut self, trace: InvocationTrace) -> bool {
            let k = self.spec.reservoir_per_fn;
            if k == 0 {
                return false;
            }
            let salt = fnv1a(trace.benchmark.as_bytes());
            let res = self
                .reservoirs
                .entry(trace.benchmark.clone())
                .or_insert_with(|| FnReservoir {
                    rng: self.root.stream_indexed("trace-reservoir", salt),
                    seen: 0,
                    slots: Vec::with_capacity(k),
                });
            res.seen += 1;
            if res.slots.len() < k {
                res.slots.push(trace);
                return true;
            }
            let j = res.rng.gen_range(0..res.seen);
            if (j as usize) < k {
                res.slots[j as usize] = trace;
                return true;
            }
            false
        }

        fn drain(&mut self) -> Vec<InvocationTrace> {
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

    #[test]
    fn admission_keeps_what_the_eager_sampler_keeps() {
        let all_on = SamplerSpec {
            reservoir_per_fn: 3,
            slowest_k: 4,
            error_k: 3,
        };
        let names = ["alpha", "beta", "gamma", "delta", "epsilon"];
        for case in 0..64u64 {
            // Every fourth case switches one knob off, each in turn.
            let spec = match case % 4 {
                1 => SamplerSpec {
                    reservoir_per_fn: 0,
                    ..all_on
                },
                2 => SamplerSpec {
                    slowest_k: 0,
                    ..all_on
                },
                3 => SamplerSpec {
                    error_k: 0,
                    ..all_on
                },
                _ => all_on,
            };
            let mut rng = SimRng::new(case).stream("offer-sequence");
            let functions = &names[..2 + (case as usize % 4)];
            let n = rng.gen_range(200..600u64);
            let drain_at = rng.gen_range(0..n);
            let mut eager = EagerSampler::new(spec, case);
            let mut lazy = TraceSampler::new(spec, case);
            for seq in 0..n {
                let f = functions[rng.gen_range(0..functions.len())];
                // Twelve distinct durations: once the slowest-K fills, most
                // offers tie with its head and are ordered by `seq`.
                let t = trace(f, seq, rng.gen_range(0..12u64) * 10);
                let failed = rng.gen::<f64>() < 0.05;
                let kept = eager.offer(t.clone(), failed);
                match lazy.admit(f, t.root.duration, seq, failed) {
                    Some(admission) => {
                        assert!(
                            kept,
                            "case {case}: admitted seq {seq} the reference dropped"
                        );
                        lazy.keep(admission, t);
                    }
                    None => assert!(!kept, "case {case}: dropped seq {seq} the reference kept"),
                }
                if seq == drain_at {
                    assert_eq!(lazy.drain(), eager.drain(), "case {case}: midway drain");
                }
            }
            assert_eq!(lazy.seen(), eager.seen, "case {case}");
            assert_eq!(lazy.errors_seen(), eager.errors_seen, "case {case}");
            assert_eq!(lazy.drain(), eager.drain(), "case {case}: final drain");
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
            offer(&mut s, trace(name, i, i % 250), i % 97 == 0);
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
            offer(&mut s, trace("fn", i as u64, *ms), false);
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
            offer(&mut s, trace("fn", i, 10), i == 4321);
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
                offer(&mut s, trace(name, i, (i * 37) % 500), false);
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
            offer(&mut s, trace("hot", i, 10), false);
        }
        offer(&mut s, trace("tail", 10_000, 10), false);
        offer(&mut s, trace("tail", 10_001, 10), false);
        let drained = s.drain();
        let tail = drained.iter().filter(|t| t.benchmark == "tail").count();
        assert_eq!(tail, 2, "both tail invocations kept");
    }

    #[test]
    fn draining_twice_is_safe_and_continuation_stays_deterministic() {
        let offer_all = |s: &mut TraceSampler, base: u64| {
            for i in 0..500u64 {
                offer(s, trace("fn", base + i, (i * 13) % 300), false);
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
