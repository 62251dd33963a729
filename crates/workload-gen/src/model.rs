//! The fleet trace model and its deterministic expansion.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::arrival::{ArrivalProcess, ArrivalTimes, DiurnalProfile};
use sebs_sim::{Dist, SimDuration, SimRng, SimTime, StreamRng};
use sebs_workloads::Language;

/// Static description of one function in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Deployment name (unique within the fleet).
    pub name: String,
    /// Runtime language profile.
    pub language: Language,
    /// Configured memory in MB (must be valid for the target provider;
    /// the synthetic generator sticks to sizes every provider accepts).
    pub memory_mb: u32,
    /// Function-body duration distribution in milliseconds at full CPU
    /// share; the replay converts it into abstract work units for the
    /// target provider/memory/language.
    pub duration_ms: Dist,
    /// Fraction of configured memory the body touches per invocation.
    pub alloc_fraction: Dist,
    /// Response body size in bytes (drives egress billing).
    pub response_bytes: u64,
}

impl FunctionProfile {
    /// A profile with the common defaults: Python, a modest working set,
    /// a small response.
    pub fn new(name: impl Into<String>, memory_mb: u32, duration_ms: Dist) -> FunctionProfile {
        FunctionProfile {
            name: name.into(),
            language: Language::Python,
            memory_mb,
            duration_ms,
            alloc_fraction: Dist::Uniform { lo: 0.1, hi: 0.4 },
            response_bytes: 1024,
        }
    }
}

/// One fleet member: a profile plus its arrival behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFunction {
    /// What the function is.
    pub profile: FunctionProfile,
    /// When it gets invoked.
    pub arrivals: ArrivalProcess,
    /// Optional daily rate modulation.
    pub diurnal: Option<DiurnalProfile>,
}

/// A fleet of functions plus the trace horizon. Expanding the model with
/// [`TraceModel::generate`] is deterministic in the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceModel {
    /// The fleet, in stable index order (index = `Arrival::function`).
    pub functions: Vec<FleetFunction>,
    /// Length of the generated trace.
    pub horizon: SimDuration,
}

/// One invocation request in the expanded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request arrives (offset from trace start).
    pub at: SimTime,
    /// Index into [`TraceModel::functions`].
    pub function: u32,
}

/// A fully expanded, time-ordered invocation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// The horizon the trace was generated for.
    pub horizon: SimDuration,
    /// All arrivals, sorted by `(at, function)`.
    pub arrivals: Vec<Arrival>,
}

impl FleetTrace {
    /// Total invocation count.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Per-function invocation counts (indexed like the model's fleet).
    pub fn invocations_per_function(&self, functions: usize) -> Vec<u64> {
        let mut counts = vec![0_u64; functions];
        for a in &self.arrivals {
            let idx = a.function as usize;
            if idx < counts.len() {
                counts[idx] += 1;
            }
        }
        counts
    }
}

impl TraceModel {
    /// Expected total invocation count over the horizon (analytic, exact
    /// for Poisson/Replay and for MMPP in the long-dwell limit).
    pub fn expected_invocations(&self) -> f64 {
        let h = self.horizon.as_secs_f64();
        self.functions
            .iter()
            .map(|f| f.arrivals.mean_rate(self.horizon) * h)
            .sum()
    }

    /// Expands the model into a concrete trace: the arrivals of every
    /// function, from [`TraceModel::arrivals`], collected.
    ///
    /// Each function draws from its own `fleet-arrival` stream indexed
    /// by fleet position, so schedules are independent of fleet size and
    /// of each other; the merged trace is sorted by `(at, function)` and
    /// is byte-identical for identical `(model, seed)`.
    pub fn generate(&self, seed: u64) -> FleetTrace {
        let all: Vec<usize> = (0..self.functions.len()).collect();
        FleetTrace {
            horizon: self.horizon,
            arrivals: self.arrivals(seed, &all).collect(),
        }
    }

    /// The arrivals of the fleet functions at the positions in
    /// `functions`, streamed in `(at, function)` order: exactly the
    /// arrivals of [`TraceModel::generate`] whose function is listed, but
    /// without building the whole trace. A repeated position counts once;
    /// one outside the fleet contributes nothing.
    ///
    /// Each function's schedule is thinned lazily from its own
    /// `fleet-arrival` stream. The merge keeps the functions in a heap
    /// keyed by their next arrival and, each time its batch runs out,
    /// takes every arrival due within a fixed window (`MERGE_WINDOW`,
    /// 10 s of sim time) of the earliest pending one and sorts that
    /// batch. Memory grows with the fleet size and the arrivals in one
    /// window, not with the trace length, and a function costs heap work
    /// once per window, not per arrival.
    pub fn arrivals(&self, seed: u64, functions: &[usize]) -> Arrivals {
        let root = SimRng::new(seed);
        let mut picked = functions.to_vec();
        picked.sort_unstable();
        picked.dedup();
        let mut sources = Vec::with_capacity(picked.len());
        let mut pending = BinaryHeap::with_capacity(picked.len());
        for i in picked {
            let Some(f) = self.functions.get(i) else {
                continue;
            };
            let rng = root.stream_indexed("fleet-arrival", i as u64);
            let mut times = f.arrivals.times(f.diurnal.as_ref(), self.horizon, rng);
            if let Some(at) = times.next() {
                pending.push(Reverse((at, sources.len())));
                sources.push(Source {
                    function: i as u32,
                    times,
                });
            }
        }
        Arrivals {
            sources,
            pending,
            batch: Vec::new(),
            served: 0,
        }
    }
}

/// The sim-time span of one merge batch in [`TraceModel::arrivals`]. Wide
/// enough that a hot function contributes a run of arrivals per heap
/// visit; narrow enough that a batch stays small next to the trace.
const MERGE_WINDOW: SimDuration = SimDuration::from_secs(10);

/// One function's pending schedule inside [`Arrivals`].
#[derive(Debug)]
struct Source {
    function: u32,
    times: ArrivalTimes<StreamRng>,
}

/// A time-ordered stream of fleet arrivals, from [`TraceModel::arrivals`].
#[derive(Debug)]
pub struct Arrivals {
    sources: Vec<Source>,
    /// Sources with arrivals left, keyed by their next arrival (which the
    /// source has already yielded) and their slot in `sources`.
    pending: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The current window's arrivals, sorted by `(at, function)`.
    batch: Vec<Arrival>,
    /// How many of `batch` have been yielded.
    served: usize,
}

impl Arrivals {
    /// Replaces the served batch with every arrival due within
    /// [`MERGE_WINDOW`] of the earliest pending one, sorted. Every later
    /// arrival falls after the window, so batches concatenate in order.
    fn refill(&mut self) {
        self.batch.clear();
        self.served = 0;
        let Some(&Reverse((first, _))) = self.pending.peek() else {
            return;
        };
        let last = first.saturating_add(MERGE_WINDOW);
        while let Some(mut top) = self.pending.peek_mut() {
            let Reverse((mut at, slot)) = *top;
            if at > last {
                break;
            }
            let source = &mut self.sources[slot];
            loop {
                self.batch.push(Arrival {
                    at,
                    function: source.function,
                });
                match source.times.next() {
                    Some(next) if next <= last => at = next,
                    Some(next) => {
                        *top = Reverse((next, slot));
                        break;
                    }
                    None => {
                        PeekMut::pop(top);
                        break;
                    }
                }
            }
        }
        self.batch.sort_unstable_by_key(|a| (a.at, a.function));
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.served == self.batch.len() {
            self.refill();
        }
        let next = self.batch.get(self.served).copied();
        self.served += usize::from(next.is_some());
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TraceModel {
        TraceModel {
            functions: vec![
                FleetFunction {
                    profile: FunctionProfile::new("a", 256, Dist::Constant(100.0)),
                    arrivals: ArrivalProcess::Poisson { rate_per_sec: 2.0 },
                    diurnal: None,
                },
                FleetFunction {
                    profile: FunctionProfile::new("b", 128, Dist::Constant(50.0)),
                    arrivals: ArrivalProcess::Mmpp {
                        rate_low: 0.1,
                        rate_high: 3.0,
                        dwell_low_s: 200.0,
                        dwell_high_s: 50.0,
                    },
                    diurnal: Some(DiurnalProfile::daily(0.3, 0.5)),
                },
            ],
            horizon: SimDuration::from_secs(5_000),
        }
    }

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let m = tiny_model();
        let a = m.generate(42);
        let b = m.generate(42);
        assert_eq!(a, b);
        assert!(a
            .arrivals
            .windows(2)
            .all(|w| (w[0].at, w[0].function) <= (w[1].at, w[1].function)));
        let c = m.generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn expected_count_tracks_generated_count() {
        let m = tiny_model();
        let t = m.generate(7);
        let expected = m.expected_invocations();
        let n = t.len() as f64;
        assert!(
            (n - expected).abs() < 0.1 * expected,
            "generated {n}, expected ≈{expected}"
        );
        let per_fn = t.invocations_per_function(m.functions.len());
        assert_eq!(per_fn.iter().sum::<u64>() as usize, t.len());
    }

    #[test]
    fn adding_a_function_never_reschedules_existing_ones() {
        let mut m = tiny_model();
        let before = m.generate(11);
        m.functions.push(FleetFunction {
            profile: FunctionProfile::new("c", 512, Dist::Constant(10.0)),
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            diurnal: None,
        });
        let after = m.generate(11);
        let old: Vec<Arrival> = after
            .arrivals
            .iter()
            .copied()
            .filter(|a| a.function < 2)
            .collect();
        assert_eq!(old, before.arrivals, "streams are per-function");
    }

    /// The merge as it was before streaming: every function's schedule,
    /// concatenated, stable-sorted by `(at, function)` and filtered to
    /// `subset`.
    fn reference_merge(model: &TraceModel, seed: u64, subset: &[usize]) -> Vec<Arrival> {
        let root = SimRng::new(seed);
        let mut all = Vec::new();
        for (i, f) in model.functions.iter().enumerate() {
            let mut rng = root.stream_indexed("fleet-arrival", i as u64);
            for at in f
                .arrivals
                .generate(f.diurnal.as_ref(), model.horizon, &mut rng)
            {
                all.push(Arrival {
                    at,
                    function: i as u32,
                });
            }
        }
        all.sort_by_key(|a| (a.at, a.function));
        all.retain(|a| subset.contains(&(a.function as usize)));
        all
    }

    /// A random fleet mixing every kind of arrival process. `Replay`
    /// functions draw unsorted, duplicated and past-horizon instants from
    /// a pool they share, so equal `at` across functions is common. The
    /// pool holds a run of consecutive merge-window boundaries, and a
    /// quarter of the fleets replay only, so a batch often starts on a
    /// boundary and ends exactly on the next one.
    fn random_model(rng: &mut StreamRng) -> TraceModel {
        use sebs_sim::Rng;
        let horizon = SimDuration::from_millis(rng.gen_range(0u64..400_000));
        let h_ns = horizon.as_nanos();
        let first_window = rng.gen_range(0u64..=40);
        let pool: Vec<SimTime> = (0..12u64)
            .map(|k| match k % 2 {
                0 => SimTime::ZERO + MERGE_WINDOW * (first_window + k / 2),
                _ => SimTime::from_nanos(rng.gen_range(0u64..=h_ns / 4 * 5 + 1)),
            })
            .collect();
        let replay_only = rng.gen_range(0u32..4) == 0;
        let n = rng.gen_range(0usize..=12);
        let functions = (0..n)
            .map(|i| {
                let kind = if replay_only {
                    4
                } else {
                    rng.gen_range(0u32..5)
                };
                let arrivals = match kind {
                    0 => ArrivalProcess::Poisson {
                        rate_per_sec: rng.gen_range(0.0..2.0),
                    },
                    1 => ArrivalProcess::Mmpp {
                        rate_low: rng.gen_range(0.0..0.5),
                        rate_high: rng.gen_range(0.0..8.0),
                        dwell_low_s: rng.gen_range(1.0..60.0),
                        dwell_high_s: rng.gen_range(1.0..20.0),
                    },
                    2 if i % 2 == 0 => ArrivalProcess::Poisson { rate_per_sec: 0.0 },
                    2 => ArrivalProcess::Mmpp {
                        rate_low: 0.0,
                        rate_high: 0.0,
                        dwell_low_s: 10.0,
                        dwell_high_s: 10.0,
                    },
                    _ => ArrivalProcess::Replay {
                        times: (0..rng.gen_range(0usize..40))
                            .map(|_| pool[rng.gen_range(0..pool.len())])
                            .collect(),
                    },
                };
                let diurnal = (rng.gen_range(0u32..2) == 0).then(|| DiurnalProfile {
                    amplitude: rng.gen_range(0.0..0.9),
                    period: SimDuration::from_secs(rng.gen_range(30u64..600)),
                    phase: rng.gen_range(0.0..6.3),
                });
                FleetFunction {
                    profile: FunctionProfile::new(format!("f{i}"), 256, Dist::Constant(1.0)),
                    arrivals,
                    diurnal,
                }
            })
            .collect();
        TraceModel { functions, horizon }
    }

    #[test]
    fn streamed_arrivals_match_the_sorted_reference_merge() {
        use sebs_sim::Rng;
        let mut checked = 0;
        for case in 0..64u64 {
            let mut rng = SimRng::new(0xA881).child(case).stream("merge-oracle");
            let model = random_model(&mut rng);
            let n = model.functions.len();
            let seed = rng.gen::<u64>();
            let all: Vec<usize> = (0..n).collect();
            let half: Vec<usize> = (0..n).filter(|_| rng.gen_range(0u32..2) == 0).collect();
            // Unsorted, with a repeat and a position outside the fleet.
            let mut messy: Vec<usize> = (0..n).rev().filter(|i| i % 3 != 1).collect();
            messy.extend(messy.first().copied());
            messy.push(n + 3);
            for subset in [&[][..], &all[..], &half[..], &messy[..]] {
                let want = reference_merge(&model, seed, subset);
                let got: Vec<Arrival> = model.arrivals(seed, subset).collect();
                assert_eq!(got, want, "case {case}, subset {subset:?}");
                checked += want.len();
            }
            assert_eq!(
                model.generate(seed).arrivals,
                reference_merge(&model, seed, &all)
            );
        }
        assert!(checked > 10_000, "only {checked} arrivals compared");
    }

    /// The thinned schedules are pinned: a change to the draw order or to
    /// the float arithmetic of thinning would reschedule every replay.
    #[test]
    fn thinned_schedules_are_pinned() {
        let m = tiny_model();
        for (seed, len, hash) in [
            (1_u64, 14_954, 0x4da2_c5f0_4091_79b9_u64),
            (2021, 14_256, 0x7876_2755_eb4a_5298),
        ] {
            let t = m.generate(seed);
            let h = t.arrivals.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, a| {
                (h ^ a.at.as_nanos() ^ (u64::from(a.function) << 56)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!((t.len(), h), (len, hash), "seed {seed}");
        }
    }

    #[test]
    fn arrivals_stream_is_fused() {
        let m = tiny_model();
        let mut stream = m.arrivals(3, &[0, 1]);
        let n = stream.by_ref().count();
        assert_eq!(n, m.generate(3).len());
        assert_eq!(stream.next(), None);
        assert_eq!(stream.next(), None);
    }
}
