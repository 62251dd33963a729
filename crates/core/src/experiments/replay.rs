//! The replay stream: the one event loop behind [`run_fleet`] and
//! [`run_cluster`].
//!
//! A cell replays a time-ordered stream of arrivals and samples its warm
//! pools on a fixed grid across the horizon. [`ReplayStream`] merges the
//! two into one ordered sequence of [`Event`]s, so a driver keeps only
//! two steps per event: advance its clock to the event, then handle it.
//!
//! ```text
//! for ev in ReplayStream::new(arrivals, horizon) {
//!     platform.advance(ev.at().saturating_duration_since(platform.now()));
//!     match ev { Sample(_) => …, Arrival(a) => …, End(_) => {} }
//! }
//! ```
//!
//! The arrivals can be any iterator sorted by time. A fleet cell pulls
//! its functions' arrivals lazily from [`TraceModel::arrivals`], so no
//! trace is built; the cluster sweep copies them out of the one trace
//! its cells share.
//!
//! The stream owns the sampling policy:
//!
//! * samples fall on `period, 2·period, …`, where `period` is the horizon
//!   over [`OCCUPANCY_SAMPLES`] but at least 1 s;
//! * a sample due at or before the next arrival comes first;
//! * no sample fires after the horizon;
//! * an arrival after the horizon is still yielded, before `End`;
//! * `End(horizon)` comes last, once.
//!
//! Deciding whether a sample comes first takes one peek at the next
//! arrival; no event queue is needed because the arrivals already come
//! in time order.
//!
//! [`run_fleet`]: super::run_fleet
//! [`run_cluster`]: super::run_cluster
//! [`TraceModel::arrivals`]: sebs_workload_gen::TraceModel::arrivals

use std::iter::Peekable;

use sebs_sim::{SimDuration, SimTime};
use sebs_workload_gen::Arrival;

/// Warm-pool occupancy is sampled on this many evenly spaced instants
/// across the horizon.
const OCCUPANCY_SAMPLES: u64 = 64;

/// The shortest sample period, so short horizons are not oversampled.
const MIN_SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// One step of a cell's replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// An occupancy sample is due.
    Sample(SimTime),
    /// A request arrives.
    Arrival(Arrival),
    /// The horizon: the last event, after which the cell is done.
    End(SimTime),
}

impl Event {
    /// The sim instant the driver advances its clock to.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            Event::Sample(t) | Event::End(t) => *t,
            Event::Arrival(a) => a.at,
        }
    }
}

/// Time-ordered arrivals merged with the occupancy-sample grid. See the
/// module docs for the ordering rules.
#[derive(Debug)]
pub(crate) struct ReplayStream<I: Iterator<Item = Arrival>> {
    arrivals: Peekable<I>,
    period: SimDuration,
    /// The next grid instant; `None` once the grid passes the horizon.
    next_sample: Option<SimTime>,
    end: SimTime,
    ended: bool,
}

impl<I: Iterator<Item = Arrival>> ReplayStream<I> {
    /// A stream over `arrivals` (sorted by time) up to `horizon`.
    pub(crate) fn new(arrivals: I, horizon: SimDuration) -> ReplayStream<I> {
        let period =
            SimDuration::from_nanos(horizon.as_nanos() / OCCUPANCY_SAMPLES).max(MIN_SAMPLE_PERIOD);
        let end = SimTime::ZERO.saturating_add(horizon);
        let first = SimTime::ZERO.saturating_add(period);
        ReplayStream {
            arrivals: arrivals.peekable(),
            period,
            next_sample: Some(first).filter(|&t| t <= end),
            end,
            ended: false,
        }
    }

    /// The sim time between consecutive samples.
    pub(crate) fn period(&self) -> SimDuration {
        self.period
    }
}

impl<I: Iterator<Item = Arrival>> Iterator for ReplayStream<I> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if let Some(t) = self.next_sample {
            let due = match self.arrivals.peek() {
                Some(a) => t <= a.at,
                None => true,
            };
            if due {
                let next = t.saturating_add(self.period);
                self.next_sample = Some(next).filter(|&n| n > t && n <= self.end);
                return Some(Event::Sample(t));
            }
        }
        if let Some(a) = self.arrivals.next() {
            return Some(Event::Arrival(a));
        }
        if self.ended {
            return None;
        }
        self.ended = true;
        Some(Event::End(self.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::{Rng, SimRng};
    use std::iter;

    fn arrival(secs: u64) -> Arrival {
        Arrival {
            at: SimTime::from_secs(secs),
            function: 0,
        }
    }

    /// Collects a stream, capped so one that never ends fails the test
    /// instead of growing without bound.
    fn events(arrivals: &[Arrival], horizon: SimDuration) -> Vec<Event> {
        let evs: Vec<Event> = ReplayStream::new(arrivals.iter().copied(), horizon)
            .take(10_000)
            .collect();
        assert!(evs.len() < 10_000, "the stream never ended");
        evs
    }

    #[test]
    fn sample_at_the_same_instant_as_an_arrival_comes_first() {
        // 640 s horizon: a 10 s period, so the first sample is due at 10 s.
        let arrivals = [arrival(10)];
        let evs = events(&arrivals, SimDuration::from_secs(640));
        assert_eq!(evs[0], Event::Sample(SimTime::from_secs(10)));
        assert_eq!(evs[1], Event::Arrival(arrivals[0]));
    }

    #[test]
    fn no_sample_fires_after_the_horizon() {
        // 50.5 s is under 64 periods of 1 s: samples at 1..=50 s, and the
        // 51 s grid point falls past the horizon.
        let horizon = SimDuration::from_millis(50_500);
        let late = [Arrival {
            at: SimTime::from_secs(60),
            function: 0,
        }];
        for arrivals in [&[][..], &late[..]] {
            let samples: Vec<SimTime> = events(arrivals, horizon)
                .into_iter()
                .filter_map(|e| match e {
                    Event::Sample(t) => Some(t),
                    _ => None,
                })
                .collect();
            assert_eq!(samples.len(), 50);
            assert_eq!(samples.last(), Some(&SimTime::from_secs(50)));
        }
    }

    #[test]
    fn end_comes_last_and_equals_the_horizon() {
        let arrivals = [arrival(3), arrival(50), arrival(70)];
        let horizon = SimDuration::from_secs(90);
        let evs = events(&arrivals, horizon);
        assert_eq!(evs.last(), Some(&Event::End(SimTime::from_secs(90))));
        let ends = evs.iter().filter(|e| matches!(e, Event::End(_))).count();
        assert_eq!(ends, 1);
        let mut stream = ReplayStream::new(arrivals.into_iter(), horizon);
        assert_eq!(stream.nth(evs.len()), None);
        assert_eq!(stream.next(), None, "the stream stays exhausted");
        assert!(evs.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn arrival_after_the_horizon_is_still_yielded_before_end() {
        let arrivals = [arrival(5), arrival(200)];
        let evs = events(&arrivals, SimDuration::from_secs(64));
        let n = evs.len();
        assert_eq!(evs[n - 2], Event::Arrival(arrivals[1]));
        assert_eq!(evs[n - 1], Event::End(SimTime::from_secs(64)));
        // Every sample still precedes the late arrival.
        let last_sample = evs
            .iter()
            .rposition(|e| matches!(e, Event::Sample(_)))
            .unwrap();
        assert_eq!(evs[last_sample], Event::Sample(SimTime::from_secs(64)));
        assert!(last_sample < n - 2);
    }

    #[test]
    fn empty_slice_yields_the_full_grid_then_end() {
        let evs = events(&[], SimDuration::from_secs(3200));
        assert_eq!(evs.len(), OCCUPANCY_SAMPLES as usize + 1);
        for (i, e) in evs[..evs.len() - 1].iter().enumerate() {
            assert_eq!(*e, Event::Sample(SimTime::from_secs(50 * (i as u64 + 1))));
        }
        assert_eq!(evs.last(), Some(&Event::End(SimTime::from_secs(3200))));
    }

    #[test]
    fn short_horizon_gets_a_one_second_period() {
        for secs in [1, 10, 63] {
            let horizon = SimDuration::from_secs(secs);
            let stream = ReplayStream::new(iter::empty(), horizon);
            assert_eq!(stream.period(), SimDuration::from_secs(1));
            assert_eq!(events(&[], horizon).len(), secs as usize + 1);
        }
        let sub_period = events(&[], SimDuration::from_millis(500));
        assert_eq!(sub_period.len(), 1, "a sub-period horizon samples nothing");
        let stream = ReplayStream::new(iter::empty(), SimDuration::from_secs(6400));
        assert_eq!(stream.period(), SimDuration::from_secs(100));
    }

    /// The stream reproduces the sample-then-advance loop the fleet and
    /// cluster drivers used to inline: the same events at the same
    /// instants, in the same order, for random sorted traces.
    #[test]
    fn matches_the_inline_sampling_loop() {
        fn inline(arrivals: &[Arrival], horizon: SimDuration) -> Vec<(u8, SimTime)> {
            let every = ReplayStream::new(iter::empty(), horizon).period();
            let mut next = SimTime::ZERO.saturating_add(every);
            let end = SimTime::ZERO.saturating_add(horizon);
            let mut out = Vec::new();
            let observe = |upto: SimTime, next: &mut SimTime, out: &mut Vec<(u8, SimTime)>| {
                while *next <= upto && *next <= end {
                    out.push((0, *next));
                    *next = next.saturating_add(every);
                }
            };
            for a in arrivals {
                observe(a.at, &mut next, &mut out);
                out.push((1, a.at));
            }
            observe(end, &mut next, &mut out);
            out.push((2, end));
            out
        }
        for case in 0..64u64 {
            let mut rng = SimRng::new(0x5EB5).child(case).stream("replay");
            let horizon = SimDuration::from_millis(rng.gen_range(0u64..400_000));
            let period = ReplayStream::new(iter::empty(), horizon).period();
            let n = rng.gen_range(0usize..200);
            let mut arrivals: Vec<Arrival> = (0..n)
                .map(|_| Arrival {
                    // Half the arrivals land exactly on a grid point (ties),
                    // the rest anywhere up to 25% past the horizon.
                    at: if rng.gen_range(0u32..2) == 0 {
                        SimTime::ZERO + period * rng.gen_range(0u64..=70)
                    } else {
                        SimTime::from_nanos(rng.gen_range(0u64..=horizon.as_nanos() / 4 * 5 + 1))
                    },
                    function: rng.gen_range(0u32..8),
                })
                .collect();
            arrivals.sort_by_key(|a| (a.at, a.function));
            let streamed: Vec<(u8, SimTime)> = events(&arrivals, horizon)
                .into_iter()
                .map(|e| {
                    let kind = match e {
                        Event::Sample(_) => 0,
                        Event::Arrival(_) => 1,
                        Event::End(_) => 2,
                    };
                    (kind, e.at())
                })
                .collect();
            assert_eq!(
                streamed,
                inline(&arrivals, horizon),
                "failing case seed {case}"
            );
        }
    }
}
