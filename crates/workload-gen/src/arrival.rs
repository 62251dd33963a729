//! Per-function arrival processes.
//!
//! Arrivals are generated by Lewis thinning: candidate points are drawn
//! from a homogeneous Poisson process at the peak instantaneous rate and
//! accepted with probability `rate(t) / peak`, which handles both the
//! MMPP state modulation and the diurnal profile with a single, simple
//! mechanism. All draws for one function come from that function's own
//! `fleet-arrival` stream, so adding or removing a function never
//! perturbs any other function's schedule.

use sebs_sim::rng::{unit_f64, RngCore};
use sebs_sim::{SimDuration, SimTime, StreamRng};

/// Smooth daily modulation of an arrival rate.
///
/// The instantaneous multiplier is
/// `1 + amplitude * sin(2π · t/period + phase)`, so the mean multiplier
/// over a full period is exactly 1 and the configured process rate is
/// also the long-run mean rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    /// Modulation depth in `[0, 1)`; 0 disables the profile.
    pub amplitude: f64,
    /// Length of one cycle (a day, for the eponymous use).
    pub period: SimDuration,
    /// Phase offset in radians (shifts where the peak falls).
    pub phase: f64,
}

impl DiurnalProfile {
    /// A daily cycle with the given depth and phase.
    pub fn daily(amplitude: f64, phase: f64) -> DiurnalProfile {
        DiurnalProfile {
            amplitude: amplitude.clamp(0.0, 0.999),
            period: SimDuration::from_secs(86_400),
            phase,
        }
    }

    /// The rate multiplier at `t` seconds into the trace.
    pub fn factor_at(&self, t_secs: f64) -> f64 {
        let period_s = self.period.as_secs_f64();
        if period_s <= 0.0 {
            return 1.0;
        }
        let a = self.amplitude.clamp(0.0, 0.999);
        1.0 + a * (2.0 * std::f64::consts::PI * t_secs / period_s + self.phase).sin()
    }

    /// The largest multiplier the profile can produce.
    pub fn peak(&self) -> f64 {
        1.0 + self.amplitude.clamp(0.0, 0.999)
    }
}

/// How one function's invocations arrive over the trace horizon.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Markov-modulated Poisson process: the rate alternates between a
    /// quiet and a bursty state with exponentially distributed dwell
    /// times. Models on/off traffic (queue drains, cron fan-out).
    Mmpp {
        /// Arrival rate in the quiet state (per second).
        rate_low: f64,
        /// Arrival rate in the bursty state (per second).
        rate_high: f64,
        /// Mean dwell time in the quiet state (seconds).
        dwell_low_s: f64,
        /// Mean dwell time in the bursty state (seconds).
        dwell_high_s: f64,
    },
    /// Replays an explicit list of arrival offsets (from a CSV import).
    /// Consumes no RNG draws.
    Replay {
        /// Arrival instants, offsets from the trace start.
        times: Vec<SimTime>,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in events per second (`Replay`
    /// needs a horizon to express a rate, so it reports the raw count
    /// spread over `horizon`).
    pub fn mean_rate(&self, horizon: SimDuration) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Mmpp {
                rate_low,
                rate_high,
                dwell_low_s,
                dwell_high_s,
            } => {
                let total = dwell_low_s + dwell_high_s;
                if total <= 0.0 {
                    0.0
                } else {
                    (rate_low * dwell_low_s + rate_high * dwell_high_s) / total
                }
            }
            ArrivalProcess::Replay { times } => {
                let h = horizon.as_secs_f64();
                if h <= 0.0 {
                    0.0
                } else {
                    times.len() as f64 / h
                }
            }
        }
    }

    /// Expands the process into concrete arrival instants in
    /// `[0, horizon)`, in nondecreasing order: [`ArrivalProcess::times`],
    /// collected.
    pub fn generate(
        &self,
        diurnal: Option<&DiurnalProfile>,
        horizon: SimDuration,
        rng: &mut StreamRng,
    ) -> Vec<SimTime> {
        self.times(diurnal, horizon, rng).collect()
    }

    /// The arrival instants in `[0, horizon)`, generated lazily in
    /// nondecreasing order.
    ///
    /// Poisson and MMPP processes are thinned one candidate at a time,
    /// drawing from `rng` only as the iterator advances, so a pending
    /// schedule holds no more than the thinning state. `Replay` copies
    /// the times inside the horizon and sorts them up front; it draws
    /// nothing.
    pub(crate) fn times<R: RngCore>(
        &self,
        diurnal: Option<&DiurnalProfile>,
        horizon: SimDuration,
        mut rng: R,
    ) -> ArrivalTimes<R> {
        let (rate_low, rate_high, dwell_low_s, dwell_high_s) = match self {
            ArrivalProcess::Replay { times } => {
                let end = SimTime::ZERO.saturating_add(horizon);
                let mut kept: Vec<SimTime> = times.iter().copied().filter(|t| *t < end).collect();
                kept.sort_unstable();
                return ArrivalTimes(Times::Replayed(kept.into_iter()));
            }
            ArrivalProcess::Poisson { rate_per_sec } => {
                (*rate_per_sec, *rate_per_sec, f64::INFINITY, f64::INFINITY)
            }
            ArrivalProcess::Mmpp {
                rate_low,
                rate_high,
                dwell_low_s,
                dwell_high_s,
            } => (*rate_low, *rate_high, *dwell_low_s, *dwell_high_s),
        };
        let peak = rate_low.max(rate_high) * diurnal.map_or(1.0, DiurnalProfile::peak);
        if !(peak.is_finite() && peak > 0.0) {
            return ArrivalTimes(Times::Replayed(Vec::new().into_iter()));
        }
        // The MMPP state trajectory advances lazily as candidates pass its
        // current segment; the process starts in the quiet state. A
        // Poisson process never leaves it.
        let state_until = match self {
            ArrivalProcess::Mmpp { .. } => exp_draw(&mut rng, dwell_low_s),
            _ => f64::INFINITY,
        };
        ArrivalTimes(Times::Thinned(Thinning {
            rng,
            diurnal: diurnal.cloned(),
            peak,
            mean_gap_s: 1.0 / peak,
            horizon_s: horizon.as_secs_f64(),
            t: 0.0,
            rate_low,
            rate_high,
            dwell_low_s,
            dwell_high_s,
            high: false,
            state_until,
        }))
    }
}

/// The arrival instants of one [`ArrivalProcess`], from
/// [`ArrivalProcess::times`].
#[derive(Debug)]
pub(crate) struct ArrivalTimes<R>(Times<R>);

#[derive(Debug)]
enum Times<R> {
    /// A Poisson or MMPP process under Lewis thinning.
    Thinned(Thinning<R>),
    /// Precomputed instants: a `Replay` list, or nothing at all.
    Replayed(std::vec::IntoIter<SimTime>),
}

/// Lewis-thinning state of one Poisson or MMPP process.
#[derive(Debug)]
struct Thinning<R> {
    rng: R,
    diurnal: Option<DiurnalProfile>,
    /// Candidate rate: the peak base rate times the diurnal peak.
    peak: f64,
    /// Mean gap between candidates, `1 / peak`.
    mean_gap_s: f64,
    horizon_s: f64,
    /// The last candidate instant, in seconds.
    t: f64,
    /// Base rate in the quiet and bursty states (equal for Poisson).
    rate_low: f64,
    rate_high: f64,
    /// Mean dwell time in the quiet and bursty states.
    dwell_low_s: f64,
    dwell_high_s: f64,
    /// Whether the MMPP is in its bursty state.
    high: bool,
    /// When the current MMPP state ends (never, for Poisson).
    state_until: f64,
}

impl<R: RngCore> Iterator for ArrivalTimes<R> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match &mut self.0 {
            Times::Thinned(th) => th.next(),
            Times::Replayed(times) => times.next(),
        }
    }
}

impl<R: RngCore> Thinning<R> {
    fn next(&mut self) -> Option<SimTime> {
        // A candidate already past the horizon ends the schedule; checking
        // first keeps an exhausted iterator from drawing again.
        while self.t < self.horizon_s {
            self.t += exp_draw(&mut self.rng, self.mean_gap_s);
            if self.t >= self.horizon_s {
                return None;
            }
            while self.state_until <= self.t {
                self.high = !self.high;
                let dwell = if self.high {
                    self.dwell_high_s
                } else {
                    self.dwell_low_s
                };
                self.state_until += exp_draw(&mut self.rng, dwell);
            }
            let base = if self.high {
                self.rate_high
            } else {
                self.rate_low
            };
            let modulation = self.diurnal.as_ref().map_or(1.0, |d| d.factor_at(self.t));
            if unit_f64(&mut self.rng) * self.peak < base * modulation {
                return Some(SimTime::ZERO.saturating_add(SimDuration::from_secs_f64(self.t)));
            }
        }
        None
    }
}

/// One exponential variate with the given mean (inverse-CDF method).
fn exp_draw<R: RngCore>(rng: &mut R, mean: f64) -> f64 {
    let u = unit_f64(rng);
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    fn stream(seed: u64, idx: u64) -> StreamRng {
        SimRng::new(seed).stream_indexed("fleet-arrival", idx)
    }

    #[test]
    fn poisson_hits_its_mean_rate() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 5.0 };
        let horizon = SimDuration::from_secs(10_000);
        let times = p.generate(None, horizon, &mut stream(1, 0));
        let expected = 5.0 * 10_000.0;
        let n = times.len() as f64;
        assert!(
            (n - expected).abs() < 0.03 * expected,
            "got {n}, expected ≈{expected}"
        );
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn poisson_inter_arrivals_are_exponential() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 2.0 };
        let horizon = SimDuration::from_secs(50_000);
        let times = p.generate(None, horizon, &mut stream(2, 0));
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean gap {mean}, expected 0.5");
        // Exponential: std dev equals the mean.
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let std = var.sqrt();
        assert!((std - 0.5).abs() < 0.05, "std {std}, expected ≈0.5");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean() {
        let horizon = SimDuration::from_secs(100_000);
        let mmpp = ArrivalProcess::Mmpp {
            rate_low: 0.2,
            rate_high: 8.0,
            dwell_low_s: 900.0,
            dwell_high_s: 100.0,
        };
        let mean = mmpp.mean_rate(horizon);
        let poisson = ArrivalProcess::Poisson { rate_per_sec: mean };
        let a = mmpp.generate(None, horizon, &mut stream(3, 0));
        let b = poisson.generate(None, horizon, &mut stream(3, 1));
        // Comparable mean counts (the MMPP's realized mean carries the
        // dwell-cycle variance, so the tolerance is generous)...
        let (na, nb) = (a.len() as f64, b.len() as f64);
        assert!((na - nb).abs() < 0.25 * nb, "counts {na} vs {nb}");
        // ...but the MMPP's per-minute counts have a much larger index of
        // dispersion (variance/mean; 1.0 for Poisson).
        let disp = |times: &[SimTime]| {
            let mut bins = vec![0.0_f64; (100_000 / 60) + 1];
            for t in times {
                bins[(t.as_nanos() / 60_000_000_000) as usize] += 1.0;
            }
            let m = bins.iter().sum::<f64>() / bins.len() as f64;
            let v = bins.iter().map(|c| (c - m) * (c - m)).sum::<f64>() / bins.len() as f64;
            v / m
        };
        let (da, db) = (disp(&a), disp(&b));
        assert!(db < 1.5, "poisson dispersion {db} should be ≈1");
        assert!(da > 3.0 * db, "mmpp dispersion {da} should dwarf {db}");
    }

    #[test]
    fn diurnal_modulation_shapes_the_day() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1.0 };
        // Peak at 1/4 of the day (sin peaks at π/2 ⇒ phase 0).
        let d = DiurnalProfile::daily(0.8, 0.0);
        let horizon = SimDuration::from_secs(86_400 * 20);
        let times = p.generate(Some(&d), horizon, &mut stream(4, 0));
        // Mean factor is 1, so the total count still matches the base rate.
        let expected = 86_400.0 * 20.0;
        let n = times.len() as f64;
        assert!((n - expected).abs() < 0.03 * expected, "count {n}");
        // Quarter-day around the sin peak vs the trough, folded over days.
        let day = 86_400_000_000_000_u64;
        let (mut peak_q, mut trough_q) = (0.0_f64, 0.0_f64);
        for t in &times {
            let off = t.as_nanos() % day;
            if (day / 8..3 * day / 8).contains(&off) {
                peak_q += 1.0;
            } else if (5 * day / 8..7 * day / 8).contains(&off) {
                trough_q += 1.0;
            }
        }
        assert!(
            peak_q > 2.0 * trough_q,
            "peak quarter {peak_q} vs trough quarter {trough_q}"
        );
    }

    #[test]
    fn replay_filters_to_horizon_and_sorts() {
        let p = ArrivalProcess::Replay {
            times: vec![
                SimTime::from_secs(5),
                SimTime::from_secs(1),
                SimTime::from_secs(99),
            ],
        };
        let got = p.generate(None, SimDuration::from_secs(10), &mut stream(5, 0));
        assert_eq!(got, vec![SimTime::from_secs(1), SimTime::from_secs(5)]);
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = ArrivalProcess::Mmpp {
            rate_low: 0.5,
            rate_high: 4.0,
            dwell_low_s: 300.0,
            dwell_high_s: 60.0,
        };
        let d = DiurnalProfile::daily(0.5, 1.0);
        let horizon = SimDuration::from_secs(10_000);
        let a = p.generate(Some(&d), horizon, &mut stream(7, 3));
        let b = p.generate(Some(&d), horizon, &mut stream(7, 3));
        assert_eq!(a, b);
        let c = p.generate(Some(&d), horizon, &mut stream(7, 4));
        assert_ne!(a, c, "different stream index must decorrelate");
    }
}
