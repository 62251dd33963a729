//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The simulator never consults the wall clock. All latencies are expressed
//! as [`SimDuration`] values and accumulated onto [`SimTime`] instants by the
//! platform clocks. Both types are thin wrappers over `u64` nanoseconds, chosen
//! so that a simulation can span ~584 years without overflow while still
//! resolving sub-microsecond sandbox overheads.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// simulation epoch (time zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the epoch (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; virtual time never runs
    /// backwards, so this indicates a logic error in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        // audit:allow(panic-hygiene): documented invariant — virtual time
        // never runs backwards, so a panic here flags a caller logic error.
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: `earlier` is later than `self`"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`]: returns zero when
    /// `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration of `millis` milliseconds, or `None` when that
    /// many nanoseconds overflow `u64` — for counts that come from outside
    /// the program.
    pub const fn checked_from_millis(millis: u64) -> Option<Self> {
        match millis.checked_mul(1_000_000) {
            Some(nanos) => Some(SimDuration(nanos)),
            None => None,
        }
    }

    /// Creates a duration of `secs` seconds, or `None` when that many
    /// nanoseconds overflow `u64` (beyond about 584 years) — for counts
    /// that come from outside the program.
    pub const fn checked_from_secs(secs: u64) -> Option<Self> {
        match secs.checked_mul(1_000_000_000) {
            Some(nanos) => Some(SimDuration(nanos)),
            None => None,
        }
    }

    /// Creates a duration from a float number of seconds, truncating below
    /// one nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Creates a duration from a float number of milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncated).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Addition that saturates at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtraction that saturates at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Rounds the duration *up* to the nearest multiple of `quantum`.
    ///
    /// This is the billing primitive: AWS and GCP round execution time up to
    /// 100 ms increments (paper §6.3 Q2). A zero `quantum` returns the
    /// duration unchanged.
    pub fn round_up_to(self, quantum: SimDuration) -> SimDuration {
        if quantum.0 == 0 {
            return self;
        }
        let q = quantum.0;
        let rounded = self.0.div_ceil(q).saturating_mul(q);
        SimDuration(rounded)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let d = SimDuration::from_millis(1500);
        assert_eq!(d.as_secs_f64(), 1.5);
        assert_eq!(d.as_millis(), 1500);
        assert_eq!(d.as_micros(), 1_500_000);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!(!d.is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1.as_secs_f64(), 15.0);
        assert_eq!(t1.duration_since(t0), SimDuration::from_secs(5));
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        assert_eq!(
            t0.saturating_duration_since(t1),
            SimDuration::ZERO,
            "saturating difference in the wrong direction is zero"
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_backwards() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn round_up_to_billing_quantum() {
        let q = SimDuration::from_millis(100);
        assert_eq!(SimDuration::from_millis(1).round_up_to(q).as_millis(), 100);
        assert_eq!(
            SimDuration::from_millis(100).round_up_to(q).as_millis(),
            100
        );
        assert_eq!(
            SimDuration::from_millis(101).round_up_to(q).as_millis(),
            200
        );
        assert_eq!(SimDuration::ZERO.round_up_to(q), SimDuration::ZERO);
        // Zero quantum is the identity.
        let d = SimDuration::from_millis(37);
        assert_eq!(d.round_up_to(SimDuration::ZERO), d);
    }

    #[test]
    fn checked_from_secs_stops_at_the_largest_whole_second() {
        let max = u64::MAX / 1_000_000_000;
        assert_eq!(
            SimDuration::checked_from_secs(max),
            Some(SimDuration::from_secs(max))
        );
        assert_eq!(SimDuration::checked_from_secs(max + 1), None);
        assert_eq!(SimDuration::checked_from_secs(0), Some(SimDuration::ZERO));
    }

    #[test]
    fn checked_from_millis_stops_at_the_largest_whole_millisecond() {
        let max = u64::MAX / 1_000_000;
        assert_eq!(
            SimDuration::checked_from_millis(max),
            Some(SimDuration::from_millis(max))
        );
        assert_eq!(SimDuration::checked_from_millis(max + 1), None);
        assert_eq!(SimDuration::checked_from_millis(0), Some(SimDuration::ZERO));
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn mul_div_and_sum() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(30));
    }

    #[test]
    fn display_formats_by_magnitude() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.00us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert!(SimTime::from_secs(1).to_string().starts_with("t=1.0"));
    }

    #[test]
    fn std_duration_conversion() {
        let d: SimDuration = std::time::Duration::from_millis(250).into();
        assert_eq!(d.as_millis(), 250);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
