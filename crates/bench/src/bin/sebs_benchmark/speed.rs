//! Host-speed scaling of the end-to-end timings.
//!
//! The benchmark shares its cores with other tenants. Their load switches
//! on and off every few milliseconds and its level drifts over minutes, so
//! a repetition's wall time measures the neighbours as much as the
//! program. On a shared 2-vCPU Intel Xeon VM, over sets of ten 30-second
//! runs, the quartile distance over the median of a run's fastest
//! repetition rate was 6–28%, and of its median rate 8–27%.
//!
//! So a fixed probe is timed right before and right after every timed
//! measurement, and the measurement is scaled by the faster of those two
//! readings over [`REFERENCE_NS`]. A scaled rate reads as the rate on a
//! host where the probe takes exactly [`REFERENCE_NS`]. In the same runs,
//! the median scaled rate spread 4–13%. The scaling is partial: the
//! replays are more sensitive to the neighbours than the probe is, so a
//! long busy spell still lowers the scaled rates.
//!
//! The probe is the benchmark's own code, so no change to the program can
//! speed it up or slow it down. It chases pointers around a random cycle
//! that fits in L2 and mixes every index into a hash behind a
//! data-dependent branch: dependent loads, integer arithmetic and
//! branches, the same kind of work as the simulator's. It allocates
//! nothing after construction, so the program's heap cannot touch it.

use crate::spans::now_ns;

/// Probe time (ns) on the reference host: the shared 2-vCPU Intel Xeon VM
/// above, when its neighbours are quiet (the 5th percentile of its
/// readings).
pub const REFERENCE_NS: f64 = 6.0e6;

/// Slots of the pointer cycle: 256 KiB of `u32`.
const SLOTS: usize = 1 << 16;

/// Pointer hops per probe reading.
const STEPS: usize = 1_000_000;

/// The probe and its latest reading.
pub struct SpeedProbe {
    next: Vec<u32>,
    last_ns: u64,
}

impl SpeedProbe {
    /// Builds the cycle and takes a first reading.
    pub fn new() -> SpeedProbe {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        // Sattolo's algorithm: one cycle through every slot.
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        let mut probe = SpeedProbe { next, last_ns: 0 };
        probe.last_ns = probe.read();
        probe
    }

    /// Times one walk of [`STEPS`] hops (ns).
    fn read(&self) -> u64 {
        let start = now_ns();
        let mut i = 0u32;
        let mut h = 0u64;
        for _ in 0..STEPS {
            i = self.next[i as usize];
            h = (h ^ u64::from(i)).wrapping_mul(0x100_0000_01B3);
            h = h.rotate_left(17).wrapping_add(h >> 7);
            if h & 0x8000 != 0 {
                h = h.wrapping_add(u64::from(i) * 3);
            }
        }
        std::hint::black_box(h);
        now_ns().saturating_sub(start).max(1)
    }

    /// How much slower than the reference host this host ran around the
    /// measurement that just ended: the faster of the readings before and
    /// after it, over [`REFERENCE_NS`]. Multiply a rate by it, divide a
    /// time by it.
    pub fn slowdown(&mut self) -> f64 {
        let now = self.read();
        let slowdown = self.last_ns.min(now) as f64 / REFERENCE_NS;
        self.last_ns = now;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_slot_once() {
        let probe = SpeedProbe::new();
        let mut seen = vec![false; SLOTS];
        let mut i = 0usize;
        for _ in 0..SLOTS {
            assert!(!seen[i], "slot {i} visited twice");
            seen[i] = true;
            i = probe.next[i] as usize;
        }
        assert_eq!(i, 0, "the walk returns to its start after every slot");
    }

    #[test]
    fn slowdown_is_positive_and_finite() {
        let mut probe = SpeedProbe::new();
        let s = probe.slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
