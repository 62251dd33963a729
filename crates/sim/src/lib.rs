//! Deterministic simulation kernel for SeBS-RS.
//!
//! This crate provides the substrate on which the FaaS platform model is
//! built: a virtual clock ([`SimTime`] / [`SimDuration`]), a deterministic
//! multi-stream random number generator ([`rng::SimRng`]), probability
//! distributions for latency modelling ([`dist::Dist`]), the sim-time phase
//! profiler ([`profile`]) and the stable [`fnv1a`] name hash.
//!
//! There is no event queue here: experiment drivers walk an
//! already-sorted arrival stream and advance the platform clock to each
//! event in turn (the replay loop in `sebs::experiments`).
//!
//! Everything is deterministic given a seed: running the same experiment
//! twice produces bit-identical results, which is the property the paper's
//! methodology section (reproducibility, confidence intervals within 5% of
//! the median) relies on.
//!
//! # Example
//!
//! ```
//! use sebs_sim::{Rng, SimDuration, SimRng, SimTime};
//!
//! let mut a = SimRng::new(42).stream("arrivals");
//! let mut b = SimRng::new(42).stream("arrivals");
//! let gap = SimDuration::from_millis(a.gen_range(1u64..100));
//! assert_eq!(gap, SimDuration::from_millis(b.gen_range(1u64..100)));
//! let t = SimTime::ZERO.saturating_add(gap);
//! assert_eq!(t.saturating_duration_since(SimTime::ZERO), gap);
//! ```

pub mod bytes;
pub mod dist;
pub mod profile;
pub mod rng;
pub mod time;

pub use bytes::Bytes;
pub use dist::Dist;
pub use profile::{Phase, PhaseProfiler, PhaseStat};
pub use rng::{Rng, RngCore, SimRng, StreamRng};
pub use time::{SimDuration, SimTime};

/// 64-bit FNV-1a over `bytes`: the stable name hash behind fleet cell
/// partitioning and per-function RNG stream salts. Unlike `std`'s keyed
/// hasher it is the same in every process, on every platform and for
/// every fleet size.
///
/// ```
/// assert_eq!(sebs_sim::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(sebs_sim::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
