//! Clocks for SeBS-RS endpoints.
//!
//! [`clock`] provides per-endpoint drifting clocks, so client and provider
//! timestamps disagree and the min-RTT synchronization protocol (§6.4) has
//! something real to estimate.
//!
//! The wide-area network itself is not modelled here: each provider
//! profile carries its client round-trip-time distribution
//! (`ProviderProfile::client_rtt_ms`), and the platform's invoke path adds
//! payload-linear transfer time at the client bandwidth (the Figure 6
//! model).

pub mod clock;

pub use clock::DriftingClock;
