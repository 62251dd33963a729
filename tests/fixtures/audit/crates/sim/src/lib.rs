//! The fixture's deterministic core: `Engine::run` is a taint entry point.

use fixture_util::tick;

pub struct Engine {
    pub processed: u64,
}

impl Engine {
    /// Launders a wall-clock read through `fixture_util::tick` — the
    /// two-hop cross-crate chain the taint rule must print.
    pub fn run(&mut self) -> u64 {
        self.processed += 1;
        tick()
    }
}

/// VIOLATION wall-clock (lexical): a direct host-clock read inside a
/// deterministic-core crate. Unreachable from any entry point, so only the
/// line rule fires — not determinism-taint.
pub fn legacy_clock() -> u64 {
    let t = SystemTime::now();
    t.as_millis()
}

/// VIOLATION instant-usage (lexical): naming `std::time::Instant` at all is
/// forbidden in every file, even in a type position.
pub fn deadline_of(_t: std::time::Instant) {}

// VIOLATION stale-allow: this suppression covers a function that violates
// nothing, so stale-allow detection must report it.
// audit:allow(wall-clock): stale on purpose — nothing below reads a clock
pub fn innocent() -> u64 {
    41
}
