//! Cross-crate test: the min-RTT clock-sync protocol (sebs-stats) running
//! over a simulated noisy channel with drifting endpoint clocks
//! (sebs-cloud) — the §6.4 measurement chain without the platform in
//! between.

use sebs_cloud::DriftingClock;
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::{Dist, SimDuration, SimRng, SimTime};
use sebs_stats::clocksync::PingPong;
use sebs_stats::ClockSync;

/// One-way delay of a 200-byte message: half a heavy-tailed RTT plus
/// serialization at 50 MB/s.
fn one_way(rng: &mut StreamRng) -> SimDuration {
    Dist::shifted_lognormal(18.0, 1.8, 0.7).sample_millis(rng) / 2
        + SimDuration::from_secs_f64(200.0 / 50e6)
}

/// Simulates `n` ping-pong exchanges over the channel and returns the
/// protocol's outcome plus the true offset at the end.
fn run_protocol(seed: u64, n_threshold: usize, offset: f64, skew: f64) -> (f64, f64, bool) {
    let client_clock = DriftingClock::ideal();
    let server_clock = DriftingClock::new(offset, skew);
    let mut rng = SimRng::new(seed).stream("sync");
    let mut sync = ClockSync::new(n_threshold);
    let mut now = SimTime::from_secs(100);
    for _ in 0..500 {
        let out = one_way(&mut rng);
        let back = one_way(&mut rng);
        let t_send = client_clock.read(now);
        let t_server = server_clock.read(now + out);
        let t_recv = client_clock.read(now + out + back);
        let done = sync.observe(PingPong {
            t_send,
            t_server,
            t_recv,
        });
        now += out + back + SimDuration::from_millis(rng.gen_range(5..50));
        if done {
            break;
        }
    }
    let outcome = sync.finish();
    let true_offset = server_clock.offset_against(&client_clock, now);
    (outcome.offset_secs, true_offset, outcome.converged)
}

#[test]
fn protocol_converges_and_recovers_the_offset() {
    for (seed, offset) in [(1u64, 12.5f64), (2, -40.0), (3, 0.001)] {
        let (estimated, true_offset, converged) = run_protocol(seed, 10, offset, 0.0);
        assert!(converged, "seed {seed}: protocol must converge");
        let err = (estimated - true_offset).abs();
        // Asymmetry error is bounded by half the (heavy-tailed) RTT; with
        // min-RTT selection it lands in the few-ms range.
        assert!(
            err < 0.05,
            "seed {seed}: offset error {err}s for true offset {true_offset}"
        );
    }
}

#[test]
fn skewed_clocks_still_estimated_within_tolerance() {
    // 50 ppm of skew over the protocol's ~seconds of runtime moves the
    // offset by far less than the RTT noise floor.
    let (estimated, true_offset, converged) = run_protocol(7, 10, 5.0, 50e-6);
    assert!(converged);
    assert!((estimated - true_offset).abs() < 0.05);
}

#[test]
fn stricter_thresholds_use_more_exchanges() {
    let exchanges = |threshold: usize| {
        let mut rng = SimRng::new(11).stream("sync");
        let mut sync = ClockSync::new(threshold);
        let mut count = 0;
        for _ in 0..500 {
            let out = one_way(&mut rng);
            let back = one_way(&mut rng);
            count += 1;
            if sync.observe(PingPong {
                t_send: 0.0,
                t_server: out.as_secs_f64(),
                t_recv: (out + back).as_secs_f64(),
            }) {
                break;
            }
        }
        count
    };
    assert!(exchanges(20) >= exchanges(3));
}
