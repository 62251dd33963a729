//! The Invoc-Overhead experiment — paper §6.4 and Figure 6.
//!
//! Estimates the black-box invocation overhead (time between the client
//! sending a request and the function body starting) as a function of the
//! payload size. Client and provider clocks disagree, so the driver first
//! runs the paper's min-RTT clock-drift estimation protocol (stop after
//! N = 10 consecutive non-improving round trips), then sweeps payloads
//! from 1 kB to 5.9 MB (the AWS HTTP limit) for cold and warm starts and
//! fits `overhead = a + b · payload`, reporting the adjusted R² that the
//! paper finds near 0.99/0.89/0.90 warm (AWS/Azure/GCP) and 0.94 cold AWS.

use sebs_platform::{FunctionConfig, ProviderKind, StartKind};
use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_stats::clocksync::PingPong;
use sebs_stats::{linear_fit, ClockSync, LinearFit, SyncOutcome};
use sebs_storage::ObjectStorage;
use sebs_workloads::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

use crate::config::SuiteConfig;
use crate::runner::ParallelRunner;
use crate::suite::Suite;

/// A trivial function used for ping-pong timestamping and payload sweeps:
/// it touches the payload and returns a tiny acknowledgement.
#[derive(Debug, Clone, Copy, Default)]
pub struct EchoWorkload;

impl Workload for EchoWorkload {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "echo".into(),
            language: Language::Python,
            dependencies: vec![],
            code_package_bytes: 8 * 1024,
            default_memory_mb: 128,
        }
    }

    fn prepare(
        &self,
        _scale: Scale,
        _rng: &mut StreamRng,
        _storage: &mut dyn ObjectStorage,
    ) -> Payload {
        Payload::empty()
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        // One pass over the payload — the language worker at least reads it.
        ctx.work(payload.size_bytes() / 8 + 1_000);
        Ok(Response::new(format!(
            "{{\"bytes\":{}}}",
            payload.size_bytes()
        )))
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadPoint {
    /// Payload size in bytes.
    pub payload_bytes: u64,
    /// Drift-corrected invocation overhead in milliseconds.
    pub overhead_ms: f64,
    /// Whether the serving container was cold.
    pub cold: bool,
}

/// Result of the experiment on one provider.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationOverheadResult {
    /// Provider measured.
    pub provider: ProviderKind,
    /// Outcome of the clock-synchronization protocol.
    pub sync: SyncOutcome,
    /// All sweep points.
    pub points: Vec<OverheadPoint>,
    /// Linear fit over warm points (payload bytes → overhead ms).
    pub warm_fit: Option<LinearFit>,
    /// Linear fit over cold points.
    pub cold_fit: Option<LinearFit>,
}

impl InvocationOverheadResult {
    /// Warm points only.
    pub fn warm_points(&self) -> impl Iterator<Item = &OverheadPoint> {
        self.points.iter().filter(|p| !p.cold)
    }

    /// Cold points only.
    pub fn cold_points(&self) -> impl Iterator<Item = &OverheadPoint> {
        self.points.iter().filter(|p| p.cold)
    }
}

/// Runs the experiment: clock sync, then a payload sweep with
/// `samples_per_size` warm and cold measurements per size.
pub fn run_invocation_overhead(
    suite: &mut Suite,
    provider: ProviderKind,
    payload_sizes: &[u64],
    samples_per_size: usize,
) -> InvocationOverheadResult {
    let echo = EchoWorkload;
    let platform = suite.platform_mut(provider);
    let fid = platform
        .deploy(
            FunctionConfig::new("echo", Language::Python, 128)
                .with_code_package(8 * 1024)
                .with_init_work(1_000_000),
        )
        // audit:allow(panic-hygiene): the echo benchmark is built in and deploys on every provider
        .expect("echo deploys everywhere");

    // Phase 1: clock synchronization over minimal payloads on a warm
    // container (paper: N = 10 non-improving RTTs).
    let tiny = Payload::empty();
    platform.invoke(fid, &echo, &tiny); // warm it up
    let mut sync = ClockSync::new(10);
    for _ in 0..500 {
        platform.advance(sebs_sim::SimDuration::from_millis(200));
        let r = platform.invoke(fid, &echo, &tiny);
        let done = sync.observe(PingPong {
            t_send: r.t_send_client,
            t_server: r.t_start_server,
            t_recv: r.t_recv_client,
        });
        if done {
            break;
        }
    }
    let sync = sync.finish();
    let offset = sync.offset_secs;

    // Phase 2: payload sweep, warm and cold.
    let mut points = Vec::new();
    for &size in payload_sizes {
        let payload = Payload {
            body: Bytes::from(vec![0u8; size as usize]),
            params: Vec::new(),
        };
        for i in 0..samples_per_size {
            // Warm measurement.
            platform.advance(sebs_sim::SimDuration::from_millis(500));
            let r = platform.invoke(fid, &echo, &payload);
            if r.outcome.is_success() && r.start == StartKind::Warm {
                points.push(OverheadPoint {
                    payload_bytes: size,
                    overhead_ms: r.invocation_overhead_secs(offset) * 1e3,
                    cold: false,
                });
            }
            // Cold measurement.
            platform.enforce_cold_start(fid);
            let r = platform.invoke(fid, &echo, &payload);
            if r.outcome.is_success() && r.start == StartKind::Cold {
                points.push(OverheadPoint {
                    payload_bytes: size,
                    overhead_ms: r.invocation_overhead_secs(offset) * 1e3,
                    cold: true,
                });
            }
            let _ = i;
        }
    }

    let fit_for = |cold: bool| {
        let (xs, ys): (Vec<f64>, Vec<f64>) = points
            .iter()
            .filter(|p| p.cold == cold)
            .map(|p| (p.payload_bytes as f64, p.overhead_ms))
            .unzip();
        linear_fit(&xs, &ys)
    };
    InvocationOverheadResult {
        provider,
        sync,
        warm_fit: fit_for(false),
        cold_fit: fit_for(true),
        points,
    }
}

/// Runs the experiment on every listed provider, one provider per work
/// item on `runner`'s workers. Each provider cell gets an independent
/// suite with a [`sebs_sim::SimRng::child`]-salted seed, and results come
/// back in `providers` order — identical for every worker count.
pub fn run_invocation_overhead_all(
    config: &SuiteConfig,
    providers: &[ProviderKind],
    payload_sizes: &[u64],
    samples_per_size: usize,
    runner: &ParallelRunner,
) -> Vec<InvocationOverheadResult> {
    runner.run(providers.len(), |i| {
        let seed = sebs_sim::SimRng::new(config.seed).child(i as u64).seed();
        let mut suite = Suite::new(config.clone().with_seed(seed));
        run_invocation_overhead(&mut suite, providers[i], payload_sizes, samples_per_size)
    })
}

/// The paper's sweep: 1 kB to 5.9 MB (the 6 MB AWS endpoint limit).
pub fn paper_payload_sizes() -> Vec<u64> {
    vec![
        1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 5_900_000,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuiteConfig;
    use crate::suite::Suite;

    fn run(provider: ProviderKind) -> InvocationOverheadResult {
        let mut suite = Suite::new(SuiteConfig::fast().with_seed(404));
        run_invocation_overhead(
            &mut suite,
            provider,
            &[1_000, 500_000, 2_000_000, 5_900_000],
            4,
        )
    }

    #[test]
    fn clock_sync_converges_and_estimates_offset() {
        let mut suite = Suite::new(SuiteConfig::fast().with_seed(404));
        let result = run_invocation_overhead(&mut suite, ProviderKind::Aws, &[1_000], 2);
        assert!(result.sync.converged);
        let true_offset = suite
            .platform_mut(ProviderKind::Aws)
            .server_clock()
            .offset_secs();
        // The min-RTT estimate lands within half the min RTT of the truth.
        let err = (result.sync.offset_secs - true_offset).abs();
        assert!(
            err <= result.sync.min_rtt_secs,
            "offset error {err} vs min rtt {}",
            result.sync.min_rtt_secs
        );
    }

    #[test]
    fn warm_overhead_scales_linearly_with_payload() {
        let result = run(ProviderKind::Aws);
        let fit = result.warm_fit.expect("enough warm points");
        assert!(
            fit.adjusted_r_squared > 0.9,
            "paper reports R² ≈ 0.99 for AWS warm, got {}",
            fit.adjusted_r_squared
        );
        assert!(fit.slope > 0.0, "larger payloads take longer");
        // Transfer at 30 MB/s ⇒ ~33 ms per MB.
        let per_mb = fit.slope * 1e6;
        assert!((10.0..120.0).contains(&per_mb), "slope {per_mb} ms/MB");
    }

    #[test]
    fn aws_cold_also_fits_linearly_but_higher() {
        let result = run(ProviderKind::Aws);
        let cold = result.cold_fit.expect("enough cold points");
        let warm = result.warm_fit.unwrap();
        assert!(
            cold.adjusted_r_squared > 0.8,
            "paper: AWS cold fits with R² ≈ 0.94, got {}",
            cold.adjusted_r_squared
        );
        assert!(
            cold.intercept > warm.intercept,
            "cold baseline overhead larger: {} vs {}",
            cold.intercept,
            warm.intercept
        );
    }

    #[test]
    fn azure_cold_starts_fit_poorly() {
        // §6.4 Q1: Azure/GCP cold starts "cannot be easily explained".
        let result = run(ProviderKind::Azure);
        let warm = result.warm_fit.unwrap();
        let cold = result.cold_fit.unwrap();
        assert!(
            cold.adjusted_r_squared < warm.adjusted_r_squared,
            "cold fit {} should be worse than warm {}",
            cold.adjusted_r_squared,
            warm.adjusted_r_squared
        );
    }

    #[test]
    fn all_providers_sweep_is_invariant_to_worker_count() {
        let config = SuiteConfig::fast().with_seed(404);
        let providers = [ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp];
        let run = |jobs: usize| {
            run_invocation_overhead_all(
                &config,
                &providers,
                &[1_000, 2_000_000],
                2,
                &ParallelRunner::new(jobs),
            )
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 3);
        assert_eq!(sequential[0].provider, ProviderKind::Aws);
        assert_eq!(sequential[2].provider, ProviderKind::Gcp);
        assert_eq!(run(3), sequential, "worker count is invisible");
    }

    #[test]
    fn points_cover_both_temperatures() {
        let result = run(ProviderKind::Gcp);
        assert!(result.warm_points().count() >= 8);
        assert!(result.cold_points().count() >= 8);
        assert!(result.points.iter().all(|p| p.overhead_ms.is_finite()));
    }
}
