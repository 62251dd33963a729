//! The Eviction-Model experiment — paper §6.5, Figure 7, Table 7,
//! Equations 1–2.
//!
//! At time t₀ the driver warms `D_init` containers with a concurrent
//! burst, waits `ΔT`, then probes how many containers are still warm.
//! Sweeping `(D_init, ΔT)` over Table 7's ranges — across memory sizes,
//! function execution times, languages and code-package sizes — yields the
//! observations the half-life model `D_warm = D_init · 2^−⌊ΔT/P⌋` is
//! fitted to, recovering P ≈ 380 s on the AWS profile with R² > 0.99.

use sebs_platform::{FunctionConfig, ProviderKind};
use sebs_sim::rng::StreamRng;
use sebs_sim::SimDuration;
use sebs_stats::eviction::optimal_batch_size;
use sebs_stats::{fit_eviction_model, EvictionFit, EvictionObservation};
use sebs_storage::ObjectStorage;
use sebs_workloads::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

use crate::suite::Suite;

/// A function that sleeps for a configured duration — the probe function
/// of the eviction experiment (the paper sweeps 1–10 s sleep times).
#[derive(Debug, Clone, Copy)]
pub struct SleepWorkload {
    /// Language variant.
    pub language: Language,
    /// Busy time per invocation.
    pub sleep: SimDuration,
    /// Code package size (Table 7 sweeps 8 kB and 250 MB).
    pub code_package_bytes: u64,
}

impl Workload for SleepWorkload {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "sleep".into(),
            language: self.language,
            dependencies: vec![],
            code_package_bytes: self.code_package_bytes,
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
        _payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        // Sleeping is I/O-shaped work: occupies the sandbox without CPU.
        ctx.external_io(self.sleep);
        ctx.work(10_000);
        Ok(Response::new("slept"))
    }
}

/// One experiment configuration (a Figure 7 panel).
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionExperimentConfig {
    /// Provider under test.
    pub provider: ProviderKind,
    /// Language of the probe function.
    pub language: Language,
    /// Memory configuration (MB).
    pub memory_mb: u32,
    /// Probe function execution time.
    pub sleep: SimDuration,
    /// Code package size in bytes.
    pub code_package_bytes: u64,
    /// Initial warm batch sizes to sweep (Table 7: 1–20).
    pub d_init: Vec<u32>,
    /// Wait times to sweep, seconds (Table 7: 1–1600 s).
    pub delta_t_secs: Vec<u64>,
}

impl EvictionExperimentConfig {
    /// The paper's default panel: Python, 128 MB, 1 s function, small
    /// package, on AWS.
    pub fn paper_default(provider: ProviderKind) -> EvictionExperimentConfig {
        EvictionExperimentConfig {
            provider,
            language: Language::Python,
            memory_mb: 128,
            sleep: SimDuration::from_secs(1),
            code_package_bytes: 8 * 1024,
            d_init: vec![1, 2, 4, 8, 16, 20],
            // Dense enough around the halving boundaries (≈380·k) that the
            // grid fit pins the period — the paper probes ΔT at second
            // granularity across 1–1600 s.
            delta_t_secs: vec![
                1, 100, 200, 300, 379, 380, 500, 600, 700, 760, 900, 1000, 1140, 1200, 1400, 1520,
                1600,
            ],
        }
    }
}

/// Result of one eviction experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionModelResult {
    /// The configuration measured.
    pub config: EvictionExperimentConfig,
    /// Raw observations.
    pub observations: Vec<EvictionObservation>,
    /// The fitted Equation-1 model, when fitting succeeded.
    pub fit: Option<EvictionFit>,
}

impl EvictionModelResult {
    /// Equation 2: the optimal initial batch size to keep `n` instances of
    /// a function with runtime `t` warm, under the fitted period.
    ///
    /// Returns `None` when no model was fitted.
    pub fn optimal_batch(&self, n_instances: u64, runtime_secs: f64) -> Option<f64> {
        self.fit
            .map(|f| optimal_batch_size(n_instances, runtime_secs, f.period_secs))
    }
}

/// Runs the eviction experiment for one configuration.
pub fn run_eviction_model(
    suite: &mut Suite,
    config: EvictionExperimentConfig,
) -> EvictionModelResult {
    let workload = SleepWorkload {
        language: config.language,
        sleep: config.sleep,
        code_package_bytes: config.code_package_bytes,
    };
    let platform = suite.platform_mut(config.provider);
    let fid = platform
        .deploy(
            FunctionConfig::new("sleep", config.language, config.memory_mb)
                .with_code_package(config.code_package_bytes)
                .with_init_work(1_000_000),
        )
        // audit:allow(panic-hygiene): the built-in sleep benchmark is registered by the suite constructor
        .expect("sleep function deploys");
    let payload = Payload::empty();

    let mut observations = Vec::new();
    for &d_init in &config.d_init {
        for &dt in &config.delta_t_secs {
            // Fresh batch: kill everything, then warm D_init containers.
            platform.enforce_cold_start(fid);
            let payloads = vec![payload.clone(); d_init as usize];
            let records = platform.invoke_burst(fid, &workload, &payloads);
            // Containers release when their provider time elapses; ΔT is
            // measured from that release, as in the paper's protocol.
            let busy = records
                .iter()
                .map(|r| r.provider_time)
                .max()
                .unwrap_or(SimDuration::ZERO);
            platform.advance(busy + SimDuration::from_millis(1));
            // Wait ΔT, then probe.
            platform.advance(SimDuration::from_secs(dt));
            let d_warm = platform.warm_containers(fid) as u32;
            observations.push(EvictionObservation {
                d_init,
                delta_t_secs: dt as f64,
                d_warm,
            });
        }
    }
    let fit = fit_eviction_model(&observations, 10.0, 1600.0);
    EvictionModelResult {
        config,
        observations,
        fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SuiteConfig;
    use crate::suite::Suite;

    fn run(mut config: EvictionExperimentConfig) -> EvictionModelResult {
        // Trim the sweep for test speed.
        config.d_init = vec![4, 8, 16];
        config.delta_t_secs = vec![1, 120, 300, 420, 600, 780, 900, 1140, 1500];
        let mut suite = Suite::new(SuiteConfig::fast().with_seed(505));
        run_eviction_model(&mut suite, config)
    }

    #[test]
    fn aws_fit_recovers_380s_half_life() {
        let result = run(EvictionExperimentConfig::paper_default(ProviderKind::Aws));
        let fit = result.fit.expect("model fits");
        assert!(
            (fit.period_secs - 380.0).abs() < 45.0,
            "fitted period {}",
            fit.period_secs
        );
        assert!(
            fit.r_squared > 0.95,
            "paper: R² > 0.99; got {}",
            fit.r_squared
        );
    }

    #[test]
    fn aws_policy_is_agnostic_to_memory_and_language() {
        // Figure 7a–7e: same halving pattern for Node.js, for 1536 MB and
        // for 10 s functions.
        let base = run(EvictionExperimentConfig::paper_default(ProviderKind::Aws));
        let mut node = EvictionExperimentConfig::paper_default(ProviderKind::Aws);
        node.language = Language::NodeJs;
        let node = run(node);
        let mut big = EvictionExperimentConfig::paper_default(ProviderKind::Aws);
        big.memory_mb = 1536;
        big.sleep = SimDuration::from_secs(10);
        let big = run(big);
        let base_p = base.fit.unwrap().period_secs;
        assert!((node.fit.unwrap().period_secs - base_p).abs() < 60.0);
        assert!((big.fit.unwrap().period_secs - base_p).abs() < 60.0);
    }

    #[test]
    fn observations_match_equation_one_exactly_on_aws() {
        let result = run(EvictionExperimentConfig::paper_default(ProviderKind::Aws));
        for obs in &result.observations {
            let expected =
                (obs.d_init as f64 * 0.5f64.powi((obs.delta_t_secs / 380.0) as i32)).ceil() as u32;
            assert_eq!(
                obs.d_warm, expected,
                "D_init={} ΔT={}",
                obs.d_init, obs.delta_t_secs
            );
        }
    }

    #[test]
    fn optimal_batch_uses_fitted_period() {
        let result = run(EvictionExperimentConfig::paper_default(ProviderKind::Aws));
        let batch = result.optimal_batch(1000, 1.9).unwrap();
        // n·t/P with P ≈ 380 → ≈ 5.
        assert!((3.0..8.0).contains(&batch), "batch {batch}");
    }

    #[test]
    fn code_package_size_does_not_change_the_period() {
        // Figure 7f: a 250 MB package shows the same eviction pattern.
        let mut cfg = EvictionExperimentConfig::paper_default(ProviderKind::Aws);
        cfg.code_package_bytes = 250_000_000;
        let result = run(cfg);
        let fit = result.fit.unwrap();
        assert!((fit.period_secs - 380.0).abs() < 45.0);
    }
}
