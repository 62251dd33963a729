//! The suite facade: deploy benchmarks to simulated providers and invoke
//! them — the equivalent of the SeBS toolkit's deployment client, which
//! creates cloud resources, builds code packages and caches deployed
//! functions (paper §5.2 "Deployment").

use std::collections::BTreeMap;
use std::sync::Arc;

use sebs_platform::{
    AttemptChain, FaasPlatform, FunctionConfig, FunctionId, InvocationRecord, ProviderKind,
    ProviderProfile,
};
use sebs_workloads::{workload_by_name, Language, Payload, Scale, Workload};

use crate::config::SuiteConfig;

/// A deployed benchmark: the handle invocations go through.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedBenchmark {
    /// The provider hosting the function.
    pub provider: ProviderKind,
    /// Platform-level function id.
    pub function: FunctionId,
    /// Benchmark name.
    pub benchmark: String,
    /// Language of the deployed variant.
    pub language: Language,
    /// Configured memory in MB.
    pub memory_mb: u32,
    /// The prepared invocation payload.
    pub payload: Payload,
}

/// Errors from suite-level operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// Unknown benchmark/language combination.
    UnknownBenchmark(String),
    /// The platform rejected the deployment.
    Deploy(String),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::UnknownBenchmark(b) => write!(f, "unknown benchmark: {b}"),
            SuiteError::Deploy(e) => write!(f, "deployment failed: {e}"),
        }
    }
}

impl std::error::Error for SuiteError {}

/// The benchmark suite: one simulated platform per provider plus the
/// workload registry and deployment cache.
pub struct Suite {
    config: SuiteConfig,
    platforms: BTreeMap<ProviderKind, FaasPlatform>,
    workloads: BTreeMap<(String, Language), Arc<dyn Workload + Send + Sync>>,
}

impl std::fmt::Debug for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suite")
            .field("config", &self.config)
            .field("platforms", &self.platforms.len())
            .finish()
    }
}

impl Suite {
    /// Creates a suite with simulated AWS, Azure and GCP platforms.
    pub fn new(config: SuiteConfig) -> Suite {
        let mut platforms = BTreeMap::new();
        for kind in [ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp] {
            let mut platform = FaasPlatform::new(
                ProviderProfile::for_kind(kind),
                config.seed ^ kind_salt(kind),
            );
            config.install_observers(&mut platform);
            if !config.faults.is_empty() {
                platform.set_faults(config.faults.clone());
            }
            if !config.retry.is_none() {
                platform.set_retry_policy(config.retry.clone());
            }
            platforms.insert(kind, platform);
        }
        Suite {
            config,
            platforms,
            workloads: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Direct access to a provider's platform (experiments use this for
    /// time control and storage preparation).
    pub fn platform_mut(&mut self, kind: ProviderKind) -> &mut FaasPlatform {
        self.platforms
            .get_mut(&kind)
            // audit:allow(panic-hygiene): the constructor creates a platform for every ProviderKind
            .expect("all providers are instantiated")
    }

    /// Replaces a provider's platform (ablations: custom profiles).
    pub fn set_platform(&mut self, kind: ProviderKind, platform: FaasPlatform) {
        self.platforms.insert(kind, platform);
    }

    /// Deploys a benchmark by name, preparing its storage inputs at the
    /// given scale.
    ///
    /// # Errors
    ///
    /// Returns [`SuiteError`] for unknown benchmarks or rejected
    /// deployments (e.g. memory outside the provider's policy).
    pub fn deploy(
        &mut self,
        provider: ProviderKind,
        benchmark: &str,
        language: Language,
        memory_mb: u32,
        scale: Scale,
    ) -> Result<DeployedBenchmark, SuiteError> {
        let workload = self
            .workload(benchmark, language)
            .ok_or_else(|| SuiteError::UnknownBenchmark(format!("{benchmark} ({language})")))?;
        let spec = workload.spec();
        let platform = self
            .platforms
            .get_mut(&provider)
            // audit:allow(panic-hygiene): the constructor creates a platform for every ProviderKind
            .expect("all providers are instantiated");
        let config = FunctionConfig::new(&spec.name, language, memory_mb)
            .with_code_package(spec.code_package_bytes)
            .with_init_work(spec.code_package_bytes / 4);
        let function = platform
            .deploy(config)
            .map_err(|e| SuiteError::Deploy(e.to_string()))?;
        let payload = platform.prepare(workload.as_ref(), scale);
        Ok(DeployedBenchmark {
            provider,
            function,
            benchmark: benchmark.to_string(),
            language,
            memory_mb,
            payload,
        })
    }

    /// Invokes a deployed benchmark once.
    pub fn invoke(&mut self, handle: &DeployedBenchmark) -> InvocationRecord {
        // audit:allow(panic-hygiene): invoke_burst(1) returns exactly one record by construction
        self.invoke_burst(handle, 1).pop().expect("burst of one")
    }

    /// Invokes a deployed benchmark once under the configured retry
    /// policy, returning the full attempt chain. With the default
    /// [`sebs_resilience::RetryPolicy::none`] this is exactly one plain
    /// [`Suite::invoke`].
    pub fn invoke_resilient(&mut self, handle: &DeployedBenchmark) -> AttemptChain {
        let workload = self
            .workload(&handle.benchmark, handle.language)
            // audit:allow(panic-hygiene): handles are only issued for registered benchmarks
            .expect("deployed benchmark stays registered");
        let platform = self
            .platforms
            .get_mut(&handle.provider)
            // audit:allow(panic-hygiene): the constructor creates a platform for every ProviderKind
            .expect("all providers are instantiated");
        platform.invoke_with_policy(handle.function, workload.as_ref(), &handle.payload)
    }

    /// Invokes a deployed benchmark with `n` concurrent requests (HTTP
    /// trigger, as in the paper's experiments).
    pub fn invoke_burst(&mut self, handle: &DeployedBenchmark, n: usize) -> Vec<InvocationRecord> {
        self.invoke_burst_via(handle, n, sebs_platform::TriggerKind::Http)
    }

    /// Invokes with an explicit trigger kind (SDK, storage event, timer).
    pub fn invoke_burst_via(
        &mut self,
        handle: &DeployedBenchmark,
        n: usize,
        trigger: sebs_platform::TriggerKind,
    ) -> Vec<InvocationRecord> {
        let workload = self
            .workload(&handle.benchmark, handle.language)
            // audit:allow(panic-hygiene): handles are only issued for registered benchmarks
            .expect("deployed benchmark stays registered");
        let platform = self
            .platforms
            .get_mut(&handle.provider)
            // audit:allow(panic-hygiene): the constructor creates a platform for every ProviderKind
            .expect("all providers are instantiated");
        let payloads = vec![handle.payload.clone(); n];
        platform.invoke_burst_via(handle.function, workload.as_ref(), &payloads, trigger)
    }

    /// Forces the next invocations of this benchmark to be cold.
    pub fn enforce_cold_start(&mut self, handle: &DeployedBenchmark) {
        self.platforms
            .get_mut(&handle.provider)
            // audit:allow(panic-hygiene): the constructor creates a platform for every ProviderKind
            .expect("all providers are instantiated")
            .enforce_cold_start(handle.function);
    }

    /// Advances a provider's clock.
    pub fn advance(&mut self, provider: ProviderKind, d: sebs_sim::SimDuration) {
        self.platform_mut(provider).advance(d);
    }

    /// Drains every platform's collected invocation traces in provider
    /// order (AWS, Azure, GCP) — empty unless the config enabled tracing.
    pub fn take_traces(&mut self) -> Vec<sebs_trace::InvocationTrace> {
        self.platforms
            .values_mut()
            .flat_map(FaasPlatform::take_traces)
            .collect()
    }

    /// Drains every platform's collected metrics into one sink, in
    /// provider order (AWS, Azure, GCP). Providers that saw no activity
    /// are skipped; the sink is empty unless the config enabled metrics.
    pub fn take_metrics(&mut self) -> sebs_telemetry::MetricsSink {
        let mut sink = sebs_telemetry::MetricsSink::new();
        for platform in self.platforms.values_mut() {
            if let Some(chunk) = platform.take_metrics() {
                if !chunk.is_idle() {
                    sink.push(chunk);
                }
            }
        }
        sink
    }

    fn workload(
        &mut self,
        name: &str,
        language: Language,
    ) -> Option<Arc<dyn Workload + Send + Sync>> {
        let key = (name.to_string(), language);
        if !self.workloads.contains_key(&key) {
            let wl = workload_by_name(name, language)?;
            self.workloads.insert(key.clone(), Arc::from(wl));
        }
        self.workloads.get(&key).cloned()
    }
}

fn kind_salt(kind: ProviderKind) -> u64 {
    match kind {
        ProviderKind::Aws => 0x1111_0000,
        ProviderKind::Azure => 0x2222_0000,
        ProviderKind::Gcp => 0x3333_0000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_platform::StartKind;
    use sebs_sim::SimDuration;

    fn suite() -> Suite {
        Suite::new(SuiteConfig::fast().with_seed(77))
    }

    #[test]
    fn deploy_and_invoke_each_provider() {
        let mut s = suite();
        for kind in [ProviderKind::Aws, ProviderKind::Azure, ProviderKind::Gcp] {
            let h = s
                .deploy(kind, "graph-bfs", Language::Python, 512, Scale::Test)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let r = s.invoke(&h);
            assert!(r.outcome.is_success(), "{kind}: {:?}", r.outcome);
            assert_eq!(r.start, StartKind::Cold);
        }
    }

    #[test]
    fn unknown_benchmark_rejected() {
        let mut s = suite();
        let err = s
            .deploy(
                ProviderKind::Aws,
                "nope",
                Language::Python,
                512,
                Scale::Test,
            )
            .unwrap_err();
        assert!(matches!(err, SuiteError::UnknownBenchmark(_)));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn invalid_memory_surfaces_deploy_error() {
        let mut s = suite();
        let err = s
            .deploy(
                ProviderKind::Gcp,
                "graph-bfs",
                Language::Python,
                300,
                Scale::Test,
            )
            .unwrap_err();
        assert!(matches!(err, SuiteError::Deploy(_)));
    }

    #[test]
    fn package_limit_blocks_image_recognition_oversize() {
        // image-recognition's 250 MB package exceeds GCP's 100 MB limit —
        // deployments must fail there but succeed on AWS.
        let mut s = suite();
        assert!(s
            .deploy(
                ProviderKind::Gcp,
                "image-recognition",
                Language::Python,
                2048,
                Scale::Test
            )
            .is_err());
        assert!(s
            .deploy(
                ProviderKind::Aws,
                "image-recognition",
                Language::Python,
                1536,
                Scale::Test
            )
            .is_ok());
    }

    #[test]
    fn cold_enforcement_and_warm_reuse() {
        let mut s = suite();
        let h = s
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        s.invoke(&h);
        s.advance(ProviderKind::Aws, SimDuration::from_secs(1));
        assert_eq!(s.invoke(&h).start, StartKind::Warm);
        s.enforce_cold_start(&h);
        assert_eq!(s.invoke(&h).start, StartKind::Cold);
    }

    #[test]
    fn trigger_kinds_flow_through_the_suite() {
        let mut s = suite();
        let h = s
            .deploy(
                ProviderKind::Aws,
                "graph-bfs",
                Language::Python,
                512,
                Scale::Test,
            )
            .unwrap();
        s.invoke(&h);
        s.advance(ProviderKind::Aws, SimDuration::from_secs(1));
        let sdk = s
            .invoke_burst_via(&h, 1, sebs_platform::TriggerKind::Sdk)
            .pop()
            .unwrap();
        assert!(sdk.outcome.is_success());
        assert_eq!(sdk.bill.egress_usd, 0.0, "no API-unit fee over the SDK");
    }

    #[test]
    fn tracing_knob_flows_to_platforms() {
        let mut s = Suite::new(SuiteConfig::fast().with_seed(3).with_trace(true));
        let h = s
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        s.invoke(&h);
        let traces = s.take_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].provider, "aws");
        assert!(s.take_traces().is_empty(), "draining");
        // Off by default: nothing is collected.
        let mut quiet = Suite::new(SuiteConfig::fast().with_seed(3));
        let h = quiet
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        quiet.invoke(&h);
        assert!(quiet.take_traces().is_empty());
    }

    #[test]
    fn metrics_knob_flows_to_platforms() {
        let mut s = Suite::new(SuiteConfig::fast().with_seed(3).with_metrics(true));
        let h = s
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        s.invoke(&h);
        s.advance(ProviderKind::Aws, SimDuration::from_secs(3));
        let sink = s.take_metrics();
        assert_eq!(sink.len(), 1, "only the active provider is exported");
        assert_eq!(sink.chunks()[0].provider, "aws");
        assert!(!sink.chunks()[0].points.is_empty(), "gauges were sampled");
        // Off by default: nothing is collected.
        let mut quiet = Suite::new(SuiteConfig::fast().with_seed(3));
        let h = quiet
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        quiet.invoke(&h);
        assert!(quiet.take_metrics().is_empty());
    }

    #[test]
    fn bursts_return_one_record_per_request() {
        let mut s = suite();
        let h = s
            .deploy(
                ProviderKind::Aws,
                "dynamic-html",
                Language::Python,
                256,
                Scale::Test,
            )
            .unwrap();
        let records = s.invoke_burst(&h, 10);
        assert_eq!(records.len(), 10);
    }
}
