//! Provider profiles: the policies of the paper's Table 2 as data.

use sebs_sim::{Dist, SimDuration};
use sebs_workloads::Language;

use crate::billing::BillingModel;
use crate::coldstart::ColdStartModel;
use crate::eviction::EvictionPolicy;
use crate::trigger::TriggerModel;

/// The three commercial platforms the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProviderKind {
    /// AWS Lambda.
    Aws,
    /// Azure Functions (Linux consumption plan).
    Azure,
    /// Google Cloud Functions.
    Gcp,
}

impl std::fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProviderKind::Aws => f.write_str("aws"),
            ProviderKind::Azure => f.write_str("azure"),
            ProviderKind::Gcp => f.write_str("gcp"),
        }
    }
}

/// How memory is allocated and charged (Table 2, "Memory Allocation").
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryPolicy {
    /// User declares any size in a range (AWS: 128–3008 MB in 64 MB steps).
    StaticRange {
        /// Smallest configurable size.
        min_mb: u32,
        /// Largest configurable size.
        max_mb: u32,
        /// Configuration granularity.
        step_mb: u32,
    },
    /// User picks one of fixed tiers (GCP: 128/256/512/1024/2048 MB).
    StaticTiers(Vec<u32>),
    /// Platform allocates dynamically up to a cap and bills actual usage
    /// (Azure: up to 1536 MB).
    Dynamic {
        /// Hard cap on the instance's memory.
        max_mb: u32,
    },
}

impl MemoryPolicy {
    /// Validates (or, for dynamic policies, ignores) a requested size,
    /// returning the effective configured memory.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self, requested_mb: u32) -> Result<u32, String> {
        match self {
            MemoryPolicy::StaticRange {
                min_mb,
                max_mb,
                step_mb,
            } => {
                if requested_mb < *min_mb || requested_mb > *max_mb {
                    return Err(format!(
                        "memory {requested_mb} MB outside [{min_mb}, {max_mb}]"
                    ));
                }
                if !(requested_mb - min_mb).is_multiple_of(*step_mb) {
                    return Err(format!(
                        "memory {requested_mb} MB not a multiple of {step_mb} above {min_mb}"
                    ));
                }
                Ok(requested_mb)
            }
            MemoryPolicy::StaticTiers(tiers) => {
                if tiers.contains(&requested_mb) {
                    Ok(requested_mb)
                } else {
                    Err(format!(
                        "memory {requested_mb} MB is not one of the tiers {tiers:?}"
                    ))
                }
            }
            MemoryPolicy::Dynamic { max_mb } => Ok(*max_mb),
        }
    }

    /// Whether the platform sizes memory dynamically (Azure).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, MemoryPolicy::Dynamic { .. })
    }
}

/// CPU allocation as a function of configured memory (Table 2, "CPU
/// Allocation"): a share of 1.0 means one full vCPU.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuPolicy {
    /// Share proportional to memory: `memory / mb_per_vcpu`, capped.
    ProportionalToMemory {
        /// Memory that buys one full vCPU (AWS: 1792 MB).
        mb_per_vcpu: u32,
        /// Maximum share (AWS: ~1.79 vCPU at 3008 MB).
        max_share: f64,
    },
    /// Fixed share regardless of memory (Azure instances: 1 vCPU, shared
    /// by the function app's workers).
    Fixed(f64),
}

impl CpuPolicy {
    /// The CPU share granted at `memory_mb`.
    pub fn share(&self, memory_mb: u32) -> f64 {
        match self {
            CpuPolicy::ProportionalToMemory {
                mb_per_vcpu,
                max_share,
            } => (memory_mb as f64 / *mb_per_vcpu as f64).min(*max_share),
            CpuPolicy::Fixed(s) => *s,
        }
    }
}

/// Hard platform limits (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformLimits {
    /// Maximum function execution time.
    pub timeout: SimDuration,
    /// Concurrent executions (AWS 1000 functions, Azure 200 function apps,
    /// GCP 100 functions).
    pub concurrency: u32,
    /// Maximum (uncompressed) deployment package bytes.
    pub code_package_bytes: u64,
    /// Maximum HTTP payload bytes (AWS endpoints: 6 MB).
    pub payload_bytes: u64,
    /// Temporary disk space per sandbox.
    pub temp_disk_bytes: u64,
}

/// Behavioral quirks the paper observed per provider (§6.2 Q3).
#[derive(Debug, Clone, PartialEq)]
pub struct Quirks {
    /// Probability that an invocation with a warm container available still
    /// lands on a new (cold) one — GCP's "unexpected cold startups".
    pub spurious_cold_start: f64,
    /// Whether consecutive warm invocations deterministically hit warm
    /// containers (AWS: yes; GCP: no, see `spurious_cold_start`).
    pub deterministic_warm_reuse: bool,
    /// Azure-style function apps: one host instance runs several language
    /// workers; concurrent invocations share it, adding scheduling noise.
    pub function_apps: bool,
    /// Extra per-invocation latency (ms distribution) when `n` invocations
    /// run concurrently on the platform, scaled by `(n-1)`: the Azure
    /// concurrency bottleneck.
    pub concurrency_penalty_ms_per_peer: Dist,
    /// Error probability per invocation when concurrency exceeds
    /// `availability_threshold` (Azure/GCP service unavailability).
    pub availability_error_rate: f64,
    /// Concurrency level above which availability errors appear.
    pub availability_threshold: u32,
    /// How long the client waits before receiving a `ServiceUnavailable`
    /// response (the provider's 5xx turnaround time).
    pub unavailable_penalty: SimDuration,
    /// Whether exceeding the memory limit kills the invocation (GCP strict;
    /// AWS lenient up to an overhead factor).
    pub strict_oom: bool,
    /// Memory overcommit tolerated before an OOM kill on lenient platforms.
    pub oom_slack_factor: f64,
}

/// A full provider description: everything the simulator needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderProfile {
    /// Which provider this profile models.
    pub kind: ProviderKind,
    /// Supported language runtimes.
    pub languages: Vec<Language>,
    /// Memory policy.
    pub memory: MemoryPolicy,
    /// CPU policy.
    pub cpu: CpuPolicy,
    /// Billing model.
    pub billing: BillingModel,
    /// Cold-start model.
    pub cold_start: ColdStartModel,
    /// Container eviction policy.
    pub eviction: EvictionPolicy,
    /// Hard limits.
    pub limits: PlatformLimits,
    /// Behavioral quirks.
    pub quirks: Quirks,
    /// Abstract work units per second at one full vCPU. Calibrated so
    /// Table 4's warm times are reproduced at full allocation.
    pub ops_per_sec_full_cpu: f64,
    /// I/O bandwidth scale at the *reference* memory (1792 MB); I/O scales
    /// with memory like CPU does (§6.2 Q1 "CPU and I/O allocation
    /// increases with the memory allocation").
    pub io_scale_at_full: f64,
    /// Per-invocation runtime overhead added by the provider's sandbox and
    /// language worker (the gap between function time and provider time).
    pub runtime_overhead_ms: Dist,
    /// One-way client RTT distribution (ms) to this provider's region.
    pub client_rtt_ms: Dist,
    /// Trigger-path model (HTTP gateway, SDK, events).
    pub trigger: TriggerModel,
}

impl ProviderProfile {
    /// The AWS Lambda profile (us-east-1, no provisioned concurrency).
    pub fn aws() -> ProviderProfile {
        ProviderProfile {
            kind: ProviderKind::Aws,
            languages: vec![Language::Python, Language::NodeJs],
            memory: MemoryPolicy::StaticRange {
                min_mb: 128,
                max_mb: 3008,
                step_mb: 64,
            },
            cpu: CpuPolicy::ProportionalToMemory {
                mb_per_vcpu: 1792,
                max_share: 3008.0 / 1792.0,
            },
            billing: BillingModel::aws(),
            cold_start: ColdStartModel::aws(),
            eviction: EvictionPolicy::HalfLife {
                period: SimDuration::from_secs(380),
            },
            limits: PlatformLimits {
                timeout: SimDuration::from_secs(15 * 60),
                concurrency: 1000,
                code_package_bytes: 250_000_000,
                payload_bytes: 6_000_000,
                temp_disk_bytes: 500_000_000,
            },
            quirks: Quirks {
                spurious_cold_start: 0.0,
                deterministic_warm_reuse: true,
                function_apps: false,
                concurrency_penalty_ms_per_peer: Dist::Constant(0.02),
                availability_error_rate: 0.0,
                availability_threshold: u32::MAX,
                unavailable_penalty: SimDuration::from_millis(500),
                strict_oom: false,
                oom_slack_factor: 1.6,
            },
            ops_per_sec_full_cpu: 6.0e9,
            io_scale_at_full: 1.0,
            runtime_overhead_ms: Dist::shifted_lognormal(1.5, 0.5, 0.5),
            client_rtt_ms: Dist::shifted_lognormal(107.0, 0.7, 0.4),
            trigger: TriggerModel::aws(),
        }
    }

    /// The Azure Functions profile (Linux consumption plan, WestEurope).
    pub fn azure() -> ProviderProfile {
        ProviderProfile {
            kind: ProviderKind::Azure,
            languages: vec![Language::Python, Language::NodeJs],
            memory: MemoryPolicy::Dynamic { max_mb: 1536 },
            cpu: CpuPolicy::Fixed(1.0),
            billing: BillingModel::azure(),
            cold_start: ColdStartModel::azure(),
            eviction: EvictionPolicy::IdleTimeout {
                timeout: SimDuration::from_secs(20 * 60),
                jitter_ms: Dist::Uniform {
                    lo: 0.0,
                    hi: 120_000.0,
                },
            },
            limits: PlatformLimits {
                timeout: SimDuration::from_secs(10 * 60),
                concurrency: 200,
                code_package_bytes: 1_000_000_000,
                payload_bytes: 100_000_000,
                temp_disk_bytes: 1_000_000_000,
            },
            quirks: Quirks {
                spurious_cold_start: 0.02,
                deterministic_warm_reuse: false,
                function_apps: true,
                // The paper's §6.2 Q3: Azure's provider/client times are
                // far more variable than function time under concurrency;
                // scheduling inside the function app is the culprit.
                concurrency_penalty_ms_per_peer: Dist::shifted_lognormal(4.0, 2.2, 1.0),
                availability_error_rate: 0.02,
                availability_threshold: 30,
                unavailable_penalty: SimDuration::from_millis(500),
                strict_oom: false,
                oom_slack_factor: 1.3,
            },
            ops_per_sec_full_cpu: 5.2e9,
            io_scale_at_full: 0.55,
            runtime_overhead_ms: Dist::shifted_lognormal(8.0, 2.6, 0.85),
            client_rtt_ms: Dist::shifted_lognormal(19.0, 0.3, 0.4),
            trigger: TriggerModel::azure(),
        }
    }

    /// The Google Cloud Functions profile (europe-west1).
    pub fn gcp() -> ProviderProfile {
        ProviderProfile {
            kind: ProviderKind::Gcp,
            languages: vec![Language::Python, Language::NodeJs],
            memory: MemoryPolicy::StaticTiers(vec![128, 256, 512, 1024, 2048, 4096]),
            cpu: CpuPolicy::ProportionalToMemory {
                mb_per_vcpu: 2048,
                max_share: 2.0,
            },
            billing: BillingModel::gcp(),
            cold_start: ColdStartModel::gcp(),
            eviction: EvictionPolicy::IdleTimeout {
                timeout: SimDuration::from_secs(15 * 60),
                jitter_ms: Dist::Uniform {
                    lo: 0.0,
                    hi: 300_000.0,
                },
            },
            limits: PlatformLimits {
                timeout: SimDuration::from_secs(9 * 60),
                concurrency: 100,
                code_package_bytes: 100_000_000,
                payload_bytes: 10_000_000,
                temp_disk_bytes: 0, // counted against memory
            },
            quirks: Quirks {
                // §6.2 Q3 Consistency: "GCP functions revealed a significant
                // number of unexpected cold startups".
                spurious_cold_start: 0.12,
                deterministic_warm_reuse: false,
                function_apps: false,
                concurrency_penalty_ms_per_peer: Dist::shifted_lognormal(0.3, 0.0, 0.8),
                availability_error_rate: 0.04,
                availability_threshold: 40,
                unavailable_penalty: SimDuration::from_millis(500),
                strict_oom: true,
                oom_slack_factor: 1.0,
            },
            ops_per_sec_full_cpu: 5.6e9,
            io_scale_at_full: 0.6,
            runtime_overhead_ms: Dist::shifted_lognormal(3.0, 1.2, 0.7),
            client_rtt_ms: Dist::shifted_lognormal(32.0, 0.4, 0.4),
            trigger: TriggerModel::gcp(),
        }
    }

    /// A profile by kind.
    pub fn for_kind(kind: ProviderKind) -> ProviderProfile {
        match kind {
            ProviderKind::Aws => ProviderProfile::aws(),
            ProviderKind::Azure => ProviderProfile::azure(),
            ProviderKind::Gcp => ProviderProfile::gcp(),
        }
    }

    /// All three built-in profiles.
    pub fn all() -> Vec<ProviderProfile> {
        vec![
            ProviderProfile::aws(),
            ProviderProfile::azure(),
            ProviderProfile::gcp(),
        ]
    }

    /// Execution-speed factor of a language runtime (relative to the
    /// calibration baseline, CPython).
    pub fn language_speed(&self, language: Language) -> f64 {
        match language {
            Language::Python => 1.0,
            Language::NodeJs => 1.15,
        }
    }

    /// Effective compute rate (work units/second) at a memory config.
    pub fn compute_rate(&self, memory_mb: u32, language: Language) -> f64 {
        self.ops_per_sec_full_cpu * self.cpu.share(memory_mb) * self.language_speed(language)
    }

    /// I/O bandwidth scale at a memory config, relative to the reference
    /// deployment (1.0 = the storage model's nominal bandwidth). I/O grows
    /// with memory like CPU does (§6.2 Q1) but sub-linearly — network
    /// allocations are not throttled as hard as CPU time slices.
    pub fn io_scale(&self, memory_mb: u32) -> f64 {
        let reference = self.cpu.share(1792).max(1e-9);
        let rel = (self.cpu.share(memory_mb) / reference).powf(0.4);
        (rel * self.io_scale_at_full).clamp(0.05, 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_policies_match_table2() {
        let aws = ProviderProfile::aws();
        assert_eq!(aws.memory.validate(128).unwrap(), 128);
        assert_eq!(aws.memory.validate(3008).unwrap(), 3008);
        assert!(aws.memory.validate(100).is_err());
        assert!(aws.memory.validate(3072).is_err());
        assert!(aws.memory.validate(130).is_err(), "not a 64 MB step");
        assert!(!aws.memory.is_dynamic());

        let gcp = ProviderProfile::gcp();
        assert_eq!(gcp.memory.validate(2048).unwrap(), 2048);
        assert!(gcp.memory.validate(300).is_err());

        let azure = ProviderProfile::azure();
        assert!(azure.memory.is_dynamic());
        assert_eq!(
            azure.memory.validate(9999).unwrap(),
            1536,
            "dynamic: requested size ignored, cap applies"
        );
    }

    #[test]
    fn aws_cpu_proportional_one_vcpu_at_1792() {
        let aws = ProviderProfile::aws();
        assert!((aws.cpu.share(1792) - 1.0).abs() < 1e-12);
        assert!((aws.cpu.share(896) - 0.5).abs() < 1e-12);
        assert!(aws.cpu.share(3008) > 1.5);
        // Azure fixed.
        assert_eq!(ProviderProfile::azure().cpu.share(128), 1.0);
        assert_eq!(ProviderProfile::azure().cpu.share(1536), 1.0);
    }

    #[test]
    fn compute_rate_scales_with_memory_and_language() {
        let aws = ProviderProfile::aws();
        let slow = aws.compute_rate(128, Language::Python);
        let fast = aws.compute_rate(1792, Language::Python);
        assert!((fast / slow - 14.0).abs() < 0.1, "1792/128 = 14x");
        assert!(
            aws.compute_rate(1792, Language::NodeJs) > fast,
            "node is a bit faster on compute"
        );
    }

    #[test]
    fn io_scale_grows_with_memory_then_clamps() {
        let aws = ProviderProfile::aws();
        assert!(aws.io_scale(128) < aws.io_scale(1024));
        assert!(aws.io_scale(1024) < aws.io_scale(3008));
        assert!(aws.io_scale(128) >= 0.05);
        // Azure: fixed CPU, so io_scale is flat.
        let azure = ProviderProfile::azure();
        assert_eq!(azure.io_scale(128), azure.io_scale(1536));
    }

    #[test]
    fn limits_match_table2() {
        let aws = ProviderProfile::aws();
        assert_eq!(aws.limits.timeout.as_secs_f64(), 900.0);
        assert_eq!(aws.limits.concurrency, 1000);
        assert_eq!(aws.limits.code_package_bytes, 250_000_000);
        assert_eq!(ProviderProfile::azure().limits.concurrency, 200);
        assert_eq!(ProviderProfile::gcp().limits.concurrency, 100);
        assert_eq!(
            ProviderProfile::gcp().limits.timeout.as_secs_f64(),
            9.0 * 60.0
        );
    }

    #[test]
    fn quirks_encode_the_papers_observations() {
        assert!(ProviderProfile::aws().quirks.deterministic_warm_reuse);
        assert!(ProviderProfile::gcp().quirks.spurious_cold_start > 0.05);
        assert!(ProviderProfile::azure().quirks.function_apps);
        assert!(ProviderProfile::gcp().quirks.strict_oom);
        assert!(!ProviderProfile::aws().quirks.strict_oom);
    }

    #[test]
    fn unavailable_penalty_pins_the_historic_500ms() {
        // This constant used to be hardcoded in `Platform::invoke`; moving
        // it into `Quirks` must not change any provider's behavior.
        for profile in ProviderProfile::all() {
            assert_eq!(
                profile.quirks.unavailable_penalty,
                SimDuration::from_millis(500),
                "{}",
                profile.kind
            );
        }
    }

    #[test]
    fn for_kind_and_all() {
        assert_eq!(
            ProviderProfile::for_kind(ProviderKind::Aws).kind,
            ProviderKind::Aws
        );
        assert_eq!(ProviderProfile::all().len(), 3);
        assert_eq!(ProviderKind::Azure.to_string(), "azure");
    }

    #[test]
    fn client_rtt_ordering_matches_paper_pings() {
        // 109 ms AWS > 33 ms GCP > 20 ms Azure from the paper's server.
        let aws = ProviderProfile::aws().client_rtt_ms.mean();
        let gcp = ProviderProfile::gcp().client_rtt_ms.mean();
        let azure = ProviderProfile::azure().client_rtt_ms.mean();
        assert!(aws > gcp && gcp > azure);
    }
}
