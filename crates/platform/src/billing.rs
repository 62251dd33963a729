//! Billing models (paper Table 2 "Billing" row and §6.3).
//!
//! The three providers charge a flat per-request fee plus compute billed in
//! GB-seconds, but differ in *what* they round (§6.3 Q1/Q2):
//!
//! * **AWS** bills the *declared* memory and rounds duration up to 100 ms.
//! * **GCP** bills declared memory GB-s *and* declared CPU GHz-s, duration
//!   rounded up to 100 ms.
//! * **Azure** bills *measured average* memory rounded up to the nearest
//!   128 MB, duration in (at least) 1 ms granularity.
//!
//! Egress pricing (§6.3 Q4): AWS HTTP APIs charge per request metered in
//! 512 kB increments; GCP charges $0.12/GB and Azure $0.087/GB of data
//! out — the same per-GB rates as the providers' object stores.

use sebs_sim::SimDuration;

/// The bill for one function invocation. The default is the zero bill of
/// an attempt that never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InvocationBill {
    /// Compute charge in USD (GB-s and, on GCP, GHz-s).
    pub compute_usd: f64,
    /// Flat request fee in USD.
    pub request_usd: f64,
    /// Egress/API transfer charge in USD.
    pub egress_usd: f64,
    /// Billed duration after rounding.
    pub billed_duration: SimDuration,
    /// Billed memory in MB after rounding/declaration.
    pub billed_memory_mb: u32,
}

impl InvocationBill {
    /// Total charge in USD.
    pub fn total_usd(&self) -> f64 {
        self.compute_usd + self.request_usd + self.egress_usd
    }
}

/// A provider's billing rules.
#[derive(Debug, Clone, PartialEq)]
pub struct BillingModel {
    /// Price per GB-second of memory.
    pub usd_per_gb_second: f64,
    /// Price per GHz-second of CPU (GCP only; zero elsewhere).
    pub usd_per_ghz_second: f64,
    /// Declared CPU in GHz as a function of memory (GCP's 2.4 GHz at
    /// 2048 MB scale); zero elsewhere.
    pub ghz_per_mb: f64,
    /// Flat fee per million requests.
    pub usd_per_million_requests: f64,
    /// Duration rounding quantum (100 ms on AWS/GCP, 1 ms on Azure).
    pub duration_quantum: SimDuration,
    /// Memory rounding quantum in MB (Azure: 128 MB of *average used*
    /// memory; AWS/GCP bill declared memory: quantum 0 = declared).
    pub memory_quantum_mb: u32,
    /// Whether billed memory is measured usage (Azure) or declared config.
    pub bills_measured_memory: bool,
    /// Egress price per GB.
    pub usd_per_gb_egress: f64,
    /// API-gateway metering increment in bytes (AWS: 512 kB per request
    /// unit); zero when egress is metered purely per byte.
    pub api_increment_bytes: u64,
    /// Flat API fee per million metered request units (AWS HTTP API: $1).
    pub usd_per_million_api_units: f64,
}

impl BillingModel {
    /// AWS Lambda + HTTP API gateway prices (2020).
    pub fn aws() -> BillingModel {
        BillingModel {
            usd_per_gb_second: 0.0000166667,
            usd_per_ghz_second: 0.0,
            ghz_per_mb: 0.0,
            usd_per_million_requests: 0.20,
            duration_quantum: SimDuration::from_millis(100),
            memory_quantum_mb: 0,
            bills_measured_memory: false,
            // HTTP APIs meter requests in 512 kB units instead of per-GB
            // transfer fees — the reason the paper's §6.3 Q4 finds 1M
            // graph-bfs responses cost ~$1 on AWS vs ~$9 on GCP/Azure.
            usd_per_gb_egress: 0.0,
            api_increment_bytes: 512 * 1024,
            usd_per_million_api_units: 1.0,
        }
    }

    /// Azure Functions consumption-plan prices.
    pub fn azure() -> BillingModel {
        BillingModel {
            usd_per_gb_second: 0.000016,
            usd_per_ghz_second: 0.0,
            ghz_per_mb: 0.0,
            usd_per_million_requests: 0.20,
            duration_quantum: SimDuration::from_millis(1),
            memory_quantum_mb: 128,
            bills_measured_memory: true,
            usd_per_gb_egress: 0.087,
            api_increment_bytes: 0,
            usd_per_million_api_units: 0.0,
        }
    }

    /// Google Cloud Functions prices.
    pub fn gcp() -> BillingModel {
        BillingModel {
            usd_per_gb_second: 0.0000025,
            usd_per_ghz_second: 0.0000100,
            ghz_per_mb: 2.4 / 2048.0,
            usd_per_million_requests: 0.40,
            duration_quantum: SimDuration::from_millis(100),
            memory_quantum_mb: 0,
            bills_measured_memory: false,
            usd_per_gb_egress: 0.12,
            api_increment_bytes: 0,
            usd_per_million_api_units: 0.0,
        }
    }

    /// Computes the bill for one invocation.
    ///
    /// `declared_mb` is the configured memory; `used_mb` the measured
    /// average usage (relevant on Azure); `response_bytes` is the data
    /// returned to the client through the provider's endpoint.
    pub fn bill(
        &self,
        duration: SimDuration,
        declared_mb: u32,
        used_mb: u32,
        response_bytes: u64,
    ) -> InvocationBill {
        self.bill_via(duration, declared_mb, used_mb, response_bytes, true)
    }

    /// Like [`BillingModel::bill`], but with explicit control over whether
    /// the response left through the metered HTTP API gateway (SDK and
    /// event triggers bypass it).
    pub fn bill_via(
        &self,
        duration: SimDuration,
        declared_mb: u32,
        used_mb: u32,
        response_bytes: u64,
        via_api_gateway: bool,
    ) -> InvocationBill {
        let billed_duration = duration.round_up_to(self.duration_quantum);
        let billed_memory_mb = if self.bills_measured_memory {
            let q = self.memory_quantum_mb.max(1);
            used_mb.div_ceil(q) * q
        } else {
            declared_mb
        };
        let gb_s = billed_memory_mb as f64 / 1024.0 * billed_duration.as_secs_f64();
        let mut compute = gb_s * self.usd_per_gb_second;
        if self.usd_per_ghz_second > 0.0 {
            let ghz = declared_mb as f64 * self.ghz_per_mb;
            compute += ghz * billed_duration.as_secs_f64() * self.usd_per_ghz_second;
        }
        let request_usd = self.usd_per_million_requests / 1e6;
        let mut egress_usd = response_bytes as f64 / 1e9 * self.usd_per_gb_egress;
        if via_api_gateway && self.api_increment_bytes > 0 {
            let units = (response_bytes.max(1)).div_ceil(self.api_increment_bytes);
            egress_usd += units as f64 * self.usd_per_million_api_units / 1e6;
        }
        InvocationBill {
            compute_usd: compute,
            request_usd,
            egress_usd,
            billed_duration,
            billed_memory_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_rounds_to_100ms_and_bills_declared_memory() {
        let b = BillingModel::aws();
        let bill = b.bill(SimDuration::from_millis(101), 1024, 179, 0);
        assert_eq!(bill.billed_duration.as_millis(), 200);
        assert_eq!(bill.billed_memory_mb, 1024, "declared, not the 179 used");
        let expected = 1.0 * 0.2 * 0.0000166667; // 1 GB × 0.2 s
        assert!((bill.compute_usd - expected).abs() < 1e-12);
        assert!((bill.request_usd - 0.2e-6).abs() < 1e-15);
    }

    #[test]
    fn azure_bills_average_used_memory_rounded_to_128() {
        let b = BillingModel::azure();
        let bill = b.bill(SimDuration::from_millis(1000), 1536, 200, 0);
        assert_eq!(bill.billed_memory_mb, 256, "200 MB rounds up to 256");
        assert_eq!(bill.billed_duration.as_millis(), 1000);
        let bill_low = b.bill(SimDuration::from_millis(1000), 1536, 100, 0);
        assert_eq!(bill_low.billed_memory_mb, 128);
        assert!(bill_low.compute_usd < bill.compute_usd);
    }

    #[test]
    fn gcp_adds_ghz_seconds() {
        let b = BillingModel::gcp();
        let bill = b.bill(SimDuration::from_millis(100), 2048, 2048, 0);
        // 2 GB × 0.1 s × 2.5e-6 + 2.4 GHz × 0.1 s × 1e-5.
        let expected = 2.0 * 0.1 * 0.0000025 + 2.4 * 0.1 * 0.00001;
        assert!((bill.compute_usd - expected).abs() < 1e-12);
        assert!((bill.request_usd - 0.4e-6).abs() < 1e-15);
    }

    #[test]
    fn short_functions_overpay_through_rounding() {
        // §6.3 Q2: a 1 ms helper function pays for 100 ms on AWS.
        let b = BillingModel::aws();
        let real = b.bill(SimDuration::from_millis(1), 128, 128, 0);
        let full = b.bill(SimDuration::from_millis(100), 128, 128, 0);
        assert_eq!(real.compute_usd, full.compute_usd);
        // Azure's 1 ms quantum does not inflate.
        let az = BillingModel::azure();
        let real = az.bill(SimDuration::from_millis(1), 1536, 128, 0);
        let full = az.bill(SimDuration::from_millis(100), 1536, 128, 0);
        assert!(real.compute_usd < full.compute_usd / 50.0);
    }

    #[test]
    fn egress_pricing_matches_q4() {
        // graph-bfs returns ~78 kB; 1M invocations cost ~$1 on AWS (one
        // 512 kB API unit each) and ~$9 on GCP (0.078 GB × $0.12 × 1M).
        let resp = 78_000u64;
        // Every invocation bills identically, so one bill × 1e6 is the
        // exact 1M-invocation egress cost.
        let aws = BillingModel::aws()
            .bill(SimDuration::ZERO, 128, 128, resp)
            .egress_usd
            * 1e6;
        assert!((0.9..2.0).contains(&aws), "AWS 1M egress ≈ ${aws:.2}");
        let gcp = BillingModel::gcp()
            .bill(SimDuration::ZERO, 128, 128, resp)
            .egress_usd
            * 1e6;
        assert!((8.0..11.0).contains(&gcp), "GCP 1M egress ≈ ${gcp:.2}");
    }

    #[test]
    fn api_units_round_up_per_request() {
        let b = BillingModel::aws();
        let small = b.bill(SimDuration::ZERO, 128, 128, 10).egress_usd;
        let exactly_one = b.bill(SimDuration::ZERO, 128, 128, 512 * 1024).egress_usd;
        let two_units = b
            .bill(SimDuration::ZERO, 128, 128, 512 * 1024 + 1)
            .egress_usd;
        assert!(small > 0.0, "even tiny responses pay one unit");
        assert!(two_units > exactly_one);
    }

    #[test]
    fn sdk_invocations_skip_api_unit_fees() {
        let b = BillingModel::aws();
        let via_http = b.bill_via(SimDuration::ZERO, 128, 128, 78_000, true);
        let via_sdk = b.bill_via(SimDuration::ZERO, 128, 128, 78_000, false);
        assert!(via_http.egress_usd > via_sdk.egress_usd);
        assert_eq!(via_sdk.egress_usd, 0.0, "AWS SDK path has no API units");
    }

    #[test]
    fn total_sums_components() {
        let b = BillingModel::gcp().bill(SimDuration::from_millis(250), 512, 512, 1_000_000);
        let total = b.total_usd();
        assert!((total - (b.compute_usd + b.request_usd + b.egress_usd)).abs() < 1e-18);
        assert!(total > 0.0);
    }
}
