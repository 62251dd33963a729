//! Extension API: registering a *user-defined* workload and benchmarking
//! it on a simulated platform — the paper's "easily extended to new
//! benchmarks" claim (§4.1 Extensibility).
//!
//! The custom workload is a Monte-Carlo π estimator: pure CPU, no storage,
//! parameterized by sample count.
//!
//! ```sh
//! cargo run -p sebs-examples --bin custom_workload
//! ```

use sebs_platform::{FaasPlatform, FunctionConfig, ProviderProfile, StartKind};
use sebs_sim::rng::{Rng, StreamRng};
use sebs_sim::SimDuration;
use sebs_storage::ObjectStorage;
use sebs_workloads::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// Monte-Carlo π: the classic embarrassingly parallel FaaS demo.
#[derive(Debug, Clone, Copy)]
struct MonteCarloPi;

impl Workload for MonteCarloPi {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "montecarlo-pi".into(),
            language: Language::Python,
            dependencies: vec![],
            code_package_bytes: 50_000,
            default_memory_mb: 256,
        }
    }

    fn prepare(
        &self,
        scale: Scale,
        _rng: &mut StreamRng,
        _storage: &mut dyn ObjectStorage,
    ) -> Payload {
        let samples = match scale {
            Scale::Test => 100_000,
            Scale::Small => 5_000_000,
            Scale::Large => 100_000_000,
        };
        Payload::with_params(vec![("samples".into(), samples.to_string())])
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let samples: u64 = payload
            .param("samples")
            .ok_or_else(|| WorkloadError::BadPayload("missing `samples`".into()))?
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad samples: {e}")))?;
        let mut hits = 0u64;
        for _ in 0..samples {
            let x: f64 = ctx.rng().gen();
            let y: f64 = ctx.rng().gen();
            if x * x + y * y <= 1.0 {
                hits += 1;
            }
        }
        // ~30 interpreted ops per sample (two RNG draws + arithmetic).
        ctx.work(samples * 30);
        let pi = 4.0 * hits as f64 / samples as f64;
        // The body's length is the response size: the platform charges it
        // as egress and adds its transfer to the client time.
        Ok(Response::new(format!(
            "{{\"pi\":{pi:.6},\"samples\":{samples}}}"
        )))
    }
}

fn main() {
    let workload = MonteCarloPi;
    let mut platform = FaasPlatform::new(ProviderProfile::aws(), 31415);
    let fid = platform
        .deploy(
            FunctionConfig::new("montecarlo-pi", Language::Python, 1024)
                .with_code_package(workload.spec().code_package_bytes),
        )
        .expect("custom workload deploys like any other");
    let payload = platform.prepare(&workload, Scale::Small);

    println!("benchmarking a custom workload on the simulated AWS profile:");
    let cold = platform.invoke(fid, &workload, &payload);
    println!(
        "  cold: {} ({}), {}",
        cold.client_time,
        cold.provider_time,
        cold.summary()
    );
    let mut warm_times = Vec::new();
    for _ in 0..20 {
        platform.advance(SimDuration::from_secs(1));
        let r = platform.invoke(fid, &workload, &payload);
        assert_eq!(r.start, StartKind::Warm);
        warm_times.push(r.provider_time.as_millis_f64());
    }
    let summary = sebs_stats::Summary::from_values(&warm_times);
    println!(
        "  warm: median {:.1} ms over {} runs (p98 {:.1} ms)",
        summary.median(),
        summary.len(),
        summary.percentile(98.0)
    );
    println!(
        "  bill per warm invocation: ${:.8}",
        platform.invoke(fid, &workload, &payload).bill.total_usd()
    );
}

trait RecordExt {
    fn summary(&self) -> String;
}

impl RecordExt for sebs_platform::InvocationRecord {
    fn summary(&self) -> String {
        format!(
            "{} B response, {} MB used",
            self.response_bytes, self.used_memory_mb
        )
    }
}
