//! Golden outputs of the box's invocation path on AWS, Azure and GCP.
//!
//! One fixed script runs on each provider and reaches every admission and
//! classification branch of an invocation: warm and cold starts (GCP's
//! spurious colds among them), a burst that is throttled and meets
//! availability errors, an oversized payload, SDK and storage-event
//! triggers, storage I/O, a timeout, an OOM kill, outage and storm
//! windows, injected storage faults, corrupt payloads and sandbox crashes,
//! and retried and hedged chains. Each step's records are pinned as the
//! FNV-1a of their `Debug` text; the collected traces (as Chrome JSON),
//! the Prometheus text of the metrics and the phase profile are pinned the
//! same way. A refactor of the path must leave every value unchanged.

use sebs_platform::{
    FaasPlatform, FunctionConfig, FunctionErrorKind, InvocationOutcome, InvocationRecord,
    ProviderProfile, StartKind, TriggerKind,
};
use sebs_resilience::{FaultPlan, OutageWindow, RetryPolicy, StormWindow};
use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_sim::{fnv1a, SimDuration};
use sebs_storage::ObjectStorage;
use sebs_telemetry::{prometheus_text, MetricsSink, DEFAULT_SAMPLE_INTERVAL};
use sebs_trace::{chrome_trace_json, TraceSink};
use sebs_workloads::templating::DynamicHtml;
use sebs_workloads::uploader::Uploader;
use sebs_workloads::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// `(provider, step, FNV-1a of the step's Debug text)`, in script order.
type Golden = (&'static str, &'static str, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("aws", "cold-then-warm", 0x02625d875f56ebff),
    ("aws", "burst", 0xe43d02d7a90d248e),
    ("aws", "payload-too-large", 0x7820d09c5ef84089),
    ("aws", "sdk", 0xaeffebaa9d1f0915),
    ("aws", "storage-event", 0xf614fb16367ec846),
    ("aws", "storage-io", 0xe7a5340fa31e3d16),
    ("aws", "timeout", 0x16cb1d35f592f6f3),
    ("aws", "oom", 0x736d7694f4ce60fb),
    ("aws", "outage-then-storm", 0x7328b5a2ae1da36f),
    ("aws", "storage-fault", 0x18e19cd543dff66f),
    ("aws", "corrupt-payload", 0xd3cb658dfbaddc76),
    ("aws", "sandbox-crash", 0x42c084aec57a85fb),
    ("aws", "chains", 0x83a33e6eca419519),
    ("aws", "traces", 0x1ffe91d6c632dc7a),
    ("aws", "metrics", 0xbd5ec2b7050391c5),
    ("aws", "profile", 0x0be4a47694a991f9),
    ("azure", "cold-then-warm", 0xcd4589928f6dc082),
    ("azure", "burst", 0x8c1b0fcf5fc941a4),
    ("azure", "payload-too-large", 0x7a5fdd15006c2739),
    ("azure", "sdk", 0x25d12614cec8064a),
    ("azure", "storage-event", 0x1f3c307cf6905071),
    ("azure", "storage-io", 0xd6bbf7e364c6ead9),
    ("azure", "timeout", 0xa1150b959767505a),
    ("azure", "oom", 0x4ac9bf2de7d6329c),
    ("azure", "outage-then-storm", 0xd45e290fad452c7f),
    ("azure", "storage-fault", 0xa49bf7842f5f8ce9),
    ("azure", "corrupt-payload", 0xcbb180c07ca42e16),
    ("azure", "sandbox-crash", 0xf4092551f33def65),
    ("azure", "chains", 0x598cf0d6bc345e63),
    ("azure", "traces", 0xb7cd634d6ca6f590),
    ("azure", "metrics", 0x150fc7daaf2c4a71),
    ("azure", "profile", 0x98b8912fe821f61a),
    ("gcp", "cold-then-warm", 0x091b595da0dba0fa),
    ("gcp", "burst", 0x3a462cbcf4aad6bc),
    ("gcp", "payload-too-large", 0x8b39b6ca82c56ae1),
    ("gcp", "sdk", 0x27e7ed25b38d2b5f),
    ("gcp", "storage-event", 0x8d1723c4271e6913),
    ("gcp", "storage-io", 0x2216040e5fc09c17),
    ("gcp", "timeout", 0x673b3b27b71a569d),
    ("gcp", "oom", 0x1569fd438531f4ec),
    ("gcp", "outage-then-storm", 0x4f72745547c287b0),
    ("gcp", "storage-fault", 0xcd85d520081d8ec9),
    ("gcp", "corrupt-payload", 0xb42f43c83f451997),
    ("gcp", "sandbox-crash", 0x33186bac099e6177),
    ("gcp", "chains", 0x1703225078a1f104),
    ("gcp", "traces", 0x9e4ac0924002ae77),
    ("gcp", "metrics", 0x81b44e6246db1ca3),
    ("gcp", "profile", 0x97c6b588c2ded1f3),
];

/// A function whose footprint exceeds every provider's memory limit, so
/// it is OOM-killed after running to completion.
struct Hog;

impl Workload for Hog {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "hog".into(),
            language: Language::Python,
            dependencies: Vec::new(),
            code_package_bytes: 1_000_000,
            default_memory_mb: 256,
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
        ctx.work(2_000_000);
        ctx.alloc(4 << 30);
        Ok(Response::sized(16))
    }
}

fn debug_text<T: std::fmt::Debug>(items: &[T]) -> String {
    items.iter().map(|item| format!("{item:?}\n")).collect()
}

/// The script's observations on one provider: each step's Debug text,
/// then the exports.
struct Run {
    steps: Vec<(&'static str, String)>,
    records: Vec<InvocationRecord>,
    /// Cold starts among sixteen invocations a second apart: one on a
    /// provider with deterministic warm reuse, more on GCP.
    repeated_colds: usize,
}

impl Run {
    fn step(&mut self, name: &'static str, records: Vec<InvocationRecord>) {
        self.steps.push((name, debug_text(&records)));
        self.records.extend(records);
    }
}

fn run(profile: ProviderProfile) -> Run {
    let mut p = FaasPlatform::new(profile, 2021);
    p.set_tracing(true);
    p.enable_metrics(DEFAULT_SAMPLE_INTERVAL);
    p.enable_profiling();
    // Small admission limits, so a six-wide burst meets the concurrency
    // limit and availability errors on every provider, and a 2 MiB
    // payload is oversized.
    let limits = &mut p.profile_mut().limits;
    limits.concurrency = 4;
    limits.payload_bytes = 1 << 20;
    let quirks = &mut p.profile_mut().quirks;
    quirks.availability_threshold = 2;
    quirks.availability_error_rate = 0.5;

    let html = DynamicHtml::new(Language::Python);
    let uploader = Uploader::new(Language::Python);
    let html_id = p
        .deploy(FunctionConfig::new("dynamic-html", Language::Python, 256))
        .expect("deploys");
    let up_id = p
        .deploy(FunctionConfig::new("uploader", Language::Python, 256))
        .expect("deploys");
    let short_id = p
        .deploy(
            FunctionConfig::new("dynamic-html-short", Language::Python, 256)
                .with_timeout(SimDuration::from_micros(100)),
        )
        .expect("deploys");
    let hog_id = p
        .deploy(FunctionConfig::new("hog", Language::Python, 256))
        .expect("deploys");
    let html_payload = p.prepare(&html, Scale::Test);
    let up_payload = p.prepare(&uploader, Scale::Test);
    let second = SimDuration::from_secs(1);
    let mut run = Run {
        steps: Vec::new(),
        records: Vec::new(),
        repeated_colds: 0,
    };

    let mut repeated = Vec::new();
    for _ in 0..16 {
        repeated.push(p.invoke(html_id, &html, &html_payload));
        p.advance(second);
    }
    run.repeated_colds = repeated
        .iter()
        .filter(|r| r.start == StartKind::Cold)
        .count();
    run.step("cold-then-warm", repeated);

    let burst = vec![html_payload.clone(); 6];
    run.step("burst", p.invoke_burst(html_id, &html, &burst));
    p.advance(second);

    let mut oversized = html_payload.clone();
    oversized.body = Bytes::from(vec![0u8; 2 << 20]);
    run.step(
        "payload-too-large",
        vec![p.invoke(html_id, &html, &oversized)],
    );

    let single = std::slice::from_ref(&html_payload);
    run.step(
        "sdk",
        p.invoke_burst_via(html_id, &html, single, TriggerKind::Sdk),
    );
    p.advance(second);
    let upload = std::slice::from_ref(&up_payload);
    run.step(
        "storage-event",
        p.invoke_burst_via(up_id, &uploader, upload, TriggerKind::StorageEvent),
    );
    p.advance(second);
    run.step("storage-io", vec![p.invoke(up_id, &uploader, &up_payload)]);
    run.step("timeout", vec![p.invoke(short_id, &html, &html_payload)]);
    run.step("oom", vec![p.invoke(hog_id, &Hog, &Payload::empty())]);
    p.advance(second);

    let now = p.now();
    p.set_faults(FaultPlan {
        outages: vec![OutageWindow {
            start: now,
            end: now + second * 2,
            severity: 1.0,
        }],
        storms: vec![StormWindow {
            start: now + second * 2,
            end: now + second * 6,
            spurious_cold: 1.0,
        }],
        ..FaultPlan::empty()
    });
    let mut windows = Vec::new();
    for _ in 0..5 {
        windows.push(p.invoke(html_id, &html, &html_payload));
        p.advance(second);
    }
    run.step("outage-then-storm", windows);

    let faulty = [
        (
            "storage-fault",
            FaultPlan {
                storage_error_rate: 1.0,
                ..FaultPlan::empty()
            },
        ),
        (
            "corrupt-payload",
            FaultPlan {
                corrupt_payload_rate: 1.0,
                ..FaultPlan::empty()
            },
        ),
        ("sandbox-crash", FaultPlan::transient(1.0)),
    ];
    for (name, plan) in faulty {
        p.set_faults(plan);
        let record = if name == "storage-fault" {
            p.invoke(up_id, &uploader, &up_payload)
        } else {
            p.invoke(html_id, &html, &html_payload)
        };
        run.step(name, vec![record]);
        p.advance(second);
    }

    p.set_faults(FaultPlan::transient(0.5));
    p.set_retry_policy(RetryPolicy::parse("attempts=4,hedge=0.1").expect("valid policy"));
    let mut chains = Vec::new();
    for _ in 0..24 {
        chains.push(p.invoke_with_policy(html_id, &html, &html_payload));
        p.advance(second);
    }
    assert!(chains.iter().any(|c| c.waits.len() >= 2), "a chain retried");
    assert!(chains.iter().any(|c| c.hedged), "a chain hedged");
    run.steps.push(("chains", debug_text(&chains)));
    run.records
        .extend(chains.into_iter().flat_map(|c| c.attempts));

    let mut traces = TraceSink::new();
    traces.extend(p.take_traces());
    for trace in traces.traces() {
        assert_eq!(trace.root.validate(), Ok(()), "trace {}", trace.seq);
    }
    run.steps.push(("traces", chrome_trace_json(&traces)));
    let mut metrics = MetricsSink::new();
    metrics.push(p.take_metrics().expect("metrics are on"));
    run.steps.push(("metrics", prometheus_text(&metrics)));
    let profile = p.take_profile().expect("profiling is on");
    run.steps.push(("profile", format!("{profile:?}")));
    run
}

fn observe() -> Vec<(&'static str, Run)> {
    [
        ("aws", ProviderProfile::aws()),
        ("azure", ProviderProfile::azure()),
        ("gcp", ProviderProfile::gcp()),
    ]
    .into_iter()
    .map(|(name, profile)| (name, run(profile)))
    .collect()
}

/// The observed table in `GOLDEN`'s layout, printed when a row moves.
fn render(runs: &[(&'static str, Run)]) -> String {
    let mut out = String::new();
    for (provider, run) in runs {
        for (step, text) in &run.steps {
            out.push_str(&format!(
                "    ({provider:?}, {step:?}, {:#018x}),\n",
                fnv1a(text.as_bytes())
            ));
        }
    }
    out
}

/// Every admission and classification branch is reached on every
/// provider, so the pinned values cover the whole path.
fn assert_every_branch(provider: &str, run: &Run) {
    let outcomes = [
        "success",
        "oom",
        "timeout",
        "throttled",
        "unavailable",
        "payload-too-large",
        "function-error",
    ];
    for label in outcomes {
        assert!(
            run.records.iter().any(|r| r.outcome.label() == label),
            "{provider}: no {label} outcome"
        );
    }
    for kind in [
        FunctionErrorKind::TransientStorage,
        FunctionErrorKind::CorruptPayload,
        FunctionErrorKind::SandboxCrash,
    ] {
        assert!(
            run.records.iter().any(|r| matches!(
                r.outcome,
                InvocationOutcome::FunctionError { kind: k, .. } if k == kind
            )),
            "{provider}: no {} error",
            kind.as_str()
        );
    }
    for start in [StartKind::Cold, StartKind::Warm] {
        assert!(
            run.records
                .iter()
                .any(|r| r.start == start && r.container.is_some()),
            "{provider}: no {start:?} start"
        );
    }
    if provider == "gcp" {
        assert!(run.repeated_colds > 1, "gcp: no spurious cold start");
    } else if provider == "aws" {
        assert_eq!(run.repeated_colds, 1, "aws reuses its warm container");
    }
}

#[test]
fn the_invocation_path_matches_its_golden_outputs() {
    let runs = observe();
    for (provider, run) in &runs {
        assert_every_branch(provider, run);
    }
    let table = render(&runs);
    let got: Vec<(&str, &str, u64)> = runs
        .iter()
        .flat_map(|(provider, run)| {
            run.steps
                .iter()
                .map(move |(step, text)| (*provider, *step, fnv1a(text.as_bytes())))
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "observed table:\n{table}");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            got, want,
            "{} {} moved; observed table:\n{table}",
            got.0, got.1
        );
    }
}
