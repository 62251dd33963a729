//! The workload abstraction and its instrumentation context.
//!
//! A [`Workload`] is a deterministic function from a payload to a response,
//! executed inside an [`InvocationCtx`] that plays the role of the paper's
//! local measurement harness (§5.1): it counts work ("instructions"),
//! tracks peak memory (the USS analogue) and accumulates simulated storage
//! I/O time. CPU utilization — the ratio of compute time to wall-clock time
//! that exposes I/O-bound applications in Table 4 — falls out of the
//! counters: the platform computes it as `cpu_time / (cpu_time + io_time)`.

use std::fmt;

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_sim::SimDuration;
use sebs_storage::{ObjectStorage, StorageError};

/// Implementation language of the benchmark (paper Table 3 ships Python and
/// Node.js variants). The language determines the sandbox's runtime-startup
/// cost and a relative execution-speed factor in the platform model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Language {
    /// CPython 3.7 profile.
    #[default]
    Python,
    /// Node.js 10 profile.
    NodeJs,
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Language::Python => f.write_str("python"),
            Language::NodeJs => f.write_str("nodejs"),
        }
    }
}

/// Input-size selector for a benchmark, mirroring SeBS's test/small/large
/// input generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Smoke-test size: milliseconds of work.
    Test,
    /// The size used for the paper-shaped experiments.
    Small,
    /// A heavyweight input.
    Large,
}

/// Static description of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name, e.g. `graph-bfs`.
    pub name: String,
    /// Implementation language profile.
    pub language: Language,
    /// Third-party dependencies the original implementation needs
    /// (informational; our kernels are self-contained).
    pub dependencies: Vec<String>,
    /// Size of the deployment package in bytes (drives cold-start cost;
    /// the paper's image-recognition ships 250 MB).
    pub code_package_bytes: u64,
    /// Default memory configuration in MB.
    pub default_memory_mb: u32,
}

/// The request payload delivered through a trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    /// Opaque request body (its size rides through the trigger model).
    pub body: Bytes,
    /// Named parameters for the kernel.
    pub params: Vec<(String, String)>,
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Payload {
            body: Bytes::new(),
            params: Vec::new(),
        }
    }

    /// A payload with only parameters.
    pub fn with_params(params: Vec<(String, String)>) -> Self {
        Payload {
            body: Bytes::new(),
            params,
        }
    }

    /// Looks up a parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Payload size in bytes (body only, as on the wire).
    pub fn size_bytes(&self) -> u64 {
        self.body.len() as u64
    }
}

/// The response a function returns to its trigger.
///
/// A response carries its size in bytes, which is all the platform reads:
/// it sets the response transfer time and the egress charge (paper §6.3
/// Q4: graph-bfs returns ≈78 kB, thumbnailer ≈3 kB). It holds a body only
/// when a kernel produced real bytes. The paper kernels build theirs with
/// [`Response::new`]; a synthetic fleet function returns a body-less
/// [`Response::sized`], which allocates nothing. Either way the size is
/// fixed at construction, so it always matches the body when there is one.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    size_bytes: u64,
    body: Option<Bytes>,
}

impl Response {
    /// A response carrying `body`; its size is the body's length.
    pub fn new(body: impl Into<Bytes>) -> Self {
        let body = body.into();
        Response {
            size_bytes: body.len() as u64,
            body: Some(body),
        }
    }

    /// A body-less response of `size_bytes` bytes, for a kernel whose
    /// output only matters by its size.
    pub fn sized(size_bytes: u64) -> Self {
        Response {
            size_bytes,
            body: None,
        }
    }

    /// Response size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// The body, or `None` for a [`Response::sized`] response.
    pub fn body(&self) -> Option<&[u8]> {
        self.body.as_deref()
    }
}

/// Errors a workload can raise during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A required storage object was missing or a storage call failed.
    Storage(String),
    /// A storage call failed transiently (injected fault); safe to retry.
    TransientStorage(String),
    /// The payload was malformed for this benchmark.
    BadPayload(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Storage(e) => write!(f, "storage failure: {e}"),
            WorkloadError::TransientStorage(e) => {
                write!(f, "transient storage failure: {e}")
            }
            WorkloadError::BadPayload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<StorageError> for WorkloadError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Transient { .. } => WorkloadError::TransientStorage(e.to_string()),
            _ => WorkloadError::Storage(e.to_string()),
        }
    }
}

/// Abstract resource counters filled in by a kernel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Abstract compute work units ("instructions").
    pub instructions: u64,
    /// Bytes read from persistent storage.
    pub storage_bytes_read: u64,
    /// Bytes written to persistent storage.
    pub storage_bytes_written: u64,
    /// Number of storage requests issued.
    pub storage_requests: u64,
}

/// Kind of a recorded I/O event (for tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// A storage download.
    Get,
    /// A storage upload.
    Put,
    /// Non-storage external wait (e.g. origin-server download).
    External,
}

/// One I/O operation observed during a kernel run, recorded only when the
/// context has [`InvocationCtx::enable_io_recording`] switched on. The
/// tracing layer turns each event into a child span of `execute`.
#[derive(Debug, Clone, PartialEq)]
pub struct IoEvent {
    /// What kind of operation this was.
    pub kind: IoKind,
    /// Bucket name (empty for external I/O).
    pub bucket: String,
    /// Object key (empty for external I/O).
    pub key: String,
    /// Bytes moved (0 for external I/O).
    pub bytes: u64,
    /// Unscaled model latency of the operation.
    pub duration: SimDuration,
}

/// Per-invocation instrumentation context.
///
/// Owns the mutable view of the environment (storage handle, RNG) plus the
/// counters the platform converts into time, memory and cost.
pub struct InvocationCtx<'a> {
    storage: &'a mut dyn ObjectStorage,
    rng: &'a mut StreamRng,
    counters: WorkCounters,
    io_time: SimDuration,
    current_alloc: u64,
    peak_alloc: u64,
    record_io: bool,
    io_events: Vec<IoEvent>,
}

impl<'a> fmt::Debug for InvocationCtx<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvocationCtx")
            .field("counters", &self.counters)
            .field("io_time", &self.io_time)
            .field("peak_alloc", &self.peak_alloc)
            .finish()
    }
}

impl<'a> InvocationCtx<'a> {
    /// Creates a context over the sandbox's storage handle and RNG stream.
    pub fn new(storage: &'a mut dyn ObjectStorage, rng: &'a mut StreamRng) -> Self {
        InvocationCtx {
            storage,
            rng,
            counters: WorkCounters::default(),
            io_time: SimDuration::ZERO,
            current_alloc: 0,
            peak_alloc: 0,
            record_io: false,
            io_events: Vec::new(),
        }
    }

    /// Turns on per-operation I/O event recording (off by default; the
    /// recording never consumes randomness, so it cannot perturb results).
    pub fn enable_io_recording(&mut self) {
        self.record_io = true;
    }

    /// Ends the invocation, handing over the recorded I/O events without
    /// copying them (empty, and unallocated, unless recording was enabled).
    pub fn into_io_events(self) -> Vec<IoEvent> {
        self.io_events
    }

    /// Adds `n` abstract work units (the kernel's "instructions executed").
    pub fn work(&mut self, n: u64) {
        self.counters.instructions += n;
    }

    /// Records `bytes` of live allocation; pairs with [`InvocationCtx::free`].
    pub fn alloc(&mut self, bytes: u64) {
        self.current_alloc += bytes;
        self.peak_alloc = self.peak_alloc.max(self.current_alloc);
    }

    /// Releases `bytes` of live allocation (saturating).
    pub fn free(&mut self, bytes: u64) {
        self.current_alloc = self.current_alloc.saturating_sub(bytes);
    }

    /// Downloads an object, accounting latency and counters.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] as [`WorkloadError::Storage`].
    pub fn storage_get(&mut self, bucket: &str, key: &str) -> Result<Bytes, WorkloadError> {
        let (data, latency) = self.storage.get(self.rng, bucket, key)?;
        self.io_time += latency;
        self.counters.storage_requests += 1;
        self.counters.storage_bytes_read += data.len() as u64;
        if self.record_io {
            self.io_events.push(IoEvent {
                kind: IoKind::Get,
                bucket: bucket.to_string(),
                key: key.to_string(),
                bytes: data.len() as u64,
                duration: latency,
            });
        }
        Ok(data)
    }

    /// Uploads an object, accounting latency and counters.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] as [`WorkloadError::Storage`].
    pub fn storage_put(
        &mut self,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<(), WorkloadError> {
        let size = data.len() as u64;
        let latency = self.storage.put(self.rng, bucket, key, data)?;
        self.io_time += latency;
        self.counters.storage_requests += 1;
        self.counters.storage_bytes_written += size;
        if self.record_io {
            self.io_events.push(IoEvent {
                kind: IoKind::Put,
                bucket: bucket.to_string(),
                key: key.to_string(),
                bytes: size,
                duration: latency,
            });
        }
        Ok(())
    }

    /// Adds external (non-storage) I/O wait, e.g. the uploader's download
    /// from an origin server.
    pub fn external_io(&mut self, wait: SimDuration) {
        self.io_time += wait;
        if self.record_io {
            self.io_events.push(IoEvent {
                kind: IoKind::External,
                bucket: String::new(),
                key: String::new(),
                bytes: 0,
                duration: wait,
            });
        }
    }

    /// The RNG stream for data-dependent randomness inside kernels.
    pub fn rng(&mut self) -> &mut StreamRng {
        self.rng
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> WorkCounters {
        self.counters
    }

    /// Simulated time spent waiting on storage and external I/O.
    pub fn io_time(&self) -> SimDuration {
        self.io_time
    }

    /// Peak tracked allocation in bytes (the USS analogue).
    pub fn peak_alloc_bytes(&self) -> u64 {
        self.peak_alloc
    }

    /// Currently tracked live allocation in bytes.
    pub fn live_alloc_bytes(&self) -> u64 {
        self.current_alloc
    }
}

/// A deterministic serverless benchmark.
pub trait Workload {
    /// Static metadata.
    fn spec(&self) -> WorkloadSpec;

    /// Prepares the environment: uploads any input objects to `storage` and
    /// returns the invocation payload for the given input scale.
    fn prepare(
        &self,
        scale: Scale,
        rng: &mut StreamRng,
        storage: &mut dyn ObjectStorage,
    ) -> Payload;

    /// Runs the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on malformed payloads or storage failures.
    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    fn setup() -> (SimObjectStore, StreamRng) {
        (
            SimObjectStore::local_minio_model(),
            SimRng::new(5).stream("h"),
        )
    }

    #[test]
    fn counters_accumulate() {
        let (mut store, mut rng) = setup();
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.work(100);
        ctx.work(50);
        assert_eq!(ctx.counters().instructions, 150);
    }

    #[test]
    fn alloc_tracks_peak_not_current() {
        let (mut store, mut rng) = setup();
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.alloc(1000);
        ctx.alloc(500);
        ctx.free(1200);
        ctx.alloc(100);
        assert_eq!(ctx.peak_alloc_bytes(), 1500);
        assert_eq!(ctx.live_alloc_bytes(), 400);
        // Over-freeing saturates instead of underflowing.
        ctx.free(10_000);
        assert_eq!(ctx.live_alloc_bytes(), 0);
    }

    #[test]
    fn storage_roundtrip_counts_io() {
        let (mut store, mut rng) = setup();
        store.create_bucket("b");
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.storage_put("b", "k", Bytes::from(vec![9u8; 64]))
            .unwrap();
        let data = ctx.storage_get("b", "k").unwrap();
        assert_eq!(data.len(), 64);
        let c = ctx.counters();
        assert_eq!(c.storage_requests, 2);
        assert_eq!(c.storage_bytes_written, 64);
        assert_eq!(c.storage_bytes_read, 64);
        assert!(ctx.io_time() > SimDuration::ZERO);
    }

    #[test]
    fn storage_errors_become_workload_errors() {
        let (mut store, mut rng) = setup();
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let err = ctx.storage_get("missing", "k").unwrap_err();
        assert!(matches!(err, WorkloadError::Storage(_)));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn io_recording_is_opt_in_and_ordered() {
        let (mut store, mut rng) = setup();
        store.create_bucket("b");
        // Off by default.
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.storage_put("b", "k", Bytes::from(vec![1u8; 8]))
            .unwrap();
        assert!(ctx.into_io_events().is_empty());
        // On: events appear in issue order with sizes and latencies.
        let mut rng = SimRng::new(5).stream("h2");
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.enable_io_recording();
        ctx.storage_get("b", "k").unwrap();
        ctx.storage_put("b", "k2", Bytes::from(vec![2u8; 32]))
            .unwrap();
        ctx.external_io(SimDuration::from_millis(7));
        let ev = ctx.into_io_events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, IoKind::Get);
        assert_eq!((ev[0].bucket.as_str(), ev[0].key.as_str()), ("b", "k"));
        assert_eq!(ev[0].bytes, 8);
        assert!(ev[0].duration > SimDuration::ZERO);
        assert_eq!(ev[1].kind, IoKind::Put);
        assert_eq!(ev[1].bytes, 32);
        assert_eq!(ev[2].kind, IoKind::External);
        assert_eq!(ev[2].duration, SimDuration::from_millis(7));
    }

    #[test]
    fn external_io_adds_wait() {
        let (mut store, mut rng) = setup();
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        ctx.external_io(SimDuration::from_millis(25));
        assert_eq!(ctx.io_time().as_millis(), 25);
    }

    #[test]
    fn payload_params() {
        let p = Payload::with_params(vec![("size".into(), "big".into())]);
        assert_eq!(p.param("size"), Some("big"));
        assert_eq!(p.param("nope"), None);
        assert_eq!(p.size_bytes(), 0);
        assert_eq!(Payload::empty().params.len(), 0);
    }

    #[test]
    fn response_size() {
        let r = Response::new(vec![7u8; 78_000]);
        assert_eq!(r.size_bytes(), 78_000);
        assert_eq!(r.body().map(<[u8]>::len), Some(78_000));
        let sized = Response::sized(1024);
        assert_eq!((sized.size_bytes(), sized.body()), (1024, None));
    }

    #[test]
    fn language_display() {
        assert_eq!(Language::Python.to_string(), "python");
        assert_eq!(Language::NodeJs.to_string(), "nodejs");
    }

    #[test]
    fn scale_orders() {
        assert!(Scale::Test < Scale::Small && Scale::Small < Scale::Large);
    }
}
