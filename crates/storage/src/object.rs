//! Persistent object storage (S3 / Blob Storage / Cloud Storage model).

use std::collections::BTreeMap;
use std::fmt;

use sebs_sim::bytes::Bytes;
use sebs_sim::rng::StreamRng;
use sebs_sim::{Dist, SimDuration};

/// Errors returned by storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested bucket does not exist.
    NoSuchBucket(String),
    /// The requested key does not exist in the bucket.
    NoSuchKey {
        /// Bucket that was queried.
        bucket: String,
        /// Missing key.
        key: String,
    },
    /// A transient, retryable failure injected by a fault plan (the
    /// storage analogue of S3's 503 SlowDown). The operation did not
    /// take effect.
    Transient {
        /// Which operation failed ("get", "put", "list").
        op: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StorageError::NoSuchKey { bucket, key } => {
                write!(f, "no such key: {bucket}/{key}")
            }
            StorageError::Transient { op } => {
                write!(f, "transient storage error during {op}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// The kind of a storage operation, for accounting and pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOp {
    /// Object download.
    Get,
    /// Object upload.
    Put,
    /// Bucket listing.
    List,
}

impl StorageOp {
    /// Stable lowercase name, used in trace span labels.
    pub fn name(self) -> &'static str {
        match self {
            StorageOp::Get => "get",
            StorageOp::Put => "put",
            StorageOp::List => "list",
        }
    }
}

/// Cumulative operation counters, the inputs to the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of GET requests served.
    pub gets: u64,
    /// Number of PUT requests served.
    pub puts: u64,
    /// Number of LIST requests served.
    pub lists: u64,
    /// Total bytes downloaded from the store.
    pub bytes_out: u64,
    /// Total bytes uploaded into the store.
    pub bytes_in: u64,
}

impl StorageStats {
    /// Total request count across operation kinds.
    pub fn requests(&self) -> u64 {
        self.gets + self.puts + self.lists
    }
}

/// The unified persistent-storage API — the paper's provider-independent
/// "translation layer". All operations report the simulated latency they
/// would incur in the cloud.
pub trait ObjectStorage {
    /// Creates a bucket if it does not exist; idempotent.
    fn create_bucket(&mut self, bucket: &str);

    /// Uploads an object, returning the simulated operation latency.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoSuchBucket`] if the bucket was not created.
    fn put(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration, StorageError>;

    /// Downloads an object with its simulated latency.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoSuchBucket`] or [`StorageError::NoSuchKey`].
    fn get(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
    ) -> Result<(Bytes, SimDuration), StorageError>;

    /// Lists keys in a bucket with the simulated latency.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NoSuchBucket`] if the bucket was not created.
    fn list(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
    ) -> Result<(Vec<String>, SimDuration), StorageError>;

    /// Object size without a transfer (HEAD), no latency accounted.
    fn size_of(&self, bucket: &str, key: &str) -> Option<u64>;

    /// Cumulative operation statistics.
    fn stats(&self) -> StorageStats;
}

/// In-memory object store with a cloud-like latency model:
/// `latency = base_op_latency + size / bandwidth`.
///
/// Defaults follow the paper's characterization of persistent storage as
/// "high throughput but also high latency": ~15–40 ms first-byte latency
/// and ~100 MB/s per-stream throughput.
///
/// # Example
///
/// ```
/// use sebs_sim::bytes::Bytes;
/// use sebs_storage::{ObjectStorage, SimObjectStore};
/// use sebs_sim::SimRng;
///
/// let mut store = SimObjectStore::default_model();
/// let mut rng = SimRng::new(1).stream("storage");
/// store.create_bucket("data");
/// let put = store.put(&mut rng, "data", "input.bin", Bytes::from(vec![0u8; 1024]))?;
/// let (blob, get) = store.get(&mut rng, "data", "input.bin")?;
/// assert_eq!(blob.len(), 1024);
/// assert!(put.as_millis() > 0 && get.as_millis() > 0);
/// # Ok::<(), sebs_storage::StorageError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimObjectStore {
    buckets: BTreeMap<String, BTreeMap<String, Bytes>>,
    get_latency_ms: Dist,
    put_latency_ms: Dist,
    list_latency_ms: Dist,
    bandwidth: Bandwidth,
    stats: StorageStats,
}

/// A store's two bandwidths, which set the transfer part of an
/// operation's latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Download bandwidth, bytes/s.
    read_bps: f64,
    /// Upload bandwidth, bytes/s.
    write_bps: f64,
}

impl Bandwidth {
    /// The pure bandwidth component of an operation's latency
    /// (`bytes / bandwidth`), with no first-byte latency and no randomness.
    /// The tracing layer captures a store's bandwidth to annotate storage
    /// spans without touching any RNG stream.
    pub fn transfer_time(&self, op: StorageOp, bytes: u64) -> SimDuration {
        let bps = match op {
            StorageOp::Get | StorageOp::List => self.read_bps,
            StorageOp::Put => self.write_bps,
        };
        SimDuration::from_secs_f64(bytes as f64 / bps)
    }
}

impl SimObjectStore {
    /// Creates a store with explicit latency distributions (milliseconds)
    /// and bandwidths (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is not strictly positive.
    pub fn new(
        get_latency_ms: Dist,
        put_latency_ms: Dist,
        list_latency_ms: Dist,
        read_bps: f64,
        write_bps: f64,
    ) -> Self {
        assert!(
            read_bps > 0.0 && write_bps > 0.0,
            "bandwidth must be positive"
        );
        SimObjectStore {
            buckets: BTreeMap::new(),
            get_latency_ms,
            put_latency_ms,
            list_latency_ms,
            bandwidth: Bandwidth {
                read_bps,
                write_bps,
            },
            stats: StorageStats::default(),
        }
    }

    /// The default cloud-object-store latency model.
    pub fn default_model() -> Self {
        SimObjectStore::new(
            Dist::shifted_lognormal(12.0, 1.2, 0.6),
            Dist::shifted_lognormal(18.0, 1.5, 0.6),
            Dist::shifted_lognormal(10.0, 1.0, 0.5),
            100e6,
            80e6,
        )
    }

    /// A near-zero-latency model standing in for MinIO running next to the
    /// benchmark — the paper's *local* evaluation backend (§5.2).
    pub fn local_minio_model() -> Self {
        SimObjectStore::new(
            Dist::shifted_lognormal(0.3, 0.0, 0.3),
            Dist::shifted_lognormal(0.4, 0.0, 0.3),
            Dist::Constant(0.2),
            1e9,
            1e9,
        )
    }

    /// Scales both bandwidths, modelling I/O allocations that grow with the
    /// function's memory size (paper §6.2 Q1).
    pub fn with_bandwidth_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth scale must be positive");
        self.bandwidth.read_bps *= factor;
        self.bandwidth.write_bps *= factor;
        self
    }

    /// Number of objects across all buckets.
    pub fn object_count(&self) -> usize {
        self.buckets.values().map(|b| b.len()).sum()
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.buckets
            .values()
            .flat_map(|b| b.values())
            .map(|v| v.len() as u64)
            .sum()
    }

    fn op_latency(&self, rng: &mut StreamRng, op: StorageOp, bytes: u64) -> SimDuration {
        let base = match op {
            StorageOp::Get => &self.get_latency_ms,
            StorageOp::Put => &self.put_latency_ms,
            StorageOp::List => &self.list_latency_ms,
        };
        base.sample_millis(rng) + self.transfer_time(op, bytes)
    }

    /// The store's bandwidths.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The pure bandwidth component of an operation's latency; see
    /// [`Bandwidth::transfer_time`].
    pub fn transfer_time(&self, op: StorageOp, bytes: u64) -> SimDuration {
        self.bandwidth.transfer_time(op, bytes)
    }
}

impl ObjectStorage for SimObjectStore {
    fn create_bucket(&mut self, bucket: &str) {
        self.buckets.entry(bucket.to_string()).or_default();
    }

    fn put(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration, StorageError> {
        let size = data.len() as u64;
        let b = self
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StorageError::NoSuchBucket(bucket.to_string()))?;
        b.insert(key.to_string(), data);
        self.stats.puts += 1;
        self.stats.bytes_in += size;
        Ok(self.op_latency(rng, StorageOp::Put, size))
    }

    fn get(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
        key: &str,
    ) -> Result<(Bytes, SimDuration), StorageError> {
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| StorageError::NoSuchBucket(bucket.to_string()))?;
        let data = b
            .get(key)
            .ok_or_else(|| StorageError::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            })?
            .clone();
        let size = data.len() as u64;
        self.stats.gets += 1;
        self.stats.bytes_out += size;
        Ok((data, self.op_latency(rng, StorageOp::Get, size)))
    }

    fn list(
        &mut self,
        rng: &mut StreamRng,
        bucket: &str,
    ) -> Result<(Vec<String>, SimDuration), StorageError> {
        let b = self
            .buckets
            .get(bucket)
            .ok_or_else(|| StorageError::NoSuchBucket(bucket.to_string()))?;
        let mut keys: Vec<String> = b.keys().cloned().collect();
        keys.sort();
        self.stats.lists += 1;
        Ok((keys, self.op_latency(rng, StorageOp::List, 0)))
    }

    fn size_of(&self, bucket: &str, key: &str) -> Option<u64> {
        self.buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .map(|v| v.len() as u64)
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    fn store() -> SimObjectStore {
        SimObjectStore::new(
            Dist::Constant(10.0),
            Dist::Constant(20.0),
            Dist::Constant(5.0),
            100e6,
            50e6,
        )
    }

    fn rng() -> StreamRng {
        SimRng::new(0).stream("t")
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        let data = Bytes::from_static(b"hello world");
        s.put(&mut r, "b", "k", data.clone()).unwrap();
        let (out, _) = s.get(&mut r, "b", "k").unwrap();
        assert_eq!(out, data);
        assert_eq!(s.size_of("b", "k"), Some(11));
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.stored_bytes(), 11);
    }

    #[test]
    fn latency_model_is_base_plus_size_over_bandwidth() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        // 100 MB put at 50 MB/s = 2 s + 20 ms base.
        let put = s
            .put(&mut r, "b", "big", Bytes::from(vec![0u8; 100_000_000]))
            .unwrap();
        assert_eq!(put.as_millis(), 2020);
        // 100 MB get at 100 MB/s = 1 s + 10 ms base.
        let (_, get) = s.get(&mut r, "b", "big").unwrap();
        assert_eq!(get.as_millis(), 1010);
    }

    #[test]
    fn missing_bucket_and_key_errors() {
        let mut s = store();
        let mut r = rng();
        assert_eq!(
            s.get(&mut r, "nope", "k").unwrap_err(),
            StorageError::NoSuchBucket("nope".into())
        );
        s.create_bucket("b");
        let err = s.get(&mut r, "b", "k").unwrap_err();
        assert!(matches!(err, StorageError::NoSuchKey { .. }));
        assert!(err.to_string().contains("b/k"));
        assert!(
            s.put(&mut r, "nope", "k", Bytes::new()).is_err(),
            "put to missing bucket fails"
        );
    }

    #[test]
    fn create_bucket_is_idempotent() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        s.put(&mut r, "b", "k", Bytes::from_static(b"x")).unwrap();
        s.create_bucket("b");
        assert_eq!(s.object_count(), 1, "re-creating does not clear data");
    }

    #[test]
    fn list_returns_sorted_keys() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        for k in ["zeta", "alpha", "mid"] {
            s.put(&mut r, "b", k, Bytes::new()).unwrap();
        }
        let (keys, lat) = s.list(&mut r, "b").unwrap();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        assert_eq!(lat.as_millis(), 5);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        s.put(&mut r, "b", "k", Bytes::from(vec![1u8; 100]))
            .unwrap();
        s.get(&mut r, "b", "k").unwrap();
        s.get(&mut r, "b", "k").unwrap();
        s.list(&mut r, "b").unwrap();
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 2);
        assert_eq!(st.lists, 1);
        assert_eq!(st.bytes_in, 100);
        assert_eq!(st.bytes_out, 200);
        assert_eq!(st.requests(), 4);
    }

    #[test]
    fn overwrite_replaces_object() {
        let mut s = store();
        let mut r = rng();
        s.create_bucket("b");
        s.put(&mut r, "b", "k", Bytes::from_static(b"one")).unwrap();
        s.put(&mut r, "b", "k", Bytes::from_static(b"two!"))
            .unwrap();
        let (out, _) = s.get(&mut r, "b", "k").unwrap();
        assert_eq!(out, Bytes::from_static(b"two!"));
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn bandwidth_scaling_speeds_up_transfers() {
        let mut base = store();
        let mut fast = store().with_bandwidth_scale(4.0);
        let mut r1 = rng();
        let mut r2 = rng();
        base.create_bucket("b");
        fast.create_bucket("b");
        let payload = Bytes::from(vec![0u8; 50_000_000]);
        base.put(&mut r1, "b", "k", payload.clone()).unwrap();
        fast.put(&mut r2, "b", "k", payload).unwrap();
        let (_, slow_get) = base.get(&mut r1, "b", "k").unwrap();
        let (_, fast_get) = fast.get(&mut r2, "b", "k").unwrap();
        assert!(fast_get < slow_get);
    }

    #[test]
    fn local_minio_is_much_faster_than_cloud() {
        let mut cloud = SimObjectStore::default_model();
        let mut local = SimObjectStore::local_minio_model();
        let mut r1 = rng();
        let mut r2 = rng();
        cloud.create_bucket("b");
        local.create_bucket("b");
        let payload = Bytes::from(vec![0u8; 1_000_000]);
        cloud.put(&mut r1, "b", "k", payload.clone()).unwrap();
        local.put(&mut r2, "b", "k", payload).unwrap();
        let (_, c) = cloud.get(&mut r1, "b", "k").unwrap();
        let (_, l) = local.get(&mut r2, "b", "k").unwrap();
        assert!(
            c.as_secs_f64() > 5.0 * l.as_secs_f64(),
            "cloud {c} vs local {l}"
        );
    }

    #[test]
    fn transfer_time_is_pure_bandwidth() {
        let s = store();
        assert_eq!(
            s.transfer_time(StorageOp::Get, 100_000_000),
            SimDuration::from_secs_f64(1.0)
        );
        assert_eq!(
            s.transfer_time(StorageOp::Put, 100_000_000),
            SimDuration::from_secs_f64(2.0)
        );
        assert_eq!(s.transfer_time(StorageOp::List, 0), SimDuration::ZERO);
    }

    #[test]
    fn storage_op_names() {
        assert_eq!(StorageOp::Get.name(), "get");
        assert_eq!(StorageOp::Put.name(), "put");
        assert_eq!(StorageOp::List.name(), "list");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = SimObjectStore::new(
            Dist::Constant(0.0),
            Dist::Constant(0.0),
            Dist::Constant(0.0),
            0.0,
            1.0,
        );
    }
}
