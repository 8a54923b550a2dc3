//! The storage-boundary probe: a [`StorageBackend`] that forwards every
//! trait method to the store it wraps and counts what crosses it.
//!
//! Untraced, it keeps only atomic call and byte counters, which is what the
//! exact `storage_rpcs_per_op` needs. Traced, it also times every call and
//! remembers, per operation, which objects were version-probed (`stat`) and
//! which were fetched, so the metadata cache's hit ratio can be read off at
//! the boundary. Every method with a default body is forwarded too, so the
//! wrapped store never falls back to the trait's per-object loops.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nexus_storage::{IoStats, ObjectStat, StorageBackend, StorageError};

/// Every trait method that reaches the store, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    GetMany,
    GetRange,
    Put,
    PutMany,
    Stat,
    StatMany,
    Delete,
    Lock,
    Unlock,
    Exists,
    List,
}

impl Method {
    pub const ALL: [Method; 12] = [
        Method::Get,
        Method::GetMany,
        Method::GetRange,
        Method::Put,
        Method::PutMany,
        Method::Stat,
        Method::StatMany,
        Method::Delete,
        Method::Lock,
        Method::Unlock,
        Method::Exists,
        Method::List,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Method::Get => "get",
            Method::GetMany => "get_many",
            Method::GetRange => "get_range",
            Method::Put => "put",
            Method::PutMany => "put_many",
            Method::Stat => "stat",
            Method::StatMany => "stat_many",
            Method::Delete => "delete",
            Method::Lock => "lock",
            Method::Unlock => "unlock",
            Method::Exists => "exists",
            Method::List => "list",
        }
    }
}

const METHODS: usize = Method::ALL.len();

/// Exact counters at the storage boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: [u64; METHODS],
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Counts {
    pub fn rpcs(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn calls_of(&self, m: Method) -> u64 {
        self.calls[m as usize]
    }

    pub fn add(&mut self, other: &Counts) {
        for (c, o) in self.calls.iter_mut().zip(other.calls) {
            *c += o;
        }
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }

    pub fn delta_since(&self, earlier: &Counts) -> Counts {
        let mut calls = [0u64; METHODS];
        for (i, c) in calls.iter_mut().enumerate() {
            *c = self.calls[i] - earlier.calls[i];
        }
        Counts {
            calls,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

/// What the traced probe records.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// Per-method call durations in nanoseconds.
    pub durations: [Vec<u64>; METHODS],
    /// Total time spent in the store.
    pub busy: Duration,
    /// Version probes seen so far, and those not followed by a fetch of
    /// the same object within the same operation.
    pub probes: u64,
    pub probe_hits: u64,
    /// Name hashes of the current operation's probes and fetches.
    op_stats: Vec<u64>,
    op_gets: Vec<u64>,
}

/// The probe itself.
pub struct Probe {
    inner: Arc<dyn StorageBackend>,
    calls: [AtomicU64; METHODS],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    max_put: AtomicU64,
    trace: Option<Mutex<TraceLog>>,
}

impl Probe {
    pub fn new(inner: Arc<dyn StorageBackend>, traced: bool) -> Probe {
        Probe {
            inner,
            calls: Default::default(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            max_put: AtomicU64::new(0),
            trace: traced.then(|| Mutex::new(TraceLog::default())),
        }
    }

    /// The wrapped store, for audits that must not show up in the counts.
    pub fn inner(&self) -> &Arc<dyn StorageBackend> {
        &self.inner
    }

    pub fn counts(&self) -> Counts {
        let mut calls = [0u64; METHODS];
        for (c, a) in calls.iter_mut().zip(&self.calls) {
            *c = a.load(Relaxed);
        }
        Counts {
            calls,
            bytes_read: self.bytes_read.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
        }
    }

    /// The largest single object written since the last call.
    pub fn take_max_put(&self) -> u64 {
        self.max_put.swap(0, Relaxed)
    }

    /// Closes the current operation for the cache-hit bookkeeping.
    pub fn end_op(&self) {
        if let Some(trace) = &self.trace {
            let mut t = trace.lock().expect("probe trace lock poisoned");
            let stats = std::mem::take(&mut t.op_stats);
            let gets = std::mem::take(&mut t.op_gets);
            t.probes += stats.len() as u64;
            t.probe_hits += stats.iter().filter(|s| !gets.contains(s)).count() as u64;
        }
    }

    /// Runs `f` against the trace log (traced probes only).
    pub fn with_trace<R>(&self, f: impl FnOnce(&mut TraceLog) -> R) -> Option<R> {
        self.trace
            .as_ref()
            .map(|t| f(&mut t.lock().expect("probe trace lock poisoned")))
    }

    fn call<R>(&self, m: Method, f: impl FnOnce(&dyn StorageBackend) -> R) -> R {
        self.calls[m as usize].fetch_add(1, Relaxed);
        match &self.trace {
            None => f(self.inner.as_ref()),
            Some(trace) => {
                let started = Instant::now();
                let out = f(self.inner.as_ref());
                let took = started.elapsed();
                let mut t = trace.lock().expect("probe trace lock poisoned");
                t.durations[m as usize].push(took.as_nanos() as u64);
                t.busy += took;
                out
            }
        }
    }

    fn note_stat(&self, path: &str) {
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .expect("probe trace lock poisoned")
                .op_stats
                .push(name_hash(path));
        }
    }

    fn note_gets<'a>(&self, paths: impl Iterator<Item = &'a str>) {
        if let Some(trace) = &self.trace {
            let mut t = trace.lock().expect("probe trace lock poisoned");
            t.op_gets.extend(paths.map(name_hash));
        }
    }

    fn read_bytes(&self, n: usize) {
        self.bytes_read.fetch_add(n as u64, Relaxed);
    }

    fn wrote(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Relaxed);
        self.max_put.fetch_max(n as u64, Relaxed);
    }
}

impl StorageBackend for Probe {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.wrote(data.len());
        self.call(Method::Put, |s| s.put(path, data))
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.note_gets(std::iter::once(path));
        let out = self.call(Method::Get, |s| s.get(path));
        if let Ok(d) = &out {
            self.read_bytes(d.len());
        }
        out
    }

    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        self.note_gets(std::iter::once(path));
        let out = self.call(Method::GetRange, |s| s.get_range(path, offset, len));
        if let Ok(d) = &out {
            self.read_bytes(d.len());
        }
        out
    }

    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.call(Method::Delete, |s| s.delete(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.call(Method::Exists, |s| s.exists(path))
    }

    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.note_stat(path);
        self.call(Method::Stat, |s| s.stat(path))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.call(Method::List, |s| s.list(prefix))
    }

    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.call(Method::Lock, |s| s.lock(path, owner))
    }

    fn unlock(&self, path: &str, owner: u64) {
        self.call(Method::Unlock, |s| s.unlock(path, owner))
    }

    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.note_gets(paths.iter().map(String::as_str));
        let out = self.call(Method::GetMany, |s| s.get_many(paths));
        for d in out.iter().flatten() {
            self.read_bytes(d.len());
        }
        out
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        for (_, d) in items {
            self.wrote(d.len());
        }
        self.call(Method::PutMany, |s| s.put_many(items))
    }

    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        for p in paths {
            self.note_stat(p);
        }
        self.call(Method::StatMany, |s| s.stat_many(paths))
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn simulated_time(&self) -> Duration {
        self.inner.simulated_time()
    }

    fn audit_storage(&self) -> Vec<String> {
        self.inner.audit_storage()
    }
}

/// A fixed-key hash of an object name (names are compared, never kept).
fn name_hash(path: &str) -> u64 {
    let mut h = DefaultHasher::new();
    path.hash(&mut h);
    h.finish()
}

/// Objects on the store and their total size, read from the wrapped store
/// so the audit itself is not counted.
pub fn inventory(probe: &Probe) -> (u64, u64) {
    let inner = probe.inner();
    let names = inner.list("");
    let bytes = names
        .iter()
        .map(|n| inner.stat(n).map(|s| s.size).unwrap_or(0))
        .sum();
    (names.len() as u64, bytes)
}
