//! Latency/throughput metering middleware.
//!
//! [`MetricsStore`] wraps any [`ObjectStore`] and times every operation
//! into shared [`telemetry::LatencyRecorder`]s, counting bytes moved and
//! errors seen. It stacks anywhere in the middleware chain — typically at
//! the very bottom, *under* [`RetryStore`](crate::RetryStore) and
//! [`ChaosStore`](crate::ChaosStore), so each physical attempt (including
//! retried ones) is measured individually, the way a wire-level tracer
//! would see it.
//!
//! The cloneable [`MetricsHandle`] survives the store itself: the volume
//! keeps one and folds it into `TelemetrySnapshot.backend`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use telemetry::{BackendOps, LatencyRecorder};

use crate::{ObjectStore, Result};

#[derive(Debug, Default)]
struct Counters {
    put_bytes: AtomicU64,
    get_bytes: AtomicU64,
    errors: AtomicU64,
    transient_errors: AtomicU64,
}

/// Shared, cloneable view of a [`MetricsStore`]'s recorders and counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    put: LatencyRecorder,
    get: LatencyRecorder,
    head: LatencyRecorder,
    list: LatencyRecorder,
    delete: LatencyRecorder,
    counters: Arc<Counters>,
}

impl MetricsHandle {
    /// Creates a fresh handle (normally done by [`MetricsStore::new`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots all backend-op telemetry.
    pub fn snapshot(&self) -> BackendOps {
        BackendOps {
            put: self.put.snapshot(),
            get: self.get.snapshot(),
            head: self.head.snapshot(),
            list: self.list.snapshot(),
            delete: self.delete.snapshot(),
            put_bytes: self.counters.put_bytes.load(Ordering::Relaxed),
            get_bytes: self.counters.get_bytes.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            transient_errors: self.counters.transient_errors.load(Ordering::Relaxed),
        }
    }

    fn time<T>(&self, rec: &LatencyRecorder, op: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let result = op();
        rec.observe(start.elapsed());
        if let Err(e) = &result {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            if e.is_transient() {
                self.counters
                    .transient_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

/// An [`ObjectStore`] middleware that meters every operation through a
/// [`MetricsHandle`].
#[derive(Debug)]
pub struct MetricsStore<S> {
    inner: S,
    handle: MetricsHandle,
}

impl<S: ObjectStore> MetricsStore<S> {
    /// Wraps `inner` with a fresh handle.
    pub fn new(inner: S) -> Self {
        Self::with_handle(inner, MetricsHandle::new())
    }

    /// Wraps `inner`, recording into an existing `handle` (lets several
    /// stores — e.g. data and checkpoint paths — share one set of
    /// recorders).
    pub fn with_handle(inner: S, handle: MetricsHandle) -> Self {
        MetricsStore { inner, handle }
    }

    /// A clone of the shared handle.
    pub fn handle(&self) -> MetricsHandle {
        self.handle.clone()
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ObjectStore> ObjectStore for MetricsStore<S> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let len = data.len() as u64;
        let r = self
            .handle
            .time(&self.handle.put, || self.inner.put(name, data));
        if r.is_ok() {
            self.handle
                .counters
                .put_bytes
                .fetch_add(len, Ordering::Relaxed);
        }
        r
    }

    fn get(&self, name: &str) -> Result<Bytes> {
        let r = self.handle.time(&self.handle.get, || self.inner.get(name));
        if let Ok(data) = &r {
            self.handle
                .counters
                .get_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        let r = self
            .handle
            .time(&self.handle.get, || self.inner.get_range(name, offset, len));
        if let Ok(data) = &r {
            self.handle
                .counters
                .get_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn head(&self, name: &str) -> Result<u64> {
        self.handle
            .time(&self.handle.head, || self.inner.head(name))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.handle
            .time(&self.handle.delete, || self.inner.delete(name))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.handle
            .time(&self.handle.list, || self.inner.list(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosStore, MemStore};

    #[test]
    fn meters_ops_and_bytes() {
        let store = MetricsStore::new(MemStore::new());
        let h = store.handle();
        store.put("o/1", Bytes::from(vec![7u8; 1024])).unwrap();
        store.put("o/2", Bytes::from(vec![8u8; 512])).unwrap();
        let got = store.get("o/1").unwrap();
        assert_eq!(got.len(), 1024);
        store.get_range("o/2", 0, 100).unwrap();
        store.head("o/1").unwrap();
        store.list("o/").unwrap();
        store.delete("o/2").unwrap();

        let s = h.snapshot();
        assert_eq!(s.put.count, 2);
        assert_eq!(s.get.count, 2); // whole-object + range share the recorder
        assert_eq!(s.head.count, 1);
        assert_eq!(s.list.count, 1);
        assert_eq!(s.delete.count, 1);
        assert_eq!(s.put_bytes, 1536);
        assert_eq!(s.get_bytes, 1124);
        assert_eq!(s.errors, 0);
        // Even in-memory ops take > 0ns, so percentiles must be non-zero.
        assert!(s.put.p50_ns > 0.0, "{:?}", s.put);
    }

    #[test]
    fn counts_errors_by_class() {
        let store = MetricsStore::new(MemStore::new());
        let h = store.handle();
        assert!(store.get("missing").is_err()); // permanent
        let s = h.snapshot();
        assert_eq!(s.errors, 1);
        assert_eq!(s.transient_errors, 0);

        let inner = ChaosStore::new(MemStore::new());
        inner.fail_next_puts(1);
        let flaky = MetricsStore::new(inner);
        let h = flaky.handle();
        assert!(flaky.put("x", Bytes::from_static(b"d")).is_err());
        let s = h.snapshot();
        assert_eq!(s.errors, 1);
        assert_eq!(s.transient_errors, 1);
        assert_eq!(s.put_bytes, 0, "failed put must not count bytes");
    }

    #[test]
    fn exists_routes_through_head_metering() {
        let store = MetricsStore::new(MemStore::new());
        let h = store.handle();
        store.put("p", Bytes::from_static(b"z")).unwrap();
        assert!(store.exists("p").unwrap());
        assert!(!store.exists("q").unwrap());
        let s = h.snapshot();
        assert_eq!(s.head.count, 2);
        // exists() maps NotFound to Ok(false) *above* the metering layer,
        // so the miss still counts as a (permanent) head error here.
        assert_eq!(s.errors, 1);
    }
}
