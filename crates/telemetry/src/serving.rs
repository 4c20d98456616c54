//! Shared serving-plane recorders.
//!
//! [`ServingRecorders`] is the live, thread-safe counterpart of
//! [`ServingTelemetry`](crate::ServingTelemetry): the NBD server clones it
//! into every connection and worker thread, and the volume snapshots it
//! into its aggregate telemetry. Latencies go through
//! [`LatencyRecorder`] sketches; gauges are plain atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::recorder::LatencyRecorder;
use crate::snapshot::ServingTelemetry;

#[derive(Debug, Default)]
struct Counters {
    conns_open: AtomicU64,
    conns_total: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    trims: AtomicU64,
    errors: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    throttle_waits: AtomicU64,
    reactor_runs: AtomicU64,
}

/// Cloneable handle recording serving-plane activity; all clones share
/// the same counters and sketches.
#[derive(Clone, Debug, Default)]
pub struct ServingRecorders {
    /// Request-frame read plus reply write time (transport cost).
    pub socket_wait: LatencyRecorder,
    /// Time between a request entering and leaving the scheduler queue.
    pub queue_wait: LatencyRecorder,
    /// Time inside the volume call servicing a request.
    pub service: LatencyRecorder,
    counters: Arc<Counters>,
}

impl ServingRecorders {
    /// Creates a fresh set of recorders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes an accepted connection.
    pub fn conn_opened(&self) {
        self.counters.conns_open.fetch_add(1, Ordering::Relaxed);
        self.counters.conns_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a closed (or dropped) connection.
    pub fn conn_closed(&self) {
        self.counters.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one served READ.
    pub fn count_read(&self) {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served WRITE.
    pub fn count_write(&self) {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served FLUSH (including FUA-forced flushes).
    pub fn count_flush(&self) {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one served TRIM.
    pub fn count_trim(&self) {
        self.counters.trims.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered with an error code.
    pub fn count_error(&self) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to the bytes served to READ replies.
    pub fn add_bytes_read(&self, n: u64) {
        self.counters.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to the bytes accepted from WRITE requests.
    pub fn add_bytes_written(&self, n: u64) {
        self.counters.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one QoS token-bucket stall (the request waited for refill).
    pub fn count_throttle_wait(&self) {
        self.counters.throttle_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request the reactor ran to completion itself.
    pub fn count_reactor_run(&self) {
        self.counters.reactor_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots everything into the exportable section.
    pub fn snapshot(&self) -> ServingTelemetry {
        ServingTelemetry {
            socket_wait: self.socket_wait.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            conns_open: self.counters.conns_open.load(Ordering::Relaxed),
            conns_total: self.counters.conns_total.load(Ordering::Relaxed),
            reads: self.counters.reads.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            trims: self.counters.trims.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            throttle_waits: self.counters.throttle_waits.load(Ordering::Relaxed),
            reactor_runs: self.counters.reactor_runs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters_and_sketches() {
        let a = ServingRecorders::new();
        let b = a.clone();
        a.conn_opened();
        b.conn_opened();
        b.conn_closed();
        a.count_read();
        b.count_write();
        a.count_flush();
        b.count_trim();
        a.count_error();
        a.add_bytes_read(4096);
        b.add_bytes_written(8192);
        a.count_throttle_wait();
        b.count_reactor_run();
        b.queue_wait.record_ns(1_000);
        let s = a.snapshot();
        assert_eq!(s.conns_open, 1);
        assert_eq!(s.conns_total, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.trims, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.bytes_read, 4096);
        assert_eq!(s.bytes_written, 8192);
        assert_eq!(s.throttle_waits, 1);
        assert_eq!(s.reactor_runs, 1);
        assert_eq!(s.queue_wait.count, 1);
    }
}
