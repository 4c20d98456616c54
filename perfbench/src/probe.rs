//! Measurement wrappers at the program's public trait boundaries.
//!
//! [`TimedDisk`] implements `blkdev::BlockDevice` over the `FileDisk`
//! cache file and [`TimedStore`] implements `objstore::ObjectStore` over a
//! `DirStore` bucket behind `objstore::LatencyStore`. Both always count
//! calls and bytes with relaxed atomics (the counts publish no other
//! data), and time calls only while [`Probe::timing`] is set, which only
//! the traced run does. Counts are read as differences between
//! [`Tally`] snapshots taken at phase edges, so device and store calls
//! made inside `Volume::open` are attributed to recovery.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::{BlockDevice, FileDisk};
use bytes::Bytes;
use lsvd::types::parse_object_seq;
use objstore::{DirStore, LatencyStore, ObjectStore};
use telemetry::LatencyRecorder;

use crate::workloads::IMAGE;

/// The modelled S3: PUT 20 ms, GET 10 ms, head/list/delete 5 ms.
pub const PUT_DELAY: Duration = Duration::from_millis(20);
pub const GET_DELAY: Duration = Duration::from_millis(10);
pub const META_DELAY: Duration = Duration::from_millis(5);

/// One counter per quantity the wrappers see.
#[derive(Clone, Copy)]
pub enum C {
    DevReadBytes,
    WlogWriteBytes,
    RcacheWriteBytes,
    DevFlushes,
    DevBusyNs,
    Puts,
    PutBytes,
    Gets,
    GetBytes,
    CkptGets,
    Lists,
    StoreBusyNs,
}
const NC: usize = C::StoreBusyNs as usize + 1;

/// A snapshot of every counter.
#[derive(Clone, Copy, Default)]
pub struct Tally([u64; NC]);

impl Tally {
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut d = [0; NC];
        for (i, v) in d.iter_mut().enumerate() {
            *v = self.0[i] - earlier.0[i];
        }
        Tally(d)
    }
}

/// Latency recorders for timed calls.
#[derive(Default)]
pub struct Timings {
    pub dev_read: LatencyRecorder,
    pub dev_flush: LatencyRecorder,
    pub put: LatencyRecorder,
    pub get: LatencyRecorder,
}

/// State shared by every wrapper of one benchmark process.
pub struct Probe {
    /// Time calls (traced epochs of the traced run, and its probe phase).
    pub timing: AtomicBool,
    /// Apply the modelled S3 delays. Off during set-up and verification.
    pub modelled: AtomicBool,
    counters: [AtomicU64; NC],
    pub timings: Timings,
    /// Read-cache region of the cache device, in bytes: device writes
    /// inside it are read-cache fills, all others are write-log writes.
    rcache: [AtomicU64; 2],
    /// Data objects PUT since the last checkpoint PUT: what recovery
    /// would roll forward.
    since_checkpoint: AtomicU64,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            timing: AtomicBool::new(false),
            modelled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timings: Timings::default(),
            rcache: [AtomicU64::new(0), AtomicU64::new(0)],
            since_checkpoint: AtomicU64::new(0),
        })
    }

    pub fn objects_since_checkpoint(&self) -> u64 {
        self.since_checkpoint.load(Relaxed)
    }

    pub fn tally(&self) -> Tally {
        Tally(std::array::from_fn(|i| self.counters[i].load(Relaxed)))
    }

    /// Records the read-cache region as `(start, end)` sectors, as
    /// `Volume::read_cache_region` reports it.
    pub fn set_rcache_region(&self, (start, end): (u64, u64)) {
        self.rcache[0].store(start * 512, Relaxed);
        self.rcache[1].store(end * 512, Relaxed);
    }

    fn add(&self, c: C, n: u64) {
        self.counters[c as usize].fetch_add(n, Relaxed);
    }

    /// Runs `f`, timing it into `rec` and the `busy` counter when timing
    /// is on.
    fn timed<T>(&self, rec: &LatencyRecorder, busy: C, f: impl FnOnce() -> T) -> T {
        if !self.timing.load(Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        rec.record_ns(ns);
        self.add(busy, ns);
        out
    }

    /// Like [`Probe::timed`] for calls that only count towards busy time.
    fn busy<T>(&self, busy: C, f: impl FnOnce() -> T) -> T {
        if !self.timing.load(Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.add(busy, t0.elapsed().as_nanos() as u64);
        out
    }
}

/// The cache device: a `FileDisk` whose every call is counted.
pub struct TimedDisk {
    inner: FileDisk,
    probe: Arc<Probe>,
}

impl TimedDisk {
    /// Creates the cache file at `path` with `capacity` bytes.
    pub fn create(path: &Path, capacity: u64, probe: Arc<Probe>) -> blkdev::Result<TimedDisk> {
        Ok(TimedDisk {
            inner: FileDisk::create(path, capacity)?,
            probe,
        })
    }

    /// Reopens the cache file at `path` after a crash.
    pub fn open(path: &Path, probe: Arc<Probe>) -> blkdev::Result<TimedDisk> {
        Ok(TimedDisk {
            inner: FileDisk::open(path)?,
            probe,
        })
    }
}

impl BlockDevice for TimedDisk {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> blkdev::Result<()> {
        let p = &self.probe;
        p.add(C::DevReadBytes, buf.len() as u64);
        p.timed(&p.timings.dev_read, C::DevBusyNs, || {
            self.inner.read_at(offset, buf)
        })
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> blkdev::Result<()> {
        let p = &self.probe;
        let in_rcache = (p.rcache[0].load(Relaxed)..p.rcache[1].load(Relaxed)).contains(&offset);
        p.add(
            if in_rcache {
                C::RcacheWriteBytes
            } else {
                C::WlogWriteBytes
            },
            data.len() as u64,
        );
        p.busy(C::DevBusyNs, || self.inner.write_at(offset, data))
    }

    fn flush(&self) -> blkdev::Result<()> {
        let p = &self.probe;
        p.add(C::DevFlushes, 1);
        p.timed(&p.timings.dev_flush, C::DevBusyNs, || self.inner.flush())
    }
}

/// The bucket: a `DirStore`, reached through `LatencyStore` while the
/// modelled delays are on and directly while they are off.
pub struct TimedStore {
    modelled: LatencyStore<Arc<DirStore>>,
    raw: Arc<DirStore>,
    probe: Arc<Probe>,
}

impl TimedStore {
    pub fn open(root: &Path, probe: Arc<Probe>) -> objstore::Result<TimedStore> {
        let raw = Arc::new(DirStore::open(root)?);
        Ok(TimedStore {
            modelled: LatencyStore::new(raw.clone(), PUT_DELAY, GET_DELAY)
                .with_meta_delay(META_DELAY),
            raw,
            probe,
        })
    }

    fn backend(&self) -> &dyn ObjectStore {
        if self.probe.modelled.load(Relaxed) {
            &self.modelled
        } else {
            self.raw.as_ref()
        }
    }

    fn count_get(&self, name: &str, bytes: &objstore::Result<Bytes>) {
        let p = &self.probe;
        p.add(C::Gets, 1);
        if name.contains(".ckpt.") {
            p.add(C::CkptGets, 1);
        }
        if let Ok(b) = bytes {
            p.add(C::GetBytes, b.len() as u64);
        }
    }
}

impl ObjectStore for TimedStore {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        let p = &self.probe;
        p.add(C::Puts, 1);
        p.add(C::PutBytes, data.len() as u64);
        if name.contains(".ckpt.") {
            p.since_checkpoint.store(0, Relaxed);
        } else if parse_object_seq(IMAGE, name).is_some() {
            p.since_checkpoint.fetch_add(1, Relaxed);
        }
        p.timed(&p.timings.put, C::StoreBusyNs, || {
            self.backend().put(name, data)
        })
    }

    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        let p = &self.probe;
        let out = p.timed(&p.timings.get, C::StoreBusyNs, || self.backend().get(name));
        self.count_get(name, &out);
        out
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
        let p = &self.probe;
        let out = p.timed(&p.timings.get, C::StoreBusyNs, || {
            self.backend().get_range(name, offset, len)
        });
        self.count_get(name, &out);
        out
    }

    fn head(&self, name: &str) -> objstore::Result<u64> {
        self.probe
            .busy(C::StoreBusyNs, || self.backend().head(name))
    }

    fn delete(&self, name: &str) -> objstore::Result<()> {
        self.probe
            .busy(C::StoreBusyNs, || self.backend().delete(name))
    }

    fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
        self.probe.add(C::Lists, 1);
        self.probe
            .busy(C::StoreBusyNs, || self.backend().list(prefix))
    }
}
