//! Thread-safe volume handle for serving planes.
//!
//! [`Volume`] is single-threaded by design
//! (`&mut self` everywhere): the paper's client runs one dispatch loop per
//! disk. A network serving plane (the `nbd` crate) has many connection
//! threads that all need the same disk, so [`SharedVolume`] wraps the
//! volume in a mutex and re-exposes the block operations with `&self`
//! receivers.
//!
//! **Reads do not take that mutex.** The volume's read state lives in a
//! [`ReadPlane`] behind a `RwLock`:
//! [`SharedVolume::read`] and [`SharedVolume::read_bytes`] go straight to
//! the plane, so cache-hit reads run concurrently with each other and
//! with whatever a mutation under the big mutex is doing *outside* its
//! short map-update critical sections (socket I/O, cache-log appends,
//! batch seals, backend PUTs). Writes and discards stay serialized on the
//! mutex, which acknowledges them in cache-log order.
//!
//! **Flushes do not take that mutex either.** A flush reads the log's
//! position ([`SharedVolume::flush_position`], one atomic load) and waits
//! on the volume's [`GroupCommit`] for a device flush that covers it,
//! shared with every flush waiting at the time — so writes keep appending
//! while a device flush runs.
//!
//! Shutdown takes the volume *out* of the wrapper (`Option` inside the
//! mutex) and flips a fence flag so the lock-free read path observes the
//! shutdown too; late arrivals on any path get [`LsvdError::BadVolume`]
//! instead of racing the drain + final checkpoint.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use telemetry::{SpanRing, TelemetrySnapshot};

use crate::commit::GroupCommit;
use crate::read_plane::{ReadPlane, ReadStart};
use crate::types::{LsvdError, Result};
use crate::volume::Volume;

/// A cloneable, thread-safe handle to a [`Volume`].
#[derive(Clone)]
pub struct SharedVolume {
    inner: Arc<Mutex<Option<Volume>>>,
    /// The volume's read plane, shared so reads bypass the big mutex.
    plane: Arc<ReadPlane>,
    /// The volume's request-span ring, shared so direct callers can mint
    /// request ids (and exporters can drain spans) without the mutex.
    spans: Arc<SpanRing>,
    /// The cache log's group committer, shared so flushes bypass the
    /// mutex.
    commit: Arc<GroupCommit>,
    /// Set by `shutdown` before the volume is torn down; checked by the
    /// lock-free read path so late reads fence exactly like mutations.
    closed: Arc<AtomicBool>,
    /// Virtual size, cached so `size_bytes` never blocks on the mutex.
    size_bytes: u64,
}

impl SharedVolume {
    /// Wraps `vol` for shared use.
    pub fn new(vol: Volume) -> SharedVolume {
        let size_bytes = vol.size();
        let plane = vol.read_plane();
        let spans = vol.span_ring();
        let commit = vol.committer();
        SharedVolume {
            inner: Arc::new(Mutex::new(Some(vol))),
            plane,
            spans,
            commit,
            closed: Arc::new(AtomicBool::new(false)),
            size_bytes,
        }
    }

    /// The volume's span ring: serving planes mint request ids and record
    /// connection edges in it, exporters snapshot/drain it — no volume
    /// lock either way.
    pub fn span_ring(&self) -> Arc<SpanRing> {
        self.spans.clone()
    }

    /// Virtual disk size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    fn with<R>(&self, f: impl FnOnce(&mut Volume) -> Result<R>) -> Result<R> {
        let mut guard = self.inner.lock();
        match guard.as_mut() {
            Some(vol) => f(vol),
            None => Err(LsvdError::BadVolume("volume is shut down".into())),
        }
    }

    fn check_open(&self) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(LsvdError::BadVolume("volume is shut down".into()));
        }
        Ok(())
    }

    /// Concurrent read through the [`ReadPlane`]: cache hits run under its
    /// shared lock, in parallel with other readers and with everything a
    /// mutation does outside the plane's short exclusive sections. Does
    /// not touch the volume mutex.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_open()?;
        // Direct callers get their own request id (0 when tracing is off,
        // which the traced path treats as "don't record").
        self.plane
            .read_into(offset, buf, self.spans.mint_request(), 0)
    }

    /// Like [`SharedVolume::read`], returning a freshly allocated
    /// [`Bytes`] the serving plane can hand straight to a socket writer —
    /// no copy from a volume buffer into a reply buffer.
    pub fn read_bytes(&self, offset: u64, len: usize) -> Result<Bytes> {
        self.start_read(offset, len, self.spans.mint_request(), 0)?
            .finish()
    }

    /// Starts a read under an existing request id: runs its local phase
    /// (hits and holes) now and returns either the bytes or a
    /// [`PendingRead`](crate::read_plane::PendingRead) whose backend
    /// phase any thread may finish. The serving plane minted `req` at
    /// command decode and passes its dispatch span as `parent`.
    pub fn start_read(&self, offset: u64, len: usize, req: u64, parent: u64) -> Result<ReadStart> {
        self.check_open()?;
        self.plane.start_read(offset, len, req, parent)
    }

    /// Serialized [`Volume::write`].
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_traced(offset, data, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::write`] under an existing request id: sets the
    /// volume's ambient span context for the duration of the call, so the
    /// wlog-append hop records as a child of `parent`.
    pub fn write_traced(&self, offset: u64, data: &[u8], req: u64, parent: u64) -> Result<()> {
        self.with(|v| traced(v, req, parent, |v| v.write(offset, data)))
    }

    /// [`SharedVolume::write_traced`], but only when the write stays on
    /// the cache device ([`Volume::write_stays_local`]). The check and the
    /// write share one acquisition of the volume mutex, so nothing can
    /// seal, clean or ship in between. `None` means the write was not
    /// attempted: it needs a thread that may wait on the backend.
    pub fn write_if_local(
        &self,
        offset: u64,
        data: &[u8],
        req: u64,
        parent: u64,
    ) -> Option<Result<()>> {
        let mut guard = self.inner.lock();
        match guard.as_mut() {
            Some(v) if !v.write_stays_local(data.len() as u64) => None,
            Some(v) => Some(traced(v, req, parent, |v| v.write(offset, data))),
            None => Some(Err(LsvdError::BadVolume("volume is shut down".into()))),
        }
    }

    /// [`Volume::flush`] without the volume mutex: every write that
    /// returned before this call is durable on the cache device when it
    /// returns.
    pub fn flush(&self) -> Result<()> {
        self.flush_to(self.flush_position(), self.spans.mint_request(), 0)
    }

    /// The cache-log position a flush issued now must cover: the last
    /// record appended. One atomic load, so a serving plane can take it
    /// in request order and wait for it elsewhere.
    pub fn flush_position(&self) -> u64 {
        self.commit.position()
    }

    /// Waits until a cache-device flush that started after `pos` (from
    /// [`SharedVolume::flush_position`]) was published has completed,
    /// starting one when none is running. A device error fails every
    /// flush it was meant to cover. Under a request id `req`, records the
    /// `flush` span as a child of `parent`.
    pub fn flush_to(&self, pos: u64, req: u64, parent: u64) -> Result<()> {
        self.check_open()?;
        self.commit.flush(pos, &self.spans, req, parent)
    }

    /// Serialized [`Volume::discard`].
    pub fn discard(&self, offset: u64, len: u64) -> Result<()> {
        self.discard_traced(offset, len, self.spans.mint_request(), 0)
    }

    /// [`SharedVolume::discard`] under an existing request id.
    pub fn discard_traced(&self, offset: u64, len: u64, req: u64, parent: u64) -> Result<()> {
        self.with(|v| traced(v, req, parent, |v| v.discard(offset, len)))
    }

    /// Serialized [`Volume::telemetry`].
    pub fn telemetry(&self) -> Result<TelemetrySnapshot> {
        self.with(|v| Ok(v.telemetry()))
    }

    /// Bytes currently resident in the volume's read cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.plane.cache_resident_bytes()
    }

    /// Runs `f` with exclusive access to the volume (for attach-time
    /// wiring such as [`Volume::attach_serving_telemetry`]).
    pub fn with_volume<R>(&self, f: impl FnOnce(&mut Volume) -> R) -> Result<R> {
        self.with(|v| Ok(f(v)))
    }

    /// Takes the volume out and shuts it down (drain, final checkpoint).
    /// Subsequent operations on any clone fail with
    /// [`LsvdError::BadVolume`]; a second `shutdown` is a no-op.
    pub fn shutdown(&self) -> Result<()> {
        // Fence the lock-free read path first, then take the volume. A
        // read that slipped past the flag before it was set still runs
        // safely: the plane (and the devices under it) outlive the volume
        // via this handle's `Arc`, and `Volume::shutdown` only adds data
        // to the backend/caches — it never invalidates resolved state.
        self.closed.store(true, Ordering::Release);
        let vol = self.inner.lock().take();
        match vol {
            Some(vol) => vol.shutdown(),
            None => Ok(()),
        }
    }
}

/// Runs `op` with the volume's ambient span context set to `(req,
/// parent)`, so its volume-side hop records as a child of `parent`.
fn traced<R>(
    v: &mut Volume,
    req: u64,
    parent: u64,
    op: impl FnOnce(&mut Volume) -> Result<R>,
) -> Result<R> {
    v.set_span_ctx(req, parent);
    let res = op(v);
    v.set_span_ctx(0, 0);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VolumeConfig;
    use blkdev::RamDisk;
    use objstore::MemStore;

    fn shared() -> SharedVolume {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let vol =
            Volume::create(store, dev, "vol", 32 << 20, VolumeConfig::small_for_tests()).unwrap();
        SharedVolume::new(vol)
    }

    #[test]
    fn concurrent_clones_read_their_own_writes() {
        let sv = shared();
        let mut joins = Vec::new();
        for t in 0..4u8 {
            let sv = sv.clone();
            joins.push(std::thread::spawn(move || {
                let off = u64::from(t) * 65536;
                sv.write(off, &[t + 1; 4096]).unwrap();
                sv.flush().unwrap();
                let mut buf = [0u8; 4096];
                sv.read(off, &mut buf).unwrap();
                assert_eq!(buf, [t + 1; 4096]);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(sv.size_bytes(), 32 << 20);
    }

    #[test]
    fn read_bytes_matches_read() {
        let sv = shared();
        sv.write(8192, &[0xAB; 4096]).unwrap();
        let b = sv.read_bytes(8192, 4096).unwrap();
        assert_eq!(&b[..], &[0xAB; 4096][..]);
        let zeros = sv.read_bytes(1 << 20, 4096).unwrap();
        assert!(zeros.iter().all(|&x| x == 0));
    }

    #[test]
    fn shutdown_fences_late_operations() {
        let sv = shared();
        sv.write(0, &[9u8; 4096]).unwrap();
        sv.shutdown().unwrap();
        sv.shutdown().unwrap(); // idempotent
        assert!(matches!(
            sv.read(0, &mut [0u8; 4096]),
            Err(LsvdError::BadVolume(_))
        ));
        assert!(matches!(
            sv.read_bytes(0, 4096),
            Err(LsvdError::BadVolume(_))
        ));
        assert!(sv.write(0, &[0u8; 512]).is_err());
        assert!(sv.discard(0, 512).is_err());
    }
}
