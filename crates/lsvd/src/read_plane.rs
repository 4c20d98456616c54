//! The concurrent read plane: lock-split cache-hit reads, single-flight
//! miss fetch, and read-cache admission control.
//!
//! [`Volume`](crate::volume::Volume) is `&mut self` by design, and the
//! serving plane used to funnel every read through the same mutex as every
//! mutation — so "concurrent" NBD read workers all queued behind cache-log
//! appends and writeback bookkeeping. This module splits the state the
//! read path needs (write-back cache map, read cache, object map) out of
//! the volume into a [`ReadPlane`] behind a `RwLock`:
//!
//! - **cache-hit reads** take the *shared* lock and run genuinely in
//!   parallel — with each other and with everything the volume does that
//!   doesn't mutate maps (socket I/O, batch sealing, backend PUTs);
//! - **mutations** (write placements, trims, writeback apply, GC) take the
//!   *exclusive* lock for the short map-update critical sections only,
//!   never across device or network I/O;
//! - **a read runs in two phases.** The *local* phase resolves it under
//!   one shared guard and serves hits and holes; a read with pieces left
//!   on the backend becomes a [`PendingRead`] that owns its buffer. Its
//!   *backend* phase ([`PendingRead::finish`]) may run on any thread, so
//!   the serving plane parks it on a fetch thread instead of holding a
//!   worker for a GET. [`ReadPlane::read_into`] runs both phases inline;
//! - **miss fetches** run with no lock held at all. Concurrent misses on
//!   the same backend object are *single-flighted*: the first reader
//!   issues the ranged GET, later readers park on the in-flight fetch and
//!   share its window (§3.2's temporal prefetch makes windows wide, so
//!   sharing pays). Cache insertion afterwards revalidates liveness
//!   against the current object map under the write lock — the same
//!   stale-insert discipline the serial path used;
//! - **sequential scans** are detected per-stream and bypass read-cache
//!   admission (ECI-Cache's pollution problem): a scan fetches and serves
//!   its data but does not evict the hot set;
//! - **a fetched window enters the cache whole only when it holds
//!   co-written data.** §3.2 prefetches wide because data written together
//!   is read together. A window that overlaps a header extent the
//!   triggering read does not overlap holds such temporal neighbours and
//!   is admitted whole. A window whose every extent the read overlaps
//!   holds only spatial neighbours, typically the unread rest of one bulk
//!   write, and admits just the read's own sectors: at a 256 KiB window a
//!   random 4 KiB miss would otherwise admit 63 fetched bytes per byte
//!   read and evict the hot set. A read that continues a sequential stream
//!   still admits whole windows. The GET itself is unchanged. Keeping
//!   recent windows in RAM for later misses, and admitting only requested
//!   sectors, was rejected: at 32 windows (8 MiB) the temporal-prefetch
//!   ablation needed 2,111 GETs where whole-window admission needs 1,327,
//!   and matching it took 128 windows (32 MiB).
//!
//! Lock-ordering rules (deadlock freedom): `state` is never held across a
//! backend call; `inflight`/`streams`/`hdr` are leaf mutexes never held
//! while acquiring `state`; a fetch leader publishes its slot *after*
//! releasing every lock.
//!
//! Why readers can hold the shared lock across device reads: the write
//! log only reuses released sectors after the corresponding map removal
//! (which needs the exclusive lock, so it drains readers first), and the
//! read cache only physically reuses evicted space from `insert` (also
//! exclusive). A resolved pLBA therefore stays valid for as long as the
//! shared guard is held — the same invariant the old single-threaded path
//! got for free, now enforced by the lock instead of by `&mut`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blkdev::BlockDevice;
use bytes::Bytes;
use objstore::ObjectStore;
use parking_lot::{Condvar, Mutex, RwLock};
use telemetry::{LatencyRecorder, OpenSpan, SpanRing, Stage};

use crate::config::{VolumeConfig, HDR_CACHE_ENTRIES};
use crate::crc::{crc32c, crc32c_combine};
use crate::extent_map::{ExtentMap, Segment};
use crate::objfmt::Superblock;
use crate::objmap::{ObjLoc, ObjectMap};
use crate::rcache::ReadCache;
use crate::recovery::fetch_header;
use crate::types::{object_name, Lba, LsvdError, ObjSeq, Plba, Result, SECTOR};

/// How many independent sequential streams the scan detector tracks.
const STREAM_SLOTS: usize = 8;

/// Attempts per miss piece: the original resolution plus one re-resolve.
/// A fetch can lose a benign race with GC (the resolved object was
/// collected and deleted between resolve and GET); re-resolving under a
/// fresh guard finds the relocated data. A second failure is a real error.
const FETCH_ATTEMPTS: u32 = 2;

/// A cached backend object header: the extent list plus the per-extent
/// payload CRCs recorded at seal time (format v2).
pub(crate) struct HdrEntry {
    pub(crate) extents: Vec<(Lba, u32)>,
    pub(crate) crcs: Vec<u32>,
}

/// The map state served under the plane's `RwLock`.
pub(crate) struct ReadState {
    /// vLBA → cache-SSD pLBA for data still in the write-back log.
    pub(crate) wcache_map: ExtentMap<Plba>,
    /// The SSD read cache (§3.1).
    pub(crate) rcache: ReadCache,
    /// vLBA → backend object locations.
    pub(crate) objmap: ObjectMap,
}

impl ReadState {
    /// Enters into the read cache the part of `[lba, lba+len)` that the
    /// object map still points at object `seq`, sector `off` onward;
    /// `data` holds that whole range. Sectors the write-back cache
    /// shadows are punched back out. Returns the sectors entered.
    fn admit_live(
        &mut self,
        seq: ObjSeq,
        lba: Lba,
        len: u64,
        off: u64,
        data: &[u8],
    ) -> Result<u64> {
        let mut admitted = 0u64;
        for (plo, plen, pval) in self.objmap.overlaps(lba, len) {
            if pval.seq == seq && pval.off as u64 == off + (plo - lba) {
                let b = ((plo - lba) * SECTOR) as usize;
                let e = b + (plen * SECTOR) as usize;
                self.rcache.insert(plo, &data[b..e])?;
                admitted += plen;
                for (wlo, wlen, _) in self.wcache_map.overlaps(plo, plen) {
                    self.rcache.invalidate(wlo, wlen);
                }
            }
        }
        Ok(admitted)
    }
}

/// LRU cache of backend object headers, keyed by sequence.
///
/// Replaces the old 512-entry FIFO: under mixed workloads FIFO evicted
/// the headers hot random reads re-consult on every miss while retaining
/// ones a scan touched once. Recency is a monotonic tick bumped per hit;
/// eviction scans for the minimum — O(capacity), but only on insert past
/// capacity, which is always adjacent to a header GET (milliseconds).
struct HdrCache {
    map: HashMap<ObjSeq, HdrSlot>,
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct HdrSlot {
    entry: Arc<HdrEntry>,
    last_used: u64,
}

impl HdrCache {
    fn new(cap: usize) -> Self {
        HdrCache {
            map: HashMap::new(),
            cap,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, seq: ObjSeq) -> Option<Arc<HdrEntry>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&seq) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits += 1;
                Some(slot.entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, seq: ObjSeq, entry: Arc<HdrEntry>) {
        if !self.map.contains_key(&seq) && self.map.len() >= self.cap {
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(seq, _)| seq)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(
            seq,
            HdrSlot {
                entry,
                last_used: self.tick,
            },
        );
    }
}

/// One in-flight backend fetch other readers can park on.
struct FetchSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Span id of the leader's `fetch_lead` span, so waiters can record
    /// *which* fetch they joined. 0 when the leader's read is untraced
    /// or a waiter races the leader's store — a benign "unknown leader".
    leader_span: AtomicU64,
}

#[derive(Default)]
struct SlotState {
    done: bool,
    /// The fetched window on success; `None` when the leader's fetch
    /// failed (waiters re-try on their own so each surfaces a precise
    /// error).
    window: Option<Window>,
}

/// A fetched prefetch window, as its leader publishes it to followers.
#[derive(Clone)]
struct Window {
    /// Object sector the window starts at.
    lo: u64,
    data: Bytes,
    /// Whether the leader admitted the whole window to the read cache.
    admitted: bool,
}

impl Window {
    /// `piece`'s bytes, a zero-copy slice, if the window covers it.
    fn slice(&self, piece: &MissPiece) -> Option<Bytes> {
        let off = piece.loc.off as u64;
        let hi = self.lo + self.data.len() as u64 / SECTOR;
        (off >= self.lo && off + piece.len <= hi).then(|| {
            let b = ((off - self.lo) * SECTOR) as usize;
            self.data.slice(b..b + (piece.len * SECTOR) as usize)
        })
    }
}

impl FetchSlot {
    fn new() -> Self {
        FetchSlot {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
            leader_span: AtomicU64::new(0),
        }
    }

    fn publish(&self, window: Option<Window>) {
        let mut st = self.state.lock();
        st.done = true;
        st.window = window;
        drop(st);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<Window> {
        let mut st = self.state.lock();
        while !st.done {
            self.cv.wait(&mut st);
        }
        st.window.clone()
    }
}

/// Per-stream sequential-run detector for scan-resistant admission.
///
/// A fixed table of `(next expected LBA, run length)` slots: a read that
/// continues a tracked stream extends its run; anything else claims the
/// least-recently-touched slot. Once a stream's run passes the configured
/// threshold its fetches stop being admitted to the read cache — the scan
/// still gets its data (and its prefetch window), it just cannot evict
/// the hot set to cache bytes it will never touch again (ECI-Cache).
struct StreamTable {
    slots: [StreamSlot; STREAM_SLOTS],
    tick: u64,
}

#[derive(Clone, Copy, Default)]
struct StreamSlot {
    next: Lba,
    run: u64,
    touched: u64,
}

impl StreamTable {
    fn new() -> Self {
        StreamTable {
            slots: [StreamSlot::default(); STREAM_SLOTS],
            tick: 0,
        }
    }

    /// Notes a read and returns the length (sectors) of the sequential
    /// run it belongs to, including itself.
    fn note(&mut self, lba: Lba, sectors: u64) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        for slot in self.slots.iter_mut() {
            if slot.run > 0 && slot.next == lba {
                slot.run += sectors;
                slot.next = lba + sectors;
                slot.touched = tick;
                return slot.run;
            }
        }
        let victim = self
            .slots
            .iter_mut()
            .min_by_key(|s| s.touched)
            .expect("table is non-empty");
        *victim = StreamSlot {
            next: lba + sectors,
            run: sectors,
            touched: tick,
        };
        sectors
    }
}

/// Atomic observability counters for the plane. All relaxed: they are
/// monotone statistics, never synchronization.
#[derive(Default)]
pub(crate) struct PlaneCounters {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    /// Reads served entirely from local state (caches, zeros).
    pub hit_reads: AtomicU64,
    /// Reads that needed at least one backend fetch.
    pub miss_reads: AtomicU64,
    pub backend_gets: AtomicU64,
    pub backend_get_bytes: AtomicU64,
    /// Sectors entered into the read cache by miss fetches.
    pub admitted_sectors: AtomicU64,
    /// Sectors a detected scan kept *out* of the read cache.
    pub bypassed_sectors: AtomicU64,
    /// Fetched sectors a spatial-only window kept out of the read cache.
    pub spatial_skipped_sectors: AtomicU64,
    /// Fetches that parked on another reader's in-flight GET.
    pub singleflight_waits: AtomicU64,
    /// Parked fetches fully served from the leader's window (GETs saved).
    pub singleflight_shared: AtomicU64,
    pub crc_combine_ops: AtomicU64,
    pub get_verified_bytes: AtomicU64,
    /// Reads currently inside the plane.
    pub concurrent_readers: AtomicU64,
    /// High-water mark of `concurrent_readers`.
    pub peak_concurrent_readers: AtomicU64,
    /// Shared-lock acquisitions (the hit path).
    pub shared_lock_acqs: AtomicU64,
    /// Exclusive-lock acquisitions (mutations + miss inserts).
    pub excl_lock_acqs: AtomicU64,
}

/// A snapshot of `PlaneCounters` plus the lock-wait recorders, consumed
/// by `Volume::telemetry`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadPlaneStats {
    pub reads: u64,
    pub read_bytes: u64,
    pub hit_reads: u64,
    pub miss_reads: u64,
    pub backend_gets: u64,
    pub backend_get_bytes: u64,
    pub admitted_sectors: u64,
    pub bypassed_sectors: u64,
    pub spatial_skipped_sectors: u64,
    pub singleflight_waits: u64,
    pub singleflight_shared: u64,
    pub crc_combine_ops: u64,
    pub get_verified_bytes: u64,
    pub concurrent_readers: u64,
    pub peak_concurrent_readers: u64,
    pub shared_lock_acqs: u64,
    pub excl_lock_acqs: u64,
    pub hdr_hits: u64,
    pub hdr_misses: u64,
    pub hdr_evictions: u64,
}

/// One unresolved piece of a read: `[start, start+len)` mapped to `loc`
/// in the backend at resolve time.
struct MissPiece {
    start: Lba,
    len: u64,
    loc: ObjLoc,
}

/// What a read's local phase leaves for its backend phase.
struct Misses {
    /// First sector of the read; buffer offsets count from here.
    base: Lba,
    /// One past the read's last sector.
    end: Lba,
    /// The next resolved piece to fetch, with its attempt number.
    next: Option<(MissPiece, u32)>,
    /// `(start, len, attempt)` subranges to re-resolve after that fetch.
    work: Vec<(Lba, u64, u32)>,
    /// The read continues a sequential stream: its windows enter the read
    /// cache whole.
    stream: bool,
    /// The read is part of a detected scan: bypass read-cache admission.
    bypass: bool,
    req: u64,
    /// Parent of the fetch hops: the read span's id (0 = untraced).
    parent: u64,
    /// The read span, open until the read ends.
    span: Option<OpenSpan>,
    t0: Instant,
}

/// How a read left its local phase.
pub enum ReadStart {
    /// Served entirely from local state (caches, holes).
    Done(Bytes),
    /// Pieces still live on the backend.
    Pending(PendingRead),
}

impl ReadStart {
    /// The read's bytes, running any backend phase on this thread.
    pub fn finish(self) -> Result<Bytes> {
        match self {
            ReadStart::Done(data) => Ok(data),
            ReadStart::Pending(read) => read.finish(),
        }
    }
}

/// A read past its local phase: hits and holes are in its buffer, and
/// the pieces mapped to backend objects are still to fetch. It owns
/// everything it needs, so any thread may finish it — the serving plane
/// hands it to a fetch thread rather than wait on a GET with a worker.
pub struct PendingRead {
    plane: Arc<ReadPlane>,
    buf: Vec<u8>,
    misses: Misses,
}

impl PendingRead {
    /// Runs the backend phase on this thread: single-flight fetches,
    /// window admission, re-resolution and the GC-race retry. Returns
    /// the whole read's bytes.
    pub fn finish(self) -> Result<Bytes> {
        let PendingRead {
            plane,
            mut buf,
            misses,
        } = self;
        plane.fetch_misses(misses, &mut buf)?;
        Ok(Bytes::from(buf))
    }
}

/// The shared read plane of one volume. See the module docs.
pub struct ReadPlane {
    dev: Arc<dyn BlockDevice>,
    store: Arc<dyn ObjectStore>,
    /// Immutable volume identity (object naming, ancestry streams).
    sb: Superblock,
    size_sectors: u64,
    prefetch_bytes: u64,
    verify_get_crc: bool,
    /// Sequential-run threshold (sectors) past which fetches bypass
    /// read-cache admission; 0 disables admission control.
    scan_bypass_sectors: u64,
    state: RwLock<ReadState>,
    hdr: Mutex<HdrCache>,
    inflight: Mutex<HashMap<ObjSeq, Arc<FetchSlot>>>,
    streams: Mutex<StreamTable>,
    counters: PlaneCounters,
    /// The volume's request-span ring, shared so traced reads record
    /// their `read` / `fetch_lead` / `fetch_join` hops.
    spans: Arc<SpanRing>,
    /// Client read latency (whole-op, including fetches).
    pub(crate) read_lat: LatencyRecorder,
    /// Time spent acquiring the shared lock.
    pub(crate) shared_lock_wait: LatencyRecorder,
    /// Time spent acquiring the exclusive lock.
    pub(crate) excl_lock_wait: LatencyRecorder,
}

impl ReadPlane {
    pub(crate) fn new(
        dev: Arc<dyn BlockDevice>,
        store: Arc<dyn ObjectStore>,
        sb: Superblock,
        cfg: &VolumeConfig,
        rcache: ReadCache,
        objmap: ObjectMap,
        spans: Arc<SpanRing>,
    ) -> ReadPlane {
        ReadPlane {
            size_sectors: sb.size_bytes / SECTOR,
            dev,
            store,
            sb,
            prefetch_bytes: cfg.prefetch_bytes,
            verify_get_crc: cfg.verify_get_crc,
            scan_bypass_sectors: cfg.scan_bypass_bytes / SECTOR,
            state: RwLock::new(ReadState {
                wcache_map: ExtentMap::new(),
                rcache,
                objmap,
            }),
            hdr: Mutex::new(HdrCache::new(HDR_CACHE_ENTRIES)),
            inflight: Mutex::new(HashMap::new()),
            streams: Mutex::new(StreamTable::new()),
            counters: PlaneCounters::default(),
            spans,
            read_lat: LatencyRecorder::new(),
            shared_lock_wait: LatencyRecorder::new(),
            excl_lock_wait: LatencyRecorder::new(),
        }
    }

    // ------------------------------------------------------------------
    // Lock plumbing (used by Volume for every map mutation)
    // ------------------------------------------------------------------

    /// Acquires the shared state lock, recording the wait.
    pub(crate) fn read_state(&self) -> parking_lot::RwLockReadGuard<'_, ReadState> {
        let t0 = Instant::now();
        let g = self.state.read();
        self.shared_lock_wait.observe(t0.elapsed());
        self.counters
            .shared_lock_acqs
            .fetch_add(1, Ordering::Relaxed);
        g
    }

    /// Acquires the exclusive state lock, recording the wait.
    pub(crate) fn write_state(&self) -> parking_lot::RwLockWriteGuard<'_, ReadState> {
        let t0 = Instant::now();
        let g = self.state.write();
        self.excl_lock_wait.observe(t0.elapsed());
        self.counters.excl_lock_acqs.fetch_add(1, Ordering::Relaxed);
        g
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    /// Checks a byte range against the volume: 512-byte aligned and
    /// inside it, even when `offset + len` would overflow (the offset of
    /// an NBD request comes from the client). Returns its first sector and
    /// its sector count.
    pub(crate) fn check_access(&self, offset: u64, len: usize) -> Result<(Lba, u64)> {
        let len = len as u64;
        if !offset.is_multiple_of(SECTOR) || !len.is_multiple_of(SECTOR) {
            return Err(LsvdError::InvalidAccess {
                offset,
                len,
                reason: "offset and length must be 512-byte aligned",
            });
        }
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.size_sectors * SECTOR)
        {
            return Err(LsvdError::InvalidAccess {
                offset,
                len,
                reason: "beyond end of volume",
            });
        }
        Ok((offset / SECTOR, len / SECTOR))
    }

    /// Reads into `buf` from byte `offset` on behalf of request `req` (0 =
    /// untraced): write-back cache, then read cache, then backend;
    /// unwritten ranges read as zeros (Figure 1). Runs the local phase,
    /// then the backend phase inline on this thread. Records a `read` span
    /// covering the whole operation, with any single-flight
    /// `fetch_lead`/`fetch_join` hops parented under it.
    pub fn read_into(&self, offset: u64, buf: &mut [u8], req: u64, parent: u64) -> Result<()> {
        match self.serve_local(offset, buf, req, parent)? {
            None => Ok(()),
            Some(misses) => self.fetch_misses(misses, buf),
        }
    }

    /// Starts a read of `len` bytes at `offset` into a fresh buffer on
    /// behalf of request `req` (0 = untraced). Runs the local phase now:
    /// hits and holes are served under the shared guard. A read that
    /// still has pieces on the backend comes back as a [`PendingRead`],
    /// so the caller chooses the thread that waits for its GETs.
    pub fn start_read(
        self: &Arc<Self>,
        offset: u64,
        len: usize,
        req: u64,
        parent: u64,
    ) -> Result<ReadStart> {
        let mut buf = vec![0u8; len];
        Ok(match self.serve_local(offset, &mut buf, req, parent)? {
            None => ReadStart::Done(Bytes::from(buf)),
            Some(misses) => ReadStart::Pending(PendingRead {
                plane: self.clone(),
                buf,
                misses,
            }),
        })
    }

    /// The local phase of a read: opens its span, checks the access,
    /// counts the read, notes it with the scan detector, and serves hits
    /// and holes into `buf` under one shared guard. Returns `None` once
    /// the read has ended, or the backend pieces still to fetch.
    fn serve_local(
        &self,
        offset: u64,
        buf: &mut [u8],
        req: u64,
        parent: u64,
    ) -> Result<Option<Misses>> {
        let span = if req != 0 {
            self.spans.begin(req, parent, Stage::Read)
        } else {
            None
        };
        let res = self.resolve_read(offset, buf, req, span.map_or(0, |s| s.id));
        if let Ok(Some(misses)) = res {
            return Ok(Some(Misses { span, ..misses }));
        }
        if let Some(open) = span {
            self.spans.finish(open, offset / SECTOR, buf.len() as u64);
        }
        res
    }

    /// The counted part of the local phase (see [`ReadPlane::serve_local`]):
    /// a hit ends here, with its hit count, latency and gauge slot.
    fn resolve_read(
        &self,
        offset: u64,
        buf: &mut [u8],
        req: u64,
        parent: u64,
    ) -> Result<Option<Misses>> {
        let (lba, sectors) = self.check_access(offset, buf.len())?;
        if buf.is_empty() {
            return Ok(None);
        }
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let cur = self
            .counters
            .concurrent_readers
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        self.counters
            .peak_concurrent_readers
            .fetch_max(cur, Ordering::Relaxed);
        let run = self.streams.lock().note(lba, sectors);
        let stream = run > sectors;
        let bypass = self.scan_bypass_sectors > 0 && run >= self.scan_bypass_sectors;

        let t0 = Instant::now();
        let mut work = Vec::new();
        let next = self.resolve_range(lba, lba, sectors, 1, buf, &mut work);
        if let Ok(Some(next)) = next {
            return Ok(Some(Misses {
                base: lba,
                end: lba + sectors,
                next: Some(next),
                work,
                stream,
                bypass,
                req,
                parent,
                span: None,
                t0,
            }));
        }
        self.end_read(&self.counters.hit_reads, next.is_ok(), t0);
        next.map(|_| None)
    }

    /// The backend phase of a read: fetches its backend pieces, then ends
    /// the read.
    fn fetch_misses(&self, mut misses: Misses, buf: &mut [u8]) -> Result<()> {
        let res = self.fetch_pieces(&mut misses, buf);
        self.end_read(&self.counters.miss_reads, res.is_ok(), misses.t0);
        if let Some(open) = misses.span {
            self.spans.finish(open, misses.base, buf.len() as u64);
        }
        res
    }

    /// Ends a counted read: on success its hit or miss count and its
    /// latency, either way its slot in the concurrency gauge.
    fn end_read(&self, outcome: &AtomicU64, ok: bool, t0: Instant) {
        if ok {
            outcome.fetch_add(1, Ordering::Relaxed);
            self.read_lat.observe(t0.elapsed());
        }
        self.counters
            .concurrent_readers
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Fetches backend pieces one at a time, single-flighted, re-resolving
    /// the rest under a fresh shared guard after each fetch so one
    /// prefetch window serves its neighbours from the cache.
    fn fetch_pieces(&self, m: &mut Misses, buf: &mut [u8]) -> Result<()> {
        while let Some((piece, attempt)) = m.next.take() {
            match self.fetch_piece(&piece, m) {
                Ok(data) => {
                    let b = ((piece.start - m.base) * SECTOR) as usize;
                    let e = b + (piece.len * SECTOR) as usize;
                    buf[b..e].copy_from_slice(&data[..(piece.len * SECTOR) as usize]);
                }
                Err(_) if attempt < FETCH_ATTEMPTS && self.piece_moved(&piece) => {
                    // Lost a race with GC relocation: the mapping we
                    // resolved points elsewhere now (or back into a cache).
                    // Re-resolve under a fresh guard; the relocated data
                    // serves the retry. A fault at an *unchanged* mapping
                    // propagates instead — the data path does not retry
                    // transient backend errors (layer a `RetryStore` for
                    // that).
                    m.work.push((piece.start, piece.len, attempt + 1));
                }
                Err(e) => return Err(e),
            }
            while m.next.is_none() {
                let Some((s, l, attempt)) = m.work.pop() else {
                    break;
                };
                m.next = self.resolve_range(m.base, s, l, attempt, buf, &mut m.work)?;
            }
        }
        Ok(())
    }

    /// Resolves `[start, start+len)` of the read based at `base` under a
    /// shared guard, serving hits and holes into `buf`. Returns the first
    /// backend piece, tagged with `attempt`, and queues the rest on `work`
    /// to re-resolve once that piece's fetch lands.
    fn resolve_range(
        &self,
        base: Lba,
        start: Lba,
        len: u64,
        attempt: u32,
        buf: &mut [u8],
        work: &mut Vec<(Lba, u64, u32)>,
    ) -> Result<Option<(MissPiece, u32)>> {
        let misses = {
            let st = self.read_state();
            self.serve_under_guard(&st, base, start, len, buf)?
        };
        let mut misses = misses.into_iter();
        let Some(first) = misses.next() else {
            return Ok(None);
        };
        for m in misses.rev() {
            work.push((m.start, m.len, 1));
        }
        Ok(Some((first, attempt)))
    }

    /// Serves `[start, start+len)` of the read based at `base` from local
    /// state under the caller's shared guard: write-back cache and read
    /// cache hits are read from the cache device, unmapped ranges are
    /// zeroed, and backend-mapped pieces are returned for lock-free fetch.
    fn serve_under_guard(
        &self,
        st: &ReadState,
        base: Lba,
        start: Lba,
        len: u64,
        buf: &mut [u8],
    ) -> Result<Vec<MissPiece>> {
        let mut misses = Vec::new();
        for seg in st.wcache_map.resolve(start, len) {
            match seg {
                Segment::Mapped {
                    start: s,
                    len: l,
                    val,
                } => {
                    let b = ((s - base) * SECTOR) as usize;
                    let e = b + (l * SECTOR) as usize;
                    self.dev.read_at(val * SECTOR, &mut buf[b..e])?;
                }
                Segment::Hole { start: hs, len: hl } => {
                    for seg in st.rcache.resolve(hs, hl) {
                        match seg {
                            Segment::Mapped {
                                start: s,
                                len: l,
                                val,
                            } => {
                                let b = ((s - base) * SECTOR) as usize;
                                let e = b + (l * SECTOR) as usize;
                                st.rcache.read_cached(val, l, &mut buf[b..e])?;
                            }
                            Segment::Hole { start: rs, len: rl } => {
                                for seg in st.objmap.resolve(rs, rl) {
                                    match seg {
                                        Segment::Hole { start: s, len: l } => {
                                            // Never written: zeros.
                                            let b = ((s - base) * SECTOR) as usize;
                                            let e = b + (l * SECTOR) as usize;
                                            buf[b..e].fill(0);
                                        }
                                        Segment::Mapped {
                                            start: s,
                                            len: l,
                                            val,
                                        } => {
                                            st.rcache.note_miss(l);
                                            misses.push(MissPiece {
                                                start: s,
                                                len: l,
                                                loc: val,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(misses)
    }

    /// Whether `piece`'s resolution has changed since it was produced:
    /// some of its range now lives in the write-back or read cache, or the
    /// object map points it somewhere else. True means a failed fetch was
    /// (or may have been) a benign race with GC relocation and is worth
    /// re-resolving; false means the mapping is unchanged and the fetch
    /// error is real.
    fn piece_moved(&self, piece: &MissPiece) -> bool {
        let st = self.read_state();
        if st
            .wcache_map
            .resolve(piece.start, piece.len)
            .iter()
            .any(|s| matches!(s, Segment::Mapped { .. }))
            || st
                .rcache
                .resolve(piece.start, piece.len)
                .iter()
                .any(|s| matches!(s, Segment::Mapped { .. }))
        {
            return true;
        }
        st.objmap.resolve(piece.start, piece.len).iter().any(|s| {
            !matches!(
                s,
                Segment::Mapped { start, len, val }
                    if *start == piece.start && *len == piece.len
                        && val.seq == piece.loc.seq && val.off == piece.loc.off
            )
        })
    }

    // ------------------------------------------------------------------
    // Miss path: single-flight fetch + admission
    // ------------------------------------------------------------------

    fn resolve_name(&self, seq: ObjSeq) -> String {
        object_name(self.sb.stream_for(seq), seq)
    }

    /// Fetches one backend piece of the read `m`, single-flighted per
    /// object: concurrent misses on the same object share one ranged GET.
    /// Returns exactly the piece's bytes (a zero-copy slice of the fetched
    /// window). A follower served from a window its leader did not admit
    /// whole admits its own sectors, so every read's data enters the cache.
    ///
    /// Traced reads (`req != 0`) record a `fetch_lead` span when they
    /// lead the GET and a `fetch_join` span (carrying the leader's span
    /// id) when they park on another reader's fetch.
    fn fetch_piece(&self, piece: &MissPiece, m: &Misses) -> Result<Bytes> {
        let (req, parent) = (m.req, m.parent);
        loop {
            let slot = {
                let mut infl = self.inflight.lock();
                match infl.get(&piece.loc.seq) {
                    Some(slot) => Err(slot.clone()),
                    None => {
                        let slot = Arc::new(FetchSlot::new());
                        infl.insert(piece.loc.seq, slot.clone());
                        Ok(slot)
                    }
                }
            };
            match slot {
                Err(slot) => {
                    // Another reader is fetching this object: park on its
                    // GET and share the window if it covers us.
                    self.counters
                        .singleflight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    let join = if req != 0 {
                        self.spans.begin(req, parent, Stage::FetchJoin)
                    } else {
                        None
                    };
                    let window = slot.wait();
                    if let Some(open) = join {
                        let leader = slot.leader_span.load(Ordering::Relaxed);
                        self.spans.finish(open, piece.loc.seq.into(), leader);
                    }
                    if let Some(window) = window {
                        if let Some(data) = window.slice(piece) {
                            self.counters
                                .singleflight_shared
                                .fetch_add(1, Ordering::Relaxed);
                            if !window.admitted && !m.bypass {
                                self.admit_piece(piece, &data)?;
                            }
                            return Ok(data);
                        }
                    }
                    // Not covered (or the leader failed): try again — the
                    // slot is gone, so this iteration likely leads.
                }
                Ok(slot) => {
                    let lead = if req != 0 {
                        self.spans.begin(req, parent, Stage::FetchLead)
                    } else {
                        None
                    };
                    if let Some(open) = &lead {
                        slot.leader_span.store(open.id, Ordering::Relaxed);
                    }
                    let result = self.fetch_window(piece, m);
                    self.inflight.lock().remove(&piece.loc.seq);
                    if let Some(open) = lead {
                        self.spans.finish(open, piece.loc.seq.into(), 0);
                    }
                    match result {
                        Ok(window) => {
                            let data = window.slice(piece).expect("a window covers its leader");
                            slot.publish(Some(window));
                            return Ok(data);
                        }
                        Err(e) => {
                            slot.publish(None);
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// The leader's fetch for the read `m`: temporal prefetch window,
    /// optional CRC verify, read-cache admission with liveness
    /// revalidation. No lock is held across the GET; the insert takes the
    /// exclusive lock briefly.
    fn fetch_window(&self, piece: &MissPiece, m: &Misses) -> Result<Window> {
        let loc = piece.loc;
        let len = piece.len;
        let name = self.resolve_name(loc.seq);
        let stat = { self.read_state().objmap.object_stat(loc.seq) };
        let (hdr_sectors, data_sectors) = match stat {
            Some(st) => (
                (st.total_sectors - st.data_sectors) as u64,
                st.data_sectors as u64,
            ),
            None => {
                let h = fetch_header(self.store.as_ref(), &name)?
                    .ok_or_else(|| LsvdError::Corrupt(format!("{name}: mapped object missing")))?;
                (h.data_offset as u64 / SECTOR, h.data_sectors())
            }
        };
        let window = (self.prefetch_bytes / SECTOR).max(len);
        let fetch = window
            .min(data_sectors.saturating_sub(loc.off as u64))
            .max(len);
        let entry = self.header_extents(loc.seq, &name)?;
        let mut win_lo = loc.off as u64;
        let mut win_hi = win_lo + fetch;
        let mut expected: Option<u32> = None;
        if self.verify_get_crc {
            // Snap the window outward to whole header extents so the
            // expected checksum folds from the per-extent CRCs the object
            // was sealed with — O(1) combines, no re-reads.
            let mut obj_off = 0u64;
            for (i, &(_, elen)) in entry.extents.iter().enumerate() {
                let e_lo = obj_off;
                let e_hi = obj_off + elen as u64;
                obj_off = e_hi;
                if e_hi <= win_lo {
                    continue;
                }
                if e_lo >= win_hi {
                    break;
                }
                win_lo = win_lo.min(e_lo);
                win_hi = win_hi.max(e_hi);
                expected = Some(match expected {
                    None => entry.crcs[i],
                    Some(acc) => {
                        self.counters
                            .crc_combine_ops
                            .fetch_add(1, Ordering::Relaxed);
                        crc32c_combine(acc, entry.crcs[i], elen as u64 * SECTOR)
                    }
                });
            }
        }
        let fetch = win_hi - win_lo;
        let byte_off = (hdr_sectors + win_lo) * SECTOR;
        let data = self.store.get_range(&name, byte_off, fetch * SECTOR)?;
        self.counters.backend_gets.fetch_add(1, Ordering::Relaxed);
        self.counters
            .backend_get_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if let Some(exp) = expected {
            self.counters
                .get_verified_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            if crc32c(&data) != exp {
                return Err(LsvdError::Corrupt(format!(
                    "{name}: GET payload CRC mismatch over object sectors {win_lo}..{win_hi}"
                )));
            }
        }
        let admitted = self.admit_window(&entry, loc.seq, win_lo, win_hi, &data, m)?;
        Ok(Window {
            lo: win_lo,
            data,
            admitted,
        })
    }

    /// Enters a fetched window into the read cache for the read `m` that
    /// triggered it, and returns whether the whole window entered. It does
    /// when the window overlaps a header extent the read does not overlap
    /// (co-written data) or the read continues a stream; otherwise only
    /// the read's own sectors enter (see the module docs). A detected scan
    /// admits nothing.
    ///
    /// Liveness is revalidated under the exclusive lock *now*, not at
    /// resolve time: a piece whose vLBA was remapped (overwrite, trim, GC)
    /// while the GET was in flight is stale and must not be cached.
    /// Pieces shadowed by the write-back cache are punched out
    /// (write-after-read hazard, §3.1).
    fn admit_window(
        &self,
        entry: &HdrEntry,
        seq: ObjSeq,
        win_lo: u64,
        win_hi: u64,
        data: &Bytes,
        m: &Misses,
    ) -> Result<bool> {
        // The window's share of each header extent it overlaps, as
        // `(vLBA, object sector, sectors)`.
        let mut pieces = Vec::new();
        let mut spatial = !m.stream;
        let mut obj_off = 0u64;
        for &(elba, elen) in entry.extents.iter() {
            let e_lo = obj_off;
            let e_hi = obj_off + elen as u64;
            obj_off = e_hi;
            let lo = e_lo.max(win_lo);
            let hi = e_hi.min(win_hi);
            if lo >= hi {
                continue;
            }
            spatial &= elba < m.end && m.base < elba + elen as u64;
            pieces.push((elba + (lo - e_lo), lo, hi - lo));
        }
        let covered: u64 = pieces.iter().map(|&(_, _, len)| len).sum();
        if m.bypass {
            self.counters
                .bypassed_sectors
                .fetch_add(covered, Ordering::Relaxed);
            return Ok(false);
        }
        let mut st = self.write_state();
        let mut admitted = 0u64;
        let mut skipped = 0u64;
        for &(vlba, off, len) in &pieces {
            let (lo, hi) = if spatial {
                (vlba.max(m.base), (vlba + len).min(m.end))
            } else {
                (vlba, vlba + len)
            };
            let keep = hi.saturating_sub(lo);
            skipped += len - keep;
            if keep > 0 {
                let b = ((off + (lo - vlba) - win_lo) * SECTOR) as usize;
                let e = b + (keep * SECTOR) as usize;
                admitted += st.admit_live(seq, lo, keep, off + (lo - vlba), &data[b..e])?;
            }
        }
        drop(st);
        self.counters
            .admitted_sectors
            .fetch_add(admitted, Ordering::Relaxed);
        self.counters
            .spatial_skipped_sectors
            .fetch_add(skipped, Ordering::Relaxed);
        Ok(!spatial)
    }

    /// Enters a single-flight follower's own `piece`, served from a window
    /// its leader did not admit whole, with the same revalidation. Sectors
    /// already cached (the leader's own, say) are left as they are.
    fn admit_piece(&self, piece: &MissPiece, data: &[u8]) -> Result<()> {
        let mut st = self.write_state();
        let mut admitted = 0u64;
        for seg in st.rcache.resolve(piece.start, piece.len) {
            if let Segment::Hole { start, len } = seg {
                let rel = start - piece.start;
                let b = (rel * SECTOR) as usize;
                let e = b + (len * SECTOR) as usize;
                let off = piece.loc.off as u64 + rel;
                admitted += st.admit_live(piece.loc.seq, start, len, off, &data[b..e])?;
            }
        }
        drop(st);
        self.counters
            .admitted_sectors
            .fetch_add(admitted, Ordering::Relaxed);
        Ok(())
    }

    /// The object's cached header (extent list + per-extent CRCs), LRU
    /// eviction. The header GET runs without the cache lock held, so two
    /// concurrent misses may both fetch; the second insert harmlessly
    /// refreshes the first.
    pub(crate) fn header_extents(&self, seq: ObjSeq, name: &str) -> Result<Arc<HdrEntry>> {
        if let Some(e) = self.hdr.lock().get(seq) {
            return Ok(e);
        }
        let h = fetch_header(self.store.as_ref(), name)?
            .ok_or_else(|| LsvdError::Corrupt(format!("{name}: mapped object missing")))?;
        let e = Arc::new(HdrEntry {
            extents: h.extents,
            crcs: h.extent_crcs,
        });
        self.hdr.lock().insert(seq, e.clone());
        Ok(e)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Bytes currently resident in this volume's read cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        let s = self.read_state().rcache.stats();
        s.inserted_sectors.saturating_sub(s.evicted_sectors) * SECTOR
    }

    /// Snapshot of every plane counter, including header-cache stats.
    pub(crate) fn stats(&self) -> ReadPlaneStats {
        let c = &self.counters;
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let hdr = self.hdr.lock();
        ReadPlaneStats {
            reads: r(&c.reads),
            read_bytes: r(&c.read_bytes),
            hit_reads: r(&c.hit_reads),
            miss_reads: r(&c.miss_reads),
            backend_gets: r(&c.backend_gets),
            backend_get_bytes: r(&c.backend_get_bytes),
            admitted_sectors: r(&c.admitted_sectors),
            bypassed_sectors: r(&c.bypassed_sectors),
            spatial_skipped_sectors: r(&c.spatial_skipped_sectors),
            singleflight_waits: r(&c.singleflight_waits),
            singleflight_shared: r(&c.singleflight_shared),
            crc_combine_ops: r(&c.crc_combine_ops),
            get_verified_bytes: r(&c.get_verified_bytes),
            concurrent_readers: r(&c.concurrent_readers),
            peak_concurrent_readers: r(&c.peak_concurrent_readers),
            shared_lock_acqs: r(&c.shared_lock_acqs),
            excl_lock_acqs: r(&c.excl_lock_acqs),
            hdr_hits: hdr.hits,
            hdr_misses: hdr.misses,
            hdr_evictions: hdr.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_table_tracks_runs() {
        let mut t = StreamTable::new();
        assert_eq!(t.note(0, 8), 8);
        assert_eq!(t.note(8, 8), 16);
        assert_eq!(t.note(16, 8), 24, "contiguous reads extend the run");
        assert_eq!(t.note(1000, 8), 8, "a jump starts a new stream");
        assert_eq!(t.note(24, 8), 32, "the first stream survives interleaving");
    }

    #[test]
    fn stream_table_replaces_lru_slot() {
        let mut t = StreamTable::new();
        // Fill every slot with distinct streams.
        for i in 0..STREAM_SLOTS as u64 {
            assert_eq!(t.note(i * 10_000, 8), 8);
        }
        // One more evicts the least-recently-touched (the first).
        t.note(900_000, 8);
        assert_eq!(t.note(8, 8), 8, "first stream was evicted, run restarts");
    }

    #[test]
    fn a_deferred_read_notes_its_range_once() {
        let mut vol = crate::volume::Volume::create(
            Arc::new(objstore::MemStore::new()),
            Arc::new(blkdev::RamDisk::new(16 << 20)),
            "vol",
            16 << 20,
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        vol.write(8 * SECTOR, &[1u8; 4096]).unwrap();
        vol.drain().unwrap();
        let plane = vol.read_plane();
        let ReadStart::Pending(read) = plane.start_read(8 * SECTOR, 4096, 0, 0).unwrap() else {
            panic!("a drained block was served locally");
        };
        let data = std::thread::spawn(move || read.finish())
            .join()
            .unwrap()
            .unwrap();
        assert_eq!(&data[..], &[1u8; 4096][..]);
        let streams = plane.streams.lock();
        let live: Vec<(Lba, u64)> = streams
            .slots
            .iter()
            .filter(|s| s.run > 0)
            .map(|s| (s.next, s.run))
            .collect();
        assert_eq!(live, [(16, 8)], "the scan detector saw the read once");
    }

    #[test]
    fn hdr_cache_lru_evicts_coldest() {
        let mut h = HdrCache::new(2);
        let e = || {
            Arc::new(HdrEntry {
                extents: vec![],
                crcs: vec![],
            })
        };
        h.insert(1, e());
        h.insert(2, e());
        assert!(h.get(1).is_some(), "1 is now most recent");
        h.insert(3, e()); // evicts 2, the LRU
        assert!(h.get(2).is_none());
        assert!(h.get(1).is_some());
        assert!(h.get(3).is_some());
        assert_eq!(h.evictions, 1);
        assert_eq!(h.hits, 3);
        assert_eq!(h.misses, 1);
    }

    #[test]
    fn hdr_cache_reinsert_does_not_evict() {
        let mut h = HdrCache::new(2);
        let e = || {
            Arc::new(HdrEntry {
                extents: vec![],
                crcs: vec![],
            })
        };
        h.insert(1, e());
        h.insert(2, e());
        h.insert(2, e()); // refresh, not a new entry
        assert_eq!(h.evictions, 0);
        assert!(h.get(1).is_some() && h.get(2).is_some());
    }
}
