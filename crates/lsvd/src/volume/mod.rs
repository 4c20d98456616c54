//! The functional LSVD volume: a virtual disk over an object store.
//!
//! [`Volume`] wires the pieces together exactly as Figure 1 of the paper
//! shows:
//!
//! - **writes** are appended to the log-structured write-back cache
//!   ([`crate::wlog`]), acknowledged, copied into the current batch, and
//!   shipped to the backend as immutable objects when the batch fills;
//! - **commit barriers** ([`Volume::flush`]) wait for one cache-device
//!   flush that covers the log's position, shared with every other flush
//!   waiting at the time ([`crate::commit`]) — all preceding writes are
//!   then durable locally;
//! - **reads** check the write-back cache, then the read cache, then the
//!   backend (with temporal-locality prefetch);
//! - **recovery** ([`Volume::open`]) rebuilds the backend map by the prefix
//!   rule, rewinds the cache log to the backend frontier, and replays the
//!   cache tail — so a crashed client recovers all acknowledged writes,
//!   and even total cache loss leaves a prefix-consistent image (§3.3/§3.4);
//! - **garbage collection**, **snapshots**, **clones** per §3.5/§3.6.
//!
//! A `Volume` is single-threaded by design (`&mut self`); the paper's
//! prototype pipelines these stages across kernel and userspace, which the
//! simulation plane ([`crate::engine`]) models for performance experiments.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use blkdev::BlockDevice;
use objstore::{MetricsHandle, MetricsStore, ObjectStore, RetryCounters, RetryHandle, RetryStore};
use telemetry::{
    CacheTelemetry, ClientOps, DataPlaneTelemetry, DerivedTelemetry, LatencyRecorder, OpenSpan,
    ReadPlaneTelemetry, RetryTelemetry, ServingRecorders, SpaceTelemetry, Span, SpanRing,
    SpanTelemetry, Stage, TelemetrySnapshot, TraceTelemetry, WritebackTelemetry, EDGE_CAPACITY,
};

use crate::batch::BatchBuilder;
use crate::checkpoint::CheckpointData;
use crate::codec::{ByteReader, ByteWriter};
use crate::commit::GroupCommit;
use crate::config::{VolumeConfig, WRITE_CACHE_FRACTION};
use crate::crc::{crc32c_field_zeroed, crc32c_is_hw};
use crate::objfmt::Superblock;
use crate::objmap::ObjectMap;
use crate::rcache::ReadCache;
use crate::read_plane::ReadPlane;
use crate::recovery::{self, RecoveredBackend};
use crate::types::{
    bytes_to_sectors, checkpoint_name, object_name, superblock_name, Lba, LsvdError, ObjSeq,
    Result, SECTOR,
};
use crate::wlog::{RecordInfo, WriteLog};
use crate::writeback::WritebackPool;

mod backlog;
mod maintenance;

use backlog::{FlushOutcome, PutState, Sealed};
use maintenance::GcPass;

/// Cache-device superblock location and size (sectors).
const CACHE_SB_SECTORS: u64 = 8;
const CACHE_SB_MAGIC: u32 = 0x4C53_4353; // "LSCS"

/// Largest single log record payload; bigger writes are split.
const MAX_WRITE_SECTORS: u64 = 2048; // 1 MiB

/// Capacity and shard count of the request-span ring. Sharded by span id
/// so NBD workers, the dispatcher and writeback completions never
/// serialize on one mutex; 8 Ki spans cover several seconds of a busy
/// 4-connection burst (each request records 2–5 spans).
const SPAN_RING_CAPACITY: usize = 8192;
const SPAN_RING_SHARDS: usize = 8;

/// A synchronous observer of the volume's lifecycle edges, installed with
/// [`Volume::set_edge_hook`]: it gets each edge's 0-based ordinal and the
/// recorded span.
pub type EdgeHook = Box<dyn FnMut(u64, &Span) + Send>;

/// Running counters for a volume.
#[derive(Debug, Clone, Copy, Default)]
pub struct VolumeStats {
    /// Client write operations accepted.
    pub writes: u64,
    /// Client bytes written.
    pub write_bytes: u64,
    /// Client read operations served.
    pub reads: u64,
    /// Client bytes read.
    pub read_bytes: u64,
    /// Commit barriers handled.
    pub flushes: u64,
    /// Discard (trim) operations accepted.
    pub trims: u64,
    /// Sectors discarded by trims.
    pub trim_sectors: u64,
    /// Data objects PUT (excluding GC).
    pub backend_puts: u64,
    /// Bytes PUT in data objects (excluding GC).
    pub backend_put_bytes: u64,
    /// GC objects PUT.
    pub gc_puts: u64,
    /// Bytes PUT by the garbage collector.
    pub gc_put_bytes: u64,
    /// Objects deleted by the garbage collector.
    pub gc_deletes: u64,
    /// Cleaning passes completed.
    pub gc_passes: u64,
    /// Live payload bytes relocated by the cleaner (carrier headers
    /// excluded).
    pub gc_relocated_bytes: u64,
    /// Bytes freed by retiring collected sources (their full backend
    /// footprint, headers included).
    pub gc_freed_bytes: u64,
    /// GC bytes found in local caches (no backend read needed).
    pub gc_cache_hit_bytes: u64,
    /// Backend range GETs.
    pub backend_gets: u64,
    /// Bytes fetched from the backend.
    pub backend_get_bytes: u64,
    /// Bytes eliminated by intra-batch write coalescing.
    pub merged_bytes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Whether sealed batches are queued awaiting a healthy backend.
    pub degraded: bool,
    /// Sealed objects not yet applied to the object map: queued, in
    /// flight or landed (the writeback backlog).
    pub pending_batches: u64,
    /// Object bytes in the writeback backlog.
    pub pending_bytes: u64,
    /// Transient PUT failures absorbed by the writeback queue.
    pub put_transient_failures: u64,
    /// Batch PUTs currently in flight on the writeback pool.
    pub inflight_puts: u64,
    /// Sealed batches waiting locally, not yet handed to the pool.
    pub queued_batches: u64,
    /// Batches whose PUT landed out of order, waiting for an older
    /// object to apply first (the "gapped" portion of the backlog).
    pub landed_gapped: u64,
    /// Writes rejected with [`LsvdError::Backpressure`].
    pub backpressure_rejections: u64,
    /// Checkpoints skipped because the backend failed transiently.
    pub checkpoint_failures: u64,
    /// GC passes aborted on a transient backend failure.
    pub gc_aborts: u64,
    /// Retry-layer counters, populated when a
    /// [`RetryStore`] handle is attached via
    /// [`Volume::attach_retry_counters`].
    pub retry: RetryCounters,
}

impl VolumeStats {
    /// Backend write amplification: total object bytes written (data + GC)
    /// per client byte written.
    pub fn write_amplification(&self) -> f64 {
        if self.write_bytes == 0 {
            0.0
        } else {
            (self.backend_put_bytes + self.gc_put_bytes) as f64 / self.write_bytes as f64
        }
    }
}

/// A log-structured virtual disk.
pub struct Volume {
    store: Arc<dyn ObjectStore>,
    dev: Arc<dyn BlockDevice>,
    sb: Superblock,
    cfg: VolumeConfig,

    wlog: WriteLog,
    /// The concurrent read plane: write-back cache map, read cache, object
    /// map, and header cache behind a `RwLock`, shared with
    /// [`SharedVolume`](crate::shared::SharedVolume) readers. Mutations go
    /// through [`ReadPlane::write_state`]; everything read-path lives in
    /// [`crate::read_plane`].
    plane: Arc<ReadPlane>,
    batch: BatchBuilder,
    /// Every sealed object not yet applied to the object map, by
    /// sequence: queued, in flight on the pool, or landed behind an older
    /// one. PUTs are submitted oldest queued first, and objects apply
    /// only from the front of the map once landed — the §3.3 prefix rule,
    /// so `last_seq` is the durable frontier. The backlog is bounded by
    /// `VolumeConfig::max_pending_batches`, past which writes that would
    /// seal another batch fail with [`LsvdError::Backpressure`].
    backlog: BTreeMap<ObjSeq, Sealed>,
    /// The PUT executor: `writeback_threads` workers, or the inline
    /// executor (zero workers, window 1) that runs each PUT on the
    /// submitting thread. Both drive the same seal → submit → harvest →
    /// apply path.
    pool: WritebackPool,
    /// A transient PUT failure has been observed and its batch requeued;
    /// cleared when a PUT completes successfully or the backlog empties.
    put_stalled: bool,
    /// Live counters of a `RetryStore` beneath us, surfaced in stats.
    /// Auto-attached when the stack is built from
    /// `VolumeConfig::retry_policy`.
    retry_handle: Option<RetryHandle>,
    /// Handle of the `MetricsStore` at the bottom of the store stack.
    metrics: MetricsHandle,
    /// Foreground-side telemetry: op recorders, PUT timing, edge hook.
    tel: VolTelemetry,

    next_obj_seq: ObjSeq,
    last_seq: ObjSeq,
    last_ckpt_seq: ObjSeq,
    objects_since_ckpt: u32,
    /// Highest cache sequence durable in the backend.
    frontier: u64,

    snapshots: Vec<(String, ObjSeq)>,
    deferred_deletes: Vec<(ObjSeq, ObjSeq)>,

    /// In-progress incremental cleaning pass; `None` between passes.
    gc: Option<GcPass>,
    /// Sources retired by the most recently *completed* pass.
    gc_last_collected: u64,
    /// Reentrancy guard: a carrier apply inside a cleaner step can reach
    /// the auto-checkpoint site, which would otherwise recurse back into
    /// the cleaner.
    gc_stepping: bool,

    /// Trims (cache seq, lba, sectors) not yet carried by a *finished*
    /// backend object. Re-punched after each `apply_object` so a batch
    /// sealed before the trim but landing after it cannot resurrect
    /// discarded mappings (pipelined mode races seal and finish).
    pending_trims: Vec<(u64, Lba, u64)>,

    read_only: bool,
    stats: VolumeStats,

    /// The volume's one span ring, shared with the read plane and any NBD
    /// server exporting this volume. Lifecycle edges always record;
    /// request tracing is disabled by default, and enabling it turns
    /// every traced entry point into a typed-span producer.
    spans: Arc<SpanRing>,
    /// Ambient request context `(req, parent span id)` for the *current*
    /// mutating call. `SharedVolume` traced entry points set it around the
    /// op and reset it to `(0, 0)`; `(0, 0)` means "untraced".
    span_ctx: (u64, u64),
}

/// Foreground-side telemetry state. Everything here is touched only from
/// the volume's single thread (the recorders are internally shared with
/// nobody in this struct — worker-side timing arrives via
/// [`PutCompletion`](crate::writeback::PutCompletion)).
struct VolTelemetry {
    started: Instant,
    write_lat: LatencyRecorder,
    /// Backend service time of each batch PUT attempt.
    put_service: LatencyRecorder,
    /// Seal-to-durable wait minus the final attempt's service time.
    put_queue_wait: LatencyRecorder,
    /// Observer of every lifecycle edge (see [`Volume::set_edge_hook`]).
    edge_hook: Option<EdgeHook>,
    /// Last degraded-mode state observed, for its edges.
    was_degraded: bool,
    /// Payload bytes checksummed on the hot write path (once, at wlog
    /// append). The data plane's "exactly one CRC per payload byte"
    /// contract is `payload_crc_bytes == write_bytes` modulo flank
    /// recomputes below.
    payload_crc_bytes: u64,
    /// Payload bytes a seal had to re-checksum because an overwrite split
    /// a chunk mid-extent (partial flanks only; 0 for non-overlapping
    /// workloads).
    crc_recomputed_bytes: u64,
    /// `crc32c_combine` invocations (O(1) each) that replaced full
    /// re-scans at seal and GET-verify time.
    crc_combine_ops: u64,
    /// Payload bytes memcpy'd on the write path: client buffer into the
    /// batch, batch into the sealed object — exactly two copies per byte.
    copied_bytes: u64,
    /// Backend GET payload bytes checked against header extent CRCs.
    get_verified_bytes: u64,
    /// Serving-plane recorders, attached when an NBD server exports this
    /// volume; snapshotted into the aggregate telemetry.
    serving: Option<ServingRecorders>,
}

impl VolTelemetry {
    fn new() -> Self {
        VolTelemetry {
            started: Instant::now(),
            write_lat: LatencyRecorder::new(),
            put_service: LatencyRecorder::new(),
            put_queue_wait: LatencyRecorder::new(),
            edge_hook: None,
            was_degraded: false,
            payload_crc_bytes: 0,
            crc_recomputed_bytes: 0,
            crc_combine_ops: 0,
            copied_bytes: 0,
            get_verified_bytes: 0,
            serving: None,
        }
    }
}

/// The store middleware stack every volume constructor builds: an
/// always-on [`MetricsStore`] at the bottom (so each physical attempt is
/// measured), optionally wrapped by a [`RetryStore`] when
/// [`VolumeConfig::retry_policy`] is set — whose counters are
/// auto-attached so `stats().retry` never silently reports zeros.
struct StoreStack {
    store: Arc<dyn ObjectStore>,
    metrics: MetricsHandle,
    retry: Option<RetryHandle>,
}

fn build_store_stack(store: Arc<dyn ObjectStore>, cfg: &VolumeConfig) -> StoreStack {
    let metered = MetricsStore::new(store);
    let metrics = metered.handle();
    match cfg.retry_policy {
        Some(policy) => {
            let retrying = RetryStore::with_policy(metered, policy);
            let retry = retrying.counter_handle();
            StoreStack {
                store: Arc::new(retrying),
                metrics,
                retry: Some(retry),
            }
        }
        None => StoreStack {
            store: Arc::new(metered),
            metrics,
            retry: None,
        },
    }
}

struct CacheSb {
    uuid: u64,
    image: String,
    wc_start: u64,
    wc_sectors: u64,
    rc_start: u64,
    rc_sectors: u64,
}

impl CacheSb {
    fn build(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity((CACHE_SB_SECTORS * SECTOR) as usize);
        w.u32(CACHE_SB_MAGIC);
        w.u32(0); // CRC
        w.u64(self.uuid);
        w.str16(&self.image);
        w.u64(self.wc_start);
        w.u64(self.wc_sectors);
        w.u64(self.rc_start);
        w.u64(self.rc_sectors);
        w.pad_to((CACHE_SB_SECTORS * SECTOR) as usize);
        let crc = crc32c_field_zeroed(w.as_slice(), 4);
        w.patch_u32(4, crc);
        w.into_vec()
    }

    fn parse(buf: &[u8]) -> Option<CacheSb> {
        let mut r = ByteReader::new(buf);
        if r.u32().ok()? != CACHE_SB_MAGIC {
            return None;
        }
        let crc = r.u32().ok()?;
        if crc32c_field_zeroed(buf, 4) != crc {
            return None;
        }
        Some(CacheSb {
            uuid: r.u64().ok()?,
            image: r.str16().ok()?,
            wc_start: r.u64().ok()?,
            wc_sectors: r.u64().ok()?,
            rc_start: r.u64().ok()?,
            rc_sectors: r.u64().ok()?,
        })
    }
}

fn cache_layout(dev: &Arc<dyn BlockDevice>) -> (u64, u64, u64, u64) {
    let total = dev.capacity() / SECTOR;
    assert!(
        total > CACHE_SB_SECTORS + 64,
        "cache device too small: {total} sectors"
    );
    let usable = total - CACHE_SB_SECTORS;
    let wc_sectors = ((usable as f64 * WRITE_CACHE_FRACTION) as u64).max(32);
    let rc_sectors = usable - wc_sectors;
    (
        CACHE_SB_SECTORS,
        wc_sectors,
        CACHE_SB_SECTORS + wc_sectors,
        rc_sectors,
    )
}

impl Volume {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Creates a new volume: writes the backend superblock and an initial
    /// checkpoint, and formats the cache device.
    ///
    /// Fails with [`LsvdError::BadVolume`] if the image already exists.
    pub fn create(
        store: Arc<dyn ObjectStore>,
        dev: Arc<dyn BlockDevice>,
        image: &str,
        size_bytes: u64,
        cfg: VolumeConfig,
    ) -> Result<Volume> {
        cfg.validate();
        if size_bytes == 0 || !size_bytes.is_multiple_of(SECTOR) {
            return Err(LsvdError::InvalidAccess {
                offset: 0,
                len: size_bytes,
                reason: "volume size must be a positive multiple of 512",
            });
        }
        let stack = build_store_stack(store, &cfg);
        if stack.store.exists(&superblock_name(image))? {
            return Err(LsvdError::BadVolume(format!("{image}: already exists")));
        }
        let uuid = fresh_uuid(image, size_bytes);
        let sb = Superblock {
            uuid,
            size_bytes,
            image: image.to_string(),
            ancestry: vec![],
        };
        stack.store.put(&superblock_name(image), sb.build())?;
        let ck = CheckpointData::capture(&ObjectMap::new(), 0, 0, &[], &[]);
        stack
            .store
            .put(&checkpoint_name(image, 0), ck.build(uuid))?;
        let empty = RecoveredBackend {
            superblock: sb,
            ..RecoveredBackend::default()
        };
        Self::attach_fresh_cache(stack, dev, cfg, empty)
    }

    /// Clones `base_image` (optionally at one of its snapshots) into a new
    /// independent volume `new_image` sharing the base's objects (§3.6).
    pub fn clone_image(
        store: &Arc<dyn ObjectStore>,
        base_image: &str,
        snapshot: Option<&str>,
        new_image: &str,
    ) -> Result<()> {
        if store.exists(&superblock_name(new_image))? {
            return Err(LsvdError::BadVolume(format!("{new_image}: already exists")));
        }
        // Reading the base deletes nothing, for the reason `snapshot_seq`
        // gives.
        let upto = match snapshot {
            None => ObjSeq::MAX,
            Some(name) => snapshot_seq(store.as_ref(), base_image, name)?,
        };
        let rb = recovery::recover_backend(store.as_ref(), base_image, Some(upto))?;
        let mut ancestry = rb.superblock.ancestry.clone();
        ancestry.push((base_image.to_string(), rb.last_seq));
        let sb = Superblock {
            uuid: fresh_uuid(new_image, rb.superblock.size_bytes),
            size_bytes: rb.superblock.size_bytes,
            image: new_image.to_string(),
            ancestry,
        };
        store.put(&superblock_name(new_image), sb.build())?;
        // The clone's initial checkpoint embeds the base map, so the clone
        // never re-scans ancestor streams.
        let ck = CheckpointData::capture(&rb.objmap, rb.last_seq, 0, &[], &[]);
        store.put(&checkpoint_name(new_image, rb.last_seq), ck.build(sb.uuid))?;
        Ok(())
    }

    /// Opens an existing volume: backend prefix recovery, cache rewind and
    /// replay (§3.3). A cache device from a different volume (or a blank
    /// one) is treated as lost and reformatted — the prefix-consistent
    /// worst case.
    pub fn open(
        store: Arc<dyn ObjectStore>,
        dev: Arc<dyn BlockDevice>,
        image: &str,
        cfg: VolumeConfig,
    ) -> Result<Volume> {
        cfg.validate();
        let stack = build_store_stack(store, &cfg);
        let rb = recovery::recover_backend(stack.store.as_ref(), image, None)?;

        // Try to adopt the existing cache.
        let mut sb_buf = vec![0u8; (CACHE_SB_SECTORS * SECTOR) as usize];
        dev.read_at(0, &mut sb_buf)?;
        let cache_sb =
            CacheSb::parse(&sb_buf).filter(|c| c.uuid == rb.superblock.uuid && c.image == image);

        match cache_sb {
            Some(c) => {
                let (wlog, pending) =
                    WriteLog::recover(dev.clone(), c.wc_start, c.wc_sectors, rb.frontier)?;
                // Restore the persisted read-cache map if present (§3.2);
                // a cold cache is always safe.
                let rcache = ReadCache::load(dev.clone(), c.rc_start, c.rc_sectors);
                let mut vol = Self::assemble(stack, dev, cfg, rb, wlog, rcache);
                vol.replay_cache_tail(pending)?;
                Ok(vol)
            }
            None => {
                // Cache lost (or foreign): prefix-consistent recovery from
                // the backend alone.
                Self::attach_fresh_cache(stack, dev, cfg, rb)
            }
        }
    }

    /// Opens a read-only view of `image` at snapshot `snapshot`.
    ///
    /// The given cache device is used only for read caching and is always
    /// reformatted.
    pub fn open_snapshot(
        store: Arc<dyn ObjectStore>,
        dev: Arc<dyn BlockDevice>,
        image: &str,
        snapshot: &str,
        cfg: VolumeConfig,
    ) -> Result<Volume> {
        let stack = build_store_stack(store, &cfg);
        let seq = snapshot_seq(stack.store.as_ref(), image, snapshot)?;
        let rb = recovery::recover_backend(stack.store.as_ref(), image, Some(seq))?;
        let mut vol = Self::attach_fresh_cache(stack, dev, cfg, rb)?;
        vol.read_only = true;
        Ok(vol)
    }

    /// Formats the cache device for the recovered backend state: a cache
    /// superblock, an empty write log and an empty read cache.
    fn attach_fresh_cache(
        stack: StoreStack,
        dev: Arc<dyn BlockDevice>,
        cfg: VolumeConfig,
        rb: RecoveredBackend,
    ) -> Result<Volume> {
        let (wc_start, wc_sectors, rc_start, rc_sectors) = cache_layout(&dev);
        let cache_sb = CacheSb {
            uuid: rb.superblock.uuid,
            image: rb.superblock.image.clone(),
            wc_start,
            wc_sectors,
            rc_start,
            rc_sectors,
        };
        dev.write_at(0, &cache_sb.build())?;
        // Cache sequences continue above the recovered frontier so that a
        // later crash recovery cannot mistake new records for shipped ones.
        let wlog = WriteLog::format(dev.clone(), wc_start, wc_sectors, rb.frontier + 1)?;
        let rcache = ReadCache::new(dev.clone(), rc_start, rc_sectors);
        dev.flush()?;
        Ok(Self::assemble(stack, dev, cfg, rb, wlog, rcache))
    }

    /// Builds the volume over the recovered backend state and a write log
    /// and read cache on `dev`, with an empty writeback backlog.
    fn assemble(
        stack: StoreStack,
        dev: Arc<dyn BlockDevice>,
        cfg: VolumeConfig,
        rb: RecoveredBackend,
        wlog: WriteLog,
        rcache: ReadCache,
    ) -> Volume {
        let pool = WritebackPool::spawn(stack.store.clone(), cfg.writeback_threads);
        let spans = Arc::new(SpanRing::new(SPAN_RING_CAPACITY, SPAN_RING_SHARDS));
        let plane = Arc::new(ReadPlane::new(
            dev.clone(),
            stack.store.clone(),
            rb.superblock.clone(),
            &cfg,
            rcache,
            rb.objmap,
            spans.clone(),
        ));
        Volume {
            store: stack.store,
            dev,
            sb: rb.superblock,
            cfg,
            wlog,
            plane,
            batch: BatchBuilder::new(),
            backlog: BTreeMap::new(),
            pool,
            put_stalled: false,
            retry_handle: stack.retry,
            metrics: stack.metrics,
            tel: VolTelemetry::new(),
            next_obj_seq: rb.last_seq + 1,
            last_seq: rb.last_seq,
            last_ckpt_seq: rb.ckpt_seq,
            objects_since_ckpt: 0,
            frontier: rb.frontier,
            snapshots: rb.snapshots,
            deferred_deletes: rb.deferred_deletes,
            gc: None,
            gc_last_collected: 0,
            gc_stepping: false,
            pending_trims: Vec::new(),
            read_only: false,
            stats: VolumeStats::default(),
            spans,
            span_ctx: (0, 0),
        }
    }

    /// Replays recovered cache records newer than the backend frontier:
    /// re-enters them in the maps and ships them to the backend (§3.3).
    fn replay_cache_tail(&mut self, pending: Vec<RecordInfo>) -> Result<()> {
        for rec in &pending {
            if rec.trim {
                // Header-only trim record: re-punch the maps and re-enter
                // the trim in the batch stream, in sequence order with the
                // data records around it.
                for &(lba, len) in &rec.extents {
                    {
                        let mut st = self.plane.write_state();
                        st.wcache_map.remove(lba, len as u64);
                        st.rcache.invalidate(lba, len as u64);
                        st.objmap.discard(lba, len as u64);
                    }
                    self.batch.discard(lba, len as u64, rec.seq);
                    self.pending_trims.push((rec.seq, lba, len as u64));
                }
                continue;
            }
            let mut plba = rec.data_plba;
            for &(lba, len) in &rec.extents {
                self.plane
                    .write_state()
                    .wcache_map
                    .insert(lba, len as u64, plba);
                let data = self.wlog.read_data(plba, len as u64)?;
                self.tel.payload_crc_bytes += data.len() as u64;
                self.tel.copied_bytes += data.len() as u64;
                self.batch.add(lba, &data, rec.seq);
                plba += len as u64;
            }
        }
        if !self.batch.is_empty() {
            self.put_batch()?;
        }
        // Settle the replayed tail before returning, so an open with a
        // healthy backend ships it synchronously. A stalling backend
        // leaves it queued — degraded mode.
        while self.count(PutState::InFlight) > 0 {
            if let FlushOutcome::Stalled(_) = self.pump(true)? {
                break;
            }
        }
        Ok(())
    }

    /// Cleanly shuts down: drains all cached writes to the backend and
    /// writes a final checkpoint. The volume may afterwards be reopened on
    /// any machine — the basis for virtual machine migration (§4.4).
    pub fn shutdown(mut self) -> Result<()> {
        self.drain()?;
        self.write_checkpoint()?;
        self.plane.read_state().rcache.persist()?;
        self.dev.flush()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Block-device operations
    // ------------------------------------------------------------------

    /// Writes `data` at byte `offset`. Completion means the data is durable
    /// in the local cache log (commit semantics per §2.2: call
    /// [`Volume::flush`] for a barrier).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if self.read_only {
            return Err(LsvdError::InvalidAccess {
                offset,
                len: data.len() as u64,
                reason: "volume is read-only",
            });
        }
        let (mut lba, _) = self.plane.check_access(offset, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        for chunk in data.chunks((MAX_WRITE_SECTORS * SECTOR) as usize) {
            self.write_chunk(lba, chunk)?;
            lba += bytes_to_sectors(chunk.len() as u64);
        }
        self.tel.write_lat.observe(t0.elapsed());
        self.stats.writes += 1;
        self.stats.write_bytes += data.len() as u64;
        Ok(())
    }

    /// Whether [`Volume::write`] of `len` bytes would finish on the cache
    /// device alone: one log record, no backend request, no wait on one.
    /// True only when no cleaning pass is in progress, writeback is idle
    /// (nothing queued, in flight or landed), the log has room, and the
    /// open batch stays below `batch_bytes` — so the write can neither
    /// seal, clean, ship, nor block on a full window.
    pub fn write_stays_local(&self, len: u64) -> bool {
        len <= MAX_WRITE_SECTORS * SECTOR
            && self.gc.is_none()
            && self.backlog.is_empty()
            && self.wlog.has_room(len)
            && self.batch.live_bytes() + len < self.cfg.batch_bytes
    }

    fn write_chunk(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        let sectors = bytes_to_sectors(data.len() as u64);
        // Harvest any finished PUTs first so the backlog accounting below
        // sees fresh state.
        self.pump(false)?;
        // Drive any in-progress cleaning pass one budgeted increment:
        // its relocation carriers share the PUT window with this write's
        // batches, so cleaning progresses without ever gating the
        // foreground on an idle writeback path.
        if self.gc.is_some() {
            self.step_cleaner()?;
        }
        // Past the dirty watermark (queued + in-flight batches at the
        // limit) a write that would seal yet another batch is refused
        // *before* touching the cache log, so a rejected write leaves no
        // partial state behind.
        if self.backlog.len() >= self.cfg.max_pending_batches
            && self.batch.live_bytes() + data.len() as u64 >= self.cfg.batch_bytes
        {
            // A full window over a healthy backend is throttling, not
            // failure: ship the queue and block until the durable prefix
            // advances enough to admit another batch. Harvesting an
            // out-of-order completion leaves it landed in the backlog
            // without shrinking it, so one ship is not always enough —
            // keep shipping while the pipe is healthy and moving. A stall
            // rejects the write.
            let cleared = loop {
                if self.backlog.len() < self.cfg.max_pending_batches {
                    break true;
                }
                if let FlushOutcome::Stalled(_) = self.ship(true)? {
                    break false;
                }
            };
            if !cleared {
                self.stats.backpressure_rejections += 1;
                return Err(LsvdError::Backpressure {
                    pending: self.backlog.len(),
                    limit: self.cfg.max_pending_batches,
                });
            }
        }
        self.make_room(data.len() as u64)?;
        let (req, parent) = self.span_ctx;
        let span = if req != 0 {
            self.spans.begin(req, parent, Stage::WlogAppend)
        } else {
            None
        };
        let appended = self.wlog.append(&[(lba, data)])?;
        {
            let mut st = self.plane.write_state();
            for &(elba, plba, len) in &appended.placements {
                st.wcache_map.insert(elba, len as u64, plba);
            }
            st.rcache.invalidate(lba, sectors);
        }
        // The append already checksummed the payload for its log record;
        // hand that CRC to the batch so sealing folds it into the object
        // header instead of re-scanning the bytes.
        self.tel.payload_crc_bytes += data.len() as u64;
        self.tel.copied_bytes += data.len() as u64;
        self.batch
            .add_with_crc(lba, data, appended.seq, appended.crcs[0]);
        if let Some(open) = span {
            // `arg_a` = cache sequence: the data-join key against the
            // covering seal span, whose `arg_b` is its last cache seq.
            self.spans.finish(open, appended.seq, data.len() as u64);
        }
        if self.batch.live_bytes() >= self.cfg.batch_bytes
            && self.backlog.len() < self.cfg.max_pending_batches
        {
            self.put_batch()?;
        }
        Ok(())
    }

    /// Commit barrier: all previously acknowledged writes are durable on
    /// the cache device when this returns — no metadata writes (§3.2).
    /// It waits on the log's [`GroupCommit`] for a device flush that
    /// started after the last record was appended, starting one itself
    /// when none is running; seals and ships nothing.
    pub fn flush(&mut self) -> Result<()> {
        let (req, parent) = self.span_ctx;
        let commit = self.wlog.commit();
        commit.flush(commit.position(), &self.spans, req, parent)
    }

    /// The log's group committer, shared with
    /// [`SharedVolume`](crate::shared::SharedVolume) so a flush waits on it
    /// without the volume mutex.
    pub(crate) fn committer(&self) -> Arc<GroupCommit> {
        self.wlog.commit().clone()
    }

    /// Discards (trims) `len` bytes at byte `offset`: the range is punched
    /// from every map layer and subsequently reads as zeros. The trim is
    /// logged as a header-only cache record and advertised by the next
    /// sealed object, so it replays across a crash — with or without the
    /// cache — exactly like a write (§3.3 prefix rule applies).
    pub fn discard(&mut self, offset: u64, len: u64) -> Result<()> {
        if self.read_only {
            return Err(LsvdError::InvalidAccess {
                offset,
                len,
                reason: "volume is read-only",
            });
        }
        let (lba, sectors) = self.plane.check_access(offset, len as usize)?;
        if sectors == 0 {
            return Ok(());
        }
        self.pump(false)?;
        let (req, parent) = self.span_ctx;
        let span = if req != 0 {
            self.spans.begin(req, parent, Stage::Trim)
        } else {
            None
        };
        // A trim record is a single header sector; extent lengths are u32
        // sectors, so split pathological multi-TiB trims.
        let mut cur = lba;
        let mut remaining = sectors;
        while remaining > 0 {
            let n = remaining.min(u32::MAX as u64);
            self.discard_extent(cur, n as u32)?;
            cur += n;
            remaining -= n;
        }
        self.stats.trims += 1;
        self.stats.trim_sectors += sectors;
        self.edge(span, Stage::Trim, lba, sectors);
        Ok(())
    }

    /// Makes room in the cache log for a record of `bytes` of payload
    /// (0 for a one-sector trim record): pushes the current batch out
    /// and releases log records until it fits.
    fn make_room(&mut self, bytes: u64) -> Result<()> {
        while !self.wlog.has_room(bytes) {
            let before = self.wlog.free_sectors();
            self.writeback_now()?;
            if self.wlog.free_sectors() == before {
                // No progress. Distinguish "backend down, queue jammed"
                // from a genuinely undersized cache.
                if !self.backlog.is_empty() {
                    self.stats.backpressure_rejections += 1;
                    return Err(LsvdError::Backpressure {
                        pending: self.backlog.len(),
                        limit: self.cfg.max_pending_batches,
                    });
                }
                return Err(LsvdError::CacheFull);
            }
        }
        Ok(())
    }

    fn discard_extent(&mut self, lba: Lba, sectors: u32) -> Result<()> {
        self.make_room(0)?;
        let seq = self.wlog.append_trim(&[(lba, sectors)])?;
        {
            let mut st = self.plane.write_state();
            st.wcache_map.remove(lba, sectors as u64);
            st.rcache.invalidate(lba, sectors as u64);
            st.objmap.discard(lba, sectors as u64);
        }
        self.pending_trims.push((seq, lba, sectors as u64));
        // Ride the batch stream too: batched data for the range dies, and
        // the sealed object advertises the trim so recovery from the
        // backend alone (total cache loss) still replays it.
        self.batch.discard(lba, sectors as u64, seq);
        Ok(())
    }

    /// Reads into `buf` from byte `offset`, checking the write-back cache,
    /// the read cache, then the backend (Figure 1). Uninitialized ranges
    /// read as zeros.
    ///
    /// Delegates to the [`ReadPlane`]: cache hits are served under its
    /// shared lock, misses fetch with no lock held. `&mut self` keeps the
    /// historical single-threaded API; concurrent readers use the plane
    /// through [`SharedVolume`](crate::shared::SharedVolume) directly.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.plane.read_into(offset, buf, 0, 0)
    }

    /// The volume's read plane, through which `SharedVolume` serves reads
    /// without the big volume lock.
    pub(crate) fn read_plane(&self) -> Arc<ReadPlane> {
        self.plane.clone()
    }

    fn resolve_name(&self, seq: ObjSeq) -> String {
        object_name(self.sb.stream_for(seq), seq)
    }

    /// Records one lifecycle edge in the span ring, then shows it to the
    /// edge hook. The hook runs after the edge is recorded and outside
    /// every ring lock, so a hook that panics leaves the edge behind and
    /// poisons nothing.
    fn edge(&mut self, open: Option<OpenSpan>, stage: Stage, arg_a: u64, arg_b: u64) {
        let (ordinal, span) = self.spans.edge(open, stage, arg_a, arg_b);
        if let Some(hook) = self.tel.edge_hook.as_mut() {
            hook(ordinal, &span);
        }
    }

    /// Surfaces the live counters of a [`RetryStore`]
    /// layered beneath this volume in [`Volume::stats`].
    pub fn attach_retry_counters(&mut self, handle: RetryHandle) {
        self.retry_handle = Some(handle);
    }

    /// Attaches a serving plane's recorders (e.g. the NBD server's), so
    /// [`Volume::telemetry`] exports the socket-wait / queue-wait /
    /// service latency split alongside the volume's own sections.
    pub fn attach_serving_telemetry(&mut self, handle: ServingRecorders) {
        self.tel.serving = Some(handle);
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Creates a snapshot named `name` at the current state: drains the
    /// log and records a pointer to the log head (§3.6), anchored by a
    /// checkpoint so it can be mounted later.
    pub fn snapshot(&mut self, name: &str) -> Result<ObjSeq> {
        if self.read_only {
            return Err(LsvdError::InvalidAccess {
                offset: 0,
                len: 0,
                reason: "volume is read-only",
            });
        }
        if self.snapshots.iter().any(|(n, _)| n == name) {
            return Err(LsvdError::BadVolume(format!("snapshot {name} exists")));
        }
        self.drain()?;
        let seq = self.last_seq;
        self.snapshots.push((name.to_string(), seq));
        self.write_checkpoint()?;
        Ok(seq)
    }

    /// Deletes a snapshot and executes any deferred deletes it was
    /// blocking (§3.6).
    pub fn delete_snapshot(&mut self, name: &str) -> Result<()> {
        if !self.snapshots.iter().any(|(n, _)| n == name) {
            return Err(LsvdError::NoSuchSnapshot(name.to_string()));
        }
        // Settle the writeback path before checkpointing: the checkpoint
        // is named by `last_seq` and must describe the full durable
        // prefix, and any eagerly-punched pending trims must ride a
        // sealed object first.
        self.drain()?;
        self.snapshots.retain(|(n, _)| n != name);
        self.sweep_deferred_deletes();
        self.write_checkpoint()?;
        Ok(())
    }

    /// Lists snapshots as `(name, sequence)`.
    pub fn snapshots(&self) -> &[(String, ObjSeq)] {
        &self.snapshots
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Volume size in bytes.
    pub fn size(&self) -> u64 {
        self.sb.size_bytes
    }

    /// The image name.
    pub fn image(&self) -> &str {
        &self.sb.image
    }

    /// The volume UUID.
    pub fn uuid(&self) -> u64 {
        self.sb.uuid
    }

    /// Whether this handle is a read-only snapshot mount.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Running statistics, including the degraded-mode view of the
    /// pending writeback queue and (if attached) retry-layer counters.
    pub fn stats(&self) -> VolumeStats {
        let mut s = self.stats;
        s.flushes = self.wlog.commit().counts().0;
        // Read-path counters live in the plane (shared with concurrent
        // `SharedVolume` readers); volume-side counters (GC GETs) add in.
        let p = self.plane.stats();
        s.reads += p.reads;
        s.read_bytes += p.read_bytes;
        s.backend_gets += p.backend_gets;
        s.backend_get_bytes += p.backend_get_bytes;
        s.degraded = self.is_degraded();
        s.pending_batches = self.backlog.len() as u64;
        s.pending_bytes = self.backlog_bytes();
        s.inflight_puts = self.count(PutState::InFlight) as u64;
        s.queued_batches = self.count(PutState::Queued) as u64;
        s.landed_gapped = self.count(PutState::Landed) as u64;
        if let Some(h) = &self.retry_handle {
            s.retry = h.snapshot();
        }
        s
    }

    /// Assembles the full [`TelemetrySnapshot`]: client-op and backend-op
    /// latency sketches, writeback-pipeline gauges, cache counters, retry
    /// counters, and the derived paper-figure observables.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let stats = self.stats();
        let p = self.plane.stats();
        let rc = { self.plane.read_state().rcache.stats() };
        let elapsed = self.tel.started.elapsed().as_secs_f64();
        let window = self.put_window() as u64;
        let occupancy = stats.inflight_puts as f64 / window as f64;
        let sealed_seq: u64 = self.next_obj_seq.saturating_sub(1).into();
        let frontier: u64 = self.last_seq.into();
        let backend_objects = stats.backend_puts + stats.gc_puts;
        let (live, total) = { self.plane.read_state().objmap.totals() };
        let commit = self.wlog.commit();
        let (_, device_flushes, shared_flushes) = commit.counts();
        TelemetrySnapshot {
            elapsed_secs: elapsed,
            ops: ClientOps {
                read: self.plane.read_lat.snapshot(),
                write: self.tel.write_lat.snapshot(),
                flush: commit.latency(),
            },
            backend: self.metrics.snapshot(),
            writeback: WritebackTelemetry {
                put_service: self.tel.put_service.snapshot(),
                put_queue_wait: self.tel.put_queue_wait.snapshot(),
                queued: stats.queued_batches,
                inflight: stats.inflight_puts,
                landed_gapped: stats.landed_gapped,
                window,
                occupancy,
                sealed_seq,
                durable_frontier: frontier,
                frontier_lag: sealed_seq.saturating_sub(frontier),
                degraded: stats.degraded,
                put_transient_failures: stats.put_transient_failures,
                backpressure_rejections: stats.backpressure_rejections,
            },
            cache: CacheTelemetry {
                hdr_hits: p.hdr_hits,
                hdr_misses: p.hdr_misses,
                hdr_evictions: p.hdr_evictions,
                rcache_hit_sectors: rc.hit_sectors,
                rcache_miss_sectors: rc.miss_sectors,
                rcache_inserted_sectors: rc.inserted_sectors,
                rcache_evicted_sectors: rc.evicted_sectors,
                rcache_hit_ratio: rc.hit_ratio(),
                wlog_used_sectors: self.wlog.used_sectors(),
                wlog_capacity_sectors: self.wlog.capacity_sectors(),
                device_flushes,
                shared_flushes,
            },
            retry: RetryTelemetry {
                attempts: stats.retry.attempts,
                retries: stats.retry.retries,
                give_ups: stats.retry.give_ups,
                backoff_ns: stats.retry.backoff_ns,
            },
            derived: DerivedTelemetry {
                write_amplification: stats.write_amplification(),
                backend_objects,
                backend_objects_per_sec: if elapsed > 0.0 {
                    backend_objects as f64 / elapsed
                } else {
                    0.0
                },
                gc_dead_space_ratio: if total > 0 {
                    1.0 - live as f64 / total as f64
                } else {
                    0.0
                },
                checkpoints: stats.checkpoints,
            },
            space: SpaceTelemetry {
                live_bytes: live * SECTOR,
                dead_bytes: (total - live) * SECTOR,
                cleaning_write_amp: if stats.gc_freed_bytes > 0 {
                    stats.gc_relocated_bytes as f64 / stats.gc_freed_bytes as f64
                } else {
                    0.0
                },
                gc_passes: stats.gc_passes,
                gc_pass_active: self.gc.is_some(),
                gc_step_budget_bytes: self.cfg.gc_step_budget_bytes,
                gc_victims_remaining: self
                    .gc
                    .as_ref()
                    .map(|p| {
                        (p.victims.len() + p.compact_runs.len() + usize::from(p.cursor.is_some()))
                            as u64
                    })
                    .unwrap_or(0),
                gc_relocated_bytes: stats.gc_relocated_bytes,
                gc_freed_bytes: stats.gc_freed_bytes,
                deferred_deletes: self.deferred_deletes.len() as u64,
            },
            data_plane: DataPlaneTelemetry {
                payload_crc_bytes: self.tel.payload_crc_bytes,
                crc_recomputed_bytes: self.tel.crc_recomputed_bytes,
                crc_combine_ops: self.tel.crc_combine_ops + p.crc_combine_ops,
                copied_bytes: self.tel.copied_bytes,
                get_verified_bytes: self.tel.get_verified_bytes + p.get_verified_bytes,
                hw_crc: crc32c_is_hw(),
            },
            read_plane: ReadPlaneTelemetry {
                reads: p.reads,
                hit_reads: p.hit_reads,
                miss_reads: p.miss_reads,
                admitted_sectors: p.admitted_sectors,
                bypassed_sectors: p.bypassed_sectors,
                spatial_skipped_sectors: p.spatial_skipped_sectors,
                singleflight_waits: p.singleflight_waits,
                singleflight_shared: p.singleflight_shared,
                shared_lock_acqs: p.shared_lock_acqs,
                excl_lock_acqs: p.excl_lock_acqs,
                shared_lock_wait: self.plane.shared_lock_wait.snapshot(),
                excl_lock_wait: self.plane.excl_lock_wait.snapshot(),
                concurrent_readers: p.concurrent_readers,
                peak_concurrent_readers: p.peak_concurrent_readers,
            },
            serving: self
                .tel
                .serving
                .as_ref()
                .map(|s| s.snapshot())
                .unwrap_or_default(),
            trace: TraceTelemetry {
                events: self.spans.edges_recorded(),
                dropped: self.spans.edges_dropped(),
                capacity: EDGE_CAPACITY as u64,
            },
            spans: SpanTelemetry {
                recorded: self.spans.recorded(),
                dropped: self.spans.dropped(),
                capacity: self.spans.capacity() as u64,
                requests: self.spans.virt(),
                enabled: self.spans.enabled(),
            },
            // A single volume has no per-export breakdown; the fleet
            // registry attaches one when aggregating node telemetry.
            tenants: Vec::new(),
        }
    }

    /// The span ring (request spans and lifecycle edges), shared with
    /// the read plane. The NBD server and metrics exporter hold this to
    /// mint request ids, record connection edges and export Chrome-trace
    /// JSON without taking the volume lock.
    pub fn span_ring(&self) -> Arc<SpanRing> {
        self.spans.clone()
    }

    /// Sets the ambient request context `(request id, parent span id)`
    /// consumed by the next mutating call (write / flush / discard).
    /// `(0, 0)` — the initial state — means "untraced".
    pub fn set_span_ctx(&mut self, req: u64, parent: u64) {
        self.span_ctx = (req, parent);
    }

    /// Installs a synchronous edge observer: `hook` runs on this thread,
    /// inside the operation, for every lifecycle edge the volume records
    /// from now on, with the edge's ordinal in the span ring. The
    /// crash-state model checker uses this seam to kill the volume at an
    /// exact edge — a panic raised by the hook unwinds through the volume
    /// mid-operation with no cleanup running, which is precisely a crash.
    /// Replaces any previous hook.
    pub fn set_edge_hook(&mut self, hook: EdgeHook) {
        self.tel.edge_hook = Some(hook);
    }

    /// Read-cache statistics.
    pub fn read_cache_stats(&self) -> crate::rcache::ReadCacheStats {
        self.plane.read_state().rcache.stats()
    }

    /// Read-plane counters (hit/miss split, admission control,
    /// single-flight coalescing, lock acquisitions).
    pub fn read_plane_stats(&self) -> crate::read_plane::ReadPlaneStats {
        self.plane.stats()
    }

    /// `(start, end)` sector bounds of the read-cache region on the cache
    /// device, metadata included. Crash tests corrupt this whole span to
    /// prove durability never leans on read-plane state.
    pub fn read_cache_region(&self) -> (u64, u64) {
        self.plane.read_state().rcache.region_sectors()
    }

    /// Bytes acknowledged but not yet applied to the backend map
    /// ("dirty"): the open batch plus every sealed batch still queued, in
    /// flight, or landed out of order.
    pub fn dirty_bytes(&self) -> u64 {
        self.batch.live_bytes() + self.backlog_bytes()
    }

    /// `(live, total)` sectors across backend objects.
    pub fn backend_totals(&self) -> (u64, u64) {
        self.plane.read_state().objmap.totals()
    }

    /// Object-map extent count (the Table 5 memory metric).
    pub fn map_extent_count(&self) -> usize {
        self.plane.read_state().objmap.extent_count()
    }

    /// Highest backend object sequence.
    pub fn last_object_seq(&self) -> ObjSeq {
        self.last_seq
    }

    /// The volume configuration.
    pub fn config(&self) -> &VolumeConfig {
        &self.cfg
    }
}

fn fresh_uuid(image: &str, size: u64) -> u64 {
    use rand::RngCore;
    let mut base = rand::rngs::OsRng.next_u64();
    // Mix in identity so even a broken OsRng cannot collide trivially.
    for b in image.bytes() {
        base = base.rotate_left(7) ^ b as u64;
    }
    base ^ size.rotate_left(32)
}

/// The sequence snapshot `name` of `image` was taken at. The probe deletes
/// nothing: `image` may be open elsewhere with pipelined writeback, where
/// object N+2 can be stored before N+1, and a read-write recovery would
/// delete N+2 as stranded.
fn snapshot_seq(store: &dyn ObjectStore, image: &str, name: &str) -> Result<ObjSeq> {
    recovery::recover_backend(store, image, Some(ObjSeq::MAX))?
        .snapshots
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, s)| s)
        .ok_or_else(|| LsvdError::NoSuchSnapshot(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;
    use objstore::MemStore;

    fn setup(size_mb: u64, cache_mb: u64) -> (Arc<MemStore>, Arc<RamDisk>, Volume) {
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(cache_mb << 20));
        let vol = Volume::create(
            store.clone(),
            dev.clone(),
            "vol",
            size_mb << 20,
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        (store, dev, vol)
    }

    fn wr(vol: &mut Volume, off: u64, tag: u8, bytes: usize) {
        vol.write(off, &vec![tag; bytes]).unwrap();
    }

    fn rd(vol: &mut Volume, off: u64, bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; bytes];
        vol.read(off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn write_read_round_trip_through_cache() {
        let (_, _, mut vol) = setup(64, 16);
        wr(&mut vol, 4096, 7, 4096);
        assert_eq!(rd(&mut vol, 4096, 4096), vec![7u8; 4096]);
    }

    #[test]
    fn unwritten_ranges_read_zero() {
        let (_, _, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 9, 4096);
        let buf = rd(&mut vol, 0, 12288);
        assert!(buf[..4096].iter().all(|&b| b == 9));
        assert!(buf[4096..].iter().all(|&b| b == 0));
    }

    #[test]
    fn alignment_and_bounds_enforced() {
        let (_, _, mut vol) = setup(1, 16);
        assert!(matches!(
            vol.write(100, &[0u8; 512]),
            Err(LsvdError::InvalidAccess { .. })
        ));
        assert!(vol.write(0, &[0u8; 100]).is_err());
        assert!(vol.write(1 << 20, &[0u8; 512]).is_err());
        let mut b = [0u8; 512];
        assert!(vol.read((1 << 20) - 512, &mut b).is_ok());
        assert!(vol.read(1 << 20, &mut b).is_err());
        // An offset whose end overflows u64 is out of bounds too.
        let wrap = u64::MAX - 511;
        assert!(vol.write(wrap, &[0u8; 512]).is_err());
        assert!(vol.read(wrap, &mut b).is_err());
        assert!(vol.discard(wrap, 512).is_err());
    }

    #[test]
    fn batches_flow_to_backend_and_read_back() {
        let (store, _, mut vol) = setup(64, 16);
        // Write more than several batches' worth (batch = 64 KiB in tests).
        for i in 0..64u64 {
            wr(&mut vol, i * 8192, i as u8, 8192);
        }
        vol.drain().unwrap();
        assert!(store.object_count() > 4, "objects created");
        assert!(vol.stats().backend_puts >= 8);
        // Everything still readable (some from backend now).
        for i in 0..64u64 {
            assert_eq!(rd(&mut vol, i * 8192, 8192), vec![i as u8; 8192], "i={i}");
        }
    }

    #[test]
    fn overwrites_return_newest_data_across_tiers() {
        let (_, _, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 65536);
        vol.drain().unwrap(); // version 1 in backend
        let _ = rd(&mut vol, 0, 65536); // warm read cache
        wr(&mut vol, 4096, 2, 4096); // newer version in write cache
        let buf = rd(&mut vol, 0, 65536);
        assert!(buf[..4096].iter().all(|&b| b == 1));
        assert!(buf[4096..8192].iter().all(|&b| b == 2), "write cache wins");
        assert!(buf[8192..].iter().all(|&b| b == 1));
        vol.drain().unwrap();
        let buf = rd(&mut vol, 0, 65536);
        assert!(buf[4096..8192].iter().all(|&b| b == 2), "backend wins too");
    }

    #[test]
    fn clean_shutdown_and_reopen() {
        let (store, dev, mut vol) = setup(64, 16);
        for i in 0..16u64 {
            wr(&mut vol, i * 4096, i as u8 + 1, 4096);
        }
        vol.shutdown().unwrap();
        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        for i in 0..16u64 {
            assert_eq!(rd(&mut vol, i * 4096, 4096), vec![i as u8 + 1; 4096]);
        }
    }

    #[test]
    fn crash_recovery_replays_cache_tail() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 4096);
        vol.drain().unwrap();
        // These writes reach the cache log but never the backend.
        wr(&mut vol, 4096, 2, 4096);
        wr(&mut vol, 8192, 3, 4096);
        vol.flush().unwrap();
        let puts_before = store.object_count();
        drop(vol); // crash

        let mut vol =
            Volume::open(store.clone(), dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert!(
            store.object_count() > puts_before,
            "tail replayed to backend"
        );
        assert_eq!(rd(&mut vol, 0, 4096), vec![1u8; 4096]);
        assert_eq!(rd(&mut vol, 4096, 4096), vec![2u8; 4096]);
        assert_eq!(rd(&mut vol, 8192, 4096), vec![3u8; 4096]);
    }

    #[test]
    fn cache_loss_recovers_backend_prefix() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 4096);
        vol.drain().unwrap();
        wr(&mut vol, 4096, 2, 4096); // cached only
        drop(vol);
        dev.obliterate(); // catastrophic cache failure

        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 4096), vec![1u8; 4096], "prefix intact");
        assert_eq!(rd(&mut vol, 4096, 4096), vec![0u8; 4096], "tail lost");
    }

    #[test]
    fn discard_reads_zero_immediately() {
        let (_, _, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 7, 16384);
        vol.discard(4096, 8192).unwrap();
        let buf = rd(&mut vol, 0, 16384);
        assert!(buf[..4096].iter().all(|&b| b == 7), "head kept");
        assert!(buf[4096..12288].iter().all(|&b| b == 0), "middle trimmed");
        assert!(buf[12288..].iter().all(|&b| b == 7), "tail kept");
        assert_eq!(vol.stats().trims, 1);
        assert_eq!(vol.stats().trim_sectors, 16);
    }

    #[test]
    fn discard_punches_backend_durable_data() {
        let (_, _, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 9, 65536);
        vol.drain().unwrap(); // data lives only in backend objects now
        vol.discard(0, 65536).unwrap();
        assert_eq!(rd(&mut vol, 0, 65536), vec![0u8; 65536]);
    }

    #[test]
    fn discard_survives_crash_via_cache_replay() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 5, 8192);
        vol.drain().unwrap();
        vol.discard(0, 4096).unwrap(); // trim record cached only
        drop(vol); // crash

        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 4096), vec![0u8; 4096], "trim replayed");
        assert_eq!(rd(&mut vol, 4096, 4096), vec![5u8; 4096], "rest intact");
    }

    #[test]
    fn discard_survives_total_cache_loss_via_object_stream() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 5, 8192);
        vol.drain().unwrap();
        vol.discard(0, 4096).unwrap();
        vol.drain().unwrap(); // trim rides a sealed object
        drop(vol);
        dev.obliterate(); // catastrophic cache failure

        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 4096), vec![0u8; 4096], "trim in object");
        assert_eq!(rd(&mut vol, 4096, 4096), vec![5u8; 4096], "rest intact");
    }

    #[test]
    fn write_after_discard_wins_across_shutdown() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 4096);
        vol.discard(0, 4096).unwrap();
        wr(&mut vol, 0, 2, 4096); // same batch as the trim
        assert_eq!(rd(&mut vol, 0, 4096), vec![2u8; 4096]);
        vol.shutdown().unwrap();

        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 4096), vec![2u8; 4096]);
    }

    #[test]
    fn discard_rejects_unaligned_and_out_of_range() {
        let (_, _, mut vol) = setup(16, 16);
        assert!(vol.discard(100, 512).is_err());
        assert!(vol.discard(0, 100).is_err());
        assert!(vol.discard((16 << 20) - 512, 1024).is_err());
        vol.discard(0, 0).unwrap(); // empty trim is a no-op
        assert_eq!(vol.stats().trims, 0);
    }

    #[test]
    fn create_twice_fails() {
        let (store, dev, vol) = setup(16, 16);
        drop(vol);
        assert!(matches!(
            Volume::create(store, dev, "vol", 16 << 20, VolumeConfig::small_for_tests()),
            Err(LsvdError::BadVolume(_))
        ));
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        let (_store, _, mut vol) = setup(64, 16);
        // Write the same 1 MiB region repeatedly to create garbage.
        for round in 0..8u8 {
            for i in 0..16u64 {
                wr(&mut vol, i * 65536, round + 1, 65536);
            }
        }
        vol.drain().unwrap();
        vol.write_checkpoint().unwrap();
        let collected = vol.run_gc().unwrap();
        // Either this pass collected, or the automatic GC (triggered at
        // checkpoints during the writes) already did.
        assert!(
            collected > 0 || vol.stats().gc_deletes > 0,
            "GC never collected anything"
        );
        let (live, total) = vol.backend_totals();
        assert!(
            live as f64 / total as f64 >= 0.70,
            "utilization restored: {live}/{total}"
        );
        // Data integrity preserved.
        for i in 0..16u64 {
            assert_eq!(rd(&mut vol, i * 65536, 65536), vec![8u8; 65536], "i={i}");
        }
    }

    #[test]
    fn trims_feed_gc_liveness_and_trigger_collection() {
        // S1 regression: durable TRIMs must decay `ObjStat.live_sectors`
        // so a trim-heavy workload lowers eligible utilization below the
        // low watermark and triggers collection on its own.
        let (_store, _, mut vol) = setup(64, 16);
        for i in 0..16u64 {
            wr(&mut vol, i * 65536, i as u8 + 1, 65536);
        }
        vol.drain().unwrap();
        vol.write_checkpoint().unwrap();
        // Trim 13 of the 16 regions; the trims ride sealed objects so the
        // punches land on the durable replay path too.
        for i in 3..16u64 {
            vol.discard(i * 65536, 65536).unwrap();
        }
        wr(&mut vol, 16 * 65536, 0xEE, 4096); // carries the trims
        vol.drain().unwrap();
        vol.write_checkpoint().unwrap();
        let (live, total) = vol.backend_totals();
        assert!(
            (live as f64) < 0.70 * total as f64,
            "trims lowered eligible utilization: {live}/{total}"
        );
        let collected = vol.run_gc().unwrap();
        assert!(
            collected > 0 || vol.stats().gc_deletes > 0,
            "trim-created garbage never collected"
        );
        // Trimmed ranges stay trimmed through relocation; survivors intact.
        for i in 0..3u64 {
            assert_eq!(rd(&mut vol, i * 65536, 65536), vec![i as u8 + 1; 65536]);
        }
        for i in 3..16u64 {
            assert_eq!(rd(&mut vol, i * 65536, 65536), vec![0u8; 65536], "i={i}");
        }
        assert_eq!(rd(&mut vol, 16 * 65536, 4096), vec![0xEE; 4096]);
    }

    #[test]
    fn gc_runs_concurrently_with_foreground_writes() {
        // The tentpole claim: a budgeted pass stays active across steps
        // while foreground writes keep flowing through the same
        // writeback window — no idle gate.
        let cfg = VolumeConfig {
            writeback_threads: 2,
            max_inflight_puts: 2,
            gc_step_budget_bytes: 16 << 10,
            // No auto checkpoints: the checkpoint-site cleaner kick would
            // collect the churn before the explicit step below gets to.
            checkpoint_interval: 1 << 20,
            ..VolumeConfig::small_for_tests()
        };
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let mut vol = Volume::create(store, dev, "vol", 64 << 20, cfg).unwrap();
        // Partial overwrites: every source keeps live data, so the pass
        // must actually relocate (fully-dead victims retire instantly and
        // would finish the pass within one step).
        for i in 0..16u64 {
            wr(&mut vol, i * 65536, 1, 65536);
        }
        for round in 0..3u8 {
            for i in 0..16u64 {
                wr(&mut vol, i * 65536, round + 2, 32768);
            }
        }
        vol.drain().unwrap();
        vol.write_checkpoint().unwrap();
        assert!(vol.gc_step().is_ok());
        assert!(vol.gc_active(), "budgeted step leaves a resumable pass");
        // Write while the pass is mid-flight; each write ticks the
        // cleaner by one budget's worth.
        let mut during = 0u64;
        while vol.gc_active() && during < 512 {
            wr(&mut vol, (8 << 20) + during * 4096, 0xAB, 4096);
            during += 1;
        }
        assert!(during > 0, "foreground writes progressed during the pass");
        vol.run_gc().unwrap(); // finish if the write ticks didn't
        assert!(!vol.gc_active());
        assert!(vol.stats().gc_passes >= 1, "pass completed");
        assert!(vol.stats().gc_relocated_bytes > 0, "carriers moved data");
        vol.drain().unwrap();
        for i in 0..16u64 {
            assert_eq!(rd(&mut vol, i * 65536, 32768), vec![4u8; 32768], "i={i}");
            assert_eq!(rd(&mut vol, i * 65536 + 32768, 32768), vec![1u8; 32768]);
        }
        for j in 0..during {
            assert_eq!(rd(&mut vol, (8 << 20) + j * 4096, 4096), vec![0xAB; 4096]);
        }
    }

    #[test]
    fn compaction_shrinks_extent_map() {
        // Cold-extent compaction: interleaved 4 KiB extents from two
        // sources collapse into one dense relocation object — and one
        // merged map entry — even though both sources are fully live
        // (no victim-eligible garbage).
        let cfg = VolumeConfig {
            gc_compact_min_run: 2,
            ..VolumeConfig::small_for_tests()
        };
        let store = Arc::new(MemStore::new());
        let dev = Arc::new(RamDisk::new(16 << 20));
        let mut vol = Volume::create(store, dev, "vol", 64 << 20, cfg).unwrap();
        // Even 4 KiB blocks in one object, odd blocks in the next: the
        // map alternates sources across a contiguous LBA range.
        for i in 0..8u64 {
            wr(&mut vol, i * 8192, 1, 4096);
        }
        vol.drain().unwrap();
        for i in 0..8u64 {
            wr(&mut vol, i * 8192 + 4096, 2, 4096);
        }
        vol.drain().unwrap();
        vol.write_checkpoint().unwrap();
        let before = vol.map_extent_count();
        assert!(before >= 16, "interleaving fragmented the map: {before}");
        vol.run_gc().unwrap();
        let after = vol.map_extent_count();
        assert!(
            after < before,
            "compaction shrank the map: {before} -> {after}"
        );
        for i in 0..8u64 {
            assert_eq!(rd(&mut vol, i * 8192, 4096), vec![1u8; 4096]);
            assert_eq!(rd(&mut vol, i * 8192 + 4096, 4096), vec![2u8; 4096]);
        }
    }

    #[test]
    fn snapshot_and_mount() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 65536);
        vol.snapshot("s1").unwrap();
        wr(&mut vol, 0, 2, 65536);
        vol.shutdown().unwrap();

        let snap_dev = Arc::new(RamDisk::new(8 << 20));
        let mut snap = Volume::open_snapshot(
            store.clone(),
            snap_dev,
            "vol",
            "s1",
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        assert!(snap.is_read_only());
        assert_eq!(rd(&mut snap, 0, 65536), vec![1u8; 65536], "snapshot view");
        assert!(snap.write(0, &[0u8; 512]).is_err());

        // The live volume still sees the new data.
        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 65536), vec![2u8; 65536]);
    }

    #[test]
    fn clone_shares_base_and_diverges() {
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 1, 65536);
        wr(&mut vol, 1 << 20, 9, 65536);
        vol.shutdown().unwrap();

        let store_dyn: Arc<dyn ObjectStore> = store.clone();
        Volume::clone_image(&store_dyn, "vol", None, "clone1").unwrap();
        let cdev = Arc::new(RamDisk::new(8 << 20));
        let mut clone = Volume::open(
            store_dyn.clone(),
            cdev,
            "clone1",
            VolumeConfig::small_for_tests(),
        )
        .unwrap();
        // Clone sees base data...
        assert_eq!(rd(&mut clone, 0, 65536), vec![1u8; 65536]);
        // ...diverges independently...
        wr(&mut clone, 0, 5, 65536);
        clone.drain().unwrap();
        assert_eq!(rd(&mut clone, 0, 65536), vec![5u8; 65536]);
        assert_eq!(rd(&mut clone, 1 << 20, 65536), vec![9u8; 65536]);
        // ...and the base is untouched.
        let mut base =
            Volume::open(store_dyn, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut base, 0, 65536), vec![1u8; 65536]);
    }

    #[test]
    fn large_write_spans_records() {
        let (_, _, mut vol) = setup(64, 32);
        let big = vec![0x5A; 3 << 20]; // 3 MiB > MAX_WRITE_SECTORS
        vol.write(0, &big).unwrap();
        assert_eq!(rd(&mut vol, 0, 3 << 20), big);
    }

    #[test]
    fn warm_read_cache_survives_clean_restart() {
        // §3.2: the read-cache map is persisted so a restart does not
        // re-fetch from the backend.
        let (store, dev, mut vol) = setup(64, 16);
        wr(&mut vol, 0, 7, 256 << 10);
        vol.drain().unwrap();
        // Warm the read cache (the write cache has released these).
        let _ = rd(&mut vol, 0, 256 << 10);
        vol.shutdown().unwrap();

        let mut vol = Volume::open(store, dev, "vol", VolumeConfig::small_for_tests()).unwrap();
        assert_eq!(rd(&mut vol, 0, 256 << 10), vec![7u8; 256 << 10]);
        assert_eq!(
            vol.stats().backend_gets,
            0,
            "served from the restored read cache, no backend GETs"
        );
    }

    #[test]
    fn large_read_survives_mid_read_cache_eviction() {
        // Regression: a read spanning many cache segments used to resolve
        // the read cache once up front; filling earlier holes evicted (and
        // physically reused) entries that later segments still pointed at,
        // returning another extent's bytes. The read path must re-resolve
        // per segment.
        let store = Arc::new(MemStore::new());
        // Small cache device => read cache of only ~1.6 MiB: a multi-MiB
        // read is guaranteed to churn it end to end.
        let dev = Arc::new(RamDisk::new(2 << 20));
        let mut vol = Volume::create(store, dev, "vol", 16 << 20, VolumeConfig::small_for_tests())
            .expect("create");
        // Distinct tag per 64 KiB stripe.
        for i in 0..256u64 {
            wr(&mut vol, i * (64 << 10), (i % 250) as u8 + 1, 64 << 10);
        }
        vol.drain().expect("drain");
        // Warm the cache with the TAIL of the volume, then read everything:
        // the head misses evict the warmed tail mid-read.
        let _ = rd(&mut vol, 12 << 20, 4 << 20);
        let buf = rd(&mut vol, 0, 16 << 20);
        for i in 0..256usize {
            let tag = (i % 250) as u8 + 1;
            let s = &buf[i * (64 << 10)..(i + 1) * (64 << 10)];
            assert!(
                s.iter().all(|&b| b == tag),
                "stripe {i}: expected {tag}, got {:?}",
                &s[..4]
            );
        }
    }

    #[test]
    fn stats_track_amplification() {
        let (_, _, mut vol) = setup(64, 16);
        for i in 0..32u64 {
            wr(&mut vol, i * 4096, 1, 4096);
        }
        vol.drain().unwrap();
        let s = vol.stats();
        assert_eq!(s.write_bytes, 32 * 4096);
        assert!(s.backend_put_bytes >= s.write_bytes);
        let waf = s.write_amplification();
        assert!((1.0..1.5).contains(&waf), "WAF {waf}");
    }
}
