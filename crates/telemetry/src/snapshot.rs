//! The aggregate telemetry snapshot and its exporters.
//!
//! [`TelemetrySnapshot`] is the single struct a volume (or bench harness)
//! hands out: every latency recorder's headline numbers, the writeback
//! pipeline gauges, cache/retry counters, and the derived paper-figure
//! observables (write amplification as in Figure 13, backend objects/s as
//! in Figure 10, GC dead-space ratio as in Figure 14). It serializes to
//! JSON ([`TelemetrySnapshot::to_json`] / [`TelemetrySnapshot::from_json`])
//! and Prometheus-style text ([`TelemetrySnapshot::to_prometheus`]) with
//! no external dependencies.

use crate::json::Json;
use crate::recorder::LatencySnapshot;

/// Schema identifier stamped into every JSON snapshot; bump on breaking
/// layout changes. CI validates emitted snapshots against this.
///
/// v2 adds the `spans` section (request-scoped span ring occupancy) next
/// to the v1 sections. v3 adds the `space` section (incremental-cleaner
/// space accounting: liveness, cleaning write amplification, pass
/// progress, deferred-delete backlog). v4 adds the fleet dimension: the
/// `tenants` array (one per-export serving/cache entry per registered
/// volume), per-tenant byte and throttle counters in `serving`, and the
/// read plane's `quota_bypassed_sectors`.
pub const SCHEMA: &str = "lsvd-telemetry-v4";

/// Client-facing op latencies (what the guest "sees").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientOps {
    /// Volume::read latency.
    pub read: LatencySnapshot,
    /// Volume::write latency.
    pub write: LatencySnapshot,
    /// Volume::flush latency (includes durability waits).
    pub flush: LatencySnapshot,
}

/// Object-store op latencies and byte counters, as measured by the
/// `MetricsStore` middleware at the bottom of the store stack.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendOps {
    /// PUT latency.
    pub put: LatencySnapshot,
    /// GET / GET-range latency.
    pub get: LatencySnapshot,
    /// HEAD latency.
    pub head: LatencySnapshot,
    /// LIST latency.
    pub list: LatencySnapshot,
    /// DELETE latency.
    pub delete: LatencySnapshot,
    /// Bytes uploaded by PUTs.
    pub put_bytes: u64,
    /// Bytes downloaded by GETs.
    pub get_bytes: u64,
    /// Ops that returned an error (any kind).
    pub errors: u64,
    /// Subset of `errors` classified transient (retryable).
    pub transient_errors: u64,
}

/// Writeback-pipeline visibility: PUT timing split plus the continuously
/// exported queue gauges (satellite: backpressure must be observable as a
/// gauge, not only as an error).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WritebackTelemetry {
    /// Backend service time of each batch PUT (worker-side).
    pub put_service: LatencySnapshot,
    /// Time a sealed batch waited before its PUT completed, minus service.
    pub put_queue_wait: LatencySnapshot,
    /// Sealed batches waiting to enter the in-flight window.
    pub queued: u64,
    /// PUTs currently in flight.
    pub inflight: u64,
    /// Batches landed out of order, awaiting the durable frontier.
    pub landed_gapped: u64,
    /// In-flight PUT window: `max_inflight_puts` over worker threads, 1
    /// for the inline executor (`writeback_threads = 0`).
    pub window: u64,
    /// `inflight / window` at snapshot time.
    pub occupancy: f64,
    /// Highest object sequence sealed so far (0 if none).
    pub sealed_seq: u64,
    /// Durable frontier: all objects `<=` this are durable (0 if none).
    pub durable_frontier: u64,
    /// `sealed_seq - durable_frontier`: batches not yet durable.
    pub frontier_lag: u64,
    /// True while the volume is in degraded (backpressure) mode.
    pub degraded: bool,
    /// Transient PUT failures requeued by the pipeline.
    pub put_transient_failures: u64,
    /// Writes rejected with `Backpressure` while degraded.
    pub backpressure_rejections: u64,
}

/// Cache-layer counters: backend header cache, read cache, write log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheTelemetry {
    /// Backend object-header cache hits (fetch_extent fast path).
    pub hdr_hits: u64,
    /// Header cache misses (header GET issued).
    pub hdr_misses: u64,
    /// Header cache evictions (LRU capacity reached).
    pub hdr_evictions: u64,
    /// Read-cache sector hits.
    pub rcache_hit_sectors: u64,
    /// Read-cache sector misses.
    pub rcache_miss_sectors: u64,
    /// Sectors inserted into the read cache.
    pub rcache_inserted_sectors: u64,
    /// Sectors evicted from the read cache.
    pub rcache_evicted_sectors: u64,
    /// `hit / (hit + miss)` sectors; 0 when the cache is untouched.
    pub rcache_hit_ratio: f64,
    /// Write-log sectors currently occupied.
    pub wlog_used_sectors: u64,
    /// Write-log capacity in sectors.
    pub wlog_capacity_sectors: u64,
}

/// Retry-layer counters (mirrors `objstore::RetryCounters`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryTelemetry {
    /// Total attempts (first tries + retries).
    pub attempts: u64,
    /// Retries after a transient failure.
    pub retries: u64,
    /// Ops abandoned after exhausting the retry budget.
    pub give_ups: u64,
    /// Total virtual backoff applied, in nanoseconds.
    pub backoff_ns: u64,
}

/// Derived paper-figure observables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DerivedTelemetry {
    /// Backend bytes written / client bytes written (Figure 13 analogue).
    pub write_amplification: f64,
    /// Backend objects written (batches + GC rewrites).
    pub backend_objects: u64,
    /// Backend objects per wall-clock second (Figure 10 analogue).
    pub backend_objects_per_sec: f64,
    /// Dead bytes / total bytes across live backend objects (Figure 14).
    pub gc_dead_space_ratio: f64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

/// Space accounting for the incremental cleaner: how much of the backend
/// log is live versus dead, what cleaning costs (bytes relocated per byte
/// freed), and where the active pass stands.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpaceTelemetry {
    /// Live bytes across backend data objects (mapped sectors).
    pub live_bytes: u64,
    /// Dead bytes across backend data objects (overwritten or trimmed,
    /// not yet reclaimed).
    pub dead_bytes: u64,
    /// Cleaning write amplification: bytes relocated by GC carriers per
    /// byte freed by retired victims (0 until something is freed).
    pub cleaning_write_amp: f64,
    /// Cleaning passes completed.
    pub gc_passes: u64,
    /// Whether an incremental pass is in progress right now.
    pub gc_pass_active: bool,
    /// Configured per-step relocation budget (0 = unbudgeted).
    pub gc_step_budget_bytes: u64,
    /// Victims and compaction runs the active pass has yet to process
    /// (its resumable cursor counts as one).
    pub gc_victims_remaining: u64,
    /// Bytes relocated by GC carriers since volume start.
    pub gc_relocated_bytes: u64,
    /// Bytes freed by retiring victims since volume start.
    pub gc_freed_bytes: u64,
    /// Retired objects whose backend DELETE is deferred until a
    /// checkpoint covers their relocations.
    pub deferred_deletes: u64,
}

/// Data-plane byte accounting: how many times payload bytes were
/// checksummed and copied end to end. The write path's contract is one
/// CRC pass and two copies per payload byte; these counters make that
/// auditable from the outside.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataPlaneTelemetry {
    /// Payload bytes checksummed once on the hot write path (at log
    /// append; the same CRC is reused by the batch and object header).
    pub payload_crc_bytes: u64,
    /// Payload bytes re-checksummed at seal because an overwrite split a
    /// batch chunk mid-extent (partial flanks only).
    pub crc_recomputed_bytes: u64,
    /// O(1) `crc32c_combine` folds that replaced full re-scans.
    pub crc_combine_ops: u64,
    /// Payload bytes memcpy'd on the write path (client → batch, batch →
    /// sealed object).
    pub copied_bytes: u64,
    /// Backend GET payload bytes verified against header extent CRCs.
    pub get_verified_bytes: u64,
    /// Whether the hardware (SSE4.2) CRC32C kernel is active.
    pub hw_crc: bool,
}

/// Concurrent read-plane observability: the lock-split serving path's
/// hit/miss accounting, scan-resistant admission control, single-flight
/// miss coalescing, and the shared-vs-exclusive lock wait split that
/// shows whether read latency is work or queueing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReadPlaneTelemetry {
    /// Reads served by the plane (all paths).
    pub reads: u64,
    /// Reads served entirely from local state (caches / zeros).
    pub hit_reads: u64,
    /// Reads that needed at least one backend fetch.
    pub miss_reads: u64,
    /// Sectors admitted into the read cache by miss fetches.
    pub admitted_sectors: u64,
    /// Sectors a detected sequential scan kept out of the read cache.
    pub bypassed_sectors: u64,
    /// Sectors the tenant byte quota kept out of the read cache.
    pub quota_bypassed_sectors: u64,
    /// Fetches that parked on another reader's in-flight GET.
    pub singleflight_waits: u64,
    /// Parked fetches fully served from the leader's window (GETs saved).
    pub singleflight_shared: u64,
    /// Shared-lock acquisitions (the concurrent hit path).
    pub shared_lock_acqs: u64,
    /// Exclusive-lock acquisitions (mutations and miss-path inserts).
    pub excl_lock_acqs: u64,
    /// Time spent waiting for the shared lock.
    pub shared_lock_wait: LatencySnapshot,
    /// Time spent waiting for the exclusive lock.
    pub excl_lock_wait: LatencySnapshot,
    /// Readers inside the plane at snapshot time.
    pub concurrent_readers: u64,
    /// High-water mark of concurrent readers.
    pub peak_concurrent_readers: u64,
}

/// Serving-plane (NBD) observability: per-request latency split into the
/// three places time can go — blocked on the socket, queued behind the
/// scheduler, or inside the volume — plus connection/op gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingTelemetry {
    /// Time spent reading a request frame off the socket and writing its
    /// reply back (transport cost).
    pub socket_wait: LatencySnapshot,
    /// Time a parsed request waited in the scheduler queue before a worker
    /// picked it up.
    pub queue_wait: LatencySnapshot,
    /// Time inside the volume call servicing the request.
    pub service: LatencySnapshot,
    /// Connections currently open.
    pub conns_open: u64,
    /// Connections ever accepted.
    pub conns_total: u64,
    /// READ requests served.
    pub reads: u64,
    /// WRITE requests served.
    pub writes: u64,
    /// FLUSH requests served (including FUA-forced flushes).
    pub flushes: u64,
    /// TRIM requests served.
    pub trims: u64,
    /// Requests answered with an NBD error code.
    pub errors: u64,
    /// Bytes served to READ replies.
    pub bytes_read: u64,
    /// Bytes accepted from WRITE requests.
    pub bytes_written: u64,
    /// Requests that stalled on a QoS token bucket before dispatch.
    pub throttle_waits: u64,
}

/// One tenant's slice of a fleet node: the per-export serving counters
/// plus its share of the partitioned read cache. Exported as the
/// `tenants` array in JSON and as `export="..."`-labeled series in
/// Prometheus, so noisy-neighbor effects are measurable per volume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTelemetry {
    /// Export (registry) name of the tenant volume.
    pub export: String,
    /// Serving-plane counters and latency split for this export only.
    pub serving: ServingTelemetry,
    /// The tenant's read-cache byte quota (0 = unlimited).
    pub cache_quota_bytes: u64,
    /// Bytes currently resident in the tenant's read-cache partition.
    pub cache_resident_bytes: u64,
}

/// Trace-ring occupancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceTelemetry {
    /// Events ever pushed.
    pub events: u64,
    /// Events evicted to make room.
    pub dropped: u64,
    /// Ring capacity.
    pub capacity: u64,
}

/// Span-ring occupancy counters (the request-scoped tracing layer).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTelemetry {
    /// Spans ever recorded.
    pub recorded: u64,
    /// Spans evicted to make room.
    pub dropped: u64,
    /// Ring capacity across all shards.
    pub capacity: u64,
    /// Request ids minted so far (the virtual clock).
    pub requests: u64,
    /// Whether span recording is currently enabled.
    pub enabled: bool,
}

/// The aggregate snapshot: everything observable about a running volume
/// (or, on a fleet node, the node-wide aggregate plus the per-tenant
/// `tenants` breakdown).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Wall-clock seconds since the volume's telemetry started.
    pub elapsed_secs: f64,
    /// Client-facing op latencies.
    pub ops: ClientOps,
    /// Object-store op latencies and byte counters.
    pub backend: BackendOps,
    /// Writeback-pipeline gauges and PUT timing split.
    pub writeback: WritebackTelemetry,
    /// Cache-layer counters.
    pub cache: CacheTelemetry,
    /// Retry-layer counters.
    pub retry: RetryTelemetry,
    /// Derived paper-figure observables.
    pub derived: DerivedTelemetry,
    /// Incremental-cleaner space accounting.
    pub space: SpaceTelemetry,
    /// Data-plane copy/CRC byte accounting.
    pub data_plane: DataPlaneTelemetry,
    /// Concurrent read-plane counters and lock-wait split.
    pub read_plane: ReadPlaneTelemetry,
    /// Serving-plane (NBD) latency split and connection gauges.
    pub serving: ServingTelemetry,
    /// Trace-ring occupancy.
    pub trace: TraceTelemetry,
    /// Span-ring occupancy (request-scoped tracing).
    pub spans: SpanTelemetry,
    /// Per-tenant breakdown on a fleet node (empty for a single volume).
    pub tenants: Vec<TenantTelemetry>,
}

fn lat_json(l: &LatencySnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(l.count as f64)),
        ("mean_ns".into(), Json::Num(l.mean_ns)),
        ("p50_ns".into(), Json::Num(l.p50_ns)),
        ("p99_ns".into(), Json::Num(l.p99_ns)),
        ("max_ns".into(), Json::Num(l.max_ns)),
    ])
}

fn lat_from(j: Option<&Json>) -> LatencySnapshot {
    let Some(j) = j else {
        return LatencySnapshot::default();
    };
    LatencySnapshot {
        count: num_u64(j, "count"),
        mean_ns: num_f64(j, "mean_ns"),
        p50_ns: num_f64(j, "p50_ns"),
        p99_ns: num_f64(j, "p99_ns"),
        max_ns: num_f64(j, "max_ns"),
    }
}

fn num_f64(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn num_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn flag(j: &Json, key: &str) -> bool {
    j.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn serving_json(s: &ServingTelemetry) -> Json {
    Json::Obj(vec![
        ("socket_wait".into(), lat_json(&s.socket_wait)),
        ("queue_wait".into(), lat_json(&s.queue_wait)),
        ("service".into(), lat_json(&s.service)),
        ("conns_open".into(), Json::Num(s.conns_open as f64)),
        ("conns_total".into(), Json::Num(s.conns_total as f64)),
        ("reads".into(), Json::Num(s.reads as f64)),
        ("writes".into(), Json::Num(s.writes as f64)),
        ("flushes".into(), Json::Num(s.flushes as f64)),
        ("trims".into(), Json::Num(s.trims as f64)),
        ("errors".into(), Json::Num(s.errors as f64)),
        ("bytes_read".into(), Json::Num(s.bytes_read as f64)),
        ("bytes_written".into(), Json::Num(s.bytes_written as f64)),
        ("throttle_waits".into(), Json::Num(s.throttle_waits as f64)),
    ])
}

fn serving_from(j: Option<&Json>) -> ServingTelemetry {
    fn sub<'a>(parent: Option<&'a Json>, key: &str) -> Option<&'a Json> {
        parent.and_then(|p| p.get(key))
    }
    ServingTelemetry {
        socket_wait: lat_from(sub(j, "socket_wait")),
        queue_wait: lat_from(sub(j, "queue_wait")),
        service: lat_from(sub(j, "service")),
        conns_open: j.map_or(0, |s| num_u64(s, "conns_open")),
        conns_total: j.map_or(0, |s| num_u64(s, "conns_total")),
        reads: j.map_or(0, |s| num_u64(s, "reads")),
        writes: j.map_or(0, |s| num_u64(s, "writes")),
        flushes: j.map_or(0, |s| num_u64(s, "flushes")),
        trims: j.map_or(0, |s| num_u64(s, "trims")),
        errors: j.map_or(0, |s| num_u64(s, "errors")),
        bytes_read: j.map_or(0, |s| num_u64(s, "bytes_read")),
        bytes_written: j.map_or(0, |s| num_u64(s, "bytes_written")),
        throttle_waits: j.map_or(0, |s| num_u64(s, "throttle_waits")),
    }
}

/// Approximate merge of two latency sketches for fleet aggregation: the
/// count-weighted mean is exact; p50/p99 are count-weighted means of the
/// inputs' percentiles (an approximation — true percentiles of a union
/// need the raw samples); max is the max of maxes.
fn lat_absorb(a: &LatencySnapshot, b: &LatencySnapshot) -> LatencySnapshot {
    let n = a.count + b.count;
    if n == 0 {
        return LatencySnapshot::default();
    }
    let (wa, wb) = (a.count as f64 / n as f64, b.count as f64 / n as f64);
    LatencySnapshot {
        count: n,
        mean_ns: a.mean_ns * wa + b.mean_ns * wb,
        p50_ns: a.p50_ns * wa + b.p50_ns * wb,
        p99_ns: a.p99_ns * wa + b.p99_ns * wb,
        max_ns: a.max_ns.max(b.max_ns),
    }
}

impl TelemetrySnapshot {
    /// Builds the JSON tree (schema key first).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            (
                "ops".into(),
                Json::Obj(vec![
                    ("read".into(), lat_json(&self.ops.read)),
                    ("write".into(), lat_json(&self.ops.write)),
                    ("flush".into(), lat_json(&self.ops.flush)),
                ]),
            ),
            (
                "backend".into(),
                Json::Obj(vec![
                    ("put".into(), lat_json(&self.backend.put)),
                    ("get".into(), lat_json(&self.backend.get)),
                    ("head".into(), lat_json(&self.backend.head)),
                    ("list".into(), lat_json(&self.backend.list)),
                    ("delete".into(), lat_json(&self.backend.delete)),
                    ("put_bytes".into(), Json::Num(self.backend.put_bytes as f64)),
                    ("get_bytes".into(), Json::Num(self.backend.get_bytes as f64)),
                    ("errors".into(), Json::Num(self.backend.errors as f64)),
                    (
                        "transient_errors".into(),
                        Json::Num(self.backend.transient_errors as f64),
                    ),
                ]),
            ),
            (
                "writeback".into(),
                Json::Obj(vec![
                    ("put_service".into(), lat_json(&self.writeback.put_service)),
                    (
                        "put_queue_wait".into(),
                        lat_json(&self.writeback.put_queue_wait),
                    ),
                    ("queued".into(), Json::Num(self.writeback.queued as f64)),
                    ("inflight".into(), Json::Num(self.writeback.inflight as f64)),
                    (
                        "landed_gapped".into(),
                        Json::Num(self.writeback.landed_gapped as f64),
                    ),
                    ("window".into(), Json::Num(self.writeback.window as f64)),
                    ("occupancy".into(), Json::Num(self.writeback.occupancy)),
                    (
                        "sealed_seq".into(),
                        Json::Num(self.writeback.sealed_seq as f64),
                    ),
                    (
                        "durable_frontier".into(),
                        Json::Num(self.writeback.durable_frontier as f64),
                    ),
                    (
                        "frontier_lag".into(),
                        Json::Num(self.writeback.frontier_lag as f64),
                    ),
                    ("degraded".into(), Json::Bool(self.writeback.degraded)),
                    (
                        "put_transient_failures".into(),
                        Json::Num(self.writeback.put_transient_failures as f64),
                    ),
                    (
                        "backpressure_rejections".into(),
                        Json::Num(self.writeback.backpressure_rejections as f64),
                    ),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hdr_hits".into(), Json::Num(self.cache.hdr_hits as f64)),
                    ("hdr_misses".into(), Json::Num(self.cache.hdr_misses as f64)),
                    (
                        "hdr_evictions".into(),
                        Json::Num(self.cache.hdr_evictions as f64),
                    ),
                    (
                        "rcache_hit_sectors".into(),
                        Json::Num(self.cache.rcache_hit_sectors as f64),
                    ),
                    (
                        "rcache_miss_sectors".into(),
                        Json::Num(self.cache.rcache_miss_sectors as f64),
                    ),
                    (
                        "rcache_inserted_sectors".into(),
                        Json::Num(self.cache.rcache_inserted_sectors as f64),
                    ),
                    (
                        "rcache_evicted_sectors".into(),
                        Json::Num(self.cache.rcache_evicted_sectors as f64),
                    ),
                    (
                        "rcache_hit_ratio".into(),
                        Json::Num(self.cache.rcache_hit_ratio),
                    ),
                    (
                        "wlog_used_sectors".into(),
                        Json::Num(self.cache.wlog_used_sectors as f64),
                    ),
                    (
                        "wlog_capacity_sectors".into(),
                        Json::Num(self.cache.wlog_capacity_sectors as f64),
                    ),
                ]),
            ),
            (
                "retry".into(),
                Json::Obj(vec![
                    ("attempts".into(), Json::Num(self.retry.attempts as f64)),
                    ("retries".into(), Json::Num(self.retry.retries as f64)),
                    ("give_ups".into(), Json::Num(self.retry.give_ups as f64)),
                    ("backoff_ns".into(), Json::Num(self.retry.backoff_ns as f64)),
                ]),
            ),
            (
                "derived".into(),
                Json::Obj(vec![
                    (
                        "write_amplification".into(),
                        Json::Num(self.derived.write_amplification),
                    ),
                    (
                        "backend_objects".into(),
                        Json::Num(self.derived.backend_objects as f64),
                    ),
                    (
                        "backend_objects_per_sec".into(),
                        Json::Num(self.derived.backend_objects_per_sec),
                    ),
                    (
                        "gc_dead_space_ratio".into(),
                        Json::Num(self.derived.gc_dead_space_ratio),
                    ),
                    (
                        "checkpoints".into(),
                        Json::Num(self.derived.checkpoints as f64),
                    ),
                ]),
            ),
            (
                "space".into(),
                Json::Obj(vec![
                    ("live_bytes".into(), Json::Num(self.space.live_bytes as f64)),
                    ("dead_bytes".into(), Json::Num(self.space.dead_bytes as f64)),
                    (
                        "cleaning_write_amp".into(),
                        Json::Num(self.space.cleaning_write_amp),
                    ),
                    ("gc_passes".into(), Json::Num(self.space.gc_passes as f64)),
                    (
                        "gc_pass_active".into(),
                        Json::Bool(self.space.gc_pass_active),
                    ),
                    (
                        "gc_step_budget_bytes".into(),
                        Json::Num(self.space.gc_step_budget_bytes as f64),
                    ),
                    (
                        "gc_victims_remaining".into(),
                        Json::Num(self.space.gc_victims_remaining as f64),
                    ),
                    (
                        "gc_relocated_bytes".into(),
                        Json::Num(self.space.gc_relocated_bytes as f64),
                    ),
                    (
                        "gc_freed_bytes".into(),
                        Json::Num(self.space.gc_freed_bytes as f64),
                    ),
                    (
                        "deferred_deletes".into(),
                        Json::Num(self.space.deferred_deletes as f64),
                    ),
                ]),
            ),
            (
                "data_plane".into(),
                Json::Obj(vec![
                    (
                        "payload_crc_bytes".into(),
                        Json::Num(self.data_plane.payload_crc_bytes as f64),
                    ),
                    (
                        "crc_recomputed_bytes".into(),
                        Json::Num(self.data_plane.crc_recomputed_bytes as f64),
                    ),
                    (
                        "crc_combine_ops".into(),
                        Json::Num(self.data_plane.crc_combine_ops as f64),
                    ),
                    (
                        "copied_bytes".into(),
                        Json::Num(self.data_plane.copied_bytes as f64),
                    ),
                    (
                        "get_verified_bytes".into(),
                        Json::Num(self.data_plane.get_verified_bytes as f64),
                    ),
                    ("hw_crc".into(), Json::Bool(self.data_plane.hw_crc)),
                ]),
            ),
            (
                "read_plane".into(),
                Json::Obj(vec![
                    ("reads".into(), Json::Num(self.read_plane.reads as f64)),
                    (
                        "hit_reads".into(),
                        Json::Num(self.read_plane.hit_reads as f64),
                    ),
                    (
                        "miss_reads".into(),
                        Json::Num(self.read_plane.miss_reads as f64),
                    ),
                    (
                        "admitted_sectors".into(),
                        Json::Num(self.read_plane.admitted_sectors as f64),
                    ),
                    (
                        "bypassed_sectors".into(),
                        Json::Num(self.read_plane.bypassed_sectors as f64),
                    ),
                    (
                        "quota_bypassed_sectors".into(),
                        Json::Num(self.read_plane.quota_bypassed_sectors as f64),
                    ),
                    (
                        "singleflight_waits".into(),
                        Json::Num(self.read_plane.singleflight_waits as f64),
                    ),
                    (
                        "singleflight_shared".into(),
                        Json::Num(self.read_plane.singleflight_shared as f64),
                    ),
                    (
                        "shared_lock_acqs".into(),
                        Json::Num(self.read_plane.shared_lock_acqs as f64),
                    ),
                    (
                        "excl_lock_acqs".into(),
                        Json::Num(self.read_plane.excl_lock_acqs as f64),
                    ),
                    (
                        "shared_lock_wait".into(),
                        lat_json(&self.read_plane.shared_lock_wait),
                    ),
                    (
                        "excl_lock_wait".into(),
                        lat_json(&self.read_plane.excl_lock_wait),
                    ),
                    (
                        "concurrent_readers".into(),
                        Json::Num(self.read_plane.concurrent_readers as f64),
                    ),
                    (
                        "peak_concurrent_readers".into(),
                        Json::Num(self.read_plane.peak_concurrent_readers as f64),
                    ),
                ]),
            ),
            ("serving".into(), serving_json(&self.serving)),
            (
                "trace".into(),
                Json::Obj(vec![
                    ("events".into(), Json::Num(self.trace.events as f64)),
                    ("dropped".into(), Json::Num(self.trace.dropped as f64)),
                    ("capacity".into(), Json::Num(self.trace.capacity as f64)),
                ]),
            ),
            (
                "spans".into(),
                Json::Obj(vec![
                    ("recorded".into(), Json::Num(self.spans.recorded as f64)),
                    ("dropped".into(), Json::Num(self.spans.dropped as f64)),
                    ("capacity".into(), Json::Num(self.spans.capacity as f64)),
                    ("requests".into(), Json::Num(self.spans.requests as f64)),
                    ("enabled".into(), Json::Bool(self.spans.enabled)),
                ]),
            ),
            (
                "tenants".into(),
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("export".into(), Json::Str(t.export.clone())),
                                ("serving".into(), serving_json(&t.serving)),
                                (
                                    "cache_quota_bytes".into(),
                                    Json::Num(t.cache_quota_bytes as f64),
                                ),
                                (
                                    "cache_resident_bytes".into(),
                                    Json::Num(t.cache_resident_bytes as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a snapshot from JSON text; rejects unknown schemas.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let j = Json::parse(text)?;
        match j.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            other => return Err(format!("unknown snapshot schema {other:?}")),
        }
        let ops = j.get("ops");
        let be = j.get("backend");
        let wb = j.get("writeback");
        let cache = j.get("cache");
        let retry = j.get("retry");
        let derived = j.get("derived");
        let space = j.get("space");
        let dp = j.get("data_plane");
        let rp = j.get("read_plane");
        let serving = j.get("serving");
        let trace = j.get("trace");
        let spans = j.get("spans");
        fn sub<'a>(parent: Option<&'a Json>, key: &str) -> Option<&'a Json> {
            parent.and_then(|p| p.get(key))
        }
        Ok(TelemetrySnapshot {
            elapsed_secs: num_f64(&j, "elapsed_secs"),
            ops: ClientOps {
                read: lat_from(sub(ops, "read")),
                write: lat_from(sub(ops, "write")),
                flush: lat_from(sub(ops, "flush")),
            },
            backend: BackendOps {
                put: lat_from(sub(be, "put")),
                get: lat_from(sub(be, "get")),
                head: lat_from(sub(be, "head")),
                list: lat_from(sub(be, "list")),
                delete: lat_from(sub(be, "delete")),
                put_bytes: be.map_or(0, |b| num_u64(b, "put_bytes")),
                get_bytes: be.map_or(0, |b| num_u64(b, "get_bytes")),
                errors: be.map_or(0, |b| num_u64(b, "errors")),
                transient_errors: be.map_or(0, |b| num_u64(b, "transient_errors")),
            },
            writeback: WritebackTelemetry {
                put_service: lat_from(sub(wb, "put_service")),
                put_queue_wait: lat_from(sub(wb, "put_queue_wait")),
                queued: wb.map_or(0, |w| num_u64(w, "queued")),
                inflight: wb.map_or(0, |w| num_u64(w, "inflight")),
                landed_gapped: wb.map_or(0, |w| num_u64(w, "landed_gapped")),
                window: wb.map_or(0, |w| num_u64(w, "window")),
                occupancy: wb.map_or(0.0, |w| num_f64(w, "occupancy")),
                sealed_seq: wb.map_or(0, |w| num_u64(w, "sealed_seq")),
                durable_frontier: wb.map_or(0, |w| num_u64(w, "durable_frontier")),
                frontier_lag: wb.map_or(0, |w| num_u64(w, "frontier_lag")),
                degraded: wb.is_some_and(|w| flag(w, "degraded")),
                put_transient_failures: wb.map_or(0, |w| num_u64(w, "put_transient_failures")),
                backpressure_rejections: wb.map_or(0, |w| num_u64(w, "backpressure_rejections")),
            },
            cache: CacheTelemetry {
                hdr_hits: cache.map_or(0, |c| num_u64(c, "hdr_hits")),
                hdr_misses: cache.map_or(0, |c| num_u64(c, "hdr_misses")),
                hdr_evictions: cache.map_or(0, |c| num_u64(c, "hdr_evictions")),
                rcache_hit_sectors: cache.map_or(0, |c| num_u64(c, "rcache_hit_sectors")),
                rcache_miss_sectors: cache.map_or(0, |c| num_u64(c, "rcache_miss_sectors")),
                rcache_inserted_sectors: cache.map_or(0, |c| num_u64(c, "rcache_inserted_sectors")),
                rcache_evicted_sectors: cache.map_or(0, |c| num_u64(c, "rcache_evicted_sectors")),
                rcache_hit_ratio: cache.map_or(0.0, |c| num_f64(c, "rcache_hit_ratio")),
                wlog_used_sectors: cache.map_or(0, |c| num_u64(c, "wlog_used_sectors")),
                wlog_capacity_sectors: cache.map_or(0, |c| num_u64(c, "wlog_capacity_sectors")),
            },
            retry: RetryTelemetry {
                attempts: retry.map_or(0, |r| num_u64(r, "attempts")),
                retries: retry.map_or(0, |r| num_u64(r, "retries")),
                give_ups: retry.map_or(0, |r| num_u64(r, "give_ups")),
                backoff_ns: retry.map_or(0, |r| num_u64(r, "backoff_ns")),
            },
            derived: DerivedTelemetry {
                write_amplification: derived.map_or(0.0, |d| num_f64(d, "write_amplification")),
                backend_objects: derived.map_or(0, |d| num_u64(d, "backend_objects")),
                backend_objects_per_sec: derived
                    .map_or(0.0, |d| num_f64(d, "backend_objects_per_sec")),
                gc_dead_space_ratio: derived.map_or(0.0, |d| num_f64(d, "gc_dead_space_ratio")),
                checkpoints: derived.map_or(0, |d| num_u64(d, "checkpoints")),
            },
            space: SpaceTelemetry {
                live_bytes: space.map_or(0, |s| num_u64(s, "live_bytes")),
                dead_bytes: space.map_or(0, |s| num_u64(s, "dead_bytes")),
                cleaning_write_amp: space.map_or(0.0, |s| num_f64(s, "cleaning_write_amp")),
                gc_passes: space.map_or(0, |s| num_u64(s, "gc_passes")),
                gc_pass_active: space.is_some_and(|s| flag(s, "gc_pass_active")),
                gc_step_budget_bytes: space.map_or(0, |s| num_u64(s, "gc_step_budget_bytes")),
                gc_victims_remaining: space.map_or(0, |s| num_u64(s, "gc_victims_remaining")),
                gc_relocated_bytes: space.map_or(0, |s| num_u64(s, "gc_relocated_bytes")),
                gc_freed_bytes: space.map_or(0, |s| num_u64(s, "gc_freed_bytes")),
                deferred_deletes: space.map_or(0, |s| num_u64(s, "deferred_deletes")),
            },
            data_plane: DataPlaneTelemetry {
                payload_crc_bytes: dp.map_or(0, |d| num_u64(d, "payload_crc_bytes")),
                crc_recomputed_bytes: dp.map_or(0, |d| num_u64(d, "crc_recomputed_bytes")),
                crc_combine_ops: dp.map_or(0, |d| num_u64(d, "crc_combine_ops")),
                copied_bytes: dp.map_or(0, |d| num_u64(d, "copied_bytes")),
                get_verified_bytes: dp.map_or(0, |d| num_u64(d, "get_verified_bytes")),
                hw_crc: dp.is_some_and(|d| flag(d, "hw_crc")),
            },
            read_plane: ReadPlaneTelemetry {
                reads: rp.map_or(0, |r| num_u64(r, "reads")),
                hit_reads: rp.map_or(0, |r| num_u64(r, "hit_reads")),
                miss_reads: rp.map_or(0, |r| num_u64(r, "miss_reads")),
                admitted_sectors: rp.map_or(0, |r| num_u64(r, "admitted_sectors")),
                bypassed_sectors: rp.map_or(0, |r| num_u64(r, "bypassed_sectors")),
                quota_bypassed_sectors: rp.map_or(0, |r| num_u64(r, "quota_bypassed_sectors")),
                singleflight_waits: rp.map_or(0, |r| num_u64(r, "singleflight_waits")),
                singleflight_shared: rp.map_or(0, |r| num_u64(r, "singleflight_shared")),
                shared_lock_acqs: rp.map_or(0, |r| num_u64(r, "shared_lock_acqs")),
                excl_lock_acqs: rp.map_or(0, |r| num_u64(r, "excl_lock_acqs")),
                shared_lock_wait: lat_from(sub(rp, "shared_lock_wait")),
                excl_lock_wait: lat_from(sub(rp, "excl_lock_wait")),
                concurrent_readers: rp.map_or(0, |r| num_u64(r, "concurrent_readers")),
                peak_concurrent_readers: rp.map_or(0, |r| num_u64(r, "peak_concurrent_readers")),
            },
            serving: serving_from(serving),
            trace: TraceTelemetry {
                events: trace.map_or(0, |t| num_u64(t, "events")),
                dropped: trace.map_or(0, |t| num_u64(t, "dropped")),
                capacity: trace.map_or(0, |t| num_u64(t, "capacity")),
            },
            spans: SpanTelemetry {
                recorded: spans.map_or(0, |s| num_u64(s, "recorded")),
                dropped: spans.map_or(0, |s| num_u64(s, "dropped")),
                capacity: spans.map_or(0, |s| num_u64(s, "capacity")),
                requests: spans.map_or(0, |s| num_u64(s, "requests")),
                enabled: spans.is_some_and(|s| flag(s, "enabled")),
            },
            tenants: j
                .get("tenants")
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .map(|t| TenantTelemetry {
                            export: t
                                .get("export")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string(),
                            serving: serving_from(t.get("serving")),
                            cache_quota_bytes: num_u64(t, "cache_quota_bytes"),
                            cache_resident_bytes: num_u64(t, "cache_resident_bytes"),
                        })
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Folds `other` into `self` for fleet-level aggregation: counters
    /// and byte totals sum, gauges sum (they are per-volume occupancies),
    /// booleans OR, latency sketches merge approximately (count-weighted
    /// mean and percentiles, max of maxes — see [`lat_absorb`]'s caveat),
    /// and ratio-like derived values are recomputed where possible or
    /// count-weighted otherwise. `tenants` lists concatenate. The result
    /// is a node-wide view; per-volume precision lives in `tenants`.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        let s = self;
        let o = other;
        s.elapsed_secs = s.elapsed_secs.max(o.elapsed_secs);
        for (a, b) in [
            (&mut s.ops.read, &o.ops.read),
            (&mut s.ops.write, &o.ops.write),
            (&mut s.ops.flush, &o.ops.flush),
            (&mut s.backend.put, &o.backend.put),
            (&mut s.backend.get, &o.backend.get),
            (&mut s.backend.head, &o.backend.head),
            (&mut s.backend.list, &o.backend.list),
            (&mut s.backend.delete, &o.backend.delete),
            (&mut s.writeback.put_service, &o.writeback.put_service),
            (&mut s.writeback.put_queue_wait, &o.writeback.put_queue_wait),
            (
                &mut s.read_plane.shared_lock_wait,
                &o.read_plane.shared_lock_wait,
            ),
            (
                &mut s.read_plane.excl_lock_wait,
                &o.read_plane.excl_lock_wait,
            ),
            (&mut s.serving.socket_wait, &o.serving.socket_wait),
            (&mut s.serving.queue_wait, &o.serving.queue_wait),
            (&mut s.serving.service, &o.serving.service),
        ] {
            *a = lat_absorb(a, b);
        }
        s.backend.put_bytes += o.backend.put_bytes;
        s.backend.get_bytes += o.backend.get_bytes;
        s.backend.errors += o.backend.errors;
        s.backend.transient_errors += o.backend.transient_errors;
        s.writeback.queued += o.writeback.queued;
        s.writeback.inflight += o.writeback.inflight;
        s.writeback.landed_gapped += o.writeback.landed_gapped;
        s.writeback.window += o.writeback.window;
        s.writeback.occupancy = if s.writeback.window > 0 {
            s.writeback.inflight as f64 / s.writeback.window as f64
        } else {
            0.0
        };
        s.writeback.sealed_seq = s.writeback.sealed_seq.max(o.writeback.sealed_seq);
        s.writeback.durable_frontier = s
            .writeback
            .durable_frontier
            .max(o.writeback.durable_frontier);
        s.writeback.frontier_lag += o.writeback.frontier_lag;
        s.writeback.degraded |= o.writeback.degraded;
        s.writeback.put_transient_failures += o.writeback.put_transient_failures;
        s.writeback.backpressure_rejections += o.writeback.backpressure_rejections;
        s.cache.hdr_hits += o.cache.hdr_hits;
        s.cache.hdr_misses += o.cache.hdr_misses;
        s.cache.hdr_evictions += o.cache.hdr_evictions;
        s.cache.rcache_hit_sectors += o.cache.rcache_hit_sectors;
        s.cache.rcache_miss_sectors += o.cache.rcache_miss_sectors;
        s.cache.rcache_inserted_sectors += o.cache.rcache_inserted_sectors;
        s.cache.rcache_evicted_sectors += o.cache.rcache_evicted_sectors;
        let rc_total = s.cache.rcache_hit_sectors + s.cache.rcache_miss_sectors;
        s.cache.rcache_hit_ratio = if rc_total > 0 {
            s.cache.rcache_hit_sectors as f64 / rc_total as f64
        } else {
            0.0
        };
        s.cache.wlog_used_sectors += o.cache.wlog_used_sectors;
        s.cache.wlog_capacity_sectors += o.cache.wlog_capacity_sectors;
        s.retry.attempts += o.retry.attempts;
        s.retry.retries += o.retry.retries;
        s.retry.give_ups += o.retry.give_ups;
        s.retry.backoff_ns += o.retry.backoff_ns;
        // Weight write amplification by each side's backend PUT bytes (the
        // numerator of the ratio) — exact when both sides report bytes.
        let (wa_a, wa_b) = (
            s.backend.put_bytes - o.backend.put_bytes,
            o.backend.put_bytes,
        );
        let wa_n = wa_a + wa_b;
        if wa_n > 0 {
            s.derived.write_amplification = (s.derived.write_amplification * wa_a as f64
                + o.derived.write_amplification * wa_b as f64)
                / wa_n as f64;
        }
        s.derived.backend_objects += o.derived.backend_objects;
        s.derived.backend_objects_per_sec += o.derived.backend_objects_per_sec;
        let dead_total = s.space.dead_bytes + o.space.dead_bytes;
        let live_total = s.space.live_bytes + o.space.live_bytes;
        s.derived.gc_dead_space_ratio = if dead_total + live_total > 0 {
            dead_total as f64 / (dead_total + live_total) as f64
        } else {
            0.0
        };
        s.derived.checkpoints += o.derived.checkpoints;
        s.space.live_bytes += o.space.live_bytes;
        s.space.dead_bytes += o.space.dead_bytes;
        let freed_total = s.space.gc_freed_bytes + o.space.gc_freed_bytes;
        s.space.gc_relocated_bytes += o.space.gc_relocated_bytes;
        s.space.gc_freed_bytes = freed_total;
        s.space.cleaning_write_amp = if freed_total > 0 {
            s.space.gc_relocated_bytes as f64 / freed_total as f64
        } else {
            0.0
        };
        s.space.gc_passes += o.space.gc_passes;
        s.space.gc_pass_active |= o.space.gc_pass_active;
        s.space.gc_step_budget_bytes = s
            .space
            .gc_step_budget_bytes
            .max(o.space.gc_step_budget_bytes);
        s.space.gc_victims_remaining += o.space.gc_victims_remaining;
        s.space.deferred_deletes += o.space.deferred_deletes;
        s.data_plane.payload_crc_bytes += o.data_plane.payload_crc_bytes;
        s.data_plane.crc_recomputed_bytes += o.data_plane.crc_recomputed_bytes;
        s.data_plane.crc_combine_ops += o.data_plane.crc_combine_ops;
        s.data_plane.copied_bytes += o.data_plane.copied_bytes;
        s.data_plane.get_verified_bytes += o.data_plane.get_verified_bytes;
        s.data_plane.hw_crc |= o.data_plane.hw_crc;
        s.read_plane.reads += o.read_plane.reads;
        s.read_plane.hit_reads += o.read_plane.hit_reads;
        s.read_plane.miss_reads += o.read_plane.miss_reads;
        s.read_plane.admitted_sectors += o.read_plane.admitted_sectors;
        s.read_plane.bypassed_sectors += o.read_plane.bypassed_sectors;
        s.read_plane.quota_bypassed_sectors += o.read_plane.quota_bypassed_sectors;
        s.read_plane.singleflight_waits += o.read_plane.singleflight_waits;
        s.read_plane.singleflight_shared += o.read_plane.singleflight_shared;
        s.read_plane.shared_lock_acqs += o.read_plane.shared_lock_acqs;
        s.read_plane.excl_lock_acqs += o.read_plane.excl_lock_acqs;
        s.read_plane.concurrent_readers += o.read_plane.concurrent_readers;
        s.read_plane.peak_concurrent_readers += o.read_plane.peak_concurrent_readers;
        s.serving.conns_open += o.serving.conns_open;
        s.serving.conns_total += o.serving.conns_total;
        s.serving.reads += o.serving.reads;
        s.serving.writes += o.serving.writes;
        s.serving.flushes += o.serving.flushes;
        s.serving.trims += o.serving.trims;
        s.serving.errors += o.serving.errors;
        s.serving.bytes_read += o.serving.bytes_read;
        s.serving.bytes_written += o.serving.bytes_written;
        s.serving.throttle_waits += o.serving.throttle_waits;
        s.trace.events += o.trace.events;
        s.trace.dropped += o.trace.dropped;
        s.trace.capacity += o.trace.capacity;
        s.spans.recorded += o.spans.recorded;
        s.spans.dropped += o.spans.dropped;
        s.spans.capacity += o.spans.capacity;
        s.spans.requests += o.spans.requests;
        s.spans.enabled |= o.spans.enabled;
        s.tenants.extend(o.tenants.iter().cloned());
    }

    /// Renders Prometheus text exposition. Every metric carries `# HELP`
    /// and `# TYPE` lines; counters are suffixed `_total` (except the
    /// `_count` series of latency families, which follow the
    /// histogram/summary `_count` convention) and gauges keep plain
    /// names.
    pub fn to_prometheus(&self) -> String {
        let mut w = Prom::default();
        w.gauge(
            "lsvd_elapsed_secs",
            "Wall-clock seconds since the volume's telemetry started.",
            self.elapsed_secs,
        );
        w.lat("lsvd_op_read", "Client read latency", &self.ops.read);
        w.lat("lsvd_op_write", "Client write latency", &self.ops.write);
        w.lat("lsvd_op_flush", "Client flush latency", &self.ops.flush);
        w.lat("lsvd_backend_put", "Backend PUT latency", &self.backend.put);
        w.lat("lsvd_backend_get", "Backend GET latency", &self.backend.get);
        w.lat(
            "lsvd_backend_head",
            "Backend HEAD latency",
            &self.backend.head,
        );
        w.lat(
            "lsvd_backend_list",
            "Backend LIST latency",
            &self.backend.list,
        );
        w.lat(
            "lsvd_backend_delete",
            "Backend DELETE latency",
            &self.backend.delete,
        );
        w.counter(
            "lsvd_backend_put_bytes_total",
            "Bytes uploaded by backend PUTs.",
            self.backend.put_bytes as f64,
        );
        w.counter(
            "lsvd_backend_get_bytes_total",
            "Bytes downloaded by backend GETs.",
            self.backend.get_bytes as f64,
        );
        w.counter(
            "lsvd_backend_errors_total",
            "Backend ops that returned an error.",
            self.backend.errors as f64,
        );
        w.counter(
            "lsvd_backend_transient_errors_total",
            "Backend errors classified transient (retryable).",
            self.backend.transient_errors as f64,
        );
        w.lat(
            "lsvd_wb_put_service",
            "Writeback PUT service time",
            &self.writeback.put_service,
        );
        w.lat(
            "lsvd_wb_put_queue_wait",
            "Writeback PUT queue wait",
            &self.writeback.put_queue_wait,
        );
        w.gauge(
            "lsvd_wb_queued",
            "Sealed batches waiting to enter the in-flight window.",
            self.writeback.queued as f64,
        );
        w.gauge(
            "lsvd_wb_inflight",
            "Backend PUTs currently in flight.",
            self.writeback.inflight as f64,
        );
        w.gauge(
            "lsvd_wb_landed_gapped",
            "Batches landed out of order, awaiting the durable frontier.",
            self.writeback.landed_gapped as f64,
        );
        w.gauge(
            "lsvd_wb_window",
            "In-flight PUT window (1 = inline writeback on the caller).",
            self.writeback.window as f64,
        );
        w.gauge(
            "lsvd_wb_occupancy",
            "In-flight PUTs as a fraction of the window.",
            self.writeback.occupancy,
        );
        w.gauge(
            "lsvd_wb_sealed_seq",
            "Highest object sequence sealed so far.",
            self.writeback.sealed_seq as f64,
        );
        w.gauge(
            "lsvd_wb_durable_frontier",
            "Durable frontier: all objects at or below this are durable.",
            self.writeback.durable_frontier as f64,
        );
        w.gauge(
            "lsvd_wb_frontier_lag",
            "Sealed batches not yet covered by the durable frontier.",
            self.writeback.frontier_lag as f64,
        );
        w.gauge(
            "lsvd_wb_degraded",
            "1 while the volume is in degraded (backpressure) mode.",
            if self.writeback.degraded { 1.0 } else { 0.0 },
        );
        w.counter(
            "lsvd_wb_put_transient_failures_total",
            "Transient PUT failures requeued by the pipeline.",
            self.writeback.put_transient_failures as f64,
        );
        w.counter(
            "lsvd_wb_backpressure_rejections_total",
            "Writes rejected with Backpressure while degraded.",
            self.writeback.backpressure_rejections as f64,
        );
        w.counter(
            "lsvd_cache_hdr_hits_total",
            "Backend object-header cache hits.",
            self.cache.hdr_hits as f64,
        );
        w.counter(
            "lsvd_cache_hdr_misses_total",
            "Backend object-header cache misses.",
            self.cache.hdr_misses as f64,
        );
        w.counter(
            "lsvd_cache_hdr_evictions_total",
            "Backend object-header cache evictions.",
            self.cache.hdr_evictions as f64,
        );
        w.counter(
            "lsvd_rcache_hit_sectors_total",
            "Read-cache sector hits.",
            self.cache.rcache_hit_sectors as f64,
        );
        w.counter(
            "lsvd_rcache_miss_sectors_total",
            "Read-cache sector misses.",
            self.cache.rcache_miss_sectors as f64,
        );
        w.counter(
            "lsvd_rcache_inserted_sectors_total",
            "Sectors inserted into the read cache.",
            self.cache.rcache_inserted_sectors as f64,
        );
        w.counter(
            "lsvd_rcache_evicted_sectors_total",
            "Sectors evicted from the read cache.",
            self.cache.rcache_evicted_sectors as f64,
        );
        w.gauge(
            "lsvd_rcache_hit_ratio",
            "Read-cache sector hit ratio.",
            self.cache.rcache_hit_ratio,
        );
        w.gauge(
            "lsvd_wlog_used_sectors",
            "Write-log sectors currently occupied.",
            self.cache.wlog_used_sectors as f64,
        );
        w.gauge(
            "lsvd_wlog_capacity_sectors",
            "Write-log capacity in sectors.",
            self.cache.wlog_capacity_sectors as f64,
        );
        w.counter(
            "lsvd_retry_attempts_total",
            "Backend op attempts (first tries plus retries).",
            self.retry.attempts as f64,
        );
        w.counter(
            "lsvd_retry_retries_total",
            "Retries after a transient backend failure.",
            self.retry.retries as f64,
        );
        w.counter(
            "lsvd_retry_give_ups_total",
            "Ops abandoned after exhausting the retry budget.",
            self.retry.give_ups as f64,
        );
        w.counter(
            "lsvd_retry_backoff_ns_total",
            "Total retry backoff applied, nanoseconds.",
            self.retry.backoff_ns as f64,
        );
        w.gauge(
            "lsvd_write_amplification",
            "Backend bytes written over client bytes written.",
            self.derived.write_amplification,
        );
        w.counter(
            "lsvd_backend_objects_total",
            "Backend objects written (batches plus GC rewrites).",
            self.derived.backend_objects as f64,
        );
        w.gauge(
            "lsvd_backend_objects_per_sec",
            "Backend objects written per wall-clock second.",
            self.derived.backend_objects_per_sec,
        );
        w.gauge(
            "lsvd_gc_dead_space_ratio",
            "Dead bytes over total bytes across live backend objects.",
            self.derived.gc_dead_space_ratio,
        );
        w.counter(
            "lsvd_checkpoints_total",
            "Checkpoints written.",
            self.derived.checkpoints as f64,
        );
        w.gauge(
            "lsvd_space_live_bytes",
            "Live bytes across backend data objects.",
            self.space.live_bytes as f64,
        );
        w.gauge(
            "lsvd_space_dead_bytes",
            "Dead bytes across backend data objects (unreclaimed).",
            self.space.dead_bytes as f64,
        );
        w.gauge(
            "lsvd_space_cleaning_write_amp",
            "GC bytes relocated per byte freed.",
            self.space.cleaning_write_amp,
        );
        w.counter(
            "lsvd_gc_passes_total",
            "Cleaning passes completed.",
            self.space.gc_passes as f64,
        );
        w.gauge(
            "lsvd_gc_pass_active",
            "1 while an incremental cleaning pass is in progress.",
            if self.space.gc_pass_active { 1.0 } else { 0.0 },
        );
        w.gauge(
            "lsvd_gc_step_budget_bytes",
            "Per-step relocation budget (0 = unbudgeted).",
            self.space.gc_step_budget_bytes as f64,
        );
        w.gauge(
            "lsvd_gc_victims_remaining",
            "Victims and compaction runs the active pass has left.",
            self.space.gc_victims_remaining as f64,
        );
        w.counter(
            "lsvd_gc_relocated_bytes_total",
            "Bytes relocated by GC carriers.",
            self.space.gc_relocated_bytes as f64,
        );
        w.counter(
            "lsvd_gc_freed_bytes_total",
            "Bytes freed by retiring GC victims.",
            self.space.gc_freed_bytes as f64,
        );
        w.gauge(
            "lsvd_gc_deferred_deletes",
            "Retired objects awaiting a covering checkpoint to DELETE.",
            self.space.deferred_deletes as f64,
        );
        w.counter(
            "lsvd_dp_payload_crc_bytes_total",
            "Payload bytes checksummed on the hot write path.",
            self.data_plane.payload_crc_bytes as f64,
        );
        w.counter(
            "lsvd_dp_crc_recomputed_bytes_total",
            "Payload bytes re-checksummed at seal (partial flanks).",
            self.data_plane.crc_recomputed_bytes as f64,
        );
        w.counter(
            "lsvd_dp_crc_combine_ops_total",
            "O(1) crc32c_combine folds that replaced full re-scans.",
            self.data_plane.crc_combine_ops as f64,
        );
        w.counter(
            "lsvd_dp_copied_bytes_total",
            "Payload bytes memcpy'd on the write path.",
            self.data_plane.copied_bytes as f64,
        );
        w.counter(
            "lsvd_dp_get_verified_bytes_total",
            "Backend GET payload bytes verified against extent CRCs.",
            self.data_plane.get_verified_bytes as f64,
        );
        w.gauge(
            "lsvd_dp_hw_crc",
            "1 when the hardware (SSE4.2) CRC32C kernel is active.",
            if self.data_plane.hw_crc { 1.0 } else { 0.0 },
        );
        w.counter(
            "lsvd_rp_reads_total",
            "Reads served by the read plane.",
            self.read_plane.reads as f64,
        );
        w.counter(
            "lsvd_rp_hit_reads_total",
            "Reads served entirely from local state.",
            self.read_plane.hit_reads as f64,
        );
        w.counter(
            "lsvd_rp_miss_reads_total",
            "Reads that needed at least one backend fetch.",
            self.read_plane.miss_reads as f64,
        );
        w.counter(
            "lsvd_rp_admitted_sectors_total",
            "Sectors admitted into the read cache by miss fetches.",
            self.read_plane.admitted_sectors as f64,
        );
        w.counter(
            "lsvd_rp_bypassed_sectors_total",
            "Sectors a detected sequential scan kept out of the cache.",
            self.read_plane.bypassed_sectors as f64,
        );
        w.counter(
            "lsvd_rp_singleflight_waits_total",
            "Fetches that parked on another reader's in-flight GET.",
            self.read_plane.singleflight_waits as f64,
        );
        w.counter(
            "lsvd_rp_singleflight_shared_total",
            "Parked fetches fully served from the leader's window.",
            self.read_plane.singleflight_shared as f64,
        );
        w.counter(
            "lsvd_rp_shared_lock_acqs_total",
            "Shared-lock acquisitions (concurrent hit path).",
            self.read_plane.shared_lock_acqs as f64,
        );
        w.counter(
            "lsvd_rp_excl_lock_acqs_total",
            "Exclusive-lock acquisitions (mutations and miss inserts).",
            self.read_plane.excl_lock_acqs as f64,
        );
        w.lat(
            "lsvd_rp_shared_lock_wait",
            "Shared-lock wait",
            &self.read_plane.shared_lock_wait,
        );
        w.lat(
            "lsvd_rp_excl_lock_wait",
            "Exclusive-lock wait",
            &self.read_plane.excl_lock_wait,
        );
        w.gauge(
            "lsvd_rp_concurrent_readers",
            "Readers inside the read plane at snapshot time.",
            self.read_plane.concurrent_readers as f64,
        );
        w.gauge(
            "lsvd_rp_peak_concurrent_readers",
            "High-water mark of concurrent readers.",
            self.read_plane.peak_concurrent_readers as f64,
        );
        w.lat(
            "lsvd_serving_socket_wait",
            "NBD socket read/write time",
            &self.serving.socket_wait,
        );
        w.lat(
            "lsvd_serving_queue_wait",
            "NBD scheduler queue wait",
            &self.serving.queue_wait,
        );
        w.lat(
            "lsvd_serving_service",
            "NBD in-volume service time",
            &self.serving.service,
        );
        w.gauge(
            "lsvd_serving_conns_open",
            "NBD connections currently open.",
            self.serving.conns_open as f64,
        );
        w.counter(
            "lsvd_serving_conns_total",
            "NBD connections ever accepted.",
            self.serving.conns_total as f64,
        );
        w.counter(
            "lsvd_serving_reads_total",
            "NBD READ requests served.",
            self.serving.reads as f64,
        );
        w.counter(
            "lsvd_serving_writes_total",
            "NBD WRITE requests served.",
            self.serving.writes as f64,
        );
        w.counter(
            "lsvd_serving_flushes_total",
            "NBD FLUSH requests served (including FUA).",
            self.serving.flushes as f64,
        );
        w.counter(
            "lsvd_serving_trims_total",
            "NBD TRIM requests served.",
            self.serving.trims as f64,
        );
        w.counter(
            "lsvd_serving_errors_total",
            "NBD requests answered with an error code.",
            self.serving.errors as f64,
        );
        w.counter(
            "lsvd_serving_bytes_read_total",
            "Bytes served to NBD READ replies.",
            self.serving.bytes_read as f64,
        );
        w.counter(
            "lsvd_serving_bytes_written_total",
            "Bytes accepted from NBD WRITE requests.",
            self.serving.bytes_written as f64,
        );
        w.counter(
            "lsvd_serving_throttle_waits_total",
            "Requests that stalled on a QoS token bucket.",
            self.serving.throttle_waits as f64,
        );
        w.counter(
            "lsvd_rp_quota_bypassed_sectors_total",
            "Sectors the tenant byte quota kept out of the read cache.",
            self.read_plane.quota_bypassed_sectors as f64,
        );
        if !self.tenants.is_empty() {
            let per = |f: fn(&TenantTelemetry) -> f64| {
                self.tenants
                    .iter()
                    .map(|t| (t.export.clone(), f(t)))
                    .collect::<Vec<_>>()
            };
            w.labeled_counter(
                "lsvd_tenant_conns_total",
                "Connections ever accepted, per export.",
                &per(|t| t.serving.conns_total as f64),
            );
            w.labeled_gauge(
                "lsvd_tenant_conns_open",
                "Connections currently open, per export.",
                &per(|t| t.serving.conns_open as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_reads_total",
                "READ requests served, per export.",
                &per(|t| t.serving.reads as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_writes_total",
                "WRITE requests served, per export.",
                &per(|t| t.serving.writes as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_flushes_total",
                "FLUSH requests served, per export.",
                &per(|t| t.serving.flushes as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_trims_total",
                "TRIM requests served, per export.",
                &per(|t| t.serving.trims as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_errors_total",
                "Requests answered with an error code, per export.",
                &per(|t| t.serving.errors as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_bytes_read_total",
                "Bytes served to READ replies, per export.",
                &per(|t| t.serving.bytes_read as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_bytes_written_total",
                "Bytes accepted from WRITE requests, per export.",
                &per(|t| t.serving.bytes_written as f64),
            );
            w.labeled_counter(
                "lsvd_tenant_throttle_waits_total",
                "QoS token-bucket stalls, per export.",
                &per(|t| t.serving.throttle_waits as f64),
            );
            w.labeled_gauge(
                "lsvd_tenant_service_p99_ns",
                "In-volume service p99 in nanoseconds, per export.",
                &per(|t| t.serving.service.p99_ns),
            );
            w.labeled_gauge(
                "lsvd_tenant_cache_quota_bytes",
                "Read-cache byte quota (0 = unlimited), per export.",
                &per(|t| t.cache_quota_bytes as f64),
            );
            w.labeled_gauge(
                "lsvd_tenant_cache_resident_bytes",
                "Bytes resident in the read-cache partition, per export.",
                &per(|t| t.cache_resident_bytes as f64),
            );
        }
        w.counter(
            "lsvd_trace_events_total",
            "Trace events ever pushed into the ring.",
            self.trace.events as f64,
        );
        w.counter(
            "lsvd_trace_dropped_total",
            "Trace events evicted from the ring on wrap.",
            self.trace.dropped as f64,
        );
        w.gauge(
            "lsvd_trace_capacity",
            "Trace ring capacity.",
            self.trace.capacity as f64,
        );
        w.counter(
            "lsvd_span_recorded_total",
            "Request-scoped spans ever recorded.",
            self.spans.recorded as f64,
        );
        w.counter(
            "lsvd_span_dropped_total",
            "Spans evicted from the span ring on wrap.",
            self.spans.dropped as f64,
        );
        w.gauge(
            "lsvd_span_capacity",
            "Span ring capacity across all shards.",
            self.spans.capacity as f64,
        );
        w.counter(
            "lsvd_span_requests_total",
            "Request ids minted (the tracing virtual clock).",
            self.spans.requests as f64,
        );
        w.gauge(
            "lsvd_span_enabled",
            "1 while span recording is enabled.",
            if self.spans.enabled { 1.0 } else { 0.0 },
        );
        w.out
    }

    /// Renders a short human-readable report (CLI / bench end-of-run).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "telemetry ({}s elapsed)", fmt1(self.elapsed_secs));
        let _ = writeln!(out, "  ops.read    {}", self.ops.read);
        let _ = writeln!(out, "  ops.write   {}", self.ops.write);
        let _ = writeln!(out, "  ops.flush   {}", self.ops.flush);
        let _ = writeln!(out, "  backend.put {}", self.backend.put);
        let _ = writeln!(out, "  backend.get {}", self.backend.get);
        let _ = writeln!(
            out,
            "  writeback   service {} | queue-wait {}",
            self.writeback.put_service, self.writeback.put_queue_wait
        );
        let _ = writeln!(
            out,
            "  pipeline    queued={} inflight={} gapped={} window={} occupancy={} frontier={} lag={} degraded={}",
            self.writeback.queued,
            self.writeback.inflight,
            self.writeback.landed_gapped,
            self.writeback.window,
            fmt1(self.writeback.occupancy),
            self.writeback.durable_frontier,
            self.writeback.frontier_lag,
            self.writeback.degraded
        );
        let _ = writeln!(
            out,
            "  cache       hdr {}h/{}m/{}e | rcache {}h/{}m sectors (ratio {}) | wlog {}/{} sectors",
            self.cache.hdr_hits,
            self.cache.hdr_misses,
            self.cache.hdr_evictions,
            self.cache.rcache_hit_sectors,
            self.cache.rcache_miss_sectors,
            fmt2(self.cache.rcache_hit_ratio),
            self.cache.wlog_used_sectors,
            self.cache.wlog_capacity_sectors
        );
        let _ = writeln!(
            out,
            "  read-plane  {}r ({}hit/{}miss) admit={} bypass={} sectors | singleflight {}w/{}s | locks {}sh/{}ex (peak {} readers)",
            self.read_plane.reads,
            self.read_plane.hit_reads,
            self.read_plane.miss_reads,
            self.read_plane.admitted_sectors,
            self.read_plane.bypassed_sectors,
            self.read_plane.singleflight_waits,
            self.read_plane.singleflight_shared,
            self.read_plane.shared_lock_acqs,
            self.read_plane.excl_lock_acqs,
            self.read_plane.peak_concurrent_readers
        );
        let _ = writeln!(
            out,
            "  retry       attempts={} retries={} give_ups={}",
            self.retry.attempts, self.retry.retries, self.retry.give_ups
        );
        let _ = writeln!(
            out,
            "  derived     WA={} objects={} obj/s={} dead-space={} checkpoints={}",
            fmt2(self.derived.write_amplification),
            self.derived.backend_objects,
            fmt1(self.derived.backend_objects_per_sec),
            fmt2(self.derived.gc_dead_space_ratio),
            self.derived.checkpoints
        );
        let _ = writeln!(
            out,
            "  space       live={}B dead={}B cleaning-WA={} passes={} active={} budget={}B remaining={} relocated={}B freed={}B deferred={}",
            self.space.live_bytes,
            self.space.dead_bytes,
            fmt2(self.space.cleaning_write_amp),
            self.space.gc_passes,
            self.space.gc_pass_active,
            self.space.gc_step_budget_bytes,
            self.space.gc_victims_remaining,
            self.space.gc_relocated_bytes,
            self.space.gc_freed_bytes,
            self.space.deferred_deletes
        );
        let _ = writeln!(
            out,
            "  data-plane  crc={}B (recomputed {}B, {} combines) copied={}B verified={}B hw={}",
            self.data_plane.payload_crc_bytes,
            self.data_plane.crc_recomputed_bytes,
            self.data_plane.crc_combine_ops,
            self.data_plane.copied_bytes,
            self.data_plane.get_verified_bytes,
            self.data_plane.hw_crc
        );
        if self.serving.conns_total > 0 {
            let _ = writeln!(
                out,
                "  serving     socket {} | queue {} | service {}",
                self.serving.socket_wait, self.serving.queue_wait, self.serving.service
            );
            let _ = writeln!(
                out,
                "              conns={}/{} reads={} writes={} flushes={} trims={} errors={} bytes={}r/{}w throttled={}",
                self.serving.conns_open,
                self.serving.conns_total,
                self.serving.reads,
                self.serving.writes,
                self.serving.flushes,
                self.serving.trims,
                self.serving.errors,
                self.serving.bytes_read,
                self.serving.bytes_written,
                self.serving.throttle_waits
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "  tenant {:12} conns={}/{} r={} w={} fl={} tr={} err={} bytes={}r/{}w throttled={} cache={}B/{}B quota",
                t.export,
                t.serving.conns_open,
                t.serving.conns_total,
                t.serving.reads,
                t.serving.writes,
                t.serving.flushes,
                t.serving.trims,
                t.serving.errors,
                t.serving.bytes_read,
                t.serving.bytes_written,
                t.serving.throttle_waits,
                t.cache_resident_bytes,
                t.cache_quota_bytes
            );
        }
        let _ = writeln!(
            out,
            "  trace       events={} dropped={} capacity={}",
            self.trace.events, self.trace.dropped, self.trace.capacity
        );
        let _ = writeln!(
            out,
            "  spans       recorded={} dropped={} capacity={} requests={} enabled={}",
            self.spans.recorded,
            self.spans.dropped,
            self.spans.capacity,
            self.spans.requests,
            self.spans.enabled
        );
        out
    }
}

fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Prometheus text-exposition emitter: pairs every sample with its
/// `# HELP`/`# TYPE` preamble and keeps the counter naming convention
/// (`_total`, or `_count` for latency-family sample counters) honest.
#[derive(Default)]
struct Prom {
    out: String,
}

impl Prom {
    fn sample(&mut self, name: &str, v: f64) {
        use std::fmt::Write as _;
        if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
            let _ = writeln!(self.out, "{name} {}", v as i64);
        } else {
            let _ = writeln!(self.out, "{name} {v}");
        }
    }

    fn gauge(&mut self, name: &str, help: &str, v: f64) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        self.sample(name, v);
    }

    fn counter(&mut self, name: &str, help: &str, v: f64) {
        use std::fmt::Write as _;
        debug_assert!(
            name.ends_with("_total") || name.ends_with("_count"),
            "counter `{name}` must end in _total or _count"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} counter");
        self.sample(name, v);
    }

    /// Escapes a label value per the Prometheus text format.
    fn escape_label(v: &str) -> String {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }

    fn labeled_samples(&mut self, name: &str, series: &[(String, f64)]) {
        for (export, v) in series {
            let esc = Self::escape_label(export);
            self.sample(&format!("{name}{{export=\"{esc}\"}}"), *v);
        }
    }

    /// A gauge family with one `export="..."`-labeled sample per tenant.
    fn labeled_gauge(&mut self, name: &str, help: &str, series: &[(String, f64)]) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        self.labeled_samples(name, series);
    }

    /// A counter family with one `export="..."`-labeled sample per tenant.
    fn labeled_counter(&mut self, name: &str, help: &str, series: &[(String, f64)]) {
        use std::fmt::Write as _;
        debug_assert!(
            name.ends_with("_total") || name.ends_with("_count"),
            "counter `{name}` must end in _total or _count"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} counter");
        self.labeled_samples(name, series);
    }

    /// A latency family: `<prefix>_count` as a counter (summary
    /// convention) plus mean/p50/p99/max gauges in nanoseconds.
    fn lat(&mut self, prefix: &str, help: &str, l: &LatencySnapshot) {
        self.counter(
            &format!("{prefix}_count"),
            &format!("{help}: samples recorded."),
            l.count as f64,
        );
        self.gauge(
            &format!("{prefix}_mean_ns"),
            &format!("{help}: mean, nanoseconds."),
            l.mean_ns,
        );
        self.gauge(
            &format!("{prefix}_p50_ns"),
            &format!("{help}: p50, nanoseconds."),
            l.p50_ns,
        );
        self.gauge(
            &format!("{prefix}_p99_ns"),
            &format!("{help}: p99, nanoseconds."),
            l.p99_ns,
        );
        self.gauge(
            &format!("{prefix}_max_ns"),
            &format!("{help}: max, nanoseconds."),
            l.max_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let lat = LatencySnapshot {
            count: 100,
            mean_ns: 1_500.5,
            p50_ns: 1_200.0,
            p99_ns: 9_001.25,
            max_ns: 12_000.0,
        };
        TelemetrySnapshot {
            elapsed_secs: 1.25,
            ops: ClientOps {
                read: lat,
                write: lat,
                flush: lat,
            },
            backend: BackendOps {
                put: lat,
                get: lat,
                head: lat,
                list: lat,
                delete: lat,
                put_bytes: 1 << 30,
                get_bytes: 12345,
                errors: 7,
                transient_errors: 5,
            },
            writeback: WritebackTelemetry {
                put_service: lat,
                put_queue_wait: lat,
                queued: 2,
                inflight: 3,
                landed_gapped: 1,
                window: 4,
                occupancy: 0.75,
                sealed_seq: 42,
                durable_frontier: 40,
                frontier_lag: 2,
                degraded: true,
                put_transient_failures: 5,
                backpressure_rejections: 9,
            },
            cache: CacheTelemetry {
                hdr_hits: 10,
                hdr_misses: 4,
                hdr_evictions: 2,
                rcache_hit_sectors: 100,
                rcache_miss_sectors: 50,
                rcache_inserted_sectors: 120,
                rcache_evicted_sectors: 20,
                rcache_hit_ratio: 0.66,
                wlog_used_sectors: 64,
                wlog_capacity_sectors: 256,
            },
            retry: RetryTelemetry {
                attempts: 20,
                retries: 6,
                give_ups: 1,
                backoff_ns: 5_000_000,
            },
            derived: DerivedTelemetry {
                write_amplification: 1.37,
                backend_objects: 55,
                backend_objects_per_sec: 44.0,
                gc_dead_space_ratio: 0.21,
                checkpoints: 3,
            },
            space: SpaceTelemetry {
                live_bytes: 3 << 20,
                dead_bytes: 1 << 20,
                cleaning_write_amp: 0.42,
                gc_passes: 6,
                gc_pass_active: true,
                gc_step_budget_bytes: 8 << 20,
                gc_victims_remaining: 5,
                gc_relocated_bytes: 2 << 20,
                gc_freed_bytes: 5 << 20,
                deferred_deletes: 4,
            },
            data_plane: DataPlaneTelemetry {
                payload_crc_bytes: 1 << 20,
                crc_recomputed_bytes: 2048,
                crc_combine_ops: 33,
                copied_bytes: 2 << 20,
                get_verified_bytes: 4096,
                hw_crc: true,
            },
            read_plane: ReadPlaneTelemetry {
                reads: 3_000,
                hit_reads: 2_800,
                miss_reads: 200,
                admitted_sectors: 1_024,
                bypassed_sectors: 4_096,
                quota_bypassed_sectors: 512,
                singleflight_waits: 17,
                singleflight_shared: 15,
                shared_lock_acqs: 3_100,
                excl_lock_acqs: 250,
                shared_lock_wait: lat,
                excl_lock_wait: lat,
                concurrent_readers: 2,
                peak_concurrent_readers: 8,
            },
            serving: ServingTelemetry {
                socket_wait: lat,
                queue_wait: lat,
                service: lat,
                conns_open: 4,
                conns_total: 6,
                reads: 2_000,
                writes: 1_500,
                flushes: 40,
                trims: 12,
                errors: 1,
                bytes_read: 8 << 20,
                bytes_written: 6 << 20,
                throttle_waits: 23,
            },
            trace: TraceTelemetry {
                events: 500,
                dropped: 12,
                capacity: 256,
            },
            spans: SpanTelemetry {
                recorded: 900,
                dropped: 3,
                capacity: 8192,
                requests: 450,
                enabled: true,
            },
            tenants: vec![
                TenantTelemetry {
                    export: "alpha".into(),
                    serving: ServingTelemetry {
                        socket_wait: lat,
                        queue_wait: lat,
                        service: lat,
                        conns_open: 3,
                        conns_total: 4,
                        reads: 1_200,
                        writes: 900,
                        flushes: 25,
                        trims: 8,
                        errors: 1,
                        bytes_read: 5 << 20,
                        bytes_written: 4 << 20,
                        throttle_waits: 20,
                    },
                    cache_quota_bytes: 16 << 20,
                    cache_resident_bytes: 9 << 20,
                },
                TenantTelemetry {
                    export: "beta\"2".into(),
                    serving: ServingTelemetry {
                        socket_wait: lat,
                        queue_wait: lat,
                        service: lat,
                        conns_open: 1,
                        conns_total: 2,
                        reads: 800,
                        writes: 600,
                        flushes: 15,
                        trims: 4,
                        errors: 0,
                        bytes_read: 3 << 20,
                        bytes_written: 2 << 20,
                        throttle_waits: 3,
                    },
                    cache_quota_bytes: 8 << 20,
                    cache_resident_bytes: 2 << 20,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json().render();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn schema_key_is_first_and_validated() {
        let text = sample().to_json().render();
        assert!(
            text.starts_with("{\"schema\":\"lsvd-telemetry-v4\""),
            "{text}"
        );
        let tampered = text.replace(SCHEMA, "lsvd-telemetry-v0");
        assert!(TelemetrySnapshot::from_json(&tampered).is_err());
    }

    #[test]
    fn default_round_trips_too() {
        let snap = TelemetrySnapshot::default();
        let text = snap.to_json().render();
        assert_eq!(TelemetrySnapshot::from_json(&text).unwrap(), snap);
    }

    #[test]
    fn prometheus_text_has_type_lines_and_values() {
        let prom = sample().to_prometheus();
        assert!(
            prom.contains("# TYPE lsvd_backend_put_p99_ns gauge"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_wb_occupancy 0.75"), "{prom}");
        assert!(prom.contains("lsvd_wb_degraded 1"), "{prom}");
        assert!(prom.contains("lsvd_write_amplification 1.37"), "{prom}");
        assert!(prom.contains("lsvd_serving_conns_open 4"), "{prom}");
        assert!(prom.contains("lsvd_rcache_hit_ratio 0.66"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_rp_singleflight_waits_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_rp_singleflight_waits_total 17"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_serving_conns_total counter"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_trace_dropped_total 12"), "{prom}");
        assert!(
            prom.contains("lsvd_space_cleaning_write_amp 0.42"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_gc_pass_active 1"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_gc_passes_total counter"),
            "{prom}"
        );
        assert!(prom.contains("lsvd_span_dropped_total 3"), "{prom}");
        assert!(
            prom.contains("# TYPE lsvd_rp_shared_lock_wait_p99_ns gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_serving_queue_wait_p99_ns gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_serving_bytes_read_total 8388608"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_rp_quota_bypassed_sectors_total 512"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE lsvd_tenant_reads_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_reads_total{export=\"alpha\"} 1200"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_cache_quota_bytes{export=\"alpha\"} 16777216"),
            "{prom}"
        );
        assert!(
            prom.contains("lsvd_tenant_conns_open{export=\"beta\\\"2\"} 1"),
            "{prom}"
        );
        for line in prom.lines() {
            assert!(
                line.starts_with("# HELP lsvd_")
                    || line.starts_with("# TYPE lsvd_")
                    || line.starts_with("lsvd_"),
                "unexpected line: {line}"
            );
        }
    }

    /// Format lint for the whole exposition: every sample line parses as
    /// `name[{labels}] value`, sits under its own `# HELP` and `# TYPE`
    /// preamble (labeled families may emit several samples per preamble),
    /// declares a known type, follows the counter naming convention, and
    /// no family appears twice.
    #[test]
    fn prometheus_exposition_is_well_formed() {
        let prom = sample().to_prometheus();
        let lines: Vec<&str> = prom.lines().collect();
        assert!(!lines.is_empty());
        let mut seen = std::collections::HashSet::new();
        let mut seen_series = std::collections::HashSet::new();
        let mut samples = 0usize;
        let mut i = 0;
        while i < lines.len() {
            let help = lines[i];
            let rest = help
                .strip_prefix("# HELP ")
                .unwrap_or_else(|| panic!("line {i} is not a HELP line: {help}"));
            let name = rest.split_whitespace().next().unwrap();
            assert!(
                rest.len() > name.len() + 1,
                "metric {name} has an empty help string"
            );
            let type_line = lines
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing TYPE after {help}"));
            let ty = type_line
                .strip_prefix(&format!("# TYPE {name} "))
                .unwrap_or_else(|| panic!("TYPE line does not match {name}: {type_line}"));
            assert!(
                ty == "counter" || ty == "gauge",
                "metric {name} has unknown type {ty}"
            );
            if ty == "counter" {
                assert!(
                    name.ends_with("_total") || name.ends_with("_count"),
                    "counter {name} is missing its _total/_count suffix"
                );
            }
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name {name}"
            );
            assert!(seen.insert(name.to_string()), "duplicate metric {name}");
            // One or more sample lines whose base name matches the family.
            let mut family_samples = 0usize;
            i += 2;
            while i < lines.len() && !lines[i].starts_with('#') {
                let sample_line = lines[i];
                let (series, value) = sample_line
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("malformed sample line: {sample_line}"));
                let base = series.split('{').next().unwrap();
                assert_eq!(base, name, "sample under the wrong preamble: {sample_line}");
                if let Some(rest) = series.strip_prefix(&format!("{name}{{")) {
                    let labels = rest
                        .strip_suffix('}')
                        .unwrap_or_else(|| panic!("unterminated label set: {series}"));
                    assert!(
                        labels.contains("=\""),
                        "labels missing key=\"value\" form: {series}"
                    );
                } else {
                    assert_eq!(series, name, "garbled series name: {series}");
                }
                assert!(
                    seen_series.insert(series.to_string()),
                    "duplicate series {series}"
                );
                let v: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("non-numeric sample for {series}: {value}"));
                assert!(v.is_finite(), "non-finite sample for {series}");
                if ty == "counter" {
                    assert!(v >= 0.0, "negative counter {series}");
                }
                family_samples += 1;
                samples += 1;
                i += 1;
            }
            assert!(family_samples >= 1, "family {name} emitted no samples");
        }
        assert!(samples > 100, "suspiciously few metrics: {samples}");
    }

    #[test]
    fn report_mentions_headline_sections() {
        let rep = sample().report();
        for needle in [
            "ops.write",
            "pipeline",
            "derived",
            "WA=1.37",
            "space",
            "cleaning-WA=0.42",
            "data-plane",
            "read-plane",
            "serving",
            "trace",
            "spans",
            "tenant alpha",
        ] {
            assert!(rep.contains(needle), "missing {needle}: {rep}");
        }
    }

    #[test]
    fn absorb_sums_counters_and_collects_tenants() {
        let a = sample();
        let mut sum = sample();
        sum.absorb(&a);
        assert_eq!(sum.serving.reads, 2 * a.serving.reads);
        assert_eq!(sum.backend.put_bytes, 2 * a.backend.put_bytes);
        assert_eq!(sum.cache.hdr_hits, 2 * a.cache.hdr_hits);
        assert_eq!(
            sum.read_plane.quota_bypassed_sectors,
            2 * a.read_plane.quota_bypassed_sectors
        );
        assert_eq!(sum.ops.read.count, 2 * a.ops.read.count);
        // Count-weighted latency merge of two identical sketches keeps
        // the mean and quantiles unchanged.
        assert!((sum.ops.read.mean_ns - a.ops.read.mean_ns).abs() < 1e-9);
        assert!((sum.ops.read.p99_ns - a.ops.read.p99_ns).abs() < 1e-9);
        assert_eq!(sum.writeback.degraded, a.writeback.degraded);
        assert_eq!(sum.tenants.len(), 2 * a.tenants.len());
        // Ratios stay ratios (not sums).
        assert!(sum.cache.rcache_hit_ratio <= 1.0);
        assert!((sum.derived.write_amplification - a.derived.write_amplification).abs() < 1e-6);
    }
}
