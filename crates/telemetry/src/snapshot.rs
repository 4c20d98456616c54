//! The aggregate telemetry snapshot and its exporters.
//!
//! [`TelemetrySnapshot`] is the single struct a volume (or bench harness)
//! hands out: every latency recorder's headline numbers, the writeback
//! pipeline gauges, cache/retry counters, and the derived paper-figure
//! observables (write amplification as in Figure 13, backend objects/s as
//! in Figure 10, GC dead-space ratio as in Figure 14). It serializes to
//! JSON ([`TelemetrySnapshot::to_json`]) and Prometheus-style text
//! ([`TelemetrySnapshot::to_prometheus`]) with no external dependencies.
//!
//! Every metric is declared once, as one row of the `metric_table!`
//! invocation below:
//!
//! ```text
//! /// Field doc comment.
//! field: type, merge, kind family "HELP text";
//! ```
//!
//! that is its field name (also its JSON key), its type (`u64`, `f64`,
//! `bool` or [`LatencySnapshot`]), its fleet merge rule (`sum`, `max`,
//! `or`, `lat`, or `ratio` for a value [`TelemetrySnapshot::absorb`]
//! recomputes), its Prometheus kind (`counter`, `gauge`, or `lat` for a
//! latency family set) and family name, and its HELP text. The macro
//! generates the section structs, [`TelemetrySnapshot`] itself, and for
//! each section its merge and its rows; the JSON encoder, the Prometheus
//! exposition and the report are loops over those rows.

use std::fmt::{self, Write as _};

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
/// read plane's `quota_bypassed_sectors`. v5 drops the read-cache quota:
/// `read_plane.quota_bypassed_sectors` and the tenants'
/// `cache_quota_bytes` are gone. v6 drops per-export QoS, and with it
/// the serving section's and the tenants' token-bucket stall counters.
pub const SCHEMA: &str = "lsvd-telemetry-v6";

/// One table row bound to its current value: what the JSON encoder, the
/// Prometheus exposition and the report read.
struct Row {
    /// Field name, also the JSON key.
    field: &'static str,
    /// Prometheus TYPE (`counter` or `gauge`), or `lat` for a latency.
    kind: &'static str,
    /// Prometheus family name (the family prefix, for a latency).
    family: &'static str,
    /// Prometheus HELP text (its stem, for a latency).
    help: &'static str,
    value: Value,
}

/// A metric's value, whichever of the four row types it has.
#[derive(Clone, Copy)]
enum Value {
    U64(u64),
    F64(f64),
    Bool(bool),
    Lat(LatencySnapshot),
}

impl Value {
    fn json(self) -> Json {
        match self {
            Value::U64(v) => Json::Num(v as f64),
            Value::F64(v) => Json::Num(v),
            Value::Bool(v) => Json::Bool(v),
            Value::Lat(l) => Json::Obj(
                lat_fields(&l)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        }
    }

    /// The Prometheus sample of a scalar (booleans as 0/1).
    fn sample(self) -> f64 {
        match self {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
            Value::Bool(v) => f64::from(u8::from(v)),
            Value::Lat(_) => unreachable!("a latency row is a family set, not a sample"),
        }
    }
}

/// The report form: latencies in their `Display` form, in parentheses.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.2}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Lat(l) => write!(f, "({l})"),
        }
    }
}

/// A latency's JSON keys with their values; the keys double as its
/// Prometheus family suffixes.
fn lat_fields(l: &LatencySnapshot) -> [(&'static str, f64); 5] {
    [
        ("count", l.count as f64),
        ("mean_ns", l.mean_ns),
        ("p50_ns", l.p50_ns),
        ("p99_ns", l.p99_ns),
        ("max_ns", l.max_ns),
    ]
}

/// The types a table row can hold.
trait Metric: Copy {
    fn value(self) -> Value;
}

impl Metric for u64 {
    fn value(self) -> Value {
        Value::U64(self)
    }
}

impl Metric for f64 {
    fn value(self) -> Value {
        Value::F64(self)
    }
}

impl Metric for bool {
    fn value(self) -> Value {
        Value::Bool(self)
    }
}

impl Metric for LatencySnapshot {
    fn value(self) -> Value {
        Value::Lat(self)
    }
}

/// The fleet merge rules a table row names: how `other`'s value folds
/// into `self`'s in [`TelemetrySnapshot::absorb`].
mod merge {
    use crate::recorder::LatencySnapshot;

    /// Counters, byte totals and per-volume gauges add up.
    pub fn sum<T: std::ops::AddAssign>(a: &mut T, b: T) {
        *a += b;
    }

    /// Positions and settings keep the larger side.
    pub fn max(a: &mut u64, b: u64) {
        *a = (*a).max(b);
    }

    /// A flag is set when either side's is.
    pub fn or(a: &mut bool, b: bool) {
        *a |= b;
    }

    /// Approximate merge of two latency sketches: the count-weighted mean
    /// is exact; p50/p99 are count-weighted means of the inputs'
    /// percentiles (an approximation — true percentiles of a union need
    /// the raw samples); max is the max of maxes.
    pub fn lat(a: &mut LatencySnapshot, b: LatencySnapshot) {
        let n = a.count + b.count;
        if n == 0 {
            *a = LatencySnapshot::default();
            return;
        }
        let (wa, wb) = (a.count as f64 / n as f64, b.count as f64 / n as f64);
        *a = LatencySnapshot {
            count: n,
            mean_ns: a.mean_ns * wa + b.mean_ns * wb,
            p50_ns: a.p50_ns * wa + b.p50_ns * wb,
            p99_ns: a.p99_ns * wa + b.p99_ns * wb,
            max_ns: a.max_ns.max(b.max_ns),
        };
    }

    /// A ratio is recomputed from the merged operands after the merge.
    pub fn ratio(_: &mut f64, _: f64) {}
}

/// Generates the section structs and [`TelemetrySnapshot`] from the
/// table: each section is `field_doc snapshot_field: struct_doc pub struct
/// Name { rows }`, each row as described in the module docs.
macro_rules! metric_table {
    ($(
        $(#[$sec_doc:meta])* $sec:ident:
        $(#[$ty_doc:meta])* pub struct $ty:ident {$(
            $(#[$doc:meta])*
            $field:ident: $fty:ident, $merge:ident, $kind:ident $family:ident $help:literal;
        )*}
    )*) => {
        $(
            $(#[$ty_doc])*
            #[derive(Debug, Clone, Copy, Default, PartialEq)]
            pub struct $ty {
                $($(#[$doc])* pub $field: $fty,)*
            }

            impl $ty {
                fn rows(&self) -> Vec<Row> {
                    vec![$(Row {
                        field: stringify!($field),
                        kind: stringify!($kind),
                        family: stringify!($family),
                        help: $help,
                        value: self.$field.value(),
                    }),*]
                }

                fn merge(&mut self, other: &Self) {
                    $(merge::$merge(&mut self.$field, other.$field);)*
                }
            }
        )*

        /// The aggregate snapshot: everything observable about a running
        /// volume (or, on a fleet node, the node-wide aggregate plus the
        /// per-tenant `tenants` breakdown).
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct TelemetrySnapshot {
            /// Wall-clock seconds since the volume's telemetry started.
            pub elapsed_secs: f64,
            $($(#[$sec_doc])* pub $sec: $ty,)*
            /// Per-tenant breakdown on a fleet node (empty for a single volume).
            pub tenants: Vec<TenantTelemetry>,
        }

        impl TelemetrySnapshot {
            /// Every section's rows under its JSON key, in schema order.
            fn sections(&self) -> Vec<(&'static str, Vec<Row>)> {
                vec![$((stringify!($sec), self.$sec.rows())),*]
            }

            fn merge_sections(&mut self, other: &Self) {
                $(self.$sec.merge(&other.$sec);)*
            }
        }
    };
}

metric_table! {
    /// Client-facing op latencies.
    ops:
    /// Client-facing op latencies (what the guest "sees").
    pub struct ClientOps {
        /// Volume::read latency.
        read: LatencySnapshot, lat, lat lsvd_op_read "Client read latency";
        /// Volume::write latency.
        write: LatencySnapshot, lat, lat lsvd_op_write "Client write latency";
        /// Client flush latency: the wait for a covering device flush.
        flush: LatencySnapshot, lat, lat lsvd_op_flush "Client flush latency";
    }

    /// Object-store op latencies and byte counters.
    backend:
    /// Object-store op latencies and byte counters, as measured by the
    /// `MetricsStore` middleware at the bottom of the store stack.
    pub struct BackendOps {
        /// PUT latency.
        put: LatencySnapshot, lat, lat lsvd_backend_put "Backend PUT latency";
        /// GET / GET-range latency.
        get: LatencySnapshot, lat, lat lsvd_backend_get "Backend GET latency";
        /// HEAD latency.
        head: LatencySnapshot, lat, lat lsvd_backend_head "Backend HEAD latency";
        /// LIST latency.
        list: LatencySnapshot, lat, lat lsvd_backend_list "Backend LIST latency";
        /// DELETE latency.
        delete: LatencySnapshot, lat, lat lsvd_backend_delete "Backend DELETE latency";
        /// Bytes uploaded by PUTs.
        put_bytes: u64, sum, counter lsvd_backend_put_bytes_total
            "Bytes uploaded by backend PUTs.";
        /// Bytes downloaded by GETs.
        get_bytes: u64, sum, counter lsvd_backend_get_bytes_total
            "Bytes downloaded by backend GETs.";
        /// Ops that returned an error (any kind).
        errors: u64, sum, counter lsvd_backend_errors_total
            "Backend ops that returned an error.";
        /// Subset of `errors` classified transient (retryable).
        transient_errors: u64, sum, counter lsvd_backend_transient_errors_total
            "Backend errors classified transient (retryable).";
    }

    /// Writeback-pipeline gauges and PUT timing split.
    writeback:
    /// Writeback-pipeline visibility: PUT timing split plus the continuously
    /// exported queue gauges (backpressure must be observable as a gauge,
    /// not only as an error).
    pub struct WritebackTelemetry {
        /// Backend service time of each batch PUT (worker-side).
        put_service: LatencySnapshot, lat, lat lsvd_wb_put_service
            "Writeback PUT service time";
        /// Time a sealed batch waited before its PUT completed, minus service.
        put_queue_wait: LatencySnapshot, lat, lat lsvd_wb_put_queue_wait
            "Writeback PUT queue wait";
        /// Sealed batches waiting to enter the in-flight window.
        queued: u64, sum, gauge lsvd_wb_queued
            "Sealed batches waiting to enter the in-flight window.";
        /// PUTs currently in flight.
        inflight: u64, sum, gauge lsvd_wb_inflight "Backend PUTs currently in flight.";
        /// Batches landed out of order, awaiting the durable frontier.
        landed_gapped: u64, sum, gauge lsvd_wb_landed_gapped
            "Batches landed out of order, awaiting the durable frontier.";
        /// In-flight PUT window: `max_inflight_puts` over worker threads, 1
        /// for the inline executor (`writeback_threads = 0`).
        window: u64, sum, gauge lsvd_wb_window
            "In-flight PUT window (1 = inline writeback on the caller).";
        /// `inflight / window` at snapshot time.
        occupancy: f64, ratio, gauge lsvd_wb_occupancy
            "In-flight PUTs as a fraction of the window.";
        /// Highest object sequence sealed so far (0 if none).
        sealed_seq: u64, max, gauge lsvd_wb_sealed_seq
            "Highest object sequence sealed so far.";
        /// Durable frontier: all objects `<=` this are durable (0 if none).
        durable_frontier: u64, max, gauge lsvd_wb_durable_frontier
            "Durable frontier: all objects at or below this are durable.";
        /// `sealed_seq - durable_frontier`: batches not yet durable.
        frontier_lag: u64, sum, gauge lsvd_wb_frontier_lag
            "Sealed batches not yet covered by the durable frontier.";
        /// True while the volume is in degraded (backpressure) mode.
        degraded: bool, or, gauge lsvd_wb_degraded
            "1 while the volume is in degraded (backpressure) mode.";
        /// Transient PUT failures requeued by the pipeline.
        put_transient_failures: u64, sum, counter lsvd_wb_put_transient_failures_total
            "Transient PUT failures requeued by the pipeline.";
        /// Writes rejected with `Backpressure` while degraded.
        backpressure_rejections: u64, sum, counter lsvd_wb_backpressure_rejections_total
            "Writes rejected with Backpressure while degraded.";
    }

    /// Cache-layer counters.
    cache:
    /// Cache-layer counters: backend header cache, read cache, write log
    /// and its group committer.
    pub struct CacheTelemetry {
        /// Backend object-header cache hits (a read miss found the
        /// object's header in memory).
        hdr_hits: u64, sum, counter lsvd_cache_hdr_hits_total
            "Backend object-header cache hits.";
        /// Header cache misses (header GET issued).
        hdr_misses: u64, sum, counter lsvd_cache_hdr_misses_total
            "Backend object-header cache misses.";
        /// Header cache evictions (LRU capacity reached).
        hdr_evictions: u64, sum, counter lsvd_cache_hdr_evictions_total
            "Backend object-header cache evictions.";
        /// Read-cache sector hits.
        rcache_hit_sectors: u64, sum, counter lsvd_rcache_hit_sectors_total
            "Read-cache sector hits.";
        /// Read-cache sector misses.
        rcache_miss_sectors: u64, sum, counter lsvd_rcache_miss_sectors_total
            "Read-cache sector misses.";
        /// Sectors inserted into the read cache.
        rcache_inserted_sectors: u64, sum, counter lsvd_rcache_inserted_sectors_total
            "Sectors inserted into the read cache.";
        /// Sectors evicted from the read cache.
        rcache_evicted_sectors: u64, sum, counter lsvd_rcache_evicted_sectors_total
            "Sectors evicted from the read cache.";
        /// `hit / (hit + miss)` sectors; 0 when the cache is untouched.
        rcache_hit_ratio: f64, ratio, gauge lsvd_rcache_hit_ratio "Read-cache sector hit ratio.";
        /// Write-log sectors currently occupied.
        wlog_used_sectors: u64, sum, gauge lsvd_wlog_used_sectors
            "Write-log sectors currently occupied.";
        /// Write-log capacity in sectors.
        wlog_capacity_sectors: u64, sum, gauge lsvd_wlog_capacity_sectors
            "Write-log capacity in sectors.";
        /// Cache-device flushes the group committer issued.
        device_flushes: u64, sum, counter lsvd_wlog_device_flushes_total
            "Cache-device flushes issued by the group committer.";
        /// Client flushes that waited on a device flush another caller
        /// started.
        shared_flushes: u64, sum, counter lsvd_wlog_shared_flushes_total
            "Client flushes that waited on a device flush another caller started.";
    }

    /// Retry-layer counters.
    retry:
    /// Retry-layer counters (mirrors `objstore::RetryCounters`).
    pub struct RetryTelemetry {
        /// Total attempts (first tries + retries).
        attempts: u64, sum, counter lsvd_retry_attempts_total
            "Backend op attempts (first tries plus retries).";
        /// Retries after a transient failure.
        retries: u64, sum, counter lsvd_retry_retries_total
            "Retries after a transient backend failure.";
        /// Ops abandoned after exhausting the retry budget.
        give_ups: u64, sum, counter lsvd_retry_give_ups_total
            "Ops abandoned after exhausting the retry budget.";
        /// Total virtual backoff applied, in nanoseconds.
        backoff_ns: u64, sum, counter lsvd_retry_backoff_ns_total
            "Total retry backoff applied, nanoseconds.";
    }

    /// Derived paper-figure observables.
    derived:
    /// Derived paper-figure observables.
    pub struct DerivedTelemetry {
        /// Backend bytes written / client bytes written (Figure 13 analogue).
        write_amplification: f64, ratio, gauge lsvd_write_amplification
            "Backend bytes written over client bytes written.";
        /// Backend objects written (batches + GC rewrites).
        backend_objects: u64, sum, counter lsvd_backend_objects_total
            "Backend objects written (batches plus GC rewrites).";
        /// Backend objects per wall-clock second (Figure 10 analogue).
        backend_objects_per_sec: f64, sum, gauge lsvd_backend_objects_per_sec
            "Backend objects written per wall-clock second.";
        /// Dead bytes / total bytes across live backend objects (Figure 14).
        gc_dead_space_ratio: f64, ratio, gauge lsvd_gc_dead_space_ratio
            "Dead bytes over total bytes across live backend objects.";
        /// Checkpoints written.
        checkpoints: u64, sum, counter lsvd_checkpoints_total "Checkpoints written.";
    }

    /// Incremental-cleaner space accounting.
    space:
    /// Space accounting for the incremental cleaner: how much of the backend
    /// log is live versus dead, what cleaning costs (bytes relocated per byte
    /// freed), and where the active pass stands.
    pub struct SpaceTelemetry {
        /// Live bytes across backend data objects (mapped sectors).
        live_bytes: u64, sum, gauge lsvd_space_live_bytes
            "Live bytes across backend data objects.";
        /// Dead bytes across backend data objects (overwritten or trimmed,
        /// not yet reclaimed).
        dead_bytes: u64, sum, gauge lsvd_space_dead_bytes
            "Dead bytes across backend data objects (unreclaimed).";
        /// Cleaning write amplification: bytes relocated by GC carriers per
        /// byte freed by retired victims (0 until something is freed).
        cleaning_write_amp: f64, ratio, gauge lsvd_space_cleaning_write_amp
            "GC bytes relocated per byte freed.";
        /// Cleaning passes completed.
        gc_passes: u64, sum, counter lsvd_gc_passes_total "Cleaning passes completed.";
        /// Whether an incremental pass is in progress right now.
        gc_pass_active: bool, or, gauge lsvd_gc_pass_active
            "1 while an incremental cleaning pass is in progress.";
        /// Configured per-step relocation budget (0 = unbudgeted).
        gc_step_budget_bytes: u64, max, gauge lsvd_gc_step_budget_bytes
            "Per-step relocation budget (0 = unbudgeted).";
        /// Victims and compaction runs the active pass has yet to process
        /// (its resumable cursor counts as one).
        gc_victims_remaining: u64, sum, gauge lsvd_gc_victims_remaining
            "Victims and compaction runs the active pass has left.";
        /// Bytes relocated by GC carriers since volume start.
        gc_relocated_bytes: u64, sum, counter lsvd_gc_relocated_bytes_total
            "Bytes relocated by GC carriers.";
        /// Bytes freed by retiring victims since volume start.
        gc_freed_bytes: u64, sum, counter lsvd_gc_freed_bytes_total
            "Bytes freed by retiring GC victims.";
        /// Retired objects whose backend DELETE is deferred until a
        /// checkpoint covers their relocations.
        deferred_deletes: u64, sum, gauge lsvd_gc_deferred_deletes
            "Retired objects awaiting a covering checkpoint to DELETE.";
    }

    /// Data-plane copy/CRC byte accounting.
    data_plane:
    /// Data-plane byte accounting: how many times payload bytes were
    /// checksummed and copied end to end. The write path's contract is one
    /// CRC pass and two copies per payload byte; these counters make that
    /// auditable from the outside.
    pub struct DataPlaneTelemetry {
        /// Payload bytes checksummed once on the hot write path (at log
        /// append; the same CRC is reused by the batch and object header).
        payload_crc_bytes: u64, sum, counter lsvd_dp_payload_crc_bytes_total
            "Payload bytes checksummed on the hot write path.";
        /// Payload bytes re-checksummed at seal because an overwrite split a
        /// batch chunk mid-extent (partial flanks only).
        crc_recomputed_bytes: u64, sum, counter lsvd_dp_crc_recomputed_bytes_total
            "Payload bytes re-checksummed at seal (partial flanks).";
        /// O(1) `crc32c_combine` folds that replaced full re-scans.
        crc_combine_ops: u64, sum, counter lsvd_dp_crc_combine_ops_total
            "O(1) crc32c_combine folds that replaced full re-scans.";
        /// Payload bytes memcpy'd on the write path (client → batch, batch →
        /// sealed object).
        copied_bytes: u64, sum, counter lsvd_dp_copied_bytes_total
            "Payload bytes memcpy'd on the write path.";
        /// Backend GET payload bytes verified against header extent CRCs.
        get_verified_bytes: u64, sum, counter lsvd_dp_get_verified_bytes_total
            "Backend GET payload bytes verified against extent CRCs.";
        /// Whether the hardware (SSE4.2) CRC32C kernel is active.
        hw_crc: bool, or, gauge lsvd_dp_hw_crc
            "1 when the hardware (SSE4.2) CRC32C kernel is active.";
    }

    /// Concurrent read-plane counters and lock-wait split.
    read_plane:
    /// Concurrent read-plane observability: the lock-split serving path's
    /// hit/miss accounting, scan-resistant admission control, single-flight
    /// miss coalescing, and the shared-vs-exclusive lock wait split that
    /// shows whether read latency is work or queueing.
    pub struct ReadPlaneTelemetry {
        /// Reads served by the plane (all paths).
        reads: u64, sum, counter lsvd_rp_reads_total "Reads served by the read plane.";
        /// Reads served entirely from local state (caches / zeros).
        hit_reads: u64, sum, counter lsvd_rp_hit_reads_total
            "Reads served entirely from local state.";
        /// Reads that needed at least one backend fetch.
        miss_reads: u64, sum, counter lsvd_rp_miss_reads_total
            "Reads that needed at least one backend fetch.";
        /// Sectors admitted into the read cache by miss fetches.
        admitted_sectors: u64, sum, counter lsvd_rp_admitted_sectors_total
            "Sectors admitted into the read cache by miss fetches.";
        /// Sectors a detected sequential scan kept out of the read cache.
        bypassed_sectors: u64, sum, counter lsvd_rp_bypassed_sectors_total
            "Sectors a detected sequential scan kept out of the cache.";
        /// Fetched sectors a spatial-only prefetch window kept out of the
        /// read cache: the window held no co-written data, so only the
        /// triggering read's own sectors entered.
        spatial_skipped_sectors: u64, sum, counter lsvd_rp_spatial_skipped_sectors_total
            "Fetched sectors a spatial-only prefetch window kept out of the cache.";
        /// Fetches that parked on another reader's in-flight GET.
        singleflight_waits: u64, sum, counter lsvd_rp_singleflight_waits_total
            "Fetches that parked on another reader's in-flight GET.";
        /// Parked fetches fully served from the leader's window (GETs saved).
        singleflight_shared: u64, sum, counter lsvd_rp_singleflight_shared_total
            "Parked fetches fully served from the leader's window.";
        /// Shared-lock acquisitions (the concurrent hit path).
        shared_lock_acqs: u64, sum, counter lsvd_rp_shared_lock_acqs_total
            "Shared-lock acquisitions (concurrent hit path).";
        /// Exclusive-lock acquisitions (mutations and miss-path inserts).
        excl_lock_acqs: u64, sum, counter lsvd_rp_excl_lock_acqs_total
            "Exclusive-lock acquisitions (mutations and miss inserts).";
        /// Time spent waiting for the shared lock.
        shared_lock_wait: LatencySnapshot, lat, lat lsvd_rp_shared_lock_wait "Shared-lock wait";
        /// Time spent waiting for the exclusive lock.
        excl_lock_wait: LatencySnapshot, lat, lat lsvd_rp_excl_lock_wait "Exclusive-lock wait";
        /// Readers inside the plane at snapshot time.
        concurrent_readers: u64, sum, gauge lsvd_rp_concurrent_readers
            "Readers inside the read plane at snapshot time.";
        /// High-water mark of concurrent readers.
        peak_concurrent_readers: u64, sum, gauge lsvd_rp_peak_concurrent_readers
            "High-water mark of concurrent readers.";
    }

    /// Serving-plane (NBD) latency split and connection gauges.
    serving:
    /// Serving-plane (NBD) observability: per-request latency split into the
    /// three places time can go — blocked on the socket, queued behind the
    /// scheduler, or inside the volume — plus connection/op gauges. On a
    /// fleet node each scalar row is also exported per tenant, as the
    /// `lsvd_tenant_*` family with an `export` label.
    pub struct ServingTelemetry {
        /// Time spent reading a request frame off the socket and writing its
        /// reply back (transport cost).
        socket_wait: LatencySnapshot, lat, lat lsvd_serving_socket_wait
            "NBD socket read/write time";
        /// Time a parsed request waited in the scheduler queue before a worker
        /// picked it up.
        queue_wait: LatencySnapshot, lat, lat lsvd_serving_queue_wait "NBD scheduler queue wait";
        /// Time inside the volume call servicing the request.
        service: LatencySnapshot, lat, lat lsvd_serving_service "NBD in-volume service time";
        /// Connections currently open.
        conns_open: u64, sum, gauge lsvd_serving_conns_open "NBD connections currently open.";
        /// Connections ever accepted.
        conns_total: u64, sum, counter lsvd_serving_conns_total "NBD connections ever accepted.";
        /// READ requests served.
        reads: u64, sum, counter lsvd_serving_reads_total "NBD READ requests served.";
        /// WRITE requests served.
        writes: u64, sum, counter lsvd_serving_writes_total "NBD WRITE requests served.";
        /// FLUSH requests served (including FUA-forced flushes).
        flushes: u64, sum, counter lsvd_serving_flushes_total
            "NBD FLUSH requests served (including FUA).";
        /// TRIM requests served.
        trims: u64, sum, counter lsvd_serving_trims_total "NBD TRIM requests served.";
        /// Requests answered with an NBD error code.
        errors: u64, sum, counter lsvd_serving_errors_total
            "NBD requests answered with an error code.";
        /// Bytes served to READ replies.
        bytes_read: u64, sum, counter lsvd_serving_bytes_read_total
            "Bytes served to NBD READ replies.";
        /// Bytes accepted from WRITE requests.
        bytes_written: u64, sum, counter lsvd_serving_bytes_written_total
            "Bytes accepted from NBD WRITE requests.";
        /// Requests the reactor ran to completion itself, reply included,
        /// with no hand-off to a worker or a fetch thread.
        reactor_runs: u64, sum, counter lsvd_serving_reactor_runs_total
            "NBD requests run to completion on the reactor thread.";
    }

    /// Lifecycle-edge occupancy of the span ring.
    trace:
    /// Lifecycle-edge counters: the span ring's edge buffer.
    pub struct TraceTelemetry {
        /// Edges ever recorded.
        events: u64, sum, counter lsvd_trace_events_total
            "Trace events ever pushed into the ring.";
        /// Edges evicted to make room.
        dropped: u64, sum, counter lsvd_trace_dropped_total
            "Trace events evicted from the ring on wrap.";
        /// Edge-buffer capacity.
        capacity: u64, sum, gauge lsvd_trace_capacity "Trace ring capacity.";
    }

    /// Span-ring occupancy (request-scoped tracing).
    spans:
    /// Span-ring occupancy counters (the request-scoped tracing layer).
    pub struct SpanTelemetry {
        /// Spans ever recorded.
        recorded: u64, sum, counter lsvd_span_recorded_total
            "Request-scoped spans ever recorded.";
        /// Spans evicted to make room.
        dropped: u64, sum, counter lsvd_span_dropped_total
            "Spans evicted from the span ring on wrap.";
        /// Ring capacity across all shards.
        capacity: u64, sum, gauge lsvd_span_capacity "Span ring capacity across all shards.";
        /// Request ids minted so far (the virtual clock).
        requests: u64, sum, counter lsvd_span_requests_total
            "Request ids minted (the tracing virtual clock).";
        /// Whether span recording is currently enabled.
        enabled: bool, or, gauge lsvd_span_enabled "1 while span recording is enabled.";
    }
}

/// One tenant's slice of a fleet node: the per-export serving counters
/// plus its read-cache footprint. Exported as the
/// `tenants` array in JSON and as `export="..."`-labeled series in
/// Prometheus, so noisy-neighbor effects are measurable per volume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTelemetry {
    /// Export (registry) name of the tenant volume.
    pub export: String,
    /// Serving-plane counters and latency split for this export only.
    pub serving: ServingTelemetry,
    /// Bytes currently resident in the tenant's read-cache partition.
    pub cache_resident_bytes: u64,
}

impl TenantTelemetry {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("export".into(), Json::Str(self.export.clone())),
            (stringify!(serving).into(), rows_json(&self.serving.rows())),
            (
                "cache_resident_bytes".into(),
                self.cache_resident_bytes.value().json(),
            ),
        ])
    }

    /// The Prometheus label set naming this tenant.
    fn label(&self) -> String {
        let export = self
            .export
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        format!("{{export=\"{export}\"}}")
    }
}

fn rows_json(rows: &[Row]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|r| (r.field.to_string(), r.value.json()))
            .collect(),
    )
}

fn rows_report(rows: &[Row]) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|r| format!("{}={}", r.field, r.value))
        .collect();
    fields.join(" ")
}

impl TelemetrySnapshot {
    /// Builds the JSON tree (schema key first).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("elapsed_secs".into(), self.elapsed_secs.value().json()),
        ];
        for (name, rows) in self.sections() {
            obj.push((name.into(), rows_json(&rows)));
        }
        let tenants = self.tenants.iter().map(TenantTelemetry::json).collect();
        obj.push(("tenants".into(), Json::Arr(tenants)));
        Json::Obj(obj)
    }

    /// Folds `other` into `self` for fleet-level aggregation: every row
    /// merges by its table rule (counters, byte totals and per-volume
    /// gauges sum, booleans OR, latency sketches merge approximately —
    /// count-weighted mean and percentiles, max of maxes), the ratios are
    /// recomputed from the merged operands, and `tenants` lists
    /// concatenate. The result is a node-wide view; per-volume precision
    /// lives in `tenants`.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        // Write amplification weighs each side by its client bytes,
        // recovered as `put_bytes / write_amplification` (an idle side, WA
        // 0, weighs nothing). Exact when `put_bytes` is the WA numerator.
        let wa_terms = |t: &TelemetrySnapshot| {
            let (wa, put) = (t.derived.write_amplification, t.backend.put_bytes as f64);
            if wa > 0.0 {
                (put, put / wa)
            } else {
                (0.0, 0.0)
            }
        };
        let ((put_a, client_a), (put_b, client_b)) = (wa_terms(self), wa_terms(other));
        self.merge_sections(other);
        self.elapsed_secs = self.elapsed_secs.max(other.elapsed_secs);
        self.tenants.extend(other.tenants.iter().cloned());
        let ratio = |num: u64, den: u64| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                0.0
            }
        };
        let s = self;
        if client_a + client_b > 0.0 {
            s.derived.write_amplification = (put_a + put_b) / (client_a + client_b);
        }
        s.writeback.occupancy = ratio(s.writeback.inflight, s.writeback.window);
        let rc_total = s.cache.rcache_hit_sectors + s.cache.rcache_miss_sectors;
        s.cache.rcache_hit_ratio = ratio(s.cache.rcache_hit_sectors, rc_total);
        let space_total = s.space.dead_bytes + s.space.live_bytes;
        s.derived.gc_dead_space_ratio = ratio(s.space.dead_bytes, space_total);
        s.space.cleaning_write_amp = ratio(s.space.gc_relocated_bytes, s.space.gc_freed_bytes);
    }

    /// Renders Prometheus text exposition. Every metric carries `# HELP`
    /// and `# TYPE` lines; counters are suffixed `_total` (except the
    /// `_count` series of latency families, which follow the
    /// histogram/summary `_count` convention) and gauges keep plain
    /// names. On a fleet node every scalar serving row is repeated per
    /// tenant as an `lsvd_tenant_*` family with an `export` label.
    pub fn to_prometheus(&self) -> String {
        let mut w = Prom::default();
        let help = "Wall-clock seconds since the volume's telemetry started.";
        w.family(
            "lsvd_elapsed_secs",
            help,
            "gauge",
            &[(String::new(), self.elapsed_secs)],
        );
        for (_, rows) in self.sections() {
            for r in &rows {
                w.row(r);
            }
        }
        if self.tenants.is_empty() {
            return w.out;
        }
        let tenant_rows: Vec<Vec<Row>> = self.tenants.iter().map(|t| t.serving.rows()).collect();
        for (i, r) in tenant_rows[0].iter().enumerate() {
            if r.kind == "lat" {
                continue;
            }
            let samples: Vec<(String, f64)> = self
                .tenants
                .iter()
                .zip(&tenant_rows)
                .map(|(t, rows)| (t.label(), rows[i].value.sample()))
                .collect();
            let name = r.family.replace("lsvd_serving_", "lsvd_tenant_");
            let help = format!("{}, per export.", r.help.trim_end_matches('.'));
            w.family(&name, &help, r.kind, &samples);
        }
        let mut per_tenant = |name: &str, help: &str, f: fn(&TenantTelemetry) -> f64| {
            let samples: Vec<(String, f64)> =
                self.tenants.iter().map(|t| (t.label(), f(t))).collect();
            w.family(name, help, "gauge", &samples);
        };
        per_tenant(
            "lsvd_tenant_service_p99_ns",
            "In-volume service p99 in nanoseconds, per export.",
            |t| t.serving.service.p99_ns,
        );
        per_tenant(
            "lsvd_tenant_cache_resident_bytes",
            "Bytes resident in the read-cache partition, per export.",
            |t| t.cache_resident_bytes as f64,
        );
        w.out
    }

    /// Renders a human-readable report (CLI / bench end-of-run): a header,
    /// one line per section listing every row as `field=value`, then one
    /// line per tenant.
    pub fn report(&self) -> String {
        let mut out = format!("telemetry elapsed_secs={}\n", self.elapsed_secs.value());
        for (name, rows) in self.sections() {
            let _ = writeln!(out, "  {name} {}", rows_report(&rows));
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "  tenant {} {} cache_resident_bytes={}",
                t.export,
                rows_report(&t.serving.rows()),
                t.cache_resident_bytes
            );
        }
        out
    }
}

/// Prometheus text-exposition writer: pairs every family with its
/// `# HELP`/`# TYPE` preamble and keeps the counter naming convention
/// (`_total`, or `_count` for latency-family sample counters) honest.
#[derive(Default)]
struct Prom {
    out: String,
}

impl Prom {
    /// One family: its preamble, then a sample per `(labels, value)`.
    fn family(&mut self, name: &str, help: &str, kind: &str, samples: &[(String, f64)]) {
        debug_assert!(
            kind == "gauge"
                || (kind == "counter" && (name.ends_with("_total") || name.ends_with("_count"))),
            "family `{name}` of kind {kind}: counters must end in _total or _count"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        for (labels, v) in samples {
            if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
                let _ = writeln!(self.out, "{name}{labels} {}", *v as i64);
            } else {
                let _ = writeln!(self.out, "{name}{labels} {v}");
            }
        }
    }

    /// One table row: a scalar is one family; a latency is the family set
    /// `<prefix>_count` (a counter, by the summary convention) plus
    /// mean/p50/p99/max gauges in nanoseconds.
    fn row(&mut self, r: &Row) {
        let Value::Lat(l) = r.value else {
            let samples = [(String::new(), r.value.sample())];
            return self.family(r.family, r.help, r.kind, &samples);
        };
        for (key, v) in lat_fields(&l) {
            let (kind, what) = match key.strip_suffix("_ns") {
                Some(stat) => ("gauge", format!("{stat}, nanoseconds")),
                None => ("counter", "samples recorded".to_string()),
            };
            let (name, help) = (
                format!("{}_{key}", r.family),
                format!("{}: {what}.", r.help),
            );
            self.family(&name, &help, kind, &[(String::new(), v)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
                device_flushes: 30,
                shared_flushes: 12,
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
                spatial_skipped_sectors: 8_064,
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
                reactor_runs: 3_100,
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
                        reactor_runs: 1_900,
                    },
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
                        reactor_runs: 1_200,
                    },
                    cache_resident_bytes: 2 << 20,
                },
            ],
        }
    }

    #[test]
    fn schema_key_is_first_and_validated() {
        let text = sample().to_json().render();
        assert!(
            text.starts_with("{\"schema\":\"lsvd-telemetry-v6\""),
            "{text}"
        );
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
            prom.contains("lsvd_rp_admitted_sectors_total 1024"),
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
            prom.contains("lsvd_tenant_cache_resident_bytes{export=\"alpha\"} 9437184"),
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

    /// Splits an exposition into family name -> (HELP line, TYPE line,
    /// sample lines), so two expositions compare regardless of family order.
    fn families(prom: &str) -> BTreeMap<&str, (&str, &str, Vec<&str>)> {
        let mut out = BTreeMap::new();
        let mut name = "";
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                name = rest.split(' ').next().unwrap();
                let fresh = out.insert(name, (line, "", Vec::new())).is_none();
                assert!(fresh, "duplicate family {name}");
            } else if line.starts_with("# TYPE ") {
                out.get_mut(name).unwrap().1 = line;
            } else {
                out.get_mut(name).unwrap().2.push(line);
            }
        }
        out
    }

    /// The exporters' output is pinned by golden files: JSON byte for byte,
    /// Prometheus family by family (TYPE and sample lines always, HELP for
    /// every family but the per-tenant ones, whose HELP is derived).
    #[test]
    fn exports_match_golden_files() {
        let cases = [
            (
                sample(),
                include_str!("../testdata/sample.json"),
                include_str!("../testdata/sample.prom"),
            ),
            (
                TelemetrySnapshot::default(),
                include_str!("../testdata/default.json"),
                include_str!("../testdata/default.prom"),
            ),
        ];
        for (snap, json, prom) in cases {
            assert_eq!(snap.to_json().render(), json);
            let text = snap.to_prometheus();
            let (got, want) = (families(&text), families(prom));
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>()
            );
            for (name, (help, ty, samples)) in &want {
                let (got_help, got_ty, got_samples) = &got[name];
                assert_eq!((got_ty, got_samples), (ty, samples), "{name}");
                if !name.starts_with("lsvd_tenant_") {
                    assert_eq!(got_help, help, "{name}");
                }
            }
        }
    }

    #[test]
    fn report_mentions_headline_sections() {
        let rep = sample().report();
        for needle in [
            "\n  ops read=(n=100 mean=1.5us",
            "\n  writeback ",
            "\n  derived ",
            " write_amplification=1.37 ",
            "\n  space ",
            " cleaning_write_amp=0.42 ",
            "\n  data_plane ",
            "\n  read_plane ",
            "\n  serving ",
            "\n  trace ",
            "\n  spans ",
            "\n  tenant alpha ",
        ] {
            assert!(rep.contains(needle), "missing {needle}: {rep}");
        }
        // A header, one line per section, one per tenant.
        assert_eq!(rep.lines().count(), 1 + 12 + 2, "{rep}");
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
            sum.read_plane.admitted_sectors,
            2 * a.read_plane.admitted_sectors
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

    /// Fleet write amplification weighs each side by its client bytes,
    /// `put_bytes / write_amplification`; an idle side (WA 0) weighs
    /// nothing, whatever checkpoint bytes it has put.
    #[test]
    fn absorb_weights_write_amplification_by_client_bytes() {
        let side = |wa: f64, put_bytes: u64| {
            let mut s = TelemetrySnapshot::default();
            s.derived.write_amplification = wa;
            s.backend.put_bytes = put_bytes;
            s
        };
        for (a, b, want) in [
            (side(1.0, 100), side(3.0, 300), 2.0),
            (side(2.0, 200), side(0.0, 100), 2.0),
        ] {
            let mut merged = a.clone();
            merged.absorb(&b);
            let got = merged.derived.write_amplification;
            assert!((got - want).abs() < 1e-9, "{a:?} + {b:?} gave WA {got}");
        }
    }
}
