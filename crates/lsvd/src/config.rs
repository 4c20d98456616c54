//! Volume configuration: the per-volume knobs of [`VolumeConfig`], and
//! the parameters the paper fixes, as constants. A constant here has one
//! value in every binary; a field has a caller that sets another.

use objstore::RetryPolicy;

use crate::types::SECTOR;

/// Fraction of the cache device dedicated to the write-back log; the rest
/// (minus metadata) is read cache. §4.1 splits the cache 20 % write-back,
/// 80 % read.
pub const WRITE_CACHE_FRACTION: f64 = 0.2;

/// GC trigger: a cleaning pass starts when the live/total utilization of
/// the checkpointed objects drops below this (§3.5; 70 % in §4.1).
pub const GC_LOW_WATERMARK: f64 = 0.70;

/// GC target: a pass selects victims until utilization would be back
/// above this (§3.5; 75 % in §4.1).
pub const GC_HIGH_WATERMARK: f64 = 0.75;

/// Size ceiling (bytes) for an extent to count as a fragment in a
/// cold-extent compaction run ([`VolumeConfig::gc_compact_min_run`]);
/// larger extents end the run. Compaction shrinks the extent map, Table
/// 5's memory metric (§4.6).
pub const GC_COMPACT_MAX_EXTENT_BYTES: u64 = 64 << 10;

/// Attempts per backend operation in GC and maintenance paths (§3.5)
/// before a transient failure aborts the pass. The client data path does
/// not retry here: set [`VolumeConfig::retry_policy`] for that.
pub const GC_RETRY_ATTEMPTS: u32 = 3;

/// Capacity (entries) of the backend object-header cache that a read miss
/// consults before issuing a header GET (§3.2's read path).
pub const HDR_CACHE_ENTRIES: usize = 512;

/// Tunable parameters of an LSVD volume.
///
/// Defaults follow the paper's prototype configuration (§4.1): 8 MiB write
/// batches and a 256 KiB prefetch window. The cache split and the GC
/// watermarks are the constants above.
#[derive(Debug, Clone)]
pub struct VolumeConfig {
    /// Backend object batch size in bytes; the block store seals a batch
    /// and PUTs it once accumulated writes reach this size (§3.2 suggests
    /// 8 or 32 MiB).
    pub batch_bytes: u64,
    /// Read-ahead cap in bytes: a read miss fetches up to this much of its
    /// backend object, from the missed piece onward (temporal-locality
    /// prefetch, §3.2). The whole window enters the read cache when it
    /// holds other write extents than the read's or the read continues a
    /// sequential stream; otherwise just the read's own sectors do (see
    /// [`read_plane`](crate::read_plane)).
    pub prefetch_bytes: u64,
    /// Whether the garbage collector runs.
    pub gc_enabled: bool,
    /// Budget for one incremental cleaner step
    /// ([`Volume::gc_step`](crate::volume::Volume::gc_step)): the step
    /// stops issuing relocations once it has moved this many bytes,
    /// leaving a resumable cursor. `0` means unbudgeted — every step drives
    /// the pass to completion (the one-shot behavior).
    pub gc_step_budget_bytes: u64,
    /// Cold-extent compaction: when nonzero, a cleaning pass also scans
    /// the extent map for LBA-contiguous runs of at least this many map
    /// entries, each no larger than [`GC_COMPACT_MAX_EXTENT_BYTES`], whose
    /// source objects are all cold (at or below the last checkpoint), and
    /// rewrites each run into one dense relocation object — collapsing the
    /// run to a single extent-map entry (Table 5's memory metric). `0`
    /// disables compaction.
    pub gc_compact_min_run: usize,
    /// Write a map checkpoint to the backend every this many data objects.
    pub checkpoint_interval: u32,
    /// Degraded-mode dirty watermark: how many sealed batches may queue
    /// locally while the backend fails transiently. Past this limit,
    /// writes that would seal another batch fail with
    /// [`LsvdError::Backpressure`](crate::LsvdError::Backpressure) until
    /// the backend heals and the queue drains (in strict sequence order).
    pub max_pending_batches: usize,
    /// Writeback worker threads shipping sealed batches to the backend.
    /// Every sealed batch takes the same path — seal, submit to the
    /// [`WritebackPool`](crate::writeback::WritebackPool), harvest, apply
    /// in sequence order — and this only picks its executor. `0` runs
    /// each PUT inline on the caller's thread, one at a time, before the
    /// call that issued it returns (deterministic; used by most unit
    /// tests). With `n > 0` threads, PUTs run on a worker pool and the
    /// foreground keeps accepting writes while they are in flight (§3.1's
    /// pipelined write path).
    pub writeback_threads: usize,
    /// Bound on concurrently in-flight batch PUTs when
    /// `writeback_threads > 0` (the inline executor's window is always
    /// 1). Completions may arrive out of order; the volume still applies
    /// them to the object map in strict sequence order (the
    /// durable-frontier rule), so this only controls overlap, never
    /// visibility. Must not exceed `max_pending_batches`.
    pub max_inflight_puts: usize,
    /// When set, the volume wraps the provided store in a
    /// [`RetryStore`](objstore::RetryStore) with this policy and
    /// auto-attaches its counters, so `stats().retry` reports real numbers
    /// without the caller plumbing a `RetryHandle` by hand.
    pub retry_policy: Option<RetryPolicy>,
    /// Verify backend GET payloads against the per-extent CRCs recorded in
    /// object headers. Fetch windows are snapped to extent boundaries and
    /// the expected checksum is folded from the stored extent CRCs with
    /// `crc32c_combine` — no second pass over the object at PUT time; the
    /// fetched window is checksummed once. A mismatch fails the read with
    /// [`LsvdError::Corrupt`](crate::LsvdError::Corrupt).
    pub verify_get_crc: bool,
    /// Scan-resistant admission threshold (bytes): once a sequential read
    /// stream's run reaches this length, its backend fetches bypass
    /// read-cache admission so a scan cannot evict the hot set
    /// (ECI-Cache). The scan still gets full prefetch windows — it just
    /// doesn't cache them. `0` disables admission control (everything is
    /// admitted).
    pub scan_bypass_bytes: u64,
}

impl Default for VolumeConfig {
    fn default() -> Self {
        VolumeConfig {
            batch_bytes: 8 << 20,
            prefetch_bytes: 256 << 10,
            gc_enabled: true,
            // One default batch per incremental step: each cleaner
            // invocation injects at most one extra PUT into the window.
            gc_step_budget_bytes: 8 << 20,
            gc_compact_min_run: 0,
            checkpoint_interval: 64,
            max_pending_batches: 8,
            // Inline executor by default: PUT failures surface
            // synchronously on the writing thread, which the degraded-mode
            // API contract (and its tests) relies on. Worker threads are
            // opt-in.
            writeback_threads: 0,
            max_inflight_puts: 4,
            retry_policy: None,
            verify_get_crc: false,
            scan_bypass_bytes: 2 << 20,
        }
    }
}

impl VolumeConfig {
    /// A configuration scaled down for unit tests: small batches and
    /// frequent checkpoints so every code path triggers quickly.
    pub fn small_for_tests() -> Self {
        VolumeConfig {
            batch_bytes: 64 << 10,
            checkpoint_interval: 4,
            prefetch_bytes: 32 << 10,
            // Unbudgeted steps: each cleaner invocation completes its
            // pass, preserving the one-shot semantics unit tests assert.
            gc_step_budget_bytes: 0,
            // Inline executor: unit tests rely on deterministic inline
            // PUT ordering. Pipelined tests opt in explicitly.
            writeback_threads: 0,
            ..Default::default()
        }
    }

    /// Batch size in sectors.
    pub fn batch_sectors(&self) -> u64 {
        self.batch_bytes / SECTOR
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical settings (a batch under 4 KiB, a zero
    /// checkpoint interval, an in-flight window past the pending limit);
    /// configurations are developer input, not runtime data.
    pub fn validate(&self) {
        assert!(self.batch_bytes >= 4096, "batch too small");
        assert!(
            self.batch_bytes.is_multiple_of(SECTOR),
            "batch not sector-aligned"
        );
        assert!(self.checkpoint_interval >= 1, "bad checkpoint interval");
        assert!(self.max_pending_batches >= 1, "bad pending batch limit");
        assert!(
            self.scan_bypass_bytes.is_multiple_of(SECTOR),
            "scan bypass threshold not sector-aligned"
        );
        if self.writeback_threads > 0 {
            assert!(
                self.max_inflight_puts >= 1 && self.max_inflight_puts <= self.max_pending_batches,
                "bad in-flight PUT window"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        VolumeConfig::default().validate();
        VolumeConfig::small_for_tests().validate();
    }

    #[test]
    #[should_panic(expected = "bad in-flight PUT window")]
    fn oversized_inflight_window_rejected() {
        VolumeConfig {
            writeback_threads: 2,
            max_inflight_puts: 99,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn batch_sectors_conversion() {
        let cfg = VolumeConfig::default();
        assert_eq!(cfg.batch_sectors(), (8 << 20) / 512);
    }
}
