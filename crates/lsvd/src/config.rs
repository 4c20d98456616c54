//! Volume configuration.

use objstore::RetryPolicy;

use crate::gc::GcPolicy;
use crate::types::SECTOR;

/// Tunable parameters of an LSVD volume.
///
/// Defaults follow the paper's prototype configuration (§4.1): 8 MiB write
/// batches, a cache split of 20 % write-back / 80 % read, garbage
/// collection triggered below 70 % utilization and stopping at 75 %.
#[derive(Debug, Clone)]
pub struct VolumeConfig {
    /// Backend object batch size in bytes; the block store seals a batch
    /// and PUTs it once accumulated writes reach this size (§3.2 suggests
    /// 8 or 32 MiB).
    pub batch_bytes: u64,
    /// Fraction of the cache device dedicated to the write-back log; the
    /// rest (minus metadata) is read cache.
    pub write_cache_fraction: f64,
    /// Read-ahead cap in bytes: a read miss fetches up to this much of its
    /// backend object, from the missed piece onward (temporal-locality
    /// prefetch, §3.2). The whole window enters the read cache when it
    /// holds other write extents than the read's or the read continues a
    /// sequential stream; otherwise just the read's own sectors do (see
    /// [`read_plane`](crate::read_plane)).
    pub prefetch_bytes: u64,
    /// Whether the garbage collector runs.
    pub gc_enabled: bool,
    /// GC trigger: collect when live/total utilization drops below this.
    pub gc_low_watermark: f64,
    /// GC target: stop collecting once utilization is back above this.
    pub gc_high_watermark: f64,
    /// Victim-selection policy: greedy live-ratio or LFS cost-benefit.
    pub gc_policy: GcPolicy,
    /// Budget for one incremental cleaner step ([`Volume::gc_step`]
    /// (crate::volume::Volume::gc_step)): the step stops issuing
    /// relocations once it has moved this many bytes, leaving a resumable
    /// cursor. `0` means unbudgeted — every step drives the pass to
    /// completion (the one-shot behavior).
    pub gc_step_budget_bytes: u64,
    /// Cold-extent compaction: when nonzero, a cleaning pass also scans
    /// the extent map for LBA-contiguous runs of at least this many
    /// map entries, each no larger than [`gc_compact_max_extent_bytes`]
    /// (Self::gc_compact_max_extent_bytes), whose source objects are all
    /// cold (at or below the last checkpoint), and rewrites each run into
    /// one dense relocation object — collapsing the run to a single
    /// extent-map entry (Table 5's memory metric). `0` disables
    /// compaction.
    pub gc_compact_min_run: usize,
    /// Size ceiling (bytes) for an extent to count as a fragment in a
    /// compaction run; larger extents end the run.
    pub gc_compact_max_extent_bytes: u64,
    /// Write a map checkpoint to the backend every this many data objects.
    pub checkpoint_interval: u32,
    /// During GC, also copy unwritten "holes" up to this many bytes between
    /// live pieces, trading a little write amplification for a smaller
    /// extent map (the §4.6 defragmentation experiment; 0 disables).
    pub defrag_hole_bytes: u64,
    /// Degraded-mode dirty watermark: how many sealed batches may queue
    /// locally while the backend fails transiently. Past this limit,
    /// writes that would seal another batch fail with
    /// [`LsvdError::Backpressure`](crate::LsvdError::Backpressure) until
    /// the backend heals and the queue drains (in strict sequence order).
    pub max_pending_batches: usize,
    /// Attempts per backend operation in GC and maintenance paths before
    /// a transient failure aborts the pass (the client data path does not
    /// retry here — layer a `RetryStore` under the volume for that).
    pub gc_retry_attempts: u32,
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
    /// Capacity (entries) of the backend object-header cache consulted by
    /// read misses before issuing a header GET.
    pub hdr_cache_entries: usize,
    /// Verify backend GET payloads against the per-extent CRCs recorded in
    /// object headers. Fetch windows are snapped to extent boundaries and
    /// the expected checksum is folded from the stored extent CRCs with
    /// `crc32c_combine` — no second pass over the object at PUT time, and
    /// scatter-gather workers checksum their parts off the foreground
    /// thread. A mismatch fails the read with
    /// [`LsvdError::Corrupt`](crate::LsvdError::Corrupt).
    pub verify_get_crc: bool,
    /// Scan-resistant admission threshold (bytes): once a sequential read
    /// stream's run reaches this length, its backend fetches bypass
    /// read-cache admission so a scan cannot evict the hot set
    /// (ECI-Cache). The scan still gets full prefetch windows — it just
    /// doesn't cache them. `0` disables admission control (everything is
    /// admitted).
    pub scan_bypass_bytes: u64,
    /// Tenant read-cache byte quota (ECI-Cache partitioning): once this
    /// volume's resident read-cache footprint reaches the quota, miss
    /// fetches still serve their data but stop admitting it, so on a
    /// fleet node one tenant cannot grow at its neighbours' expense. `0`
    /// (the default, and the right setting for a single-tenant volume)
    /// disables the quota. The fleet rebalancer adjusts it at runtime via
    /// [`ReadPlane::set_cache_quota_bytes`]
    /// (crate::read_plane::ReadPlane::set_cache_quota_bytes).
    pub cache_quota_bytes: u64,
}

impl Default for VolumeConfig {
    fn default() -> Self {
        VolumeConfig {
            batch_bytes: 8 << 20,
            write_cache_fraction: 0.2,
            prefetch_bytes: 256 << 10,
            gc_enabled: true,
            gc_low_watermark: 0.70,
            gc_high_watermark: 0.75,
            gc_policy: GcPolicy::CostBenefit,
            // One default batch per incremental step: each cleaner
            // invocation injects at most one extra PUT into the window.
            gc_step_budget_bytes: 8 << 20,
            gc_compact_min_run: 0,
            gc_compact_max_extent_bytes: 64 << 10,
            checkpoint_interval: 64,
            defrag_hole_bytes: 0,
            max_pending_batches: 8,
            gc_retry_attempts: 3,
            // Inline executor by default: PUT failures surface
            // synchronously on the writing thread, which the degraded-mode
            // API contract (and its tests) relies on. Worker threads are
            // opt-in.
            writeback_threads: 0,
            max_inflight_puts: 4,
            retry_policy: None,
            hdr_cache_entries: 512,
            verify_get_crc: false,
            scan_bypass_bytes: 2 << 20,
            cache_quota_bytes: 0,
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
    /// Panics on nonsensical settings (zero batch, watermarks outside
    /// `(0, 1]`, inverted watermarks); configurations are developer input,
    /// not runtime data.
    pub fn validate(&self) {
        assert!(self.batch_bytes >= 4096, "batch too small");
        assert!(
            self.batch_bytes.is_multiple_of(SECTOR),
            "batch not sector-aligned"
        );
        assert!(
            self.write_cache_fraction > 0.0 && self.write_cache_fraction < 1.0,
            "bad cache split"
        );
        assert!(
            self.gc_low_watermark > 0.0
                && self.gc_low_watermark <= self.gc_high_watermark
                && self.gc_high_watermark <= 1.0,
            "bad GC watermarks"
        );
        assert!(self.checkpoint_interval >= 1, "bad checkpoint interval");
        if self.gc_compact_min_run > 0 {
            assert!(
                self.gc_compact_max_extent_bytes >= SECTOR
                    && self.gc_compact_max_extent_bytes.is_multiple_of(SECTOR),
                "bad compaction fragment ceiling"
            );
        }
        assert!(self.max_pending_batches >= 1, "bad pending batch limit");
        assert!(self.gc_retry_attempts >= 1, "bad GC retry attempts");
        assert!(self.hdr_cache_entries >= 1, "bad header cache capacity");
        assert!(
            self.scan_bypass_bytes.is_multiple_of(SECTOR),
            "scan bypass threshold not sector-aligned"
        );
        assert!(
            self.cache_quota_bytes.is_multiple_of(SECTOR),
            "cache quota not sector-aligned"
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
    #[should_panic(expected = "bad GC watermarks")]
    fn inverted_watermarks_rejected() {
        VolumeConfig {
            gc_low_watermark: 0.9,
            gc_high_watermark: 0.7,
            ..Default::default()
        }
        .validate();
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
    #[should_panic(expected = "bad compaction fragment ceiling")]
    fn unaligned_compaction_ceiling_rejected() {
        VolumeConfig {
            gc_compact_min_run: 4,
            gc_compact_max_extent_bytes: 1000,
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
