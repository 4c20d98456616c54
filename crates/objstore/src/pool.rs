//! A simulated Ceph-like storage pool.
//!
//! [`BackendPool`] models the paper's two backend clusters (§4.1): a
//! 4-node/32-SSD pool and a 9-node/62-HDD pool. It exposes the two access
//! protocols the paper compares:
//!
//! - **Replicated block writes** ([`BackendPool::replicated_write`]): the
//!   RBD path. A client write of `S` bytes lands on 3 replicas; each
//!   replica performs one WAL/metadata journal write of `S + overhead`
//!   bytes (sequential, RocksDB-style) and one deferred data apply of `S`
//!   bytes (elevator-sorted short seek). This reproduces the paper's
//!   measured 6× I/O and byte amplification (Figure 13) and its backend
//!   write-size histogram of 16/20/24 KiB writes (Figure 14).
//! - **Erasure-coded object PUTs** ([`BackendPool::ec_put`]): the RGW path
//!   LSVD uses. A `B`-byte object is split into `k` data chunks plus `m`
//!   parity chunks written to `k+m` hash-selected disks, plus a tail of
//!   small metadata/journal writes. The paper measured 64 backend write
//!   *issues* per 4 MiB object (so 256 16-KiB client writes cost 64 backend
//!   I/Os — 0.25×), with the small issues merging to ~10 physical WAL
//!   appends ("roughly 32 IOPS per drive in small writes", §4.5).
//!
//! Accounting distinguishes *issued* backend I/Os (what the paper's
//! blktrace counted for Figure 13) from *physical* disk operations (what
//! shapes utilization in Figure 12).

use blkdev::{DiskModel, DiskProfile, IoKind};
use sim::stats::{IoCounters, SizeHistogram};
use sim::{SimDuration, SimTime};

/// Configuration of a simulated backend pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of backend disks.
    pub disks: usize,
    /// Performance profile of each disk.
    pub profile: DiskProfile,
    /// Replica count for the replicated (RBD) path.
    pub replicas: usize,
    /// Journal overhead bytes added to each replicated WAL write; Ceph's
    /// WAL entries for 16 KiB client writes measured 20–24 KiB (§4.5).
    pub wal_overhead: u64,
    /// Erasure-code data chunks (k).
    pub ec_k: usize,
    /// Erasure-code parity chunks (m).
    pub ec_m: usize,
    /// Small metadata/journal write *issues* per EC object PUT.
    pub ec_meta_issues: u64,
    /// Size of each small metadata write issue.
    pub ec_meta_size: u64,
    /// How many metadata issues merge into one physical WAL append.
    pub ec_meta_merge: u64,
    /// Per-operation server-side processing cost (OSD op path).
    pub server_cpu: SimDuration,
    /// Admission window for replicated writes: the ack is delayed so it
    /// never runs more than this far ahead of the deferred data applies
    /// (BlueStore throttles its WAL when the apply backlog grows). This
    /// couples sustained client write rate to real disk capacity.
    pub backlog_window: SimDuration,
}

impl PoolConfig {
    /// The paper's config 1: 4 nodes, 32 consumer SATA SSDs.
    pub fn ssd_config1() -> Self {
        PoolConfig {
            disks: 32,
            profile: DiskProfile::sata_ssd_consumer(),
            ..Self::defaults()
        }
    }

    /// The paper's config 2: 9 nodes, 62 10K RPM SAS HDDs.
    pub fn hdd_config2() -> Self {
        PoolConfig {
            disks: 62,
            profile: DiskProfile::sas_hdd_10k(),
            ..Self::defaults()
        }
    }

    fn defaults() -> Self {
        PoolConfig {
            disks: 1,
            profile: DiskProfile::sata_ssd_consumer(),
            replicas: 3,
            wal_overhead: 6 * 1024,
            ec_k: 4,
            ec_m: 2,
            // 6 chunk writes + 58 small issues = the 64 writes per 4 MiB
            // object the paper reports.
            ec_meta_issues: 58,
            ec_meta_size: 4 * 1024,
            ec_meta_merge: 6,
            server_cpu: SimDuration::from_micros(60),
            backlog_window: SimDuration::from_millis(30),
        }
    }
}

/// Issued-I/O accounting as seen by a client-side blktrace equivalent.
#[derive(Debug, Clone, Copy, Default)]
pub struct IssuedIo {
    /// Backend write operations issued.
    pub write_ops: u64,
    /// Backend bytes written.
    pub write_bytes: u64,
    /// Backend read operations issued.
    pub read_ops: u64,
    /// Backend bytes read.
    pub read_bytes: u64,
}

/// A simulated Ceph-like pool of disks with replicated and erasure-coded
/// access paths.
pub struct BackendPool {
    cfg: PoolConfig,
    disks: Vec<DiskModel>,
    /// Per-disk WAL append position (own region, always sequential).
    wal_pos: Vec<u64>,
    /// Per-disk allocation pointer for freshly written EC chunks.
    alloc_pos: Vec<u64>,
    issued: IssuedIo,
    issued_write_sizes: SizeHistogram,
}

const WAL_REGION: u64 = 1 << 44;
const ALLOC_REGION: u64 = 1 << 45;

fn mix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BackendPool {
    /// Creates an idle pool.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.disks > 0);
        assert!(cfg.replicas >= 1 && cfg.replicas <= cfg.disks);
        assert!(cfg.ec_k >= 1 && cfg.ec_k + cfg.ec_m <= cfg.disks);
        let disks = (0..cfg.disks)
            .map(|_| DiskModel::new(cfg.profile.clone()))
            .collect();
        BackendPool {
            wal_pos: vec![0; cfg.disks],
            alloc_pos: vec![0; cfg.disks],
            disks,
            cfg,
            issued: IssuedIo::default(),
            issued_write_sizes: SizeHistogram::new(),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Deterministic disk selection: the `i`-th placement of `obj`.
    fn disk_for(&self, obj: u64, i: usize) -> usize {
        // Consistent-hash-like: a pseudo-random permutation seeded by the
        // object id, stepping to distinct disks.
        let n = self.cfg.disks as u64;
        let start = mix(obj) % n;
        let stride = 1 + mix(obj.rotate_left(17) ^ 0xABCD) % (n - 1).max(1);
        ((start + stride * i as u64) % n) as usize
    }

    fn wal_write(&mut self, now: SimTime, disk: usize, len: u64) -> SimTime {
        let pos = WAL_REGION + self.wal_pos[disk];
        self.wal_pos[disk] += len;
        self.disks[disk].submit(now, IoKind::Write, pos, len)
    }

    fn alloc_write(&mut self, now: SimTime, disk: usize, len: u64) -> SimTime {
        let pos = ALLOC_REGION + self.alloc_pos[disk];
        self.alloc_pos[disk] += len;
        self.disks[disk].submit(now, IoKind::Write, pos, len)
    }

    /// RBD-style replicated write of `len` bytes at `off` within object
    /// `obj`. Returns the client acknowledgement time: the slowest
    /// replica's WAL commit plus server processing. The deferred data
    /// applies are charged to the disks but do not gate the ack.
    pub fn replicated_write(&mut self, now: SimTime, obj: u64, _off: u64, len: u64) -> SimTime {
        let mut ack = now;
        for i in 0..self.cfg.replicas {
            let disk = self.disk_for(obj, i);
            // Journal write: data + WAL envelope, sequential per disk.
            let wal_len = len + self.cfg.wal_overhead;
            let wal_done = self.wal_write(now, disk, wal_len) + self.cfg.server_cpu;
            ack = ack.max(wal_done);
            self.issued.write_ops += 1;
            self.issued.write_bytes += wal_len;
            self.issued_write_sizes.record(wal_len);
            // Deferred elevator-sorted data apply. The WAL ack may run
            // ahead of the applies only by the backlog window.
            let apply_done = self.disks[disk].submit_sorted(now, IoKind::Write, len);
            let throttled = apply_done.saturating_since(SimTime::ZERO + self.cfg.backlog_window);
            ack = ack.max(SimTime::ZERO + throttled);
            self.issued.write_ops += 1;
            self.issued.write_bytes += len;
            self.issued_write_sizes.record(len);
        }
        ack
    }

    /// RBD-style read: served by the primary replica.
    pub fn replicated_read(&mut self, now: SimTime, obj: u64, off: u64, len: u64) -> SimTime {
        let disk = self.disk_for(obj, 0);
        let pos = (mix(obj) % (1 << 34)) + off;
        let done = self.disks[disk].submit(now, IoKind::Read, pos, len) + self.cfg.server_cpu;
        self.issued.read_ops += 1;
        self.issued.read_bytes += len;
        done
    }

    /// RGW-style erasure-coded PUT of a `size`-byte immutable object.
    /// Returns the time at which the object is durable on all `k+m` chunks.
    pub fn ec_put(&mut self, now: SimTime, obj: u64, size: u64) -> SimTime {
        let k = self.cfg.ec_k as u64;
        let m = self.cfg.ec_m as u64;
        let chunk = size.div_ceil(k);
        let mut done = now;
        for i in 0..(k + m) {
            let disk = self.disk_for(obj, i as usize);
            let d = self.alloc_write(now, disk, chunk);
            done = done.max(d);
            self.issued.write_ops += 1;
            self.issued.write_bytes += chunk;
            self.issued_write_sizes.record(chunk);
        }
        // Small metadata/journal issues, merged before reaching the disks.
        let issues = self.cfg.ec_meta_issues;
        let merged = issues.div_ceil(self.cfg.ec_meta_merge.max(1));
        for j in 0..merged {
            let disk = self.disk_for(obj ^ 0x5555_aaaa, (j % 3) as usize);
            let batch = self.cfg.ec_meta_size * self.cfg.ec_meta_merge.min(issues);
            let d = self.wal_write(now, disk, batch);
            done = done.max(d);
        }
        self.issued.write_ops += issues;
        self.issued.write_bytes += issues * self.cfg.ec_meta_size;
        for _ in 0..issues {
            self.issued_write_sizes.record(self.cfg.ec_meta_size);
        }
        done + self.cfg.server_cpu
    }

    /// Whole-object PUT under plain replication (the ablation backend the
    /// paper's footnote 5 rejects for RBD-style small writes but which is
    /// the only option when a backend cannot erasure-code): `replicas`
    /// full copies to distinct disks plus the metadata tail.
    pub fn replicated_put(&mut self, now: SimTime, obj: u64, size: u64) -> SimTime {
        let mut done = now;
        for i in 0..self.cfg.replicas {
            let disk = self.disk_for(obj, i);
            let d = self.alloc_write(now, disk, size);
            done = done.max(d);
            self.issued.write_ops += 1;
            self.issued.write_bytes += size;
            self.issued_write_sizes.record(size);
        }
        let issues = self.cfg.ec_meta_issues;
        let merged = issues.div_ceil(self.cfg.ec_meta_merge.max(1));
        for j in 0..merged {
            let disk = self.disk_for(obj ^ 0x5555_aaaa, (j % 3) as usize);
            let batch = self.cfg.ec_meta_size * self.cfg.ec_meta_merge.min(issues);
            let d = self.wal_write(now, disk, batch);
            done = done.max(d);
        }
        self.issued.write_ops += issues;
        self.issued.write_bytes += issues * self.cfg.ec_meta_size;
        done + self.cfg.server_cpu
    }

    /// RGW-style ranged GET from an erasure-coded object: reads the chunk(s)
    /// covering `len` bytes at `off`.
    pub fn ec_get_range(&mut self, now: SimTime, obj: u64, off: u64, len: u64) -> SimTime {
        let k = self.cfg.ec_k as u64;
        // Approximate the object's chunk size by assuming a 4 MiB-class
        // object when unknown; reads touch ceil(len/chunk)+boundary chunks.
        let chunk = (4u64 << 20) / k;
        let first = off / chunk;
        let last = (off + len.max(1) - 1) / chunk;
        let mut done = now;
        for c in first..=last {
            let disk = self.disk_for(obj, (c % (k + self.cfg.ec_m as u64)) as usize);
            let this = (len / (last - first + 1)).max(1);
            let pos = (mix(obj ^ c) % (1 << 34)) + off;
            let d = self.disks[disk].submit(now, IoKind::Read, pos, this);
            done = done.max(d);
            self.issued.read_ops += 1;
            self.issued.read_bytes += this;
        }
        done + self.cfg.server_cpu
    }

    /// A small metadata operation (object DELETE, HEAD, checkpoint note):
    /// one merged WAL append on one disk.
    pub fn meta_op(&mut self, now: SimTime, obj: u64) -> SimTime {
        let disk = self.disk_for(obj, 0);
        self.wal_write(now, disk, 4096) + self.cfg.server_cpu
    }

    /// Issued-I/O accounting (the paper's Figure 13 view).
    pub fn issued(&self) -> IssuedIo {
        self.issued
    }

    /// Histogram of issued backend write sizes (Figure 14 view).
    pub fn issued_write_sizes(&self) -> &SizeHistogram {
        &self.issued_write_sizes
    }

    /// Aggregate physical disk counters.
    pub fn disk_totals(&self) -> IoCounters {
        let mut total = IoCounters::default();
        for d in &self.disks {
            let c = d.counters();
            total.read_ops += c.read_ops;
            total.write_ops += c.write_ops;
            total.read_bytes += c.read_bytes;
            total.write_bytes += c.write_bytes;
            total.busy += c.busy;
        }
        total
    }

    /// Mean per-disk utilization over `elapsed` (the Figure 12 y-axis).
    pub fn mean_utilization(&self, elapsed: SimDuration) -> f64 {
        if self.disks.is_empty() || elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.disks
            .iter()
            .map(|d| d.counters().utilization(elapsed))
            .sum::<f64>()
            / self.disks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_write_issues_six_ios() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        let ack = pool.replicated_write(SimTime::ZERO, 42, 0, 16 << 10);
        assert!(ack > SimTime::ZERO);
        let io = pool.issued();
        assert_eq!(io.write_ops, 6, "3 WAL + 3 data applies");
        // Byte amplification just over 6x: 3 * (16K + overhead) + 3 * 16K.
        let amp = io.write_bytes as f64 / (16 << 10) as f64;
        assert!((6.0..7.5).contains(&amp), "byte amplification {amp}");
    }

    #[test]
    fn replicated_write_ack_is_wal_bound_not_seek_bound() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        // Prime the WAL streams so appends are recognized as sequential.
        for obj in 0..4 {
            pool.replicated_write(SimTime::ZERO, obj, 0, 16 << 10);
        }
        let t = SimTime::from_secs(1);
        let ack = pool.replicated_write(t, 2, 0, 16 << 10);
        // Sequential WAL commit on an idle HDD is well under a full seek.
        assert!(
            ack.since(t) < SimDuration::from_millis(2),
            "ack latency {}",
            ack.since(t)
        );
    }

    #[test]
    fn ec_put_issues_sixty_four_ios_per_4mib_object() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        pool.ec_put(SimTime::ZERO, 7, 4 << 20);
        let io = pool.issued();
        assert_eq!(io.write_ops, 6 + 58, "k+m chunks plus 58 metadata issues");
        // 6 chunks of 1 MiB + small metadata: ~6.25 MiB per 4 MiB object.
        let amp = io.write_bytes as f64 / (4 << 20) as f64;
        assert!((1.5..1.7).contains(&amp), "EC byte amplification {amp}");
    }

    #[test]
    fn ec_chunk_writes_cluster_around_one_mib() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        for obj in 0..8 {
            pool.ec_put(SimTime::from_secs(obj), obj, 4 << 20);
        }
        // The byte-weighted histogram must be dominated by the 1 MiB bin.
        let hist = pool.issued_write_sizes();
        let mib_bin_bytes: u64 = hist
            .iter()
            .filter(|(lb, _, _)| *lb == (1 << 20))
            .map(|(_, _, b)| b)
            .sum();
        assert!(
            mib_bin_bytes as f64 > 0.9 * (8 * (4 << 20)) as f64,
            "1 MiB bin holds the data: {mib_bin_bytes}"
        );
    }

    #[test]
    fn lsvd_vs_rbd_efficiency_ratio() {
        // The headline §4.5 comparison: per 16 KiB client write, RBD issues
        // 6 backend I/Os while LSVD (batching 256 writes per 4 MiB object)
        // issues 64/256 = 0.25 — a 24x difference.
        let mut rbd = BackendPool::new(PoolConfig::hdd_config2());
        for i in 0..256 {
            rbd.replicated_write(SimTime::ZERO, i % 20, 0, 16 << 10);
        }
        let rbd_per_write = rbd.issued().write_ops as f64 / 256.0;

        let mut lsvd = BackendPool::new(PoolConfig::hdd_config2());
        lsvd.ec_put(SimTime::ZERO, 1, 4 << 20); // 256 coalesced 16 KiB writes
        let lsvd_per_write = lsvd.issued().write_ops as f64 / 256.0;

        assert!((rbd_per_write - 6.0).abs() < 1e-9);
        assert!((lsvd_per_write - 0.25).abs() < 1e-9);
    }

    #[test]
    fn disk_busy_time_reflects_deferred_applies() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        let ack = pool.replicated_write(SimTime::ZERO, 9, 0, 16 << 10);
        let totals = pool.disk_totals();
        // Busy time extends beyond the ack because data applies continue.
        assert!(totals.busy.as_nanos() > ack.since(SimTime::ZERO).as_nanos());
        assert_eq!(totals.write_ops, 6);
    }

    #[test]
    fn utilization_grows_with_load() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        let mut now = SimTime::ZERO;
        for i in 0..2000 {
            pool.replicated_write(now, i % 100, 0, 16 << 10);
            now += SimDuration::from_micros(300);
        }
        let elapsed = now.since(SimTime::ZERO);
        let util = pool.mean_utilization(elapsed);
        // 3333 writes/s * ~3.4 ms disk-busy per write / 62 disks ~ 18%.
        assert!(util > 0.15, "heavily loaded pool should be busy: {util}");
        assert!(util <= 1.0);
    }

    #[test]
    fn disk_selection_is_deterministic_and_distinct() {
        let pool = BackendPool::new(PoolConfig::hdd_config2());
        for obj in 0..50 {
            let set: Vec<usize> = (0..3).map(|i| pool.disk_for(obj, i)).collect();
            assert_eq!(
                set,
                (0..3).map(|i| pool.disk_for(obj, i)).collect::<Vec<_>>()
            );
            assert!(
                set[0] != set[1] && set[1] != set[2] && set[0] != set[2],
                "replicas must land on distinct disks: {set:?}"
            );
        }
    }

    #[test]
    fn ec_get_range_small_read_touches_one_chunk() {
        let mut pool = BackendPool::new(PoolConfig::hdd_config2());
        pool.ec_get_range(SimTime::ZERO, 3, 100 << 10, 64 << 10);
        assert_eq!(pool.issued().read_ops, 1);
        let mut pool2 = BackendPool::new(PoolConfig::hdd_config2());
        pool2.ec_get_range(SimTime::ZERO, 3, 0, 4 << 20);
        assert!(
            pool2.issued().read_ops >= 4,
            "full-object read spans chunks"
        );
    }

    #[test]
    fn meta_op_is_cheap() {
        let mut pool = BackendPool::new(PoolConfig::ssd_config1());
        let done = pool.meta_op(SimTime::ZERO, 11);
        assert!(done.since(SimTime::ZERO) < SimDuration::from_millis(1));
    }
}
