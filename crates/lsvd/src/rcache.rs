//! The SSD read cache (§3.1).
//!
//! A separate read cache keeps backend data close by without complicating
//! the write path: LSVD always serves reads from the write-back cache
//! first, so the read cache never has to worry about write-after-read
//! hazards beyond simple invalidation. Matching the prototype (§3.7), the
//! read cache reuses the log-structured layout with FIFO replacement: data
//! is appended at a head pointer and the oldest entries are evicted when
//! space runs out. Loss of read-cache contents never affects correctness,
//! so no metadata is logged (§3.2).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blkdev::BlockDevice;

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32c_field_zeroed;
use crate::extent_map::{ExtentMap, Segment};
use crate::types::{bytes_to_sectors, Lba, Plba, Result, SECTOR};

/// "LSR2": a length-prefixed snapshot in a region-sized reserved area.
/// The fixed 64-sector layout before it ("LSRM") loads cold.
const META_MAGIC: u32 = 0x4C53_5232;
/// Snapshot header: magic, CRC, length, head, map and entry counts.
const META_HDR_BYTES: u64 = 28;
/// The reserved area is never smaller than this many sectors.
const META_MIN_SECTORS: u64 = 64;

/// Bytes of a snapshot of `map` map extents (lba, sectors, plba: 24
/// bytes each) and `entries` ring entries (plba, sectors, flag, lba: 25).
fn snapshot_len(map: usize, entries: usize) -> u64 {
    META_HDR_BYTES + map as u64 * 24 + entries as u64 * 25
}

/// Sectors reserved at the front of a `region_sectors` region for the
/// persisted map: room for one extent per 4 KiB of the region, about
/// 1.2 % of it, so a cache full of 4 KiB entries still persists.
fn meta_sectors(region_sectors: u64) -> u64 {
    let extents = (region_sectors / 8) as usize;
    snapshot_len(extents, extents)
        .div_ceil(SECTOR)
        .max(META_MIN_SECTORS)
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    plba: Plba,
    sectors: u64,
    /// The vLBA this entry caches, or `None` for a dead wrap fragment.
    lba: Option<Lba>,
}

/// Read-cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCacheStats {
    /// Sectors served from the read cache.
    pub hit_sectors: u64,
    /// Sectors that missed and had to be fetched.
    pub miss_sectors: u64,
    /// Sectors inserted: each miss's own sectors, plus the rest of its
    /// prefetch window when that window is admitted whole.
    pub inserted_sectors: u64,
    /// Sectors evicted.
    pub evicted_sectors: u64,
}

impl ReadCacheStats {
    /// Hit fraction in `[0, 1]` (0.0 before any lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hit_sectors + self.miss_sectors;
        if total == 0 {
            0.0
        } else {
            self.hit_sectors as f64 / total as f64
        }
    }
}

/// Internal counters behind [`ReadCacheStats`]. Atomic because hit reads
/// run under the read plane's *shared* lock: many readers bump them
/// concurrently while structural mutations stay behind `&mut self`.
#[derive(Debug, Default)]
struct StatCells {
    hit_sectors: AtomicU64,
    miss_sectors: AtomicU64,
    inserted_sectors: AtomicU64,
    evicted_sectors: AtomicU64,
}

/// A FIFO log-structured read cache over a region of the cache SSD.
pub struct ReadCache {
    dev: Arc<dyn BlockDevice>,
    /// First sector of the region: the persisted map's reserved area.
    meta_start: u64,
    /// First data sector, just past the reserved area.
    region_start: u64,
    region_end: u64,
    head: Plba,
    entries: VecDeque<Entry>,
    used: u64,
    map: ExtentMap<Plba>,
    stats: StatCells,
}

impl ReadCache {
    /// Creates an empty read cache over
    /// `[region_start, region_start+region_sectors)` of `dev`. The first
    /// sectors of the region are reserved for the persisted map.
    pub fn new(dev: Arc<dyn BlockDevice>, region_start: u64, region_sectors: u64) -> Self {
        let meta = meta_sectors(region_sectors);
        assert!(region_sectors >= meta + 8, "read cache region too small");
        ReadCache {
            dev,
            meta_start: region_start,
            region_start: region_start + meta,
            region_end: region_start + region_sectors,
            head: region_start + meta,
            entries: VecDeque::new(),
            used: 0,
            map: ExtentMap::new(),
            stats: StatCells::default(),
        }
    }

    /// Persists the map and entry ring to the reserved metadata sectors so
    /// a clean restart serves hits without re-fetching (§3.2: "the read
    /// cache map is periodically persisted to SSD"). Writes only the
    /// sectors the snapshot fills. Skipped (harmlessly) when the map is too
    /// large for the reserved area.
    pub fn persist(&self) -> Result<()> {
        let len = snapshot_len(self.map.len(), self.entries.len());
        let room = (self.region_start - self.meta_start) * SECTOR;
        if len > room.min(u32::MAX as u64) {
            // Too big: invalidate any previous snapshot instead.
            let zero = vec![0u8; SECTOR as usize];
            self.dev.write_at(self.meta_start * SECTOR, &zero)?;
            return Ok(());
        }
        let mut w = ByteWriter::with_capacity(len.next_multiple_of(SECTOR) as usize);
        w.u32(META_MAGIC);
        w.u32(0); // CRC, patched below
        w.u32(len as u32);
        w.u64(self.head);
        w.u32(self.map.len() as u32);
        w.u32(self.entries.len() as u32);
        for (lba, sectors, plba) in self.map.iter() {
            w.u64(lba);
            w.u64(sectors);
            w.u64(plba);
        }
        for e in &self.entries {
            w.u64(e.plba);
            w.u64(e.sectors);
            match e.lba {
                Some(l) => {
                    w.u8(1);
                    w.u64(l);
                }
                None => {
                    w.u8(0);
                    w.u64(0);
                }
            }
        }
        debug_assert_eq!(w.len() as u64, len);
        let crc = crc32c_field_zeroed(w.as_slice(), 4);
        w.patch_u32(4, crc);
        w.pad_to(len.next_multiple_of(SECTOR) as usize);
        self.dev.write_at(self.meta_start * SECTOR, w.as_slice())?;
        Ok(())
    }

    /// Opens a read cache, restoring the persisted map if a valid snapshot
    /// exists; otherwise starts empty. Loss of read-cache state never
    /// affects correctness.
    ///
    /// The snapshot is **one-shot**: it is erased as soon as it is loaded,
    /// because it only describes the cache as of the previous *clean*
    /// shutdown — after any subsequent writes, reloading it following a
    /// crash would resurrect overwritten data. A clean shutdown writes a
    /// fresh snapshot via [`ReadCache::persist`].
    pub fn load(dev: Arc<dyn BlockDevice>, region_start: u64, region_sectors: u64) -> Self {
        let mut rc = Self::new(dev, region_start, region_sectors);
        let room = (rc.region_start - rc.meta_start) * SECTOR;
        let ok = (|| -> Result<bool> {
            // The first sector gives the snapshot's length; read just that.
            let mut first = vec![0u8; SECTOR as usize];
            rc.dev.read_at(region_start * SECTOR, &mut first)?;
            let mut r = ByteReader::new(&first);
            if r.u32()? != META_MAGIC {
                return Ok(false);
            }
            r.u32()?;
            let len = r.u32()? as u64;
            if !(META_HDR_BYTES..=room).contains(&len) {
                return Ok(false);
            }
            let mut buf = vec![0u8; len.next_multiple_of(SECTOR) as usize];
            rc.dev.read_at(region_start * SECTOR, &mut buf)?;
            let buf = &buf[..len as usize];
            let mut r = ByteReader::new(buf);
            r.u32()?;
            let stored = r.u32()?;
            r.u32()?;
            if crc32c_field_zeroed(buf, 4) != stored {
                return Ok(false);
            }
            let head = r.u64()?;
            let n_map = r.u32()? as usize;
            let n_entries = r.u32()? as usize;
            if snapshot_len(n_map, n_entries) != len {
                return Ok(false);
            }
            // The snapshot was written by iterating the map, so the triples
            // are address-ordered, disjoint and maximal: bulk_load's O(n)
            // fast path applies.
            let mut triples = Vec::with_capacity(n_map);
            for _ in 0..n_map {
                let lba = r.u64()?;
                let sectors = r.u64()?;
                let plba = r.u64()?;
                triples.push((lba, sectors, plba));
            }
            let map = ExtentMap::bulk_load(triples);
            let mut entries = VecDeque::with_capacity(n_entries);
            let mut used = 0;
            for _ in 0..n_entries {
                let plba = r.u64()?;
                let sectors = r.u64()?;
                let has = r.u8()? != 0;
                let lba = r.u64()?;
                used += sectors;
                entries.push_back(Entry {
                    plba,
                    sectors,
                    lba: has.then_some(lba),
                });
            }
            rc.head = head;
            rc.map = map;
            rc.entries = entries;
            rc.used = used;
            Ok(true)
        })()
        .unwrap_or(false);
        if !ok {
            // Anything invalid: start cold.
            return Self::new(rc.dev.clone(), region_start, region_sectors);
        }
        // One-shot: a crash after this point must not reload the snapshot.
        let zero = vec![0u8; SECTOR as usize];
        if rc.dev.write_at(region_start * SECTOR, &zero).is_err() || rc.dev.flush().is_err() {
            // If we cannot erase it, do not trust it either.
            return Self::new(rc.dev.clone(), region_start, region_sectors);
        }
        rc
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.region_end - self.region_start
    }

    /// The full device region `[start_sector, end_sector)` this cache owns,
    /// including the reserved metadata sectors. Introspection for tests and
    /// tools that want to prove read-cache state is not consulted for
    /// durability (e.g. by scribbling over it between crash and recovery).
    pub fn region_sectors(&self) -> (u64, u64) {
        (self.meta_start, self.region_end)
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReadCacheStats {
        ReadCacheStats {
            hit_sectors: self.stats.hit_sectors.load(Ordering::Relaxed),
            miss_sectors: self.stats.miss_sectors.load(Ordering::Relaxed),
            inserted_sectors: self.stats.inserted_sectors.load(Ordering::Relaxed),
            evicted_sectors: self.stats.evicted_sectors.load(Ordering::Relaxed),
        }
    }

    /// Number of live cached extents.
    pub fn cached_extents(&self) -> usize {
        self.map.len()
    }

    fn evict_one(&mut self) {
        let Some(e) = self.entries.pop_front() else {
            return;
        };
        self.used -= e.sectors;
        if let Some(lba) = e.lba {
            // Remove only map pieces still pointing into this entry's
            // physical range; newer overwrites of the same vLBA may point
            // elsewhere and must survive.
            let pieces = self.map.overlaps(lba, e.sectors);
            for (plo, plen, pval) in pieces {
                if pval >= e.plba && pval < e.plba + e.sectors {
                    self.map.remove(plo, plen);
                }
            }
            self.stats
                .evicted_sectors
                .fetch_add(e.sectors, Ordering::Relaxed);
        }
    }

    /// Caches `data` (sector-aligned) for `lba`; evicts FIFO as needed.
    /// Oversized inserts (bigger than the whole cache) are ignored.
    pub fn insert(&mut self, lba: Lba, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len() % SECTOR as usize, 0);
        let sectors = bytes_to_sectors(data.len() as u64);
        if sectors == 0 || sectors > self.capacity_sectors() {
            return Ok(());
        }
        // Wrap: retire the fragment at the end of the region as a dead
        // entry so FIFO accounting stays exact.
        if self.head + sectors > self.region_end {
            let waste = self.region_end - self.head;
            if waste > 0 {
                while self.used + waste > self.capacity_sectors() {
                    self.evict_one();
                }
                self.entries.push_back(Entry {
                    plba: self.head,
                    sectors: waste,
                    lba: None,
                });
                self.used += waste;
            }
            self.head = self.region_start;
        }
        while self.used + sectors > self.capacity_sectors() {
            self.evict_one();
        }
        let plba = self.head;
        self.dev.write_at(plba * SECTOR, data)?;
        self.entries.push_back(Entry {
            plba,
            sectors,
            lba: Some(lba),
        });
        self.used += sectors;
        self.head += sectors;
        self.map.insert(lba, sectors, plba);
        self.stats
            .inserted_sectors
            .fetch_add(sectors, Ordering::Relaxed);
        Ok(())
    }

    /// Drops any cached data overlapping `[lba, lba+sectors)`; called on
    /// writes so the cache can never serve stale backend data.
    pub fn invalidate(&mut self, lba: Lba, sectors: u64) {
        self.map.remove(lba, sectors);
    }

    /// Resolves a range into cached and missing segments.
    pub fn resolve(&self, lba: Lba, sectors: u64) -> Vec<Segment<Plba>> {
        self.map.resolve(lba, sectors)
    }

    /// Reads `sectors` at cached location `plba` into `buf`. Shared
    /// (`&self`): hit reads run concurrently under the read plane's shared
    /// lock; only structural mutation needs `&mut`.
    pub fn read_cached(&self, plba: Plba, sectors: u64, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len() as u64, sectors * SECTOR);
        self.dev.read_at(plba * SECTOR, buf)?;
        self.stats.hit_sectors.fetch_add(sectors, Ordering::Relaxed);
        Ok(())
    }

    /// Records that `sectors` had to be fetched from the backend.
    pub fn note_miss(&self, sectors: u64) {
        self.stats
            .miss_sectors
            .fetch_add(sectors, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blkdev::RamDisk;

    fn mk(usable_sectors: u64) -> ReadCache {
        // The region holds the smallest persisted-map area plus the
        // requested usable capacity.
        let region = usable_sectors + META_MIN_SECTORS;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new((region + 16) * SECTOR));
        ReadCache::new(dev, 16, region)
    }

    fn get(rc: &mut ReadCache, lba: Lba, sectors: u64) -> Option<Vec<u8>> {
        let segs = rc.resolve(lba, sectors);
        let mut out = Vec::new();
        for seg in segs {
            match seg {
                Segment::Mapped { len, val, .. } => {
                    let mut buf = vec![0u8; (len * SECTOR) as usize];
                    rc.read_cached(val, len, &mut buf).unwrap();
                    out.extend_from_slice(&buf);
                }
                Segment::Hole { .. } => return None,
            }
        }
        Some(out)
    }

    #[test]
    fn insert_then_hit() {
        let mut rc = mk(64);
        let data = vec![3u8; 8 * SECTOR as usize];
        rc.insert(100, &data).unwrap();
        assert_eq!(get(&mut rc, 100, 8).unwrap(), data);
        assert_eq!(rc.stats().hit_sectors, 8);
    }

    #[test]
    fn partial_hit_reports_hole() {
        let mut rc = mk(64);
        rc.insert(10, &vec![1u8; 4 * SECTOR as usize]).unwrap();
        assert!(get(&mut rc, 10, 8).is_none());
        let segs = rc.resolve(10, 8);
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn fifo_eviction_under_pressure() {
        let mut rc = mk(16);
        for i in 0..10u64 {
            rc.insert(i * 100, &vec![i as u8; 4 * SECTOR as usize])
                .unwrap();
        }
        // Capacity 16 sectors, 4 per entry: only the last 4 entries fit.
        assert!(get(&mut rc, 0, 4).is_none(), "oldest evicted");
        assert_eq!(
            get(&mut rc, 900, 4).unwrap(),
            vec![9u8; 4 * SECTOR as usize]
        );
        assert!(rc.stats().evicted_sectors >= 6 * 4);
        assert!(rc.cached_extents() <= 4);
    }

    #[test]
    fn invalidate_hides_stale_data() {
        let mut rc = mk(64);
        rc.insert(50, &vec![7u8; 8 * SECTOR as usize]).unwrap();
        rc.invalidate(52, 2);
        assert!(get(&mut rc, 50, 8).is_none());
        // Flanks still readable.
        assert_eq!(get(&mut rc, 50, 2).unwrap(), vec![7u8; 2 * SECTOR as usize]);
        assert_eq!(get(&mut rc, 54, 4).unwrap(), vec![7u8; 4 * SECTOR as usize]);
    }

    #[test]
    fn reinsert_after_invalidate_serves_new_data() {
        let mut rc = mk(64);
        rc.insert(50, &vec![1u8; 4 * SECTOR as usize]).unwrap();
        rc.invalidate(50, 4);
        rc.insert(50, &vec![2u8; 4 * SECTOR as usize]).unwrap();
        assert_eq!(get(&mut rc, 50, 4).unwrap(), vec![2u8; 4 * SECTOR as usize]);
    }

    #[test]
    fn eviction_does_not_kill_newer_mapping_of_same_lba() {
        let mut rc = mk(16);
        rc.insert(0, &vec![1u8; 4 * SECTOR as usize]).unwrap();
        rc.insert(0, &vec![2u8; 4 * SECTOR as usize]).unwrap();
        // Force eviction of the first (stale) entry.
        rc.insert(500, &vec![3u8; 4 * SECTOR as usize]).unwrap();
        rc.insert(600, &vec![4u8; 4 * SECTOR as usize]).unwrap();
        rc.insert(700, &vec![5u8; 4 * SECTOR as usize]).unwrap();
        // lba 0's *newer* copy must still be readable if it survived, or be
        // a miss — never the stale bytes.
        if let Some(v) = get(&mut rc, 0, 4) {
            assert_eq!(v, vec![2u8; 4 * SECTOR as usize]);
        }
    }

    #[test]
    fn wrap_around_stays_within_region() {
        let mut rc = mk(10);
        for i in 0..20u64 {
            rc.insert(i * 10, &vec![i as u8; 3 * SECTOR as usize])
                .unwrap();
            let v = get(&mut rc, i * 10, 3).expect("just-inserted entry readable");
            assert_eq!(v, vec![i as u8; 3 * SECTOR as usize]);
        }
    }

    #[test]
    fn persist_and_load_round_trip() {
        let region = 256 + META_MIN_SECTORS;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new((region + 16) * SECTOR));
        {
            let mut rc = ReadCache::new(dev.clone(), 16, region);
            rc.insert(100, &vec![7u8; 8 * SECTOR as usize]).unwrap();
            rc.insert(500, &vec![9u8; 4 * SECTOR as usize]).unwrap();
            rc.invalidate(102, 2);
            rc.persist().unwrap();
        }
        let mut rc = ReadCache::load(dev, 16, region);
        assert_eq!(rc.cached_extents(), 3, "map restored (with the hole)");
        assert_eq!(
            get(&mut rc, 500, 4).unwrap(),
            vec![9u8; 4 * SECTOR as usize],
            "restored hit serves the persisted data"
        );
        assert!(get(&mut rc, 100, 8).is_none(), "invalidated hole survives");
        // Ring state restored: a new insert lands after the old head and
        // does not clobber live data.
        rc.insert(900, &vec![3u8; 4 * SECTOR as usize]).unwrap();
        assert_eq!(
            get(&mut rc, 500, 4).unwrap(),
            vec![9u8; 4 * SECTOR as usize]
        );
    }

    #[test]
    fn a_cache_full_of_4k_entries_survives_persist_and_load() {
        // 2,000 scattered 4 KiB entries: a 98 KB snapshot, which the
        // region-sized reserved area holds and a fixed 64-sector one would
        // not.
        const N: u64 = 2_000;
        let region = 20_000;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new((region + 16) * SECTOR));
        {
            let mut rc = ReadCache::new(dev.clone(), 16, region);
            for i in 0..N {
                rc.insert(i * 24, &vec![i as u8; 8 * SECTOR as usize])
                    .unwrap();
            }
            assert_eq!(rc.cached_extents(), N as usize);
            rc.persist().unwrap();
        }
        let mut rc = ReadCache::load(dev, 16, region);
        assert_eq!(rc.cached_extents(), N as usize, "every entry survived");
        for i in [0, 1, N / 2, N - 1] {
            assert_eq!(
                get(&mut rc, i * 24, 8).unwrap(),
                vec![i as u8; 8 * SECTOR as usize]
            );
        }
    }

    #[test]
    fn reserved_area_follows_the_region() {
        assert_eq!(meta_sectors(256 + META_MIN_SECTORS), META_MIN_SECTORS);
        // A 200 MiB region reserves about 1.2 % of itself.
        let region = (200 << 20) / SECTOR;
        let share = meta_sectors(region) as f64 / region as f64;
        assert!((0.011..0.013).contains(&share), "{share}");
    }

    #[test]
    fn load_without_snapshot_starts_cold() {
        let region = 256 + META_MIN_SECTORS;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new((region + 16) * SECTOR));
        let rc = ReadCache::load(dev, 16, region);
        assert_eq!(rc.cached_extents(), 0);
    }

    #[test]
    fn corrupt_snapshot_starts_cold() {
        let region = 256 + META_MIN_SECTORS;
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new((region + 16) * SECTOR));
        {
            let mut rc = ReadCache::new(dev.clone(), 16, region);
            rc.insert(100, &vec![7u8; 8 * SECTOR as usize]).unwrap();
            rc.persist().unwrap();
        }
        // Flip a byte in the metadata.
        let mut sector = vec![0u8; SECTOR as usize];
        dev.read_at(16 * SECTOR, &mut sector).unwrap();
        sector[20] ^= 0xff;
        dev.write_at(16 * SECTOR, &sector).unwrap();
        let rc = ReadCache::load(dev, 16, region);
        assert_eq!(rc.cached_extents(), 0, "CRC failure -> cold start");
    }

    #[test]
    fn oversized_insert_ignored() {
        let mut rc = mk(8);
        rc.insert(0, &vec![1u8; 16 * SECTOR as usize]).unwrap();
        assert_eq!(rc.cached_extents(), 0);
    }
}
