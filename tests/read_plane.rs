//! Integration: the concurrent read plane.
//!
//! The read plane's contract has four parts, each tested end-to-end here:
//!
//! 1. **Lock split** — cache-hit reads run under the plane's shared lock
//!    and never touch the volume mutex, so they complete while a mutation
//!    holds that mutex (directly on [`SharedVolume`] and through the NBD
//!    serving plane);
//! 2. **Single-flight miss fetch** — concurrent misses on the same
//!    backend object coalesce into one ranged GET, and a read whose
//!    backend phase finishes on another thread counts once;
//! 3. **Admission** — a long sequential scan bypasses read-cache
//!    admission, so it cannot evict the hot set (with admission disabled,
//!    it demonstrably does); a random miss admits a whole prefetch window
//!    only when the window holds co-written data or the read continues a
//!    stream, so random misses on a bulk-written image leave the hot set
//!    cached;
//! 4. **Durability independence** — read-plane state (the read-cache
//!    region, map metadata included) can be arbitrarily corrupted across
//!    a crash without affecting recovered data: durability flows only
//!    from the write-back log and the backend.
//!
//! Plus a property test of the read cache itself: wrap-around eviction
//! against a per-sector model, and persist/reload fidelity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use blkdev::{BlockDevice, RamDisk};
use lsvd::config::VolumeConfig;
use lsvd::extent_map::Segment;
use lsvd::rcache::ReadCache;
use lsvd::read_plane::ReadStart;
use lsvd::shared::SharedVolume;
use lsvd::types::SECTOR;
use lsvd::volume::Volume;
use objstore::{LatencyStore, MemStore, ObjectStore};
use proptest::prelude::*;

fn shared_volume(cfg: VolumeConfig) -> SharedVolume {
    let store = Arc::new(MemStore::new());
    let dev = Arc::new(RamDisk::new(16 << 20));
    SharedVolume::new(Volume::create(store, dev, "vol", 64 << 20, cfg).expect("create"))
}

// ---------------------------------------------------------------------
// 1. Lock split: hit reads proceed under an exclusive volume mutex.
// ---------------------------------------------------------------------

#[test]
fn cache_hit_reads_complete_while_mutation_holds_volume_mutex() {
    let sv = shared_volume(VolumeConfig::small_for_tests());
    // Half the test batch size: stays unsealed in the write cache, so the
    // reads below are wcache-map hits under the shared lock.
    sv.write(0, &[7u8; 32768]).unwrap();

    // Occupy the volume mutex (the lock every mutation serializes on) for
    // 400 ms. Reads must not queue behind it.
    let released = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Barrier::new(2));
    let holder = {
        let sv = sv.clone();
        let released = released.clone();
        let gate = gate.clone();
        std::thread::spawn(move || {
            sv.with_volume(|_| {
                gate.wait();
                std::thread::sleep(Duration::from_millis(400));
                released.store(true, Ordering::Release);
            })
            .unwrap();
        })
    };
    gate.wait();

    let mut readers = Vec::new();
    for t in 0..4u64 {
        let sv = sv.clone();
        let released = released.clone();
        readers.push(std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            sv.read(t * 4096, &mut buf).unwrap();
            assert_eq!(buf, [7u8; 4096]);
            let b = sv.read_bytes(t * 4096, 4096).unwrap();
            assert_eq!(&b[..], &[7u8; 4096][..]);
            // The mutex holder is still inside its critical section.
            assert!(
                !released.load(Ordering::Acquire),
                "read waited for the volume mutex"
            );
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    holder.join().unwrap();

    let stats = sv.with_volume(|v| v.read_plane_stats()).unwrap();
    assert!(stats.shared_lock_acqs >= 8, "reads took the shared lock");
    assert!(stats.hit_reads >= 8, "warm reads were cache hits");
    sv.shutdown().unwrap();
}

#[test]
fn nbd_reads_complete_while_mutation_holds_volume_mutex() {
    let sv = shared_volume(VolumeConfig::small_for_tests());
    let handle = nbd::serve(
        "127.0.0.1:0",
        "vol",
        sv.clone(),
        nbd::server::ServerConfig::default(),
    )
    .expect("bind server");
    let addr = handle.addr();

    // Warm through one connection.
    let mut warm = nbd::Client::connect(addr, "vol").unwrap();
    warm.write(0, &[5u8; 32768]).unwrap();
    warm.flush().unwrap();
    let mut buf = [0u8; 32768];
    warm.read(0, &mut buf).unwrap();
    assert_eq!(buf, [5u8; 32768]);

    // Open the reader connections *before* grabbing the mutex: connection
    // setup itself notes a trace event under the volume lock, and the
    // point here is the READ data path, which never takes it.
    let mut conns = Vec::new();
    for _ in 0..3 {
        conns.push(nbd::Client::connect(addr, "vol").unwrap());
    }

    // Hold the volume mutex server-side; reads on the established
    // connections must still be answered.
    let released = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Barrier::new(2));
    let holder = {
        let sv = sv.clone();
        let released = released.clone();
        let gate = gate.clone();
        std::thread::spawn(move || {
            sv.with_volume(|_| {
                gate.wait();
                std::thread::sleep(Duration::from_millis(500));
                released.store(true, Ordering::Release);
            })
            .unwrap();
        })
    };
    gate.wait();

    let mut readers = Vec::new();
    for (t, mut c) in conns.into_iter().enumerate() {
        let released = released.clone();
        readers.push(std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            c.read(t as u64 * 4096, &mut buf).unwrap();
            assert_eq!(buf, [5u8; 4096]);
            assert!(
                !released.load(Ordering::Acquire),
                "NBD read waited for the volume mutex"
            );
            c.disconnect().unwrap();
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    holder.join().unwrap();

    drop(warm);
    handle.stop();
    sv.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// 2. Single-flight miss fetch.
// ---------------------------------------------------------------------

#[test]
fn concurrent_misses_on_one_object_coalesce_into_one_fetch() {
    // A slow backend GET (30 ms) gives every thread time to pile onto the
    // leader's in-flight fetch.
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::ZERO,
        Duration::from_millis(30),
    ));
    let dev = Arc::new(RamDisk::new(16 << 20));
    let sv = SharedVolume::new(
        Volume::create(store, dev, "vol", 64 << 20, VolumeConfig::small_for_tests())
            .expect("create"),
    );

    // Flush pushes the data to the backend and clears the write-cache
    // map, so the next read of it is a genuine backend miss.
    sv.write(0, &[9u8; 262144]).unwrap();
    sv.flush().unwrap();

    const THREADS: usize = 8;
    let start = Arc::new(Barrier::new(THREADS));
    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let sv = sv.clone();
        let start = start.clone();
        joins.push(std::thread::spawn(move || {
            start.wait();
            let b = sv.read_bytes(0, 4096).unwrap();
            assert_eq!(&b[..], &[9u8; 4096][..]);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let stats = sv.with_volume(|v| v.read_plane_stats()).unwrap();
    assert!(
        stats.singleflight_waits >= 1,
        "no reader parked on the in-flight fetch: {stats:?}"
    );
    assert!(
        stats.singleflight_shared >= 1,
        "no reader was served from the leader's window: {stats:?}"
    );
    assert!(
        stats.backend_gets < THREADS as u64,
        "every reader issued its own GET: {stats:?}"
    );

    // Readers of different blocks in one single-extent object: a window
    // holds no co-written data, so its leader admits only its own block,
    // and each follower served from that window admits its own. Each
    // reads half a block, so no read continues another's stream (a stream
    // would admit its whole window).
    const SPREAD: u64 = 2 << 20;
    let half = |k: u64| vec![0x40 + k as u8; 2048];
    let mut object = vec![0u8; 65536];
    for k in 0..THREADS as u64 {
        object[(k * 4096) as usize..][..2048].copy_from_slice(&half(k));
    }
    sv.write(SPREAD, &object).unwrap();
    sv.with_volume(|v| v.drain()).unwrap().unwrap();
    let before = sv.with_volume(|v| v.read_plane_stats()).unwrap();
    let mut joins = Vec::new();
    for k in 0..THREADS as u64 {
        let sv = sv.clone();
        let start = start.clone();
        joins.push(std::thread::spawn(move || {
            start.wait();
            let b = sv.read_bytes(SPREAD + k * 4096, 2048).unwrap();
            assert_eq!(&b[..], &half(k)[..]);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mid = sv.with_volume(|v| v.read_plane_stats()).unwrap();
    assert!(
        mid.singleflight_shared > before.singleflight_shared,
        "no reader of another block was served from a leader's window: {mid:?}"
    );
    for k in 0..THREADS as u64 {
        let b = sv.read_bytes(SPREAD + k * 4096, 2048).unwrap();
        assert_eq!(&b[..], &half(k)[..]);
    }
    let after = sv.with_volume(|v| v.read_plane_stats()).unwrap();
    assert_eq!(
        (
            after.hit_reads - mid.hit_reads,
            after.backend_gets - mid.backend_gets
        ),
        (THREADS as u64, 0),
        "(re-read hits, GETs): every reader's block entered the cache"
    );

    // A read deferred past its local phase and finished on another
    // thread counts as one read, in every counter.
    sv.write(1 << 20, &[3u8; 65536]).unwrap();
    sv.with_volume(|v| v.drain()).unwrap().unwrap();
    let counts = || {
        let (plane, rcache, snap) = sv
            .with_volume(|v| (v.read_plane_stats(), v.read_cache_stats(), v.telemetry()))
            .unwrap();
        (
            plane.reads,
            plane.hit_reads,
            plane.miss_reads,
            snap.ops.read.count,
            rcache.miss_sectors,
        )
    };
    let before = counts();
    let ReadStart::Pending(read) = sv.start_read(1 << 20, 4096, 0, 0).unwrap() else {
        panic!("a drained block was served locally");
    };
    let data = std::thread::spawn(move || read.finish())
        .join()
        .unwrap()
        .unwrap();
    assert_eq!(&data[..], &[3u8; 4096][..]);
    let after = counts();
    assert_eq!(
        (
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            after.3 - before.3,
            after.4 - before.4,
        ),
        (1, 0, 1, 1, 8),
        "(reads, hit_reads, miss_reads, read latency samples, rcache miss sectors)"
    );
    sv.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// 3. Scan-resistant admission.
// ---------------------------------------------------------------------

const HOT_BYTES: u64 = 1 << 20;
const SCAN_BASE: u64 = 8 << 20;
const SCAN_BYTES: u64 = 40 << 20;
const CHUNK: u64 = 32 << 10;

/// Writes a 1 MiB hot set and a 40 MiB scan region, warms the hot set
/// into the read cache, streams the scan region once, then re-reads the
/// hot set (shuffled, so it never looks sequential) and returns its
/// read-cache hit ratio over that final pass.
fn run_scan_workload(scan_bypass_bytes: u64) -> (f64, u64) {
    let cfg = VolumeConfig {
        batch_bytes: 1 << 20,
        prefetch_bytes: 32 << 10,
        checkpoint_interval: 16,
        scan_bypass_bytes,
        ..VolumeConfig::default()
    };
    let store = Arc::new(MemStore::new());
    // 16 MiB cache device → ~12.7 MiB read cache: larger than the hot
    // set plus the pre-detection head of the scan, much smaller than the
    // whole scan.
    let dev = Arc::new(RamDisk::new(16 << 20));
    let mut vol = Volume::create(store, dev, "vol", 64 << 20, cfg).expect("create");

    let chunk = vec![0xA5u8; (1 << 20) as usize];
    vol.write(0, &chunk[..HOT_BYTES as usize]).unwrap();
    let mut off = SCAN_BASE;
    while off < SCAN_BASE + SCAN_BYTES {
        vol.write(off, &chunk).unwrap();
        off += 1 << 20;
    }
    vol.flush().unwrap();

    // A fixed permutation of the hot set's 32 KiB chunks (LCG walk over
    // the 32 chunk indices; 37 and 32 are coprime, so it visits each
    // exactly once) — shuffled access defeats the stream detector.
    let chunks = (HOT_BYTES / CHUNK) as usize;
    let order: Vec<u64> = (0..chunks as u64)
        .map(|i| (i * 37 + 11) % chunks as u64)
        .collect();
    let mut buf = vec![0u8; CHUNK as usize];

    // Warm pass: populates the read cache.
    for &c in &order {
        vol.read(c * CHUNK, &mut buf).unwrap();
    }

    // The scan: one long sequential stream through 40 MiB.
    let mut scan_buf = vec![0u8; (256 << 10) as usize];
    let mut off = SCAN_BASE;
    while off < SCAN_BASE + SCAN_BYTES {
        vol.read(off, &mut scan_buf).unwrap();
        off += scan_buf.len() as u64;
    }

    // Measured pass over the hot set.
    let before = vol.read_cache_stats();
    for &c in &order {
        vol.read(c * CHUNK, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xA5));
    }
    let after = vol.read_cache_stats();
    let hits = after.hit_sectors - before.hit_sectors;
    let misses = after.miss_sectors - before.miss_sectors;
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    let bypassed = vol.read_plane_stats().bypassed_sectors;
    vol.shutdown().unwrap();
    (ratio, bypassed)
}

#[test]
fn scan_resistant_admission_protects_the_hot_set() {
    let (with_admission, bypassed_on) = run_scan_workload(2 << 20);
    let (without_admission, bypassed_off) = run_scan_workload(0);

    assert!(
        bypassed_on > 0,
        "the scan never tripped the admission bypass"
    );
    assert_eq!(bypassed_off, 0, "bypass fired with admission disabled");
    assert!(
        with_admission >= 0.8,
        "hot-set hit ratio collapsed despite admission control: {with_admission:.2}"
    );
    assert!(
        without_admission < with_admission && without_admission < 0.5,
        "disabling admission should let the scan evict the hot set: \
         on={with_admission:.2} off={without_admission:.2}"
    );
}

// ---------------------------------------------------------------------
// 3b. Window admission: co-written data, streams, and spatial neighbours.
// ---------------------------------------------------------------------

const BLOCK: u64 = 4096;

/// Every block's contents: its index, so reads can be checked.
fn block_data(block: u64) -> Vec<u8> {
    let mut data = vec![block as u8; BLOCK as usize];
    data[..8].copy_from_slice(&block.to_le_bytes());
    data
}

/// A volume on a 16 MiB cache device (≈12.6 MiB of read cache) over an
/// image of `bytes` bulk-loaded in 1 MiB writes, one write per object, so
/// every object is one extent. Drained, so every read of it misses.
fn bulk_volume(bytes: u64) -> Volume {
    let cfg = VolumeConfig {
        batch_bytes: 1 << 20,
        gc_enabled: false,
        ..VolumeConfig::default()
    };
    let store = Arc::new(MemStore::new());
    let dev = Arc::new(RamDisk::new(16 << 20));
    let mut vol = Volume::create(store, dev, "vol", bytes, cfg).expect("create");
    let per_write = (1 << 20) / BLOCK;
    for first in (0..bytes / BLOCK).step_by(per_write as usize) {
        let chunk: Vec<u8> = (first..first + per_write).flat_map(block_data).collect();
        vol.write(first * BLOCK, &chunk).unwrap();
    }
    vol.drain().unwrap();
    vol
}

fn read_block(vol: &mut Volume, block: u64) {
    let mut buf = vec![0u8; BLOCK as usize];
    vol.read(block * BLOCK, &mut buf).unwrap();
    assert_eq!(buf, block_data(block), "block {block}");
}

#[test]
fn random_misses_on_a_bulk_image_leave_the_hot_set_cached() {
    const IMAGE_BLOCKS: u64 = 16_384; // 64 MiB
    const HOT: u64 = 256; // 1 MiB

    // 768 cold misses: 192 MiB at 256 KiB per window, over 15 times the
    // read cache; 3 MiB at 4 KiB, under a quarter of it.
    const COLD: u64 = 768;
    let mut vol = bulk_volume(IMAGE_BLOCKS * BLOCK);
    // A fixed odd stride over a power-of-two image visits distinct,
    // never-adjacent blocks, so no read continues a stream.
    let scattered = |i: u64| (i * 4_099) % IMAGE_BLOCKS;

    for i in 0..HOT {
        read_block(&mut vol, scattered(i));
    }
    let before = vol.read_plane_stats();
    for i in HOT..HOT + COLD {
        read_block(&mut vol, scattered(i));
    }
    let after = vol.read_plane_stats();

    let rc0 = vol.read_cache_stats();
    for i in 0..HOT {
        read_block(&mut vol, scattered(i));
    }
    let rc1 = vol.read_cache_stats();
    let hits = rc1.hit_sectors - rc0.hit_sectors;
    let misses = rc1.miss_sectors - rc0.miss_sectors;
    let ratio = hits as f64 / (hits + misses) as f64;
    assert!(
        ratio >= 0.95,
        "cold misses flushed the hot set: hit ratio {ratio:.3}"
    );
    assert_eq!(after.miss_reads - before.miss_reads, COLD);
    assert_eq!(
        after.admitted_sectors - before.admitted_sectors,
        8 * COLD,
        "each cold miss admitted just its own 4 KiB"
    );
    assert!(after.spatial_skipped_sectors > before.spatial_skipped_sectors);
    vol.shutdown().unwrap();
}

#[test]
fn an_overwritten_block_inside_a_bulk_write_keeps_its_window_spatial() {
    // Block 40 of the first 1 MiB bulk write is overwritten, so a window
    // fetched from block 36 has a dead gap with the same write's live
    // pieces on both sides: still only the read's spatial neighbours.
    let mut vol = bulk_volume(4 << 20);
    vol.write(40 * BLOCK, &block_data(40)).unwrap();
    vol.drain().unwrap();
    let before = vol.read_plane_stats();
    read_block(&mut vol, 36);
    let after = vol.read_plane_stats();
    assert_eq!(after.miss_reads - before.miss_reads, 1);
    assert_eq!(
        after.admitted_sectors - before.admitted_sectors,
        8,
        "the read's own 4 KiB, not the window"
    );
    read_block(&mut vol, 40);
    vol.shutdown().unwrap();
}

#[test]
fn co_written_blocks_arrive_with_the_first_miss() {
    // 64 scattered 4 KiB writes sealed into one 256 KiB object.
    let cfg = VolumeConfig {
        batch_bytes: 64 * BLOCK,
        gc_enabled: false,
        ..VolumeConfig::default()
    };
    let store = Arc::new(MemStore::new());
    let mut vol = Volume::create(
        store.clone(),
        Arc::new(RamDisk::new(16 << 20)),
        "vol",
        64 << 20,
        cfg.clone(),
    )
    .expect("create");
    let blocks: Vec<u64> = (0..64u64).map(|i| (i * 37 % 64) * 3 + 5).collect();
    for &b in &blocks {
        vol.write(b * BLOCK, &block_data(b)).unwrap();
    }
    vol.shutdown().unwrap();

    // Reopen on a fresh cache device: nothing is cached.
    let mut vol = Volume::open(store, Arc::new(RamDisk::new(16 << 20)), "vol", cfg).expect("open");
    let lowest = *blocks.iter().min().unwrap();
    read_block(&mut vol, lowest);
    assert_eq!(vol.read_plane_stats().backend_gets, 1);
    for &b in blocks.iter().filter(|&&b| b != lowest) {
        read_block(&mut vol, b);
    }
    let stats = vol.read_plane_stats();
    assert_eq!(
        (stats.backend_gets, stats.hit_reads),
        (1, 63),
        "the first miss's window brought every co-written block"
    );
    vol.shutdown().unwrap();
}

#[test]
fn cold_misses_on_distinct_objects_cost_one_get_each() {
    // One 4 KiB block per backend object. The object map gives each miss
    // its object and offset, and the object table the object's size, so
    // a cold miss is one ranged GET: no HEAD, no header GET.
    const OBJECTS: u64 = 64;
    let cfg = VolumeConfig {
        batch_bytes: BLOCK,
        gc_enabled: false,
        ..VolumeConfig::small_for_tests()
    };
    let store = Arc::new(MemStore::new());
    let mut vol = Volume::create(
        store.clone(),
        Arc::new(RamDisk::new(16 << 20)),
        "vol",
        64 << 20,
        cfg.clone(),
    )
    .expect("create");
    for b in 0..OBJECTS {
        vol.write(b * 7 * BLOCK, &block_data(b * 7)).unwrap();
    }
    vol.shutdown().unwrap();

    let mut vol = Volume::open(store, Arc::new(RamDisk::new(16 << 20)), "vol", cfg).expect("open");
    let before = vol.telemetry().backend;
    for b in 0..OBJECTS {
        read_block(&mut vol, b * 7);
    }
    let after = vol.telemetry().backend;
    assert_eq!(
        (
            after.get.count - before.get.count,
            after.head.count - before.head.count
        ),
        (OBJECTS, 0),
        "GETs and HEADs for {OBJECTS} cold misses on {OBJECTS} objects"
    );
    assert_eq!(vol.read_plane_stats().miss_reads, OBJECTS);
    vol.shutdown().unwrap();
}

#[test]
fn a_sequential_stream_still_prefetches_whole_windows() {
    let mut vol = bulk_volume(4 << 20);
    // 1 MiB straight through one bulk extent, 4 KiB at a time.
    for b in 0..(1 << 20) / BLOCK {
        read_block(&mut vol, b);
    }
    let gets = vol.read_plane_stats().backend_gets;
    assert!(
        gets <= (1 << 20) / (256 << 10) + 1,
        "{gets} GETs: the stream did not admit whole windows"
    );
    vol.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// 4. Durability never leans on read-plane state.
// ---------------------------------------------------------------------

#[test]
fn poisoned_read_cache_region_never_corrupts_recovered_data() {
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let mut vol = Volume::create(
        store.clone(),
        cache.clone(),
        "vol",
        64 << 20,
        VolumeConfig::small_for_tests(),
    )
    .expect("create");

    // Flushed data (recovered from the backend) ...
    for i in 0..64u64 {
        vol.write(i * 65536, &[i as u8 + 1; 65536]).unwrap();
    }
    vol.flush().unwrap();
    // ... warm the read cache with some of it ...
    let mut buf = vec![0u8; 65536];
    for i in 0..16u64 {
        vol.read(i * 65536, &mut buf).unwrap();
    }
    // ... plus acknowledged-but-unflushed data (recovered from the
    // write-back log).
    for i in 0..8u64 {
        vol.write((64 + i) * 65536, &[0xB0 + i as u8; 65536])
            .unwrap();
    }

    let (lo, hi) = vol.read_cache_region();
    drop(vol); // crash

    // Scribble 0xFF over the whole read-cache region — persisted map
    // metadata and cached data alike.
    let poison = vec![0xFFu8; ((hi - lo) * SECTOR) as usize];
    cache.write_at(lo * SECTOR, &poison).unwrap();

    let mut vol = Volume::open(store, cache, "vol", VolumeConfig::small_for_tests())
        .expect("recovery ignores read-plane state");
    for i in 0..64u64 {
        vol.read(i * 65536, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == i as u8 + 1),
            "flushed chunk {i} corrupted by poisoned read cache"
        );
    }
    for i in 0..8u64 {
        vol.read((64 + i) * 65536, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0xB0 + i as u8),
            "unflushed chunk {i} lost or corrupted"
        );
    }
    vol.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// 5. Read-cache wrap-around + persist/reload, against a model.
// ---------------------------------------------------------------------

fn rcache_ops() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    // (lba, sectors, fill byte); enough inserts to wrap a 256-sector
    // cache several times over.
    prop::collection::vec((0u64..2000, 1u64..16, 0u8..255), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rcache_wraparound_and_persist_reload_serve_only_fresh_data(ops in rcache_ops()) {
        const REGION_START: u64 = 8;
        // The smallest (64-sector) persisted-map area + 256 usable.
        const REGION_SECTORS: u64 = 64 + 256;
        let dev: Arc<dyn BlockDevice> =
            Arc::new(RamDisk::new((REGION_START + REGION_SECTORS + 8) * SECTOR));
        let mut rc = ReadCache::new(dev.clone(), REGION_START, REGION_SECTORS);

        // Model: last fill byte written per LBA. Eviction may *forget*
        // sectors (a resolve hole), but anything still mapped must serve
        // the model's byte — wrap-around must never alias stale extents.
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(lba, sectors, fill) in &ops {
            let data = vec![fill; (sectors * SECTOR) as usize];
            rc.insert(lba, &data).unwrap();
            for s in 0..sectors {
                model.insert(lba + s, fill);
            }
        }

        let check = |rc: &ReadCache| -> Result<(), TestCaseError> {
            for lba in 0..2020u64 {
                for seg in rc.resolve(lba, 1) {
                    if let Segment::Mapped { val, .. } = seg {
                        let mut sect = vec![0u8; SECTOR as usize];
                        rc.read_cached(val, 1, &mut sect).unwrap();
                        let want = model.get(&lba).copied();
                        prop_assert_eq!(
                            Some(sect[0]), want,
                            "lba {} served stale or unknown data", lba
                        );
                        prop_assert!(sect.iter().all(|&b| Some(b) == want));
                    }
                }
            }
            Ok(())
        };
        check(&rc)?;

        // Persist, reload, and re-verify: the reloaded cache serves the
        // same (still fresh) data and kept the same extent population.
        rc.persist().unwrap();
        let extents = rc.cached_extents();
        let reloaded = ReadCache::load(dev, REGION_START, REGION_SECTORS);
        prop_assert_eq!(reloaded.cached_extents(), extents);
        check(&reloaded)?;
    }
}
