//! Integration: data-plane copy/CRC accounting and GET verification.
//!
//! The write path's contract after the zero-copy overhaul is auditable
//! from telemetry: every payload byte is checksummed exactly once (at
//! cache-log append) and memcpy'd exactly twice (client buffer into the
//! batch, batch into the sealed object). The read path can verify backend
//! GET payloads against the per-extent CRCs sealed into object headers,
//! with the expected value folded by `crc32c_combine` rather than
//! re-scanning anything.
//!
//! `copied_bytes` is counted by hand, so it cannot see a copy nobody
//! counted. This binary's global allocator counts the heap bytes each
//! thread allocates, and the `heap_*` tests bound them per sealed byte,
//! per GET byte and per read: a payload copied into fresh memory a third
//! time shows up there. It also counts the bytes each thread still holds,
//! which bounds a map rebuilt from a checkpoint per extent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use blkdev::RamDisk;
use bytes::Bytes;
use lsvd::checkpoint::CheckpointData;
use lsvd::config::VolumeConfig;
use lsvd::extent_map::ExtentMap;
use lsvd::objmap::{ObjLoc, ObjectMap};
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use lsvd::LsvdError;
use objstore::{DirStore, MemStore, ObjectStore};

thread_local!(static HEAP_BYTES: Cell<u64> = const { Cell::new(0) });
thread_local!(static HEAP_LIVE: Cell<i64> = const { Cell::new(0) });

/// The system allocator, counting the bytes each thread allocates (a
/// reallocation counts its new size) and the bytes it holds (allocations
/// less frees).
struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        HEAP_LIVE.with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP_LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_BYTES.with(|n| n.set(n.get() + new_size as u64));
        HEAP_LIVE.with(|n| n.set(n.get() + new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap bytes this thread
/// allocated meanwhile.
fn heap_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = HEAP_BYTES.with(Cell::get);
    let out = f();
    (out, HEAP_BYTES.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the heap bytes this thread still
/// holds from it: what the result owns, plus anything `f` leaked.
fn heap_kept<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = HEAP_LIVE.with(Cell::get);
    let out = f();
    (out, HEAP_LIVE.with(Cell::get) - before)
}

const KIB: u64 = 1024;

fn setup(verify: bool) -> (Arc<MemStore>, Volume) {
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(8 << 20));
    let cfg = VolumeConfig {
        gc_enabled: false,
        verify_get_crc: verify,
        ..VolumeConfig::small_for_tests()
    };
    let vol = Volume::create(store.clone(), cache, "dp", 32 << 20, cfg).expect("create");
    (store, vol)
}

#[test]
fn write_path_checksums_each_payload_byte_exactly_once() {
    let (_store, mut vol) = setup(false);
    // 256 KiB of non-overlapping 4 KiB writes: four full 64 KiB batches
    // seal inline on the serial path.
    for i in 0..64u64 {
        vol.write(i * 4 * KIB, &vec![i as u8 + 1; (4 * KIB) as usize])
            .expect("write");
    }
    vol.drain().expect("drain");
    let snap = vol.telemetry();
    let written = vol.stats().write_bytes;
    assert_eq!(written, 256 * KIB);
    // One CRC pass per payload byte, at append time; nothing was
    // re-checksummed at seal because no write overlapped another.
    assert_eq!(snap.data_plane.payload_crc_bytes, written);
    assert_eq!(snap.data_plane.crc_recomputed_bytes, 0);
    // Two copies per byte: client -> batch, batch -> object.
    assert_eq!(snap.data_plane.copied_bytes, 2 * written);
    // Seals folded the per-write CRCs into extent CRCs with O(1) combines.
    assert!(snap.data_plane.crc_combine_ops > 0);
}

#[test]
fn overwrite_flanks_are_the_only_recomputed_bytes() {
    let (_store, mut vol) = setup(false);
    // An 8-sector write partially shadowed by a 2-sector overwrite: the
    // seal must re-checksum only the surviving flanks of the first chunk
    // (sectors 0..2 and 4..8 = 6 sectors), never whole payloads.
    vol.write(0, &[7u8; 8 * 512]).expect("write");
    vol.write(2 * 512, &[9u8; 2 * 512]).expect("overwrite");
    vol.drain().expect("drain");
    let snap = vol.telemetry();
    assert_eq!(snap.data_plane.payload_crc_bytes, 10 * 512);
    assert_eq!(snap.data_plane.crc_recomputed_bytes, 6 * 512);
}

#[test]
fn get_verification_accepts_clean_backend_data() {
    let (_store, mut vol) = setup(true);
    let payload: Vec<u8> = (0..64 * KIB).map(|i| (i % 251) as u8).collect();
    vol.write(0, &payload).expect("write");
    vol.drain().expect("drain");
    // The batch sealed and its cache-log records were released, so this
    // read misses both caches and fetches from the backend — verified.
    let mut back = vec![0u8; payload.len()];
    vol.read(0, &mut back).expect("verified read");
    assert_eq!(back, payload);
    let snap = vol.telemetry();
    assert!(
        snap.data_plane.get_verified_bytes >= payload.len() as u64,
        "GET verification did not run: {} bytes",
        snap.data_plane.get_verified_bytes
    );
}

#[test]
fn get_verification_detects_backend_payload_corruption() {
    let (store, mut vol) = setup(true);
    vol.write(0, &vec![0xAB; (64 * KIB) as usize])
        .expect("write");
    vol.drain().expect("drain");
    // Flip one payload byte of the sealed data object behind the volume's
    // back (bit rot / a corrupting proxy).
    let name = "dp.00000001";
    let mut obj = store.get(name).expect("object exists").to_vec();
    let last = obj.len() - 1;
    obj[last] ^= 0x01;
    store.put(name, Bytes::from(obj)).expect("re-put");
    let mut back = vec![0u8; (4 * KIB) as usize];
    let err = vol
        .read(0, &mut back)
        .expect_err("corruption must fail the read");
    assert!(
        matches!(err, LsvdError::Corrupt(ref m) if m.contains("CRC mismatch")),
        "unexpected error: {err:?}"
    );
}

/// 4 KiB writes at pseudo-random aligned offsets of a 32 MiB volume.
fn random_writes(vol: &mut Volume, n: u64, x: &mut u64, payload: &[u8]) {
    for _ in 0..n {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let block = (*x >> 33) % (32 * KIB / 4);
        vol.write(block * 4 * KIB, payload).expect("write");
    }
}

#[test]
fn heap_per_sealed_byte_stays_near_one_copy() {
    let (_store, mut vol) = setup(false);
    let payload = vec![0x5Au8; (4 * KIB) as usize];
    let mut x = 7u64;
    // Warm-up: one 64 KiB batch sizes the batch buffer and the log.
    random_writes(&mut vol, 16, &mut x, &payload);
    vol.drain().expect("drain");
    let sealed_before = vol.stats().backend_put_bytes;
    let ((), heap) = heap_bytes(|| {
        random_writes(&mut vol, 1024, &mut x, &payload);
        vol.drain().expect("drain");
    });
    let sealed = vol.stats().backend_put_bytes - sealed_before;
    let per_byte = heap as f64 / sealed as f64;
    // The sealed object is the one allocation a payload byte needs;
    // headers, checkpoints (every 4 objects here) and bookkeeping add
    // the rest. A second copy of each object would add a whole 1.0.
    assert!(
        per_byte <= 1.7,
        "{heap} heap bytes for {sealed} sealed bytes: {per_byte:.3} per byte"
    );
}

#[test]
fn heap_per_dirstore_get_byte_is_one() {
    let root = std::env::temp_dir().join(format!("data-plane-heap-{}", std::process::id()));
    let store = DirStore::open(&root).expect("open");
    let obj: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    store.put("obj", Bytes::from(obj)).expect("put");
    store.get_range("obj", 0, 4 * KIB).expect("warm-up");
    let (n, heap) = heap_bytes(|| {
        let mut n = 0;
        for i in 0..8u64 {
            n += store
                .get_range("obj", i * 128 * KIB, 64 * KIB)
                .expect("get_range")
                .len();
        }
        n
    });
    let (whole, get_heap) = heap_bytes(|| store.get("obj").expect("get").len());
    std::fs::remove_dir_all(&root).expect("cleanup");
    let (range_per_byte, get_per_byte) = (heap as f64 / n as f64, get_heap as f64 / whole as f64);
    assert!(
        range_per_byte <= 1.1,
        "get_range: {range_per_byte:.3} heap bytes per byte"
    );
    assert!(
        get_per_byte <= 1.1,
        "get: {get_per_byte:.3} heap bytes per byte"
    );
}

#[test]
fn heap_per_4k_read_hit_stays_under_6k() {
    let (_store, vol) = setup(false);
    let sv = SharedVolume::new(vol);
    sv.write(0, &[0xC3; (4 * KIB) as usize]).expect("write");
    assert_eq!(
        sv.read_bytes(0, (4 * KIB) as usize).expect("warm-up")[0],
        0xC3
    );
    let ((), heap) = heap_bytes(|| {
        for _ in 0..64 {
            std::hint::black_box(sv.read_bytes(0, (4 * KIB) as usize).expect("read"));
        }
    });
    let per_read = heap / 64;
    assert!(per_read <= 6 * KIB, "{per_read} heap bytes per 4 KiB hit");
}

#[test]
fn heap_per_checkpoint_byte_is_one() {
    let mut map = ObjectMap::new();
    for seq in 1..=64u32 {
        let extents: Vec<(u64, u32)> = (0..512).map(|i| ((i * 64 + seq as u64) * 8, 8)).collect();
        map.apply_object(seq, 1, &extents);
    }
    let data = CheckpointData::capture(&map, 64, 0, &[], &[]);
    let (obj, heap) = heap_bytes(|| data.build(1));
    // The writer is presized, so it neither reallocates while it grows
    // nor hands its PUT a copy.
    let per_byte = heap as f64 / obj.len() as f64;
    assert!(
        per_byte <= 1.01,
        "{heap} heap bytes for a {} byte checkpoint",
        obj.len()
    );
}

#[test]
fn heap_per_rebuilt_map_extent_stays_under_28() {
    // What a checkpoint restore builds: 100,000 address-ordered 4 KiB
    // extents. A B-tree entry here is 24 bytes (key, length, value); a
    // tree built in bulk packs 11 to a node and holds about 26 bytes per
    // extent, where inserting them one by one leaves nodes half full.
    const N: u64 = 100_000;
    let (map, kept) = heap_kept(|| ExtentMap::bulk_load((0..N).map(|i| (i * 16, 8u64, i * 1000))));
    assert_eq!(map.len(), N as usize);
    let per_extent = kept as f64 / N as f64;
    assert!(
        per_extent <= 28.0,
        "{per_extent:.1} heap bytes per rebuilt extent"
    );
    // The object map rebuilds its location index the same way: two such
    // trees and a small object table.
    let (objmap, kept) = heap_kept(|| {
        ObjectMap::from_parts(
            (0..N).map(|i| {
                // Address order, but scattered over 49 objects.
                let at = i * 7919 % N;
                let loc = ObjLoc {
                    seq: 1 + (at / 2048) as u32,
                    off: ((at % 2048) * 8) as u32,
                };
                (i * 16, 8u64, loc)
            }),
            std::iter::empty(),
        )
    });
    assert_eq!(objmap.extent_count(), N as usize);
    let per_extent = kept as f64 / N as f64;
    assert!(
        per_extent <= 2.0 * 28.0,
        "{per_extent:.1} heap bytes per rebuilt object-map extent"
    );
}

#[test]
fn empty_bytes_allocate_nothing() {
    let ((), heap) = heap_bytes(|| {
        for _ in 0..1000 {
            std::hint::black_box(Bytes::new());
        }
    });
    assert_eq!(heap, 0, "Bytes::new() allocated");
}

#[test]
fn overlaps_of_unmapped_ranges_allocate_nothing() {
    // Every 4 KiB write asks the batch's and the object map's extent maps
    // what it overwrites; usually nothing is there.
    let mut map: ExtentMap<u64> = ExtentMap::new();
    for i in 0..1024u64 {
        map.insert(i * 16, 8, i * 100);
    }
    let (found, heap) = heap_bytes(|| {
        let mut found = 0;
        for i in 0..1024u64 {
            found += std::hint::black_box(map.overlaps(i * 16 + 8, 8)).len();
        }
        found + map.overlaps(1 << 20, 8).len()
    });
    assert_eq!(found, 0, "the probed ranges are holes");
    assert_eq!(heap, 0, "{heap} heap bytes for unmapped overlaps");
}
