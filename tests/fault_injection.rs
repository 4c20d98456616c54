//! Integration: backend fault injection against the functional volume.
//!
//! An S3 backend fails in bounded ways: PUTs and GETs error transiently,
//! uploads vanish with a crashing client, payloads arrive corrupted. LSVD
//! must absorb transient failures into degraded mode (bounded pending
//! queue, typed backpressure past the watermark), keep acknowledged data
//! safe in the cache log, surface permanent errors without corrupting
//! state, and make progress once the backend heals.

use std::sync::Arc;

use blkdev::RamDisk;
use bytes::Bytes;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use lsvd::LsvdError;
use objstore::{ChaosStore, MemStore, ObjectStore};

fn cfg() -> VolumeConfig {
    VolumeConfig {
        batch_bytes: 64 << 10,
        checkpoint_interval: 4,
        ..VolumeConfig::default()
    }
}

#[test]
fn transient_put_failure_degrades_without_data_loss() {
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(16 << 20));
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 32 << 20, cfg()).expect("create");

    // Fill one batch; make its PUT fail. The write is still acknowledged:
    // the transient failure is absorbed into the pending queue.
    store.fail_next_puts(1);
    let data = vec![7u8; 64 << 10];
    vol.write(0, &data)
        .expect("transient PUT failures are absorbed, not surfaced");
    let st = vol.stats();
    assert!(st.degraded, "volume reports degraded mode");
    assert!(st.pending_batches >= 1, "the failed batch is queued");
    assert!(st.put_transient_failures >= 1);
    assert!(vol.is_degraded());
    // Later writes keep flowing; the healed backend lets them drain the
    // queue as a side effect.
    for i in 1..4u64 {
        vol.write(i * (64 << 10), &data)
            .expect("write while degraded");
    }

    // The data is still acknowledged and readable (it lives in the cache
    // log and the sealed batch is retained in the pending queue).
    let mut buf = vec![0u8; 64 << 10];
    vol.read(0, &mut buf).expect("read");
    assert_eq!(buf, data);

    // Backend heals (the armed failure was consumed): draining flushes the
    // queued batch first and clears degraded mode.
    vol.drain().expect("drain retries the queued batch");
    assert!(!vol.is_degraded(), "healed volume leaves degraded mode");
    assert_eq!(vol.stats().pending_batches, 0);
    drop(vol);
    cache.obliterate();
    let mut vol =
        Volume::open(store, Arc::new(RamDisk::new(16 << 20)), "vol", cfg()).expect("reopen");
    vol.read(0, &mut buf).expect("read from backend");
    assert_eq!(buf, data, "queued object reached the backend in order");
}

#[test]
fn backpressure_past_the_pending_watermark() {
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(16 << 20));
    let tight = VolumeConfig {
        max_pending_batches: 2,
        ..cfg()
    };
    let mut vol = Volume::create(store.clone(), cache.clone(), "vol", 32 << 20, tight.clone())
        .expect("create");

    // Backend down hard (but transiently): every PUT fails.
    store.fail_next_puts(1_000_000);
    let data = vec![3u8; 64 << 10];
    let mut accepted = 0u64;
    let mut rejected = None;
    for i in 0..64u64 {
        match vol.write(i * (64 << 10), &data) {
            Ok(()) => accepted += 1,
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    let err = rejected.expect("the pending watermark eventually rejects writes");
    match err {
        LsvdError::Backpressure { pending, limit } => {
            assert_eq!(limit, 2);
            assert!(pending >= limit, "queue at or past the watermark");
        }
        e => panic!("expected Backpressure, got {e}"),
    }
    let st = vol.stats();
    assert!(st.degraded);
    assert!(st.backpressure_rejections >= 1);
    assert!(accepted >= 2, "writes were accepted until the watermark");

    // Heal; the queue drains in order and writes flow again.
    store.fail_next_puts(0);
    vol.drain().expect("drain after heal");
    assert!(!vol.is_degraded());
    vol.write(0, &data).expect("write after heal");
    vol.drain().expect("drain");

    // Every accepted write survives a crash with the cache intact.
    drop(vol);
    let mut vol = Volume::open(store, cache, "vol", tight).expect("reopen");
    let mut buf = vec![0u8; 64 << 10];
    for i in 0..accepted {
        vol.read(i * (64 << 10), &mut buf).expect("read");
        assert_eq!(buf, data, "accepted write {i} survived");
    }
}

#[test]
fn ordering_holds_across_put_failures() {
    // A failed PUT must not let a LATER batch jump ahead of it.
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(16 << 20));
    // No periodic checkpoints: this test cuts the object stream, which is
    // only a legal backend state for objects past the last checkpoint.
    let nockpt = VolumeConfig {
        checkpoint_interval: 100_000,
        ..cfg()
    };
    let mut vol = Volume::create(
        store.clone(),
        cache.clone(),
        "vol",
        32 << 20,
        nockpt.clone(),
    )
    .expect("create");

    // Backend down for the whole epoch-1/epoch-2 window: both batch
    // groups queue locally, epoch 1 strictly ahead of epoch 2.
    store.fail_next_puts(1_000_000);
    let epoch1 = vec![1u8; 64 << 10];
    for i in 0..4u64 {
        vol.write(i * (64 << 10), &epoch1)
            .expect("epoch-1 write absorbed");
    }
    assert!(vol.is_degraded(), "epoch-1 batch is queued");
    // Overwrite with epoch 2; these batches must queue behind the retry.
    let epoch2 = vec![2u8; 64 << 10];
    for i in 0..4u64 {
        vol.write(i * (64 << 10), &epoch2).expect("write epoch 2");
    }
    assert!(vol.is_degraded());
    store.fail_next_puts(0); // heal
    vol.drain().expect("drain");
    assert!(!vol.is_degraded());

    // Backend must now hold both objects in order: a prefix cut between
    // them yields epoch-1 data, never a mix with epoch 2 first.
    let names: Vec<String> = store
        .list("vol.")
        .expect("list")
        .into_iter()
        .filter(|n| lsvd::types::parse_object_seq("vol", n).is_some())
        .collect();
    assert!(names.len() >= 2);
    drop(vol);
    cache.obliterate();
    // Cut the stream after the first data object.
    for name in &names[1..] {
        store.delete(name).expect("cut");
    }
    let mut vol = Volume::open(store, Arc::new(RamDisk::new(16 << 20)), "vol", nockpt)
        .expect("recover at cut");
    let mut buf = vec![0u8; 64 << 10];
    vol.read(0, &mut buf).expect("read");
    assert_eq!(buf, epoch1, "the first stream object is the epoch-1 batch");
}

#[test]
fn read_errors_propagate_without_poisoning_state() {
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(16 << 20));
    let mut vol = Volume::create(store.clone(), cache, "vol", 32 << 20, cfg()).expect("create");
    let data = vec![9u8; 256 << 10];
    vol.write(0, &data).expect("write");
    vol.drain().expect("drain");
    drop(vol);

    // Fresh volume, cold caches: the first read goes to the backend.
    let mut vol = Volume::open(
        store.clone(),
        Arc::new(RamDisk::new(16 << 20)),
        "vol",
        cfg(),
    )
    .expect("open");
    store.fail_next_gets(1);
    let mut buf = vec![0u8; 4096];
    let err = vol.read(0, &mut buf);
    assert!(matches!(err, Err(LsvdError::Backend(_))), "{err:?}");
    // Retry succeeds and returns correct data.
    vol.read(0, &mut buf).expect("retry read");
    assert_eq!(buf, &data[..4096]);
}

#[test]
fn corrupt_header_is_permanent_and_does_not_poison_state() {
    // A corrupted object header must surface a typed *permanent* error on
    // the read miss — and leave the extent map and read cache clean, so
    // repairing the object makes the same read succeed with correct data.
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(16 << 20));
    let mut vol = Volume::create(store.clone(), cache, "vol", 32 << 20, cfg()).expect("create");
    let data = vec![0x5Au8; 128 << 10];
    vol.write(0, &data).expect("write");
    vol.shutdown().expect("shutdown");

    // Cold reopen, then flip a byte inside the first data object's header.
    // A miss reads the header only to verify its GET (the object map and
    // table give the object, offset and size), so this volume verifies.
    let mut vol = Volume::open(
        store.clone(),
        Arc::new(RamDisk::new(16 << 20)),
        "vol",
        VolumeConfig {
            verify_get_crc: true,
            ..cfg()
        },
    )
    .expect("open");
    let name = lsvd::types::object_name("vol", 1);
    let pristine = store.get(&name).expect("get object");
    let mut mangled = pristine.to_vec();
    mangled[32] ^= 0xFF; // inside the header, past the magic
    store.put(&name, Bytes::from(mangled)).expect("mangle");

    let extents_before = vol.map_extent_count();
    let mut buf = vec![0u8; 4096];
    let err = vol
        .read(0, &mut buf)
        .expect_err("corrupt header must fail the read");
    assert!(
        matches!(err, LsvdError::Corrupt(_)),
        "typed permanent error, got {err:?}"
    );
    // Repeat: still the same typed error, no panic, no wrong data.
    let err2 = vol.read(0, &mut buf).expect_err("still corrupt");
    assert!(matches!(err2, LsvdError::Corrupt(_)));
    assert_eq!(
        vol.map_extent_count(),
        extents_before,
        "failed read must not mutate the extent map"
    );

    // Repair the object: the very same read now succeeds with the right
    // bytes — nothing poisonous was cached by the failed attempts.
    store.put(&name, pristine).expect("repair");
    vol.read(0, &mut buf).expect("read after repair");
    assert_eq!(buf, &data[..4096]);
}

#[test]
fn black_holed_upload_with_crash_is_survivable() {
    // The backend acknowledged a PUT that never landed (a lying ack — the
    // worst in-flight-loss variant, since the client released its cache
    // records on the ack). Nothing can recover the vanished object's
    // writes, but recovery must still produce a consistent earlier prefix
    // and delete the stranded later objects.
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(16 << 20));
    let nockpt = VolumeConfig {
        checkpoint_interval: 100_000,
        ..cfg()
    };
    let mut vol = Volume::create(
        store.clone(),
        cache.clone(),
        "vol",
        32 << 20,
        nockpt.clone(),
    )
    .expect("create");
    let epoch1 = vec![1u8; 64 << 10];
    for i in 0..4u64 {
        vol.write(i * (64 << 10), &epoch1).expect("write");
    }
    vol.drain().expect("drain"); // epoch-1 objects land
                                 // The NEXT object's upload will vanish silently.
    let doomed = vol.last_object_seq() + 1;
    store.black_hole(&lsvd::types::object_name("vol", doomed));
    let epoch2 = vec![2u8; 64 << 10];
    for i in 0..4u64 {
        vol.write(i * (64 << 10), &epoch2).expect("write");
    }
    vol.drain().expect("drain acks the doomed upload");
    assert_eq!(store.puts_dropped(), 1, "the upload vanished");
    drop(vol); // crash; cache SURVIVES

    let mut vol = Volume::open(store.clone(), cache, "vol", nockpt).expect("recover");
    // The prefix rule cut at the vanished object: the whole epoch-2 batch
    // group is gone (later objects were stranded and deleted), leaving the
    // consistent epoch-1 state.
    let mut buf = vec![0u8; 64 << 10];
    for i in 0..4u64 {
        vol.read(i * (64 << 10), &mut buf).expect("read");
        assert_eq!(buf, epoch1, "consistent epoch-1 prefix at offset {i}");
    }
    for seq in doomed..doomed + 4 {
        assert!(
            !store
                .exists(&lsvd::types::object_name("vol", seq))
                .expect("exists"),
            "stranded object {seq} deleted"
        );
    }
    let _ = epoch2;
}
