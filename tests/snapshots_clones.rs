//! Integration: snapshots, clones and snapshot-aware garbage collection
//! (§3.6).

use std::sync::Arc;

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use objstore::{MemStore, ObjectStore};

fn cfg() -> VolumeConfig {
    VolumeConfig {
        batch_bytes: 128 << 10,
        checkpoint_interval: 4,
        ..VolumeConfig::default()
    }
}

fn new_cache() -> Arc<RamDisk> {
    Arc::new(RamDisk::new(24 << 20))
}

fn fill(vol: &mut Volume, tag: u8, mb: u64) {
    let data = vec![tag; 64 << 10];
    for i in 0..mb * 16 {
        vol.write(i * (64 << 10), &data).expect("write");
    }
}

fn read_tag(vol: &mut Volume, off: u64) -> u8 {
    let mut buf = vec![0u8; 4096];
    vol.read(off, &mut buf).expect("read");
    assert!(
        buf.iter().all(|&b| b == buf[0]),
        "torn block at {off}: {:?}",
        &buf[..8]
    );
    buf[0]
}

#[test]
fn snapshot_views_are_stable_while_volume_moves_on() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut vol =
        Volume::create(store.clone(), new_cache(), "vol", 64 << 20, cfg()).expect("create");
    fill(&mut vol, 1, 8);
    vol.snapshot("s1").expect("snap s1");
    fill(&mut vol, 2, 8);
    vol.snapshot("s2").expect("snap s2");
    fill(&mut vol, 3, 8);
    vol.shutdown().expect("shutdown");

    let mut s1 =
        Volume::open_snapshot(store.clone(), new_cache(), "vol", "s1", cfg()).expect("mount s1");
    let mut s2 =
        Volume::open_snapshot(store.clone(), new_cache(), "vol", "s2", cfg()).expect("mount s2");
    let mut live = Volume::open(store, new_cache(), "vol", cfg()).expect("open live");

    assert_eq!(read_tag(&mut s1, 1 << 20), 1);
    assert_eq!(read_tag(&mut s2, 1 << 20), 2);
    assert_eq!(read_tag(&mut live, 1 << 20), 3);
}

#[test]
fn gc_defers_deletes_that_snapshots_depend_on() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut vol =
        Volume::create(store.clone(), new_cache(), "vol", 64 << 20, cfg()).expect("create");
    fill(&mut vol, 1, 8);
    vol.snapshot("keep").expect("snapshot");
    // Overwrite everything repeatedly: the snapshot's objects become pure
    // garbage but must survive while the snapshot exists.
    for round in 2..6u8 {
        fill(&mut vol, round, 8);
    }
    vol.drain().expect("drain");
    for _ in 0..4 {
        vol.run_gc().expect("gc");
    }

    // The snapshot must still be mountable and correct.
    let mut snap = Volume::open_snapshot(store.clone(), new_cache(), "vol", "keep", cfg())
        .expect("mount snapshot after GC");
    assert_eq!(read_tag(&mut snap, 1 << 20), 1, "snapshot data preserved");
    drop(snap);

    // Deleting the snapshot executes the deferred deletes.
    let before = store.list("vol.").expect("list").len();
    vol.delete_snapshot("keep").expect("delete snapshot");
    vol.run_gc().expect("gc after snapshot delete");
    let after = store.list("vol.").expect("list").len();
    assert!(
        after < before,
        "deferred deletes executed: {before} -> {after} objects"
    );
    // The live image is unaffected.
    assert_eq!(read_tag(&mut vol, 1 << 20), 5);
}

#[test]
fn chained_clones_resolve_ancestry() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut base =
        Volume::create(store.clone(), new_cache(), "base", 64 << 20, cfg()).expect("create");
    fill(&mut base, 1, 4);
    base.shutdown().expect("shutdown");

    Volume::clone_image(&store, "base", None, "mid").expect("clone mid");
    let mut mid = Volume::open(store.clone(), new_cache(), "mid", cfg()).expect("open mid");
    // Diverge mid in a region beyond base's data.
    let data = vec![7u8; 64 << 10];
    mid.write(32 << 20, &data).expect("write mid");
    mid.shutdown().expect("shutdown mid");

    Volume::clone_image(&store, "mid", None, "leaf").expect("clone leaf");
    let mut leaf = Volume::open(store.clone(), new_cache(), "leaf", cfg()).expect("open leaf");
    assert_eq!(read_tag(&mut leaf, 1 << 20), 1, "leaf sees base data");
    assert_eq!(
        read_tag(&mut leaf, 32 << 20),
        7,
        "leaf sees mid's divergence"
    );

    // Leaf diverges further without touching ancestors.
    let d2 = vec![9u8; 64 << 10];
    leaf.write(1 << 20, &d2).expect("write leaf");
    leaf.shutdown().expect("shutdown leaf");
    let mut mid = Volume::open(store.clone(), new_cache(), "mid", cfg()).expect("reopen mid");
    assert_eq!(read_tag(&mut mid, 1 << 20), 1, "mid unaffected by leaf");
}

#[test]
fn clone_from_snapshot_is_a_writable_snapshot() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut vol =
        Volume::create(store.clone(), new_cache(), "vol", 64 << 20, cfg()).expect("create");
    fill(&mut vol, 1, 4);
    vol.snapshot("golden").expect("snapshot");
    fill(&mut vol, 2, 4);
    vol.shutdown().expect("shutdown");

    Volume::clone_image(&store, "vol", Some("golden"), "writable").expect("clone of snapshot");
    let mut w = Volume::open(store.clone(), new_cache(), "writable", cfg()).expect("open");
    assert_eq!(read_tag(&mut w, 1 << 20), 1, "sees snapshot-time data");
    let d = vec![8u8; 64 << 10];
    w.write(1 << 20, &d).expect("write");
    assert_eq!(read_tag(&mut w, 1 << 20), 8, "writable");

    // Cloning a missing snapshot fails cleanly.
    let err = Volume::clone_image(&store, "vol", Some("nope"), "x");
    assert!(matches!(err, Err(lsvd::LsvdError::NoSuchSnapshot(_))));
}

#[test]
fn snapshot_mounts_and_clones_never_delete_a_running_writers_objects() {
    // With pipelined writeback, a running writer can have object N+2
    // stored while N+1 is still in flight. Neither a snapshot mount nor a
    // clone may treat N+2 as stranded.
    use lsvd::types::{object_name, parse_object_seq};

    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut writer =
        Volume::create(store.clone(), new_cache(), "vol", 64 << 20, cfg()).expect("create");
    fill(&mut writer, 1, 2);
    writer.snapshot("s1").expect("snapshot");
    writer.drain().expect("drain");
    let n = store
        .list("vol.")
        .expect("list")
        .iter()
        .filter_map(|name| parse_object_seq("vol", name))
        .max()
        .expect("objects");
    let ahead = object_name("vol", n + 2);
    let body = store.get(&object_name("vol", n)).expect("get");
    store.put(&ahead, body).expect("put N+2");

    let snap = Volume::open_snapshot(store.clone(), new_cache(), "vol", "s1", cfg())
        .expect("mount snapshot");
    drop(snap);
    assert!(
        store.exists(&ahead).expect("head"),
        "snapshot mount kept N+2"
    );
    Volume::clone_image(&store, "vol", Some("s1"), "from-snap").expect("clone snapshot");
    Volume::clone_image(&store, "vol", None, "from-head").expect("clone head");
    assert!(store.exists(&ahead).expect("head"), "clones kept N+2");

    let mut clone = Volume::open(store.clone(), new_cache(), "from-head", cfg()).expect("open");
    assert_eq!(read_tag(&mut clone, 1 << 20), 1, "clone sees the prefix");
    drop(writer);
}

#[test]
fn clone_gc_never_touches_the_base_image() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let mut base =
        Volume::create(store.clone(), new_cache(), "base", 64 << 20, cfg()).expect("create");
    fill(&mut base, 1, 8);
    base.shutdown().expect("shutdown");
    let base_objects = store.list("base.").expect("list");

    Volume::clone_image(&store, "base", None, "c").expect("clone");
    let mut c = Volume::open(store.clone(), new_cache(), "c", cfg()).expect("open");
    // Heavy overwriting in the clone triggers its GC.
    for round in 2..8u8 {
        fill(&mut c, round, 8);
    }
    c.drain().expect("drain");
    c.run_gc().expect("gc");
    assert_eq!(
        store.list("base.").expect("list"),
        base_objects,
        "base stream must be byte-identical after clone GC"
    );
}

#[test]
fn clones_share_base_fetches_through_a_caching_store() {
    // §6.3 "Cache Sharing": clones of one golden image share its backend
    // objects by name, so a host-wide object cache deduplicates their
    // cold reads.
    use objstore::CachingStore;

    let raw = MemStore::new();
    let shared = Arc::new(CachingStore::new(raw, 64 << 20));
    let store: Arc<dyn ObjectStore> = shared.clone();

    let mut base =
        Volume::create(store.clone(), new_cache(), "golden", 64 << 20, cfg()).expect("create");
    fill(&mut base, 1, 8);
    base.shutdown().expect("shutdown");

    Volume::clone_image(&store, "golden", None, "vm-a").expect("clone a");
    Volume::clone_image(&store, "golden", None, "vm-b").expect("clone b");

    let mut a = Volume::open(store.clone(), new_cache(), "vm-a", cfg()).expect("open a");
    let mut b = Volume::open(store.clone(), new_cache(), "vm-b", cfg()).expect("open b");

    // VM A reads the whole golden image cold: misses fill the shared cache.
    let mut buf = vec![0u8; 1 << 20];
    for off in (0..8u64 << 20).step_by(1 << 20) {
        a.read(off, &mut buf).expect("read a");
    }
    let misses_after_a = shared.stats().chunk_misses;
    assert!(misses_after_a > 0, "cold reads missed");

    // VM B reads the same data: every backend fetch hits the shared cache.
    for off in (0..8u64 << 20).step_by(1 << 20) {
        b.read(off, &mut buf).expect("read b");
        assert!(buf.iter().all(|&x| x == 1));
    }
    assert_eq!(
        shared.stats().chunk_misses,
        misses_after_a,
        "the second clone added no backend fetches"
    );
}
