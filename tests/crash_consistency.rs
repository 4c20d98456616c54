//! Integration: crash consistency (the paper's §2.2/§3.3/§4.4 guarantees).
//!
//! LSVD must recover all acknowledged writes when the cache survives a
//! crash, and a consistent *prefix* of committed writes when the cache is
//! lost entirely — across many randomized schedules. The bcache baseline
//! must demonstrably violate the prefix property under cache loss, which
//! is the paper's motivation for an order-preserving cache.

use std::sync::Arc;
use std::time::Duration;

use baseline::{Bcache, RbdDisk};
use blkdev::{BlockDevice, RamDisk};
use lsvd::config::VolumeConfig;
use lsvd::verify::{History, Verdict, VBLOCK};
use lsvd::volume::Volume;
use objstore::{ChaosStore, LatencyStore, MemStore, ObjectStore};
use rand::Rng;
use sim::rng::rng_from_seed;

/// The small test config with the pipelined writeback path switched on:
/// several PUTs in flight at once, so a crash can land between
/// out-of-order completions.
fn pipelined_cfg() -> VolumeConfig {
    VolumeConfig {
        writeback_threads: 3,
        max_inflight_puts: 3,
        ..VolumeConfig::small_for_tests()
    }
}

fn run_lsvd_crash_on(
    store: Arc<dyn ObjectStore>,
    cfg: VolumeConfig,
    seed: u64,
    lose_cache: bool,
    writes: usize,
) -> (Verdict, u64) {
    let cache = Arc::new(RamDisk::new(24 << 20));
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg.clone()).expect("create");
    let mut hist = History::new();
    let mut rng = rng_from_seed(seed);
    for i in 0..writes {
        let block = rng.gen_range(0..2048u64);
        let len = 1 + rng.gen_range(0..3u64);
        let len = len.min(2048 - block);
        let data = hist.record_write(block * VBLOCK, len * VBLOCK);
        vol.write(block * VBLOCK, &data).expect("write");
        if i % 23 == 0 {
            vol.flush().expect("flush");
            hist.mark_committed();
        }
    }
    vol.flush().expect("final flush");
    hist.mark_committed();
    drop(vol); // crash

    if lose_cache {
        cache.obliterate();
    }
    let mut vol = Volume::open(store, cache, "vol", cfg).expect("recovery");
    let v = hist.check_prefix_consistent(|block| {
        let mut buf = vec![0u8; VBLOCK as usize];
        vol.read(block * VBLOCK, &mut buf).expect("read");
        buf
    });
    (v, hist.committed_index())
}

fn run_lsvd_crash(seed: u64, lose_cache: bool, writes: usize) -> (Verdict, u64) {
    run_lsvd_crash_on(
        Arc::new(MemStore::new()),
        VolumeConfig::small_for_tests(),
        seed,
        lose_cache,
        writes,
    )
}

#[test]
fn lsvd_recovers_all_acknowledged_writes_with_cache_intact() {
    for seed in 0..5 {
        let (v, committed) = run_lsvd_crash(seed, false, 800);
        match v {
            Verdict::ConsistentPrefix {
                cut,
                lost_committed,
            } => {
                assert_eq!(lost_committed, 0, "seed {seed}: committed writes lost");
                assert_eq!(
                    cut, committed,
                    "seed {seed}: even uncommitted writes \
                     present in the cache log are recovered"
                );
            }
            Verdict::Inconsistent { .. } => panic!("seed {seed}: {v:?}"),
        }
    }
}

#[test]
fn lsvd_is_prefix_consistent_after_total_cache_loss() {
    for seed in 100..105 {
        let (v, _) = run_lsvd_crash(seed, true, 800);
        assert!(v.is_consistent(), "seed {seed}: {v:?}");
    }
}

#[test]
fn lsvd_survives_repeated_crashes() {
    // §3.3: "in the case of further failure, the steps may be repeated
    // without risk of inconsistency."
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let mut hist = History::new();
    let mut vol = Volume::create(
        store.clone(),
        cache.clone(),
        "vol",
        64 << 20,
        VolumeConfig::small_for_tests(),
    )
    .expect("create");
    let mut rng = rng_from_seed(7);
    for round in 0..6 {
        for _ in 0..150 {
            let block = rng.gen_range(0..1024u64);
            let data = hist.record_write(block * VBLOCK, VBLOCK);
            vol.write(block * VBLOCK, &data).expect("write");
        }
        vol.flush().expect("flush");
        hist.mark_committed();
        drop(vol); // crash
        let lossy = round % 2 == 1;
        if lossy {
            cache.obliterate();
        }
        vol = Volume::open(
            store.clone(),
            cache.clone(),
            "vol",
            VolumeConfig::small_for_tests(),
        )
        .expect("recovery");
        let v = hist.check_prefix_consistent(|block| {
            let mut buf = vec![0u8; VBLOCK as usize];
            vol.read(block * VBLOCK, &mut buf).expect("read");
            buf
        });
        assert!(v.is_consistent(), "round {round}: {v:?}");
        if lossy {
            // A lossy recovery legitimately discarded a committed tail; the
            // recovered state is the new baseline. Re-write every block so
            // the history and image re-align before the next round (what an
            // application-level resync would do).
            if let Verdict::ConsistentPrefix { .. } = v {
                for block in 0..1024u64 {
                    let data = hist.record_write(block * VBLOCK, VBLOCK);
                    vol.write(block * VBLOCK, &data).expect("resync write");
                }
                vol.flush().expect("resync flush");
                hist.mark_committed();
            }
        }
    }
}

#[test]
fn stranded_objects_are_deleted_by_the_prefix_rule() {
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let cfg = VolumeConfig {
        checkpoint_interval: 100_000, // no checkpoints past creation
        ..VolumeConfig::small_for_tests()
    };
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg.clone()).expect("create");
    let mut hist = History::new();
    for i in 0..1200u64 {
        let data = hist.record_write((i % 512) * VBLOCK, VBLOCK);
        vol.write((i % 512) * VBLOCK, &data).expect("write");
    }
    vol.drain().expect("drain");
    drop(vol);
    cache.obliterate();

    // Lose an object near the end of the stream (as if its upload died
    // with the client while later uploads landed).
    let names: Vec<String> = store
        .list("vol.")
        .expect("list")
        .into_iter()
        .filter(|n| lsvd::types::parse_object_seq("vol", n).is_some())
        .collect();
    assert!(names.len() >= 5, "need several objects");
    let victim = names[names.len() - 3].clone();
    store.delete(&victim).expect("delete");

    let mut vol = Volume::open(store.clone(), cache, "vol", cfg).expect("recovery");
    let v = hist.check_prefix_consistent(|block| {
        let mut buf = vec![0u8; VBLOCK as usize];
        vol.read(block * VBLOCK, &mut buf).expect("read");
        buf
    });
    assert!(v.is_consistent(), "{v:?}");
    // The two objects after the victim are gone.
    for stray in &names[names.len() - 2..] {
        assert!(
            !store.exists(stray).expect("exists"),
            "stranded object {stray} must be deleted"
        );
    }
}

#[test]
fn pipelined_crash_midflight_with_cache_intact_recovers_everything() {
    // Several PUTs are genuinely asleep on the worker pool when the
    // volume drops: running uploads finish, queued ones are discarded.
    // With the cache intact, replay re-ships whatever was discarded, so
    // no acknowledged write may be lost.
    for seed in 200..203 {
        let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
            MemStore::new(),
            Duration::from_millis(3),
            Duration::ZERO,
        ));
        let (v, committed) = run_lsvd_crash_on(store, pipelined_cfg(), seed, false, 600);
        match v {
            Verdict::ConsistentPrefix {
                cut,
                lost_committed,
            } => {
                assert_eq!(lost_committed, 0, "seed {seed}: committed writes lost");
                assert_eq!(cut, committed, "seed {seed}: cache log replays fully");
            }
            Verdict::Inconsistent { .. } => panic!("seed {seed}: {v:?}"),
        }
    }
}

#[test]
fn pipelined_crash_midflight_with_cache_loss_is_prefix_consistent() {
    // Crash between out-of-order PUT completions AND lose the cache: the
    // backend holds whatever subset of the in-flight window happened to
    // land. Recovery must still produce a consistent prefix.
    for seed in 300..303 {
        let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
            MemStore::new(),
            Duration::from_millis(3),
            Duration::ZERO,
        ));
        let (v, _) = run_lsvd_crash_on(store, pipelined_cfg(), seed, true, 600);
        assert!(v.is_consistent(), "seed {seed}: {v:?}");
    }
}

#[test]
fn pipelined_gap_in_the_stream_is_cut_and_strays_deleted() {
    // The nastiest pipelined crash state: a middle PUT was acknowledged
    // but never landed (black-holed), while later concurrent PUTs did —
    // a real gap in the object stream. After cache loss, recovery must
    // cut at the gap and delete the stranded later objects.
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(24 << 20));
    let cfg = VolumeConfig {
        checkpoint_interval: 100_000, // no checkpoints past creation
        ..pipelined_cfg()
    };
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg.clone()).expect("create");
    // One 64 KiB batch per region; sequences are assigned at seal, so
    // region i maps to object seq i+1. Object 4's upload will vanish.
    store.black_hole(&lsvd::types::object_name("vol", 4));
    let region = 64 << 10;
    for i in 0..8u64 {
        let fill = vec![i as u8 + 1; region as usize];
        vol.write(i * region, &fill).expect("write");
    }
    vol.drain().expect("drain acks the doomed upload too");
    assert_eq!(store.puts_dropped(), 1, "the upload vanished");
    assert_eq!(vol.durable_frontier(), 8, "every PUT was acknowledged");
    drop(vol); // crash
    cache.obliterate();

    let mut vol = Volume::open(store.clone(), cache, "vol", cfg).expect("recovery");
    // The prefix rule cuts at the gap: regions 0..3 (objects 1..=3)
    // survive, everything later reads as never-written.
    let mut buf = vec![0u8; region as usize];
    for i in 0..8u64 {
        vol.read(i * region, &mut buf).expect("read");
        let expect = if i < 3 {
            vec![i as u8 + 1; region as usize]
        } else {
            vec![0u8; region as usize]
        };
        assert_eq!(buf, expect, "region {i} after the cut");
    }
    assert_eq!(vol.last_object_seq(), 3);
    for seq in 5..=8u32 {
        assert!(
            !store
                .exists(&lsvd::types::object_name("vol", seq))
                .expect("exists"),
            "stranded object {seq} must be deleted"
        );
    }
}

/// Full backend snapshot: every object name with its exact bytes.
fn backend_snapshot(store: &dyn ObjectStore) -> Vec<(String, Vec<u8>)> {
    let mut names = store.list("").expect("list");
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = store.get(&n).expect("get").to_vec();
            (n, bytes)
        })
        .collect()
}

#[test]
fn cache_tail_recovery_twice_over_same_wlog_is_byte_identical() {
    // Recovery idempotence: a crash leaves an unshipped tail in the write
    // log; the first open replays and ships it. Crashing again right away
    // and recovering over the very same wlog must be a byte-identical
    // no-op — same image bytes, same backend objects, not one new upload.
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let cfg = VolumeConfig::small_for_tests();
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg.clone()).expect("create");
    let mut hist = History::new();
    let mut rng = rng_from_seed(42);
    for i in 0..300usize {
        let block = rng.gen_range(0..2048u64);
        let data = hist.record_write(block * VBLOCK, VBLOCK);
        vol.write(block * VBLOCK, &data).expect("write");
        if i == 150 {
            // Ship a prefix so the wlog tail sits beyond a real frontier.
            vol.drain().expect("drain");
        }
        if i % 37 == 0 {
            // Trim records replay through the same wlog tail path.
            let t = rng.gen_range(0..2048u64);
            vol.discard(t * VBLOCK, VBLOCK).expect("discard");
        }
    }
    vol.flush().expect("flush persists the tail");
    hist.mark_committed();
    drop(vol); // crash with a cache tail beyond the backend frontier

    let read_image = |vol: &mut Volume| {
        let mut image = vec![0u8; 2048 * VBLOCK as usize];
        for block in 0..2048u64 {
            let at = (block * VBLOCK) as usize;
            vol.read(block * VBLOCK, &mut image[at..at + VBLOCK as usize])
                .expect("read");
        }
        image
    };

    // First recovery replays the tail and ships it.
    let mut vol = Volume::open(store.clone(), cache.clone(), "vol", cfg.clone()).expect("open 1");
    let image1 = read_image(&mut vol);
    let last_seq1 = vol.last_object_seq();
    let frontier1 = vol.durable_frontier();
    drop(vol); // crash again, no new writes
    let backend1 = backend_snapshot(store.as_ref());

    // Two more recoveries over the same wlog: each must change nothing.
    for round in 2..=3 {
        let mut vol =
            Volume::open(store.clone(), cache.clone(), "vol", cfg.clone()).expect("reopen");
        let image = read_image(&mut vol);
        assert_eq!(
            vol.last_object_seq(),
            last_seq1,
            "round {round}: no new objects"
        );
        assert_eq!(
            vol.durable_frontier(),
            frontier1,
            "round {round}: frontier moved"
        );
        assert!(image == image1, "round {round}: recovered image diverged");
        drop(vol);
        let backend = backend_snapshot(store.as_ref());
        assert!(
            backend == backend1,
            "round {round}: backend bytes changed across an idle recovery"
        );
    }
}

#[test]
fn replay_over_an_already_applied_checkpoint_is_a_noop() {
    // Recovery idempotence, checkpoint edition: deleting the newest
    // checkpoint forces recovery to fall back to an older one and
    // re-replay every object header the newest checkpoint had already
    // folded in. The re-applied recovery must agree extent-for-extent
    // with the original, and re-applying the newest header onto an
    // up-to-date map must change nothing.
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let cfg = VolumeConfig {
        gc_enabled: false, // keep every source object around for the replay
        ..VolumeConfig::small_for_tests()
    };
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg.clone()).expect("create");
    let mut rng = rng_from_seed(7);
    for i in 0..400usize {
        let block = rng.gen_range(0..2048u64);
        let fill = vec![(i % 251) as u8 + 1; VBLOCK as usize];
        vol.write(block * VBLOCK, &fill).expect("write");
        if i % 29 == 0 {
            let t = rng.gen_range(0..2048u64);
            vol.discard(t * VBLOCK, VBLOCK).expect("discard");
        }
    }
    vol.shutdown()
        .expect("clean shutdown writes the final checkpoint");

    let dump = |rb: &lsvd::recovery::RecoveredBackend| {
        (
            rb.objmap.map_extents().collect::<Vec<_>>(),
            rb.objmap.objects().collect::<Vec<_>>(),
            rb.last_seq,
            rb.frontier,
        )
    };

    let rb1 = lsvd::recovery::recover_backend(store.as_ref(), "vol", None).expect("recover 1");
    let d1 = dump(&rb1);

    // Re-applying the newest object's header over the recovered map is a
    // no-op: same trims punched, same extents blind-re-inserted.
    let newest = lsvd::types::object_name("vol", rb1.last_seq);
    let hdr = lsvd::recovery::fetch_header(store.as_ref(), &newest)
        .expect("fetch")
        .expect("newest object exists");
    let mut remap = rb1.objmap.clone();
    lsvd::recovery::apply_header(&mut remap, &hdr);
    assert_eq!(
        remap.map_extents().collect::<Vec<_>>(),
        d1.0,
        "re-applying the newest header changed the map"
    );

    // Drop the newest checkpoint: recovery falls back and re-replays the
    // objects that checkpoint covered.
    let mut ckpts = store.list("vol.ckpt.").expect("list");
    ckpts.sort();
    assert!(ckpts.len() >= 2, "need an older checkpoint to fall back to");
    store
        .delete(ckpts.last().unwrap())
        .expect("delete newest ckpt");

    let rb2 = lsvd::recovery::recover_backend(store.as_ref(), "vol", None).expect("recover 2");
    assert!(
        rb2.ckpt_seq < rb1.ckpt_seq,
        "second recovery must start from an older checkpoint"
    );
    assert_eq!(dump(&rb2), d1, "re-applied recovery diverged");
}

#[test]
fn bcache_cache_loss_violates_prefix_order() {
    // The control experiment: at least one schedule must produce a
    // non-prefix backend image with bcache's LBA-order writeback.
    let mut violations = 0;
    for seed in 0..5u64 {
        let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
        let backing = RbdDisk::new(store, "img", 64 << 20).with_object_bytes(1 << 20);
        let cache = Arc::new(RamDisk::new(24 << 20));
        let mut bc = Bcache::new(cache, backing);
        let mut hist = History::new();
        let mut rng = rng_from_seed(seed);
        for i in 0..800usize {
            let block = rng.gen_range(0..2048u64);
            let data = hist.record_write(block * VBLOCK, VBLOCK);
            bc.write_at(block * VBLOCK, &data).expect("write");
            if i % 23 == 0 {
                bc.flush().expect("flush");
                hist.mark_committed();
            }
            if i % 5 == 0 {
                bc.writeback_some(2).expect("writeback");
            }
        }
        let backing = bc.crash_lose_cache();
        let v = hist.check_prefix_consistent(|block| {
            let mut buf = vec![0u8; VBLOCK as usize];
            backing.read_at(block * VBLOCK, &mut buf).expect("read");
            buf
        });
        if !v.is_consistent() {
            violations += 1;
        }
    }
    assert!(
        violations >= 3,
        "bcache's unordered writeback should violate prefix consistency \
         in most runs; saw {violations}/5"
    );
}
