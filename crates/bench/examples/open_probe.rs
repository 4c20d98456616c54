//! Open probe: what opening an image costs in backend requests and time,
//! at a given map size and log tail.
//!
//! It builds an image straight into a `MemStore`: a superblock; a
//! checkpoint over an `ObjectMap` filled as `map_probe` fills it (objects
//! of 2,048 random 4 KiB extents over an 80 GiB vLBA space) until it
//! holds `--extents N` live extents; and `--tail K` data objects past the
//! checkpoint, of `--extents-per-object E` random 4 KiB extents each. It
//! then opens the image three times, each through `LatencyStore` (PUT 20,
//! GET 10, metadata 5 ms) on a fresh 64 MiB `RamDisk`, and prints one
//! JSON line: the checkpoint's size, the median, least and greatest open
//! time, and one open's LISTs, HEADs, GETs and PUTs.
//!
//! ```text
//! cargo run --release -p bench --example open_probe -- \
//!     --extents 1000000 --tail 16 --extents-per-object 1
//! ```
//!
//! A fresh cache device holds no log tail, so an open PUTs nothing. A
//! header of up to 29 extents fits in an object's first sector. The
//! store holds the tail's data in memory: 8 MiB per object at E = 2,048.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use lsvd::checkpoint::CheckpointData;
use lsvd::config::VolumeConfig;
use lsvd::objfmt::{build_data_object, Superblock};
use lsvd::objmap::ObjectMap;
use lsvd::types::{checkpoint_name, object_name, superblock_name};
use lsvd::volume::Volume;
use objstore::{LatencyStore, MemStore, ObjectStore};

const IMAGE: &str = "open";
const UUID: u64 = 0x09e4_0b5e;
const PER_OBJECT: usize = 2048;
const SPACE_BLOCKS: u64 = (80 << 30) / 4096;
const OPENS: usize = 3;

fn usage() -> ! {
    eprintln!("usage: open_probe --extents N [--tail K] [--extents-per-object E]");
    std::process::exit(2)
}

/// `n` distinct random 4 KiB extents, in vLBA order, as a sealed batch
/// holds them.
fn random_extents(x: &mut u64, n: usize) -> Vec<(u64, u32)> {
    let mut extents: Vec<(u64, u32)> = (0..n)
        .map(|_| {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*x >> 33) % SPACE_BLOCKS * 8, 8)
        })
        .collect();
    extents.sort_unstable();
    extents.dedup();
    extents
}

fn main() {
    let (mut target, mut tail, mut per_object) = (0usize, 16u32, 1usize);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let n = args.next().and_then(|n| n.parse::<usize>().ok());
        match (a.as_str(), n) {
            ("--extents", Some(n)) => target = n,
            ("--tail", Some(n)) => tail = n as u32,
            ("--extents-per-object", Some(n)) if n > 0 => per_object = n,
            _ => usage(),
        }
    }
    if target == 0 {
        usage();
    }

    let store = MemStore::new();
    let sb = Superblock {
        uuid: UUID,
        size_bytes: SPACE_BLOCKS * 4096,
        image: IMAGE.into(),
        ancestry: vec![],
    };
    store.put(&superblock_name(IMAGE), sb.build()).expect("put");
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut seq = 0u32;
    let ckpt = {
        let mut map = ObjectMap::new();
        while map.extent_count() < target {
            seq += 1;
            map.apply_object(seq, 1, &random_extents(&mut x, PER_OBJECT));
        }
        CheckpointData::capture(&map, seq, 0, &[], &[]).build(UUID)
    };
    let ckpt_mib = ckpt.len() as f64 / (1 << 20) as f64;
    store.put(&checkpoint_name(IMAGE, seq), ckpt).expect("put");
    for seq in seq + 1..=seq + tail {
        let extents = random_extents(&mut x, per_object);
        let data = vec![seq as u8; extents.len() * 4096];
        let obj = build_data_object(UUID, seq, 0, None, &extents, &data);
        store.put(&object_name(IMAGE, seq), obj).expect("put");
    }

    let store = Arc::new(
        LatencyStore::new(store, Duration::from_millis(20), Duration::from_millis(10))
            .with_meta_delay(Duration::from_millis(5)),
    );
    let mut times = Vec::new();
    let mut ops = None;
    for _ in 0..OPENS {
        let t = Instant::now();
        let vol = Volume::open(
            store.clone(),
            Arc::new(RamDisk::new(64 << 20)),
            IMAGE,
            VolumeConfig::default(),
        )
        .expect("open");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(vol.last_object_seq(), seq + tail, "the tail rolled forward");
        ops = Some(vol.telemetry().backend);
    }
    times.sort_by(f64::total_cmp);
    let ops = ops.expect("an open");
    println!(
        "{{\"extents\": {target}, \"tail\": {tail}, \"extents_per_object\": {per_object}, \
         \"checkpoint_mib\": {ckpt_mib:.1}, \"open_ms\": {:.1}, \"open_ms_min\": {:.1}, \
         \"open_ms_max\": {:.1}, \"lists\": {}, \"heads\": {}, \"gets\": {}, \"puts\": {}}}",
        times[OPENS / 2],
        times[0],
        times[OPENS - 1],
        ops.list.count,
        ops.head.count,
        ops.get.count,
        ops.put.count,
    );
}
