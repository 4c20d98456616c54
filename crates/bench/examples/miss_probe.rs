//! Read-miss probe: what a cold 4 KiB read miss costs in backend requests
//! and time, over an image of many small objects or a few large ones.
//!
//! It writes a 1 GiB image straight into a `MemStore`, in writes of one
//! object each (1 MiB pieces when objects are larger), and shuts it down.
//! It then reopens the image on a fresh 256 MiB `RamDisk` through
//! `LatencyStore` (PUT 20, GET 10, metadata 5 ms) and does 600 random
//! 4 KiB reads of distinct blocks. It prints one JSON line: the misses,
//! the store's GETs and the volume's HEADs (`backend.head`) per miss, and
//! the miss latency's p50, mean and p99. In the paper a miss is one
//! ranged GET (§3.2).
//!
//! ```text
//! cargo run --release -p bench --example miss_probe -- --objects 128|4096
//! ```
//!
//! `--objects 128` gives 8 MiB objects, the default batch size;
//! `--objects 4096` gives 256 KiB objects, as many per GiB as a 32 GiB
//! image of 8 MiB objects has. The store holds the whole image in memory.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use objstore::{LatencyStore, MemStore};

const IMAGE: u64 = 1 << 30;
const BLOCK: u64 = 4096;
const READS: usize = 600;

fn usage() -> ! {
    eprintln!("usage: miss_probe [--objects 128|4096]");
    std::process::exit(2)
}

fn main() {
    let mut objects = 128u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().as_deref()) {
            ("--objects", Some(n @ ("128" | "4096"))) => objects = n.parse().expect("a count"),
            _ => usage(),
        }
    }
    let object_bytes = IMAGE / objects;
    let cfg = VolumeConfig {
        batch_bytes: object_bytes,
        gc_enabled: false,
        ..VolumeConfig::default()
    };
    let mem = Arc::new(MemStore::new());
    {
        let cache = Arc::new(RamDisk::new(256 << 20));
        let mut vol =
            Volume::create(mem.clone(), cache, "miss", IMAGE, cfg.clone()).expect("create");
        let piece = object_bytes.min(1 << 20);
        let data = vec![0x5au8; piece as usize];
        for at in (0..IMAGE).step_by(piece as usize) {
            vol.write(at, &data).expect("write");
        }
        vol.shutdown().expect("shutdown");
    }

    let store = Arc::new(
        LatencyStore::new(mem, Duration::from_millis(20), Duration::from_millis(10))
            .with_meta_delay(Duration::from_millis(5)),
    );
    let cache = Arc::new(RamDisk::new(256 << 20));
    let mut vol = Volume::open(store.clone(), cache, "miss", cfg).expect("open");
    let mut blocks = BTreeSet::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut order = Vec::with_capacity(READS);
    while order.len() < READS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let block = (x >> 33) % (IMAGE / BLOCK);
        if blocks.insert(block) {
            order.push(block);
        }
    }
    let gets0 = store.get_count();
    let heads0 = vol.telemetry().backend.head.count;
    let mut buf = vec![0u8; BLOCK as usize];
    let mut lat = Vec::with_capacity(READS);
    for block in order {
        let misses = vol.read_plane_stats().miss_reads;
        let t = Instant::now();
        vol.read(block * BLOCK, &mut buf).expect("read");
        if vol.read_plane_stats().miss_reads > misses {
            lat.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let misses = lat.len() as f64;
    let gets = (store.get_count() - gets0) as f64;
    let heads = (vol.telemetry().backend.head.count - heads0) as f64;
    let mean = lat.iter().sum::<f64>() / misses;
    lat.sort_unstable_by(f64::total_cmp);
    let pct = |p: usize| lat[(lat.len() * p / 100).min(lat.len() - 1)];
    println!(
        "{{\"objects\": {objects}, \"object_kib\": {}, \"misses\": {}, \
         \"gets_per_miss\": {:.3}, \"heads_per_miss\": {:.3}, \"miss_p50_ms\": {:.2}, \
         \"miss_mean_ms\": {mean:.2}, \"miss_p99_ms\": {:.2}}}",
        object_bytes >> 10,
        lat.len(),
        gets / misses,
        heads / misses,
        pct(50),
        pct(99),
    );
}
