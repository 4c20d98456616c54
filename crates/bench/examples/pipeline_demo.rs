//! Walkthrough of the pipelined writeback path at the public API: a
//! volume with `writeback_threads > 0` overlaps backend PUTs behind a
//! bounded in-flight window while the foreground keeps writing, the
//! durable frontier trails the stream and catches up on drain, and a
//! transient PUT failure requeues without reordering.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use objstore::{ChaosStore, LatencyStore, MemStore, ObjectStore};

const BATCH: u64 = 64 << 10;

fn cfg(threads: usize, window: usize) -> VolumeConfig {
    VolumeConfig {
        batch_bytes: BATCH,
        checkpoint_interval: 100_000,
        gc_enabled: false,
        writeback_threads: threads,
        max_inflight_puts: window,
        ..VolumeConfig::default()
    }
}

/// Writes `batches` full batches through `cfg` over a backend whose PUTs
/// really sleep, returning the write+drain wall clock.
fn timed(cfg: VolumeConfig, put_delay: Duration, batches: u64) -> Duration {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        put_delay,
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol = Volume::create(store, cache, "demo", 256 << 20, cfg).unwrap();
    let data = vec![0x5au8; BATCH as usize];
    let t = Instant::now();
    for i in 0..batches {
        vol.write(i * BATCH, &data).unwrap();
    }
    vol.drain().unwrap();
    t.elapsed()
}

fn main() {
    println!("== serial vs pipelined writeback, 12 batches @10ms PUT");
    let delay = Duration::from_millis(10);
    let serial = timed(cfg(0, 4), delay, 12);
    let pipelined = timed(cfg(4, 4), delay, 12);
    println!(
        "   serial {:.1} ms, 4-wide pipeline {:.1} ms ({:.2}x)",
        serial.as_secs_f64() * 1e3,
        pipelined.as_secs_f64() * 1e3,
        serial.as_secs_f64() / pipelined.as_secs_f64(),
    );

    println!("== the durable frontier trails in-flight PUTs");
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(25),
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol = Volume::create(store, cache, "demo", 256 << 20, cfg(4, 4)).unwrap();
    let data = vec![7u8; BATCH as usize];
    for i in 0..4u64 {
        vol.write(i * BATCH, &data).unwrap();
    }
    let s = vol.stats();
    println!(
        "   mid-flight: frontier={} inflight_puts={} pending={} (reads served from cache log)",
        vol.durable_frontier(),
        s.inflight_puts,
        s.pending_batches
    );
    let mut buf = vec![0u8; BATCH as usize];
    vol.read(0, &mut buf).unwrap();
    assert_eq!(buf, data);
    vol.drain().unwrap();
    println!(
        "   after drain: frontier={} == last_object_seq={}",
        vol.durable_frontier(),
        vol.last_object_seq()
    );

    println!("== a transient PUT failure requeues without reordering");
    let faulty = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol = Volume::create(faulty.clone(), cache, "demo", 256 << 20, cfg(4, 4)).unwrap();
    faulty.fail_next_puts(1);
    let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; BATCH as usize]).collect();
    for (i, d) in payloads.iter().enumerate() {
        vol.write(i as u64 * BATCH, d).unwrap();
    }
    vol.drain().unwrap();
    println!(
        "   bounce seen ({} transient failures), frontier={} and not degraded={}",
        vol.stats().put_transient_failures,
        vol.durable_frontier(),
        !vol.is_degraded()
    );
    drop(vol);
    let mut vol =
        Volume::open(faulty, Arc::new(RamDisk::new(64 << 20)), "demo", cfg(4, 4)).unwrap();
    for (i, d) in payloads.iter().enumerate() {
        vol.read(i as u64 * BATCH, &mut buf).unwrap();
        assert_eq!(&buf, d, "batch {i} recovered from backend alone");
    }
    println!("   cold recovery from the backend replays every batch in order");

    println!("== end-of-run telemetry snapshot");
    print!("{}", vol.telemetry().report());
}
