//! Sustained-ingest probe: how fast a volume takes random 64 KiB writes
//! over a slow backend, and how often its checkpoints and cleaner run.
//!
//! A 128 MiB volume over `LatencyStore::new(MemStore::new(), 20 ms,
//! 10 ms)` (PUT, GET), with a 256 MiB `RamDisk` cache and
//! `checkpoint_interval: 8`, takes 24,576 random 64 KiB writes (1.5 GiB)
//! back to back, stopping early after 90 s. It prints one JSON line:
//! throughput, writes done, write latency p50/p99/max, the writes over
//! 100 ms, and the store's PUTs and GETs with the volume's data objects,
//! checkpoints and cleaning passes. The cleaner's own cost follows: its GETs, the
//! bytes they fetched, and `gc_cost`, the bytes it read and wrote per
//! byte it reclaimed (Lomet & Luo's measure; reclaimed is the victims'
//! freed bytes less the carriers' written bytes, so a victim at
//! utilization `u` that is read whole costs `(1 + u) / (1 - u)`). Last
//! comes `space_amp`: the sectors of every applied object over the live
//! ones (`Volume::backend_totals`), the space a cleaner that falls
//! behind leaves in the store.
//!
//! ```text
//! cargo run --release -p bench --example ingest_probe -- \
//!     [--writeback-threads N] [--gc on|off]
//! ```
//!
//! The defaults are the inline executor (`--writeback-threads 0`) with
//! the cleaner on. The store keeps every object it is sent, so a run
//! with the cleaner off holds the whole 1.5 GiB in memory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use objstore::{LatencyStore, MemStore};

const WRITE: u64 = 64 << 10;
const WRITES: usize = 24_576;
const VOLUME: u64 = 128 << 20;
const CAP: Duration = Duration::from_secs(90);

fn usage() -> ! {
    eprintln!("usage: ingest_probe [--writeback-threads N] [--gc on|off]");
    std::process::exit(2)
}

fn main() {
    let (mut threads, mut gc) = (0usize, true);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().as_deref()) {
            ("--writeback-threads", Some(n)) => threads = n.parse().unwrap_or_else(|_| usage()),
            ("--gc", Some("on")) => gc = true,
            ("--gc", Some("off")) => gc = false,
            _ => usage(),
        }
    }
    let store = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(20),
        Duration::from_millis(10),
    ));
    let cfg = VolumeConfig {
        checkpoint_interval: 8,
        writeback_threads: threads,
        gc_enabled: gc,
        ..VolumeConfig::default()
    };
    let cache = Arc::new(RamDisk::new(256 << 20));
    let mut vol = Volume::create(store.clone(), cache, "ingest", VOLUME, cfg).expect("create");
    let data = vec![0x6bu8; WRITE as usize];
    let mut lat = Vec::with_capacity(WRITES);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let start = Instant::now();
    while lat.len() < WRITES && start.elapsed() < CAP {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let t = Instant::now();
        vol.write((x >> 33) % (VOLUME / WRITE) * WRITE, &data)
            .expect("write");
        lat.push(t.elapsed());
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = vol.stats();
    let slow = lat
        .iter()
        .filter(|d| **d > Duration::from_millis(100))
        .count();
    lat.sort_unstable();
    let pct = |p: usize| lat[(lat.len() * p / 100).min(lat.len() - 1)].as_secs_f64() * 1e3;
    let gc_moved = stats.gc_get_bytes + stats.gc_cache_hit_bytes + stats.gc_put_bytes;
    let gc_reclaimed = stats.gc_freed_bytes.saturating_sub(stats.gc_put_bytes);
    let (live, total) = vol.backend_totals();
    println!(
        "{{\"writeback_threads\": {threads}, \"gc_enabled\": {gc}, \"mb_per_s\": {:.1}, \
         \"writes\": {}, \"secs\": {secs:.2}, \"write_p50_ms\": {:.3}, \"write_p99_ms\": {:.3}, \
         \"write_max_ms\": {:.1}, \"writes_over_100ms\": {slow}, \"puts\": {}, \"gets\": {}, \
         \"data_objects\": {}, \"checkpoints\": {}, \"gc_passes\": {}, \"gc_gets\": {}, \
         \"gc_get_bytes\": {}, \"gc_cost\": {:.2}, \"space_amp\": {:.2}}}",
        (lat.len() as u64 * WRITE) as f64 / 1e6 / secs,
        lat.len(),
        pct(50),
        pct(99),
        pct(100),
        store.put_count(),
        store.get_count(),
        stats.backend_puts,
        stats.checkpoints,
        stats.gc_passes,
        stats.gc_gets,
        stats.gc_get_bytes,
        gc_moved as f64 / gc_reclaimed.max(1) as f64,
        total as f64 / live.max(1) as f64,
    );
}
