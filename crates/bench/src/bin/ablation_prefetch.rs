//! Ablation: temporal-locality read-ahead (§3.2, §6.3).
//!
//! LSVD prefetches by extending a miss's ranged GET within the containing
//! extent — data written *together* is fetched together ("temporal
//! read-ahead"). This functional-plane sweep writes bursts of correlated
//! blocks, reopens with cold caches, re-reads in burst order, and counts
//! backend GETs at different prefetch windows, with the MiB each window
//! size admits to the read cache.

use std::sync::Arc;

use bench::{banner, Args, Table};
use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use objstore::MemStore;
use rand::Rng;
use sim::rng::rng_from_seed;

fn main() {
    let args = Args::parse();
    banner(
        "Ablation: read prefetch window",
        "backend GETs for temporally-correlated reads vs window size",
        "functional volume, bursts of 16 co-written 16 KiB blocks, cold reopen",
    );
    let bursts = if args.quick { 64 } else { 256 };

    // One shared backend written once: bursts of 16 KiB writes whose vLBAs
    // are scattered, but which land in the same batch (same object).
    let store = Arc::new(MemStore::new());
    {
        let cache = Arc::new(RamDisk::new(32 << 20));
        let mut vol = Volume::create(
            store.clone(),
            cache,
            "vol",
            1 << 30,
            VolumeConfig {
                batch_bytes: 16 * (16 << 10), // one burst per object
                gc_enabled: false,
                ..VolumeConfig::default()
            },
        )
        .expect("create");
        let mut rng = rng_from_seed(args.seed);
        for b in 0..bursts {
            for i in 0..16u64 {
                let lba = (rng.gen_range(0..4096u64) * 16) % ((1 << 30) / 512);
                let _ = i;
                let data = vec![(b % 250) as u8 + 1; 16 << 10];
                let off = (lba * 512).min((1 << 30) - (16 << 10));
                vol.write(off, &data).expect("write");
            }
        }
        vol.shutdown().expect("shutdown");
    }

    let mut t = Table::new([
        "prefetch",
        "backend GETs",
        "GET GiB",
        "GETs per object re-read",
        "admitted MiB",
    ]);
    for &window in &[0u64, 64 << 10, 256 << 10, 1 << 20] {
        let cache = Arc::new(RamDisk::new(32 << 20));
        let cfg = VolumeConfig {
            prefetch_bytes: window.max(16 << 10),
            gc_enabled: false,
            ..VolumeConfig::default()
        };
        let mut vol = Volume::open(store.clone(), cache, "vol", cfg).expect("open");
        // Re-read every object's data in write order: iterate objects via
        // their headers and read each extent back.
        let names: Vec<String> = objstore::ObjectStore::list(store.as_ref(), "vol.")
            .expect("list")
            .into_iter()
            .filter(|n| lsvd::types::parse_object_seq("vol", n).is_some())
            .collect();
        for name in &names {
            let hdr = lsvd::recovery::fetch_header(store.as_ref(), name)
                .expect("header")
                .expect("exists");
            for (lba, len) in hdr.extents {
                let mut buf = vec![0u8; len as usize * 512];
                vol.read(lba * 512, &mut buf).expect("read");
            }
        }
        let s = vol.stats();
        let admitted = vol.read_plane_stats().admitted_sectors * 512;
        t.row([
            if window == 0 {
                "off".to_string()
            } else {
                format!("{}K", window >> 10)
            },
            s.backend_gets.to_string(),
            format!("{:.2}", s.backend_get_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.1}", s.backend_gets as f64 / names.len() as f64),
            format!("{:.1}", admitted as f64 / (1u64 << 20) as f64),
        ]);
    }
    args.emit(&t);
    println!();
    println!(
        "expected shape: wider windows collapse per-burst GETs toward 1 \
         (the whole co-written extent arrives with the first miss), at \
         slightly higher fetched bytes; a window holding co-written \
         extents enters the read cache whole."
    );
}
