//! Criterion micro-benchmarks for LSVD's hot data structures and paths.
//!
//! These complement the experiment binaries (which regenerate the paper's
//! tables and figures) by pinning the costs the §6.1 "In-memory Map"
//! discussion cares about: extent-map operations at realistic map sizes,
//! CRC32C throughput, cache-log appends, batch sealing, and the
//! functional volume's write path. Every result also reports the heap
//! allocations and bytes per iteration, counted by [`CountingAlloc`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

use blkdev::{BlockDevice, RamDisk};
use lsvd::batch::BatchBuilder;
use lsvd::config::VolumeConfig;
use lsvd::crc::{crc32c, crc32c_combine, crc32c_sw};
use lsvd::extent_map::ExtentMap;
use lsvd::gcsim::{GcSim, GcSimConfig, GcSimMode};
use lsvd::rcache::ReadCache;
use lsvd::volume::Volume;
use lsvd::wlog::WriteLog;
use objstore::MemStore;

fn bench_extent_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("extent_map");
    for &n in &[1_000u64, 100_000, 1_000_000] {
        // Fragmented map: n extents with gaps so nothing coalesces.
        let mut map: ExtentMap<u64> = ExtentMap::new();
        for i in 0..n {
            map.insert(i * 16, 8, i * 100);
        }
        let span = n * 16;
        g.bench_with_input(BenchmarkId::new("lookup", n), &n, |b, _| {
            let mut x = 0x12345u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                std::hint::black_box(map.lookup((x >> 33) % span))
            });
        });
        g.bench_with_input(BenchmarkId::new("insert_overwrite", n), &n, |b, _| {
            let mut m = map.clone();
            let mut x = 0x777u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = (x >> 33) % span / 16 * 16;
                m.insert(lba, 8, x);
            });
        });
        g.bench_with_input(BenchmarkId::new("resolve_128k", n), &n, |b, _| {
            let mut x = 0x999u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                std::hint::black_box(map.resolve((x >> 33) % (span - 256), 256))
            });
        });
        g.bench_with_input(BenchmarkId::new("overlaps_128k", n), &n, |b, _| {
            let mut x = 0xBEEFu64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                std::hint::black_box(map.overlaps((x >> 33) % (span - 256), 256))
            });
        });
        // Checkpoint/snapshot restore: sorted bulk_load vs overwrite
        // insert per extent (the path objmap::from_parts and the rcache
        // snapshot loader take).
        if n <= 100_000 {
            g.bench_with_input(BenchmarkId::new("bulk_load", n), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(ExtentMap::bulk_load(
                        (0..n).map(|i| (i * 16, 8u64, i * 100)),
                    ))
                });
            });
            g.bench_with_input(BenchmarkId::new("per_insert_load", n), &n, |b, _| {
                b.iter(|| {
                    let mut m: ExtentMap<u64> = ExtentMap::new();
                    for i in 0..n {
                        m.insert(i * 16, 8, i * 100);
                    }
                    std::hint::black_box(m)
                });
            });
        }
    }
    g.finish();
}

fn bench_crc32c(c: &mut Criterion) {
    // The dispatching kernel (hardware SSE4.2 where available).
    let mut g = c.benchmark_group("crc32c");
    for &size in &[512usize, 4096, 65536, 1 << 20] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(crc32c(&data)));
        });
    }
    g.finish();

    // The slicing-by-16 software fallback, pinned separately so a
    // dispatch regression (hw silently off) is visible as crc32c/* and
    // crc32c_sw/* converging.
    let mut g = c.benchmark_group("crc32c_sw");
    for &size in &[4096usize, 65536] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(crc32c_sw(&data)));
        });
    }
    g.finish();

    // GF(2)-matrix combine: O(log len) in the virtual length, no data
    // touched — the primitive that lets seals and GET verification fold
    // precomputed CRCs instead of rescanning payloads.
    let mut g = c.benchmark_group("crc32c_combine");
    let a = crc32c(&vec![0x11u8; 4096]);
    let b_crc = crc32c(&vec![0x22u8; 1 << 20]);
    g.bench_function("fold_1MiB", |b| {
        b.iter(|| std::hint::black_box(crc32c_combine(a, b_crc, 1 << 20)));
    });
    g.finish();
}

fn bench_wlog_append(c: &mut Criterion) {
    // Per-byte cost should be roughly flat across record sizes now that
    // the header encoder reuses one scratch buffer and the payload is
    // written directly from the caller's slices: 4K appends must land
    // within 2x of 16K appends per byte (the old per-append allocation
    // made small records anomalously expensive; the CI bench gate holds
    // the line).
    let mut g = c.benchmark_group("wlog");
    for &kb in &[4u64, 16, 64] {
        let data = vec![0x3Cu8; (kb << 10) as usize];
        g.throughput(Throughput::Bytes(kb << 10));
        g.bench_with_input(BenchmarkId::new("append", format!("{kb}K")), &kb, |b, _| {
            let dev: Arc<dyn blkdev::BlockDevice> = Arc::new(RamDisk::new(256 << 20));
            // Pre-fault the backing pages: small-record runs never wrap
            // the log, so without this they measure first-touch page
            // faults instead of the append path (large records wrap and
            // run warm, skewing the per-byte comparison).
            let touch = vec![0u8; 1 << 20];
            for mb in 0..256u64 {
                dev.write_at(mb << 20, &touch).unwrap();
            }
            let mut log = WriteLog::format(dev, 0, (256 << 20) / 512, 1).unwrap();
            let mut lba = 0u64;
            let mut n = 0u32;
            b.iter(|| {
                let r = log.append(&[(lba, &data)]).unwrap();
                lba += (kb << 10) / 512;
                // Release in batches of 32, the way the volume releases a
                // whole sealed batch at once, rather than per append.
                n += 1;
                if n == 32 {
                    n = 0;
                    log.release_to(r.seq).unwrap();
                }
                r.seq
            });
        });
    }
    g.finish();
}

fn bench_batch_seal(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch");
    let data16k = vec![0x42u8; 16 << 10];
    g.throughput(Throughput::Bytes(4 << 20));
    g.bench_function("fill_and_seal_4MiB_of_16K", |b| {
        let mut seq = 1u32;
        b.iter(|| {
            let mut batch = BatchBuilder::new();
            for i in 0..256u64 {
                batch.add(i * 1024, &data16k, i);
            }
            seq += 1;
            std::hint::black_box(batch.seal(7, seq))
        });
    });
    // Coalescing path: every write overwrites the same 16 hot extents, so
    // the builder must fold 256 adds down to 16 live extents before
    // sealing (the §3.2 write-combining win for skewed workloads).
    g.bench_function("coalesce_hot_overwrites_4MiB", |b| {
        let mut seq = 1u32;
        b.iter(|| {
            let mut batch = BatchBuilder::new();
            for i in 0..256u64 {
                batch.add((i % 16) * 32, &data16k, i);
            }
            seq += 1;
            std::hint::black_box(batch.seal(7, seq))
        });
    });
    g.finish();
}

fn bench_volume_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("volume");
    for &kb in &[4u64, 64] {
        let data = vec![0x55u8; (kb << 10) as usize];
        g.throughput(Throughput::Bytes(kb << 10));
        g.bench_with_input(BenchmarkId::new("write", format!("{kb}K")), &kb, |b, _| {
            let store = Arc::new(MemStore::new());
            let cache = Arc::new(RamDisk::new(64 << 20));
            let mut vol = Volume::create(
                store,
                cache,
                "bench",
                1 << 30,
                VolumeConfig {
                    gc_enabled: false,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            let mut off = 0u64;
            b.iter(|| {
                vol.write(off % (1 << 30), &data).unwrap();
                off += kb << 10;
            });
        });
    }
    g.finish();
}

/// End-to-end write+read round trip against a MemStore-backed volume:
/// the write lands in the cache log, the read resolves through the
/// write-cache map — the full §3.2 hot path, no simulated time.
fn bench_volume_write_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("volume");
    for &kb in &[4u64, 64] {
        let data = vec![0x66u8; (kb << 10) as usize];
        g.throughput(Throughput::Bytes(2 * (kb << 10)));
        g.bench_with_input(
            BenchmarkId::new("write_read", format!("{kb}K")),
            &kb,
            |b, _| {
                let store = Arc::new(MemStore::new());
                let cache = Arc::new(RamDisk::new(64 << 20));
                let mut vol = Volume::create(
                    store,
                    cache,
                    "bench",
                    1 << 30,
                    VolumeConfig {
                        gc_enabled: false,
                        ..VolumeConfig::default()
                    },
                )
                .unwrap();
                let mut buf = vec![0u8; (kb << 10) as usize];
                let window = 64u64 << 20;
                let mut off = 0u64;
                b.iter(|| {
                    vol.write(off % window, &data).unwrap();
                    vol.read(off % window, &mut buf).unwrap();
                    off += kb << 10;
                });
            },
        );
    }
    // The same streaming write, serial vs pipelined writeback: with a
    // zero-latency MemStore the pipeline only has to not slow things
    // down; its win shows up against real PUT latency (tests/pipeline.rs
    // proves the >=2x there).
    for (label, threads) in [
        ("write_stream_serial", 0usize),
        ("write_stream_pipelined", 4),
    ] {
        let data = vec![0x77u8; 64 << 10];
        g.throughput(Throughput::Bytes(64 << 10));
        g.bench_function(label, |b| {
            let store = Arc::new(MemStore::new());
            let cache = Arc::new(RamDisk::new(64 << 20));
            let mut vol = Volume::create(
                store,
                cache,
                "bench",
                1 << 30,
                VolumeConfig {
                    gc_enabled: false,
                    batch_bytes: 1 << 20,
                    writeback_threads: threads,
                    max_inflight_puts: 4,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            let mut off = 0u64;
            b.iter(|| {
                vol.write(off % (256 << 20), &data).unwrap();
                off += 64 << 10;
            });
        });
    }
    g.finish();
}

/// 4K random read/write through the loopback NBD serving plane against
/// the same ops on the shared volume directly. The delta is the serving
/// tax: the client's and the reactor's socket crossings, framing, the
/// scheduler claim and the reply-window bookkeeping — the reactor runs
/// these hits and log-only writes itself, with no worker hand-off. It is
/// the overhead §5's "virtues of the log" argument says the backend must
/// amortise.
///
/// Reads and writes use disjoint windows. The 16 MiB read window is
/// shipped to the backend and then read whole into the ~51 MiB read
/// cache before any bench runs, and no write touches it, so every
/// `randread_4K_*` iteration is a read-cache hit.
fn bench_nbd(c: &mut Criterion) {
    use lsvd::shared::SharedVolume;
    use nbd::server::ServerConfig;

    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(64 << 20));
    let vol = Volume::create(
        store,
        cache,
        "bench",
        256 << 20,
        VolumeConfig {
            gc_enabled: false,
            // Admission control off, so the sequential warm-up below is
            // admitted to the read cache.
            scan_bypass_bytes: 0,
            ..VolumeConfig::default()
        },
    )
    .unwrap();
    let shared = SharedVolume::new(vol);
    let handle = nbd::serve(
        "127.0.0.1:0",
        "bench",
        shared.clone(),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let addr = handle.addr();

    // Pre-write the write window, so random writes overwrite mapped
    // extents, and the read window above it. Ship the read window out of
    // the write cache, then read it whole: it is all in the read cache.
    let warm = vec![0xABu8; 64 << 10];
    let window = 64u64 << 20;
    let (read_base, read_window) = (window, 16u64 << 20);
    for off in (0..window + read_window).step_by(64 << 10) {
        shared.write(off, &warm).unwrap();
    }
    shared.with_volume(|v| v.drain()).unwrap().unwrap();
    let mut chunk = vec![0u8; 256 << 10];
    for off in (read_base..read_base + read_window).step_by(256 << 10) {
        shared.read(off, &mut chunk).unwrap();
    }
    let backend_gets = || shared.with_volume(|v| v.stats().backend_gets).unwrap();
    let warm_gets = backend_gets();

    let mut g = c.benchmark_group("nbd");
    let data = vec![0x5Au8; 4096];
    let mut buf = vec![0u8; 4096];
    let mut client = nbd::Client::connect(addr, "bench").expect("connect");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("randread_4K_loopback", |b| {
        let mut x = 0x1357u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = read_base + (x >> 33) % (read_window / 4096) * 4096;
            client.read(off, &mut buf).unwrap();
        });
    });
    g.bench_function("randwrite_4K_loopback", |b| {
        let mut x = 0x2468u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (x >> 33) % (window / 4096) * 4096;
            client.write(off, &data).unwrap();
        });
    });
    g.bench_function("randread_4K_direct", |b| {
        let mut x = 0x1357u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = read_base + (x >> 33) % (read_window / 4096) * 4096;
            shared.read(off, &mut buf).unwrap();
        });
    });
    g.bench_function("randwrite_4K_direct", |b| {
        let mut x = 0x2468u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (x >> 33) % (window / 4096) * 4096;
            shared.write(off, &data).unwrap();
        });
    });
    // Tracing tax on the 4K serving hot path: the same loopback random
    // read with the span ring recording decode → dispatch → read spans
    // per request, against the default-off path where every site pays
    // one relaxed load. The committed baseline pair proves the <5%
    // overhead bound; scripts/bench_gate.py holds it (strict on the
    // baseline pair, noise-tolerant on fresh quick runs).
    let ring = shared.span_ring();
    for (label, on) in [
        ("randread_4K_tracing_off", false),
        ("randread_4K_tracing_on", true),
    ] {
        ring.set_enabled(on);
        g.bench_function(label, |b| {
            let mut x = 0x1357u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let off = read_base + (x >> 33) % (read_window / 4096) * 4096;
                client.read(off, &mut buf).unwrap();
            });
        });
    }
    ring.set_enabled(false);

    // Four connections reading at once. The reactor runs every hit
    // itself under the plane's shared lock, never the volume mutex, so
    // this prices four clients' requests interleaving on the one reactor
    // thread, not a worker pool's parallelism. One iteration = 32 reads
    // on each of the 4 connections.
    const CONNS: usize = 4;
    const READS_PER_CONN: u64 = 32;
    let mut clients: Vec<nbd::Client> = (0..CONNS)
        .map(|_| nbd::Client::connect(addr, "bench").expect("connect"))
        .collect();
    g.throughput(Throughput::Bytes(CONNS as u64 * READS_PER_CONN * 4096));
    g.bench_function("randread_4K_conc4", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            std::thread::scope(|s| {
                for (t, c) in clients.iter_mut().enumerate() {
                    let seed = round * CONNS as u64 + t as u64;
                    s.spawn(move || {
                        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                        let mut buf = vec![0u8; 4096];
                        for _ in 0..READS_PER_CONN {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let off = read_base + (x >> 33) % (read_window / 4096) * 4096;
                            c.read(off, &mut buf).unwrap();
                        }
                    });
                }
            });
        });
    });
    for c in clients {
        c.disconnect().ok();
    }
    g.finish();
    assert_eq!(
        backend_gets(),
        warm_gets,
        "an nbd/randread_4K_* iteration missed the read cache"
    );

    client.disconnect().ok();
    handle.stop();
    shared.shutdown().unwrap();
}

/// Read-plane hot paths. `volume/randread_4K_hit` is the headline: a 4K
/// random read over a window fully resident in the read cache, served
/// under the plane's shared lock end-to-end. `rcache/hit_4K` isolates
/// the cache's own resolve+copy cost, and the `scan` group prices
/// admission during a cache-exceeding sequential scan — with the
/// bypass on, the scan skips the insert/evict churn entirely.
fn bench_read_plane(c: &mut Criterion) {
    // volume/randread_4K_hit: flush a 16 MiB window to the backend, warm
    // it into the read cache (admission bypass disabled so the warm scan
    // is admitted), then measure random in-cache 4K reads.
    {
        let mut g = c.benchmark_group("volume");
        let store = Arc::new(MemStore::new());
        let cache = Arc::new(RamDisk::new(64 << 20));
        let mut vol = Volume::create(
            store,
            cache,
            "bench",
            256 << 20,
            VolumeConfig {
                gc_enabled: false,
                scan_bypass_bytes: 0,
                ..VolumeConfig::default()
            },
        )
        .unwrap();
        let window = 16u64 << 20;
        let chunk = vec![0xCDu8; 1 << 20];
        for off in (0..window).step_by(1 << 20) {
            vol.write(off, &chunk).unwrap();
        }
        vol.flush().unwrap();
        let mut warm = vec![0u8; 256 << 10];
        for off in (0..window).step_by(256 << 10) {
            vol.read(off, &mut warm).unwrap();
        }
        let mut buf = vec![0u8; 4096];
        g.throughput(Throughput::Bytes(4096));
        g.bench_function("randread_4K_hit", |b| {
            let mut x = 0x9E37u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let off = (x >> 33) % (window / 4096) * 4096;
                vol.read(off, &mut buf).unwrap();
            });
        });
        g.finish();
    }

    // rcache/hit_4K: the raw cache hit — extent resolve plus the 4 KiB
    // cache-device copy, no volume machinery around it.
    {
        let mut g = c.benchmark_group("rcache");
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8 << 20));
        let mut rc = ReadCache::new(dev, 0, (4 << 20) / 512);
        let piece = vec![0xEEu8; 64 << 10];
        let window_sectors = 1u64 << 20 >> 9;
        for lba in (0..window_sectors).step_by(128) {
            rc.insert(lba, &piece).unwrap();
        }
        let mut buf = vec![0u8; 4096];
        g.throughput(Throughput::Bytes(4096));
        g.bench_function("hit_4K", |b| {
            let mut x = 0x2B1Du64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = (x >> 33) % (window_sectors / 8) * 8;
                for seg in rc.resolve(lba, 8) {
                    if let lsvd::extent_map::Segment::Mapped { val, len, .. } = seg {
                        rc.read_cached(val, len, &mut buf[..(len * 512) as usize])
                            .unwrap();
                    }
                }
            });
        });
        g.finish();
    }

    // scan: stream 256K reads over a 32 MiB region through a ~12.7 MiB
    // read cache, so in `admit` mode every pass re-misses and pays the
    // insert/evict churn the scan itself caused; `bypass` mode misses
    // too, but admission control skips the churn.
    {
        let mut g = c.benchmark_group("scan");
        for (label, bypass_bytes) in [("seq_read_admit", 0u64), ("seq_read_bypass", 2 << 20)] {
            let store = Arc::new(MemStore::new());
            let cache = Arc::new(RamDisk::new(16 << 20));
            let mut vol = Volume::create(
                store,
                cache,
                "bench",
                256 << 20,
                VolumeConfig {
                    gc_enabled: false,
                    scan_bypass_bytes: bypass_bytes,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            let region = 32u64 << 20;
            let chunk = vec![0x3Cu8; 1 << 20];
            for off in (0..region).step_by(1 << 20) {
                vol.write(off, &chunk).unwrap();
            }
            vol.flush().unwrap();
            let mut buf = vec![0u8; 256 << 10];
            g.throughput(Throughput::Bytes(256 << 10));
            g.bench_function(label, |b| {
                let mut off = 0u64;
                b.iter(|| {
                    vol.read(off, &mut buf).unwrap();
                    off = (off + (256 << 10)) % region;
                });
            });
        }
        g.finish();
    }
}

/// Span-ring record cost in isolation. `span_record` is the per-hop
/// price every traced stage pays — mint, begin, finish into a locked
/// shard — and `span_record_disabled` is the default-off fast path,
/// a single relaxed load per site, which is why tracing can stay
/// compiled into the hot path instead of behind a feature gate.
fn bench_telemetry(c: &mut Criterion) {
    use telemetry::{SpanRing, Stage};

    let mut g = c.benchmark_group("telemetry");
    let ring = SpanRing::new(8192, 8);
    ring.set_enabled(true);
    g.bench_function("span_record", |b| {
        b.iter(|| {
            let req = ring.mint_request();
            let open = ring.begin(req, 0, Stage::Read).expect("ring enabled");
            std::hint::black_box(ring.finish(open, 4096, 0))
        });
    });
    let off = SpanRing::new(8192, 8);
    g.bench_function("span_record_disabled", |b| {
        b.iter(|| {
            let req = off.mint_request();
            std::hint::black_box(off.begin(req, 0, Stage::Read))
        });
    });
    g.finish();
}

/// The incremental concurrent cleaner (§3.5/§3.6). Three angles:
///
/// - `gc/collect_50pct_dead` — cleaning throughput: one iteration churns
///   a window to 50 % dead (every other 32 KiB of each 64 KiB object
///   overwritten) and runs a full collection; throughput is declared in
///   *relocated* bytes (measured once in a setup cycle — the workload is
///   deterministic), so the number reads as relocation bandwidth even
///   though the iteration also pays for regenerating its own garbage.
/// - `gc/write_4K_churn_{gc_off,gc_on}` — foreground 4K overwrite churn
///   with the budgeted cleaner off vs. kicked by auto-checkpoints and
///   write-path ticks; the p99 gap is the cleaner's foreground tax
///   (tests/gc_churn.rs holds it ≤ 3×).
/// - `gc/cleaning_copies_{greedy,costbenefit}` — victim-policy write-amp
///   on the seeded hot/cold-skewed workload under space pressure, via the
///   metadata-only simulator. `elements_per_iter` *is* the sectors copied
///   by cleaning (deterministic), so the JSON records cost-benefit's
///   lower cleaning WA directly; ns/iter is just simulation speed.
fn bench_gc(c: &mut Criterion) {
    use lsvd::gc::GcPolicy;

    let mut g = c.benchmark_group("gc");

    // Cleaning throughput.
    {
        let churn_cycle = |vol: &mut Volume| {
            // 8 MiB window of 64 KiB objects, then kill every other
            // 32 KiB half: each object ends 50 % live, so collection must
            // relocate (not just retire) to reclaim.
            let full = vec![0xC1u8; 64 << 10];
            let half = vec![0xC2u8; 32 << 10];
            for off in (0..(8u64 << 20)).step_by(64 << 10) {
                vol.write(off, &full).unwrap();
            }
            for off in (0..(8u64 << 20)).step_by(64 << 10) {
                vol.write(off, &half).unwrap();
            }
            vol.drain().unwrap();
        };
        let mk = || {
            let store = Arc::new(MemStore::new());
            let cache = Arc::new(RamDisk::new(64 << 20));
            Volume::create(
                store,
                cache,
                "bench",
                1 << 30,
                VolumeConfig {
                    // Explicit run_gc below; no auto-kicked passes.
                    gc_enabled: false,
                    batch_bytes: 64 << 10,
                    checkpoint_interval: 8,
                    ..VolumeConfig::default()
                },
            )
            .unwrap()
        };
        // Dry cycle: learn the deterministic relocated-bytes-per-cycle.
        let mut vol = mk();
        churn_cycle(&mut vol);
        vol.run_gc().unwrap();
        let relocated = vol.stats().gc_relocated_bytes;
        assert!(relocated > 0, "cleaning bench must actually relocate");
        g.throughput(Throughput::Bytes(relocated));
        g.bench_function("collect_50pct_dead", |b| {
            let mut vol = mk();
            b.iter(|| {
                churn_cycle(&mut vol);
                vol.run_gc().unwrap();
            });
        });
    }

    // Foreground 4K overwrite churn, cleaner off vs on.
    for (label, gc) in [
        ("write_4K_churn_gc_off", false),
        ("write_4K_churn_gc_on", true),
    ] {
        let data = vec![0x4Cu8; 4096];
        g.throughput(Throughput::Bytes(4096));
        g.bench_function(label, |b| {
            let store = Arc::new(MemStore::new());
            let cache = Arc::new(RamDisk::new(64 << 20));
            let mut vol = Volume::create(
                store,
                cache,
                "bench",
                1 << 30,
                VolumeConfig {
                    gc_enabled: gc,
                    batch_bytes: 64 << 10,
                    checkpoint_interval: 8,
                    gc_step_budget_bytes: 32 << 10,
                    writeback_threads: 2,
                    max_inflight_puts: 4,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            // 4 MiB hot window: overwrites pile garbage fast enough that
            // the auto-checkpoint kick keeps a pass active.
            let window = 4u64 << 20;
            let mut off = 0u64;
            b.iter(|| {
                vol.write(off % window, &data).unwrap();
                off += 4096;
            });
        });
    }

    // Victim policy: cleaning copies, greedy vs cost-benefit.
    let skewed = |policy| {
        let mut sim = GcSim::new(GcSimConfig {
            batch_sectors: 1024,
            // Space pressure: tight watermarks are where policy matters
            // (with slack, greedy also finds nearly-dead victims).
            gc_low: 0.90,
            gc_high: 0.93,
            policy,
            ..GcSimConfig::default()
        });
        let slots = 8192u64;
        let hot = slots / 10;
        for i in 0..slots {
            sim.write(i * 8, 8);
        }
        // 90 % of the churn on the hottest 10 % of slots (seeded LCG).
        let mut x = 0xDEAD_BEEF_u64;
        for _ in 0..120_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let slot = if (x >> 13) % 10 < 9 {
                (x >> 33) % hot
            } else {
                hot + (x >> 33) % (slots - hot)
            };
            sim.write(slot * 8, 8);
        }
        sim.finish()
    };
    for (label, policy) in [
        ("cleaning_copies_greedy", GcPolicy::Greedy),
        ("cleaning_copies_costbenefit", GcPolicy::CostBenefit),
    ] {
        let copied = skewed(policy).gc_copied_sectors;
        g.throughput(Throughput::Elements(copied));
        g.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(skewed(policy).gc_copied_sectors));
        });
    }
    g.finish();
}

/// Fleet serving: the multi-tenant node's aggregate cost. The
/// `aggregate_write_4K_{1,16,64}vol` family connects one client per
/// tenant and writes one 4K block on every tenant per iteration
/// (round-robin), so per-iteration time is the node's cost to push one
/// block through *each* of N exports — scripts/bench_gate.py holds the
/// 64-tenant per-op cost to >= 0.85x of single-tenant aggregate
/// throughput. `conn_scale_{64,512}` holds N negotiated connections
/// open on one reactor and round-trips a 4K read on one of them per
/// iteration: the price of an idle-heavy poll set.
fn bench_fleet(c: &mut Criterion) {
    use lsvd::fleet::ExportRegistry;
    use lsvd::shared::SharedVolume;
    use nbd::server::ServerConfig;

    let mut g = c.benchmark_group("fleet");

    for vols in [1usize, 16, 64] {
        let store = Arc::new(MemStore::new());
        let registry = Arc::new(ExportRegistry::new());
        for i in 0..vols {
            let cache = Arc::new(RamDisk::new(6 << 20));
            let vol = Volume::create(
                store.clone(),
                cache,
                &format!("vol{i}"),
                16 << 20,
                VolumeConfig {
                    gc_enabled: false,
                    ..VolumeConfig::small_for_tests()
                },
            )
            .unwrap();
            registry
                .attach(&format!("vol{i}"), SharedVolume::new(vol))
                .unwrap();
        }
        let handle = nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default())
            .expect("bind fleet server");
        let addr = handle.addr();
        let mut clients: Vec<nbd::Client> = (0..vols)
            .map(|i| nbd::Client::connect(addr, &format!("vol{i}")).expect("connect"))
            .collect();
        let data = vec![0x5Au8; 4096];
        g.throughput(Throughput::Bytes(vols as u64 * 4096));
        g.bench_function(format!("aggregate_write_4K_{vols}vol"), |b| {
            let mut x = 0x2468u64;
            b.iter(|| {
                for c in clients.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let off = (x >> 33) % ((8 << 20) / 4096) * 4096;
                    c.write(off, &data).unwrap();
                }
            });
        });
        for c in clients {
            c.disconnect().ok();
        }
        handle.stop();
        for name in registry.list() {
            registry.detach(&name).ok();
        }
    }

    for conns in [64usize, 512] {
        let store = Arc::new(MemStore::new());
        let registry = Arc::new(ExportRegistry::new());
        let cache = Arc::new(RamDisk::new(8 << 20));
        let vol = Volume::create(
            store,
            cache,
            "vol0",
            16 << 20,
            VolumeConfig {
                gc_enabled: false,
                ..VolumeConfig::small_for_tests()
            },
        )
        .unwrap();
        registry.attach("vol0", SharedVolume::new(vol)).unwrap();
        let handle = nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default())
            .expect("bind fleet server");
        let addr = handle.addr();
        let mut clients: Vec<nbd::Client> = (0..conns)
            .map(|_| nbd::Client::connect(addr, "vol0").expect("connect"))
            .collect();
        // Map the read window once so every connection hits it.
        clients[0].write(0, &vec![0xABu8; 1 << 20]).unwrap();
        clients[0].flush().unwrap();
        let mut buf = vec![0u8; 4096];
        g.throughput(Throughput::Bytes(4096));
        g.bench_function(format!("conn_scale_{conns}"), |b| {
            let mut next = 0usize;
            b.iter(|| {
                next = (next + 1) % conns;
                let off = (next as u64 * 4096) % (1 << 20);
                clients[next].read(off, &mut buf).unwrap();
            });
        });
        for c in clients {
            c.disconnect().ok();
        }
        handle.stop();
        for name in registry.list() {
            registry.detach(&name).ok();
        }
    }
    g.finish();
}

fn bench_gcsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("gcsim");
    g.bench_function("write_with_gc_churn", |b| {
        let mut sim = GcSim::new(GcSimConfig {
            batch_sectors: 4096,
            mode: GcSimMode::Merge,
            ..GcSimConfig::default()
        });
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.write((x >> 33) % 100_000 / 8 * 8, 8);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_extent_map,
    bench_crc32c,
    bench_wlog_append,
    bench_batch_seal,
    bench_volume_write,
    bench_volume_write_read,
    bench_read_plane,
    bench_nbd,
    bench_fleet,
    bench_telemetry,
    bench_gc,
    bench_gcsim
);

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and allocated bytes (a
/// reallocation counts once, at its new size) across every thread, so
/// the server threads of the NBD benches count too.
struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Keeps the allocator's pages resident for the whole suite. The hosts
/// these benches run on demand-page lazily (microVMs with free-page
/// reporting re-chill memory the guest frees), so without this the
/// object-heavy volume benches measure first-touch page-fault latency —
/// tens of microseconds per 4 KiB on a cold host — instead of the write
/// path. Serving every allocation from a pre-faulted sbrk heap that is
/// never trimmed makes the numbers reflect the code under test.
///
/// It also hides what the serving binaries pay: they run on a cold
/// heap, where every fresh 8 MiB allocation takes first-touch faults.
/// That is why a second copy of each sealed object into fresh memory
/// never showed in `batch/*`'s times. The per-iteration allocation
/// counts are the check that sees such a copy.
#[cfg(target_env = "gnu")]
fn pin_heap() {
    extern "C" {
        fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
    }
    const M_TRIM_THRESHOLD: core::ffi::c_int = -1;
    const M_MMAP_MAX: core::ffi::c_int = -4;
    // SAFETY: plain glibc tuning calls; no aliasing or threads yet.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
    // Fault the heap in once; the allocation is released back to the
    // (now untrimmed) heap, not the OS, so later benches reuse it warm.
    let warm = vec![1u8; 1 << 30];
    std::hint::black_box(&warm);
}

#[cfg(not(target_env = "gnu"))]
fn pin_heap() {}

fn main() {
    pin_heap();
    criterion::count_allocations(|| (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed)));
    benches();
    criterion::finalize();
}
