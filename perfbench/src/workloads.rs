//! The two workloads: their fixed shapes, seeded op streams and set-up.
//!
//! Configuration is what `lsvdctl serve` ships: `VolumeConfig::default()`,
//! `ServerConfig::default()`, a 256 MiB `FileDisk` cache file, and a
//! `DirStore` bucket behind `LatencyStore` (PUT 20 ms, GET 10 ms,
//! head/list/delete 5 ms). Set-up runs with the modelled delays off.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use lsvd::config::VolumeConfig;
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use nbd::{ServerConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::Rng;
use sim::rng::{derive_seed, rng_from_seed, Zipf};

use crate::load::{drive, fill, scatter, Conn, Kind, Model, Op, OpStream, BLOCK};
use crate::probe::{Probe, TimedDisk, TimedStore};

pub const IMAGE: &str = "bench";
/// The `lsvdctl` default cache file size.
pub const CACHE_BYTES: u64 = 256 << 20;
const MIB_BLOCKS: u64 = (1 << 20) / BLOCK;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 connections at QD1 on a 1 GiB volume, each cycling 4 × 4 KiB
    /// uniform writes to the cold 960 MiB, one FLUSH, and 2 × 4 KiB zipf
    /// reads from a 64 MiB hot region that set-up leaves in the read cache.
    Sync4k,
    /// 1 connection at QD8 over a prefilled 1 GiB image reopened with a
    /// cold cache: 90% 4 KiB zipf(0.99) reads over hash-scattered blocks,
    /// 10% 4 KiB uniform writes, no flush until the end.
    ReadMiss,
}

/// Volume size of both workloads: 1 GiB.
const SIZE_BLOCKS: u64 = 1024 * MIB_BLOCKS;
const SYNC_HOT_BLOCKS: u64 = 64 * MIB_BLOCKS;
const ZIPF_THETA: f64 = 0.99;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sync-4k" => Some(Workload::Sync4k),
            "read-miss" => Some(Workload::ReadMiss),
            _ => None,
        }
    }

    pub fn conns(self) -> u64 {
        match self {
            Workload::Sync4k => 2,
            Workload::ReadMiss => 1,
        }
    }

    fn qd(self) -> usize {
        match self {
            Workload::Sync4k => 1,
            Workload::ReadMiss => 8,
        }
    }

    /// Blocks holding version-0 data after set-up.
    pub fn prefilled(self) -> Range<u64> {
        match self {
            Workload::Sync4k => 0..SYNC_HOT_BLOCKS,
            Workload::ReadMiss => 0..SIZE_BLOCKS,
        }
    }

    /// Prefilled blocks that no connection writes (the hot region).
    pub fn read_only(self) -> Range<u64> {
        match self {
            Workload::Sync4k => 0..SYNC_HOT_BLOCKS,
            Workload::ReadMiss => 0..0,
        }
    }

    /// The blocks connection `c` writes.
    fn owned(self, c: u64) -> Range<u64> {
        match self {
            Workload::Sync4k => {
                let half = (SIZE_BLOCKS - SYNC_HOT_BLOCKS) / 2;
                let lo = SYNC_HOT_BLOCKS + c * half;
                lo..lo + half
            }
            Workload::ReadMiss => 0..SIZE_BLOCKS,
        }
    }

    fn stream(self, c: u64, seed: u64) -> Box<dyn OpStream> {
        let rng = rng_from_seed(derive_seed(seed, c + 1));
        let owned = self.owned(c);
        match self {
            Workload::Sync4k => Box::new(Sync4k {
                rng,
                owned,
                zipf: Zipf::new(SYNC_HOT_BLOCKS, ZIPF_THETA),
                seed,
                step: 0,
            }),
            Workload::ReadMiss => Box::new(ReadMiss {
                rng,
                owned,
                zipf: Zipf::new(SIZE_BLOCKS, ZIPF_THETA),
                seed,
            }),
        }
    }
}

struct Sync4k {
    rng: SmallRng,
    owned: Range<u64>,
    zipf: Zipf,
    seed: u64,
    step: u32,
}

impl OpStream for Sync4k {
    fn next_op(&mut self) -> Op {
        let step = self.step;
        self.step = (step + 1) % 7;
        match step {
            0..=3 => Op {
                kind: Kind::Write,
                block: self.rng.gen_range(self.owned.clone()),
                blocks: 1,
            },
            4 => Op::flush(),
            _ => Op {
                kind: Kind::Read,
                block: scatter(self.zipf.sample(&mut self.rng), SYNC_HOT_BLOCKS, self.seed),
                blocks: 1,
            },
        }
    }
}

struct ReadMiss {
    rng: SmallRng,
    owned: Range<u64>,
    zipf: Zipf,
    seed: u64,
}

impl OpStream for ReadMiss {
    fn next_op(&mut self) -> Op {
        let n = self.owned.end - self.owned.start;
        if self.rng.gen_bool(0.1) {
            Op {
                kind: Kind::Write,
                block: self.rng.gen_range(self.owned.clone()),
                blocks: 1,
            }
        } else {
            Op {
                kind: Kind::Read,
                block: self.owned.start + scatter(self.zipf.sample(&mut self.rng), n, self.seed),
                blocks: 1,
            }
        }
    }
}

/// Everything a set-up leaves running.
pub struct Rig {
    pub dir: PathBuf,
    pub store: Arc<TimedStore>,
    pub cache_path: PathBuf,
    pub sv: SharedVolume,
    pub server: ServerHandle,
    pub conns: Vec<Conn>,
    pub streams: Vec<Box<dyn OpStream>>,
    /// Requests completed on every connection.
    pub done: AtomicU64,
    /// Hit ratio of the last warm-up window (read-miss only).
    pub warm_hit_ratio: Option<f64>,
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Writes `blocks` in 1 MiB requests with their version-0 contents.
fn prefill(vol: &mut Volume, blocks: Range<u64>, seed: u64) -> Res<()> {
    let mut buf = vec![0u8; (MIB_BLOCKS * BLOCK) as usize];
    for start in blocks.step_by(MIB_BLOCKS as usize) {
        for (i, chunk) in buf.chunks_exact_mut(BLOCK as usize).enumerate() {
            fill(chunk, start + i as u64, 0, seed);
        }
        vol.write(start * BLOCK, &buf)
            .map_err(err("prefill write"))?;
    }
    Ok(())
}

/// Creates the volume, prefills and warms it, starts the server and
/// connects the clients.
pub fn setup(w: Workload, seed: u64, dir: &Path, probe: &Arc<Probe>) -> Res<Rig> {
    fs::create_dir_all(dir).map_err(err("data dir"))?;
    probe.modelled.store(false, Relaxed);
    let store =
        Arc::new(TimedStore::open(&dir.join("bucket"), probe.clone()).map_err(err("bucket"))?);
    let cache_path = dir.join("cache.img");
    let disk = TimedDisk::create(&cache_path, CACHE_BYTES, probe.clone()).map_err(err("cache"))?;
    let mut vol = Volume::create(
        store.clone(),
        Arc::new(disk),
        IMAGE,
        SIZE_BLOCKS * BLOCK,
        VolumeConfig::default(),
    )
    .map_err(err("create"))?;
    if !w.prefilled().is_empty() {
        // Prefill, then shut down cleanly so that the run starts right
        // after a checkpoint with the prefill in the bucket.
        prefill(&mut vol, w.prefilled(), seed)?;
        vol.shutdown().map_err(err("shutdown"))?;
        let disk = if w == Workload::ReadMiss {
            // A fresh cache file: nothing of the image is cached.
            fs::remove_file(&cache_path).map_err(err("cache"))?;
            TimedDisk::create(&cache_path, CACHE_BYTES, probe.clone())
        } else {
            TimedDisk::open(&cache_path, probe.clone())
        };
        let disk = disk.map_err(err("cache"))?;
        vol = Volume::open(
            store.clone(),
            Arc::new(disk),
            IMAGE,
            VolumeConfig::default(),
        )
        .map_err(err("reopen"))?;
    }
    if w == Workload::Sync4k {
        // Read the hot region once in 1 MiB pieces at a 7 MiB stride
        // (never a sequential run, which read-cache admission would
        // bypass) so that it sits in the read cache.
        let chunks = SYNC_HOT_BLOCKS / MIB_BLOCKS;
        let mut buf = vec![0u8; (MIB_BLOCKS * BLOCK) as usize];
        for i in 0..chunks {
            let chunk = (i * 7) % chunks;
            vol.read(chunk * MIB_BLOCKS * BLOCK, &mut buf)
                .map_err(err("warm read"))?;
        }
        let inserted = vol.read_cache_stats().inserted_sectors;
        if inserted * 512 < SYNC_HOT_BLOCKS * BLOCK {
            return Err(format!("hot region not admitted: {inserted} sectors"));
        }
    }
    probe.set_rcache_region(vol.read_cache_region());
    let sv = SharedVolume::new(vol);
    let server = nbd::serve("127.0.0.1:0", IMAGE, sv.clone(), ServerConfig::default())
        .map_err(err("serve"))?;
    let mut conns = Vec::new();
    let mut streams = Vec::new();
    for c in 0..w.conns() {
        let model = Model::new(seed, w.owned(c), w.prefilled());
        conns.push(Conn::connect(server.addr(), IMAGE, w.qd(), model).map_err(err("connect"))?);
        streams.push(w.stream(c, seed));
    }
    let mut rig = Rig {
        dir: dir.to_path_buf(),
        store,
        cache_path,
        sv,
        server,
        conns,
        streams,
        done: AtomicU64::new(0),
        warm_hit_ratio: None,
    };
    if w == Workload::ReadMiss {
        rig.warm_hit_ratio = Some(warm_up(&mut rig)?);
    }
    probe.modelled.store(true, Relaxed);
    Ok(rig)
}

/// Runs the workload in windows of 1500 ops: four windows, which is where
/// the hit ratio has levelled off on every seed tried, and more only while
/// the last two windows still differ by 0.05 or more. A fixed amount of
/// work keeps set-up time comparable between runs. Returns the hit ratio
/// of the last window.
fn warm_up(rig: &mut Rig) -> Res<f64> {
    const WINDOW: u64 = 1500;
    const MIN_WINDOWS: usize = 4;
    const MAX_WINDOWS: usize = 12;
    let rp = |sv: &SharedVolume| -> Res<(u64, u64)> {
        let t = sv.telemetry().map_err(err("telemetry"))?.read_plane;
        Ok((t.hit_reads, t.reads))
    };
    let mut last = rp(&rig.sv)?;
    let mut ratios: Vec<f64> = Vec::new();
    for _ in 0..MAX_WINDOWS {
        let (conn, ops) = (&mut rig.conns[0], &mut rig.streams[0]);
        drive(conn, ops.as_mut(), &rig.done, |n| n >= WINDOW).map_err(err("warm-up"))?;
        let now = rp(&rig.sv)?;
        ratios.push((now.0 - last.0) as f64 / (now.1 - last.1).max(1) as f64);
        last = now;
        if let [.., a, b] = ratios[..] {
            if ratios.len() >= MIN_WINDOWS && (a - b).abs() < 0.05 {
                break;
            }
        }
    }
    Ok(*ratios.last().expect("at least one window"))
}

impl Rig {
    /// Tears down a set-up that is not used for the run.
    pub fn discard(self) {
        for c in self.conns {
            let _ = c.disconnect();
        }
        self.server.stop();
        drop(self.sv);
        let _ = fs::remove_dir_all(&self.dir);
    }
}
