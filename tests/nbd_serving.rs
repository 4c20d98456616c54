//! Integration: the NBD serving plane end-to-end.
//!
//! Acceptance for the serving plane: the in-tree client negotiates the
//! export, drives concurrent READ/WRITE/FLUSH/TRIM from several
//! connections, disconnects and reconnects with exact readback — and the
//! crash-consistency guarantees of `tests/crash_consistency.rs` hold when
//! the parties die at the worst times: a client killed mid-write-burst, a
//! server killed mid-traffic (with and without losing the cache SSD).
//! Read misses never hold a serving worker: with every GET parked, hits,
//! writes and other tenants still complete, and a detach still drains the
//! parked reads. The reactor runs hits and log-only writes itself, but
//! never a request that waits on the backend: with a sealing write parked
//! on its PUT, hits and other tenants still complete. Replies keep their
//! order across the reactor and the workers, and drain through a full
//! socket.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use blkdev::RamDisk;
use bytes::Bytes;
use lsvd::config::VolumeConfig;
use lsvd::fleet::ExportRegistry;
use lsvd::shared::SharedVolume;
use lsvd::verify::{History, Verdict, VBLOCK};
use lsvd::volume::Volume;
use nbd::proto::{
    decode_simple_reply, encode_request, Request, CMD_READ, CMD_WRITE, SIMPLE_REPLY_LEN,
};
use nbd::server::ServerConfig;
use nbd::Client;
use objstore::{MemStore, ObjectStore};
use rand::Rng;
use sim::rng::rng_from_seed;

/// Pipelined writeback, as the serving plane would run in production.
fn pipelined_cfg() -> VolumeConfig {
    VolumeConfig {
        writeback_threads: 3,
        max_inflight_puts: 3,
        ..VolumeConfig::small_for_tests()
    }
}

struct Rig {
    store: Arc<MemStore>,
    cache: Arc<RamDisk>,
    volume: SharedVolume,
    handle: Option<nbd::ServerHandle>,
    addr: std::net::SocketAddr,
}

fn rig(cfg: VolumeConfig) -> Rig {
    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let vol =
        Volume::create(store.clone(), cache.clone(), "vol", 64 << 20, cfg).expect("create volume");
    let volume = SharedVolume::new(vol);
    let handle = nbd::serve(
        "127.0.0.1:0",
        "vol",
        volume.clone(),
        ServerConfig::default(),
    )
    .expect("bind server");
    let addr = handle.addr();
    Rig {
        store,
        cache,
        volume,
        handle: Some(handle),
        addr,
    }
}

impl Rig {
    /// Stops the server (graceful: queued jobs drain) and then "crashes"
    /// the volume — dropped without shutdown, exactly like the process
    /// dying with traffic in flight.
    fn crash(mut self, lose_cache: bool) -> (Arc<MemStore>, Arc<RamDisk>) {
        self.handle.take().unwrap().stop();
        drop(self.volume); // no shutdown: no final flush, no checkpoint
        if lose_cache {
            self.cache.obliterate();
        }
        (self.store, self.cache)
    }
}

#[test]
fn four_connections_of_concurrent_mixed_traffic_with_reconnect() {
    let r = rig(pipelined_cfg());
    let addr = r.addr;

    // Each connection owns a disjoint 4 MiB region: write a patterned
    // block set, flush, trim a slice, and verify — all concurrently.
    let mut joins = Vec::new();
    for t in 0..4u64 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr, "vol").expect("connect");
            assert_eq!(c.size(), 64 << 20, "negotiated size");
            let base = t * (4 << 20);
            let mut rng = rng_from_seed(77 + t);
            for i in 0..64u64 {
                let off = base + i * 16384;
                let tag = (t * 64 + i) as u8;
                c.write(off, &[tag; 4096]).expect("write");
                if rng.gen_range(0..4u32) == 0 {
                    c.flush().expect("flush");
                }
            }
            c.trim(base + 63 * 16384, 4096).expect("trim last block");
            c.flush().expect("final flush");
            let mut buf = [0u8; 4096];
            for i in 0..63u64 {
                c.read(base + i * 16384, &mut buf).expect("read");
                assert_eq!(buf, [(t * 64 + i) as u8; 4096], "conn {t} block {i}");
            }
            c.read(base + 63 * 16384, &mut buf).expect("read trimmed");
            assert_eq!(buf, [0u8; 4096], "trimmed block reads zero");
            c.disconnect().expect("disconnect");
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Reconnect on a fresh connection: everything reads back exactly.
    let mut c = Client::connect(addr, "vol").expect("reconnect");
    let mut buf = [0u8; 4096];
    for t in 0..4u64 {
        for i in 0..63u64 {
            c.read(t * (4 << 20) + i * 16384, &mut buf).expect("read");
            assert_eq!(buf, [(t * 64 + i) as u8; 4096]);
        }
    }
    c.disconnect().expect("disconnect");

    // The latency split and gauges are visible through Volume::telemetry.
    // DISC is processed asynchronously after the client returns, so give
    // the close gauge a moment to settle.
    let mut snap = r.volume.telemetry().expect("telemetry");
    for _ in 0..100 {
        if snap.serving.conns_open == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        snap = r.volume.telemetry().expect("telemetry");
    }
    let s = &snap.serving;
    assert_eq!(s.conns_total, 5, "four workers plus the reconnect");
    assert_eq!(s.conns_open, 0, "all connections closed");
    assert!(s.reads >= 4 * 64 + 4 * 63, "reads counted: {}", s.reads);
    assert!(s.writes >= 4 * 64, "writes counted: {}", s.writes);
    assert!(s.flushes >= 4, "flushes counted: {}", s.flushes);
    assert_eq!(s.trims, 4, "trims counted");
    assert!(s.queue_wait.count > 0 && s.service.count > 0 && s.socket_wait.count > 0);
    let prom = snap.to_prometheus();
    assert!(prom.contains("lsvd_serving_service_p99_ns"), "{prom}");

    r.handle.unwrap().stop();
    r.volume.shutdown().expect("clean shutdown");
}

#[test]
fn client_killed_mid_write_burst_loses_nothing_acknowledged() {
    let r = rig(pipelined_cfg());
    let addr = r.addr;

    let mut c = Client::connect(addr, "vol").expect("connect");
    let mut hist = History::new();
    let mut rng = rng_from_seed(11);
    for i in 0..300usize {
        let block = rng.gen_range(0..2048u64);
        let data = hist.record_write(block * VBLOCK, VBLOCK);
        c.write(block * VBLOCK, &data).expect("write");
        if i % 37 == 0 {
            c.flush().expect("flush");
            hist.mark_committed();
        }
    }
    drop(c); // kill: no NBD_CMD_DISC, the socket just dies

    // The server survives the abrupt disconnect; a new connection sees
    // every acknowledged write (the volume never crashed).
    let mut c = Client::connect(addr, "vol").expect("reconnect");
    let v = hist.check_prefix_consistent(|block| {
        let mut buf = vec![0u8; VBLOCK as usize];
        c.read(block * VBLOCK, &mut buf).expect("read");
        buf
    });
    match v {
        Verdict::ConsistentPrefix {
            cut,
            lost_committed,
        } => {
            assert_eq!(lost_committed, 0, "committed writes lost");
            assert_eq!(
                cut,
                hist.last_index(),
                "no crash: every acked write present"
            );
        }
        Verdict::Inconsistent { .. } => panic!("{v:?}"),
    }
    c.disconnect().expect("disconnect");
    let (_, _) = r.crash(false);
}

fn server_killed_mid_traffic(seed: u64, lose_cache: bool) -> Verdict {
    let r = rig(pipelined_cfg());
    let addr = r.addr;

    let mut c = Client::connect(addr, "vol").expect("connect");
    let mut hist = History::new();
    let mut rng = rng_from_seed(seed);
    for i in 0..400usize {
        let block = rng.gen_range(0..2048u64);
        let data = hist.record_write(block * VBLOCK, VBLOCK);
        c.write(block * VBLOCK, &data).expect("write");
        if i % 29 == 0 {
            c.flush().expect("flush");
            hist.mark_committed();
        }
    }
    // Kill the server with the final flush's durability racing the crash:
    // requests past this point may be queued, mid-service, or unsent.
    drop(c);
    let (store, cache) = r.crash(lose_cache);

    let store: Arc<dyn ObjectStore> = store;
    let mut vol = Volume::open(store, cache, "vol", pipelined_cfg()).expect("recovery");
    hist.check_prefix_consistent(|block| {
        let mut buf = vec![0u8; VBLOCK as usize];
        vol.read(block * VBLOCK, &mut buf).expect("read");
        buf
    })
}

#[test]
fn server_killed_with_cache_intact_recovers_all_acknowledged_writes() {
    for seed in 500..503 {
        match server_killed_mid_traffic(seed, false) {
            Verdict::ConsistentPrefix { lost_committed, .. } => {
                assert_eq!(lost_committed, 0, "seed {seed}: committed writes lost");
            }
            v @ Verdict::Inconsistent { .. } => panic!("seed {seed}: {v:?}"),
        }
    }
}

#[test]
fn server_killed_with_cache_loss_is_prefix_consistent() {
    for seed in 600..603 {
        let v = server_killed_mid_traffic(seed, true);
        assert!(v.is_consistent(), "seed {seed}: {v:?}");
    }
}

#[test]
fn trims_over_nbd_survive_a_server_crash() {
    // Trim only regions the History never touches: the verifier decodes
    // all-zero blocks as "never written", so trimmed history blocks would
    // be indistinguishable from lost ones.
    let r = rig(pipelined_cfg());
    let addr = r.addr;
    let hist_span = 1024u64 * VBLOCK; // history stays below 4 MiB
    let trim_base = 32 << 20; // trims live at 32 MiB

    let mut c = Client::connect(addr, "vol").expect("connect");
    let mut hist = History::new();
    let mut rng = rng_from_seed(21);
    c.write(trim_base, &[0xEEu8; 65536])
        .expect("seed trim region");
    for i in 0..200usize {
        let block = rng.gen_range(0..1024u64);
        let data = hist.record_write(block * VBLOCK, VBLOCK);
        c.write(block * VBLOCK, &data).expect("write");
        if i % 50 == 25 {
            c.trim(trim_base + (i as u64 / 50) * 16384, 16384)
                .expect("trim");
        }
    }
    c.flush().expect("flush");
    hist.mark_committed();
    drop(c);
    let (store, cache) = r.crash(false);

    let store: Arc<dyn ObjectStore> = store;
    let mut vol = Volume::open(store, cache, "vol", pipelined_cfg()).expect("recovery");
    let v = hist.check_prefix_consistent(|block| {
        let mut buf = vec![0u8; VBLOCK as usize];
        vol.read(block * VBLOCK, &mut buf).expect("read");
        buf
    });
    assert!(v.is_consistent(), "{v:?}");
    // Acknowledged trims replay from the cache log like writes do.
    let mut buf = vec![0u8; 65536];
    vol.read(trim_base, &mut buf).expect("read trim region");
    for (i, chunk) in buf.chunks(16384).enumerate() {
        if i < 4 {
            assert!(
                chunk.iter().all(|&b| b == 0),
                "trimmed slice {i} reads zero after recovery"
            );
        }
    }
    assert!(hist_span <= trim_base, "regions disjoint by construction");
}

// ---------------------------------------------------------------------
// Read misses off the serving workers.
// ---------------------------------------------------------------------

/// A backend whose ranged GETs — and PUTs too, when `gate_puts` — park on
/// a gate while it is closed.
#[derive(Default)]
struct GatedStore {
    inner: MemStore,
    gate: Mutex<Gate>,
    cv: Condvar,
    gate_puts: bool,
}

#[derive(Default)]
struct Gate {
    closed: bool,
    /// GETs parked at the gate right now.
    parked: usize,
    /// The gate was opened after being closed.
    released: bool,
}

impl GatedStore {
    fn close(&self) {
        self.gate.lock().unwrap().closed = true;
    }

    fn open(&self) {
        let mut g = self.gate.lock().unwrap();
        if g.closed {
            g.closed = false;
            g.released = true;
        }
        self.cv.notify_all();
    }

    fn released(&self) -> bool {
        self.gate.lock().unwrap().released
    }

    /// Blocks until `n` requests are parked at once, or the gate opens.
    fn await_parked(&self, n: usize) {
        let mut g = self.gate.lock().unwrap();
        while g.closed && g.parked < n {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Parks the calling request while the gate is closed.
    fn pass(&self) {
        let mut g = self.gate.lock().unwrap();
        g.parked += 1;
        self.cv.notify_all();
        while g.closed {
            g = self.cv.wait(g).unwrap();
        }
        g.parked -= 1;
    }
}

impl ObjectStore for GatedStore {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        if self.gate_puts {
            self.pass();
        }
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
        self.pass();
        self.inner.get_range(name, offset, len)
    }
    fn head(&self, name: &str) -> objstore::Result<u64> {
        self.inner.head(name)
    }
    fn delete(&self, name: &str) -> objstore::Result<()> {
        self.inner.delete(name)
    }
    fn list(&self, prefix: &str) -> objstore::Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// Cold reads land this far apart, each block in its own backend object.
const COLD_STRIDE: u64 = 1 << 20;

/// A volume over a gated store holding `n` cold blocks: block `i` at
/// `i * COLD_STRIDE`, filled with `i + 1` and drained into its own
/// object, so reading it back is a backend miss. No cleaner, so the only
/// GETs are the reads'.
fn cold_volume(n: u64) -> (Arc<GatedStore>, SharedVolume) {
    let store = Arc::new(GatedStore::default());
    let cfg = VolumeConfig {
        gc_enabled: false,
        ..VolumeConfig::small_for_tests()
    };
    let vol = Volume::create(
        store.clone(),
        Arc::new(RamDisk::new(24 << 20)),
        "cold",
        64 << 20,
        cfg,
    )
    .expect("create volume");
    let sv = SharedVolume::new(vol);
    for i in 0..n {
        sv.write(i * COLD_STRIDE, &[i as u8 + 1; 4096]).unwrap();
        sv.with_volume(|v| v.drain()).unwrap().unwrap();
    }
    (store, sv)
}

/// Sends a 4 KiB READ of block `i` of the cold layout, cookie `i + 1`.
fn send_cold_read(stream: &mut TcpStream, i: u64) {
    let req = Request {
        flags: 0,
        cmd: CMD_READ,
        cookie: i + 1,
        offset: i * COLD_STRIDE,
        length: 4096,
    };
    stream.write_all(&encode_request(&req)).unwrap();
}

/// Reads one 4 KiB READ reply: `(cookie, payload)`.
fn recv_read_reply(stream: &mut TcpStream) -> (u64, Vec<u8>) {
    let mut hdr = [0u8; SIMPLE_REPLY_LEN];
    stream.read_exact(&mut hdr).unwrap();
    let reply = decode_simple_reply(&hdr).expect("reply magic");
    assert_eq!(reply.error, 0, "READ cookie {} failed", reply.cookie);
    let mut data = vec![0u8; 4096];
    stream.read_exact(&mut data).unwrap();
    (reply.cookie, data)
}

/// Opens `store`'s gate when dropped or after a long grace period, so a
/// regression fails its assertion instead of hanging the suite.
fn watchdog(store: &Arc<GatedStore>) -> mpsc::Sender<()> {
    let (tx, rx) = mpsc::channel::<()>();
    let store = store.clone();
    std::thread::spawn(move || {
        let _ = rx.recv_timeout(Duration::from_secs(30));
        store.open();
    });
    tx
}

#[test]
fn read_misses_do_not_hold_the_serving_workers() {
    const MISSES: u64 = 8; // more than the server's 4 + 1 workers
    let (store, cold) = cold_volume(MISSES);
    // A hit: written, never flushed, so it stays in the write-back cache.
    let hot = 48 << 20;
    cold.write(hot, &[0xC3; 4096]).unwrap();
    let warm = {
        let vol = Volume::create(
            Arc::new(MemStore::new()),
            Arc::new(RamDisk::new(8 << 20)),
            "warm",
            16 << 20,
            VolumeConfig::small_for_tests(),
        )
        .expect("create volume");
        SharedVolume::new(vol)
    };
    let registry = Arc::new(ExportRegistry::new());
    registry.attach("cold", cold).unwrap();
    registry.attach("warm", warm).unwrap();
    let handle =
        nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut misses = Client::connect(addr, "cold").unwrap().into_raw();
    let mut other = Client::connect(addr, "cold").unwrap();
    let mut tenant = Client::connect(addr, "warm").unwrap();

    let guard = watchdog(&store);
    store.close();
    for i in 0..MISSES {
        send_cold_read(&mut misses, i);
    }
    store.await_parked(MISSES as usize);

    // Every miss is parked on its GET. The rest of the node still serves.
    let mut buf = [0u8; 4096];
    other.read(hot, &mut buf).expect("hit");
    assert_eq!(buf, [0xC3; 4096]);
    other.write(hot + 4096, &[0x5A; 4096]).expect("write");
    other.flush().expect("flush");
    tenant
        .write(0, &[0x77; 4096])
        .expect("other tenant's write");
    tenant.flush().expect("other tenant's flush");
    assert!(
        !store.released(),
        "a hit, a write + flush and another tenant's write waited for parked GETs"
    );

    store.open();
    let mut got = HashMap::new();
    for _ in 0..MISSES {
        let (cookie, data) = recv_read_reply(&mut misses);
        got.insert(cookie, data);
    }
    for i in 0..MISSES {
        assert_eq!(
            got[&(i + 1)],
            vec![i as u8 + 1; 4096],
            "miss {i} returned the wrong bytes"
        );
    }
    drop(guard);
    drop(misses);
    other.disconnect().unwrap();
    tenant.disconnect().unwrap();
    handle.stop();
    for name in registry.list() {
        registry.detach(&name).unwrap();
    }
}

#[test]
fn detach_drains_a_read_parked_on_its_get() {
    let (store, cold) = cold_volume(1);
    let registry = Arc::new(ExportRegistry::new());
    let export = registry.attach("cold", cold).unwrap();
    let handle =
        nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
    let mut conn = Client::connect(handle.addr(), "cold").unwrap().into_raw();

    let guard = watchdog(&store);
    store.close();
    send_cold_read(&mut conn, 0);
    store.await_parked(1);
    let detacher = {
        let registry = registry.clone();
        std::thread::spawn(move || registry.detach("cold"))
    };
    while !export.is_fenced() {
        std::thread::yield_now();
    }
    // The read left its worker, but the export still counts it: detach
    // cannot shut the volume down under it.
    assert_eq!(export.inflight(), 1, "the parked read is not in flight");
    assert!(
        !detacher.is_finished(),
        "detach returned over a parked read"
    );
    assert!(!store.released());

    store.open();
    detacher.join().unwrap().expect("detach");
    let (cookie, data) = recv_read_reply(&mut conn);
    assert_eq!(
        (cookie, data),
        (1, vec![1u8; 4096]),
        "the drained read's reply"
    );
    drop(guard);
    handle.stop();
}

// ---------------------------------------------------------------------
// Requests run to completion on the reactor.
// ---------------------------------------------------------------------

/// Sends one request with cookie `cookie` (and `data`, for a WRITE).
fn send(stream: &mut TcpStream, cmd: u16, cookie: u64, offset: u64, length: u32, data: &[u8]) {
    let req = Request {
        flags: 0,
        cmd,
        cookie,
        offset,
        length,
    };
    stream.write_all(&encode_request(&req)).unwrap();
    stream.write_all(data).unwrap();
}

/// Reads one reply carrying `len` payload bytes: `(cookie, payload)`.
fn recv(stream: &mut TcpStream, len: usize) -> (u64, Vec<u8>) {
    let mut hdr = [0u8; SIMPLE_REPLY_LEN];
    stream.read_exact(&mut hdr).unwrap();
    let reply = decode_simple_reply(&hdr).expect("reply magic");
    assert_eq!(reply.error, 0, "request {} failed", reply.cookie);
    let mut data = vec![0u8; len];
    stream.read_exact(&mut data).unwrap();
    (reply.cookie, data)
}

/// `len` bytes whose every 4 KiB block differs by `seed` and position,
/// so a misplaced or reordered block shows.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed * 31 + (i / 4096) as u64 * 7 + (i % 251) as u64) as u8)
        .collect()
}

/// A volume with its own in-memory backend, served as a plain tenant.
fn plain_volume(cfg: VolumeConfig, cache_bytes: u64) -> SharedVolume {
    let vol = Volume::create(
        Arc::new(MemStore::new()),
        Arc::new(RamDisk::new(cache_bytes)),
        "plain",
        64 << 20,
        cfg,
    )
    .expect("create volume");
    SharedVolume::new(vol)
}

#[test]
fn a_write_that_seals_never_runs_on_the_reactor() {
    // Small batches over a backend whose PUTs park at the gate, with the
    // inline executor: a write that seals waits for its PUT on whichever
    // thread runs it.
    let store = Arc::new(GatedStore {
        gate_puts: true,
        ..GatedStore::default()
    });
    let cfg = VolumeConfig {
        gc_enabled: false,
        ..VolumeConfig::small_for_tests()
    };
    let sealing = {
        let vol = Volume::create(
            store.clone(),
            Arc::new(RamDisk::new(24 << 20)),
            "sealing",
            64 << 20,
            cfg.clone(),
        )
        .expect("create volume");
        SharedVolume::new(vol)
    };
    let hot = 48 << 20;
    sealing.write(hot, &[0xC3; 4096]).unwrap();
    let batch = cfg.batch_bytes as usize;
    let registry = Arc::new(ExportRegistry::new());
    registry.attach("sealing", sealing).unwrap();
    registry
        .attach("other", plain_volume(cfg, 8 << 20))
        .unwrap();
    let handle =
        nbd::serve_fleet("127.0.0.1:0", registry.clone(), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut sealer = Client::connect(addr, "sealing").unwrap().into_raw();
    let mut reader = Client::connect(addr, "sealing").unwrap();
    let mut tenant = Client::connect(addr, "other").unwrap();

    let guard = watchdog(&store);
    store.close();
    // One WRITE that fills the batch: it seals, and its PUT parks.
    let fill = pattern(1, batch);
    send(&mut sealer, CMD_WRITE, 1, 0, batch as u32, &fill);
    store.await_parked(1);

    // The reactor is free: a hit on the same export, and a write + FLUSH
    // on another, complete while the PUT is parked.
    let mut buf = [0u8; 4096];
    reader.read(hot, &mut buf).expect("hit");
    assert_eq!(buf, [0xC3; 4096]);
    tenant
        .write(0, &[0x77; 4096])
        .expect("other tenant's write");
    tenant.flush().expect("other tenant's flush");
    assert!(
        !store.released(),
        "a hit and another tenant's write + flush waited for a parked PUT"
    );

    store.open();
    assert_eq!(recv(&mut sealer, 0).0, 1, "the sealing write's reply");
    let mut back = vec![0u8; batch];
    reader.read(0, &mut back).expect("read back");
    assert!(back == fill, "the sealed write reads back");
    tenant.read(0, &mut buf).expect("read back");
    assert_eq!(buf, [0x77; 4096]);
    let sealing = registry.get("sealing").unwrap();
    assert!(sealing.recorders().snapshot().reactor_runs >= 1);

    drop(guard);
    drop(sealer);
    reader.disconnect().unwrap();
    tenant.disconnect().unwrap();
    handle.stop();
    for name in registry.list() {
        registry.detach(&name).unwrap();
    }
}

#[test]
fn pipelined_writes_to_one_block_keep_their_order() {
    // Small batches and a log of a few dozen records: rewriting one block
    // never fills a batch, but it fills the log, so every so often a
    // write must seal and ship on a worker to make room. The rest run on
    // the reactor. Each round pipelines 64 writes at once, which the
    // server's window of 32 keeps at QD32. A reordering shows only when
    // it reaches a round's last write, so there are several rounds.
    const ROUNDS: u64 = 8;
    const WRITES: u64 = 64;
    let cfg = VolumeConfig {
        gc_enabled: false,
        ..VolumeConfig::small_for_tests()
    };
    let volume = plain_volume(cfg, 256 << 10);
    let handle = nbd::serve(
        "127.0.0.1:0",
        "vol",
        volume.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Client::connect(handle.addr(), "vol").unwrap().into_raw();
    for round in 0..ROUNDS {
        let first = round * WRITES + 1;
        for cookie in first..first + WRITES {
            let data = pattern(cookie, 4096);
            send(&mut conn, CMD_WRITE, cookie, 0, 4096, &data);
        }
        let mut replies: Vec<u64> = (0..WRITES).map(|_| recv(&mut conn, 0).0).collect();
        replies.sort_unstable();
        let want: Vec<u64> = (first..first + WRITES).collect();
        assert_eq!(replies, want, "round {round}: one reply each");
        let mut back = vec![0u8; 4096];
        volume.read(0, &mut back).unwrap();
        assert!(
            back == pattern(first + WRITES - 1, 4096),
            "round {round}: the block does not hold the round's last write"
        );
    }

    let runs = handle.recorders().snapshot().reactor_runs;
    let puts = volume.with_volume(|v| v.stats().backend_puts).unwrap();
    assert!(
        puts >= ROUNDS,
        "too few writes sealed mid-stream ({puts} PUTs)"
    );
    assert!(
        runs > 0 && runs < ROUNDS * WRITES,
        "{runs} of {} writes ran on the reactor",
        ROUNDS * WRITES
    );
    drop(conn);
    handle.stop();
    volume.shutdown().unwrap();
}

#[test]
fn replies_drain_through_a_full_socket() {
    // Four 1 MiB regions in the write-back cache (the default 8 MiB batch
    // keeps them there), read 16 times over: far more reply bytes than a
    // loopback socket buffers.
    const READS: u64 = 16;
    const MIB: usize = 1 << 20;
    let volume = plain_volume(VolumeConfig::default(), 32 << 20);
    for r in 0..4u64 {
        volume.write(r * MIB as u64, &pattern(r, MIB)).unwrap();
    }
    let handle = nbd::serve(
        "127.0.0.1:0",
        "vol",
        volume.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Client::connect(handle.addr(), "vol").unwrap().into_raw();
    for i in 0..READS {
        send(
            &mut conn,
            CMD_READ,
            i + 1,
            (i % 4) * MIB as u64,
            MIB as u32,
            &[],
        );
    }
    // Every reply is produced before the client reads one; the replies
    // that did not fit wait for the reactor's POLLOUT.
    while handle.recorders().snapshot().bytes_read < READS * MIB as u64 {
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in 0..READS {
        let (cookie, data) = recv(&mut conn, MIB);
        assert!(
            data == pattern((cookie - 1) % 4, MIB),
            "read {cookie} returned the wrong bytes"
        );
    }
    drop(conn);
    handle.stop();
    volume.shutdown().unwrap();
}
