//! Integration: the writeback path (§3.1-style overlap).
//!
//! Sealed batches drain through the writeback pool: with
//! `writeback_threads > 0`, a worker pool with a bounded window of
//! concurrent PUTs while the foreground keeps accepting writes; with `0`,
//! the inline executor, which runs each PUT on the caller. These tests pin
//! the contract:
//!
//! - overlap actually hides backend PUT latency (the ≥2× acceptance
//!   demo, against a store that really sleeps);
//! - completions may land out of order, but the object map only ever
//!   advances along the contiguous durable prefix: an object that lands
//!   early waits, landed, until its predecessor applies;
//! - transient PUT failures requeue without reordering the stream and
//!   without losing acknowledged data;
//! - backpressure counts queued *and* in-flight batches;
//! - a permanently failed PUT stays tracked, so a later drain lands it;
//! - a checkpoint covers the applied prefix while a later PUT is still in
//!   flight, and a crash there recovers from it;
//! - a write waits out a full cache log behind a parked PUT instead of
//!   failing, because the backend is healthy, and waits for a data PUT in
//!   flight instead of sealing a short batch;
//! - the inline executor runs one PUT at a time on the caller and applies
//!   it before the write that sealed it returns;
//! - the pool carries only PUTs: a cold read miss costs the same GETs at
//!   any pool width.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use blkdev::RamDisk;
use bytes::Bytes;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use lsvd::{LsvdError, Stage};
use objstore::{ChaosStore, CutHandle, CutStore, LatencyStore, MemStore, ObjError, ObjectStore};

const BATCH: u64 = 64 << 10;

/// Batch-sized config with checkpoints and GC out of the way, so wall
/// clock measures PUTs and nothing else.
fn pipeline_cfg(threads: usize, window: usize) -> VolumeConfig {
    VolumeConfig {
        batch_bytes: BATCH,
        checkpoint_interval: 100_000,
        gc_enabled: false,
        writeback_threads: threads,
        max_inflight_puts: window,
        ..VolumeConfig::default()
    }
}

/// Writes `batches` full batches and drains; returns the wall-clock time
/// of the write+drain phase (volume creation PUTs excluded).
fn timed_writeback(cfg: VolumeConfig, put_delay: Duration, batches: u64) -> Duration {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        put_delay,
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol = Volume::create(store, cache, "vol", 256 << 20, cfg).expect("create");
    let data = vec![0xA5u8; BATCH as usize];
    let t = Instant::now();
    for i in 0..batches {
        vol.write(i * BATCH, &data).expect("write");
    }
    vol.drain().expect("drain");
    let elapsed = t.elapsed();
    assert_eq!(
        vol.last_object_seq() as u64,
        batches,
        "one object per batch"
    );
    assert_eq!(vol.durable_frontier(), vol.last_object_seq());
    elapsed
}

/// The ISSUE acceptance bar: at 10 ms simulated PUT latency, a 4-deep
/// in-flight window must beat the serial path by at least 2x.
#[test]
fn four_inflight_puts_at_least_twice_as_fast_as_serial() {
    let put_delay = Duration::from_millis(10);
    let batches = 16;
    let serial = timed_writeback(pipeline_cfg(0, 4), put_delay, batches);
    let pipelined = timed_writeback(pipeline_cfg(4, 4), put_delay, batches);
    println!(
        "writeback of {batches} batches @10ms PUT: serial {:.1} ms, \
         4-wide pipeline {:.1} ms ({:.2}x)",
        serial.as_secs_f64() * 1e3,
        pipelined.as_secs_f64() * 1e3,
        serial.as_secs_f64() / pipelined.as_secs_f64(),
    );
    assert!(
        pipelined * 2 <= serial,
        "expected >=2x speedup, got serial {serial:?} vs pipelined {pipelined:?}"
    );
}

#[test]
fn durable_frontier_trails_inflight_puts_and_catches_up() {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(25),
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store, cache, "vol", 256 << 20, pipeline_cfg(4, 4)).expect("create");
    let data = vec![7u8; BATCH as usize];
    for i in 0..4u64 {
        vol.write(i * BATCH, &data).expect("write");
    }
    // Four batches sealed; their PUTs are still sleeping in the pool, so
    // nothing has been applied yet and the backlog is visible.
    let st = vol.stats();
    assert!(
        st.inflight_puts > 0 || st.pending_batches > 0,
        "PUTs should still be in flight: {st:?}"
    );
    assert!(
        vol.durable_frontier() < 4,
        "frontier must not cover unacked PUTs"
    );
    // Reads are served from the cache log while the backend catches up.
    let mut buf = vec![0u8; BATCH as usize];
    vol.read(0, &mut buf).expect("read during writeback");
    assert_eq!(buf, data);

    vol.drain().expect("drain");
    assert_eq!(vol.durable_frontier(), 4);
    let st = vol.stats();
    assert_eq!(st.pending_batches, 0);
    assert_eq!(st.inflight_puts, 0);
    assert!(!st.degraded);
}

/// Parks the first PUT of one object until the test opens the gate. The
/// gate opens by itself after 30 s, so a regression fails instead of
/// hanging.
struct GatedPut<S = MemStore> {
    inner: S,
    name: &'static str,
    gate: Mutex<Option<mpsc::Receiver<()>>>,
}

impl<S: ObjectStore> ObjectStore for GatedPut<S> {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        if name == self.name {
            let gate = self.gate.lock().unwrap().take();
            if let Some(gate) = gate {
                let _ = gate.recv_timeout(Duration::from_secs(30));
            }
        }
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
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

/// Object 1's PUT is parked while object 2's lands. Object 2 must wait,
/// landed and unapplied, until object 1 lands; then both apply in order.
#[test]
fn an_object_that_lands_early_waits_for_its_predecessor() {
    let (open_gate, gate) = mpsc::channel();
    let store = Arc::new(GatedPut {
        inner: MemStore::new(),
        name: "vol.00000001",
        gate: Mutex::new(Some(gate)),
    });
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store, cache, "vol", 256 << 20, pipeline_cfg(2, 2)).expect("create");
    let applied = Arc::new(Mutex::new(Vec::new()));
    let log = applied.clone();
    vol.set_edge_hook(Box::new(move |_, span| {
        if span.stage == Stage::FrontierAdvance {
            log.lock().unwrap().push(span.arg_a);
        }
    }));
    let first = vec![1u8; BATCH as usize];
    let second = vec![2u8; BATCH as usize];
    vol.write(0, &first).expect("write object 1");
    vol.write(BATCH, &second).expect("write object 2");

    // Object 2's completion is harvested by a later write's pump; a 4 KiB
    // overwrite of one block never fills the open batch.
    let probe = vec![9u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    while vol.stats().landed_gapped == 0 && applied.lock().unwrap().is_empty() {
        assert!(Instant::now() < deadline, "object 2 never landed");
        std::thread::sleep(Duration::from_millis(1));
        vol.write(4 * BATCH, &probe).expect("probe write");
    }
    assert_eq!(*applied.lock().unwrap(), [0u64; 0], "applied behind a gap");
    assert!(vol.durable_frontier() < 1, "frontier passed the gap");
    let st = vol.stats();
    assert_eq!(st.landed_gapped, 1, "{st:?}");
    assert_eq!(st.inflight_puts, 1, "object 1 is still parked: {st:?}");
    let mut buf = vec![0u8; BATCH as usize];
    vol.read(0, &mut buf).expect("read object 1's write");
    assert_eq!(buf, first);
    vol.read(BATCH, &mut buf).expect("read object 2's write");
    assert_eq!(buf, second);

    open_gate.send(()).expect("gate still armed");
    vol.drain().expect("drain");
    let last = vol.last_object_seq();
    assert_eq!(vol.durable_frontier(), last);
    assert_eq!(
        *applied.lock().unwrap(),
        (1..=u64::from(last)).collect::<Vec<_>>(),
        "objects apply in sequence order"
    );
    vol.read(0, &mut buf).expect("read object 1");
    assert_eq!(buf, first);
    vol.read(BATCH, &mut buf).expect("read object 2");
    assert_eq!(buf, second);
}

/// The writes [`crash_with_a_parked_put`] makes, as `(offset, data)`, in
/// order: four 64 KiB batches, then a 4 KiB block it overwrites with the
/// same bytes until the checkpoint lands. They touch disjoint ranges.
fn parked_put_writes() -> Vec<(u64, Vec<u8>)> {
    let mut writes: Vec<_> = (0..4u8)
        .map(|i| (i as u64 * BATCH, vec![i + 1; BATCH as usize]))
        .collect();
    writes.push((4 * BATCH, vec![9u8; 4096]));
    writes
}

/// A crash with object 3's PUT parked, after a checkpoint of objects 1
/// and 2. PUTs take 20 ms, so objects 1 and 2 land only after object 3
/// has sealed behind them, and `checkpoint_interval` is 2: the checkpoint
/// they make due is written while object 3 is in flight. The volume then
/// crashes with object 3 still parked: the store is severed, as the model
/// checker severs it, and the volume is dropped without a shutdown. Every
/// write is acknowledged before the last FLUSH. Returns the store
/// (revived) and the cache device.
fn crash_with_a_parked_put() -> (Arc<dyn ObjectStore>, Arc<RamDisk>) {
    let cut_store = CutStore::new(MemStore::new());
    let cut: CutHandle = cut_store.handle();
    let (open_gate, gate) = mpsc::channel();
    let store: Arc<dyn ObjectStore> = Arc::new(GatedPut {
        inner: LatencyStore::new(cut_store, Duration::from_millis(20), Duration::ZERO),
        name: "vol.00000003",
        gate: Mutex::new(Some(gate)),
    });
    let cache = Arc::new(RamDisk::new(64 << 20));
    let cfg = VolumeConfig {
        checkpoint_interval: 2,
        ..pipeline_cfg(2, 4)
    };
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 256 << 20, cfg).expect("create");
    let writes = parked_put_writes();
    let (batches, [(probe_at, probe)]) = writes.split_at(4) else {
        unreachable!("four batches and a probe")
    };
    for (off, data) in batches {
        vol.write(*off, data).expect("write");
    }
    // The probe never fills the open batch; each write of it ends in the
    // maintenance step, which applies landed objects and writes a due
    // checkpoint.
    let ckpt = lsvd::types::checkpoint_name("vol", 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        vol.write(*probe_at, probe).expect("probe write");
        if store.exists(&ckpt).expect("exists") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint of objects 1-2 while object 3 is parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(vol.durable_frontier(), 2, "object 3 is still parked");
    assert!(vol.stats().inflight_puts >= 1, "{:?}", vol.stats());
    vol.flush().expect("flush");

    cut.sever();
    open_gate.send(()).expect("gate still armed");
    drop(vol);
    cut.revive();
    let mut ckpts = store.list("vol.ckpt.").expect("list");
    ckpts.sort();
    assert_eq!(ckpts.last(), Some(&ckpt), "recovery starts from it");
    (store, cache)
}

#[test]
fn a_checkpoint_lands_while_a_put_is_parked_and_recovers_with_the_cache() {
    let (store, cache) = crash_with_a_parked_put();
    let cfg = pipeline_cfg(2, 4);
    let mut vol = Volume::open(store, cache, "vol", cfg).expect("recovery");
    for (off, data) in &parked_put_writes() {
        let mut buf = vec![0u8; data.len()];
        vol.read(*off, &mut buf).expect("read");
        assert_eq!(&buf, data, "acknowledged write at {off} lost");
    }
}

#[test]
fn a_checkpoint_lands_while_a_put_is_parked_and_recovers_a_prefix_without_the_cache() {
    let (store, _) = crash_with_a_parked_put();
    let cfg = pipeline_cfg(2, 4);
    let mut vol =
        Volume::open(store, Arc::new(RamDisk::new(64 << 20)), "vol", cfg).expect("recovery");
    // The writes touch disjoint ranges in order, so a prefix of them is
    // every write before some cut, and nothing after it.
    let held: Vec<bool> = parked_put_writes()
        .iter()
        .map(|(off, data)| {
            let mut buf = vec![0u8; data.len()];
            vol.read(*off, &mut buf).expect("read");
            assert!(
                &buf == data || buf.iter().all(|&b| b == 0),
                "write at {off} is torn"
            );
            &buf == data
        })
        .collect();
    let cut = held.iter().take_while(|&&h| h).count();
    assert!(held[cut..].iter().all(|&h| !h), "not a prefix: {held:?}");
    assert!(cut >= 2, "the checkpointed objects 1-2 were lost: {held:?}");
}

/// The cache log fills while object 1's PUT is parked, so every object
/// after it lands behind a gap and frees no log space. The backend is
/// healthy, so that is throttling: each write waits until a second
/// thread opens the gate, and none fails.
#[test]
fn a_full_log_behind_a_parked_put_waits_instead_of_failing() {
    let (open_gate, gate) = mpsc::channel();
    let store = Arc::new(GatedPut {
        inner: LatencyStore::new(MemStore::new(), Duration::from_millis(20), Duration::ZERO),
        name: "vol.00000001",
        gate: Mutex::new(Some(gate)),
    });
    let cfg = VolumeConfig {
        max_pending_batches: 32,
        ..pipeline_cfg(2, 4)
    };
    // A 4 MiB cache device holds a write log of about a dozen batches,
    // well under the backlog limit.
    let cache = Arc::new(RamDisk::new(4 << 20));
    let mut vol = Volume::create(store, cache, "vol", 256 << 20, cfg).expect("create");
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let _ = open_gate.send(());
    });
    let data: Vec<Vec<u8>> = (1..=32u8).map(|i| vec![i; BATCH as usize]).collect();
    let t = Instant::now();
    for (i, d) in data.iter().enumerate() {
        vol.write(i as u64 * BATCH, d)
            .unwrap_or_else(|e| panic!("write {i} on a healthy backend: {e}"));
    }
    let waited = t.elapsed();
    opener.join().expect("gate opener");
    assert!(
        waited >= Duration::from_millis(150),
        "the log never filled behind the parked PUT ({waited:?})"
    );
    assert_eq!(vol.stats().backpressure_rejections, 0);
    vol.drain().expect("drain");
    let mut buf = vec![0u8; BATCH as usize];
    for (i, d) in data.iter().enumerate() {
        vol.read(i as u64 * BATCH, &mut buf).expect("read");
        assert_eq!(&buf, d, "write {i}");
    }
}

/// Data objects sealed for 512 distinct 4 KiB writes and a drain, on a
/// 2 MiB cache device whose write log holds about six batches, fewer than
/// the backlog limit of 8.
fn objects_sealed_behind_a_short_log(threads: usize) -> u64 {
    let store = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(5),
        Duration::ZERO,
    ));
    let cfg = VolumeConfig {
        max_pending_batches: 8,
        ..pipeline_cfg(threads, 4)
    };
    let cache = Arc::new(RamDisk::new(2 << 20));
    let mut vol = Volume::create(store, cache, "vol", 64 << 20, cfg).expect("create");
    let log = vol.telemetry().cache.wlog_capacity_sectors * 512;
    assert!(log < 8 * BATCH, "the log holds {log} bytes");
    for i in 0..512u64 {
        vol.write(i * 4096, &[i as u8; 4096]).expect("write");
    }
    vol.drain().expect("drain");
    let mut buf = [0u8; 4096];
    for i in (0..512u64).step_by(37) {
        vol.read(i * 4096, &mut buf).expect("read");
        assert_eq!(buf, [i as u8; 4096], "write {i}");
    }
    vol.stats().backend_puts
}

/// A write that finds the log full while a data object's PUT is in
/// flight waits for it to land, which releases log space, instead of
/// sealing the open batch short.
#[test]
fn a_full_log_waits_for_the_put_in_flight_instead_of_sealing_short() {
    let inline = objects_sealed_behind_a_short_log(0);
    let pipelined = objects_sealed_behind_a_short_log(1);
    assert_eq!(inline, 32, "16 writes fill a batch");
    assert!(
        pipelined <= inline,
        "one writeback thread sealed {pipelined} data objects, the inline executor {inline}"
    );
}

#[test]
fn transient_failure_requeues_without_reordering() {
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store.clone(), cache, "vol", 256 << 20, pipeline_cfg(4, 4)).expect("create");

    // One armed failure: exactly one of the in-flight PUTs bounces and is
    // requeued while its successors may land first (out of order). The
    // volume must hold the later completions until the gap fills.
    store.fail_next_puts(1);
    let data: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; BATCH as usize]).collect();
    for (i, d) in data.iter().enumerate() {
        vol.write(i as u64 * BATCH, d).expect("write absorbed");
    }
    vol.drain().expect("drain retries the bounced batch");
    assert!(!vol.is_degraded());
    assert!(
        vol.stats().put_transient_failures >= 1,
        "the bounce was seen"
    );
    assert_eq!(vol.durable_frontier(), 6);

    // Cold recovery from the backend alone: every batch landed, in order.
    drop(vol);
    let mut vol = Volume::open(
        store,
        Arc::new(RamDisk::new(64 << 20)),
        "vol",
        pipeline_cfg(4, 4),
    )
    .expect("reopen");
    let mut buf = vec![0u8; BATCH as usize];
    for (i, d) in data.iter().enumerate() {
        vol.read(i as u64 * BATCH, &mut buf).expect("read");
        assert_eq!(&buf, d, "batch {i} recovered from backend");
    }
}

#[test]
fn backpressure_counts_queued_and_inflight() {
    let store = Arc::new(ChaosStore::new(MemStore::new()));
    let cache = Arc::new(RamDisk::new(64 << 20));
    let tight = VolumeConfig {
        max_pending_batches: 3,
        max_inflight_puts: 2,
        ..pipeline_cfg(2, 2)
    };
    let mut vol = Volume::create(store.clone(), cache, "vol", 256 << 20, tight).expect("create");

    // Backend down hard: every PUT bounces, so the window plus the queue
    // fill up and the watermark must reject further sealing writes.
    store.fail_next_puts(1_000_000);
    let data = vec![3u8; BATCH as usize];
    let mut accepted = 0u64;
    let mut rejected = None;
    for i in 0..64u64 {
        match vol.write(i * BATCH, &data) {
            Ok(()) => accepted += 1,
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    match rejected.expect("watermark rejects eventually") {
        LsvdError::Backpressure { pending, limit } => {
            assert_eq!(limit, 3);
            assert!(
                pending >= limit,
                "queued + in-flight at or past the watermark"
            );
        }
        e => panic!("expected Backpressure, got {e}"),
    }
    assert!(accepted >= 3, "writes flowed until the watermark");
    assert!(vol.is_degraded(), "unresolved transient failure");
    assert!(vol.stats().backpressure_rejections >= 1);

    // Heal: the queue drains strictly in order and degraded mode clears.
    store.fail_next_puts(0);
    vol.drain().expect("drain after heal");
    assert!(!vol.is_degraded());
    assert_eq!(vol.durable_frontier(), vol.last_object_seq());
    let mut buf = vec![0u8; BATCH as usize];
    for i in 0..accepted {
        vol.read(i * BATCH, &mut buf).expect("read");
        assert_eq!(buf, data, "accepted write {i} intact");
    }
}

/// Fails the first PUT of one object with a permanent error. With a
/// `gate`, that PUT first waits at the barrier, so the writer decides when
/// it fails.
struct FailOncePermanently {
    inner: MemStore,
    name: &'static str,
    armed: AtomicBool,
    gate: Option<Arc<Barrier>>,
}

impl ObjectStore for FailOncePermanently {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        if name == self.name && self.armed.swap(false, Ordering::SeqCst) {
            if let Some(gate) = &self.gate {
                gate.wait();
            }
            return Err(ObjError::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "denied",
            )));
        }
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
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

/// Three batch writes over a store that fails object 2's first PUT
/// permanently. Some call must return the error, no call may hang, a
/// later drain must land objects 1–3 in order, and a reopen with a fresh
/// cache must read every batch back. On worker threads, object 2's PUT
/// fails only once the third write has returned, so object 3 is in the
/// pipe behind the failure.
fn permanent_put_failure_stays_tracked(threads: usize) {
    let gate = (threads > 0).then(|| Arc::new(Barrier::new(2)));
    let store = Arc::new(FailOncePermanently {
        inner: MemStore::new(),
        name: "vol.00000002",
        armed: AtomicBool::new(true),
        gate: gate.clone(),
    });
    let cfg = pipeline_cfg(threads, 2);
    let mut vol = Volume::create(
        store.clone(),
        Arc::new(RamDisk::new(64 << 20)),
        "vol",
        256 << 20,
        cfg.clone(),
    )
    .expect("create");
    let data: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; BATCH as usize]).collect();
    let written = data.clone();

    // Watchdog: the calls run on their own thread, so a hang fails this
    // test with a timeout instead of stalling the suite.
    let (tx, rx) = mpsc::channel();
    let writer = std::thread::spawn(move || {
        let mut errors = Vec::new();
        for (i, d) in written.iter().enumerate() {
            if let Err(e) = vol.write(i as u64 * BATCH, d) {
                errors.push(e);
            }
        }
        if let Some(gate) = gate {
            gate.wait();
        }
        if let Err(e) = vol.drain() {
            errors.push(e);
        }
        let settled = vol
            .drain()
            .map(|()| (vol.last_object_seq(), vol.durable_frontier()));
        let _ = tx.send((errors, settled));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(30));
    assert!(
        !matches!(outcome, Err(mpsc::RecvTimeoutError::Timeout)),
        "threads={threads}: a call hung after a permanent PUT failure"
    );
    writer.join().expect("the writing thread panicked");
    let (errors, settled) = outcome.expect("the writing thread reported");

    assert_eq!(errors.len(), 1, "threads={threads}: {errors:?}");
    match &errors[0] {
        LsvdError::Backend(e) => assert!(!e.is_transient(), "threads={threads}: {e}"),
        e => panic!("threads={threads}: expected the backend error, got {e}"),
    }
    assert_eq!(
        settled.expect("a later drain lands the failed batch"),
        (3, 3),
        "threads={threads}: objects 1-3 applied in order"
    );
    let mut stored = store.inner.list("vol.0").unwrap();
    stored.sort();
    assert_eq!(
        stored,
        ["vol.00000001", "vol.00000002", "vol.00000003"],
        "threads={threads}"
    );

    let mut vol =
        Volume::open(store, Arc::new(RamDisk::new(64 << 20)), "vol", cfg).expect("reopen");
    let mut buf = vec![0u8; BATCH as usize];
    for (i, d) in data.iter().enumerate() {
        vol.read(i as u64 * BATCH, &mut buf).expect("read");
        assert_eq!(
            &buf, d,
            "threads={threads}: batch {i} recovered from backend"
        );
    }
}

#[test]
fn permanent_put_failure_stays_tracked_inline() {
    permanent_put_failure_stays_tracked(0);
}

#[test]
fn permanent_put_failure_stays_tracked_pipelined() {
    permanent_put_failure_stays_tracked(2);
}

/// Records the thread of every PUT and the peak number running at once.
#[derive(Default)]
struct PutProbe {
    inner: MemStore,
    threads: Mutex<Vec<ThreadId>>,
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl ObjectStore for PutProbe {
    fn put(&self, name: &str, data: Bytes) -> objstore::Result<()> {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        let r = self.inner.put(name, data);
        self.active.fetch_sub(1, Ordering::SeqCst);
        r
    }
    fn get(&self, name: &str) -> objstore::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> objstore::Result<Bytes> {
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

#[test]
fn inline_executor_puts_on_the_caller_one_at_a_time() {
    let store = Arc::new(PutProbe::default());
    let cache = Arc::new(RamDisk::new(64 << 20));
    let mut vol =
        Volume::create(store.clone(), cache, "vol", 256 << 20, pipeline_cfg(0, 4)).expect("create");
    assert_eq!(vol.telemetry().writeback.window, 1);
    let data = vec![9u8; BATCH as usize];
    for i in 1..=6u64 {
        vol.write((i - 1) * BATCH, &data).expect("write");
        // The write that sealed batch `i` has already PUT and applied it.
        let st = vol.stats();
        assert_eq!(st.backend_puts, i);
        assert_eq!(st.inflight_puts, 0);
        assert_eq!(vol.durable_frontier() as u64, i);
    }
    vol.drain().expect("drain");
    let me = std::thread::current().id();
    let threads = store.threads.lock().unwrap();
    assert!(threads.len() >= 6, "{} PUTs", threads.len());
    assert!(
        threads.iter().all(|t| *t == me),
        "every PUT runs on the test thread"
    );
    assert_eq!(store.peak.load(Ordering::SeqCst), 1, "one PUT at a time");
}

#[test]
fn a_cold_miss_costs_the_same_gets_at_any_writeback_width() {
    // One 1 MiB extent read back cold at two offsets 256 KiB apart: each
    // miss fetches its 512 KiB prefetch window in one ranged GET, whatever
    // the number of writeback workers.
    let data: Vec<u8> = (0..(1u32 << 20)).map(|i| (i % 251) as u8).collect();
    let cold_miss_gets = |threads: usize| {
        let cfg = VolumeConfig {
            batch_bytes: 1 << 20,
            prefetch_bytes: 512 << 10,
            checkpoint_interval: 100_000,
            gc_enabled: false,
            writeback_threads: threads,
            max_inflight_puts: 4,
            ..VolumeConfig::default()
        };
        let latency = Arc::new(LatencyStore::new(
            MemStore::new(),
            Duration::ZERO,
            Duration::from_millis(5),
        ));
        let store: Arc<dyn ObjectStore> = latency.clone();
        let cache = Arc::new(RamDisk::new(64 << 20));
        let mut vol =
            Volume::create(store.clone(), cache, "vol", 256 << 20, cfg.clone()).expect("create");
        vol.write(0, &data).expect("write");
        vol.shutdown().expect("shutdown");

        let mut vol =
            Volume::open(store, Arc::new(RamDisk::new(64 << 20)), "vol", cfg).expect("open");
        let gets_before = latency.get_count();
        for off in [0usize, 256 << 10] {
            let mut buf = vec![0u8; 4096];
            vol.read(off as u64, &mut buf).expect("read miss");
            assert_eq!(
                buf,
                &data[off..off + 4096],
                "{threads} threads, offset {off}"
            );
        }
        latency.get_count() - gets_before
    };
    assert_eq!(cold_miss_gets(0), cold_miss_gets(4));
}
