//! End-to-end telemetry: the span ring's lifecycle edges, latency
//! recorders, pipeline gauges and snapshot exporters observed through the
//! public `Volume::telemetry()` / `Volume::span_ring()` API.
//!
//! The centrepiece is a 3-thread pipelined chaos sweep: random transient
//! backend faults (absorbed by a config-built `RetryStore`) plus an
//! outage window, with the span ring drained continuously. Afterwards
//! every PUT retry must pair with a terminal done/abort, the durable
//! frontier must advance monotonically, and each durable batch must show
//! the causal seal → PUT start → PUT done → frontier-advance chain.
//! Trims must be recorded before the frontier advance that makes them
//! durable, and serving-plane connections must pair every `conn_open`
//! with a later `conn_close`; a read miss, finished off the serving
//! worker, closes its job once. The edge hook sees every edge, even after
//! the ring wraps, and a hook that panics leaves its edge behind.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blkdev::RamDisk;
use lsvd::config::{VolumeConfig, HDR_CACHE_ENTRIES};
use lsvd::volume::Volume;
use lsvd::{LsvdError, Span, Stage};
use objstore::{
    ChaosSchedule, ChaosStore, LatencyStore, MemStore, ObjectStore, OutageWindow, RetryPolicy,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VOL_BYTES: u64 = 8 << 20;
const BATCH: u64 = 64 << 10;

fn pipelined_cfg() -> VolumeConfig {
    VolumeConfig {
        max_pending_batches: 4,
        writeback_threads: 3,
        max_inflight_puts: 3,
        ..VolumeConfig::small_for_tests()
    }
}

/// Per-seq edge span ids: first seal, first PUT start, last PUT done,
/// frontier advance.
#[derive(Default, Clone, Copy)]
struct SeqTrace {
    seal: Option<u64>,
    first_start: Option<u64>,
    last_done: Option<u64>,
    advance: Option<u64>,
    retries: u64,
    aborted: bool,
}

fn index_by_seq(spans: &[Span]) -> std::collections::BTreeMap<u64, SeqTrace> {
    let mut map: std::collections::BTreeMap<u64, SeqTrace> = Default::default();
    for s in spans {
        let seq = s.arg_a;
        match s.stage {
            Stage::BatchSeal => {
                map.entry(seq).or_default().seal.get_or_insert(s.id);
            }
            Stage::PutStart => {
                map.entry(seq).or_default().first_start.get_or_insert(s.id);
            }
            Stage::PutDone => {
                map.entry(seq).or_default().last_done = Some(s.id);
            }
            Stage::PutRetry => {
                map.entry(seq).or_default().retries += 1;
            }
            Stage::PutAbort => {
                map.entry(seq).or_default().aborted = true;
            }
            Stage::FrontierAdvance => {
                map.entry(seq).or_default().advance = Some(s.id);
            }
            _ => {}
        }
    }
    map
}

/// Trim-before-frontier: a trim edge is recorded at discard time and the
/// trim rides the *next* sealed object. So for every `trim` edge, the
/// first `batch_seal` after it is its carrier, and the carrier's
/// `frontier_advance` must come later still — a trim can never be
/// recorded after the frontier that made it durable. Call only on edges
/// of fully drained volumes.
fn assert_trims_precede_their_frontier(trace: &[Span], ctx: &str) {
    let advances: std::collections::BTreeMap<u64, u64> = trace
        .iter()
        .filter(|s| s.stage == Stage::FrontierAdvance)
        .map(|s| (s.arg_a, s.id))
        .collect();
    let mut trims = 0u64;
    for (i, r) in trace.iter().enumerate() {
        if r.stage != Stage::Trim {
            continue;
        }
        trims += 1;
        let (carrier, seal_id) = trace[i + 1..]
            .iter()
            .find(|s| s.stage == Stage::BatchSeal)
            .map(|s| (s.arg_a, s.id))
            .unwrap_or_else(|| panic!("{ctx}: trim at id {} was never sealed into a batch", r.id));
        let adv = advances
            .get(&carrier)
            .unwrap_or_else(|| panic!("{ctx}: trim carrier seq {carrier} never became durable"));
        assert!(
            r.id < seal_id && seal_id < *adv,
            "{ctx}: trim {} / carrier seal {} / frontier advance {} out of causal order",
            r.id,
            seal_id,
            adv
        );
    }
    assert!(
        trims > 0,
        "{ctx}: workload issued trims but none were recorded"
    );
}

#[test]
fn pipelined_chaos_sweep_trace_is_causal() {
    for seed in 0..8u64 {
        let start = 40 + seed % 30;
        let chaos = Arc::new(ChaosStore::with_schedule(
            MemStore::new(),
            ChaosSchedule {
                put_fail_p: 0.08,
                get_fail_p: 0.02,
                outages: vec![OutageWindow {
                    start_op: start,
                    end_op: start + 10,
                }],
                ..ChaosSchedule::seeded(seed)
            },
        ));
        let cfg = VolumeConfig {
            // The volume builds its own RetryStore stack from the config;
            // no manual attach_retry_counters anywhere in this test.
            retry_policy: Some(RetryPolicy::seeded(seed)),
            ..pipelined_cfg()
        };
        let cache = Arc::new(RamDisk::new(4 << 20));
        let mut vol = Volume::create(chaos.clone(), cache, "t", VOL_BYTES, cfg).expect("create");
        let ring = vol.span_ring();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut trace: Vec<Span> = Vec::new();
        let blocks = VOL_BYTES / BATCH;
        for step in 0..70u32 {
            let b = rng.gen_range(0..blocks);
            let data = vec![step as u8 + 1; BATCH as usize];
            let mut spins = 0u32;
            loop {
                match vol.write(b * BATCH, &data) {
                    Ok(()) => break,
                    Err(LsvdError::Backpressure { .. }) => {
                        spins += 1;
                        assert!(spins < 10_000, "seed {seed} step {step}: stuck");
                    }
                    Err(e) => panic!("seed {seed} step {step}: write: {e}"),
                }
            }
            if step % 9 == 4 {
                // Discards are edges too; verified causal below.
                let t = rng.gen_range(0..blocks);
                let mut spins = 0u32;
                loop {
                    match vol.discard(t * BATCH, BATCH) {
                        Ok(()) => break,
                        Err(LsvdError::Backpressure { .. }) => {
                            spins += 1;
                            assert!(spins < 10_000, "seed {seed} step {step}: trim stuck");
                        }
                        Err(e) => panic!("seed {seed} step {step}: trim: {e}"),
                    }
                }
            }
            trace.append(&mut ring.drain());
        }
        chaos.heal();
        vol.drain().expect("drain after heal");
        trace.append(&mut ring.drain());

        // Ids are monotonic and nothing was dropped (we drained every step).
        assert!(trace.windows(2).all(|w| w[0].id < w[1].id), "seed {seed}");
        let snap = vol.telemetry();
        assert_eq!(snap.trace.dropped, 0, "seed {seed}: ring overflowed");

        // The frontier advances monotonically, one sequence at a time.
        let advances: Vec<u64> = trace
            .iter()
            .filter(|s| s.stage == Stage::FrontierAdvance)
            .map(|s| s.arg_a)
            .collect();
        assert!(!advances.is_empty(), "seed {seed}: nothing became durable");
        for w in advances.windows(2) {
            assert_eq!(w[1], w[0] + 1, "seed {seed}: frontier skipped a batch");
        }

        // Trims are recorded before the frontier advance that covers them.
        assert_trims_precede_their_frontier(&trace, &format!("seed {seed}"));

        // Causal chain per durable batch, and retry/terminal pairing.
        let by_seq = index_by_seq(&trace);
        for (&seq, t) in &by_seq {
            assert!(!t.aborted, "seed {seed} seq {seq}: aborted under chaos");
            if t.retries > 0 {
                assert!(
                    t.last_done.is_some(),
                    "seed {seed} seq {seq}: retry without a terminal PUT done"
                );
            }
            if let Some(adv) = t.advance {
                let seal = t
                    .seal
                    .unwrap_or_else(|| panic!("seed {seed} seq {seq}: no seal"));
                let started = t
                    .first_start
                    .unwrap_or_else(|| panic!("seed {seed} seq {seq}: no PUT start"));
                let done = t
                    .last_done
                    .unwrap_or_else(|| panic!("seed {seed} seq {seq}: no PUT done"));
                assert!(
                    seal < started && started < done && done < adv,
                    "seed {seed} seq {seq}: out of causal order \
                     (seal {seal}, start {started}, done {done}, advance {adv})"
                );
            }
        }

        // The config-built retry stack reports real numbers without any
        // manual counter attach, and the gauges are populated.
        assert!(snap.retry.attempts > 0, "seed {seed}: retry stack silent");
        assert_eq!(vol.stats().retry.attempts, snap.retry.attempts);
        assert_eq!(snap.writeback.window, 3, "seed {seed}");
        assert!(snap.backend.put.count > 0, "seed {seed}");
        assert_eq!(
            snap.writeback.durable_frontier, snap.writeback.sealed_seq,
            "seed {seed}: drained volume must have no frontier lag"
        );
        assert!(snap.derived.write_amplification > 0.0, "seed {seed}");
    }
}

#[test]
fn backend_latency_shows_in_histograms() {
    const DELAY: Duration = Duration::from_millis(5);
    let store: Arc<dyn ObjectStore> =
        Arc::new(LatencyStore::new(MemStore::new(), DELAY, Duration::ZERO));
    let cache = Arc::new(RamDisk::new(4 << 20));
    let cfg = VolumeConfig {
        batch_bytes: BATCH,
        ..pipelined_cfg()
    };
    let mut vol = Volume::create(store, cache, "t", VOL_BYTES, cfg).expect("create");
    let data = vec![0x42u8; BATCH as usize];
    for i in 0..8u64 {
        vol.write(i * BATCH, &data).expect("write");
    }
    vol.drain().expect("drain");

    let snap = vol.telemetry();
    let p50 = snap.backend.put.p50_ns;
    assert!(
        p50 >= DELAY.as_nanos() as f64 && p50 < 50.0 * DELAY.as_nanos() as f64,
        "backend PUT p50 {p50} ns inconsistent with a {DELAY:?} store delay"
    );
    assert!(
        snap.writeback.put_service.p50_ns >= DELAY.as_nanos() as f64,
        "service time must include the store delay"
    );
    assert!(
        snap.writeback.put_queue_wait.count > 0,
        "queue-wait split never recorded"
    );
    assert!(snap.ops.write.count >= 8 && snap.ops.write.p50_ns > 0.0);
}

#[test]
fn header_cache_eviction_is_counted() {
    // One 4 KiB block per backend object: reading them all back cold
    // cycles 88 more object headers than the header cache holds.
    const BLOCK: u64 = 4096;
    let objects = HDR_CACHE_ENTRIES as u64 + 88;
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cfg = VolumeConfig {
        batch_bytes: BLOCK,
        prefetch_bytes: 4 << 10,
        ..VolumeConfig::small_for_tests()
    };
    let mut vol = Volume::create(
        store.clone(),
        Arc::new(RamDisk::new(4 << 20)),
        "t",
        VOL_BYTES,
        cfg.clone(),
    )
    .expect("create");
    let data = vec![0x7Eu8; BLOCK as usize];
    for i in 0..objects {
        vol.write(i * BLOCK, &data).expect("write");
    }
    vol.shutdown().expect("shutdown");

    // Reopen with a fresh (empty) cache device: every first read must
    // fetch from the backend, consulting its object's header.
    let mut vol = Volume::open(store, Arc::new(RamDisk::new(4 << 20)), "t", cfg).expect("open");
    let mut buf = vec![0u8; BLOCK as usize];
    for pass in 0..2 {
        for i in 0..objects {
            vol.read(i * BLOCK, &mut buf)
                .unwrap_or_else(|e| panic!("pass {pass} read {i}: {e}"));
        }
    }
    let snap = vol.telemetry();
    assert!(snap.cache.hdr_misses > 0, "no header fetches recorded");
    assert!(
        snap.cache.hdr_evictions > 0,
        "{objects} objects through a {HDR_CACHE_ENTRIES}-entry header cache must evict \
         (misses {}, hits {})",
        snap.cache.hdr_misses,
        snap.cache.hdr_hits
    );
}

#[test]
fn snapshot_json_round_trips_with_required_keys() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(4 << 20));
    let mut vol = Volume::create(
        store,
        cache,
        "t",
        VOL_BYTES,
        VolumeConfig::small_for_tests(),
    )
    .expect("create");
    let data = vec![9u8; BATCH as usize];
    for i in 0..4u64 {
        vol.write(i * BATCH, &data).expect("write");
    }
    vol.flush().expect("flush");

    let snap = vol.telemetry();
    let text = snap.to_json().render();
    for key in [
        "\"schema\"",
        "\"ops\"",
        "\"backend\"",
        "\"writeback\"",
        "\"cache\"",
        "\"retry\"",
        "\"derived\"",
        "\"trace\"",
        "\"p50_ns\"",
        "\"p99_ns\"",
        "\"write_amplification\"",
        "\"occupancy\"",
    ] {
        assert!(text.contains(key), "snapshot JSON lacks {key}: {text}");
    }
    let back = telemetry::Json::parse(&text).expect("snapshot JSON parses");
    assert_eq!(
        back.render(),
        text,
        "snapshot JSON must round-trip losslessly"
    );
    assert!(!snap.to_prometheus().is_empty());
    assert!(snap.report().contains("derived"));
}

#[test]
fn pipeline_gauges_track_the_backlog_continuously() {
    let store: Arc<dyn ObjectStore> = Arc::new(LatencyStore::new(
        MemStore::new(),
        Duration::from_millis(20),
        Duration::ZERO,
    ));
    let cache = Arc::new(RamDisk::new(4 << 20));
    let cfg = VolumeConfig {
        batch_bytes: BATCH,
        ..pipelined_cfg()
    };
    let window = cfg.max_inflight_puts as u64;
    let mut vol = Volume::create(store, cache, "t", VOL_BYTES, cfg).expect("create");
    let data = vec![3u8; BATCH as usize];
    let mut saw_inflight = false;
    for i in 0..8u64 {
        vol.write(i * BATCH, &data).expect("write");
        let snap = vol.telemetry();
        let s = vol.stats();
        assert_eq!(
            snap.writeback.queued + snap.writeback.inflight + snap.writeback.landed_gapped,
            s.pending_batches,
            "gauges must decompose the backlog exactly"
        );
        assert!(snap.writeback.inflight <= window);
        assert!(snap.writeback.occupancy <= 1.0);
        assert_eq!(
            snap.writeback.frontier_lag,
            snap.writeback.sealed_seq - snap.writeback.durable_frontier
        );
        saw_inflight |= snap.writeback.inflight > 0;
    }
    assert!(
        saw_inflight,
        "a 20 ms PUT delay must leave PUTs observably in flight"
    );
    vol.drain().expect("drain");
    let snap = vol.telemetry();
    assert_eq!(snap.writeback.queued, 0);
    assert_eq!(snap.writeback.inflight, 0);
    assert_eq!(snap.writeback.landed_gapped, 0);
}

#[test]
fn serial_mode_trace_is_causal_too() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(4 << 20));
    let mut vol = Volume::create(
        store,
        cache,
        "t",
        VOL_BYTES,
        VolumeConfig {
            batch_bytes: BATCH,
            ..VolumeConfig::small_for_tests()
        },
    )
    .expect("create");
    let data = vec![1u8; BATCH as usize];
    for i in 0..6u64 {
        vol.write(i * BATCH, &data).expect("write");
        if i == 3 {
            vol.discard(BATCH, BATCH).expect("trim");
        }
    }
    vol.drain().expect("drain");

    let ring = vol.span_ring();
    let trace = ring.drain();
    assert_trims_precede_their_frontier(&trace, "serial");
    let by_seq = index_by_seq(&trace);
    assert!(!by_seq.is_empty());
    for (&seq, t) in &by_seq {
        let (Some(seal), Some(start), Some(done), Some(adv)) =
            (t.seal, t.first_start, t.last_done, t.advance)
        else {
            panic!("seq {seq}: incomplete serial trace");
        };
        assert!(
            seal < start && start < done && done < adv,
            "seq {seq}: serial events out of order"
        );
        assert_eq!(t.retries, 0);
    }
    // Draining consumed the ring; ids keep counting monotonically after.
    assert!(ring.drain().is_empty());
    let before = vol.telemetry().trace.events;
    vol.write(0, &data).expect("write");
    assert!(vol.telemetry().trace.events >= before);
}

#[test]
fn serving_connections_pair_open_and_close_in_the_trace() {
    // Three sequential NBD client sessions against one server: the ring
    // must show three distinct connection ids, each `conn_open` paired
    // with exactly one later `conn_close`. The first session also reads
    // a block that lives only on the backend: a miss, whose reply a
    // fetch thread posts after the worker has moved on, closing the job
    // once.
    const COLD: u64 = 1 << 20;
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(4 << 20));
    let mut vol = Volume::create(
        store,
        cache,
        "t",
        VOL_BYTES,
        VolumeConfig::small_for_tests(),
    )
    .expect("create");
    vol.write(COLD, &[0xD1; 4096]).expect("write");
    vol.drain().expect("drain");
    let sv = lsvd::shared::SharedVolume::new(vol);
    sv.span_ring().set_enabled(true);
    let handle = nbd::serve(
        "127.0.0.1:0",
        "t",
        sv.clone(),
        nbd::server::ServerConfig::default(),
    )
    .expect("serve");
    let addr = handle.addr();
    for i in 0..3u8 {
        let mut c = nbd::Client::connect(addr, "t").expect("connect");
        let data = vec![i + 1; 4096];
        c.write(4096 * u64::from(i), &data).expect("write");
        c.flush().expect("flush");
        if i == 0 {
            let mut buf = vec![0u8; 4096];
            c.read(COLD, &mut buf).expect("cold read");
            assert_eq!(buf, vec![0xD1; 4096]);
        }
        c.disconnect().expect("disconnect");
    }
    handle.stop(); // joins the reactor: every `conn_close` is recorded

    let snap = sv.telemetry().expect("telemetry");
    assert_eq!(snap.read_plane.miss_reads, 1, "the cold read missed");
    assert_eq!(snap.read_plane.reads, 1);
    assert_eq!(snap.ops.read.count, 1, "read latency sampled once");
    let s = &snap.serving;
    assert_eq!((s.reads, s.bytes_read), (1, 4096));
    assert_eq!(
        s.service.count, 7,
        "3 writes + 3 flushes + 1 read, one service sample each"
    );
    assert_eq!(s.queue_wait.count, 7);

    let trace = sv.span_ring().drain();
    let read = trace
        .iter()
        .find(|r| r.stage == Stage::Read)
        .expect("read span");
    let dispatch: Vec<&Span> = trace
        .iter()
        .filter(|r| r.stage == Stage::Dispatch && r.req == read.req)
        .collect();
    assert_eq!(dispatch.len(), 1, "one dispatch span for the miss");
    assert_eq!(read.parent, dispatch[0].id, "read span hangs off dispatch");
    assert!(
        dispatch[0].t_end_us >= read.t_end_us,
        "the dispatch span closed before its read finished"
    );
    let mut opens = std::collections::BTreeMap::new();
    let mut closes = std::collections::BTreeMap::new();
    for r in &trace {
        let conn = r.arg_a;
        match r.stage {
            Stage::ConnOpen => {
                assert!(
                    opens.insert(conn, r.id).is_none(),
                    "conn {conn} opened twice"
                );
            }
            Stage::ConnClose => {
                assert!(
                    closes.insert(conn, r.id).is_none(),
                    "conn {conn} closed twice"
                );
            }
            _ => {}
        }
    }
    assert_eq!(opens.len(), 3, "one conn_open per client session");
    assert_eq!(
        opens.keys().collect::<Vec<_>>(),
        closes.keys().collect::<Vec<_>>(),
        "every connection pairs its open with a close"
    );
    for (conn, open_id) in &opens {
        assert!(
            *open_id < closes[conn],
            "conn {conn}: conn_close recorded before conn_open"
        );
    }
    sv.shutdown().expect("shutdown");
}

#[test]
fn edge_hook_sees_every_edge_even_after_the_ring_wraps() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(4 << 20));
    let cfg = VolumeConfig {
        batch_bytes: 4096,
        ..VolumeConfig::small_for_tests()
    };
    let mut vol = Volume::create(store, cache, "t", VOL_BYTES, cfg).expect("create");
    let ring = vol.span_ring();
    let first = ring.edges_recorded();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    vol.set_edge_hook(Box::new(move |ordinal, _| {
        sink.lock().unwrap().push(ordinal)
    }));

    // One-block batches: every write crosses several edges, so the edge
    // buffer wraps after about a thousand of them.
    let data = vec![5u8; 4096];
    let blocks = VOL_BYTES / 4096;
    let mut i = 0u64;
    while ring.edges_dropped() < 100 {
        vol.write((i % blocks) * 4096, &data).expect("write");
        i += 1;
        assert!(i < 100_000, "edge buffer never wrapped");
    }

    let total = ring.edges_recorded();
    let seen = seen.lock().unwrap().clone();
    assert_eq!(
        seen,
        (first..total).collect::<Vec<_>>(),
        "hook missed an edge"
    );
    let snap = vol.telemetry();
    assert_eq!(snap.trace.events, total);
    assert_eq!(snap.trace.dropped, total - telemetry::EDGE_CAPACITY as u64);
    assert_eq!(ring.snapshot().len(), telemetry::EDGE_CAPACITY);
}

#[test]
fn a_panicking_edge_hook_leaves_its_edge_in_the_ring() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(4 << 20));
    let mut vol = Volume::create(
        store,
        cache,
        "t",
        VOL_BYTES,
        VolumeConfig::small_for_tests(),
    )
    .expect("create");
    let ring = vol.span_ring();
    let crash_at = ring.edges_recorded() + 2;
    let crashed: Arc<Mutex<Option<Span>>> = Arc::new(Mutex::new(None));
    let slot = crashed.clone();
    vol.set_edge_hook(Box::new(move |ordinal, span| {
        if ordinal == crash_at {
            *slot.lock().unwrap() = Some(*span);
            panic!("injected crash edge");
        }
    }));
    let data = vec![1u8; BATCH as usize];
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        for i in 0..8u64 {
            vol.write(i * BATCH, &data).expect("write");
        }
    }));
    assert!(outcome.is_err(), "a hook panic unwinds through the volume");

    // The crash edge is the ring's last: recorded before the hook ran.
    let crashed = crashed.lock().unwrap().expect("hook fired");
    assert_eq!(ring.edges_recorded(), crash_at + 1);
    assert_eq!(ring.snapshot().last(), Some(&crashed));
    // No ring lock was poisoned: the ring still records and reads.
    ring.edge(None, Stage::ConnOpen, 7, 0);
    assert_eq!(
        ring.snapshot().last().map(|s| s.stage),
        Some(Stage::ConnOpen)
    );
}
