//! Integration: request-scoped tracing across the serving plane and the
//! write pipeline.
//!
//! Acceptance for the observability plane: under a concurrent mixed burst
//! from several NBD connections, every acknowledged WRITE leaves a
//! *connected* span chain — decode → dispatch → wlog append → (data-join)
//! batch seal → backend PUT start and done → frontier advance — with
//! monotonically nondecreasing timestamps on both clocks (real
//! microseconds and the ring's virtual request counter). Direct
//! `SharedVolume` callers get their own request ids with no server
//! involved.

use std::sync::Arc;

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use nbd::proto::CMD_WRITE;
use nbd::server::ServerConfig;
use nbd::Client;
use rand::Rng;
use sim::rng::rng_from_seed;
use telemetry::{Span, Stage};

/// Pipelined writeback, as the serving plane would run in production.
fn pipelined_cfg() -> VolumeConfig {
    VolumeConfig {
        writeback_threads: 3,
        max_inflight_puts: 3,
        ..VolumeConfig::small_for_tests()
    }
}

fn shared_volume(cfg: VolumeConfig) -> SharedVolume {
    let store = Arc::new(objstore::MemStore::new());
    let cache = Arc::new(RamDisk::new(24 << 20));
    let vol = Volume::create(store, cache, "vol", 64 << 20, cfg).expect("create volume");
    SharedVolume::new(vol)
}

fn find(spans: &[Span], pred: impl Fn(&Span) -> bool) -> Option<&Span> {
    spans.iter().find(|s| pred(s))
}

#[test]
fn every_acked_write_has_a_connected_span_chain() {
    let sv = shared_volume(pipelined_cfg());
    let ring = sv.span_ring();
    ring.set_enabled(true);

    let handle =
        nbd::serve("127.0.0.1:0", "vol", sv.clone(), ServerConfig::default()).expect("bind server");
    let addr = handle.addr();

    // Four connections, each bursting mixed traffic over a disjoint 4 MiB
    // region: 4 KiB writes (some FUA-free, some followed by flush),
    // interleaved reads, one trim.
    let mut joins = Vec::new();
    for t in 0..4u64 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr, "vol").expect("connect");
            let base = t * (4 << 20);
            let mut rng = rng_from_seed(900 + t);
            for i in 0..48u64 {
                let off = base + i * 16384;
                c.write(off, &[(t * 48 + i) as u8; 4096]).expect("write");
                if rng.gen_range(0..4u32) == 0 {
                    c.flush().expect("flush");
                }
                if rng.gen_range(0..3u32) == 0 {
                    let mut buf = [0u8; 4096];
                    c.read(off, &mut buf).expect("read");
                    assert_eq!(buf, [(t * 48 + i) as u8; 4096]);
                }
            }
            c.trim(base + 47 * 16384, 4096).expect("trim");
            c.flush().expect("final flush");
            c.disconnect().expect("disconnect");
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    handle.stop();
    // Drain the pipeline: shutdown seals the open batch, ships everything
    // and advances the frontier — the tail of every write's span chain.
    sv.shutdown().expect("shutdown");

    assert_eq!(
        ring.dropped(),
        0,
        "burst must fit the ring or the chain check is vacuous"
    );
    let spans = ring.snapshot();

    let decodes: Vec<&Span> = spans
        .iter()
        .filter(|s| s.stage == Stage::Decode && s.arg_a == u64::from(CMD_WRITE))
        .collect();
    assert_eq!(decodes.len(), 4 * 48, "one decode span per acked WRITE");

    for d in decodes {
        let req = d.req;
        let dispatch = find(&spans, |s| {
            s.stage == Stage::Dispatch && s.req == req && s.parent == d.id
        })
        .unwrap_or_else(|| panic!("WRITE req {req}: no dispatch span under decode {}", d.id));
        let wlog = find(&spans, |s| {
            s.stage == Stage::WlogAppend && s.req == req && s.parent == dispatch.id
        })
        .unwrap_or_else(|| {
            panic!(
                "WRITE req {req}: no wlog span under dispatch {}",
                dispatch.id
            )
        });

        // Data-join into the pipeline: the earliest seal whose last cache
        // sequence (arg_b) covers this write's cache sequence (arg_a) is
        // the object that carried it.
        let seal = spans
            .iter()
            .filter(|s| s.stage == Stage::BatchSeal && s.arg_b >= wlog.arg_a)
            .min_by_key(|s| s.arg_b)
            .unwrap_or_else(|| panic!("WRITE req {req}: no seal covers cache seq {}", wlog.arg_a));
        let put_start = find(&spans, |s| {
            s.stage == Stage::PutStart && s.arg_a == seal.arg_a
        })
        .unwrap_or_else(|| panic!("WRITE req {req}: no PUT start for object {}", seal.arg_a));
        let put_done = find(&spans, |s| {
            s.stage == Stage::PutDone && s.arg_a == seal.arg_a
        })
        .unwrap_or_else(|| panic!("WRITE req {req}: no PUT done for object {}", seal.arg_a));
        let frontier = find(&spans, |s| {
            s.stage == Stage::FrontierAdvance && s.arg_a == seal.arg_a
        })
        .unwrap_or_else(|| {
            panic!(
                "WRITE req {req}: frontier never passed object {}",
                seal.arg_a
            )
        });

        // Both clocks are monotone along the chain: the real clock within
        // the request (decode → dispatch → wlog) and across the join
        // (wlog → seal → put-completion → frontier), and the virtual
        // request counter everywhere.
        let chain = [d, dispatch, wlog];
        for w in chain.windows(2) {
            assert!(
                w[0].t_start_us <= w[1].t_start_us,
                "req {req}: {} starts after {}",
                w[0].stage,
                w[1].stage
            );
            assert!(w[0].virt <= w[1].virt, "req {req}: virtual clock reversed");
        }
        assert!(
            wlog.t_start_us <= seal.t_start_us,
            "seal before its wlog append"
        );
        assert!(
            seal.t_start_us <= put_done.t_end_us,
            "PUT durable before its seal"
        );
        assert!(
            put_start.t_start_us <= frontier.t_start_us,
            "frontier before its PUT started"
        );
        assert!(wlog.virt <= seal.virt && seal.virt <= frontier.virt);
    }
}

#[test]
fn direct_callers_get_their_own_request_ids() {
    let sv = shared_volume(VolumeConfig::small_for_tests());
    let ring = sv.span_ring();
    ring.set_enabled(true);

    sv.write(0, &[7u8; 8192]).expect("write");
    sv.flush().expect("flush");
    let mut buf = [0u8; 8192];
    sv.read(0, &mut buf).expect("read");
    assert_eq!(buf, [7u8; 8192]);
    sv.discard(0, 4096).expect("discard");

    let spans = ring.snapshot();
    let stage_req = |stage: Stage| {
        find(&spans, |s| s.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} span"))
            .req
    };
    let reqs = [
        stage_req(Stage::WlogAppend),
        stage_req(Stage::Flush),
        stage_req(Stage::Read),
        stage_req(Stage::Trim),
    ];
    for r in reqs {
        assert_ne!(r, 0, "direct call minted no request id");
    }
    // One op = one request: four distinct ids, in issue order.
    for w in reqs.windows(2) {
        assert!(w[0] < w[1], "request ids not minted in order: {reqs:?}");
    }

    sv.shutdown().expect("shutdown");
}

#[test]
fn tracing_disabled_records_nothing() {
    let sv = shared_volume(VolumeConfig::small_for_tests());
    let ring = sv.span_ring();
    assert!(!ring.enabled(), "tracing must default off");

    sv.write(0, &[1u8; 4096]).expect("write");
    sv.flush().expect("flush");
    let mut buf = [0u8; 4096];
    sv.read(0, &mut buf).expect("read");
    sv.shutdown().expect("shutdown");

    assert_eq!(ring.recorded(), 0);
    assert_eq!(ring.mint_request(), 0, "disabled ring mints the 0 sentinel");
}
