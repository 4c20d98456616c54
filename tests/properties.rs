//! Property-based tests on LSVD's core data structures and formats.
//!
//! Uses proptest to check the invariants the rest of the system leans on:
//! the extent map against a naive per-sector model, the object map's
//! location index against its forward map, the write-cache log's
//! recovery against arbitrary write schedules, batch coalescing's
//! last-writer-wins semantics, object-format round trips under arbitrary
//! extents, and CRC error detection.

use std::collections::HashMap;
use std::sync::Arc;

use blkdev::RamDisk;
use lsvd::batch::BatchBuilder;
use lsvd::checkpoint::CheckpointData;
use lsvd::crc::{crc32c, crc32c_append, crc32c_combine};
use lsvd::extent_map::ExtentMap;
use lsvd::objfmt::{build_data_object, parse_data_header, Superblock};
use lsvd::objmap::{ObjLoc, ObjectMap};
use lsvd::wlog::WriteLog;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Extent map vs a naive per-sector model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MapOp {
    Insert { start: u64, len: u64, val: u64 },
    Remove { start: u64, len: u64 },
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..500, 1u64..60, 0u64..1 << 40).prop_map(|(start, len, val)| MapOp::Insert {
                start,
                len,
                val
            }),
            (0u64..500, 1u64..60).prop_map(|(start, len)| MapOp::Remove { start, len }),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extent_map_matches_naive_model(ops in map_ops()) {
        let mut map: ExtentMap<u64> = ExtentMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                MapOp::Insert { start, len, val } => {
                    map.insert(start, len, val);
                    for i in 0..len {
                        // Semantic: position p maps to val + (p - start).
                        model.insert(start + i, val + i);
                    }
                }
                MapOp::Remove { start, len } => {
                    map.remove(start, len);
                    for i in 0..len {
                        model.remove(&(start + i));
                    }
                }
            }
        }
        // Every position agrees with the model.
        for pos in 0..600u64 {
            let got = map.lookup(pos).map(|(s, _, v)| v + (pos - s));
            prop_assert_eq!(got, model.get(&pos).copied(), "position {}", pos);
        }
        // mapped_len is consistent.
        prop_assert_eq!(map.mapped_len() as usize, model.len());
        // resolve() tiles the space exactly.
        let mut covered = 0u64;
        for seg in map.resolve(0, 600) {
            match seg {
                lsvd::extent_map::Segment::Mapped { len, .. }
                | lsvd::extent_map::Segment::Hole { len, .. } => covered += len,
            }
        }
        prop_assert_eq!(covered, 600);
    }

    #[test]
    fn extent_map_successor_queries_agree_with_iteration(ops in map_ops()) {
        let mut map: ExtentMap<u64> = ExtentMap::new();
        for op in &ops {
            if let MapOp::Insert { start, len, val } = *op {
                map.insert(start, len, val);
            }
        }
        for pos in (0..600u64).step_by(13) {
            let fast = map.next_extent_at_or_after(pos);
            let slow = map.iter().find(|&(s, _, _)| s >= pos);
            prop_assert_eq!(fast, slow);
        }
    }
}

// ---------------------------------------------------------------------
// The object map's location index against the forward map.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ObjOp {
    /// A data object mapping these `(vLBA, sectors)` extents in order.
    Object(Vec<(u64, u32)>),
    /// A relocation of one object's live pieces; `race` is a write that
    /// lands between listing the pieces and applying the carrier.
    Gc {
        victim: u32,
        race: Option<(u64, u32)>,
    },
    Discard {
        lba: u64,
        len: u64,
    },
    Remove {
        victim: u32,
    },
}

fn obj_ops() -> impl Strategy<Value = Vec<ObjOp>> {
    let extent = (0u64..2000, 1u32..64);
    prop::collection::vec(
        prop_oneof![
            4 => prop::collection::vec(extent.clone(), 1..6).prop_map(ObjOp::Object),
            2 => (0u32..64, any::<bool>(), extent).prop_map(|(victim, raced, extent)| ObjOp::Gc {
                victim,
                race: raced.then_some(extent),
            }),
            1 => (0u64..2000, 1u64..200).prop_map(|(lba, len)| ObjOp::Discard { lba, len }),
            1 => (0u32..64).prop_map(|victim| ObjOp::Remove { victim }),
        ],
        1..60,
    )
}

/// Checks `live_in` against the forward map for objects `1..next_seq`:
/// the whole object, and the window `[a, b)` of its data area.
fn check_live_in(m: &ObjectMap, next_seq: u32, (a, b): (u32, u32)) -> Result<(), TestCaseError> {
    for seq in 1..next_seq {
        let mut want: Vec<(u64, u32, ObjLoc)> = m
            .map_extents()
            .filter(|&(_, _, loc)| loc.seq == seq)
            .map(|(lba, len, loc)| (lba, len as u32, loc))
            .collect();
        want.sort_unstable_by_key(|&(_, _, loc)| loc.off);
        prop_assert_eq!(&m.live_in(seq, ..), &want, "object {}", seq);
        if let Some(st) = m.object_stat(seq) {
            let live: u32 = want.iter().map(|&(_, len, _)| len).sum();
            prop_assert_eq!(st.live_sectors, live, "object {} live count", seq);
        }
        let clipped: Vec<(u64, u32, ObjLoc)> = want
            .iter()
            .filter_map(|&(lba, len, loc)| {
                let lo = loc.off.max(a);
                let hi = (loc.off + len).min(b);
                (lo < hi).then(|| {
                    (
                        lba + (lo - loc.off) as u64,
                        hi - lo,
                        ObjLoc { seq, off: lo },
                    )
                })
            })
            .collect();
        prop_assert_eq!(
            m.live_in(seq, a..b),
            clipped,
            "object {} [{}, {})",
            seq,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn live_in_lists_exactly_the_forward_maps_pieces(
        ops in obj_ops(),
        window in (0u32..200, 0u32..200),
    ) {
        let mut m = ObjectMap::new();
        let mut next_seq = 1u32;
        for op in &ops {
            match op {
                ObjOp::Object(extents) => {
                    m.apply_object(next_seq, 1, extents);
                    next_seq += 1;
                }
                &ObjOp::Gc { victim, race } => {
                    let victim = 1 + victim % next_seq;
                    let pieces = m.live_in(victim, ..);
                    if let Some(extent) = race {
                        m.apply_object(next_seq, 1, &[extent]);
                        next_seq += 1;
                    }
                    m.apply_gc_object(next_seq, 1, &pieces);
                    next_seq += 1;
                }
                &ObjOp::Discard { lba, len } => m.discard(lba, len),
                &ObjOp::Remove { victim } => m.remove_object(1 + victim % next_seq),
            }
        }
        let window = (window.0.min(window.1), window.0.max(window.1));
        check_live_in(&m, next_seq, window)?;

        let ck = CheckpointData::capture(&m, next_seq - 1, 0, &[], &[]);
        let parsed = CheckpointData::parse(&ck.build(7), 7).expect("parse");
        let rebuilt = parsed.rebuild_map();
        check_live_in(&rebuilt, next_seq, window)?;
        for seq in 1..next_seq {
            prop_assert_eq!(rebuilt.live_in(seq, ..), m.live_in(seq, ..));
            prop_assert_eq!(rebuilt.object_stat(seq), m.object_stat(seq));
        }
    }
}

// ---------------------------------------------------------------------
// Write-cache log recovery.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wlog_recovery_returns_exactly_the_unreleased_suffix(
        writes in prop::collection::vec((0u64..10_000, 1u32..8), 1..40),
        release_upto in 0usize..40,
    ) {
        let dev: Arc<dyn blkdev::BlockDevice> = Arc::new(RamDisk::new(4 << 20));
        let mut log = WriteLog::format(dev.clone(), 0, 8192, 1).unwrap();
        let mut seqs = Vec::new();
        for (lba, sectors) in &writes {
            let data = vec![0xAB; *sectors as usize * 512];
            let r = log.append(&[(*lba, &data)]).unwrap();
            seqs.push(r.seq);
        }
        let release_idx = release_upto.min(writes.len());
        let frontier = if release_idx == 0 { 0 } else { seqs[release_idx - 1] };
        log.release_to(frontier).unwrap();
        drop(log);

        let (_, pending) = WriteLog::recover(dev, 0, 8192, frontier).unwrap();
        let expect: Vec<u64> = seqs[release_idx..].to_vec();
        let got: Vec<u64> = pending.iter().map(|r| r.seq).collect();
        prop_assert_eq!(got, expect);
        // Extents survive exactly.
        for (rec, (lba, sectors)) in pending.iter().zip(writes[release_idx..].iter()) {
            prop_assert_eq!(&rec.extents, &vec![(*lba, *sectors)]);
        }
    }

    #[test]
    fn wlog_recovery_never_returns_corrupt_records(
        writes in prop::collection::vec((0u64..10_000, 1u32..8), 2..20),
        corrupt_at in 0usize..20,
        corrupt_byte in 0usize..512,
    ) {
        let dev: Arc<dyn blkdev::BlockDevice> = Arc::new(RamDisk::new(4 << 20));
        let mut log = WriteLog::format(dev.clone(), 0, 8192, 1).unwrap();
        let mut hdr_plbas = Vec::new();
        for (lba, sectors) in &writes {
            let data = vec![0xCD; *sectors as usize * 512];
            log.append(&[(*lba, &data)]).unwrap();
            hdr_plbas.push(log.next_seq());
        }
        // Flip one byte in some record's header sector.
        let idx = corrupt_at.min(writes.len() - 1);
        // Header locations: walk records from the log start (ckpt slots = 2).
        let mut plba = 2u64;
        for w in &writes[..idx] {
            plba += 1 + w.1 as u64;
        }
        let mut sector = vec![0u8; 512];
        dev.read_at(plba * 512, &mut sector).unwrap();
        sector[corrupt_byte] ^= 0x40;
        dev.write_at(plba * 512, &sector).unwrap();

        let (_, pending) = WriteLog::recover(dev, 0, 8192, 0).unwrap();
        // The prefix rule: only records strictly before the corruption.
        prop_assert!(pending.len() <= idx, "got {} records, corrupt at {}", pending.len(), idx);
        for (rec, (lba, sectors)) in pending.iter().zip(writes.iter()) {
            prop_assert_eq!(&rec.extents, &vec![(*lba, *sectors)]);
        }
    }
}

// ---------------------------------------------------------------------
// Batch coalescing: last writer wins, byte accounting balances.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_is_last_writer_wins(
        writes in prop::collection::vec((0u64..200, 1u32..12), 1..60),
    ) {
        let mut batch = BatchBuilder::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (i, (lba, sectors)) in writes.iter().enumerate() {
            let tag = (i % 251) as u8 + 1;
            let data = vec![tag; *sectors as usize * 512];
            batch.add(*lba, &data, i as u64 + 1);
            for s in 0..*sectors as u64 {
                model.insert(lba + s, tag);
            }
        }
        // Accounting: live + merged == accepted.
        prop_assert_eq!(
            batch.live_bytes() + batch.merged_bytes(),
            batch.accepted_bytes()
        );
        let sealed = batch.seal(1, 1);
        let hdr = parse_data_header(&sealed.object).unwrap();
        // The sealed object holds exactly the model's live sectors.
        let total: u64 = hdr.extents.iter().map(|&(_, l)| l as u64).sum();
        prop_assert_eq!(total as usize, model.len());
        let data = &sealed.object[hdr.data_offset as usize..];
        let mut off = 0usize;
        for &(lba, len) in &hdr.extents {
            for s in 0..len as u64 {
                let expect = model[&(lba + s)];
                let sector = &data[off..off + 512];
                prop_assert!(sector.iter().all(|&b| b == expect),
                    "sector {} of extent at {}", s, lba);
                off += 512;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Read cache: a hit must never serve wrong bytes, under arbitrary
// insert/invalidate/read interleavings with heavy eviction churn.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RcOp {
    Insert { lba: u64, sectors: u64 },
    Invalidate { lba: u64, sectors: u64 },
    Read { lba: u64, sectors: u64 },
}

fn rc_ops() -> impl Strategy<Value = Vec<RcOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u64..400, 1u64..24).prop_map(|(lba, sectors)| RcOp::Insert { lba, sectors }),
            1 => (0u64..400, 1u64..24).prop_map(|(lba, sectors)| RcOp::Invalidate { lba, sectors }),
            2 => (0u64..400, 1u64..24).prop_map(|(lba, sectors)| RcOp::Read { lba, sectors }),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn read_cache_hits_are_never_stale(ops in rc_ops()) {
        use lsvd::rcache::ReadCache;
        use lsvd::extent_map::Segment;
        // Tiny cache (64 usable sectors + metadata area): constant churn.
        let dev: Arc<dyn blkdev::BlockDevice> = Arc::new(RamDisk::new(1 << 20));
        let mut rc = ReadCache::new(dev, 0, 64 + 64);
        // Per-sector expected content: the tag of the last insert covering
        // it (invalidate clears).
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let tag = (i % 251) as u8 + 1;
            match *op {
                RcOp::Insert { lba, sectors } => {
                    let data = vec![tag; (sectors * 512) as usize];
                    rc.insert(lba, &data).unwrap();
                    // Oversized inserts are ignored by the cache.
                    if sectors <= 64 {
                        for k in 0..sectors {
                            model.insert(lba + k, tag);
                        }
                    }
                }
                RcOp::Invalidate { lba, sectors } => {
                    rc.invalidate(lba, sectors);
                    for k in 0..sectors {
                        model.remove(&(lba + k));
                    }
                }
                RcOp::Read { lba, sectors } => {
                    for seg in rc.resolve(lba, sectors) {
                        if let Segment::Mapped { start, len, val } = seg {
                            let mut buf = vec![0u8; (len * 512) as usize];
                            rc.read_cached(val, len, &mut buf).unwrap();
                            for k in 0..len {
                                let expect = model.get(&(start + k)).copied();
                                let got = buf[(k * 512) as usize];
                                // A mapped sector must hold exactly the
                                // last-inserted (not-invalidated) content.
                                prop_assert_eq!(
                                    Some(got), expect,
                                    "op {}: sector {} served {} want {:?}",
                                    i, start + k, got, expect
                                );
                                // Uniform fill: whole sector must match.
                                let sec = &buf[(k * 512) as usize..((k + 1) * 512) as usize];
                                prop_assert!(sec.iter().all(|&b| b == got));
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Object format round trips.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn data_object_header_round_trips(
        uuid in any::<u64>(),
        seq in 1u32..1_000_000,
        cache_seq in any::<u64>(),
        raw_extents in prop::collection::vec((0u64..1 << 30, 1u32..64), 1..50),
    ) {
        // Make extents disjoint by spacing them out.
        let extents: Vec<(u64, u32)> = raw_extents
            .iter()
            .enumerate()
            .map(|(i, &(lba, len))| (lba + i as u64 * (1 << 31), len))
            .collect();
        let sectors: u64 = extents.iter().map(|&(_, l)| l as u64).sum();
        let data = vec![0x5Au8; (sectors * 512) as usize];
        let obj = build_data_object(uuid, seq, cache_seq, None, &extents, &data);
        let h = parse_data_header(&obj).unwrap();
        prop_assert_eq!(h.uuid, uuid);
        prop_assert_eq!(h.seq, seq);
        prop_assert_eq!(h.last_cache_seq, cache_seq);
        prop_assert_eq!(h.extents, extents);
        prop_assert!(!h.gc);
        prop_assert_eq!(obj.len() - h.data_offset as usize, data.len());
    }

    #[test]
    fn superblock_round_trips(
        uuid in any::<u64>(),
        size in (1u64..1 << 40).prop_map(|s| s * 512),
        image in "[a-z][a-z0-9-]{0,20}",
        ancestry_names in prop::collection::vec("[a-z][a-z0-9]{0,10}", 0..4),
    ) {
        let ancestry: Vec<(String, u32)> = ancestry_names
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, (i as u32 + 1) * 10))
            .collect();
        let sb = Superblock { uuid, size_bytes: size, image: image.clone(), ancestry };
        let parsed = Superblock::parse(&sb.build()).unwrap();
        prop_assert_eq!(parsed, sb);
    }

    #[test]
    fn crc32c_detects_any_single_corruption(
        data in prop::collection::vec(any::<u8>(), 1..256),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let orig = crc32c(&data);
        let mut bad = data.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert_ne!(crc32c(&bad), orig);
    }

    #[test]
    fn crc32c_engines_match_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        skip in 0usize..64,
        split_frac in 0.0f64..1.0,
    ) {
        // Random lengths, offsets and alignments: `skip` shifts the slice
        // start so the hardware kernel's head/lane/tail handling and the
        // software slicing tables both see every misalignment.
        let s = &data[skip.min(data.len())..];
        let reference = crc32c_bitwise(s);
        prop_assert_eq!(crc32c(s), reference);
        prop_assert_eq!(lsvd::crc::crc32c_sw(s), reference);
        // Streaming across an arbitrary split point must agree too.
        let mid = (s.len() as f64 * split_frac) as usize;
        prop_assert_eq!(crc32c_append(crc32c(&s[..mid]), &s[mid..]), reference);
        prop_assert_eq!(
            lsvd::crc::crc32c_append_sw(lsvd::crc::crc32c_sw(&s[..mid]), &s[mid..]),
            reference
        );
    }

    #[test]
    fn crc32c_combine_matches_concatenation(
        a in prop::collection::vec(any::<u8>(), 0..1024),
        b in prop::collection::vec(any::<u8>(), 0..1024),
        c in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // combine(crc(a), crc(b), |b|) == crc(a ++ b), including empty and
        // unaligned parts — the identity the batch seal and GET-verify
        // paths rely on instead of rescanning payloads.
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert_eq!(
            crc32c_combine(crc32c(&a), crc32c(&b), b.len() as u64),
            crc32c(&ab)
        );
        // Folding is associative over a third fragment.
        let mut abc = ab.clone();
        abc.extend_from_slice(&c);
        let folded = crc32c_combine(
            crc32c_combine(crc32c(&a), crc32c(&b), b.len() as u64),
            crc32c(&c),
            c.len() as u64,
        );
        prop_assert_eq!(folded, crc32c(&abc));
    }
}

/// Bit-at-a-time CRC32C (Castagnoli, reflected 0x82F63B78): the slowest
/// possible but obviously-correct oracle the fast engines are checked
/// against.
fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Disk model sanity under arbitrary submission schedules.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disk_model_times_are_sane(
        ops in prop::collection::vec(
            (0u64..1 << 30, 1u64..1024, any::<bool>(), 0u64..1000),
            1..200,
        ),
    ) {
        use blkdev::{DiskModel, DiskProfile, IoKind};
        use sim::{SimDuration, SimTime};
        let mut m = DiskModel::new(DiskProfile::nvme_p3700());
        let mut now = SimTime::ZERO;
        let mut max_completion = SimTime::ZERO;
        for &(off, sectors, is_read, gap_us) in &ops {
            now += SimDuration::from_micros(gap_us);
            let kind = if is_read { IoKind::Read } else { IoKind::Write };
            let done = m.submit(now, kind, off * 512, sectors * 512);
            // Completion is after submission and monotone per channel.
            prop_assert!(done > now);
            max_completion = max_completion.max(done);
        }
        // Busy time never exceeds the union horizon.
        let c = m.counters();
        prop_assert!(c.busy.as_nanos() <= max_completion.as_nanos());
        prop_assert_eq!(c.total_ops(), ops.len() as u64);
        // Write histogram agrees with write counters.
        prop_assert_eq!(m.write_sizes().total_ops(), c.write_ops);
        prop_assert_eq!(m.write_sizes().total_bytes(), c.write_bytes);
    }

    #[test]
    fn backend_pool_is_deterministic(
        writes in prop::collection::vec((0u64..1000, 1u64..64), 1..60),
    ) {
        use objstore::pool::{BackendPool, PoolConfig};
        use sim::SimTime;
        let run = || {
            let mut pool = BackendPool::new(PoolConfig::hdd_config2());
            let mut acks = Vec::new();
            for &(obj, kb) in &writes {
                acks.push(pool.replicated_write(SimTime::ZERO, obj, 0, kb << 10));
            }
            (acks, pool.issued().write_ops, pool.issued().write_bytes)
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------
// The volume against a shadow disk, under random ops + crash + reopen.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum VolOp {
    Write { block: u64, blocks: u64 },
    Read { block: u64, blocks: u64 },
    Flush,
    CrashReopen,
    CleanReopen,
}

fn vol_ops() -> impl Strategy<Value = Vec<VolOp>> {
    prop::collection::vec(
        prop_oneof![
            5 => (0u64..1500, 1u64..40).prop_map(|(block, blocks)| VolOp::Write { block, blocks }),
            3 => (0u64..1500, 1u64..40).prop_map(|(block, blocks)| VolOp::Read { block, blocks }),
            1 => Just(VolOp::Flush),
            1 => Just(VolOp::CrashReopen),
            1 => Just(VolOp::CleanReopen),
        ],
        1..80,
    )
}

proptest! {
    // Each case builds a whole volume: keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn volume_matches_shadow_across_crashes(ops in vol_ops()) {
        use lsvd::config::VolumeConfig;
        use lsvd::volume::Volume;
        use objstore::MemStore;

        const BLOCK: u64 = 4096;
        const VOL: u64 = 8 << 20;
        let store = Arc::new(MemStore::new());
        let cache = Arc::new(RamDisk::new(4 << 20));
        let cfg = VolumeConfig::small_for_tests();
        let mut vol = Volume::create(store.clone(), cache.clone(), "p", VOL, cfg.clone())
            .expect("create");
        let mut shadow = vec![0u8; VOL as usize];

        for (i, op) in ops.iter().enumerate() {
            match *op {
                VolOp::Write { block, blocks } => {
                    let block = block % (VOL / BLOCK);
                    let blocks = blocks.min(VOL / BLOCK - block);
                    let tag = (i % 251) as u8 + 1;
                    let off = block * BLOCK;
                    let len = (blocks * BLOCK) as usize;
                    vol.write(off, &vec![tag; len]).expect("write");
                    shadow[off as usize..off as usize + len].fill(tag);
                }
                VolOp::Read { block, blocks } => {
                    let block = block % (VOL / BLOCK);
                    let blocks = blocks.min(VOL / BLOCK - block);
                    let off = block * BLOCK;
                    let mut buf = vec![0u8; (blocks * BLOCK) as usize];
                    vol.read(off, &mut buf).expect("read");
                    prop_assert_eq!(
                        &buf[..],
                        &shadow[off as usize..off as usize + buf.len()],
                        "op {}: read mismatch at {}",
                        i,
                        off
                    );
                }
                VolOp::Flush => vol.flush().expect("flush"),
                VolOp::CrashReopen => {
                    drop(vol); // cache intact: every acked write must survive
                    vol = Volume::open(store.clone(), cache.clone(), "p", cfg.clone())
                        .expect("crash reopen");
                }
                VolOp::CleanReopen => {
                    vol.shutdown().expect("shutdown");
                    vol = Volume::open(store.clone(), cache.clone(), "p", cfg.clone())
                        .expect("clean reopen");
                }
            }
        }
        // Final full verification.
        let mut buf = vec![0u8; VOL as usize];
        vol.read(0, &mut buf).expect("final read");
        prop_assert_eq!(buf, shadow);
    }
}

// ---------------------------------------------------------------------
// A write the volume calls local finishes on the cache device alone: the
// NBD reactor runs such writes itself, so one that reached the backend
// would stall every connection behind a PUT.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LocalOp {
    Write { block: u64, blocks: u64 },
    Flush,
    Trim { block: u64, blocks: u64 },
    Drain,
}

fn local_ops() -> impl Strategy<Value = Vec<LocalOp>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u64..2048, prop_oneof![3 => 1u64..16, 1 => 16u64..257])
                .prop_map(|(block, blocks)| LocalOp::Write { block, blocks }),
            1 => Just(LocalOp::Flush),
            1 => (0u64..2048, 1u64..64).prop_map(|(block, blocks)| LocalOp::Trim { block, blocks }),
            1 => Just(LocalOp::Drain),
        ],
        1..60,
    )
}

proptest! {
    // Each case builds a whole volume: keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_write_called_local_never_reaches_the_store(ops in local_ops()) {
        use lsvd::config::VolumeConfig;
        use lsvd::volume::Volume;
        use objstore::{MemStore, MetricsStore};

        const BLOCK: u64 = 4096;
        const VOL: u64 = 8 << 20;
        let store = Arc::new(MetricsStore::new(MemStore::new()));
        let handle = store.handle();
        let calls = || {
            let s = handle.snapshot();
            s.put.count + s.get.count + s.head.count + s.list.count + s.delete.count
        };
        // Small batches seal every few writes; the inline executor runs
        // each PUT on the writing thread, where it is counted.
        let mut vol = Volume::create(
            store.clone(),
            Arc::new(RamDisk::new(16 << 20)),
            "p",
            VOL,
            VolumeConfig::small_for_tests(),
        )
        .expect("create");
        for (i, op) in ops.iter().enumerate() {
            match *op {
                LocalOp::Write { block, blocks } => {
                    let blocks = blocks.min(VOL / BLOCK - block);
                    let data = vec![(i % 251) as u8 + 1; (blocks * BLOCK) as usize];
                    let local = vol.write_stays_local(data.len() as u64);
                    let (before, puts) = (calls(), vol.stats().backend_puts);
                    vol.write(block * BLOCK, &data).expect("write");
                    if local {
                        prop_assert_eq!(calls(), before, "op {}: a local write reached the store", i);
                    }
                    if vol.stats().backend_puts > puts {
                        prop_assert!(!local, "op {}: a write that sealed was called local", i);
                    }
                }
                LocalOp::Flush => vol.flush().expect("flush"),
                LocalOp::Trim { block, blocks } => {
                    let blocks = blocks.min(VOL / BLOCK - block);
                    vol.discard(block * BLOCK, blocks * BLOCK).expect("trim");
                }
                LocalOp::Drain => vol.drain().expect("drain"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Degraded-mode writeback: whatever sequence of PUT-failure points the
// backend produces, a crash that loses the cache recovers to a gap-free
// prefix of the object stream — and a prefix-consistent image.
// ---------------------------------------------------------------------

proptest! {
    // Each case builds a whole volume: keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn put_failure_points_never_leave_sequence_gaps(
        fail_before in prop::collection::vec(any::<bool>(), 4..20),
    ) {
        use lsvd::config::VolumeConfig;
        use lsvd::verify::{History, Verdict, VBLOCK};
        use lsvd::volume::Volume;
        use objstore::{ChaosStore, MemStore, ObjectStore};

        let store = Arc::new(ChaosStore::new(MemStore::new()));
        let cache = Arc::new(RamDisk::new(8 << 20));
        let cfg = VolumeConfig::small_for_tests(); // 64 KiB batches
        let vol_bytes = (fail_before.len() as u64 + 1) * (64 << 10);
        let mut vol = Volume::create(store.clone(), cache, "p", vol_bytes, cfg.clone())
            .expect("create");
        let mut hist = History::new();

        // One full batch per step; arm a transient PUT failure at the
        // chosen points. The write is always acknowledged — failures are
        // absorbed into the pending queue and retried by later steps.
        for (i, &fail) in fail_before.iter().enumerate() {
            if fail {
                store.fail_next_puts(1);
            }
            let off = i as u64 * (64 << 10);
            let data = hist.record_write(off, 64 << 10);
            let mut spins = 0;
            loop {
                match vol.write(off, &data) {
                    Ok(()) => break,
                    // Queue at the watermark: the retry drains it (the
                    // armed fault was consumed) and the write goes in.
                    Err(lsvd::LsvdError::Backpressure { .. }) => spins += 1,
                    Err(e) => prop_assert!(false, "write {} surfaced {}", i, e),
                }
                prop_assert!(spins < 100, "write {} stuck in backpressure", i);
            }
        }
        drop(vol); // crash; cache LOST
        store.fail_next_puts(0);

        // The backend stream has no sequence gaps: whatever prefix of
        // batches landed, it landed consecutively from object 1.
        let mut seqs: Vec<u32> = store
            .list("p.")
            .expect("list")
            .iter()
            .filter_map(|n| lsvd::types::parse_object_seq("p", n))
            .collect();
        seqs.sort_unstable();
        for (i, &s) in seqs.iter().enumerate() {
            prop_assert_eq!(s, i as u32 + 1, "gap-free consecutive stream");
        }

        // And recovery from that stream alone is a consistent prefix.
        let mut vol = Volume::open(
            store,
            Arc::new(RamDisk::new(8 << 20)),
            "p",
            cfg,
        )
        .expect("recover");
        let mut img = vec![0u8; vol_bytes as usize];
        vol.read(0, &mut img).expect("read image");
        match hist.check_image(&img) {
            Verdict::ConsistentPrefix { cut, .. } => {
                prop_assert!(cut <= hist.last_index());
            }
            v => prop_assert!(false, "inconsistent recovery: {:?}", v),
        }
        let _ = VBLOCK;
    }
}

// ---------------------------------------------------------------------
// Event queue: strict time order with FIFO tie-breaking, whatever the
// schedule.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_pops_in_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        use sim::{EventQueue, SimTime};
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    // FIFO among equal timestamps: insertion ids ascend.
                    prop_assert!(id > lid, "tie broken out of order");
                }
            }
            prop_assert_eq!(q.now(), t);
            last = Some((t, id));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn summary_percentiles_are_monotone(samples in prop::collection::vec(1.0f64..1e7, 1..300)) {
        use sim::stats::Summary;
        let mut s = Summary::new();
        for &x in &samples {
            s.record(x);
        }
        let mut prev = 0.0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= prev, "p{} = {} < previous {}", p, v, prev);
            prop_assert!(v >= s.min() && v <= s.max());
            prev = v;
        }
        prop_assert_eq!(s.count(), samples.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Recovery without any checkpoint: the map rebuilds from object headers
// alone (§3.3), provided nothing below was garbage collected.
// ---------------------------------------------------------------------

#[test]
fn volume_recovers_from_headers_when_all_checkpoints_are_lost() {
    use lsvd::config::VolumeConfig;
    use lsvd::volume::Volume;
    use objstore::{MemStore, ObjectStore};

    let store = Arc::new(MemStore::new());
    let cache = Arc::new(RamDisk::new(8 << 20));
    let cfg = lsvd::config::VolumeConfig {
        gc_enabled: false, // GC may delete objects a header-only scan needs
        ..VolumeConfig::small_for_tests()
    };
    let mut vol =
        Volume::create(store.clone(), cache.clone(), "vol", 32 << 20, cfg.clone()).unwrap();
    for i in 0..64u64 {
        vol.write(i * (64 << 10), &vec![(i % 200) as u8 + 1; 64 << 10])
            .unwrap();
    }
    vol.shutdown().unwrap();

    // Lose every checkpoint.
    for name in store.list("vol.ckpt.").unwrap() {
        store.delete(&name).unwrap();
    }
    cache.obliterate();

    let mut vol = Volume::open(store, cache, "vol", cfg).unwrap();
    for i in 0..64u64 {
        let mut buf = vec![0u8; 64 << 10];
        vol.read(i * (64 << 10), &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (i % 200) as u8 + 1),
            "stripe {i} rebuilt from headers"
        );
    }
}

// ---------------------------------------------------------------------
// Concurrent roll-forward: `recover_backend` fetches headers in parallel
// batches and must return exactly what the serial walk it replaced
// returns, over streams with gaps, GC objects, trims, foreign squatters,
// corrupt or mislabelled checkpoints, `upto` bounds and clone ancestry.
// ---------------------------------------------------------------------

/// The serial backend recovery the concurrent one replaced, kept as its
/// reference: one request at a time, and every object after the
/// checkpoint probed by name until the first one missing.
fn serial_recover_backend(
    store: &dyn objstore::ObjectStore,
    image: &str,
    upto: Option<u32>,
) -> lsvd::Result<lsvd::recovery::RecoveredBackend> {
    use lsvd::checkpoint::CheckpointData;
    use lsvd::objmap::ObjectMap;
    use lsvd::recovery::{apply_header, fetch_header, RecoveredBackend};
    use lsvd::types::{object_name, parse_object_seq, superblock_name};

    let superblock = Superblock::parse(&store.get(&superblock_name(image))?)?;
    let prefix = format!("{image}.ckpt.");
    let mut names = store.list(&prefix)?;
    names.sort();
    let checkpoints: Vec<u32> = names
        .iter()
        .filter_map(|name| name.strip_prefix(&prefix)?.parse().ok())
        .collect();
    let mut ckpt = None;
    for name in names.iter().rev() {
        let Some(seq) = name
            .strip_prefix(&prefix)
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if upto.is_some_and(|u| seq > u) {
            continue;
        }
        if let Ok(ck) = CheckpointData::parse(&store.get(name)?, superblock.uuid) {
            ckpt = Some(ck);
            break;
        }
    }
    let (mut objmap, mut frontier, ckpt_seq, snapshots, deferred_deletes) = match ckpt {
        Some(ck) => (
            ck.rebuild_map(),
            ck.frontier,
            ck.covers_seq,
            ck.snapshots,
            ck.deferred_deletes,
        ),
        None => (ObjectMap::new(), 0, 0, Vec::new(), Vec::new()),
    };

    let mut last_seq = ckpt_seq;
    let mut seq = ckpt_seq + 1;
    loop {
        if upto.is_some_and(|u| seq > u) {
            break;
        }
        let name = object_name(superblock.stream_for(seq), seq);
        let Some(h) = fetch_header(store, &name)? else {
            break;
        };
        if h.uuid != superblock.uuid && seq >= superblock.own_first_seq() {
            break;
        }
        apply_header(&mut objmap, &h);
        frontier = frontier.max(h.last_cache_seq);
        last_seq = seq;
        seq += 1;
    }

    let mut stranded_deleted = Vec::new();
    if upto.is_none() {
        for name in store.list(&format!("{image}."))? {
            if parse_object_seq(image, &name).is_some_and(|s| s > last_seq) {
                store.delete(&name)?;
                stranded_deleted.push(name);
            }
        }
    }
    Ok(RecoveredBackend {
        superblock,
        objmap,
        last_seq,
        frontier,
        snapshots,
        deferred_deletes,
        ckpt_seq,
        checkpoints,
        stranded_deleted,
    })
}

#[derive(Debug, Clone)]
enum LogObj {
    Data {
        lba: u64,
        sectors: u32,
    },
    /// A trim-only object.
    Trim {
        lba: u64,
        sectors: u32,
    },
    /// A GC object whose one extent claims to come from `back` objects
    /// earlier.
    Gc {
        lba: u64,
        sectors: u32,
        back: u32,
    },
    /// An object of another volume squatting on the name.
    Foreign,
    Missing,
}

#[derive(Debug, Clone)]
struct LogSpec {
    /// Sequences `1..=ancestor` live in the stream of a base image that the
    /// recovered image was cloned from; 0 means no ancestry.
    ancestor: u32,
    /// Object `i` has sequence `i + 1`.
    objects: Vec<LogObj>,
    /// Checkpoints as `(name seq, covers_seq lag behind it, corrupt)`.
    ckpts: Vec<(u32, u32, bool)>,
    upto: Option<u32>,
}

fn log_spec() -> impl Strategy<Value = LogSpec> {
    let obj = prop_oneof![
        6 => (0u64..64, 1u32..16).prop_map(|(b, sectors)| LogObj::Data { lba: b * 8, sectors }),
        2 => (0u64..64, 1u32..16).prop_map(|(b, sectors)| LogObj::Trim { lba: b * 8, sectors }),
        2 => (0u64..64, 1u32..16, 1u32..8)
            .prop_map(|(b, sectors, back)| LogObj::Gc { lba: b * 8, sectors, back }),
        1 => Just(LogObj::Foreign),
        1 => Just(LogObj::Missing),
    ];
    let ckpt = (
        0u32..70,
        prop_oneof![6 => Just(0u32), 1 => 1u32..4],
        prop_oneof![3 => Just(false), 1 => Just(true)],
    );
    (
        prop_oneof![2 => Just(0u32), 1 => 1u32..50],
        prop::collection::vec(obj, 1..70),
        prop::collection::vec(ckpt, 0..4),
        prop_oneof![3 => Just(None), 1 => (0u32..80).prop_map(Some)],
    )
        .prop_map(|(ancestor, objects, ckpts, upto)| LogSpec {
            ancestor,
            objects,
            ckpts,
            upto,
        })
}

/// Stores the image `img` that `spec` describes.
fn build_log(spec: &LogSpec) -> objstore::MemStore {
    use bytes::Bytes;
    use lsvd::checkpoint::CheckpointData;
    use lsvd::objfmt::build_data_header_with_trims;
    use lsvd::objmap::ObjectMap;
    use lsvd::types::{checkpoint_name, object_name, superblock_name};
    use objstore::ObjectStore;

    const OWN_UUID: u64 = 0xC10E;
    const BASE_UUID: u64 = 0xBA5E;
    let store = objstore::MemStore::new();
    let ancestry = if spec.ancestor > 0 {
        vec![("base".to_string(), spec.ancestor)]
    } else {
        vec![]
    };
    let sb = Superblock {
        uuid: OWN_UUID,
        size_bytes: 1 << 30,
        image: "img".into(),
        ancestry,
    };
    store.put(&superblock_name("img"), sb.build()).unwrap();

    // The map and frontier as of each sequence, for checkpoints to capture.
    let mut map = ObjectMap::new();
    let mut states = vec![(map.clone(), 0u64)];
    for (i, obj) in spec.objects.iter().enumerate() {
        let seq = i as u32 + 1;
        let cseq = seq as u64 * 3;
        let (stream, uuid) = if seq <= spec.ancestor {
            ("base", BASE_UUID)
        } else {
            ("img", OWN_UUID)
        };
        let body = match *obj {
            LogObj::Data { lba, sectors } => {
                let data = vec![seq as u8; sectors as usize * 512];
                build_data_object(uuid, seq, cseq, None, &[(lba, sectors)], &data)
            }
            LogObj::Trim { lba, sectors } => Bytes::from(build_data_header_with_trims(
                uuid,
                seq,
                cseq,
                &[(lba, sectors)],
                &[],
                &[],
                0,
            )),
            LogObj::Gc { lba, sectors, back } => {
                let data = vec![seq as u8; sectors as usize * 512];
                let src = [(seq.saturating_sub(back).max(1), 0)];
                build_data_object(uuid, seq, cseq, Some(&src), &[(lba, sectors)], &data)
            }
            LogObj::Foreign => build_data_object(0xBAD, seq, cseq, None, &[(0, 8)], &[7; 4096]),
            LogObj::Missing => {
                states.push((map.clone(), cseq));
                continue;
            }
        };
        lsvd::recovery::apply_header(&mut map, &parse_data_header(&body).unwrap());
        store.put(&object_name(stream, seq), body).unwrap();
        states.push((map.clone(), cseq));
    }

    for &(seq, lag, corrupt) in &spec.ckpts {
        let covers = seq.saturating_sub(lag).min(spec.objects.len() as u32);
        let body = if corrupt {
            Bytes::from_static(b"not a checkpoint")
        } else {
            let (map, frontier) = &states[covers as usize];
            let snaps = [(format!("s{covers}"), covers)];
            CheckpointData::capture(map, covers, *frontier, &snaps, &[]).build(OWN_UUID)
        };
        store.put(&checkpoint_name("img", seq), body).unwrap();
    }
    store
}

type RecoveredView = (
    Vec<(u64, u64, lsvd::objmap::ObjLoc)>,
    Vec<(u32, lsvd::objmap::ObjStat)>,
    (u32, u64, u32),
    Vec<String>,
    Vec<(String, u32)>,
    Vec<u32>,
);

fn recovered_view(rb: &lsvd::recovery::RecoveredBackend) -> RecoveredView {
    (
        rb.objmap.map_extents().collect(),
        rb.objmap.objects().collect(),
        (rb.last_seq, rb.frontier, rb.ckpt_seq),
        rb.stranded_deleted.clone(),
        rb.snapshots.clone(),
        rb.checkpoints.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn concurrent_recovery_matches_the_serial_walk(spec in log_spec()) {
        use objstore::ObjectStore;

        let serial = build_log(&spec);
        let concurrent = build_log(&spec);
        let want = serial_recover_backend(&serial, "img", spec.upto).expect("serial recovery");
        let got = lsvd::recovery::recover_backend(&concurrent, "img", spec.upto)
            .expect("concurrent recovery");
        prop_assert_eq!(recovered_view(&got), recovered_view(&want));
        prop_assert_eq!(concurrent.list("").unwrap(), serial.list("").unwrap());
    }
}

// ---------------------------------------------------------------------
// Host cache partitioning: the first-fit allocator never hands out
// overlapping partitions, and the on-device table round-trips.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HostOp {
    Create { cache_mb: u64 },
    Detach { victim: usize },
}

fn host_ops() -> impl Strategy<Value = Vec<HostOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (1u64..12).prop_map(|cache_mb| HostOp::Create { cache_mb }),
            1 => (0usize..16).prop_map(|victim| HostOp::Detach { victim }),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn host_partitions_stay_disjoint_and_persistent(ops in host_ops()) {
        use blkdev::BlockDevice;
        use lsvd::config::VolumeConfig;
        use lsvd::host::Host;
        use objstore::MemStore;

        let dev = Arc::new(RamDisk::new(48 << 20));
        let store = Arc::new(MemStore::new());
        let mut host = Host::format(dev.clone(), store.clone()).unwrap();
        let mut next_id = 0u32;

        for op in ops {
            match op {
                HostOp::Create { cache_mb } => {
                    let image = format!("vm{next_id}");
                    next_id += 1;
                    // May fail with CacheFull; that's fine — the invariant
                    // below must hold either way.
                    if let Ok(v) = host.create_volume(
                        &image,
                        8 << 20,
                        cache_mb << 20,
                        VolumeConfig::small_for_tests(),
                    ) {
                        v.shutdown().unwrap();
                    }
                }
                HostOp::Detach { victim } => {
                    let names: Vec<String> =
                        host.partitions().iter().map(|p| p.image.clone()).collect();
                    if !names.is_empty() {
                        host.detach(&names[victim % names.len()]).unwrap();
                    }
                }
            }

            // Invariant: partitions are pairwise disjoint, sector-aligned
            // to the reserved table region, and inside the device.
            let mut spans: Vec<(u64, u64)> = host
                .partitions()
                .iter()
                .map(|p| (p.offset_bytes, p.offset_bytes + p.len_bytes))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
            for &(s, e) in &spans {
                prop_assert!(s >= 4096, "partition inside the table region");
                prop_assert!(e <= dev.capacity());
            }

            // Invariant: the persisted table round-trips exactly.
            let reopened = Host::open(dev.clone(), store.clone()).unwrap();
            prop_assert_eq!(reopened.partitions(), host.partitions());
        }
    }
}

// ---------------------------------------------------------------------
// CachingStore: under arbitrary put/delete/read interleavings and a tiny
// capacity (forcing constant eviction), every read matches the inner
// store byte-for-byte — the cache is invisible except for speed.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Put { obj: u8, len: u32, fill: u8 },
    Delete { obj: u8 },
    Read { obj: u8, offset: u32, len: u32 },
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let max = 200_000u32;
    prop::collection::vec(
        prop_oneof![
            2 => (0u8..4, 1u32..max, any::<u8>())
                .prop_map(|(obj, len, fill)| CacheOp::Put { obj, len, fill }),
            1 => (0u8..4).prop_map(|obj| CacheOp::Delete { obj }),
            4 => (0u8..4, 0u32..max, 0u32..max)
                .prop_map(|(obj, offset, len)| CacheOp::Read { obj, offset, len }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn caching_store_is_transparent(ops in cache_ops()) {
        use bytes::Bytes;
        use objstore::{CachingStore, MemStore, ObjectStore};

        // Shadow: a second MemStore receiving the same mutations.
        let shadow = MemStore::new();
        // Tiny capacity: two 64 KiB chunks, so eviction churns constantly.
        let cached = CachingStore::new(MemStore::new(), 128 << 10);

        for op in ops {
            match op {
                CacheOp::Put { obj, len, fill } => {
                    let name = format!("o{obj}");
                    let data: Vec<u8> = (0..len)
                        .map(|i| fill.wrapping_add((i % 251) as u8))
                        .collect();
                    shadow.put(&name, Bytes::from(data.clone())).unwrap();
                    cached.put(&name, Bytes::from(data)).unwrap();
                }
                CacheOp::Delete { obj } => {
                    let name = format!("o{obj}");
                    shadow.delete(&name).unwrap();
                    cached.delete(&name).unwrap();
                }
                CacheOp::Read { obj, offset, len } => {
                    let name = format!("o{obj}");
                    let want = shadow.get_range(&name, offset as u64, len as u64);
                    let got = cached.get_range(&name, offset as u64, len as u64);
                    match (want, got) {
                        (Ok(w), Ok(g)) => prop_assert_eq!(w, g, "read mismatch on {}", name),
                        (Err(_), Err(_)) => {}
                        (w, g) => prop_assert!(
                            false,
                            "divergent outcome on {}: shadow {:?} cached {:?}",
                            name,
                            w.map(|b| b.len()),
                            g.map(|b| b.len())
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// NBD wire codecs: round trips and malformed-frame rejection.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nbd_request_frames_round_trip(
        flags in any::<u16>(),
        cmd in any::<u16>(),
        cookie in any::<u64>(),
        offset in any::<u64>(),
        length in any::<u32>(),
    ) {
        use nbd::proto::{decode_request, encode_request, Request};
        let r = Request { flags, cmd, cookie, offset, length };
        prop_assert_eq!(decode_request(&encode_request(&r)), Some(r));
    }

    #[test]
    fn nbd_request_rejects_any_corrupted_magic(
        cookie in any::<u64>(),
        byte in 0usize..4,
        flip in 1u8..255,
    ) {
        use nbd::proto::{decode_request, encode_request, Request, CMD_READ};
        let r = Request { flags: 0, cmd: CMD_READ, cookie, offset: 0, length: 4096 };
        let mut b = encode_request(&r);
        b[byte] ^= flip;
        prop_assert_eq!(decode_request(&b), None);
    }

    #[test]
    fn nbd_reply_frames_round_trip(error in any::<u32>(), cookie in any::<u64>()) {
        use nbd::proto::{decode_simple_reply, encode_simple_reply, SimpleReply};
        let r = SimpleReply { error, cookie };
        prop_assert_eq!(decode_simple_reply(&encode_simple_reply(&r)), Some(r));
    }

    #[test]
    fn nbd_reply_rejects_any_corrupted_magic(
        cookie in any::<u64>(),
        byte in 0usize..4,
        flip in 1u8..255,
    ) {
        use nbd::proto::{decode_simple_reply, encode_simple_reply, SimpleReply};
        let mut b = encode_simple_reply(&SimpleReply { error: 0, cookie });
        b[byte] ^= flip;
        prop_assert_eq!(decode_simple_reply(&b), None);
    }

    #[test]
    fn nbd_go_payload_round_trips_and_rejects_truncation(
        name in "[a-zA-Z0-9._-]{0,64}",
        cut in any::<usize>(),
    ) {
        use nbd::proto::{decode_go_payload, encode_go_payload};
        let p = encode_go_payload(&name);
        let decoded = decode_go_payload(&p);
        prop_assert_eq!(decoded.as_deref(), Some(name.as_str()));
        // Every strict prefix is rejected: no length field can lie its way
        // past the buffer end.
        let cut = cut % p.len();
        prop_assert_eq!(decode_go_payload(&p[..cut]), None);
    }

    #[test]
    fn nbd_go_payload_rejects_oversized_name_length(
        name in "[a-z]{1,16}",
        extra in 1u32..1 << 20,
    ) {
        use nbd::proto::{decode_go_payload, encode_go_payload};
        // Inflate the claimed name length beyond the actual buffer: a
        // malicious client must not make the server read past the payload.
        let mut p = encode_go_payload(&name);
        let lied = (name.len() as u32).saturating_add(extra);
        p[0..4].copy_from_slice(&lied.to_be_bytes());
        prop_assert_eq!(decode_go_payload(&p), None);
    }

    #[test]
    fn nbd_info_export_round_trips_and_rejects_bad_shapes(
        size in any::<u64>(),
        tflags in any::<u16>(),
        junk in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        use nbd::proto::{decode_info_export, encode_info_export, INFO_EXPORT};
        let b = encode_info_export(size, tflags);
        prop_assert_eq!(decode_info_export(&b), Some((size, tflags)));
        // Wrong length, or a correct length with the wrong info type, is
        // not an export-info block.
        if junk.len() != 12
            || u16::from_be_bytes([junk[0], junk[1]]) != INFO_EXPORT
        {
            prop_assert_eq!(decode_info_export(&junk), None);
        }
    }
}
