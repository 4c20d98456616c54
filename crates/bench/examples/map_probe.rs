//! Object-map probe: the memory and the time the object map costs at a
//! given number of live extents.
//!
//! It fills an `ObjectMap` through `apply_object` with objects of 2,048
//! random 4 KiB extents over an 80 GiB vLBA space until the map holds
//! `--extents N` live extents. A counting global allocator gives the live
//! map's heap bytes per extent, and those of its forward map alone,
//! measured by replaying the same inserts into a bare `ExtentMap`; the
//! location index holds the rest, less the object table. It then times
//! one full `map_extents()` walk, a cleaning pass's planning
//! (`gc::plan_pass`, then `live_in` of each victim), a checkpoint's
//! `capture` plus `build`, its `parse` and `rebuild_map`, and gives the
//! rebuilt map's bytes per extent the same way. It prints one JSON line.
//!
//! ```text
//! cargo run --release -p bench --example map_probe -- --extents 4000000
//! ```
//!
//! The pass is planned from the map as it stands, with the low watermark
//! above 1 so the trigger fires, and a target five points above the
//! map's utilization. At 16M extents the probe holds about 3 GiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use lsvd::checkpoint::CheckpointData;
use lsvd::extent_map::ExtentMap;
use lsvd::gc::{self, GcPolicy};
use lsvd::objmap::{ObjLoc, ObjectMap};

static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting the bytes held (allocations less frees).
struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the counter is an
// atomic, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result, the heap bytes still held from it and
/// its time in milliseconds.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64, f64) {
    let (before, t) = (LIVE.load(Ordering::Relaxed), Instant::now());
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (out, LIVE.load(Ordering::Relaxed) - before, ms)
}

const PER_OBJECT: usize = 2048;
const SPACE_BLOCKS: u64 = (80 << 30) / 4096;

fn usage() -> ! {
    eprintln!("usage: map_probe --extents N");
    std::process::exit(2)
}

fn main() {
    let mut target = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next().as_deref()) {
            ("--extents", Some(n)) => target = n.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if target == 0 {
        usage();
    }

    let (mut map, mut fwd) = (ObjectMap::new(), ExtentMap::<ObjLoc>::new());
    let (mut map_bytes, mut fwd_bytes) = (0i64, 0i64);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut seq = 0u32;
    while map.extent_count() < target {
        seq += 1;
        let mut extents: Vec<(u64, u32)> = (0..PER_OBJECT)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % SPACE_BLOCKS * 8, 8)
            })
            .collect();
        // A sealed batch holds each vLBA once, in vLBA order.
        extents.sort_unstable();
        extents.dedup();
        map_bytes += measured(|| map.apply_object(seq, 1, &extents)).1;
        fwd_bytes += measured(|| {
            let mut off = 0;
            for &(lba, len) in &extents {
                fwd.insert(lba, len as u64, ObjLoc { seq, off });
                off += len;
            }
        })
        .1;
    }
    drop(fwd);
    let n = map.extent_count() as f64;
    let table_bytes = measured(|| ObjectMap::from_parts(std::iter::empty(), map.objects())).1;
    let (live, total) = map.totals();
    let util = live as f64 / total as f64;

    let (_, _, walk_ms) =
        measured(|| std::hint::black_box(map.map_extents().map(|(_, len, _)| len).sum::<u64>()));
    let (victims, _, plan_ms) = measured(|| {
        gc::plan_pass(
            &map,
            1,
            seq,
            (1.01, (util + 0.05).min(1.0)),
            GcPolicy::CostBenefit,
            seq,
        )
    });
    let (listed, _, list_ms) = measured(|| {
        victims
            .iter()
            .map(|&v| map.live_in(v, ..).len())
            .sum::<usize>()
    });
    let (ckpt, _, capture_build_ms) =
        measured(|| CheckpointData::capture(&map, seq, 0, &[], &[]).build(1));
    drop(map);
    let (parsed, _, parse_ms) = measured(|| CheckpointData::parse(&ckpt, 1).expect("parse"));
    let ckpt_mib = ckpt.len() as f64 / (1 << 20) as f64;
    drop(ckpt);
    let (rebuilt, rebuilt_bytes, rebuild_ms) = measured(|| parsed.rebuild_map());
    drop(rebuilt);
    let rebuilt_fwd = measured(|| ExtentMap::bulk_load(parsed.map.iter().copied())).1;

    let per = |b: i64| b as f64 / n;
    println!(
        "{{\"extents\": {}, \"objects\": {seq}, \"utilization\": {util:.3}, \
         \"map_b_per_extent\": {:.1}, \"forward_b_per_extent\": {:.1}, \
         \"index_b_per_extent\": {:.1}, \"rebuilt_forward_b_per_extent\": {:.1}, \
         \"rebuilt_index_b_per_extent\": {:.1}, \"checkpoint_mib\": {ckpt_mib:.1}, \
         \"walk_ms\": {walk_ms:.1}, \"capture_build_ms\": {capture_build_ms:.1}, \
         \"parse_ms\": {parse_ms:.1}, \"rebuild_ms\": {rebuild_ms:.1}, \
         \"plan_pass_ms\": {plan_ms:.1}, \"victims\": {}, \"live_in_ms\": {list_ms:.1}, \
         \"victim_extents\": {listed}}}",
        n as u64,
        per(map_bytes),
        per(fwd_bytes),
        per(map_bytes - fwd_bytes - table_bytes),
        per(rebuilt_fwd),
        per(rebuilt_bytes - rebuilt_fwd - table_bytes),
        victims.len(),
    );
}
