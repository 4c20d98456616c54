//! End-to-end LSVD benchmark over NBD loopback.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync-4k|read-miss|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One process serves a volume over NBD on `127.0.0.1:0` and drives it with
//! a closed-loop generator (at most 2 threads and 2 connections). The
//! volume sits on a 256 MiB `FileDisk` cache file and a `DirStore` bucket
//! behind a modelled S3 (`LatencyStore`), both under `.perfbench/` in the
//! working directory, which is removed at exit. A run sets up three times
//! and keeps the last set-up, measures for `--seconds`, flushes every
//! connection, and "crashes" by dropping every handle without `shutdown`.
//! It recovers that crash image untimed, makes a fixed crash image from the
//! result (a set number of objects past a checkpoint), times `Volume::open`
//! and `shutdown` on it, and checks on one more open that acknowledged
//! writes read back. See `README.md`.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and prints a measured Table 6. The last line of
//! standard output is one JSON object; the exit code is nonzero on any
//! readback mismatch.

mod load;
mod probe;
mod report;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use lsvd::config::VolumeConfig;
use lsvd::shared::SharedVolume;
use lsvd::volume::Volume;
use rand::Rng;
use sim::rng::{derive_seed, rng_from_seed};
use telemetry::{LatencySnapshot, SpanRing, TelemetrySnapshot};

use load::{drive, Model, Op, BLOCK};
use probe::{Probe, TimedDisk, TimedStore, C};
use report::{delta_mean_us, json, m, mean_us, pct_us, ratio, Metric, Table6};
use workloads::{setup, Rig, Workload, IMAGE};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Completions are sampled once per epoch; the traced run turns tracing
/// on and off at epoch edges.
const EPOCH: Duration = Duration::from_millis(250);
/// `ops_per_s` is the median rate of slices of this many epochs (1 s).
const SLICE_EPOCHS: usize = 4;
/// Data objects that follow the last checkpoint at the crash, which
/// recovery rolls forward.
const RECOVERY_OBJECTS: u64 = 16;
/// Random written blocks checked after the crash, per connection, on top
/// of the most recently written ones.
const VERIFY_SAMPLE: usize = 512;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let num = |key: &str, v: String| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let seconds = num("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: num("--seed", get("--seed")?)?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// `--workload all` runs each workload in a child process of its own, so
/// each reports its own peak RSS; the exit code is the worst child's.
fn run_all() -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2)
    });
    let mut worst = 0;
    for w in ["sync-4k", "read-miss"] {
        let args = argv.iter().map(|a| if a == "all" { w } else { a.as_str() });
        let code = std::process::Command::new(&exe)
            .args(args)
            .status()
            .map_or(2, |s| s.code().unwrap_or(2));
        worst = worst.max(code);
    }
    std::process::exit(worst)
}

fn main() {
    if std::env::args().any(|a| a == "all") {
        run_all();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench").join(std::process::id().to_string());
    let out = bench(&args, &root);
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir(".perfbench");
    match out {
        Ok(out) => {
            for x in &out.shown {
                println!("{:<40} {:>14.4} {}", x.name, x.value, x.unit);
            }
            let metrics = if args.trace {
                &out.per_layer
            } else {
                &out.end_to_end
            };
            println!("{}", json(out.correct, out.attempted, out.failed, metrics));
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Printed by name before the result line (both sets, plus context).
    shown: Vec<Metric>,
}

/// Counts completed requests in each [`EPOCH`] until `deadline`, as
/// `(requests, seconds)`. With `trace` set, tracing (the wrappers' timing
/// and the program's span ring) is on in even epochs and off in odd ones,
/// so that the overhead ratio compares like with like.
fn sample(
    deadline: Instant,
    done: &AtomicU64,
    trace: Option<(&Probe, &SpanRing)>,
) -> Vec<(u64, f64)> {
    let set = |on: bool| {
        if let Some((probe, spans)) = trace {
            probe.timing.store(on, Relaxed);
            spans.set_enabled(on);
        }
    };
    let mut epochs = Vec::new();
    set(true);
    let (mut t, mut n) = (Instant::now(), done.load(Relaxed));
    while t < deadline {
        sleep(EPOCH.min(deadline - t));
        let (t2, n2) = (Instant::now(), done.load(Relaxed));
        epochs.push((n2 - n, (t2 - t).as_secs_f64()));
        (t, n) = (t2, n2);
        set(epochs.len() % 2 == 0);
    }
    set(false);
    epochs
}

/// Request rate over a set of epochs.
fn rate<'a>(epochs: impl Iterator<Item = &'a (u64, f64)>) -> f64 {
    let (n, s) = epochs.fold((0, 0.0), |(n, s), e| (n + e.0, s + e.1));
    ratio(n as f64, s)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Opens the volume on the run's cache file and bucket.
fn reopen(store: &Arc<TimedStore>, cache: &Path, probe: &Arc<Probe>) -> Result<Volume, String> {
    let disk = TimedDisk::open(cache, probe.clone()).map_err(|e| format!("cache: {e}"))?;
    let vol = Volume::open(
        store.clone(),
        Arc::new(disk),
        IMAGE,
        VolumeConfig::default(),
    )
    .map_err(|e| format!("reopen: {e}"))?;
    probe.set_rcache_region(vol.read_cache_region());
    Ok(vol)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("bucket: {e}"))? {
        let entry = entry.map_err(|e| format!("bucket: {e}"))?;
        if !entry.file_name().to_string_lossy().starts_with(".tmp.") {
            total += entry.metadata().map_err(|e| format!("bucket: {e}"))?.len();
        }
    }
    Ok(total)
}

/// Makes a fixed crash image from a volume fresh from a clean open: seals
/// [`RECOVERY_OBJECTS`] small objects of one 64 KiB write each (`drain`
/// seals and PUTs the open batch), then writes 1 MiB more and flushes it,
/// so that recovery rolls forward those objects and replays that log tail.
/// The objects are small because `DirStore` reads a whole object file to
/// return a header range, and that local cost varied from run to run for
/// 8 MiB objects; for small ones the modelled GET delay dominates.
fn make_fixed_crash_image(
    vol: &mut Volume,
    model: &mut Model,
    probe: &Probe,
) -> Result<(), String> {
    let io = |e: lsvd::LsvdError| format!("fixed crash image: {e}");
    let start = model.owned.start;
    let mut write = |vol: &mut Volume, block: u64, blocks: u64| {
        let data = model.next_write(block, blocks);
        vol.write(block * BLOCK, &data).map_err(io)
    };
    const PIECE: u64 = (64 << 10) / BLOCK;
    for i in 0..RECOVERY_OBJECTS {
        write(vol, start + i * PIECE, PIECE)?;
        vol.drain().map_err(io)?;
    }
    write(vol, start + RECOVERY_OBJECTS * PIECE, (1 << 20) / BLOCK)?;
    vol.flush().map_err(io)?;
    match probe.objects_since_checkpoint() {
        RECOVERY_OBJECTS => Ok(()),
        n => Err(format!(
            "fixed crash image: {n} objects follow the checkpoint, not {RECOVERY_OBJECTS}"
        )),
    }
}

/// Reads back the most recently written blocks and a seeded sample of all
/// blocks holding data, returning the number that differ from the model.
fn verify(
    vol: &mut Volume,
    models: &[Model],
    w: Workload,
    seed: u64,
) -> Result<(u64, u64), String> {
    let mut rng = rng_from_seed(derive_seed(seed, 0x5eed_c4ec));
    let mut blocks: Vec<(usize, u64)> = Vec::new();
    for (i, model) in models.iter().enumerate() {
        blocks.extend(model.recent.iter().map(|&b| (i, b)));
        let written: Vec<u64> = model.written().collect();
        for _ in 0..VERIFY_SAMPLE.min(written.len()) {
            blocks.push((i, written[rng.gen_range(0..written.len())]));
        }
    }
    let shared = w.read_only();
    if !shared.is_empty() {
        for _ in 0..VERIFY_SAMPLE {
            blocks.push((0, rng.gen_range(shared.clone())));
        }
    }
    let (mut got, mut want) = (vec![0u8; BLOCK as usize], vec![0u8; BLOCK as usize]);
    let mut bad = 0;
    for &(i, b) in &blocks {
        vol.read(b * BLOCK, &mut got)
            .map_err(|e| format!("verify read: {e}"))?;
        models[i].expected(b, &mut want);
        if got != want {
            eprintln!("after recovery: block {b} does not read back");
            bad += 1;
        }
    }
    Ok((blocks.len() as u64, bad))
}

fn bench(args: &Args, root: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let probe = Probe::new();
    let tel = |sv: &SharedVolume| sv.telemetry().map_err(|e| format!("telemetry: {e}"));

    // --- set-up, several times -------------------------------------------
    let mut setup_times = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let r = setup(w, args.seed, &root.join(format!("setup{i}")), &probe)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            r.discard();
        } else {
            rig = Some(r);
        }
    }
    let Rig {
        dir,
        store,
        cache_path,
        sv,
        server,
        mut conns,
        mut streams,
        done,
        warm_hit_ratio,
    } = rig.expect("at least one set-up");

    // --- timed phase -----------------------------------------------------
    let spans = sv.span_ring();
    let tel0 = tel(&sv)?;
    let tally0 = probe.tally();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    for c in &mut conns {
        c.window = Some(deadline);
    }
    let epochs = std::thread::scope(|s| -> Result<Vec<(u64, f64)>, String> {
        let gens: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, ops)| {
                let done = &done;
                s.spawn(move || drive(conn, ops.as_mut(), done, |_| Instant::now() >= deadline))
            })
            .collect();
        let epochs = sample(deadline, &done, args.trace.then_some((&*probe, &*spans)));
        for g in gens {
            g.join()
                .map_err(|_| "generator thread panicked".to_string())?
                .map_err(|e| format!("load: {e}"))?;
        }
        Ok(epochs)
    })?;
    let wall = start.elapsed().as_secs_f64();
    let tel1 = tel(&sv)?;
    let tally1 = probe.tally();
    let timings = [
        probe.timings.dev_read.snapshot(),
        probe.timings.dev_flush.snapshot(),
        probe.timings.put.snapshot(),
        probe.timings.get.snapshot(),
    ];
    let mut stats = Vec::new();
    for c in &mut conns {
        c.window = None;
        stats.push(std::mem::take(&mut c.stats));
    }

    // --- isolated ops for Table 6 (traced run only) ------------------------
    let table6 = if args.trace {
        probe.timing.store(true, Relaxed);
        let t = report::table6(&sv, &mut conns[0], &probe, args.seed);
        probe.timing.store(false, Relaxed);
        Some(t?)
    } else {
        None
    };

    // --- final flush, then crash -------------------------------------------
    let mut models = Vec::new();
    let mut mismatches = 0;
    for mut c in conns {
        c.sync_op(Op::flush())
            .map_err(|e| format!("final flush: {e}"))?;
        mismatches += c.mismatches;
        models.push(c.disconnect().map_err(|e| format!("disconnect: {e}"))?);
    }
    server.stop();
    drop(spans);
    drop(sv);
    drop(streams);
    let live_bytes =
        (models.iter().map(Model::live_blocks).sum::<u64>() + w.read_only().count() as u64) * BLOCK;

    // --- recovery of the run's crash image, and a fixed one ---------------------
    // Recovery rolls forward every object written since the last
    // checkpoint, and how many the window leaves grows with its
    // throughput. So the run's own crash image is recovered and drained
    // untimed (`space_amp` is measured there), and `recovery_s` and
    // `drain_s` are measured on a second crash image, made by reopening
    // the result cleanly and sealing exactly RECOVERY_OBJECTS objects.
    probe.modelled.store(false, Relaxed);
    let vol = reopen(&store, &cache_path, &probe)?;
    vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let bucket_bytes = dir_bytes(&dir.join("bucket"))?;
    let mut vol = reopen(&store, &cache_path, &probe)?;
    make_fixed_crash_image(&mut vol, &mut models[0], &probe)?;
    drop(vol);
    probe.modelled.store(true, Relaxed);

    // --- recovery and drain of the fixed crash image ----------------------------
    let before = probe.tally();
    probe.timing.store(args.trace, Relaxed);
    let t0 = Instant::now();
    let vol = reopen(&store, &cache_path, &probe)?;
    let recovery_s = t0.elapsed().as_secs_f64();
    probe.timing.store(false, Relaxed);
    let rec = probe.tally().since(&before);
    let t0 = Instant::now();
    vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let drain_s = t0.elapsed().as_secs_f64();
    // Check the recovered data on a clean reopen: reads fill the read
    // cache, which would have changed what the timed drain did.
    probe.modelled.store(false, Relaxed);
    let mut vol = reopen(&store, &cache_path, &probe)?;
    let (checked, mismatched) = verify(&mut vol, &models, w, args.seed)?;
    vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(store);

    // --- metrics ---------------------------------------------------------------
    let mut lat: [Vec<u64>; 3] = Default::default();
    let (mut attempted, mut failed, mut user_bytes) = (0, 0, 0);
    for s in stats {
        for (k, v) in s.lat.into_iter().enumerate() {
            lat[k].extend(v);
        }
        attempted += s.attempted;
        failed += s.failed;
        user_bytes += s.user_bytes_written;
    }
    for v in &mut lat {
        v.sort_unstable();
    }
    let all: Vec<u64> = lat.iter().flatten().copied().collect();
    let completed = all.len() as u64 + failed;
    let [writes, reads, flushes] = &lat;
    let correct = mismatches == 0 && mismatched == 0;
    let d = tally1.since(&tally0);
    let ub = user_bytes as f64;
    let misses = (tel1.read_plane.miss_reads - tel0.read_plane.miss_reads) as f64;
    let run_reads = (tel1.read_plane.reads - tel0.read_plane.reads) as f64;

    let slice_rates: Vec<f64> = epochs
        .chunks(SLICE_EPOCHS)
        .map(|c| rate(c.iter()))
        .collect();

    let end_to_end = vec![
        m("ops_per_s", median(slice_rates.clone()), "1/s"),
        m("setup_s", median(setup_times.clone()), "s"),
        m("recovery_s", recovery_s, "s"),
        m("drain_s", drain_s, "s"),
        m(
            "space_amp",
            ratio(bucket_bytes as f64, live_bytes as f64),
            "ratio",
        ),
    ];
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let [dev_read, dev_flush, put, get] = &timings;
    // The program's latency sketches are cumulative since the volume was
    // opened, so only their window means (count × mean differences) belong
    // to the timed phase alone.
    let window_us =
        |f: fn(&TelemetrySnapshot) -> &LatencySnapshot| delta_mean_us(f(&tel0), f(&tel1));
    let t6 = table6.as_ref();
    let gap = |f: fn(&Table6) -> &report::Row| t6.map_or(0.0, |t| f(t).gap_ratio());
    let per_layer = vec![
        m("process.peak_rss_mib", peak_rss_mib(), "MiB"),
        m("client.write_p50_us", pct_us(writes, 50.0), "us"),
        m("client.write_p99_us", pct_us(writes, 99.0), "us"),
        m("client.read_p50_us", pct_us(reads, 50.0), "us"),
        m("client.read_p99_us", pct_us(reads, 99.0), "us"),
        m("client.flush_p50_us", pct_us(flushes, 50.0), "us"),
        m("client.flush_p99_us", pct_us(flushes, 99.0), "us"),
        m(
            "client.failed_op_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        m(
            "nbd.tax_mean_us",
            mean_us(&all) - delta_mean_us(&tel0.serving.service, &tel1.serving.service),
            "us",
        ),
        m(
            "nbd.socket_wait_mean_us",
            window_us(|t| &t.serving.socket_wait),
            "us",
        ),
        m(
            "nbd.queue_wait_mean_us",
            window_us(|t| &t.serving.queue_wait),
            "us",
        ),
        m("volume.write_mean_us", window_us(|t| &t.ops.write), "us"),
        m("volume.flush_mean_us", window_us(|t| &t.ops.flush), "us"),
        m(
            "blkdev.flush_per_client_flush",
            ratio(d.get(C::DevFlushes) as f64, flushes.len() as f64),
            "ratio",
        ),
        m("blkdev.flush_p50_us", us(dev_flush.p50_ns), "us"),
        m("blkdev.flush_p99_us", us(dev_flush.p99_ns), "us"),
        m(
            "blkdev.wlog_write_bytes_per_user_byte",
            ratio(d.get(C::WlogWriteBytes) as f64, ub),
            "B/B",
        ),
        m(
            "blkdev.rcache_write_bytes",
            d.get(C::RcacheWriteBytes) as f64,
            "bytes",
        ),
        m("blkdev.read_p99_us", us(dev_read.p99_ns), "us"),
        m("blkdev.busy_s", d.get(C::DevBusyNs) as f64 / 1e9, "s"),
        m("objstore.put_count", d.get(C::Puts) as f64, "count"),
        m(
            "objstore.put_bytes_per_user_byte",
            ratio(d.get(C::PutBytes) as f64, ub),
            "B/B",
        ),
        m("objstore.put_p50_ms", ms(put.p50_ns), "ms"),
        m(
            "objstore.get_per_read_miss",
            ratio(d.get(C::Gets) as f64, misses),
            "ratio",
        ),
        m(
            "objstore.get_bytes_per_miss_byte",
            ratio(d.get(C::GetBytes) as f64, misses * BLOCK as f64),
            "B/B",
        ),
        m("objstore.get_p50_ms", ms(get.p50_ns), "ms"),
        m("objstore.busy_s", d.get(C::StoreBusyNs) as f64 / 1e9, "s"),
        m(
            "writeback.put_queue_wait_mean_ms",
            window_us(|t| &t.writeback.put_queue_wait) / 1e3,
            "ms",
        ),
        m(
            "writeback.put_service_mean_ms",
            window_us(|t| &t.writeback.put_service) / 1e3,
            "ms",
        ),
        m(
            "writeback.backpressure_rejections",
            (tel1.writeback.backpressure_rejections - tel0.writeback.backpressure_rejections)
                as f64,
            "count",
        ),
        m(
            "writeback.frontier_lag_end",
            tel1.writeback.frontier_lag as f64,
            "count",
        ),
        m(
            "read_plane.hit_ratio",
            ratio(
                (tel1.read_plane.hit_reads - tel0.read_plane.hit_reads) as f64,
                run_reads,
            ),
            "ratio",
        ),
        m(
            "read_plane.singleflight_shared",
            (tel1.read_plane.singleflight_shared - tel0.read_plane.singleflight_shared) as f64,
            "count",
        ),
        m(
            "read_plane.bypassed_sectors",
            (tel1.read_plane.bypassed_sectors - tel0.read_plane.bypassed_sectors) as f64,
            "count",
        ),
        m(
            "read_plane.excl_lock_wait_mean_us",
            window_us(|t| &t.read_plane.excl_lock_wait),
            "us",
        ),
        m(
            "gc.passes",
            (tel1.space.gc_passes - tel0.space.gc_passes) as f64,
            "count",
        ),
        m(
            "gc.relocated_bytes_per_user_byte",
            ratio(
                (tel1.space.gc_relocated_bytes - tel0.space.gc_relocated_bytes) as f64,
                ub,
            ),
            "B/B",
        ),
        m(
            "gc.dead_ratio_end",
            tel1.derived.gc_dead_space_ratio,
            "ratio",
        ),
        m("recovery.store_gets", rec.get(C::Gets) as f64, "count"),
        m("recovery.store_lists", rec.get(C::Lists) as f64, "count"),
        m(
            "recovery.cache_read_bytes",
            rec.get(C::DevReadBytes) as f64,
            "bytes",
        ),
        m("recovery.checkpoints", rec.get(C::CkptGets) as f64, "count"),
        m(
            "recovery.store_busy_s",
            rec.get(C::StoreBusyNs) as f64 / 1e9,
            "s",
        ),
        m(
            "recovery.cache_busy_s",
            rec.get(C::DevBusyNs) as f64 / 1e9,
            "s",
        ),
        m(
            "telemetry.trace_overhead_ratio",
            ratio(
                rate(epochs.iter().skip(1).step_by(2)),
                rate(epochs.iter().step_by(2)),
            ),
            "ratio",
        ),
        m("telemetry.span_drops", tel1.spans.dropped as f64, "count"),
        m("closure.write_gap_ratio", gap(|t| &t.write), "ratio"),
        m("closure.flush_gap_ratio", gap(|t| &t.flush), "ratio"),
        m("closure.read_hit_gap_ratio", gap(|t| &t.hit), "ratio"),
        m("closure.read_miss_gap_ratio", gap(|t| &t.miss), "ratio"),
    ];

    println!(
        "perfbench {} seed {} (trace {}): {} ops completed in the {}s window, last reply after {:.3}s; \
         samples: {} writes, {} reads, {} flushes",
        args.name,
        args.seed,
        u8::from(args.trace),
        completed,
        args.seconds,
        wall,
        writes.len(),
        reads.len(),
        flushes.len()
    );
    println!("ops/s per second of the window: {:.0?}", slice_rates);
    println!("set-ups: {:.3?} s", setup_times);
    println!(
        "after the crash {checked} blocks checked, {mismatched} mismatched; \
         {mismatches} mismatches during the run"
    );
    if let Some(h) = warm_hit_ratio {
        println!("warm-up ended at a {h:.3} read hit ratio");
    }
    if let Some(t) = &table6 {
        t.print(&args.name);
    }
    let mut shown = end_to_end
        .iter()
        .map(|x| m(x.name, x.value, x.unit))
        .collect::<Vec<_>>();
    if args.trace {
        shown.extend(per_layer.iter().map(|x| m(x.name, x.value, x.unit)));
    }
    shown.extend([
        m("context.write_samples", writes.len() as f64, "count"),
        m("context.read_samples", reads.len() as f64, "count"),
        m("context.flush_samples", flushes.len() as f64, "count"),
    ]);
    if !args.trace {
        // Client latencies by op type are per-layer metrics; show them
        // in the untraced run too.
        shown.extend(
            per_layer
                .iter()
                .filter(|x| x.name.starts_with("client."))
                .map(|x| m(x.name, x.value, x.unit)),
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        shown,
    })
}
