//! # Crash-state model checking for LSVD
//!
//! A seeded differential harness that proves the volume's crash
//! contract — *no acked write is ever lost, and recovery always lands on
//! a consistent prefix* — over a state space far larger than hand-written
//! crash tests can cover:
//!
//! 1. the [`oracle`] is a trivially-correct in-memory disk model that
//!    consumes the same op stream (stamped writes, trims, flushes,
//!    drains) and tracks which ops the volume acknowledged;
//! 2. the **explorer** ([`explore`]) generates randomized op streams per
//!    [`Profile`] and runs each through a real [`Volume`] whose edge
//!    hook — the crash controller — can kill the volume at *any*
//!    lifecycle edge of its span ring (batch seal, PUT
//!    start/done/retry, frontier advance, checkpoint, trim, GC pass and
//!    relocation, degraded-mode flips), crossed with cache loss on/off,
//!    `ChaosStore` fault schedules and serial-vs-pipelined writeback;
//! 3. the **checker** ([`run_case`]) recovers the crashed volume and
//!    asserts every acked op is visible, every unacked op is fully
//!    visible or fully absent (the acked-prefix rule), trims stay
//!    trimmed, and a second recovery pass is a byte-identical no-op.
//!
//! The crash itself is a panic: the edge hook calls
//! [`std::panic::panic_any`] with a [`CrashSignal`] payload at the
//! chosen edge, which unwinds through the volume mid-operation with no
//! cleanup code running (drop of the writeback pool joins workers, whose
//! in-flight PUTs land whole or not at all — exactly a process death
//! with requests on the wire). The backend is frozen at the same instant
//! by severing an [`objstore::CutStore`] beneath the fault-injection
//! layers.
//!
//! Every failure renders as **one reproducer line** (`MC-REPRO seed=…
//! profile=… faults=… mode=… cache=… crash=…`) that [`McCase::parse`]
//! turns back into the exact same run. Serial-mode cases replay
//! bit-for-bit; pipelined cases add thread-race coverage and are
//! quasi-deterministic (same schedule and crash edge, worker
//! interleaving free).

pub mod oracle;

use std::collections::BTreeSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use blkdev::RamDisk;
use lsvd::config::VolumeConfig;
use lsvd::volume::Volume;
use lsvd::LsvdError;
use objstore::{
    ChaosSchedule, ChaosStore, CutHandle, CutStore, MemStore, ObjectStore, OutageWindow,
    RetryPolicy, RetryStore,
};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use oracle::{OpKind, Oracle, MBLOCK};

/// Image name every model-check volume uses.
const IMG: &str = "mc";
/// Volume size: 256 model blocks keeps runs fast while overwrites and
/// trims collide often enough to exercise GC and the trim re-punch.
const VOL_BYTES: u64 = 256 * MBLOCK;
/// Cache device size (write log = 20 % of this).
const CACHE_BYTES: u64 = 4 << 20;
/// Ops per generated schedule.
const OPS_PER_RUN: usize = 48;
/// Bound on backpressure retries before an op counts as rejected.
const MAX_SPINS: u32 = 10_000;

/// Panic payload the crash controller throws at the chosen edge.
/// Anything else unwinding out of a run is a real bug.
pub struct CrashSignal;

/// Workload shape of a generated op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Writes hammer a small hot window; overwrites dominate.
    OverwriteHeavy,
    /// Trims interleave densely with writes (the `pending_trims` shape).
    TrimHeavy,
    /// Frequent flush/drain barriers between writes; part of the writes
    /// overwrite a hot window.
    FlushMixed,
    /// Hot-window overwrites plus explicit GC passes mid-stream.
    GcInterleaved,
    /// Structured trim/write/flush dance targeting the window where a
    /// queued batch lands *after* a newer trim punched the map: seal a
    /// victim batch, part-fill the builder, trim a victim block, then
    /// drain the queue via an overlapping write that does not seal, and
    /// immediately read the trimmed block. In serial mode under an
    /// outage this interleaving is fully deterministic.
    TrimRace,
}

impl Profile {
    /// All profiles, in exploration order.
    pub const ALL: [Profile; 5] = [
        Profile::OverwriteHeavy,
        Profile::TrimHeavy,
        Profile::FlushMixed,
        Profile::GcInterleaved,
        Profile::TrimRace,
    ];

    fn name(self) -> &'static str {
        match self {
            Profile::OverwriteHeavy => "overwrite-heavy",
            Profile::TrimHeavy => "trim-heavy",
            Profile::FlushMixed => "flush-mixed",
            Profile::GcInterleaved => "gc-interleaved",
            Profile::TrimRace => "trim-race",
        }
    }

    fn parse(s: &str) -> Option<Profile> {
        Profile::ALL.into_iter().find(|p| p.name() == s)
    }

    fn salt(self) -> u64 {
        match self {
            Profile::OverwriteHeavy => 0x6F76_7772,
            Profile::TrimHeavy => 0x7472_696D,
            Profile::FlushMixed => 0x666C_7368,
            Profile::GcInterleaved => 0x6763_6763,
            Profile::TrimRace => 0x7472_6163,
        }
    }
}

/// Backend fault schedule layered under the volume for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Clean backend.
    None,
    /// Mild constant transient-failure probabilities.
    Mild,
    /// Mild faults plus a timed outage window (drives degraded mode and
    /// the queued-batch / late-landing interleavings).
    Outage,
}

impl Faults {
    /// All fault profiles, in exploration order.
    pub const ALL: [Faults; 3] = [Faults::None, Faults::Mild, Faults::Outage];

    fn name(self) -> &'static str {
        match self {
            Faults::None => "none",
            Faults::Mild => "mild",
            Faults::Outage => "outage",
        }
    }

    fn parse(s: &str) -> Option<Faults> {
        Faults::ALL.into_iter().find(|f| f.name() == s)
    }

    fn schedule(self, seed: u64) -> ChaosSchedule {
        match self {
            Faults::None => ChaosSchedule::seeded(seed),
            Faults::Mild => ChaosSchedule {
                put_fail_p: 0.05,
                get_fail_p: 0.02,
                head_fail_p: 0.02,
                list_fail_p: 0.01,
                ..ChaosSchedule::seeded(seed)
            },
            Faults::Outage => {
                let start = 25 + seed % 30;
                ChaosSchedule {
                    put_fail_p: 0.05,
                    get_fail_p: 0.02,
                    head_fail_p: 0.02,
                    list_fail_p: 0.01,
                    outages: vec![OutageWindow {
                        start_op: start,
                        end_op: start + 15 + seed % 10,
                    }],
                    ..ChaosSchedule::seeded(seed)
                }
            }
        }
    }
}

/// One fully-specified model-check state: the schedule coordinates plus
/// the crash edge. Everything a run needs to replay deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McCase {
    /// Seed deriving the op stream, chaos schedule and retry jitter.
    pub seed: u64,
    /// Workload shape.
    pub profile: Profile,
    /// Backend fault schedule.
    pub faults: Faults,
    /// Pipelined writeback (worker pool) instead of serial inline PUTs.
    pub pipelined: bool,
    /// Discard the cache device before recovery (total SSD loss).
    pub lose_cache: bool,
    /// Edge ordinal to crash at; `None` runs the stream to the end
    /// (the volume is still dropped without shutdown).
    pub crash_event: Option<u64>,
}

impl fmt::Display for McCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} profile={} faults={} mode={} cache={} crash={}",
            self.seed,
            self.profile.name(),
            self.faults.name(),
            if self.pipelined {
                "pipelined"
            } else {
                "serial"
            },
            if self.lose_cache { "lost" } else { "kept" },
            match self.crash_event {
                Some(id) => id.to_string(),
                None => "none".to_string(),
            },
        )
    }
}

impl McCase {
    /// Parses the `key=value` form printed by `Display` (a reproducer
    /// line's coordinates), ignoring unknown keys.
    pub fn parse(s: &str) -> Result<McCase, String> {
        let mut case = McCase {
            seed: 0,
            profile: Profile::OverwriteHeavy,
            faults: Faults::None,
            pipelined: false,
            lose_cache: false,
            crash_event: None,
        };
        let mut seen_seed = false;
        for tok in s.split_whitespace() {
            let Some((k, v)) = tok.split_once('=') else {
                continue;
            };
            match k {
                "seed" => {
                    case.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                    seen_seed = true;
                }
                "profile" => {
                    case.profile =
                        Profile::parse(v).ok_or_else(|| format!("unknown profile {v}"))?
                }
                "faults" => {
                    case.faults = Faults::parse(v).ok_or_else(|| format!("unknown faults {v}"))?
                }
                "mode" => {
                    case.pipelined = match v {
                        "pipelined" => true,
                        "serial" => false,
                        other => return Err(format!("unknown mode {other}")),
                    }
                }
                "cache" => {
                    case.lose_cache = match v {
                        "lost" => true,
                        "kept" => false,
                        other => return Err(format!("unknown cache state {other}")),
                    }
                }
                "crash" => {
                    case.crash_event = match v {
                        "none" => None,
                        n => Some(n.parse().map_err(|_| format!("bad crash id {n}"))?),
                    }
                }
                _ => {}
            }
        }
        if !seen_seed {
            return Err(format!("no seed= in {s:?}"));
        }
        Ok(case)
    }
}

/// A verified run's summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Edges observed (after hook install) before crash or end.
    pub total_events: u64,
    /// Whether the crash controller fired.
    pub crashed: bool,
    /// Rendered edge at the crash, when one fired.
    pub crash_edge: Option<String>,
    /// The accepted prefix cut (op index) of the recovered image.
    pub cut: u64,
    /// `(ordinal, kind)` of every edge, for edge selection.
    pub events: Vec<(u64, &'static str)>,
    /// Ordinals of the `checkpoint` edges written while sealed objects
    /// were still queued, in flight or landed behind a gap (`arg_b` > 0).
    pub checkpoints_ahead: Vec<u64>,
}

/// A failed run: the case, the edge it died at, and why the checker (or
/// the run itself) rejected it. `Display` renders the one-line
/// reproducer.
#[derive(Debug, Clone)]
pub struct McFailure {
    /// The failing state's coordinates.
    pub case: McCase,
    /// Rendered event at the crash edge, when the crash fired.
    pub crash_edge: Option<String>,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for McFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = self.reason.replace('\n', " | ");
        match &self.crash_edge {
            Some(edge) => write!(f, "MC-REPRO {} edge=[{}] :: {}", self.case, edge, reason),
            None => write!(f, "MC-REPRO {} :: {}", self.case, reason),
        }
    }
}

fn fail(case: &McCase, crash_edge: Option<String>, reason: String) -> McFailure {
    McFailure {
        case: case.clone(),
        crash_edge,
        reason,
    }
}

/// Installs (once per process) a panic hook that silences the expected
/// [`CrashSignal`] panics; every other panic still prints normally.
pub fn install_crash_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------
// Op-stream generation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum PlannedOp {
    Write {
        block: u64,
        nblocks: u64,
    },
    Trim {
        block: u64,
        nblocks: u64,
    },
    Read {
        block: u64,
        nblocks: u64,
    },
    Flush,
    Drain,
    Gc,
    /// One budgeted cleaner step: starts (or advances) an incremental
    /// pass and returns with it still in flight, so subsequent ops — and
    /// crash edges — land inside an active GC pass.
    GcStep,
}

fn gen_ops(seed: u64, profile: Profile) -> Vec<PlannedOp> {
    let mut rng =
        SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ profile.salt());
    let blocks = VOL_BYTES / MBLOCK;
    if profile == Profile::TrimRace {
        return gen_trim_race(&mut rng, blocks);
    }
    let hot = rng.gen_range(0..blocks - 32);
    let mut ops = Vec::with_capacity(OPS_PER_RUN);
    let mut last_trim: Option<(u64, u64)> = None;
    let span = |rng: &mut SmallRng, base: u64, window: u64, max_len: u64| {
        let len = rng.gen_range(1..max_len + 1);
        let b = base + rng.gen_range(0..window - len + 1);
        (b, len)
    };
    for _ in 0..OPS_PER_RUN {
        let r = rng.gen_range(0u32..100);
        let op = match profile {
            Profile::OverwriteHeavy => match r {
                0..=69 => {
                    let (block, nblocks) = span(&mut rng, hot, 16, 4);
                    PlannedOp::Write { block, nblocks }
                }
                70..=79 => {
                    let (block, nblocks) = span(&mut rng, 0, blocks, 4);
                    PlannedOp::Write { block, nblocks }
                }
                80..=84 => {
                    let (block, nblocks) = span(&mut rng, hot, 16, 8);
                    PlannedOp::Trim { block, nblocks }
                }
                85..=91 => {
                    let (block, nblocks) = span(&mut rng, hot, 32, 4);
                    PlannedOp::Read { block, nblocks }
                }
                92..=96 => PlannedOp::Flush,
                _ => PlannedOp::Drain,
            },
            Profile::TrimHeavy => match r {
                0..=44 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 4);
                    PlannedOp::Write { block, nblocks }
                }
                45..=74 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 8);
                    PlannedOp::Trim { block, nblocks }
                }
                75..=84 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 4);
                    PlannedOp::Read { block, nblocks }
                }
                85..=92 => PlannedOp::Flush,
                _ => PlannedOp::Drain,
            },
            Profile::FlushMixed => match r {
                // Overwrites in a hot window take the checkpointed
                // utilization under the cleaner's watermark, so passes
                // run between the barriers.
                0..=29 => {
                    let (block, nblocks) = span(&mut rng, hot, 16, 4);
                    PlannedOp::Write { block, nblocks }
                }
                30..=54 => {
                    let (block, nblocks) = span(&mut rng, 0, blocks, 4);
                    PlannedOp::Write { block, nblocks }
                }
                55..=59 => {
                    let (block, nblocks) = span(&mut rng, 0, blocks, 8);
                    PlannedOp::Trim { block, nblocks }
                }
                60..=69 => {
                    let (block, nblocks) = span(&mut rng, 0, blocks, 4);
                    PlannedOp::Read { block, nblocks }
                }
                70..=89 => PlannedOp::Flush,
                _ => PlannedOp::Drain,
            },
            Profile::GcInterleaved => match r {
                0..=69 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 4);
                    PlannedOp::Write { block, nblocks }
                }
                70..=79 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 8);
                    PlannedOp::Trim { block, nblocks }
                }
                80..=87 => {
                    let (block, nblocks) = span(&mut rng, hot, 24, 4);
                    PlannedOp::Read { block, nblocks }
                }
                88..=91 => PlannedOp::Flush,
                92..=95 => PlannedOp::Drain,
                // Budgeted steps leave the pass mid-flight so later ops
                // (and sampled crash edges) interleave with live
                // relocation carriers; full runs drive it home.
                96..=97 => PlannedOp::GcStep,
                _ => PlannedOp::Gc,
            },
            Profile::TrimRace => unreachable!("handled by gen_trim_race"),
        };
        // Half of the reads chase the most recent trim instead of their
        // rolled range: the window between a trim's eager map punch and
        // its carrier object landing is exactly where a resurrected
        // mapping (e.g. a dropped pending-trim re-punch) is visible, and
        // unbiased reads almost never land there.
        let op = match op {
            PlannedOp::Read { .. } if last_trim.is_some() && rng.gen_range(0u32..2) == 0 => {
                let (block, nblocks) = last_trim.unwrap();
                PlannedOp::Read { block, nblocks }
            }
            other => other,
        };
        if let PlannedOp::Trim { block, nblocks } = op {
            last_trim = Some((block, nblocks));
        }
        ops.push(op);
    }
    ops
}

/// The `trim-race` op stream: engineered rounds that pry open the window
/// between a trim's eager map punch and the landing of an *older* sealed
/// batch holding the trimmed block's data.
///
/// Each round, sized against the harness config (16 KiB batches, two
/// pending batches): a 4-block victim write seals a full batch; a 3-block
/// filler part-fills the builder; a victim block is trimmed (its carrier
/// object is not yet sealed); a 1-block write *overlapping* the filler
/// then trips the flush-before-append path once the backlog cap is
/// reached — draining the queue (the victim batch applies over the punch)
/// without growing the builder enough to seal the trim's carrier — and a
/// read of the trimmed block checks for a resurrected mapping. Under a
/// serial-mode outage schedule this interleaving is exact and
/// deterministic; dropping the `pending_trims` re-punch in `finish_put`
/// makes the read return the dead data.
fn gen_trim_race(rng: &mut SmallRng, blocks: u64) -> Vec<PlannedOp> {
    let mut ops = Vec::with_capacity(OPS_PER_RUN);
    let base = rng.gen_range(0..blocks - 64);
    while ops.len() + 6 <= OPS_PER_RUN {
        let victim = base + 8 * rng.gen_range(0..3);
        let filler = base + 32 + 4 * rng.gen_range(0..3);
        let target = victim + rng.gen_range(0..4);
        ops.push(PlannedOp::Write {
            block: victim,
            nblocks: 4,
        });
        ops.push(PlannedOp::Write {
            block: filler,
            nblocks: 3,
        });
        ops.push(PlannedOp::Trim {
            block: target,
            nblocks: 1,
        });
        ops.push(PlannedOp::Write {
            block: filler + rng.gen_range(0..3),
            nblocks: 1,
        });
        ops.push(PlannedOp::Read {
            block: target,
            nblocks: 1,
        });
        ops.push(match rng.gen_range(0u32..4) {
            0 => PlannedOp::Flush,
            1 => PlannedOp::Read {
                block: victim,
                nblocks: 4,
            },
            2 => PlannedOp::Write {
                block: base + 48 + rng.gen_range(0..8),
                nblocks: 2,
            },
            _ => PlannedOp::Drain,
        });
    }
    ops
}

fn mc_cfg(pipelined: bool) -> VolumeConfig {
    VolumeConfig {
        // Tiny batches so a short op stream seals many objects, crossing
        // every PUT/frontier/checkpoint edge repeatedly.
        batch_bytes: 16 << 10,
        checkpoint_interval: 2,
        prefetch_bytes: 16 << 10,
        // A two-batch backlog cap makes serial degraded mode hit the
        // flush-before-append path early, widening the window where a
        // queued batch lands after a newer trim.
        max_pending_batches: 2,
        writeback_threads: if pipelined { 2 } else { 0 },
        max_inflight_puts: 2,
        // Reads verify backend payloads against header CRCs, so chaos GET
        // corruption surfaces as an error instead of silent bad data.
        verify_get_crc: true,
        // Half-a-batch cleaner budget: a GcStep (or a checkpoint-site
        // kick) leaves its pass open between victims, so crash edges —
        // including the in-pass `gc_relocate` carrier seals — land while
        // some victims are relocated and others are not.
        gc_step_budget_bytes: 8 << 10,
        ..VolumeConfig::small_for_tests()
    }
}

// ---------------------------------------------------------------------
// Single-case runner
// ---------------------------------------------------------------------

/// Drives the op stream against `vol`, mirroring it into `oracle`.
/// Returns `Err` only for a *live* contract violation (a successful read
/// that contradicts the model); volume errors are absorbed per the
/// ack/reject rules.
fn drive(vol: &mut Volume, oracle: &mut Oracle, plan: &[PlannedOp]) -> Result<(), String> {
    for (step, op) in plan.iter().enumerate() {
        match *op {
            PlannedOp::Write { block, nblocks } => {
                let (idx, data) = oracle.begin_write(block, nblocks);
                let mut spins = 0u32;
                loop {
                    match vol.write(block * MBLOCK, &data) {
                        Ok(()) => {
                            oracle.ack(idx);
                            break;
                        }
                        Err(LsvdError::Backpressure { .. }) if spins < MAX_SPINS => spins += 1,
                        Err(_) => {
                            // Sustained backpressure or a permanent fault:
                            // the write-path contract says nothing partial
                            // was left behind.
                            oracle.reject(idx);
                            break;
                        }
                    }
                }
            }
            PlannedOp::Trim { block, nblocks } => {
                let idx = oracle.begin_trim(block, nblocks);
                let mut spins = 0u32;
                loop {
                    match vol.discard(block * MBLOCK, nblocks * MBLOCK) {
                        Ok(()) => {
                            oracle.ack(idx);
                            break;
                        }
                        Err(LsvdError::Backpressure { .. }) if spins < MAX_SPINS => spins += 1,
                        Err(_) => {
                            oracle.reject(idx);
                            break;
                        }
                    }
                }
            }
            PlannedOp::Read { block, nblocks } => {
                let mut buf = vec![0u8; (nblocks * MBLOCK) as usize];
                // Chaos may fail the read; one that succeeds must match
                // the model exactly (acked state is immediately visible).
                if vol.read(block * MBLOCK, &mut buf).is_ok() {
                    if let Err(bad) = oracle.verify_read(block, &buf) {
                        return Err(format!(
                            "step {step}: live read of block {bad} contradicts the model"
                        ));
                    }
                }
            }
            PlannedOp::Flush => {
                let _ = vol.flush();
            }
            PlannedOp::Drain => {
                if vol.drain().is_ok() {
                    oracle.mark_committed();
                }
            }
            PlannedOp::Gc => {
                let _ = vol.run_gc();
            }
            PlannedOp::GcStep => {
                let _ = vol.gc_step();
            }
        }
    }
    Ok(())
}

/// Runs one fully-specified case end to end: build the stack, drive the
/// op stream, crash at the chosen edge (if any), recover twice, check
/// the oracle verdict and recovery idempotence.
pub fn run_case(case: &McCase) -> Result<RunReport, McFailure> {
    install_crash_silencer();
    let plan = gen_ops(case.seed, case.profile);

    let cut_store = CutStore::new(MemStore::new());
    let cut: CutHandle = cut_store.handle();
    let chaos = ChaosStore::with_schedule(cut_store, case.faults.schedule(case.seed));
    let store = Arc::new(RetryStore::with_policy(
        chaos,
        RetryPolicy::seeded(case.seed),
    ));
    let cache = Arc::new(RamDisk::new(CACHE_BYTES));
    let cfg = mc_cfg(case.pipelined);

    let mut vol = Volume::create(
        store.clone() as Arc<dyn ObjectStore>,
        cache.clone(),
        IMG,
        VOL_BYTES,
        cfg.clone(),
    )
    .map_err(|e| fail(case, None, format!("create: {e}")))?;

    // The crash controller: lists the edges, and at the chosen one
    // severs the backend and kills the volume by panicking mid-operation.
    let edge: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    // `(ordinal, kind, arg_b)` of every edge.
    let events = Arc::new(Mutex::new(Vec::<(u64, &'static str, u64)>::new()));
    {
        let cut = cut.clone();
        let edge = edge.clone();
        let events = events.clone();
        let crash_at = case.crash_event;
        vol.set_edge_hook(Box::new(move |ordinal, span| {
            let kind = span.stage.name();
            events.lock().push((ordinal, kind, span.arg_b));
            if Some(ordinal) == crash_at {
                *edge.lock() = Some(format!("{kind} a={} b={}", span.arg_a, span.arg_b));
                cut.sever();
                panic::panic_any(CrashSignal);
            }
        }));
    }

    let mut oracle = Oracle::new();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let r = drive(&mut vol, &mut oracle, &plan);
        // Crash without shutdown: drop discards queued work, in-flight
        // worker PUTs land whole or not at all.
        drop(vol);
        r
    }));
    let crashed = match outcome {
        Ok(Ok(())) => false,
        Ok(Err(live)) => return Err(fail(case, edge.lock().clone(), live)),
        Err(payload) => {
            if payload.downcast_ref::<CrashSignal>().is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".to_string());
                return Err(fail(
                    case,
                    edge.lock().clone(),
                    format!("unexpected panic (a real bug, not the crash controller): {msg}"),
                ));
            }
            true
        }
    };
    let crash_edge = edge.lock().clone();

    // Recovery: reconnect the frozen backend, heal the fault injector,
    // optionally lose the cache device.
    cut.revive();
    store.inner().heal();
    let cache = if case.lose_cache {
        Arc::new(RamDisk::new(CACHE_BYTES))
    } else {
        cache
    };
    let mut vol = Volume::open(
        store.clone() as Arc<dyn ObjectStore>,
        cache.clone(),
        IMG,
        cfg.clone(),
    )
    .map_err(|e| fail(case, crash_edge.clone(), format!("recovery failed: {e}")))?;
    let mut img1 = vec![0u8; VOL_BYTES as usize];
    vol.read(0, &mut img1)
        .map_err(|e| fail(case, crash_edge.clone(), format!("post-recovery read: {e}")))?;

    // Idempotence: crash the recovered volume (drop, no shutdown) and
    // recover again — the image must be byte-identical.
    drop(vol);
    let mut vol =
        Volume::open(store.clone() as Arc<dyn ObjectStore>, cache, IMG, cfg).map_err(|e| {
            fail(
                case,
                crash_edge.clone(),
                format!("second recovery failed: {e}"),
            )
        })?;
    let mut img2 = vec![0u8; VOL_BYTES as usize];
    vol.read(0, &mut img2).map_err(|e| {
        fail(
            case,
            crash_edge.clone(),
            format!("second recovery read: {e}"),
        )
    })?;
    drop(vol);
    if img1 != img2 {
        let block = img1
            .chunks_exact(MBLOCK as usize)
            .zip(img2.chunks_exact(MBLOCK as usize))
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(fail(
            case,
            crash_edge,
            format!("recovery is not idempotent: second pass changed block {block}"),
        ));
    }

    // The oracle verdict: prefix-consistent, acked floor respected.
    let floor = if case.lose_cache {
        oracle.committed_floor()
    } else {
        oracle.acked_floor()
    };
    let cut_idx = oracle
        .check(&img1, floor)
        .map_err(|reason| fail(case, crash_edge.clone(), reason))?;

    let events = Arc::try_unwrap(events)
        .map(|m| m.into_inner())
        .unwrap_or_default();
    Ok(RunReport {
        total_events: events.len() as u64,
        crashed,
        crash_edge,
        cut: cut_idx,
        checkpoints_ahead: events
            .iter()
            .filter(|&&(_, kind, behind)| kind == "checkpoint" && behind > 0)
            .map(|&(ordinal, _, _)| ordinal)
            .collect(),
        events: events
            .into_iter()
            .map(|(ordinal, kind, _)| (ordinal, kind))
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

/// Exploration bounds; build with [`ExploreConfig::quick`],
/// [`ExploreConfig::deep`] or [`ExploreConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Base seeds; each seed spans every profile × faults × mode.
    pub seeds: Vec<u64>,
    /// Crash edges sampled per schedule (first occurrence of each event
    /// kind is always included, then uniform fill).
    pub edges_per_schedule: usize,
    /// Worker threads running cases (1 = fully sequential).
    pub threads: usize,
}

impl ExploreConfig {
    /// CI-sized sweep: ≥ 500 states in well under a minute.
    pub fn quick() -> Self {
        ExploreConfig {
            seeds: vec![1],
            edges_per_schedule: 12,
            threads: 1,
        }
    }

    /// Thorough local sweep (`LSVD_MC_DEEP=1`): thousands of states,
    /// multi-threaded.
    pub fn deep() -> Self {
        ExploreConfig {
            seeds: vec![1, 2, 3, 4],
            edges_per_schedule: 28,
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        }
    }

    /// [`ExploreConfig::deep`] when `LSVD_MC_DEEP=1`, else
    /// [`ExploreConfig::quick`]; `LSVD_SWEEP_SEED` pins the seed list to
    /// one seed and `LSVD_SWEEP_RUNS` overrides how many seeds to sweep.
    pub fn from_env() -> Self {
        let mut cfg = if std::env::var("LSVD_MC_DEEP").is_ok_and(|v| v == "1") {
            Self::deep()
        } else {
            Self::quick()
        };
        if let Ok(runs) = std::env::var("LSVD_SWEEP_RUNS") {
            if let Ok(n) = runs.parse::<u64>() {
                cfg.seeds = (1..=n.max(1)).collect();
            }
        }
        if let Ok(seed) = std::env::var("LSVD_SWEEP_SEED") {
            if let Ok(s) = seed.parse::<u64>() {
                cfg.seeds = vec![s];
            }
        }
        cfg
    }
}

/// The explorer's tally.
#[derive(Debug)]
pub struct ExploreReport {
    /// Distinct (schedule × crash-edge × cache-loss × fault-profile)
    /// states run and checked.
    pub states: u64,
    /// Crash states on a `checkpoint` edge written while sealed objects
    /// were still queued, in flight or landed behind a gap (the edge's
    /// `arg_b` > 0): the checkpoint covers the applied prefix only.
    pub checkpoints_ahead_of_puts: u64,
    /// Every failing state's reproducer.
    pub failures: Vec<McFailure>,
}

/// Picks crash edges from a profiled event list: the first occurrence of
/// every event kind (the qualitatively distinct edges), with the first
/// checkpoint written with PUTs behind it (the first of `ahead`) as a kind
/// of its own, then a uniform sample until `want` edges are chosen. A
/// first occurrence is never dropped, even past `want`.
fn pick_edges(events: &[(u64, &'static str)], ahead: &[u64], want: usize) -> Vec<u64> {
    let mut picked = BTreeSet::new();
    let mut kinds = BTreeSet::new();
    for &(id, kind) in events {
        if kinds.insert(kind) {
            picked.insert(id);
        }
    }
    picked.extend(ahead.first());
    if !events.is_empty() {
        let step = (events.len() / want.max(1)).max(1);
        for chunk in events.chunks(step) {
            if picked.len() >= want {
                break;
            }
            picked.insert(chunk[0].0);
        }
    }
    picked.into_iter().collect()
}

/// Sweeps the state space: for every schedule (seed × profile × faults ×
/// writeback mode), one full profiling run enumerates the edges,
/// then sampled edges are re-run with a crash injected, crossed with
/// cache loss on/off. Every state is oracle-checked; failures carry
/// one-line reproducers.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    // Schedule coordinates, spread across workers case-by-case.
    let mut schedules = Vec::new();
    for &seed in &cfg.seeds {
        for profile in Profile::ALL {
            for faults in Faults::ALL {
                for pipelined in [false, true] {
                    schedules.push((seed, profile, faults, pipelined));
                }
            }
        }
    }

    let failures: Mutex<Vec<McFailure>> = Mutex::new(Vec::new());
    let states = std::sync::atomic::AtomicU64::new(0);
    let ahead = std::sync::atomic::AtomicU64::new(0);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let run_schedule = |(seed, profile, faults, pipelined): (u64, Profile, Faults, bool)| {
        let base = McCase {
            seed,
            profile,
            faults,
            pipelined,
            lose_cache: false,
            crash_event: None,
        };
        // Profiling run: no crash, cache kept; also a checked state.
        states.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let report = match run_case(&base) {
            Ok(report) => report,
            Err(f) => {
                failures.lock().push(f);
                return;
            }
        };
        let picked = pick_edges(
            &report.events,
            &report.checkpoints_ahead,
            cfg.edges_per_schedule,
        );
        for edge in picked {
            for lose_cache in [false, true] {
                let case = McCase {
                    lose_cache,
                    crash_event: Some(edge),
                    ..base.clone()
                };
                states.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                match run_case(&case) {
                    Ok(r) => {
                        let edge = r.crash_edge.as_deref().unwrap_or("");
                        if edge.starts_with("checkpoint ") && !edge.ends_with(" b=0") {
                            ahead.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                    Err(f) => failures.lock().push(f),
                }
            }
        }
    };

    if cfg.threads <= 1 {
        for s in &schedules {
            run_schedule(*s);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..cfg.threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= schedules.len() {
                        break;
                    }
                    run_schedule(schedules[i]);
                });
            }
        });
    }

    ExploreReport {
        states: states.into_inner(),
        checkpoints_ahead_of_puts: ahead.into_inner(),
        failures: failures.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_line_round_trips() {
        let case = McCase {
            seed: 42,
            profile: Profile::TrimHeavy,
            faults: Faults::Outage,
            pipelined: true,
            lose_cache: true,
            crash_event: Some(137),
        };
        assert_eq!(McCase::parse(&case.to_string()), Ok(case));
        let no_crash = McCase {
            crash_event: None,
            ..McCase::parse("seed=7").unwrap()
        };
        assert_eq!(McCase::parse(&no_crash.to_string()), Ok(no_crash));
    }

    #[test]
    fn reproducer_line_parses_back() {
        let f = McFailure {
            case: McCase::parse(
                "seed=3 profile=gc-interleaved faults=mild mode=serial cache=lost crash=9",
            )
            .unwrap(),
            crash_edge: Some("put-done seq=2".to_string()),
            reason: "example".to_string(),
        };
        let line = f.to_string();
        assert!(line.starts_with("MC-REPRO "), "{line}");
        assert_eq!(McCase::parse(&line["MC-REPRO ".len()..]).unwrap(), f.case);
    }

    #[test]
    fn op_streams_are_deterministic_per_seed() {
        let a = format!("{:?}", gen_ops(11, Profile::TrimHeavy));
        let b = format!("{:?}", gen_ops(11, Profile::TrimHeavy));
        assert_eq!(a, b);
        let c = format!("{:?}", gen_ops(12, Profile::TrimHeavy));
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn clean_run_passes_and_reports_edges() {
        let case = McCase::parse("seed=5 profile=overwrite-heavy faults=none").unwrap();
        let report = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        assert!(!report.crashed);
        assert!(report.total_events > 0, "a run must cross edges");
        assert!(report.cut > 0);
    }

    #[test]
    fn gc_interleaved_schedule_crosses_in_pass_edges() {
        // The gc-interleaved profile must actually put crash candidates
        // *inside* an in-flight cleaning pass: `gc_relocate` fires at
        // carrier seal, before the pass completes, so its presence in
        // the profiled edge list means sampled crashes land mid-pass.
        let case = McCase::parse("seed=1 profile=gc-interleaved faults=none").unwrap();
        let report = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        let relocates = report
            .events
            .iter()
            .filter(|(_, k)| *k == "gc_relocate")
            .count();
        assert!(
            relocates > 0,
            "no gc_relocate edges in a gc-interleaved schedule"
        );
        assert!(
            report.events.iter().any(|(_, k)| *k == "gc_pass"),
            "no pass ever completed"
        );
    }

    #[test]
    fn serial_crash_case_replays_identically() {
        let base = McCase::parse("seed=9 profile=trim-heavy faults=outage").unwrap();
        let profile = run_case(&base).unwrap_or_else(|f| panic!("{f}"));
        let edge = profile.events[profile.events.len() / 2].0;
        let case = McCase {
            crash_event: Some(edge),
            lose_cache: true,
            ..base
        };
        let a = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        let b = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
        assert!(a.crashed && b.crashed);
        assert_eq!(a.crash_edge, b.crash_edge, "same edge, same event");
        assert_eq!(a.cut, b.cut, "same recovered prefix");
    }

    #[test]
    fn edge_picker_covers_kinds_first() {
        let events: Vec<(u64, &'static str)> = vec![
            (0, "seal"),
            (1, "put-start"),
            (2, "put-done"),
            (3, "seal"),
            (4, "frontier-advance"),
            (5, "checkpoint"),
        ];
        // Five kinds, four wanted: no first occurrence is dropped.
        assert_eq!(pick_edges(&events, &[], 4), vec![0, 1, 2, 4, 5]);
        // Five kinds with a checkpoint written ahead of PUTs as a sixth:
        // every first occurrence stays, past `want`.
        let events: Vec<(u64, &'static str)> = vec![
            (0, "seal"),
            (1, "put-start"),
            (2, "checkpoint"),
            (3, "put-done"),
            (4, "frontier-advance"),
            (5, "checkpoint"),
            (6, "trim"),
            (7, "seal"),
        ];
        assert_eq!(pick_edges(&events, &[5], 4), vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
