//! Maintenance: checkpoints, deferred deletes, the cleaner and
//! compaction runs (§3.5).
//!
//! A checkpoint is written once `checkpoint_interval` data objects have
//! applied with the writeback backlog idle, and each successful one kicks
//! a cleaner step; every later write drives an active pass one budgeted
//! step. Relocation carriers ride the writeback backlog like data batches,
//! and a retired victim's delete waits for a checkpoint that covers it.

use std::collections::{BTreeMap, VecDeque};

use objstore::ObjError;
use telemetry::Stage;

use super::backlog::{FlushOutcome, PutPayload};
use super::Volume;
use crate::checkpoint::CheckpointData;
use crate::config::{
    GC_COMPACT_MAX_EXTENT_BYTES, GC_HIGH_WATERMARK, GC_LOW_WATERMARK, GC_RETRY_ATTEMPTS,
};
use crate::extent_map::Segment;
use crate::gc::{self, GcPolicy};
use crate::objfmt;
use crate::objmap::{ObjLoc, ObjectMap};
use crate::recovery::{self, fetch_header};
use crate::types::{checkpoint_name, Lba, LsvdError, ObjSeq, Result, SECTOR};

/// A sealed GC relocation object queued behind the writeback window.
pub(super) struct GcCarrier {
    /// Serialized relocation object (header + live piece data).
    pub(super) object: bytes::Bytes,
    hdr_sectors: u32,
    /// Relocated pieces: `(vLBA, sectors, expected source location)`.
    /// Applied with conditional-redirect semantics — a piece overwritten
    /// or trimmed after sealing is simply not redirected.
    pieces: Vec<(Lba, u32, ObjLoc)>,
    /// Distinct whole-object victims with pieces in this carrier
    /// (compaction sources are not listed — they are never retired).
    victim_sources: Vec<ObjSeq>,
}

/// State of an in-progress incremental cleaning pass (§3.5). The pass
/// survives across [`Volume::gc_step`] invocations: victims drain
/// through a resumable cursor, relocation carriers ride the writeback
/// window alongside foreground batches, and a victim is retired only
/// after every carrier holding its pieces has been applied to the
/// object map. A crash simply loses the pass — sources are still mapped
/// or already safely deferred, so the next pass re-collects.
pub(super) struct GcPass {
    /// Whole-object victims not yet opened, in policy order.
    pub(super) victims: VecDeque<ObjSeq>,
    /// Cold fragmented runs to compact, each a ready piece list.
    pub(super) compact_runs: VecDeque<Vec<(Lba, u32, ObjLoc)>>,
    /// The victim (or compaction run) currently being read.
    pub(super) cursor: Option<GcCursor>,
    /// Per-victim retirement bookkeeping, keyed by source sequence.
    sources: BTreeMap<ObjSeq, SourceProgress>,
    /// Pieces read but not yet sealed into a carrier.
    staged: Vec<(Lba, u32, ObjLoc, Vec<u8>)>,
    staged_bytes: u64,
    /// Victims whose every piece has been read, but whose last pieces
    /// sit in `staged` awaiting the next carrier seal.
    waiting_seal: Vec<ObjSeq>,
    /// Sources retired so far in this pass.
    collected: u64,
}

/// A victim being read piece by piece. `seq == 0` marks a compaction
/// cursor (object sequences start at 1): its pieces come from many
/// sources and none of them is retired.
pub(super) struct GcCursor {
    seq: ObjSeq,
    pieces: Vec<(Lba, u32, ObjLoc)>,
    next: usize,
}

#[derive(Default)]
struct SourceProgress {
    /// Carriers holding this victim's pieces, sealed but not yet applied.
    pending_carriers: u32,
    /// Every live piece of this victim has been sealed into a carrier.
    issued_all: bool,
    /// Highest carrier sequence holding this victim's pieces.
    last_carrier: ObjSeq,
}

impl Volume {
    fn hdr_sectors_of(&mut self, seq: ObjSeq) -> Result<u64> {
        if let Some(st) = self.plane.read_state().objmap.object_stat(seq) {
            return Ok((st.total_sectors - st.data_sectors) as u64);
        }
        // Should not happen for mapped data; fall back to the header.
        let name = self.resolve_name(seq);
        let h = fetch_header(self.store.as_ref(), &name)?
            .ok_or_else(|| LsvdError::Corrupt(format!("{name}: mapped object missing")))?;
        Ok(h.data_offset as u64 / SECTOR)
    }

    /// Writes a checkpoint once `checkpoint_interval` data objects have
    /// applied since the last one, then kicks the cleaner.
    ///
    /// Checkpoints run only with a fully idle writeback path (nothing
    /// queued, in flight, or landed-but-unapplied): a checkpoint must
    /// not reference sequences that are not yet part of the durable
    /// prefix. `pending_trims` must be empty too: trims punch the
    /// object map eagerly at discard time, so a checkpoint taken while
    /// a trim's carrier object is still unsealed would make the trim
    /// durable ahead of older writes sitting in the batch builder —
    /// after cache loss, recovery would show the trim applied but the
    /// earlier acknowledged write missing (not a prefix).
    ///
    /// The cleaner is *not* idle-gated: a successful checkpoint merely
    /// kicks one budgeted step. The pass it starts keeps running
    /// through later write-path steps, with its relocation carriers
    /// interleaved into the same PUT window as foreground batches.
    pub(super) fn checkpoint_if_due(&mut self) -> Result<()> {
        if self.objects_since_ckpt < self.cfg.checkpoint_interval
            || !self.backlog.is_empty()
            || !self.pending_trims.is_empty()
        {
            return Ok(());
        }
        match self.write_checkpoint() {
            Ok(()) if self.cfg.gc_enabled => self.step_cleaner(),
            Ok(()) => Ok(()),
            Err(LsvdError::Backend(e)) if e.is_transient() => {
                // Skipped; `objects_since_ckpt` stays high, so the next
                // finished PUT tries again. Recovery rolls forward from
                // the previous checkpoint either way.
                self.stats.checkpoint_failures += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// One budgeted cleaner step ([`Volume::gc_step`]). A transient
    /// backend failure pauses the pass cleanly, counted in `gc_aborts`;
    /// a later step resumes it.
    pub(super) fn step_cleaner(&mut self) -> Result<()> {
        match self.gc_step() {
            Ok(_) => Ok(()),
            Err(LsvdError::Backend(e)) if e.is_transient() => {
                self.stats.gc_aborts += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Applies a relocation carrier that just became part of the durable
    /// prefix: conditional redirects into the map, then retirement
    /// bookkeeping for the victims whose pieces it held. Carriers carry
    /// no cache records, so the cache frontier, the write log and the
    /// pending-trim ledger are untouched — and they do not count toward
    /// the checkpoint cadence.
    pub(super) fn finish_put_gc(&mut self, seq: ObjSeq, carrier: GcCarrier) -> Result<()> {
        self.stats.gc_puts += 1;
        self.stats.gc_put_bytes += carrier.object.len() as u64;
        self.stats.gc_relocated_bytes +=
            (carrier.object.len() as u64).saturating_sub(carrier.hdr_sectors as u64 * SECTOR);
        self.plane
            .write_state()
            .objmap
            .apply_gc_object(seq, carrier.hdr_sectors, &carrier.pieces);
        let mut retired = Vec::new();
        if let Some(pass) = self.gc.as_mut() {
            for &src in &carrier.victim_sources {
                if let Some(p) = pass.sources.get_mut(&src) {
                    p.pending_carriers -= 1;
                    p.last_carrier = p.last_carrier.max(seq);
                    if p.issued_all && p.pending_carriers == 0 {
                        retired.push(src);
                    }
                }
            }
        }
        for src in retired {
            self.gc_retire_source(src);
        }
        self.gc_maybe_finish_pass();
        Ok(())
    }

    pub(super) fn write_checkpoint(&mut self) -> Result<()> {
        // Retry deletes that previously failed and are no longer blocked,
        // so the checkpoint captures the smallest deferred set.
        self.sweep_deferred_deletes();
        let ck = {
            let st = self.plane.read_state();
            CheckpointData::capture(
                &st.objmap,
                self.last_seq,
                self.frontier,
                &self.snapshots,
                &self.deferred_deletes,
            )
        };
        self.store.put(
            &checkpoint_name(&self.sb.image, self.last_seq),
            ck.build(self.sb.uuid),
        )?;
        self.last_ckpt_seq = self.last_seq;
        self.objects_since_ckpt = 0;
        self.stats.checkpoints += 1;
        self.edge(None, Stage::Checkpoint, self.last_seq.into(), 0);
        // The checkpoint that just landed covers every earlier GC pass, so
        // their deferred source deletes are now safe to execute. (It still
        // lists them as deferred — captured before the PUT — which only
        // means a recovered volume re-issues idempotent deletes.)
        self.sweep_deferred_deletes();
        // Pruning old checkpoints is cleanup; a flaky backend must not
        // fail the checkpoint that already landed.
        match recovery::prune_checkpoints(self.store.as_ref(), &self.sb.image, &self.snapshots, 3) {
            Ok(()) => {}
            Err(LsvdError::Backend(e)) if e.is_transient() => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Executes deferred deletes no longer blocked by snapshots or by
    /// checkpoint coverage (a collected source is only deletable once a
    /// checkpoint newer than its GC pass is durable). Deletes that fail
    /// are re-deferred — never dropped — so a flaky backend delays space
    /// reclamation without leaking objects. Deleting a missing object
    /// succeeds (S3 semantics), so re-running deletes recorded by an
    /// earlier checkpoint is harmless after recovery.
    pub(super) fn sweep_deferred_deletes(&mut self) {
        for (n0, ngc) in gc::drain_deletable(
            &mut self.deferred_deletes,
            &self.snapshots,
            self.last_ckpt_seq,
        ) {
            let name = self.resolve_name(n0);
            match retry_transient(|| self.store.delete(&name)) {
                Ok(()) => self.stats.gc_deletes += 1,
                Err(_) => self.deferred_deletes.push((n0, ngc)),
            }
        }
    }

    /// Whether an incremental cleaning pass is currently in progress.
    pub fn gc_active(&self) -> bool {
        self.gc.is_some()
    }

    /// Runs garbage collection to completion (§3.5): starts a pass if
    /// utilization warrants one (or resumes a paused pass) and drives it
    /// until every relocation carrier has been applied and every victim
    /// retired. Returns the number of sources the pass collected.
    ///
    /// Unlike the historical one-shot collector this does *not* require
    /// an idle writeback path: carriers claim sequence numbers like any
    /// other batch and share the bounded PUT window with foreground
    /// traffic, so outstanding data PUTs simply apply ahead of them in
    /// frontier order.
    pub fn run_gc(&mut self) -> Result<usize> {
        if self.read_only || self.gc_stepping {
            return Ok(0);
        }
        if self.gc.is_none() && !self.gc_start_pass() {
            return Ok(0);
        }
        self.gc_stepping = true;
        let r = self.gc_drive();
        self.gc_stepping = false;
        r
    }

    fn gc_drive(&mut self) -> Result<usize> {
        let mut fruitless = 0u32;
        let mut last_stall: Option<ObjError> = None;
        while self.gc.is_some() {
            let before = (self.last_seq, self.gc_progress());
            self.gc_step_inner(true)?;
            if self.gc.is_some() {
                // Carriers (or foreground batches ahead of them) still
                // queued or in flight: ship and harvest so victims can
                // retire.
                if let FlushOutcome::Stalled(e) = self.ship(true)? {
                    last_stall = Some(e);
                }
            }
            if (self.last_seq, self.gc_progress()) == before {
                fruitless += 1;
                if fruitless > self.cfg.max_inflight_puts as u32 + 1 {
                    // The pass cannot advance (backend down, most
                    // likely). Leave it paused — a later step resumes it
                    // — and surface the stall like the historical
                    // collector did.
                    return match last_stall {
                        Some(e) => Err(LsvdError::Backend(e)),
                        None => Ok(self.gc_last_collected as usize),
                    };
                }
            } else {
                fruitless = 0;
            }
        }
        Ok(self.gc_last_collected as usize)
    }

    /// One incremental cleaning step: starts a pass if eligible
    /// utilization is below the low watermark (or a compaction scan finds
    /// work), then relocates up to
    /// [`gc_step_budget_bytes`](crate::config::VolumeConfig::gc_step_budget_bytes) of
    /// live data — everything remaining when the budget is 0 — leaving a
    /// resumable cursor. Sealed carriers ride the writeback window;
    /// foreground writes keep flowing while they are in flight. Returns
    /// the number of sources retired if the pass completed during this
    /// step, else 0.
    pub fn gc_step(&mut self) -> Result<usize> {
        if self.read_only || self.gc_stepping {
            return Ok(0);
        }
        if self.gc.is_none() && !self.gc_start_pass() {
            return Ok(0);
        }
        let passes_before = self.stats.gc_passes;
        self.gc_stepping = true;
        let r = self.gc_step_inner(false);
        self.gc_stepping = false;
        r?;
        Ok(if self.stats.gc_passes > passes_before {
            self.gc_last_collected as usize
        } else {
            0
        })
    }

    /// A coarse progress marker for the active pass, used by the
    /// completion-drive loop's livelock guard.
    fn gc_progress(&self) -> (u64, u64, usize, usize) {
        match &self.gc {
            None => (0, 0, 0, 0),
            Some(p) => (
                p.collected,
                p.staged_bytes,
                p.victims.len() + p.compact_runs.len() + p.sources.len(),
                p.cursor.as_ref().map(|c| c.next + 1).unwrap_or(0),
            ),
        }
    }

    /// Evaluates the GC trigger and, when warranted, plans a new pass:
    /// cost-benefit (or greedy) victim selection over the checkpointed
    /// prefix, plus cold-extent compaction runs when enabled. Returns
    /// whether a pass was started.
    fn gc_start_pass(&mut self) -> bool {
        let first = self.sb.own_first_seq();
        let upto = self.last_ckpt_seq;
        let now = self.last_seq;
        let (victims, compact_runs) = {
            let st = self.plane.read_state();
            let totals = gc::eligible_totals(&st.objmap, first, upto);
            let victims: Vec<ObjSeq> = if gc::should_collect(totals, GC_LOW_WATERMARK) {
                gc::select_candidates(
                    &st.objmap,
                    first,
                    upto,
                    GC_HIGH_WATERMARK,
                    GcPolicy::CostBenefit,
                    now,
                    totals,
                )
                .into_iter()
                .map(|(seq, _)| seq)
                .collect()
            } else {
                Vec::new()
            };
            let compact_runs = if self.cfg.gc_compact_min_run > 0 {
                find_compact_runs(
                    &st.objmap,
                    first,
                    upto,
                    self.cfg.gc_compact_min_run,
                    GC_COMPACT_MAX_EXTENT_BYTES / SECTOR,
                    self.cfg.batch_bytes / SECTOR,
                    &victims,
                )
            } else {
                Vec::new()
            };
            (victims, compact_runs)
        };
        if victims.is_empty() && compact_runs.is_empty() {
            return false;
        }
        self.gc = Some(GcPass {
            victims: victims.into(),
            compact_runs: compact_runs.into(),
            cursor: None,
            sources: BTreeMap::new(),
            staged: Vec::new(),
            staged_bytes: 0,
            waiting_seal: Vec::new(),
            collected: 0,
        });
        true
    }

    /// The step engine: read pieces, stage them, seal carriers at batch
    /// granularity, and ship without waiting for completions. Stops at
    /// the byte budget (when `unbudgeted` is false and the configured
    /// budget is nonzero) or when the writeback window has no room.
    fn gc_step_inner(&mut self, unbudgeted: bool) -> Result<()> {
        let budget = if unbudgeted {
            0
        } else {
            self.cfg.gc_step_budget_bytes
        };
        let mut moved = 0u64;
        loop {
            if self.gc.is_none() {
                return Ok(());
            }
            if budget > 0 && moved >= budget {
                break;
            }
            // A carrier needs a backlog slot, same as a foreground seal.
            if self.backlog.len() >= self.cfg.max_pending_batches {
                self.pump(false)?;
                if self.backlog.len() >= self.cfg.max_pending_batches {
                    break;
                }
            }
            match self.gc_next_piece()? {
                Some((lba, len, loc)) => {
                    let data = match self.gc_read_piece(lba, len as u64, loc) {
                        Ok(data) => data,
                        Err(e) => {
                            // The piece was not read: step the cursor back
                            // so the next step retries it, or the victim
                            // would retire with this piece still mapped.
                            if let Some(c) = self.gc.as_mut().and_then(|p| p.cursor.as_mut()) {
                                c.next -= 1;
                            }
                            return Err(e);
                        }
                    };
                    moved += data.len() as u64;
                    let pass = self.gc.as_mut().expect("active pass");
                    pass.staged_bytes += data.len() as u64;
                    pass.staged.push((lba, len, loc, data));
                    if pass.staged_bytes >= self.cfg.batch_bytes {
                        self.gc_seal_carrier();
                    }
                }
                None => {
                    // Every victim and run fully read: seal the final
                    // partial carrier.
                    self.gc_seal_carrier();
                    break;
                }
            }
        }
        // Ship what this step sealed without waiting for completion. A
        // transient failure leaves the carrier queued (degraded mode)
        // exactly like a foreground batch.
        self.ship(false)?;
        self.gc_maybe_finish_pass();
        Ok(())
    }

    /// Advances the pass cursor and returns the next live piece to
    /// relocate, opening victim cursors (header fetch + live-piece
    /// probe) and compaction runs as the previous ones drain. Returns
    /// `None` once every victim and run has been fully read.
    fn gc_next_piece(&mut self) -> Result<Option<(Lba, u32, ObjLoc)>> {
        loop {
            let cursor_state = self.gc.as_mut().and_then(|p| {
                let c = p.cursor.as_mut()?;
                if c.next < c.pieces.len() {
                    let piece = c.pieces[c.next];
                    c.next += 1;
                    Some(Ok(piece))
                } else {
                    Some(Err(c.seq))
                }
            });
            match cursor_state {
                Some(Ok(piece)) => return Ok(Some(piece)),
                Some(Err(done_seq)) => {
                    self.gc_close_cursor(done_seq);
                    continue;
                }
                None => {}
            }
            let next_victim = self.gc.as_mut().and_then(|p| p.victims.pop_front());
            if let Some(seq) = next_victim {
                self.gc_open_victim(seq)?;
                continue;
            }
            let next_run = self.gc.as_mut().and_then(|p| p.compact_runs.pop_front());
            if let Some(pieces) = next_run {
                if let Some(pass) = self.gc.as_mut() {
                    pass.cursor = Some(GcCursor {
                        seq: 0,
                        pieces,
                        next: 0,
                    });
                }
                continue;
            }
            return Ok(None);
        }
    }

    /// Opens a victim: fetches its header, probes the map for its live
    /// pieces, and registers it for retirement tracking.
    fn gc_open_victim(&mut self, seq: ObjSeq) -> Result<()> {
        let name = self.resolve_name(seq);
        let Some(hdr) = retry_transient_lsvd(|| fetch_header(self.store.as_ref(), &name))? else {
            // Already gone (e.g. deferred delete executed elsewhere).
            self.plane.write_state().objmap.remove_object(seq);
            return Ok(());
        };
        let pieces = self
            .plane
            .read_state()
            .objmap
            .live_pieces_of(seq, &hdr.extents);
        if let Some(pass) = self.gc.as_mut() {
            pass.sources.insert(seq, SourceProgress::default());
            pass.cursor = Some(GcCursor {
                seq,
                pieces,
                next: 0,
            });
        }
        Ok(())
    }

    /// Closes a drained cursor. A victim whose every piece has been read
    /// becomes retirable once its staged pieces (if any) seal into a
    /// carrier and all of its carriers apply; a victim with nothing live
    /// retires on the spot.
    fn gc_close_cursor(&mut self, seq: ObjSeq) {
        let mut retire = None;
        if let Some(pass) = self.gc.as_mut() {
            pass.cursor = None;
            if seq == 0 {
                return; // compaction run: its sources are not retired
            }
            if pass.staged.iter().any(|&(_, _, loc, _)| loc.seq == seq) {
                pass.waiting_seal.push(seq);
            } else if let Some(p) = pass.sources.get_mut(&seq) {
                p.issued_all = true;
                if p.pending_carriers == 0 {
                    retire = Some(seq);
                }
            }
        }
        if let Some(src) = retire {
            self.gc_retire_source(src);
        }
    }

    /// Seals the staged pieces into a relocation carrier and queues it
    /// behind the writeback window. The carrier claims the next object
    /// sequence like any foreground batch — the durable frontier applies
    /// it (and everything after it) strictly in order, so the prefix
    /// rule holds at every interleaving.
    fn gc_seal_carrier(&mut self) {
        let (staged, waiting) = match self.gc.as_mut() {
            None => return,
            Some(pass) => {
                if pass.staged.is_empty() {
                    debug_assert!(pass.waiting_seal.is_empty());
                    return;
                }
                pass.staged_bytes = 0;
                (
                    std::mem::take(&mut pass.staged),
                    std::mem::take(&mut pass.waiting_seal),
                )
            }
        };
        let seq = self.next_obj_seq;
        self.next_obj_seq = seq + 1;
        let mut extents = Vec::with_capacity(staged.len());
        let mut srcs = Vec::with_capacity(staged.len());
        let mut data = Vec::new();
        for (lba, len, loc, d) in &staged {
            extents.push((*lba, *len));
            srcs.push((loc.seq, loc.off));
            data.extend_from_slice(d);
        }
        let obj = objfmt::build_data_object(
            self.sb.uuid,
            seq,
            self.frontier,
            Some(&srcs),
            &extents,
            &data,
        );
        let hdr_sectors = ((obj.len() - data.len()) as u64 / SECTOR) as u32;
        let bytes = obj.len() as u64;
        let pieces: Vec<(Lba, u32, ObjLoc)> = staged
            .iter()
            .map(|&(lba, len, loc, _)| (lba, len, loc))
            .collect();
        // Victims with pieces in this carrier gain a pending carrier;
        // fully-read victims waiting on this seal become issued_all (they
        // retire once their carriers apply). Compaction sources are not
        // in `sources` and are skipped.
        let mut victim_sources: Vec<ObjSeq> = Vec::new();
        if let Some(pass) = self.gc.as_mut() {
            for &(_, _, loc, _) in &staged {
                if let Some(p) = pass.sources.get_mut(&loc.seq) {
                    if !victim_sources.contains(&loc.seq) {
                        victim_sources.push(loc.seq);
                        p.pending_carriers += 1;
                    }
                    p.last_carrier = p.last_carrier.max(seq);
                }
            }
            for v in waiting {
                if let Some(p) = pass.sources.get_mut(&v) {
                    p.issued_all = true;
                }
            }
        }
        let carrier = GcCarrier {
            object: obj,
            hdr_sectors,
            pieces,
            victim_sources,
        };
        self.enqueue(seq, PutPayload::Gc(carrier));
        self.edge(None, Stage::GcRelocate, seq.into(), bytes);
    }

    /// Retires a fully-relocated victim: unmaps it and defers its delete
    /// until a checkpoint covers the pass (§3.5/§3.6 safety rule). `ngc`
    /// is the newest carrier holding the victim's pieces — or the log
    /// head when nothing live needed moving. Both satisfy the coverage
    /// rule: a checkpoint with sequence above `ngc` is captured after
    /// this retirement, so its map no longer references the victim.
    fn gc_retire_source(&mut self, src: ObjSeq) {
        let mut ngc = self.last_seq;
        if let Some(pass) = self.gc.as_mut() {
            if let Some(p) = pass.sources.remove(&src) {
                if p.last_carrier > 0 {
                    ngc = p.last_carrier;
                }
            }
        }
        let freed = {
            let mut st = self.plane.write_state();
            match st.objmap.object_stat(src) {
                Some(stat) => {
                    let total = stat.total_sectors as u64 * SECTOR;
                    st.objmap.remove_object(src);
                    Some(total)
                }
                None => None, // vanished (header was already gone)
            }
        };
        if let Some(bytes) = freed {
            self.stats.gc_freed_bytes += bytes;
            self.deferred_deletes.push((src, ngc));
            if let Some(pass) = self.gc.as_mut() {
                pass.collected += 1;
            }
        }
    }

    /// Completes the pass once every victim is retired and every carrier
    /// applied; records the `gc_pass` edge exactly once per pass.
    fn gc_maybe_finish_pass(&mut self) {
        let done = match &self.gc {
            None => return,
            Some(p) => {
                p.victims.is_empty()
                    && p.compact_runs.is_empty()
                    && p.cursor.is_none()
                    && p.staged.is_empty()
                    && p.waiting_seal.is_empty()
                    && p.sources.is_empty()
            }
        };
        if !done {
            return;
        }
        let pass = self.gc.take().expect("checked above");
        self.gc_last_collected = pass.collected;
        self.stats.gc_passes += 1;
        self.edge(None, Stage::GcPass, pass.collected, 0);
    }

    /// Reads one GC piece, preferring local caches over backend GETs
    /// (§3.5: "in many cases the data needed for garbage collection may be
    /// found in the local cache").
    fn gc_read_piece(&mut self, lba: Lba, sectors: u64, loc: ObjLoc) -> Result<Vec<u8>> {
        // Read cache hit? Hold the shared guard across the cache-device
        // read, as the read plane does: eviction (exclusive) cannot reuse
        // the resolved sectors underneath us.
        {
            let st = self.plane.read_state();
            if let [Segment::Mapped { val, .. }] = st.rcache.resolve(lba, sectors)[..] {
                let mut buf = vec![0u8; (sectors * SECTOR) as usize];
                st.rcache.read_cached(val, sectors, &mut buf)?;
                self.stats.gc_cache_hit_bytes += buf.len() as u64;
                return Ok(buf);
            }
        }
        let name = self.resolve_name(loc.seq);
        let hdr_sectors = self.hdr_sectors_of(loc.seq)?;
        let data = retry_transient(|| {
            self.store.get_range(
                &name,
                (hdr_sectors + loc.off as u64) * SECTOR,
                sectors * SECTOR,
            )
        })?;
        self.stats.backend_gets += 1;
        self.stats.backend_get_bytes += data.len() as u64;
        Ok(data.to_vec())
    }
}

/// Scans the object map for cold fragmented runs worth compacting:
/// maximal chains of LBA-contiguous extents, each at most
/// `max_extent_sectors` long, mapped to checkpointed sources in
/// `[first, upto]` that are not already whole-object victims. Chains of
/// at least `min_run` entries are emitted as relocation piece lists
/// (split at `batch_sectors` so one run never exceeds a carrier); the
/// coalescing extent map re-merges each run into a single entry once
/// its carrier applies, shrinking the map (Table 5's memory metric).
fn find_compact_runs(
    objmap: &ObjectMap,
    first: ObjSeq,
    upto: ObjSeq,
    min_run: usize,
    max_extent_sectors: u64,
    batch_sectors: u64,
    victims: &[ObjSeq],
) -> Vec<Vec<(Lba, u32, ObjLoc)>> {
    let mut runs: Vec<Vec<(Lba, u32, ObjLoc)>> = Vec::new();
    let mut run: Vec<(Lba, u32, ObjLoc)> = Vec::new();
    let mut run_sectors = 0u64;
    let mut flush = |run: &mut Vec<(Lba, u32, ObjLoc)>, run_sectors: &mut u64| {
        if run.len() >= min_run {
            runs.push(std::mem::take(run));
        } else {
            run.clear();
        }
        *run_sectors = 0;
    };
    for (lba, len, loc) in objmap.map_extents() {
        let eligible = len <= max_extent_sectors
            && loc.seq >= first
            && loc.seq <= upto
            && !victims.contains(&loc.seq);
        if !eligible {
            flush(&mut run, &mut run_sectors);
            continue;
        }
        let contiguous = run
            .last()
            .map(|&(plba, plen, _)| plba + plen as u64 == lba)
            .unwrap_or(true);
        if !contiguous {
            flush(&mut run, &mut run_sectors);
        }
        if run_sectors + len > batch_sectors && !run.is_empty() {
            // Split oversized runs at carrier capacity; both halves may
            // still qualify on their own.
            flush(&mut run, &mut run_sectors);
        }
        run.push((lba, len as u32, loc));
        run_sectors += len;
    }
    flush(&mut run, &mut run_sectors);
    runs
}

/// Bounded immediate retry for maintenance-path store calls (GC,
/// deferred deletes): up to [`GC_RETRY_ATTEMPTS`] tries. Only transient
/// errors are retried; there is no backoff here — latency-shaped retry
/// belongs in an [`objstore::RetryStore`] layered under the volume.
fn retry_transient<T>(mut f: impl FnMut() -> objstore::Result<T>) -> objstore::Result<T> {
    let mut tries = 1;
    loop {
        match f() {
            Err(e) if e.is_transient() && tries < GC_RETRY_ATTEMPTS => tries += 1,
            other => return other,
        }
    }
}

/// [`retry_transient`] for calls that already return [`LsvdError`].
fn retry_transient_lsvd<T>(mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut tries = 1;
    loop {
        match f() {
            Err(LsvdError::Backend(e)) if e.is_transient() && tries < GC_RETRY_ATTEMPTS => {
                tries += 1
            }
            other => return other,
        }
    }
}
