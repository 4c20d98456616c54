//! Maintenance: checkpoints, deferred deletes and the cleaner (§3.5).
//!
//! [`Volume::maintain`] is the one maintenance step. It runs at the end of
//! each write, discard and drain, after any seal and ship, and never from
//! inside an apply. It applies the PUTs that have landed, writes a
//! checkpoint once `checkpoint_interval` data objects have applied since
//! the last one, and advances the cleaner one budgeted step: a pass in
//! progress, or the one a successful checkpoint kicks. A checkpoint covers
//! the applied prefix, whatever is queued or in flight behind it.
//!
//! The cleaner works on whole victims: a step reads a victim's live
//! pieces (from the read cache, else with one ranged GET) and stages them
//! into one relocation carrier, and the victim retires when that carrier
//! applies. Carriers ride the writeback backlog like data batches, and a
//! retired victim's delete waits for a checkpoint that covers it.

use std::collections::{BTreeSet, VecDeque};

use objstore::{retry_transient, ObjError};
use telemetry::Stage;

use super::backlog::{FlushOutcome, PutPayload};
use super::Volume;
use crate::checkpoint::CheckpointData;
use crate::config::{GC_HIGH_WATERMARK, GC_LOW_WATERMARK, GC_RETRY_ATTEMPTS};
use crate::extent_map::Segment;
use crate::gc::{self, GcPolicy};
use crate::objfmt;
use crate::objmap::ObjLoc;
use crate::types::{checkpoint_name, Lba, LsvdError, ObjSeq, Result, SECTOR};

/// Checkpoints kept after each one lands, besides snapshot anchors.
const CHECKPOINTS_KEPT: usize = 3;

/// A sealed GC relocation object queued behind the writeback window.
pub(super) struct GcCarrier {
    /// Serialized relocation object (header + live piece data).
    pub(super) object: bytes::Bytes,
    hdr_sectors: u32,
    /// Relocated pieces: `(vLBA, sectors, expected source location)`.
    /// Applied with conditional-redirect semantics — a piece overwritten
    /// or trimmed after sealing is simply not redirected.
    pieces: Vec<(Lba, u32, ObjLoc)>,
    /// The victims whose live pieces this carrier holds, each whole; they
    /// retire when it applies.
    victims: Vec<ObjSeq>,
}

/// State of an in-progress incremental cleaning pass (§3.5). The pass
/// survives across [`Volume::gc_step`] invocations: each step takes whole
/// victims off the front of the plan, relocation carriers ride the
/// writeback window alongside foreground batches, and a victim retires
/// when the one carrier holding its pieces applies to the object map. A
/// crash simply loses the pass — victims are still mapped or already
/// safely deferred, so the next pass re-plans.
pub(super) struct GcPass {
    /// Victims not yet staged, in policy order.
    plan: VecDeque<ObjSeq>,
    /// The open carrier: its pieces, their data, and its victims.
    staged: Vec<(Lba, u32, ObjLoc)>,
    staged_data: Vec<u8>,
    staged_victims: Vec<ObjSeq>,
    /// Carriers sealed in this pass and not yet applied.
    carriers: u32,
    /// Victims retired so far in this pass.
    collected: u64,
}

impl GcPass {
    /// Victims the pass has yet to stage.
    pub(super) fn victims_left(&self) -> usize {
        self.plan.len()
    }
}

/// The checkpoints in `checkpoints` to delete, oldest first: all but the
/// newest `keep`, less those that anchor one of `snapshots`.
pub(super) fn prunable(
    checkpoints: &BTreeSet<ObjSeq>,
    snapshots: &[(String, ObjSeq)],
    keep: usize,
) -> Vec<ObjSeq> {
    let old = checkpoints.len().saturating_sub(keep);
    checkpoints
        .iter()
        .take(old)
        .filter(|&&seq| !snapshots.iter().any(|&(_, s)| s == seq))
        .copied()
        .collect()
}

impl Volume {
    /// One maintenance step, run at the end of [`Volume::write`],
    /// [`Volume::discard`] and [`Volume::drain`]. It harvests landed PUTs,
    /// writes a checkpoint when one is due, and then advances the cleaner
    /// one budgeted step ([`Volume::gc_step`]) if a pass is open or the
    /// checkpoint kicked one (with `gc_enabled`). Transient backend
    /// failures are absorbed: a skipped checkpoint counts in
    /// `checkpoint_failures` and is retried once another data object has
    /// applied; a paused pass counts in `gc_aborts` and resumes at a later
    /// step. Recovery rolls forward from the previous checkpoint either
    /// way.
    ///
    /// A checkpoint covers the applied prefix, whatever is queued or in
    /// flight behind it. The object map holds only objects applied from
    /// the backlog's front; recovery's listing rolls forward the objects
    /// after the checkpoint; and a retired victim's delete waits for a
    /// checkpoint captured after its retirement (`ckpt_seq > ngc`).
    pub(super) fn maintain(&mut self) -> Result<()> {
        self.pump(false)?;
        let mut kick = false;
        if self.checkpoint_due() {
            match self.write_checkpoint() {
                Ok(()) => kick = self.cfg.gc_enabled,
                Err(LsvdError::Backend(e)) if e.is_transient() => {
                    self.stats.checkpoint_failures += 1;
                    self.objects_since_ckpt = self.cfg.checkpoint_interval - 1;
                }
                Err(e) => return Err(e),
            }
        }
        if kick || self.gc.is_some() {
            match self.gc_step() {
                Ok(_) => {}
                Err(LsvdError::Backend(e)) if e.is_transient() => self.stats.gc_aborts += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Whether the next maintenance step writes a checkpoint:
    /// `checkpoint_interval` data objects have applied since the last one
    /// and no trim is pending. Trims punch the object map eagerly at
    /// discard time, so a checkpoint taken while a trim's carrier object
    /// is still unsealed would make the trim durable ahead of older
    /// writes sitting in the batch builder — after cache loss, recovery
    /// would show the trim applied but the earlier acknowledged write
    /// missing (not a prefix).
    pub(super) fn checkpoint_due(&self) -> bool {
        self.objects_since_ckpt >= self.cfg.checkpoint_interval && self.pending_trims.is_empty()
    }

    /// Applies a relocation carrier that just became part of the durable
    /// prefix: conditional redirects into the map, then retirement of the
    /// victims whose pieces it held. Carriers carry no cache records, so
    /// the cache frontier, the write log and the pending-trim ledger are
    /// untouched — and they do not count toward the checkpoint cadence.
    pub(super) fn finish_put_gc(&mut self, seq: ObjSeq, carrier: GcCarrier) -> Result<()> {
        self.stats.gc_puts += 1;
        self.stats.gc_put_bytes += carrier.object.len() as u64;
        self.stats.gc_relocated_bytes +=
            (carrier.object.len() as u64).saturating_sub(carrier.hdr_sectors as u64 * SECTOR);
        self.plane
            .write_state()
            .objmap
            .apply_gc_object(seq, carrier.hdr_sectors, &carrier.pieces);
        if let Some(pass) = self.gc.as_mut() {
            pass.carriers -= 1;
        }
        for victim in carrier.victims {
            self.gc_retire_source(victim, seq);
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
        // Recorded before the PUT, so a PUT that errs but lands is pruned
        // later all the same.
        self.checkpoints.insert(self.last_seq);
        self.store.put(
            &checkpoint_name(&self.sb.image, self.last_seq),
            ck.build(self.sb.uuid),
        )?;
        self.last_ckpt_seq = self.last_seq;
        self.objects_since_ckpt = 0;
        self.stats.checkpoints += 1;
        let behind = self.backlog.len() as u64;
        self.edge(None, Stage::Checkpoint, self.last_seq.into(), behind);
        // The checkpoint that just landed covers every earlier GC pass, so
        // their deferred source deletes are now safe to execute. (It still
        // lists them as deferred — captured before the PUT — which only
        // means a recovered volume re-issues idempotent deletes.)
        self.sweep_deferred_deletes();
        self.prune_checkpoints()
    }

    /// Deletes the known checkpoints that are neither among the newest
    /// [`CHECKPOINTS_KEPT`] nor a snapshot's anchor (a snapshot mount
    /// needs a checkpoint at its sequence, and the one written at snapshot
    /// time is exactly that), oldest first, with no LIST. Pruning is
    /// cleanup, so a flaky backend must not fail the checkpoint that
    /// already landed: a transient failure stops the prune, and the
    /// checkpoints left stay known and are retried after the next one.
    fn prune_checkpoints(&mut self) -> Result<()> {
        for seq in prunable(&self.checkpoints, &self.snapshots, CHECKPOINTS_KEPT) {
            match self.store.delete(&checkpoint_name(&self.sb.image, seq)) {
                Ok(()) => {
                    self.checkpoints.remove(&seq);
                }
                Err(e) if e.is_transient() => break,
                Err(e) => return Err(e.into()),
            }
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
            match retry_transient(GC_RETRY_ATTEMPTS, || self.store.delete(&name)) {
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
        if self.read_only {
            return Ok(0);
        }
        if self.gc.is_none() && !self.gc_start_pass() {
            return Ok(0);
        }
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
    /// utilization is below the low watermark, then relocates whole
    /// victims until it has moved
    /// [`gc_step_budget_bytes`](crate::config::VolumeConfig::gc_step_budget_bytes)
    /// — every victim left when the budget is 0. Sealed carriers ride the
    /// writeback window; foreground writes keep flowing while they are in
    /// flight. Returns the number of sources retired if the pass
    /// completed during this step, else 0.
    pub fn gc_step(&mut self) -> Result<usize> {
        if self.read_only {
            return Ok(0);
        }
        if self.gc.is_none() && !self.gc_start_pass() {
            return Ok(0);
        }
        let passes_before = self.stats.gc_passes;
        self.gc_step_inner(false)?;
        Ok(if self.stats.gc_passes > passes_before {
            self.gc_last_collected as usize
        } else {
            0
        })
    }

    /// A coarse progress marker for the active pass, used by the
    /// completion-drive loop's livelock guard.
    fn gc_progress(&self) -> (u64, usize, usize, u32) {
        match &self.gc {
            None => (0, 0, 0, 0),
            Some(p) => (
                p.collected,
                p.plan.len(),
                p.staged_victims.len(),
                p.carriers,
            ),
        }
    }

    /// Evaluates the GC trigger and, when warranted, plans a new pass
    /// with [`gc::plan_pass`]: cost-benefit victims over the checkpointed
    /// prefix, chosen from the object table alone. Returns whether a pass
    /// was started.
    fn gc_start_pass(&mut self) -> bool {
        let plan = gc::plan_pass(
            &self.plane.read_state().objmap,
            self.sb.own_first_seq(),
            self.last_ckpt_seq,
            (GC_LOW_WATERMARK, GC_HIGH_WATERMARK),
            GcPolicy::CostBenefit,
            self.last_seq,
        );
        if plan.is_empty() {
            return false;
        }
        self.gc = Some(GcPass {
            plan: plan.into(),
            staged: Vec::new(),
            staged_data: Vec::new(),
            staged_victims: Vec::new(),
            carriers: 0,
            collected: 0,
        });
        true
    }

    /// The step engine: take whole victims off the plan, seal carriers
    /// at batch granularity, and ship without waiting for completions.
    /// Stops at the byte budget (when `unbudgeted` is false and the
    /// configured budget is nonzero) or when the writeback window has no
    /// room.
    fn gc_step_inner(&mut self, unbudgeted: bool) -> Result<()> {
        let budget = if unbudgeted {
            0
        } else {
            self.cfg.gc_step_budget_bytes
        };
        let mut moved = 0u64;
        loop {
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
            let Some(pass) = &self.gc else {
                return Ok(());
            };
            if pass.plan.is_empty() {
                // Every victim staged: seal the final partial carrier.
                self.gc_seal_carrier();
                break;
            }
            moved += self.gc_take_victim()?;
        }
        // Ship what this step sealed without waiting for completion. A
        // transient failure leaves the carrier queued (degraded mode)
        // exactly like a foreground batch.
        self.ship(false)?;
        self.gc_maybe_finish_pass();
        Ok(())
    }

    /// Takes the victim at the front of the plan: lists its live pieces
    /// from the object map's index in vLBA order (no victim header is
    /// fetched), reads them and stages them whole, sealing the open
    /// carrier first if this victim would take it past `batch_bytes`. A
    /// victim with nothing live retires on the spot. A failed read leaves
    /// the victim at the front of the plan with nothing staged. Returns
    /// the bytes staged.
    fn gc_take_victim(&mut self) -> Result<u64> {
        let pass = self.gc.as_ref().expect("active pass");
        let seq = *pass.plan.front().expect("a planned victim");
        let mut pieces = self.plane.read_state().objmap.live_in(seq, ..);
        pieces.sort_unstable_by_key(|&(lba, _, _)| lba);
        if pieces.is_empty() {
            self.gc.as_mut().expect("active pass").plan.pop_front();
            self.gc_retire_source(seq, self.last_seq);
            return Ok(0);
        }
        let data = self.gc_read_victim(seq, &pieces)?;
        let staged = self.gc.as_ref().map_or(0, |p| p.staged_data.len());
        if staged + data.len() > self.cfg.batch_bytes as usize {
            self.gc_seal_carrier();
        }
        let pass = self.gc.as_mut().expect("active pass");
        pass.plan.pop_front();
        pass.staged.extend(pieces);
        pass.staged_data.extend_from_slice(&data);
        pass.staged_victims.push(seq);
        Ok(data.len() as u64)
    }

    /// Reads a victim's live `pieces` into one buffer, in piece order,
    /// preferring the local cache (§3.5: "in many cases the data needed
    /// for garbage collection may be found in the local cache"): pieces
    /// that sit whole in the read cache come from there, and the rest
    /// from one ranged GET spanning them.
    fn gc_read_victim(&mut self, seq: ObjSeq, pieces: &[(Lba, u32, ObjLoc)]) -> Result<Vec<u8>> {
        let sectors: u64 = pieces.iter().map(|&(_, len, _)| len as u64).sum();
        let mut buf = vec![0u8; (sectors * SECTOR) as usize];
        // Pieces left for the GET: (buffer offset, data-area offset, sectors).
        let mut rest = Vec::new();
        let hdr_sectors = {
            // Hold the shared guard across the cache-device reads, as the
            // read plane does: eviction (exclusive) cannot reuse the
            // resolved sectors underneath us.
            let st = self.plane.read_state();
            let mut at = 0;
            for &(lba, len, loc) in pieces {
                let out = &mut buf[at..at + (len as u64 * SECTOR) as usize];
                if let [Segment::Mapped { val, .. }] = st.rcache.resolve(lba, len as u64)[..] {
                    st.rcache.read_cached(val, len as u64, out)?;
                    self.stats.gc_cache_hit_bytes += out.len() as u64;
                } else {
                    rest.push((at, loc.off, len));
                }
                at += out.len();
            }
            st.objmap
                .object_stat(seq)
                .map(|s| (s.total_sectors - s.data_sectors) as u64)
        };
        let (Some(lo), Some(hi)) = (
            rest.iter().map(|&(_, off, _)| off).min(),
            rest.iter().map(|&(_, off, len)| off + len).max(),
        ) else {
            return Ok(buf);
        };
        let hdr_sectors = hdr_sectors
            .ok_or_else(|| LsvdError::Corrupt(format!("object {seq} is mapped but untracked")))?;
        let name = self.resolve_name(seq);
        let span = retry_transient(GC_RETRY_ATTEMPTS, || {
            self.store.get_range(
                &name,
                (hdr_sectors + lo as u64) * SECTOR,
                (hi - lo) as u64 * SECTOR,
            )
        })?;
        self.stats.gc_gets += 1;
        self.stats.gc_get_bytes += span.len() as u64;
        for (at, off, len) in rest {
            let from = ((off - lo) as u64 * SECTOR) as usize;
            let n = (len as u64 * SECTOR) as usize;
            buf[at..at + n].copy_from_slice(&span[from..from + n]);
        }
        Ok(buf)
    }

    /// Seals the open carrier and queues it behind the writeback window.
    /// The carrier claims the next object sequence like any foreground
    /// batch — the durable frontier applies it (and everything after it)
    /// strictly in order, so the prefix rule holds at every interleaving.
    fn gc_seal_carrier(&mut self) {
        let Some(pass) = self.gc.as_mut() else {
            return;
        };
        if pass.staged_victims.is_empty() {
            return;
        }
        let pieces = std::mem::take(&mut pass.staged);
        let data = std::mem::take(&mut pass.staged_data);
        let victims = std::mem::take(&mut pass.staged_victims);
        pass.carriers += 1;
        let seq = self.next_obj_seq;
        self.next_obj_seq = seq + 1;
        let extents: Vec<(Lba, u32)> = pieces.iter().map(|&(lba, len, _)| (lba, len)).collect();
        let srcs: Vec<(ObjSeq, u32)> = pieces
            .iter()
            .map(|&(_, _, loc)| (loc.seq, loc.off))
            .collect();
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
        let carrier = GcCarrier {
            object: obj,
            hdr_sectors,
            pieces,
            victims,
        };
        self.enqueue(seq, PutPayload::Gc(carrier));
        self.edge(None, Stage::GcRelocate, seq.into(), bytes);
    }

    /// Retires a victim: unmaps it and defers its delete until a
    /// checkpoint covers the pass (§3.5/§3.6 safety rule). `ngc` is the
    /// carrier that held the victim's pieces — or the log head when
    /// nothing live needed moving. Both satisfy the coverage rule: a
    /// checkpoint with sequence above `ngc` is captured after this
    /// retirement, so its map no longer references the victim.
    fn gc_retire_source(&mut self, src: ObjSeq, ngc: ObjSeq) {
        let freed = {
            let mut st = self.plane.write_state();
            let stat = st.objmap.object_stat(src);
            st.objmap.remove_object(src);
            stat.map(|s| s.total_sectors as u64 * SECTOR)
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
        let done = self
            .gc
            .as_ref()
            .is_some_and(|p| p.plan.is_empty() && p.staged_victims.is_empty() && p.carriers == 0);
        if !done {
            return;
        }
        let pass = self.gc.take().expect("checked above");
        self.gc_last_collected = pass.collected;
        self.stats.gc_passes += 1;
        self.edge(None, Stage::GcPass, pass.collected, 0);
    }
}
