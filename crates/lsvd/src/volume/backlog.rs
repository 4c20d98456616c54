//! Writeback: sealed objects on their way to the object map.
//!
//! A sealed batch or relocation carrier enters the volume's backlog under
//! its object sequence. PUTs go to the
//! [`WritebackPool`](crate::writeback::WritebackPool) oldest queued first,
//! and an object applies to the object map only from the front of the
//! backlog, once its PUT has landed: the §3.3 prefix rule. A failed PUT
//! goes back to the queued state in place; while a transient failure is
//! unresolved, the volume is in degraded mode.

use std::time::Instant;

use objstore::ObjError;
use telemetry::Stage;

use super::maintenance::GcCarrier;
use super::Volume;
use crate::types::{LsvdError, ObjSeq, Result};

/// Outcome of a pump (or a ship).
pub(super) enum FlushOutcome {
    /// No transient PUT failure was harvested. On the inline executor a
    /// ship that ends `Drained` has emptied the backlog.
    Drained,
    /// A transient backend failure stopped the pump; the failed object is
    /// queued again, and the error that stalled it is carried here.
    Stalled(ObjError),
}

/// A sealed object in the writeback backlog, from its seal until it is
/// applied to the object map.
pub(super) struct Sealed {
    payload: PutPayload,
    state: PutState,
    /// Seal time, for the PUT queue-wait split.
    sealed_at: Instant,
}

/// Where a sealed object stands on its way to the object map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum PutState {
    /// Waiting for a slot in the PUT window: newly sealed, or back after a
    /// failed PUT.
    Queued,
    /// Handed to the writeback pool.
    InFlight,
    /// Durable in the backend, waiting for an older object to apply first.
    Landed,
}

/// A sealed unit awaiting its backend PUT: a foreground data batch or a
/// GC relocation carrier. Both claim sequence numbers from the same
/// counter and ride the same bounded writeback window, so the backend's
/// consecutive-sequence prefix rule covers cleaning traffic for free.
pub(super) enum PutPayload {
    Batch(crate::batch::SealedBatch),
    Gc(GcCarrier),
}

impl PutPayload {
    /// The serialized backend object.
    fn object(&self) -> &bytes::Bytes {
        match self {
            PutPayload::Batch(b) => &b.object,
            PutPayload::Gc(g) => &g.object,
        }
    }
}

impl Volume {
    /// Forces the current batch to the backend even if not full.
    pub(super) fn writeback_now(&mut self) -> Result<()> {
        self.put_batch()?;
        if self.count(PutState::InFlight) > 0 {
            // Block for at least one completion so the caller (the
            // cache-full loop) can observe released log records.
            self.pump(true)?;
        }
        Ok(())
    }

    /// Backlog entries in `state`.
    pub(super) fn count(&self, state: PutState) -> usize {
        self.backlog.values().filter(|s| s.state == state).count()
    }

    /// Object bytes in the backlog.
    pub(super) fn backlog_bytes(&self) -> u64 {
        self.backlog
            .values()
            .map(|s| s.payload.object().len() as u64)
            .sum()
    }

    /// Records a degraded-mode enter/exit edge when the state flipped
    /// since the last check.
    fn note_degraded_edge(&mut self) {
        let now = self.is_degraded();
        if now != self.tel.was_degraded {
            self.tel.was_degraded = now;
            let stage = if now {
                Stage::DegradedEnter
            } else {
                Stage::DegradedExit
            };
            self.edge(None, stage, 0, 0);
        }
    }

    /// Harvests PUT completions (blocking for the first one when
    /// `block`), applies the landed front of the backlog in sequence
    /// order, and refills the window after each harvest — until no
    /// completion is ready. On the inline executor every submitted PUT has
    /// already run, so a pump applies it before returning.
    ///
    /// A failed PUT goes back to the queued state in place and stops the
    /// pump without resubmitting: the next ship retries it.
    /// Returns `Stalled` when this pump saw a transient failure. On a
    /// permanent failure (or an error applying a landed object) every
    /// other harvested completion is still accounted for, and then the
    /// first error is returned.
    pub(super) fn pump(&mut self, block: bool) -> Result<FlushOutcome> {
        let mut block = block;
        let mut stall = None;
        let mut fatal = None;
        loop {
            let completions = if block {
                self.pool.wait_puts()
            } else {
                self.pool.poll_puts()
            };
            block = false;
            if completions.is_empty() {
                break;
            }
            for c in completions {
                let seq = c.seq;
                let entry = self
                    .backlog
                    .get_mut(&seq)
                    .expect("completion for an unknown sequence");
                debug_assert_eq!(entry.state, PutState::InFlight);
                let sealed_at = entry.sealed_at;
                // A failed PUT is requeued in place. FIFO visibility is
                // safe: nothing at or beyond this sequence can apply
                // until its PUT eventually lands.
                entry.state = if c.result.is_ok() {
                    PutState::Landed
                } else {
                    PutState::Queued
                };
                match c.result {
                    Ok(()) => {
                        self.put_stalled = false;
                        self.edge(None, Stage::PutDone, seq.into(), 0);
                        // Queue wait: seal to completion, minus the final
                        // attempt's service time.
                        self.tel.put_service.observe(c.service);
                        self.tel
                            .put_queue_wait
                            .observe(sealed_at.elapsed().saturating_sub(c.service));
                        // Only the gap-free prefix may touch metadata:
                        // apply landed objects from the front of the
                        // backlog, in order. Anything beyond a gap stays
                        // landed.
                        while let Some(front) = self.backlog.first_entry() {
                            if front.get().state != PutState::Landed {
                                break;
                            }
                            let (ready, sealed) = front.remove_entry();
                            if let Err(e) = self.finish_put(ready, sealed.payload) {
                                fatal.get_or_insert(e);
                            }
                        }
                    }
                    Err(e) if e.is_transient() => {
                        self.stats.put_transient_failures += 1;
                        self.put_stalled = true;
                        self.edge(None, Stage::PutRetry, seq.into(), 0);
                        stall = Some(e);
                    }
                    Err(e) => {
                        self.edge(None, Stage::PutAbort, seq.into(), 0);
                        fatal.get_or_insert(e.into());
                    }
                }
            }
            if stall.is_some() || fatal.is_some() {
                break;
            }
            self.submit_ready();
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        self.note_degraded_edge();
        Ok(match stall {
            Some(e) => FlushOutcome::Stalled(e),
            None => FlushOutcome::Drained,
        })
    }

    /// Ships the queue: submits up to the window, then pumps.
    pub(super) fn ship(&mut self, block: bool) -> Result<FlushOutcome> {
        self.submit_ready();
        self.pump(block)
    }

    /// The PUT window: `max_inflight_puts` over worker threads, 1 on the
    /// inline executor (whose PUTs finish inside `submit_put`).
    pub(super) fn put_window(&self) -> usize {
        if self.pool.threads() == 0 {
            1
        } else {
            self.cfg.max_inflight_puts
        }
    }

    /// Moves queued objects onto the pool, oldest first, up to the
    /// in-flight window.
    fn submit_ready(&mut self) {
        let room = self
            .put_window()
            .saturating_sub(self.count(PutState::InFlight));
        let ready: Vec<ObjSeq> = self
            .backlog
            .iter()
            .filter(|(_, s)| s.state == PutState::Queued)
            .map(|(&seq, _)| seq)
            .take(room)
            .collect();
        for seq in ready {
            let name = self.resolve_name(seq);
            self.edge(None, Stage::PutStart, seq.into(), 0);
            let entry = self.backlog.get_mut(&seq).expect("queued entry");
            entry.state = PutState::InFlight;
            self.pool
                .submit_put(seq, name, entry.payload.object().clone());
        }
    }

    /// Adds a sealed object to the backlog, queued for its PUT.
    pub(super) fn enqueue(&mut self, seq: ObjSeq, payload: PutPayload) {
        let sealed = Sealed {
            payload,
            state: PutState::Queued,
            sealed_at: Instant::now(),
        };
        self.backlog.insert(seq, sealed);
    }

    /// Seals the current batch into the backlog, allocating its
    /// sequence number. Sequences are assigned at seal time, so queued
    /// batches carry strictly increasing sequences and FIFO shipping
    /// preserves the backend's prefix rule.
    fn seal_into_queue(&mut self) {
        let seq = self.next_obj_seq;
        self.next_obj_seq = seq + 1;
        let sealed = self.batch.seal(self.sb.uuid, seq);
        let last_cache_seq = sealed.last_cache_seq;
        self.tel.crc_recomputed_bytes += sealed.crc_recomputed_bytes;
        self.tel.crc_combine_ops += sealed.crc_combine_ops;
        self.tel.copied_bytes += sealed.data_bytes;
        self.enqueue(seq, PutPayload::Batch(sealed));
        // Requests join this edge through the data key: a wlog span with
        // `arg_a` (cache seq) ≤ its `arg_b` (last cache seq) was carried
        // by this object.
        self.edge(None, Stage::BatchSeal, seq.into(), last_cache_seq);
    }

    /// Ships the queue and the open batch. A transient backend failure
    /// stalls the queue (degraded mode): the current batch is sealed
    /// behind it if the backlog allows, so its cache records keep their
    /// place in line, and the failure is absorbed — the data is durable in
    /// the cache log and nothing is lost or reordered. Permanent failures
    /// propagate.
    pub(super) fn put_batch(&mut self) -> Result<()> {
        let stalled = matches!(self.ship(false)?, FlushOutcome::Stalled(_));
        if !self.batch.is_empty() && self.backlog.len() < self.cfg.max_pending_batches {
            self.seal_into_queue();
            if !stalled {
                self.ship(false)?;
            }
        }
        Ok(())
    }

    fn finish_put(&mut self, seq: ObjSeq, payload: PutPayload) -> Result<()> {
        debug_assert_eq!(seq, self.last_seq + 1, "applied out of prefix order");
        self.last_seq = seq;
        self.edge(None, Stage::FrontierAdvance, seq.into(), 0);
        match payload {
            PutPayload::Batch(sealed) => self.finish_put_batch(seq, sealed),
            PutPayload::Gc(carrier) => self.finish_put_gc(seq, carrier),
        }
    }

    fn finish_put_batch(&mut self, seq: ObjSeq, sealed: crate::batch::SealedBatch) -> Result<()> {
        self.stats.backend_puts += 1;
        self.stats.backend_put_bytes += sealed.object.len() as u64;
        self.stats.merged_bytes += sealed.merged_bytes;
        // Trims this object carries are now durable; any trim issued after
        // this batch sealed is still pending and must be re-punched below,
        // because `apply_object` unconditionally re-inserts this (older)
        // batch's extents over it.
        self.pending_trims
            .retain(|&(trim_seq, _, _)| trim_seq > sealed.last_cache_seq);
        // Mirror recovery's apply order (`recovery::apply_header`): this
        // object's own trims land before its data extents, so a
        // write-after-trim within the batch survives.
        {
            let mut st = self.plane.write_state();
            for &(lba, sectors) in &sealed.trims {
                st.objmap.discard(lba, sectors as u64);
            }
            st.objmap
                .apply_object(seq, sealed.hdr_sectors, &sealed.extents);
            for &(_, lba, sectors) in self.pending_trims.iter() {
                st.objmap.discard(lba, sectors);
            }
        }
        self.frontier = self.frontier.max(sealed.last_cache_seq);
        // Release cache records now durable in the backend, dropping their
        // write-cache mappings (the data is reachable via the object map).
        // Ordering matters for concurrent readers: the object map already
        // carries this data (above, under the exclusive lock), and the
        // released log sectors cannot be reused until a later append on
        // this thread — which runs only after the map removals below have
        // drained every shared-lock reader that could still resolve them.
        let released = self.wlog.release_to(sealed.last_cache_seq)?;
        {
            let mut st = self.plane.write_state();
            for rec in released {
                if rec.trim {
                    // Header-only record: extents describe trimmed ranges,
                    // not cached data — nothing to drop from the map.
                    continue;
                }
                let mut plba = rec.data_plba;
                for &(lba, len) in &rec.extents {
                    for (plo, plen, pval) in st.wcache_map.overlaps(lba, len as u64) {
                        if pval >= plba && pval < plba + len as u64 {
                            st.wcache_map.remove(plo, plen);
                        }
                    }
                    plba += len as u64;
                }
            }
        }
        self.objects_since_ckpt += 1;
        self.checkpoint_if_due()
    }

    /// Seals and ships everything buffered, so cache and backend are
    /// synchronized (used before migration, snapshots and shutdown).
    ///
    /// The queue ships before the open batch seals; the queue bound
    /// applies to the write path, not to an explicit drain. Unlike the
    /// write path, `drain` does not absorb transient backend failures:
    /// failures already in the pipe when it started (PUTs issued against a
    /// backend that has since healed) are retried, but once a full window
    /// of consecutive ships stalls with no frontier progress — one stall
    /// on the inline executor — the error surfaces so the caller knows the
    /// backend and cache are *not* synchronized. Queued batches are kept;
    /// a later drain (or healed backend) ships them in order.
    pub fn drain(&mut self) -> Result<()> {
        let mut stalls = 0;
        let mut stalled_at = None;
        loop {
            match self.ship(true)? {
                FlushOutcome::Stalled(e) => {
                    let at = self.last_seq;
                    if stalled_at != Some(at) {
                        stalled_at = Some(at);
                        stalls = 0;
                    }
                    stalls += 1;
                    if stalls >= self.put_window() {
                        return Err(LsvdError::Backend(e));
                    }
                }
                FlushOutcome::Drained => {
                    stalled_at = None;
                    if !self.batch.is_empty() {
                        self.seal_into_queue();
                    } else if self.backlog.is_empty() {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(self.wlog.live_records(), 0);
        Ok(())
    }

    /// Whether sealed batches are stuck awaiting a healthy backend: a
    /// transient PUT failure is unresolved and the backlog is not empty.
    /// A non-empty backlog alone is normal (PUTs in flight).
    pub fn is_degraded(&self) -> bool {
        self.put_stalled && !self.backlog.is_empty()
    }

    /// The last object sequence inside the contiguous durable prefix —
    /// everything up to and including it is applied to the object map and
    /// coverable by a checkpoint.
    pub fn durable_frontier(&self) -> ObjSeq {
        self.last_seq
    }
}
