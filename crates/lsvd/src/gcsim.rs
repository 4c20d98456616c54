//! Trace-driven simulation of write batching and garbage collection (§4.6,
//! Table 5).
//!
//! The paper evaluates LSVD's garbage collector on week-long block traces
//! by simulation: no data moves, only extents. This module reproduces that
//! simulator on the volume's own cleaner model: objects apply to an
//! [`ObjectMap`], and [`gc::plan_pass`] plans every pass with the trigger,
//! victim selection and map walk the volume runs. Around them it models:
//!
//! - **batching**: writes accumulate until the batch size (32 MiB in the
//!   paper's runs) is reached, with intra-batch *merging* (coalescing of
//!   overwrites) switchable to measure the Table 5 "merge" columns;
//! - **relocation**: a pass's live extents are rewritten in vLBA order as
//!   batch-sized objects, applied in the same call that plans them;
//! - **defragmentation**: optionally copying small holes (≤ 8 KiB in the
//!   paper) between live pieces during GC so map extents re-merge — the
//!   Table 5 "defrag" column.
//!
//! Reported metrics match Table 5: write amplification factor (WAF), final
//! extent-map size, and merge ratio.

use crate::extent_map::ExtentMap;
use crate::gc::{self, GcPolicy};
use crate::objmap::ObjectMap;
use crate::types::{Lba, ObjSeq};

/// Hole-plugging limit of [`GcSimMode::MergeDefrag`] in sectors: the
/// paper evaluated 8 KiB.
const DEFRAG_HOLE_SECTORS: u64 = 16;

/// Simulation mode for the three Table 5 column groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcSimMode {
    /// No intra-batch coalescing.
    NoMerge,
    /// Intra-batch coalescing enabled.
    Merge,
    /// Coalescing plus GC-time hole plugging.
    MergeDefrag,
}

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct GcSimConfig {
    /// Batch size in sectors (the paper used 32 MiB).
    pub batch_sectors: u64,
    /// GC start threshold (utilization below this triggers cleaning).
    pub gc_low: f64,
    /// GC stop threshold.
    pub gc_high: f64,
    /// Mode (merge / defrag switches).
    pub mode: GcSimMode,
    /// Victim-selection policy. The default stays greedy — the paper's
    /// Table 5 runs use greedy selection, and the historical trace shapes
    /// depend on it; cost-benefit is the volume's runtime default and can
    /// be compared against greedy here (lower cleaning copies on
    /// hot/cold-skewed churn).
    pub policy: GcPolicy,
}

impl Default for GcSimConfig {
    fn default() -> Self {
        GcSimConfig {
            batch_sectors: (32 << 20) / 512,
            gc_low: 0.70,
            gc_high: 0.75,
            mode: GcSimMode::Merge,
            policy: GcPolicy::Greedy,
        }
    }
}

/// Final report, mirroring Table 5's columns.
#[derive(Debug, Clone, Copy)]
pub struct GcSimReport {
    /// Client sectors written.
    pub client_sectors: u64,
    /// Backend sectors written (batch flushes plus GC copies).
    pub backend_sectors: u64,
    /// Sectors copied by the garbage collector.
    pub gc_copied_sectors: u64,
    /// Sectors eliminated by intra-batch merging.
    pub merged_sectors: u64,
    /// Final extent-map size.
    pub extent_count: usize,
    /// Objects created (batch flushes plus GC objects).
    pub objects_created: u64,
    /// Objects deleted by GC.
    pub objects_deleted: u64,
}

impl GcSimReport {
    /// Write amplification factor: backend sectors per client sector.
    pub fn waf(&self) -> f64 {
        if self.client_sectors == 0 {
            0.0
        } else {
            self.backend_sectors as f64 / self.client_sectors as f64
        }
    }

    /// Write amplification against *post-merge* client data — the paper's
    /// Table 5 accounting (how else could w66 show 55 % of bytes merged
    /// yet a WAF of 1.35): backend sectors per client sector that actually
    /// needed shipping.
    pub fn waf_postmerge(&self) -> f64 {
        let shipped = self.client_sectors.saturating_sub(self.merged_sectors);
        if shipped == 0 {
            0.0
        } else {
            self.backend_sectors as f64 / shipped as f64
        }
    }

    /// Fraction of client data eliminated by write coalescing.
    pub fn merge_ratio(&self) -> f64 {
        if self.client_sectors == 0 {
            0.0
        } else {
            self.merged_sectors as f64 / self.client_sectors as f64
        }
    }
}

/// The metadata-only batching + GC simulator.
///
/// # Examples
///
/// ```
/// use lsvd::gcsim::{GcSim, GcSimConfig, GcSimMode};
///
/// let mut sim = GcSim::new(GcSimConfig {
///     batch_sectors: 1024,
///     mode: GcSimMode::Merge,
///     ..GcSimConfig::default()
/// });
/// // Sequential writes: nothing merges, nothing collects.
/// for i in 0..10_000u64 {
///     sim.write(i * 8, 8);
/// }
/// let report = sim.finish();
/// assert_eq!(report.waf(), 1.0);
/// ```
pub struct GcSim {
    cfg: GcSimConfig,
    /// Backend objects with no header: liveness counts data sectors only.
    objmap: ObjectMap,
    // Batch state: coalescing map (merge modes) or append list (no-merge).
    batch_map: ExtentMap<u64>,
    batch_list: Vec<(Lba, u32)>,
    batch_accepted: u64,
    next_seq: ObjSeq,
    report: GcSimReport,
}

impl GcSim {
    /// Creates an idle simulator.
    pub fn new(cfg: GcSimConfig) -> Self {
        GcSim {
            cfg,
            objmap: ObjectMap::new(),
            batch_map: ExtentMap::new(),
            batch_list: Vec::new(),
            batch_accepted: 0,
            next_seq: 1,
            report: GcSimReport {
                client_sectors: 0,
                backend_sectors: 0,
                gc_copied_sectors: 0,
                merged_sectors: 0,
                extent_count: 0,
                objects_created: 0,
                objects_deleted: 0,
            },
        }
    }

    /// Feeds one client write of `sectors` at `lba`.
    pub fn write(&mut self, lba: Lba, sectors: u32) {
        debug_assert!(sectors > 0);
        self.report.client_sectors += sectors as u64;
        match self.cfg.mode {
            GcSimMode::NoMerge => {
                self.batch_list.push((lba, sectors));
            }
            _ => {
                for (_, plen, _) in self.batch_map.overlaps(lba, sectors as u64) {
                    self.report.merged_sectors += plen;
                }
                // Offsets are fictitious; only coalescing behaviour matters.
                self.batch_map
                    .insert(lba, sectors as u64, self.batch_accepted);
            }
        }
        self.batch_accepted += sectors as u64;
        if self.live_batch_sectors() >= self.cfg.batch_sectors {
            self.flush_batch();
            self.maybe_gc();
        }
    }

    fn live_batch_sectors(&self) -> u64 {
        match self.cfg.mode {
            GcSimMode::NoMerge => self.batch_accepted,
            _ => self.batch_map.mapped_len(),
        }
    }

    fn flush_batch(&mut self) {
        let extents: Vec<(Lba, u32)> = match self.cfg.mode {
            GcSimMode::NoMerge => std::mem::take(&mut self.batch_list),
            _ => {
                let v = self
                    .batch_map
                    .iter()
                    .map(|(l, n, _)| (l, n as u32))
                    .collect();
                self.batch_map.clear();
                v
            }
        };
        self.batch_accepted = 0;
        if extents.is_empty() {
            return;
        }
        self.put_object(&extents);
    }

    /// Writes `extents` as the next backend object and returns its data
    /// sectors. A relocation object goes through the same
    /// [`ObjectMap::apply_object`] as a batch: its pieces were planned in
    /// this same call, so each still points at its victim, and a
    /// zero-filled defrag gap that was never written becomes mapped.
    fn put_object(&mut self, extents: &[(Lba, u32)]) -> u64 {
        self.objmap.apply_object(self.next_seq, 0, extents);
        self.next_seq += 1;
        let data: u64 = extents.iter().map(|&(_, n)| n as u64).sum();
        self.report.backend_sectors += data;
        self.report.objects_created += 1;
        data
    }

    /// Runs one pass when utilization is below the low mark: deletes the
    /// planned victims and rewrites their live extents in vLBA order as
    /// batch-sized relocation objects.
    fn maybe_gc(&mut self) {
        let victims = gc::plan_pass(
            &self.objmap,
            1,
            ObjSeq::MAX,
            (self.cfg.gc_low, self.cfg.gc_high),
            self.cfg.policy,
            self.next_seq,
        );
        let mut pieces: Vec<(Lba, u32)> = Vec::new();
        for seq in victims {
            let live = self.objmap.live_in(seq, ..);
            pieces.extend(live.iter().map(|&(lba, len, _)| (lba, len)));
            self.objmap.remove_object(seq);
            self.report.objects_deleted += 1;
        }
        // A GC batch is one atomic object: free to restore spatial order
        // (§3.1), which also lets map extents re-merge after relocation.
        pieces.sort_unstable();
        if self.cfg.mode == GcSimMode::MergeDefrag {
            pieces = plug_holes(pieces);
        }
        let mut batch: Vec<(Lba, u32)> = Vec::new();
        let mut fill = 0u64;
        for (lba, len) in pieces {
            batch.push((lba, len));
            fill += len as u64;
            if fill >= self.cfg.batch_sectors {
                self.report.gc_copied_sectors += self.put_object(&batch);
                batch.clear();
                fill = 0;
            }
        }
        if !batch.is_empty() {
            self.report.gc_copied_sectors += self.put_object(&batch);
        }
    }

    /// Current utilization (live / total).
    pub fn current_utilization(&self) -> f64 {
        let (live, total) = self.objmap.totals();
        if total == 0 {
            1.0
        } else {
            live as f64 / total as f64
        }
    }

    /// Flushes the final partial batch and returns the report.
    pub fn finish(mut self) -> GcSimReport {
        self.flush_batch();
        self.maybe_gc();
        let mut r = self.report;
        r.extent_count = self.objmap.extent_count();
        r
    }
}

/// Extends relocated pieces (sorted, disjoint) across small gaps (§4.6
/// defragmentation): a gap up to [`DEFRAG_HOLE_SECTORS`] is copied too —
/// from its current object if mapped, as zero fill if never written — so
/// vLBA-adjacent pieces land contiguously in the new object and their map
/// extents merge.
fn plug_holes(pieces: Vec<(Lba, u32)>) -> Vec<(Lba, u32)> {
    let mut out: Vec<(Lba, u32)> = Vec::with_capacity(pieces.len());
    for (lba, len) in pieces {
        if let Some(last) = out.last_mut() {
            let gap_start = last.0 + last.1 as u64;
            if lba - gap_start <= DEFRAG_HOLE_SECTORS {
                last.1 += (lba - gap_start) as u32 + len;
                continue;
            }
        }
        out.push((lba, len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: GcSimMode) -> GcSimConfig {
        GcSimConfig {
            batch_sectors: 1024, // 512 KiB batches for fast tests
            mode,
            ..Default::default()
        }
    }

    #[test]
    fn sequential_writes_have_waf_one_and_tiny_map() {
        let mut sim = GcSim::new(cfg(GcSimMode::Merge));
        for i in 0..10_000u64 {
            sim.write(i * 32, 32);
        }
        let r = sim.finish();
        assert_eq!(r.waf(), 1.0, "no overwrites, no GC copies");
        assert_eq!(r.merge_ratio(), 0.0);
        // Extents cannot merge across objects (they point into different
        // backend objects), so a pure-sequential run has one extent per
        // object.
        assert_eq!(r.extent_count as u64, r.objects_created);
        assert_eq!(r.objects_deleted, 0);
    }

    #[test]
    fn hot_overwrites_merge_within_batch() {
        let mut sim = GcSim::new(cfg(GcSimMode::Merge));
        // Write the same 16 sectors over and over: nearly everything merges.
        for _ in 0..10_000 {
            sim.write(0, 16);
        }
        let r = sim.finish();
        assert!(r.merge_ratio() > 0.9, "merge ratio {}", r.merge_ratio());
        assert!(r.waf() < 0.1, "almost nothing reaches the backend");
    }

    #[test]
    fn no_merge_mode_ships_everything() {
        let mut sim = GcSim::new(cfg(GcSimMode::NoMerge));
        for _ in 0..1000 {
            sim.write(0, 16);
        }
        let r = sim.finish();
        assert_eq!(r.merged_sectors, 0);
        assert!(r.backend_sectors >= 1000 * 16, "all writes shipped");
    }

    #[test]
    fn random_overwrites_trigger_gc_and_bound_garbage() {
        let mut sim = GcSim::new(cfg(GcSimMode::Merge));
        // 4 MiB footprint, write ~40 MiB randomly-ish.
        let footprint = 8192u64;
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (x >> 33) % footprint / 8 * 8;
            sim.write(lba, 8);
        }
        let util = sim.current_utilization();
        assert!(util >= 0.65, "GC keeps utilization near threshold: {util}");
        let r = sim.finish();
        assert!(r.objects_deleted > 0, "GC ran");
        assert!(r.gc_copied_sectors > 0);
        assert!(r.waf() > 1.0 && r.waf() < 3.0, "WAF {}", r.waf());
    }

    #[test]
    fn defrag_shrinks_extent_count() {
        // Interleaved small writes leave a riddled map; hole plugging
        // during GC must reduce extents versus plain merge.
        let run = |mode| {
            let mut sim = GcSim::new(GcSimConfig {
                batch_sectors: 1024,
                mode,
                ..Default::default()
            });
            // Base layer: everything written once.
            for i in 0..2048u64 {
                sim.write(i * 8, 8);
            }
            // Scattered overwrites at odd offsets fragment the map and
            // trigger GC.
            let mut x = 9u64;
            for _ in 0..30_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let slot = (x >> 33) % 1024;
                sim.write(slot * 16 + 8, 8);
            }
            sim.finish()
        };
        let plain = run(GcSimMode::Merge);
        let defrag = run(GcSimMode::MergeDefrag);
        assert!(
            defrag.extent_count < plain.extent_count,
            "defrag {} < plain {}",
            defrag.extent_count,
            plain.extent_count
        );
        // At bounded extra write cost.
        assert!(defrag.waf() < plain.waf() * 1.5);
    }

    #[test]
    fn cost_benefit_beats_greedy_on_skewed_churn() {
        // The classic LFS result (Rosenblum §5.2): under *space pressure*
        // — tight utilization watermarks, so the cleaner cannot wait for
        // victims to go nearly dead — greedy cleans whatever is cheapest
        // right now, endlessly re-copying hot survivors that die again
        // moments later, while cost-benefit segregates: it clears old,
        // stable cold objects once and lets hot garbage ripen. With
        // abundant slack (the 0.70/0.75 defaults) the two converge —
        // greedy finds nearly-dead victims for free — so this run pins
        // the watermarks high. Cost-benefit must copy measurably fewer
        // sectors, i.e. lower cleaning write amplification.
        let run = |policy| {
            let mut sim = GcSim::new(GcSimConfig {
                batch_sectors: 1024,
                gc_low: 0.90,
                gc_high: 0.93,
                policy,
                ..Default::default()
            });
            // Base layer: every slot written once, oldest objects cold.
            let slots = 8192u64;
            let hot = slots / 10;
            for i in 0..slots {
                sim.write(i * 8, 8);
            }
            // 90 % of the churn hits the hottest 10 % of slots.
            let mut x = 0xDEAD_BEEF_u64;
            for _ in 0..120_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let slot = if (x >> 13) % 10 < 9 {
                    (x >> 33) % hot
                } else {
                    hot + (x >> 33) % (slots - hot)
                };
                sim.write(slot * 8, 8);
            }
            sim.finish()
        };
        let greedy = run(GcPolicy::Greedy);
        let cb = run(GcPolicy::CostBenefit);
        assert!(greedy.gc_copied_sectors > 0, "GC ran in the baseline");
        assert!(
            cb.gc_copied_sectors < greedy.gc_copied_sectors,
            "cost-benefit copied {} sectors vs greedy {}",
            cb.gc_copied_sectors,
            greedy.gc_copied_sectors
        );
        assert!(
            cb.waf() < greedy.waf(),
            "cost-benefit WAF {} vs greedy {}",
            cb.waf(),
            greedy.waf()
        );
    }

    #[test]
    fn waf_accounting_identity_holds() {
        let mut sim = GcSim::new(cfg(GcSimMode::Merge));
        // Base layer, then scattered partial overwrites: collected objects
        // end partially live, so GC must copy.
        for i in 0..4096u64 {
            sim.write(i * 8, 8);
        }
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (x >> 33) % 4096 / 2 * 16; // overwrite even slots only
            sim.write(lba, 8);
        }
        let r = sim.finish();
        assert!(
            r.gc_copied_sectors > 0,
            "partially-live objects were copied"
        );
        assert_eq!(
            r.backend_sectors,
            r.client_sectors - r.merged_sectors + r.gc_copied_sectors,
            "every backend sector is a client sector or a GC copy"
        );
    }
}
