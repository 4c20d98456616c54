//! The block-store object map and per-object liveness table (§3.1, §3.5).
//!
//! The object map translates virtual LBAs to `(object sequence, offset)`
//! locations in the immutable backend stream. A second extent map inverts
//! it: keyed by location, it answers "which extents of object X are still
//! live?" with one range query. A read miss admits a prefetched window
//! from it, and the cleaner lists a victim's pieces from it
//! ([`ObjectMap::live_in`]). Alongside both, an in-memory object table
//! tracks each object's size and remaining live data, "allowing efficient
//! selection of cleaning candidates" for the garbage collector. The
//! forward map and the table are persisted in map checkpoints and rebuilt
//! from object headers on recovery; the index is rebuilt from the forward
//! map.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use crate::extent_map::{ExtentMap, ExtentValue, Segment};
use crate::types::{Lba, ObjSeq};

/// A location in the backend object stream: sector `off` of the data area
/// of object `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjLoc {
    /// Object sequence number.
    pub seq: ObjSeq,
    /// Sector offset within the object's data area.
    pub off: u32,
}

impl ObjLoc {
    /// The location's key in the index, `seq << 32 | off`: each object's
    /// data area is one key range, in object order.
    fn key(self) -> u64 {
        (self.seq as u64) << 32 | self.off as u64
    }
}

impl ExtentValue for ObjLoc {
    fn advance(self, delta: u64) -> Self {
        ObjLoc {
            seq: self.seq,
            off: self.off + delta as u32,
        }
    }
}

/// Liveness statistics for one backend object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjStat {
    /// Total object size in sectors (header + data).
    pub total_sectors: u32,
    /// Data-area sectors.
    pub data_sectors: u32,
    /// Data sectors still referenced by the map.
    pub live_sectors: u32,
    /// Whether this object was written by the garbage collector.
    pub gc: bool,
    /// Logical write time of the data this object carries, measured in
    /// object sequence numbers: a foreground object's own sequence, or —
    /// for a GC relocation object — the *youngest* contributing source's
    /// stamp, so surviving cold data keeps its age across relocations
    /// (the LFS/RAMCloud cost-benefit input).
    pub write_stamp: u32,
}

impl ObjStat {
    /// Live fraction of the data area.
    pub fn live_ratio(&self) -> f64 {
        if self.data_sectors == 0 {
            0.0
        } else {
            self.live_sectors as f64 / self.data_sectors as f64
        }
    }

    /// Age in logical time (object sequences) relative to the current log
    /// head `now`.
    pub fn age(&self, now: ObjSeq) -> u32 {
        now.saturating_sub(self.write_stamp)
    }
}

/// The object map, its location index and the object table.
#[derive(Debug, Clone, Default)]
pub struct ObjectMap {
    /// vLBA → location.
    map: ExtentMap<ObjLoc>,
    /// Location ([`ObjLoc::key`]) → vLBA: every extent of `map`, inverted.
    index: ExtentMap<Lba>,
    table: BTreeMap<ObjSeq, ObjStat>,
}

impl ObjectMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a new data object's extents, in order: overwritten older
    /// pieces lose liveness, and the new object enters the table live
    /// except where a later extent of its own overwrites an earlier one.
    ///
    /// `hdr_sectors` is the object's header size (counted in total size so
    /// utilization matches the paper's "ratio of live data to total object
    /// size").
    pub fn apply_object(&mut self, seq: ObjSeq, hdr_sectors: u32, extents: &[(Lba, u32)]) {
        let data_sectors: u32 = extents.iter().map(|&(_, len)| len).sum();
        // The entry goes in first, so a vLBA the object maps twice decays
        // its own earlier copy.
        self.table.insert(
            seq,
            ObjStat {
                total_sectors: hdr_sectors + data_sectors,
                data_sectors,
                live_sectors: data_sectors,
                gc: false,
                write_stamp: seq,
            },
        );
        let mut off = 0u32;
        for &(lba, len) in extents {
            for (_, plen, pval) in self.map.overlaps(lba, len as u64) {
                // A piece of this object at or past `off` is its own
                // earlier application of this extent (a replayed header),
                // and stays live.
                if pval.seq == seq && pval.off >= off {
                    self.index.remove(pval.key(), plen);
                } else {
                    self.unmap_piece(pval, plen);
                }
            }
            self.map_range(lba, len as u64, ObjLoc { seq, off });
            off += len;
        }
    }

    /// Applies a GC object: `pieces` are `(vLBA, sectors, expected_old)` —
    /// each map range is redirected to the new object *only if* it still
    /// points at the old location, so data overwritten while the collector
    /// ran is never resurrected.
    ///
    /// Returns the number of sectors actually redirected.
    pub fn apply_gc_object(
        &mut self,
        seq: ObjSeq,
        hdr_sectors: u32,
        pieces: &[(Lba, u32, ObjLoc)],
    ) -> u32 {
        let mut off = 0u32;
        let mut moved = 0u32;
        let mut data_sectors = 0u32;
        // Inherit the youngest contributing source's write stamp before
        // the redirect loop mutates anything; sources missing from the
        // table (already retired) fall back to the relocation's own seq.
        let write_stamp = pieces
            .iter()
            .filter_map(|&(_, _, expect)| self.table.get(&expect.seq))
            .map(|s| s.write_stamp)
            .max()
            .unwrap_or(seq);
        for &(lba, len, expect) in pieces {
            // Only redirect sub-ranges that still match the expected source.
            for (plo, plen, pval) in self.map.overlaps(lba, len as u64) {
                if pval.seq == expect.seq && pval.off == expect.off + (plo - lba) as u32 {
                    self.unmap_piece(pval, plen);
                    self.map_range(
                        plo,
                        plen,
                        ObjLoc {
                            seq,
                            off: off + (plo - lba) as u32,
                        },
                    );
                    moved += plen as u32;
                    self.bump(seq, plen as u32);
                }
            }
            off += len;
            data_sectors += len;
        }
        // Enter/replace the table entry with the true live count (bump()
        // above accumulated into a default entry).
        let live = self.table.get(&seq).map_or(moved, |s| s.live_sectors);
        self.table.insert(
            seq,
            ObjStat {
                total_sectors: hdr_sectors + data_sectors,
                data_sectors,
                live_sectors: live,
                gc: true,
                write_stamp,
            },
        );
        moved
    }

    fn bump(&mut self, seq: ObjSeq, sectors: u32) {
        let stat = self.table.entry(seq).or_insert(ObjStat {
            total_sectors: 0,
            data_sectors: 0,
            live_sectors: 0,
            gc: true,
            write_stamp: seq,
        });
        stat.live_sectors += sectors;
    }

    /// Maps `[lba, lba+sectors)` to `loc` onward, in the map and the
    /// index. The range's old pieces must already be out of the index.
    fn map_range(&mut self, lba: Lba, sectors: u64, loc: ObjLoc) {
        self.map.insert(lba, sectors, loc);
        self.index.insert(loc.key(), sectors, lba);
    }

    /// Drops a piece about to be overwritten or trimmed — `sectors` at
    /// `loc` — from the index and from its object's liveness.
    fn unmap_piece(&mut self, loc: ObjLoc, sectors: u64) {
        self.index.remove(loc.key(), sectors);
        if let Some(stat) = self.table.get_mut(&loc.seq) {
            stat.live_sectors = stat.live_sectors.saturating_sub(sectors as u32);
        }
    }

    /// Punches a hole (e.g. TRIM): drops mappings and liveness.
    pub fn discard(&mut self, lba: Lba, sectors: u64) {
        for (_, plen, pval) in self.map.overlaps(lba, sectors) {
            self.unmap_piece(pval, plen);
        }
        self.map.remove(lba, sectors);
    }

    /// Resolves a read range into object locations and holes.
    pub fn resolve(&self, lba: Lba, sectors: u64) -> Vec<Segment<ObjLoc>> {
        self.map.resolve(lba, sectors)
    }

    /// The extent containing `lba`, if mapped.
    pub fn lookup(&self, lba: Lba) -> Option<(Lba, u64, ObjLoc)> {
        self.map.lookup(lba)
    }

    /// Mapped pieces overlapping `[lba, lba+sectors)`, clipped.
    pub fn overlaps(&self, lba: Lba, sectors: u64) -> Vec<(Lba, u64, ObjLoc)> {
        self.map.overlaps(lba, sectors)
    }

    /// The live pieces of object `seq` whose data-area sectors fall in
    /// `offsets`, as `(vLBA, sectors, location)` in object order: the
    /// map's extents that point into that range, clipped to it. One range
    /// query on the index; `live_in(seq, ..)` lists the whole object.
    pub fn live_in(&self, seq: ObjSeq, offsets: impl RangeBounds<u32>) -> Vec<(Lba, u32, ObjLoc)> {
        let lo = match offsets.start_bound() {
            Bound::Included(&o) => o as u64,
            Bound::Excluded(&o) => o as u64 + 1,
            Bound::Unbounded => 0,
        };
        let hi = match offsets.end_bound() {
            Bound::Included(&o) => o as u64 + 1,
            Bound::Excluded(&o) => o as u64,
            Bound::Unbounded => 1 << 32,
        };
        let base = ObjLoc { seq, off: 0 }.key();
        self.index
            .overlaps(base + lo, hi.saturating_sub(lo))
            .into_iter()
            .map(|(key, len, lba)| {
                let off = (key - base) as u32;
                (lba, len as u32, ObjLoc { seq, off })
            })
            .collect()
    }

    /// Removes object `seq` from the table (after deletion from the store).
    /// The map and the index are left as they are: a retired victim has no
    /// live pieces left.
    pub fn remove_object(&mut self, seq: ObjSeq) {
        self.table.remove(&seq);
    }

    /// Per-object statistics.
    pub fn object_stat(&self, seq: ObjSeq) -> Option<ObjStat> {
        self.table.get(&seq).copied()
    }

    /// Iterates `(seq, stat)` over all tracked objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjSeq, ObjStat)> + '_ {
        self.table.iter().map(|(&s, &st)| (s, st))
    }

    /// Sums `(live_sectors, total_sectors)` over all objects.
    pub fn totals(&self) -> (u64, u64) {
        let mut live = 0u64;
        let mut total = 0u64;
        for st in self.table.values() {
            live += st.live_sectors as u64;
            total += st.total_sectors as u64;
        }
        (live, total)
    }

    /// Number of map extents (the Table 5 memory metric).
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    /// Number of tracked objects.
    pub fn object_count(&self) -> usize {
        self.table.len()
    }

    /// Iterates all map extents (for checkpoint serialization).
    pub fn map_extents(&self) -> impl Iterator<Item = (Lba, u64, ObjLoc)> + '_ {
        self.map.iter()
    }

    /// Rebuilds from checkpoint data: raw extents and table entries.
    ///
    /// Checkpoints serialize [`ObjectMap::map_extents`] in address order,
    /// so the restore goes through [`ExtentMap::bulk_load`]'s sorted fast
    /// path instead of paying full overwrite-insert per extent; the index
    /// is bulk-loaded from the same extents sorted by location.
    pub fn from_parts(
        extents: impl IntoIterator<Item = (Lba, u64, ObjLoc)>,
        table: impl IntoIterator<Item = (ObjSeq, ObjStat)>,
    ) -> Self {
        let map = ExtentMap::bulk_load(extents);
        let mut by_loc: Vec<(u64, u64, Lba)> = map
            .iter()
            .map(|(lba, len, loc)| (loc.key(), len, lba))
            .collect();
        by_loc.sort_unstable_by_key(|&(key, _, _)| key);
        ObjectMap {
            map,
            index: ExtentMap::bulk_load(by_loc),
            table: table.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_object_maps_extents_in_order() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(100, 8), (500, 4)]);
        assert_eq!(m.lookup(100), Some((100, 8, ObjLoc { seq: 1, off: 0 })));
        assert_eq!(m.lookup(500), Some((500, 4, ObjLoc { seq: 1, off: 8 })));
        assert_eq!(m.lookup(200), None);
        let st = m.object_stat(1).unwrap();
        assert_eq!(st.data_sectors, 12);
        assert_eq!(st.live_sectors, 12);
        assert_eq!(st.total_sectors, 13);
        assert_eq!(st.live_ratio(), 1.0);
    }

    #[test]
    fn object_overwriting_itself_counts_each_vlba_once() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 0, &[(0, 8), (0, 8)]);
        let st = m.object_stat(1).unwrap();
        assert_eq!((st.live_sectors, st.data_sectors), (8, 16));
        assert_eq!(m.lookup(0), Some((0, 8, ObjLoc { seq: 1, off: 8 })));
        // Replaying the same header changes nothing.
        m.apply_object(1, 0, &[(0, 8), (0, 8)]);
        assert_eq!(m.object_stat(1), Some(st));
        assert_eq!(m.lookup(0), Some((0, 8, ObjLoc { seq: 1, off: 8 })));
    }

    #[test]
    fn overwrite_decays_old_object() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16)]);
        m.apply_object(2, 1, &[(4, 8)]);
        assert_eq!(m.object_stat(1).unwrap().live_sectors, 8);
        assert_eq!(m.object_stat(2).unwrap().live_sectors, 8);
        // The split pieces of object 1 remain addressable.
        assert_eq!(m.lookup(0), Some((0, 4, ObjLoc { seq: 1, off: 0 })));
        assert_eq!(m.lookup(4), Some((4, 8, ObjLoc { seq: 2, off: 0 })));
        assert_eq!(m.lookup(12), Some((12, 4, ObjLoc { seq: 1, off: 12 })));
    }

    #[test]
    fn utilization_tracks_overwrites() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 0, &[(0, 100)]);
        assert_eq!(m.totals(), (100, 100));
        m.apply_object(2, 0, &[(0, 100)]); // full overwrite
        assert_eq!(m.totals(), (100, 200));
    }

    #[test]
    fn live_pieces_found_via_header_extents() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(100, 8), (0, 16)]);
        m.apply_object(2, 1, &[(4, 4)]); // kills 4 sectors of object 1
        let pieces = m.live_in(1, ..);
        // In object order, with offsets into object 1's data area: the
        // header's extents filtered through the map, and nothing else.
        assert_eq!(
            pieces,
            vec![
                (100, 8, ObjLoc { seq: 1, off: 0 }),
                (0, 4, ObjLoc { seq: 1, off: 8 }),
                (8, 8, ObjLoc { seq: 1, off: 16 }),
            ]
        );
        let mut filtered = Vec::new();
        for &(lba, len) in &[(100u64, 8u64), (0, 16)] {
            for (plo, plen, loc) in m.overlaps(lba, len) {
                if loc.seq == 1 {
                    filtered.push((plo, plen as u32, loc));
                }
            }
        }
        assert_eq!(pieces, filtered);
        // A range of offsets clips the pieces to it.
        assert_eq!(
            m.live_in(1, 6..18),
            vec![
                (106, 2, ObjLoc { seq: 1, off: 6 }),
                (0, 4, ObjLoc { seq: 1, off: 8 }),
                (8, 2, ObjLoc { seq: 1, off: 16 }),
            ]
        );
        assert_eq!(m.live_in(2, ..), vec![(4, 4, ObjLoc { seq: 2, off: 0 })]);
        assert!(m.live_in(3, ..).is_empty());
    }

    #[test]
    fn index_follows_gc_trim_and_self_overwrite() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16), (0, 4)]); // maps [0,4) twice
        assert_eq!(
            m.live_in(1, ..),
            vec![
                (4, 12, ObjLoc { seq: 1, off: 4 }),
                (0, 4, ObjLoc { seq: 1, off: 16 }),
            ]
        );
        m.discard(8, 2);
        let moved = m.apply_gc_object(2, 1, &m.live_in(1, 4..16));
        assert_eq!(moved, 10);
        assert_eq!(m.live_in(1, ..), vec![(0, 4, ObjLoc { seq: 1, off: 16 })]);
        assert_eq!(
            m.live_in(2, ..),
            vec![
                (4, 4, ObjLoc { seq: 2, off: 0 }),
                (10, 6, ObjLoc { seq: 2, off: 4 }),
            ]
        );
        let rebuilt = ObjectMap::from_parts(m.map_extents(), m.objects());
        assert_eq!(
            rebuilt.index.iter().collect::<Vec<_>>(),
            m.index.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn gc_object_redirects_only_still_live_pieces() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16)]);
        m.apply_object(2, 1, &[(0, 4)]); // first 4 sectors overwritten
        let pieces = m.live_in(1, ..);
        // GC writes object 3 containing those pieces.
        let moved = m.apply_gc_object(3, 1, &pieces);
        assert_eq!(moved, 12);
        assert_eq!(m.object_stat(1).unwrap().live_sectors, 0);
        assert_eq!(m.object_stat(3).unwrap().live_sectors, 12);
        assert!(m.object_stat(3).unwrap().gc);
        assert_eq!(m.lookup(0), Some((0, 4, ObjLoc { seq: 2, off: 0 })));
        assert_eq!(m.lookup(4).unwrap().2.seq, 3);
    }

    #[test]
    fn gc_does_not_resurrect_concurrent_overwrites() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16)]);
        let pieces = m.live_in(1, ..);
        // A write lands *after* the collector picked its pieces...
        m.apply_object(2, 1, &[(0, 8)]);
        // ...then the GC object arrives.
        let moved = m.apply_gc_object(3, 1, &pieces);
        assert_eq!(moved, 8, "only the untouched half moves");
        assert_eq!(m.lookup(0).unwrap().2.seq, 2, "newer write wins");
        assert_eq!(m.lookup(8).unwrap().2.seq, 3);
    }

    #[test]
    fn gc_object_inherits_youngest_source_stamp() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16)]);
        m.apply_object(5, 1, &[(100, 8)]);
        assert_eq!(m.object_stat(1).unwrap().write_stamp, 1);
        assert_eq!(m.object_stat(1).unwrap().age(9), 8);
        let mut pieces = m.live_in(1, ..);
        pieces.extend(m.live_in(5, ..));
        m.apply_gc_object(9, 1, &pieces);
        // The relocation carries data last written at seq 1 and seq 5: the
        // youngest stamp (5) survives, not the relocation's own seq.
        assert_eq!(m.object_stat(9).unwrap().write_stamp, 5);
    }

    #[test]
    fn discard_drops_mapping_and_liveness() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 0, &[(0, 16)]);
        m.discard(0, 8);
        assert_eq!(m.lookup(0), None);
        assert_eq!(m.object_stat(1).unwrap().live_sectors, 8);
    }

    #[test]
    fn checkpoint_parts_round_trip() {
        let mut m = ObjectMap::new();
        m.apply_object(1, 1, &[(0, 16), (64, 8)]);
        m.apply_object(2, 1, &[(4, 4)]);
        let rebuilt = ObjectMap::from_parts(
            m.map_extents().collect::<Vec<_>>(),
            m.objects().collect::<Vec<_>>(),
        );
        assert_eq!(rebuilt.extent_count(), m.extent_count());
        assert_eq!(rebuilt.lookup(4), m.lookup(4));
        assert_eq!(rebuilt.object_stat(1), m.object_stat(1));
        assert_eq!(rebuilt.totals(), m.totals());
    }
}
